//! A thin enum wrapper so the trial runner can drive any data structure —
//! single template tree or sharded map — through one interface.
//!
//! Per-tree dispatch (BST vs (a,b)-tree) lives in
//! [`threepath_sharded::ShardTree`]; this layer only distinguishes
//! single-tree from sharded execution, so the backend config mapping from a
//! [`TrialSpec`] is written exactly once ([`tree_config`]).

use std::sync::Arc;

use threepath_core::PathStats;
use threepath_sharded::{
    PersistConfig, ShardBackend, ShardHandle, ShardTree, ShardedConfig, ShardedHandle, ShardedMap,
};

use crate::spec::{PersistSpec, Structure, TrialSpec};

/// Maps the spec's durability knobs onto the sharded layer's config,
/// inventing a unique temp directory when the spec names none (so
/// repeated trial builds never collide on `WouldClobber`).
fn persist_config(spec: &PersistSpec) -> PersistConfig {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = spec.dir.clone().unwrap_or_else(|| {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("threepath-trial-{}-{n}", std::process::id()))
    });
    PersistConfig {
        fsync: spec.fsync,
        snapshot_every: spec.snapshot_every,
        ..PersistConfig::new(dir)
    }
}

/// Maps a trial spec onto the sharded-layer config: the per-tree knobs
/// verbatim, the trial's key range as the partitioned key space, plus the
/// routing and adaptive policies. `sharded` is false when building the
/// single-tree config, where routing and per-shard adaptivity do not
/// apply (a lone tree has no controller driving strategy swaps).
fn tree_config(spec: &TrialSpec, shards: usize, sharded: bool) -> ShardedConfig {
    ShardedConfig {
        shards,
        backend: match spec.structure.base() {
            Structure::Bst => ShardBackend::Bst,
            _ => ShardBackend::AbTree,
        },
        key_space: spec.key_range,
        router: spec.router,
        strategy: spec.strategy,
        adaptive: if sharded { spec.adaptive.clone() } else { None },
        htm: spec.htm.clone(),
        htm_overrides: Vec::new(),
        reclaim: spec.reclaim,
        search_outside_txn: spec.search_outside_txn,
        snzi: spec.snzi,
        limits: spec.limits,
        pool: spec.pool,
        budget: spec.budget.clone(),
        read_path: spec.read_path,
        scan_path: spec.scan_path,
        admission: spec.admission,
        read_probe: spec.read_probe.clone(),
        controller: None,
        admission_probe: spec.admission_probe.clone(),
        // Direct trials drive one op per transaction; batch coalescing is
        // the server trial runner's regime (see `crate::server_trial`).
        batched: false,
        persist: if sharded {
            spec.persist.as_ref().map(persist_config)
        } else {
            assert!(
                spec.persist.is_none(),
                "persistence requires a sharded structure (the WAL is per-shard)"
            );
            None
        },
    }
}

/// Any evaluation data structure.
#[derive(Clone)]
pub enum AnyTree {
    /// A single template tree (BST or (a,b)-tree).
    Single(ShardTree),
    /// Sharded map over independent template trees.
    Sharded(Arc<ShardedMap>),
}

impl AnyTree {
    /// Builds the structure described by `spec`. Sharded structures
    /// partition the spec's `key_range` across their shards, routed and
    /// (optionally) adapted per the spec's policy knobs.
    ///
    /// # Panics
    ///
    /// Panics if the spec's sharded configuration is invalid (e.g. zero
    /// shards) — the runner treats a malformed spec as programmer error,
    /// like its other spec assertions. Construct [`ShardedMap`] directly
    /// to handle [`threepath_sharded::ConfigError`] as data.
    pub fn build(spec: &TrialSpec) -> AnyTree {
        match spec.structure.shards() {
            None => AnyTree::Single(ShardTree::build(&tree_config(spec, 1, false))),
            Some(shards) => AnyTree::Sharded(Arc::new(
                ShardedMap::with_config(tree_config(spec, shards, true))
                    .expect("invalid sharded trial spec"),
            )),
        }
    }

    /// Registers the calling thread.
    pub fn handle(&self) -> AnyHandle {
        match self {
            AnyTree::Single(t) => AnyHandle::Single(t.handle()),
            AnyTree::Sharded(t) => AnyHandle::Sharded(t.handle()),
        }
    }

    /// Final key sum (quiescent).
    pub fn key_sum(&self) -> u128 {
        match self {
            AnyTree::Single(t) => t.key_sum(),
            AnyTree::Sharded(t) => t.key_sum(),
        }
    }

    /// Number of keys (quiescent).
    pub fn len(&self) -> usize {
        match self {
            AnyTree::Single(t) => t.len(),
            AnyTree::Sharded(t) => t.len(),
        }
    }

    /// Whether the structure is empty (quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural validation (quiescent). Returns an error description on
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            AnyTree::Single(t) => t.validate(),
            AnyTree::Sharded(t) => t.validate(),
        }
    }

    /// Node-pool counters (summed across shards for sharded structures).
    /// Contexts fold their counters on drop, so read after worker handles
    /// are gone for a complete picture.
    pub fn pool_stats(&self) -> threepath_reclaim::PoolStats {
        match self {
            AnyTree::Single(t) => t.pool_stats(),
            AnyTree::Sharded(t) => t.pool_stats(),
        }
    }
}

impl std::fmt::Debug for AnyTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnyTree::Single(t) => t.fmt(f),
            AnyTree::Sharded(t) => t.fmt(f),
        }
    }
}

/// A per-thread handle to an [`AnyTree`].
pub enum AnyHandle {
    /// Single-tree handle.
    Single(ShardHandle),
    /// Sharded-map handle (caches one inner handle per touched shard).
    Sharded(ShardedHandle),
}

impl AnyHandle {
    /// Inserts a pair, returning the previous value.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        match self {
            AnyHandle::Single(h) => h.insert(key, value),
            AnyHandle::Sharded(h) => h.insert(key, value),
        }
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        match self {
            AnyHandle::Single(h) => h.remove(key),
            AnyHandle::Sharded(h) => h.remove(key),
        }
    }

    /// Looks up a key.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        match self {
            AnyHandle::Single(h) => h.get(key),
            AnyHandle::Sharded(h) => h.get(key),
        }
    }

    /// Range query over `[lo, hi)`.
    pub fn range_query(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        match self {
            AnyHandle::Single(h) => h.range_query(lo, hi),
            AnyHandle::Sharded(h) => h.range_query(lo, hi),
        }
    }

    /// A snapshot of the path statistics accumulated by this handle (for
    /// sharded structures, merged across every shard the thread touched).
    pub fn stats(&self) -> PathStats {
        match self {
            AnyHandle::Single(h) => h.stats().clone(),
            AnyHandle::Sharded(h) => h.stats(),
        }
    }
}
