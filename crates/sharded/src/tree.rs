//! One shard: a single template tree of either backend, and its
//! per-thread handle.

use std::sync::Arc;

use threepath_abtree::{AbTree, AbTreeConfig, AbTreeHandle};
use threepath_bst::{Bst, BstConfig, BstHandle};
use threepath_core::{BatchApply, BatchOp, PathKind, PathStats};

use crate::map::ShardedConfig;

/// Which template tree backs each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardBackend {
    /// External unbalanced BST (paper Section 6.1).
    Bst,
    /// Relaxed (a,b)-tree (paper Section 6.2).
    AbTree,
}

impl std::fmt::Display for ShardBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ShardBackend::Bst => "bst",
            ShardBackend::AbTree => "abtree",
        })
    }
}

/// A single template tree of either backend — one shard of a
/// [`ShardedMap`](crate::ShardedMap), also usable standalone as a uniform
/// front over [`Bst`]/[`AbTree`] (the workload harness drives unsharded
/// trials through it). Each instance owns its own HTM runtime and
/// reclamation domain (created by the tree constructor).
#[derive(Clone)]
pub enum ShardTree {
    /// External unbalanced BST.
    Bst(Arc<Bst>),
    /// Relaxed (a,b)-tree.
    AbTree(Arc<AbTree>),
}

impl ShardTree {
    /// Builds the tree for shard `shard` of `cfg`. Every shard is built
    /// from the same per-tree fields, so this is [`ShardTree::build`].
    pub fn build_shard(cfg: &ShardedConfig, _shard: usize) -> ShardTree {
        Self::build(cfg)
    }

    /// Builds one tree from the per-tree fields of `cfg` (`backend`,
    /// `strategy`, `htm`, `reclaim`, `search_outside_txn`, `snzi`, ...);
    /// `shards`, `key_space` and `router` are partitioning concerns and
    /// ignored.
    pub fn build(cfg: &ShardedConfig) -> ShardTree {
        let htm = cfg.htm.clone();
        match cfg.backend {
            ShardBackend::Bst => ShardTree::Bst(Arc::new(Bst::with_config(BstConfig {
                strategy: cfg.strategy,
                htm,
                limits: cfg.limits,
                reclaim: cfg.reclaim,
                search_outside_txn: cfg.search_outside_txn,
                snzi: cfg.snzi,
                pool: cfg.pool,
                read_path: cfg.read_path,
                scan_path: cfg.scan_path,
                admission: cfg.admission,
                batched: cfg.batched,
            }))),
            ShardBackend::AbTree => ShardTree::AbTree(Arc::new(AbTree::with_config(AbTreeConfig {
                strategy: cfg.strategy,
                htm,
                limits: cfg.limits,
                reclaim: cfg.reclaim,
                search_outside_txn: cfg.search_outside_txn,
                snzi: cfg.snzi,
                pool: cfg.pool,
                read_path: cfg.read_path,
                scan_path: cfg.scan_path,
                admission: cfg.admission,
                batched: cfg.batched,
                ..AbTreeConfig::default()
            }))),
        }
    }

    /// Registers the calling thread and returns an operation handle.
    pub fn handle(&self) -> ShardHandle {
        match self {
            ShardTree::Bst(t) => ShardHandle::Bst(t.handle()),
            ShardTree::AbTree(t) => ShardHandle::AbTree(t.handle()),
        }
    }

    /// Whether the tree was built with the batch entry point enabled.
    pub fn is_batched(&self) -> bool {
        match self {
            ShardTree::Bst(t) => t.is_batched(),
            ShardTree::AbTree(t) => t.is_batched(),
        }
    }

    /// Whether serialized work (the fallback path or a holder of the
    /// fallback lock) is in progress on this tree right now.
    pub fn serialized_active(&self) -> bool {
        match self {
            ShardTree::Bst(t) => t.serialized_active(),
            ShardTree::AbTree(t) => t.serialized_active(),
        }
    }

    /// Node-pool counters folded into the tree's domain so far.
    pub fn pool_stats(&self) -> threepath_reclaim::PoolStats {
        match self {
            ShardTree::Bst(t) => t.pool_stats(),
            ShardTree::AbTree(t) => t.pool_stats(),
        }
    }

    /// Sum of all keys (quiescent).
    pub fn key_sum(&self) -> u128 {
        match self {
            ShardTree::Bst(t) => t.key_sum(),
            ShardTree::AbTree(t) => t.key_sum(),
        }
    }

    /// Number of keys (quiescent).
    pub fn len(&self) -> usize {
        match self {
            ShardTree::Bst(t) => t.len(),
            ShardTree::AbTree(t) => t.len(),
        }
    }

    /// Whether the tree is empty (quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All pairs in ascending key order (quiescent).
    pub fn collect(&self) -> Vec<(u64, u64)> {
        match self {
            ShardTree::Bst(t) => t.collect(),
            ShardTree::AbTree(t) => t.collect(),
        }
    }

    /// Structural validation (quiescent). Returns an error description on
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            ShardTree::Bst(t) => t.validate().map(|_| ()),
            ShardTree::AbTree(t) => t.validate().map(|_| ()),
        }
    }
}

impl std::fmt::Debug for ShardTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardTree::Bst(t) => t.fmt(f),
            ShardTree::AbTree(t) => t.fmt(f),
        }
    }
}

/// A per-thread handle to one [`ShardTree`].
pub enum ShardHandle {
    /// BST handle.
    Bst(BstHandle),
    /// (a,b)-tree handle.
    AbTree(AbTreeHandle),
}

impl ShardHandle {
    /// Inserts a pair, returning the previous value.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        match self {
            ShardHandle::Bst(h) => h.insert(key, value),
            ShardHandle::AbTree(h) => h.insert(key, value),
        }
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        match self {
            ShardHandle::Bst(h) => h.remove(key),
            ShardHandle::AbTree(h) => h.remove(key),
        }
    }

    /// Looks up a key.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        match self {
            ShardHandle::Bst(h) => h.get(key),
            ShardHandle::AbTree(h) => h.get(key),
        }
    }

    /// Range query over `[lo, hi)` (an atomic snapshot, as on the
    /// underlying tree).
    pub fn range_query(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        match self {
            ShardHandle::Bst(h) => h.range_query(lo, hi),
            ShardHandle::AbTree(h) => h.range_query(lo, hi),
        }
    }

    /// Applies a coalesced plan in submission order in one fast-path
    /// transaction or one serialized section (see the backend trees'
    /// `run_batch`). Requires a batched tree.
    pub fn run_batch(&mut self, ops: &[BatchOp]) -> (Vec<Option<u64>>, PathKind) {
        match self {
            ShardHandle::Bst(h) => h.run_batch(ops),
            ShardHandle::AbTree(h) => h.run_batch(ops),
        }
    }

    /// [`Self::run_batch`] with a flat-combining hook, invoked only when
    /// the batch escalates to the serialized section (while this thread
    /// holds the fallback lock).
    pub fn run_batch_with(
        &mut self,
        ops: &[BatchOp],
        combine: impl FnOnce(&mut dyn BatchApply),
    ) -> (Vec<Option<u64>>, PathKind) {
        match self {
            ShardHandle::Bst(h) => h.run_batch_with(ops, combine),
            ShardHandle::AbTree(h) => h.run_batch_with(ops, combine),
        }
    }

    /// Path statistics accumulated by this handle.
    pub fn stats(&self) -> &PathStats {
        match self {
            ShardHandle::Bst(h) => h.stats(),
            ShardHandle::AbTree(h) => h.stats(),
        }
    }
}
