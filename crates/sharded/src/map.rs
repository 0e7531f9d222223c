//! The sharded map, its configuration and per-thread handles.

use std::sync::Arc;

use threepath_core::{BatchApply, BatchOp, PathKind, PathStats, Strategy};
use threepath_htm::HtmConfig;
use threepath_persist::{PersistConfig, PersistError, ShardLogs, ShardWal};
use threepath_reclaim::ReclaimMode;

use crate::persist::{append_record, await_reply};
use crate::router::{ConfigError, HashRouter, RangeRouter, Router, RouterKind};
use crate::tree::{ShardBackend, ShardHandle, ShardTree};

/// Configuration for a [`ShardedMap`].
///
/// The per-tree knobs (`strategy`, `htm`, `reclaim`, `search_outside_txn`,
/// `snzi`) apply to **every** shard; each shard still instantiates its own
/// runtime and domain from them. `router` is the policy axis: how keys
/// map to shards.
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of shards (`>= 1`).
    pub shards: usize,
    /// Tree type backing each shard.
    pub backend: ShardBackend,
    /// Expected key-space upper bound. The range router partitions
    /// `[0, key_space)` evenly (keys `>= key_space` land in the last
    /// shard); the hash router ignores it.
    pub key_space: u64,
    /// Shard-routing policy (see [`RouterKind`]).
    pub router: RouterKind,
    /// Execution-path strategy for every shard.
    pub strategy: Strategy,
    /// Simulated-HTM parameters (each shard builds its own runtime).
    pub htm: HtmConfig,
    /// Memory-reclamation mode (each shard builds its own domain).
    pub reclaim: ReclaimMode,
    /// Section 8 variant (search outside transactions).
    pub search_outside_txn: bool,
    /// Use a SNZI in place of the fetch-and-increment counter `F`.
    pub snzi: bool,
    /// Fixed attempt budgets for every shard; `None` uses the paper's
    /// per-strategy defaults.
    pub limits: Option<threepath_core::PathLimits>,
    /// Per-thread node pools in every shard's reclamation domain (on by
    /// default — see [`threepath_reclaim::NodePool`]). Off gives the
    /// `Box`-based allocator baseline.
    pub pool: bool,
    /// Route every shard's `get`/`contains`/`first`/`last` through the
    /// uninstrumented wait-free read path (zero transactions and locks;
    /// seqlock-validated on the (a,b)-tree backend). On by default; off
    /// routes reads through the template's paths — the read-heavy
    /// benchmarks' baseline.
    pub read_path: bool,
    /// Route every shard's `range_query` through the uninstrumented
    /// optimistic scan path (epoch-pinned multi-leaf validation with a
    /// partial-rescan escalation tier; zero transactions on the calm
    /// path). Cross-shard range queries then feed per-shard optimistic
    /// scans into the usual concat/sort-merge plan, so they are
    /// transaction-free end-to-end when every shard's scan succeeds
    /// optimistically. On by default; off routes scans through the
    /// template's paths — the scan benchmarks' baseline.
    pub scan_path: bool,
    /// HTM admission control on every shard's fallback path: at most
    /// this many threads may attempt hardware transactions while the
    /// shard's fallback is active; the overflow parks on a ready lane
    /// and takes the fallback directly (see
    /// [`threepath_core::AdmissionGate`]). `None` (the default) admits
    /// everyone — the uncontrolled baseline.
    pub admission: Option<u32>,
    /// Enable per-shard batch entry points
    /// ([`ShardedHandle::shard_batch`]): coalesced same-shard plans
    /// commit in a single fast-path transaction or one serialized
    /// section, with a flat-combining hook for queue-draining servers.
    /// Requires a TLE or 3-path strategy.
    pub batched: bool,
    /// Per-shard durability: `Some` gives every shard an append-only,
    /// checksummed write-ahead log (plus periodic snapshots) in
    /// `persist.dir`, written **before** any update's reply is
    /// published, so [`ShardedMap::recover`] can rebuild the map after a
    /// crash. `None` (the default) is the volatile map — the update
    /// path's only extra cost is this one armed check. Building with
    /// `Some` initializes a fresh directory and refuses to clobber an
    /// existing one; use [`ShardedMap::recover`] to resume. Requires the
    /// built-in routers (the manifest must pin the partition).
    pub persist: Option<PersistConfig>,
}

impl ShardedConfig {
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        crate::persist::validate_persist(self)?;
        if self.admission == Some(0) {
            return Err(ConfigError::ZeroAdmissionWindow);
        }
        if self.batched && !threepath_core::BATCH_STRATEGIES.contains(&self.strategy) {
            return Err(ConfigError::BatchedStrategy(self.strategy));
        }
        Ok(())
    }
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            backend: ShardBackend::Bst,
            key_space: 1 << 20,
            router: RouterKind::Range,
            strategy: Strategy::ThreePath,
            htm: HtmConfig::default(),
            reclaim: ReclaimMode::Epoch,
            search_outside_txn: false,
            snzi: false,
            limits: None,
            pool: true,
            read_path: true,
            scan_path: true,
            admission: None,
            batched: false,
            persist: None,
        }
    }
}

/// A concurrent ordered map partitioned across `N` independent template
/// trees by a pluggable [`Router`] policy.
///
/// With the default [`RangeRouter`] the partition is contiguous: the map
/// stays globally ordered and cross-shard range queries are in-order
/// concatenations of per-shard queries. With a [`HashRouter`] keys stripe
/// across shards for load balance, and range queries sort-merge the
/// per-shard results instead (see [`ShardedHandle::range_query`]).
///
/// Create per-thread handles with [`ShardedMap::handle`]; all operations
/// go through handles, which lazily create and cache one inner tree
/// handle per shard the thread actually touches.
pub struct ShardedMap {
    shards: Vec<ShardTree>,
    router: Arc<dyn Router>,
    backend: ShardBackend,
    strategy: Strategy,
    key_space: u64,
    persist: Option<ShardLogs>,
}

impl ShardedMap {
    /// A map with the default configuration (4 range-routed BST shards,
    /// fixed 3-path).
    pub fn new() -> Self {
        Self::with_config(ShardedConfig::default()).expect("default config is valid")
    }

    /// A map with the given configuration, routing through the built-in
    /// policy `cfg.router` selects. With [`ShardedConfig::persist`] set
    /// this initializes a **fresh** persistence directory (manifest plus
    /// one empty log per shard) and fails with a typed
    /// [`PersistError::WouldClobber`] if the directory is already
    /// initialized — resume an existing directory with
    /// [`ShardedMap::recover`] instead.
    pub fn with_config(cfg: ShardedConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let router = Self::router_of(&cfg)?;
        let persist = match &cfg.persist {
            Some(_) => Some(crate::persist::create_logs(&cfg)?),
            None => None,
        };
        Self::build(cfg, router, persist)
    }

    /// A map routed by a custom [`Router`] policy. The router must
    /// partition exactly `cfg.shards` shards; `cfg.router` is ignored.
    /// Persistence is not supported here: the manifest can only pin the
    /// built-in routing policies, and recovering under a router it
    /// cannot validate would silently mis-partition the replayed keys.
    pub fn with_router(cfg: ShardedConfig, router: Arc<dyn Router>) -> Result<Self, ConfigError> {
        cfg.validate()?;
        if cfg.persist.is_some() {
            return Err(ConfigError::Persist(PersistError::InvalidConfig(
                "custom routers cannot be persisted: the manifest only pins built-in routing",
            )));
        }
        if router.shard_count() != cfg.shards {
            return Err(ConfigError::RouterShardMismatch {
                router: router.shard_count(),
                shards: cfg.shards,
            });
        }
        Self::build(cfg, router, None)
    }

    fn router_of(cfg: &ShardedConfig) -> Result<Arc<dyn Router>, ConfigError> {
        Ok(match cfg.router {
            RouterKind::Range => Arc::new(RangeRouter::new(cfg.shards, cfg.key_space)?),
            RouterKind::Hash => Arc::new(HashRouter::new(cfg.shards)?),
        })
    }

    /// Assembles a recovered map around already-recovered log writers
    /// (no fresh directory initialization).
    pub(crate) fn build_recovered(
        cfg: ShardedConfig,
        logs: ShardLogs,
    ) -> Result<Arc<Self>, ConfigError> {
        let router = Self::router_of(&cfg)?;
        Ok(Arc::new(Self::build(cfg, router, Some(logs))?))
    }

    fn build(
        cfg: ShardedConfig,
        router: Arc<dyn Router>,
        persist: Option<ShardLogs>,
    ) -> Result<Self, ConfigError> {
        let shards: Vec<ShardTree> = (0..cfg.shards).map(|_| ShardTree::build(&cfg)).collect();
        Ok(ShardedMap {
            shards,
            router,
            backend: cfg.backend,
            strategy: cfg.strategy,
            key_space: cfg.key_space,
            persist,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The tree type backing each shard.
    pub fn backend(&self) -> ShardBackend {
        self.backend
    }

    /// The execution strategy every shard runs.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The routing policy.
    pub fn router(&self) -> &Arc<dyn Router> {
        &self.router
    }

    /// The configured key-space upper bound.
    pub fn key_space(&self) -> u64 {
        self.key_space
    }

    /// Node-pool counters summed across every shard's domain (contexts
    /// fold on drop; read after handles are gone for a complete picture).
    pub fn pool_stats(&self) -> threepath_reclaim::PoolStats {
        let mut total = threepath_reclaim::PoolStats::default();
        for s in &self.shards {
            total.merge(&s.pool_stats());
        }
        total
    }

    /// Which shard owns `key` (delegates to the router).
    pub fn shard_of(&self, key: u64) -> usize {
        self.router.route(key)
    }

    /// Whether the shards were built with the batch entry point enabled
    /// (see [`ShardedConfig::batched`]).
    pub fn is_batched(&self) -> bool {
        self.shards.iter().all(ShardTree::is_batched)
    }

    /// Whether shard `shard` is executing serialized work right now — an
    /// operation on its tree's fallback path or a holder of its fallback
    /// lock — so that a fast-path batch started at this instant would
    /// abort on its subscription. Two plain loads of words nobody writes
    /// while the shard is calm; a momentary answer, for a front-end
    /// choosing between running a batch and queueing it behind the holder.
    pub fn shard_busy(&self, shard: usize) -> bool {
        self.shards[shard].serialized_active()
    }

    /// Registers the calling thread and returns an operation handle.
    pub fn handle(self: &Arc<Self>) -> ShardedHandle {
        ShardedHandle {
            cached: (0..self.shards.len()).map(|_| None).collect(),
            local: PathStats::new(),
            map: Arc::clone(self),
        }
    }

    /// Sum of all keys across shards (quiescent: callers must ensure no
    /// concurrent updates, as with the per-tree `key_sum`).
    pub fn key_sum(&self) -> u128 {
        self.shards.iter().map(ShardTree::key_sum).sum()
    }

    /// Number of keys across shards (quiescent).
    pub fn len(&self) -> usize {
        self.shards.iter().map(ShardTree::len).sum()
    }

    /// Whether the map is empty (quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Keys per shard, in shard order (quiescent) — the load-balance view.
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(ShardTree::len).collect()
    }

    /// All pairs in ascending key order (quiescent): per-shard collects
    /// concatenated in shard order, sorted once when the router does not
    /// preserve global order.
    pub fn collect(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for s in &self.shards {
            out.extend(s.collect());
        }
        if !self.router.preserves_order() {
            out.sort_unstable_by_key(|&(k, _)| k);
        }
        out
    }

    /// Validates every shard's structure and that each shard only holds
    /// keys the router assigns to it (quiescent).
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.shards.iter().enumerate() {
            s.validate().map_err(|e| format!("shard {i}: {e}"))?;
            for (k, _) in s.collect() {
                let owner = self.router.route(k);
                if owner != i {
                    return Err(format!(
                        "shard {i} holds key {k}, which the router assigns to shard {owner}"
                    ));
                }
            }
        }
        Ok(())
    }

    pub(crate) fn shard_tree(&self, shard: usize) -> &ShardTree {
        &self.shards[shard]
    }

    /// The map's shard logs and their flusher, or `None` on a volatile
    /// map.
    pub fn logs(&self) -> Option<&ShardLogs> {
        self.persist.as_ref()
    }
}

impl Default for ShardedMap {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ShardedMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMap")
            .field("shards", &self.shards.len())
            .field("backend", &self.backend)
            .field("router", &self.router)
            .field("strategy", &self.strategy)
            .field("key_space", &self.key_space)
            .field("persist", &self.persist.is_some())
            .finish()
    }
}

/// A per-thread handle to a [`ShardedMap`].
///
/// Inner shard handles are created lazily on first touch and cached, so a
/// thread that only ever works in one shard registers with exactly one
/// runtime/domain.
pub struct ShardedHandle {
    map: Arc<ShardedMap>,
    cached: Vec<Option<ShardHandle>>,
    /// Handle-local stats lanes the inner tree handles cannot see (the
    /// WAL lane); merged into [`ShardedHandle::stats`].
    local: PathStats,
}

impl ShardedHandle {
    /// The map this handle operates on.
    pub fn map(&self) -> &Arc<ShardedMap> {
        &self.map
    }

    fn shard_handle(&mut self, shard: usize) -> &mut ShardHandle {
        let slot = &mut self.cached[shard];
        if slot.is_none() {
            *slot = Some(self.map.shards[shard].handle());
        }
        slot.as_mut()
            .expect("shard handle slot was just populated above")
    }

    /// Inserts a pair, returning the previous value. On a persistent
    /// map the update is logged to its shard's write-ahead log before
    /// this method returns.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        let s = self.map.shard_of(key);
        if self.map.persist.is_some() {
            self.persistent_point_op(s, BatchOp::Insert(key, value))
        } else {
            self.shard_handle(s).insert(key, value)
        }
    }

    /// Removes a key, returning its value. Logged write-ahead on a
    /// persistent map, like [`ShardedHandle::insert`].
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let s = self.map.shard_of(key);
        if self.map.persist.is_some() {
            self.persistent_point_op(s, BatchOp::Remove(key))
        } else {
            self.shard_handle(s).remove(key)
        }
    }

    /// The persistent update discipline for point operations: hold the
    /// shard's log lock across *append + execute* so log order is commit
    /// order, appending **before** executing so no acknowledged update
    /// can be missing from the log; then, with the lock released, wait
    /// out the fsync policy before replying.
    fn persistent_point_op(&mut self, s: usize, op: BatchOp) -> Option<u64> {
        let map = Arc::clone(&self.map);
        let logs = map.logs().expect("caller checked the map is persistent");
        let mut wal = logs.lock(s);
        let before = wal.stats();
        let seq = append_record(&mut wal, std::slice::from_ref(&op));
        let r = match op {
            BatchOp::Insert(k, v) => self.shard_handle(s).insert(k, v),
            BatchOp::Remove(k) => self.shard_handle(s).remove(k),
            BatchOp::Get(_) => unreachable!("reads are never logged"),
        };
        self.persist_finish(&map, s, &mut wal, before);
        drop(wal);
        await_reply(logs, s, seq);
        r
    }

    /// After a logged update, record the handle-local WAL lane and take
    /// a snapshot if the cadence is due. Runs under the held log lock:
    /// every other persistent updater of this shard is excluded, so the
    /// shard is update-quiescent and `collect` sees a consistent image
    /// (concurrent readers are harmless).
    fn persist_finish(
        &mut self,
        map: &Arc<ShardedMap>,
        s: usize,
        wal: &mut ShardWal,
        before: threepath_persist::WalStats,
    ) {
        let after = wal.stats();
        if after.records > before.records {
            self.local
                .record_wal_appends(after.records - before.records, after.bytes - before.bytes);
        }
        if wal.snapshot_due() {
            let pairs = map.shard_tree(s).collect();
            wal.install_snapshot(&pairs)
                .expect("WAL snapshot failed (fail-stop: the log is the map)");
            self.local.record_wal_snapshot();
        }
    }

    /// Looks up a key: routes straight to the owning shard's read path —
    /// on the default configuration an uninstrumented wait-free traversal
    /// of that shard's tree (zero transactions, no locks), recorded on
    /// the merged [`PathStats`]' read lane.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        let s = self.map.shard_of(key);
        self.shard_handle(s).get(key)
    }

    /// Whether a key is present.
    pub fn contains(&mut self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Range query over `[lo, hi)` across shards.
    ///
    /// The router plans which shards to visit. Each per-shard query is
    /// individually atomic (a consistent snapshot of that shard, exactly
    /// as on the underlying tree). Under an order-preserving router the
    /// per-shard results concatenate in shard order; otherwise (hash
    /// routing) every visited shard returns its scattered members of
    /// `[lo, hi)` and the sorted runs are **sort-merged** into one
    /// ascending sequence. Either way a query that spans multiple shards
    /// is *not* a single atomic snapshot of the whole map: updates may
    /// land in an already-visited shard while later shards are still
    /// being read.
    pub fn range_query(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let plan = self.map.router.shards_for_range(lo, hi);
        if self.map.router.preserves_order() {
            let mut out = Vec::new();
            for (s, slo, shi) in plan {
                let run = self.shard_handle(s).range_query(slo, shi);
                // The first non-empty run is moved, not copied: a
                // single-shard query returns the shard's vector as is.
                if out.is_empty() {
                    out = run;
                } else {
                    out.extend(run);
                }
            }
            return out;
        }
        let mut runs = Vec::with_capacity(plan.len());
        for (s, slo, shi) in plan {
            let run = self.shard_handle(s).range_query(slo, shi);
            if !run.is_empty() {
                runs.push(run);
            }
        }
        merge_sorted_runs(runs)
    }

    /// Applies a coalesced plan of **same-shard** operations in
    /// submission order on shard `shard`, committing the whole plan in a
    /// single fast-path transaction or one serialized section (see the
    /// backend trees' `run_batch`). Requires a map built with
    /// [`ShardedConfig::batched`].
    ///
    /// # Panics
    ///
    /// Panics if any key in the plan routes to a different shard, or if
    /// the map is not batched.
    pub fn shard_batch(&mut self, shard: usize, ops: &[BatchOp]) -> (Vec<Option<u64>>, PathKind) {
        self.check_shard_plan(shard, ops);
        if self.map.persist.is_some() {
            let map = Arc::clone(&self.map);
            let logs = map.logs().expect("caller checked the map is persistent");
            let mut wal = logs.lock(shard);
            let before = wal.stats();
            // One batch = one record: the whole plan becomes durable (or
            // is discarded at recovery) atomically under its checksum.
            let seq = append_record(&mut wal, ops);
            let r = self.shard_handle(shard).run_batch(ops);
            self.persist_finish(&map, shard, &mut wal, before);
            drop(wal);
            await_reply(logs, shard, seq);
            r
        } else {
            self.shard_handle(shard).run_batch(ops)
        }
    }

    /// [`Self::shard_batch`] with a flat-combining hook: when the batch
    /// escalates to the serialized section, `combine` runs while this
    /// thread holds the shard's fallback lock, receiving a
    /// [`BatchApply`] that applies further same-shard plans in the same
    /// section. The server layer uses this to drain a shard's submission
    /// queue before releasing the lock.
    pub fn shard_batch_with(
        &mut self,
        shard: usize,
        ops: &[BatchOp],
        combine: impl FnOnce(&mut dyn BatchApply),
    ) -> (Vec<Option<u64>>, PathKind) {
        self.check_shard_plan(shard, ops);
        if self.map.persist.is_some() {
            let map = Arc::clone(&self.map);
            let logs = map.logs().expect("caller checked the map is persistent");
            let mut wal = logs.lock(shard);
            let before = wal.stats();
            let seq = append_record(&mut wal, ops);
            // Combined plans are applied (and their replies published)
            // inside the serialized section, so they log through a
            // write-ahead wrapper of the combiner's BatchApply.
            let wal_ref = &mut *wal;
            let r = self.shard_handle(shard).run_batch_with(ops, move |apply| {
                let mut logged = crate::persist::LoggedApply {
                    logs,
                    shard,
                    wal: wal_ref,
                    inner: apply,
                };
                combine(&mut logged);
            });
            self.persist_finish(&map, shard, &mut wal, before);
            drop(wal);
            await_reply(logs, shard, seq);
            r
        } else {
            self.shard_handle(shard).run_batch_with(ops, combine)
        }
    }

    fn check_shard_plan(&self, shard: usize, ops: &[BatchOp]) {
        for op in ops {
            let owner = self.map.shard_of(op.key());
            assert_eq!(
                owner,
                shard,
                "batch op {op} routes to shard {owner}, not {shard}"
            );
        }
    }

    /// One shard's members of `[lo, hi)` in ascending order — the
    /// per-shard sub-scan of a cross-shard range query, exposed so a
    /// server can pipeline sub-scans through per-shard queues and
    /// sort-merge the runs itself (see
    /// [`crate::merge_sorted_runs`]). The sub-range is clipped by the
    /// router's plan; a shard outside the plan returns nothing.
    pub fn shard_range_query(&mut self, shard: usize, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let plan = self.map.router.shards_for_range(lo, hi);
        let Some(&(s, slo, shi)) = plan.iter().find(|(s, _, _)| *s == shard) else {
            return Vec::new();
        };
        self.shard_handle(s).range_query(slo, shi)
    }

    /// Merged path statistics across every shard this thread has
    /// touched, including this handle's WAL lane on a persistent map.
    pub fn stats(&self) -> PathStats {
        let mut merged = PathStats::new();
        for h in self.cached.iter().flatten() {
            merged.merge(h.stats());
        }
        merged.merge(&self.local);
        merged
    }
}

impl std::fmt::Debug for ShardedHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedHandle")
            .field("shards", &self.map.shard_count())
            .field("touched", &self.cached.iter().filter(|c| c.is_some()).count())
            .finish()
    }
}

/// K-way merge of individually sorted, mutually disjoint runs (each key
/// lives in exactly one shard, so ties cannot occur). Used by
/// [`ShardedHandle::range_query`] under non-order-preserving routers, and
/// public for servers that pipeline per-shard sub-scans
/// ([`ShardedHandle::shard_range_query`]) and merge the runs themselves.
pub fn merge_sorted_runs(runs: Vec<Vec<(u64, u64)>>) -> Vec<(u64, u64)> {
    if runs.len() == 1 {
        return runs.into_iter().next().expect("len checked == 1");
    }
    merge_sorted_slices(&runs.iter().map(Vec::as_slice).collect::<Vec<_>>())
}

/// [`merge_sorted_runs`] over borrowed runs, for callers that cannot give
/// the runs up (a server's reply slots are written once and only read).
pub fn merge_sorted_slices(runs: &[&[(u64, u64)]]) -> Vec<(u64, u64)> {
    let total = runs.iter().map(|r| r.len()).sum();
    let mut heads = vec![0usize; runs.len()];
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let mut best: Option<usize> = None;
        for r in 0..runs.len() {
            if heads[r] < runs[r].len()
                && best.is_none_or(|b| runs[r][heads[r]].0 < runs[b][heads[b]].0)
            {
                best = Some(r);
            }
        }
        let b = best.expect("a non-exhausted run exists while out.len() < total");
        out.push(runs[b][heads[b]]);
        heads[b] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(shards: usize, backend: ShardBackend) -> Arc<ShardedMap> {
        Arc::new(
            ShardedMap::with_config(ShardedConfig {
                shards,
                backend,
                key_space: 100,
                ..ShardedConfig::default()
            })
            .unwrap(),
        )
    }

    fn small_hash(shards: usize, backend: ShardBackend) -> Arc<ShardedMap> {
        Arc::new(
            ShardedMap::with_config(ShardedConfig {
                shards,
                backend,
                key_space: 100,
                router: RouterKind::Hash,
                ..ShardedConfig::default()
            })
            .unwrap(),
        )
    }

    #[test]
    fn routing_is_contiguous_and_total() {
        let map = small(4, ShardBackend::Bst);
        assert_eq!(map.shard_of(0), 0);
        assert_eq!(map.shard_of(24), 0);
        assert_eq!(map.shard_of(25), 1);
        assert_eq!(map.shard_of(99), 3);
        // Overflow keys route to the last shard.
        assert_eq!(map.shard_of(100), 3);
        assert_eq!(map.shard_of(u64::MAX), 3);
        // Routing is monotone: shard indices never decrease with the key.
        let mut prev = 0;
        for k in 0..200 {
            let s = map.shard_of(k);
            assert!(s >= prev, "routing must be monotone");
            prev = s;
        }
    }

    #[test]
    fn map_semantics_across_shards() {
        for backend in [ShardBackend::Bst, ShardBackend::AbTree] {
            for map in [small(4, backend), small_hash(4, backend)] {
                let mut h = map.handle();
                for k in 0..100u64 {
                    assert_eq!(h.insert(k, k * 2), None, "{backend}");
                }
                assert_eq!(h.insert(7, 70), Some(14));
                assert_eq!(h.remove(50), Some(100));
                assert_eq!(h.get(50), None);
                assert!(h.contains(99));
                drop(h);
                assert_eq!(map.len(), 99);
                assert_eq!(map.key_sum(), (0..100u128).sum::<u128>() - 50);
                map.validate().unwrap();
                let all = map.collect();
                assert_eq!(all.len(), 99);
                assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "collect sorted");
            }
        }
    }

    #[test]
    fn cross_shard_range_query_is_sorted_and_complete() {
        for map in [small(5, ShardBackend::AbTree), small_hash(5, ShardBackend::AbTree)] {
            let mut h = map.handle();
            for k in (0..100u64).step_by(3) {
                h.insert(k, k);
            }
            let got = h.range_query(10, 80);
            let want: Vec<(u64, u64)> =
                (0..100u64).step_by(3).filter(|k| (10..80).contains(k)).map(|k| (k, k)).collect();
            assert_eq!(got, want);
            assert_eq!(h.range_query(50, 50), vec![]);
            assert_eq!(h.range_query(80, 10), vec![]);
            // A full-space query spans every shard.
            assert_eq!(h.range_query(0, u64::MAX).len(), map.len());
        }
    }

    #[test]
    fn hash_routing_balances_clustered_keys() {
        // 100 consecutive keys: range routing piles them into few shards'
        // worth of clusters by construction; hash routing spreads them.
        let map = small_hash(4, ShardBackend::Bst);
        let mut h = map.handle();
        for k in 0..100u64 {
            h.insert(k, k);
        }
        drop(h);
        let sizes = map.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        for (s, &n) in sizes.iter().enumerate() {
            assert!((10..45).contains(&n), "shard {s} holds {n} of 100");
        }
        map.validate().unwrap();
    }

    #[test]
    fn single_shard_degenerates_to_one_tree() {
        let map = small(1, ShardBackend::Bst);
        let mut h = map.handle();
        h.insert(1, 1);
        h.insert(99, 2);
        h.insert(1000, 3); // beyond key_space, still shard 0
        assert_eq!(map.shard_count(), 1);
        assert_eq!(h.range_query(0, 2000), vec![(1, 1), (99, 2), (1000, 3)]);
        drop(h);
        map.validate().unwrap();
    }

    #[test]
    fn handles_cache_lazily_and_stats_merge() {
        let map = small(4, ShardBackend::Bst);
        let mut h = map.handle();
        h.insert(1, 1); // only shard 0 touched
        assert_eq!(h.cached.iter().filter(|c| c.is_some()).count(), 1);
        h.insert(99, 1);
        assert_eq!(h.cached.iter().filter(|c| c.is_some()).count(), 2);
        let stats = h.stats();
        assert!(stats.total_completed() >= 2, "merged stats see both shards");
    }

    #[test]
    fn tiny_key_space_still_partitions() {
        // key_space smaller than the shard count: width clamps to 1.
        let map = Arc::new(
            ShardedMap::with_config(ShardedConfig {
                shards: 8,
                key_space: 3,
                ..ShardedConfig::default()
            })
            .unwrap(),
        );
        let mut h = map.handle();
        for k in 0..20u64 {
            h.insert(k, k);
        }
        drop(h);
        assert_eq!(map.len(), 20);
        map.validate().unwrap();
    }

    #[test]
    fn zero_shards_is_a_typed_error_not_a_panic() {
        for router in [RouterKind::Range, RouterKind::Hash] {
            let err = ShardedMap::with_config(ShardedConfig {
                shards: 0,
                router,
                ..ShardedConfig::default()
            })
            .unwrap_err();
            assert_eq!(err, ConfigError::ZeroShards, "{router}");
        }
    }

    #[test]
    fn degenerate_admission_window_is_a_typed_error() {
        let err = ShardedMap::with_config(ShardedConfig {
            admission: Some(0),
            ..ShardedConfig::default()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::ZeroAdmissionWindow);
        // Sane values pass and the map still works.
        let map = Arc::new(
            ShardedMap::with_config(ShardedConfig {
                shards: 2,
                key_space: 100,
                admission: Some(2),
                ..ShardedConfig::default()
            })
            .unwrap(),
        );
        let mut h = map.handle();
        for k in 0..50u64 {
            h.insert(k, k);
        }
        assert_eq!(h.get(25), Some(25));
        drop(h);
        map.validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        // Custom router disagreeing with the shard count.
        let err = ShardedMap::with_router(
            ShardedConfig {
                shards: 4,
                ..ShardedConfig::default()
            },
            Arc::new(HashRouter::new(2).unwrap()),
        )
        .unwrap_err();
        assert_eq!(err, ConfigError::RouterShardMismatch { router: 2, shards: 4 });
    }

    #[test]
    fn custom_router_drives_the_map() {
        let map = Arc::new(
            ShardedMap::with_router(
                ShardedConfig {
                    shards: 3,
                    key_space: 100,
                    ..ShardedConfig::default()
                },
                Arc::new(HashRouter::new(3).unwrap()),
            )
            .unwrap(),
        );
        let mut h = map.handle();
        for k in 0..50u64 {
            h.insert(k, k);
        }
        assert_eq!(h.range_query(0, 50).len(), 50);
        drop(h);
        assert!(!map.router().preserves_order());
        map.validate().unwrap();
    }

    #[test]
    fn shard_batches_apply_in_order_across_backends() {
        for backend in [ShardBackend::Bst, ShardBackend::AbTree] {
            let map = Arc::new(
                ShardedMap::with_config(ShardedConfig {
                    shards: 4,
                    backend,
                    key_space: 100,
                    batched: true,
                    ..ShardedConfig::default()
                })
                .unwrap(),
            );
            assert!(map.is_batched());
            let mut h = map.handle();
            // Shard 1 owns [25, 50) under range routing.
            let plan = vec![
                BatchOp::Insert(30, 1),
                BatchOp::Insert(31, 2),
                BatchOp::Get(30),
                BatchOp::Remove(31),
                BatchOp::Insert(30, 9),
            ];
            let (replies, _path) = h.shard_batch(1, &plan);
            assert_eq!(
                replies,
                vec![None, None, Some(1), Some(2), Some(1)],
                "{backend}"
            );
            assert_eq!(h.get(30), Some(9));
            assert_eq!(h.get(31), None);
            drop(h);
            map.validate().unwrap();
        }
    }

    #[test]
    fn shard_sub_scans_merge_like_a_range_query() {
        let map = small_hash(4, ShardBackend::Bst);
        let mut h = map.handle();
        for k in 0..80u64 {
            h.insert(k, k);
        }
        let direct = h.range_query(10, 70);
        let runs: Vec<Vec<(u64, u64)>> = (0..4)
            .map(|s| h.shard_range_query(s, 10, 70))
            .filter(|r| !r.is_empty())
            .collect();
        assert_eq!(merge_sorted_runs(runs), direct);
        // A shard outside the plan returns nothing.
        assert_eq!(h.shard_range_query(3, 5, 5), vec![]);
    }

    #[test]
    #[should_panic(expected = "routes to shard")]
    fn cross_shard_plans_are_rejected() {
        let map = Arc::new(
            ShardedMap::with_config(ShardedConfig {
                shards: 4,
                key_space: 100,
                batched: true,
                ..ShardedConfig::default()
            })
            .unwrap(),
        );
        let mut h = map.handle();
        // Key 90 belongs to shard 3, not shard 0.
        h.shard_batch(0, &[BatchOp::Insert(1, 1), BatchOp::Insert(90, 1)]);
    }

    #[test]
    fn degenerate_batching_is_a_typed_error() {
        let err = ShardedMap::with_config(ShardedConfig {
            strategy: Strategy::NonHtm,
            batched: true,
            ..ShardedConfig::default()
        })
        .unwrap_err();
        assert_eq!(err, ConfigError::BatchedStrategy(Strategy::NonHtm));
        // Sane values pass and the map still works.
        let map = Arc::new(
            ShardedMap::with_config(ShardedConfig {
                shards: 2,
                key_space: 100,
                batched: true,
                admission: Some(1),
                ..ShardedConfig::default()
            })
            .unwrap(),
        );
        let mut h = map.handle();
        h.shard_batch(0, &[BatchOp::Insert(3, 3)]);
        assert_eq!(h.get(3), Some(3));
        drop(h);
        map.validate().unwrap();
    }

    #[test]
    fn config_errors_say_what_is_wrong() {
        assert_eq!(
            ConfigError::ZeroShards.to_string(),
            "shard count must be at least 1"
        );
        assert_eq!(
            ConfigError::ZeroAdmissionWindow.to_string(),
            "the HTM admission window must admit at least one thread"
        );
        assert_eq!(
            ConfigError::BatchedStrategy(Strategy::TwoPathCon).to_string(),
            "batched maps require the TLE or 3-path strategy, not `2-path-con`"
        );
        assert_eq!(
            ConfigError::RouterShardMismatch {
                router: 2,
                shards: 4
            }
            .to_string(),
            "router partitions 2 shards but the map was configured with 4"
        );
    }

    #[test]
    fn batching_accepts_exactly_the_batch_strategies() {
        for strategy in Strategy::ALL {
            let r = ShardedMap::with_config(ShardedConfig {
                shards: 2,
                key_space: 100,
                strategy,
                batched: true,
                ..ShardedConfig::default()
            });
            if threepath_core::BATCH_STRATEGIES.contains(&strategy) {
                assert!(r.unwrap().is_batched(), "{strategy}");
            } else {
                assert_eq!(r.unwrap_err(), ConfigError::BatchedStrategy(strategy));
            }
        }
    }

    #[test]
    fn accessors_reflect_the_config() {
        let map = ShardedMap::with_config(ShardedConfig {
            shards: 3,
            backend: ShardBackend::AbTree,
            key_space: 300,
            strategy: Strategy::Tle,
            ..ShardedConfig::default()
        })
        .unwrap();
        assert_eq!(map.shard_count(), 3);
        assert_eq!(map.backend(), ShardBackend::AbTree);
        assert_eq!(map.strategy(), Strategy::Tle);
        assert_eq!(map.key_space(), 300);
        assert!(!map.is_batched());
        assert!(map.is_empty());
        assert!(map.router().preserves_order(), "range routing by default");
    }

    #[test]
    fn every_strategy_keeps_map_semantics() {
        for backend in [ShardBackend::Bst, ShardBackend::AbTree] {
            for strategy in Strategy::ALL {
                let map = Arc::new(
                    ShardedMap::with_config(ShardedConfig {
                        shards: 3,
                        backend,
                        key_space: 90,
                        strategy,
                        ..ShardedConfig::default()
                    })
                    .unwrap(),
                );
                let mut h = map.handle();
                for k in 0..90u64 {
                    assert_eq!(h.insert(k, k + 1), None, "{backend}/{strategy}");
                }
                for k in (0..90u64).step_by(2) {
                    assert_eq!(h.remove(k), Some(k + 1), "{backend}/{strategy}");
                }
                assert_eq!(h.get(31), Some(32));
                assert_eq!(h.get(30), None);
                let odd: Vec<(u64, u64)> = (20..70)
                    .filter(|k| k % 2 == 1)
                    .map(|k| (k, k + 1))
                    .collect();
                assert_eq!(h.range_query(20, 70), odd, "{backend}/{strategy}");
                drop(h);
                assert_eq!(map.len(), 45);
                map.validate().unwrap();
            }
        }
    }

    #[test]
    fn zero_budgets_put_every_update_on_the_fallback() {
        let map = Arc::new(
            ShardedMap::with_config(ShardedConfig {
                shards: 2,
                key_space: 100,
                limits: Some(threepath_core::PathLimits { fast: 0, middle: 0 }),
                ..ShardedConfig::default()
            })
            .unwrap(),
        );
        let mut h = map.handle();
        for k in 0..60u64 {
            h.insert(k, k);
        }
        for k in 0..20u64 {
            h.remove(k);
        }
        let st = h.stats();
        assert_eq!(st.completed(PathKind::Fast), 0);
        assert_eq!(st.completed(PathKind::Middle), 0);
        assert_eq!(
            st.completed(PathKind::Fallback),
            80,
            "every shard got the budgets"
        );
        drop(h);
        assert_eq!(map.len(), 40);
        map.validate().unwrap();
    }

    #[test]
    fn snzi_shards_keep_their_invariants_under_aborts() {
        let map = Arc::new(
            ShardedMap::with_config(ShardedConfig {
                shards: 2,
                key_space: 64,
                snzi: true,
                htm: HtmConfig::default().with_spurious(0.6),
                // Short budgets so aborts reach the fallback, which
                // arrives on and departs from the SNZI.
                limits: Some(threepath_core::PathLimits { fast: 1, middle: 1 }),
                ..ShardedConfig::default()
            })
            .unwrap(),
        );
        let mut h = map.handle();
        let mut want = std::collections::BTreeMap::new();
        for i in 0..600u64 {
            let k = (i * 37) % 64;
            if i % 3 == 0 {
                assert_eq!(h.remove(k), want.remove(&k));
            } else {
                assert_eq!(h.insert(k, i), want.insert(k, i));
            }
        }
        assert!(
            h.stats().completed(PathKind::Fallback) > 0,
            "the SNZI was exercised"
        );
        drop(h);
        assert_eq!(map.collect(), want.into_iter().collect::<Vec<_>>());
        map.validate().unwrap();
    }

    #[test]
    fn read_path_toggle_moves_lookups_between_lanes() {
        for read_path in [true, false] {
            let map = Arc::new(
                ShardedMap::with_config(ShardedConfig {
                    shards: 2,
                    key_space: 100,
                    read_path,
                    ..ShardedConfig::default()
                })
                .unwrap(),
            );
            let mut h = map.handle();
            for k in 0..10u64 {
                h.insert(k * 10, k);
            }
            let before = h.stats().total_completed();
            for k in 0..10u64 {
                assert_eq!(h.get(k * 10), Some(k));
            }
            let st = h.stats();
            assert_eq!(st.total_completed() - before, 10);
            let on_read_lane = if read_path { 10 } else { 0 };
            assert_eq!(
                st.completed(PathKind::Read),
                on_read_lane,
                "read_path={read_path}"
            );
        }
    }

    #[test]
    fn scan_path_toggle_moves_range_queries_between_lanes() {
        for scan_path in [true, false] {
            let map = Arc::new(
                ShardedMap::with_config(ShardedConfig {
                    shards: 2,
                    backend: ShardBackend::AbTree,
                    key_space: 100,
                    scan_path,
                    ..ShardedConfig::default()
                })
                .unwrap(),
            );
            let mut h = map.handle();
            for k in 0..100u64 {
                h.insert(k, k);
            }
            assert_eq!(h.range_query(10, 90).len(), 80);
            let st = h.stats();
            if scan_path {
                assert!(st.completed(PathKind::Read) > 0);
                assert!(st.scan_leaves_validated() > 0);
            } else {
                assert_eq!(st.completed(PathKind::Read), 0);
                assert_eq!(st.scan_leaves_validated(), 0);
            }
        }
    }

    #[test]
    fn admission_map_keeps_the_key_sum_under_a_concurrent_storm() {
        for strategy in [Strategy::Tle, Strategy::ThreePath] {
            let map = Arc::new(
                ShardedMap::with_config(ShardedConfig {
                    shards: 2,
                    key_space: 128,
                    strategy,
                    admission: Some(1),
                    htm: HtmConfig::default().with_spurious(0.5),
                    ..ShardedConfig::default()
                })
                .unwrap(),
            );
            let delta: i128 = std::thread::scope(|s| {
                let workers: Vec<_> = (0..4u64)
                    .map(|t| {
                        let map = Arc::clone(&map);
                        s.spawn(move || {
                            let mut h = map.handle();
                            let mut local = 0i128;
                            for i in 0..800u64 {
                                let k = (i * 2654435761 + t * 97) % 128;
                                if i % 2 == 0 {
                                    if h.insert(k, i).is_none() {
                                        local += i128::from(k);
                                    }
                                } else if h.remove(k).is_some() {
                                    local -= i128::from(k);
                                }
                            }
                            local
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).sum()
            });
            assert_eq!(map.key_sum() as i128, delta, "{strategy}");
            map.validate().unwrap();
        }
    }

    #[test]
    fn merge_sorted_runs_interleaves() {
        assert_eq!(merge_sorted_runs(vec![]), vec![]);
        assert_eq!(merge_sorted_runs(vec![vec![(1, 1)]]), vec![(1, 1)]);
        let merged = merge_sorted_runs(vec![
            vec![(1, 0), (5, 0), (9, 0)],
            vec![(2, 0), (3, 0)],
            vec![(4, 0), (8, 0)],
        ]);
        assert_eq!(
            merged.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5, 8, 9]
        );
    }
}
