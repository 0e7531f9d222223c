//! The public (a,b)-tree: configuration, handles, path wiring, rebalancing
//! loop, and quiescent validation.

use std::sync::Arc;

use threepath_core::{
    AdaptiveBudgets, BatchApply, BatchOp, BudgetConfig, DirectMem, ExecCtx, Mem, OpOutcome,
    OrigMode, PathKind, PathLimits, PathStats, Strategy, TemplateMode,
};
use threepath_htm::{codes, Abort, HtmConfig, HtmRuntime, TxCell};
use threepath_llxscx::{ScxEngine, ScxThread};
use threepath_reclaim::{Domain, PoolConfig, PoolStats, ReclaimMode};

use crate::fix;
use crate::node::{AbNode, B, MAX_KEY};
use crate::ops::{self, AbFound, UpdResult};
use crate::readpath;
use crate::rq;
use crate::scan;

/// Configuration for an [`AbTree`].
#[derive(Debug, Clone)]
pub struct AbTreeConfig {
    /// Execution-path strategy.
    pub strategy: Strategy,
    /// Simulated-HTM parameters.
    pub htm: HtmConfig,
    /// Attempt budgets; defaults to the paper's per-strategy values.
    pub limits: Option<PathLimits>,
    /// Memory-reclamation mode.
    pub reclaim: ReclaimMode,
    /// Minimum degree `a` (the paper fixes `a = 6`, `b = 16`; `b` is the
    /// compile-time [`B`]). Must satisfy `2 <= a` and `b >= 2a - 1`.
    pub a: usize,
    /// Section 8: search phase outside the transaction.
    pub search_outside_txn: bool,
    /// Use a SNZI instead of the fetch-and-increment counter `F`
    /// (Section 5's scalability alternative).
    pub snzi: bool,
    /// Allow [`AbTree::set_strategy`] to swap the strategy at runtime
    /// between TLE and 3-path (see [`threepath_core::ExecCtx`] for the
    /// blended subscription discipline this enables). Requires `strategy`
    /// to start as one of those two.
    pub adaptive: bool,
    /// Allocate nodes from per-thread pools and recycle them on expiry
    /// instead of going through the global allocator (see
    /// [`threepath_reclaim::NodePool`]). On by default.
    pub pool: bool,
    /// Adaptive attempt budgets anchored at the paper's 10/10/20 (see
    /// [`BudgetConfig`]). A fixed `limits` override wins.
    pub budget: Option<BudgetConfig>,
    /// Route `get`/`contains`/`first`/`last` through the uninstrumented
    /// read path: an epoch-pinned direct traversal with zero transactions
    /// or locks. Because (a,b)-tree leaves are mutated in place, each leaf
    /// read is seqlock-validated against the node's version word and the
    /// search retries on a lost race, escalating to the transactional
    /// machinery only after
    /// [`threepath_core::DEFAULT_READ_ATTEMPTS`] failures. On by
    /// default; off routes reads through `run_op` (the baseline the
    /// read-heavy benchmarks compare against).
    pub read_path: bool,
    /// Route `range_query` through the uninstrumented scan path: an
    /// epoch-pinned multi-leaf traversal that accumulates a validation
    /// set (followed edges + per-leaf version words) and re-validates it
    /// as a whole (see `crate::scan`). Lost races retry; after
    /// [`threepath_core::DEFAULT_READ_ATTEMPTS`] failures a partial
    /// rescan re-reads only the invalidated subranges, and only if that
    /// also fails does the scan escalate to the transactional machinery.
    /// On by default; off routes scans through `run_op` (the baseline
    /// the scan benchmarks compare against).
    pub scan_path: bool,
    /// HTM admission control on the fallback path: at most this many
    /// threads may attempt hardware transactions while the fallback is
    /// active (TLE lock held / `F != 0`); overflow threads park on a
    /// ready lane and take the fallback directly — see
    /// [`threepath_core::AdmissionGate`]. `None` (the default) admits
    /// everyone.
    pub admission: Option<u32>,
    /// Probe the read-escalation bound instead of using the fixed
    /// [`threepath_core::DEFAULT_READ_ATTEMPTS`]: contended reads and
    /// scans feed a ladder of candidate bounds and the tree runs the one
    /// that measures fastest (see [`threepath_core::ReadBoundConfig`]).
    /// Uncontended reads never touch the machinery.
    pub read_probe: Option<threepath_core::ReadBoundConfig>,
    /// Probe the admission window cap instead of fixing it: gated
    /// encounters feed a ladder of candidate caps and the gate runs the
    /// one that measures fastest (see
    /// [`threepath_core::AdmissionProbeConfig`]). Takes precedence over a
    /// fixed `admission` cap.
    pub admission_probe: Option<threepath_core::AdmissionProbeConfig>,
    /// Enable the batch entry point ([`AbTreeHandle::run_batch`]):
    /// coalesced operation plans commit in a single fast-path transaction
    /// or one serialized section. Requires a TLE or 3-path strategy and
    /// puts every transaction on the blended subscription discipline.
    pub batched: bool,
}

impl Default for AbTreeConfig {
    fn default() -> Self {
        AbTreeConfig {
            strategy: Strategy::ThreePath,
            htm: HtmConfig::default(),
            limits: None,
            reclaim: ReclaimMode::Epoch,
            a: 6,
            search_outside_txn: false,
            snzi: false,
            adaptive: false,
            pool: true,
            budget: None,
            read_path: true,
            scan_path: true,
            admission: None,
            read_probe: None,
            admission_probe: None,
            batched: false,
        }
    }
}

/// Shape summary from [`AbTree::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbShape {
    /// Number of keys stored.
    pub keys: usize,
    /// Sum of stored keys.
    pub key_sum: u128,
    /// Leaves reachable.
    pub leaves: usize,
    /// Internal nodes reachable (excluding the entry).
    pub internal_nodes: usize,
    /// Reachable tagged nodes (0 when quiescent and fully rebalanced).
    pub tagged: usize,
    /// Reachable non-root nodes with degree `< a`.
    pub underfull: usize,
    /// Maximum raw leaf depth.
    pub depth_max: usize,
}

/// A concurrent ordered map implemented as a relaxed (a,b)-tree
/// accelerated per the configured [`Strategy`]. See the crate docs.
pub struct AbTree {
    exec: ExecCtx,
    eng: ScxEngine,
    entry: *mut AbNode,
    a: usize,
    sec8: bool,
    /// Whether nodes live in pool chunks (owned by the domain) rather
    /// than individual `Box` allocations — decides how `Drop` frees the
    /// node graph.
    pooled: bool,
    /// Whether reads bypass `run_op` (see [`AbTreeConfig::read_path`]).
    read_path: bool,
    /// Whether scans bypass `run_op` (see [`AbTreeConfig::scan_path`]).
    scan_path: bool,
}

// SAFETY: shared mutation of the raw node graph is mediated by the HTM
// runtime and the LLX/SCX engine.
unsafe impl Send for AbTree {}
unsafe impl Sync for AbTree {}

impl AbTree {
    /// A tree with the default configuration (3-path, a=6, b=16).
    pub fn new() -> Self {
        Self::with_config(AbTreeConfig::default())
    }

    /// A tree with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= a` and `B >= 2a - 1`.
    pub fn with_config(cfg: AbTreeConfig) -> Self {
        assert!(cfg.a >= 2 && B >= 2 * cfg.a - 1, "invalid (a, b) pair");
        let rt = Arc::new(HtmRuntime::new(cfg.htm.clone()));
        // Fat-node structure: register an exact-fit size class so nodes
        // are guaranteed under one cache line of internal fragmentation
        // regardless of how the node layout evolves (today the standard
        // table's 320 B class already fits `AbNode` exactly; the
        // registration pins that property rather than changing it —
        // per-structure class tables, ROADMAP PR 4 follow-up).
        let pool_cfg = if cfg.pool {
            PoolConfig::default().with_class_of::<AbNode>()
        } else {
            PoolConfig::disabled()
        };
        let domain = Arc::new(Domain::with_pool(cfg.reclaim, pool_cfg));
        let pooled = domain.class_of::<AbNode>().is_some();
        let eng = ScxEngine::new(rt.clone(), domain.clone());
        let mut exec = ExecCtx::new(rt, cfg.strategy);
        if let Some(l) = cfg.limits {
            exec = exec.with_limits(l);
        }
        if cfg.snzi {
            exec = exec.with_snzi();
        }
        if cfg.adaptive {
            exec = exec.with_adaptive();
        }
        if let Some(b) = cfg.budget {
            exec = exec.with_adaptive_budgets(b);
        }
        if let Some(cap) = cfg.admission {
            exec = exec.with_admission(cap);
        }
        if let Some(p) = cfg.admission_probe {
            exec = exec.with_admission_probe(p);
        }
        if let Some(r) = cfg.read_probe {
            exec = exec.with_read_probe(r);
        }
        if cfg.batched {
            exec = exec.with_batching();
        }
        // Entry node (never deleted) with the initial empty root leaf,
        // allocated through a short-lived context so they come from the
        // pool too (uniform ownership for `Drop`).
        let entry = {
            let ctx = Domain::register(&domain);
            let root = ctx.alloc(AbNode::new_leaf(&[]));
            ctx.alloc(AbNode::new_internal(&[], &[root as u64], false))
        };
        AbTree {
            exec,
            eng,
            entry,
            a: cfg.a,
            sec8: cfg.search_outside_txn,
            pooled,
            read_path: cfg.read_path,
            scan_path: cfg.scan_path,
        }
    }

    /// The current strategy (the configured one, or the latest runtime
    /// swap on an adaptive tree).
    pub fn strategy(&self) -> Strategy {
        self.exec.strategy()
    }

    /// Swaps the execution strategy at runtime while operations are in
    /// flight. Only valid on a tree built with
    /// [`AbTreeConfig::adaptive`], and only between TLE and 3-path.
    pub fn set_strategy(&self, strategy: Strategy) -> Result<(), threepath_core::StrategySwapError> {
        self.exec.set_strategy(strategy)
    }

    /// The minimum degree `a`.
    pub fn min_degree(&self) -> usize {
        self.a
    }

    /// Whether the batch entry point ([`AbTreeHandle::run_batch`]) is
    /// enabled (see [`AbTreeConfig::batched`]).
    pub fn is_batched(&self) -> bool {
        self.exec.is_batched()
    }

    /// Whether serialized work (the fallback path or a holder of the
    /// fallback lock) is in progress on this tree right now — see
    /// [`threepath_core::ExecCtx::serialized_active`].
    pub fn serialized_active(&self) -> bool {
        self.exec.serialized_active()
    }

    /// The underlying HTM runtime.
    pub fn runtime(&self) -> &Arc<HtmRuntime> {
        self.exec.runtime()
    }

    /// The reclamation domain.
    pub fn domain(&self) -> &Arc<Domain> {
        self.eng.domain()
    }

    /// The attempt budgets currently in effect (a fixed override, the
    /// adaptive budgets' latest value, or the paper defaults).
    pub fn limits(&self) -> PathLimits {
        self.exec.limits()
    }

    /// The adaptive budget state, when [`AbTreeConfig::budget`] enabled
    /// it.
    pub fn budgets(&self) -> Option<&AdaptiveBudgets> {
        self.exec.budgets()
    }

    /// The read-path transaction-attempt bound currently in effect (the
    /// probing read bound's settled arm when [`AbTreeConfig::read_probe`]
    /// enabled it, or the fixed default).
    pub fn read_attempts(&self) -> u32 {
        self.exec.read_attempts()
    }

    /// Node-pool counters folded into the domain so far (contexts fold on
    /// drop; read after handles are gone for a complete picture).
    pub fn pool_stats(&self) -> PoolStats {
        self.domain().pool_stats()
    }

    /// `(pooled block size, node size)` for this tree's nodes, or `None`
    /// when pooling is off. The difference is the per-node internal
    /// fragmentation; the dedicated (a,b)-tree size class registered at
    /// construction keeps it under one cache line.
    pub fn node_block_size(&self) -> Option<(usize, usize)> {
        self.domain()
            .block_size_of::<AbNode>()
            .map(|b| (b, std::mem::size_of::<AbNode>()))
    }

    /// Registers the calling thread and returns an operation handle.
    pub fn handle(self: &Arc<Self>) -> AbTreeHandle {
        AbTreeHandle {
            th: self.eng.register_thread(),
            tree: Arc::clone(self),
            stats: PathStats::new(),
            scan_scratch: std::cell::RefCell::new(Box::new(scan::ScanState::new())),
        }
    }

    fn search_direct(&self, key: u64) -> AbFound {
        let rt = self.exec.runtime();
        let mut read = |c: &TxCell| Ok(c.load_direct(rt));
        ops::search_ab(&mut read, self.entry, key).expect("direct search cannot abort")
    }

    // ------------------------------------------------------------------
    // Update bodies per path. Each returns (previous value, fix needed).
    // ------------------------------------------------------------------

    fn fast_update(
        &self,
        th: &mut ScxThread,
        key: u64,
        value: Option<u64>, // Some = insert, None = delete
    ) -> Result<UpdResult, Abort> {
        if self.sec8 {
            th.pinned(|th| {
                let f = self.search_direct(key);
                self.exec.attempt_seq(&self.eng, th, |m| match value {
                    Some(v) => ops::insert_seq(m, self.entry, &f, key, v, true),
                    None => ops::delete_seq(m, self.entry, &f, key, self.a, true),
                })
            })
        } else {
            self.exec.attempt_seq(&self.eng, th, |m| {
                let f = {
                    let mut rd = |c: &TxCell| m.read(c);
                    ops::search_ab(&mut rd, self.entry, key)?
                };
                match value {
                    Some(v) => ops::insert_seq(m, self.entry, &f, key, v, false),
                    None => ops::delete_seq(m, self.entry, &f, key, self.a, false),
                }
            })
        }
    }

    fn middle_update(
        &self,
        th: &mut ScxThread,
        key: u64,
        value: Option<u64>,
    ) -> Result<UpdResult, Abort> {
        if self.sec8 {
            th.pinned(|th| {
                let f = self.search_direct(key);
                self.exec.attempt_template(&self.eng, th, |m| {
                    let out = match value {
                        Some(v) => ops::insert_tmpl(m, self.entry, &f, key, v)?,
                        None => ops::delete_tmpl(m, self.entry, &f, key, self.a)?,
                    };
                    finish_tx(out)
                })
            })
        } else {
            self.exec.attempt_template(&self.eng, th, |m| {
                let f = {
                    let mut rd = |c: &TxCell| m.read(c);
                    ops::search_ab(&mut rd, self.entry, key)?
                };
                let out = match value {
                    Some(v) => ops::insert_tmpl(m, self.entry, &f, key, v)?,
                    None => ops::delete_tmpl(m, self.entry, &f, key, self.a)?,
                };
                finish_tx(out)
            })
        }
    }

    fn fallback_update(&self, th: &mut ScxThread, key: u64, value: Option<u64>) -> UpdResult {
        loop {
            let out = th.pinned(|th| {
                let f = self.search_direct(key);
                let mut m = OrigMode::new(&self.eng, th);
                match value {
                    Some(v) => ops::insert_tmpl(&mut m, self.entry, &f, key, v),
                    None => ops::delete_tmpl(&mut m, self.entry, &f, key, self.a),
                }
            });
            match out.expect("software path cannot abort") {
                OpOutcome::Done(r) => return r,
                OpOutcome::Retry => continue,
            }
        }
    }

    fn locked_update(&self, th: &mut ScxThread, key: u64, value: Option<u64>) -> UpdResult {
        th.pinned(|th| {
            let f = self.search_direct(key);
            let mut m = DirectMem::new(self.exec.runtime(), &th.reclaim);
            match value {
                Some(v) => ops::insert_seq(&mut m, self.entry, &f, key, v, false),
                None => ops::delete_seq(&mut m, self.entry, &f, key, self.a, false),
            }
            .expect("direct mode cannot abort")
        })
    }

    // ------------------------------------------------------------------
    // Batch bodies: one transaction (or one serialized section) applies a
    // whole coalesced plan, returning one reply per operation plus the
    // keys whose paths need rebalancing. Every operation searches from
    // the entry inside the same memory mode, so later operations in the
    // plan observe the effects of earlier ones. Fix-ups are deferred to
    // the caller: they must run *outside* the serialized section (they go
    // through `run_op`, which may take the same lock).
    // ------------------------------------------------------------------

    /// The whole plan in a single fast-path transaction.
    fn batch_fast(
        &self,
        th: &mut ScxThread,
        ops: &[BatchOp],
    ) -> Result<(Vec<Option<u64>>, Vec<u64>), Abort> {
        self.exec.attempt_seq(&self.eng, th, |m| {
            let mut out = Vec::with_capacity(ops.len());
            let mut fixes = Vec::new();
            for op in ops {
                let r = match *op {
                    BatchOp::Insert(key, value) => {
                        let f = {
                            let mut rd = |c: &TxCell| m.read(c);
                            ops::search_ab(&mut rd, self.entry, key)?
                        };
                        let (prev, fix) = ops::insert_seq(m, self.entry, &f, key, value, false)?;
                        if fix {
                            fixes.push(key);
                        }
                        prev
                    }
                    BatchOp::Remove(key) if key <= MAX_KEY => {
                        let f = {
                            let mut rd = |c: &TxCell| m.read(c);
                            ops::search_ab(&mut rd, self.entry, key)?
                        };
                        let (prev, fix) = ops::delete_seq(m, self.entry, &f, key, self.a, false)?;
                        if fix {
                            fixes.push(key);
                        }
                        prev
                    }
                    BatchOp::Get(key) if key <= MAX_KEY => {
                        let mut rd = |c: &TxCell| m.read(c);
                        let f = ops::search_ab(&mut rd, self.entry, key)?;
                        ops::get_with(&mut rd, &f, key)?
                    }
                    // Out-of-range removes and lookups answer without
                    // descending.
                    BatchOp::Remove(_) | BatchOp::Get(_) => None,
                };
                out.push(r);
            }
            Ok((out, fixes))
        })
    }

    /// The whole plan in one serialized section (caller holds the lock).
    fn batch_locked(&self, th: &mut ScxThread, ops: &[BatchOp]) -> (Vec<Option<u64>>, Vec<u64>) {
        th.pinned(|th| {
            let mut m = DirectMem::new(self.exec.runtime(), &th.reclaim);
            let mut out = Vec::with_capacity(ops.len());
            let mut fixes = Vec::new();
            for op in ops {
                let r = match *op {
                    BatchOp::Insert(key, value) => {
                        assert!(key <= MAX_KEY, "key exceeds MAX_KEY");
                        let f = self.search_direct(key);
                        let (prev, fix) = ops::insert_seq(&mut m, self.entry, &f, key, value, false)
                            .expect("direct mode cannot abort");
                        if fix {
                            fixes.push(key);
                        }
                        prev
                    }
                    BatchOp::Remove(key) if key <= MAX_KEY => {
                        let f = self.search_direct(key);
                        let (prev, fix) = ops::delete_seq(&mut m, self.entry, &f, key, self.a, false)
                            .expect("direct mode cannot abort");
                        if fix {
                            fixes.push(key);
                        }
                        prev
                    }
                    BatchOp::Get(key) if key <= MAX_KEY => {
                        let rt = self.exec.runtime();
                        let mut rd = |c: &TxCell| Ok(c.load_direct(rt));
                        let f = ops::search_ab(&mut rd, self.entry, key)
                            .expect("direct search cannot abort");
                        ops::get_with(&mut rd, &f, key).expect("direct read cannot abort")
                    }
                    BatchOp::Remove(_) | BatchOp::Get(_) => None,
                };
                out.push(r);
            }
            (out, fixes)
        })
    }

    // ------------------------------------------------------------------
    // Rebalancing step per path. Each returns whether a violation was
    // found and repaired.
    // ------------------------------------------------------------------

    fn fast_fix(&self, th: &mut ScxThread, key: u64) -> Result<bool, Abort> {
        self.exec.attempt_seq(&self.eng, th, |m| {
            fix::fix_step_seq(m, self.entry, key, self.a, self.sec8)
        })
    }

    fn middle_fix(&self, th: &mut ScxThread, key: u64) -> Result<bool, Abort> {
        self.exec.attempt_template(&self.eng, th, |m| {
            match fix::fix_step_tmpl(m, self.entry, key, self.a)? {
                OpOutcome::Done(b) => Ok(b),
                OpOutcome::Retry => Err(Abort::explicit(codes::VALIDATION)),
            }
        })
    }

    fn fallback_fix(&self, th: &mut ScxThread, key: u64) -> bool {
        loop {
            let out = th.pinned(|th| {
                let mut m = OrigMode::new(&self.eng, th);
                fix::fix_step_tmpl(&mut m, self.entry, key, self.a)
            });
            match out.expect("software path cannot abort") {
                OpOutcome::Done(b) => return b,
                OpOutcome::Retry => continue,
            }
        }
    }

    fn locked_fix(&self, th: &mut ScxThread, key: u64) -> bool {
        th.pinned(|th| {
            let mut m = DirectMem::new(self.exec.runtime(), &th.reclaim);
            fix::fix_step_seq(&mut m, self.entry, key, self.a, self.sec8)
                .expect("direct mode cannot abort")
        })
    }

    // ------------------------------------------------------------------
    // Reads.
    //
    // The default path is the uninstrumented optimistic read
    // (`crate::readpath`): direct traversal, seqlock-validated leaf read,
    // whole-search retry on a lost race, escalation to `run_op` only
    // after a bounded number of failures. The transactional closures
    // below remain as the escalation target and as the
    // `read_path: false` baseline.
    // ------------------------------------------------------------------

    /// One optimistic lookup attempt (requires the caller's epoch pin);
    /// `None` = leaf validation failed, retry.
    fn read_get_attempt(&self, key: u64) -> Option<Option<u64>> {
        readpath::get_optimistic(self.exec.runtime(), self.entry, key, &mut || {})
    }

    /// One optimistic extremum attempt (requires the caller's epoch pin).
    fn read_extreme_attempt(&self, last: bool) -> Option<Option<(u64, u64)>> {
        readpath::extreme_optimistic(self.exec.runtime(), self.entry, last, &mut || {})
    }

    fn fast_get(&self, th: &mut ScxThread, key: u64) -> Result<Option<u64>, Abort> {
        self.exec.attempt_seq(&self.eng, th, |m| {
            let mut rd = |c: &TxCell| m.read(c);
            let f = ops::search_ab(&mut rd, self.entry, key)?;
            ops::get_with(&mut rd, &f, key)
        })
    }

    fn middle_get(&self, th: &mut ScxThread, key: u64) -> Result<Option<u64>, Abort> {
        self.exec.attempt_template(&self.eng, th, |m| {
            let mut rd = |c: &TxCell| m.read(c);
            let f = ops::search_ab(&mut rd, self.entry, key)?;
            ops::get_with(&mut rd, &f, key)
        })
    }

    fn fallback_get(&self, th: &mut ScxThread, key: u64) -> Option<u64> {
        // Wait-free uninstrumented search; safe because in-place writers
        // (fast/TLE paths) are excluded while software-path operations run.
        th.pinned(|_th| {
            let rt = self.exec.runtime();
            let mut rd = |c: &TxCell| Ok(c.load_direct(rt));
            let f = ops::search_ab(&mut rd, self.entry, key).expect("direct search cannot abort");
            ops::get_with(&mut rd, &f, key).expect("direct read cannot abort")
        })
    }

    fn fast_rq(&self, th: &mut ScxThread, lo: u64, hi: u64) -> Result<Vec<(u64, u64)>, Abort> {
        self.exec.attempt_seq(&self.eng, th, |m| {
            let mut out = Vec::new();
            let mut rd = |c: &TxCell| m.read(c);
            rq::rq_with(&mut rd, self.entry, lo, hi, &mut out)?;
            Ok(out)
        })
    }

    fn middle_rq(&self, th: &mut ScxThread, lo: u64, hi: u64) -> Result<Vec<(u64, u64)>, Abort> {
        self.exec.attempt_template(&self.eng, th, |m| {
            let mut out = Vec::new();
            let mut rd = |c: &TxCell| m.read(c);
            rq::rq_with(&mut rd, self.entry, lo, hi, &mut out)?;
            Ok(out)
        })
    }

    fn fallback_rq(&self, th: &mut ScxThread, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        loop {
            let r = th.pinned(|th| rq::rq_validated(&self.eng, th, self.entry, lo, hi));
            if let Some(out) = r {
                return out;
            }
        }
    }

    fn locked_rq(&self, th: &mut ScxThread, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        th.pinned(|_th| {
            let rt = self.exec.runtime();
            let mut rd = |c: &TxCell| Ok(c.load_direct(rt));
            let mut out = Vec::new();
            rq::rq_with(&mut rd, self.entry, lo, hi, &mut out).expect("direct rq cannot abort");
            out
        })
    }

    fn fast_extreme(&self, th: &mut ScxThread, last: bool) -> Result<Option<(u64, u64)>, Abort> {
        self.exec.attempt_seq(&self.eng, th, |m| {
            let mut out = None;
            let mut rd = |c: &TxCell| m.read(c);
            rq::extreme_with(&mut rd, self.entry, last, &mut out)?;
            Ok(out)
        })
    }

    fn middle_extreme(&self, th: &mut ScxThread, last: bool) -> Result<Option<(u64, u64)>, Abort> {
        self.exec.attempt_template(&self.eng, th, |m| {
            let mut out = None;
            let mut rd = |c: &TxCell| m.read(c);
            rq::extreme_with(&mut rd, self.entry, last, &mut out)?;
            Ok(out)
        })
    }

    fn fallback_extreme(&self, th: &mut ScxThread, last: bool) -> Option<(u64, u64)> {
        loop {
            let r = th.pinned(|th| rq::extreme_validated(&self.eng, th, self.entry, last));
            if let Some(out) = r {
                return out;
            }
        }
    }

    fn locked_extreme(&self, th: &mut ScxThread, last: bool) -> Option<(u64, u64)> {
        th.pinned(|_th| {
            let rt = self.exec.runtime();
            let mut rd = |c: &TxCell| Ok(c.load_direct(rt));
            let mut out = None;
            rq::extreme_with(&mut rd, self.entry, last, &mut out)
                .expect("direct walk cannot abort");
            out
        })
    }

    /// Builds a tree from strictly ascending `(key, value)` pairs in
    /// O(n), producing full-ish nodes (degree between `a` and `b`) — the
    /// standard bulk-loading construction for B-tree-like structures.
    ///
    /// # Panics
    ///
    /// Panics if keys are not strictly ascending or exceed
    /// [`MAX_KEY`](crate::MAX_KEY).
    pub fn bulk_load(items: &[(u64, u64)], cfg: AbTreeConfig) -> Self {
        for w in items.windows(2) {
            assert!(w[0].0 < w[1].0, "bulk_load requires strictly ascending keys");
        }
        if let Some(last) = items.last() {
            assert!(last.0 <= MAX_KEY, "key exceeds MAX_KEY");
        }
        let a = cfg.a;
        let tree = Self::with_config(cfg);
        if items.is_empty() {
            return tree;
        }
        // Aim for comfortably-full nodes with slack for later updates.
        let target = (a + B) / 2;
        // Bulk nodes go through the tree's allocation seam too (pooled
        // when the domain pools).
        let ctx = Domain::register(tree.domain());

        // Leaf level: (subtree min key, node pointer).
        let mut level: Vec<(u64, u64)> = chunk_sizes(items.len(), target, a)
            .into_iter()
            .scan(0usize, |off, sz| {
                let chunk = &items[*off..*off + sz];
                *off += sz;
                let node = ctx.alloc(AbNode::new_leaf(chunk));
                Some((chunk[0].0, node as u64))
            })
            .collect();

        // Internal levels.
        while level.len() > 1 {
            let mut next = Vec::new();
            let mut off = 0usize;
            for sz in chunk_sizes(level.len(), target, a) {
                let group = &level[off..off + sz];
                off += sz;
                let keys: Vec<u64> = group[1..].iter().map(|(k, _)| *k).collect();
                let children: Vec<u64> = group.iter().map(|(_, p)| *p).collect();
                let node = ctx.alloc(AbNode::new_internal(&keys, &children, false));
                next.push((group[0].0, node as u64));
            }
            level = next;
        }

        // Swap the new root in for the placeholder empty leaf.
        // SAFETY: the tree is private (not yet shared), so the
        // placeholder is provably unpublished once unlinked here.
        unsafe {
            let entry = &*tree.entry;
            let placeholder = entry.ptr_plain(0) as *mut AbNode;
            entry.ptr_cell(0).store_plain(level[0].1);
            ctx.dealloc_unpublished(placeholder);
        }
        tree
    }

    // ------------------------------------------------------------------
    // Quiescent inspection.
    // ------------------------------------------------------------------

    /// Number of keys. Quiescent only.
    pub fn len(&self) -> usize {
        self.validate().expect("invalid tree").keys
    }

    /// Whether the tree is empty. Quiescent only.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of keys. Quiescent only.
    pub fn key_sum(&self) -> u128 {
        self.validate().expect("invalid tree").key_sum
    }

    /// All pairs in ascending key order. Quiescent only.
    pub fn collect(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let root = unsafe { &*self.entry }.ptr_plain(0) as *mut AbNode;
        // SAFETY: quiescent per contract.
        unsafe { collect_rec(root, &mut out) };
        out
    }

    /// Structural validation: ordering against routing keys, arity bounds,
    /// uniform *weighted* leaf depth (tagged nodes add no height — the
    /// relaxed balance invariant), plus violation counts. Quiescent only.
    pub fn validate(&self) -> Result<AbShape, String> {
        let mut shape = AbShape {
            keys: 0,
            key_sum: 0,
            leaves: 0,
            internal_nodes: 0,
            tagged: 0,
            underfull: 0,
            depth_max: 0,
        };
        let root = unsafe { &*self.entry }.ptr_plain(0) as *mut AbNode;
        let mut leaf_wdepth: Option<usize> = None;
        // SAFETY: quiescent per contract.
        unsafe {
            validate_rec(
                root,
                None,
                None,
                0,
                1,
                true,
                self.a,
                &mut shape,
                &mut leaf_wdepth,
            )?
        };
        Ok(shape)
    }
}

impl Default for AbTree {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AbTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbTree")
            .field("strategy", &self.strategy())
            .field("a", &self.a)
            .field("b", &B)
            .finish()
    }
}

impl Drop for AbTree {
    fn drop(&mut self) {
        // Nodes are plain data (no drop glue — asserted below), so a
        // pooled tree needs no per-node walk: the blocks' memory belongs
        // to arena chunks the domain releases when it drops, after the
        // limbo bags.
        const { assert!(!std::mem::needs_drop::<AbNode>()) };
        if !self.pooled {
            // SAFETY: exclusive access; retired nodes live in limbo bags,
            // not in the reachable graph.
            unsafe {
                let root = (*self.entry).ptr_plain(0) as *mut AbNode;
                free_rec(root);
                drop(Box::from_raw(self.entry));
            }
        }
    }
}

fn finish_tx<T>(out: OpOutcome<T>) -> Result<T, Abort> {
    match out {
        OpOutcome::Done(t) => Ok(t),
        OpOutcome::Retry => Err(Abort::explicit(codes::VALIDATION)),
    }
}

/// Splits `n` items into chunks of roughly `target`, each at least `min`
/// (assuming `n >= 1`; a single short chunk is allowed only when
/// `n < min`, which for this tree means "root only" and is legal).
fn chunk_sizes(n: usize, target: usize, min: usize) -> Vec<usize> {
    debug_assert!(target >= min);
    let mut sizes = Vec::new();
    let mut remaining = n;
    while remaining > 0 {
        let take = if remaining >= target + min || remaining <= target {
            target.min(remaining)
        } else {
            // Splitting the tail evenly avoids a final undersized chunk.
            remaining / 2
        };
        sizes.push(take);
        remaining -= take;
    }
    debug_assert_eq!(sizes.iter().sum::<usize>(), n);
    sizes
}

unsafe fn free_rec(n: *mut AbNode) {
    let node = unsafe { &*n };
    if !node.leaf {
        for i in 0..node.size_plain() {
            unsafe { free_rec(node.ptr_plain(i) as *mut AbNode) };
        }
    }
    drop(unsafe { Box::from_raw(n) });
}

unsafe fn collect_rec(n: *mut AbNode, out: &mut Vec<(u64, u64)>) {
    let node = unsafe { &*n };
    if node.leaf {
        for i in 0..node.size_plain() {
            out.push((node.key_plain(i), node.ptr_plain(i)));
        }
    } else {
        for i in 0..node.size_plain() {
            unsafe { collect_rec(node.ptr_plain(i) as *mut AbNode, out) };
        }
    }
}

#[allow(clippy::too_many_arguments)]
unsafe fn validate_rec(
    n: *mut AbNode,
    lo: Option<u64>,
    hi: Option<u64>,
    depth: usize,
    wdepth: usize,
    is_root: bool,
    a: usize,
    shape: &mut AbShape,
    leaf_wdepth: &mut Option<usize>,
) -> Result<(), String> {
    if n.is_null() {
        return Err("null child".into());
    }
    let node = unsafe { &*n };
    if node.hdr.marked().load_plain() != 0 {
        return Err("reachable node is marked".into());
    }
    let size = node.size_plain();
    if size > B {
        return Err(format!("node degree {size} exceeds b = {B}"));
    }
    if node.tagged {
        shape.tagged += 1;
        if node.leaf {
            return Err("tagged leaf".into());
        }
    }
    if !is_root && size < a {
        shape.underfull += 1;
    }
    let in_range = |k: u64| lo.is_none_or(|l| k >= l) && hi.is_none_or(|h| k < h);
    if node.leaf {
        shape.leaves += 1;
        shape.depth_max = shape.depth_max.max(depth);
        match leaf_wdepth {
            None => *leaf_wdepth = Some(wdepth),
            Some(d) => {
                if *d != wdepth {
                    return Err(format!(
                        "weighted leaf depth mismatch: {wdepth} vs {d}"
                    ));
                }
            }
        }
        let mut prev: Option<u64> = None;
        for i in 0..size {
            let k = node.key_plain(i);
            if !in_range(k) {
                return Err(format!("leaf key {k} out of range"));
            }
            if let Some(p) = prev {
                if k <= p {
                    return Err("leaf keys not strictly ascending".into());
                }
            }
            prev = Some(k);
            shape.keys += 1;
            shape.key_sum += k as u128;
        }
    } else {
        shape.internal_nodes += 1;
        if size == 0 {
            return Err("internal node with zero children".into());
        }
        let mut prev: Option<u64> = None;
        for i in 0..size - 1 {
            let k = node.key_plain(i);
            if !in_range(k) {
                return Err(format!("routing key {k} out of range"));
            }
            if let Some(p) = prev {
                if k <= p {
                    return Err("routing keys not strictly ascending".into());
                }
            }
            prev = Some(k);
        }
        for i in 0..size {
            let child = node.ptr_plain(i) as *mut AbNode;
            let clo = if i == 0 { lo } else { Some(node.key_plain(i - 1)) };
            let chi = if i == size - 1 {
                hi
            } else {
                Some(node.key_plain(i))
            };
            let ctagged = unsafe { &*child }.tagged;
            unsafe {
                validate_rec(
                    child,
                    clo,
                    chi,
                    depth + 1,
                    wdepth + usize::from(!ctagged),
                    false,
                    a,
                    shape,
                    leaf_wdepth,
                )?
            };
        }
    }
    Ok(())
}

/// The [`BatchApply`] view handed to a flat-combining hook: each `apply`
/// runs one more plan inside the serialized section the caller already
/// holds (see [`AbTreeHandle::run_batch_with`]). Rebalancing keys are
/// collected and repaired by the combining handle after the section ends.
struct AbBatchApplier<'a> {
    tree: &'a AbTree,
    th: &'a mut ScxThread,
    combined: &'a std::cell::Cell<u64>,
    fixes: &'a std::cell::RefCell<Vec<u64>>,
}

impl BatchApply for AbBatchApplier<'_> {
    fn apply(&mut self, ops: &[BatchOp]) -> Vec<Option<u64>> {
        self.combined.set(self.combined.get() + ops.len() as u64);
        let (out, fixes) = self.tree.batch_locked(self.th, ops);
        self.fixes.borrow_mut().extend(fixes);
        out
    }
}

/// A per-thread handle to an [`AbTree`].
pub struct AbTreeHandle {
    tree: Arc<AbTree>,
    th: ScxThread,
    stats: PathStats,
    /// Reusable optimistic-scan scratch: `attempt_full` clears it at
    /// every scan, so only the vector capacities survive — calm scans
    /// stop paying the allocator for their validation set and pairs.
    /// Boxed, so growing the scratch does not grow the handle (whose
    /// size shifts the heap pattern of building a map; see CHANGES.md).
    scan_scratch: std::cell::RefCell<Box<scan::ScanState>>,
}

impl AbTreeHandle {
    /// The underlying tree.
    pub fn tree(&self) -> &Arc<AbTree> {
        &self.tree
    }

    /// Path-usage statistics accumulated by this handle.
    pub fn stats(&self) -> &PathStats {
        &self.stats
    }

    /// Resets this handle's statistics.
    pub fn reset_stats(&mut self) {
        self.stats = PathStats::new();
    }

    /// Inserts or updates `key`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `key > MAX_KEY`.
    ///
    /// [`MAX_KEY`]: crate::MAX_KEY
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        assert!(key <= MAX_KEY, "key exceeds MAX_KEY");
        let tree = &self.tree;
        let ((prev, fix), _path) = tree.exec.run_op(
            &mut self.th,
            &mut self.stats,
            |th| tree.fast_update(th, key, Some(value)),
            |th| tree.middle_update(th, key, Some(value)),
            |th| tree.fallback_update(th, key, Some(value)),
            |th| tree.locked_update(th, key, Some(value)),
        );
        if fix {
            self.fix_to_key(key);
        }
        prev
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        if key > MAX_KEY {
            return None;
        }
        let tree = &self.tree;
        let ((prev, fix), _path) = tree.exec.run_op(
            &mut self.th,
            &mut self.stats,
            |th| tree.fast_update(th, key, None),
            |th| tree.middle_update(th, key, None),
            |th| tree.fallback_update(th, key, None),
            |th| tree.locked_update(th, key, None),
        );
        if fix {
            self.fix_to_key(key);
        }
        prev
    }

    /// Applies a coalesced plan of operations in submission order,
    /// returning one reply per operation (the same `Option<u64>` each
    /// would return individually) and the path the batch committed on.
    ///
    /// The whole plan commits in a **single** fast-path transaction or,
    /// after the attempt budget, one serialized section under the
    /// fallback lock. Later operations in the plan observe the effects
    /// of earlier ones. Rebalancing (tag/underfull repair) runs after
    /// the batch commits, exactly as it does after single updates.
    /// Requires a tree built with [`AbTreeConfig::batched`].
    ///
    /// # Panics
    ///
    /// Panics if the tree was not built with `batched`, or if an insert
    /// key exceeds [`MAX_KEY`](crate::MAX_KEY).
    pub fn run_batch(&mut self, ops: &[BatchOp]) -> (Vec<Option<u64>>, PathKind) {
        self.run_batch_inner(ops, None::<fn(&mut dyn BatchApply)>)
    }

    /// Like [`Self::run_batch`], with a flat-combining hook: when the
    /// batch escalates to the serialized section, `combine` runs while
    /// this thread still holds the fallback lock, receiving a
    /// [`BatchApply`] that applies further plans in the same section.
    /// The hook does **not** run when the batch commits on the fast path
    /// (no lock is held there). Rebalancing for combined plans runs on
    /// this handle after the section ends.
    pub fn run_batch_with(
        &mut self,
        ops: &[BatchOp],
        combine: impl FnOnce(&mut dyn BatchApply),
    ) -> (Vec<Option<u64>>, PathKind) {
        self.run_batch_inner(ops, Some(combine))
    }

    fn run_batch_inner(
        &mut self,
        ops: &[BatchOp],
        combine: Option<impl FnOnce(&mut dyn BatchApply)>,
    ) -> (Vec<Option<u64>>, PathKind) {
        for op in ops {
            if let BatchOp::Insert(key, _) = op {
                assert!(*key <= MAX_KEY, "key exceeds MAX_KEY");
            }
        }
        if ops.is_empty() {
            return (Vec::new(), PathKind::Fast);
        }
        let tree = &self.tree;
        let combined = std::cell::Cell::new(0u64);
        let combined_fixes = std::cell::RefCell::new(Vec::new());
        let mut combine_slot = combine;
        let ((out, fixes), path) = tree.exec.run_batch(
            &mut self.th,
            &mut self.stats,
            ops.len() as u64,
            |th| tree.batch_fast(th, ops),
            |th| {
                let out = tree.batch_locked(th, ops);
                if let Some(c) = combine_slot.take() {
                    c(&mut AbBatchApplier {
                        tree,
                        th,
                        combined: &combined,
                        fixes: &combined_fixes,
                    });
                }
                out
            },
        );
        self.stats.add_combined_ops(combined.get());
        for key in fixes {
            self.fix_to_key(key);
        }
        for key in combined_fixes.into_inner() {
            self.fix_to_key(key);
        }
        (out, path)
    }

    /// Looks up `key`.
    ///
    /// On the default configuration this is an uninstrumented optimistic
    /// read: zero HTM transactions and no locks in the steady state, under
    /// every strategy including TLE. Leaves are seqlock-validated (they
    /// mutate in place); a read that keeps losing validation races
    /// escalates to the transactional machinery after
    /// [`threepath_core::DEFAULT_READ_ATTEMPTS`] attempts. Completions
    /// land on the [`PathKind::Read`](threepath_core::PathKind) lane,
    /// validation failures and escalations in
    /// [`PathStats::read_retries`]/[`PathStats::read_escalations`].
    pub fn get(&mut self, key: u64) -> Option<u64> {
        if key > MAX_KEY {
            return None;
        }
        let tree = &self.tree;
        if tree.read_path {
            if let Some(r) = tree.exec.run_read_validated(
                &mut self.th,
                &mut self.stats,
                tree.exec.read_attempts(),
                |_th| tree.read_get_attempt(key),
            ) {
                return r;
            }
            // Optimistic attempts kept losing validation races: escalate
            // with whatever attempt limits are currently in force
            // (including adaptively collapsed ones) but without feeding
            // the budget tally — an escalated read's aborts say nothing
            // about the update mix the budgets adapt to.
            let (r, _path) = tree.exec.run_op_escalated(
                &mut self.th,
                &mut self.stats,
                |th| tree.fast_get(th, key),
                |th| tree.middle_get(th, key),
                |th| tree.fallback_get(th, key),
                |th| tree.fallback_get(th, key),
            );
            return r;
        }
        let (r, _path) = tree.exec.run_op(
            &mut self.th,
            &mut self.stats,
            |th| tree.fast_get(th, key),
            |th| tree.middle_get(th, key),
            |th| tree.fallback_get(th, key),
            |th| tree.fallback_get(th, key),
        );
        r
    }

    /// Returns all pairs with keys in `[lo, hi)`, ascending.
    ///
    /// On the default configuration this is an uninstrumented optimistic
    /// scan: an epoch-pinned multi-leaf traversal with zero HTM
    /// transactions and no locks in the steady state, under every
    /// strategy. Every followed edge and every visited leaf's version
    /// word goes into a validation set that is re-checked as a whole
    /// after the copy-out. A scan that keeps losing races climbs a
    /// two-rung ladder: full re-walks first, then one partial rescan of
    /// only the invalidated subranges. If both lose, the scan escalates
    /// to the template and runs like any operation on the fast, middle or
    /// fallback path. Completions of the optimistic rungs land on the
    /// [`PathKind::Read`](threepath_core::PathKind) lane; retries,
    /// validated-leaf counts and escalations land in the [`PathStats`]
    /// scan lane.
    pub fn range_query(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let tree = &self.tree;
        if tree.scan_path {
            let state = &self.scan_scratch;
            if let Some(r) = tree.exec.run_scan(
                &mut self.th,
                &mut self.stats,
                tree.exec.read_attempts(),
                |_th, tally| {
                    state.borrow_mut().attempt_full(
                        tree.exec.runtime(),
                        tree.entry,
                        lo,
                        hi,
                        tally,
                        &mut || {},
                    )
                },
                |_th, tally| {
                    state.borrow_mut().attempt_partial(
                        tree.exec.runtime(),
                        tree.entry,
                        tally,
                        &mut || {},
                        scan::PARTIAL_ROUNDS,
                    )
                },
            ) {
                return r;
            }
            // Even the partial rescan kept losing races: escalate without
            // feeding the adaptive budget tally (as in `get`).
            let (r, _path) = tree.exec.run_op_escalated(
                &mut self.th,
                &mut self.stats,
                |th| tree.fast_rq(th, lo, hi),
                |th| tree.middle_rq(th, lo, hi),
                |th| tree.fallback_rq(th, lo, hi),
                |th| tree.locked_rq(th, lo, hi),
            );
            return r;
        }
        let (r, _path) = tree.exec.run_op(
            &mut self.th,
            &mut self.stats,
            |th| tree.fast_rq(th, lo, hi),
            |th| tree.middle_rq(th, lo, hi),
            |th| tree.fallback_rq(th, lo, hi),
            |th| tree.locked_rq(th, lo, hi),
        );
        r
    }

    /// Whether `key` is present.
    pub fn contains(&mut self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// The smallest key and its value, if any.
    pub fn first(&mut self) -> Option<(u64, u64)> {
        self.extreme(false)
    }

    /// The largest key and its value, if any.
    pub fn last(&mut self) -> Option<(u64, u64)> {
        self.extreme(true)
    }

    fn extreme(&mut self, last: bool) -> Option<(u64, u64)> {
        let tree = &self.tree;
        if tree.read_path {
            if let Some(r) = tree.exec.run_read_validated(
                &mut self.th,
                &mut self.stats,
                tree.exec.read_attempts(),
                |_th| tree.read_extreme_attempt(last),
            ) {
                return r;
            }
            // Escalate without feeding the budget tally (as in `get`).
            let (r, _path) = tree.exec.run_op_escalated(
                &mut self.th,
                &mut self.stats,
                |th| tree.fast_extreme(th, last),
                |th| tree.middle_extreme(th, last),
                |th| tree.fallback_extreme(th, last),
                |th| tree.locked_extreme(th, last),
            );
            return r;
        }
        let (r, _path) = tree.exec.run_op(
            &mut self.th,
            &mut self.stats,
            |th| tree.fast_extreme(th, last),
            |th| tree.middle_extreme(th, last),
            |th| tree.fallback_extreme(th, last),
            |th| tree.locked_extreme(th, last),
        );
        r
    }

    /// Repairs every violation on `key`'s path (called automatically after
    /// updates that create one; public for tests and tooling).
    pub fn fix_to_key(&mut self, key: u64) {
        loop {
            let tree = &self.tree;
            let (progress, _path) = tree.exec.run_op(
                &mut self.th,
                &mut self.stats,
                |th| tree.fast_fix(th, key),
                |th| tree.middle_fix(th, key),
                |th| tree.fallback_fix(th, key),
                |th| tree.locked_fix(th, key),
            );
            if !progress {
                return;
            }
        }
    }
}

impl std::fmt::Debug for AbTreeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbTreeHandle")
            .field("tree", &self.tree)
            .finish()
    }
}
