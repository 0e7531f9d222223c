//! The public BST: configuration, handles, the per-operation path wiring,
//! and quiescent validation utilities.

use std::sync::Arc;

use threepath_core::{
    AdaptiveBudgets, BatchApply, BatchOp, BudgetConfig, DirectMem, ExecCtx, Mem, OpOutcome,
    OrigMode, PathKind, PathLimits, PathStats, Strategy, TemplateMem, TemplateMode,
};
use threepath_htm::{codes, Abort, HtmConfig, HtmRuntime, TxCell};
use threepath_llxscx::{ScxEngine, ScxThread};
use threepath_reclaim::{Domain, PoolConfig, PoolStats, ReclaimMode};

use crate::node::{BstNode, MAX_KEY, SENT1, SENT2};
use crate::ops::{self, Found};
use crate::rq;
use crate::scan;

/// Configuration for a [`Bst`].
#[derive(Debug, Clone)]
pub struct BstConfig {
    /// Execution-path strategy.
    pub strategy: Strategy,
    /// Simulated-HTM parameters.
    pub htm: HtmConfig,
    /// Attempt budgets; defaults to the paper's per-strategy values.
    pub limits: Option<PathLimits>,
    /// Memory-reclamation mode.
    pub reclaim: ReclaimMode,
    /// Section 8: perform each operation's search phase *outside* the
    /// transaction, validating links and marked bits inside it.
    pub search_outside_txn: bool,
    /// Use a SNZI instead of the fetch-and-increment counter `F`
    /// (Section 5's scalability alternative).
    pub snzi: bool,
    /// Allow [`Bst::set_strategy`] to swap the strategy at runtime
    /// between TLE and 3-path (see [`threepath_core::ExecCtx`] for the
    /// blended subscription discipline this enables). Requires `strategy`
    /// to start as one of those two.
    pub adaptive: bool,
    /// Allocate nodes from per-thread pools and recycle them on expiry
    /// instead of going through the global allocator (see
    /// [`threepath_reclaim::NodePool`]). On by default — the steady-state
    /// hot path then never touches `malloc`/`free`. Turn off for the
    /// `Box`-based baseline in allocator A/B measurements.
    pub pool: bool,
    /// Adaptive attempt budgets: scale the fast/middle attempt counts per
    /// epoch from the observed abort mix, anchored at the paper's
    /// 10/10/20 (see [`BudgetConfig`]). A fixed `limits` override wins.
    pub budget: Option<BudgetConfig>,
    /// Route `get`/`contains`/`first`/`last` through the uninstrumented
    /// wait-free read path ([`threepath_core::ExecCtx::run_read`]): an
    /// epoch-pinned direct traversal with zero transactions, locks or `F`
    /// subscription — linearizable because leaf keys are immutable and
    /// child pointers only change via atomic SCX commits. On by default;
    /// off routes reads through `run_op` like any update (the baseline the
    /// read-heavy benchmarks compare against).
    pub read_path: bool,
    /// Route `range_query` through the uninstrumented scan path: an
    /// epoch-pinned direct traversal (software reads, zero HTM
    /// transactions) that accumulates a flat *version-ladder* validation
    /// set — one entry per followed edge plus one leaf `ver` seqlock word
    /// per copied value — and re-validates it as a whole (see
    /// `crate::scan`). Lost races retry; after
    /// [`threepath_core::DEFAULT_READ_ATTEMPTS`] failures a partial
    /// rescan re-reads only the invalidated subranges, and if that loses
    /// too the scan escalates to the template (fast, middle or fallback
    /// path). On by default; off routes scans through `run_op` (the
    /// baseline the scan benchmarks compare against).
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
    /// Enable the batch entry point ([`BstHandle::run_batch`]): coalesced
    /// operation plans commit in a single fast-path transaction or one
    /// serialized section. Requires a TLE or 3-path strategy and puts
    /// every transaction on the blended subscription discipline (one
    /// extra transactional lock read per attempt).
    pub batched: bool,
}

impl Default for BstConfig {
    fn default() -> Self {
        BstConfig {
            strategy: Strategy::ThreePath,
            htm: HtmConfig::default(),
            limits: None,
            reclaim: ReclaimMode::Epoch,
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

/// Shape and content summary returned by [`Bst::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    /// Number of user keys.
    pub keys: usize,
    /// Sum of user keys (the paper's key-sum correctness check).
    pub key_sum: u128,
    /// Number of internal nodes (including sentinels).
    pub internal_nodes: usize,
    /// Number of leaves (including sentinels).
    pub leaves: usize,
    /// Maximum leaf depth.
    pub depth_max: usize,
}

/// A concurrent ordered map from `u64` keys to `u64` values, implemented as
/// a lock-free external BST accelerated per the configured [`Strategy`].
///
/// Create handles with [`Bst::handle`] (one per thread); all operations go
/// through handles. Keys must be `<= MAX_KEY`.
///
/// [`MAX_KEY`]: crate::MAX_KEY
pub struct Bst {
    exec: ExecCtx,
    eng: ScxEngine,
    root: *mut BstNode,
    sec8: bool,
    /// Whether nodes live in pool chunks (owned by the domain) rather
    /// than individual `Box` allocations — decides how `Drop` frees the
    /// node graph.
    pooled: bool,
    /// Whether reads bypass `run_op` (see [`BstConfig::read_path`]).
    read_path: bool,
    /// Whether scans bypass `run_op` (see [`BstConfig::scan_path`]).
    scan_path: bool,
}

// SAFETY: the raw root pointer references a heap structure whose shared
// mutation is mediated entirely by the HTM runtime and LLX/SCX engine.
unsafe impl Send for Bst {}
unsafe impl Sync for Bst {}

impl Bst {
    /// A tree with the default configuration (3-path strategy).
    pub fn new() -> Self {
        Self::with_config(BstConfig::default())
    }

    /// A tree with the given configuration.
    pub fn with_config(cfg: BstConfig) -> Self {
        let rt = Arc::new(HtmRuntime::new(cfg.htm.clone()));
        let pool_cfg = if cfg.pool {
            PoolConfig::default()
        } else {
            PoolConfig::disabled()
        };
        let domain = Arc::new(Domain::with_pool(cfg.reclaim, pool_cfg));
        let pooled = domain.class_of::<BstNode>().is_some();
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
        // Initial tree (Ellen et al.): entry(∞₂) over leaf(∞₁), leaf(∞₂).
        // Allocated through a short-lived context so sentinels come from
        // the pool too (uniform ownership for `Drop`).
        let root = {
            let ctx = Domain::register(&domain);
            let l1 = ctx.alloc(BstNode::new_leaf(SENT1, 0));
            let l2 = ctx.alloc(BstNode::new_leaf(SENT2, 0));
            ctx.alloc(BstNode::new_internal(SENT2, l1, l2))
        };
        Bst {
            exec,
            eng,
            root,
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

    /// Whether the batch entry point ([`BstHandle::run_batch`]) is
    /// enabled (see [`BstConfig::batched`]).
    pub fn is_batched(&self) -> bool {
        self.exec.is_batched()
    }

    /// Whether serialized work (the fallback path or a holder of the
    /// fallback lock) is in progress on this tree right now — see
    /// [`threepath_core::ExecCtx::serialized_active`].
    pub fn serialized_active(&self) -> bool {
        self.exec.serialized_active()
    }

    /// Swaps the execution strategy at runtime while operations are in
    /// flight. Only valid on a tree built with
    /// [`BstConfig::adaptive`], and only between TLE and 3-path.
    pub fn set_strategy(&self, strategy: Strategy) -> Result<(), threepath_core::StrategySwapError> {
        self.exec.set_strategy(strategy)
    }

    /// The underlying HTM runtime (for diagnostics and benchmarks).
    pub fn runtime(&self) -> &Arc<HtmRuntime> {
        self.exec.runtime()
    }

    /// The reclamation domain (for diagnostics and benchmarks).
    pub fn domain(&self) -> &Arc<Domain> {
        self.eng.domain()
    }

    /// The attempt budgets currently in effect (a fixed override, the
    /// adaptive budgets' latest value, or the paper defaults).
    pub fn limits(&self) -> PathLimits {
        self.exec.limits()
    }

    /// The adaptive budget state, when [`BstConfig::budget`] enabled it.
    pub fn budgets(&self) -> Option<&AdaptiveBudgets> {
        self.exec.budgets()
    }

    /// The read-path transaction-attempt bound currently in effect (the
    /// probing read bound's settled arm when [`BstConfig::read_probe`]
    /// enabled it, or the fixed default).
    pub fn read_attempts(&self) -> u32 {
        self.exec.read_attempts()
    }

    /// Node-pool counters folded into the domain so far (contexts fold on
    /// drop; read after handles are gone for a complete picture).
    pub fn pool_stats(&self) -> PoolStats {
        self.domain().pool_stats()
    }

    /// Registers the calling thread and returns an operation handle.
    pub fn handle(self: &Arc<Self>) -> BstHandle {
        BstHandle {
            th: self.eng.register_thread(),
            tree: Arc::clone(self),
            stats: PathStats::new(),
            scan_scratch: std::cell::RefCell::new(Box::new(scan::ScanState::new())),
        }
    }

    fn search_direct(&self, key: u64) -> Found {
        let rt = self.exec.runtime();
        let mut read = |c: &TxCell| Ok(c.load_direct(rt));
        ops::search_with(&mut read, self.root, key).expect("direct search cannot abort")
    }

    // ------------------------------------------------------------------
    // Per-path operation bodies.
    // ------------------------------------------------------------------

    fn fast_insert(&self, th: &mut ScxThread, key: u64, value: u64) -> Result<Option<u64>, Abort> {
        if self.sec8 {
            th.pinned(|th| {
                let f = self.search_direct(key);
                self.exec
                    .attempt_seq(&self.eng, th, |m| ops::insert_seq(m, &f, key, value, true))
            })
        } else {
            self.exec.attempt_seq(&self.eng, th, |m| {
                let f = {
                    let mut rd = |c: &TxCell| m.read(c);
                    ops::search_with(&mut rd, self.root, key)?
                };
                ops::insert_seq(m, &f, key, value, false)
            })
        }
    }

    fn middle_insert(
        &self,
        th: &mut ScxThread,
        key: u64,
        value: u64,
    ) -> Result<Option<u64>, Abort> {
        if self.sec8 {
            th.pinned(|th| {
                let f = self.search_direct(key);
                self.exec.attempt_template(&self.eng, th, |m| {
                    finish_tx(ops::insert_tmpl(m, &f, key, value)?)
                })
            })
        } else {
            self.exec.attempt_template(&self.eng, th, |m| {
                let f = {
                    let mut rd = |c: &TxCell| m.read(c);
                    ops::search_with(&mut rd, self.root, key)?
                };
                finish_tx(ops::insert_tmpl(m, &f, key, value)?)
            })
        }
    }

    fn fallback_insert(&self, th: &mut ScxThread, key: u64, value: u64) -> Option<u64> {
        loop {
            let out = th.pinned(|th| {
                let f = self.search_direct(key);
                let mut m = OrigMode::new(&self.eng, th);
                ops::insert_tmpl(&mut m, &f, key, value)
            });
            match out.expect("software path cannot abort") {
                OpOutcome::Done(r) => return r,
                OpOutcome::Retry => continue,
            }
        }
    }

    fn locked_insert(&self, th: &mut ScxThread, key: u64, value: u64) -> Option<u64> {
        th.pinned(|th| {
            let f = self.search_direct(key);
            let mut m = DirectMem::new(self.exec.runtime(), &th.reclaim);
            ops::insert_seq(&mut m, &f, key, value, false).expect("direct mode cannot abort")
        })
    }

    fn fast_delete(&self, th: &mut ScxThread, key: u64) -> Result<Option<u64>, Abort> {
        if self.sec8 {
            th.pinned(|th| {
                let f = self.search_direct(key);
                self.exec
                    .attempt_seq(&self.eng, th, |m| ops::delete_seq(m, &f, key, true, true))
            })
        } else {
            self.exec.attempt_seq(&self.eng, th, |m| {
                let f = {
                    let mut rd = |c: &TxCell| m.read(c);
                    ops::search_with(&mut rd, self.root, key)?
                };
                ops::delete_seq(m, &f, key, false, false)
            })
        }
    }

    fn middle_delete(&self, th: &mut ScxThread, key: u64) -> Result<Option<u64>, Abort> {
        if self.sec8 {
            th.pinned(|th| {
                let f = self.search_direct(key);
                self.exec
                    .attempt_template(&self.eng, th, |m| finish_tx(ops::delete_tmpl(m, &f, key)?))
            })
        } else {
            self.exec.attempt_template(&self.eng, th, |m| {
                let f = {
                    let mut rd = |c: &TxCell| m.read(c);
                    ops::search_with(&mut rd, self.root, key)?
                };
                finish_tx(ops::delete_tmpl(m, &f, key)?)
            })
        }
    }

    fn fallback_delete(&self, th: &mut ScxThread, key: u64) -> Option<u64> {
        loop {
            let out = th.pinned(|th| {
                let f = self.search_direct(key);
                let mut m = OrigMode::new(&self.eng, th);
                ops::delete_tmpl(&mut m, &f, key)
            });
            match out.expect("software path cannot abort") {
                OpOutcome::Done(r) => return r,
                OpOutcome::Retry => continue,
            }
        }
    }

    fn locked_delete(&self, th: &mut ScxThread, key: u64) -> Option<u64> {
        th.pinned(|th| {
            let f = self.search_direct(key);
            let mut m = DirectMem::new(self.exec.runtime(), &th.reclaim);
            ops::delete_seq(&mut m, &f, key, false, self.sec8).expect("direct mode cannot abort")
        })
    }

    // ------------------------------------------------------------------
    // Batch bodies: one transaction (or one serialized section) applies a
    // whole coalesced plan. Every operation searches from the root inside
    // the same memory mode, so later operations in the plan observe the
    // effects of earlier ones — which is why the sec8 outside-search
    // variant does not apply here.
    // ------------------------------------------------------------------

    /// Mem-generic search (borrow-scoped so the caller can keep using `m`).
    fn search_mem<M: Mem>(&self, m: &mut M, key: u64) -> Result<Found, Abort> {
        let mut rd = |c: &TxCell| m.read(c);
        ops::search_with(&mut rd, self.root, key)
    }

    /// The whole plan in a single fast-path transaction.
    fn batch_fast(&self, th: &mut ScxThread, ops: &[BatchOp]) -> Result<Vec<Option<u64>>, Abort> {
        self.exec.attempt_seq(&self.eng, th, |m| {
            let mut out = Vec::with_capacity(ops.len());
            for op in ops {
                let r = match *op {
                    BatchOp::Insert(key, value) => {
                        let f = self.search_mem(m, key)?;
                        ops::insert_seq(m, &f, key, value, false)?
                    }
                    BatchOp::Remove(key) if key <= MAX_KEY => {
                        let f = self.search_mem(m, key)?;
                        ops::delete_seq(m, &f, key, false, self.sec8)?
                    }
                    BatchOp::Get(key) if key <= MAX_KEY => {
                        let f = self.search_mem(m, key)?;
                        ops::get_seq(m, &f, key)?
                    }
                    // Out-of-range removes and lookups answer without
                    // touching the sentinel spine.
                    BatchOp::Remove(_) | BatchOp::Get(_) => None,
                };
                out.push(r);
            }
            Ok(out)
        })
    }

    /// The whole plan in one serialized section (caller holds the lock).
    fn batch_locked(&self, th: &mut ScxThread, ops: &[BatchOp]) -> Vec<Option<u64>> {
        th.pinned(|th| {
            let mut m = DirectMem::new(self.exec.runtime(), &th.reclaim);
            let mut out = Vec::with_capacity(ops.len());
            for op in ops {
                let r = match *op {
                    BatchOp::Insert(key, value) => {
                        assert!(key <= MAX_KEY, "key exceeds MAX_KEY");
                        let f = self.search_direct(key);
                        ops::insert_seq(&mut m, &f, key, value, false)
                            .expect("direct mode cannot abort")
                    }
                    BatchOp::Remove(key) if key <= MAX_KEY => {
                        let f = self.search_direct(key);
                        ops::delete_seq(&mut m, &f, key, false, self.sec8)
                            .expect("direct mode cannot abort")
                    }
                    BatchOp::Get(key) if key <= MAX_KEY => self.read_get(key),
                    BatchOp::Remove(_) | BatchOp::Get(_) => None,
                };
                out.push(r);
            }
            out
        })
    }

    // ------------------------------------------------------------------
    // Reads.
    //
    // The wait-free read path: an epoch-pinned direct traversal with zero
    // transactions, locks or `F` subscription. Linearizable without
    // validation because (a) leaf keys are immutable — a leaf reached
    // through a pointer read linearizes at that read, whether or not it
    // was unlinked in between (its content can never change again), and
    // (b) the only in-place mutation is the fast/TLE value update, a
    // single cell whose `load_direct` is atomic against transactional
    // commits and direct stores alike.
    // ------------------------------------------------------------------

    /// Direct lookup body (requires the caller's epoch pin).
    fn read_get(&self, key: u64) -> Option<u64> {
        let f = self.search_direct(key);
        let l = unsafe { &*f.l };
        if l.key == key {
            Some(l.value.load_direct(self.exec.runtime()))
        } else {
            None
        }
    }

    /// Direct extremum body: the leaf covering `probe`, when it holds a
    /// user key (requires the caller's epoch pin).
    fn read_locate(&self, probe: u64) -> Option<(u64, u64)> {
        let f = self.search_direct(probe);
        let l = unsafe { &*f.l };
        if l.key <= MAX_KEY {
            Some((l.key, l.value.load_direct(self.exec.runtime())))
        } else {
            None
        }
    }

    /// Mem-generic lookup: transactional search plus leaf read. Only used
    /// by the `read_path: false` baseline's fast/middle closures.
    fn get_mem<M: Mem>(&self, m: &mut M, key: u64) -> Result<Option<u64>, Abort> {
        let f = {
            let mut rd = |c: &TxCell| m.read(c);
            ops::search_with(&mut rd, self.root, key)?
        };
        ops::get_seq(m, &f, key)
    }

    /// Mem-generic extremum (baseline only, like [`Self::get_mem`]).
    fn locate_mem<M: Mem>(&self, m: &mut M, probe: u64) -> Result<Option<(u64, u64)>, Abort> {
        let f = {
            let mut rd = |c: &TxCell| m.read(c);
            ops::search_with(&mut rd, self.root, probe)?
        };
        let l = unsafe { &*f.l };
        if l.key <= MAX_KEY {
            Ok(Some((l.key, m.read(&l.value)?)))
        } else {
            Ok(None)
        }
    }

    /// The `read_path: false` baseline: drives a lookup through `run_op`
    /// exactly like an update (transactional fast/middle attempts, direct
    /// traversal on the software paths) — what every read paid before the
    /// dedicated read path existed, kept for A/B measurement.
    fn get_runop(&self, th: &mut ScxThread, stats: &mut PathStats, key: u64) -> Option<u64> {
        let (r, _path) = self.exec.run_op(
            th,
            stats,
            |th| self.exec.attempt_seq(&self.eng, th, |m| self.get_mem(m, key)),
            |th| {
                self.exec.attempt_template(&self.eng, th, |m| {
                    let mut mem = TemplateMem(m);
                    self.get_mem(&mut mem, key)
                })
            },
            |th| th.pinned(|_th| self.read_get(key)),
            |th| th.pinned(|_th| self.read_get(key)),
        );
        r
    }

    /// `run_op` baseline for `first`/`last` (see [`Self::get_runop`]).
    fn locate_runop(
        &self,
        th: &mut ScxThread,
        stats: &mut PathStats,
        probe: u64,
    ) -> Option<(u64, u64)> {
        let (r, _path) = self.exec.run_op(
            th,
            stats,
            |th| self.exec.attempt_seq(&self.eng, th, |m| self.locate_mem(m, probe)),
            |th| {
                self.exec.attempt_template(&self.eng, th, |m| {
                    let mut mem = TemplateMem(m);
                    self.locate_mem(&mut mem, probe)
                })
            },
            |th| th.pinned(|_th| self.read_locate(probe)),
            |th| th.pinned(|_th| self.read_locate(probe)),
        );
        r
    }

    fn fast_rq(&self, th: &mut ScxThread, lo: u64, hi: u64) -> Result<Vec<(u64, u64)>, Abort> {
        self.exec.attempt_seq(&self.eng, th, |m| {
            let mut out = Vec::new();
            rq::rq_mem(m, self.root, lo, hi, &mut out)?;
            Ok(out)
        })
    }

    fn middle_rq(&self, th: &mut ScxThread, lo: u64, hi: u64) -> Result<Vec<(u64, u64)>, Abort> {
        self.exec.attempt_template(&self.eng, th, |m| {
            let mut out = Vec::new();
            let mut mem = TemplateMem(m);
            rq::rq_mem(&mut mem, self.root, lo, hi, &mut out)?;
            Ok(out)
        })
    }

    fn fallback_rq(&self, th: &mut ScxThread, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        loop {
            let r = th.pinned(|th| rq::rq_validated(&self.eng, th, self.root, lo, hi));
            if let Some(out) = r {
                return out;
            }
        }
    }

    fn locked_rq(&self, th: &mut ScxThread, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        th.pinned(|th| {
            let mut m = DirectMem::new(self.exec.runtime(), &th.reclaim);
            let mut out = Vec::new();
            rq::rq_mem(&mut m, self.root, lo, hi, &mut out).expect("direct mode cannot abort");
            out
        })
    }

    // ------------------------------------------------------------------
    // Quiescent inspection (no concurrent operations allowed).
    // ------------------------------------------------------------------

    /// Number of user keys. Quiescent only.
    pub fn len(&self) -> usize {
        self.validate().expect("invalid tree").keys
    }

    /// Whether the tree holds no user keys. Quiescent only.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of all user keys (the paper's key-sum check). Quiescent only.
    pub fn key_sum(&self) -> u128 {
        self.validate().expect("invalid tree").key_sum
    }

    /// All user pairs in ascending key order. Quiescent only.
    pub fn collect(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        // SAFETY: quiescent per contract.
        unsafe { collect_rec(self.root, &mut out) };
        out
    }

    /// Full structural validation: leaf-orientation, search-tree order,
    /// reachability of unmarked nodes only. Quiescent only.
    pub fn validate(&self) -> Result<TreeShape, String> {
        let mut shape = TreeShape {
            keys: 0,
            key_sum: 0,
            internal_nodes: 0,
            leaves: 0,
            depth_max: 0,
        };
        // SAFETY: quiescent per contract.
        unsafe { validate_rec(self.root, 0, u64::MAX, 0, &mut shape)? };
        Ok(shape)
    }
}

impl Default for Bst {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Bst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bst")
            .field("strategy", &self.strategy())
            .field("search_outside_txn", &self.sec8)
            .finish()
    }
}

impl Drop for Bst {
    fn drop(&mut self) {
        // Nodes are plain data (no drop glue — asserted below), so a
        // pooled tree needs no per-node walk: the blocks' memory belongs
        // to arena chunks the domain releases when it drops, after the
        // limbo bags.
        const { assert!(!std::mem::needs_drop::<BstNode>()) };
        if !self.pooled {
            // SAFETY: exclusive access; retired nodes are owned by the
            // domain's limbo bags, never reachable from the root, so no
            // double free.
            unsafe { free_rec(self.root) };
        }
    }
}

/// Maps a template outcome into a transactional result: transactional
/// attempts cannot re-run their search, so `Retry` (a failed link
/// validation after an out-of-transaction search) aborts the attempt.
fn finish_tx<T>(out: OpOutcome<T>) -> Result<T, Abort> {
    match out {
        OpOutcome::Done(t) => Ok(t),
        OpOutcome::Retry => Err(Abort::explicit(codes::VALIDATION)),
    }
}

unsafe fn free_rec(n: *mut BstNode) {
    if n.is_null() {
        return;
    }
    let node = unsafe { &*n };
    if !node.is_leaf {
        unsafe {
            free_rec(node.child_plain(0));
            free_rec(node.child_plain(1));
        }
    }
    drop(unsafe { Box::from_raw(n) });
}

unsafe fn collect_rec(n: *mut BstNode, out: &mut Vec<(u64, u64)>) {
    let node = unsafe { &*n };
    if node.is_leaf {
        if node.key < SENT1 {
            out.push((node.key, node.value.load_plain()));
        }
    } else {
        unsafe {
            collect_rec(node.child_plain(0), out);
            collect_rec(node.child_plain(1), out);
        }
    }
}

unsafe fn validate_rec(
    n: *mut BstNode,
    lo: u64,
    hi: u64,
    depth: usize,
    shape: &mut TreeShape,
) -> Result<(), String> {
    if n.is_null() {
        return Err("null child reached".into());
    }
    let node = unsafe { &*n };
    if node.hdr.marked().load_plain() != 0 {
        return Err(format!("reachable node (key {}) is marked", node.key));
    }
    if node.is_leaf {
        shape.leaves += 1;
        shape.depth_max = shape.depth_max.max(depth);
        if !(lo <= node.key && node.key <= hi) {
            return Err(format!(
                "leaf key {} outside range [{lo}, {hi}]",
                node.key
            ));
        }
        if node.key < SENT1 {
            shape.keys += 1;
            shape.key_sum += node.key as u128;
        }
        if !node.child_plain(0).is_null() || !node.child_plain(1).is_null() {
            return Err("leaf with children".into());
        }
    } else {
        shape.internal_nodes += 1;
        if !(lo <= node.key && node.key <= hi) {
            return Err(format!(
                "routing key {} outside range [{lo}, {hi}]",
                node.key
            ));
        }
        let (l, r) = (node.child_plain(0), node.child_plain(1));
        if l.is_null() || r.is_null() {
            return Err(format!("internal node (key {}) missing a child", node.key));
        }
        // Left subtree keys < node.key; right subtree keys >= node.key.
        unsafe {
            validate_rec(l, lo, node.key.saturating_sub(1), depth + 1, shape)?;
            validate_rec(r, node.key, hi, depth + 1, shape)?;
        }
    }
    Ok(())
}

/// The [`BatchApply`] view handed to a flat-combining hook: each `apply`
/// runs one more plan inside the serialized section the caller already
/// holds (see [`BstHandle::run_batch_with`]).
struct BstBatchApplier<'a> {
    tree: &'a Bst,
    th: &'a mut ScxThread,
    combined: &'a std::cell::Cell<u64>,
}

impl BatchApply for BstBatchApplier<'_> {
    fn apply(&mut self, ops: &[BatchOp]) -> Vec<Option<u64>> {
        self.combined.set(self.combined.get() + ops.len() as u64);
        self.tree.batch_locked(self.th, ops)
    }
}

/// A per-thread handle to a [`Bst`].
///
/// Create one per thread with [`Bst::handle`]; operations take `&mut self`
/// (handles are not shared between threads).
pub struct BstHandle {
    tree: Arc<Bst>,
    th: ScxThread,
    stats: PathStats,
    /// Reusable optimistic-scan scratch: `attempt_full` clears it at
    /// every scan, so only the vector capacities survive — calm scans
    /// stop paying the allocator for their validation set and pairs.
    /// Boxed, so growing the scratch does not grow the handle (whose
    /// size shifts the heap pattern of building a map; see CHANGES.md).
    scan_scratch: std::cell::RefCell<Box<scan::ScanState>>,
}

impl BstHandle {
    /// The underlying tree.
    pub fn tree(&self) -> &Arc<Bst> {
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

    /// Inserts or updates `key`, returning the previous value if present.
    ///
    /// # Panics
    ///
    /// Panics if `key > MAX_KEY`.
    ///
    /// [`MAX_KEY`]: crate::MAX_KEY
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        assert!(key <= MAX_KEY, "key exceeds MAX_KEY");
        let tree = &self.tree;
        let (r, _path) = tree.exec.run_op(
            &mut self.th,
            &mut self.stats,
            |th| tree.fast_insert(th, key, value),
            |th| tree.middle_insert(th, key, value),
            |th| tree.fallback_insert(th, key, value),
            |th| tree.locked_insert(th, key, value),
        );
        r
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        if key > MAX_KEY {
            return None;
        }
        let tree = &self.tree;
        let (r, _path) = tree.exec.run_op(
            &mut self.th,
            &mut self.stats,
            |th| tree.fast_delete(th, key),
            |th| tree.middle_delete(th, key),
            |th| tree.fallback_delete(th, key),
            |th| tree.locked_delete(th, key),
        );
        r
    }

    /// Applies a coalesced plan of operations in submission order,
    /// returning one reply per operation (the same `Option<u64>` each
    /// would return individually) and the path the batch committed on.
    ///
    /// The whole plan commits in a **single** fast-path transaction or,
    /// after the attempt budget, one serialized section under the
    /// fallback lock — `ceil(N / batch_cap)` transactions for N
    /// operations instead of N. Later operations in the plan observe the
    /// effects of earlier ones. Requires a tree built with
    /// [`BstConfig::batched`].
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
    /// [`BatchApply`] that applies further plans in the same section. A
    /// server uses this to drain other submitters' queued requests
    /// before the lock is released. The hook does **not** run when the
    /// batch commits on the fast path (no lock is held there).
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
        let mut combine_slot = combine;
        let (out, path) = tree.exec.run_batch(
            &mut self.th,
            &mut self.stats,
            ops.len() as u64,
            |th| tree.batch_fast(th, ops),
            |th| {
                let out = tree.batch_locked(th, ops);
                if let Some(c) = combine_slot.take() {
                    c(&mut BstBatchApplier {
                        tree,
                        th,
                        combined: &combined,
                    });
                }
                out
            },
        );
        self.stats.add_combined_ops(combined.get());
        (out, path)
    }

    /// Looks up `key`.
    ///
    /// On the default configuration this is a wait-free uninstrumented
    /// search ([`threepath_core::ExecCtx::run_read`]): zero HTM
    /// transactions, no locks, no fallback escalation — under every
    /// strategy, including TLE (reads never take or wait for the global
    /// lock). Completions land on the
    /// [`PathKind::Read`](threepath_core::PathKind) stats lane.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        if key > MAX_KEY {
            return None;
        }
        let tree = &self.tree;
        if tree.read_path {
            tree.exec
                .run_read(&mut self.th, &mut self.stats, |_th| tree.read_get(key))
        } else {
            tree.get_runop(&mut self.th, &mut self.stats, key)
        }
    }

    /// Whether `key` is present.
    pub fn contains(&mut self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// The smallest key and its value, if any.
    ///
    /// Locating the leaf that covers key `0` finds the minimum: user keys
    /// all sit left of the sentinel spine, so the leftmost leaf is real
    /// whenever the tree is non-empty.
    pub fn first(&mut self) -> Option<(u64, u64)> {
        self.extreme(0)
    }

    /// The largest key and its value, if any.
    pub fn last(&mut self) -> Option<(u64, u64)> {
        self.extreme(MAX_KEY)
    }

    fn extreme(&mut self, probe: u64) -> Option<(u64, u64)> {
        let tree = &self.tree;
        if tree.read_path {
            tree.exec
                .run_read(&mut self.th, &mut self.stats, |_th| tree.read_locate(probe))
        } else {
            tree.locate_runop(&mut self.th, &mut self.stats, probe)
        }
    }

    /// Returns all pairs with keys in `[lo, hi)`, ascending.
    ///
    /// On the default configuration this is an uninstrumented optimistic
    /// scan: an epoch-pinned traversal with zero HTM transactions and no
    /// locks, under every strategy. Validation is the *version ladder* —
    /// each traversed edge and each leaf's seqlock `ver` word go into a
    /// trace that is re-checked as a whole after the copy-out, so a calm
    /// scan costs O(leaves + fringe) word compares instead of per-node
    /// LLX quadruples. A scan that keeps losing races climbs a two-rung
    /// ladder: full re-walks first, then one partial rescan of only the
    /// invalidated subranges. If both lose, the scan escalates to the
    /// template and runs like any operation on the fast, middle or
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
                        tree.root,
                        lo,
                        hi,
                        tally,
                        &mut || {},
                    )
                },
                |_th, tally| {
                    state.borrow_mut().attempt_partial(
                        tree.exec.runtime(),
                        tree.root,
                        tally,
                        &mut || {},
                        scan::PARTIAL_ROUNDS,
                    )
                },
            ) {
                return r;
            }
            // Even the partial rescan kept losing races: escalate with
            // whatever attempt limits are currently in force (including
            // adaptively collapsed ones) but without feeding the budget
            // tally — an escalated scan's aborts say nothing about the
            // update mix the budgets adapt to.
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

    /// The path *most* of this handle's completed operations ran on,
    /// according to its statistics (diagnostic helper for tests). On a
    /// read-heavy handle this is [`PathKind::Read`], the uninstrumented
    /// read lane — reads never appear on the fast/middle/fallback lanes
    /// unless the tree was built with `read_path: false`.
    pub fn last_path_hint(&self) -> Option<PathKind> {
        PathKind::ALL
            .into_iter()
            .max_by_key(|p| self.stats.completed(*p))
    }
}

impl std::fmt::Debug for BstHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BstHandle")
            .field("tree", &self.tree)
            .finish()
    }
}
