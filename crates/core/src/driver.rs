//! The execution driver: runs one operation according to the configured
//! strategy, handling attempt budgets, waiting policies, path transitions
//! and statistics (paper Section 5).

use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use threepath_htm::{codes, Abort, Backoff, HtmRuntime, Txn};
use threepath_llxscx::{ScxEngine, ScxThread};

use crate::access::TxMem;
use crate::admission::{AdmissionProbe, AdmissionProbeConfig};
use crate::budget::{AdaptiveBudgets, BudgetConfig, OpTally};
use crate::effects::Effects;
use crate::readpath::{ReadBound, ReadBoundConfig, DEFAULT_READ_ATTEMPTS};
use crate::stats::{PathKind, PathStats};
use crate::strategy::{PathLimits, Strategy};
use crate::snzi::Snzi;
use crate::sync::{AdmissionGate, FallbackCount, Indicator, TleLock};
use crate::template::TxMode;

/// The strategies an adaptive context may swap between at runtime (see
/// [`ExecCtx::set_strategy`]).
pub const ADAPTIVE_STRATEGIES: [Strategy; 2] = [Strategy::Tle, Strategy::ThreePath];

/// Error from [`ExecCtx::set_strategy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategySwapError {
    /// The context was not built with [`ExecCtx::with_adaptive`]; its
    /// strategy is fixed for its lifetime.
    NotAdaptive,
    /// The requested strategy is outside [`ADAPTIVE_STRATEGIES`] — the
    /// blended subscription discipline only covers TLE and 3-path.
    Unsupported(Strategy),
}

impl fmt::Display for StrategySwapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategySwapError::NotAdaptive => {
                f.write_str("strategy is fixed: context not built with_adaptive")
            }
            StrategySwapError::Unsupported(s) => {
                write!(f, "strategy `{s}` cannot be swapped in at runtime")
            }
        }
    }
}

impl std::error::Error for StrategySwapError {}

/// Per-structure execution context: the strategy, attempt budgets, the
/// fallback counter `F` and the TLE lock.
///
/// # Adaptive contexts
///
/// A context built [`with_adaptive`](Self::with_adaptive) may have its
/// strategy swapped **at runtime** between [`Strategy::Tle`] and
/// [`Strategy::ThreePath`] while operations are in flight on other
/// threads. Safety does not rely on quiescing: a *blended* discipline
/// keeps every interleaving of TLE-mode and 3-path-mode operations
/// correct, whichever strategy each in-flight operation read:
///
/// * every HTM transaction — fast path **and** middle path — subscribes
///   to both the TLE lock and the fallback indicator `F`, so no
///   transaction can commit while the lock is held or the lock-free
///   fallback is active;
/// * the TLE fallback, after acquiring the lock, waits for `F` to drain
///   before running sequential code (lock-free template operations never
///   overlap exclusive sequential access);
/// * the lock-free fallback arrives on `F` only while the lock is free,
///   re-checking after arrival and backing off (departing) if the lock
///   was concurrently acquired. The lock holder waits only for `F`, and
///   `F` holders never wait once arrived, so the two waits cannot cycle.
///
/// The cost is one extra transactional read per fast/middle attempt and a
/// lock check on fallback entry — paid only by adaptive contexts;
/// fixed-strategy contexts run exactly the paper's per-strategy protocol.
pub struct ExecCtx {
    rt: Arc<HtmRuntime>,
    strategy: AtomicU8,
    adaptive: bool,
    /// Batch entry point enabled: every transaction adopts the blended
    /// subscription discipline (see [`Self::with_batching`]), so a batch's
    /// serialized section excludes all concurrent transactional work.
    batched: bool,
    limits_override: Option<PathLimits>,
    budgets: Option<AdaptiveBudgets>,
    read_bound: Option<ReadBound>,
    admission: Option<AdmissionGate>,
    admission_probe: Option<AdmissionProbe>,
    f: Indicator,
    lock: TleLock,
}

impl ExecCtx {
    /// Creates a context with the paper's attempt budgets for `strategy`.
    pub fn new(rt: Arc<HtmRuntime>, strategy: Strategy) -> Self {
        ExecCtx {
            rt,
            strategy: AtomicU8::new(strategy.code()),
            adaptive: false,
            batched: false,
            limits_override: None,
            budgets: None,
            read_bound: None,
            admission: None,
            admission_probe: None,
            f: Indicator::Counter(FallbackCount::new()),
            lock: TleLock::new(),
        }
    }

    /// Replaces the fallback counter `F` with a SNZI (the scalable
    /// alternative the paper mentions in Section 5).
    pub fn with_snzi(mut self) -> Self {
        self.f = Indicator::Snzi(Snzi::new());
        self
    }

    /// Overrides the attempt budgets with a fixed value. Takes precedence
    /// over [`Self::with_adaptive_budgets`].
    pub fn with_limits(mut self, limits: PathLimits) -> Self {
        self.limits_override = Some(limits);
        self
    }

    /// Enables adaptive attempt budgets: the fast/middle budgets re-scale
    /// per epoch from the observed abort mix, anchored at the paper's
    /// per-strategy values (see [`AdaptiveBudgets`]). A fixed
    /// [`Self::with_limits`] override wins over adaptation.
    ///
    /// # Panics
    ///
    /// Panics on degenerate tuning (see [`AdaptiveBudgets::new`]).
    pub fn with_adaptive_budgets(mut self, cfg: BudgetConfig) -> Self {
        self.budgets = Some(AdaptiveBudgets::new(cfg, self.strategy()));
        self
    }

    /// The adaptive budget state, when enabled.
    pub fn budgets(&self) -> Option<&AdaptiveBudgets> {
        self.budgets.as_ref()
    }

    /// Enables the probing read-escalation bound: optimistic reads and
    /// scans get their validation-attempt budget from a contention
    /// manager probing [`ReadBoundConfig::ladder`] instead of the fixed
    /// [`DEFAULT_READ_ATTEMPTS`]. Only contended reads feed it; the calm
    /// read path stays zero-synchronization.
    ///
    /// # Panics
    ///
    /// Panics on degenerate tuning (see [`ReadBoundConfig::validate`]).
    pub fn with_read_probe(mut self, cfg: ReadBoundConfig) -> Self {
        self.read_bound = Some(ReadBound::new(cfg));
        self
    }

    /// The validation-attempt bound optimistic reads and scans should
    /// pass to [`Self::run_read_validated`] / [`Self::run_scan`]: the
    /// probing controller's current choice, or
    /// [`DEFAULT_READ_ATTEMPTS`] when no read probe is configured.
    pub fn read_attempts(&self) -> u32 {
        match &self.read_bound {
            Some(rb) => rb.bound(),
            None => DEFAULT_READ_ATTEMPTS,
        }
    }

    /// The probing read-bound state, when enabled.
    pub(crate) fn read_bound(&self) -> Option<&ReadBound> {
        self.read_bound.as_ref()
    }

    /// Decision epochs the read-bound controller has completed (0 when
    /// no read probe is configured; diagnostics).
    pub fn read_probe_epochs(&self) -> u64 {
        self.read_bound.as_ref().map_or(0, |rb| rb.epochs())
    }

    /// Enables HTM admission control: while the serialized fallback is
    /// busy (the TLE lock held, or `F` active under 3-path), at most
    /// `cap` threads keep making HTM attempts against it; overflow
    /// threads queue on the gate's ready lane and take the serialized
    /// path directly (see [`AdmissionGate`]). Applies to the
    /// [`Strategy::Tle`] and [`Strategy::ThreePath`] protocols (and both
    /// halves of an adaptive context); the other strategies never gate.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn with_admission(mut self, cap: u32) -> Self {
        self.admission = Some(AdmissionGate::new(cap));
        self
    }

    /// The admission gate, when enabled.
    pub fn admission(&self) -> Option<&AdmissionGate> {
        self.admission.as_ref()
    }

    /// Enables HTM admission control with a *probing* cap: instead of a
    /// fixed window width, a contention manager probes
    /// [`AdmissionProbeConfig::ladder`] on live gated traffic and keeps
    /// the cap that completes the most gated encounters per attempt (see
    /// [`crate::AdmissionProbeConfig`]). The gate starts at the ladder's
    /// widest cap. Takes precedence over a fixed
    /// [`Self::with_admission`] cap.
    ///
    /// # Panics
    ///
    /// Panics on degenerate tuning (see
    /// [`AdmissionProbeConfig::validate`]).
    pub fn with_admission_probe(mut self, cfg: AdmissionProbeConfig) -> Self {
        let probe = AdmissionProbe::new(cfg);
        self.admission = Some(AdmissionGate::new(probe.initial_cap()));
        self.admission_probe = Some(probe);
        self
    }

    /// Decision epochs the admission-cap controller has completed (0
    /// when no admission probe is configured; diagnostics).
    pub fn admission_probe_epochs(&self) -> u64 {
        self.admission_probe.as_ref().map_or(0, |p| p.epochs())
    }

    /// Enables the batch entry point ([`Self::run_batch`]): coalesced
    /// operation plans may commit in a single fast-path transaction or
    /// one serialized critical section. Correctness of the serialized
    /// section relies on the blended subscription discipline (see the
    /// type-level docs), so — like [`Self::with_adaptive`] — every
    /// transaction on a batched context subscribes to both the TLE lock
    /// and `F`, and the lock holder drains `F` before touching the tree.
    ///
    /// # Panics
    ///
    /// Panics if the current strategy is outside [`ADAPTIVE_STRATEGIES`]
    /// — the blended discipline (and hence batching) only covers TLE and
    /// 3-path.
    pub fn with_batching(mut self) -> Self {
        assert!(
            ADAPTIVE_STRATEGIES.contains(&self.strategy()),
            "batched contexts require the TLE or 3-path strategy"
        );
        self.batched = true;
        self
    }

    /// Whether this context accepts batched plans.
    pub fn is_batched(&self) -> bool {
        self.batched
    }

    /// Whether the blended subscription discipline is in force: adaptive
    /// contexts need it for runtime strategy swaps, batched contexts for
    /// the batch serialized section (all concurrent transactions must
    /// subscribe to the lock it runs under).
    fn blended(&self) -> bool {
        self.adaptive || self.batched
    }

    /// Feeds one gated encounter to the probing admission cap (no-op
    /// without an admission probe).
    fn note_admission(&self, attempts: u64, overflowed: bool) {
        if let (Some(probe), Some(gate)) = (&self.admission_probe, &self.admission) {
            probe.note(gate, attempts, overflowed);
        }
    }

    /// Enables runtime strategy swapping (see the type-level docs for the
    /// blended safety discipline).
    ///
    /// # Panics
    ///
    /// Panics if the current strategy is outside [`ADAPTIVE_STRATEGIES`].
    pub fn with_adaptive(mut self) -> Self {
        assert!(
            ADAPTIVE_STRATEGIES.contains(&self.strategy()),
            "adaptive contexts must start on TLE or 3-path"
        );
        self.adaptive = true;
        self
    }

    /// Whether this context supports runtime strategy swaps.
    pub fn is_adaptive(&self) -> bool {
        self.adaptive
    }

    /// Swaps the execution strategy at runtime. Only valid on a context
    /// built [`with_adaptive`](Self::with_adaptive), and only between the
    /// strategies in [`ADAPTIVE_STRATEGIES`]; in-flight operations finish
    /// under whichever strategy they read at entry, which the blended
    /// subscription discipline makes safe.
    pub fn set_strategy(&self, strategy: Strategy) -> Result<(), StrategySwapError> {
        if !self.adaptive {
            return Err(StrategySwapError::NotAdaptive);
        }
        if !ADAPTIVE_STRATEGIES.contains(&strategy) {
            return Err(StrategySwapError::Unsupported(strategy));
        }
        self.strategy.store(strategy.code(), Ordering::Release);
        // The old strategy's abort mix says nothing about the new one's
        // budgets: re-anchor at the paper values.
        if let Some(b) = &self.budgets {
            b.reset(strategy);
        }
        Ok(())
    }

    /// The current strategy (the configured one, or the latest runtime
    /// swap on an adaptive context).
    pub fn strategy(&self) -> Strategy {
        Strategy::from_code(self.strategy.load(Ordering::Acquire))
            .expect("strategy atomic holds a valid code")
    }

    /// The attempt budgets in effect: the explicit override if one was
    /// set, else the adaptive budgets' current value, else the paper's
    /// budgets for the current strategy.
    pub fn limits(&self) -> PathLimits {
        self.effective_limits(self.strategy())
    }

    fn effective_limits(&self, strategy: Strategy) -> PathLimits {
        if let Some(l) = self.limits_override {
            return l;
        }
        if let Some(b) = &self.budgets {
            return b.current();
        }
        PathLimits::for_strategy(strategy)
    }

    /// The HTM runtime.
    pub fn runtime(&self) -> &Arc<HtmRuntime> {
        &self.rt
    }

    /// The fallback-path presence indicator (`F` or a SNZI).
    pub fn fallback_indicator(&self) -> &Indicator {
        &self.f
    }

    /// The TLE global lock.
    pub fn tle_lock(&self) -> &TleLock {
        &self.lock
    }

    /// The fast path's subscription check, executed at the start of every
    /// fast-path transaction: TLE subscribes to the global lock; 2-path
    /// non-con and 3-path subscribe to `F`. Adaptive and batched contexts
    /// subscribe to **both**, so the check is correct whichever strategy
    /// is current and no transaction commits over a batch's serialized
    /// section.
    pub fn subscribe(&self, tx: &mut Txn<'_>) -> Result<(), Abort> {
        if self.blended() {
            if tx.read(self.lock.cell())? != 0 {
                return Err(tx.abort(codes::LOCK_HELD));
            }
            let raw = tx.read(self.f.cell())?;
            if self.f.raw_is_active(raw) {
                return Err(tx.abort(codes::F_NONZERO));
            }
            return Ok(());
        }
        match self.strategy() {
            Strategy::Tle => {
                if tx.read(self.lock.cell())? != 0 {
                    return Err(tx.abort(codes::LOCK_HELD));
                }
            }
            Strategy::TwoPathNonCon | Strategy::ThreePath => {
                let raw = tx.read(self.f.cell())?;
                if self.f.raw_is_active(raw) {
                    return Err(tx.abort(codes::F_NONZERO));
                }
            }
            Strategy::NonHtm | Strategy::TwoPathCon => {}
        }
        Ok(())
    }

    /// One fast-path attempt: sequential code in a transaction, preceded by
    /// the strategy's subscription check. Deferred retirements apply on
    /// commit.
    pub fn attempt_seq<T>(
        &self,
        eng: &ScxEngine,
        th: &mut ScxThread,
        body: impl FnOnce(&mut TxMem<'_, '_>) -> Result<T, Abort>,
    ) -> Result<T, Abort> {
        th.pinned(|th| {
            let mut eff = Effects::new();
            let reclaim = &th.reclaim;
            let res = self.rt.attempt(&mut th.htm, |tx| {
                self.subscribe(tx)?;
                let mut mem = TxMem::new(tx, &mut eff, reclaim);
                body(&mut mem)
            });
            if res.is_ok() {
                eff.commit(eng, th);
            } else {
                // Undo: tracked allocations return to the thread's pool
                // (the aborted transaction published nothing).
                eff.abort_cleanup(&th.reclaim);
            }
            res
        })
    }

    /// One instrumented-template attempt (the 2-path-con fast path and the
    /// 3-path middle path): the whole template operation inside one
    /// transaction using the HTM LLX/SCX. No subscription — this path runs
    /// concurrently with the fallback — except on adaptive or batched
    /// contexts, where the transaction subscribes to the TLE lock so it
    /// can never commit over an exclusive sequential section (a TLE-mode
    /// fallback, or a batch's locked lane).
    pub fn attempt_template<T>(
        &self,
        eng: &ScxEngine,
        th: &mut ScxThread,
        body: impl FnOnce(&mut TxMode<'_, '_>) -> Result<T, Abort>,
    ) -> Result<T, Abort> {
        th.pinned(|th| {
            let tseq = th.next_tseq();
            let mut eff = Effects::new();
            let reclaim = &th.reclaim;
            let res = self.rt.attempt(&mut th.htm, |tx| {
                if self.blended() && tx.read(self.lock.cell())? != 0 {
                    return Err(tx.abort(codes::LOCK_HELD));
                }
                let mut mode = TxMode::new(eng, tx, tseq, &mut eff, reclaim);
                body(&mut mode)
            });
            if res.is_ok() {
                eff.commit(eng, th);
            } else {
                // Undo: tracked allocations return to the thread's pool
                // (the aborted transaction published nothing).
                eff.abort_cleanup(&th.reclaim);
            }
            res
        })
    }

    /// Runs one operation to completion under the configured strategy.
    ///
    /// * `fast` — one fast-path attempt (typically built with
    ///   [`Self::attempt_seq`]);
    /// * `middle` — one instrumented attempt (built with
    ///   [`Self::attempt_template`]); also serves as the 2-path-con fast
    ///   path;
    /// * `fallback` — the lock-free template operation (loops internally
    ///   until it succeeds);
    /// * `seq_locked` — the sequential operation with direct memory access,
    ///   used only by TLE under the global lock.
    ///
    /// Returns the result and the path the operation completed on.
    pub fn run_op<T>(
        &self,
        th: &mut ScxThread,
        stats: &mut PathStats,
        fast: impl FnMut(&mut ScxThread) -> Result<T, Abort>,
        middle: impl FnMut(&mut ScxThread) -> Result<T, Abort>,
        fallback: impl FnMut(&mut ScxThread) -> T,
        seq_locked: impl FnMut(&mut ScxThread) -> T,
    ) -> (T, PathKind) {
        // One strategy read per operation: an adaptive swap lands between
        // operations, never in the middle of one. Budgets likewise.
        let strategy = self.strategy();
        let limits = self.effective_limits(strategy);
        let mut tally = OpTally::default();
        let out = self.run_paths(
            th, stats, &mut tally, strategy, limits, fast, middle, fallback, seq_locked,
        );
        // A fixed override wins over the adaptive budgets, so feeding
        // them would be shared-RMW work (and phantom decisions) that
        // nothing ever reads.
        if self.limits_override.is_none() {
            if let Some(b) = &self.budgets {
                b.record(strategy, &tally);
            }
        }
        out
    }

    /// Runs one operation like [`Self::run_op`], but **without** feeding
    /// its attempt tally into the adaptive budgets.
    ///
    /// This is the entry point for read/scan *escalations*: an optimistic
    /// read or scan that exhausted its validation attempts re-enters the
    /// transactional machinery here. It still runs under the budgets'
    /// current (possibly collapsed) attempt limits — a storm-shrunk budget
    /// applies to escalated work too — but its aborts are driven by
    /// validation races, not the HTM abort environment the budgets model,
    /// so feeding them back would inflate the storm window and hold the
    /// budgets shrunk after the updates went calm.
    pub fn run_op_escalated<T>(
        &self,
        th: &mut ScxThread,
        stats: &mut PathStats,
        fast: impl FnMut(&mut ScxThread) -> Result<T, Abort>,
        middle: impl FnMut(&mut ScxThread) -> Result<T, Abort>,
        fallback: impl FnMut(&mut ScxThread) -> T,
        seq_locked: impl FnMut(&mut ScxThread) -> T,
    ) -> (T, PathKind) {
        let strategy = self.strategy();
        let limits = self.effective_limits(strategy);
        let mut tally = OpTally::default();
        self.run_paths(
            th, stats, &mut tally, strategy, limits, fast, middle, fallback, seq_locked,
        )
    }

    /// Runs one coalesced batch of `ops` operations to completion: up to
    /// the fast budget of `fast` attempts — each a **single** transaction
    /// whose body applies the whole plan — then one serialized
    /// `seq_locked` section under the TLE lock. No middle path: a batch
    /// either commits wholesale in HTM or runs exclusively (the
    /// instrumented template brings per-operation help/abort machinery
    /// that defeats the amortization batching exists for).
    ///
    /// Requires a context built [`with_batching`](Self::with_batching) on
    /// TLE or 3-path: the blended subscription discipline is what makes
    /// the serialized section safe against concurrent single-operation
    /// traffic on every path. The admission gate (when configured)
    /// applies exactly as in [`Self::run_op`], except a refused batch
    /// *enqueues* on the serialized lane via the ready queue instead of
    /// spinning on HTM.
    ///
    /// Stats: the batch lands `ops` completions on the finishing path in
    /// one call, plus one batch-lane record — so
    /// [`PathStats::batch_txns`] counts exactly one transaction (or
    /// section) per executed batch, the basis of the steady-state claim
    /// that K calm same-shard updates commit in ≤ ceil(K / batch_cap)
    /// transactions.
    ///
    /// # Panics
    ///
    /// Panics if the context was not built with batching, or the current
    /// strategy is outside [`ADAPTIVE_STRATEGIES`].
    pub fn run_batch<T>(
        &self,
        th: &mut ScxThread,
        stats: &mut PathStats,
        ops: u64,
        mut fast: impl FnMut(&mut ScxThread) -> Result<T, Abort>,
        mut seq_locked: impl FnMut(&mut ScxThread) -> T,
    ) -> (T, PathKind) {
        let strategy = self.strategy();
        assert!(
            self.batched && ADAPTIVE_STRATEGIES.contains(&strategy),
            "run_batch requires a with_batching context on TLE or 3-path"
        );
        let limits = self.effective_limits(strategy);
        let rt = &*self.rt;
        // Admission: when the serialized path is busy and the window is
        // full, the batch enqueues on the ready lane (which has priority
        // on the lock) instead of spinning — the "refused entrants
        // enqueue" integration with the PR 7 gate.
        let mut in_window = false;
        if let Some(gate) = &self.admission {
            let busy = self.lock.is_held(rt)
                || (strategy == Strategy::ThreePath && self.f.is_active(rt));
            if busy {
                if gate.try_enter() {
                    in_window = true;
                } else {
                    stats.record_admission_overflow();
                    self.note_admission(0, true);
                    gate.ready_arrive();
                    let v = self.batch_locked_section(th, stats, ops, &mut seq_locked);
                    gate.ready_depart();
                    return (v, PathKind::Fallback);
                }
            }
        }
        let mut gated_attempts = 0u64;
        let mut attempts = 0;
        while attempts < limits.fast {
            attempts += 1;
            if in_window {
                gated_attempts += 1;
            }
            if strategy == Strategy::Tle {
                // TLE semantics: wait out the lock before each attempt.
                self.wait_while(|| self.lock.is_held(rt));
            }
            match fast(th) {
                Ok(v) => {
                    if in_window {
                        self.gate_exit();
                        self.note_admission(gated_attempts, false);
                    }
                    stats.record_commit(PathKind::Fast);
                    stats.record_completed_n(PathKind::Fast, ops);
                    stats.record_batch(ops, 1);
                    return (v, PathKind::Fast);
                }
                Err(a) => {
                    stats.record_abort(PathKind::Fast, &a);
                    // A capacity abort is deterministic for a fixed plan —
                    // the footprint does not shrink on retry — so the
                    // batch escalates to the serialized lane at once
                    // instead of burning the budget on doomed
                    // re-executions of the whole plan.
                    if a.code() == threepath_htm::AbortCode::Capacity {
                        break;
                    }
                    // A subscription abort under 3-path means serialized
                    // work is active; further attempts are doomed, so the
                    // batch escalates to the lock queue at once. (TLE
                    // waits the lock out above instead.)
                    if strategy == Strategy::ThreePath
                        && matches!(
                            a.user_code(),
                            Some(codes::F_NONZERO) | Some(codes::LOCK_HELD)
                        )
                    {
                        break;
                    }
                }
            }
        }
        if in_window {
            self.gate_exit();
            self.note_admission(gated_attempts, false);
        }
        let v = self.batch_locked_section(th, stats, ops, &mut seq_locked);
        (v, PathKind::Fallback)
    }

    /// The batch's serialized lane: one exclusive section under the TLE
    /// lock (draining `F` first — blended discipline), during which the
    /// caller's closure may also flat-combine further queued batches.
    fn batch_locked_section<T>(
        &self,
        th: &mut ScxThread,
        stats: &mut PathStats,
        ops: u64,
        seq_locked: &mut impl FnMut(&mut ScxThread) -> T,
    ) -> T {
        self.acquire_tle_lock();
        let v = seq_locked(th);
        self.lock.release(&self.rt);
        stats.record_completed_n(PathKind::Fallback, ops);
        stats.record_batch(ops, 1);
        v
    }

    /// The per-strategy path protocol for one operation (see
    /// [`Self::run_op`]), tallying effective attempts for the adaptive
    /// budgets.
    #[allow(clippy::too_many_arguments)]
    fn run_paths<T>(
        &self,
        th: &mut ScxThread,
        stats: &mut PathStats,
        tally: &mut OpTally,
        strategy: Strategy,
        limits: PathLimits,
        mut fast: impl FnMut(&mut ScxThread) -> Result<T, Abort>,
        mut middle: impl FnMut(&mut ScxThread) -> Result<T, Abort>,
        mut fallback: impl FnMut(&mut ScxThread) -> T,
        mut seq_locked: impl FnMut(&mut ScxThread) -> T,
    ) -> (T, PathKind) {
        let rt = &*self.rt;
        match strategy {
            Strategy::NonHtm => {
                let v = fallback(th);
                stats.record_completed(PathKind::Fallback);
                (v, PathKind::Fallback)
            }
            Strategy::Tle => {
                // Admission control: while the lock is held, only `cap`
                // threads may keep waiting-and-attempting against its
                // release; the overflow queues on the ready lane and
                // takes the lock directly, so a storm drains through the
                // serialized path instead of re-colliding on every
                // release.
                let mut in_window = false;
                if let Some(gate) = &self.admission {
                    if self.lock.is_held(rt) {
                        if gate.try_enter() {
                            in_window = true;
                        } else {
                            stats.record_admission_overflow();
                            self.note_admission(0, true);
                            gate.ready_arrive();
                            self.acquire_tle_lock();
                            let v = seq_locked(th);
                            self.lock.release(rt);
                            gate.ready_depart();
                            stats.record_completed(PathKind::Fallback);
                            return (v, PathKind::Fallback);
                        }
                    }
                }
                let mut gated_attempts = 0u64;
                for _ in 0..limits.fast {
                    // Wait for the lock to be free before each attempt
                    // (otherwise the attempt is wasted work).
                    self.wait_while(|| self.lock.is_held(rt));
                    if in_window {
                        gated_attempts += 1;
                    }
                    match fast(th) {
                        Ok(v) => {
                            if in_window {
                                self.gate_exit();
                                self.note_admission(gated_attempts, false);
                            }
                            tally.fast_commit();
                            stats.record_commit(PathKind::Fast);
                            stats.record_completed(PathKind::Fast);
                            return (v, PathKind::Fast);
                        }
                        Err(a) => {
                            tally.fast_abort(a.code());
                            stats.record_abort(PathKind::Fast, &a);
                            // Blended contexts also subscribe to F; while
                            // the lock-free fallback is active, retrying is
                            // wasted work — escalate to the lock (which
                            // waits for F to drain) immediately.
                            if self.blended() && a.user_code() == Some(codes::F_NONZERO) {
                                break;
                            }
                        }
                    }
                }
                if in_window {
                    self.gate_exit();
                    self.note_admission(gated_attempts, false);
                }
                self.acquire_tle_lock();
                let v = seq_locked(th);
                self.lock.release(rt);
                stats.record_completed(PathKind::Fallback);
                (v, PathKind::Fallback)
            }
            Strategy::TwoPathCon => {
                // The 2-path-con fast path *is* the instrumented template
                // transaction; it runs concurrently with the fallback.
                for _ in 0..limits.fast {
                    match middle(th) {
                        Ok(v) => {
                            tally.fast_commit();
                            stats.record_commit(PathKind::Fast);
                            stats.record_completed(PathKind::Fast);
                            return (v, PathKind::Fast);
                        }
                        Err(a) => {
                            tally.fast_abort(a.code());
                            stats.record_abort(PathKind::Fast, &a);
                        }
                    }
                }
                let v = fallback(th);
                stats.record_completed(PathKind::Fallback);
                (v, PathKind::Fallback)
            }
            Strategy::TwoPathNonCon => {
                for _ in 0..limits.fast {
                    // Wait for the fallback path to drain before each
                    // attempt — this is precisely the waiting the 3-path
                    // algorithm eliminates.
                    self.wait_while(|| self.f.is_active(rt));
                    match fast(th) {
                        Ok(v) => {
                            tally.fast_commit();
                            stats.record_commit(PathKind::Fast);
                            stats.record_completed(PathKind::Fast);
                            return (v, PathKind::Fast);
                        }
                        Err(a) => {
                            tally.fast_abort(a.code());
                            stats.record_abort(PathKind::Fast, &a);
                        }
                    }
                }
                self.f.arrive(rt, th.id().0);
                let v = fallback(th);
                self.f.depart(rt, th.id().0);
                stats.record_completed(PathKind::Fallback);
                (v, PathKind::Fallback)
            }
            Strategy::ThreePath => {
                // Admission control: while the lock-free fallback is
                // active, every fast/middle attempt is doomed to abort
                // against `F`; only `cap` threads keep attempting, the
                // overflow joins the fallback directly (queued progress
                // — the lock-free path always completes).
                let mut in_window = false;
                if let Some(gate) = &self.admission {
                    if self.f.is_active(rt) {
                        if gate.try_enter() {
                            in_window = true;
                        } else {
                            stats.record_admission_overflow();
                            self.note_admission(0, true);
                            gate.ready_arrive();
                            self.arrive_on_f(th.id().0);
                            let v = fallback(th);
                            self.f.depart(rt, th.id().0);
                            gate.ready_depart();
                            stats.record_completed(PathKind::Fallback);
                            return (v, PathKind::Fallback);
                        }
                    }
                }
                // Fast path: never waits; moves on early when it observes
                // an operation on the fallback path.
                let mut gated_attempts = 0u64;
                let mut attempts = 0;
                while attempts < limits.fast {
                    attempts += 1;
                    if in_window {
                        gated_attempts += 1;
                    }
                    match fast(th) {
                        Ok(v) => {
                            if in_window {
                                self.gate_exit();
                                self.note_admission(gated_attempts, false);
                            }
                            tally.fast_commit();
                            stats.record_commit(PathKind::Fast);
                            stats.record_completed(PathKind::Fast);
                            return (v, PathKind::Fast);
                        }
                        Err(a) => {
                            tally.fast_abort(a.code());
                            stats.record_abort(PathKind::Fast, &a);
                            if a.user_code() == Some(codes::F_NONZERO) {
                                break;
                            }
                        }
                    }
                }
                // Middle path: concurrent with both other paths.
                for _ in 0..limits.middle {
                    if in_window {
                        gated_attempts += 1;
                    }
                    match middle(th) {
                        Ok(v) => {
                            if in_window {
                                self.gate_exit();
                                self.note_admission(gated_attempts, false);
                            }
                            tally.middle_commit();
                            stats.record_commit(PathKind::Middle);
                            stats.record_completed(PathKind::Middle);
                            return (v, PathKind::Middle);
                        }
                        Err(a) => {
                            tally.middle_abort(a.code());
                            stats.record_abort(PathKind::Middle, &a);
                        }
                    }
                }
                if in_window {
                    // Leave the HTM window before parking on F: a thread
                    // on the fallback no longer attempts HTM.
                    self.gate_exit();
                    self.note_admission(gated_attempts, false);
                }
                self.arrive_on_f(th.id().0);
                let v = fallback(th);
                self.f.depart(rt, th.id().0);
                stats.record_completed(PathKind::Fallback);
                (v, PathKind::Fallback)
            }
        }
    }

    /// Acquires the TLE lock for exclusive sequential access, honoring
    /// the adaptive blended discipline (drain `F` before touching the
    /// tree — see [`Strategy::Tle`] in [`Self::run_paths`]).
    fn acquire_tle_lock(&self) {
        let rt = &*self.rt;
        self.lock.acquire(rt);
        if self.blended() {
            // Blended discipline: lock-free fallback operations
            // admitted under a 3-path read must drain before the
            // exclusive sequential section may touch the tree.
            // They never wait once arrived, so F drains; arrivals
            // racing the acquisition observe the lock and back off.
            // The SeqCst fence pairs with the one after F-arrival:
            // of the two store→fence→load sequences, at least one
            // side must observe the other's store.
            std::sync::atomic::fence(Ordering::SeqCst);
            self.wait_while(|| self.f.is_active(rt));
        }
    }

    /// Arrives on the fallback indicator `F`, honoring the adaptive
    /// blended discipline (arrive only while the TLE lock is free).
    fn arrive_on_f(&self, tid: u16) {
        let rt = &*self.rt;
        if self.blended() {
            // Blended discipline: arrive on F only while the TLE
            // lock is free. The re-check after arrival closes the
            // race with a concurrent acquisition — exactly one of
            // the two (this arrival, the lock holder's F check)
            // observes the other, because the arrival is a direct
            // RMW ordered before the lock load.
            loop {
                self.wait_while(|| self.lock.is_held(rt));
                self.f.arrive(rt, tid);
                std::sync::atomic::fence(Ordering::SeqCst);
                if !self.lock.is_held(rt) {
                    break;
                }
                self.f.depart(rt, tid);
            }
        } else {
            self.f.arrive(rt, tid);
        }
    }

    /// Leaves the admission window (the gate is necessarily configured
    /// when this is called).
    fn gate_exit(&self) {
        if let Some(gate) = &self.admission {
            gate.exit();
        }
    }

    /// Whether serialized work is in progress right now: an operation on
    /// the fallback path (`F` active) or a holder of the TLE lock — read in
    /// that order, two plain loads. A fast-path transaction of a blended
    /// (adaptive or batched) context started at this instant would abort
    /// on its subscription, so a front-end uses this to decide between
    /// attempting one and queueing behind the holder. Momentary by nature.
    pub fn serialized_active(&self) -> bool {
        let rt = &*self.rt;
        self.f.is_active(rt) || self.lock.is_held(rt)
    }

    fn wait_while(&self, cond: impl Fn() -> bool) {
        if !cond() {
            return;
        }
        // Capped exponential backoff with jitter: lockstep re-probing by
        // every waiter turns one blocked operation into a probe storm on
        // the lock/F cache line; jittered windows spread the probes out.
        // The seed mixes a stack-local address so concurrent waiters on
        // the same context draw *different* jitter sequences.
        let local = 0u8;
        let mut backoff = Backoff::new(self as *const _ as u64 ^ (&local as *const u8 as u64));
        while cond() {
            backoff.wait();
        }
    }
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("strategy", &self.strategy())
            .field("limits", &self.limits())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use threepath_htm::{AbortCode, HtmConfig};
    use threepath_reclaim::{Domain, ReclaimMode};

    fn setup(strategy: Strategy) -> (ExecCtx, ScxEngine) {
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        let eng = ScxEngine::new(rt.clone(), domain);
        (ExecCtx::new(rt, strategy), eng)
    }

    #[test]
    fn non_htm_goes_straight_to_fallback() {
        let (exec, eng) = setup(Strategy::NonHtm);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let fast_calls = Cell::new(0);
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| {
                fast_calls.set(fast_calls.get() + 1);
                Err(Abort::new(AbortCode::Conflict))
            },
            |_| Err(Abort::new(AbortCode::Conflict)),
            |_| 42,
            |_| 0,
        );
        assert_eq!((v, path), (42, PathKind::Fallback));
        assert_eq!(fast_calls.get(), 0);
        assert_eq!(stats.completed(PathKind::Fallback), 1);
    }

    #[test]
    fn three_path_escalates_through_budgets() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let fast_calls = Cell::new(0u32);
        let middle_calls = Cell::new(0u32);
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| {
                fast_calls.set(fast_calls.get() + 1);
                Err(Abort::new(AbortCode::Conflict))
            },
            |_| {
                middle_calls.set(middle_calls.get() + 1);
                Err(Abort::new(AbortCode::Capacity))
            },
            |_| 7,
            |_| 0,
        );
        assert_eq!((v, path), (7, PathKind::Fallback));
        assert_eq!(fast_calls.get(), exec.limits().fast);
        assert_eq!(middle_calls.get(), exec.limits().middle);
        assert_eq!(stats.aborts(PathKind::Fast).conflict, exec.limits().fast as u64);
        assert_eq!(
            stats.aborts(PathKind::Middle).capacity,
            exec.limits().middle as u64
        );
    }

    #[test]
    fn three_path_moves_to_middle_immediately_on_f_nonzero() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let fast_calls = Cell::new(0u32);
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| {
                fast_calls.set(fast_calls.get() + 1);
                Err(Abort::explicit(codes::F_NONZERO))
            },
            |_| Ok(9),
            |_| 0,
            |_| 0,
        );
        assert_eq!((v, path), (9, PathKind::Middle));
        assert_eq!(fast_calls.get(), 1, "no more fast attempts after F != 0");
    }

    #[test]
    fn three_path_fallback_increments_f() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let rt = exec.runtime().clone();
        let observed_f = Cell::new(0u64);
        exec.run_op(
            &mut th,
            &mut stats,
            |_| Err(Abort::new(AbortCode::Conflict)),
            |_| Err(Abort::new(AbortCode::Conflict)),
            |_| {
                observed_f.set(u64::from(exec.fallback_indicator().is_active(&rt)));
                1
            },
            |_| 0,
        );
        assert_eq!(observed_f.get(), 1, "F active while on the fallback");
        assert!(!exec.fallback_indicator().is_active(&rt), "F released after");
    }

    #[test]
    fn two_path_con_uses_middle_closure_as_fast_path() {
        let (exec, eng) = setup(Strategy::TwoPathCon);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| panic!("2-path-con has no sequential fast path"),
            |_| Ok(5),
            |_| 0,
            |_| 0,
        );
        assert_eq!((v, path), (5, PathKind::Fast));
    }

    #[test]
    fn tle_falls_back_under_lock() {
        let (exec, eng) = setup(Strategy::Tle);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let rt = exec.runtime().clone();
        let lock_held_inside = Cell::new(false);
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| Err(Abort::new(AbortCode::Conflict)),
            |_| unreachable!(),
            |_| unreachable!(),
            |_| {
                lock_held_inside.set(exec.tle_lock().is_held(&rt));
                11
            },
        );
        assert_eq!((v, path), (11, PathKind::Fallback));
        assert!(lock_held_inside.get(), "sequential fallback runs under lock");
        assert!(!exec.tle_lock().is_held(&rt));
    }

    #[test]
    fn fixed_contexts_reject_runtime_swaps() {
        let (exec, _eng) = setup(Strategy::ThreePath);
        assert!(!exec.is_adaptive());
        assert_eq!(
            exec.set_strategy(Strategy::Tle),
            Err(StrategySwapError::NotAdaptive)
        );
        assert_eq!(exec.strategy(), Strategy::ThreePath);
    }

    #[test]
    fn adaptive_swap_changes_strategy_and_limits() {
        let (exec, _eng) = setup(Strategy::Tle);
        let exec = exec.with_adaptive();
        assert!(exec.is_adaptive());
        assert_eq!(exec.limits(), PathLimits::for_strategy(Strategy::Tle));
        exec.set_strategy(Strategy::ThreePath).unwrap();
        assert_eq!(exec.strategy(), Strategy::ThreePath);
        assert_eq!(exec.limits(), PathLimits::for_strategy(Strategy::ThreePath));
        // Only the TLE <-> 3-path pair is covered by the blended
        // subscription discipline.
        assert_eq!(
            exec.set_strategy(Strategy::NonHtm),
            Err(StrategySwapError::Unsupported(Strategy::NonHtm))
        );
        exec.set_strategy(Strategy::Tle).unwrap();
        assert_eq!(exec.strategy(), Strategy::Tle);
    }

    #[test]
    fn adaptive_subscription_covers_lock_and_f() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let exec = exec.with_adaptive();
        let mut th = eng.register_thread();
        let rt = exec.runtime().clone();
        // F active: fast attempts abort even in TLE mode.
        exec.set_strategy(Strategy::Tle).unwrap();
        exec.fallback_indicator().arrive(&rt, 0);
        let r: Result<(), _> = exec.attempt_seq(&eng, &mut th, |_| Ok(()));
        assert_eq!(r.unwrap_err().user_code(), Some(codes::F_NONZERO));
        exec.fallback_indicator().depart(&rt, 0);
        // Lock held: fast attempts abort even in 3-path mode, and so do
        // middle-path template transactions.
        exec.set_strategy(Strategy::ThreePath).unwrap();
        exec.tle_lock().acquire(&rt);
        let r: Result<(), _> = exec.attempt_seq(&eng, &mut th, |_| Ok(()));
        assert_eq!(r.unwrap_err().user_code(), Some(codes::LOCK_HELD));
        let r: Result<(), _> = exec.attempt_template(&eng, &mut th, |_| Ok(()));
        assert_eq!(r.unwrap_err().user_code(), Some(codes::LOCK_HELD));
        exec.tle_lock().release(&rt);
        let r: Result<(), _> = exec.attempt_seq(&eng, &mut th, |_| Ok(()));
        assert!(r.is_ok());
    }

    #[test]
    fn adaptive_tle_fallback_drains_f_before_running() {
        // A TLE-mode operation on an adaptive context must not run its
        // exclusive sequential section while a lock-free fallback
        // operation is still active: the lock holder waits for F.
        let (exec, eng) = setup(Strategy::Tle);
        let exec = Arc::new(exec.with_adaptive());
        let rt = exec.runtime().clone();
        exec.fallback_indicator().arrive(&rt, 1);
        let f_seen_inside = Cell::new(true);
        std::thread::scope(|s| {
            let exec2 = Arc::clone(&exec);
            let rt2 = rt.clone();
            s.spawn(move || {
                // Simulated lock-free fallback op: departs after a delay.
                std::thread::sleep(std::time::Duration::from_millis(20));
                exec2.fallback_indicator().depart(&rt2, 1);
            });
            let mut th = eng.register_thread();
            let mut stats = PathStats::new();
            let (v, path) = exec.run_op(
                &mut th,
                &mut stats,
                |_| Err(Abort::explicit(codes::F_NONZERO)),
                |_| unreachable!("TLE has no middle path"),
                |_| unreachable!("TLE mode falls back under the lock"),
                |_| {
                    f_seen_inside.set(exec.fallback_indicator().is_active(&rt));
                    13
                },
            );
            assert_eq!((v, path), (13, PathKind::Fallback));
        });
        assert!(!f_seen_inside.get(), "seq section ran while F was active");
        assert!(!exec.tle_lock().is_held(&rt));
    }

    #[test]
    fn adaptive_threepath_fallback_backs_off_while_lock_held() {
        // A 3-path-mode fallback on an adaptive context must not run
        // concurrently with a TLE lock holder: it arrives on F only once
        // the lock is free.
        let (exec, eng) = setup(Strategy::ThreePath);
        let exec = Arc::new(exec.with_adaptive());
        let rt = exec.runtime().clone();
        exec.tle_lock().acquire(&rt);
        let lock_seen_inside = Cell::new(true);
        std::thread::scope(|s| {
            let exec2 = Arc::clone(&exec);
            let rt2 = rt.clone();
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                exec2.tle_lock().release(&rt2);
            });
            let mut th = eng.register_thread();
            let mut stats = PathStats::new();
            let (v, path) = exec.run_op(
                &mut th,
                &mut stats,
                |_| Err(Abort::explicit(codes::LOCK_HELD)),
                |_| Err(Abort::new(AbortCode::Conflict)),
                |_| {
                    lock_seen_inside.set(exec.tle_lock().is_held(&rt));
                    29
                },
                |_| unreachable!("3-path mode never takes the lock"),
            );
            assert_eq!((v, path), (29, PathKind::Fallback));
        });
        assert!(
            !lock_seen_inside.get(),
            "lock-free fallback overlapped the TLE lock holder"
        );
        assert!(!exec.fallback_indicator().is_active(&rt));
    }

    /// Deterministic probing tuning for budget tests: score windows by
    /// completed ops per (weighted) attempt, not wall-clock.
    fn probing_budget_cfg(epoch_ops: u64) -> BudgetConfig {
        BudgetConfig {
            epoch_ops,
            wall_clock: false,
            ..BudgetConfig::default()
        }
    }

    #[test]
    fn adaptive_budgets_probe_to_the_floor_under_storm_and_recover() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let exec = exec.with_adaptive_budgets(probing_budget_cfg(64));
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let anchor = PathLimits::for_strategy(Strategy::ThreePath);
        assert_eq!(exec.limits(), anchor);
        // Conflict storm: every transactional attempt aborts, every op
        // drains the full budget and completes on the fallback. Every
        // arm ends on the fallback, so the arm wasting the fewest
        // attempts first — the floor — measures fastest.
        for _ in 0..64 * 20 {
            exec.run_op(
                &mut th,
                &mut stats,
                |_| Err(Abort::new(AbortCode::Conflict)),
                |_| Err(Abort::new(AbortCode::Conflict)),
                |_| 1,
                |_| 0,
            );
        }
        let b = exec.budgets().expect("budgets enabled");
        assert_eq!(
            b.settled_limits(Strategy::ThreePath),
            PathLimits { fast: 1, middle: 1 },
            "storm probing settles both budgets on the floor"
        );
        assert!(b.epochs() > 0);
        // The storm relents halfway: operations now commit on their 5th
        // fast attempt. Collapsed budgets (< 5 attempts) keep eating the
        // fallback penalty; deeper arms commit transactionally — probing
        // must grow the budget back.
        for _ in 0..64 * 30 {
            let calls = Cell::new(0u32);
            exec.run_op(
                &mut th,
                &mut stats,
                |_| {
                    calls.set(calls.get() + 1);
                    if calls.get() >= 5 {
                        Ok(1)
                    } else {
                        Err(Abort::new(AbortCode::Conflict))
                    }
                },
                |_| Err(Abort::new(AbortCode::Conflict)),
                |_| 1,
                |_| 0,
            );
        }
        assert!(
            b.settled_limits(Strategy::ThreePath).fast >= 5,
            "probing must re-open the budget once deeper arms pay off (got {:?})",
            b.settled_limits(Strategy::ThreePath)
        );
    }

    #[test]
    fn explicit_aborts_do_not_shrink_budgets() {
        // F != 0 aborts are the escalation protocol working: an op that
        // breaks to the middle path must not look like a storm.
        let (exec, eng) = setup(Strategy::ThreePath);
        let exec = exec.with_adaptive_budgets(probing_budget_cfg(32));
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        for _ in 0..32 * 4 {
            exec.run_op(
                &mut th,
                &mut stats,
                |_| Err(Abort::explicit(codes::F_NONZERO)),
                |_| Ok(3),
                |_| 0,
                |_| 0,
            );
        }
        let b = exec.budgets().expect("budgets enabled");
        assert_eq!(
            b.settled_limits(Strategy::ThreePath),
            PathLimits::for_strategy(Strategy::ThreePath),
            "explicit-only windows keep the anchor"
        );
    }

    #[test]
    fn strategy_swap_reanchors_budgets() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let exec = exec
            .with_adaptive()
            .with_adaptive_budgets(probing_budget_cfg(64));
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        for _ in 0..64 * 20 {
            exec.run_op(
                &mut th,
                &mut stats,
                |_| Err(Abort::new(AbortCode::Conflict)),
                |_| Err(Abort::new(AbortCode::Conflict)),
                |_| 1,
                |_| 0,
            );
        }
        let b = exec.budgets().expect("budgets enabled");
        assert!(
            b.settled_limits(Strategy::ThreePath).fast < 10,
            "settled below the anchor before the swap"
        );
        exec.set_strategy(Strategy::Tle).unwrap();
        assert_eq!(
            exec.limits(),
            PathLimits::for_strategy(Strategy::Tle),
            "swap re-anchors at the new strategy's paper budgets"
        );
    }

    #[test]
    fn escalated_ops_run_under_collapsed_limits_without_feeding_budgets() {
        // A validation-storm escalation re-enters the transactional
        // machinery with the budgets' *current* attempt limits — but its
        // aborts must not count toward the budget windows, or storm-time
        // escalated reads would hold the budgets shrunk forever.
        let (exec, eng) = setup(Strategy::ThreePath);
        let exec = exec.with_adaptive_budgets(probing_budget_cfg(64));
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        // Collapse the budgets with a conflict storm through run_op.
        for _ in 0..64 * 20 {
            exec.run_op(
                &mut th,
                &mut stats,
                |_| Err(Abort::new(AbortCode::Conflict)),
                |_| Err(Abort::new(AbortCode::Conflict)),
                |_| 1,
                |_| 0,
            );
        }
        let b = exec.budgets().expect("budgets enabled");
        assert_eq!(
            b.settled_limits(Strategy::ThreePath),
            PathLimits { fast: 1, middle: 1 }
        );
        // Whatever arm the prober is currently holding is what escalated
        // ops must observe; they never feed the windows, so it is stable
        // across the escalated phase below.
        let collapsed = exec.limits();
        let epochs_before = b.epochs();
        // Escalated ops observe the collapsed limits...
        let fast_calls = Cell::new(0u32);
        let (v, path) = exec.run_op_escalated(
            &mut th,
            &mut stats,
            |_| {
                fast_calls.set(fast_calls.get() + 1);
                Err(Abort::new(AbortCode::Conflict))
            },
            |_| Err(Abort::new(AbortCode::Conflict)),
            |_| 5,
            |_| 0,
        );
        assert_eq!((v, path), (5, PathKind::Fallback));
        assert_eq!(fast_calls.get(), collapsed.fast, "collapsed budget applies");
        // ...but many epochs' worth of escalated aborts move nothing.
        for _ in 0..64 * 4 {
            exec.run_op_escalated(
                &mut th,
                &mut stats,
                |_| Err(Abort::new(AbortCode::Conflict)),
                |_| Err(Abort::new(AbortCode::Conflict)),
                |_| 1,
                |_| 0,
            );
        }
        assert_eq!(exec.limits(), collapsed, "escalations never move budgets");
        assert_eq!(b.epochs(), epochs_before, "no escalated op turns a window");
    }

    #[test]
    fn fixed_limit_override_wins_over_adaptive_budgets() {
        let (exec, _eng) = setup(Strategy::ThreePath);
        let exec = exec
            .with_limits(PathLimits { fast: 3, middle: 4 })
            .with_adaptive_budgets(BudgetConfig::default());
        assert_eq!(exec.limits(), PathLimits { fast: 3, middle: 4 });
    }

    #[test]
    fn subscription_aborts_fast_path_when_f_nonzero() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let mut th = eng.register_thread();
        let rt = exec.runtime().clone();
        exec.fallback_indicator().arrive(&rt, 0);
        let r: Result<(), _> = exec.attempt_seq(&eng, &mut th, |_| Ok(()));
        assert_eq!(r.unwrap_err().user_code(), Some(codes::F_NONZERO));
        exec.fallback_indicator().depart(&rt, 0);
        let r: Result<(), _> = exec.attempt_seq(&eng, &mut th, |_| Ok(()));
        assert!(r.is_ok());
    }

    #[test]
    fn batch_commits_in_one_fast_transaction() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let exec = exec.with_batching();
        assert!(exec.is_batched());
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let (v, path) = exec.run_batch(&mut th, &mut stats, 8, |_| Ok(99), |_| 0);
        assert_eq!((v, path), (99, PathKind::Fast));
        assert_eq!(stats.completed(PathKind::Fast), 8, "whole batch landed");
        assert_eq!(stats.batches(), 1);
        assert_eq!(stats.batch_ops(), 8);
        assert_eq!(stats.batch_txns(), 1, "one transaction for the batch");
        assert_eq!(stats.commits(PathKind::Fast), 1);
    }

    #[test]
    fn batch_escalates_to_one_locked_section() {
        let (exec, eng) = setup(Strategy::Tle);
        let exec = exec.with_batching();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let rt = exec.runtime().clone();
        let lock_held_inside = Cell::new(false);
        let (v, path) = exec.run_batch(
            &mut th,
            &mut stats,
            4,
            |_| Err(Abort::new(AbortCode::Conflict)),
            |_| {
                lock_held_inside.set(exec.tle_lock().is_held(&rt));
                7
            },
        );
        assert_eq!((v, path), (7, PathKind::Fallback));
        assert!(lock_held_inside.get(), "serialized lane runs under the lock");
        assert!(!exec.tle_lock().is_held(&rt));
        assert_eq!(stats.completed(PathKind::Fallback), 4);
        assert_eq!(stats.batch_txns(), 1, "one serialized section");
    }

    #[test]
    fn batched_threepath_abandons_fast_when_serialized_work_is_active() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let exec = exec.with_batching();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let fast_calls = Cell::new(0u32);
        let (_, path) = exec.run_batch(
            &mut th,
            &mut stats,
            2,
            |_| {
                fast_calls.set(fast_calls.get() + 1);
                Err(Abort::explicit(codes::LOCK_HELD))
            },
            |_| 0,
        );
        assert_eq!(path, PathKind::Fallback);
        assert_eq!(fast_calls.get(), 1, "no doomed re-attempts after LOCK_HELD");
    }

    #[test]
    fn batched_context_forces_blended_subscription() {
        // Non-adaptive 3-path normally subscribes only to F; batching
        // must add the lock subscription so a batch's serialized section
        // excludes every concurrent transaction.
        let (exec, eng) = setup(Strategy::ThreePath);
        let exec = exec.with_batching();
        let mut th = eng.register_thread();
        let rt = exec.runtime().clone();
        exec.tle_lock().acquire(&rt);
        let r: Result<(), _> = exec.attempt_seq(&eng, &mut th, |_| Ok(()));
        assert_eq!(r.unwrap_err().user_code(), Some(codes::LOCK_HELD));
        let r: Result<(), _> = exec.attempt_template(&eng, &mut th, |_| Ok(()));
        assert_eq!(r.unwrap_err().user_code(), Some(codes::LOCK_HELD));
        exec.tle_lock().release(&rt);
        let r: Result<(), _> = exec.attempt_seq(&eng, &mut th, |_| Ok(()));
        assert!(r.is_ok());
    }

    #[test]
    #[should_panic(expected = "with_batching")]
    fn run_batch_requires_batched_context() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let _ = exec.run_batch(&mut th, &mut stats, 1, |_| Ok(0), |_| 0);
    }

    #[test]
    #[should_panic(expected = "TLE or 3-path")]
    fn batching_rejects_uncovered_strategies() {
        let (exec, _eng) = setup(Strategy::TwoPathCon);
        let _ = exec.with_batching();
    }

    #[test]
    fn admission_probe_retunes_the_gate_cap() {
        use crate::admission::AdmissionProbeConfig;
        let (exec, eng) = setup(Strategy::ThreePath);
        let exec = exec.with_admission_probe(AdmissionProbeConfig {
            epoch_ops: 8,
            ladder: vec![1, 4],
            ..AdmissionProbeConfig::default()
        });
        let gate = exec.admission().expect("probe installs a gate");
        assert_eq!(gate.cap(), 4, "gate starts at the widest ladder cap");
        let rt = exec.runtime().clone();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        // Keep F active so every op is gated; the fast path aborts on
        // its subscription and the op drains to the fallback.
        exec.fallback_indicator().arrive(&rt, 0);
        for _ in 0..8 * 24 {
            exec.run_op(
                &mut th,
                &mut stats,
                |_| Err(Abort::explicit(codes::F_NONZERO)),
                |_| Err(Abort::new(AbortCode::Conflict)),
                |_| 1,
                |_| 0,
            );
        }
        exec.fallback_indicator().depart(&rt, 0);
        assert!(
            exec.admission_probe_epochs() >= 2,
            "gated traffic must turn decision windows (got {})",
            exec.admission_probe_epochs()
        );
        let cap = exec.admission().unwrap().cap();
        assert!(cap == 1 || cap == 4, "cap {cap} left the ladder");
    }
}
