//! The execution driver: runs one operation according to the configured
//! strategy, handling attempt budgets, waiting policies, path transitions
//! and statistics (paper Section 5).

use std::cell::{Cell, RefCell};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use threepath_htm::{codes, Abort, Backoff, HtmRuntime, Txn};
use threepath_llxscx::{ScxEngine, ScxThread};
use threepath_reclaim::ReclaimCtx;

use crate::access::{DirectMem, TxMem};
use crate::batch::BatchOp;
use crate::config::TemplateConfig;
use crate::effects::Effects;
use crate::op::{direct, finish_tx, run_direct, ReadOp, SeqOp, TemplateOp};
use crate::stats::{PathKind, PathStats};
use crate::strategy::{PathLimits, Strategy};
use crate::snzi::Snzi;
use crate::sync::{AdmissionGate, FallbackCount, Indicator, TleLock};
use crate::template::{OpOutcome, OrigMode, TxMode};

/// The strategies a batched context may run (see
/// [`TemplateConfig::batched`]): the blended subscription discipline only
/// covers TLE and 3-path.
pub const BATCH_STRATEGIES: [Strategy; 2] = [Strategy::Tle, Strategy::ThreePath];

thread_local! {
    /// The calling thread's [`Effects`] buffer between attempts. Each
    /// attempt takes it and puts it back empty, so once its vectors have
    /// grown to the thread's largest attempt, attempts stop allocating.
    static EFFECTS: Cell<Effects> = const { Cell::new(Effects::new()) };
}

/// Runs one transactional attempt on the thread's [`Effects`] buffer,
/// then settles the buffer: deferred retirements apply on commit; on an
/// abort, tracked allocations return to the thread's pool (the aborted
/// transaction published nothing).
fn with_effects<T>(
    reclaim: &ReclaimCtx,
    attempt: impl FnOnce(&mut Effects) -> Result<T, Abort>,
) -> Result<T, Abort> {
    // `try_with`: a thread whose slot is already gone (an attempt run
    // from another thread-local's destructor) falls back to a fresh one.
    let mut eff = EFFECTS.try_with(Cell::take).unwrap_or_default();
    let res = attempt(&mut eff);
    if res.is_ok() {
        eff.commit(reclaim);
    } else {
        eff.abort_cleanup(reclaim);
    }
    let _ = EFFECTS.try_with(|slot| slot.set(eff));
    res
}

/// Per-structure execution context: the strategy, attempt budgets, the
/// fallback counter `F` and the TLE lock.
///
/// # Batched contexts
///
/// A context built with [`TemplateConfig::batched`] runs a batch's
/// serialized section under the TLE lock while single operations are in
/// flight on other threads — on every path of the context's strategy.
/// Safety does not rely on quiescing: a *blended* discipline keeps the
/// exclusive section apart from every concurrent transaction and from the
/// lock-free fallback:
///
/// * every HTM transaction — fast path **and** middle path — subscribes
///   to both the TLE lock and the fallback indicator `F`, so no
///   transaction can commit while the lock is held or the lock-free
///   fallback is active;
/// * the lock holder, after acquiring the lock, waits for `F` to drain
///   before running sequential code (lock-free template operations never
///   overlap exclusive sequential access);
/// * the lock-free fallback arrives on `F` only while the lock is free,
///   re-checking after arrival and backing off (departing) if the lock
///   was concurrently acquired. The lock holder waits only for `F`, and
///   `F` holders never wait once arrived, so the two waits cannot cycle.
///
/// The cost is one extra transactional read per fast/middle attempt and a
/// lock check on fallback entry — paid only by batched contexts;
/// unbatched contexts run exactly the paper's per-strategy protocol.
pub struct ExecCtx {
    rt: Arc<HtmRuntime>,
    strategy: Strategy,
    /// Batch entry point enabled: every transaction adopts the blended
    /// subscription discipline (see the type-level docs), so a batch's
    /// serialized section excludes all concurrent transactional work.
    batched: bool,
    limits_override: Option<PathLimits>,
    admission: Option<AdmissionGate>,
    /// Section 8: updates search outside their transactions (see
    /// [`Self::search_outside_txn`]).
    search_outside_txn: bool,
    f: Indicator,
    lock: TleLock,
}

impl ExecCtx {
    /// Creates a context from the fields of `cfg` the driver reads. The
    /// admission gate applies to the [`Strategy::Tle`] and
    /// [`Strategy::ThreePath`] protocols and to a batched context's
    /// [`Self::run_batch`]; the other strategies never gate.
    ///
    /// # Panics
    ///
    /// Panics if [`TemplateConfig::validate`] rejects `cfg`.
    pub fn new(rt: Arc<HtmRuntime>, cfg: &TemplateConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("{e}");
        }
        ExecCtx {
            rt,
            strategy: cfg.strategy,
            batched: cfg.batched,
            limits_override: cfg.limits,
            admission: cfg.admission.map(AdmissionGate::new),
            search_outside_txn: cfg.search_outside_txn,
            f: if cfg.snzi {
                Indicator::Snzi(Snzi::new())
            } else {
                Indicator::Counter(FallbackCount::new())
            },
            lock: TleLock::new(),
        }
    }

    /// The admission gate, when enabled.
    pub fn admission(&self) -> Option<&AdmissionGate> {
        self.admission.as_ref()
    }

    /// Whether updates search outside their transactions (Section 8):
    /// [`Self::run_update`] then runs each update's search *outside* its
    /// fast-path and middle-path transactions, with direct loads under
    /// the epoch pin, and the sequential body validates the found links
    /// inside the transaction. Sequential bodies also mark the nodes they
    /// remove, so such a validation can tell them apart.
    pub fn search_outside_txn(&self) -> bool {
        self.search_outside_txn
    }

    /// Whether this context accepts batched plans.
    pub fn is_batched(&self) -> bool {
        self.batched
    }

    /// Whether the blended subscription discipline is in force: batched
    /// contexts need it for the batch serialized section (all concurrent
    /// transactions must subscribe to the lock it runs under).
    fn blended(&self) -> bool {
        self.batched
    }

    /// The execution strategy, fixed at construction.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The attempt budgets in effect: the explicit override if one was
    /// set, else the paper's budgets for the strategy.
    pub fn limits(&self) -> PathLimits {
        self.limits_override
            .unwrap_or_else(|| PathLimits::for_strategy(self.strategy))
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
    /// non-con and 3-path subscribe to `F`. Batched contexts subscribe to
    /// **both**, so no transaction commits over a batch's serialized
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
        match self.strategy {
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
    pub(crate) fn attempt_seq<T>(
        &self,
        th: &mut ScxThread,
        body: impl FnOnce(&mut TxMem<'_, '_>) -> Result<T, Abort>,
    ) -> Result<T, Abort> {
        th.pinned(|th| {
            let (htm, reclaim) = (&mut th.htm, &th.reclaim);
            with_effects(reclaim, |eff| {
                self.rt.attempt(htm, |tx| {
                    self.subscribe(tx)?;
                    let mut mem = TxMem::new(tx, eff, reclaim);
                    body(&mut mem)
                })
            })
        })
    }

    /// One instrumented-template attempt (the 2-path-con fast path and the
    /// 3-path middle path): the whole template operation inside one
    /// transaction using the HTM LLX/SCX. No subscription — this path runs
    /// concurrently with the fallback — except on batched contexts, where
    /// the transaction subscribes to the TLE lock so it can never commit
    /// over a batch's exclusive sequential section.
    pub(crate) fn attempt_template<T>(
        &self,
        eng: &ScxEngine,
        th: &mut ScxThread,
        body: impl FnOnce(&mut TxMode<'_, '_>) -> Result<T, Abort>,
    ) -> Result<T, Abort> {
        th.pinned(|th| {
            let tseq = th.next_tseq();
            let (htm, reclaim) = (&mut th.htm, &th.reclaim);
            with_effects(reclaim, |eff| {
                self.rt.attempt(htm, |tx| {
                    if self.blended() && tx.read(self.lock.cell())? != 0 {
                        return Err(tx.abort(codes::LOCK_HELD));
                    }
                    let mut mode = TxMode::new(eng, tx, tseq, eff, reclaim);
                    body(&mut mode)
                })
            })
        })
    }

    /// Runs one operation to completion under the configured strategy;
    /// [`Self::run_update`] and [`Self::run_query`] build its closures.
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
    pub(crate) fn run_op<T>(
        &self,
        th: &mut ScxThread,
        stats: &mut PathStats,
        mut fast: impl FnMut(&mut ScxThread) -> Result<T, Abort>,
        mut middle: impl FnMut(&mut ScxThread) -> Result<T, Abort>,
        mut fallback: impl FnMut(&mut ScxThread) -> T,
        mut seq_locked: impl FnMut(&mut ScxThread) -> T,
    ) -> (T, PathKind) {
        let rt = &*self.rt;
        let limits = self.limits();
        match self.strategy {
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
                for _ in 0..limits.fast {
                    // Wait for the lock to be free before each attempt
                    // (otherwise the attempt is wasted work).
                    self.wait_while(|| self.lock.is_held(rt));
                    match fast(th) {
                        Ok(v) => {
                            if in_window {
                                self.gate_exit();
                            }
                            stats.record_commit(PathKind::Fast);
                            stats.record_completed(PathKind::Fast);
                            return (v, PathKind::Fast);
                        }
                        Err(a) => {
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
                            stats.record_commit(PathKind::Fast);
                            stats.record_completed(PathKind::Fast);
                            return (v, PathKind::Fast);
                        }
                        Err(a) => stats.record_abort(PathKind::Fast, &a),
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
                            stats.record_commit(PathKind::Fast);
                            stats.record_completed(PathKind::Fast);
                            return (v, PathKind::Fast);
                        }
                        Err(a) => stats.record_abort(PathKind::Fast, &a),
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
                for _ in 0..limits.fast {
                    match fast(th) {
                        Ok(v) => {
                            if in_window {
                                self.gate_exit();
                            }
                            stats.record_commit(PathKind::Fast);
                            stats.record_completed(PathKind::Fast);
                            return (v, PathKind::Fast);
                        }
                        Err(a) => {
                            stats.record_abort(PathKind::Fast, &a);
                            if a.user_code() == Some(codes::F_NONZERO) {
                                break;
                            }
                        }
                    }
                }
                // Middle path: concurrent with both other paths.
                for _ in 0..limits.middle {
                    match middle(th) {
                        Ok(v) => {
                            if in_window {
                                self.gate_exit();
                            }
                            stats.record_commit(PathKind::Middle);
                            stats.record_completed(PathKind::Middle);
                            return (v, PathKind::Middle);
                        }
                        Err(a) => stats.record_abort(PathKind::Middle, &a),
                    }
                }
                if in_window {
                    // Leave the HTM window before parking on F: a thread
                    // on the fallback no longer attempts HTM.
                    self.gate_exit();
                }
                self.arrive_on_f(th.id().0);
                let v = fallback(th);
                self.f.depart(rt, th.id().0);
                stats.record_completed(PathKind::Fallback);
                (v, PathKind::Fallback)
            }
        }
    }

    /// Runs one coalesced batch of `ops` operations to completion (see
    /// [`Self::run_batch`], which builds the closures): up to the fast
    /// budget of `fast` attempts — each a **single** transaction whose
    /// body applies the whole plan — then one serialized `seq_locked`
    /// section under the TLE lock.
    ///
    /// # Panics
    ///
    /// Panics if the context was not built with batching.
    pub(crate) fn run_plan<T>(
        &self,
        th: &mut ScxThread,
        stats: &mut PathStats,
        ops: u64,
        mut fast: impl FnMut(&mut ScxThread) -> Result<T, Abort>,
        mut seq_locked: impl FnMut(&mut ScxThread) -> T,
    ) -> (T, PathKind) {
        assert!(
            self.batched,
            "run_batch requires a context built with TemplateConfig::batched"
        );
        let strategy = self.strategy;
        let limits = self.limits();
        let rt = &*self.rt;
        // Admission: when the serialized path is busy and the window is
        // full, the batch enqueues on the ready lane (which has priority
        // on the lock) instead of spinning: refused entrants enqueue.
        let mut in_window = false;
        if let Some(gate) = &self.admission {
            let busy = self.lock.is_held(rt)
                || (strategy == Strategy::ThreePath && self.f.is_active(rt));
            if busy {
                if gate.try_enter() {
                    in_window = true;
                } else {
                    stats.record_admission_overflow();
                    gate.ready_arrive();
                    let v = self.batch_locked_section(th, stats, ops, &mut seq_locked);
                    gate.ready_depart();
                    return (v, PathKind::Fallback);
                }
            }
        }
        for _ in 0..limits.fast {
            if strategy == Strategy::Tle {
                // TLE semantics: wait out the lock before each attempt.
                self.wait_while(|| self.lock.is_held(rt));
            }
            match fast(th) {
                Ok(v) => {
                    if in_window {
                        self.gate_exit();
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

    /// Acquires the TLE lock for exclusive sequential access, honoring
    /// the blended discipline (drain `F` before touching the tree — see
    /// the type-level docs).
    fn acquire_tle_lock(&self) {
        let rt = &*self.rt;
        self.lock.acquire(rt);
        if self.blended() {
            // Blended discipline: lock-free fallback operations already
            // arrived on F must drain before the exclusive sequential
            // section may touch the tree.
            // They never wait once arrived, so F drains; arrivals
            // racing the acquisition observe the lock and back off.
            // The SeqCst fence pairs with the one after F-arrival:
            // of the two store→fence→load sequences, at least one
            // side must observe the other's store.
            std::sync::atomic::fence(Ordering::SeqCst);
            self.wait_while(|| self.f.is_active(rt));
        }
    }

    /// Arrives on the fallback indicator `F`, honoring the blended
    /// discipline (arrive only while the TLE lock is free).
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
    /// that order, two plain loads. A fast-path transaction of a batched
    /// context started at this instant would abort on its subscription, so
    /// a front-end uses this to decide between attempting one and queueing
    /// behind the holder. Momentary by nature.
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

/// The serialized section a batch escalated to, handed to the batch's
/// combining hook while this thread holds the TLE lock.
pub struct LockedSection<'a> {
    exec: &'a ExecCtx,
    th: &'a mut ScxThread,
    applied: u64,
}

impl LockedSection<'_> {
    /// Applies one more plan in this section, each operation mapped to its
    /// step by `step`, and returns the steps' results in plan order. The
    /// operations count as [combined](PathStats::combined_ops).
    pub fn apply<S: SeqOp>(
        &mut self,
        plan: &[BatchOp],
        step: impl Fn(BatchOp) -> S,
    ) -> Vec<S::Out> {
        self.applied += plan.len() as u64;
        let mut out = Vec::with_capacity(plan.len());
        self.exec.apply_direct(self.th, plan, &step, &mut out);
        out
    }
}

impl ExecCtx {
    /// Runs one update to completion under the configured strategy,
    /// deriving each path from `op`:
    ///
    /// * fast — search and [`SeqOp::seq`] in one transaction. In Section 8
    ///   mode the search runs first, pinned, with direct loads, and `seq`
    ///   validates what it found (`validate = true`);
    /// * middle — search and [`TemplateOp::tmpl`] in one transaction over
    ///   the HTM LLX/SCX (the search outside it in Section 8 mode); `Retry`
    ///   aborts with [`codes::VALIDATION`];
    /// * fallback — a pinned direct search and `tmpl` over the software
    ///   LLX/SCX, repeated until it is `Done`;
    /// * locked (TLE) — search and `seq` over direct memory.
    ///
    /// The pin of an outside search lasts until the attempt ends, so the
    /// nodes it found cannot be recycled under the body.
    pub fn run_update<O: TemplateOp>(
        &self,
        eng: &ScxEngine,
        th: &mut ScxThread,
        stats: &mut PathStats,
        op: &O,
    ) -> O::Out {
        let rt = &**self.runtime();
        let outside = self.search_outside_txn();
        let (out, _path) = self.run_op(
            th,
            stats,
            |th| {
                if outside {
                    th.pinned(|th| {
                        let f = direct(op.search(&mut &*rt));
                        self.attempt_seq(th, |m| op.seq(m, &f, true))
                    })
                } else {
                    self.attempt_seq(th, |m| {
                        let f = op.search(m)?;
                        op.seq(m, &f, false)
                    })
                }
            },
            |th| {
                if outside {
                    th.pinned(|th| {
                        let f = direct(op.search(&mut &*rt));
                        self.attempt_template(eng, th, |m| finish_tx(op.tmpl(m, &f)?))
                    })
                } else {
                    self.attempt_template(eng, th, |m| {
                        let f = op.search(m)?;
                        finish_tx(op.tmpl(m, &f)?)
                    })
                }
            },
            |th| loop {
                let out = th.pinned(|th| {
                    let f = direct(op.search(&mut &*rt));
                    direct(op.tmpl(&mut OrigMode::new(eng, th), &f))
                });
                if let OpOutcome::Done(v) = out {
                    return v;
                }
            },
            |th| th.pinned(|th| run_direct(rt, &th.reclaim, op)),
        );
        out
    }

    /// Runs one read-only operation through the template's paths: `walk`
    /// in a transaction on the fast and middle paths and over direct
    /// memory on TLE's locked path; [`ReadOp::validated`] on the fallback,
    /// repeated until it succeeds. This is where the optimistic read and
    /// scan paths escalate to, and what a structure built without them
    /// runs.
    pub fn run_query<O: ReadOp>(
        &self,
        eng: &ScxEngine,
        th: &mut ScxThread,
        stats: &mut PathStats,
        op: &O,
    ) -> O::Out {
        let rt = &**self.runtime();
        let (out, _path) = self.run_op(
            th,
            stats,
            |th| self.attempt_seq(th, |m| op.walk(m)),
            |th| self.attempt_template(eng, th, |m| op.walk(m)),
            |th| loop {
                if let Some(v) = th.pinned(|th| op.validated(eng, th)) {
                    return v;
                }
            },
            |th| th.pinned(|th| direct(op.walk(&mut DirectMem::new(rt, &th.reclaim)))),
        );
        out
    }

    /// Runs a coalesced batch: every operation of `plan`, mapped to its
    /// step by `step`, searched and applied in order by [`SeqOp::seq`]
    /// (`validate = false`), so later steps see earlier ones. Up to the
    /// fast budget of attempts run the whole plan in **one** transaction;
    /// then one serialized section under the TLE lock runs it over direct
    /// memory, and `combine` runs in the same section with a
    /// [`LockedSection`] that applies further plans. Returns the steps'
    /// results in plan order and the path the batch finished on. An empty
    /// plan returns at once.
    ///
    /// Requires a context built with [`TemplateConfig::batched`] (so on
    /// TLE or 3-path): the blended subscription discipline is what makes
    /// the serialized section safe against concurrent single-operation
    /// traffic on every path. The admission gate (when configured)
    /// applies as for single operations, except a refused batch
    /// *enqueues* on the serialized lane via the ready queue instead of
    /// spinning on HTM. No middle path: a batch either commits wholesale
    /// in HTM or runs exclusively.
    ///
    /// Stats: the batch lands `plan.len()` completions on the finishing
    /// path in one call, plus one batch-lane record — so
    /// [`PathStats::batch_txns`] counts exactly one transaction (or
    /// section) per executed batch.
    ///
    /// # Panics
    ///
    /// Panics if the context was not built with batching.
    pub fn run_batch<S: SeqOp>(
        &self,
        th: &mut ScxThread,
        stats: &mut PathStats,
        plan: &[BatchOp],
        step: impl Fn(BatchOp) -> S,
        combine: impl FnOnce(&mut LockedSection<'_>),
    ) -> (Vec<S::Out>, PathKind) {
        if plan.is_empty() {
            return (Vec::new(), PathKind::Fast);
        }
        let mut combine = Some(combine);
        let mut combined = 0;
        // One result buffer for every attempt: an aborted attempt's
        // partial results are cleared, not reallocated.
        let out = RefCell::new(Vec::with_capacity(plan.len()));
        let ((), path) = self.run_plan(
            th,
            stats,
            plan.len() as u64,
            |th| {
                self.attempt_seq(th, |m| {
                    let mut out = out.borrow_mut();
                    out.clear();
                    for &op in plan {
                        let s = step(op);
                        let f = s.search(m)?;
                        out.push(s.seq(m, &f, false)?);
                    }
                    Ok(())
                })
            },
            |th| {
                self.apply_direct(th, plan, &step, &mut out.borrow_mut());
                if let Some(c) = combine.take() {
                    let mut section = LockedSection {
                        exec: self,
                        th,
                        applied: 0,
                    };
                    c(&mut section);
                    combined = section.applied;
                }
            },
        );
        stats.add_combined_ops(combined);
        (out.into_inner(), path)
    }

    /// A plan's steps over direct memory, under one pin, their results
    /// replacing `out`'s contents; the caller holds the TLE lock.
    fn apply_direct<S: SeqOp>(
        &self,
        th: &mut ScxThread,
        plan: &[BatchOp],
        step: &impl Fn(BatchOp) -> S,
        out: &mut Vec<S::Out>,
    ) {
        let rt = &**self.runtime();
        out.clear();
        th.pinned(|th| {
            out.extend(
                plan.iter()
                    .map(|&op| run_direct(rt, &th.reclaim, &step(op))),
            );
        });
    }
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("strategy", &self.strategy)
            .field("limits", &self.limits())
            .field("search_outside_txn", &self.search_outside_txn)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{Mem, TxRead};
    use crate::op::toy::{epoch_advance, Toy, ToyRead};
    use std::cell::Cell;
    use threepath_htm::{AbortCode, HtmConfig, TxCell};
    use threepath_reclaim::{Domain, ReclaimMode};

    fn setup(strategy: Strategy) -> (ExecCtx, ScxEngine) {
        setup_with(cfg(strategy))
    }

    fn cfg(strategy: Strategy) -> TemplateConfig {
        TemplateConfig {
            strategy,
            ..TemplateConfig::default()
        }
    }

    fn setup_with(cfg: TemplateConfig) -> (ExecCtx, ScxEngine) {
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        let eng = ScxEngine::new(rt.clone(), domain);
        (ExecCtx::new(rt, &cfg), eng)
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
    fn batched_subscription_covers_lock_and_f() {
        let (exec, eng) = setup_with(TemplateConfig {
            batched: true,
            ..cfg(Strategy::ThreePath)
        });
        let mut th = eng.register_thread();
        let rt = exec.runtime().clone();
        // F active: fast attempts abort on their F subscription.
        exec.fallback_indicator().arrive(&rt, 0);
        let r: Result<(), _> = exec.attempt_seq(&mut th, |_| Ok(()));
        assert_eq!(r.unwrap_err().user_code(), Some(codes::F_NONZERO));
        exec.fallback_indicator().depart(&rt, 0);
        // Lock held: a plain 3-path context subscribes only to F, but a
        // batched one must also see the lock — fast attempts and
        // middle-path template transactions abort, so none commits over
        // a batch's serialized section.
        exec.tle_lock().acquire(&rt);
        let r: Result<(), _> = exec.attempt_seq(&mut th, |_| Ok(()));
        assert_eq!(r.unwrap_err().user_code(), Some(codes::LOCK_HELD));
        let r: Result<(), _> = exec.attempt_template(&eng, &mut th, |_| Ok(()));
        assert_eq!(r.unwrap_err().user_code(), Some(codes::LOCK_HELD));
        exec.tle_lock().release(&rt);
        let r: Result<(), _> = exec.attempt_seq(&mut th, |_| Ok(()));
        assert!(r.is_ok());
    }

    #[test]
    fn batched_lock_holder_drains_f_before_running() {
        // A batch's serialized section must not run while a lock-free
        // fallback operation is still active: the lock holder waits for
        // F.
        let (exec, eng) = setup_with(TemplateConfig {
            batched: true,
            ..cfg(Strategy::ThreePath)
        });
        let exec = Arc::new(exec);
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
            let (v, path) = exec.run_plan(
                &mut th,
                &mut stats,
                2,
                |_| Err(Abort::explicit(codes::F_NONZERO)),
                |_| {
                    f_seen_inside.set(exec.fallback_indicator().is_active(&rt));
                    13
                },
            );
            assert_eq!((v, path), (13, PathKind::Fallback));
        });
        assert!(
            !f_seen_inside.get(),
            "serialized section ran while F was active"
        );
        assert!(!exec.tle_lock().is_held(&rt));
    }

    #[test]
    fn batched_threepath_fallback_backs_off_while_lock_held() {
        // A lock-free fallback on a batched context must not run
        // concurrently with a batch's lock holder: it arrives on F only
        // once the lock is free.
        let (exec, eng) = setup_with(TemplateConfig {
            batched: true,
            ..cfg(Strategy::ThreePath)
        });
        let exec = Arc::new(exec);
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
                |_| unreachable!("3-path never takes the lock for one op"),
            );
            assert_eq!((v, path), (29, PathKind::Fallback));
        });
        assert!(
            !lock_seen_inside.get(),
            "lock-free fallback overlapped the lock holder"
        );
        assert!(!exec.fallback_indicator().is_active(&rt));
    }

    #[test]
    fn fixed_limit_override_replaces_paper_budgets() {
        let (exec, _eng) = setup(Strategy::ThreePath);
        assert_eq!(exec.limits(), PathLimits::for_strategy(Strategy::ThreePath));
        let limits = Some(PathLimits { fast: 3, middle: 4 });
        let (exec, _eng) = setup_with(TemplateConfig {
            limits,
            ..cfg(Strategy::ThreePath)
        });
        assert_eq!(exec.limits(), PathLimits { fast: 3, middle: 4 });
    }

    #[test]
    fn subscription_aborts_fast_path_when_f_nonzero() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let mut th = eng.register_thread();
        let rt = exec.runtime().clone();
        exec.fallback_indicator().arrive(&rt, 0);
        let r: Result<(), _> = exec.attempt_seq(&mut th, |_| Ok(()));
        assert_eq!(r.unwrap_err().user_code(), Some(codes::F_NONZERO));
        exec.fallback_indicator().depart(&rt, 0);
        let r: Result<(), _> = exec.attempt_seq(&mut th, |_| Ok(()));
        assert!(r.is_ok());
    }

    #[test]
    fn batch_commits_in_one_fast_transaction() {
        let (exec, eng) = setup_with(TemplateConfig {
            batched: true,
            ..cfg(Strategy::ThreePath)
        });
        assert!(exec.is_batched());
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let (v, path) = exec.run_plan(&mut th, &mut stats, 8, |_| Ok(99), |_| 0);
        assert_eq!((v, path), (99, PathKind::Fast));
        assert_eq!(stats.completed(PathKind::Fast), 8, "whole batch landed");
        assert_eq!(stats.batches(), 1);
        assert_eq!(stats.batch_ops(), 8);
        assert_eq!(stats.batch_txns(), 1, "one transaction for the batch");
        assert_eq!(stats.commits(PathKind::Fast), 1);
    }

    #[test]
    fn batch_escalates_to_one_locked_section() {
        let (exec, eng) = setup_with(TemplateConfig {
            batched: true,
            ..cfg(Strategy::Tle)
        });
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let rt = exec.runtime().clone();
        let lock_held_inside = Cell::new(false);
        let (v, path) = exec.run_plan(
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
        let (exec, eng) = setup_with(TemplateConfig {
            batched: true,
            ..cfg(Strategy::ThreePath)
        });
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let fast_calls = Cell::new(0u32);
        let (_, path) = exec.run_plan(
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
    #[should_panic(expected = "TemplateConfig::batched")]
    fn run_batch_requires_batched_context() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let _ = exec.run_plan(&mut th, &mut stats, 1, |_| Ok(0), |_| 0);
    }

    #[test]
    #[should_panic(expected = "TLE or 3-path")]
    fn batching_rejects_uncovered_strategies() {
        let _ = setup_with(TemplateConfig {
            batched: true,
            ..cfg(Strategy::TwoPathCon)
        });
    }

    /// Holds the TLE lock while `body` runs; another thread releases it
    /// after a short delay, so `body` can observe how the driver waits
    /// for (or queues behind) a lock holder.
    fn with_lock_released_later<R>(exec: &ExecCtx, body: impl FnOnce() -> R) -> R {
        let rt = exec.runtime().clone();
        exec.tle_lock().acquire(&rt);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                exec.tle_lock().release(&rt);
            });
            body()
        })
    }

    /// Puts a simulated operation on the fallback path (`F` active) while
    /// `body` runs; another thread departs after a short delay.
    fn with_f_departed_later<R>(exec: &ExecCtx, body: impl FnOnce() -> R) -> R {
        let rt = exec.runtime().clone();
        exec.fallback_indicator().arrive(&rt, 9);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                exec.fallback_indicator().depart(&rt, 9);
            });
            body()
        })
    }

    #[test]
    fn default_limits_are_the_papers_for_every_strategy() {
        for s in Strategy::ALL {
            let (exec, _eng) = setup(s);
            assert_eq!(exec.strategy(), s);
            assert_eq!(exec.limits(), PathLimits::for_strategy(s), "{s}");
        }
    }

    #[test]
    fn limit_override_caps_both_budgets() {
        let (exec, eng) = setup_with(TemplateConfig {
            limits: Some(PathLimits { fast: 3, middle: 2 }),
            ..cfg(Strategy::ThreePath)
        });
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
                Err(Abort::new(AbortCode::Conflict))
            },
            |_| 4,
            |_| unreachable!(),
        );
        assert_eq!((v, path), (4, PathKind::Fallback));
        assert_eq!((fast_calls.get(), middle_calls.get()), (3, 2));
        assert_eq!(stats.aborts(PathKind::Fast).conflict, 3);
        assert_eq!(stats.aborts(PathKind::Middle).conflict, 2);
    }

    #[test]
    fn zero_fast_budget_starts_on_the_middle_path() {
        let (exec, eng) = setup_with(TemplateConfig {
            limits: Some(PathLimits { fast: 0, middle: 1 }),
            ..cfg(Strategy::ThreePath)
        });
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| panic!("a zero fast budget makes no fast attempt"),
            |_| Ok(6),
            |_| 0,
            |_| 0,
        );
        assert_eq!((v, path), (6, PathKind::Middle));
        assert_eq!(stats.commits(PathKind::Middle), 1);
        assert_eq!(stats.completed(PathKind::Middle), 1);
        assert_eq!(stats.aborts(PathKind::Fast).total(), 0);
    }

    #[test]
    fn zero_budgets_go_straight_to_the_fallback_under_f() {
        let (exec, eng) = setup_with(TemplateConfig {
            limits: Some(PathLimits { fast: 0, middle: 0 }),
            ..cfg(Strategy::ThreePath)
        });
        let rt = exec.runtime().clone();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let f_inside = Cell::new(false);
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| panic!("no fast budget"),
            |_| panic!("no middle budget"),
            |_| {
                f_inside.set(exec.fallback_indicator().is_active(&rt));
                8
            },
            |_| 0,
        );
        assert_eq!((v, path), (8, PathKind::Fallback));
        assert!(f_inside.get(), "the fallback still announces itself on F");
        assert!(!exec.fallback_indicator().is_active(&rt));
        assert_eq!(stats.completed(PathKind::Fallback), 1);
    }

    #[test]
    fn fast_commit_records_only_the_fast_lane() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |th| exec.attempt_seq(th, |_| Ok(3)),
            |_| panic!("a committed fast attempt never reaches the middle path"),
            |_| panic!("nor the fallback"),
            |_| panic!("nor the lock"),
        );
        assert_eq!((v, path), (3, PathKind::Fast));
        assert_eq!(stats.commits(PathKind::Fast), 1);
        assert_eq!(stats.completed(PathKind::Fast), 1);
        assert_eq!(stats.total_completed(), 1);
        assert_eq!(stats.total_aborts(), 0);
    }

    #[test]
    fn three_path_fast_path_never_waits_for_f() {
        // With an operation parked on the fallback for the whole call, the
        // fast attempt aborts on its F subscription and the middle path
        // (which does not subscribe) completes the operation: nothing
        // waits for F to drain.
        let (exec, eng) = setup(Strategy::ThreePath);
        let rt = exec.runtime().clone();
        exec.fallback_indicator().arrive(&rt, 5);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |th| exec.attempt_seq(th, |_| Ok(1)),
            |th| exec.attempt_template(&eng, th, |_| Ok(2)),
            |_| panic!("the middle path commits beside the fallback"),
            |_| 0,
        );
        assert_eq!((v, path), (2, PathKind::Middle));
        assert_eq!(
            stats.aborts(PathKind::Fast).explicit,
            1,
            "one F_NONZERO abort"
        );
        assert!(
            exec.fallback_indicator().is_active(&rt),
            "F was never drained"
        );
        exec.fallback_indicator().depart(&rt, 5);
    }

    #[test]
    fn tle_exhausts_exactly_the_fast_budget_before_locking() {
        let (exec, eng) = setup(Strategy::Tle);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let fast_calls = Cell::new(0u32);
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| {
                fast_calls.set(fast_calls.get() + 1);
                Err(Abort::new(AbortCode::Spurious))
            },
            |_| panic!("TLE has no middle path"),
            |_| panic!("TLE has no lock-free fallback"),
            |_| 12,
        );
        assert_eq!((v, path), (12, PathKind::Fallback));
        assert_eq!(
            fast_calls.get(),
            PathLimits::for_strategy(Strategy::Tle).fast
        );
        assert_eq!(stats.aborts(PathKind::Fast).spurious, 20);
    }

    #[test]
    fn unbatched_tle_spends_its_budget_on_f_nonzero_aborts() {
        // Only batched contexts subscribe TLE transactions to F, so only
        // they treat an F abort as a reason to take the lock early.
        let (exec, eng) = setup_with(TemplateConfig {
            limits: Some(PathLimits { fast: 4, middle: 0 }),
            ..cfg(Strategy::Tle)
        });
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let fast_calls = Cell::new(0u32);
        let (_, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| {
                fast_calls.set(fast_calls.get() + 1);
                Err::<u32, _>(Abort::explicit(codes::F_NONZERO))
            },
            |_| unreachable!(),
            |_| unreachable!(),
            |_| 0,
        );
        assert_eq!(path, PathKind::Fallback);
        assert_eq!(fast_calls.get(), 4);
    }

    #[test]
    fn batched_tle_takes_the_lock_on_f_nonzero() {
        let (exec, eng) = setup_with(TemplateConfig {
            batched: true,
            ..cfg(Strategy::Tle)
        });
        let rt = exec.runtime().clone();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let fast_calls = Cell::new(0u32);
        let lock_inside = Cell::new(false);
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| {
                fast_calls.set(fast_calls.get() + 1);
                Err(Abort::explicit(codes::F_NONZERO))
            },
            |_| unreachable!(),
            |_| unreachable!(),
            |_| {
                lock_inside.set(exec.tle_lock().is_held(&rt));
                21
            },
        );
        assert_eq!((v, path), (21, PathKind::Fallback));
        assert_eq!(fast_calls.get(), 1, "no doomed retries while F is active");
        assert!(lock_inside.get());
        assert!(!exec.tle_lock().is_held(&rt));
    }

    #[test]
    fn tle_waits_for_the_lock_before_each_fast_attempt() {
        let (exec, eng) = setup(Strategy::Tle);
        let rt = exec.runtime().clone();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let lock_seen = Cell::new(true);
        let (v, path) = with_lock_released_later(&exec, || {
            exec.run_op(
                &mut th,
                &mut stats,
                |_| {
                    lock_seen.set(exec.tle_lock().is_held(&rt));
                    Ok(17)
                },
                |_| unreachable!(),
                |_| unreachable!(),
                |_| unreachable!(),
            )
        });
        assert_eq!((v, path), (17, PathKind::Fast));
        assert!(
            !lock_seen.get(),
            "the fast attempt ran while the lock was held"
        );
        assert_eq!(
            stats.aborts(PathKind::Fast).total(),
            0,
            "no attempt was wasted"
        );
    }

    #[test]
    fn two_path_con_exhausts_its_budget_then_runs_the_fallback_without_f() {
        let (exec, eng) = setup(Strategy::TwoPathCon);
        let rt = exec.runtime().clone();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let middle_calls = Cell::new(0u32);
        let f_inside = Cell::new(true);
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| unreachable!(),
            |_| {
                middle_calls.set(middle_calls.get() + 1);
                Err(Abort::new(AbortCode::Conflict))
            },
            |_| {
                f_inside.set(exec.fallback_indicator().is_active(&rt));
                31
            },
            |_| unreachable!(),
        );
        assert_eq!((v, path), (31, PathKind::Fallback));
        assert_eq!(middle_calls.get(), 20);
        assert_eq!(
            stats.aborts(PathKind::Fast).conflict,
            20,
            "counted as fast aborts"
        );
        assert!(
            !f_inside.get(),
            "2-path-con's fallback runs concurrently, F unused"
        );
    }

    #[test]
    fn two_path_noncon_fallback_holds_f() {
        let (exec, eng) = setup(Strategy::TwoPathNonCon);
        let rt = exec.runtime().clone();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let f_inside = Cell::new(false);
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| Err(Abort::new(AbortCode::Capacity)),
            |_| unreachable!("2-path non-con has no middle path"),
            |_| {
                f_inside.set(exec.fallback_indicator().is_active(&rt));
                37
            },
            |_| unreachable!(),
        );
        assert_eq!((v, path), (37, PathKind::Fallback));
        assert!(f_inside.get());
        assert!(!exec.fallback_indicator().is_active(&rt));
        assert_eq!(stats.aborts(PathKind::Fast).capacity, 20);
    }

    #[test]
    fn two_path_noncon_waits_for_f_to_drain_before_each_attempt() {
        let (exec, eng) = setup(Strategy::TwoPathNonCon);
        let rt = exec.runtime().clone();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let f_seen = Cell::new(true);
        let (v, path) = with_f_departed_later(&exec, || {
            exec.run_op(
                &mut th,
                &mut stats,
                |_| {
                    f_seen.set(exec.fallback_indicator().is_active(&rt));
                    Ok(41)
                },
                |_| unreachable!(),
                |_| unreachable!(),
                |_| unreachable!(),
            )
        });
        assert_eq!((v, path), (41, PathKind::Fast));
        assert!(!f_seen.get(), "the fast attempt ran while F was active");
    }

    #[test]
    fn admission_is_off_by_default_and_sized_at_construction() {
        let (exec, _eng) = setup(Strategy::ThreePath);
        assert!(exec.admission().is_none());
        let (exec, _eng) = setup_with(TemplateConfig {
            admission: Some(3),
            ..cfg(Strategy::ThreePath)
        });
        let gate = exec.admission().expect("gate installed");
        assert_eq!(gate.cap(), 3);
        assert_eq!(
            (gate.in_window(), gate.ready(), gate.overflows()),
            (0, 0, 0)
        );
    }

    #[test]
    fn tle_admission_overflow_takes_the_lock_directly() {
        let (exec, eng) = setup_with(TemplateConfig {
            admission: Some(1),
            ..cfg(Strategy::Tle)
        });
        let rt = exec.runtime().clone();
        let gate = exec.admission().unwrap();
        assert!(gate.try_enter(), "another thread occupies the window");
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let queued_inside = Cell::new(0u32);
        let (v, path) = with_lock_released_later(&exec, || {
            exec.run_op(
                &mut th,
                &mut stats,
                |_| panic!("an overflow thread makes no HTM attempt"),
                |_| unreachable!(),
                |_| unreachable!(),
                |_| {
                    assert!(exec.tle_lock().is_held(&rt));
                    queued_inside.set(gate.ready());
                    43
                },
            )
        });
        assert_eq!((v, path), (43, PathKind::Fallback));
        assert_eq!(
            queued_inside.get(),
            1,
            "queued on the ready lane while serialized"
        );
        assert_eq!(gate.ready(), 0, "and dequeued afterwards");
        assert_eq!(gate.in_window(), 1, "the other thread's slot is untouched");
        assert_eq!(stats.admission_overflows(), 1);
        assert_eq!(gate.overflows(), 1);
        gate.exit();
    }

    #[test]
    fn tle_admitted_attempt_leaves_the_window_on_commit() {
        let (exec, eng) = setup_with(TemplateConfig {
            admission: Some(2),
            ..cfg(Strategy::Tle)
        });
        let gate = exec.admission().unwrap();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let window_inside = Cell::new(0u32);
        let (v, path) = with_lock_released_later(&exec, || {
            exec.run_op(
                &mut th,
                &mut stats,
                |_| {
                    window_inside.set(gate.in_window());
                    Ok(47)
                },
                |_| unreachable!(),
                |_| unreachable!(),
                |_| unreachable!(),
            )
        });
        assert_eq!((v, path), (47, PathKind::Fast));
        assert_eq!(window_inside.get(), 1, "admitted while the lock was held");
        assert_eq!(gate.in_window(), 0);
        assert_eq!(stats.admission_overflows(), 0);
    }

    #[test]
    fn tle_admitted_thread_exits_the_window_before_taking_the_lock() {
        let (exec, eng) = setup_with(TemplateConfig {
            admission: Some(1),
            limits: Some(PathLimits { fast: 2, middle: 0 }),
            ..cfg(Strategy::Tle)
        });
        let gate = exec.admission().unwrap();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let window_inside = Cell::new(u32::MAX);
        let (_, path) = with_lock_released_later(&exec, || {
            exec.run_op(
                &mut th,
                &mut stats,
                |_| Err(Abort::new(AbortCode::Conflict)),
                |_| unreachable!(),
                |_| unreachable!(),
                |_| window_inside.set(gate.in_window()),
            )
        });
        assert_eq!(path, PathKind::Fallback);
        assert_eq!(
            window_inside.get(),
            0,
            "the lock holder no longer attempts HTM"
        );
        assert_eq!(gate.in_window(), 0);
    }

    #[test]
    fn three_path_admission_overflow_joins_the_fallback_directly() {
        let (exec, eng) = setup_with(TemplateConfig {
            admission: Some(1),
            ..cfg(Strategy::ThreePath)
        });
        let rt = exec.runtime().clone();
        let gate = exec.admission().unwrap();
        exec.fallback_indicator().arrive(&rt, 9);
        assert!(gate.try_enter(), "another thread occupies the window");
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| panic!("an overflow thread makes no HTM attempt"),
            |_| panic!("not even on the middle path"),
            |_| {
                assert_eq!(gate.ready(), 1);
                assert!(exec.fallback_indicator().is_active(&rt));
                53
            },
            |_| unreachable!(),
        );
        assert_eq!((v, path), (53, PathKind::Fallback));
        assert_eq!(stats.admission_overflows(), 1);
        assert_eq!(gate.ready(), 0);
        assert_eq!(gate.in_window(), 1);
        gate.exit();
        exec.fallback_indicator().depart(&rt, 9);
        assert!(!exec.fallback_indicator().is_active(&rt), "F is balanced");
    }

    #[test]
    fn three_path_admitted_thread_leaves_the_window_before_parking_on_f() {
        let (exec, eng) = setup_with(TemplateConfig {
            admission: Some(1),
            limits: Some(PathLimits { fast: 1, middle: 1 }),
            ..cfg(Strategy::ThreePath)
        });
        let rt = exec.runtime().clone();
        let gate = exec.admission().unwrap();
        exec.fallback_indicator().arrive(&rt, 9);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let window_in_middle = Cell::new(0u32);
        let window_in_fallback = Cell::new(u32::MAX);
        let (_, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| Err(Abort::explicit(codes::F_NONZERO)),
            |_| {
                window_in_middle.set(gate.in_window());
                Err(Abort::new(AbortCode::Conflict))
            },
            |_| window_in_fallback.set(gate.in_window()),
            |_| unreachable!(),
        );
        assert_eq!(path, PathKind::Fallback);
        assert_eq!(window_in_middle.get(), 1, "admitted for its HTM attempts");
        assert_eq!(window_in_fallback.get(), 0, "left before the fallback");
        assert_eq!(stats.admission_overflows(), 0);
        exec.fallback_indicator().depart(&rt, 9);
    }

    #[test]
    fn idle_serialized_path_bypasses_the_gate() {
        // The gate is consulted only while the fallback is busy: a full
        // window does not turn away operations when F is quiet.
        let (exec, eng) = setup_with(TemplateConfig {
            admission: Some(1),
            ..cfg(Strategy::ThreePath)
        });
        let gate = exec.admission().unwrap();
        assert!(gate.try_enter());
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let (v, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| Ok(59),
            |_| unreachable!(),
            |_| 0,
            |_| 0,
        );
        assert_eq!((v, path), (59, PathKind::Fast));
        assert_eq!(gate.overflows(), 0);
        assert_eq!(gate.in_window(), 1, "the bypass took no slot");
        assert_eq!(stats.admission_overflows(), 0);
        gate.exit();
    }

    #[test]
    fn non_gating_strategies_ignore_the_gate() {
        for strategy in [Strategy::NonHtm, Strategy::TwoPathCon] {
            let (exec, eng) = setup_with(TemplateConfig {
                admission: Some(1),
                ..cfg(strategy)
            });
            let rt = exec.runtime().clone();
            let gate = exec.admission().unwrap();
            exec.fallback_indicator().arrive(&rt, 9);
            assert!(gate.try_enter());
            let mut th = eng.register_thread();
            let mut stats = PathStats::new();
            let (v, _) = exec.run_op(
                &mut th,
                &mut stats,
                |_| unreachable!(),
                |_| Ok(61),
                |_| 61,
                |_| 0,
            );
            assert_eq!(v, 61, "{strategy}");
            assert_eq!(gate.overflows(), 0, "{strategy}");
            assert_eq!(stats.admission_overflows(), 0, "{strategy}");
            gate.exit();
            exec.fallback_indicator().depart(&rt, 9);
        }
    }

    #[test]
    fn batch_capacity_abort_escalates_at_once() {
        let (exec, eng) = setup_with(TemplateConfig {
            batched: true,
            ..cfg(Strategy::ThreePath)
        });
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let fast_calls = Cell::new(0u32);
        let (v, path) = exec.run_plan(
            &mut th,
            &mut stats,
            3,
            |_| {
                fast_calls.set(fast_calls.get() + 1);
                Err(Abort::new(AbortCode::Capacity))
            },
            |_| 67,
        );
        assert_eq!((v, path), (67, PathKind::Fallback));
        assert_eq!(
            fast_calls.get(),
            1,
            "a fixed plan's footprint never shrinks"
        );
        assert_eq!(stats.aborts(PathKind::Fast).capacity, 1);
        assert_eq!(stats.completed(PathKind::Fallback), 3);
    }

    #[test]
    fn tle_batch_retries_conflicts_up_to_the_budget() {
        let (exec, eng) = setup_with(TemplateConfig {
            batched: true,
            limits: Some(PathLimits { fast: 5, middle: 0 }),
            ..cfg(Strategy::Tle)
        });
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let fast_calls = Cell::new(0u32);
        let (_, path) = exec.run_plan(
            &mut th,
            &mut stats,
            2,
            |_| {
                fast_calls.set(fast_calls.get() + 1);
                Err::<u32, _>(Abort::new(AbortCode::Conflict))
            },
            |_| 0,
        );
        assert_eq!(path, PathKind::Fallback);
        assert_eq!(fast_calls.get(), 5);
        assert_eq!(stats.batch_txns(), 1, "then one serialized section");
    }

    #[test]
    fn batch_admission_overflow_enqueues_on_the_serialized_lane() {
        let (exec, eng) = setup_with(TemplateConfig {
            batched: true,
            admission: Some(1),
            ..cfg(Strategy::Tle)
        });
        let rt = exec.runtime().clone();
        let gate = exec.admission().unwrap();
        assert!(gate.try_enter(), "another thread occupies the window");
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let (v, path) = with_lock_released_later(&exec, || {
            exec.run_plan(
                &mut th,
                &mut stats,
                4,
                |_| panic!("a refused batch makes no HTM attempt"),
                |_| {
                    assert!(exec.tle_lock().is_held(&rt));
                    assert_eq!(gate.ready(), 1);
                    71
                },
            )
        });
        assert_eq!((v, path), (71, PathKind::Fallback));
        assert_eq!(stats.admission_overflows(), 1);
        assert_eq!(stats.batch_txns(), 1);
        assert_eq!(stats.completed(PathKind::Fallback), 4);
        assert_eq!(gate.ready(), 0);
        gate.exit();
    }

    #[test]
    fn batch_admitted_to_the_window_exits_on_commit() {
        let (exec, eng) = setup_with(TemplateConfig {
            batched: true,
            admission: Some(2),
            ..cfg(Strategy::ThreePath)
        });
        let gate = exec.admission().unwrap();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let window_inside = Cell::new(0u32);
        let (v, path) = with_f_departed_later(&exec, || {
            exec.run_plan(
                &mut th,
                &mut stats,
                2,
                |_| {
                    window_inside.set(gate.in_window());
                    Ok(73)
                },
                |_| unreachable!(),
            )
        });
        assert_eq!((v, path), (73, PathKind::Fast));
        assert_eq!(window_inside.get(), 1);
        assert_eq!(gate.in_window(), 0);
        assert_eq!(stats.admission_overflows(), 0);
    }

    #[test]
    fn serialized_active_tracks_f_and_the_lock() {
        let (exec, _eng) = setup(Strategy::ThreePath);
        let rt = exec.runtime().clone();
        assert!(!exec.serialized_active());
        exec.fallback_indicator().arrive(&rt, 0);
        assert!(exec.serialized_active(), "an operation on the fallback");
        exec.fallback_indicator().depart(&rt, 0);
        assert!(!exec.serialized_active());
        exec.tle_lock().acquire(&rt);
        assert!(exec.serialized_active(), "a lock holder");
        exec.tle_lock().release(&rt);
        assert!(!exec.serialized_active());
    }

    #[test]
    fn snzi_context_subscribes_through_the_snzi_cell() {
        let (exec, eng) = setup_with(TemplateConfig {
            snzi: true,
            ..cfg(Strategy::ThreePath)
        });
        assert!(matches!(exec.fallback_indicator(), Indicator::Snzi(_)));
        let rt = exec.runtime().clone();
        let mut th = eng.register_thread();
        exec.fallback_indicator().arrive(&rt, 3);
        let r: Result<(), _> = exec.attempt_seq(&mut th, |_| Ok(()));
        assert_eq!(r.unwrap_err().user_code(), Some(codes::F_NONZERO));
        exec.fallback_indicator().depart(&rt, 3);
        let r: Result<(), _> = exec.attempt_seq(&mut th, |_| Ok(()));
        assert!(r.is_ok());
    }

    #[test]
    fn snzi_three_path_fallback_raises_the_indicator() {
        let (exec, eng) = setup_with(TemplateConfig {
            snzi: true,
            ..cfg(Strategy::ThreePath)
        });
        let rt = exec.runtime().clone();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let active_inside = Cell::new(false);
        let (_, path) = exec.run_op(
            &mut th,
            &mut stats,
            |_| Err(Abort::new(AbortCode::Conflict)),
            |_| Err(Abort::new(AbortCode::Conflict)),
            |_| active_inside.set(exec.fallback_indicator().is_active(&rt)),
            |_| unreachable!(),
        );
        assert_eq!(path, PathKind::Fallback);
        assert!(active_inside.get());
        assert!(!exec.fallback_indicator().is_active(&rt));
    }

    #[test]
    fn unbatched_three_path_ignores_the_tle_lock() {
        // Without batching nothing runs under the lock on a 3-path
        // context, so its transactions do not pay for a lock read.
        let (exec, eng) = setup(Strategy::ThreePath);
        let rt = exec.runtime().clone();
        let mut th = eng.register_thread();
        exec.tle_lock().acquire(&rt);
        let r: Result<(), _> = exec.attempt_seq(&mut th, |_| Ok(()));
        assert!(r.is_ok());
        let r: Result<(), _> = exec.attempt_template(&eng, &mut th, |_| Ok(()));
        assert!(r.is_ok());
        exec.tle_lock().release(&rt);
    }

    #[test]
    fn tle_subscribes_to_the_lock_and_not_to_f() {
        let (exec, eng) = setup(Strategy::Tle);
        let rt = exec.runtime().clone();
        let mut th = eng.register_thread();
        exec.fallback_indicator().arrive(&rt, 0);
        let r: Result<(), _> = exec.attempt_seq(&mut th, |_| Ok(()));
        assert!(r.is_ok(), "TLE ignores F");
        exec.fallback_indicator().depart(&rt, 0);
        exec.tle_lock().acquire(&rt);
        let r: Result<(), _> = exec.attempt_seq(&mut th, |_| Ok(()));
        assert_eq!(r.unwrap_err().user_code(), Some(codes::LOCK_HELD));
        exec.tle_lock().release(&rt);
    }

    #[test]
    fn concurrent_strategies_attempt_without_subscribing() {
        // Non-HTM and 2-path-con transactions may run beside the fallback,
        // so neither F nor the lock aborts them.
        for strategy in [Strategy::NonHtm, Strategy::TwoPathCon] {
            let (exec, eng) = setup(strategy);
            let rt = exec.runtime().clone();
            let mut th = eng.register_thread();
            exec.fallback_indicator().arrive(&rt, 0);
            exec.tle_lock().acquire(&rt);
            let r: Result<(), _> = exec.attempt_seq(&mut th, |_| Ok(()));
            assert!(r.is_ok(), "{strategy}");
            let r: Result<(), _> = exec.attempt_template(&eng, &mut th, |_| Ok(()));
            assert!(r.is_ok(), "{strategy}");
            exec.tle_lock().release(&rt);
            exec.fallback_indicator().depart(&rt, 0);
        }
    }

    #[test]
    fn batch_strategies_are_the_lock_covered_ones() {
        assert_eq!(BATCH_STRATEGIES, [Strategy::Tle, Strategy::ThreePath]);
        for s in BATCH_STRATEGIES {
            let (exec, _eng) = setup(s);
            assert!(!exec.is_batched(), "{s}: batching is opt-in");
            let (exec, _eng) = setup_with(TemplateConfig {
                batched: true,
                ..cfg(s)
            });
            assert!(exec.is_batched(), "{s}");
        }
    }

    #[test]
    fn debug_names_the_strategy_and_limits() {
        let (exec, _eng) = setup_with(TemplateConfig {
            limits: Some(PathLimits { fast: 2, middle: 5 }),
            ..cfg(Strategy::ThreePath)
        });
        let s = format!("{exec:?}");
        assert!(s.contains("ThreePath"), "{s}");
        assert!(s.contains("fast: 2") && s.contains("middle: 5"), "{s}");
    }

    // ------------------------------------------------------------------
    // The composition: run_update, run_query and run_batch derive the
    // paths from a toy op over a few cells.
    // ------------------------------------------------------------------

    /// Section 8: the fast path's body validates the outside search. The
    /// search goes stale at once (a writer moves `slot` behind it), so the
    /// fast attempt aborts on `VALIDATION` and the op completes on the
    /// middle path, after a fresh search.
    #[test]
    fn sec8_fast_path_validates_its_outside_search() {
        let (exec, eng) = setup_with(TemplateConfig {
            search_outside_txn: true,
            limits: Some(PathLimits { fast: 1, middle: 1 }),
            ..cfg(Strategy::ThreePath)
        });
        let rt = exec.runtime().clone();
        let mut toy = Toy::new(&rt);
        toy.on_search = Box::new(|t, i| {
            if t.searches.get() == 1 {
                t.slot.store_direct(t.rt, i + 1);
            }
        });
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        assert_eq!(exec.run_update(&eng, &mut th, &mut stats, &toy), 0);
        assert_eq!(*toy.validates.borrow(), [true]);
        assert_eq!(toy.stale.get(), 1, "the fast attempt saw the stale link");
        assert_eq!(stats.aborts(PathKind::Fast).explicit, 1);
        assert_eq!(stats.completed(PathKind::Middle), 1);
        assert_eq!(toy.searches.get(), 2, "the middle path searched afresh");
        assert_eq!(toy.vals[0].load_direct(&rt), 0, "no write through a stale link");
    }

    /// Without Section 8 the search runs inside the transaction, so the
    /// body has nothing to validate.
    #[test]
    fn in_txn_search_is_not_validated() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let rt = exec.runtime().clone();
        let toy = Toy::new(&rt);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        assert_eq!(exec.run_update(&eng, &mut th, &mut stats, &toy), 0);
        assert_eq!(*toy.validates.borrow(), [false]);
        assert_eq!(stats.completed(PathKind::Fast), 1);
        assert_eq!(toy.vals[0].load_direct(&rt), 7);
    }

    /// A middle-path `Retry` (the template body lost a race) aborts the
    /// transaction, and the op retries it within the middle budget.
    #[test]
    fn middle_path_retry_aborts_and_retries_within_the_budget() {
        let (exec, eng) = setup_with(TemplateConfig {
            limits: Some(PathLimits { fast: 0, middle: 3 }),
            ..cfg(Strategy::ThreePath)
        });
        let rt = exec.runtime().clone();
        let toy = Toy::new(&rt);
        toy.retries.set(2);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        assert_eq!(exec.run_update(&eng, &mut th, &mut stats, &toy), 0);
        assert_eq!(toy.tmpls.get(), 3);
        assert_eq!(stats.aborts(PathKind::Middle).explicit, 2);
        assert_eq!(stats.completed(PathKind::Middle), 1);
        assert_eq!(stats.completed(PathKind::Fallback), 0);
    }

    /// The fallback repeats its search and template body until `Done`.
    #[test]
    fn fallback_loops_on_retry_until_done() {
        let (exec, eng) = setup_with(TemplateConfig {
            limits: Some(PathLimits { fast: 0, middle: 0 }),
            ..cfg(Strategy::ThreePath)
        });
        let rt = exec.runtime().clone();
        let toy = Toy::new(&rt);
        toy.retries.set(3);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        assert_eq!(exec.run_update(&eng, &mut th, &mut stats, &toy), 0);
        assert_eq!(toy.tmpls.get(), 4);
        assert_eq!(toy.searches.get(), 4, "every retry searches again");
        assert_eq!(stats.completed(PathKind::Fallback), 1);
        assert!(!exec.fallback_indicator().is_active(&rt));
        assert!(!th.reclaim.is_pinned());
    }

    /// TLE's locked path runs the sequential body under the lock, over
    /// direct memory (its write is visible at once), with
    /// `validate = false` even in Section 8 mode.
    #[test]
    fn tle_locked_path_runs_seq_directly_without_validation() {
        let (exec, eng) = setup_with(TemplateConfig {
            search_outside_txn: true,
            limits: Some(PathLimits { fast: 0, middle: 0 }),
            ..cfg(Strategy::Tle)
        });
        let rt = exec.runtime().clone();
        let locked = Cell::new(false);
        let mut toy = Toy::new(&rt);
        toy.on_seq = Box::new(|| locked.set(exec.tle_lock().is_held(&rt)));
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        assert_eq!(exec.run_update(&eng, &mut th, &mut stats, &toy), 0);
        assert_eq!(*toy.validates.borrow(), [false]);
        assert_eq!(toy.direct_writes.get(), 1);
        assert!(locked.get(), "the body ran under the lock");
        assert!(!exec.tle_lock().is_held(&rt));
        assert_eq!(stats.completed(PathKind::Fallback), 1);
    }

    /// `run_query`'s fallback repeats the validated read, pinned, until it
    /// succeeds; the walk is not used there.
    #[test]
    fn query_fallback_loops_until_the_validated_read_succeeds() {
        let (exec, eng) = setup(Strategy::NonHtm);
        let cell = TxCell::new(5);
        let op = ToyRead::new(&cell);
        op.misses.set(2);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        assert_eq!(exec.run_query(&eng, &mut th, &mut stats, &op), 5);
        assert_eq!(op.validated.get(), 3);
        assert_eq!(op.unpinned.get(), 0);
        assert_eq!(op.walks.get(), 0);
        assert_eq!(stats.completed(PathKind::Fallback), 1);
    }

    /// `run_query` walks in a transaction on the fast path.
    #[test]
    fn query_walks_in_a_transaction_on_the_fast_path() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let cell = TxCell::new(9);
        let op = ToyRead::new(&cell);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        assert_eq!(exec.run_query(&eng, &mut th, &mut stats, &op), 9);
        assert_eq!((op.walks.get(), op.validated.get()), (1, 0));
        assert_eq!(stats.commits(PathKind::Fast), 1);
    }

    /// Section 8's outside search and the transaction after it run under
    /// one epoch pin: from the search to the end of the body, a second
    /// context cannot move the epoch more than one step.
    #[test]
    fn outside_search_stays_pinned_until_the_attempt_ends() {
        let (exec, eng) = setup_with(TemplateConfig {
            search_outside_txn: true,
            ..cfg(Strategy::ThreePath)
        });
        let rt = exec.runtime().clone();
        let other = eng.register_thread();
        let domain = eng.domain().clone();
        let (start, end) = (Cell::new(0), Cell::new(0));
        let mut toy = Toy::new(&rt);
        toy.on_search = Box::new(|_, _| {
            start.set(domain.epoch());
            epoch_advance(&other, 256);
        });
        toy.on_seq = Box::new(|| {
            epoch_advance(&other, 256);
            end.set(domain.epoch());
        });
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        exec.run_update(&eng, &mut th, &mut stats, &toy);
        assert_eq!(stats.completed(PathKind::Fast), 1);
        let moved = end.get() - start.get();
        assert!(moved <= 1, "the epoch moved {moved} steps under the op");
        assert!(epoch_advance(&other, 256) >= 2, "the epoch is stuck");
    }

    /// Adds `n` to `cell`, returning the old value: a batch step.
    struct Add<'a> {
        cell: &'a TxCell,
        n: u64,
    }

    impl SeqOp for Add<'_> {
        type Found = ();
        type Out = u64;

        fn search<R: TxRead>(&self, _r: &mut R) -> Result<(), Abort> {
            Ok(())
        }

        fn seq<M: Mem>(&self, m: &mut M, _f: &(), validate: bool) -> Result<u64, Abort> {
            assert!(!validate, "batch steps search inside");
            let old = m.read(self.cell)?;
            m.write(self.cell, old + self.n)?;
            Ok(old)
        }
    }

    /// A batch commits its whole plan in one transaction; each step sees
    /// the ones before it, and the combining hook does not run.
    #[test]
    fn batch_plan_commits_in_one_transaction_in_order() {
        let (exec, eng) = setup_with(TemplateConfig {
            batched: true,
            ..cfg(Strategy::ThreePath)
        });
        let cell = TxCell::new(0);
        let plan = [BatchOp::Insert(1, 0), BatchOp::Insert(2, 0)];
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let (out, path) = exec.run_batch(
            &mut th,
            &mut stats,
            &plan,
            |op| Add { cell: &cell, n: op.key() },
            |_| panic!("no section on the fast path"),
        );
        assert_eq!((out, path), (vec![0, 1], PathKind::Fast));
        assert_eq!(cell.load_direct(exec.runtime()), 3);
        assert_eq!(stats.batch_txns(), 1);
    }

    /// An escalated batch runs its plan and the hook's plans in one locked
    /// section; the hook's operations count as combined.
    #[test]
    fn escalated_batch_runs_the_combining_hook_in_its_section() {
        let (exec, eng) = setup_with(TemplateConfig {
            batched: true,
            limits: Some(PathLimits { fast: 0, middle: 0 }),
            ..cfg(Strategy::Tle)
        });
        let rt = exec.runtime().clone();
        let cell = TxCell::new(0);
        let step = |op: BatchOp| Add { cell: &cell, n: op.key() };
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let (out, path) = exec.run_batch(
            &mut th,
            &mut stats,
            &[BatchOp::Insert(1, 0), BatchOp::Insert(2, 0)],
            step,
            |section| {
                assert!(exec.tle_lock().is_held(&rt));
                assert_eq!(section.apply(&[BatchOp::Remove(4)], step), [3]);
            },
        );
        assert_eq!((out, path), (vec![0, 1], PathKind::Fallback));
        assert_eq!(cell.load_direct(&rt), 7);
        assert_eq!(stats.combined_ops(), 1);
        assert_eq!(stats.batch_txns(), 1, "one serialized section");
        assert!(!exec.tle_lock().is_held(&rt));
    }

    /// An empty plan returns at once, and touches no lane.
    #[test]
    fn empty_batch_returns_at_once() {
        let (exec, eng) = setup(Strategy::ThreePath);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let cell = TxCell::new(0);
        let (out, path) = exec.run_batch(
            &mut th,
            &mut stats,
            &[],
            |_| Add { cell: &cell, n: 1 },
            |_| unreachable!(),
        );
        assert_eq!((out, path), (vec![], PathKind::Fast));
        assert_eq!(stats.batches(), 0);
    }
}
