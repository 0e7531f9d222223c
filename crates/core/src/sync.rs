//! The fallback-path counter `F`, the TLE global lock, and the HTM
//! admission gate.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use threepath_htm::{Backoff, CachePadded, HtmRuntime, TxCell};

/// The paper's global fetch-and-increment object `F`, counting how many
/// operations are currently executing on the fallback path.
///
/// Fast-path transactions *subscribe* by reading it at transaction begin
/// and aborting when non-zero; fallback operations increment on entry and
/// decrement on exit. (The paper notes a SNZI object could replace this if
/// fetch-and-increment scalability became a concern.)
#[derive(Debug, Default)]
pub struct FallbackCount {
    cell: CachePadded<TxCell>,
}

impl FallbackCount {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying cell (for transactional subscription).
    pub fn cell(&self) -> &TxCell {
        &self.cell
    }

    /// Registers an operation entering the fallback path.
    pub fn increment(&self, rt: &HtmRuntime) {
        self.cell.fetch_add_direct(rt, 1);
    }

    /// Registers an operation leaving the fallback path.
    pub fn decrement(&self, rt: &HtmRuntime) {
        let prev = self.cell.fetch_sub_direct(rt, 1);
        debug_assert!(prev > 0, "fallback count underflow");
    }

    /// Direct read (used when waiting for the fallback path to drain).
    pub fn load(&self, rt: &HtmRuntime) -> u64 {
        self.cell.load_direct(rt)
    }
}

/// The TLE global lock. Fast-path transactions read the lock word inside
/// the transaction (aborting if held, and conflicting with any later
/// acquisition); the fallback acquires it for exclusive sequential access.
#[derive(Debug, Default)]
pub struct TleLock {
    cell: CachePadded<TxCell>,
}

impl TleLock {
    /// An unheld lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying cell (for transactional subscription).
    pub fn cell(&self) -> &TxCell {
        &self.cell
    }

    /// Whether the lock is currently held.
    pub fn is_held(&self, rt: &HtmRuntime) -> bool {
        self.cell.load_direct(rt) != 0
    }

    /// Acquires the lock, spinning with capped exponential backoff (and
    /// jitter — see [`Backoff`]) so contending acquirers don't hammer the
    /// lock line in lockstep.
    pub fn acquire(&self, rt: &HtmRuntime) {
        if self.cell.cas_direct(rt, 0, 1).is_ok() {
            return;
        }
        // Seed mixes a stack-local address so contending acquirers draw
        // different jitter sequences (same-seed waiters would re-probe in
        // lockstep, defeating the jitter).
        let local = 0u8;
        let mut backoff = Backoff::new(self as *const _ as u64 ^ (&local as *const u8 as u64));
        loop {
            backoff.wait();
            // Probe with a plain load first: a failed CAS takes the line
            // exclusive and slows the eventual release.
            if self.cell.load_direct(rt) == 0 && self.cell.cas_direct(rt, 0, 1).is_ok() {
                return;
            }
        }
    }

    /// Releases the lock.
    pub fn release(&self, rt: &HtmRuntime) {
        let prev = self.cell.cas_direct(rt, 1, 0);
        debug_assert!(prev.is_ok(), "releasing a lock that is not held");
    }
}

/// Counter-gated HTM admission window (after memento's
/// `tas_priority_lock_tm`): while the serialized fallback is active, at
/// most `cap` threads may keep burning HTM attempts that subscribe to
/// it; the overflow parks on a *ready* lane and takes the serialized
/// path directly. Under a conflict storm this converts abort livelock —
/// every thread's transactions repeatedly killed by the lock word or by
/// each other — into queued progress, and the ready lane has priority:
/// while any overflow thread is still queued, fresh arrivals are not
/// admitted to the window either, so the queue drains instead of
/// starving.
///
/// The gate is advisory machinery on the *entry* decision only; it never
/// changes what a path is allowed to do, so correctness is untouched
/// when the counters race (a transient over-admit costs a few extra
/// doomed attempts, nothing more).
#[derive(Debug)]
pub struct AdmissionGate {
    /// The window width.
    cap: u32,
    /// Threads currently admitted to attempt HTM against a busy fallback.
    window: CachePadded<AtomicU32>,
    /// Overflow threads queued for the serialized path.
    ready: CachePadded<AtomicU32>,
    /// Times a thread was turned away at the gate (diagnostics).
    overflows: AtomicU64,
}

impl AdmissionGate {
    /// A gate admitting at most `cap` threads to the HTM window.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` — a zero-width window would send every
    /// operation down the serialized path and the gate would never
    /// observe the storm ending.
    pub fn new(cap: u32) -> Self {
        assert!(cap > 0, "admission window must admit at least one thread");
        AdmissionGate {
            cap,
            window: CachePadded::new(AtomicU32::new(0)),
            ready: CachePadded::new(AtomicU32::new(0)),
            overflows: AtomicU64::new(0),
        }
    }

    /// The window width.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// Tries to enter the HTM window. On `false` the caller must go to
    /// the serialized path (bracketing it with [`Self::ready_arrive`] /
    /// [`Self::ready_depart`]); on `true` it may attempt HTM and must
    /// call [`Self::exit`] when it leaves the window, however it leaves.
    pub fn try_enter(&self) -> bool {
        // Queued threads have priority: while the ready lane is occupied
        // the window admits no one new.
        if self.ready.load(Ordering::Acquire) > 0 {
            self.overflows.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let n = self.window.fetch_add(1, Ordering::AcqRel);
        if n >= self.cap {
            self.window.fetch_sub(1, Ordering::AcqRel);
            self.overflows.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Leaves the HTM window (paired with a successful [`Self::try_enter`]).
    pub fn exit(&self) {
        let prev = self.window.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "admission window underflow");
    }

    /// Registers an overflow thread queuing for the serialized path.
    pub fn ready_arrive(&self) {
        self.ready.fetch_add(1, Ordering::AcqRel);
    }

    /// Unregisters an overflow thread that finished its serialized pass.
    pub fn ready_depart(&self) {
        let prev = self.ready.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "ready lane underflow");
    }

    /// Threads currently inside the HTM window.
    pub fn in_window(&self) -> u32 {
        self.window.load(Ordering::Acquire)
    }

    /// Threads currently queued on the ready lane.
    pub fn ready(&self) -> u32 {
        self.ready.load(Ordering::Acquire)
    }

    /// Times the gate turned a thread away.
    pub fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed)
    }
}

/// The fallback-path presence indicator used by `F`-subscribing
/// strategies: either the paper's default fetch-and-increment counter, or
/// the SNZI alternative it mentions (Section 5).
#[derive(Debug)]
pub enum Indicator {
    /// Plain fetch-and-increment counter (the paper's default).
    Counter(FallbackCount),
    /// Scalable non-zero indicator \[17\]: transitions-only writes to the
    /// subscribed cell.
    Snzi(crate::snzi::Snzi),
}

impl Indicator {
    /// The cell fast-path transactions subscribe to.
    pub fn cell(&self) -> &TxCell {
        match self {
            Indicator::Counter(c) => c.cell(),
            Indicator::Snzi(s) => s.cell(),
        }
    }

    /// Interprets a raw value read from [`Self::cell`].
    pub fn raw_is_active(&self, raw: u64) -> bool {
        match self {
            Indicator::Counter(_) => raw != 0,
            Indicator::Snzi(_) => crate::snzi::Snzi::raw_is_active(raw),
        }
    }

    /// Registers an operation entering the fallback path.
    pub fn arrive(&self, rt: &HtmRuntime, tid: u16) {
        match self {
            Indicator::Counter(c) => c.increment(rt),
            Indicator::Snzi(s) => s.arrive(rt, tid),
        }
    }

    /// Registers an operation leaving the fallback path.
    pub fn depart(&self, rt: &HtmRuntime, tid: u16) {
        match self {
            Indicator::Counter(c) => c.decrement(rt),
            Indicator::Snzi(s) => s.depart(rt, tid),
        }
    }

    /// Whether any operation is currently on the fallback path.
    pub fn is_active(&self, rt: &HtmRuntime) -> bool {
        match self {
            Indicator::Counter(c) => c.load(rt) != 0,
            Indicator::Snzi(s) => s.is_active(rt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use threepath_htm::HtmConfig;

    #[test]
    fn fallback_count_inc_dec() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let f = FallbackCount::new();
        assert_eq!(f.load(&rt), 0);
        f.increment(&rt);
        f.increment(&rt);
        assert_eq!(f.load(&rt), 2);
        f.decrement(&rt);
        assert_eq!(f.load(&rt), 1);
        f.decrement(&rt);
        assert_eq!(f.load(&rt), 0);
    }

    #[test]
    fn tle_lock_mutual_exclusion() {
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        let lock = Arc::new(TleLock::new());
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rt = rt.clone();
                let lock = lock.clone();
                let counter = counter.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        lock.acquire(&rt);
                        // Non-atomic read-modify-write protected by the lock.
                        let v = counter.load(std::sync::atomic::Ordering::Relaxed);
                        counter.store(v + 1, std::sync::atomic::Ordering::Relaxed);
                        lock.release(&rt);
                    }
                });
            }
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 800);
        assert!(!lock.is_held(&rt));
    }

    #[test]
    fn tle_subscription_aborts_transaction() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let mut th = rt.register_thread();
        let lock = TleLock::new();
        lock.acquire(&rt);
        let r: Result<(), _> = rt.attempt(&mut th, |tx| {
            if tx.read(lock.cell())? != 0 {
                return Err(tx.abort(threepath_htm::codes::LOCK_HELD));
            }
            Ok(())
        });
        assert_eq!(
            r.unwrap_err().user_code(),
            Some(threepath_htm::codes::LOCK_HELD)
        );
        lock.release(&rt);
    }

    #[test]
    fn admission_gate_bounds_the_window() {
        let g = AdmissionGate::new(2);
        assert!(g.try_enter());
        assert!(g.try_enter());
        assert!(!g.try_enter(), "third entry exceeds the cap");
        assert_eq!(g.in_window(), 2);
        assert_eq!(g.overflows(), 1);
        g.exit();
        assert!(g.try_enter(), "freed slot is reusable");
        g.exit();
        g.exit();
        assert_eq!(g.in_window(), 0);
    }

    #[test]
    fn ready_lane_has_priority_over_fresh_entries() {
        let g = AdmissionGate::new(4);
        g.ready_arrive();
        assert!(
            !g.try_enter(),
            "while overflow threads are queued, nobody new is admitted"
        );
        assert_eq!(g.overflows(), 1, "the refusal was counted");
        g.ready_depart();
        assert!(g.try_enter(), "drained queue reopens the window");
        g.exit();
    }

    #[test]
    fn gate_counters_balance_under_races() {
        let g = Arc::new(AdmissionGate::new(2));
        std::thread::scope(|s| {
            for _ in 0..6 {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    for _ in 0..5_000 {
                        if g.try_enter() {
                            // Transient over-counts from concurrent
                            // fetch_add probes are bounded by the thread
                            // count on top of the cap.
                            assert!(g.in_window() <= 8, "window within cap + probes");
                            g.exit();
                        } else {
                            g.ready_arrive();
                            g.ready_depart();
                        }
                    }
                });
            }
        });
        assert_eq!(g.in_window(), 0, "every entry exited");
        assert_eq!(g.ready(), 0, "every queued thread departed");
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_width_gate_rejected() {
        let _ = AdmissionGate::new(0);
    }

    #[test]
    fn late_lock_acquisition_aborts_started_transaction() {
        // A fast-path transaction that subscribed before the lock was taken
        // must fail at commit: this is what makes TLE safe.
        let rt = HtmRuntime::new(HtmConfig::default());
        let mut th = rt.register_thread();
        let lock = TleLock::new();
        let data = CachePadded::new(TxCell::new(0));
        let r: Result<(), _> = rt.attempt(&mut th, |tx| {
            if tx.read(lock.cell())? != 0 {
                return Err(tx.abort(threepath_htm::codes::LOCK_HELD));
            }
            lock.acquire(&rt); // lock taken mid-transaction
            tx.write(&data, 1)?;
            Ok(())
        });
        assert!(r.is_err(), "commit must fail after the lock was acquired");
        assert_eq!(data.load_direct(&rt), 0);
        lock.release(&rt);
    }

    #[test]
    fn late_fallback_arrival_aborts_started_transaction() {
        // The 3-path fast path's safety argument: a transaction that read
        // F = 0 cannot commit once an operation arrives on the fallback.
        let rt = HtmRuntime::new(HtmConfig::default());
        let mut th = rt.register_thread();
        let f = FallbackCount::new();
        let data = CachePadded::new(TxCell::new(0));
        let r: Result<(), _> = rt.attempt(&mut th, |tx| {
            if tx.read(f.cell())? != 0 {
                return Err(tx.abort(threepath_htm::codes::F_NONZERO));
            }
            f.increment(&rt); // an operation enters the fallback
            tx.write(&data, 1)?;
            Ok(())
        });
        assert!(r.is_err(), "commit must fail after F changed");
        assert_eq!(data.load_direct(&rt), 0);
        f.decrement(&rt);
    }

    #[test]
    fn gate_reports_its_fixed_cap() {
        for cap in [1, 2, 16] {
            let g = AdmissionGate::new(cap);
            assert_eq!(g.cap(), cap);
            for _ in 0..cap {
                assert!(g.try_enter());
            }
            assert!(!g.try_enter(), "cap {cap} is the window width");
            assert_eq!(g.in_window(), cap);
        }
    }

    #[test]
    fn refusals_never_leak_window_slots() {
        let g = AdmissionGate::new(1);
        assert!(g.try_enter());
        for _ in 0..100 {
            assert!(!g.try_enter());
        }
        assert_eq!(g.in_window(), 1, "a refused entry gives its slot back");
        assert_eq!(g.overflows(), 100);
        g.exit();
        assert!(g.try_enter(), "the lone slot is free again");
        g.exit();
    }

    #[test]
    fn admitted_threads_never_exceed_the_cap() {
        // Refused probes may over-count the window transiently, but a
        // thread is admitted only when the count it saw was below the cap,
        // so the number of threads actually inside never exceeds it.
        let g = AdmissionGate::new(2);
        let inside = AtomicU32::new(0);
        let max_inside = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    for _ in 0..3_000 {
                        if g.try_enter() {
                            let n = inside.fetch_add(1, Ordering::AcqRel) + 1;
                            max_inside.fetch_max(n, Ordering::AcqRel);
                            inside.fetch_sub(1, Ordering::AcqRel);
                            g.exit();
                        }
                    }
                });
            }
        });
        assert!(max_inside.load(Ordering::Acquire) <= 2);
        assert_eq!(g.in_window(), 0);
    }

    #[test]
    fn counter_indicator_is_active_while_any_operation_remains() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let f = Indicator::Counter(FallbackCount::new());
        assert!(!f.is_active(&rt));
        f.arrive(&rt, 0);
        f.arrive(&rt, 1);
        f.depart(&rt, 0);
        assert!(f.is_active(&rt), "one operation still on the fallback");
        assert!(f.raw_is_active(f.cell().load_direct(&rt)));
        f.depart(&rt, 1);
        assert!(!f.is_active(&rt));
        assert!(!f.raw_is_active(0));
        assert!(f.raw_is_active(2), "any non-zero count is active");
    }

    #[test]
    fn snzi_indicator_reads_the_same_through_its_cell() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let f = Indicator::Snzi(crate::snzi::Snzi::new());
        assert!(!f.raw_is_active(f.cell().load_direct(&rt)));
        f.arrive(&rt, 3);
        assert!(f.is_active(&rt));
        assert!(f.raw_is_active(f.cell().load_direct(&rt)));
        f.depart(&rt, 3);
        assert!(!f.is_active(&rt));
        assert!(!f.raw_is_active(f.cell().load_direct(&rt)));
    }

    #[test]
    fn tle_lock_is_reacquirable_after_release() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let lock = TleLock::new();
        for _ in 0..3 {
            assert!(!lock.is_held(&rt));
            lock.acquire(&rt);
            assert!(lock.is_held(&rt));
            lock.release(&rt);
        }
        assert!(!lock.is_held(&rt));
    }
}
