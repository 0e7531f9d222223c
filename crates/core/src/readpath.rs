//! The uninstrumented read path.
//!
//! The template paper's headline property is that *searches require no
//! synchronization at all*: node keys are immutable and child pointers
//! change only through atomic SCX commits, so an epoch-pinned traversal is
//! linearizable with no HTM, no locks and no validation. [`run_op`] cannot
//! express that — every operation it drives pays transaction begin/abort
//! handling, lock/`F` subscription and attempt-budget tallying, and under
//! an abort storm read-only lookups needlessly fall back to the serialized
//! paths.
//!
//! This module is the dedicated entry for reads:
//!
//! * [`ExecCtx::run_read`] — a wait-free read: pin the epoch, run the
//!   direct traversal, record the completion on the
//!   [`PathKind::Read`] stats lane. No subscription, no budget tally, no
//!   fallback escalation. Correct whenever the traversal is linearizable
//!   on its own (the BST: immutable leaves, atomic pointer swings).
//! * [`ExecCtx::run_read_validated`] — an *optimistic* read for structures
//!   whose nodes mutate in place (the (a,b)-tree's leaves): each attempt
//!   performs a seqlock-validated traversal and reports `None` when the
//!   validation lost a race; after [`bounded`](DEFAULT_READ_ATTEMPTS)
//!   failures the read returns `None` to the caller, which escalates to
//!   the transactional machinery via [`run_op`]. Retries and escalations
//!   are tallied in [`PathStats`].
//! * [`ExecCtx::run_scan`] — the multi-leaf extension, a two-rung
//!   *ladder*: each full attempt walks every leaf covering `[lo, hi)`
//!   while accumulating a flat *validation set* (leaf version words and
//!   followed edges) and re-validates the whole set at the end; a lost
//!   race retries the full scan, and once the full-scan budget is
//!   exhausted a single *partial rescan* attempt re-reads only the
//!   invalidated subranges and re-validates the *combined* set (so the
//!   result is still a single-instant snapshot). When even the partial
//!   rescan loses, the scan gives up and the caller runs it as a template
//!   operation through [`run_op_escalated`]. Scan retries, escalations and
//!   validation-set sizes are tallied on [`PathStats`]' scan lane.
//!
//! [`run_op`]: ExecCtx::run_op
//! [`run_op_escalated`]: ExecCtx::run_op_escalated

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use threepath_htm::CachePadded;
use threepath_llxscx::ScxThread;

use crate::controller::{Controller, ProbeConfig, ProbingController, Window};
use crate::driver::ExecCtx;
use crate::stats::{PathKind, PathStats};

/// Default bound on optimistic validation retries before a validated read
/// gives up and escalates to the transactional path. Validation fails only
/// while an in-place mutation of the traversed node is in flight, so in
/// the steady state a read never comes close to the bound; it exists so a
/// reader stalled behind a pathological mutation storm stays lock-free
/// rather than spinning forever.
pub const DEFAULT_READ_ATTEMPTS: u32 = 8;

/// Attempt-equivalent cost charged for a read that escalated to the
/// transactional machinery, when scoring read-bound arms: an escalation
/// re-runs the whole operation through `run_op`, typically serializing
/// behind the lock or the fallback — far costlier than one more
/// optimistic traversal.
const ESCALATION_WEIGHT: u64 = 16;

/// Tuning for the probing read-escalation bound
/// ([`ExecCtx::with_read_probe`](crate::ExecCtx::with_read_probe)): how
/// many validation attempts an optimistic read or scan gets before
/// escalating, chosen empirically from a ladder of candidate bounds.
///
/// The calm read path stays zero-synchronization: only *contended* reads
/// (at least one failed validation, or an escalation) touch the shared
/// window, so an uncontended workload never pays for the controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadBoundConfig {
    /// Contended reads per decision window. Must be at least 2 (a
    /// one-read window carries no comparative signal and degenerates
    /// the claim guard).
    pub epoch_ops: u64,
    /// Candidate bounds, each one arm of the probing controller. Must be
    /// non-empty with every entry positive.
    pub ladder: Vec<u32>,
    /// Probe/settle cadence for the controller.
    pub probe: ProbeConfig,
}

impl Default for ReadBoundConfig {
    fn default() -> Self {
        ReadBoundConfig {
            epoch_ops: 256,
            ladder: vec![2, 4, DEFAULT_READ_ATTEMPTS, 16],
            probe: ProbeConfig::default(),
        }
    }
}

impl ReadBoundConfig {
    /// Checks the tuning for degeneracy (the conditions
    /// [`ExecCtx::with_read_probe`](crate::ExecCtx::with_read_probe)
    /// panics on; config layers surface them as typed errors).
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.epoch_ops < 2 {
            return Err("read-probe epoch_ops must be at least 2");
        }
        if self.epoch_ops > (1 << 30) {
            return Err("read-probe epoch_ops must be at most 2^30");
        }
        if self.ladder.is_empty() {
            return Err("read-probe ladder must name at least one bound");
        }
        if self.ladder.contains(&0) {
            return Err("read-probe bounds must be positive");
        }
        self.probe.validate()
    }

    /// The ladder arm probing starts from: the entry closest to the
    /// fixed default bound, so an unprobed context and a fresh probing
    /// one begin with the same behavior.
    fn initial_arm(&self) -> usize {
        self.ladder
            .iter()
            .enumerate()
            .min_by_key(|(_, &b)| b.abs_diff(DEFAULT_READ_ATTEMPTS))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// The read-escalation bound as a contention-manager client: a probing
/// controller over [`ReadBoundConfig::ladder`], fed only by contended
/// reads, its chosen bound cached in an atomic the read path loads once
/// per operation.
#[derive(Debug)]
pub(crate) struct ReadBound {
    cfg: ReadBoundConfig,
    ctl: ProbingController,
    /// The bound in effect — `ladder[ctl.arm()]`, cached.
    bound: CachePadded<AtomicU32>,
    /// `contended reads << 32 | failed validations`, pushed only by
    /// contended reads. Both halves stay far below 2³²: the read count
    /// claims the window at `epoch_ops ≤ 2³⁰`, and each read
    /// contributes at most `max(ladder) + 1` failures.
    win: CachePadded<AtomicU64>,
    /// Escalations in the window.
    win_esc: CachePadded<AtomicU64>,
    /// Single-claimant latch: the claimant swaps the windows, so racing
    /// claimants discard nothing.
    deciding: AtomicBool,
    epochs: AtomicU64,
}

impl ReadBound {
    /// # Panics
    ///
    /// Panics on tuning [`ReadBoundConfig::validate`] rejects.
    pub(crate) fn new(cfg: ReadBoundConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid read-probe tuning: {e}");
        }
        let initial = cfg.initial_arm();
        let ctl = ProbingController::new(cfg.ladder.len(), initial, cfg.probe);
        ReadBound {
            bound: CachePadded::new(AtomicU32::new(cfg.ladder[initial])),
            ctl,
            win: CachePadded::new(AtomicU64::new(0)),
            win_esc: CachePadded::new(AtomicU64::new(0)),
            deciding: AtomicBool::new(false),
            epochs: AtomicU64::new(0),
            cfg,
        }
    }

    /// The escalation bound currently in effect.
    pub(crate) fn bound(&self) -> u32 {
        self.bound.load(Ordering::Acquire)
    }

    /// Decision windows completed.
    pub(crate) fn epochs(&self) -> u64 {
        self.epochs.load(Ordering::Relaxed)
    }

    /// Feeds one *contended* read: `failed` validation failures (≥ 1, or
    /// an escalation) and whether the read escalated to `run_op`.
    pub(crate) fn note(&self, failed: u64, escalated: bool) {
        if escalated {
            self.win_esc.fetch_add(1, Ordering::Relaxed);
        }
        let add = (1u64 << 32) | failed.min(u64::from(u32::MAX));
        let reads = (self.win.fetch_add(add, Ordering::Relaxed) + add) >> 32;
        if reads < self.cfg.epoch_ops {
            return;
        }
        if self
            .deciding
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let w = self.win.swap(0, Ordering::Relaxed);
        let esc = self.win_esc.swap(0, Ordering::Relaxed);
        let (reads, failures) = (w >> 32, w & u64::from(u32::MAX));
        // A racing claimant right behind the swap sees a near-empty
        // window: no signal, no decision.
        if reads < self.cfg.epoch_ops / 2 {
            self.deciding.store(false, Ordering::Release);
            return;
        }
        let completions = reads.saturating_sub(esc);
        let window = Window {
            ops: completions,
            // Each completed read costs its failures plus the final
            // success; escalations are charged the run_op penalty.
            attempts: completions + failures + esc * ESCALATION_WEIGHT,
            conflicts: esc,
            other: failures,
            nanos: 0,
        };
        let arm = self.ctl.arm();
        self.ctl.observe(arm, window);
        self.bound
            .store(self.cfg.ladder[self.ctl.arm()], Ordering::Release);
        self.epochs.fetch_add(1, Ordering::Relaxed);
        self.deciding.store(false, Ordering::Release);
    }
}

/// Per-scan bookkeeping an optimistic scan attempt reports back through
/// [`ExecCtx::run_scan`]: how much validation work the attempts did, folded
/// into [`PathStats::scan_leaves_validated`] when the scan finishes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanTally {
    /// Leaves (or nodes) whose validation word was captured and re-checked.
    pub leaves: u64,
}

/// Merges a set of half-open `[lo, hi)` subranges into a minimal sorted
/// list of disjoint subranges (empty inputs are dropped, overlapping and
/// adjacent inputs coalesce). The partial-rescan tier of an optimistic
/// scan uses this to turn the invalidated validation-set entries into the
/// holes it re-reads.
pub fn merge_subranges(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ranges.retain(|&(lo, hi)| lo < hi);
    ranges.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for (lo, hi) in ranges {
        match out.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

impl ExecCtx {
    /// Runs a wait-free read-only operation: `body` executes exactly once
    /// under an epoch pin with plain direct memory access — no
    /// transaction, no lock or `F` subscription, no attempt budget — and
    /// its completion lands on the [`PathKind::Read`] stats lane.
    ///
    /// The caller asserts that `body`'s traversal is linearizable without
    /// validation (immutable node content; pointer changes are single
    /// atomic words). For structures that mutate nodes in place, use
    /// [`Self::run_read_validated`].
    pub fn run_read<T>(
        &self,
        th: &mut ScxThread,
        stats: &mut PathStats,
        body: impl FnOnce(&mut ScxThread) -> T,
    ) -> T {
        let v = th.pinned(body);
        stats.record_completed(PathKind::Read);
        v
    }

    /// Runs an optimistic read: `attempt` executes under an epoch pin and
    /// returns `None` when its seqlock validation failed (an in-place
    /// mutation raced the traversal), in which case it is retried up to
    /// `max_attempts` times in total.
    ///
    /// Returns `Some` with the read's result on success (recorded on the
    /// [`PathKind::Read`] lane, failed attempts tallied as
    /// [read retries](PathStats::read_retries)), or `None` once every
    /// attempt failed validation — recorded as a
    /// [read escalation](PathStats::read_escalations); the caller then
    /// routes the operation through [`Self::run_op`], whose paths do not
    /// rely on optimistic validation.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `max_attempts` is zero.
    pub fn run_read_validated<T>(
        &self,
        th: &mut ScxThread,
        stats: &mut PathStats,
        max_attempts: u32,
        mut attempt: impl FnMut(&mut ScxThread) -> Option<T>,
    ) -> Option<T> {
        debug_assert!(max_attempts > 0, "at least one optimistic attempt");
        let (out, failed) = th.pinned(|th| {
            for i in 0..max_attempts {
                if let Some(v) = attempt(th) {
                    return (Some(v), u64::from(i));
                }
            }
            (None, u64::from(max_attempts))
        });
        stats.add_read_retries(failed);
        // Only contended reads feed the probing bound; the calm path
        // stays free of shared writes.
        if failed > 0 {
            if let Some(rb) = self.read_bound() {
                rb.note(failed, out.is_none());
            }
        }
        match out {
            Some(v) => {
                stats.record_completed(PathKind::Read);
                Some(v)
            }
            None => {
                stats.record_read_escalation();
                None
            }
        }
    }

    /// Runs an optimistic multi-leaf range scan: up to `max_attempts` full
    /// `attempt`s execute under one epoch pin, each returning `None` when
    /// its validation-set re-check lost a race; once the full-scan budget
    /// is exhausted, one `partial` attempt runs — the backend's
    /// partial-rescan tier, which re-reads only the invalidated subranges
    /// of the last full attempt and re-validates the *combined* set (so
    /// the result is still a single-instant snapshot).
    ///
    /// Returns `Some` on success (recorded on the [`PathKind::Read`] lane;
    /// failed attempts tallied as [scan retries](PathStats::scan_retries))
    /// or `None` once even the partial rescan failed — recorded as a
    /// [scan escalation](PathStats::scan_escalations); the caller then
    /// routes the scan through the transactional machinery
    /// ([`Self::run_op_escalated`]). Validation-set sizes accumulated in
    /// the attempts' [`ScanTally`] land on
    /// [`PathStats::scan_leaves_validated`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `max_attempts` is zero.
    pub fn run_scan<T>(
        &self,
        th: &mut ScxThread,
        stats: &mut PathStats,
        max_attempts: u32,
        mut attempt: impl FnMut(&mut ScxThread, &mut ScanTally) -> Option<T>,
        mut partial: impl FnMut(&mut ScxThread, &mut ScanTally) -> Option<T>,
    ) -> Option<T> {
        debug_assert!(max_attempts > 0, "at least one optimistic attempt");
        let mut tally = ScanTally::default();
        let (out, failed) = th.pinned(|th| {
            for i in 0..max_attempts {
                if let Some(v) = attempt(th, &mut tally) {
                    return (Some(v), u64::from(i));
                }
            }
            match partial(th, &mut tally) {
                Some(v) => (Some(v), u64::from(max_attempts)),
                None => (None, u64::from(max_attempts) + 1),
            }
        });
        stats.add_scan_retries(failed);
        stats.add_scan_leaves_validated(tally.leaves);
        if failed > 0 {
            if let Some(rb) = self.read_bound() {
                rb.note(failed, out.is_none());
            }
        }
        match out {
            Some(v) => {
                stats.record_completed(PathKind::Read);
                Some(v)
            }
            None => {
                stats.record_scan_escalation();
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;
    use std::sync::Arc;
    use threepath_htm::{HtmConfig, HtmRuntime};
    use threepath_llxscx::ScxEngine;
    use threepath_reclaim::{Domain, ReclaimMode};

    fn setup() -> (ExecCtx, ScxEngine) {
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        let eng = ScxEngine::new(rt.clone(), domain);
        (ExecCtx::new(rt, Strategy::ThreePath), eng)
    }

    #[test]
    fn run_read_pins_and_records_only_the_read_lane() {
        let (exec, eng) = setup();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let v = exec.run_read(&mut th, &mut stats, |th| {
            assert!(th.reclaim.is_pinned(), "read body runs under a pin");
            42
        });
        assert_eq!(v, 42);
        assert!(!th.reclaim.is_pinned());
        assert_eq!(stats.completed(PathKind::Read), 1);
        for p in [PathKind::Fast, PathKind::Middle, PathKind::Fallback] {
            assert_eq!(stats.completed(p), 0);
            assert_eq!(stats.commits(p), 0);
            assert_eq!(stats.aborts(p).total(), 0);
        }
        assert_eq!(stats.read_retries(), 0);
        assert_eq!(stats.read_escalations(), 0);
    }

    #[test]
    fn validated_read_counts_retries_on_late_success() {
        let (exec, eng) = setup();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let mut calls = 0;
        let r = exec.run_read_validated(&mut th, &mut stats, 8, |_th| {
            calls += 1;
            (calls == 3).then_some(7)
        });
        assert_eq!(r, Some(7));
        assert_eq!(calls, 3);
        assert_eq!(stats.completed(PathKind::Read), 1);
        assert_eq!(stats.read_retries(), 2, "two failed validations");
        assert_eq!(stats.read_escalations(), 0);
    }

    #[test]
    fn validated_read_escalates_after_the_bound() {
        let (exec, eng) = setup();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let mut calls = 0u32;
        let r: Option<u64> = exec.run_read_validated(&mut th, &mut stats, 4, |_th| {
            calls += 1;
            None
        });
        assert_eq!(r, None);
        assert_eq!(calls, 4, "exactly max_attempts attempts");
        assert_eq!(stats.completed(PathKind::Read), 0, "no read completion");
        assert_eq!(stats.read_retries(), 4);
        assert_eq!(stats.read_escalations(), 1);
    }

    #[test]
    fn scan_success_records_read_lane_and_leaves() {
        let (exec, eng) = setup();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let r = exec.run_scan(
            &mut th,
            &mut stats,
            8,
            |th, tally| {
                assert!(th.reclaim.is_pinned(), "scan attempts run pinned");
                tally.leaves += 5;
                Some(vec![(1u64, 2u64)])
            },
            |_th, _tally| unreachable!("first attempt succeeded"),
        );
        assert_eq!(r, Some(vec![(1, 2)]));
        assert!(!th.reclaim.is_pinned());
        assert_eq!(stats.completed(PathKind::Read), 1);
        assert_eq!(stats.scan_retries(), 0);
        assert_eq!(stats.scan_escalations(), 0);
        assert_eq!(stats.scan_leaves_validated(), 5);
    }

    #[test]
    fn scan_retries_then_partial_rescue_counts_full_failures() {
        let (exec, eng) = setup();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let mut full_calls = 0u32;
        let r = exec.run_scan(
            &mut th,
            &mut stats,
            3,
            |_th, tally| {
                full_calls += 1;
                tally.leaves += 2;
                None
            },
            |_th, tally| {
                tally.leaves += 1;
                Some(99u64)
            },
        );
        assert_eq!(r, Some(99));
        assert_eq!(full_calls, 3, "full budget exhausted before partial");
        assert_eq!(stats.completed(PathKind::Read), 1);
        assert_eq!(stats.scan_retries(), 3, "every full attempt failed");
        assert_eq!(stats.scan_escalations(), 0, "partial rescan rescued it");
        assert_eq!(stats.scan_leaves_validated(), 7);
    }

    #[test]
    fn scan_escalates_when_even_the_partial_rescan_fails() {
        let (exec, eng) = setup();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let mut partial_calls = 0u32;
        let r: Option<u64> = exec.run_scan(
            &mut th,
            &mut stats,
            2,
            |_th, _tally| None,
            |_th, _tally| {
                partial_calls += 1;
                None
            },
        );
        assert_eq!(r, None);
        assert_eq!(partial_calls, 1, "exactly one partial-rescan attempt");
        assert_eq!(stats.completed(PathKind::Read), 0);
        assert_eq!(stats.scan_retries(), 3, "two full + one partial failure");
        assert_eq!(stats.scan_escalations(), 1);
    }

    fn probe_cfg(epoch_ops: u64, ladder: Vec<u32>) -> ReadBoundConfig {
        ReadBoundConfig {
            epoch_ops,
            ladder,
            probe: ProbeConfig::default(),
        }
    }

    #[test]
    fn read_bound_starts_near_the_default() {
        let rb = ReadBound::new(ReadBoundConfig::default());
        assert_eq!(rb.bound(), DEFAULT_READ_ATTEMPTS);
        let rb = ReadBound::new(probe_cfg(64, vec![2, 6, 16]));
        assert_eq!(rb.bound(), 6, "closest ladder entry to the default");
    }

    #[test]
    fn read_bound_prefers_completing_over_escalating() {
        // A validation storm a deep bound can ride out: with bound 2
        // every read burns both attempts and escalates; with bound 16 it
        // completes on the third try. Probing must settle on 16.
        let rb = ReadBound::new(probe_cfg(16, vec![2, 16]));
        for _ in 0..2_000 {
            if rb.bound() == 2 {
                rb.note(2, true);
            } else {
                rb.note(3, false);
            }
        }
        assert!(rb.epochs() > 0, "contended reads must claim windows");
        assert_eq!(
            rb.cfg.ladder[rb.ctl.incumbent()],
            16,
            "escalation-heavy arms must lose to completing arms"
        );
    }

    #[test]
    fn uncontended_reads_never_touch_the_window() {
        let (exec, eng) = {
            let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
            let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
            let eng = ScxEngine::new(rt.clone(), domain);
            (
                ExecCtx::new(rt, Strategy::ThreePath)
                    .with_read_probe(ReadBoundConfig::default()),
                eng,
            )
        };
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        for _ in 0..100 {
            let r = exec.run_read_validated(&mut th, &mut stats, exec.read_attempts(), |_th| {
                Some(1u64)
            });
            assert_eq!(r, Some(1));
        }
        let rb = exec.read_bound().expect("probe configured");
        assert_eq!(rb.win.load(std::sync::atomic::Ordering::Relaxed), 0);
        assert_eq!(rb.epochs(), 0, "calm reads feed nothing");
    }

    #[test]
    fn contended_reads_feed_the_bound_through_the_exec_entrypoints() {
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        let eng = ScxEngine::new(rt.clone(), domain);
        let exec = ExecCtx::new(rt, Strategy::ThreePath)
            .with_read_probe(probe_cfg(4, vec![2, 8]));
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        // Every read fails once then completes: contended, never
        // escalated.
        for _ in 0..64 {
            let mut calls = 0;
            exec.run_read_validated(&mut th, &mut stats, exec.read_attempts(), |_th| {
                calls += 1;
                (calls > 1).then_some(0u64)
            });
        }
        let rb = exec.read_bound().expect("probe configured");
        assert!(rb.epochs() > 0, "contended reads must turn windows");
        // Scans feed the same bound.
        let before = rb.epochs();
        for _ in 0..64 {
            let mut calls = 0;
            exec.run_scan(
                &mut th,
                &mut stats,
                exec.read_attempts(),
                |_th, _tally| {
                    calls += 1;
                    (calls > 1).then_some(0u64)
                },
                |_th, _tally| Some(0u64),
            );
        }
        assert!(rb.epochs() > before, "scan contention counts too");
    }

    #[test]
    fn degenerate_read_probe_tuning_is_rejected() {
        assert!(probe_cfg(1, vec![2, 4]).validate().is_err(), "tiny epoch");
        assert!(probe_cfg(64, vec![]).validate().is_err(), "empty ladder");
        assert!(probe_cfg(64, vec![4, 0]).validate().is_err(), "zero bound");
        assert!(probe_cfg(64, vec![2, 4]).validate().is_ok());
    }

    #[test]
    fn merge_subranges_coalesces_and_sorts() {
        assert_eq!(merge_subranges(vec![]), vec![]);
        assert_eq!(merge_subranges(vec![(5, 5), (9, 3)]), vec![], "empties dropped");
        assert_eq!(
            merge_subranges(vec![(10, 20), (5, 8), (19, 25), (8, 9)]),
            vec![(5, 9), (10, 25)],
            "overlap and adjacency coalesce, gaps stay split"
        );
        assert_eq!(
            merge_subranges(vec![(0, 1), (1, 2), (3, 4)]),
            vec![(0, 2), (3, 4)]
        );
    }
}
