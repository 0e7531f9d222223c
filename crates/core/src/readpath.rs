//! The uninstrumented read path.
//!
//! The template paper's headline property is that *searches require no
//! synchronization at all*: node keys are immutable and child pointers
//! change only through atomic SCX commits, so an epoch-pinned traversal is
//! linearizable with no HTM, no locks and no validation. The template's
//! paths ([`ExecCtx::run_query`]) cannot express that — every operation
//! they drive pays transaction begin/abort handling, lock/`F`
//! subscription and attempt budgets, and under an abort storm read-only
//! lookups needlessly fall back to the serialized paths.
//!
//! This module is the dedicated entry for reads:
//!
//! * [`ExecCtx::run_read`] — a wait-free read: pin the epoch, run the
//!   operation's [walk](ReadOp::walk) with direct loads, record the
//!   completion on the
//!   [`PathKind::Read`] stats lane. No subscription, no attempt budget, no
//!   fallback escalation. Correct whenever the traversal is linearizable
//!   on its own (the BST: immutable leaves, atomic pointer swings).
//! * [`ExecCtx::run_read_validated`] — an *optimistic* read for structures
//!   whose nodes mutate in place (the (a,b)-tree's leaves): each attempt
//!   performs a seqlock-validated traversal and reports `None` when the
//!   validation lost a race; after [`bounded`](DEFAULT_READ_ATTEMPTS)
//!   failures the read returns `None` to the caller, which escalates to
//!   the transactional machinery via [`ExecCtx::run_query`]. Retries and
//!   escalations are tallied in [`PathStats`].
//! * [`ExecCtx::run_scan`] — the multi-leaf extension, in the
//!   [`scan`](crate::scan) module: a walk that validates every leaf it
//!   copies and every edge it followed in one final pass, retried in
//!   full and then repaired hole by hole before the caller escalates it
//!   through [`ExecCtx::run_query`]. It shares this module's read bound.

use threepath_llxscx::ScxThread;

use crate::driver::ExecCtx;
use crate::op::{direct, ReadOp};
use crate::stats::{PathKind, PathStats};

/// Default bound on optimistic validation retries before a validated read
/// gives up and escalates to the transactional path. Validation fails only
/// while an in-place mutation of the traversed node is in flight, so in
/// the steady state a read never comes close to the bound; it exists so a
/// reader stalled behind a pathological mutation storm stays lock-free
/// rather than spinning forever.
pub const DEFAULT_READ_ATTEMPTS: u32 = 8;

impl ExecCtx {
    /// Runs a wait-free read: `op`'s walk, once, with direct loads under
    /// an epoch pin — no transaction, no lock or `F` subscription, no
    /// attempt budget — recorded on the [`PathKind::Read`] lane.
    ///
    /// The caller asserts that the walk is linearizable without
    /// validation (immutable node content; pointer changes are single
    /// atomic words). For structures that mutate nodes in place, use
    /// [`Self::run_read_validated`].
    pub fn run_read<O: ReadOp>(&self, th: &mut ScxThread, stats: &mut PathStats, op: &O) -> O::Out {
        let rt = &**self.runtime();
        let v = th.pinned(|_th| direct(op.walk(&mut &*rt)));
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
    /// routes the operation through [`Self::run_query`], whose paths do
    /// not rely on optimistic validation.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TemplateConfig;
    use crate::op::toy::{epoch_advance, ToyRead};
    use std::cell::Cell;
    use std::sync::Arc;
    use threepath_htm::{HtmConfig, HtmRuntime, TxCell};
    use threepath_llxscx::ScxEngine;
    use threepath_reclaim::{Domain, ReclaimMode};

    fn setup() -> (ExecCtx, ScxEngine) {
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        let eng = ScxEngine::new(rt.clone(), domain);
        (ExecCtx::new(rt, &TemplateConfig::default()), eng)
    }

    /// The walk runs once, under the pin: a second context of the
    /// domain cannot move the epoch more than one step during it.
    #[test]
    fn run_read_pins_and_records_only_the_read_lane() {
        let (exec, eng) = setup();
        let mut th = eng.register_thread();
        let other = eng.register_thread();
        let mut stats = PathStats::new();
        let cell = TxCell::new(42);
        let advanced = Cell::new(0);
        let mut op = ToyRead::new(&cell);
        op.on_walk = Box::new(|| advanced.set(epoch_advance(&other, 256)));
        let v = exec.run_read(&mut th, &mut stats, &op);
        assert_eq!(v, 42);
        assert_eq!(op.walks.get(), 1);
        assert!(advanced.get() <= 1, "the walk ran unpinned");
        assert!(epoch_advance(&other, 256) >= 2, "the epoch is stuck");
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
    fn validated_read_that_succeeds_at_once_has_no_retries() {
        let (exec, eng) = setup();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let mut calls = 0;
        let r = exec.run_read_validated(&mut th, &mut stats, DEFAULT_READ_ATTEMPTS, |_th| {
            calls += 1;
            Some(5)
        });
        assert_eq!(r, Some(5));
        assert_eq!(calls, 1);
        assert_eq!(stats.read_retries(), 0);
        assert_eq!(stats.completed(PathKind::Read), 1);
    }

    #[test]
    fn default_bound_spends_exactly_its_attempts() {
        let (exec, eng) = setup();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let mut calls = 0u32;
        let r: Option<()> =
            exec.run_read_validated(&mut th, &mut stats, DEFAULT_READ_ATTEMPTS, |_th| {
                calls += 1;
                None
            });
        assert_eq!(r, None);
        assert_eq!(DEFAULT_READ_ATTEMPTS, 8, "the documented default");
        assert_eq!(calls, DEFAULT_READ_ATTEMPTS);
        assert_eq!(stats.read_retries(), u64::from(DEFAULT_READ_ATTEMPTS));
        assert_eq!(stats.read_escalations(), 1);
    }

    #[test]
    fn every_validated_attempt_runs_under_the_pin() {
        let (exec, eng) = setup();
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let mut unpinned = 0;
        let _: Option<()> = exec.run_read_validated(&mut th, &mut stats, 3, |th| {
            if !th.reclaim.is_pinned() {
                unpinned += 1;
            }
            None
        });
        assert_eq!(unpinned, 0);
        assert!(!th.reclaim.is_pinned(), "the pin is released afterwards");
    }

    #[test]
    fn reads_ignore_f_and_the_lock() {
        // No subscription: a busy fallback (F active, TLE lock held)
        // neither blocks nor escalates a read.
        let (exec, eng) = setup();
        let rt = exec.runtime().clone();
        exec.fallback_indicator().arrive(&rt, 0);
        exec.tle_lock().acquire(&rt);
        let mut th = eng.register_thread();
        let mut stats = PathStats::new();
        let cell = TxCell::new(1);
        assert_eq!(exec.run_read(&mut th, &mut stats, &ToyRead::new(&cell)), 1);
        assert_eq!(
            exec.run_read_validated(&mut th, &mut stats, 1, |_| Some(2)),
            Some(2)
        );
        assert_eq!(stats.completed(PathKind::Read), 2);
        assert_eq!(stats.read_escalations(), 0);
        assert_eq!(stats.total_aborts(), 0);
        exec.tle_lock().release(&rt);
        exec.fallback_indicator().depart(&rt, 0);
    }
}
