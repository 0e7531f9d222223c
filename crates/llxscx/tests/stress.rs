//! Concurrent stress tests for LLX/SCX: lost-update freedom, and helping
//! under contention while every thread reuses its one SCX-record and
//! retires the counter boxes it replaces.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use threepath_htm::{HtmConfig, HtmRuntime, TxCell};
use threepath_llxscx::{LlxResult, ScxArgs, ScxEngine, ScxHeader};
use threepath_reclaim::{Domain, ReclaimMode};

/// A single-register Data-record whose one mutable field points to a boxed
/// counter value. Each operation replaces the box with `value + 1`; if SCX
/// is atomic and lost-update-free, the final value equals the number of
/// successful operations.
struct RegNode {
    hdr: ScxHeader,
    cells: [TxCell; 1],
}

// SAFETY: shared intentionally; all mutation is through the engine.
unsafe impl Sync for RegNode {}

fn run_counter_stress(cfg: HtmConfig, attempt_limit: u32, threads: usize, ops: usize) {
    let rt = Arc::new(HtmRuntime::new(cfg));
    let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
    let eng = Arc::new(ScxEngine::new(rt, domain.clone()).with_attempt_limit(attempt_limit));
    let node = Arc::new(RegNode {
        hdr: ScxHeader::new(),
        cells: [TxCell::new(Box::into_raw(Box::new(0u64)) as u64)],
    });
    let successes = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for _ in 0..threads {
            let eng = eng.clone();
            let node = node.clone();
            let successes = successes.clone();
            s.spawn(move || {
                let mut th = eng.register_thread();
                for _ in 0..ops {
                    loop {
                        let done = th.pinned(|th| {
                            let h = match eng.llx(th, &node.hdr, &node.cells) {
                                LlxResult::Snapshot(h) => h,
                                _ => return false,
                            };
                            let old_ptr = h.snapshot().get_ptr::<u64>(0);
                            // SAFETY: pinned; the box is retired only after
                            // a successful replacement and freed after
                            // grace.
                            let old_val = unsafe { *old_ptr };
                            let new_ptr = Box::into_raw(Box::new(old_val + 1));
                            let ok = eng.scx(
                                th,
                                &ScxArgs {
                                    v: &[&h],
                                    r_mask: 0,
                                    fld: &node.cells[0],
                                    old: old_ptr as u64,
                                    new: new_ptr as u64,
                                },
                            );
                            if ok {
                                successes.fetch_add(1, Ordering::Relaxed);
                                // SAFETY: unlinked; retired exactly once.
                                unsafe { th.reclaim.retire(old_ptr) };
                            } else {
                                // SAFETY: never published.
                                drop(unsafe { Box::from_raw(new_ptr) });
                            }
                            ok
                        });
                        if done {
                            break;
                        }
                    }
                }
            });
        }
    });

    let total = successes.load(Ordering::Relaxed);
    assert_eq!(total, (threads * ops) as u64);
    let final_ptr = node.cells[0].load_direct(eng.runtime()) as *mut u64;
    // SAFETY: quiescent now.
    let final_val = unsafe { *final_ptr };
    assert_eq!(
        final_val, total,
        "every successful SCX must be a distinct, non-lost increment"
    );
    // Clean up the last box.
    drop(unsafe { Box::from_raw(final_ptr) });
}

#[test]
fn counter_stress_htm_fast_path() {
    run_counter_stress(HtmConfig::default(), 20, 4, 300);
}

#[test]
fn counter_stress_fallback_only() {
    // attempt_limit = 0 forces every SCX through the original CAS-based
    // algorithm, exercising freezing, helping and record reuse.
    run_counter_stress(HtmConfig::default(), 0, 4, 300);
}

#[test]
fn counter_stress_mixed_paths_under_spurious_aborts() {
    // 50% spurious aborts: operations bounce between the HTM path and the
    // fallback path, so both interoperate on the same nodes.
    run_counter_stress(HtmConfig::default().with_spurious(0.5), 3, 4, 200);
}

#[test]
fn finalized_nodes_stay_finalized_under_contention() {
    let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
    let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
    let eng = Arc::new(ScxEngine::new(rt, domain));
    let node = Arc::new(RegNode {
        hdr: ScxHeader::new(),
        cells: [TxCell::new(0)],
    });
    let finalize_wins = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        for _ in 0..4 {
            let eng = eng.clone();
            let node = node.clone();
            let finalize_wins = finalize_wins.clone();
            s.spawn(move || {
                let mut th = eng.register_thread();
                let my_tag = th.id().0 as u64 + 1;
                th.pinned(|th| {
                    let h = match eng.llx(th, &node.hdr, &node.cells) {
                        LlxResult::Snapshot(h) => h,
                        _ => return,
                    };
                    let old = h.snapshot().get(0);
                    if eng.scx(
                        th,
                        &ScxArgs {
                            v: &[&h],
                            r_mask: 0b1,
                            fld: &node.cells[0],
                            old,
                            new: my_tag,
                        },
                    ) {
                        finalize_wins.fetch_add(1, Ordering::Relaxed);
                    }
                });
            });
        }
    });

    // Exactly one finalizing SCX can succeed on a fresh node: every SCX's
    // linked LLX saw the initial info value, and the first commit changes it
    // and marks the node.
    assert_eq!(finalize_wins.load(Ordering::Relaxed), 1);
    let th = eng.register_thread();
    let _pin = th.reclaim.pin();
    assert!(matches!(
        eng.llx(&th, &node.hdr, &node.cells),
        LlxResult::Finalized
    ));
}
