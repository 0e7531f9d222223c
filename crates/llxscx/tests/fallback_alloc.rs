//! The fallback path allocates nothing: each process reuses its one
//! SCX-record, so once a thread's first `scx_orig` has allocated it, no
//! later `scx_orig` touches the heap. A counting global allocator keeps a
//! per-thread byte count (tests run on threads of their own), and each
//! case runs 10 000 SCXs after one warm-up SCX per thread:
//!
//! * successful single-node SCXs;
//! * SCXs that fail on a stale handle;
//! * SCXs over a four-node `V` that finalize one node each;
//! * two threads on one node, whose LLXs help each other's SCXs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use threepath_htm::{HtmConfig, HtmRuntime, TxCell};
use threepath_llxscx::{LlxHandle, LlxResult, ScxArgs, ScxEngine, ScxHeader, ScxThread};
use threepath_reclaim::{Domain, ReclaimMode};

thread_local! {
    /// Bytes this thread has allocated.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count(size: usize) {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + size as u64));
}

// SAFETY: every call forwards to `System`; the counter only observes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocated() -> u64 {
    ALLOCATED.with(Cell::get)
}

const SCXS: u64 = 10_000;

struct RegNode {
    hdr: ScxHeader,
    cells: [TxCell; 1],
}

impl RegNode {
    fn new() -> Self {
        RegNode {
            hdr: ScxHeader::new(),
            cells: [TxCell::new(0)],
        }
    }
}

fn engine() -> ScxEngine {
    let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
    ScxEngine::new(rt, Arc::new(Domain::new(ReclaimMode::Epoch)))
}

fn llx(eng: &ScxEngine, th: &ScxThread, n: &RegNode) -> LlxResult {
    eng.llx(th, &n.hdr, &n.cells)
}

/// One SCX on `n` alone: its field from its snapshot to `+ 2`.
fn bump(eng: &ScxEngine, th: &ScxThread, h: &LlxHandle, n: &RegNode) -> bool {
    let old = h.snapshot().get(0);
    eng.scx_orig(
        th,
        &ScxArgs {
            v: &[h],
            r_mask: 0,
            fld: &n.cells[0],
            old,
            new: old + 2,
        },
    )
}

/// Runs `scx` once to warm up, then `SCXS` more times, and returns the
/// bytes the calling thread allocated over those.
fn measured(mut scx: impl FnMut(u64)) -> u64 {
    scx(0);
    let before = allocated();
    for i in 1..=SCXS {
        scx(i);
    }
    allocated() - before
}

#[test]
fn successful_scxs_allocate_nothing() {
    let eng = engine();
    let th = eng.register_thread();
    let n = RegNode::new();
    let _pin = th.reclaim.pin();
    let bytes = measured(|_| {
        let h = llx(&eng, &th, &n).handle().unwrap();
        assert!(bump(&eng, &th, &h, &n));
    });
    assert_eq!(bytes, 0);
    assert_eq!(n.cells[0].load_plain(), 2 * (SCXS + 1));
}

#[test]
fn failing_scxs_on_a_stale_handle_allocate_nothing() {
    let eng = engine();
    let th = eng.register_thread();
    let n = RegNode::new();
    let _pin = th.reclaim.pin();
    let stale = llx(&eng, &th, &n).handle().unwrap();
    let fresh = llx(&eng, &th, &n).handle().unwrap();
    assert!(bump(&eng, &th, &fresh, &n));
    let bytes = measured(|_| assert!(!bump(&eng, &th, &stale, &n)));
    assert_eq!(bytes, 0);
    assert_eq!(n.cells[0].load_plain(), 2);
}

#[test]
fn multi_node_scxs_that_finalize_allocate_nothing() {
    // V = [root, a, b, leaf]: each SCX changes root's field and finalizes
    // a leaf allocated before the measurement.
    let eng = engine();
    let th = eng.register_thread();
    let (root, a, b) = (RegNode::new(), RegNode::new(), RegNode::new());
    let leaves: Vec<RegNode> = (0..=SCXS).map(|_| RegNode::new()).collect();
    let _pin = th.reclaim.pin();
    let bytes = measured(|i| {
        let hs = [&root, &a, &b, &leaves[i as usize]].map(|n| llx(&eng, &th, n).handle().unwrap());
        let old = hs[0].snapshot().get(0);
        assert!(eng.scx_orig(
            &th,
            &ScxArgs {
                v: &[&hs[0], &hs[1], &hs[2], &hs[3]],
                r_mask: 0b1000,
                fld: &root.cells[0],
                old,
                new: old + 2,
            },
        ));
    });
    assert_eq!(bytes, 0);
    assert!(llx(&eng, &th, &leaves[7]).is_finalized());
}

#[test]
fn scxs_helped_by_llx_allocate_nothing() {
    // Two threads race SCXs on one node. An LLX that finds the node frozen
    // for the other thread's SCX helps it and fails. Each thread runs
    // `SCXS` SCXs after its warm-up, and goes on (up to 100 times as many)
    // until some LLX has failed.
    let eng = engine();
    let n = RegNode::new();
    let helped = AtomicU64::new(0);
    let start = Barrier::new(2);
    let bytes: Vec<u64> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let th = eng.register_thread();
                    let mut mine = 0;
                    let mut scx = |_| {
                        let _pin = th.reclaim.pin();
                        loop {
                            match llx(&eng, &th, &n) {
                                LlxResult::Snapshot(h) => {
                                    bump(&eng, &th, &h, &n);
                                    return;
                                }
                                _ => {
                                    mine += 1;
                                    helped.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    };
                    scx(0);
                    start.wait();
                    let before = allocated();
                    let mut ran = 0u64;
                    while ran < SCXS || (helped.load(Ordering::Relaxed) == 0 && ran < 100 * SCXS) {
                        scx(ran);
                        ran += 1;
                    }
                    let bytes = allocated() - before;
                    println!("{ran} SCXs; {mine} LLXs failed on a node another SCX held");
                    bytes
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    assert_eq!(bytes, [0, 0]);
    assert!(
        helped.load(Ordering::Relaxed) > 0,
        "no LLX ever failed on a node another SCX held"
    );
}
