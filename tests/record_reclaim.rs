//! Live-heap regression test for SCX-record reclamation.
//!
//! A counting global allocator tracks the bytes the process holds, in
//! all and in allocations of an [`ScxRecord`]'s size. Each case builds a
//! tree, warms it up with updates on 64 keys, then runs 20 000 more
//! updates and requires the record bytes to stay flat: every SCX-record
//! the software path creates must be freed once no node references it,
//! including the records that finalized a retired node and those a
//! fast-path unlink left behind in a removed node's `info`. Dropping the
//! tree must then return the whole heap to its level before the tree was
//! built: records still installed in live nodes are released on drop.
//!
//! One-thread cases must also keep the whole heap flat. The two-thread
//! cases check record bytes only, because there two other things move
//! the heap by tens to hundreds of KiB between two quiet points, with no
//! record involved: a limbo bag's buffer keeps its high-water capacity
//! when an epoch is held back, and the node pools do not move free
//! blocks between threads, so one pool carves chunks while the other's
//! recycled blocks pile up. Both are freed with the domain, so the drop
//! check still sees all of it.
//!
//! The cases share one allocator, so they run one after another inside a
//! single `#[test]`. The 3-path cases run two threads, racing the
//! release-on-retire against helpers, so the file rides in the
//! `stress-tests` lane like `tests/concurrent.rs`.
#![cfg(feature = "stress-tests")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Barrier};

use threepath::abtree::{AbTree, AbTreeHandle};
use threepath::bst::{Bst, BstHandle};
use threepath::core::{PathKind, PathLimits, Strategy, TemplateConfig};
use threepath::htm::{HtmConfig, SplitMix64};
use threepath::llxscx::ScxRecord;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The part of [`LIVE`] in allocations of exactly an SCX-record's size.
static RECORD_BYTES: AtomicIsize = AtomicIsize::new(0);

fn count(size: usize, sign: isize) {
    LIVE.fetch_add(sign * size as isize, Ordering::Relaxed);
    if size == size_of::<ScxRecord>() {
        RECORD_BYTES.fetch_add(sign * size as isize, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every call forwards to `System`; the counter only observes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size(), 1);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size(), 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        count(layout.size(), -1);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(layout.size(), -1);
            count(new_size, 1);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

fn record_bytes() -> isize {
    RECORD_BYTES.load(Ordering::Relaxed)
}

const KEYS: u64 = 64;
const WARMUP_UPDATES: u64 = 20_000;
const UPDATES: u64 = 20_000;
/// Allowed growth of the record bytes over the measured updates: the
/// records live nodes hold vary with the tree's size, a few KiB on 64
/// keys, while one leaked record per software SCX (about 200 bytes)
/// grows them by megabytes.
const GROWTH_BOUND: isize = 64 * 1024;

/// The two template trees, behind the calls the test makes.
trait Tree: Send + Sync + Sized + 'static {
    type Handle;
    fn build(case: &Case) -> Self;
    fn handle(tree: &Arc<Self>) -> Self::Handle;
    fn update(h: &mut Self::Handle, key: u64, insert: bool);
    fn get(h: &mut Self::Handle, key: u64);
    /// Operations that completed on the fallback path.
    fn fallbacks(h: &Self::Handle) -> u64;
}

impl Tree for Bst {
    type Handle = BstHandle;
    fn build(case: &Case) -> Self {
        Bst::with_config(TemplateConfig {
            strategy: case.strategy,
            htm: case.htm(),
            limits: case.limits,
            ..TemplateConfig::default()
        })
    }
    fn handle(tree: &Arc<Self>) -> BstHandle {
        tree.handle()
    }
    fn update(h: &mut BstHandle, key: u64, insert: bool) {
        if insert {
            h.insert(key, key);
        } else {
            h.remove(key);
        }
    }
    fn get(h: &mut BstHandle, key: u64) {
        h.get(key);
    }
    fn fallbacks(h: &BstHandle) -> u64 {
        h.stats().completed(PathKind::Fallback)
    }
}

impl Tree for AbTree {
    type Handle = AbTreeHandle;
    fn build(case: &Case) -> Self {
        AbTree::with_config(TemplateConfig {
            strategy: case.strategy,
            htm: case.htm(),
            limits: case.limits,
            ..TemplateConfig::default()
        })
    }
    fn handle(tree: &Arc<Self>) -> AbTreeHandle {
        tree.handle()
    }
    fn update(h: &mut AbTreeHandle, key: u64, insert: bool) {
        if insert {
            h.insert(key, key);
        } else {
            h.remove(key);
        }
    }
    fn get(h: &mut AbTreeHandle, key: u64) {
        h.get(key);
    }
    fn fallbacks(h: &AbTreeHandle) -> u64 {
        h.stats().completed(PathKind::Fallback)
    }
}

/// One case's strategy, HTM and thread count.
#[derive(Clone, Copy)]
struct Case {
    name: &'static str,
    strategy: Strategy,
    spurious: f64,
    /// Attempt budgets: short 3-path budgets give a mix of all three
    /// paths, so fast-path unlinks meet nodes the fallback froze.
    limits: Option<PathLimits>,
    threads: u64,
}

impl Case {
    fn htm(&self) -> HtmConfig {
        HtmConfig::default().with_spurious(self.spurious)
    }
}

/// What one case measured, in bytes relative to the level before the
/// tree was built.
struct Measured {
    /// Record bytes after the warm-up and after the measured updates.
    records_warm: isize,
    records_after: isize,
    /// The whole heap at the same two points, and after the drop.
    heap_warm: isize,
    heap_after: isize,
    heap_dropped: isize,
    fallbacks: u64,
}

/// Reads that each pin and unpin the epoch: after updates stop, enough
/// of them on every thread advance the epoch past every limbo bag, so
/// the heap is read with the retired records freed rather than at a
/// random point of the bags' fill-and-free cycle.
const QUIESCE_READS: u64 = 4096;

/// Builds the tree, runs the warm-up and the measured updates on
/// `case.threads` threads, and drops everything. Threads quiesce, then
/// park on a barrier while the heap is read.
fn run<T: Tree>(case: Case) -> Measured {
    let barrier = Barrier::new(case.threads as usize + 1);
    let base = (live(), record_bytes());
    let at = || (live() - base.0, record_bytes() - base.1);
    let tree = Arc::new(T::build(&case));
    let (warm, after, fallbacks) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..case.threads)
            .map(|t| {
                let (tree, barrier) = (&tree, &barrier);
                s.spawn(move || {
                    let mut h = T::handle(tree);
                    let mut rng = SplitMix64::new(0x5eed ^ t);
                    let mut step = |n: u64| {
                        for _ in 0..n {
                            let r = rng.next_u64();
                            T::update(&mut h, r % KEYS, r & (1 << 32) != 0);
                        }
                        barrier.wait();
                        for k in 0..QUIESCE_READS {
                            T::get(&mut h, k % KEYS);
                        }
                        barrier.wait();
                    };
                    step(WARMUP_UPDATES / case.threads);
                    barrier.wait();
                    step(UPDATES / case.threads);
                    T::fallbacks(&h)
                })
            })
            .collect();
        barrier.wait();
        barrier.wait();
        let warm = at();
        barrier.wait();
        barrier.wait();
        barrier.wait();
        let after = at();
        let fallbacks = workers.into_iter().map(|w| w.join().unwrap()).sum();
        (warm, after, fallbacks)
    });
    drop(tree);
    Measured {
        records_warm: warm.1,
        records_after: after.1,
        heap_warm: warm.0,
        heap_after: after.0,
        heap_dropped: at().0,
        fallbacks,
    }
}

#[test]
fn software_scx_records_are_freed_and_live_heap_stays_flat() {
    let three_path = |name| Case {
        name,
        strategy: Strategy::ThreePath,
        spurious: 0.5,
        limits: Some(PathLimits { fast: 2, middle: 2 }),
        threads: 2,
    };
    let non_htm = |name| Case {
        name,
        strategy: Strategy::NonHtm,
        spurious: 0.0,
        limits: None,
        threads: 1,
    };
    // One throwaway run first: thread spawning and the runtimes'
    // one-time allocations must not count against the first case.
    run::<Bst>(non_htm("prime"));

    let cases: [(Case, fn(Case) -> Measured); 4] = [
        (non_htm("bst/non-htm"), run::<Bst>),
        (three_path("bst/3-path"), run::<Bst>),
        (non_htm("abtree/non-htm"), run::<AbTree>),
        (three_path("abtree/3-path"), run::<AbTree>),
    ];
    let mut failures = Vec::new();
    for (case, run) in cases {
        let m = run(case);
        let growth = m.records_after - m.records_warm;
        let line = format!(
            "{}: record bytes {} -> {} over {UPDATES} updates (growth {growth}); \
             heap {} -> {}, {} after drop; {} fallback ops",
            case.name,
            m.records_warm,
            m.records_after,
            m.heap_warm,
            m.heap_after,
            m.heap_dropped,
            m.fallbacks
        );
        println!("{line}");
        assert!(
            m.fallbacks > 0,
            "{}: the software path never ran",
            case.name
        );
        if growth >= GROWTH_BOUND {
            failures.push(format!(
                "{line}: records grew by {GROWTH_BOUND} bytes or more"
            ));
        }
        if case.threads == 1 && m.heap_after - m.heap_warm >= GROWTH_BOUND {
            failures.push(format!(
                "{line}: the heap grew by {GROWTH_BOUND} bytes or more"
            ));
        }
        if m.heap_dropped != 0 {
            failures.push(format!("{line}: the drop left {} bytes", m.heap_dropped));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
