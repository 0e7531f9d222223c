//! The update paths do not go to the heap once they are warm.
//!
//! A counting global allocator keeps per-thread counts of allocations
//! and of reallocations; each case runs on its own test thread, as the
//! only client of what it builds, and counts only that thread's calls
//! (a persistent map's flusher thread is not counted). After a warm-up,
//! the measured operations must stay within these bounds:
//!
//! * BST and (a,b)-tree handle updates, calm and at a spurious-abort
//!   probability of 0.85: under 0.001 allocations per update. Node
//!   pools, SCX-records and the transactional attempts' `Effects`
//!   buffers are all reused; only a pool carving a fresh chunk allocates.
//! * A volatile server submit of 8 updates over 2 shards: at most 4 per
//!   submit. Those are the submitted `Vec`, the reply `Vec` and the two
//!   per-shard batch results.
//! * The same submit on a WAL-backed map (`EveryN(64)`, no snapshots):
//!   at most 8 per submit. Groups, plans, queued requests, their reply
//!   storage and the encoded log record are all reused.
//! * No reallocation anywhere: every reused buffer is sized up front or
//!   keeps the capacity it grew to during the warm-up.
//!
//! `--nocapture` prints each case's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use threepath::abtree::AbTree;
use threepath::bst::Bst;
use threepath::core::{BatchOp, TemplateConfig};
use threepath::htm::{HtmConfig, SplitMix64};
use threepath::server::{KvServer, ServerConfig};
use threepath::sharded::{FsyncPolicy, PersistConfig, ShardedConfig, ShardedMap};

thread_local! {
    /// Allocations (`alloc` and `alloc_zeroed`) this thread has made.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Reallocations this thread has made.
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(c: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = c.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every call forwards to `System`; the counters only observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's `(allocations, reallocations)` so far.
fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get))
}

/// Runs `warm` steps of `step`, then `n` more, and returns the
/// allocations and reallocations per measured step.
fn per_step(warm: u64, n: u64, mut step: impl FnMut()) -> (f64, u64) {
    for _ in 0..warm {
        step();
    }
    let before = counts();
    for _ in 0..n {
        step();
    }
    let after = counts();
    ((after.0 - before.0) as f64 / n as f64, after.1 - before.1)
}

const KEYS: u64 = 1024;
const WARMUP_UPDATES: u64 = 20_000;
const UPDATES: u64 = 50_000;
const UPDATE_BOUND: f64 = 0.001;

fn template(spurious: f64) -> TemplateConfig {
    TemplateConfig {
        htm: HtmConfig::default().with_spurious(spurious),
        ..TemplateConfig::default()
    }
}

/// Random 50/50 inserts and removes on [`KEYS`] keys through `update`;
/// returns a line per bound broken.
fn updates(name: &str, mut update: impl FnMut(u64, bool)) -> Vec<String> {
    let mut rng = SplitMix64::new(0x5eed);
    let (allocs, reallocs) = per_step(WARMUP_UPDATES, UPDATES, || {
        let r = rng.next_u64();
        update(r % KEYS, r & (1 << 32) != 0);
    });
    let line = format!("{name}: {allocs:.4} allocations per update, {reallocs} reallocations");
    println!("{line}");
    let mut broken = Vec::new();
    if allocs >= UPDATE_BOUND {
        broken.push(format!("{line} (bound {UPDATE_BOUND})"));
    }
    if reallocs != 0 {
        broken.push(format!("{line} (bound 0 reallocations)"));
    }
    broken
}

#[test]
fn bst_updates_allocate_nothing() {
    let mut broken = Vec::new();
    for spurious in [0.0, 0.85] {
        let tree = Arc::new(Bst::with_config(template(spurious)));
        let mut h = tree.handle();
        broken.extend(updates(
            &format!("bst, spurious {spurious}"),
            |k, insert| {
                if insert {
                    h.insert(k, k);
                } else {
                    h.remove(k);
                }
            },
        ));
    }
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

#[test]
fn abtree_updates_allocate_nothing() {
    let mut broken = Vec::new();
    for spurious in [0.0, 0.85] {
        let tree = Arc::new(AbTree::with_config(template(spurious)));
        let mut h = tree.handle();
        broken.extend(updates(
            &format!("abtree, spurious {spurious}"),
            |k, insert| {
                if insert {
                    h.insert(k, k);
                } else {
                    h.remove(k);
                }
            },
        ));
    }
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

const SERVER_KEYS: u64 = 10_000;
const WARMUP_SUBMITS: u64 = 2_000;
const SUBMITS: u64 = 5_000;

/// One client submitting 8-update batches over 2 shards of a map
/// prefilled to about half its keys, as a served map starts; returns the
/// allocations per submit and the reallocations.
fn submits(persist: Option<PersistConfig>) -> (f64, u64) {
    let map = Arc::new(
        ShardedMap::with_config(ShardedConfig {
            shards: 2,
            key_space: SERVER_KEYS,
            batched: true,
            persist,
            ..ShardedConfig::default()
        })
        .expect("valid config"),
    );
    let mut h = map.handle();
    let mut rng = SplitMix64::new(0xba7c4);
    // Random order: sorted inserts would make the unbalanced BST a list.
    for _ in 0..SERVER_KEYS / 2 {
        let k = rng.next_u64() % SERVER_KEYS;
        h.insert(k, k);
    }
    drop(h);
    let srv = Arc::new(KvServer::new(map, ServerConfig::default()).expect("batched"));
    let mut client = srv.client();
    let r = per_step(WARMUP_SUBMITS, SUBMITS, || {
        let ops = (0..8)
            .map(|_| {
                let r = rng.next_u64();
                let k = r % SERVER_KEYS;
                if r & (1 << 32) != 0 {
                    BatchOp::Insert(k, k)
                } else {
                    BatchOp::Remove(k)
                }
            })
            .collect();
        assert_eq!(client.submit(ops).len(), 8);
    });
    drop(client);
    srv.shutdown().expect("shutdown");
    r
}

#[test]
fn volatile_submits_allocate_at_most_four_times() {
    let (allocs, reallocs) = submits(None);
    println!("volatile submit: {allocs:.2} allocations, {reallocs} reallocations");
    assert!(
        allocs <= 4.0,
        "{allocs:.2} allocations per volatile submit (bound 4)"
    );
    assert_eq!(reallocs, 0, "reallocations on the volatile submit path");
}

#[test]
fn durable_submits_allocate_at_most_eight_times() {
    let dir = std::env::temp_dir().join(format!("threepath-hot-path-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (allocs, reallocs) = submits(Some(PersistConfig {
        fsync: FsyncPolicy::EveryN(64),
        snapshot_every: None,
        ..PersistConfig::new(&dir)
    }));
    let _ = std::fs::remove_dir_all(&dir);
    println!("durable submit: {allocs:.2} allocations, {reallocs} reallocations");
    assert!(
        allocs <= 8.0,
        "{allocs:.2} allocations per durable submit (bound 8)"
    );
    assert_eq!(reallocs, 0, "reallocations on the durable submit path");
}
