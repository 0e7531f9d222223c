//! Allocation-balance stress tests for the node pool: after concurrent
//! churn on either backend, the pool's hand-out counters must reconcile
//! exactly with the reclamation domain's retire/free totals and the live
//! node count — any leak (a hand-out nobody accounts for) or double-free
//! (an accounting entry without a hand-out) breaks the equations.
//!
//! Two conservation laws, both over counters folded into the domain once
//! every context has dropped:
//!
//! 1. **Node balance** — every hand-out ends in exactly one state:
//!    `alloc_total == unpublished_returns + retired_pooled + live_nodes`
//!    (still reachable, returned by the tx-abort/failed-SCX undo path, or
//!    retired into the epoch machinery — which later recycles it, making
//!    the next hand-out a new entry on the left side).
//! 2. **Block conservation** — free-list population is pure flow:
//!    `orphan_chain_blocks == carved + recycled + unpublished − alloc_total`
//!    (adopted blocks cancel: each adoption removes what an earlier drop
//!    parked).
//!
//! The file is multi-threaded, so it rides in the `stress-tests` lane like
//! `tests/concurrent.rs`.
#![cfg(feature = "stress-tests")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::StopOnDrop;

use threepath::abtree::AbTree;
use threepath::bst::Bst;
use threepath::core::{Strategy, TemplateConfig};
use threepath::htm::{HtmConfig, SplitMix64};
use threepath::reclaim::{Domain, PoolStats};

const KEY_RANGE: u64 = 512;

/// Asserts both conservation laws. `live_nodes` counts every reachable
/// node, sentinels/entry included.
fn assert_balanced(s: &PoolStats, domain: &Domain, live_nodes: u64, label: &str) {
    assert!(s.alloc_total > 0, "{label}: pool never used");
    assert!(
        s.pool_hits > 0,
        "{label}: churn must recycle (no hand-out ever hit a warm list)"
    );
    assert_eq!(
        s.alloc_total,
        s.unpublished_returns + s.retired_pooled + live_nodes,
        "{label}: node balance broken (leak or double-account): {s:?}, live {live_nodes}"
    );
    assert_eq!(
        domain.orphan_chain_blocks(),
        s.carved_blocks + s.recycled + s.unpublished_returns - s.alloc_total,
        "{label}: block conservation broken: {s:?}"
    );
    // Pooled retirements either already recycled or still in limbo.
    assert!(
        s.recycled <= s.retired_pooled,
        "{label}: more recycles than retirements: {s:?}"
    );
    // The domain's totals cover the pooled subset.
    assert!(domain.retired_total() >= s.retired_pooled, "{label}");
    assert!(domain.freed_total() >= s.recycled, "{label}");
}

/// Concurrent insert/remove churn through every execution path (seeded
/// spurious aborts force fast-, middle- and fallback-path traffic, so the
/// tx-abort undo, failed-SCX undo and epoch-recycle flows all run).
fn churn<H>(threads: usize, ops_per_thread: u64, mut handle: impl FnMut() -> H + Send)
where
    H: Churn + Send,
{
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let _guard = StopOnDrop(stop.clone());
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mut h = handle();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut rng = SplitMix64::new(0xBA1A_5CE0 + t as u64);
                    for _ in 0..ops_per_thread {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let k = rng.next_below(KEY_RANGE);
                        if rng.next_below(2) == 0 {
                            h.insert(k, k);
                        } else {
                            h.remove(k);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
}

trait Churn {
    fn insert(&mut self, k: u64, v: u64);
    fn remove(&mut self, k: u64);
}

impl Churn for threepath::bst::BstHandle {
    fn insert(&mut self, k: u64, v: u64) {
        threepath::bst::BstHandle::insert(self, k, v);
    }
    fn remove(&mut self, k: u64) {
        threepath::bst::BstHandle::remove(self, k);
    }
}

impl Churn for threepath::abtree::AbTreeHandle {
    fn insert(&mut self, k: u64, v: u64) {
        threepath::abtree::AbTreeHandle::insert(self, k, v);
    }
    fn remove(&mut self, k: u64) {
        threepath::abtree::AbTreeHandle::remove(self, k);
    }
}

#[test]
fn bst_pool_counters_reconcile_after_concurrent_churn() {
    let tree = Arc::new(Bst::with_config(TemplateConfig {
        strategy: Strategy::ThreePath,
        htm: HtmConfig::default().with_spurious(0.15),
        ..TemplateConfig::default()
    }));
    churn(4, 4000, || tree.handle());
    let shape = tree.validate().expect("valid tree");
    let live = (shape.internal_nodes + shape.leaves) as u64;
    assert_balanced(&tree.pool_stats(), tree.domain(), live, "bst");
    let s = tree.pool_stats();
    assert!(
        s.unpublished_returns > 0,
        "spurious aborts must exercise the tx-abort undo path: {s:?}"
    );
    assert!(s.recycled > 0, "epoch expiry must recycle: {s:?}");
}

#[test]
fn abtree_pool_counters_reconcile_after_concurrent_churn() {
    let tree = Arc::new(AbTree::with_config(TemplateConfig {
        strategy: Strategy::ThreePath,
        htm: HtmConfig::default().with_spurious(0.15),
        ..TemplateConfig::default()
    }));
    churn(4, 3000, || tree.handle());
    let shape = tree.validate().expect("valid tree");
    // +1: the entry node, which validate() does not count.
    let live = (shape.internal_nodes + shape.leaves + 1) as u64;
    assert_balanced(&tree.pool_stats(), tree.domain(), live, "abtree");
}

/// The (a,b)-tree registers a dedicated exact-fit size class for its fat
/// nodes (per-structure class tables, ROADMAP PR 4 follow-up): the block
/// serving a node wastes less than one cache line, and the pool's
/// counters still reconcile when traffic flows through that class.
#[test]
fn abtree_nodes_get_a_dedicated_exact_fit_class() {
    let tree = Arc::new(AbTree::with_config(TemplateConfig {
        strategy: Strategy::ThreePath,
        ..TemplateConfig::default()
    }));
    // `AbNode` is private; its blocks are what `alloc_total` counts, and
    // the domain exposes the serving block size through the tree's churn.
    // Probe the class geometry via a churn that only allocates nodes.
    {
        let mut h = tree.handle();
        let mut rng = SplitMix64::new(42);
        for i in 0..4000u64 {
            let k = rng.next_below(KEY_RANGE);
            if i % 2 == 0 {
                h.insert(k, k);
            } else {
                h.remove(k);
            }
        }
    }
    let s = tree.pool_stats();
    assert!(s.alloc_total > 0, "churn must allocate nodes");
    let shape = tree.validate().expect("valid tree");
    let live = (shape.internal_nodes + shape.leaves + 1) as u64;
    assert_balanced(&s, tree.domain(), live, "abtree dedicated class");
    // The exact-fit guarantee: the block size serving the node type is
    // within one cache line of the node size. `node_block_size` reports
    // (block size, node size) straight from the tree's domain.
    let (block, node) = tree.node_block_size().expect("pooled tree");
    assert!(
        block >= node && block - node < 64,
        "dedicated class must be line-exact: block {block} B for {node} B nodes"
    );
    assert_eq!(block % 64, 0, "blocks stay cache-line multiples");
}

/// Counter-based proof that the tx-abort undo path returns nodes to the
/// pool: single-threaded, no contention, spurious aborts only — every
/// doomed transaction aborts at commit, *after* the operation body
/// allocated its nodes, so each such abort must produce unpublished
/// returns (and no leak: the balance still closes exactly).
#[test]
fn tx_abort_undo_returns_nodes_to_the_pool() {
    let tree = Arc::new(Bst::with_config(TemplateConfig {
        strategy: Strategy::ThreePath,
        htm: HtmConfig::default().with_spurious(0.5),
        ..TemplateConfig::default()
    }));
    {
        let mut h = tree.handle();
        let mut rng = SplitMix64::new(7);
        for i in 0..6000u64 {
            let k = rng.next_below(KEY_RANGE);
            if i % 2 == 0 {
                h.insert(k, i);
            } else {
                h.remove(k);
            }
        }
    }
    let s = tree.pool_stats();
    assert!(
        s.unpublished_returns > 0,
        "aborted transactions allocated nodes; the undo path must return \
         them to the pool: {s:?}"
    );
    let shape = tree.validate().expect("valid tree");
    let live = (shape.internal_nodes + shape.leaves) as u64;
    assert_balanced(&s, tree.domain(), live, "tx-abort");
}

/// The pool-off baseline must keep `Box` semantics end to end: zero pool
/// traffic, identical tree behaviour.
#[test]
fn pool_off_baseline_reports_zero_pool_traffic() {
    let tree = Arc::new(Bst::with_config(TemplateConfig {
        strategy: Strategy::ThreePath,
        pool: false,
        ..TemplateConfig::default()
    }));
    {
        let mut h = tree.handle();
        for k in 0..200u64 {
            h.insert(k, k);
        }
        for k in (0..200u64).step_by(2) {
            h.remove(k);
        }
        assert_eq!(tree_len(&tree), 100);
    }
    let s = tree.pool_stats();
    assert_eq!(s, PoolStats::default(), "pool-off trees must not pool: {s:?}");
    assert!(tree.domain().retired_total() > 0, "churn still retires");
}

fn tree_len(tree: &Bst) -> usize {
    tree.validate().expect("valid tree").keys
}
