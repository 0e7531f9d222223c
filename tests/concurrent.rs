//! Workspace-level concurrent scenarios: multiple structures under load at
//! once, range-query consistency, and failure-injected path churn.
//!
//! Every assertion is an interleaving-independent invariant, but the
//! execution itself is multi-threaded (and, for the chaos tests, driven by
//! the HTM emulator's seeded failure injection). The whole file is gated
//! behind the default-on `stress-tests` feature so a strictly
//! deterministic CI lane can opt out with `--no-default-features`.
#![cfg(feature = "stress-tests")]

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

mod common;
use common::StopOnDrop;

use threepath::abtree::{AbTree, AbTreeConfig};
use threepath::bst::{Bst, BstConfig};
use threepath::core::Strategy;
use threepath::htm::{HtmConfig, SplitMix64};

/// Two trees fed identical operation streams by concurrent threads (each
/// thread owns a disjoint key region, so both trees see the same per-key
/// linearization) must end with identical contents.
#[test]
fn mirrored_trees_converge() {
    let bst = Arc::new(Bst::with_config(BstConfig {
        strategy: Strategy::ThreePath,
        ..BstConfig::default()
    }));
    let ab = Arc::new(AbTree::with_config(AbTreeConfig {
        strategy: Strategy::ThreePath,
        ..AbTreeConfig::default()
    }));

    std::thread::scope(|s| {
        for t in 0..4u64 {
            let bst = bst.clone();
            let ab = ab.clone();
            s.spawn(move || {
                let mut hb = bst.handle();
                let mut ha = ab.handle();
                let mut rng = SplitMix64::new(500 + t);
                let base = t * 1000; // disjoint key region per thread
                for i in 0..2500u64 {
                    let k = base + rng.next_below(400);
                    if rng.next_below(2) == 0 {
                        assert_eq!(hb.insert(k, i), ha.insert(k, i));
                    } else {
                        assert_eq!(hb.remove(k), ha.remove(k));
                    }
                }
            });
        }
    });

    assert_eq!(bst.collect(), ab.collect());
    bst.validate().unwrap();
    let shape = ab.validate().unwrap();
    assert_eq!(shape.tagged, 0);
    assert_eq!(shape.underfull, 0);
}

/// Range queries under concurrent updates must always observe a consistent
/// snapshot: we maintain the invariant that keys come in pairs (k, k+1)
/// inserted/removed atomically... since single ops aren't paired, instead
/// each updater inserts or removes *both* endpoints of a two-key couple in
/// a fixed order, and the checker asserts every observed couple is either
/// fully absent or has its left endpoint (the one written last) only with
/// its right endpoint present.
#[test]
fn range_queries_see_no_torn_couples() {
    // Couples: (2k, 2k+1). Updaters insert right endpoint first, then
    // left; removal removes left first, then right. Invariant for any
    // linearizable snapshot: left present => right present.
    let tree = Arc::new(Bst::with_config(BstConfig {
        strategy: Strategy::ThreePath,
        ..BstConfig::default()
    }));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for t in 0..2u64 {
            let tree = tree.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut h = tree.handle();
                let mut rng = SplitMix64::new(t + 1);
                while !stop.load(Ordering::Relaxed) {
                    // One writer per couple: with two, `B.remove(l)` ·
                    // `A.insert(r)` · `A.insert(l)` · `B.remove(r)` is a
                    // linearizable history that ends with `l` alone.
                    let couple = rng.next_below(32) * 2 + t;
                    let (l, r) = (couple * 2, couple * 2 + 1);
                    if rng.next_below(2) == 0 {
                        h.insert(r, couple);
                        h.insert(l, couple);
                    } else {
                        h.remove(l);
                        h.remove(r);
                    }
                }
            });
        }
        {
            let tree = tree.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let _stop_guard = StopOnDrop(stop.clone());
                let mut h = tree.handle();
                for _ in 0..400 {
                    let out = h.range_query(0, 128);
                    let keys: std::collections::BTreeSet<u64> =
                        out.iter().map(|(k, _)| *k).collect();
                    for k in &keys {
                        if k % 2 == 0 {
                            assert!(
                                keys.contains(&(k + 1)),
                                "torn couple: {k} present without {}",
                                k + 1
                            );
                        }
                    }
                }
            });
        }
    });
}

/// Heavy failure injection across every strategy: half of all hardware
/// transactions abort spuriously while threads hammer a small key range.
#[test]
fn chaos_all_strategies_keysum() {
    for strategy in Strategy::ALL {
        let tree = Arc::new(AbTree::with_config(AbTreeConfig {
            strategy,
            htm: HtmConfig::default().with_spurious(0.5).with_seed(9),
            ..AbTreeConfig::default()
        }));
        let delta = Arc::new(AtomicI64::new(0));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tree = tree.clone();
                let delta = delta.clone();
                s.spawn(move || {
                    let mut h = tree.handle();
                    let mut rng = SplitMix64::new(t * 31 + 7);
                    let mut local = 0i64;
                    for i in 0..1200u64 {
                        let k = rng.next_below(96);
                        if rng.next_below(2) == 0 {
                            if h.insert(k, i).is_none() {
                                local += k as i64;
                            }
                        } else if h.remove(k).is_some() {
                            local -= k as i64;
                        }
                    }
                    delta.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        let shape = tree.validate().unwrap();
        assert_eq!(
            shape.key_sum as i128,
            delta.load(Ordering::Relaxed) as i128,
            "strategy {strategy}"
        );
    }
}

/// The SNZI-based fallback indicator must behave identically to the
/// counter under path churn (spurious aborts force constant
/// arrive/depart traffic).
#[test]
fn snzi_indicator_keysum_stress() {
    for snzi in [false, true] {
        let tree = Arc::new(AbTree::with_config(AbTreeConfig {
            strategy: Strategy::ThreePath,
            htm: HtmConfig::default().with_spurious(0.6),
            snzi,
            ..AbTreeConfig::default()
        }));
        let delta = Arc::new(AtomicI64::new(0));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let tree = tree.clone();
                let delta = delta.clone();
                s.spawn(move || {
                    let mut h = tree.handle();
                    let mut rng = SplitMix64::new(t * 7 + 100);
                    let mut local = 0i64;
                    for i in 0..1000u64 {
                        let k = rng.next_below(128);
                        if rng.next_below(2) == 0 {
                            if h.insert(k, i).is_none() {
                                local += k as i64;
                            }
                        } else if h.remove(k).is_some() {
                            local -= k as i64;
                        }
                    }
                    delta.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        let shape = tree.validate().unwrap();
        assert_eq!(
            shape.key_sum as i128,
            delta.load(Ordering::Relaxed) as i128,
            "snzi={snzi}"
        );
    }
}
