//! Concurrent correctness of the sharded map layer: multi-threaded key-sum
//! verification across every strategy, and consistency of cross-shard
//! range queries while updates are in flight.
//!
//! As with `tests/concurrent.rs`, every assertion is an
//! interleaving-independent invariant, but execution is multi-threaded, so
//! the file is gated behind the default-on `stress-tests` feature.
#![cfg(feature = "stress-tests")]

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

use threepath::core::Strategy;
use threepath::htm::{HtmConfig, SplitMix64};
use threepath::sharded::{RouterKind, ShardBackend, ShardedConfig, ShardedMap};
use threepath::workload::{run_trial, KeyDist, Structure, TrialSpec, Workload};

mod common;
use common::StopOnDrop;

/// Key-sum verification under every strategy: 4 threads hammer a 4-shard
/// map (including keys beyond `key_space`, which route to the last shard),
/// with spurious-abort injection forcing path churn inside each shard.
#[test]
fn sharded_keysum_all_strategies() {
    for backend in [ShardBackend::Bst, ShardBackend::AbTree] {
        for strategy in Strategy::ALL {
            let map = Arc::new(ShardedMap::with_config(ShardedConfig {
                shards: 4,
                backend,
                key_space: 256,
                strategy,
                htm: HtmConfig::default().with_spurious(0.3).with_seed(11),
                ..ShardedConfig::default()
            }).expect("valid config"));
            let delta = Arc::new(AtomicI64::new(0));
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let map = map.clone();
                    let delta = delta.clone();
                    s.spawn(move || {
                        let mut h = map.handle();
                        let mut rng = SplitMix64::new(t * 131 + 5);
                        let mut local = 0i64;
                        for i in 0..1500u64 {
                            // Drawn over [0, 320): ~20% of keys overflow
                            // key_space and land in the last shard.
                            let k = rng.next_below(320);
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
            map.validate().unwrap();
            assert_eq!(
                map.key_sum() as i128,
                delta.load(Ordering::Relaxed) as i128,
                "{backend}/{strategy}"
            );
            assert_eq!(map.collect().len(), map.len(), "{backend}/{strategy}");
        }
    }
}

/// Cross-shard range queries while updates are in flight.
///
/// The map has 4 shards over key space 400 (width 100). Shard 0's range is
/// populated once before the stress and never updated again — a *quiescent
/// prefix* with a known oracle. Updaters churn shards 1–3 only. Every
/// cross-shard query spanning all shards must therefore observe the
/// quiescent prefix exactly (same keys, same sum), and — because each
/// per-shard query is individually atomic — must never observe a torn
/// couple among the paired keys updaters write to shard 1.
#[test]
fn cross_shard_rq_snapshots_are_consistent() {
    let map = Arc::new(ShardedMap::with_config(ShardedConfig {
        shards: 4,
        backend: ShardBackend::Bst,
        key_space: 400,
        strategy: Strategy::ThreePath,
        ..ShardedConfig::default()
    }).expect("valid config"));

    // Quiescent prefix: every third key in shard 0's range [0, 100).
    let mut oracle = BTreeSet::new();
    let mut oracle_sum = 0u128;
    {
        let mut h = map.handle();
        for k in (0..100u64).step_by(3) {
            assert_eq!(h.insert(k, k * 7), None);
            oracle.insert(k);
            oracle_sum += k as u128;
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Couple updaters in shard 1's range [100, 200): insert right
        // endpoint before left, remove left before right, so any atomic
        // per-shard snapshot satisfies "left present => right present".
        // Each thread owns a disjoint set of couples (c % 2 == t) — the
        // ordering argument only holds with a single writer per couple.
        for t in 0..2u64 {
            let map = map.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut h = map.handle();
                let mut rng = SplitMix64::new(t + 21);
                while !stop.load(Ordering::Relaxed) {
                    // (2c, 2c+1) ∈ [100, 200), c ≡ t (mod 2).
                    let couple = 50 + rng.next_below(25) * 2 + t;
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
        // Plain churn over shards 2–3, for extra cross-shard traffic.
        {
            let map = map.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut h = map.handle();
                let mut rng = SplitMix64::new(77);
                while !stop.load(Ordering::Relaxed) {
                    let k = 200 + rng.next_below(200);
                    if rng.next_below(2) == 0 {
                        h.insert(k, k);
                    } else {
                        h.remove(k);
                    }
                }
            });
        }
        // The checker: cross-shard queries spanning all four shards.
        {
            let map = map.clone();
            let stop = stop.clone();
            let oracle = &oracle;
            s.spawn(move || {
                let _stop_guard = StopOnDrop(stop.clone());
                let mut h = map.handle();
                for _ in 0..300 {
                    let out = h.range_query(0, 400);
                    assert!(
                        out.windows(2).all(|w| w[0].0 < w[1].0),
                        "cross-shard merge must be sorted and duplicate-free"
                    );
                    // Quiescent prefix: exact match against the oracle.
                    let prefix: BTreeSet<u64> =
                        out.iter().map(|&(k, _)| k).filter(|&k| k < 100).collect();
                    assert_eq!(&prefix, oracle, "quiescent prefix keys diverged");
                    let sum: u128 = prefix.iter().map(|&k| k as u128).sum();
                    assert_eq!(sum, oracle_sum, "quiescent prefix sum diverged");
                    // Per-shard atomicity: no torn couple in shard 1.
                    let keys: BTreeSet<u64> = out
                        .iter()
                        .map(|&(k, _)| k)
                        .filter(|&k| (100..200).contains(&k))
                        .collect();
                    for &k in &keys {
                        if k % 2 == 0 {
                            assert!(
                                keys.contains(&(k + 1)),
                                "torn couple in shard 1: {k} without {}",
                                k + 1
                            );
                        }
                    }
                }
            });
        }
    });

    map.validate().unwrap();
    // The quiescent prefix is still intact after the stress.
    let final_prefix: u128 = map
        .collect()
        .iter()
        .filter(|&&(k, _)| k < 100)
        .map(|&(k, _)| k as u128)
        .sum();
    assert_eq!(final_prefix, oracle_sum);
}

/// End-to-end: the workload runner's heavy path (dedicated RQ thread) over
/// a sharded structure with a skewed key distribution — every range query
/// is a cross-shard merge, and the keysum must still verify.
#[test]
fn heavy_skewed_trial_on_sharded_map() {
    let r = run_trial(&TrialSpec {
        structure: Structure::ShardedAbTree { shards: 4 },
        strategy: Strategy::ThreePath,
        threads: 3,
        duration: std::time::Duration::from_millis(60),
        key_range: 1024,
        key_dist: KeyDist::ZipfScattered { theta: 0.99 },
        workload: Workload::Heavy { rq_extent: 512 },
        ..TrialSpec::default()
    });
    assert!(r.keysum_ok, "sharded heavy keysum failed");
    assert!(r.rq_ops > 0, "the dedicated RQ thread must record queries");
    assert!(r.update_ops > 0);
}

/// HTM admission control racing real traffic: with a one-thread admission
/// window and a spurious-abort storm keeping the fallback path busy,
/// overflow threads take the direct fallback lane while admitted threads
/// keep attempting transactions — and every correctness oracle (keysum,
/// structural validation, collect/len agreement) must be identical to the
/// uncontrolled map's. Run both settings through the same workload, both
/// backends.
#[test]
fn admission_gated_fallback_preserves_the_oracles() {
    for backend in [ShardBackend::Bst, ShardBackend::AbTree] {
        for admission in [None, Some(1)] {
            let map = Arc::new(
                ShardedMap::with_config(ShardedConfig {
                    shards: 2,
                    backend,
                    key_space: 512,
                    strategy: Strategy::ThreePath,
                    // Heavy spurious injection keeps operations falling
                    // back, so the gate's window actually closes.
                    htm: HtmConfig::default().with_spurious(0.6).with_seed(41),
                    admission,
                    ..ShardedConfig::default()
                })
                .expect("valid config"),
            );
            let delta = Arc::new(AtomicI64::new(0));
            std::thread::scope(|s| {
                for t in 0..4u64 {
                    let map = map.clone();
                    let delta = delta.clone();
                    s.spawn(move || {
                        let mut h = map.handle();
                        let mut rng = SplitMix64::new(t * 433 + 9);
                        let mut local = 0i64;
                        for i in 0..2000u64 {
                            let k = rng.next_below(512);
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
            map.validate().unwrap();
            assert_eq!(
                map.key_sum() as i128,
                delta.load(Ordering::Relaxed) as i128,
                "{backend:?}/admission={admission:?}"
            );
            assert_eq!(map.collect().len(), map.len());
        }
    }
}

/// Hash-routed concurrency: the keysum invariant and sorted, duplicate-free
/// cross-shard sort-merged range queries hold while updates are in flight.
#[test]
fn hash_routed_concurrent_keysum_and_rqs() {
    let map = Arc::new(
        ShardedMap::with_config(ShardedConfig {
            shards: 4,
            backend: ShardBackend::AbTree,
            key_space: 512,
            router: RouterKind::Hash,
            strategy: Strategy::ThreePath,
            htm: HtmConfig::default().with_spurious(0.2).with_seed(23),
            ..ShardedConfig::default()
        })
        .expect("valid config"),
    );
    let delta = Arc::new(AtomicI64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let map = map.clone();
            let delta = delta.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut h = map.handle();
                let mut rng = SplitMix64::new(t * 389 + 7);
                let mut local = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.next_below(512);
                    if rng.next_below(2) == 0 {
                        if h.insert(k, k).is_none() {
                            local += k as i64;
                        }
                    } else if h.remove(k).is_some() {
                        local -= k as i64;
                    }
                }
                delta.fetch_add(local, Ordering::Relaxed);
            });
        }
        {
            let map = map.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let _stop_guard = StopOnDrop(stop.clone());
                let mut h = map.handle();
                for _ in 0..200 {
                    let out = h.range_query(100, 400);
                    assert!(
                        out.windows(2).all(|w| w[0].0 < w[1].0),
                        "sort-merge must produce a strictly ascending sequence"
                    );
                    assert!(out.iter().all(|&(k, _)| (100..400).contains(&k)));
                }
            });
        }
    });
    map.validate().unwrap();
    assert_eq!(map.key_sum() as i128, delta.load(Ordering::Relaxed) as i128);
    assert_eq!(map.collect().len(), map.len());
}
