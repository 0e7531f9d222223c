//! BST correctness: sequential oracle comparison, concurrent key-sum
//! stress (the paper's verification methodology), and failure injection
//! that forces traffic onto every execution path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

use threepath_bst::Bst;
use threepath_core::{BatchOp, PathKind, PathLimits, PathStats, Strategy, TemplateConfig};
use threepath_htm::{HtmConfig, SplitMix64};
use threepath_reclaim::ReclaimMode;

fn all_strategies() -> [Strategy; 5] {
    Strategy::ALL
}

fn tree_with(strategy: Strategy, htm: HtmConfig, sec8: bool) -> Arc<Bst> {
    Arc::new(Bst::with_config(TemplateConfig {
        strategy,
        htm,
        search_outside_txn: sec8,
        ..TemplateConfig::default()
    }))
}

/// Single-threaded random ops vs BTreeMap, on one strategy.
fn oracle_run(strategy: Strategy, htm: HtmConfig, sec8: bool, seed: u64, ops: usize) {
    oracle_run_on(tree_with(strategy, htm, sec8), seed, ops);
}

/// [`oracle_run`] on an already configured tree.
fn oracle_run_on(tree: Arc<Bst>, seed: u64, ops: usize) {
    let mut h = tree.handle();
    let mut oracle = BTreeMap::new();
    let mut rng = SplitMix64::new(seed);
    let key_range = 200;

    for i in 0..ops {
        let k = rng.next_below(key_range);
        match rng.next_below(10) {
            0..=3 => {
                let v = i as u64;
                assert_eq!(h.insert(k, v), oracle.insert(k, v), "insert({k}) @ {i}");
            }
            4..=6 => {
                assert_eq!(h.remove(k), oracle.remove(&k), "remove({k}) @ {i}");
            }
            7..=8 => {
                assert_eq!(h.get(k), oracle.get(&k).copied(), "get({k}) @ {i}");
            }
            _ => {
                let lo = k;
                let hi = k + rng.next_below(50);
                let got = h.range_query(lo, hi);
                let want: Vec<(u64, u64)> =
                    oracle.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, want, "rq({lo},{hi}) @ {i}");
            }
        }
    }

    let shape = tree.validate().expect("tree invariants violated");
    assert_eq!(shape.keys, oracle.len());
    let want_sum: u128 = oracle.keys().map(|k| *k as u128).sum();
    assert_eq!(shape.key_sum, want_sum);
    let collected = tree.collect();
    let want: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(collected, want);
}

#[test]
fn oracle_all_strategies() {
    for (i, s) in all_strategies().into_iter().enumerate() {
        oracle_run(s, HtmConfig::default(), false, 42 + i as u64, 3000);
    }
}

#[test]
fn oracle_all_strategies_search_outside_txn() {
    for (i, s) in all_strategies().into_iter().enumerate() {
        oracle_run(s, HtmConfig::default(), true, 99 + i as u64, 3000);
    }
}

#[test]
fn oracle_under_constant_spurious_aborts() {
    // 60% of transactions abort spuriously: operations constantly spill
    // onto middle and fallback paths, exercising path interplay.
    for (i, s) in all_strategies().into_iter().enumerate() {
        oracle_run(
            s,
            HtmConfig::default().with_spurious(0.6),
            false,
            7 + i as u64,
            1500,
        );
    }
}

#[test]
fn oracle_under_tiny_capacity() {
    // Nearly every transaction takes a capacity abort; almost everything
    // runs on the software paths.
    for (i, s) in all_strategies().into_iter().enumerate() {
        oracle_run(s, HtmConfig::tiny_capacity(), false, 1234 + i as u64, 800);
    }
}

/// Concurrent updates with per-thread key-sum tracking (paper Section 7.1's
/// verification): Σ(inserted keys) − Σ(deleted keys) must equal the final
/// tree key sum.
fn keysum_stress(strategy: Strategy, htm: HtmConfig, sec8: bool, threads: usize, ops: usize) {
    keysum_stress_on(tree_with(strategy, htm, sec8), threads, ops);
}

/// [`keysum_stress`] on an already configured tree.
fn keysum_stress_on(tree: Arc<Bst>, threads: usize, ops: usize) {
    let strategy = tree.exec().strategy();
    let key_range = 512u64;
    let delta = Arc::new(AtomicI64::new(0));
    let mut merged = PathStats::new();

    let stats: Vec<PathStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let tree = tree.clone();
                let delta = delta.clone();
                s.spawn(move || {
                    let mut h = tree.handle();
                    let mut rng = SplitMix64::new(0xBEEF + t as u64);
                    let mut local: i64 = 0;
                    for i in 0..ops {
                        let k = rng.next_below(key_range);
                        if rng.next_below(2) == 0 {
                            if h.insert(k, i as u64).is_none() {
                                local += k as i64;
                            }
                        } else if h.remove(k).is_some() {
                            local -= k as i64;
                        }
                    }
                    delta.fetch_add(local, Ordering::Relaxed);
                    h.stats().clone()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for s in &stats {
        merged.merge(s);
    }

    let shape = tree.validate().expect("tree invariants violated");
    assert_eq!(
        shape.key_sum as i128,
        delta.load(Ordering::Relaxed) as i128,
        "key-sum mismatch under {strategy}"
    );
    assert_eq!(
        merged.total_completed(),
        (threads * ops) as u64,
        "operation count mismatch under {strategy}"
    );
}

#[test]
fn keysum_stress_all_strategies() {
    for s in all_strategies() {
        keysum_stress(s, HtmConfig::default(), false, 4, 2000);
    }
}

#[test]
fn keysum_stress_spurious_mix() {
    for s in all_strategies() {
        keysum_stress(s, HtmConfig::default().with_spurious(0.4), false, 4, 1200);
    }
}

#[test]
fn keysum_stress_search_outside_txn() {
    for s in [Strategy::ThreePath, Strategy::TwoPathCon, Strategy::Tle] {
        keysum_stress(s, HtmConfig::default(), true, 4, 1500);
    }
}

/// The paper's heavy workload in miniature: updaters plus one range-query
/// thread. Verifies range queries always return sorted, in-range,
/// duplicate-free results, and the final key-sum matches.
fn heavy_stress(strategy: Strategy) {
    let tree = tree_with(strategy, HtmConfig::default(), false);
    let key_range = 256u64;
    let stop = Arc::new(AtomicBool::new(false));
    let delta = Arc::new(AtomicI64::new(0));

    std::thread::scope(|s| {
        for t in 0..3 {
            let tree = tree.clone();
            let delta = delta.clone();
            s.spawn(move || {
                let mut h = tree.handle();
                let mut rng = SplitMix64::new(0xFEED + t as u64);
                let mut local = 0i64;
                for i in 0..1500 {
                    let k = rng.next_below(key_range);
                    if rng.next_below(2) == 0 {
                        if h.insert(k, i as u64).is_none() {
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
            let tree = tree.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut h = tree.handle();
                let mut rng = SplitMix64::new(0xAB);
                let mut rqs = 0usize;
                // `|| rqs == 0`: the updaters may finish (and raise `stop`)
                // before this thread completes its first query on a busy
                // host; always finish at least one so the invariant checks
                // below actually run.
                while !stop.load(Ordering::Relaxed) || rqs == 0 {
                    let lo = rng.next_below(key_range);
                    let len = 1 + rng.next_below(key_range);
                    let out = h.range_query(lo, lo + len);
                    for w in out.windows(2) {
                        assert!(w[0].0 < w[1].0, "range query not sorted/unique");
                    }
                    for (k, _) in &out {
                        assert!(*k >= lo && *k < lo + len, "key out of range");
                    }
                    rqs += 1;
                }
                assert!(rqs > 0);
            });
        }
        // Let updaters finish, then stop the RQ thread.
        while Arc::strong_count(&delta) > 2 {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    let shape = tree.validate().expect("tree invariants violated");
    assert_eq!(shape.key_sum as i128, delta.load(Ordering::Relaxed) as i128);
}

#[test]
fn heavy_stress_three_path() {
    heavy_stress(Strategy::ThreePath);
}

#[test]
fn heavy_stress_tle_and_two_path() {
    heavy_stress(Strategy::Tle);
    heavy_stress(Strategy::TwoPathCon);
    heavy_stress(Strategy::TwoPathNonCon);
}

#[test]
fn heavy_stress_non_htm() {
    heavy_stress(Strategy::NonHtm);
}

#[test]
fn paths_are_actually_used() {
    // Under spurious aborts, a 3-path tree must complete work on all three
    // paths; under clean HTM, almost everything should be fast-path.
    let tree = tree_with(
        Strategy::ThreePath,
        HtmConfig::default().with_spurious(0.7),
        false,
    );
    let mut h = tree.handle();
    let mut rng = SplitMix64::new(5);
    for i in 0..4000 {
        let k = rng.next_below(128);
        if rng.next_below(2) == 0 {
            h.insert(k, i);
        } else {
            h.remove(k);
        }
    }
    let st = h.stats();
    assert!(st.completed(PathKind::Fast) > 0, "fast path unused");
    assert!(st.completed(PathKind::Middle) > 0, "middle path unused");
    assert!(st.completed(PathKind::Fallback) > 0, "fallback path unused");

    let clean = tree_with(Strategy::ThreePath, HtmConfig::default(), false);
    let mut h2 = clean.handle();
    for i in 0..2000 {
        h2.insert(i % 100, i);
    }
    let st2 = h2.stats();
    assert!(
        st2.completed_fraction(PathKind::Fast) > 0.95,
        "uncontended single-thread work should stay on the fast path (got {})",
        st2.completed_fraction(PathKind::Fast)
    );
}

#[test]
fn leak_reclaim_mode_works() {
    let tree = Arc::new(Bst::with_config(TemplateConfig {
        strategy: Strategy::ThreePath,
        reclaim: ReclaimMode::Leak,
        ..TemplateConfig::default()
    }));
    let mut h = tree.handle();
    for i in 0..500 {
        h.insert(i % 50, i);
        if i % 3 == 0 {
            h.remove(i % 50);
        }
    }
    tree.validate().expect("tree invariants violated");
}

#[test]
fn values_update_in_place_on_fast_path() {
    let tree = tree_with(Strategy::ThreePath, HtmConfig::default(), false);
    let mut h = tree.handle();
    assert_eq!(h.insert(1, 10), None);
    assert_eq!(h.insert(1, 20), Some(10));
    assert_eq!(h.insert(1, 30), Some(20));
    assert_eq!(h.get(1), Some(30));
    assert_eq!(h.remove(1), Some(30));
    assert_eq!(h.remove(1), None);
}

#[test]
fn empty_and_edge_ranges() {
    let tree = tree_with(Strategy::ThreePath, HtmConfig::default(), false);
    let mut h = tree.handle();
    assert!(h.range_query(0, 0).is_empty());
    assert!(h.range_query(10, 5).is_empty());
    h.insert(5, 50);
    assert_eq!(h.range_query(5, 6), vec![(5, 50)]);
    assert!(h.range_query(6, 100).is_empty());
    assert_eq!(h.range_query(0, u64::MAX - 2), vec![(5, 50)]);
}

#[test]
fn get_and_remove_out_of_range_keys() {
    let tree = tree_with(Strategy::ThreePath, HtmConfig::default(), false);
    let mut h = tree.handle();
    assert_eq!(h.get(u64::MAX), None);
    assert_eq!(h.remove(u64::MAX - 1), None);
}

#[test]
fn first_last_and_contains() {
    let tree = tree_with(Strategy::ThreePath, HtmConfig::default(), false);
    let mut h = tree.handle();
    assert_eq!(h.first(), None);
    assert_eq!(h.last(), None);
    for k in [50u64, 10, 90, 30, 70] {
        h.insert(k, k + 1);
    }
    assert_eq!(h.first(), Some((10, 11)));
    assert_eq!(h.last(), Some((90, 91)));
    assert!(h.contains(70));
    assert!(!h.contains(71));
    h.remove(10);
    h.remove(90);
    assert_eq!(h.first(), Some((30, 31)));
    assert_eq!(h.last(), Some((70, 71)));
    h.remove(30);
    h.remove(50);
    h.remove(70);
    assert_eq!(h.first(), None);
    assert_eq!(h.last(), None);
}

#[test]
fn first_last_across_strategies() {
    for strategy in Strategy::ALL {
        let tree = tree_with(strategy, HtmConfig::default(), false);
        let mut h = tree.handle();
        for k in (0..100).rev() {
            h.insert(k * 2, k);
        }
        assert_eq!(h.first(), Some((0, 0)), "{strategy}");
        assert_eq!(h.last(), Some((198, 99)), "{strategy}");
    }
}

// ----------------------------------------------------------------------
// Batched plans (`BstHandle::run_batch`): whole-plan commit semantics,
// submission order, the steady-state transaction bound, and the
// flat-combining hook.
// ----------------------------------------------------------------------

fn batched_tree(strategy: Strategy, htm: HtmConfig) -> Arc<Bst> {
    Arc::new(Bst::with_config(TemplateConfig {
        strategy,
        htm,
        batched: true,
        ..TemplateConfig::default()
    }))
}

/// Applies the same plan to a BTreeMap in submission order.
fn oracle_apply(oracle: &mut BTreeMap<u64, u64>, ops: &[BatchOp]) -> Vec<Option<u64>> {
    ops.iter()
        .map(|op| match *op {
            BatchOp::Insert(k, v) => oracle.insert(k, v),
            BatchOp::Remove(k) => oracle.remove(&k),
            BatchOp::Get(k) => oracle.get(&k).copied(),
        })
        .collect()
}

fn random_plan(rng: &mut SplitMix64, len: usize, key_range: u64, tag: u64) -> Vec<BatchOp> {
    (0..len)
        .map(|i| {
            let k = rng.next_below(key_range);
            match rng.next_below(10) {
                0..=4 => BatchOp::Insert(k, tag * 1000 + i as u64),
                5..=7 => BatchOp::Remove(k),
                _ => BatchOp::Get(k),
            }
        })
        .collect()
}

fn batch_oracle_run(strategy: Strategy, htm: HtmConfig, seed: u64, batches: usize) {
    let tree = batched_tree(strategy, htm);
    let mut h = tree.handle();
    let mut oracle = BTreeMap::new();
    let mut rng = SplitMix64::new(seed);

    for b in 0..batches {
        let len = 1 + rng.next_below(16) as usize;
        let plan = random_plan(&mut rng, len, 150, b as u64);
        let (got, _path) = h.run_batch(&plan);
        let want = oracle_apply(&mut oracle, &plan);
        assert_eq!(got, want, "batch {b} replies diverge ({strategy})");
    }

    let shape = tree.validate().expect("tree invariants violated");
    assert_eq!(shape.keys, oracle.len());
    let collected = tree.collect();
    let want: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(collected, want);
}

#[test]
fn batch_oracle_tle_and_three_path() {
    batch_oracle_run(Strategy::Tle, HtmConfig::default(), 11, 300);
    batch_oracle_run(Strategy::ThreePath, HtmConfig::default(), 12, 300);
}

#[test]
fn batch_oracle_under_spurious_aborts() {
    // Heavy spurious aborts push whole plans onto the serialized section;
    // replies and final state must be indistinguishable.
    batch_oracle_run(Strategy::Tle, HtmConfig::default().with_spurious(0.7), 21, 200);
    batch_oracle_run(
        Strategy::ThreePath,
        HtmConfig::default().with_spurious(0.7),
        22,
        200,
    );
}

#[test]
fn batch_mixes_with_single_ops_and_reads() {
    let tree = batched_tree(Strategy::ThreePath, HtmConfig::default());
    let mut h = tree.handle();
    let mut oracle = BTreeMap::new();
    let mut rng = SplitMix64::new(77);
    for i in 0..400u64 {
        if rng.next_below(3) == 0 {
            let plan = random_plan(&mut rng, 8, 120, i);
            let want = oracle_apply(&mut oracle, &plan);
            assert_eq!(h.run_batch(&plan).0, want, "batch @ {i}");
        } else {
            let k = rng.next_below(120);
            match rng.next_below(3) {
                0 => assert_eq!(h.insert(k, i), oracle.insert(k, i)),
                1 => assert_eq!(h.remove(k), oracle.remove(&k)),
                _ => assert_eq!(h.get(k), oracle.get(&k).copied()),
            }
        }
    }
    let shape = tree.validate().expect("tree invariants violated");
    assert_eq!(shape.keys, oracle.len());
}

/// The steady-state claim behind the batching tentpole: a calm run of K
/// updates submitted as plans of size B commits in K / B transactions —
/// visible on the stats batch lane.
#[test]
fn calm_batches_commit_one_transaction_each() {
    for strategy in [Strategy::Tle, Strategy::ThreePath] {
        let tree = batched_tree(strategy, HtmConfig::reliable());
        let mut h = tree.handle();
        let plans: Vec<Vec<BatchOp>> = (0..4u64)
            .map(|b| (0..8u64).map(|i| BatchOp::Insert(b * 8 + i, i)).collect())
            .collect();
        for plan in &plans {
            let (_, path) = h.run_batch(plan);
            assert_eq!(path, PathKind::Fast, "{strategy}");
        }
        assert_eq!(h.stats().batches(), 4, "{strategy}");
        assert_eq!(h.stats().batch_ops(), 32, "{strategy}");
        assert_eq!(h.stats().batch_txns(), 4, "{strategy}");
        assert_eq!(h.stats().completed(PathKind::Fast), 32, "{strategy}");
    }
}

#[test]
fn combine_hook_runs_only_in_serialized_section() {
    // Calm tree: the batch commits on the fast path and the hook must not
    // run (no lock is held to combine under).
    let tree = batched_tree(Strategy::ThreePath, HtmConfig::reliable());
    let mut h = tree.handle();
    let mut ran = false;
    let plan = vec![BatchOp::Insert(1, 1), BatchOp::Insert(2, 2)];
    let (_, path) = h.run_batch_with(&plan, |_| ran = true);
    assert_eq!(path, PathKind::Fast);
    assert!(!ran, "combine hook must not run on the fast path");
    assert_eq!(h.stats().combined_ops(), 0);

    // Every transaction aborts: the plan escalates to the serialized
    // section and the hook combines two more plans under the same lock.
    let tree = batched_tree(Strategy::Tle, HtmConfig::default().with_spurious(1.0));
    let mut h = tree.handle();
    let plan = vec![BatchOp::Insert(10, 1), BatchOp::Insert(11, 1)];
    let (replies, path) = h.run_batch_with(&plan, |apply| {
        assert_eq!(
            apply.apply(&[BatchOp::Insert(12, 1), BatchOp::Get(10)]),
            vec![None, Some(1)],
        );
        assert_eq!(apply.apply(&[BatchOp::Remove(11)]), vec![Some(1)]);
    });
    assert_eq!(path, PathKind::Fallback);
    assert_eq!(replies, vec![None, None]);
    assert_eq!(h.stats().combined_ops(), 3);
    let collected = tree.collect();
    assert_eq!(collected, vec![(10, 1), (12, 1)]);
}

#[test]
fn batch_replies_honor_out_of_range_keys() {
    let tree = batched_tree(Strategy::ThreePath, HtmConfig::default());
    let mut h = tree.handle();
    let plan = vec![
        BatchOp::Insert(5, 50),
        BatchOp::Remove(u64::MAX),
        BatchOp::Get(u64::MAX - 1),
        BatchOp::Get(5),
    ];
    let (replies, _) = h.run_batch(&plan);
    assert_eq!(replies, vec![None, None, None, Some(50)]);
}

#[test]
#[should_panic(expected = "batched contexts require")]
fn batching_rejects_non_batch_strategies() {
    let _ = Bst::with_config(TemplateConfig {
        strategy: Strategy::NonHtm,
        batched: true,
        ..TemplateConfig::default()
    });
}

// ----------------------------------------------------------------------
// Fixed configuration knobs: attempt budgets, the admission gate, the
// SNZI indicator, the node pool and the read/scan path switches. Each is
// set once at construction; every setting must keep the tree exact.
// ----------------------------------------------------------------------

fn tree_from(cfg: TemplateConfig) -> Arc<Bst> {
    Arc::new(Bst::with_config(cfg))
}

#[test]
fn limit_override_reaches_the_tree() {
    for strategy in all_strategies() {
        let tree = tree_with(strategy, HtmConfig::default(), false);
        assert_eq!(
            tree.exec().limits(),
            PathLimits::for_strategy(strategy),
            "{strategy}"
        );
        let limits = PathLimits { fast: 2, middle: 3 };
        let tree = tree_from(TemplateConfig {
            strategy,
            limits: Some(limits),
            ..TemplateConfig::default()
        });
        assert_eq!(tree.exec().limits(), limits, "{strategy}");
    }
}

#[test]
fn zero_budgets_route_every_update_through_the_fallback() {
    let tree = tree_from(TemplateConfig {
        limits: Some(PathLimits { fast: 0, middle: 0 }),
        ..TemplateConfig::default()
    });
    let mut h = tree.handle();
    let mut oracle = BTreeMap::new();
    for i in 0..300u64 {
        let k = (i * 7) % 64;
        if i % 3 == 2 {
            assert_eq!(h.remove(k), oracle.remove(&k));
        } else {
            assert_eq!(h.insert(k, i), oracle.insert(k, i));
        }
    }
    let st = h.stats();
    assert_eq!(st.completed(PathKind::Fast), 0);
    assert_eq!(st.completed(PathKind::Middle), 0);
    assert_eq!(st.completed(PathKind::Fallback), 300);
    assert_eq!(st.total_aborts(), 0, "no transaction was attempted");
    let want: Vec<(u64, u64)> = oracle.into_iter().collect();
    assert_eq!(tree.collect(), want);
    tree.validate().expect("tree invariants violated");
}

#[test]
fn fast_only_budget_never_uses_the_middle_path() {
    let tree = tree_from(TemplateConfig {
        htm: HtmConfig::default().with_spurious(0.7),
        limits: Some(PathLimits { fast: 2, middle: 0 }),
        ..TemplateConfig::default()
    });
    let mut h = tree.handle();
    for i in 0..1000u64 {
        let k = i % 97;
        if i % 2 == 0 {
            h.insert(k, i);
        } else {
            h.remove(k);
        }
    }
    let st = h.stats();
    assert_eq!(st.completed(PathKind::Middle), 0);
    assert_eq!(st.commits(PathKind::Middle), 0);
    assert!(st.completed(PathKind::Fast) > 0);
    assert!(
        st.completed(PathKind::Fallback) > 0,
        "aborted ops skip to the fallback"
    );
    tree.validate().expect("tree invariants violated");
}

#[test]
fn oracle_admission_gate_under_aborts() {
    for (i, strategy) in [Strategy::Tle, Strategy::ThreePath].into_iter().enumerate() {
        let tree = tree_from(TemplateConfig {
            strategy,
            htm: HtmConfig::default().with_spurious(0.5),
            admission: Some(1),
            ..TemplateConfig::default()
        });
        oracle_run_on(tree, 500 + i as u64, 1500);
    }
}

#[test]
fn keysum_stress_admission_gate() {
    for strategy in [Strategy::Tle, Strategy::ThreePath] {
        let tree = tree_from(TemplateConfig {
            strategy,
            htm: HtmConfig::default().with_spurious(0.5),
            admission: Some(1),
            ..TemplateConfig::default()
        });
        keysum_stress_on(tree, 4, 1200);
    }
}

#[test]
fn oracle_snzi_all_strategies() {
    for (i, strategy) in all_strategies().into_iter().enumerate() {
        let tree = tree_from(TemplateConfig {
            strategy,
            htm: HtmConfig::default().with_spurious(0.5),
            snzi: true,
            ..TemplateConfig::default()
        });
        oracle_run_on(tree, 600 + i as u64, 1200);
    }
}

#[test]
fn keysum_stress_snzi() {
    for strategy in [Strategy::TwoPathNonCon, Strategy::ThreePath] {
        let tree = tree_from(TemplateConfig {
            strategy,
            htm: HtmConfig::default().with_spurious(0.4),
            snzi: true,
            ..TemplateConfig::default()
        });
        keysum_stress_on(tree, 4, 1200);
    }
}

#[test]
fn oracle_with_pool_off() {
    for (i, strategy) in all_strategies().into_iter().enumerate() {
        let tree = tree_from(TemplateConfig {
            strategy,
            pool: false,
            ..TemplateConfig::default()
        });
        oracle_run_on(tree.clone(), 700 + i as u64, 1500);
        assert_eq!(tree.pool_stats().alloc_total, 0, "{strategy}: pool off");
    }
}

#[test]
fn oracle_with_read_and_scan_paths_off() {
    for (i, strategy) in all_strategies().into_iter().enumerate() {
        let tree = tree_from(TemplateConfig {
            strategy,
            read_path: false,
            scan_path: false,
            ..TemplateConfig::default()
        });
        oracle_run_on(tree.clone(), 800 + i as u64, 1500);
        let mut h = tree.handle();
        h.get(1);
        h.range_query(0, 100);
        assert_eq!(h.stats().completed(PathKind::Read), 0, "{strategy}");
        assert_eq!(h.stats().total_completed(), 2, "{strategy}");
    }
}
