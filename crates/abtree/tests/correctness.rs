//! (a,b)-tree correctness: oracle comparison, rebalancing convergence,
//! relaxed-balance invariants, and concurrent key-sum stress.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

use threepath_abtree::{AbTree, B};
use threepath_core::{BatchOp, PathKind, PathLimits, Strategy, TemplateConfig};
use threepath_htm::{HtmConfig, SplitMix64};

fn tree_with(strategy: Strategy, htm: HtmConfig, sec8: bool) -> Arc<AbTree> {
    Arc::new(AbTree::with_config(TemplateConfig {
        strategy,
        htm,
        search_outside_txn: sec8,
        ..TemplateConfig::default()
    }))
}

/// Asserts the tree is fully balanced (no leftover violations) and returns
/// its shape. Every update fixes the violations it creates before
/// returning, so a quiescent tree must be clean.
fn assert_balanced(tree: &AbTree) -> threepath_abtree::AbShape {
    let shape = tree.validate().expect("structural invariant violated");
    assert_eq!(shape.tagged, 0, "leftover tagged nodes");
    assert_eq!(shape.underfull, 0, "leftover underfull nodes");
    shape
}

fn oracle_run(strategy: Strategy, htm: HtmConfig, sec8: bool, seed: u64, ops: usize) {
    oracle_run_on(tree_with(strategy, htm, sec8), seed, ops);
}

/// [`oracle_run`] on an already configured tree.
fn oracle_run_on(tree: Arc<AbTree>, seed: u64, ops: usize) {
    let mut h = tree.handle();
    let mut oracle = BTreeMap::new();
    let mut rng = SplitMix64::new(seed);
    let key_range = 400;

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
                let hi = k + rng.next_below(80);
                let got = h.range_query(lo, hi);
                let want: Vec<(u64, u64)> =
                    oracle.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, want, "rq({lo},{hi}) @ {i}");
            }
        }
    }
    let shape = assert_balanced(&tree);
    assert_eq!(shape.keys, oracle.len());
    assert_eq!(
        tree.collect(),
        oracle.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>()
    );
}

#[test]
fn oracle_all_strategies() {
    for (i, s) in Strategy::ALL.into_iter().enumerate() {
        oracle_run(s, HtmConfig::default(), false, 21 + i as u64, 4000);
    }
}

#[test]
fn oracle_search_outside_txn() {
    for (i, s) in Strategy::ALL.into_iter().enumerate() {
        oracle_run(s, HtmConfig::default(), true, 77 + i as u64, 3000);
    }
}

#[test]
fn oracle_under_spurious_aborts() {
    for (i, s) in Strategy::ALL.into_iter().enumerate() {
        oracle_run(
            s,
            HtmConfig::default().with_spurious(0.6),
            false,
            5 + i as u64,
            1500,
        );
    }
}

#[test]
fn oracle_under_tiny_capacity() {
    for (i, s) in Strategy::ALL.into_iter().enumerate() {
        oracle_run(s, HtmConfig::tiny_capacity(), false, 90 + i as u64, 600);
    }
}

#[test]
fn grows_and_shrinks_through_many_levels() {
    let tree = tree_with(Strategy::ThreePath, HtmConfig::default(), false);
    let mut h = tree.handle();
    let n = 5000u64;
    for k in 0..n {
        h.insert(k, k);
    }
    let shape = assert_balanced(&tree);
    assert_eq!(shape.keys, n as usize);
    assert!(shape.depth_max >= 3, "tree should have grown levels");
    // Every key retrievable.
    for k in (0..n).step_by(97) {
        assert_eq!(h.get(k), Some(k));
    }
    // Shrink back to (almost) nothing.
    for k in 0..n {
        assert_eq!(h.remove(k), Some(k));
    }
    let shape = assert_balanced(&tree);
    assert_eq!(shape.keys, 0);
    assert!(
        shape.depth_max <= 1,
        "empty tree should have collapsed (depth {})",
        shape.depth_max
    );
}

#[test]
fn descending_and_interleaved_insertion_orders() {
    for seed_mode in 0..3 {
        let tree = tree_with(Strategy::ThreePath, HtmConfig::default(), false);
        let mut h = tree.handle();
        let n = 2000u64;
        let keys: Vec<u64> = match seed_mode {
            0 => (0..n).rev().collect(),
            1 => (0..n).map(|i| (i * 7919) % n).collect(),
            _ => (0..n).map(|i| if i % 2 == 0 { i } else { n - i }).collect(),
        };
        for &k in &keys {
            h.insert(k, k + 1);
        }
        let shape = assert_balanced(&tree);
        let distinct: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        assert_eq!(shape.keys, distinct.len());
    }
}

fn keysum_stress(strategy: Strategy, htm: HtmConfig, sec8: bool, threads: usize, ops: usize) {
    keysum_stress_on(tree_with(strategy, htm, sec8), threads, ops);
}

/// [`keysum_stress`] on an already configured tree.
fn keysum_stress_on(tree: Arc<AbTree>, threads: usize, ops: usize) {
    let strategy = tree.exec().strategy();
    let key_range = 2048u64;
    let delta = Arc::new(AtomicI64::new(0));

    std::thread::scope(|s| {
        for t in 0..threads {
            let tree = tree.clone();
            let delta = delta.clone();
            s.spawn(move || {
                let mut h = tree.handle();
                let mut rng = SplitMix64::new(0xF00D + t as u64);
                let mut local = 0i64;
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
            });
        }
    });

    let shape = assert_balanced(&tree);
    assert_eq!(
        shape.key_sum as i128,
        delta.load(Ordering::Relaxed) as i128,
        "key-sum mismatch under {strategy}"
    );
}

#[test]
fn keysum_stress_all_strategies() {
    for s in Strategy::ALL {
        keysum_stress(s, HtmConfig::default(), false, 4, 2000);
    }
}

#[test]
fn keysum_stress_spurious() {
    for s in Strategy::ALL {
        keysum_stress(s, HtmConfig::default().with_spurious(0.4), false, 4, 1000);
    }
}

#[test]
fn keysum_stress_search_outside_txn() {
    for s in [Strategy::ThreePath, Strategy::TwoPathCon, Strategy::Tle] {
        keysum_stress(s, HtmConfig::default(), true, 4, 1200);
    }
}

#[test]
fn heavy_workload_with_range_queries() {
    for strategy in Strategy::ALL {
        let tree = tree_with(strategy, HtmConfig::default(), false);
        let key_range = 4096u64;
        let stop = Arc::new(AtomicBool::new(false));
        let delta = Arc::new(AtomicI64::new(0));

        std::thread::scope(|s| {
            for t in 0..3 {
                let tree = tree.clone();
                let delta = delta.clone();
                s.spawn(move || {
                    let mut h = tree.handle();
                    let mut rng = SplitMix64::new(31 + t as u64);
                    let mut local = 0i64;
                    for i in 0..1200 {
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
                    let mut rng = SplitMix64::new(99);
                    while !stop.load(Ordering::Relaxed) {
                        let lo = rng.next_below(key_range);
                        let len = 1 + rng.next_below(512);
                        let out = h.range_query(lo, lo + len);
                        for w in out.windows(2) {
                            assert!(w[0].0 < w[1].0, "range query not sorted/unique");
                        }
                        for (k, _) in &out {
                            assert!(*k >= lo && *k < lo + len);
                        }
                    }
                });
            }
            while Arc::strong_count(&delta) > 2 {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
        });

        let shape = assert_balanced(&tree);
        assert_eq!(shape.key_sum as i128, delta.load(Ordering::Relaxed) as i128);
    }
}

#[test]
fn three_path_uses_all_paths_under_pressure() {
    let tree = tree_with(
        Strategy::ThreePath,
        HtmConfig::default().with_spurious(0.7),
        false,
    );
    let mut h = tree.handle();
    let mut rng = SplitMix64::new(3);
    for i in 0..3000 {
        let k = rng.next_below(256);
        if rng.next_below(2) == 0 {
            h.insert(k, i);
        } else {
            h.remove(k);
        }
    }
    let st = h.stats();
    assert!(st.completed(PathKind::Fast) > 0);
    assert!(st.completed(PathKind::Middle) > 0);
    assert!(st.completed(PathKind::Fallback) > 0);
    assert_balanced(&tree);
}

#[test]
fn node_capacity_boundaries() {
    // Exactly B keys fit in one leaf; B+1 forces a split.
    let tree = tree_with(Strategy::ThreePath, HtmConfig::default(), false);
    let mut h = tree.handle();
    for k in 0..B as u64 {
        h.insert(k, k);
    }
    let shape = assert_balanced(&tree);
    assert_eq!(shape.leaves, 1, "B keys should fit in the root leaf");
    h.insert(B as u64, B as u64);
    let shape = assert_balanced(&tree);
    assert!(shape.leaves >= 2, "B+1 keys must split");
    assert_eq!(shape.keys, B + 1);
}

#[test]
fn duplicate_inserts_and_missing_removes() {
    let tree = tree_with(Strategy::ThreePath, HtmConfig::default(), false);
    let mut h = tree.handle();
    assert_eq!(h.insert(7, 70), None);
    assert_eq!(h.insert(7, 71), Some(70));
    assert_eq!(h.insert(7, 72), Some(71));
    assert_eq!(h.remove(8), None);
    assert_eq!(h.remove(7), Some(72));
    assert_eq!(h.remove(7), None);
    assert_balanced(&tree);
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
    assert!(h.contains(30));
    assert!(!h.contains(31));
    h.remove(10);
    h.remove(90);
    assert_eq!(h.first(), Some((30, 31)));
    assert_eq!(h.last(), Some((70, 71)));
}

#[test]
fn first_last_under_concurrent_churn() {
    // Keys churn in [100, 200); a resident floor key 1 and ceiling key 999
    // never change, so first()/last() must always return them.
    let tree = tree_with(Strategy::ThreePath, HtmConfig::default(), false);
    {
        let mut h = tree.handle();
        h.insert(1, 11);
        h.insert(999, 99);
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let tree = tree.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut h = tree.handle();
                let mut rng = SplitMix64::new(t + 77);
                while !stop.load(Ordering::Relaxed) {
                    let k = 100 + rng.next_below(100);
                    if rng.next_below(2) == 0 {
                        h.insert(k, k);
                    } else {
                        h.remove(k);
                    }
                }
            });
        }
        {
            let tree = tree.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut h = tree.handle();
                for _ in 0..2000 {
                    assert_eq!(h.first(), Some((1, 11)));
                    assert_eq!(h.last(), Some((999, 99)));
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });
    assert_balanced(&tree);
}

#[test]
fn bulk_load_matches_incremental() {
    use threepath_abtree::AbTree;
    for n in [0usize, 1, 5, B, B + 1, 100, 5000] {
        let items: Vec<(u64, u64)> = (0..n as u64).map(|k| (k * 3, k)).collect();
        let loaded = Arc::new(AbTree::bulk_load(&items, TemplateConfig::default()));
        let shape = assert_balanced(&loaded);
        assert_eq!(shape.keys, n, "n = {n}");
        assert_eq!(loaded.collect(), items, "n = {n}");
        // The loaded tree must be fully operable.
        let mut h = loaded.handle();
        if n > 0 {
            assert_eq!(h.get(0), Some(0));
            assert_eq!(h.remove(0), Some(0));
            assert_eq!(h.insert(1, 42), None);
        }
        h.insert(u64::MAX - 1, 7);
        assert_eq!(h.last(), Some((u64::MAX - 1, 7)));
        drop(h);
        loaded.validate().unwrap();
    }
}

#[test]
#[should_panic(expected = "strictly ascending")]
fn bulk_load_rejects_unsorted() {
    use threepath_abtree::AbTree;
    let _ = AbTree::bulk_load(&[(5, 0), (3, 0)], TemplateConfig::default());
}

// ----------------------------------------------------------------------
// Batched plans (`AbTreeHandle::run_batch`): whole-plan commit semantics,
// deferred rebalancing, and the flat-combining hook.
// ----------------------------------------------------------------------

fn batched_tree(strategy: Strategy, htm: HtmConfig) -> Arc<AbTree> {
    Arc::new(AbTree::with_config(TemplateConfig {
        strategy,
        htm,
        batched: true,
        ..TemplateConfig::default()
    }))
}

fn ab_batch_oracle_run(strategy: Strategy, htm: HtmConfig, seed: u64, batches: usize) {
    let tree = batched_tree(strategy, htm);
    let mut h = tree.handle();
    let mut oracle = BTreeMap::new();
    let mut rng = SplitMix64::new(seed);

    for b in 0..batches {
        let len = 1 + rng.next_below(16) as usize;
        let plan: Vec<BatchOp> = (0..len)
            .map(|i| {
                let k = rng.next_below(150);
                match rng.next_below(10) {
                    0..=4 => BatchOp::Insert(k, b as u64 * 1000 + i as u64),
                    5..=7 => BatchOp::Remove(k),
                    _ => BatchOp::Get(k),
                }
            })
            .collect();
        let (got, _path) = h.run_batch(&plan);
        let want: Vec<Option<u64>> = plan
            .iter()
            .map(|op| match *op {
                BatchOp::Insert(k, v) => oracle.insert(k, v),
                BatchOp::Remove(k) => oracle.remove(&k),
                BatchOp::Get(k) => oracle.get(&k).copied(),
            })
            .collect();
        assert_eq!(got, want, "batch {b} replies diverge ({strategy})");
    }

    let shape = assert_balanced(&tree);
    assert_eq!(shape.keys, oracle.len());
    let collected = tree.collect();
    let want: Vec<(u64, u64)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(collected, want);
}

#[test]
fn batch_oracle_tle_and_three_path() {
    ab_batch_oracle_run(Strategy::Tle, HtmConfig::default(), 31, 300);
    ab_batch_oracle_run(Strategy::ThreePath, HtmConfig::default(), 32, 300);
}

#[test]
fn batch_oracle_under_spurious_aborts() {
    ab_batch_oracle_run(Strategy::Tle, HtmConfig::default().with_spurious(0.7), 41, 150);
    ab_batch_oracle_run(
        Strategy::ThreePath,
        HtmConfig::default().with_spurious(0.7),
        42,
        150,
    );
}

#[test]
fn batched_inserts_rebalance_and_stay_valid() {
    // Enough sequential inserts per plan to force splits (and thus
    // deferred fix-ups) on nearly every batch.
    let tree = batched_tree(Strategy::ThreePath, HtmConfig::default());
    let mut h = tree.handle();
    for b in 0..64u64 {
        let plan: Vec<BatchOp> = (0..B as u64).map(|i| BatchOp::Insert(b * B as u64 + i, i)).collect();
        h.run_batch(&plan);
    }
    let shape = assert_balanced(&tree);
    assert_eq!(shape.keys, 64 * B);
}

#[test]
fn combine_hook_rebalances_combined_plans() {
    // Every transaction aborts: the batch escalates, the hook applies a
    // split-heavy plan for "another submitter", and the combining handle
    // must repair the violations after the section ends.
    let tree = batched_tree(Strategy::Tle, HtmConfig::default().with_spurious(1.0));
    let mut h = tree.handle();
    let own: Vec<BatchOp> = (0..4u64).map(|i| BatchOp::Insert(i, i)).collect();
    let other: Vec<BatchOp> = (100..100 + 2 * B as u64).map(|k| BatchOp::Insert(k, k)).collect();
    let (_, path) = h.run_batch_with(&own, |apply| {
        let replies = apply.apply(&other);
        assert!(replies.iter().all(|r| r.is_none()));
    });
    assert_eq!(path, PathKind::Fallback);
    assert_eq!(h.stats().combined_ops(), 2 * B as u64);
    let shape = assert_balanced(&tree);
    assert_eq!(shape.keys, 4 + 2 * B);
}

// ----------------------------------------------------------------------
// Fixed configuration knobs: attempt budgets, the admission gate, the
// SNZI indicator and the read/scan path switches. Each is set once at
// construction; every setting must keep the tree exact and balanced.
// ----------------------------------------------------------------------

fn tree_from(cfg: TemplateConfig) -> Arc<AbTree> {
    Arc::new(AbTree::with_config(cfg))
}

#[test]
fn limit_override_reaches_the_tree() {
    for strategy in Strategy::ALL {
        let tree = tree_with(strategy, HtmConfig::default(), false);
        assert_eq!(
            tree.exec().limits(),
            PathLimits::for_strategy(strategy),
            "{strategy}"
        );
        let limits = PathLimits { fast: 4, middle: 1 };
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
    // Enough keys to split leaves and rebalance on the fallback path.
    for i in 0..600u64 {
        let k = (i * 13) % 160;
        if i % 4 == 3 {
            assert_eq!(h.remove(k), oracle.remove(&k));
        } else {
            assert_eq!(h.insert(k, i), oracle.insert(k, i));
        }
    }
    let st = h.stats();
    assert_eq!(st.completed(PathKind::Fast), 0);
    assert_eq!(st.completed(PathKind::Middle), 0);
    // Rebalancing steps run as template operations of their own, so the
    // fallback completes at least one operation per update.
    assert_eq!(st.completed(PathKind::Fallback), st.total_completed());
    assert!(st.completed(PathKind::Fallback) >= 600);
    assert_eq!(st.total_aborts(), 0, "no transaction was attempted");
    let shape = assert_balanced(&tree);
    assert_eq!(shape.keys, oracle.len());
    assert_eq!(tree.collect(), oracle.into_iter().collect::<Vec<_>>());
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
        oracle_run_on(tree, 900 + i as u64, 1500);
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
        keysum_stress_on(tree, 4, 1000);
    }
}

#[test]
fn oracle_snzi_all_strategies() {
    for (i, strategy) in Strategy::ALL.into_iter().enumerate() {
        let tree = tree_from(TemplateConfig {
            strategy,
            htm: HtmConfig::default().with_spurious(0.5),
            snzi: true,
            ..TemplateConfig::default()
        });
        oracle_run_on(tree, 1000 + i as u64, 1200);
    }
}

#[test]
fn oracle_with_read_and_scan_paths_off() {
    for (i, strategy) in Strategy::ALL.into_iter().enumerate() {
        let tree = tree_from(TemplateConfig {
            strategy,
            read_path: false,
            scan_path: false,
            ..TemplateConfig::default()
        });
        oracle_run_on(tree.clone(), 1100 + i as u64, 1500);
        let mut h = tree.handle();
        h.get(1);
        h.range_query(0, 100);
        assert_eq!(h.stats().completed(PathKind::Read), 0, "{strategy}");
        assert_eq!(h.stats().total_completed(), 2, "{strategy}");
    }
}
