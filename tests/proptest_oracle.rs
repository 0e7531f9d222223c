//! Property-based oracle tests: arbitrary operation sequences against
//! `BTreeMap`, across structures and strategies.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use threepath::abtree::AbTree;
use threepath::bst::Bst;
use threepath::core::{merge_subranges, Strategy as ExecStrategy, TemplateConfig};
use threepath::htm::HtmConfig;
use threepath::kcas::KcasList;
use threepath::sharded::{RouterKind, ShardBackend, ShardedConfig, ShardedMap};

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    Range(u64, u64),
}

fn op_strategy(key_range: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..key_range, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..key_range).prop_map(Op::Remove),
        (0..key_range).prop_map(Op::Get),
        (0..key_range, 0..64u64).prop_map(|(lo, len)| Op::Range(lo, lo + len)),
    ]
}

fn exec_strategy() -> impl Strategy<Value = ExecStrategy> {
    prop_oneof![
        Just(ExecStrategy::NonHtm),
        Just(ExecStrategy::Tle),
        Just(ExecStrategy::TwoPathCon),
        Just(ExecStrategy::TwoPathNonCon),
        Just(ExecStrategy::ThreePath),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn bst_matches_btreemap(ops in proptest::collection::vec(op_strategy(64), 1..400),
                            strat in exec_strategy(),
                            spurious in prop_oneof![Just(0.0), Just(0.5)]) {
        let tree = Arc::new(Bst::with_config(TemplateConfig {
            strategy: strat,
            htm: HtmConfig::default().with_spurious(spurious),
            ..TemplateConfig::default()
        }));
        let mut h = tree.handle();
        let mut oracle = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => prop_assert_eq!(h.insert(k, v), oracle.insert(k, v)),
                Op::Remove(k) => prop_assert_eq!(h.remove(k), oracle.remove(&k)),
                Op::Get(k) => prop_assert_eq!(h.get(k), oracle.get(&k).copied()),
                Op::Range(lo, hi) => {
                    let want: Vec<(u64, u64)> =
                        oracle.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(h.range_query(lo, hi), want);
                }
            }
        }
        drop(h);
        let shape = tree.validate().map_err(TestCaseError::fail)?;
        prop_assert_eq!(shape.keys, oracle.len());
    }

    #[test]
    fn abtree_matches_btreemap(ops in proptest::collection::vec(op_strategy(128), 1..400),
                               strat in exec_strategy()) {
        let tree = Arc::new(AbTree::with_config(TemplateConfig {
            strategy: strat,
            ..TemplateConfig::default()
        }));
        let mut h = tree.handle();
        let mut oracle = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => prop_assert_eq!(h.insert(k, v), oracle.insert(k, v)),
                Op::Remove(k) => prop_assert_eq!(h.remove(k), oracle.remove(&k)),
                Op::Get(k) => prop_assert_eq!(h.get(k), oracle.get(&k).copied()),
                Op::Range(lo, hi) => {
                    let want: Vec<(u64, u64)> =
                        oracle.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(h.range_query(lo, hi), want);
                }
            }
        }
        drop(h);
        let shape = tree.validate().map_err(TestCaseError::fail)?;
        prop_assert_eq!(shape.keys, oracle.len());
        prop_assert_eq!(shape.tagged, 0);
        prop_assert_eq!(shape.underfull, 0);
    }

    /// The same `Op` sequences as above, against the sharded map under
    /// **both routing policies**. The key range (96) always spans several
    /// shards, and `Range` ops cross shard boundaries: under the range
    /// router they exercise the ordered per-shard merge, and under the
    /// hash router the sort-merge over every shard's scattered members —
    /// both against the `BTreeMap` oracle's `range`.
    #[test]
    fn sharded_matches_btreemap(ops in proptest::collection::vec(op_strategy(96), 1..400),
                                shards in prop_oneof![Just(2usize), Just(8usize)],
                                strat in exec_strategy(),
                                router in prop_oneof![Just(RouterKind::Range), Just(RouterKind::Hash)],
                                abtree in any::<bool>()) {
        let map = Arc::new(ShardedMap::with_config(ShardedConfig {
            shards,
            backend: if abtree { ShardBackend::AbTree } else { ShardBackend::Bst },
            key_space: 96,
            router,
            strategy: strat,
            ..ShardedConfig::default()
        }).expect("valid config"));
        let mut h = map.handle();
        let mut oracle = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => prop_assert_eq!(h.insert(k, v), oracle.insert(k, v)),
                Op::Remove(k) => prop_assert_eq!(h.remove(k), oracle.remove(&k)),
                Op::Get(k) => prop_assert_eq!(h.get(k), oracle.get(&k).copied()),
                Op::Range(lo, hi) => {
                    let want: Vec<(u64, u64)> =
                        oracle.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(h.range_query(lo, hi), want);
                }
            }
        }
        drop(h);
        map.validate().map_err(TestCaseError::fail)?;
        prop_assert_eq!(map.len(), oracle.len());
        let want_sum: u128 = oracle.keys().map(|&k| k as u128).sum();
        prop_assert_eq!(map.key_sum(), want_sum);
        let want: Vec<(u64, u64)> = oracle.into_iter().collect();
        prop_assert_eq!(map.collect(), want);
    }

    /// The hole-repair interval algebra behind partial rescans: merging
    /// arbitrary subranges — adjacent, overlapping, swallowed, inverted,
    /// empty — must preserve exactly the covered points (brute-force
    /// membership oracle over the small universe), emit a minimal sorted
    /// disjoint list, and be a fixpoint (re-merging the output is a
    /// no-op, so repeated repair rounds cannot oscillate).
    #[test]
    fn merge_subranges_matches_coverage_oracle(
        ranges in proptest::collection::vec((0..48u64, 0..48u64), 0..24),
    ) {
        let merged = merge_subranges(ranges.clone());
        let covered = |set: &[(u64, u64)], x: u64| set.iter().any(|&(lo, hi)| lo <= x && x < hi);
        for x in 0..48u64 {
            prop_assert_eq!(
                covered(&merged, x),
                covered(&ranges, x),
                "coverage differs at {}", x
            );
        }
        for &(lo, hi) in &merged {
            prop_assert!(lo < hi, "empty subrange survived: [{}, {})", lo, hi);
        }
        for w in merged.windows(2) {
            prop_assert!(
                w[0].1 < w[1].0,
                "adjacent or overlapping output: {:?} then {:?}", w[0], w[1]
            );
        }
        prop_assert_eq!(merge_subranges(merged.clone()), merged, "not a fixpoint");
    }

    #[test]
    fn kcas_list_matches_btreemap(ops in proptest::collection::vec(op_strategy(48), 1..250)) {
        let list = Arc::new(KcasList::new());
        let mut h = list.handle();
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    let k = k + 1; // list keys start at 1 (head sentinel)
                    let inserted = h.insert(k, v);
                    prop_assert_eq!(inserted, !oracle.contains_key(&k));
                    oracle.entry(k).or_insert(v);
                }
                Op::Remove(k) => prop_assert_eq!(h.remove(k + 1), oracle.remove(&(k + 1))),
                Op::Get(k) => prop_assert_eq!(h.get(k + 1), oracle.get(&(k + 1)).copied()),
                Op::Range(..) => {} // lists do not expose range queries
            }
        }
        drop(h);
        let want: Vec<(u64, u64)> = oracle.into_iter().collect();
        prop_assert_eq!(list.collect(), want);
    }
}
