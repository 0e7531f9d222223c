//! Guard for the claim every (a,b)-tree descent rests on: a reachable
//! internal node's size and routing keys never change. Descents read them
//! with plain loads, untracked (see `AbNode::route`), so a rebalancing
//! step that rewrote them in place would go unseen by a concurrent
//! transaction. A seeded single-thread churn grows and shrinks the tree
//! (leaf and internal splits, absorbs, merges and redistributes) under
//! every strategy, calm and with half of all transactions aborting
//! spuriously, and after every operation checks that each reachable
//! internal address still holds the keys it held when first seen.

use std::collections::HashMap;
use std::sync::Arc;

use threepath_abtree::AbTree;
use threepath_core::{PathKind, PathLimits, PathStats, Strategy, TemplateConfig};
use threepath_htm::{HtmConfig, SplitMix64};
use threepath_reclaim::ReclaimMode;

/// Keys drawn from `0..KEY_SPACE`.
const KEY_SPACE: u64 = 4096;
/// Each round inserts up to `HIGH` keys, then removes down to `LOW`.
const HIGH: usize = 1200;
const LOW: usize = 60;
const ROUNDS: usize = 2;

/// What one churn saw: the largest number of internal nodes reachable at
/// once, and how many internal nodes left the tree.
struct Churn {
    max_internal: usize,
    replaced: usize,
}

/// Runs the churn on one configuration, checking the routing keys after
/// every operation. Returns what it saw and the handle's path counts.
fn churn(strategy: Strategy, spurious: f64, seed: u64) -> (Churn, PathStats) {
    // Leak: no block is reused while the tree lives. One handle call can
    // run several rebalancing steps, so under epoch reclamation a node
    // retired by one step could come back, with other keys, at the same
    // address before the next walk.
    //
    // Two attempts per HTM path: at the default budgets (10 to 20) half
    // of all transactions aborting would almost never exhaust one, and the
    // fallback and TLE's locked path would not run.
    let default = PathLimits::for_strategy(strategy);
    let tree = Arc::new(AbTree::with_config(TemplateConfig {
        strategy,
        htm: HtmConfig {
            spurious_abort_prob: spurious,
            ..HtmConfig::default()
        },
        limits: Some(PathLimits {
            fast: 2,
            middle: default.middle.min(2),
        }),
        reclaim: ReclaimMode::Leak,
        ..TemplateConfig::default()
    }));
    let mut h = tree.handle();
    let mut rng = SplitMix64::new(seed);
    let mut present: Vec<u64> = Vec::new();
    let mut first_seen: HashMap<usize, Vec<u64>> = HashMap::new();
    let mut seen = Churn {
        max_internal: 0,
        replaced: 0,
    };
    let mut check = |what: &str| {
        let now = tree.routing_keys();
        for (addr, keys) in &now {
            let was = first_seen.entry(*addr).or_insert_with(|| keys.clone());
            assert_eq!(
                was, keys,
                "{strategy:?}, spurious {spurious}: internal node {addr:#x} changed its routing keys in place after {what}"
            );
        }
        // Addresses that left the tree are forgotten.
        let before = first_seen.len();
        first_seen.retain(|addr, _| now.iter().any(|(a, _)| a == addr));
        seen.replaced += before - first_seen.len();
        seen.max_internal = seen.max_internal.max(now.len());
    };
    for _ in 0..ROUNDS {
        while present.len() < HIGH {
            let k = rng.next_below(KEY_SPACE);
            if h.insert(k, k + 1).is_none() {
                present.push(k);
            }
            check(&format!("insert({k})"));
        }
        while present.len() > LOW {
            let i = rng.next_below(present.len() as u64) as usize;
            let k = present.swap_remove(i);
            assert_eq!(h.remove(k), Some(k + 1), "remove({k})");
            check(&format!("remove({k})"));
        }
    }
    let shape = tree.validate().expect("structural invariant violated");
    assert_eq!(
        (shape.tagged, shape.underfull),
        (0, 0),
        "leftover violations"
    );
    assert_eq!(shape.keys, present.len());
    (seen, h.stats().clone())
}

#[test]
fn reachable_internal_nodes_keep_their_routing_keys() {
    let mut completed = [0u64; 3];
    for (i, strategy) in Strategy::ALL.into_iter().enumerate() {
        for spurious in [0.0, 0.5] {
            let (seen, stats) = churn(strategy, spurious, 43 + i as u64);
            // Internal nodes split and merged: the tree reached a height
            // with internal nodes below the root, and some were replaced.
            assert!(seen.max_internal >= 3, "{strategy:?}: tree stayed shallow");
            assert!(seen.replaced > 0, "{strategy:?}: no internal node replaced");
            for (n, path) in
                completed
                    .iter_mut()
                    .zip([PathKind::Fast, PathKind::Middle, PathKind::Fallback])
            {
                *n += stats.completed(path);
            }
            if strategy == Strategy::Tle && spurious > 0.0 {
                assert!(
                    stats.completed(PathKind::Fallback) > 0,
                    "TLE's locked path never ran"
                );
            }
        }
    }
    assert!(
        completed.iter().all(|&n| n > 0),
        "fast, middle and fallback completions: {completed:?}"
    );
}
