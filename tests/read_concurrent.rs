//! Concurrent correctness of the uninstrumented read path: wait-free
//! readers race updaters on both backends, under every strategy, with
//! injected spurious aborts — the regime where the old `run_op` read
//! wiring collapsed onto the serialized fallback paths and the new read
//! path must stay correct *without any synchronization*.
//!
//! Invariants (all interleaving-independent):
//!
//! * **Value determinism** — updaters only ever insert `value = f(key)`,
//!   so any lookup must return `None` or exactly `f(key)`: a torn read
//!   (mixing cells of a mid-flight in-place (a,b)-tree leaf mutation)
//!   would surface as a foreign value.
//! * **Key-sum** — updaters track their successful-insert/remove delta;
//!   the quiescent tree must agree.
//! * **Stats discipline** — reader handles complete on the read lane
//!   only; the sole exception is a validation-storm escalation, which is
//!   itself counted, so `fast + middle + fallback == escalations` exactly
//!   (and exactly zero on the BST, whose reads never validate at all).
//!
//! Multi-threaded, so the file rides in the default-on `stress-tests`
//! lane like `tests/concurrent.rs`.
#![cfg(feature = "stress-tests")]

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

mod common;
use common::StopOnDrop;

use threepath::abtree::AbTree;
use threepath::bst::Bst;
use threepath::core::{PathKind, PathStats, Strategy, TemplateConfig};
use threepath::htm::{HtmConfig, SplitMix64};
use threepath::sharded::{RouterKind, ShardBackend, ShardTree, ShardedConfig, ShardedMap};

const KEY_RANGE: u64 = 256;

fn expected_value(k: u64) -> u64 {
    k.wrapping_mul(3).wrapping_add(1)
}

/// Non-read-lane completions must be exactly the escalations (zero for
/// the BST backend, whose reads never escalate).
fn assert_reader_stats(stats: &PathStats, backend: ShardBackend) {
    assert!(
        stats.completed(PathKind::Read) > 0,
        "{backend}: reader never used the read lane"
    );
    let non_read: u64 = [PathKind::Fast, PathKind::Middle, PathKind::Fallback]
        .iter()
        .map(|&p| stats.completed(p))
        .sum();
    assert_eq!(
        non_read,
        stats.read_escalations(),
        "{backend}: reads completed off the read lane without an escalation"
    );
    if backend == ShardBackend::Bst {
        assert_eq!(stats.read_escalations(), 0, "BST reads never validate");
        assert_eq!(stats.read_retries(), 0);
    }
}

/// Readers race updaters on one tree of `backend` under `strategy` with
/// spurious aborts injected; returns nothing, asserts everything.
fn race(backend: ShardBackend, strategy: Strategy) {
    let tree = ShardTree::build(&ShardedConfig {
        backend,
        strategy,
        key_space: KEY_RANGE,
        htm: HtmConfig::default().with_spurious(0.4).with_seed(11),
        ..ShardedConfig::default()
    });
    let stop = Arc::new(AtomicBool::new(false));
    let delta = Arc::new(AtomicI64::new(0));
    std::thread::scope(|s| {
        let _guard = StopOnDrop(stop.clone());
        // Updaters: value-deterministic 50/50 insert/remove churn.
        let mut joins = Vec::new();
        for t in 0..3u64 {
            let tree = tree.clone();
            let delta = delta.clone();
            joins.push(s.spawn(move || {
                let mut h = tree.handle();
                let mut rng = SplitMix64::new(0xD0_0D + t);
                let mut local = 0i64;
                for _ in 0..3000u64 {
                    let k = rng.next_below(KEY_RANGE);
                    if rng.next_below(2) == 0 {
                        if h.insert(k, expected_value(k)).is_none() {
                            local += k as i64;
                        }
                    } else if h.remove(k).is_some() {
                        local -= k as i64;
                    }
                }
                delta.fetch_add(local, Ordering::Relaxed);
            }));
        }
        // Readers: uninstrumented lookups racing the churn.
        for t in 0..2u64 {
            let tree = tree.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut h = tree.handle();
                let mut rng = SplitMix64::new(0xBEEF + t);
                let mut reads = 0u64;
                // Keep reading for a minimum op count even after the
                // updaters stop (in release mode they can finish before
                // a reader is ever scheduled).
                while !stop.load(Ordering::Relaxed) || reads < 500 {
                    let k = rng.next_below(KEY_RANGE);
                    if let Some(v) = h.get(k) {
                        assert_eq!(
                            v,
                            expected_value(k),
                            "{backend}/{strategy}: torn or foreign value for key {k}"
                        );
                    }
                    reads += 1;
                }
                assert_reader_stats(h.stats(), backend);
            });
        }
        for j in joins {
            j.join().unwrap();
        }
    });
    tree.validate().unwrap();
    assert_eq!(
        tree.key_sum() as i128,
        delta.load(Ordering::Relaxed) as i128,
        "{backend}/{strategy}: keysum mismatch"
    );
}

#[test]
fn readers_race_updaters_bst_all_strategies() {
    for strategy in Strategy::ALL {
        race(ShardBackend::Bst, strategy);
    }
}

#[test]
fn readers_race_updaters_abtree_all_strategies() {
    for strategy in Strategy::ALL {
        race(ShardBackend::AbTree, strategy);
    }
}

/// `first`/`last` ride the read path too: racing updates, the returned
/// pair must always be value-consistent.
#[test]
fn extremes_race_updaters_on_both_backends() {
    let bst = Arc::new(Bst::with_config(TemplateConfig {
        htm: HtmConfig::default().with_spurious(0.3),
        ..TemplateConfig::default()
    }));
    let ab = Arc::new(AbTree::with_config(TemplateConfig {
        htm: HtmConfig::default().with_spurious(0.3),
        ..TemplateConfig::default()
    }));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let _guard = StopOnDrop(stop.clone());
        let mut joins = Vec::new();
        for t in 0..2u64 {
            let bst = bst.clone();
            let ab = ab.clone();
            joins.push(s.spawn(move || {
                let mut hb = bst.handle();
                let mut ha = ab.handle();
                let mut rng = SplitMix64::new(77 + t);
                for _ in 0..4000u64 {
                    let k = rng.next_below(KEY_RANGE);
                    if rng.next_below(2) == 0 {
                        hb.insert(k, expected_value(k));
                        ha.insert(k, expected_value(k));
                    } else {
                        hb.remove(k);
                        ha.remove(k);
                    }
                }
            }));
        }
        {
            let bst = bst.clone();
            let ab = ab.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut hb = bst.handle();
                let mut ha = ab.handle();
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) || rounds < 200 {
                    rounds += 1;
                    for (k, v) in [hb.first(), hb.last(), ha.first(), ha.last()]
                        .into_iter()
                        .flatten()
                    {
                        assert_eq!(v, expected_value(k), "torn extreme ({k}, {v})");
                        assert!(k < KEY_RANGE);
                    }
                }
                // Both handles only ever read: all on the read lane
                // modulo counted escalations.
                assert_reader_stats(hb.stats(), ShardBackend::Bst);
                assert_reader_stats(ha.stats(), ShardBackend::AbTree);
            });
        }
        for j in joins {
            j.join().unwrap();
        }
    });
    bst.validate().unwrap();
    ab.validate().unwrap();
}

/// The sharded front end routes `get` straight to the owning shard's
/// read path: hash-routed readers race updaters across shards and the
/// merged handle statistics show read-lane traffic only.
#[test]
fn sharded_readers_race_updaters() {
    for backend in [ShardBackend::Bst, ShardBackend::AbTree] {
        let map = Arc::new(
            ShardedMap::with_config(ShardedConfig {
                shards: 4,
                backend,
                key_space: KEY_RANGE,
                router: RouterKind::Hash,
                htm: HtmConfig::default().with_spurious(0.35),
                ..ShardedConfig::default()
            })
            .unwrap(),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let delta = Arc::new(AtomicI64::new(0));
        std::thread::scope(|s| {
            let _guard = StopOnDrop(stop.clone());
            let mut joins = Vec::new();
            for t in 0..3u64 {
                let map = map.clone();
                let delta = delta.clone();
                joins.push(s.spawn(move || {
                    let mut h = map.handle();
                    let mut rng = SplitMix64::new(0xACE + t);
                    let mut local = 0i64;
                    for _ in 0..2500u64 {
                        let k = rng.next_below(KEY_RANGE);
                        if rng.next_below(2) == 0 {
                            if h.insert(k, expected_value(k)).is_none() {
                                local += k as i64;
                            }
                        } else if h.remove(k).is_some() {
                            local -= k as i64;
                        }
                    }
                    delta.fetch_add(local, Ordering::Relaxed);
                }));
            }
            {
                let map = map.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    let mut h = map.handle();
                    let mut rng = SplitMix64::new(0xF00);
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Relaxed) || reads < 500 {
                        let k = rng.next_below(KEY_RANGE);
                        if let Some(v) = h.get(k) {
                            assert_eq!(v, expected_value(k), "{backend}: torn sharded read");
                        }
                        reads += 1;
                    }
                    assert_reader_stats(&h.stats(), backend);
                });
            }
            for j in joins {
                j.join().unwrap();
            }
        });
        map.validate().unwrap();
        assert_eq!(
            map.key_sum() as i128,
            delta.load(Ordering::Relaxed) as i128,
            "{backend}: sharded keysum mismatch"
        );
    }
}

/// Steady state, no contention: reads execute zero HTM transactions on
/// both backends under both TLE and 3-path, even while spurious aborts
/// doom every transaction the tree might have tried — the acceptance
/// criterion of the read-path PR.
#[test]
fn steady_state_reads_execute_zero_transactions() {
    for backend in [ShardBackend::Bst, ShardBackend::AbTree] {
        for strategy in [Strategy::ThreePath, Strategy::Tle] {
            let tree = ShardTree::build(&ShardedConfig {
                backend,
                strategy,
                key_space: KEY_RANGE,
                htm: HtmConfig::default().with_spurious(0.95),
                ..ShardedConfig::default()
            });
            {
                let mut w = tree.handle();
                for k in 0..KEY_RANGE / 2 {
                    w.insert(k * 2, expected_value(k * 2));
                }
            }
            let mut r = tree.handle();
            let mut rng = SplitMix64::new(3);
            for _ in 0..2000 {
                let k = rng.next_below(KEY_RANGE);
                let got = r.get(k);
                if k % 2 == 0 {
                    assert_eq!(got, Some(expected_value(k)));
                } else {
                    assert_eq!(got, None);
                }
            }
            let st = r.stats();
            assert_eq!(st.completed(PathKind::Read), 2000, "{backend}/{strategy}");
            for p in [PathKind::Fast, PathKind::Middle, PathKind::Fallback] {
                assert_eq!(st.completed(p), 0, "{backend}/{strategy}: {p} used");
                assert_eq!(st.commits(p), 0);
                assert_eq!(st.aborts(p).total(), 0);
            }
            assert_eq!(st.read_retries(), 0, "quiescent reads never retry");
            assert_eq!(st.read_escalations(), 0);
        }
    }
}
