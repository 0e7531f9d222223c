//! Concurrent correctness of the optimistic multi-leaf scan path: range
//! scanners race updaters on both backends, under every strategy, with
//! injected spurious aborts — the regime where the `run_op` scan baseline
//! collapses onto the serialized fallback paths and the validation-set
//! scan must stay linearizable *without any transactions*.
//!
//! Invariants (all interleaving-independent):
//!
//! * **Quiescent-prefix oracle** — a key prefix populated before the
//!   stress and never updated again must appear in every scan exactly
//!   (same keys, same sum), whatever races hit the rest of the range.
//! * **Torn couples** — updaters write key couples right-endpoint-first
//!   and remove left-first, so any atomic snapshot satisfies "left
//!   present ⇒ right present"; a scan stitched from two instants would
//!   tear one.
//! * **Value determinism** — churn keys only ever hold `f(key)`; a torn
//!   leaf read would surface as a foreign value.
//! * **Sequence prefix** — one writer overwrites a fixed key set in a
//!   seeded order, each write's value its step number, so every atomic
//!   scan must equal the state after some prefix of that order. This is
//!   the only check here that compares values *across* keys.
//! * **Stats discipline** — scanner handles complete on the read lane
//!   only; the sole exception is a terminal scan escalation, which is
//!   itself counted, so `fast + middle + fallback == scan_escalations`.
//!
//! Multi-threaded, so the file rides in the default-on `stress-tests`
//! lane like `tests/read_concurrent.rs`.
#![cfg(feature = "stress-tests")]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

mod common;
use common::StopOnDrop;

use threepath::core::{PathKind, PathStats, Strategy};
use threepath::htm::{HtmConfig, SplitMix64};
use threepath::sharded::{RouterKind, ShardBackend, ShardTree, ShardedConfig, ShardedMap};
use threepath::workload::{run_trial, Structure, TrialSpec, Workload};

/// Whole key space; see the region map in [`race`].
const KEY_SPACE: u64 = 512;
/// `[0, PREFIX)` is written once and never updated again.
const PREFIX: u64 = 128;

fn expected_value(k: u64) -> u64 {
    k.wrapping_mul(3).wrapping_add(1)
}

/// Non-read-lane completions must be exactly the terminal scan
/// escalations — everything else ran transaction-free.
fn assert_scanner_stats(stats: &PathStats, backend: ShardBackend) {
    assert!(
        stats.completed(PathKind::Read) > 0,
        "{backend}: scanner never used the read lane"
    );
    assert!(
        stats.scan_leaves_validated() > 0,
        "{backend}: scans validated no leaves"
    );
    let non_read: u64 = [PathKind::Fast, PathKind::Middle, PathKind::Fallback]
        .iter()
        .map(|&p| stats.completed(p))
        .sum();
    assert_eq!(
        non_read,
        stats.scan_escalations(),
        "{backend}: scans completed off the read lane without an escalation"
    );
}

/// Builds the quiescent prefix (every other key in `[0, PREFIX)`) and
/// returns its oracle key set.
fn prefill_prefix(h: &mut impl FnMut(u64, u64) -> Option<u64>) -> BTreeSet<u64> {
    let mut oracle = BTreeSet::new();
    for k in (0..PREFIX).step_by(2) {
        assert_eq!(h(k, expected_value(k)), None);
        oracle.insert(k);
    }
    oracle
}

/// Checks one scan result against all interleaving-independent oracles.
fn check_scan(out: &[(u64, u64)], lo: u64, hi: u64, oracle: &BTreeSet<u64>, tag: &str) {
    assert!(
        out.windows(2).all(|w| w[0].0 < w[1].0),
        "{tag}: scan output must be sorted and duplicate-free"
    );
    assert!(
        out.iter().all(|&(k, _)| k >= lo && k < hi),
        "{tag}: scan leaked keys outside [{lo}, {hi})"
    );
    // Quiescent prefix: exact match wherever the window covers it.
    let want: BTreeSet<u64> = if lo < PREFIX {
        oracle.range(lo..hi.min(PREFIX)).copied().collect()
    } else {
        BTreeSet::new()
    };
    let got: BTreeSet<u64> = out.iter().map(|&(k, _)| k).filter(|&k| k < PREFIX).collect();
    assert_eq!(got, want, "{tag}: quiescent prefix diverged");
    for &(k, v) in out {
        if !(PREFIX..3 * PREFIX).contains(&k) {
            // Prefix and plain-churn regions are value-deterministic;
            // the couple region [PREFIX, 3*PREFIX) stores couple ids.
            assert_eq!(v, expected_value(k), "{tag}: torn or foreign value for {k}");
        }
    }
    // Torn couples: (2c, 2c+1) in the couple region are written
    // right-first / removed left-first, so left ⇒ right in any atomic
    // snapshot. Only check couples fully inside the window.
    let keys: BTreeSet<u64> = out
        .iter()
        .map(|&(k, _)| k)
        .filter(|&k| (PREFIX..3 * PREFIX).contains(&k))
        .collect();
    for &k in &keys {
        if k % 2 == 0 && k + 1 < hi {
            assert!(
                keys.contains(&(k + 1)),
                "{tag}: torn couple — {k} present without {}",
                k + 1
            );
        }
    }
}

/// Scanners race updaters on one tree of `backend` under `strategy` with
/// spurious aborts injected. Key-space regions: `[0, 128)` quiescent
/// prefix, `[128, 384)` couples, `[384, 512)` value-deterministic churn.
fn race(backend: ShardBackend, strategy: Strategy) {
    let tree = ShardTree::build(&ShardedConfig {
        backend,
        strategy,
        key_space: KEY_SPACE,
        htm: HtmConfig::default().with_spurious(0.4).with_seed(13),
        ..ShardedConfig::default()
    });
    let oracle = {
        let mut h = tree.handle();
        prefill_prefix(&mut |k, v| h.insert(k, v))
    };
    let stop = Arc::new(AtomicBool::new(false));
    let delta = Arc::new(AtomicI64::new(0));
    std::thread::scope(|s| {
        let _guard = StopOnDrop(stop.clone());
        let mut joins = Vec::new();
        // Couple updaters, each owning a disjoint couple set (c ≡ t mod 2)
        // — the write-ordering argument needs a single writer per couple.
        for t in 0..2u64 {
            let tree = tree.clone();
            let delta = delta.clone();
            joins.push(s.spawn(move || {
                let mut h = tree.handle();
                let mut rng = SplitMix64::new(0xC0_0C + t);
                let mut local = 0i64;
                for _ in 0..1500u64 {
                    let couple = PREFIX / 2 + rng.next_below(PREFIX / 2) * 2 + t;
                    let (l, r) = (couple * 2, couple * 2 + 1);
                    if rng.next_below(2) == 0 {
                        if h.insert(r, couple).is_none() {
                            local += r as i64;
                        }
                        if h.insert(l, couple).is_none() {
                            local += l as i64;
                        }
                    } else {
                        if h.remove(l).is_some() {
                            local -= l as i64;
                        }
                        if h.remove(r).is_some() {
                            local -= r as i64;
                        }
                    }
                }
                delta.fetch_add(local, Ordering::Relaxed);
            }));
        }
        // Plain value-deterministic churn over the top region.
        {
            let tree = tree.clone();
            let delta = delta.clone();
            joins.push(s.spawn(move || {
                let mut h = tree.handle();
                let mut rng = SplitMix64::new(0xD1_CE);
                let mut local = 0i64;
                for _ in 0..3000u64 {
                    let k = 3 * PREFIX + rng.next_below(KEY_SPACE - 3 * PREFIX);
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
        // Scanners: full-range and windowed scans racing the churn.
        for t in 0..2u64 {
            let tree = tree.clone();
            let stop = stop.clone();
            let oracle = &oracle;
            s.spawn(move || {
                let mut h = tree.handle();
                let mut rng = SplitMix64::new(0xFACE + t);
                let mut scans = 0u64;
                // Keep scanning for a minimum count even after the
                // updaters stop (in release mode they can finish before
                // a scanner is ever scheduled).
                while !stop.load(Ordering::Relaxed) || scans < 80 {
                    let tag = format!("{backend}/{strategy}");
                    if scans % 2 == 0 {
                        check_scan(&h.range_query(0, KEY_SPACE), 0, KEY_SPACE, oracle, &tag);
                    } else {
                        let lo = rng.next_below(KEY_SPACE - 64);
                        let hi = lo + 1 + rng.next_below(64);
                        check_scan(&h.range_query(lo, hi), lo, hi, oracle, &tag);
                    }
                    scans += 1;
                }
                assert_scanner_stats(h.stats(), backend);
            });
        }
        for j in joins {
            j.join().unwrap();
        }
    });
    tree.validate().unwrap();
    let prefix_sum: i64 = oracle.iter().map(|&k| k as i64).sum();
    assert_eq!(
        tree.key_sum() as i128,
        (prefix_sum + delta.load(Ordering::Relaxed)) as i128,
        "{backend}/{strategy}: keysum mismatch"
    );
}

#[test]
fn scanners_race_updaters_bst_all_strategies() {
    for strategy in Strategy::ALL {
        race(ShardBackend::Bst, strategy);
    }
}

#[test]
fn scanners_race_updaters_abtree_all_strategies() {
    for strategy in Strategy::ALL {
        race(ShardBackend::AbTree, strategy);
    }
}

/// Cross-shard scans ride per-shard optimistic sub-scans through the
/// sharded layer's ordered merge: the quiescent prefix (shard 0 under the
/// range router) must survive every cross-shard scan exactly while the
/// other shards churn, and the merged handle statistics show read-lane
/// traffic only, modulo counted escalations.
#[test]
fn sharded_scanners_race_updaters() {
    for backend in [ShardBackend::Bst, ShardBackend::AbTree] {
        let map = Arc::new(
            ShardedMap::with_config(ShardedConfig {
                shards: 4,
                backend,
                key_space: KEY_SPACE,
                router: RouterKind::Range,
                htm: HtmConfig::default().with_spurious(0.35),
                ..ShardedConfig::default()
            })
            .unwrap(),
        );
        let oracle = {
            let mut h = map.handle();
            prefill_prefix(&mut |k, v| h.insert(k, v))
        };
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let _guard = StopOnDrop(stop.clone());
            let mut joins = Vec::new();
            for t in 0..2u64 {
                let map = map.clone();
                joins.push(s.spawn(move || {
                    let mut h = map.handle();
                    let mut rng = SplitMix64::new(0xAB + t);
                    for _ in 0..2500u64 {
                        let k = PREFIX + rng.next_below(KEY_SPACE - PREFIX);
                        if rng.next_below(2) == 0 {
                            h.insert(k, expected_value(k));
                        } else {
                            h.remove(k);
                        }
                    }
                }));
            }
            {
                let map = map.clone();
                let stop = stop.clone();
                let oracle = &oracle;
                s.spawn(move || {
                    let mut h = map.handle();
                    let mut scans = 0u64;
                    while !stop.load(Ordering::Relaxed) || scans < 60 {
                        let out = h.range_query(0, KEY_SPACE);
                        assert!(
                            out.windows(2).all(|w| w[0].0 < w[1].0),
                            "{backend}: cross-shard merge must be sorted"
                        );
                        let got: BTreeSet<u64> =
                            out.iter().map(|&(k, _)| k).filter(|&k| k < PREFIX).collect();
                        assert_eq!(&got, oracle, "{backend}: quiescent prefix diverged");
                        for &(k, v) in out.iter().filter(|&&(k, _)| k >= PREFIX) {
                            assert_eq!(v, expected_value(k), "{backend}: torn sharded scan");
                        }
                        scans += 1;
                    }
                    assert_scanner_stats(&h.stats(), backend);
                });
            }
            for j in joins {
                j.join().unwrap();
            }
        });
        map.validate().unwrap();
    }
}

/// Under sustained churn, long scans (`scan_len` 20 000 over 40 000 keys)
/// stay on the optimistic ladder: at most 5% of them escalate to the
/// template, and every scan is accounted for, either as a read-lane
/// completion or as a counted escalation. On a 2-vCPU host the BST
/// escalates about 1% of these scans in a debug build and 0.4% in a
/// release build, with at most 3 of ~190 in one debug trial; the
/// (a,b)-tree escalates about 0.01%.
#[test]
fn sustained_churn_scan_heavy_trial_rarely_escalates() {
    for structure in [Structure::Bst, Structure::AbTree] {
        let r = run_trial(&TrialSpec {
            structure,
            strategy: Strategy::ThreePath,
            threads: 4,
            duration: std::time::Duration::from_millis(750),
            key_range: 40_000,
            workload: Workload::ScanHeavy {
                scan_pct: 10,
                scan_len: 20_000,
            },
            ..TrialSpec::default()
        });
        assert!(r.keysum_ok, "{structure}: keysum diverged");
        assert!(r.scan_ops > 0, "{structure}: trial ran no scans");
        let escalations = r.stats.scan_escalations();
        assert!(
            escalations * 20 <= r.scan_ops,
            "{structure}: {escalations} of {} scans escalated",
            r.scan_ops
        );
        assert_eq!(
            r.stats.completed(PathKind::Read) + escalations,
            r.scan_ops,
            "{structure}: a scan neither completed on the read lane nor escalated"
        );
    }
}

/// Keys of the sequence oracle: every `KEY_SPACE / SEQ_KEYS`-th key, so
/// a full scan crosses many leaves (and, on a sharded map, every shard).
const SEQ_KEYS: u64 = 64;
/// Overwrites the oracle's single writer performs.
const SEQ_STEPS: u64 = 3000;

/// The single writer's seeded schedule: step `s` (1-based) writes the
/// value `s` to key `schedule[s - 1]`.
fn seq_schedule(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..SEQ_STEPS)
        .map(|_| rng.next_below(SEQ_KEYS) * (KEY_SPACE / SEQ_KEYS))
        .collect()
}

/// What every key holds after each prefix of a schedule.
struct SeqOracle {
    /// Key -> the ascending steps that wrote it.
    writes: BTreeMap<u64, Vec<u64>>,
}

impl SeqOracle {
    fn new(schedule: &[u64]) -> Self {
        let mut writes: BTreeMap<u64, Vec<u64>> = (0..SEQ_KEYS)
            .map(|i| (i * (KEY_SPACE / SEQ_KEYS), Vec::new()))
            .collect();
        for (i, k) in schedule.iter().enumerate() {
            writes.get_mut(k).unwrap().push(i as u64 + 1);
        }
        SeqOracle { writes }
    }

    /// The value `key` holds once the first `s` steps have landed (0 is
    /// the prefill).
    fn value_after(&self, key: u64, s: u64) -> u64 {
        let w = &self.writes[&key];
        w[..w.partition_point(|&x| x <= s)].last().copied().unwrap_or(0)
    }

    /// `pairs` come from one atomic scan. With `s` the latest step they
    /// show, every key must show its last write at or before `s`.
    fn check(&self, pairs: &[(u64, u64)], tag: &str) {
        let s = pairs.iter().map(|&(_, v)| v).max().unwrap_or(0);
        for &(k, v) in pairs {
            assert_eq!(
                v,
                self.value_after(k, s),
                "{tag}: key {k} shows step {v} in a scan that saw step {s}"
            );
        }
    }
}

/// One writer overwrites the oracle keys in a seeded order while two
/// scanners check that every full scan equals the state after some
/// prefix of that order. `unit_of` maps a key to its atomic scan unit:
/// one tree is one unit, a sharded map has one unit per shard.
fn sequence_race<H>(
    tag: &str,
    handle: impl Fn() -> H + Sync,
    insert: fn(&mut H, u64, u64) -> Option<u64>,
    scan: fn(&mut H) -> Vec<(u64, u64)>,
    unit_of: impl Fn(u64) -> usize + Sync,
) {
    let schedule = seq_schedule(0x5E0);
    let oracle = SeqOracle::new(&schedule);
    {
        let mut h = handle();
        for &k in oracle.writes.keys() {
            assert_eq!(insert(&mut h, k, 0), None);
        }
    }
    let done = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        s.spawn(|| {
            let _done = StopOnDrop(done.clone());
            let mut h = handle();
            for (i, &k) in schedule.iter().enumerate() {
                let step = i as u64 + 1;
                assert_eq!(
                    insert(&mut h, k, step),
                    Some(oracle.value_after(k, step - 1)),
                    "{tag}: overwrite of {k} returned a wrong previous value"
                );
            }
        });
        for _ in 0..2 {
            s.spawn(|| {
                let mut h = handle();
                let mut scans = 0u64;
                while !done.load(Ordering::Relaxed) || scans < 50 {
                    let out = scan(&mut h);
                    assert_eq!(out.len() as u64, SEQ_KEYS, "{tag}: a scan lost a key");
                    let mut units: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
                    for p in out {
                        units.entry(unit_of(p.0)).or_default().push(p);
                    }
                    for pairs in units.values() {
                        oracle.check(pairs, tag);
                    }
                    scans += 1;
                }
            });
        }
    });
}

/// The sequence oracle on both trees under every strategy, with 40%
/// spurious aborts: scans must be atomic across keys, not only per key.
#[test]
fn scans_match_a_prefix_of_a_single_writer_sequence() {
    for backend in [ShardBackend::Bst, ShardBackend::AbTree] {
        for strategy in Strategy::ALL {
            let tree = ShardTree::build(&ShardedConfig {
                backend,
                strategy,
                key_space: KEY_SPACE,
                htm: HtmConfig::default().with_spurious(0.4).with_seed(29),
                ..ShardedConfig::default()
            });
            sequence_race(
                &format!("{backend}/{strategy}"),
                || tree.handle(),
                |h, k, v| h.insert(k, v),
                |h| h.range_query(0, KEY_SPACE),
                |_| 0,
            );
        }
    }
}

/// The sequence oracle per shard: a cross-shard scan is atomic within
/// each shard, so each shard's part must match a prefix on its own.
#[test]
fn sharded_scans_match_a_prefix_per_shard() {
    let map = Arc::new(
        ShardedMap::with_config(ShardedConfig {
            shards: 4,
            backend: ShardBackend::AbTree,
            key_space: KEY_SPACE,
            router: RouterKind::Range,
            htm: HtmConfig::default().with_spurious(0.4),
            ..ShardedConfig::default()
        })
        .unwrap(),
    );
    sequence_race(
        "sharded",
        || map.handle(),
        |h, k, v| h.insert(k, v),
        |h| h.range_query(0, KEY_SPACE),
        |k| map.shard_of(k),
    );
}

/// Steady state, no contention: scans execute zero HTM transactions on
/// both backends under both TLE and 3-path, even while spurious aborts
/// doom every transaction the tree might have tried — the acceptance
/// criterion of the scan-path PR, asserted through the scan stats lane.
#[test]
fn steady_state_scans_execute_zero_transactions() {
    for backend in [ShardBackend::Bst, ShardBackend::AbTree] {
        for strategy in [Strategy::ThreePath, Strategy::Tle] {
            let tree = ShardTree::build(&ShardedConfig {
                backend,
                strategy,
                key_space: KEY_SPACE,
                htm: HtmConfig::default().with_spurious(0.95),
                ..ShardedConfig::default()
            });
            {
                let mut w = tree.handle();
                for k in (0..KEY_SPACE).step_by(2) {
                    w.insert(k, expected_value(k));
                }
            }
            let mut r = tree.handle();
            let mut rng = SplitMix64::new(7);
            for _ in 0..500 {
                let lo = rng.next_below(KEY_SPACE - 64);
                let out = r.range_query(lo, lo + 64);
                assert!(out.iter().all(|&(k, v)| k % 2 == 0 && v == expected_value(k)));
                assert_eq!(out.len(), 32, "{backend}/{strategy}: wrong window size");
            }
            let st = r.stats();
            assert_eq!(st.completed(PathKind::Read), 500, "{backend}/{strategy}");
            for p in [PathKind::Fast, PathKind::Middle, PathKind::Fallback] {
                assert_eq!(st.completed(p), 0, "{backend}/{strategy}: {p} used");
                assert_eq!(st.commits(p), 0);
                assert_eq!(st.aborts(p).total(), 0);
            }
            assert_eq!(st.scan_retries(), 0, "quiescent scans never retry");
            assert_eq!(st.scan_escalations(), 0);
            assert!(st.scan_leaves_validated() >= 500);
        }
    }
}
