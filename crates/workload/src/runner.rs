//! The trial runner: prefill, timed measurement, key-sum verification.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use threepath_core::PathStats;
use threepath_htm::SplitMix64;

use crate::latency::LatencyReport;
use crate::map::{AnyHandle, AnyTree};
use crate::metrics::TrialResult;
use crate::spec::{TrialSpec, Workload};
use crate::zipf::KeySampler;

/// Prefills `tree` to half of `key_range` by inserting uniformly random
/// keys until half the range is present (the paper prefills with a 50/50
/// update mix until half full; direct filling reaches the same steady-state
/// composition faster). Returns the key-sum delta contributed.
///
/// The target is clamped to the number of distinct keys, so degenerate
/// ranges (`key_range < 2`) terminate instead of waiting forever for a
/// second distinct key that cannot exist.
pub fn prefill(tree: &AnyTree, key_range: u64, seed: u64) -> i128 {
    let mut h = tree.handle();
    let mut rng = SplitMix64::new(seed ^ 0xF1EE);
    let target = (key_range / 2).max(1).min(key_range);
    let mut inserted = 0u64;
    let mut sum: i128 = 0;
    while inserted < target {
        let k = rng.next_below(key_range);
        if h.insert(k, k.wrapping_mul(3)).is_none() {
            inserted += 1;
            sum += k as i128;
        }
    }
    sum
}

struct WorkerOutcome {
    updates: u64,
    reads: u64,
    rqs: u64,
    scans: u64,
    keysum_delta: i64,
    stats: PathStats,
    latency: LatencyReport,
}

fn updater_loop(
    h: &mut AnyHandle,
    sampler: &KeySampler,
    rng: &mut SplitMix64,
    stop: &AtomicBool,
    lat: &mut LatencyReport,
) -> (u64, i64) {
    let mut ops = 0u64;
    let mut delta = 0i64;
    while !stop.load(Ordering::Relaxed) {
        let k = sampler.sample(rng);
        let start = Instant::now();
        if rng.next_below(2) == 0 {
            if h.insert(k, ops).is_none() {
                delta += k as i64;
            }
        } else if h.remove(k).is_some() {
            delta -= k as i64;
        }
        lat.update.record(start.elapsed());
        ops += 1;
    }
    (ops, delta)
}

/// The YCSB-shaped mixed loop: `read_pct`% lookups, the rest 50/50
/// inserts/deletes. Returns `(updates, reads, keysum delta)`.
fn read_mix_loop(
    h: &mut AnyHandle,
    sampler: &KeySampler,
    rng: &mut SplitMix64,
    stop: &AtomicBool,
    read_pct: u8,
    lat: &mut LatencyReport,
) -> (u64, u64, i64) {
    let mut updates = 0u64;
    let mut reads = 0u64;
    let mut delta = 0i64;
    while !stop.load(Ordering::Relaxed) {
        let k = sampler.sample(rng);
        if rng.next_below(100) < u64::from(read_pct) {
            let start = Instant::now();
            std::hint::black_box(h.get(k));
            lat.read.record(start.elapsed());
            reads += 1;
        } else {
            let start = Instant::now();
            if rng.next_below(2) == 0 {
                if h.insert(k, reads).is_none() {
                    delta += k as i64;
                }
            } else if h.remove(k).is_some() {
                delta -= k as i64;
            }
            lat.update.record(start.elapsed());
            updates += 1;
        }
    }
    (updates, reads, delta)
}

/// The YCSB-E-shaped mixed loop: `scan_pct`% range scans of extent
/// `scan_len` starting at a drawn key, the rest inserts. Returns
/// `(updates, scans, keysum delta)`.
fn scan_mix_loop(
    h: &mut AnyHandle,
    sampler: &KeySampler,
    rng: &mut SplitMix64,
    stop: &AtomicBool,
    scan_pct: u8,
    scan_len: u64,
    lat: &mut LatencyReport,
) -> (u64, u64, i64) {
    let mut updates = 0u64;
    let mut scans = 0u64;
    let mut delta = 0i64;
    while !stop.load(Ordering::Relaxed) {
        let k = sampler.sample(rng);
        if rng.next_below(100) < u64::from(scan_pct) {
            let start = Instant::now();
            let out = h.range_query(k, k.saturating_add(scan_len));
            std::hint::black_box(&out);
            lat.range.record(start.elapsed());
            scans += 1;
        } else {
            let start = Instant::now();
            if h.insert(k, scans).is_none() {
                delta += k as i64;
            }
            lat.update.record(start.elapsed());
            updates += 1;
        }
    }
    (updates, scans, delta)
}

fn rq_loop(
    h: &mut AnyHandle,
    key_range: u64,
    rq_extent: u64,
    rng: &mut SplitMix64,
    stop: &AtomicBool,
    lat: &mut LatencyReport,
) -> u64 {
    let mut ops = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let lo = rng.next_below(key_range);
        // s = floor(x^2 * S) + 1: many small queries, a few very large.
        let x = rng.next_f64();
        let s = (x * x * rq_extent as f64) as u64 + 1;
        let start = Instant::now();
        let out = h.range_query(lo, lo.saturating_add(s));
        std::hint::black_box(&out);
        lat.range.record(start.elapsed());
        ops += 1;
    }
    ops
}

/// Runs one timed trial per `spec`: build, prefill, measure, verify.
///
/// # Panics
///
/// Panics if the final structural validation fails (key-sum mismatches are
/// reported through [`TrialResult::keysum_ok`] instead, so benchmarks can
/// record them).
pub fn run_trial(spec: &TrialSpec) -> TrialResult {
    assert!(spec.threads >= 1);
    assert!(
        spec.key_range >= 1,
        "TrialSpec::key_range must be at least 1 (updaters draw keys from [0, key_range))"
    );
    let tree = AnyTree::build(spec);
    let prefill_sum = prefill(&tree, spec.key_range, spec.seed);
    // Built once per trial (Zipf tables cost O(key_range)) and shared by
    // every updater thread; sampling takes &self.
    let sampler = spec.key_dist.sampler(spec.key_range);

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(spec.threads + 1));
    let delta_total = Arc::new(AtomicI64::new(0));

    let (outcomes, elapsed) = std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(spec.threads);
        for t in 0..spec.threads {
            let tree = tree.clone();
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            let delta_total = Arc::clone(&delta_total);
            let sampler = &sampler;
            let spec = spec.clone();
            joins.push(s.spawn(move || {
                let mut h = tree.handle();
                let mut rng = SplitMix64::new(spec.seed ^ (0xA11CE + 31 * t as u64));
                barrier.wait();
                let is_rq_thread = matches!(spec.workload, Workload::Heavy { .. })
                    && t == spec.threads - 1
                    && spec.threads >= 1;
                let mut lat = LatencyReport::new();
                let (updates, reads, rqs, scans, delta) = if is_rq_thread {
                    let Workload::Heavy { rq_extent } = spec.workload else {
                        unreachable!()
                    };
                    let rqs = rq_loop(&mut h, spec.key_range, rq_extent, &mut rng, &stop, &mut lat);
                    (0, 0, rqs, 0, 0)
                } else if let Workload::ReadHeavy { read_pct } = spec.workload {
                    let (updates, reads, delta) =
                        read_mix_loop(&mut h, sampler, &mut rng, &stop, read_pct, &mut lat);
                    (updates, reads, 0, 0, delta)
                } else if let Workload::ScanHeavy { scan_pct, scan_len } = spec.workload {
                    let (updates, scans, delta) =
                        scan_mix_loop(&mut h, sampler, &mut rng, &stop, scan_pct, scan_len, &mut lat);
                    (updates, 0, 0, scans, delta)
                } else {
                    let (ops, delta) = updater_loop(&mut h, sampler, &mut rng, &stop, &mut lat);
                    (ops, 0, 0, 0, delta)
                };
                delta_total.fetch_add(delta, Ordering::Relaxed);
                WorkerOutcome {
                    updates,
                    reads,
                    rqs,
                    scans,
                    keysum_delta: delta,
                    stats: h.stats(),
                    latency: lat,
                }
            }));
        }
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(spec.duration);
        stop.store(true, Ordering::Release);
        let outcomes: Vec<WorkerOutcome> =
            joins.into_iter().map(|j| j.join().unwrap()).collect();
        (outcomes, start.elapsed())
    });

    let mut stats = PathStats::new();
    let mut updates = 0u64;
    let mut reads = 0u64;
    let mut rqs = 0u64;
    let mut scans = 0u64;
    let mut delta: i128 = 0;
    let mut latency = LatencyReport::new();
    for o in &outcomes {
        stats.merge(&o.stats);
        latency.merge(&o.latency);
        updates += o.updates;
        reads += o.reads;
        rqs += o.rqs;
        scans += o.scans;
        delta += o.keysum_delta as i128;
    }

    tree.validate().expect("structural validation failed");
    let final_sum = tree.key_sum() as i128;
    let keysum_ok = final_sum == prefill_sum + delta;
    let total_ops = updates + reads + rqs + scans;

    TrialResult {
        throughput: total_ops as f64 / elapsed.as_secs_f64(),
        total_ops,
        update_ops: updates,
        read_ops: reads,
        rq_ops: rqs,
        scan_ops: scans,
        elapsed,
        stats,
        keysum_ok,
        final_size: tree.len(),
        // Worker handles dropped at join, so their counters are folded.
        pool: tree.pool_stats(),
        latency,
    }
}

/// Runs `trials` repetitions, returning all results.
pub fn run_trials(spec: &TrialSpec, trials: usize) -> Vec<TrialResult> {
    (0..trials)
        .map(|i| {
            let mut s = spec.clone();
            s.seed = spec.seed.wrapping_add(i as u64 * 0x9E37_79B9);
            run_trial(&s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Structure;
    use std::time::Duration;
    use threepath_core::Strategy;

    fn quick_spec(structure: Structure, strategy: Strategy, heavy: bool) -> TrialSpec {
        TrialSpec {
            structure,
            strategy,
            threads: if heavy { 3 } else { 2 },
            duration: Duration::from_millis(30),
            key_range: 512,
            workload: if heavy {
                Workload::Heavy { rq_extent: 64 }
            } else {
                Workload::Light
            },
            ..TrialSpec::default()
        }
    }

    #[test]
    fn light_trials_verify_on_both_structures() {
        for structure in [Structure::Bst, Structure::AbTree] {
            for strategy in [Strategy::ThreePath, Strategy::NonHtm] {
                let r = run_trial(&quick_spec(structure, strategy, false));
                assert!(r.keysum_ok, "{structure}/{strategy} keysum failed");
                assert!(r.total_ops > 0);
                assert_eq!(r.rq_ops, 0);
            }
        }
    }

    #[test]
    fn heavy_trials_run_range_queries() {
        for structure in [Structure::Bst, Structure::AbTree] {
            let r = run_trial(&quick_spec(structure, Strategy::ThreePath, true));
            assert!(r.keysum_ok);
            assert!(r.rq_ops > 0, "the RQ thread must complete queries");
            assert!(r.update_ops > 0);
        }
    }

    #[test]
    fn prefill_reaches_half() {
        let spec = quick_spec(Structure::AbTree, Strategy::ThreePath, false);
        let tree = AnyTree::build(&spec);
        let sum = prefill(&tree, spec.key_range, 7);
        assert_eq!(tree.len() as u64, spec.key_range / 2);
        assert_eq!(tree.key_sum() as i128, sum);
    }

    #[test]
    fn prefill_terminates_on_degenerate_key_ranges() {
        let spec = quick_spec(Structure::Bst, Strategy::NonHtm, false);
        // key_range = 0: no insertable keys, target clamps to 0.
        let tree = AnyTree::build(&spec);
        assert_eq!(prefill(&tree, 0, 7), 0);
        assert_eq!(tree.len(), 0);
        // key_range = 1: exactly one distinct key exists; the unclamped
        // target of max(1) is reachable, but never more than that.
        let tree = AnyTree::build(&spec);
        assert_eq!(prefill(&tree, 1, 7), 0); // the only key is 0
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn light_trials_verify_on_sharded_structures() {
        for structure in [
            Structure::ShardedBst { shards: 4 },
            Structure::ShardedAbTree { shards: 3 },
        ] {
            for strategy in [Strategy::ThreePath, Strategy::NonHtm] {
                let r = run_trial(&quick_spec(structure, strategy, false));
                assert!(r.keysum_ok, "{structure}/{strategy} keysum failed");
                assert!(r.total_ops > 0);
            }
        }
    }

    /// The dedicated RQ thread of the heavy workload must actually record
    /// range queries (and the keysum still verify) on sharded structures,
    /// where each query is a cross-shard merge.
    #[test]
    fn heavy_trial_on_sharded_structure_records_rqs() {
        let r = run_trial(&quick_spec(
            Structure::ShardedBst { shards: 4 },
            Strategy::ThreePath,
            true,
        ));
        assert!(r.keysum_ok);
        assert!(r.rq_ops > 0, "the RQ thread must complete cross-shard queries");
        assert!(r.update_ops > 0);
    }

    /// Skewed key distributions must not perturb the keysum bookkeeping,
    /// sharded or not, clustered or scattered.
    #[test]
    fn skewed_trials_verify() {
        use crate::spec::KeyDist;
        for structure in [Structure::Bst, Structure::ShardedBst { shards: 4 }] {
            for dist in [
                KeyDist::Zipf { theta: 0.99 },
                KeyDist::ZipfScattered { theta: 0.99 },
            ] {
                let mut spec = quick_spec(structure, Strategy::ThreePath, false);
                spec.key_dist = dist;
                let r = run_trial(&spec);
                assert!(r.keysum_ok, "{structure}/{dist} keysum failed");
                assert!(r.total_ops > 0);
            }
        }
    }

    /// Hash-routed sharded trials run end to end: updates, cross-shard
    /// sort-merged range queries, and the keysum verification.
    #[test]
    fn hash_routed_trials_verify() {
        use crate::spec::KeyDist;
        use threepath_sharded::RouterKind;
        for heavy in [false, true] {
            let mut spec = quick_spec(
                Structure::ShardedBst { shards: 4 },
                Strategy::ThreePath,
                heavy,
            );
            spec.router = RouterKind::Hash;
            spec.key_dist = KeyDist::Zipf { theta: 0.99 };
            let r = run_trial(&spec);
            assert!(r.keysum_ok, "hash-routed keysum failed (heavy={heavy})");
            assert!(r.total_ops > 0);
            if heavy {
                assert!(r.rq_ops > 0, "RQ thread must complete sort-merged queries");
            }
        }
    }

    /// Regression for the PR-1 prefill clamp: a trial over a single-key
    /// range must terminate and verify (prefill cannot wait for a second
    /// distinct key that does not exist).
    #[test]
    fn run_trial_at_key_range_one() {
        for structure in [Structure::Bst, Structure::ShardedBst { shards: 2 }] {
            let mut spec = quick_spec(structure, Strategy::ThreePath, false);
            spec.key_range = 1;
            let r = run_trial(&spec);
            assert!(r.keysum_ok, "{structure} key_range=1 keysum failed");
            assert!(r.total_ops > 0);
            assert!(r.final_size <= 1);
        }
    }

    /// Pool on/off is a pure allocator swap: both verify, and only the
    /// pooled trial reports pool traffic.
    #[test]
    fn pool_toggle_trials_verify_and_report() {
        for structure in [Structure::Bst, Structure::ShardedBst { shards: 2 }] {
            let mut spec = quick_spec(structure, Strategy::ThreePath, false);
            spec.pool = false;
            let off = run_trial(&spec);
            assert!(off.keysum_ok, "{structure} pool-off keysum failed");
            assert_eq!(off.pool.alloc_total, 0, "pool-off must not pool");
            spec.pool = true;
            let on = run_trial(&spec);
            assert!(on.keysum_ok, "{structure} pooled keysum failed");
            assert!(on.pool.alloc_total > 0, "pooled trial must report traffic");
            assert!(on.pool_hit_rate() > 0.0);
        }
    }

    /// Read-heavy trials verify on every structure, report their reads,
    /// and — with the read path on — complete every lookup on the
    /// uninstrumented read lane.
    #[test]
    fn read_heavy_trials_verify_and_use_the_read_lane() {
        use threepath_core::PathKind;
        for structure in [
            Structure::Bst,
            Structure::AbTree,
            Structure::ShardedBst { shards: 4 },
            Structure::ShardedAbTree { shards: 3 },
        ] {
            let mut spec = quick_spec(structure, Strategy::ThreePath, false);
            spec.workload = Workload::ReadHeavy { read_pct: 95 };
            let r = run_trial(&spec);
            assert!(r.keysum_ok, "{structure} read-heavy keysum failed");
            assert!(r.read_ops > 0, "{structure}: no reads completed");
            assert!(r.update_ops > 0, "{structure}: no updates completed");
            assert_eq!(r.total_ops, r.update_ops + r.read_ops);
            // Escalations (bounded-optimistic reads that lost every
            // validation race) are counted, legitimate exceptions.
            assert!(
                r.stats.completed(PathKind::Read) + r.stats.read_escalations() >= r.read_ops,
                "{structure}: lookups must ride the read lane \
                 ({} lane completions, {} escalations, {} reads)",
                r.stats.completed(PathKind::Read),
                r.stats.read_escalations(),
                r.read_ops
            );
            assert!(r.read_path_share() > 0.0);
        }
    }

    /// The `read_path: false` baseline drives lookups through `run_op`:
    /// the read lane stays empty and reads complete on the classic paths.
    #[test]
    fn read_path_off_routes_lookups_through_run_op() {
        use threepath_core::PathKind;
        let mut spec = quick_spec(Structure::Bst, Strategy::ThreePath, false);
        spec.workload = Workload::ReadHeavy { read_pct: 100 };
        spec.read_path = false;
        let r = run_trial(&spec);
        assert!(r.keysum_ok);
        assert!(r.read_ops > 0);
        assert_eq!(r.stats.completed(PathKind::Read), 0, "read lane unused");
        assert_eq!(r.read_path_share(), 0.0);
        assert!(r.stats.total_completed() > 0);
    }

    /// Acceptance check for the read path: in the steady state a lookup
    /// executes **zero** HTM transactions on either backend — even under
    /// TLE (no lock) and under a spurious-abort storm (reads are immune).
    #[test]
    fn pure_read_mix_executes_zero_transactions() {
        use threepath_core::PathKind;
        use threepath_htm::HtmConfig;
        for structure in [Structure::Bst, Structure::AbTree] {
            for strategy in [Strategy::ThreePath, Strategy::Tle] {
                let mut spec = quick_spec(structure, strategy, false);
                spec.workload = Workload::ReadHeavy { read_pct: 100 };
                spec.htm = HtmConfig::default().with_spurious(0.9);
                let r = run_trial(&spec);
                assert!(r.read_ops > 0);
                assert_eq!(r.update_ops, 0, "100% read mix");
                assert_eq!(
                    r.stats.completed(PathKind::Read),
                    r.read_ops,
                    "{structure}/{strategy}: every lookup on the read lane"
                );
                for p in [PathKind::Fast, PathKind::Middle, PathKind::Fallback] {
                    assert_eq!(
                        r.stats.completed(p),
                        0,
                        "{structure}/{strategy}: read ops leaked onto {p}"
                    );
                    assert_eq!(r.stats.commits(p), 0);
                    assert_eq!(r.stats.aborts(p).total(), 0);
                }
                assert_eq!(r.stats.read_escalations(), 0, "no contention, no escalation");
            }
        }
    }

    /// Scan-heavy trials verify on every structure, report their scans
    /// separately, and — with the scan path on — keep the overwhelming
    /// majority of scans on the optimistic lane.
    #[test]
    fn scan_heavy_trials_verify_and_use_the_scan_path() {
        for structure in [
            Structure::Bst,
            Structure::AbTree,
            Structure::ShardedBst { shards: 4 },
            Structure::ShardedAbTree { shards: 3 },
        ] {
            let mut spec = quick_spec(structure, Strategy::ThreePath, false);
            spec.workload = Workload::ScanHeavy {
                scan_pct: 95,
                scan_len: 32,
            };
            let r = run_trial(&spec);
            assert!(r.keysum_ok, "{structure} scan-heavy keysum failed");
            assert!(r.scan_ops > 0, "{structure}: no scans completed");
            assert!(r.update_ops > 0, "{structure}: no inserts completed");
            assert_eq!(r.total_ops, r.update_ops + r.scan_ops);
            assert_eq!(r.rq_ops, 0, "the mixed loop reports scans, not rqs");
            assert!(
                r.stats.scan_escalations() <= r.scan_ops / 10,
                "{structure}: scans should rarely escalate ({} of {})",
                r.stats.scan_escalations(),
                r.scan_ops
            );
            assert!(r.scan_path_share() > 0.9, "{structure}");
            assert!(r.stats.scan_leaves_validated() > 0, "{structure}");
        }
    }

    /// The `scan_path: false` baseline drives every range scan through
    /// `run_op`: the scan lane stays silent.
    #[test]
    fn scan_path_off_routes_scans_through_run_op() {
        use threepath_core::PathKind;
        let mut spec = quick_spec(Structure::AbTree, Strategy::ThreePath, false);
        spec.workload = Workload::ScanHeavy {
            scan_pct: 100,
            scan_len: 16,
        };
        spec.scan_path = false;
        let r = run_trial(&spec);
        assert!(r.scan_ops > 0);
        assert_eq!(r.stats.completed(PathKind::Read), 0, "read lane unused");
        assert_eq!(r.stats.scan_leaves_validated(), 0, "scan lane unused");
        assert_eq!(r.stats.scan_retries(), 0);
        assert!(r.stats.total_completed() > 0);
    }

    /// Acceptance check for the scan path: a pure scan mix in the steady
    /// state executes **zero** HTM transactions on either backend — even
    /// under TLE and under a spurious-abort storm.
    #[test]
    fn pure_scan_mix_executes_zero_transactions() {
        use threepath_core::PathKind;
        use threepath_htm::HtmConfig;
        for structure in [Structure::Bst, Structure::AbTree] {
            for strategy in [Strategy::ThreePath, Strategy::Tle] {
                let mut spec = quick_spec(structure, strategy, false);
                spec.workload = Workload::ScanHeavy {
                    scan_pct: 100,
                    scan_len: 32,
                };
                spec.htm = HtmConfig::default().with_spurious(0.9);
                let r = run_trial(&spec);
                assert!(r.scan_ops > 0);
                assert_eq!(r.update_ops, 0, "100% scan mix");
                assert_eq!(
                    r.stats.completed(PathKind::Read),
                    r.scan_ops,
                    "{structure}/{strategy}: every scan on the read lane"
                );
                for p in [PathKind::Fast, PathKind::Middle, PathKind::Fallback] {
                    assert_eq!(r.stats.completed(p), 0, "{structure}/{strategy}: {p} used");
                    assert_eq!(r.stats.commits(p), 0);
                    assert_eq!(r.stats.aborts(p).total(), 0);
                }
                assert_eq!(r.stats.scan_escalations(), 0, "no contention, no escalation");
                assert_eq!(r.stats.scan_retries(), 0);
                assert!(r.stats.scan_leaves_validated() >= r.scan_ops);
            }
        }
    }

    #[test]
    fn every_strategy_verifies_on_both_trees() {
        for structure in [Structure::Bst, Structure::AbTree] {
            for strategy in Strategy::ALL {
                let r = run_trial(&quick_spec(structure, strategy, false));
                assert!(r.keysum_ok, "{structure}/{strategy} keysum failed");
                assert!(r.update_ops > 0, "{structure}/{strategy}");
            }
        }
    }

    /// Fixed attempt budgets reach the tree: with no fast or middle
    /// attempts every update completes on the fallback path.
    #[test]
    fn zero_budget_trials_complete_on_the_fallback() {
        use threepath_core::{PathKind, PathLimits};
        for structure in [
            Structure::Bst,
            Structure::AbTree,
            Structure::ShardedBst { shards: 2 },
        ] {
            let mut spec = quick_spec(structure, Strategy::ThreePath, false);
            spec.limits = Some(PathLimits { fast: 0, middle: 0 });
            let r = run_trial(&spec);
            assert!(r.keysum_ok, "{structure} keysum failed");
            assert!(r.stats.completed(PathKind::Fallback) > 0, "{structure}");
            assert_eq!(r.stats.completed(PathKind::Fast), 0, "{structure}");
            assert_eq!(r.stats.completed(PathKind::Middle), 0, "{structure}");
        }
    }

    #[test]
    fn admission_trials_verify_under_a_storm() {
        use threepath_htm::HtmConfig;
        for structure in [
            Structure::Bst,
            Structure::AbTree,
            Structure::ShardedBst { shards: 2 },
        ] {
            for strategy in [Strategy::Tle, Strategy::ThreePath] {
                let mut spec = quick_spec(structure, strategy, false);
                spec.threads = 3;
                spec.key_range = 64;
                spec.htm = HtmConfig::default().with_spurious(0.6);
                spec.admission = Some(1);
                let r = run_trial(&spec);
                assert!(r.keysum_ok, "{structure}/{strategy} keysum failed");
                assert!(r.update_ops > 0, "{structure}/{strategy}");
            }
        }
    }

    #[test]
    fn snzi_trials_verify() {
        use threepath_htm::HtmConfig;
        for structure in [
            Structure::Bst,
            Structure::AbTree,
            Structure::ShardedAbTree { shards: 2 },
        ] {
            for strategy in [Strategy::TwoPathNonCon, Strategy::ThreePath] {
                let mut spec = quick_spec(structure, strategy, false);
                spec.snzi = true;
                spec.htm = HtmConfig::default().with_spurious(0.4);
                let r = run_trial(&spec);
                assert!(r.keysum_ok, "{structure}/{strategy} keysum failed");
                assert!(r.update_ops > 0, "{structure}/{strategy}");
            }
        }
    }

    #[test]
    fn search_outside_txn_trials_verify() {
        for structure in [Structure::Bst, Structure::AbTree] {
            for strategy in [Strategy::Tle, Strategy::TwoPathCon, Strategy::ThreePath] {
                let mut spec = quick_spec(structure, strategy, true);
                spec.search_outside_txn = true;
                let r = run_trial(&spec);
                assert!(r.keysum_ok, "{structure}/{strategy} keysum failed");
                assert!(r.update_ops > 0 && r.rq_ops > 0, "{structure}/{strategy}");
            }
        }
    }

    #[test]
    fn multiple_trials_distinct_seeds() {
        let spec = quick_spec(Structure::Bst, Strategy::Tle, false);
        let rs = run_trials(&spec, 2);
        assert_eq!(rs.len(), 2);
        assert!(rs.iter().all(|r| r.keysum_ok));
    }
}
