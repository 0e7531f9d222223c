//! Closed-loop server trials: `N` clients × `M` shards through the
//! batching front-end ([`threepath_server::KvServer`]).
//!
//! Unlike the direct trials in [`crate::run_trial`] — where every thread
//! executes its own operations, one transaction each — a server trial's
//! clients *submit* batches into per-shard queues and block for replies,
//! while whichever client claims a shard's combiner role coalesces queued
//! work into batch plans. Latency is therefore measured where a serving
//! system measures it: the full submit-to-reply round trip, recorded per
//! operation class into the trial's [`crate::LatencyReport`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use threepath_core::{BatchOp, PathStats, Strategy};
use threepath_htm::{HtmConfig, SplitMix64};
use threepath_server::{KvServer, ServerConfig};
use threepath_sharded::{RouterKind, ShardBackend, ShardedConfig, ShardedMap};

use crate::latency::LatencyReport;
use crate::metrics::TrialResult;
use crate::spec::KeyDist;

/// Full description of one timed closed-loop server trial.
#[derive(Debug, Clone)]
pub struct ServerTrialSpec {
    /// Per-shard tree backend.
    pub backend: ShardBackend,
    /// Number of shards (`M`).
    pub shards: usize,
    /// Number of client threads (`N`), each a potential combiner.
    pub clients: usize,
    /// Operations per submitted batch (the client-side batch size; the
    /// server additionally coalesces queued batches up to `batch_cap`).
    pub batch: usize,
    /// Percentage of batched operations that are point lookups; the rest
    /// split 50/50 into inserts and deletes.
    pub read_pct: u8,
    /// Percentage of submissions that are cross-shard range queries
    /// instead of an operation batch.
    pub rq_pct: u8,
    /// Extent of each range query.
    pub rq_extent: u64,
    /// Keys are drawn from `[0, key_range)`.
    pub key_range: u64,
    /// Key distribution for batched operations.
    pub key_dist: KeyDist,
    /// Shard-routing policy.
    pub router: RouterKind,
    /// Execution-path strategy (must be TLE or 3-path: batch plans need
    /// a batched context).
    pub strategy: Strategy,
    /// Simulated-HTM parameters.
    pub htm: HtmConfig,
    /// HTM admission window cap; `None` admits everyone.
    pub admission: Option<u32>,
    /// Measured duration.
    pub duration: Duration,
    /// Server-side coalescing cap (see [`ServerConfig::batch_cap`]).
    pub batch_cap: usize,
    /// Flat-combining rounds (see [`ServerConfig::combine_rounds`]).
    pub combine_rounds: usize,
    /// Base PRNG seed.
    pub seed: u64,
}

impl Default for ServerTrialSpec {
    fn default() -> Self {
        ServerTrialSpec {
            backend: ShardBackend::Bst,
            shards: 2,
            clients: 2,
            batch: 8,
            read_pct: 0,
            rq_pct: 0,
            rq_extent: 64,
            key_range: 10_000,
            key_dist: KeyDist::Uniform,
            router: RouterKind::Range,
            strategy: Strategy::ThreePath,
            htm: HtmConfig::default(),
            admission: None,
            duration: Duration::from_millis(200),
            batch_cap: 8,
            combine_rounds: 4,
            seed: 0x5EED,
        }
    }
}

impl ServerTrialSpec {
    fn map_config(&self) -> ShardedConfig {
        ShardedConfig {
            shards: self.shards,
            backend: self.backend,
            key_space: self.key_range,
            router: self.router,
            strategy: self.strategy,
            htm: self.htm.clone(),
            admission: self.admission,
            batched: true,
            ..ShardedConfig::default()
        }
    }
}

struct ClientOutcome {
    updates: u64,
    reads: u64,
    rqs: u64,
    delta: i64,
    stats: PathStats,
    latency: LatencyReport,
}

/// One client's closed loop: build a batch (or a range query), submit,
/// block for replies, account. Reply-derived key-sum deltas double as a
/// truthfulness oracle on the batched replies.
fn client_loop(
    srv: &Arc<KvServer>,
    spec: &ServerTrialSpec,
    rng: &mut SplitMix64,
    stop: &AtomicBool,
) -> ClientOutcome {
    let sampler = spec.key_dist.sampler(spec.key_range);
    let mut c = srv.client();
    let mut out = ClientOutcome {
        updates: 0,
        reads: 0,
        rqs: 0,
        delta: 0,
        stats: PathStats::new(),
        latency: LatencyReport::new(),
    };
    let mut ops = Vec::with_capacity(spec.batch);
    while !stop.load(Ordering::Relaxed) {
        if rng.next_below(100) < u64::from(spec.rq_pct) {
            let lo = rng.next_below(spec.key_range);
            let start = Instant::now();
            let res = c.range_query(lo, lo.saturating_add(spec.rq_extent));
            std::hint::black_box(&res);
            out.latency.range.record(start.elapsed());
            out.rqs += 1;
            continue;
        }
        ops.clear();
        for _ in 0..spec.batch.max(1) {
            let k = sampler.sample(rng);
            ops.push(if rng.next_below(100) < u64::from(spec.read_pct) {
                BatchOp::Get(k)
            } else if rng.next_below(2) == 0 {
                BatchOp::Insert(k, k.wrapping_mul(3))
            } else {
                BatchOp::Remove(k)
            });
        }
        let start = Instant::now();
        let replies = c.submit(ops.clone());
        let elapsed = start.elapsed();
        for (op, got) in ops.iter().zip(replies) {
            match (op, got) {
                (BatchOp::Insert(k, _), None) => out.delta += *k as i64,
                (BatchOp::Remove(k), Some(_)) => out.delta -= *k as i64,
                _ => {}
            }
            match op {
                BatchOp::Get(_) => {
                    out.latency.read.record(elapsed);
                    out.reads += 1;
                }
                _ => {
                    out.latency.update.record(elapsed);
                    out.updates += 1;
                }
            }
        }
    }
    out.stats = c.stats();
    out
}

/// Runs one timed closed-loop server trial: build the batched map and
/// server, prefill to half the key range, measure `N` clients submitting
/// against `M` shard queues, verify the key sum, and return the usual
/// [`TrialResult`] (with `rq_ops` counting range queries and the latency
/// report carrying submit-to-reply round trips).
///
/// # Panics
///
/// Panics on an invalid spec (zero shards/clients, a strategy outside
/// [`threepath_core::BATCH_STRATEGIES`], a zero admission window) or if the final structural
/// validation fails; key-sum mismatches report through
/// [`TrialResult::keysum_ok`].
pub fn run_server_trial(spec: &ServerTrialSpec) -> TrialResult {
    assert!(spec.clients >= 1, "a server trial needs at least one client");
    assert!(spec.key_range >= 1);
    let map = Arc::new(ShardedMap::with_config(spec.map_config()).expect("invalid server trial spec"));
    let srv = Arc::new(
        KvServer::new(
            Arc::clone(&map),
            ServerConfig {
                batch_cap: spec.batch_cap,
                combine_rounds: spec.combine_rounds,
            },
        )
        .expect("invalid server config"),
    );

    // Prefill through the direct path (batching changes execution, not
    // semantics, so the steady-state composition is the same as a direct
    // trial's).
    let mut prefill_sum: i128 = 0;
    {
        let mut h = map.handle();
        let mut rng = SplitMix64::new(spec.seed ^ 0xF1EE);
        let target = (spec.key_range / 2).max(1).min(spec.key_range);
        let mut inserted = 0u64;
        while inserted < target {
            let k = rng.next_below(spec.key_range);
            if h.insert(k, k.wrapping_mul(3)).is_none() {
                inserted += 1;
                prefill_sum += k as i128;
            }
        }
    }

    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(spec.clients + 1);
    let (outcomes, elapsed) = std::thread::scope(|s| {
        let joins: Vec<_> = (0..spec.clients)
            .map(|t| {
                let srv = Arc::clone(&srv);
                let stop = &stop;
                let barrier = &barrier;
                let spec = spec.clone();
                s.spawn(move || {
                    let mut rng = SplitMix64::new(spec.seed ^ (0xA11CE + 31 * t as u64));
                    barrier.wait();
                    client_loop(&srv, &spec, &mut rng, stop)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(spec.duration);
        stop.store(true, Ordering::Release);
        let outcomes: Vec<ClientOutcome> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        (outcomes, start.elapsed())
    });

    let mut stats = PathStats::new();
    let mut latency = LatencyReport::new();
    let mut updates = 0u64;
    let mut reads = 0u64;
    let mut rqs = 0u64;
    let mut delta: i128 = 0;
    for o in &outcomes {
        stats.merge(&o.stats);
        latency.merge(&o.latency);
        updates += o.updates;
        reads += o.reads;
        rqs += o.rqs;
        delta += o.delta as i128;
    }

    map.validate().expect("structural validation failed");
    let keysum_ok = map.key_sum() as i128 == prefill_sum + delta;
    let total_ops = updates + reads + rqs;

    TrialResult {
        throughput: total_ops as f64 / elapsed.as_secs_f64(),
        total_ops,
        update_ops: updates,
        read_ops: reads,
        rq_ops: rqs,
        scan_ops: 0,
        elapsed,
        stats,
        keysum_ok,
        final_size: map.len(),
        pool: map.pool_stats(),
        latency,
    }
}

/// Runs `trials` repetitions with derived seeds, returning all results.
pub fn run_server_trials(spec: &ServerTrialSpec, trials: usize) -> Vec<TrialResult> {
    (0..trials)
        .map(|i| {
            let mut s = spec.clone();
            s.seed = spec.seed.wrapping_add(i as u64 * 0x9E37_79B9);
            run_server_trial(&s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(backend: ShardBackend) -> ServerTrialSpec {
        ServerTrialSpec {
            backend,
            shards: 2,
            clients: 2,
            duration: Duration::from_millis(30),
            key_range: 512,
            ..ServerTrialSpec::default()
        }
    }

    #[test]
    fn server_trials_verify_on_both_backends() {
        for backend in [ShardBackend::Bst, ShardBackend::AbTree] {
            let r = run_server_trial(&quick(backend));
            assert!(r.keysum_ok, "{backend:?} keysum failed");
            assert!(r.total_ops > 0);
            assert!(r.update_ops > 0);
            // Every update rode a batch plan, and its latency was seen.
            assert!(r.stats.batch_ops() >= r.update_ops);
            assert_eq!(r.latency.update.count(), r.update_ops);
            assert!(r.latency.update.p99() >= r.latency.update.p50());
            assert!(r.latency.update.p50() > Duration::ZERO);
        }
    }

    #[test]
    fn mixed_server_trial_reports_all_classes() {
        let mut spec = quick(ShardBackend::Bst);
        spec.read_pct = 40;
        spec.rq_pct = 10;
        spec.strategy = Strategy::Tle;
        spec.htm = HtmConfig::default().with_spurious(0.4);
        let r = run_server_trial(&spec);
        assert!(r.keysum_ok);
        assert!(r.read_ops > 0 && r.rq_ops > 0 && r.update_ops > 0);
        assert_eq!(r.latency.read.count(), r.read_ops);
        assert_eq!(r.latency.range.count(), r.rq_ops);
        assert_eq!(r.total_ops, r.update_ops + r.read_ops + r.rq_ops);
    }

    #[test]
    fn server_trial_admission_gate_verifies() {
        let mut spec = quick(ShardBackend::Bst);
        spec.admission = Some(2);
        spec.htm = HtmConfig::default().with_spurious(0.6);
        let r = run_server_trial(&spec);
        assert!(r.keysum_ok);
        assert!(r.total_ops > 0);
    }

    #[test]
    fn repeated_trials_use_distinct_seeds() {
        let rs = run_server_trials(&quick(ShardBackend::Bst), 2);
        assert_eq!(rs.len(), 2);
        assert!(rs.iter().all(|r| r.keysum_ok));
    }
}
