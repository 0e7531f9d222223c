//! Sharding policy sweep: router (range vs hash) × key distribution
//! (uniform vs clustered Zipf).
//!
//! The clustered Zipf distribution (`KeyDist::Zipf`, hot keys packed at
//! the low end of the key space) is the adversarial case for range
//! partitioning: nearly all traffic lands in shard 0, reproducing the
//! single-tree contention sharding was meant to remove. Hash routing
//! stripes the same hot keys across every shard.
//!
//! A third panel measures cross-shard range queries: a scan-heavy mix
//! (95% scans of 100 keys) over the range router, where most scans span
//! shard boundaries and the ordered plan merges per-shard sub-scans.
//! With `scan_path` on, every sub-scan runs on the optimistic multi-leaf
//! path, so a calm cross-shard RQ executes zero transactions end-to-end;
//! with it off, each shard pays a `run_op` transaction per sub-scan. Both
//! a calm and an 85%-spurious-storm leg run: the storm is where the
//! transaction-free path pays off (the baseline's sub-scans collapse
//! onto the serialized fallback), while calm the BST validation-set walk
//! is the more expensive of the two (see the micro scan panel).
//!
//! A fourth panel runs the serving front-end closed loop: N clients
//! submitting 8-op mixed batches (reads, updates, cross-shard range
//! queries) into the per-shard queues, with whichever client claims a
//! shard's combiner role draining the queue into coalesced batch plans.
//! It reports submit-to-reply latency percentiles per client count — the
//! batching trade-off panel (fewer transactions, longer tails).
//!
//! Scale with `THREEPATH_THREADS`, `THREEPATH_TRIAL_MS`,
//! `THREEPATH_TRIALS`, `THREEPATH_SCALE`, or set `THREEPATH_SMOKE=1` for
//! the CI smoke lane (see `threepath-bench` docs).

use threepath_bench::{
    bench_record, describe, measure_server_spec, measure_spec, print_panel, write_bench_json,
    write_csv, BenchEnv, Cell,
};
use threepath_core::Strategy;
use threepath_htm::HtmConfig;
use threepath_workload::{
    KeyDist, RouterKind, ServerTrialSpec, ShardBackend, Structure, TrialSpec, Workload,
};

const SHARDS: usize = 8;
const ZIPF_THETA: f64 = 0.9;

fn main() {
    let env = BenchEnv::load();
    println!("Sharded-map policy sweep ({SHARDS} BST shards)");
    println!("{}", describe(&env));

    let key_range = ((Structure::Bst.paper_key_range() as f64 * env.scale) as u64).max(256);
    let structure = Structure::ShardedBst { shards: SHARDS };
    let mut all = Vec::new();

    // ------------------------------------------------------------------
    // Panel 1/2: router × distribution at the fixed 3-path strategy.
    // ------------------------------------------------------------------
    for (dist, dist_name) in [
        (KeyDist::Uniform, "uniform"),
        (KeyDist::Zipf { theta: ZIPF_THETA }, "zipf"),
    ] {
        let mut cells = Vec::new();
        for router in [RouterKind::Range, RouterKind::Hash] {
            for &threads in &env.threads {
                let spec = TrialSpec {
                    structure,
                    strategy: Strategy::ThreePath,
                    threads,
                    key_range,
                    key_dist: dist,
                    router,
                    ..TrialSpec::default()
                };
                let result = measure_spec(&env, &spec);
                cells.push(Cell {
                    structure,
                    workload: dist_name,
                    series: format!("{router}-router"),
                    threads,
                    result,
                });
            }
        }
        print_panel(
            &format!("{dist_name} keys, light updates, 3-path (throughput, ops/s)"),
            &cells,
            &env.threads,
        );
        all.extend(cells);
    }

    // ------------------------------------------------------------------
    // Panel 3: cross-shard range queries. The range router keeps each
    // scan's keyspan contiguous, so a 100-key scan regularly crosses a
    // shard boundary and the sharded layer stitches the per-shard
    // sub-scans through its ordered plan. The only variable is how each
    // shard executes its sub-scan: the optimistic multi-leaf scan path
    // (zero transactions on the calm path) vs the run_op baseline.
    // ------------------------------------------------------------------
    let mut cells = Vec::new();
    for (mix, htm) in [
        ("calm", HtmConfig::default()),
        ("storm", HtmConfig::default().with_spurious(0.85)),
    ] {
        for (label, scan_path) in [("runop", false), ("optimistic", true)] {
            for &threads in &env.threads {
                let spec = TrialSpec {
                    structure,
                    strategy: Strategy::ThreePath,
                    threads,
                    key_range,
                    router: RouterKind::Range,
                    workload: Workload::ScanHeavy {
                        scan_pct: 95,
                        scan_len: 100,
                    },
                    scan_path,
                    htm: htm.clone(),
                    ..TrialSpec::default()
                };
                let result = measure_spec(&env, &spec);
                cells.push(Cell {
                    structure,
                    workload: "scan",
                    series: format!("{label}-{mix}"),
                    threads,
                    result,
                });
            }
        }
    }
    print_panel(
        "cross-shard range scans (95% scans of 100 keys), range router, calm + 85%-spurious storm (throughput, ops/s)",
        &cells,
        &env.threads,
    );
    all.extend(cells);

    // ------------------------------------------------------------------
    // Panel 4: the serving front-end's closed loop — N clients × the same
    // 8 shards, every client submitting 8-op mixed batches (50% point
    // reads, 5% cross-shard range queries, the rest 50/50 insert/delete)
    // into the per-shard queues and blocking for replies. Latency here is
    // what a serving system reports: the full submit-to-reply round trip,
    // including queueing behind the combiner. Compare the p99 column
    // against the direct trials' per-op latency to see the batching
    // trade-off (fewer transactions, longer tails).
    // ------------------------------------------------------------------
    let mut cells = Vec::new();
    println!("\n== serving front-end: N clients x {SHARDS} shards, 8-op mixed batches ==");
    println!(
        "{:<10} {:>14} {:>12} {:>10} {:>10} {:>10}",
        "clients", "ops/s", "mean batch", "p50 us", "p95 us", "p99 us"
    );
    for &clients in &env.threads {
        let spec = ServerTrialSpec {
            backend: ShardBackend::Bst,
            shards: SHARDS,
            clients,
            batch: 8,
            read_pct: 50,
            rq_pct: 5,
            rq_extent: 100,
            key_range,
            router: RouterKind::Range,
            strategy: Strategy::ThreePath,
            ..ServerTrialSpec::default()
        };
        let result = measure_server_spec(&env, &spec);
        let lat = result.latency.overall();
        println!(
            "{:<10} {:>14.0} {:>12.2} {:>10.1} {:>10.1} {:>10.1}",
            clients,
            result.throughput,
            result.stats.mean_batch_size(),
            lat.p50().as_secs_f64() * 1e6,
            lat.p95().as_secs_f64() * 1e6,
            lat.p99().as_secs_f64() * 1e6,
        );
        cells.push(Cell {
            structure,
            workload: "server",
            series: "closed-loop".to_string(),
            threads: clients,
            result,
        });
    }
    all.extend(cells);

    write_csv("sharded", &all);
    // Machine-readable mirror of every cell (series → ops/s, abort mix,
    // pool hit rate), committed-format for cross-PR perf tracking.
    let records: Vec<_> = all
        .iter()
        .map(|c| {
            bench_record(
                format!("{}/{}/{}t", c.workload, c.series, c.threads),
                &c.result,
            )
        })
        .collect();
    write_bench_json("sharded", &records);

    // Traffic concentration: the share of update traffic the hottest
    // shard absorbs under each router — the load-balance mechanism that
    // makes hash routing the scale-out choice once shards stop sharing
    // one core.
    println!("\nhottest-shard share of zipf({ZIPF_THETA}) update traffic ({SHARDS} shards):");
    for router in [RouterKind::Range, RouterKind::Hash] {
        println!(
            "  {router:>5} router: {:.0}%",
            hottest_share(router, key_range) * 100.0
        );
    }

    let t = env.max_threads();
    let hash = throughput(&all, "zipf", "hash-router", t);
    let range = throughput(&all, "zipf", "range-router", t);
    println!("\nhot-shard workload at {t} threads (baseline = PR 2 range router + fixed 3-path):");
    println!("  hash vs range at fixed 3-path, no aborts:   {:.2}x", hash / range);
    let scan_calm = throughput(&all, "scan", "optimistic-calm", t)
        / throughput(&all, "scan", "runop-calm", t);
    let scan_storm = throughput(&all, "scan", "optimistic-storm", t)
        / throughput(&all, "scan", "runop-storm", t);
    println!("  optimistic vs run_op cross-shard scans:     {scan_calm:.2}x calm, {scan_storm:.2}x storm");
}

/// Fraction of `KeyDist::Zipf(ZIPF_THETA)` draws landing on the most
/// loaded shard under `router` (100k-sample estimate).
fn hottest_share(router: RouterKind, key_range: u64) -> f64 {
    use threepath_sharded::{HashRouter, RangeRouter, Router};
    let router: Box<dyn Router> = match router {
        RouterKind::Range => Box::new(RangeRouter::new(SHARDS, key_range).expect("valid")),
        RouterKind::Hash => Box::new(HashRouter::new(SHARDS).expect("valid")),
    };
    let sampler = KeyDist::Zipf { theta: ZIPF_THETA }.sampler(key_range);
    let mut rng = threepath_htm::SplitMix64::new(0xBA1A);
    let mut counts = [0u64; SHARDS];
    let draws = 100_000;
    for _ in 0..draws {
        counts[router.route(sampler.sample(&mut rng))] += 1;
    }
    *counts.iter().max().expect("non-empty") as f64 / draws as f64
}

fn throughput(cells: &[Cell], workload: &str, series: &str, threads: usize) -> f64 {
    cells
        .iter()
        .find(|c| c.workload == workload && c.series == series && c.threads == threads)
        .map(|c| c.result.throughput)
        .unwrap_or(f64::NAN)
}
