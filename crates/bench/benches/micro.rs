//! Criterion microbenchmarks for the substrates — raw HTM transaction
//! cost, LLX/SCX on each path, single-threaded tree operations — plus two
//! keysum-verified A/B panels measured through the trial runner:
//!
//! * **pool A/B** — the update-heavy workload (50/50 insert/delete) with
//!   the per-thread node pool on vs the `Box`/global-allocator baseline,
//!   on both backends. The headline allocator claim of the pool PR.
//! * **read-heavy A/B** — YCSB-B/C-style mixes (95% and 100% reads,
//!   uniform and Zipf keys) with the uninstrumented read path vs the
//!   `run_op`-read baseline, calm and under an 85%-spurious storm. The
//!   storm is where the baseline collapses (reads fall back to the
//!   serialized paths) while the read path — zero transactions — is
//!   immune.
//! * **scan A/B** — YCSB-E-shaped mixes (95% range scans + inserts) at
//!   scan lengths 10/100/1000 with the optimistic multi-leaf scan path
//!   vs the `run_op` transactional-scan baseline, calm and under the
//!   same 85%-spurious storm. Calm optimistic scans execute zero
//!   transactions; under the storm the baseline's scans serialize on the
//!   fallback paths while validation-set scans keep retrying for free.
//! * **batch A/B** — the same update-heavy stream executed directly (one
//!   transaction per operation) vs through the serving front-end, whose
//!   combiner coalesces queued submissions into batch plans (one
//!   transaction per plan), swept over submission batch sizes 1–16.
//! * **persist A/B** — the update-heavy sharded workload with durability
//!   off, group-committed (fsync every 64 records), and fsync-per-record.
//!   The volatile arm doubles as the zero-cost guard (it must log
//!   nothing); the fsync sweep prices the WAL's policy knob.
//! * **recovery** — cold-start `ShardedMap::recover` timing over a known
//!   key population, WAL-only replay vs snapshot-bounded replay. The
//!   per-trial recovery wall time feeds the latency histogram, so the
//!   JSON's `recovery/…` percentiles are real measurements.
//!
//! Writes `BENCH_micro.json` (series → ops/s, abort mix, pool hit rate)
//! at the workspace root alongside the printed tables. Scale with
//! `THREEPATH_*` variables or `THREEPATH_SMOKE=1` (see crate docs).

use std::sync::Arc;
use std::time::Instant;

use criterion::{Criterion};

use threepath_bench::{
    bench_record, measure_server_spec, measure_spec, write_bench_json, BenchEnv, BenchRecord,
};
use threepath_bst::{Bst, BstConfig};
use threepath_core::{PathKind, PathStats, Strategy};
use threepath_htm::{HtmConfig, HtmRuntime, TxCell};
use threepath_llxscx::{LlxResult, ScxArgs, ScxEngine, ScxHeader};
use threepath_reclaim::{Domain, PoolStats, ReclaimMode};
use threepath_sharded::{FsyncPolicy, PersistConfig, ShardedConfig, ShardedMap};
use threepath_workload::{
    average, run_trial, KeyDist, LatencyReport, PersistSpec, ServerTrialSpec, ShardBackend,
    Structure, TrialSpec, Workload,
};

fn bench_htm_primitives(c: &mut Criterion) {
    let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
    let mut th = rt.register_thread();
    let cell = TxCell::new(0);

    let mut g = c.benchmark_group("htm");
    g.bench_function("direct_fetch_add", |b| {
        b.iter(|| cell.fetch_add_direct(&rt, 1))
    });
    g.bench_function("tx_fetch_add", |b| {
        b.iter(|| rt.tx_fetch_add(&mut th, &cell, 1).unwrap())
    });
    g.bench_function("tx_read_only_8_cells", |b| {
        let cells: Vec<TxCell> = (0..8).map(TxCell::new).collect();
        b.iter(|| {
            rt.attempt(&mut th, |tx| {
                let mut acc = 0;
                for c in &cells {
                    acc += tx.read(c)?;
                }
                Ok(acc)
            })
            .unwrap()
        })
    });
    g.finish();
}

struct RegNode {
    hdr: ScxHeader,
    cells: [TxCell; 1],
}

fn bench_llx_scx(c: &mut Criterion) {
    let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
    let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
    let eng = ScxEngine::new(rt, domain);
    let mut th = eng.register_thread();
    let node = RegNode {
        hdr: ScxHeader::new(),
        cells: [TxCell::new(0)],
    };

    let mut g = c.benchmark_group("llxscx");
    g.bench_function("llx", |b| {
        th.reclaim.enter();
        b.iter(|| match eng.llx(&th, &node.hdr, &node.cells) {
            LlxResult::Snapshot(h) => h.snapshot().get(0),
            _ => panic!("unexpected"),
        });
        th.reclaim.exit();
    });
    g.bench_function("scx_htm_fast_path", |b| {
        b.iter(|| {
            th.pinned(|th| {
                let h = eng.llx(th, &node.hdr, &node.cells).handle().unwrap();
                let old = h.snapshot().get(0);
                eng.scx(
                    th,
                    &ScxArgs {
                        v: &[&h],
                        r_mask: 0,
                        fld: &node.cells[0],
                        old,
                        new: old + 2,
                    },
                )
            })
        })
    });
    g.bench_function("scx_orig_software", |b| {
        b.iter(|| {
            th.pinned(|th| {
                let h = eng.llx(th, &node.hdr, &node.cells).handle().unwrap();
                let old = h.snapshot().get(0);
                eng.scx_orig(
                    th,
                    &ScxArgs {
                        v: &[&h],
                        r_mask: 0,
                        fld: &node.cells[0],
                        old,
                        new: old + 2,
                    },
                )
            })
        })
    });
    g.finish();
}

fn bench_bst_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("bst_single_thread");
    for strategy in [Strategy::ThreePath, Strategy::Tle, Strategy::NonHtm] {
        let tree = Arc::new(Bst::with_config(BstConfig {
            strategy,
            ..BstConfig::default()
        }));
        let mut h = tree.handle();
        for k in 0..1024 {
            h.insert(k * 2, k);
        }
        let mut i = 0u64;
        g.bench_function(format!("insert_remove/{strategy}"), |b| {
            b.iter(|| {
                i = (i + 1) % 1024;
                h.insert(i * 2 + 1, i);
                h.remove(i * 2 + 1)
            })
        });
        g.bench_function(format!("get/{strategy}"), |b| {
            b.iter(|| {
                i = (i + 1) % 1024;
                h.get(i * 2)
            })
        });
    }
    g.finish();
}

/// Pool on/off A/B on the update-heavy (light, 50/50 insert/delete)
/// workload, both backends, single- and max-thread.
fn pool_ab(env: &BenchEnv, records: &mut Vec<BenchRecord>) {
    println!("\n== pool A/B: update-heavy workload, pooled vs Box allocator ==");
    println!(
        "{:<28} {:>7} {:>14} {:>14} {:>9} {:>9}",
        "series", "threads", "box ops/s", "pooled ops/s", "speedup", "hit rate"
    );
    let threads = [1, env.max_threads()];
    for structure in [Structure::Bst, Structure::AbTree] {
        let key_range = ((structure.paper_key_range() as f64 * env.scale) as u64).max(256);
        for &t in threads.iter().take(if env.max_threads() > 1 { 2 } else { 1 }) {
            let base = TrialSpec {
                structure,
                strategy: Strategy::ThreePath,
                threads: t,
                duration: env.duration,
                key_range,
                ..TrialSpec::default()
            };
            // Interleave box/pooled repetitions so slow drift in the
            // host's available CPU hits both sides of the pair equally.
            let mut box_runs = Vec::new();
            let mut pool_runs = Vec::new();
            for i in 0..env.trials {
                let seed = base.seed.wrapping_add(i as u64 * 0x9E37_79B9);
                box_runs.push(run_trial(&TrialSpec {
                    pool: false,
                    seed,
                    ..base.clone()
                }));
                pool_runs.push(run_trial(&TrialSpec {
                    seed,
                    ..base.clone()
                }));
            }
            let boxed = average(&box_runs);
            let pooled = average(&pool_runs);
            assert!(boxed.keysum_ok && pooled.keysum_ok, "keysum failed");
            println!(
                "{:<28} {:>7} {:>14.0} {:>14.0} {:>8.2}x {:>8.1}%",
                format!("{structure}/update-heavy"),
                t,
                boxed.throughput,
                pooled.throughput,
                pooled.throughput / boxed.throughput,
                pooled.pool_hit_rate() * 100.0
            );
            records.push(bench_record(format!("pool-ab/{structure}/box/{t}t"), &boxed));
            records.push(bench_record(
                format!("pool-ab/{structure}/pooled/{t}t"),
                &pooled,
            ));
        }
    }
}

/// Read-heavy panels (YCSB-B/C-shaped mixes): the uninstrumented read
/// path vs the `run_op`-read baseline, under a calm abort environment
/// and — uniform only, where the contrast is starkest — a spurious-abort
/// storm that collapses the baseline's reads onto the serialized
/// fallback paths while the read path is immune.
fn read_heavy_ab(env: &BenchEnv, records: &mut Vec<BenchRecord>) {
    println!("\n== read-heavy A/B: read path vs run_op-read baseline ==");
    println!(
        "{:<36} {:>7} {:>14} {:>14} {:>9} {:>10}",
        "series", "threads", "runop ops/s", "readpath ops/s", "speedup", "read share"
    );
    let storm = HtmConfig::default().with_spurious(0.85);
    let threads = env.max_threads();
    for structure in [Structure::Bst, Structure::AbTree] {
        let key_range = ((structure.paper_key_range() as f64 * env.scale) as u64).max(256);
        for (mix, read_pct) in [("ycsb-b-95", 95u8), ("ycsb-c-100", 100u8)] {
            let combos: [(&str, KeyDist, HtmConfig); 3] = [
                ("uniform/calm", KeyDist::Uniform, HtmConfig::default()),
                (
                    "zipf/calm",
                    KeyDist::Zipf { theta: 0.99 },
                    HtmConfig::default(),
                ),
                ("uniform/storm", KeyDist::Uniform, storm.clone()),
            ];
            for (combo, key_dist, htm) in combos {
                let base = TrialSpec {
                    structure,
                    strategy: Strategy::ThreePath,
                    threads,
                    duration: env.duration,
                    key_range,
                    key_dist,
                    htm,
                    workload: Workload::ReadHeavy { read_pct },
                    ..TrialSpec::default()
                };
                // Interleave the two sides so host-load drift hits both
                // equally (same discipline as the pool A/B).
                let mut runop_runs = Vec::new();
                let mut readpath_runs = Vec::new();
                for i in 0..env.trials {
                    let seed = base.seed.wrapping_add(i as u64 * 0x9E37_79B9);
                    runop_runs.push(run_trial(&TrialSpec {
                        read_path: false,
                        seed,
                        ..base.clone()
                    }));
                    readpath_runs.push(run_trial(&TrialSpec {
                        seed,
                        ..base.clone()
                    }));
                }
                let runop = average(&runop_runs);
                let readpath = average(&readpath_runs);
                assert!(runop.keysum_ok && readpath.keysum_ok, "keysum failed");
                // The acceptance invariant: with the read path on, every
                // lookup completes on the read lane — zero transactions —
                // except the (counted) escalations after exhausted
                // optimistic attempts, which are legitimate designed-in
                // behaviour under extreme validation races.
                assert!(
                    readpath.stats.completed(PathKind::Read)
                        + readpath.stats.read_escalations()
                        >= readpath.read_ops,
                    "read ops leaked off the read lane"
                );
                assert_eq!(runop.stats.completed(PathKind::Read), 0);
                let name = format!("{structure}/{mix}/{combo}");
                println!(
                    "{:<36} {:>7} {:>14.0} {:>14.0} {:>8.2}x {:>9.1}%",
                    name,
                    threads,
                    runop.throughput,
                    readpath.throughput,
                    readpath.throughput / runop.throughput,
                    readpath.read_path_share() * 100.0
                );
                records.push(bench_record(format!("read-heavy/{name}/runop"), &runop));
                records.push(bench_record(
                    format!("read-heavy/{name}/readpath"),
                    &readpath,
                ));
            }
        }
    }
}

/// Scan panels (YCSB-E-shaped mix: 95% range scans, 5% inserts): the
/// optimistic multi-leaf scan path vs the `run_op` transactional-scan
/// baseline, across scan lengths and a calm/storm abort mix. The storm
/// is the headline case — the baseline's scans collapse onto the
/// serialized paths while validation-set scans never enter a
/// transaction unless terminally escalated.
fn scan_ab(env: &BenchEnv, records: &mut Vec<BenchRecord>) {
    println!("\n== scan A/B: optimistic scan path vs run_op-scan baseline ==");
    println!(
        "{:<26} {:>7} {:>14} {:>15} {:>9} {:>10}",
        "series", "threads", "runop ops/s", "scanpath ops/s", "speedup", "scan share"
    );
    let storm = HtmConfig::default().with_spurious(0.85);
    let threads = env.max_threads();
    for structure in [Structure::Bst, Structure::AbTree] {
        let key_range = ((structure.paper_key_range() as f64 * env.scale) as u64).max(256);
        for scan_len in [10u64, 100, 1000] {
            for (mix, htm) in [("calm", HtmConfig::default()), ("storm", storm.clone())] {
                let base = TrialSpec {
                    structure,
                    strategy: Strategy::ThreePath,
                    threads,
                    duration: env.duration,
                    key_range,
                    htm,
                    workload: Workload::ScanHeavy { scan_pct: 95, scan_len },
                    ..TrialSpec::default()
                };
                // Interleave the two sides so host-load drift hits both
                // equally (same discipline as the other A/B panels).
                let mut runop_runs = Vec::new();
                let mut scanpath_runs = Vec::new();
                for i in 0..env.trials {
                    let seed = base.seed.wrapping_add(i as u64 * 0x9E37_79B9);
                    runop_runs.push(run_trial(&TrialSpec {
                        scan_path: false,
                        seed,
                        ..base.clone()
                    }));
                    scanpath_runs.push(run_trial(&TrialSpec {
                        seed,
                        ..base.clone()
                    }));
                }
                let runop = average(&runop_runs);
                let scanpath = average(&scanpath_runs);
                assert!(runop.keysum_ok && scanpath.keysum_ok, "keysum failed");
                // With the scan path on, every scan completes on the read
                // lane except counted terminal escalations; the baseline
                // never touches the read lane or the scan counters.
                assert!(
                    scanpath.stats.completed(PathKind::Read)
                        + scanpath.stats.scan_escalations()
                        >= scanpath.scan_ops,
                    "scans leaked off the read lane"
                );
                assert_eq!(runop.stats.completed(PathKind::Read), 0);
                assert_eq!(runop.stats.scan_escalations(), 0);
                let name = format!("{structure}/len{scan_len}/{mix}");
                println!(
                    "{:<26} {:>7} {:>14.0} {:>15.0} {:>8.2}x {:>9.1}%",
                    name,
                    threads,
                    runop.throughput,
                    scanpath.throughput,
                    scanpath.throughput / runop.throughput,
                    scanpath.scan_path_share() * 100.0
                );
                records.push(bench_record(format!("scan-ab/{name}/runop"), &runop));
                records.push(bench_record(format!("scan-ab/{name}/scanpath"), &scanpath));
            }
        }
    }
}

/// HTM admission control on/off while the fallback path is hot. Two
/// storm regimes: an 85%-spurious storm over the regular key range
/// (aborts regardless of contention, the fallback near-permanently
/// active) and the same storm squeezed onto a 64-key space so the
/// surviving transactions also collide on real data (the conflict-storm
/// the gate is designed for). In both, an ungated tree lets every thread
/// keep burning transaction attempts against a fallback that will
/// invalidate them; the gated tree bounds the burners to the admission
/// window and routes overflow threads straight onto the fallback lane.
/// The overflow column shows how often the gate actually refused — a
/// zero there means the panel measured nothing.
fn admission_ab(env: &BenchEnv, records: &mut Vec<BenchRecord>) {
    println!("\n== admission A/B: gated vs open HTM entry under fallback pressure (BST, 3-path) ==");
    println!(
        "{:<10} {:<10} {:>14} {:>11} {:>10}",
        "mix", "window", "ops/s", "abort rate", "overflows"
    );
    let threads = env.max_threads();
    for (mix, key_range, htm) in [
        ("storm", 256u64, HtmConfig::default().with_spurious(0.85)),
        ("conflict-storm", 64, HtmConfig::default().with_spurious(0.85)),
    ] {
        let base = TrialSpec {
            structure: Structure::Bst,
            strategy: Strategy::ThreePath,
            threads,
            key_range,
            htm,
            ..TrialSpec::default()
        };
        for (label, admission) in [("open", None), ("1", Some(1)), ("2", Some(2))] {
            let r = measure_spec(
                env,
                &TrialSpec {
                    admission,
                    ..base.clone()
                },
            );
            println!(
                "{:<10} {:<10} {:>14.0} {:>11.2} {:>10}",
                mix,
                label,
                r.throughput,
                r.stats.abort_rate(),
                r.stats.admission_overflows()
            );
            records.push(bench_record(format!("admission-ab/{mix}/{label}"), &r));
        }
    }
}

/// Batched vs direct execution of the same update-heavy 50/50
/// insert/delete stream on ONE shard — the contention case batching is
/// for. `N` direct updater threads run one transaction per operation;
/// `N` closed-loop server clients instead submit through the shard
/// queue, and whichever client holds the combiner role serializes
/// everything into coalesced batch plans — one transaction per plan.
/// Two abort regimes: calm (where the transaction envelope is cheap and
/// direct's parallelism wins — batching is machinery rent there) and an
/// 85%-spurious storm, the headline case: direct pays the abort-retry
/// ladder per *operation* while batched pays it per *plan*, and a plan
/// that exhausts its attempts executes the whole batch under the
/// fallback lock, immune to further aborts. The sweep varies the
/// submission batch size; the storm-side speedup grows with the batch
/// as more of the retry ladder is amortized away. Latency percentiles
/// on the batched side are full submit-to-reply round trips (the
/// trade-off: fewer transactions, longer tails).
fn batch_ab(env: &BenchEnv, records: &mut Vec<BenchRecord>) {
    println!("\n== batch A/B: coalesced same-shard batches vs direct per-op transactions ==");
    println!(
        "{:<30} {:>7} {:>14} {:>9} {:>10} {:>10}",
        "series", "clients", "ops/s", "vs direct", "txns/batch", "p99 us"
    );
    let clients = env.max_threads();
    const SHARDS: usize = 1;
    for backend in [ShardBackend::Bst, ShardBackend::AbTree] {
        let structure = match backend {
            ShardBackend::Bst => Structure::ShardedBst { shards: SHARDS },
            ShardBackend::AbTree => Structure::ShardedAbTree { shards: SHARDS },
        };
        let key_range = ((structure.paper_key_range() as f64 * env.scale) as u64).max(256);
        for (mix, htm) in [
            ("calm", HtmConfig::default()),
            ("storm", HtmConfig::default().with_spurious(0.85)),
        ] {
            let direct = measure_spec(
                env,
                &TrialSpec {
                    structure,
                    strategy: Strategy::ThreePath,
                    threads: clients,
                    key_range,
                    htm: htm.clone(),
                    ..TrialSpec::default()
                },
            );
            println!(
                "{:<30} {:>7} {:>14.0} {:>9} {:>10} {:>9.1}",
                format!("{backend:?}/{mix}/direct"),
                clients,
                direct.throughput,
                "1.00x",
                "-",
                direct.latency.overall().p99().as_secs_f64() * 1e6
            );
            records.push(bench_record(
                format!("batch-ab/{backend:?}/{mix}/direct/{clients}c"),
                &direct,
            ));
            for batch in [1usize, 2, 4, 8, 16] {
                let batched = measure_server_spec(
                    env,
                    &ServerTrialSpec {
                        backend,
                        shards: SHARDS,
                        clients,
                        batch,
                        key_range,
                        strategy: Strategy::ThreePath,
                        htm: htm.clone(),
                        batch_cap: batch.max(8),
                        ..ServerTrialSpec::default()
                    },
                );
                let txns_per_batch =
                    batched.stats.batch_txns() as f64 / batched.stats.batches().max(1) as f64;
                println!(
                    "{:<30} {:>7} {:>14.0} {:>8.2}x {:>10.2} {:>9.1}",
                    format!("{backend:?}/{mix}/batch{batch}"),
                    clients,
                    batched.throughput,
                    batched.throughput / direct.throughput,
                    txns_per_batch,
                    batched.latency.overall().p99().as_secs_f64() * 1e6
                );
                records.push(bench_record(
                    format!("batch-ab/{backend:?}/{mix}/batch{batch}/{clients}c"),
                    &batched,
                ));
            }
        }
    }
}

/// Removes the auto-named per-trial persistence directories this process
/// created under the system temp dir (the trial runner invents one per
/// map build so repeated trials never clobber each other's manifests).
fn clean_trial_dirs() {
    let prefix = format!("threepath-trial-{}-", std::process::id());
    if let Ok(rd) = std::fs::read_dir(std::env::temp_dir()) {
        for e in rd.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

/// Durability A/B: the same update-heavy sharded workload with the WAL
/// off, group-committed, and fsync-per-record. The volatile arm is the
/// zero-cost guard — a map built with `persist: None` must log nothing —
/// and the two persistent arms price the fsync-policy knob: group commit
/// amortizes the sync over 64 committed records, `Always` pays one per
/// record (the bound a machine-crash durability story would pay).
fn persist_ab(env: &BenchEnv, records: &mut Vec<BenchRecord>) {
    println!("\n== persist A/B: volatile vs group-commit WAL vs fsync-always (sharded BST) ==");
    println!(
        "{:<28} {:>7} {:>14} {:>9} {:>11} {:>10}",
        "series", "threads", "ops/s", "vs off", "wal recs", "snapshots"
    );
    const SHARDS: usize = 4;
    let structure = Structure::ShardedBst { shards: SHARDS };
    let key_range = ((structure.paper_key_range() as f64 * env.scale) as u64).max(256);
    let threads = env.max_threads();
    let base = TrialSpec {
        structure,
        strategy: Strategy::ThreePath,
        threads,
        duration: env.duration,
        key_range,
        ..TrialSpec::default()
    };
    let arms: [(&str, Option<PersistSpec>); 3] = [
        ("volatile", None),
        (
            "group",
            Some(PersistSpec {
                fsync: FsyncPolicy::EveryN(64),
                ..PersistSpec::default()
            }),
        ),
        (
            "always",
            Some(PersistSpec {
                fsync: FsyncPolicy::Always,
                ..PersistSpec::default()
            }),
        ),
    ];
    let mut volatile_tp = 0.0;
    for (label, persist) in arms {
        let persistent = persist.is_some();
        let r = measure_spec(
            env,
            &TrialSpec {
                persist,
                ..base.clone()
            },
        );
        if persistent {
            assert!(r.stats.wal_records() > 0, "persistent arm never logged");
        } else {
            assert_eq!(r.stats.wal_records(), 0, "volatile arm touched the WAL");
            volatile_tp = r.throughput;
        }
        println!(
            "{:<28} {:>7} {:>14.0} {:>8.2}x {:>11} {:>10}",
            format!("bst{SHARDS}/update-heavy/{label}"),
            threads,
            r.throughput,
            r.throughput / volatile_tp,
            r.stats.wal_records(),
            r.stats.wal_snapshots()
        );
        records.push(bench_record(
            format!("persist-ab/bst{SHARDS}/{label}/{threads}t"),
            &r,
        ));
    }
    clean_trial_dirs();
}

/// Recovery timing: build a persistent sharded map, insert a known key
/// population, drop the map (releasing the shard logs), then time
/// `ShardedMap::recover` from cold. Two arms: WAL-only replay (every
/// record re-executed) and snapshot-bounded replay (load the snapshot,
/// replay only the short tail). `ops_per_sec` counts recovery work items
/// (snapshot pairs loaded + operations replayed) per second, and every
/// trial's recovery wall time feeds the latency histogram — the
/// `recovery/…` JSON series is the repo's durability-restart budget.
fn recovery_bench(env: &BenchEnv, records: &mut Vec<BenchRecord>) {
    println!("\n== recovery: cold start from WAL-only vs snapshot+tail (sharded BST) ==");
    println!(
        "{:<26} {:>8} {:>10} {:>10} {:>11} {:>13}",
        "series", "keys", "snap", "replayed", "recover ms", "items/s"
    );
    const SHARDS: usize = 4;
    let keys: u64 = if env.smoke { 2_000 } else { 50_000 };
    let snapshot_period = if env.smoke { 128 } else { 1024 };
    for (label, snapshot_every) in [("wal-only", None), ("snapshots", Some(snapshot_period))] {
        let dir = std::env::temp_dir().join(format!(
            "threepath-recovery-{}-{label}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ShardedConfig {
            shards: SHARDS,
            key_space: keys.max(SHARDS as u64),
            persist: Some(PersistConfig {
                // write() suffices: recovery replays the page cache, and
                // nothing in this bench kills the machine.
                fsync: FsyncPolicy::Never,
                snapshot_every,
                ..PersistConfig::new(&dir)
            }),
            ..ShardedConfig::default()
        };
        let map = Arc::new(ShardedMap::with_config(cfg.clone()).expect("valid recovery bench config"));
        let mut h = map.handle();
        // Scattered insertion order (48271 is prime and coprime with both
        // key counts): sequential keys would degenerate the unbalanced
        // external BST during the load phase and measure list-walking,
        // not recovery.
        for i in 0..keys {
            let k = (i * 48271) % keys;
            h.insert(k, k);
        }
        drop(h);
        drop(map); // close the shard logs so recovery reopens them cold
        let expect_sum = u128::from(keys) * u128::from(keys - 1) / 2;
        let mut latency = LatencyReport::new();
        let mut elapsed_total = 0.0f64;
        let mut items_total = 0u64;
        let mut last_reports = Vec::new();
        for _ in 0..env.trials.max(1) {
            let start = Instant::now();
            let (recovered, reports) =
                ShardedMap::recover(&dir, cfg.clone()).expect("recovery failed");
            let dt = start.elapsed();
            assert_eq!(recovered.len(), keys as usize, "recovery lost keys");
            assert_eq!(recovered.key_sum(), expect_sum, "recovery key sum drifted");
            latency.update.record(dt);
            elapsed_total += dt.as_secs_f64();
            items_total += reports
                .iter()
                .map(|r| r.snapshot_pairs as u64 + r.ops_replayed)
                .sum::<u64>();
            last_reports = reports;
        }
        let replayed: u64 = last_reports.iter().map(|r| r.records_replayed).sum();
        let snap_pairs: usize = last_reports.iter().map(|r| r.snapshot_pairs).sum();
        if snapshot_every.is_some() {
            assert!(snap_pairs > 0, "snapshot arm never installed a snapshot");
        } else {
            assert_eq!(snap_pairs, 0, "wal-only arm loaded a snapshot");
        }
        let trials = env.trials.max(1) as f64;
        let items_per_sec = items_total as f64 / elapsed_total.max(1e-9);
        println!(
            "{:<26} {:>8} {:>10} {:>10} {:>11.2} {:>13.0}",
            format!("bst{SHARDS}/{label}"),
            keys,
            snap_pairs,
            replayed,
            elapsed_total * 1e3 / trials,
            items_per_sec
        );
        records.push(BenchRecord {
            name: format!("recovery/bst{SHARDS}/{label}"),
            ops_per_sec: items_per_sec,
            stats: PathStats::new(),
            pool: PoolStats::default(),
            latency,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn main() {
    let mut c = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_millis(400))
        .warm_up_time(std::time::Duration::from_millis(150));
    bench_htm_primitives(&mut c);
    bench_llx_scx(&mut c);
    bench_bst_ops(&mut c);

    let env = BenchEnv::load();
    println!("\nA/B panels: {}", threepath_bench::describe(&env));
    let mut records = Vec::new();
    pool_ab(&env, &mut records);
    read_heavy_ab(&env, &mut records);
    scan_ab(&env, &mut records);
    admission_ab(&env, &mut records);
    batch_ab(&env, &mut records);
    persist_ab(&env, &mut records);
    recovery_bench(&env, &mut records);
    write_bench_json("micro", &records);
}
