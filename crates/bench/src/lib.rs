//! Shared infrastructure for the per-figure benchmark harnesses.
//!
//! Each harness regenerates one table or figure from the paper's
//! evaluation (Section 7): it sweeps thread counts and strategies, prints
//! an aligned table, and writes a CSV under `target/figures/`.
//!
//! Sizing is controlled by environment variables so the same harnesses run
//! as a quick smoke pass under `cargo bench` and as a full paper-scale
//! sweep on a big machine:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `THREEPATH_THREADS` | comma-separated thread counts | `1,2,3,4` |
//! | `THREEPATH_TRIAL_MS` | duration of each timed trial | `150` |
//! | `THREEPATH_TRIALS` | repetitions per configuration | `2` |
//! | `THREEPATH_SCALE` | key-range scale vs the paper (1.0 = 10⁴ BST / 10⁶ (a,b)-tree) | `0.05` |
//! | `THREEPATH_SMOKE` | `1` shrinks every default (threads `1,2`, 25 ms trials, ×1, scale 0.02) for a CI smoke lane; explicit variables still override | unset |

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use threepath_core::Strategy;
use threepath_workload::{
    average, env_u64, env_usize, run_server_trials, run_trials, LatencyReport, ServerTrialSpec,
    Structure, TrialResult, TrialSpec,
};

/// Benchmark sizing read from the environment (see crate docs).
#[derive(Debug, Clone)]
pub struct BenchEnv {
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Trial duration.
    pub duration: Duration,
    /// Repetitions per configuration.
    pub trials: usize,
    /// Key-range scale relative to the paper's parameters.
    pub scale: f64,
    /// Whether `THREEPATH_SMOKE` shrunk the defaults (the CI lane that
    /// keeps bench harnesses compiling *and running* without paying for a
    /// real measurement).
    pub smoke: bool,
}

impl BenchEnv {
    /// Reads the environment.
    pub fn load() -> Self {
        let smoke = std::env::var("THREEPATH_SMOKE")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        let threads = std::env::var("THREEPATH_THREADS")
            .ok()
            .map(|v| {
                v.split(',')
                    .filter_map(|t| t.trim().parse().ok())
                    .collect::<Vec<usize>>()
            })
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| if smoke { vec![1, 2] } else { vec![1, 2, 3, 4] });
        let duration =
            Duration::from_millis(env_u64("THREEPATH_TRIAL_MS", if smoke { 25 } else { 150 }));
        let trials = env_usize("THREEPATH_TRIALS", if smoke { 1 } else { 2 });
        let scale = std::env::var("THREEPATH_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if smoke { 0.02 } else { 0.05 });
        BenchEnv {
            threads,
            duration,
            trials,
            scale,
            smoke,
        }
    }

    /// Largest thread count in the sweep.
    pub fn max_threads(&self) -> usize {
        *self.threads.iter().max().unwrap()
    }
}

/// One measured cell of a figure.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Data structure.
    pub structure: Structure,
    /// Panel label: the workload name (light/heavy) or, for the sharded
    /// sweep, the key-distribution name (uniform/skewed).
    pub workload: &'static str,
    /// Strategy (or baseline label).
    pub series: String,
    /// Thread count.
    pub threads: usize,
    /// Averaged result.
    pub result: TrialResult,
}

/// Runs an explicit spec (averaging `env.trials` repetitions with the
/// env's trial duration). Used by harnesses that vary more than
/// structure × strategy — e.g. the sharded sweep, which also varies the
/// key distribution.
pub fn measure_spec(env: &BenchEnv, spec: &TrialSpec) -> TrialResult {
    let mut spec = spec.clone();
    spec.duration = env.duration;
    let results = run_trials(&spec, env.trials);
    let avg = average(&results);
    assert!(
        avg.keysum_ok,
        "key-sum verification failed: {}/{}/{}/{}t",
        spec.structure, spec.strategy, spec.key_dist, spec.threads
    );
    avg
}

/// Runs a closed-loop server trial spec (averaging `env.trials`
/// repetitions with the env's trial duration). The batched counterpart of
/// [`measure_spec`] for the batched-vs-direct A/B panels.
pub fn measure_server_spec(env: &BenchEnv, spec: &ServerTrialSpec) -> TrialResult {
    let mut spec = spec.clone();
    spec.duration = env.duration;
    let results = run_server_trials(&spec, env.trials);
    let avg = average(&results);
    assert!(
        avg.keysum_ok,
        "server trial key-sum verification failed: {:?}/{}c/{}sh",
        spec.backend, spec.clients, spec.shards
    );
    avg
}

/// Runs one configuration (averaging `env.trials` repetitions).
pub fn measure(
    env: &BenchEnv,
    structure: Structure,
    strategy: Strategy,
    heavy: bool,
    threads: usize,
) -> TrialResult {
    let mut spec = TrialSpec::paper(structure, strategy, heavy, env.scale);
    spec.threads = threads;
    measure_spec(env, &spec)
}

/// Sweeps `threads × strategies` for one panel (structure × workload).
pub fn sweep_panel(
    env: &BenchEnv,
    structure: Structure,
    heavy: bool,
    strategies: &[Strategy],
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &strategy in strategies {
        for &threads in &env.threads {
            let result = measure(env, structure, strategy, heavy, threads);
            cells.push(Cell {
                structure,
                workload: if heavy { "heavy" } else { "light" },
                series: strategy.to_string(),
                threads,
                result,
            });
        }
    }
    cells
}

/// Prints a throughput table (series × threads) for one panel.
pub fn print_panel(title: &str, cells: &[Cell], threads: &[usize]) {
    println!("\n== {title} ==");
    print!("{:<16}", "series");
    for t in threads {
        print!("{:>14}", format!("{t} thr"));
    }
    println!();
    let mut series: Vec<&str> = cells.iter().map(|c| c.series.as_str()).collect();
    series.dedup();
    for s in series {
        print!("{s:<16}");
        for t in threads {
            let cell = cells
                .iter()
                .find(|c| c.series == s && c.threads == *t)
                .expect("missing cell");
            print!("{:>14.0}", cell.result.throughput);
        }
        println!();
    }
}

/// Writes cells as CSV under `target/figures/<name>.csv`.
pub fn write_csv(name: &str, cells: &[Cell]) -> PathBuf {
    let mut out = String::from(
        "structure,workload,series,threads,throughput,total_ops,update_ops,rq_ops,scan_ops,\
         fast_frac,middle_frac,fallback_frac,read_frac,scan_retries,scan_escalations,\
         keysum_ok\n",
    );
    for c in cells {
        use threepath_core::PathKind;
        writeln!(
            out,
            "{},{},{},{},{:.1},{},{},{},{},{:.4},{:.4},{:.4},{:.4},{},{},{}",
            c.structure,
            c.workload,
            c.series,
            c.threads,
            c.result.throughput,
            c.result.total_ops,
            c.result.update_ops,
            c.result.rq_ops,
            c.result.scan_ops,
            c.result.path_fraction(PathKind::Fast),
            c.result.path_fraction(PathKind::Middle),
            c.result.path_fraction(PathKind::Fallback),
            c.result.path_fraction(PathKind::Read),
            c.result.stats.scan_retries(),
            c.result.stats.scan_escalations(),
            c.result.keysum_ok,
        )
        .unwrap();
    }
    let dir = figures_dir();
    fs::create_dir_all(&dir).expect("create figures dir");
    let path = dir.join(format!("{name}.csv"));
    fs::write(&path, out).expect("write csv");
    println!("\n[csv] {}", path.display());
    path
}

// ---------------------------------------------------------------------
// Machine-readable results (`BENCH_<name>.json` at the workspace root).
// ---------------------------------------------------------------------

/// One series of a machine-readable benchmark report: name → throughput,
/// abort mix, pool hit rate. Build from a [`TrialResult`] with
/// [`bench_record`].
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Series name (unique within the report).
    pub name: String,
    /// Completed operations per second.
    pub ops_per_sec: f64,
    /// Merged per-path statistics (abort mix source).
    pub stats: threepath_core::PathStats,
    /// Node-pool counters (all zeros when the series ran pool-off).
    pub pool: threepath_reclaim::PoolStats,
    /// Client-observed per-operation latency (empty histograms for series
    /// measured before the closed-loop harness existed; current harnesses
    /// always record it).
    pub latency: LatencyReport,
}

/// Builds a [`BenchRecord`] from a measured trial.
pub fn bench_record(name: impl Into<String>, result: &TrialResult) -> BenchRecord {
    BenchRecord {
        name: name.into(),
        ops_per_sec: result.throughput,
        stats: result.stats.clone(),
        pool: result.pool,
        latency: result.latency.clone(),
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders records as the `BENCH_<name>.json` document (stable key order,
/// no external dependencies).
pub fn bench_json(bench: &str, records: &[BenchRecord]) -> String {
    use threepath_core::PathKind;
    let mut out = String::new();
    let _ = write!(out, "{{\n  \"bench\": \"{}\",\n  \"series\": {{", json_escape(bench));
    for (i, r) in records.iter().enumerate() {
        let mut mix = threepath_core::AbortCounts::default();
        for p in PathKind::ALL {
            let a = r.stats.aborts(p);
            mix.explicit += a.explicit;
            mix.conflict += a.conflict;
            mix.capacity += a.capacity;
            mix.spurious += a.spurious;
        }
        let _ = write!(
            out,
            "{}\n    \"{}\": {{\"ops_per_sec\": {:.1}, \
             \"abort_mix\": {{\"explicit\": {}, \"conflict\": {}, \"capacity\": {}, \"spurious\": {}}}, \
             \"abort_rate\": {:.4}, \"fallback_frac\": {:.4}, \"read_frac\": {:.4}, \
             \"read_retries\": {}, \"read_escalations\": {}, \
             \"scan_retries\": {}, \"scan_escalations\": {}, \"scan_leaves\": {}, \
             \"pool_hit_rate\": {:.4}, \"pool_allocs\": {}, \"pool_recycled\": {}, \
             \"lat_p50_us\": {:.3}, \"lat_p95_us\": {:.3}, \"lat_p99_us\": {:.3}}}",
            if i == 0 { "" } else { "," },
            json_escape(&r.name),
            r.ops_per_sec,
            mix.explicit,
            mix.conflict,
            mix.capacity,
            mix.spurious,
            r.stats.abort_rate(),
            r.stats.fallback_fraction(),
            r.stats.completed_fraction(PathKind::Read),
            r.stats.read_retries(),
            r.stats.read_escalations(),
            r.stats.scan_retries(),
            r.stats.scan_escalations(),
            r.stats.scan_leaves_validated(),
            r.pool.hit_rate(),
            r.pool.alloc_total,
            r.pool.recycled,
            r.latency.overall().p50().as_secs_f64() * 1e6,
            r.latency.overall().p95().as_secs_f64() * 1e6,
            r.latency.overall().p99().as_secs_f64() * 1e6,
        );
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Writes `BENCH_<name>.json` at the workspace root (so the perf
/// trajectory is trackable across PRs) and returns the path.
pub fn write_bench_json(bench: &str, records: &[BenchRecord]) -> PathBuf {
    let path = workspace_root().join(format!("BENCH_{bench}.json"));
    fs::write(&path, bench_json(bench, records)).expect("write bench json");
    println!("[json] {}", path.display());
    path
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// `target/figures`, resolved relative to the workspace.
pub fn figures_dir() -> PathBuf {
    // CARGO_TARGET_DIR may relocate the target directory.
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("target")
        })
        .join("figures")
}

/// The figure-14/15 sweep shared by both machine-size harnesses.
pub fn figure_14_15(name: &str, env: &BenchEnv) -> Vec<Cell> {
    let mut all = Vec::new();
    for structure in [Structure::Bst, Structure::AbTree] {
        for heavy in [false, true] {
            let cells = sweep_panel(env, structure, heavy, &Strategy::FIGURE_SERIES);
            print_panel(
                &format!(
                    "{structure} / {} workload (throughput, ops/s)",
                    if heavy { "heavy" } else { "light" }
                ),
                &cells,
                &env.threads,
            );
            all.extend(cells);
        }
    }
    write_csv(name, &all);
    all
}

/// Speedup of `series_a` over `series_b` at the given thread count,
/// averaged over all panels in `cells` (the paper's headline "x-times as
/// many operations" summaries).
pub fn speedup(cells: &[Cell], series_a: &str, series_b: &str, threads: usize) -> f64 {
    let mut ratios = Vec::new();
    for c in cells.iter().filter(|c| c.threads == threads) {
        if c.series == series_a {
            if let Some(b) = cells.iter().find(|d| {
                d.series == series_b
                    && d.threads == threads
                    && d.structure == c.structure
                    && d.workload == c.workload
            }) {
                ratios.push(c.result.throughput / b.result.throughput);
            }
        }
    }
    ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
}

/// Convenience used by harness binaries: a paper workload description for
/// headers.
pub fn describe(env: &BenchEnv) -> String {
    format!(
        "threads={:?} trial={}ms x{} scale={} (BST keys {}, (a,b)-tree keys {})",
        env.threads,
        env.duration.as_millis(),
        env.trials,
        env.scale,
        ((Structure::Bst.paper_key_range() as f64 * env.scale) as u64).max(64),
        ((Structure::AbTree.paper_key_range() as f64 * env.scale) as u64).max(64),
    )
}

