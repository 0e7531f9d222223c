//! Command line of the benchmark.
//!
//! ```text
//! threepath-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--metrics all]
//! threepath-benchmark --smoke [--seed N]
//! threepath-benchmark suite [--runs N] [--seed N] [--seconds S] --out FILE
//! threepath-benchmark compare A.json B.json
//! ```
//!
//! The first form is the driver's: one run of one workload, and as the last
//! line of standard output one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end set with `--trace 0`, the
//! per-layer set with `--trace 1`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use threepath_benchmark::json::{self, obj, Value};
use threepath_benchmark::run::{run, RunOpts, RunResult};
use threepath_benchmark::spec::{self, Workload, RUN_SECONDS, WORKLOADS};
use threepath_benchmark::{compare, host};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n  --smoke [--seed N]\n  \
         suite [--runs N] [--seed N] [--seconds S] --out FILE\n  compare A.json B.json\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

/// `--name value` options after the subcommand; `None` on a stray word, an
/// unknown name, a missing value or a repeated name.
fn options(args: &[String]) -> Option<BTreeMap<&str, &str>> {
    const NAMES: [&str; 8] = [
        "workload", "seed", "seconds", "trace", "metrics", "smoke", "runs", "out",
    ];
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(name) = it.next() {
        let name = name.strip_prefix("--")?;
        if !NAMES.contains(&name) {
            return None;
        }
        if name == "smoke" {
            out.insert(name, "1");
        } else if out.insert(name, it.next()?).is_some() {
            return None;
        }
    }
    Some(out)
}

/// The metrics of `r` as `{name: {value, unit}}`: the driver's end-to-end
/// set (`Some(true)`), its per-layer set (`Some(false)`), or every metric
/// the run produced (`None`).
fn metrics_json(r: &RunResult, end_to_end: Option<bool>) -> Value {
    obj(spec::METRICS
        .iter()
        .filter(|m| match end_to_end {
            Some(e) => m.driver_bound.is_some() == e,
            None => r.metrics.contains_key(m.name),
        })
        .map(|m| {
            let v = *r
                .metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} was not produced", m.name));
            (m.name, obj([("value", v.into()), ("unit", m.unit.into())]))
        }))
}

fn result_json(r: &RunResult, end_to_end: Option<bool>) -> Vec<(&'static str, Value)> {
    vec![
        ("correct", r.correct.into()),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", metrics_json(r, end_to_end)),
    ]
}

fn exit(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run; `all` prints every metric the run produced (what `suite`
/// collects) instead of the driver's set for `--trace`.
fn one(w: &Workload, opts: &RunOpts, all: bool) -> ExitCode {
    let r = run(w, opts);
    let end_to_end = (!all).then_some(!opts.trace);
    println!("{}", obj(result_json(&r, end_to_end)));
    exit(r.correct)
}

/// Every workload for at most a second with tracing on; one JSON line each.
fn smoke(seed: u64) -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        let r = run(
            w,
            &RunOpts {
                seed,
                seconds: 1.0,
                trace: true,
            },
        );
        ok &= r.correct;
        let mut line = vec![("workload", Value::from(w.name))];
        line.extend(result_json(&r, None));
        println!("{}", obj(line));
    }
    exit(ok)
}

/// One run in a process of its own, as the driver makes them (peak memory
/// is a process's, and must not carry over from the run before); returns
/// the result line with every metric the run produced.
fn run_apart(w: &Workload, opts: &RunOpts) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name, "--metrics", "all"])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().unwrap_or(""))
}

/// `runs` untraced runs and one traced run of every workload, all on one
/// seed, written as `{nproc, results: {workload: {metric: {unit,
/// values}}}}` for `compare`.
fn suite(runs: usize, seed: u64, seconds: f64, out: &str) -> ExitCode {
    let mut ok = true;
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let mut series: BTreeMap<&'static str, Vec<Value>> = BTreeMap::new();
        for i in 0..=runs {
            let trace = i == runs;
            let opts = RunOpts {
                seed,
                seconds,
                trace,
            };
            let r = match run_apart(w, &opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{} run {i} gave no result: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            };
            let correct = r.get("correct").and_then(Value::as_bool) == Some(true);
            ok &= correct;
            eprintln!("{} run {i} trace={} correct={correct}", w.name, trace as u8);
            for m in spec::METRICS {
                // Gated metrics come from untraced runs (full-length
                // windows), diagnostics from the traced one.
                let value = r
                    .get("metrics")
                    .and_then(|all| all.get(m.name)?.get("value"));
                if let (true, Some(v)) = (m.gated() != trace, value) {
                    series.entry(m.name).or_default().push(v.clone());
                }
            }
        }
        let metrics = spec::METRICS.iter().filter_map(|m| {
            let values = Value::Arr(series.remove(m.name)?);
            Some((m.name, obj([("unit", m.unit.into()), ("values", values)])))
        });
        results.push((w.name, obj(metrics)));
    }
    let file = obj([
        ("nproc", Value::Num(host::nproc() as f64)),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("results", obj(results)),
    ]);
    if let Err(e) = std::fs::write(out, format!("{file}\n")) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    exit(ok)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s) if !s.starts_with("--") => (s, &args[1..]),
        _ => ("", &args[..]),
    };
    match sub {
        "compare" => {
            let [a, b] = rest else { return usage() };
            return match (load(a), load(b)) {
                (Ok(a), Ok(b)) => {
                    let breaches = compare::compare(&a, &b);
                    println!("{breaches} breach(es)");
                    exit(breaches == 0)
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{e}");
                    ExitCode::from(2)
                }
            };
        }
        "" | "suite" => {}
        _ => return usage(),
    }
    let Some(opt) = options(rest) else {
        return usage();
    };
    let num = |name: &str, default: f64| -> Option<f64> {
        opt.get(name).map_or(Some(default), |v| {
            v.parse().ok().filter(|x: &f64| x.is_finite() && *x >= 0.0)
        })
    };
    let (Some(seed), Some(seconds), Some(trace), Some(runs)) = (
        num("seed", 1.0),
        num("seconds", RUN_SECONDS as f64),
        num("trace", 0.0),
        num("runs", 3.0),
    ) else {
        return usage();
    };
    if seconds <= 0.0 || seconds > 120.0 || trace > 1.0 {
        return usage();
    }
    let seed = seed as u64;
    if sub == "suite" {
        return match opt.get("out") {
            Some(out) => suite(runs as usize, seed, seconds, out),
            None => usage(),
        };
    }
    if opt.contains_key("smoke") {
        return smoke(seed);
    }
    match opt.get("workload").and_then(|n| spec::workload(n)) {
        Some(w) => one(
            w,
            &RunOpts {
                seed,
                seconds,
                trace: trace == 1.0,
            },
            opt.get("metrics") == Some(&"all"),
        ),
        None => usage(),
    }
}
