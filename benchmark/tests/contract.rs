//! The benchmark's contract with its driver and with later issues: what
//! `BENCHMARK.json` says is what the binary prints.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use threepath_benchmark::gen;
use threepath_benchmark::json::{self, Value};
use threepath_benchmark::spec::{self, WORKLOADS};

const BIN: &str = env!("CARGO_BIN_EXE_threepath-benchmark");

fn stdout_lines(args: &[&str]) -> Vec<Value> {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{args:?} exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect()
}

fn manifest_file() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<&str> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("a name"))
        .collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_is_the_metric_table_and_within_the_contracts_limits() {
    let file = manifest_file();
    assert_eq!(
        file,
        spec::manifest(),
        "BENCHMARK.json and src/spec.rs must say the same"
    );
    assert_eq!(
        keys(&file),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command = file.get("command").and_then(Value::as_arr).unwrap();
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|c| c.as_str().is_some_and(|s| s.len() <= 200))
    );
    let seconds = file.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let workloads = file.get("workloads").unwrap();
    assert!((2..=8).contains(&names(workloads).len()));
    for w in workloads.as_arr().unwrap() {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(
            why.chars().count() <= 200 && !why.contains('\n'),
            "why of {:?} is {} chars",
            w.get("name"),
            why.chars().count()
        );
    }

    let e2e = file.get("end_to_end").unwrap();
    let layers = file.get("per_layer").unwrap();
    assert!((1..=16).contains(&names(e2e).len()));
    assert!((1..=128).contains(&names(layers).len()));
    for m in e2e.as_arr().unwrap() {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    for m in layers.as_arr().unwrap() {
        assert_eq!(keys(m), ["name", "unit", "better"]);
    }
    let mut seen = BTreeSet::new();
    for list in [workloads, e2e, layers] {
        for n in names(list) {
            assert!(is_name(n), "bad name {n:?}");
            assert!(seen.insert(n), "name {n:?} is used twice");
        }
    }
    for m in e2e.as_arr().unwrap().iter().chain(layers.as_arr().unwrap()) {
        assert!(is_unit(m.get("unit").and_then(Value::as_str).unwrap()));
        assert!(matches!(
            m.get("better").and_then(Value::as_str),
            Some("lower" | "higher")
        ));
    }
    let setup = e2e
        .as_arr()
        .unwrap()
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
}

#[test]
fn smoke_runs_every_workload_correct_and_prints_every_named_metric_with_its_unit() {
    let lines = stdout_lines(&["--smoke"]);
    let ran: Vec<&str> = lines
        .iter()
        .map(|l| l.get("workload").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(ran, WORKLOADS.map(|w| w.name));
    let file = manifest_file();
    for line in &lines {
        let name = line.get("workload").and_then(Value::as_str).unwrap();
        assert_eq!(
            line.get("correct").and_then(Value::as_bool),
            Some(true),
            "{name}"
        );
        assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        let metrics = line.get("metrics").unwrap();
        for list in ["end_to_end", "per_layer"] {
            for m in file.get(list).and_then(Value::as_arr).unwrap() {
                let metric = m.get("name").and_then(Value::as_str).unwrap();
                let printed = metrics
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name} does not print {metric}"));
                assert_eq!(printed.get("unit"), m.get("unit"), "{name} {metric}");
                assert!(printed
                    .get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite));
            }
        }
        // Nothing is printed that the table does not name.
        for (k, _) in metrics.as_obj().unwrap() {
            assert!(
                spec::metric(k).is_some(),
                "{name} prints unnamed metric {k}"
            );
        }
        // The seed is the whole input: the library regenerates the stream
        // the run reported.
        let w = spec::workload(name).unwrap();
        let hash = metrics
            .get("bench.stream_hash")
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap();
        assert_eq!(hash, gen::inputs(w, 1).hash as f64, "{name}");
        // End-to-end metrics are never 0 (a spread over a zero median is
        // undefined).
        for m in file.get("end_to_end").and_then(Value::as_arr).unwrap() {
            let metric = m.get("name").and_then(Value::as_str).unwrap();
            assert!(
                metrics
                    .get(metric)
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .unwrap()
                    > 0.0,
                "{name} {metric}"
            );
        }
    }
}

#[test]
fn stream_hash_repeats_for_a_seed_and_differs_across_seeds() {
    for w in &WORKLOADS {
        let (a, b, c) = (gen::inputs(w, 1), gen::inputs(w, 1), gen::inputs(w, 2));
        assert_eq!(a.hash, b.hash, "{}", w.name);
        assert_ne!(a.hash, c.hash, "{}", w.name);
        assert!(a.hash < 1 << 52);
    }
    // The two server workloads run the same stream.
    let hash = |n| gen::inputs(spec::workload(n).unwrap(), 1).hash;
    assert_eq!(hash("server-batch"), hash("server-durable"));
}

#[test]
fn a_driver_run_ends_with_exactly_the_contracts_result_line() {
    let file = manifest_file();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let lines = stdout_lines(&[
            "--workload",
            "server-durable",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        let last = lines.last().expect("a result line");
        assert_eq!(keys(last), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(
            keys(last.get("metrics").unwrap()),
            names(file.get(list).unwrap()),
            "--trace {trace}"
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "x", "--workload", "heavy-rq"],
        &["compare", "only-one.json"],
        &["suite", "--trace-runs", "2", "--out", "x.json"],
    ] {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
    }
}
