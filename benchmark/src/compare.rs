//! `compare A.json B.json`: the tolerance compare of two result files
//! written by `suite`. Per workload and bounded metric it prints both
//! medians, the relative difference (positive = B is worse) and the bound;
//! a pair is `unresolved` when either side's own spread exceeds the bound,
//! `demoted` when it is on the list of pairs that failed the two-set test
//! ([`spec::DEMOTED`]), and a breach makes the exit code non-zero.

use crate::json::Value;
use crate::run::median;
use crate::spec::{self, Better, Metric};

/// Distance between the first and third quartile as a share of the median
/// (quartiles as Python's `statistics.quantiles(v, n=4)` gives them).
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let i = (pos.floor() as usize).clamp(1, n - 1);
        v[i - 1] + (pos - i as f64) * (v[i] - v[i - 1])
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / m.abs()
    }
}

fn values(file: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    file.get("results")?
        .get(workload)?
        .get(metric)?
        .get("values")?
        .as_arr()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
}

/// One line of the table: what the two sides showed and what it means.
#[derive(Debug)]
pub struct Row {
    /// Each side's median (its mean, for `failed_share`).
    pub a: f64,
    pub b: f64,
    /// How much worse B is, as a share of `a` (for `failed_share`, whose
    /// baseline is 0, the plain difference).
    pub worse: f64,
    /// The bound `worse` is held to, as a share of `a`.
    pub bound: f64,
    pub spread_a: f64,
    pub spread_b: f64,
    pub verdict: &'static str,
}

/// Judges metric `m` of `workload` from both sides' run values. `None`
/// when the metric has no bound or the workload has no such call.
pub fn judge(workload: &str, m: &Metric, va: &[f64], vb: &[f64]) -> Option<Row> {
    let bound = m.bound?;
    if m.name == "failed_share" {
        // No increase, and a median would hide it: one run in three with
        // wrong answers has a median of 0. Any rise in the mean share of
        // failed operations is a breach, whatever the spread.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let (a, b) = (mean(va), mean(vb));
        return Some(Row {
            a,
            b,
            worse: b - a,
            bound,
            spread_a: spread(va),
            spread_b: spread(vb),
            verdict: if b > a { "BREACH" } else { "ok" },
        });
    }
    let (a, b) = (median(va), median(vb));
    if a == 0.0 && b == 0.0 {
        return None;
    }
    let base = if a != 0.0 { a.abs() } else { 1.0 };
    let worse = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    } / base;
    // The issue's floor for set-ups of a millisecond or two: 5 ms.
    let bound = if m.name == "setup_s" {
        bound.max(0.005 / base)
    } else {
        bound
    };
    let (spread_a, spread_b) = (spread(va), spread(vb));
    let verdict = if spec::demoted(workload, m.name) {
        "demoted"
    } else if spread_a.max(spread_b) > bound {
        "unresolved"
    } else if worse > bound {
        "BREACH"
    } else {
        "ok"
    };
    Some(Row {
        a,
        b,
        worse,
        bound,
        spread_a,
        spread_b,
        verdict,
    })
}

/// Prints the table; returns the number of breaches.
pub fn compare(a: &Value, b: &Value) -> usize {
    let mut breaches = 0;
    println!(
        "{:<15} {:<24} {:>13} {:>13} {:>8} {:>6}  {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse%", "bound%", "A iqr%", "B iqr%"
    );
    for w in &spec::WORKLOADS {
        for m in spec::METRICS {
            let (Some(va), Some(vb)) = (values(a, w.name, m.name), values(b, w.name, m.name))
            else {
                continue;
            };
            let Some(r) = judge(w.name, m, &va, &vb) else {
                continue;
            };
            breaches += (r.verdict == "BREACH") as usize;
            println!(
                "{:<15} {:<24} {:>13.4} {:>13.4} {:>+8.2} {:>6.1}  {:>7.2} {:>7.2}  {}",
                w.name,
                m.name,
                r.a,
                r.b,
                r.worse * 100.0,
                r.bound * 100.0,
                r.spread_a * 100.0,
                r.spread_b * 100.0,
                r.verdict
            );
        }
    }
    breaches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert!((spread(&[3.0, 1.0, 2.0]) - 1.0).abs() < 1e-12);
    }

    fn verdict(metric: &str, va: &[f64], vb: &[f64]) -> &'static str {
        let m = spec::metric(metric).unwrap();
        judge("update-heavy", m, va, vb).unwrap().verdict
    }

    #[test]
    fn one_failing_run_in_three_is_a_breach() {
        // Medians are 0 on both sides; the failure must still show.
        assert_eq!(
            verdict("failed_share", &[0.0; 3], &[0.0, 0.0, 1e-6]),
            "BREACH"
        );
        assert_eq!(verdict("failed_share", &[0.0, 1e-6, 0.0], &[0.0; 3]), "ok");
        assert_eq!(verdict("failed_share", &[0.0; 3], &[0.0; 3]), "ok");
    }

    #[test]
    fn a_demoted_pair_is_never_a_breach_and_the_list_names_real_pairs() {
        for &(w, name) in spec::DEMOTED {
            assert!(spec::workload(w).is_some(), "{w}");
            let m = spec::metric(name).unwrap();
            assert!(m.bound.is_some(), "{name} has no bound to be demoted from");
            for (va, vb) in [([1.0; 3], [2.0; 3]), ([2.0; 3], [1.0; 3])] {
                assert_eq!(judge(w, m, &va, &vb).unwrap().verdict, "demoted");
            }
        }
    }

    #[test]
    fn a_workload_is_held_to_the_issues_tenth_and_small_setups_to_5_ms() {
        let steady = |x: f64| [x, x * 1.01, x * 0.99];
        assert_eq!(verdict("ops_per_s", &steady(100.0), &steady(91.0)), "ok");
        assert_eq!(
            verdict("ops_per_s", &steady(100.0), &steady(88.0)),
            "BREACH"
        );
        assert_eq!(
            verdict("ops_per_s", &[100.0, 120.0, 90.0], &steady(80.0)),
            "unresolved"
        );
        assert_eq!(verdict("setup_s", &steady(0.002), &steady(0.006)), "ok");
        assert_eq!(verdict("setup_s", &steady(0.002), &steady(0.008)), "BREACH");
        assert_eq!(verdict("setup_s", &steady(1.0), &steady(1.2)), "BREACH");
    }
}
