//! Figure 17: the unbalanced BST under a light update workload, comparing
//! the template implementations against Hybrid NOrec (Section 7.3).
//!
//! The paper observes Hybrid NOrec scaling negatively beyond ~6 processes:
//! every updating hardware transaction increments the global NOrec clock,
//! so update transactions conflict on the clock's cache line regardless of
//! the keys they touch; its software fallback additionally pays value-based
//! revalidation of whole read sets.

use threepath_bench::{describe, measure, print_panel, write_csv, BenchEnv, Cell};
use threepath_core::Strategy;
use threepath_hybridnorec::{HnBst, HnConfig};
use threepath_htm::SplitMix64;
use threepath_workload::Structure;

/// Runs the light-update workload against the Hybrid NOrec BST.
fn measure_hybrid(env: &BenchEnv, threads: usize) -> f64 {
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
    use std::sync::{Arc, Barrier};

    let key_range = ((Structure::Bst.paper_key_range() as f64 * env.scale) as u64).max(64);
    let mut tp = 0.0;
    for trial in 0..env.trials {
        let tree = Arc::new(HnBst::with_config(HnConfig::default()));
        // Prefill to half, tracking the key sum for verification.
        let mut prefill_sum: i128 = 0;
        {
            let mut h = tree.handle();
            let mut rng = SplitMix64::new(0xF1EE ^ trial as u64);
            let mut inserted = 0;
            while inserted < key_range / 2 {
                let k = rng.next_below(key_range);
                if h.insert(k, k).is_none() {
                    inserted += 1;
                    prefill_sum += k as i128;
                }
            }
        }
        let stop = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(threads + 1));
        let delta = Arc::new(AtomicI64::new(0));
        let total: u64 = std::thread::scope(|s| {
            let joins: Vec<_> = (0..threads)
                .map(|t| {
                    let tree = tree.clone();
                    let stop = stop.clone();
                    let barrier = barrier.clone();
                    let delta = delta.clone();
                    s.spawn(move || {
                        let mut h = tree.handle();
                        let mut rng = SplitMix64::new(0xAB + t as u64 + trial as u64 * 97);
                        let mut ops = 0u64;
                        let mut local = 0i64;
                        barrier.wait();
                        while !stop.load(Ordering::Relaxed) {
                            let k = rng.next_below(key_range);
                            if rng.next_below(2) == 0 {
                                if h.insert(k, ops).is_none() {
                                    local += k as i64;
                                }
                            } else if h.remove(k).is_some() {
                                local -= k as i64;
                            }
                            ops += 1;
                        }
                        delta.fetch_add(local, Ordering::Relaxed);
                        ops
                    })
                })
                .collect();
            barrier.wait();
            std::thread::sleep(env.duration);
            stop.store(true, Ordering::Release);
            joins.into_iter().map(|j| j.join().unwrap()).sum()
        });
        let sum_after = tree.key_sum_quiescent() as i128;
        let expected: i128 = prefill_sum + delta.load(Ordering::Relaxed) as i128;
        assert_eq!(sum_after, expected, "hybrid NOrec keysum mismatch");
        tp += total as f64 / env.duration.as_secs_f64();
    }
    tp / env.trials as f64
}

fn main() {
    let env = BenchEnv::load();
    println!("Figure 17 reproduction: BST light updates incl. Hybrid NOrec");
    println!("{}", describe(&env));

    let mut cells: Vec<Cell> = Vec::new();
    for strategy in Strategy::FIGURE_SERIES {
        for &t in &env.threads {
            let result = measure(&env, Structure::Bst, strategy, false, t);
            cells.push(Cell {
                structure: Structure::Bst,
                workload: "light",
                series: strategy.to_string(),
                threads: t,
                result,
            });
        }
    }
    // Hybrid NOrec series (throughput only; it is not a template algorithm,
    // so path statistics do not apply).
    for &t in &env.threads {
        let tp = measure_hybrid(&env, t);
        let mut result = cells[0].result.clone();
        result.throughput = tp;
        cells.push(Cell {
            structure: Structure::Bst,
            workload: "light",
            series: "hybrid-norec".into(),
            threads: t,
            result,
        });
    }

    print_panel(
        "BST / light updates incl. Hybrid NOrec (throughput, ops/s)",
        &cells,
        &env.threads,
    );
    write_csv("fig17", &cells);
    println!(
        "\n(paper: Hybrid NOrec competitive to ~6 threads, then scales negatively \
         due to its global-counter hotspot)"
    );
}
