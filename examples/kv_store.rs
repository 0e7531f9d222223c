//! A miniature ordered key-value index on the relaxed (a,b)-tree — the
//! kind of library data structure the paper's introduction motivates
//! (B-tree-like nodes, point lookups, range scans, concurrent writers).
//!
//! Run with: `cargo run --release --example kv_store`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use threepath::abtree::AbTree;
use threepath::core::{PathKind, Strategy, TemplateConfig};
use threepath::htm::SplitMix64;

const KEYSPACE: u64 = 100_000;

fn main() {
    let index = Arc::new(AbTree::with_config(TemplateConfig {
        strategy: Strategy::ThreePath,
        ..TemplateConfig::default()
    }));

    // Bulk load half the keyspace ("warm" index).
    let t0 = Instant::now();
    {
        let mut h = index.handle();
        let mut rng = SplitMix64::new(42);
        let mut loaded = 0;
        while loaded < KEYSPACE / 2 {
            if h.insert(rng.next_below(KEYSPACE), loaded).is_none() {
                loaded += 1;
            }
        }
    }
    println!(
        "bulk-loaded {} records in {:?}",
        KEYSPACE / 2,
        t0.elapsed()
    );

    // Mixed OLTP-ish phase: 3 writer threads + 1 scanner thread.
    let writes = Arc::new(AtomicU64::new(0));
    let scans = Arc::new(AtomicU64::new(0));
    let scanned_rows = Arc::new(AtomicU64::new(0));
    let t1 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let index = index.clone();
            let writes = writes.clone();
            s.spawn(move || {
                let mut h = index.handle();
                let mut rng = SplitMix64::new(100 + t);
                for i in 0..30_000 {
                    let k = rng.next_below(KEYSPACE);
                    if rng.next_below(2) == 0 {
                        h.insert(k, i);
                    } else {
                        h.remove(k);
                    }
                }
                writes.fetch_add(30_000, Ordering::Relaxed);
            });
        }
        {
            let index = index.clone();
            let scans = scans.clone();
            let scanned_rows = scanned_rows.clone();
            s.spawn(move || {
                let mut h = index.handle();
                let mut rng = SplitMix64::new(7);
                for _ in 0..300 {
                    let lo = rng.next_below(KEYSPACE);
                    // The paper's biased scan-length distribution: mostly
                    // short scans, occasionally very long ones.
                    let x = rng.next_f64();
                    let len = (x * x * 10_000.0) as u64 + 1;
                    let rows = h.range_query(lo, lo + len);
                    scanned_rows.fetch_add(rows.len() as u64, Ordering::Relaxed);
                    scans.fetch_add(1, Ordering::Relaxed);
                }
                let st = h.stats();
                println!(
                    "scanner paths: {:.1}% fast / {:.1}% middle / {:.1}% fallback \
                     (long scans overflow HTM capacity and fall back)",
                    st.completed_fraction(PathKind::Fast) * 100.0,
                    st.completed_fraction(PathKind::Middle) * 100.0,
                    st.completed_fraction(PathKind::Fallback) * 100.0,
                );
            });
        }
    });
    let dt = t1.elapsed();
    println!(
        "mixed phase: {} writes + {} scans ({} rows) in {:?} ({:.0} writes/s)",
        writes.load(Ordering::Relaxed),
        scans.load(Ordering::Relaxed),
        scanned_rows.load(Ordering::Relaxed),
        dt,
        writes.load(Ordering::Relaxed) as f64 / dt.as_secs_f64(),
    );

    let shape = index.validate().expect("index invariants hold");
    println!(
        "index: {} records, {} leaves (b = {}), depth {} — balanced: {} tags, {} underfull",
        shape.keys,
        shape.leaves,
        threepath::abtree::B,
        shape.depth_max,
        shape.tagged,
        shape.underfull
    );
}
