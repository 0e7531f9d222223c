//! Quickstart: a lock-free BST accelerated with the 3-path template.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use threepath::bst::Bst;
use threepath::core::{PathKind, Strategy, TemplateConfig};

fn main() {
    // A 3-path tree: HTM fast path, HTM middle path, lock-free fallback.
    let tree = Arc::new(Bst::with_config(TemplateConfig {
        strategy: Strategy::ThreePath,
        ..TemplateConfig::default()
    }));

    // Handles are per-thread; operations go through them.
    let mut h = tree.handle();

    // Point operations.
    assert_eq!(h.insert(10, 100), None);
    assert_eq!(h.insert(20, 200), None);
    assert_eq!(h.insert(10, 111), Some(100)); // update returns the old value
    assert_eq!(h.get(10), Some(111));
    assert_eq!(h.remove(20), Some(200));

    // Range queries: all pairs with keys in [lo, hi).
    for k in 0..50 {
        h.insert(k, k * 2);
    }
    let range = h.range_query(10, 15);
    println!("keys in [10, 15): {range:?}");
    assert_eq!(range.len(), 5);

    // Concurrent use: clone the Arc, one handle per thread.
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let tree = tree.clone();
            s.spawn(move || {
                let mut h = tree.handle();
                for i in 0..10_000 {
                    let k = 1000 + (i * 37 + t * 13) % 2000;
                    if i % 2 == 0 {
                        h.insert(k, i);
                    } else {
                        h.remove(k);
                    }
                }
            });
        }
    });

    // Quiescent inspection: structural validation and contents.
    let shape = tree.validate().expect("tree invariants hold");
    println!(
        "final tree: {} keys, {} internal nodes, max depth {}",
        shape.keys, shape.internal_nodes, shape.depth_max
    );

    // Path statistics show where operations completed: with no contention
    // and working HTM, almost everything stays on the fast path.
    let stats = h.stats();
    println!(
        "this handle: {:.1}% fast, {:.1}% middle, {:.1}% fallback",
        stats.completed_fraction(PathKind::Fast) * 100.0,
        stats.completed_fraction(PathKind::Middle) * 100.0,
        stats.completed_fraction(PathKind::Fallback) * 100.0,
    );
}
