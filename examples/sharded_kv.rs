//! A sharded key-value map with pluggable routing: N independent
//! three-path trees, each with its own HTM runtime and reclamation
//! domain.
//!
//! Demonstrates:
//! * range vs hash routing under *clustered* Zipf skew (hot keys packed
//!   into one shard's range) — the load-balance view (`shard_sizes`) and
//!   throughput show why the router is a policy worth choosing;
//! * cross-shard range queries — an ordered concatenation under the
//!   range router, a sort-merge under the hash router.
//!
//! Run with: `cargo run --release --example sharded_kv`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use threepath::core::PathKind;
use threepath::htm::SplitMix64;
use threepath::sharded::{RouterKind, ShardBackend, ShardedConfig, ShardedMap};
use threepath::workload::KeyDist;

const KEY_SPACE: u64 = 1 << 16;
const WRITERS: u64 = 4;
const OPS_PER_WRITER: u64 = 40_000;
const SHARDS: usize = 8;

fn run(router: RouterKind) -> (f64, Arc<ShardedMap>) {
    let map = Arc::new(
        ShardedMap::with_config(ShardedConfig {
            shards: SHARDS,
            backend: ShardBackend::AbTree,
            key_space: KEY_SPACE,
            router,
            ..ShardedConfig::default()
        })
        .expect("valid config"),
    );
    // Clustered Zipf: the hot ranks ARE the low keys, so under range
    // partitioning nearly all traffic lands in shard 0.
    let skew = KeyDist::Zipf { theta: 0.9 }.sampler(KEY_SPACE);
    let fast_ops = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let map = map.clone();
            let fast_ops = fast_ops.clone();
            let skew = &skew;
            s.spawn(move || {
                let mut h = map.handle();
                let mut rng = SplitMix64::new(0xC0FFEE + t);
                for i in 0..OPS_PER_WRITER {
                    let k = skew.sample(&mut rng);
                    if rng.next_below(2) == 0 {
                        h.insert(k, i);
                    } else {
                        h.remove(k);
                    }
                }
                // Merged across every shard this thread touched.
                fast_ops.fetch_add(h.stats().completed(PathKind::Fast), Ordering::Relaxed);
            });
        }
    });
    let elapsed = start.elapsed();
    let throughput = (WRITERS * OPS_PER_WRITER) as f64 / elapsed.as_secs_f64();
    let sizes = map.shard_sizes();
    println!(
        "{router:>5} router: {throughput:>12.0} ops/s  (fast-path ops: {}, max/min shard: {}/{})",
        fast_ops.load(Ordering::Relaxed),
        sizes.iter().max().unwrap(),
        sizes.iter().min().unwrap(),
    );
    (throughput, map)
}

fn main() {
    println!(
        "clustered-zipf 50/50 insert/remove, {WRITERS} writers, {SHARDS} shards, key space {KEY_SPACE}"
    );
    let (range, _) = run(RouterKind::Range);
    let (hash, map) = run(RouterKind::Hash);
    println!("hash vs range under clustered skew: {:.2}x", hash / range);

    // Cross-shard range query: a sort-merge of per-shard snapshots under
    // the hash router (the range router would concatenate in order).
    let mut h = map.handle();
    let mid = KEY_SPACE / 2;
    let window = h.range_query(mid - 512, mid + 512);
    assert!(window.windows(2).all(|w| w[0].0 < w[1].0), "merge is ordered");
    println!(
        "range [{}, {}): {} keys sort-merged from {} shards",
        mid - 512,
        mid + 512,
        window.len(),
        map.shard_count(),
    );
    map.validate().expect("every shard structurally valid");
    println!("final: {} keys, key_sum {}", map.len(), map.key_sum());
}
