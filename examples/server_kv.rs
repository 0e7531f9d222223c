//! Serving front-end: batched submission, direct-first.
//!
//! The other examples drive trees *directly* — every thread executes its
//! own operations, one transaction each. This one stands a `KvServer` in
//! front of a sharded map: clients compile batches into per-shard groups,
//! each applied as one single-transaction batch plan — by the client
//! itself when the shard is free, otherwise through the shard's queue,
//! where whichever waiting client claims the combiner role coalesces
//! queued groups (and a fallback-lock holder flat-combines more work
//! before releasing).
//!
//! Run with: `cargo run --release --example server_kv`

use std::sync::Arc;

use threepath::core::{BatchOp, Strategy};
use threepath::server::{KvServer, ServerConfig};
use threepath::sharded::{ShardedConfig, ShardedMap};

fn main() {
    // A batched sharded map: `batched: true` enables the trees' batch
    // entry point, which the server requires.
    let map = Arc::new(
        ShardedMap::with_config(ShardedConfig {
            shards: 4,
            key_space: 10_000,
            strategy: Strategy::ThreePath,
            batched: true,
            ..ShardedConfig::default()
        })
        .expect("valid config"),
    );
    let srv = Arc::new(KvServer::new(Arc::clone(&map), ServerConfig::default()).expect("batched map"));

    // Single operations work (each is a one-op plan) — the server is
    // built for batches.
    let mut c = srv.client();
    assert_eq!(c.insert(7, 70), None);
    assert_eq!(c.get(7), Some(70));

    // A mixed batch: replies come back in submission order, and each
    // shard's slice of the batch commits atomically (one group, one
    // plan — never split).
    let replies = c.submit(vec![
        BatchOp::Insert(7, 77),
        BatchOp::Insert(2_500, 25),
        BatchOp::Get(7),
        BatchOp::Remove(9_999),
    ]);
    assert_eq!(replies, vec![Some(70), None, Some(77), None]);

    // Closed-loop clients: every thread is a submitter AND a potential
    // combiner — there are no dedicated executor threads to starve. Each
    // thread hands back its handle's path statistics (stats live on
    // handles, merged across the shards the thread touched).
    let stats = std::thread::scope(|s| {
        let joins: Vec<_> = (0..4u64)
            .map(|t| {
                let srv = Arc::clone(&srv);
                s.spawn(move || {
                    let mut c = srv.client();
                    for i in 0..2_000u64 {
                        let base = (i * 37 + t * 1_009) % 9_000;
                        // An 8-op same-shard-leaning batch: the combiner
                        // coalesces these into few transactions.
                        let ops: Vec<BatchOp> = (0..8)
                            .map(|j| {
                                let k = base + j;
                                if (i + j) % 2 == 0 {
                                    BatchOp::Insert(k, i)
                                } else {
                                    BatchOp::Remove(k)
                                }
                            })
                            .collect();
                        let replies = c.submit(ops);
                        assert_eq!(replies.len(), 8);
                    }
                    c.stats()
                })
            })
            .collect();
        let mut merged = threepath::core::PathStats::new();
        for j in joins {
            merged.merge(&j.join().unwrap());
        }
        merged
    });

    // Cross-shard range queries pipeline per-shard sub-scans through the
    // same queues and stitch the runs back in key order.
    let mut c = srv.client();
    let snapshot = c.range_query(0, 10_000);
    assert!(snapshot.windows(2).all(|w| w[0].0 < w[1].0), "sorted, deduped");

    // The batch lane of the path statistics shows the amortization: how
    // many operations rode how many transactions.
    println!("keys now resident: {}", map.len());
    println!(
        "batches: {} ({} ops in {} transactions, mean batch {:.2}, {} flat-combined)",
        stats.batches(),
        stats.batch_ops(),
        stats.batch_txns(),
        stats.mean_batch_size(),
        stats.combined_ops(),
    );
    map.validate().expect("shard invariants hold");
}
