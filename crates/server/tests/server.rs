//! Integration tests for the serving front-end: a property-based oracle
//! against `BTreeMap`, multi-threaded submitter-vs-combiner stress under
//! spurious-abort storms on both backends, per-batch atomicity, the
//! steady-state transaction-count guarantee for calm batches, and the
//! direct-first lane rule (idle: run direct; busy: enqueue; storm: flat
//! combining retained).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use threepath_core::{BatchOp, PathKind, Strategy as ExecStrategy};
use threepath_htm::HtmConfig;
use threepath_server::{KvServer, ServerConfig, ServerError};
use threepath_sharded::{RouterKind, ShardBackend, ShardedConfig, ShardedMap};

fn server(
    backend: ShardBackend,
    router: RouterKind,
    strategy: ExecStrategy,
    spurious: f64,
    batch_cap: usize,
) -> Arc<KvServer> {
    let map = Arc::new(
        ShardedMap::with_config(ShardedConfig {
            shards: 3,
            backend,
            router,
            strategy,
            key_space: 1 << 16,
            htm: HtmConfig::default().with_spurious(spurious),
            batched: true,
            ..ShardedConfig::default()
        })
        .expect("valid config"),
    );
    Arc::new(
        KvServer::new(
            map,
            ServerConfig {
                batch_cap,
                ..ServerConfig::default()
            },
        )
        .expect("batched map"),
    )
}

#[derive(Debug, Clone)]
enum Req {
    Batch(Vec<BatchOp>),
    Range(u64, u64),
}

fn batch_op(key_range: u64) -> impl Strategy<Value = BatchOp> {
    prop_oneof![
        (0..key_range, any::<u64>()).prop_map(|(k, v)| BatchOp::Insert(k, v)),
        (0..key_range).prop_map(BatchOp::Remove),
        (0..key_range).prop_map(BatchOp::Get),
    ]
}

fn req(key_range: u64) -> impl Strategy<Value = Req> {
    prop_oneof![
        proptest::collection::vec(batch_op(key_range), 1..12).prop_map(Req::Batch),
        (0..key_range, 0..48u64).prop_map(|(lo, len)| Req::Range(lo, lo + len)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Satellite 3: shard-straddling batched submissions match `BTreeMap`
    /// applied in submission order, including under spurious-abort storms
    /// (mid-batch transaction failures escalate; semantics must not
    /// change).
    #[test]
    fn server_matches_btreemap(reqs in proptest::collection::vec(req(96), 1..60),
                               backend in prop_oneof![Just(ShardBackend::Bst),
                                                      Just(ShardBackend::AbTree)],
                               router in prop_oneof![Just(RouterKind::Range),
                                                     Just(RouterKind::Hash)],
                               strategy in prop_oneof![Just(ExecStrategy::Tle),
                                                       Just(ExecStrategy::ThreePath)],
                               spurious in prop_oneof![Just(0.0), Just(0.7)]) {
        let srv = server(backend, router, strategy, spurious, 8);
        let mut c = srv.client();
        let mut oracle = BTreeMap::new();
        for r in &reqs {
            match r {
                Req::Batch(ops) => {
                    let replies = c.submit(ops.clone());
                    for (op, got) in ops.iter().zip(replies) {
                        let want = match *op {
                            BatchOp::Insert(k, v) => oracle.insert(k, v),
                            BatchOp::Remove(k) => oracle.remove(&k),
                            BatchOp::Get(k) => oracle.get(&k).copied(),
                        };
                        prop_assert_eq!(got, want, "mismatch on {}", op);
                    }
                }
                Req::Range(lo, hi) => {
                    let want: Vec<(u64, u64)> =
                        oracle.range(*lo..*hi).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(c.range_query(*lo, *hi), want);
                }
            }
        }
        srv.map().validate().expect("post-run structural validation");
    }
}

/// Satellite 4: submitter threads race for the combiner role under a
/// spurious-abort storm on both backends. The reply-derived key-sum
/// oracle checks that every reply was truthful (an insert that returns
/// `None` really created the key, a remove that returns `Some` really
/// erased it) even with overlapping key sets across threads.
#[test]
#[cfg_attr(miri, ignore)]
fn submitters_race_combiner_under_abort_storm() {
    for backend in [ShardBackend::Bst, ShardBackend::AbTree] {
        for strategy in [ExecStrategy::Tle, ExecStrategy::ThreePath] {
            let srv = server(backend, RouterKind::Range, strategy, 0.6, 8);
            let threads = 3;
            let batches = 40;
            let deltas: Vec<i128> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        let srv = Arc::clone(&srv);
                        s.spawn(move || {
                            let mut c = srv.client();
                            let mut delta = 0i128;
                            let mut seed = 0x9e3779b97f4a7c15u64 ^ (t as u64) << 32;
                            let mut rng = move || {
                                seed ^= seed << 13;
                                seed ^= seed >> 7;
                                seed ^= seed << 17;
                                seed
                            };
                            for _ in 0..batches {
                                let ops: Vec<BatchOp> = (0..8)
                                    .map(|_| {
                                        let k = rng() % 256;
                                        if rng() % 3 == 0 {
                                            BatchOp::Remove(k)
                                        } else {
                                            BatchOp::Insert(k, rng())
                                        }
                                    })
                                    .collect();
                                for (op, got) in ops.iter().zip(c.submit(ops.clone())) {
                                    match (op, got) {
                                        (BatchOp::Insert(k, _), None) => delta += *k as i128,
                                        (BatchOp::Remove(k), Some(_)) => delta -= *k as i128,
                                        _ => {}
                                    }
                                }
                            }
                            delta
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let expected: i128 = deltas.iter().sum();
            assert_eq!(
                srv.map().key_sum() as i128,
                expected,
                "key-sum oracle ({backend:?}, {strategy:?})"
            );
            srv.map().validate().expect("structural validation");
        }
    }
}

/// Satellite 4 (atomicity half): a submission's same-shard group is never
/// split across plans, so a writer's whole-round update and a reader's
/// whole-set lookup each execute atomically — every reader batch must
/// observe a uniform round tag across the key set, and rounds must be
/// monotone per reader.
#[test]
#[cfg_attr(miri, ignore)]
fn reader_batches_observe_writer_batches_atomically() {
    const KEYS: [u64; 8] = [3, 5, 7, 11, 13, 17, 19, 23];
    for backend in [ShardBackend::Bst, ShardBackend::AbTree] {
        let map = Arc::new(
            ShardedMap::with_config(ShardedConfig {
                shards: 1,
                backend,
                strategy: ExecStrategy::Tle,
                key_space: 64,
                htm: HtmConfig::default().with_spurious(0.5),
                batched: true,
                ..ShardedConfig::default()
            })
            .expect("valid config"),
        );
        let srv = Arc::new(KvServer::new(map, ServerConfig::default()).expect("batched map"));
        // Seed round 0 so readers always find every key present.
        let mut c = srv.client();
        c.submit(KEYS.iter().map(|&k| BatchOp::Insert(k, 0)).collect());
        let rounds = 60u64;
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let writer = {
                let srv = Arc::clone(&srv);
                let stop = &stop;
                s.spawn(move || {
                    let mut c = srv.client();
                    for r in 1..=rounds {
                        c.submit(KEYS.iter().map(|&k| BatchOp::Insert(k, r)).collect());
                    }
                    stop.store(true, Ordering::Release);
                })
            };
            for _ in 0..2 {
                let srv = Arc::clone(&srv);
                let stop = &stop;
                s.spawn(move || {
                    let mut last = 0u64;
                    let mut c = srv.client();
                    while !stop.load(Ordering::Acquire) {
                        let seen = c.submit(KEYS.iter().map(|&k| BatchOp::Get(k)).collect());
                        let r = seen[0].expect("seeded key present");
                        assert!(
                            seen.iter().all(|v| *v == Some(r)),
                            "torn read: {seen:?} ({backend:?})"
                        );
                        assert!(r >= last, "round went backwards ({backend:?})");
                        assert!(r <= rounds);
                        last = r;
                    }
                });
            }
            writer.join().unwrap();
        });
        srv.map().validate().expect("structural validation");
    }
}

/// Acceptance criterion: on a calm machine a batch of `K` same-shard
/// updates commits in at most `ceil(K / batch_cap)` transactions — here
/// four submissions of 8 take exactly four fast-path transactions, and a
/// single oversized 32-op group rides one plan (groups never split).
#[test]
fn calm_same_shard_updates_commit_in_k_over_cap_transactions() {
    let make = || {
        let map = Arc::new(
            ShardedMap::with_config(ShardedConfig {
                shards: 1,
                strategy: ExecStrategy::ThreePath,
                key_space: 1 << 12,
                htm: HtmConfig::reliable(),
                batched: true,
                ..ShardedConfig::default()
            })
            .expect("valid config"),
        );
        KvServer::new(
            map,
            ServerConfig {
                batch_cap: 8,
                ..ServerConfig::default()
            },
        )
        .map(Arc::new)
        .expect("batched map")
    };

    // K = 32 updates submitted as four cap-sized batches.
    let srv = make();
    let mut c = srv.client();
    for b in 0..4u64 {
        let ops = (0..8u64).map(|i| BatchOp::Insert(b * 8 + i, i)).collect();
        assert_eq!(c.submit(ops), vec![None; 8]);
    }
    let stats = c.stats();
    assert_eq!(stats.batch_ops(), 32);
    assert!(
        stats.batch_txns() <= 4,
        "32 calm same-shard updates took {} transactions (cap 8 allows 4)",
        stats.batch_txns()
    );
    assert_eq!(stats.completed(PathKind::Fast), 32, "calm plans stay on the fast path");
    assert_eq!(srv.map().len(), 32);

    // The same K as one submission: a single group, a single transaction.
    let srv = make();
    let mut c = srv.client();
    let ops = (0..32u64).map(|i| BatchOp::Insert(i, i)).collect();
    assert_eq!(c.submit(ops), vec![None; 32]);
    let stats = c.stats();
    assert_eq!(stats.batch_txns(), 1, "an unsplit group commits in one transaction");
    assert_eq!(stats.batch_ops(), 32);
    assert_eq!(srv.map().len(), 32);
}

/// The lane rule. On an idle server a group of any size runs directly:
/// the submission records one bypass — which the client does exactly
/// when it compiled no queue entry — and the queues stay empty. A shard
/// made busy (here: its combiner claim held by the test hook) turns the
/// next group into a waiter: it enqueues and completes once the claim is
/// released.
#[test]
fn idle_groups_run_direct_busy_groups_enqueue() {
    let srv = server(
        ShardBackend::Bst,
        RouterKind::Range,
        ExecStrategy::ThreePath,
        0.0,
        8,
    );
    let shards = srv.map().shard_count();
    let mut c = srv.client();
    assert_eq!(c.insert(7, 70), None);
    assert_eq!(c.get(7), Some(70));
    assert_eq!(c.submit(vec![BatchOp::Remove(7)]), vec![Some(70)]);
    // Two ops on one shard, then twelve straddling all three shards.
    assert_eq!(c.submit(vec![BatchOp::Insert(1, 1), BatchOp::Insert(2, 2)]), vec![None; 2]);
    let wide: Vec<BatchOp> = (0..12u64).map(|i| BatchOp::Insert(i << 13, i)).collect();
    assert!(wide.iter().map(|op| srv.map().shard_of(op.key())).any(|s| s == shards - 1));
    assert_eq!(c.submit(wide), vec![None; 12]);
    let stats = c.stats();
    assert_eq!(stats.batch_bypasses(), 5, "one bypass per submission, whatever its size");
    assert!((0..shards).all(|s| srv.queue_is_empty_for_test(s)));
    assert_eq!(stats.batch_ops(), 17, "direct groups still land on the batch lane");
    assert_eq!(stats.batches(), 7, "one plan per group: 1+1+1+1+3");

    // With the combiner claim held by someone else the shard is busy:
    // the group enqueues and completes once the claim is released (here:
    // the submitter itself then combines).
    let shard = srv.map().shard_of(42);
    assert!(srv.queue_try_claim_for_test(shard));
    std::thread::scope(|s| {
        let t = {
            let srv = Arc::clone(&srv);
            s.spawn(move || {
                let mut c2 = srv.client();
                let r = c2.submit(vec![BatchOp::Insert(42, 420), BatchOp::Insert(43, 430)]);
                (r, c2.stats().batch_bypasses())
            })
        };
        // Release only once the submitter has visibly enqueued — at that
        // point it has already declined the direct lane, so the
        // assertions below are deterministic.
        while srv.queue_is_empty_for_test(shard) {
            std::thread::yield_now();
        }
        srv.queue_release_for_test(shard);
        let (r, bypasses) = t.join().unwrap();
        assert_eq!(r, vec![None; 2]);
        assert_eq!(bypasses, 0, "a busy shard must disable the direct lane");
    });
    assert!(srv.queue_is_empty_for_test(shard), "the waiter drained its own entry");
    assert_eq!(srv.map().len(), 16);
}

/// The concurrency the combiner claim used to forbid: two clients'
/// calm multi-op groups on ONE shard all run directly — every submission
/// a bypass, nothing enqueued, every operation a fast-path completion.
/// (Each client works its own half of a pre-built tree, so no group can
/// lose ten transaction attempts in a row to the other's writes.)
#[test]
#[cfg_attr(miri, ignore)]
fn calm_groups_of_two_clients_share_a_shard_without_queueing() {
    let map = Arc::new(
        ShardedMap::with_config(ShardedConfig {
            shards: 1,
            strategy: ExecStrategy::ThreePath,
            key_space: 1 << 12,
            htm: HtmConfig::reliable(),
            batched: true,
            ..ShardedConfig::default()
        })
        .expect("valid config"),
    );
    let srv = Arc::new(KvServer::new(map, ServerConfig::default()).expect("batched map"));
    let mut h = srv.map().handle();
    // Insert in bit-reversed order so the external BST comes out balanced.
    for i in 0..1024u64 {
        let k = i.reverse_bits() >> (64 - 10);
        h.insert(k * 4, 0);
    }
    drop(h);
    let submissions = 300u64;
    let (bypasses, fast): (u64, u64) = std::thread::scope(|s| {
        let joins: Vec<_> = (0..2u64)
            .map(|t| {
                let srv = Arc::clone(&srv);
                s.spawn(move || {
                    let mut c = srv.client();
                    for r in 0..submissions {
                        let base = t * 2048 + (r % 60) * 32;
                        let ops = (0..8u64).map(|i| BatchOp::Insert(base + i * 4, r)).collect();
                        assert_eq!(c.submit(ops).len(), 8);
                    }
                    let st = c.stats();
                    (st.batch_bypasses(), st.completed(PathKind::Fast))
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().unwrap())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    });
    assert_eq!(bypasses, 2 * submissions, "every submission ran direct, none enqueued");
    assert_eq!(fast, 2 * submissions * 8, "every op completed on the fast path");
    assert_eq!(srv.map().len(), 1024);
    srv.map().validate().expect("structural validation");
}

/// Flat combining is retained where it pays: under an 85%-spurious storm
/// groups escalate to the fallback lock, later groups find the shard busy
/// and enqueue, and the lock holders' hooks apply them in their own
/// serialized sections.
#[test]
#[cfg_attr(miri, ignore)]
fn storm_groups_still_ride_the_lock_holders_section() {
    let map = Arc::new(
        ShardedMap::with_config(ShardedConfig {
            shards: 1,
            strategy: ExecStrategy::ThreePath,
            key_space: 1 << 10,
            htm: HtmConfig::default().with_spurious(0.85),
            batched: true,
            ..ShardedConfig::default()
        })
        .expect("valid config"),
    );
    let srv = Arc::new(KvServer::new(map, ServerConfig::default()).expect("batched map"));
    let stop = AtomicBool::new(false);
    let (combined, on_lane, submitted, delta): (u64, u64, u64, i128) = std::thread::scope(|s| {
        let joins: Vec<_> = (0..3u64)
            .map(|t| {
                let srv = Arc::clone(&srv);
                let stop = &stop;
                s.spawn(move || {
                    let mut c = srv.client();
                    let mut delta = 0i128;
                    let mut r = t;
                    // At least 400 submissions each; then until some
                    // client has seen its work combined (bounded).
                    while r < 3 * 400 || (!stop.load(Ordering::Relaxed) && r < 3 * 40_000) {
                        let ops: Vec<BatchOp> = (0..8u64)
                            .map(|i| {
                                let k = (r * 8 + i) * 7 % 1024;
                                if (r + i) % 3 == 0 {
                                    BatchOp::Remove(k)
                                } else {
                                    BatchOp::Insert(k, r)
                                }
                            })
                            .collect();
                        for (op, got) in ops.iter().zip(c.submit(ops.clone())) {
                            match (op, got) {
                                (BatchOp::Insert(k, _), None) => delta += *k as i128,
                                (BatchOp::Remove(k), Some(_)) => delta -= *k as i128,
                                _ => {}
                            }
                        }
                        if c.stats().combined_ops() > 0 {
                            stop.store(true, Ordering::Relaxed);
                        }
                        r += 3;
                    }
                    let st = c.stats();
                    // Submissions r = t, t + 3, … below the final r.
                    (st.combined_ops(), st.batch_ops(), (r - t) / 3 * 8, delta)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().unwrap())
            .fold((0, 0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3))
    });
    assert!(combined > 0, "no queued group ever rode a lock holder's section");
    assert_eq!(on_lane, submitted, "every operation, own plan or combined, is on the batch lane");
    assert_eq!(srv.map().key_sum() as i128, delta, "key-sum oracle");
    srv.map().validate().expect("structural validation");
}

/// Construction rejects maps without the batch entry point and degenerate
/// tuning with typed errors.
#[test]
fn construction_errors_are_typed() {
    let unbatched = Arc::new(
        ShardedMap::with_config(ShardedConfig {
            shards: 2,
            key_space: 64,
            ..ShardedConfig::default()
        })
        .expect("valid config"),
    );
    assert_eq!(
        KvServer::new(Arc::clone(&unbatched), ServerConfig::default()).unwrap_err(),
        ServerError::NotBatched
    );

    let batched = Arc::new(
        ShardedMap::with_config(ShardedConfig {
            shards: 2,
            key_space: 64,
            strategy: ExecStrategy::Tle,
            batched: true,
            ..ShardedConfig::default()
        })
        .expect("valid config"),
    );
    assert_eq!(
        KvServer::new(
            batched,
            ServerConfig {
                batch_cap: 0,
                ..ServerConfig::default()
            }
        )
        .unwrap_err(),
        ServerError::ZeroBatchCap
    );
}
