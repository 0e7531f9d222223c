//! Serving front-end for the sharded three-path trees.
//!
//! The tree layers expose a *direct* execution model: every client thread
//! runs its own operations, each in its own transaction. This crate adds
//! the serving front on top of [`threepath_sharded::ShardedMap`]: a
//! client submits a *batch*, the batch is compiled into one *group* per
//! shard, and each group is applied atomically — one plan, one fast-path
//! transaction or one serialized section.
//!
//! * **Direct first** — a group whose shard is *free* (nobody queued, no
//!   combiner at work, no serialized section in progress) runs right in
//!   the submitting thread through the trees' batch entry point
//!   (`run_batch`), concurrently with other clients' groups on the same
//!   shard; the HTM arbitrates. Calm hardware transactions never wait
//!   on a software flag — the point of the three-path design.
//! * **The queue is the waiting room of a busy shard** — only a group
//!   that finds its shard busy enqueues on the shard's submission queue
//!   and drives: whichever waiting client claims the shard's combiner
//!   role drains up to [`ServerConfig::batch_cap`] queued operations
//!   into one [`BatchOp`](threepath_core::BatchOp) plan (whole groups,
//!   never split) and commits it in a single transaction — `K` queued
//!   updates cost `ceil(K / batch_cap)` transactions instead of `K`.
//!   Replies come back through per-request completion slots (closed
//!   loop: a client blocks until its own requests are done).
//! * **Flat combining on the fallback lock** — when any plan, direct or
//!   queued, escalates to the serialized section, its executor keeps
//!   draining the queue for up to [`ServerConfig::combine_rounds`] more
//!   plans *while still holding the shard's fallback lock* (the trees'
//!   `run_batch_with` hook). The held lock is exactly what made the
//!   waiters find the shard busy, so their work rides the acquisition
//!   that already happened — the flat-combining discipline of Hendler et
//!   al. applied to the three-path fallback: only a waiter for a held
//!   lock hands its work to the holder.
//! * **Persistent maps stay queue-first** — a WAL-backed shard
//!   serializes updaters on its log mutex anyway, and groups that queue
//!   together are coalesced into one plan, hence one log record; running
//!   them directly only forfeits that (measured, see the README), so on
//!   a persistent map every group takes the queue.
//! * **Pipelined range queries** — a cross-shard range query splits into
//!   per-shard sub-scans along the router's plan, travels through the
//!   queues, and the runs are concatenated (order-preserving router) or
//!   sort-merged ([`threepath_sharded::merge_sorted_runs`]).
//!
//! What the front costs over calling
//! [`ShardedHandle::shard_batch`](threepath_sharded::ShardedHandle::shard_batch)
//! yourself is the plan compile and the reply vector (~0.1 µs per
//! operation at batch 8); what it buys is shard-straddling batches with
//! per-shard atomicity, and — under abort storms — one retry ladder per
//! plan instead of per operation, with waiters combined under the lock.
//! The batching benchmarks (`crates/bench/benches/micro.rs`, `batch-ab`)
//! measure both regimes.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use threepath_core::BatchOp;
//! use threepath_server::{KvServer, ServerConfig};
//! use threepath_sharded::{ShardedConfig, ShardedMap};
//!
//! let map = Arc::new(ShardedMap::with_config(ShardedConfig {
//!     shards: 2,
//!     key_space: 100,
//!     batched: true, // the server requires the batch entry point
//!     ..ShardedConfig::default()
//! }).expect("valid config"));
//! let srv = Arc::new(KvServer::new(map, ServerConfig::default()).expect("batched map"));
//! let mut c = srv.client();
//! c.insert(10, 1);
//! c.insert(60, 2);
//! // A shard-straddling batch: one group per shard, each applied atomically.
//! let replies = c.submit(vec![BatchOp::Get(10), BatchOp::Remove(60)]);
//! assert_eq!(replies, vec![Some(1), Some(2)]);
//! assert_eq!(c.range_query(0, 100), vec![(10, 1)]);
//! ```

#![warn(missing_docs)]

mod queue;
mod server;

pub use server::{KvServer, ServerClient, ServerConfig, ServerError, SubmitError};
