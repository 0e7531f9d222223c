//! Key-space-sharded map layer over the three-path template trees, with
//! pluggable routing.
//!
//! A single template tree owns one HTM runtime and one reclamation domain,
//! so under heavy traffic every hardware transaction in the process
//! contends on the same conflict-detection state and every retired node
//! funnels through the same limbo bags. [`ShardedMap`] partitions the key
//! space into `N` shards and gives each shard its **own** tree — own
//! simulated-HTM runtime, own epoch-reclamation domain, own fallback
//! indicator — so operations on different shards never interact and the
//! paper's per-tree correctness argument applies to each shard unchanged.
//!
//! A routing policy ([`Router`]) sits on top of the partition:
//! [`RangeRouter`] keeps contiguous ranges — global order is preserved
//! and cross-shard range queries concatenate per-shard queries in order;
//! [`HashRouter`] stripes keys by multiplicative hash — key-local skew
//! load-balances across shards, and range queries degrade to a
//! sort-merge over every shard (the trait makes the trade explicit via
//! [`Router::preserves_order`]). Every shard runs the map's one
//! execution strategy.
//!
//! Each per-shard query is individually atomic (a consistent snapshot of
//! that shard); a cross-shard range query is **not** a single atomic
//! snapshot of the whole map — see [`ShardedHandle::range_query`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use threepath_sharded::{RouterKind, ShardBackend, ShardedConfig, ShardedMap};
//!
//! let map = Arc::new(ShardedMap::with_config(ShardedConfig {
//!     shards: 4,
//!     key_space: 1000,
//!     backend: ShardBackend::Bst,
//!     router: RouterKind::Range,
//!     ..ShardedConfig::default()
//! }).expect("valid config"));
//! let mut h = map.handle();
//! h.insert(10, 1);   // shard 0
//! h.insert(990, 2);  // shard 3
//! assert_eq!(h.get(10), Some(1));
//! assert_eq!(h.range_query(0, 1000), vec![(10, 1), (990, 2)]);
//! assert_eq!(map.len(), 2);
//! assert_eq!(map.key_sum(), 1000);
//! ```

#![warn(missing_docs)]

mod map;
mod persist;
mod router;
mod tree;

pub use map::{merge_sorted_runs, merge_sorted_slices, ShardedConfig, ShardedHandle, ShardedMap};
pub use router::{ConfigError, HashRouter, RangeRouter, Router, RouterKind};
pub use tree::{ShardBackend, ShardHandle, ShardTree};
// The durability layer's public surface, re-exported so callers can
// configure persistence ([`ShardedConfig::persist`]) and interpret
// [`ShardedMap::recover`] results without naming the persist crate.
pub use threepath_persist::{
    FailPoints, FsyncPolicy, PersistConfig, PersistError, RecoveryReport, ShardLogs, WalStats,
};
