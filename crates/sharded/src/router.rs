//! Pluggable shard routing: the policy deciding which shard owns which
//! key, and which shards a range query must visit.
//!
//! Two built-in policies:
//!
//! * [`RangeRouter`] — contiguous key ranges (shard `i` owns
//!   `[i·width, (i+1)·width)`). Keys in shard `i` are all smaller than
//!   keys in shard `i + 1`, so cross-shard range queries are a cheap
//!   in-order concatenation, but key-local skew (hot keys clustered in
//!   one range) lands entirely on one shard.
//! * [`HashRouter`] — multiplicative-hash striping. Hot keys spread
//!   evenly over shards regardless of where they sit in the key space,
//!   but the global order is lost: a cross-shard range query degrades to
//!   querying **every** shard and sort-merging the per-shard results —
//!   the trait makes this cost explicit via
//!   [`Router::preserves_order`].

use std::fmt;
use std::str::FromStr;

/// Error constructing a sharded-layer component from an invalid
/// configuration. Returned (never panicked) by [`crate::ShardedMap`] and
/// router constructors so callers can surface misconfiguration as data.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `shards == 0`: the partition would be empty.
    ZeroShards,
    /// An HTM admission window of zero threads: nobody could ever run
    /// the fast path while the fallback lock is held.
    ZeroAdmissionWindow,
    /// Batching was requested with a strategy the batch entry point
    /// cannot run on (only TLE and 3-path have the single-transaction
    /// fast path plus serialized section a batch commits through).
    BatchedStrategy(threepath_core::Strategy),
    /// A custom router disagrees with the configured shard count.
    RouterShardMismatch {
        /// `Router::shard_count()` of the supplied router.
        router: usize,
        /// The configured shard count.
        shards: usize,
    },
    /// The durability layer rejected the configuration or the on-disk
    /// state (invalid tuning, a directory that would be clobbered, a
    /// manifest disagreeing with the configured layout, corrupt
    /// snapshot/log state — see [`threepath_persist::PersistError`]).
    Persist(threepath_persist::PersistError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroShards => f.write_str("shard count must be at least 1"),
            ConfigError::ZeroAdmissionWindow => {
                f.write_str("the HTM admission window must admit at least one thread")
            }
            ConfigError::BatchedStrategy(s) => write!(
                f,
                "batched maps require the TLE or 3-path strategy, not `{s}`"
            ),
            ConfigError::RouterShardMismatch { router, shards } => write!(
                f,
                "router partitions {router} shards but the map was configured with {shards}"
            ),
            ConfigError::Persist(e) => write!(f, "persistence: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The shard-routing policy of a [`ShardedMap`](crate::ShardedMap).
///
/// A router is a **total** function from keys to shard indices in
/// `[0, shard_count)`; every key is owned by exactly one shard. Range
/// queries consult [`Router::shards_for_range`], which returns the shards
/// that may own keys in `[lo, hi)` together with the clamped sub-range to
/// ask each shard for.
pub trait Router: Send + Sync + fmt::Debug {
    /// Number of shards this router partitions across.
    fn shard_count(&self) -> usize;

    /// Which shard owns `key`.
    fn route(&self, key: u64) -> usize;

    /// The shards a range query over `[lo, hi)` must visit, as
    /// `(shard, lo, hi)` triples (each shard queried over its clamped
    /// sub-range). Shards appear at most once. When
    /// [`preserves_order`](Router::preserves_order) is true they must be
    /// listed in ascending key order.
    fn shards_for_range(&self, lo: u64, hi: u64) -> Vec<(usize, u64, u64)>;

    /// Whether routing preserves the global key order across shards
    /// (shard `i`'s keys all smaller than shard `i + 1`'s). When true, a
    /// cross-shard range query is an in-order concatenation; when false
    /// it is a sort-merge over every visited shard's results.
    fn preserves_order(&self) -> bool;
}

/// Contiguous range partitioning (the PR 2 behaviour): shard `i` owns
/// `[i·width, (i+1)·width)` with `width = ceil(key_space / shards)`; the
/// last shard additionally owns every key `>= key_space`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeRouter {
    shards: usize,
    width: u64,
}

impl RangeRouter {
    /// A router over `shards` contiguous ranges covering
    /// `[0, key_space)`.
    pub fn new(shards: usize, key_space: u64) -> Result<Self, ConfigError> {
        if shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        Ok(RangeRouter {
            shards,
            width: key_space.div_ceil(shards as u64).max(1),
        })
    }

    /// The width of each shard's range.
    pub fn width(&self) -> u64 {
        self.width
    }
}

impl Router for RangeRouter {
    fn shard_count(&self) -> usize {
        self.shards
    }

    fn route(&self, key: u64) -> usize {
        ((key / self.width) as usize).min(self.shards - 1)
    }

    fn shards_for_range(&self, lo: u64, hi: u64) -> Vec<(usize, u64, u64)> {
        if lo >= hi {
            return Vec::new();
        }
        let first = self.route(lo);
        let last = self.route(hi - 1);
        (first..=last)
            .filter_map(|s| {
                // Clamp to the shard's own range; the last shard is
                // unbounded above (it also owns keys >= key_space).
                let slo = lo.max(s as u64 * self.width);
                let shi = if s == self.shards - 1 {
                    hi
                } else {
                    hi.min((s as u64 + 1) * self.width)
                };
                (slo < shi).then_some((s, slo, shi))
            })
            .collect()
    }

    fn preserves_order(&self) -> bool {
        true
    }
}

/// Multiplicative-hash striping: shard = high bits of
/// `key · 0x9E3779B97F4A7C15`, scaled to the shard count by fixed-point
/// multiplication (no modulo bias; [`threepath_htm::fib_scatter`], the
/// same mapping the workload crate scatters Zipf ranks with). Load
/// balances arbitrary key-local skew at the price of global order — see
/// the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRouter {
    shards: usize,
}

impl HashRouter {
    /// A router striping keys over `shards` shards.
    pub fn new(shards: usize) -> Result<Self, ConfigError> {
        if shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        Ok(HashRouter { shards })
    }
}

impl Router for HashRouter {
    fn shard_count(&self) -> usize {
        self.shards
    }

    fn route(&self, key: u64) -> usize {
        threepath_htm::fib_scatter(key, self.shards as u64) as usize
    }

    fn shards_for_range(&self, lo: u64, hi: u64) -> Vec<(usize, u64, u64)> {
        if lo >= hi {
            return Vec::new();
        }
        let span = hi - lo;
        // A window no wider than the shard count cannot touch more
        // shards than it has keys: route each key and deduplicate,
        // instead of fanning out to every shard.
        if span <= self.shards as u64 {
            let mut shards: Vec<usize> = (lo..hi).map(|k| self.route(k)).collect();
            shards.sort_unstable();
            shards.dedup();
            return shards.into_iter().map(|s| (s, lo, hi)).collect();
        }
        (0..self.shards).map(|s| (s, lo, hi)).collect()
    }

    fn preserves_order(&self) -> bool {
        false
    }
}

/// Which built-in router a [`ShardedConfig`](crate::ShardedConfig)
/// selects. Custom policies implement [`Router`] directly and go through
/// [`ShardedMap::with_router`](crate::ShardedMap::with_router).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RouterKind {
    /// Contiguous range partitioning ([`RangeRouter`]).
    #[default]
    Range,
    /// Multiplicative-hash striping ([`HashRouter`]).
    Hash,
}

impl fmt::Display for RouterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RouterKind::Range => "range",
            RouterKind::Hash => "hash",
        })
    }
}

/// Error parsing a [`RouterKind`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRouterError(String);

impl fmt::Display for ParseRouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown router `{}`", self.0)
    }
}

impl std::error::Error for ParseRouterError {}

impl FromStr for RouterKind {
    type Err = ParseRouterError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "range" => Ok(RouterKind::Range),
            "hash" => Ok(RouterKind::Hash),
            other => Err(ParseRouterError(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_router_matches_pr2_partitioning() {
        let r = RangeRouter::new(4, 100).unwrap();
        assert_eq!(r.width(), 25);
        assert_eq!(r.route(0), 0);
        assert_eq!(r.route(24), 0);
        assert_eq!(r.route(25), 1);
        assert_eq!(r.route(99), 3);
        // Overflow keys route to the last shard.
        assert_eq!(r.route(100), 3);
        assert_eq!(r.route(u64::MAX), 3);
        assert!(r.preserves_order());
    }

    #[test]
    fn range_router_plans_clamped_subranges_in_order() {
        let r = RangeRouter::new(4, 100).unwrap();
        assert_eq!(
            r.shards_for_range(10, 80),
            vec![(0, 10, 25), (1, 25, 50), (2, 50, 75), (3, 75, 80)]
        );
        assert_eq!(r.shards_for_range(30, 40), vec![(1, 30, 40)]);
        // The last shard's plan is unbounded above.
        assert_eq!(r.shards_for_range(90, u64::MAX), vec![(3, 90, u64::MAX)]);
        assert_eq!(r.shards_for_range(50, 50), vec![]);
        assert_eq!(r.shards_for_range(80, 10), vec![]);
    }

    #[test]
    fn hash_router_is_total_and_balanced() {
        let r = HashRouter::new(8).unwrap();
        assert!(!r.preserves_order());
        let mut counts = [0usize; 8];
        for k in 0..8000u64 {
            let s = r.route(k);
            assert!(s < 8);
            counts[s] += 1;
        }
        // Multiplicative hashing of consecutive keys is near-perfectly
        // balanced; allow generous slack anyway.
        for (s, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "shard {s} holds {c} of 8000");
        }
    }

    #[test]
    fn hash_router_range_plans_cover_all_routes() {
        let r = HashRouter::new(4).unwrap();
        // Wide window: every shard is visited.
        assert_eq!(r.shards_for_range(0, 1000).len(), 4);
        // Tiny window: only the shards the keys actually route to.
        let plan = r.shards_for_range(10, 13);
        let planned: std::collections::BTreeSet<usize> =
            plan.iter().map(|&(s, _, _)| s).collect();
        for k in 10..13 {
            assert!(planned.contains(&r.route(k)), "key {k} not covered");
        }
        for &(_, lo, hi) in &plan {
            assert_eq!((lo, hi), (10, 13), "sub-ranges are not clamped for hash");
        }
        assert_eq!(r.shards_for_range(5, 5), vec![]);
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        assert_eq!(RangeRouter::new(0, 100).unwrap_err(), ConfigError::ZeroShards);
        assert_eq!(HashRouter::new(0).unwrap_err(), ConfigError::ZeroShards);
    }

    #[test]
    fn router_kind_parse_round_trip() {
        for kind in [RouterKind::Range, RouterKind::Hash] {
            assert_eq!(kind.to_string().parse::<RouterKind>().unwrap(), kind);
        }
        assert!("consistent".parse::<RouterKind>().is_err());
        assert_eq!(RouterKind::default(), RouterKind::Range);
    }
}
