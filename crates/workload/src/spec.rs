//! Trial specifications.

use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use threepath_core::Strategy;
use threepath_htm::HtmConfig;
use threepath_reclaim::ReclaimMode;
use threepath_sharded::{FsyncPolicy, RouterKind};

use crate::zipf::{KeySampler, RankMap};

/// Which data structure a trial exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// The external unbalanced BST (paper Section 6.1).
    Bst,
    /// The relaxed (a,b)-tree (paper Section 6.2).
    AbTree,
    /// A sharded map over `shards` independent BSTs (one HTM runtime and
    /// reclamation domain per shard), partitioned over the trial's
    /// `key_range`.
    ShardedBst {
        /// Number of shards.
        shards: usize,
    },
    /// A sharded map over `shards` independent (a,b)-trees.
    ShardedAbTree {
        /// Number of shards.
        shards: usize,
    },
}

impl std::fmt::Display for Structure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Structure::Bst => f.write_str("bst"),
            Structure::AbTree => f.write_str("abtree"),
            Structure::ShardedBst { shards } => write!(f, "sharded-bst-{shards}"),
            Structure::ShardedAbTree { shards } => write!(f, "sharded-abtree-{shards}"),
        }
    }
}

impl Structure {
    /// The unsharded tree this structure is built from (identity for the
    /// plain trees).
    pub fn base(self) -> Structure {
        match self {
            Structure::Bst | Structure::ShardedBst { .. } => Structure::Bst,
            Structure::AbTree | Structure::ShardedAbTree { .. } => Structure::AbTree,
        }
    }

    /// Number of shards, if this is a sharded structure.
    pub fn shards(self) -> Option<usize> {
        match self {
            Structure::ShardedBst { shards } | Structure::ShardedAbTree { shards } => Some(shards),
            _ => None,
        }
    }

    /// The paper's key range for this structure (BST: 10⁴; (a,b)-tree:
    /// 10⁶). Benchmarks scale these down via environment variables when
    /// running on small machines. Sharded variants inherit their base
    /// tree's range.
    pub fn paper_key_range(self) -> u64 {
        match self.base() {
            Structure::Bst => 10_000,
            _ => 1_000_000,
        }
    }

    /// The paper's maximum range-query extent `S` for this structure
    /// (BST: 10³; (a,b)-tree: 10⁴ — chosen so queries touch a comparable
    /// number of nodes). Sharded variants inherit their base tree's extent.
    pub fn paper_rq_extent(self) -> u64 {
        match self.base() {
            Structure::Bst => 1_000,
            _ => 10_000,
        }
    }
}

/// How updater threads draw keys from `[0, key_range)`.
///
/// The skewed variants draw a *rank* from the true bounded-Zipf(θ)
/// distribution (`P(rank r) ∝ (r+1)^-θ`, precomputed harmonic/CDF table —
/// see [`crate::zipf`]) and differ only in how ranks map onto keys:
///
/// * [`KeyDist::Zipf`] clusters — `key = rank`, so hot keys sit together
///   at the low end of the key space. This is *key-locality* skew: on a
///   range-partitioned sharded map the whole hot set lands in one shard
///   (the workload hash routing exists to absorb).
/// * [`KeyDist::ZipfScattered`] scatters ranks across the key space with
///   a multiplicative hash — *popularity* skew without locality: hot
///   keys spread over all shards, the contention pattern a single tree
///   serializes on and sharding alone already absorbs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform (the paper's distribution).
    Uniform,
    /// Bounded Zipf(θ) over ranks, hot keys clustered at the low end
    /// (`key = rank`). θ = 0 is uniform; θ = 0.99 is the YCSB-style
    /// default hot-spot; larger is more skewed.
    Zipf {
        /// Zipf exponent θ (`>= 0`).
        theta: f64,
    },
    /// Bounded Zipf(θ) over ranks, hot keys scattered across the key
    /// space by multiplicative hash (fixed-point scaled, so distinct
    /// ranks collide only with birthday probability rather than the ~37%
    /// image loss a plain `hash % range` would cost).
    ZipfScattered {
        /// Zipf exponent θ (`>= 0`).
        theta: f64,
    },
    /// Deprecated alias for [`KeyDist::ZipfScattered`] with
    /// `theta = exponent`, kept so old specs keep parsing. The PR 2
    /// power-law approximation (`rank = ⌊range · u^exponent⌋`) has been
    /// replaced by the true Zipf sampler; note the parameter scale
    /// changed with it (the old `exponent = 1` was near-uniform, whereas
    /// Zipf θ = 1 is strongly skewed).
    #[deprecated(note = "use KeyDist::ZipfScattered { theta } instead")]
    Skewed {
        /// Zipf exponent θ (formerly the power-law exponent).
        exponent: f64,
    },
}

impl KeyDist {
    /// Builds the reusable sampler for this distribution over
    /// `[0, range)`. Zipf tables cost `O(range)` to build — construct
    /// once per trial, not per draw. `range` must be non-zero.
    #[allow(deprecated)]
    pub fn sampler(self, range: u64) -> KeySampler {
        match self {
            KeyDist::Uniform => KeySampler::uniform(range),
            KeyDist::Zipf { theta } => KeySampler::zipf(range, theta, RankMap::Clustered),
            KeyDist::ZipfScattered { theta } | KeyDist::Skewed { exponent: theta } => {
                KeySampler::zipf(range, theta, RankMap::Scattered)
            }
        }
    }
}

#[allow(deprecated)]
impl std::fmt::Display for KeyDist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyDist::Uniform => f.write_str("uniform"),
            KeyDist::Zipf { theta } => write!(f, "zipf-{theta}"),
            KeyDist::ZipfScattered { theta } => write!(f, "zipf-scatter-{theta}"),
            KeyDist::Skewed { exponent } => write!(f, "skewed-{exponent}"),
        }
    }
}

/// Error parsing a [`KeyDist`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKeyDistError(String);

impl std::fmt::Display for ParseKeyDistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown key distribution `{}`", self.0)
    }
}

impl std::error::Error for ParseKeyDistError {}

#[allow(deprecated)]
impl FromStr for KeyDist {
    type Err = ParseKeyDistError;

    /// Parses the [`Display`](std::fmt::Display) forms back: `uniform`,
    /// `zipf-<theta>`, `zipf-scatter-<theta>`, `skewed-<exponent>`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseKeyDistError(s.to_string());
        let num = |v: &str| v.parse::<f64>().ok().filter(|t| t.is_finite() && *t >= 0.0);
        if s == "uniform" {
            return Ok(KeyDist::Uniform);
        }
        if let Some(v) = s.strip_prefix("zipf-scatter-") {
            return num(v).map(|theta| KeyDist::ZipfScattered { theta }).ok_or_else(err);
        }
        if let Some(v) = s.strip_prefix("zipf-") {
            return num(v).map(|theta| KeyDist::Zipf { theta }).ok_or_else(err);
        }
        if let Some(v) = s.strip_prefix("skewed-") {
            return num(v).map(|exponent| KeyDist::Skewed { exponent }).ok_or_else(err);
        }
        Err(err())
    }
}

/// Workload mix (paper Section 7.1, plus YCSB-style read-heavy mixes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All `n` threads perform 50% inserts / 50% deletes.
    Light,
    /// `n − 1` updaters; one thread performs 100% range queries with
    /// extent `s = ⌊x²·S⌋ + 1`.
    Heavy {
        /// Maximum range-query extent `S`.
        rq_extent: u64,
    },
    /// Every thread performs `read_pct`% lookups and the rest 50/50
    /// inserts/deletes — `read_pct: 95` is YCSB-B-shaped, `100` is
    /// YCSB-C (read-only after prefill), the dominant serving mixes the
    /// uninstrumented read path targets.
    ReadHeavy {
        /// Percentage of operations that are lookups (`0..=100`).
        read_pct: u8,
    },
    /// Every thread performs `scan_pct`% range queries of extent
    /// `scan_len` (starting at a drawn key) and the rest inserts —
    /// `scan_pct: 95` is YCSB-E-shaped, the mix the uninstrumented scan
    /// path targets.
    ScanHeavy {
        /// Percentage of operations that are range scans (`0..=100`).
        scan_pct: u8,
        /// Extent of each scan (`[k, k + scan_len)`).
        scan_len: u64,
    },
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Workload::Light => f.write_str("light"),
            Workload::Heavy { .. } => f.write_str("heavy"),
            Workload::ReadHeavy { read_pct } => write!(f, "read-{read_pct}"),
            Workload::ScanHeavy { scan_pct, scan_len } => {
                write!(f, "scan-{scan_pct}-{scan_len}")
            }
        }
    }
}

/// Durability knobs for a trial over a persistent sharded map (the
/// write-ahead-log cost panels). Maps onto
/// [`threepath_sharded::PersistConfig`]; only sharded structures can
/// persist.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistSpec {
    /// Log directory. `None` (the default) picks a unique directory
    /// under the system temp dir per build — callers that want to
    /// recover or clean up afterwards should name one explicitly.
    pub dir: Option<PathBuf>,
    /// When appends reach the disk (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Snapshot cadence in records per shard; `None` never snapshots.
    pub snapshot_every: Option<u64>,
}

impl Default for PersistSpec {
    fn default() -> Self {
        PersistSpec {
            dir: None,
            fsync: FsyncPolicy::EveryN(64),
            snapshot_every: Some(8192),
        }
    }
}

/// Full description of one timed trial.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    /// Data structure under test.
    pub structure: Structure,
    /// Execution-path strategy.
    pub strategy: Strategy,
    /// Number of worker threads (`n`).
    pub threads: usize,
    /// Measured duration (the paper uses 1 s trials).
    pub duration: Duration,
    /// Keys are drawn from `[0, key_range)`.
    pub key_range: u64,
    /// Distribution updater threads draw keys from (prefill is always
    /// uniform, per the paper's methodology).
    pub key_dist: KeyDist,
    /// Shard-routing policy for sharded structures (ignored by the plain
    /// trees): range partitioning preserves global order, hash striping
    /// load-balances key-local skew. See [`RouterKind`].
    pub router: RouterKind,
    /// Operation mix.
    pub workload: Workload,
    /// Simulated-HTM parameters.
    pub htm: HtmConfig,
    /// Memory-reclamation mode.
    pub reclaim: ReclaimMode,
    /// Section 8 variant (search outside transactions).
    pub search_outside_txn: bool,
    /// Use a SNZI in place of the fetch-and-increment counter `F`.
    pub snzi: bool,
    /// Fixed attempt budgets; `None` uses the paper's per-strategy
    /// defaults.
    pub limits: Option<threepath_core::PathLimits>,
    /// Per-thread node pools (on by default); off measures the `Box`
    /// allocator baseline.
    pub pool: bool,
    /// Route lookups through the uninstrumented wait-free read path (on
    /// by default); off drives them through the template's paths like
    /// any update — the baseline the read-heavy benchmark panels compare
    /// against.
    pub read_path: bool,
    /// Route range queries through the uninstrumented optimistic scan
    /// path (on by default); off drives them through the template's
    /// paths like any update — the baseline the scan benchmark panels
    /// compare against.
    pub scan_path: bool,
    /// HTM admission control on the fallback path: at most this many
    /// threads attempt hardware transactions while a tree's fallback is
    /// active; the overflow takes the fallback directly (see
    /// [`threepath_core::AdmissionGate`]). `None` admits everyone — the
    /// uncontrolled baseline the admission panels compare against.
    pub admission: Option<u32>,
    /// Per-shard write-ahead logging (see [`PersistSpec`]). `None` (the
    /// default) runs volatile — the baseline every persistence panel
    /// compares against. Only valid on sharded structures.
    pub persist: Option<PersistSpec>,
    /// Base PRNG seed (trial `i` derives per-thread seeds from it).
    pub seed: u64,
}

impl Default for TrialSpec {
    fn default() -> Self {
        TrialSpec {
            structure: Structure::Bst,
            strategy: Strategy::ThreePath,
            threads: 2,
            duration: Duration::from_millis(200),
            key_range: 10_000,
            key_dist: KeyDist::Uniform,
            router: RouterKind::Range,
            workload: Workload::Light,
            htm: HtmConfig::default(),
            reclaim: ReclaimMode::Epoch,
            search_outside_txn: false,
            snzi: false,
            limits: None,
            pool: true,
            read_path: true,
            scan_path: true,
            admission: None,
            persist: None,
            seed: 0x5EED,
        }
    }
}

impl TrialSpec {
    /// A spec following the paper's parameters for `structure` (key range
    /// and, for heavy workloads, RQ extent), scaled by `scale ∈ (0, 1]` to
    /// fit smaller machines.
    ///
    /// The key range scales; the range-query extent does **not** (it is
    /// only clamped to the key range), because what makes the heavy
    /// workload heavy is the RQ footprint relative to the *fixed* HTM
    /// capacity, not relative to the key range.
    pub fn paper(structure: Structure, strategy: Strategy, heavy: bool, scale: f64) -> Self {
        let key_range = ((structure.paper_key_range() as f64 * scale) as u64).max(64);
        let rq_extent = structure.paper_rq_extent().min(key_range);
        TrialSpec {
            structure,
            strategy,
            key_range,
            workload: if heavy {
                Workload::Heavy { rq_extent }
            } else {
                Workload::Light
            },
            ..TrialSpec::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters() {
        assert_eq!(Structure::Bst.paper_key_range(), 10_000);
        assert_eq!(Structure::AbTree.paper_key_range(), 1_000_000);
        assert_eq!(Structure::AbTree.paper_rq_extent(), 10_000);
    }

    #[test]
    fn paper_spec_scales_key_range_not_extent() {
        let s = TrialSpec::paper(Structure::AbTree, Strategy::ThreePath, true, 0.01);
        assert_eq!(s.key_range, 10_000);
        // The RQ extent stays at the paper's absolute size (clamped to the
        // key range) so capacity aborts still occur at reduced scales.
        assert!(matches!(s.workload, Workload::Heavy { rq_extent: 10_000 }));
        let s = TrialSpec::paper(Structure::Bst, Strategy::ThreePath, true, 0.01);
        assert_eq!(s.key_range, 100);
        assert!(matches!(s.workload, Workload::Heavy { rq_extent: 100 }));
    }

    #[test]
    #[allow(deprecated)]
    fn displays() {
        assert_eq!(Structure::Bst.to_string(), "bst");
        assert_eq!(Structure::ShardedBst { shards: 4 }.to_string(), "sharded-bst-4");
        assert_eq!(
            Structure::ShardedAbTree { shards: 2 }.to_string(),
            "sharded-abtree-2"
        );
        assert_eq!(Workload::Light.to_string(), "light");
        assert_eq!(Workload::Heavy { rq_extent: 5 }.to_string(), "heavy");
        assert_eq!(
            Workload::ScanHeavy {
                scan_pct: 95,
                scan_len: 100
            }
            .to_string(),
            "scan-95-100"
        );
        assert_eq!(KeyDist::Uniform.to_string(), "uniform");
        assert_eq!(KeyDist::Zipf { theta: 0.99 }.to_string(), "zipf-0.99");
        assert_eq!(
            KeyDist::ZipfScattered { theta: 1.5 }.to_string(),
            "zipf-scatter-1.5"
        );
        assert_eq!(KeyDist::Skewed { exponent: 3.0 }.to_string(), "skewed-3");
    }

    #[test]
    #[allow(deprecated)]
    fn key_dist_parse_round_trip() {
        for dist in [
            KeyDist::Uniform,
            KeyDist::Zipf { theta: 0.99 },
            KeyDist::Zipf { theta: 0.0 },
            KeyDist::ZipfScattered { theta: 1.25 },
            KeyDist::Skewed { exponent: 2.0 },
        ] {
            assert_eq!(dist.to_string().parse::<KeyDist>().unwrap(), dist);
        }
        assert!("zipf".parse::<KeyDist>().is_err());
        assert!("zipf--1".parse::<KeyDist>().is_err());
        assert!("zipf-NaN".parse::<KeyDist>().is_err());
        assert!("pareto-1".parse::<KeyDist>().is_err());
        let err = "bogus".parse::<KeyDist>().unwrap_err();
        assert_eq!(err.to_string(), "unknown key distribution `bogus`");
    }

    #[test]
    fn spec_carries_router_knob() {
        let spec = TrialSpec::default();
        assert_eq!(spec.router, RouterKind::Range);
        let spec = TrialSpec {
            router: RouterKind::Hash,
            ..TrialSpec::default()
        };
        assert_eq!(spec.router.to_string().parse::<RouterKind>().unwrap(), spec.router);
    }

    #[test]
    fn sharded_structures_inherit_base_parameters() {
        let s = Structure::ShardedBst { shards: 8 };
        assert_eq!(s.base(), Structure::Bst);
        assert_eq!(s.shards(), Some(8));
        assert_eq!(s.paper_key_range(), Structure::Bst.paper_key_range());
        assert_eq!(s.paper_rq_extent(), Structure::Bst.paper_rq_extent());
        let s = Structure::ShardedAbTree { shards: 2 };
        assert_eq!(s.base(), Structure::AbTree);
        assert_eq!(s.paper_key_range(), Structure::AbTree.paper_key_range());
        assert_eq!(Structure::Bst.shards(), None);
    }

    #[test]
    #[allow(deprecated)]
    fn sampling_stays_in_range_and_is_skewed() {
        use threepath_htm::SplitMix64;
        let range = 1024u64;
        let samples = 20_000u64;
        // True Zipf with θ = 2: rank 0 carries 1/ζ(2) ≈ 61% of the mass.
        for dist in [
            KeyDist::Zipf { theta: 2.0 },
            KeyDist::ZipfScattered { theta: 2.0 },
            KeyDist::Skewed { exponent: 2.0 }, // deprecated alias, same sampler
        ] {
            let sampler = dist.sampler(range);
            let mut rng = SplitMix64::new(42);
            let mut counts = vec![0u32; range as usize];
            for _ in 0..samples {
                let k = sampler.sample(&mut rng);
                assert!(k < range, "{dist}");
                counts[k as usize] += 1;
            }
            let max = *counts.iter().max().unwrap();
            assert!(
                max as u64 > samples / 2,
                "{dist}: skew too weak, max bucket {max}"
            );
        }
        // The deprecated alias draws exactly like ZipfScattered.
        let (a, b) = (
            KeyDist::Skewed { exponent: 1.5 }.sampler(range),
            KeyDist::ZipfScattered { theta: 1.5 }.sampler(range),
        );
        let (mut ra, mut rb) = (SplitMix64::new(9), SplitMix64::new(9));
        for _ in 0..500 {
            assert_eq!(a.sample(&mut ra), b.sample(&mut rb));
        }
        // Clustered vs scattered: same ranks, different key placement —
        // the clustered hot key is key 0, the scattered one is not.
        let clustered = KeyDist::Zipf { theta: 2.0 }.sampler(range);
        let mut rng = SplitMix64::new(11);
        let mut counts = vec![0u32; range as usize];
        for _ in 0..samples {
            counts[clustered.sample(&mut rng) as usize] += 1;
        }
        let hottest = counts.iter().enumerate().max_by_key(|&(_, c)| c).unwrap().0;
        assert_eq!(hottest, 0, "clustered Zipf's hottest key is rank 0");
        // Uniform sampling through the same API stays uniform-ish.
        let sampler = KeyDist::Uniform.sampler(range);
        let mut rng = SplitMix64::new(42);
        let mut counts = vec![0u32; range as usize];
        let mut max_u = 0u32;
        for _ in 0..samples {
            let k = sampler.sample(&mut rng);
            counts[k as usize] += 1;
            max_u = max_u.max(counts[k as usize]);
        }
        assert!(max_u < 100, "uniform sampling skewed: max bucket {max_u}");
    }
}
