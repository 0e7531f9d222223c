//! Workloads, trial runner and metrics reproducing the paper's Section 7
//! methodology:
//!
//! * **light** workloads: `n` processes perform updates (50% insert, 50%
//!   delete) on keys drawn uniformly from `[0, K)`;
//! * **heavy** workloads: `n − 1` updaters plus one thread performing 100%
//!   range queries of size `s = ⌊x²·S⌋ + 1` (biased toward small ranges
//!   with occasional very large ones);
//! * trees are **prefilled to half** the key range before measurement;
//! * correctness is checked with **key-sum hashes**: each thread tracks the
//!   sum of keys it successfully inserted minus those it deleted, and the
//!   total must equal the final tree key sum.
//!
//! # Example
//!
//! ```
//! use threepath_workload::{run_trial, Structure, TrialSpec, Workload};
//! use threepath_core::Strategy;
//! use std::time::Duration;
//!
//! let spec = TrialSpec {
//!     structure: Structure::Bst,
//!     strategy: Strategy::ThreePath,
//!     threads: 2,
//!     duration: Duration::from_millis(20),
//!     key_range: 256,
//!     workload: Workload::Light,
//!     ..TrialSpec::default()
//! };
//! let result = run_trial(&spec);
//! assert!(result.keysum_ok);
//! assert!(result.total_ops > 0);
//! ```

#![warn(missing_docs)]

mod latency;
mod map;
mod metrics;
mod runner;
mod server_trial;
mod spec;
pub mod zipf;

pub use latency::{LatencyHistogram, LatencyReport};
pub use map::{AnyHandle, AnyTree};
pub use metrics::{average, TrialResult};
pub use runner::{prefill, run_trial, run_trials};
pub use server_trial::{run_server_trial, run_server_trials, ServerTrialSpec};
pub use spec::{KeyDist, ParseKeyDistError, PersistSpec, Structure, TrialSpec, Workload};
pub use zipf::KeySampler;
// Policy knobs of sharded trials, re-exported so harnesses can configure
// specs without depending on `threepath-sharded` directly.
pub use threepath_sharded::{RouterKind, ShardBackend};

/// Reads a `usize` configuration value from the environment, falling back
/// to `default`. Benchmarks use `THREEPATH_*` variables to scale sweeps.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `u64` configuration value from the environment.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
