//! The repo benchmark: six seeded workloads driven through the store's
//! public API, every output checked, end-to-end metrics with regression
//! bounds, and a per-layer ledger from `htm` to `persist`. See `README.md`.

pub mod compare;
pub mod gen;
pub mod hist;
pub mod host;
pub mod json;
pub mod ledger;
pub mod run;
pub mod spec;
pub mod trace;
