//! The accelerated tree-update template (the paper's primary contribution).
//!
//! An operation implemented with the tree-update template (Brown, Ellen,
//! Ruppert, PPoPP 2014) searches for a location, performs LLXs on a
//! connected subgraph, and issues one SCX that swings a child pointer and
//! finalizes the removed nodes. This crate provides the machinery to run
//! such operations on multiple *execution paths* and the policies that pick
//! a path — the design space explored by the paper (Section 5):
//!
//! | strategy | fast path | middle path | fallback path |
//! |---|---|---|---|
//! | [`Strategy::NonHtm`] | — | — | lock-free template (LLX/SCX) |
//! | [`Strategy::Tle`] | sequential code in a transaction, aborts if the global lock is held | — | sequential code under the global lock |
//! | [`Strategy::TwoPathCon`] | instrumented template in a transaction (HTM LLX/SCX), concurrent with the fallback | — | lock-free template |
//! | [`Strategy::TwoPathNonCon`] | sequential code in a transaction, aborts if `F != 0`, waits for `F = 0` | — | lock-free template, `F` incremented |
//! | [`Strategy::ThreePath`] | sequential code in a transaction, aborts if `F != 0`, **never waits** | instrumented template in a transaction | lock-free template, `F` incremented |
//!
//! The three-path algorithm is the paper's contribution: the fast path pays
//! no instrumentation (it cannot run concurrently with the fallback), and
//! when operations are stuck on the fallback path the middle path keeps
//! hardware transactions flowing instead of waiting (avoiding both TLE's
//! serialization and the lemming effect).
//!
//! Data structures plug in four closures (fast, middle, fallback,
//! sequential-under-lock) and this crate's [`ExecCtx::run_op`] drives
//! attempts, budgets, waiting, and statistics.
//!
//! Read-only operations do not go through `run_op` at all: the paper's
//! "searches require no synchronization" property gets a first-class
//! wait-free entry ([`ExecCtx::run_read`] /
//! [`ExecCtx::run_read_validated`] for point reads,
//! [`ExecCtx::run_scan`] for multi-leaf range scans) with its own
//! [`PathKind::Read`] statistics lane — no subscription, no budget tally,
//! no fallback escalation until the optimistic attempts are exhausted.
//! An exhausted scan then runs as an ordinary template operation
//! ([`ExecCtx::run_op_escalated`]) on the fast, middle or fallback path.

#![warn(missing_docs)]

mod access;
mod admission;
mod batch;
mod budget;
pub mod controller;
mod driver;
mod effects;
mod readpath;
mod snzi;
mod stats;
mod strategy;
mod sync;
mod template;

pub use access::{DirectMem, Mem, TxMem};
pub use admission::AdmissionProbeConfig;
pub use batch::{BatchApply, BatchOp};
pub use budget::{AdaptiveBudgets, BudgetConfig, OpTally};
pub use controller::{Controller, ProbeConfig, ProbingController, Window};
pub use driver::{ExecCtx, StrategySwapError, ADAPTIVE_STRATEGIES};
pub use readpath::{merge_subranges, ReadBoundConfig, ScanTally, DEFAULT_READ_ATTEMPTS};
pub use effects::Effects;
pub use stats::{AbortCounts, PathKind, PathStats};
pub use snzi::Snzi;
pub use strategy::{PathLimits, Strategy};
pub use sync::{AdmissionGate, FallbackCount, Indicator, TleLock};
pub use template::{OpOutcome, OrigMode, TemplateMem, TemplateMode, TxMode};
