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
//! A tree is built from one [`TemplateConfig`] (strategy, HTM, attempt
//! budgets, reclamation, pooling, read and scan paths, admission,
//! batching): [`TemplateConfig::build`] makes its runtime, domain,
//! LLX/SCX engine and [`ExecCtx`], and [`drop_tree`] frees its nodes.
//!
//! A data structure supplies each operation once, as a search and the
//! bodies that act on what it found ([`SeqOp`], [`TemplateOp`],
//! [`ReadOp`]); [`ExecCtx::run_update`], [`ExecCtx::run_query`] and
//! [`ExecCtx::run_batch`] derive the fast, middle, fallback and locked
//! paths from them and drive attempts, budgets, waiting, and statistics.
//! Section 8's search outside the transaction, the epoch pin around it
//! and the fallback's retry loop live there, once.
//!
//! Read-only operations need not take those paths at all: the paper's
//! "searches require no synchronization" property gets a first-class
//! wait-free entry ([`ExecCtx::run_read`] /
//! [`ExecCtx::run_read_validated`] for point reads,
//! [`ExecCtx::run_scan`] for multi-leaf range scans) with its own
//! [`PathKind::Read`] statistics lane — no subscription, no attempt
//! budget, no fallback escalation until the optimistic attempts are
//! exhausted.
//! The [`scan`] module holds the whole optimistic scan once; a tree
//! supplies only its node decoding ([`scan::ScanSource`]). An exhausted
//! read or scan then runs through [`ExecCtx::run_query`] on the fast,
//! middle or fallback path.

#![warn(missing_docs)]

mod access;
mod batch;
mod config;
mod driver;
mod effects;
mod op;
mod readpath;
pub mod scan;
mod snzi;
mod stats;
mod strategy;
mod sync;
mod template;

pub use access::{DirectMem, Mem, TxMem, TxRead};
pub use batch::{BatchApply, BatchOp};
pub use config::{drop_tree, TemplateConfig, TemplateConfigError};
pub use driver::{ExecCtx, LockedSection, BATCH_STRATEGIES};
pub use op::{run_direct, ReadOp, SeqOp, TemplateOp};
pub use readpath::DEFAULT_READ_ATTEMPTS;
pub use scan::merge_subranges;
pub use effects::Effects;
pub use stats::{AbortCounts, PathKind, PathStats};
pub use snzi::Snzi;
pub use strategy::{PathLimits, Strategy};
pub use sync::{AdmissionGate, FallbackCount, Indicator, TleLock};
pub use template::{OpOutcome, OrigMode, TemplateMode, TxMode};
