//! Simulated best-effort hardware transactional memory (HTM).
//!
//! This crate provides a software runtime with the *semantics* of Intel's
//! restricted transactional memory (RTM), used by the rest of the `threepath`
//! workspace in place of real TSX hardware (which this environment does not
//! have). The runtime preserves every property the paper's algorithms rely
//! on:
//!
//! * **Atomicity and opacity** — a transaction either commits and appears to
//!   take effect instantaneously, or aborts with no effect on shared memory.
//!   Transactional reads never observe state inconsistent with a single
//!   atomic snapshot (TL2-style global version clock, read by commits and
//!   raised only by read-set extension), so transaction bodies can safely
//!   follow pointers.
//! * **Best effort** — no transaction is ever guaranteed to commit. The
//!   runtime produces *conflict* aborts at 64-byte cache-line granularity
//!   (including false conflicts via a hashed line table, mimicking false
//!   sharing), *capacity* aborts when a transaction's footprint exceeds a
//!   configurable number of lines, and configurable *spurious* aborts
//!   (modelling interrupts, page faults and other events that abort real
//!   hardware transactions).
//! * **Explicit aborts with an abort code** — like RTM's `xabort imm8`.
//! * **Strong atomicity** — non-transactional accesses through [`TxCell`]
//!   coordinate with the commit protocol, so a committing transaction is
//!   never observed partially by non-transactional readers, and a
//!   non-transactional write causes conflicting transactions to abort.
//!
//! # Validation is per line
//!
//! Like hardware, the runtime tracks a transaction's reads by cache line:
//! the read set holds one `(line, version)` pair per line, and a read is
//! validated against its line's version word. [`Txn::read`] pays that
//! check for every cell it reads. [`Txn::read_span`] reads a slice of
//! consecutive cells and pays it once per line the slice touches: it loads
//! a line's version, every cell of the slice on that line, then the
//! version again, and records the line once. Its outcome — values, read
//! set, snapshot extensions, capacity and conflict aborts — is that of
//! `read` on each cell in order; lines the transaction has already written
//! fall back to `read`, so read-own-writes is unchanged.
//! [`HtmRuntime::load_span_direct`] is the same per-line read for code
//! outside transactions. A multi-cell node read, such as an LLX snapshot
//! or an (a,b)-tree node's keys, then costs one version check per line it
//! touches, not one per cell.
//!
//! # Opacity
//!
//! Every line carries a version word: even when free, odd while a
//! committer (or a direct store) holds it. A commit locks its written
//! lines, *then* loads the global clock and takes its version as
//! `wv = max(clock, largest pre-lock version) + 2`, validates its read
//! set, writes back, and publishes `wv` on each line as it unlocks it.
//! Direct stores follow the same lock-then-load order. The commit never
//! writes the clock (TL2's GV5), so a commit whose lines no one else
//! touches moves no cache line between cores, as in real RTM.
//!
//! Per-line versions strictly increase: the `+ 2` over the pre-lock
//! version keeps two commits that read one clock value from publishing
//! the same version on a line, so a line never changes value without
//! changing version, and validation by version never misses a write.
//!
//! A transaction's snapshot `rv` is a clock value such that every line it
//! has read is unchanged since the instant the clock read `rv`. It starts
//! as the clock at begin (the read set is empty). A writer that loads the
//! clock after that instant reads a value `>= rv` and publishes above
//! `rv`; so a commit at a version `<= rv` loaded the clock before the
//! instant, and had locked its lines before that load. A read of a line
//! at an even version `v <= rv` is therefore consistent at `rv`: no commit
//! had published on that line after the instant, and any commit the
//! snapshot counts had its lines locked by then. The read only adds a
//! line to a set that is consistent at one instant.
//!
//! A line newer than the snapshot (`v > rv`) is first recorded in the
//! read set, then the snapshot is *extended*: raise the clock to at least
//! `v` (a `fetch_max`, or a plain load when the clock already covers `v`)
//! and call the result `new_rv`, re-check that every recorded line still
//! has its recorded version, and advance `rv` to `new_rv`. The raise
//! comes before the check, so a commit at a version `<= new_rv` had locked
//! its lines before it; if it wrote a line in the set, the check sees it
//! locked or changed and the transaction aborts. The raise, not just a
//! sample, is what keeps every later commit above `new_rv`: with a clock
//! that commits leave alone, a sample could lie below `v`, and a commit
//! loading the clock after the extension could publish at a version the
//! snapshot already counts as seen. The line just read is in the set
//! during the check, so a commit that lands between its load and the
//! extension is caught too. Had the line been recorded after the
//! extension, that commit would pass unseen and a later read of another
//! line it wrote, at a version `<= new_rv`, would look consistent: the
//! torn pair opacity forbids.
//!
//! So every value a transaction body sees, aborted or not, belongs to one
//! snapshot at `rv`, and a read-only transaction commits without further
//! validation. A writing transaction re-validates its read set after it
//! has taken `wv`, which orders it at `wv`. Direct loads
//! ([`TxCell::load_direct`], [`HtmRuntime::load_span_direct`]) are
//! seqlock reads of one line: version, load, version again, retried
//! until the two versions match and are even. Each sees one committed
//! state of its line; consecutive direct loads are not a snapshot.
//!
//! The clock moves only when a reader meets a line newer than its
//! snapshot: a commit charges no shared write, and an extension charges
//! at most one clock read-modify-write. [`TxThread::extensions`] counts them.
//!
//! The lock CAS, the clock load, the raise and the version loads that
//! validate are `SeqCst`, so all of them take part in one total order the
//! argument above walks; on x86 they compile to the same instructions as
//! weaker orders would.
//!
//! # Example
//!
//! ```
//! use threepath_htm::{HtmRuntime, HtmConfig, TxCell, Abort};
//!
//! let rt = HtmRuntime::new(HtmConfig::default());
//! let mut thread = rt.register_thread();
//! let cell = TxCell::new(1);
//!
//! let result = rt.attempt(&mut thread, |tx| {
//!     let v = tx.read(&cell)?;
//!     tx.write(&cell, v + 41)?;
//!     Ok(v)
//! });
//! assert_eq!(result.unwrap(), 1);
//! assert_eq!(cell.load_direct(&rt), 42);
//! ```

#![warn(missing_docs)]

mod abort;
mod cell;
mod config;
mod pad;
mod rng;
mod runtime;
mod sets;
mod txn;

pub use abort::{codes, Abort, AbortCode};
pub use cell::{TxCell, TxPtr};
pub use config::HtmConfig;
pub use pad::CachePadded;
pub use rng::{fib_scatter, Backoff, SplitMix64};
pub use runtime::{HtmRuntime, ThreadId, TxThread, MAX_THREADS};
pub use txn::Txn;

/// Number of bytes per simulated cache line.
pub const LINE_BYTES: usize = 64;
