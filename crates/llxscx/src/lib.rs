//! LLX and SCX: load-link extended / store-conditional extended.
//!
//! These primitives (Brown, Ellen, Ruppert, PODC 2013) are multi-word
//! generalizations of LL/SC operating on *Data-records* — nodes with a fixed
//! set of **mutable** fields (child pointers) and **immutable** fields
//! (keys, values). `LLX(r)` returns a snapshot of `r`'s mutable fields;
//! `SCX(V, R, fld, new)` atomically writes `new` into the field `fld` of one
//! node in `V` and *finalizes* every node in `R`, provided no node in `V`
//! changed since the caller's linked `LLX`s.
//!
//! This crate provides:
//!
//! * [`ScxEngine::llx`] / [`ScxEngine::scx_orig`] — the original lock-free,
//!   CAS-based algorithm (paper Figure 2), including helping via one
//!   reusable [`ScxRecord`] per process, freezing, marking and
//!   finalization;
//! * [`ScxEngine::scx_htm_attempt`] — the paper's fully transformed
//!   HTM fast path (Figure 11): no SCX-record is created; nodes are
//!   "frozen and immediately unfrozen" by writing a fresh **tagged sequence
//!   number** into their `info` fields, preserving property **P1** (between
//!   any two changes to a Data-record, its `info` field receives a value it
//!   never previously contained);
//! * [`ScxEngine::scx`] — the Figure 6 wrapper: up to `AttemptLimit`
//!   hardware attempts, then the lock-free fallback (the *2-path concurrent*
//!   building block);
//! * [`ScxEngine::llx_tx`] / [`ScxEngine::scx_tx`] — the in-transaction
//!   variants used when an entire template operation runs inside one
//!   transaction (the 2-path-con fast path and the 3-path middle path,
//!   Section 5), with the paper's optimizations applied: no nested
//!   begin/commit, no re-validation (the enclosing transaction's read set
//!   subsumes it), and no helping inside transactions.
//!
//! # Reusing SCX-records
//!
//! Each process that runs [`ScxEngine::scx_orig`] owns one [`ScxRecord`]
//! per engine and reuses it for every fallback-path SCX (Brown, *Reuse,
//! Don't Recycle*, DISC 2017). A node's `info` field never holds a pointer:
//! its freezing CAS installs a *record reference*, `(pid, seq)` in the
//! layout of the HTM paths' tagged sequence numbers plus a kind bit, with
//! `seq` drawn from the process's one counter, so every value an `info`
//! field ever holds is fresh (P1). Records are allocated on a process's
//! first fallback SCX and freed with the engine, so nothing is released
//! when a node is retired or a tree is dropped.
//!
//! The record's one mutable word packs the SCX's `seq`, its state and the
//! all-frozen bit:
//!
//! * The **creator** settles its previous SCX before it starts the next
//!   one (its `Help` returns only once the word reads committed or
//!   aborted: a node frozen for an SCX in progress does not change, so
//!   its abort CAS can fail only on a settled word), then stores the new
//!   `seq` in the word, then writes `V`, `R`, `fld`, `old` and `new`,
//!   then runs the first freezing CAS.
//! * A **helper** that read the reference `(pid, seq)` from a node reads
//!   the word, then the arguments, then the word again, and works from
//!   its copy only if the word still names `seq` in progress. The
//!   reference got into the node by a freezing CAS of SCX `seq`, made
//!   after the creator wrote that SCX's arguments, so the helper reads
//!   those or a later SCX's; a later SCX bumped the word first, and the
//!   re-check sees the bump. Every write it makes to the word is a CAS
//!   that names `seq`, so once the record has moved on it writes nothing
//!   there. The writes it may still make to nodes are the late helper
//!   steps Figure 2 already tolerates: a freezing CAS expects an `info`
//!   value that P1 never lets recur, marks are idempotent, and `old`
//!   never returns to `fld`.
//! * A reader that finds the word naming a later `seq` knows the SCX
//!   finished. The node's `marked` bit says how: marked means the SCX
//!   finalized it (only the SCX a node is frozen for marks it, and only
//!   after every node of `V` is frozen, when it can no longer abort);
//!   unmarked means the node is unfrozen, whether the SCX committed with it
//!   outside `R` or aborted. `llx_tx` reads the word transactionally, so a
//!   reuse aborts a middle-path transaction like any state change.
//!
//! **Why the `V` nodes a helper touches are still allocated.** A helper
//! acts only after it saw the SCX in progress under its own epoch pin, and
//! the creator stays pinned from its first LLX of `V` until the SCX
//! settles.
//!
//! * Nodes the SCX has frozen, and the nodes it marks or whose `fld` it
//!   CASes (all frozen by then), cannot be unlinked before the SCX
//!   settles. A fallback or middle-path operation sees them frozen and
//!   fails or aborts. The uninstrumented fast path commits only while no
//!   operation is on the fallback path (`F = 0`), and the creator's
//!   operation is. So their retirement follows the helper's observation,
//!   and the helper's pin defers their free.
//! * Nodes the SCX has not frozen are the exception. Another update may
//!   have unlinked and retired one after the creator's LLX and before the
//!   helper pinned. Then only the creator's pin defers its free, and the
//!   creator may settle the SCX (by aborting on that node), unpin, and let
//!   the epoch advance before the helper's freezing CAS reaches the node.
//!   On a pooled tree the block stays mapped, and a CAS that succeeds on a
//!   recycled node (one that holds `info = 0` again) freezes it only for
//!   an SCX that has already aborted, which every reader takes as
//!   unfrozen; on an unpooled tree the CAS touches freed memory. The
//!   original Figure 2 scheme has the same window, and it stays open.

#![warn(missing_docs)]

mod engine;
mod handle;
mod info;
mod record;

pub use engine::{ScxEngine, ScxThread};
pub use handle::{LlxHandle, LlxResult, ScxHeader, Snapshot, MAX_MUT};
pub use info::{classify, pack_tseq, unpack_tseq, InfoState, TSEQ_PID_BITS};
pub use record::{ScxRecord, MAX_V};

/// Arguments to an SCX: the frozen set `V`, the finalize subset `R` (as a
/// bitmask over `V`), the field to modify and its old/new values.
pub struct ScxArgs<'a> {
    /// Handles from this thread's linked LLXs, in the data structure's
    /// canonical freezing order.
    pub v: &'a [&'a LlxHandle],
    /// Bitmask over `v`: which nodes to finalize (the paper's `R ⊆ V`).
    pub r_mask: u32,
    /// The mutable field to change (must belong to a node in `v`).
    pub fld: &'a threepath_htm::TxCell,
    /// Value `fld` held at the linked LLX of its owner.
    pub old: u64,
    /// New value for `fld`. Per the template's ABA-freedom requirement this
    /// must never have been stored in `fld` before (in practice: a pointer
    /// to a freshly allocated node).
    pub new: u64,
}
