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
//!   CAS-based algorithm (paper Figure 2), including helping via
//!   [`ScxRecord`]s, freezing, marking and finalization;
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
//! # Memory reclamation of SCX-records
//!
//! SCX-records are reference-counted by *installs*: creating a record holds
//! one reference; each successful freezing CAS adds one; whatever replaces a
//! record pointer in an `info` field releases one. When the count reaches
//! zero the record is retired through the epoch [`Domain`] (no live `info`
//! field references it, and any thread still holding a raw pointer is
//! pinned).
//!
//! Replacement alone does not drain the count: two kinds of node keep their
//! `info` value until they die. A node finalized by a committed `scx_orig`
//! (the `R` set) is never frozen again, and a node in `V \ R` may later be
//! unlinked by the uninstrumented fast path, which never writes `info`. So
//! **retiring a node releases the install reference its `info` field
//! holds** ([`ScxHeader::release_install`]; every template path retires
//! through it, and a tree releases the references its live nodes hold when
//! it drops). This is sound only because no SCX can replace a retired
//! node's `info` value afterwards (a second release), which each retire
//! site guarantees:
//!
//! * **Fallback path** (`scx_orig`, then retire): the retired nodes are the
//!   `R` set of the committed record. They are marked before the record
//!   commits, so no LLX of them returns a snapshot again (it reports
//!   *finalized*), no SCX can be linked to them, and no freezing CAS can
//!   expect their current `info` value. Helpers of the record itself find
//!   it already installed.
//! * **Middle path** (the HTM template, retire after commit): the
//!   transaction wrote a fresh tagged sequence number into every node of
//!   `V`, retired ones included, so their `info` is already tagged and the
//!   release finds no record. The record it replaced was released through
//!   [`ScxEngine::release_replaced`].
//! * **Fast path** (sequential code, retire after commit; also TLE's and a
//!   batch's locked section): the transaction subscribed to the fallback
//!   indicator `F` and committed with `F = 0`, so no operation was on the
//!   fallback path, and only fallback operations create or help records.
//!   Any that arrives later searches from the root after the unlink and
//!   cannot reach the node. A middle-path transaction that had read the
//!   node conflicts with the unlink and aborts. TLE never creates a
//!   record, and a batch's locked section drains `F` and excludes
//!   transactions through the lock before it touches the tree.
//!
//! A thread that reads a record pointer from a node under its pin stays
//! safe: either the node still held its reference at the read, or the node
//! was unlinked while the thread was already pinned, and in both cases the
//! record's retirement follows the start of the pin.
//!
//! [`Domain`]: threepath_reclaim::Domain

#![warn(missing_docs)]

mod engine;
mod handle;
mod info;
mod record;

pub use engine::{ScxEngine, ScxThread};
pub use handle::{LlxHandle, LlxResult, ScxHeader, Snapshot, MAX_MUT};
pub use info::{pack_tseq, unpack_tseq, InfoState, TSEQ_PID_BITS};
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
