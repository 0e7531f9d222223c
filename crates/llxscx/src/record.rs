//! SCX-records: the descriptor objects that coordinate fallback-path SCXs.

use std::sync::atomic::{AtomicU64, Ordering};

use threepath_htm::TxCell;
use threepath_reclaim::ReclaimCtx;

use crate::handle::{LlxHandle, ScxHeader};

/// Maximum length of an SCX's `V` sequence (the largest template operation
/// in this workspace freezes 4 nodes; 8 leaves headroom).
pub const MAX_V: usize = 8;

/// SCX-record states (paper Figure 2).
pub(crate) mod state {
    pub const IN_PROGRESS: u64 = 0;
    pub const COMMITTED: u64 = 1;
    pub const ABORTED: u64 = 2;
}

/// One `(data-record, expected info)` pair of an SCX's `V` sequence.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordEntry {
    pub(crate) hdr: *const ScxHeader,
    /// Value of `hdr.info` read by the linked LLX (the freezing CAS's
    /// expected value).
    pub(crate) rinfo: u64,
}

/// An SCX-record: all the information needed for any process to *help* an
/// in-progress SCX complete (paper Figure 2's `SCX-record` type).
///
/// Reclamation: reference-counted by installs; see the crate docs.
pub struct ScxRecord {
    /// `InProgress`, `Committed` or `Aborted`.
    pub(crate) state: TxCell,
    /// Set once every node in `V` is frozen; distinguishes "SCX already
    /// succeeded" from "SCX must abort" when a freezing CAS fails.
    pub(crate) all_frozen: TxCell,
    /// Install reference count (creation holds 1).
    pub(crate) refs: AtomicU64,
    pub(crate) len: u8,
    pub(crate) v: [RecordEntry; MAX_V],
    /// Bitmask over `v`: nodes to finalize.
    pub(crate) r_mask: u32,
    pub(crate) fld: *const TxCell,
    pub(crate) old: u64,
    pub(crate) new: u64,
}

// SAFETY: ScxRecord is shared across threads by design; its raw pointers
// reference epoch-protected nodes, and all mutation goes through atomics.
unsafe impl Send for ScxRecord {}
unsafe impl Sync for ScxRecord {}

impl ScxRecord {
    /// Builds a record from LLX handles. Creation holds one reference.
    pub(crate) fn new(v: &[&LlxHandle], r_mask: u32, fld: &TxCell, old: u64, new: u64) -> Self {
        assert!(v.len() <= MAX_V, "SCX V sequence longer than MAX_V");
        assert!(!v.is_empty(), "SCX requires a non-empty V sequence");
        debug_assert!(
            (r_mask as u64) < (1u64 << v.len()),
            "r_mask has bits beyond V"
        );
        let mut entries = [RecordEntry {
            hdr: std::ptr::null(),
            rinfo: 0,
        }; MAX_V];
        for (i, h) in v.iter().enumerate() {
            entries[i] = RecordEntry {
                hdr: h.header_ptr(),
                rinfo: h.info_observed(),
            };
        }
        ScxRecord {
            state: TxCell::new(state::IN_PROGRESS),
            all_frozen: TxCell::new(0),
            refs: AtomicU64::new(1),
            len: v.len() as u8,
            v: entries,
            r_mask,
            fld,
            old,
            new,
        }
    }

    pub(crate) fn entries(&self) -> &[RecordEntry] {
        &self.v[..self.len as usize]
    }

    /// Adds an install reference, unless the count already reached zero
    /// (in which case the record is condemned and must not be re-installed:
    /// resurrecting a condemned record would race with its retirement).
    pub(crate) fn try_acquire(&self) -> bool {
        let mut cur = self.refs.load(Ordering::Acquire);
        loop {
            if cur == 0 {
                return false;
            }
            match self
                .refs
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(c) => cur = c,
            }
        }
    }

    /// Drops a reference; returns `true` if this was the last one (caller
    /// must then retire the record).
    pub(crate) fn release(&self) -> bool {
        let prev = self.refs.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev >= 1, "ScxRecord refcount underflow");
        prev == 1
    }
}

/// Drops one reference to `rec`; the holder of the last one retires the
/// record through `reclaim`.
///
/// # Safety
///
/// The caller owns one reference to `rec` and holds an epoch pin of
/// `reclaim`'s domain (or has exclusive access to the structure).
pub(crate) unsafe fn release_ref(reclaim: &ReclaimCtx, rec: *mut ScxRecord) {
    // SAFETY: the caller's reference keeps the record alive.
    if unsafe { &*rec }.release() {
        // SAFETY: last reference: the record is in no info field, and
        // threads still holding its raw pointer are pinned.
        unsafe { reclaim.retire(rec) };
    }
}

impl std::fmt::Debug for ScxRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScxRecord")
            .field("state", &self.state.load_plain())
            .field("all_frozen", &self.all_frozen.load_plain())
            .field("refs", &self.refs.load(Ordering::Relaxed))
            .field("len", &self.len)
            .field("r_mask", &self.r_mask)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Snapshot;

    #[test]
    fn refcount_lifecycle() {
        let hdr = ScxHeader::new();
        let h = LlxHandle::new(&hdr, 0, Snapshot::with_len(0));
        let fld = TxCell::new(0);
        let rec = ScxRecord::new(&[&h], 0b1, &fld, 0, 42);
        assert_eq!(rec.refs.load(Ordering::Relaxed), 1);
        assert!(rec.try_acquire());
        assert!(!rec.release());
        assert!(rec.release());
        // Condemned records cannot be re-acquired.
        assert!(!rec.try_acquire());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_v_rejected() {
        let fld = TxCell::new(0);
        let _ = ScxRecord::new(&[], 0, &fld, 0, 1);
    }
}
