//! Data-record headers, LLX snapshots and handles.

use threepath_htm::{HtmRuntime, TxCell};

/// Maximum number of mutable fields a Data-record may expose to LLX
/// (the relaxed (a,b)-tree uses `b = 16` child pointers).
pub const MAX_MUT: usize = 16;

/// The LLX/SCX bookkeeping embedded at the start of every Data-record:
/// the `info` field (freezing word) and the `marked` bit (finalization).
#[derive(Debug, Default)]
pub struct ScxHeader {
    info: TxCell,
    marked: TxCell,
}

impl ScxHeader {
    /// A fresh, unfrozen, unmarked header.
    pub fn new() -> Self {
        ScxHeader {
            info: TxCell::new(0),
            marked: TxCell::new(0),
        }
    }

    /// The `info` cell: `0`, a tagged sequence number, or a reference to
    /// an SCX by its creator's pid and sequence number (see
    /// [`crate::InfoState`]). No value is a pointer, and none is ever
    /// stored twice (property P1), so a node needs nothing released when
    /// it is retired.
    pub fn info(&self) -> &TxCell {
        &self.info
    }

    /// The `marked` cell (`0` or `1`). A marked node whose record has
    /// committed is *finalized*: its mutable fields can never change again.
    pub fn marked(&self) -> &TxCell {
        &self.marked
    }

    /// Direct (non-transactional) read of the marked bit.
    pub fn is_marked_direct(&self, rt: &HtmRuntime) -> bool {
        self.marked.load_direct(rt) != 0
    }
}

/// A snapshot of a Data-record's mutable fields, as returned by LLX.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    vals: [u64; MAX_MUT],
    len: u8,
}

impl Snapshot {
    /// A snapshot of `len` fields, all 0 until filled through
    /// [`Self::as_mut_slice`].
    pub(crate) fn with_len(len: usize) -> Self {
        assert!(
            len <= MAX_MUT,
            "data-record exposes more than MAX_MUT mutable fields"
        );
        Snapshot {
            vals: [0; MAX_MUT],
            len: len as u8,
        }
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [u64] {
        &mut self.vals[..self.len as usize]
    }

    /// The snapshotted values, in `mutable_cells` order.
    pub fn as_slice(&self) -> &[u64] {
        &self.vals[..self.len as usize]
    }

    /// Value of the `i`-th mutable field.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> u64 {
        self.as_slice()[i]
    }

    /// Value of the `i`-th mutable field, as a pointer.
    pub fn get_ptr<T>(&self, i: usize) -> *mut T {
        self.get(i) as *mut T
    }

    /// Number of snapshotted fields.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the record exposed no mutable fields.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The result of a successful LLX: everything a later linked SCX needs.
///
/// Holds the raw header pointer, the `info` value observed (the SCX's
/// freezing CAS expects it unchanged), and the snapshot. Valid only while
/// the epoch pin under which the LLX ran is still held.
#[derive(Debug, Clone, Copy)]
pub struct LlxHandle {
    hdr: *const ScxHeader,
    info: u64,
    snap: Snapshot,
}

impl LlxHandle {
    pub(crate) fn new(hdr: *const ScxHeader, info: u64, snap: Snapshot) -> Self {
        LlxHandle { hdr, info, snap }
    }

    /// The header this LLX observed.
    pub fn header(&self) -> &ScxHeader {
        // SAFETY: the handle is only usable while the creating operation's
        // epoch pin is held, which keeps the node alive.
        unsafe { &*self.hdr }
    }

    pub(crate) fn header_ptr(&self) -> *const ScxHeader {
        self.hdr
    }

    /// The `info` value observed by the LLX.
    pub fn info_observed(&self) -> u64 {
        self.info
    }

    /// The snapshot of mutable fields.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }
}

/// Outcome of an LLX.
#[derive(Debug, Clone, Copy)]
pub enum LlxResult {
    /// The record was unfrozen: a consistent snapshot was taken.
    Snapshot(LlxHandle),
    /// The record is finalized (removed from the data structure and frozen
    /// forever).
    Finalized,
    /// The LLX was concurrent with an SCX involving the record; retry.
    Fail,
}

impl LlxResult {
    /// Returns the handle if a snapshot was taken.
    pub fn handle(self) -> Option<LlxHandle> {
        match self {
            LlxResult::Snapshot(h) => Some(h),
            _ => None,
        }
    }

    /// Whether the LLX failed transiently.
    pub fn is_fail(&self) -> bool {
        matches!(self, LlxResult::Fail)
    }

    /// Whether the record was finalized.
    pub fn is_finalized(&self) -> bool {
        matches!(self, LlxResult::Finalized)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_accessors() {
        assert!(Snapshot::with_len(0).is_empty());
        let mut s = Snapshot::with_len(2);
        s.as_mut_slice().copy_from_slice(&[7, 9]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.as_slice(), &[7, 9]);
        assert_eq!(s.get(1), 9);
        assert_eq!(s.get_ptr::<u8>(0) as u64, 7);
    }

    #[test]
    #[should_panic(expected = "MAX_MUT")]
    fn snapshot_overflow_panics() {
        let _ = Snapshot::with_len(MAX_MUT + 1);
    }

    #[test]
    fn llx_result_helpers() {
        assert!(LlxResult::Fail.is_fail());
        assert!(LlxResult::Finalized.is_finalized());
        assert!(LlxResult::Fail.handle().is_none());
        let hdr = ScxHeader::new();
        let h = LlxHandle::new(&hdr, 0, Snapshot::with_len(0));
        assert!(LlxResult::Snapshot(h).handle().is_some());
    }
}
