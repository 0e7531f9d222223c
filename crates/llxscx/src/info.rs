//! Encoding of `info` field values.
//!
//! An `info` field holds `0` or one word `seq | pid | kind | tag`:
//!
//! * `0` (**none**) — the node has never been frozen; treated as a committed
//!   SCX-record (the node is unfrozen);
//! * a **tagged sequence number** (`kind` = 0) — written by HTM-path SCXs;
//!   also treated as committed, with no record read;
//! * a **record reference** (`kind` = 1) — written by the freezing CAS of
//!   the original (fallback-path) SCX. It names the SCX by the creating
//!   process's id, whose one reusable [`ScxRecord`](crate::ScxRecord)
//!   describes it, and the sequence number the creator gave it.
//!
//! The tag bit (bit 0) is set in every non-zero value. Both kinds draw their
//! sequence numbers from the process's one counter
//! ([`ScxThread::next_tseq`](crate::ScxThread::next_tseq)), so no two
//! writes of either kind ever store the same value (property P1).

/// Bits reserved for the process id (the paper suggests 1 tag bit + 15 pid
/// bits + 48 sequence bits on a 64-bit word; the kind bit leaves 47).
pub const TSEQ_PID_BITS: u32 = 15;

const TAG: u64 = 1;
const KIND_RECORD: u64 = 2;
const PID_SHIFT: u32 = 2;
const SEQ_SHIFT: u32 = PID_SHIFT + TSEQ_PID_BITS;

/// Classification of an `info` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InfoState {
    /// Never frozen (`0`): behaves like a committed record.
    None,
    /// A tagged sequence number: behaves like a committed record.
    Tagged,
    /// A reference to an SCX of some process's [`ScxRecord`](crate::ScxRecord).
    Record,
}

/// Classifies an `info` value.
#[inline]
pub fn classify(info: u64) -> InfoState {
    if info == 0 {
        InfoState::None
    } else if info & KIND_RECORD == 0 {
        InfoState::Tagged
    } else {
        InfoState::Record
    }
}

/// Packs a tagged sequence number from a process id and sequence number.
#[inline]
pub fn pack_tseq(pid: u16, seq: u64) -> u64 {
    debug_assert!((pid as u64) < (1 << TSEQ_PID_BITS));
    (seq << SEQ_SHIFT) | ((pid as u64) << PID_SHIFT) | TAG
}

/// Extracts `(pid, seq)` from a non-zero `info` value of either kind.
#[inline]
pub fn unpack_tseq(tseq: u64) -> (u16, u64) {
    debug_assert_eq!(tseq & TAG, TAG);
    (
        ((tseq >> PID_SHIFT) & ((1 << TSEQ_PID_BITS) - 1)) as u16,
        tseq >> SEQ_SHIFT,
    )
}

/// The record reference that shares `tseq`'s process id and sequence
/// number.
#[inline]
pub(crate) fn record_ref(tseq: u64) -> u64 {
    tseq | KIND_RECORD
}

/// The paper's `tseq := tseq + 2^{⌈log n⌉}`: advance the sequence field,
/// leaving tag and pid intact.
#[inline]
pub fn next_tseq(tseq: u64) -> u64 {
    tseq + (1u64 << SEQ_SHIFT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_values() {
        assert_eq!(classify(0), InfoState::None);
        assert_eq!(classify(pack_tseq(3, 9)), InfoState::Tagged);
        assert_eq!(classify(record_ref(pack_tseq(3, 9))), InfoState::Record);
        assert_eq!(unpack_tseq(record_ref(pack_tseq(3, 9))), (3, 9));
    }

    #[test]
    fn tseq_round_trip() {
        for pid in [0u16, 1, 7, 32767] {
            for seq in [0u64, 1, 48, 1 << 40] {
                let t = pack_tseq(pid, seq);
                assert_eq!(t & 1, 1, "tag bit set");
                assert_eq!(unpack_tseq(t), (pid, seq));
            }
        }
    }

    #[test]
    fn next_tseq_advances_only_seq() {
        let t = pack_tseq(11, 5);
        let t2 = next_tseq(t);
        assert_eq!(unpack_tseq(t2), (11, 6));
        assert_ne!(t, t2);
    }

    #[test]
    fn tseqs_never_collide_across_pids() {
        // Fresh values per (pid, seq): crucial for property P1.
        let a = pack_tseq(1, 100);
        let b = pack_tseq(2, 100);
        let c = pack_tseq(1, 101);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
