//! SCX-records: the descriptors that coordinate fallback-path SCXs. Each
//! process owns one record per engine and reuses it for every SCX it
//! creates (see the crate docs, "Reusing SCX-records").

use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use threepath_htm::{HtmRuntime, TxCell, MAX_THREADS};

use crate::handle::ScxHeader;
use crate::ScxArgs;

/// Maximum length of an SCX's `V` sequence (the largest template operation
/// in this workspace freezes 4 nodes; 8 leaves headroom).
pub const MAX_V: usize = 8;

/// SCX-record states (paper Figure 2).
pub(crate) mod state {
    pub const IN_PROGRESS: u64 = 0;
    pub const COMMITTED: u64 = 1;
    pub const ABORTED: u64 = 2;
}

const STATE_MASK: u64 = 3;
const ALL_FROZEN: u64 = 4;
const WORD_SEQ_SHIFT: u32 = 3;

/// A record's one mutable word: the sequence number of the SCX it
/// describes, that SCX's state, and whether every node of its `V` is
/// frozen (which tells "SCX already succeeded" from "SCX must abort" when
/// a freezing CAS fails).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Word(pub(crate) u64);

impl Word {
    pub(crate) fn new(seq: u64, state: u64, all_frozen: bool) -> Word {
        Word(seq << WORD_SEQ_SHIFT | if all_frozen { ALL_FROZEN } else { 0 } | state)
    }

    pub(crate) fn seq(self) -> u64 {
        self.0 >> WORD_SEQ_SHIFT
    }

    pub(crate) fn state(self) -> u64 {
        self.0 & STATE_MASK
    }

    pub(crate) fn all_frozen(self) -> bool {
        self.0 & ALL_FROZEN != 0
    }

    /// The state of the SCX `seq`, or `None` if the record has moved on
    /// to a later SCX (so `seq` finished).
    pub(crate) fn of(self, seq: u64) -> Option<u64> {
        (self.seq() == seq).then_some(self.state())
    }
}

/// Words of an SCX's arguments (see [`Scx`]).
const ARGS: usize = 4 + 2 * MAX_V;

/// One SCX's arguments, as the words its record stores: `len | r_mask <<
/// 8`, `fld`, `old`, `new`, then per node of `V` its header and the `info`
/// value its linked LLX read (the freezing CAS's expected value). The
/// creator publishes them; a helper works from a copy it validated.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scx([u64; ARGS]);

impl Scx {
    pub(crate) fn new(args: &ScxArgs<'_>) -> Scx {
        let v = args.v;
        assert!(v.len() <= MAX_V, "SCX V sequence longer than MAX_V");
        assert!(!v.is_empty(), "SCX requires a non-empty V sequence");
        debug_assert!(
            (args.r_mask as u64) < (1u64 << v.len()),
            "r_mask has bits beyond V"
        );
        let mut w = [0; ARGS];
        let shape = v.len() as u64 | (args.r_mask as u64) << 8;
        w[..4].copy_from_slice(&[shape, args.fld as *const TxCell as u64, args.old, args.new]);
        for (e, h) in w[4..].chunks_exact_mut(2).zip(v) {
            e.copy_from_slice(&[h.header_ptr() as u64, h.info_observed()]);
        }
        Scx(w)
    }

    /// `(header, expected info)` of each node of `V`, in freezing order.
    /// (A torn copy is clamped to `MAX_V` nodes; it is never followed.)
    pub(crate) fn entries(&self) -> impl Iterator<Item = (*const ScxHeader, u64)> + '_ {
        let len = (self.0[0] as usize & 0xff).min(MAX_V);
        self.0[4..4 + 2 * len]
            .chunks_exact(2)
            .map(|e| (e[0] as *const ScxHeader, e[1]))
    }

    /// Bitmask over `V`: the nodes to finalize.
    pub(crate) fn r_mask(&self) -> u32 {
        (self.0[0] >> 8) as u32
    }

    /// The field to change, and its old and new values.
    pub(crate) fn update(&self) -> (*const TxCell, u64, u64) {
        (self.0[1] as *const TxCell, self.0[2], self.0[3])
    }
}

/// An SCX-record: all the information needed for any process to *help* an
/// in-progress SCX complete (paper Figure 2's `SCX-record` type).
///
/// A process's record describes its latest fallback-path SCX. The creator
/// bumps the sequence number in the record's one mutable word, then
/// writes the arguments; a helper reads the word, the arguments, and the
/// word again, and uses the arguments only if the sequence number it
/// expects is still there.
/// Records live as long as their engine.
pub struct ScxRecord {
    /// The [`Word`]: the one field helpers write, always by a CAS that
    /// names the SCX's sequence number.
    word: TxCell,
    args: [AtomicU64; ARGS],
}

impl ScxRecord {
    fn new() -> Self {
        ScxRecord {
            // Sequence number 0 is never an SCX's: each process's first
            // `next_tseq` returns 1.
            word: TxCell::new(Word::new(0, state::COMMITTED, false).0),
            args: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The word cell (read transactionally by `llx_tx`).
    pub(crate) fn word_cell(&self) -> &TxCell {
        &self.word
    }

    pub(crate) fn word(&self, rt: &HtmRuntime) -> Word {
        Word(self.word.load_direct(rt))
    }

    /// Moves the word from `from` to `to`; on failure returns the word
    /// found.
    pub(crate) fn cas(&self, rt: &HtmRuntime, from: Word, to: Word) -> Result<(), Word> {
        let r = self.word.cas_direct(rt, from.0, to.0);
        r.map(drop).map_err(Word)
    }

    /// Starts the creator's SCX `seq`: bumps the word, then writes the
    /// arguments. Only the record's owner calls this, and only once its
    /// previous SCX has finished.
    pub(crate) fn publish(&self, rt: &HtmRuntime, seq: u64, scx: &Scx) {
        let w = Word::new(seq, state::IN_PROGRESS, false);
        self.word.store_direct(rt, w.0);
        // Release: a helper that reads any of these values reads the word
        // bump before it too, so its re-check sees the new sequence number.
        for (a, &v) in self.args.iter().zip(&scx.0) {
            a.store(v, Ordering::Release);
        }
    }

    /// Reads the arguments. They are some SCX's only if the word still
    /// names its sequence number afterwards; until then no pointer in them
    /// may be followed.
    pub(crate) fn fields(&self) -> Scx {
        Scx(std::array::from_fn(|i| {
            self.args[i].load(Ordering::Acquire)
        }))
    }
}

const CHUNK_BITS: u32 = 6;
const CHUNK_LEN: usize = 1 << CHUNK_BITS;

/// A pointer that owns its pointee once set: filled by CAS on first use,
/// freed on drop.
struct Slot<T>(AtomicPtr<T>);

impl<T> Slot<T> {
    fn empty() -> Self {
        Slot(AtomicPtr::new(ptr::null_mut()))
    }

    /// The pointee, which `make` builds if the slot is empty. A racing
    /// allocation loses the CAS and is freed.
    fn get_or_init(&self, make: impl FnOnce() -> T) -> &T {
        let mut p = self.0.load(Ordering::Acquire);
        if p.is_null() {
            let fresh = Box::into_raw(Box::new(make()));
            let (null, order) = (ptr::null_mut(), Ordering::AcqRel);
            p = match self
                .0
                .compare_exchange(null, fresh, order, Ordering::Acquire)
            {
                Ok(_) => fresh,
                Err(cur) => {
                    // SAFETY: `fresh` was never published.
                    drop(unsafe { Box::from_raw(fresh) });
                    cur
                }
            };
        }
        // SAFETY: a published pointee lives until the slot drops.
        unsafe { &*p }
    }

    /// The pointee of a slot the caller knows is filled.
    fn get(&self) -> &T {
        let p = self.0.load(Ordering::Acquire);
        assert!(!p.is_null(), "an info value names a missing SCX-record");
        // SAFETY: filled before the install that named it (release/acquire
        // through the info field); lives until the slot drops.
        unsafe { &*p }
    }
}

impl<T> Drop for Slot<T> {
    fn drop(&mut self) {
        let p = *self.0.get_mut();
        if !p.is_null() {
            // SAFETY: exclusive access; `p` came from `Box::into_raw`.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

fn slots<T, const N: usize>() -> [Slot<T>; N] {
    std::array::from_fn(|_| Slot::empty())
}

/// Each process's record, by pid: a directory of chunks of records, each
/// level allocated on first use, so a lookup takes no lock. Nothing is
/// allocated before the engine's first fallback-path SCX, and everything
/// is freed with the engine.
pub(crate) struct Records(Slot<[Slot<[Slot<ScxRecord>; CHUNK_LEN]>; MAX_THREADS / CHUNK_LEN]>);

impl Records {
    pub(crate) fn new() -> Self {
        Records(Slot::empty())
    }

    /// The record of `pid`, allocated on the process's first call.
    pub(crate) fn own(&self, pid: u16) -> &ScxRecord {
        let chunk = self.0.get_or_init(slots)[pid as usize >> CHUNK_BITS].get_or_init(slots);
        chunk[pid as usize % CHUNK_LEN].get_or_init(ScxRecord::new)
    }

    /// The record of `pid`, which exists: an `info` value named it, and a
    /// record is allocated before its first reference is installed.
    pub(crate) fn get(&self, pid: u16) -> &ScxRecord {
        self.0.get()[pid as usize >> CHUNK_BITS].get()[pid as usize % CHUNK_LEN].get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_packs_seq_state_and_frozen_bit() {
        let w = Word::new(1 << 46, state::ABORTED, true);
        assert_eq!(
            (w.seq(), w.state(), w.all_frozen()),
            (1 << 46, state::ABORTED, true)
        );
        let w = Word::new(5, state::IN_PROGRESS, false);
        assert_eq!(
            (w.seq(), w.state(), w.all_frozen()),
            (5, state::IN_PROGRESS, false)
        );
    }

    #[test]
    fn records_are_found_by_pid_and_allocated_once() {
        let recs = Records::new();
        assert!(
            recs.0 .0.load(Ordering::Relaxed).is_null(),
            "nothing before first use"
        );
        for pid in [0u16, 63, 64, (MAX_THREADS - 1) as u16] {
            let a = recs.own(pid) as *const ScxRecord;
            assert_eq!(recs.own(pid) as *const ScxRecord, a);
            assert_eq!(recs.get(pid) as *const ScxRecord, a);
        }
        assert_ne!(
            recs.get(0) as *const ScxRecord,
            recs.get(63) as *const ScxRecord
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_v_rejected() {
        let fld = TxCell::new(0);
        let _ = Scx::new(&ScxArgs {
            v: &[],
            r_mask: 0,
            fld: &fld,
            old: 0,
            new: 1,
        });
    }
}
