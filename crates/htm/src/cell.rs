//! Transactional memory cells.
//!
//! All shared memory that can be touched by a transaction lives in
//! [`TxCell`]s (or the typed [`TxPtr`] wrapper). Cells support two access
//! modes:
//!
//! * **transactional** — through [`Txn::read`](crate::Txn::read) /
//!   [`Txn::write`](crate::Txn::write);
//! * **direct** — `load_direct` / `store_direct` / `cas_direct`, which
//!   coordinate with the commit protocol through the runtime's per-line
//!   seqlocks. This is what gives the simulation *strong atomicity*: a
//!   direct read never observes a half-committed transaction, and a direct
//!   write forces conflicting transactions to abort at validation.

use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::runtime::HtmRuntime;
use crate::LINE_BYTES;

/// A 64-bit word of transactionally-accessible shared memory.
///
/// The cell itself is a plain atomic; the concurrency-control metadata (the
/// seqlock/version word) lives in the runtime's hashed line table, keyed by
/// the cell's address, mimicking how real HTM tracks physical cache lines
/// rather than program variables.
#[derive(Debug)]
#[repr(transparent)]
pub struct TxCell {
    raw: AtomicU64,
}

impl TxCell {
    /// Creates a cell holding `v`.
    pub const fn new(v: u64) -> Self {
        TxCell {
            raw: AtomicU64::new(v),
        }
    }

    pub(crate) fn raw(&self) -> &AtomicU64 {
        &self.raw
    }

    pub(crate) fn addr(&self) -> usize {
        self as *const TxCell as usize
    }

    /// Reads the cell outside any transaction, coordinating with concurrent
    /// transactional commits (never observes a partial commit).
    pub fn load_direct(&self, rt: &HtmRuntime) -> u64 {
        load_line_direct(rt, self.addr(), || self.raw.load(Ordering::Acquire))
    }

    /// Writes the cell outside any transaction. Conflicting transactions
    /// observe the version change and abort, exactly as a non-transactional
    /// store invalidates a hardware transaction's read set.
    pub fn store_direct(&self, rt: &HtmRuntime, v: u64) {
        let line = rt.line_for(self.addr());
        let orig = lock_line(line);
        self.raw.store(v, Ordering::Release);
        line.store(rt.write_version(orig), Ordering::Release);
    }

    /// Compare-and-swap outside any transaction.
    ///
    /// Returns `Ok(expected)` on success and `Err(actual)` on failure, like
    /// [`AtomicU64::compare_exchange`].
    pub fn cas_direct(&self, rt: &HtmRuntime, expected: u64, new: u64) -> Result<u64, u64> {
        let line = rt.line_for(self.addr());
        let orig = lock_line(line);
        let cur = self.raw.load(Ordering::Acquire);
        if cur == expected {
            self.raw.store(new, Ordering::Release);
            line.store(rt.write_version(orig), Ordering::Release);
            Ok(expected)
        } else {
            // Nothing changed: restore the original version so concurrent
            // optimistic readers need not re-validate.
            line.store(orig, Ordering::Release);
            Err(cur)
        }
    }

    /// Atomic fetch-and-add outside any transaction. Used for the paper's
    /// fetch-and-increment object `F` that counts fallback-path operations.
    pub fn fetch_add_direct(&self, rt: &HtmRuntime, delta: u64) -> u64 {
        let line = rt.line_for(self.addr());
        let orig = lock_line(line);
        let cur = self.raw.load(Ordering::Acquire);
        self.raw.store(cur.wrapping_add(delta), Ordering::Release);
        line.store(rt.write_version(orig), Ordering::Release);
        cur
    }

    /// Atomic fetch-and-sub outside any transaction.
    pub fn fetch_sub_direct(&self, rt: &HtmRuntime, delta: u64) -> u64 {
        self.fetch_add_direct(rt, 0u64.wrapping_sub(delta))
    }

    /// Relaxed load without seqlock coordination.
    ///
    /// Only correct when the cell is quiescent (e.g. during validation with
    /// all threads stopped) or when the caller tolerates torn logical state
    /// (e.g. statistics).
    pub fn load_plain(&self) -> u64 {
        self.raw.load(Ordering::Relaxed)
    }

    /// Plain store without coordination.
    ///
    /// # Safety
    ///
    /// Callers must guarantee no concurrent transactional or direct access
    /// to this cell — e.g. during node initialization before publication, or
    /// while recycling a node that is provably unreachable.
    pub unsafe fn store_plain(&self, v: u64) {
        self.raw.store(v, Ordering::Relaxed);
    }
}

impl Default for TxCell {
    fn default() -> Self {
        TxCell::new(0)
    }
}

/// Runs `load` inside one seqlock read of the line holding `addr`: spins
/// (yielding now and then) until the line is unlocked and its version is
/// the same before and after `load`. Every load `load` makes from that
/// line therefore sees one committed state of it.
#[inline(always)]
pub(crate) fn load_line_direct<T>(rt: &HtmRuntime, addr: usize, mut load: impl FnMut() -> T) -> T {
    let line = rt.line_for(addr);
    let mut spins = 0u32;
    loop {
        let v1 = line.load(Ordering::Acquire);
        if v1 & 1 == 0 {
            let val = load();
            fence(Ordering::Acquire);
            if line.load(Ordering::Acquire) == v1 {
                return val;
            }
        }
        spins += 1;
        if spins % 64 == 0 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Splits `cells` into its maximal runs that lie on one 64-byte line, in
/// order. A span reader validates each run with one line-version check.
pub(crate) fn line_runs(cells: &[TxCell]) -> impl Iterator<Item = &[TxCell]> {
    let mut rest = cells;
    std::iter::from_fn(move || {
        let first = rest.first()?;
        let room = (LINE_BYTES - first.addr() % LINE_BYTES) / std::mem::size_of::<TxCell>();
        let (run, tail) = rest.split_at(room.min(rest.len()));
        rest = tail;
        Some(run)
    })
}

/// Spin until the line's seqlock is acquired; returns the pre-lock version.
/// The lock is `SeqCst`, so it comes before the writer's clock load in
/// the one order a snapshot's clock operations also take part in.
pub(crate) fn lock_line(line: &AtomicU64) -> u64 {
    let mut spins = 0u32;
    loop {
        let v = line.load(Ordering::Acquire);
        if v & 1 == 0
            && line
                .compare_exchange_weak(v, v | 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
        {
            return v;
        }
        spins += 1;
        if spins % 64 == 0 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// A typed pointer-valued [`TxCell`].
///
/// Stores the address of a `T` (or null). This is pure data from the type
/// system's point of view: *dereferencing* a loaded pointer remains the
/// caller's (unsafe) responsibility, justified in this workspace by
/// epoch-based reclamation.
#[repr(transparent)]
pub struct TxPtr<T> {
    cell: TxCell,
    _marker: PhantomData<*mut T>,
}

// SAFETY: a TxPtr is just an atomic word; no `T` is owned or dereferenced by
// the cell itself.
unsafe impl<T> Send for TxPtr<T> {}
unsafe impl<T> Sync for TxPtr<T> {}

impl<T> TxPtr<T> {
    /// A null pointer cell.
    pub const fn null() -> Self {
        TxPtr {
            cell: TxCell::new(0),
            _marker: PhantomData,
        }
    }

    /// A cell holding `p`.
    pub fn new(p: *mut T) -> Self {
        TxPtr {
            cell: TxCell::new(p as u64),
            _marker: PhantomData,
        }
    }

    /// The untyped cell (for use with [`Txn`](crate::Txn) operations).
    pub fn cell(&self) -> &TxCell {
        &self.cell
    }

    /// Direct (non-transactional) pointer load.
    pub fn load_direct(&self, rt: &HtmRuntime) -> *mut T {
        self.cell.load_direct(rt) as *mut T
    }

    /// Direct (non-transactional) pointer store.
    pub fn store_direct(&self, rt: &HtmRuntime, p: *mut T) {
        self.cell.store_direct(rt, p as u64);
    }

    /// Direct compare-and-swap of pointers.
    pub fn cas_direct(&self, rt: &HtmRuntime, expected: *mut T, new: *mut T) -> Result<(), *mut T> {
        self.cell
            .cas_direct(rt, expected as u64, new as u64)
            .map(|_| ())
            .map_err(|actual| actual as *mut T)
    }

    /// Relaxed pointer load without coordination (see [`TxCell::load_plain`]).
    pub fn load_plain(&self) -> *mut T {
        self.cell.load_plain() as *mut T
    }

    /// Plain store without coordination.
    ///
    /// # Safety
    ///
    /// Same contract as [`TxCell::store_plain`].
    pub unsafe fn store_plain(&self, p: *mut T) {
        self.cell.store_plain(p as u64);
    }
}

impl<T> std::fmt::Debug for TxPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TxPtr({:#x})", self.cell.load_plain())
    }
}

impl<T> Default for TxPtr<T> {
    fn default() -> Self {
        TxPtr::null()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HtmConfig;

    #[test]
    fn direct_ops_round_trip() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let c = TxCell::new(5);
        assert_eq!(c.load_direct(&rt), 5);
        c.store_direct(&rt, 9);
        assert_eq!(c.load_direct(&rt), 9);
        assert_eq!(c.cas_direct(&rt, 9, 11), Ok(9));
        assert_eq!(c.cas_direct(&rt, 9, 13), Err(11));
        assert_eq!(c.load_direct(&rt), 11);
        assert_eq!(c.fetch_add_direct(&rt, 3), 11);
        assert_eq!(c.fetch_sub_direct(&rt, 4), 14);
        assert_eq!(c.load_direct(&rt), 10);
    }

    #[test]
    fn line_runs_split_at_line_boundaries() {
        #[repr(C, align(64))]
        struct Lines([TxCell; 24]);
        let a = Lines(std::array::from_fn(|i| TxCell::new(i as u64)));
        let lens = |cells: &[TxCell]| line_runs(cells).map(<[TxCell]>::len).collect::<Vec<_>>();
        assert_eq!(lens(&a.0), vec![8, 8, 8]);
        assert_eq!(lens(&a.0[3..19]), vec![5, 8, 3]);
        assert_eq!(lens(&a.0[9..12]), vec![3]);
        assert_eq!(lens(&a.0[5..5]), Vec::<usize>::new());
        let first: Vec<u64> = line_runs(&a.0[6..20]).map(|r| r[0].load_plain()).collect();
        assert_eq!(first, vec![6, 8, 16]);
    }

    #[test]
    fn tx_ptr_round_trip() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let mut x = 42u32;
        let p = TxPtr::<u32>::null();
        assert!(p.load_direct(&rt).is_null());
        p.store_direct(&rt, &mut x);
        assert_eq!(p.load_direct(&rt), &mut x as *mut u32);
        assert!(p.cas_direct(&rt, &mut x, std::ptr::null_mut()).is_ok());
        assert!(p.load_direct(&rt).is_null());
    }

    #[test]
    fn concurrent_fetch_add_is_atomic() {
        let rt = std::sync::Arc::new(HtmRuntime::new(HtmConfig::default()));
        let c = std::sync::Arc::new(TxCell::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rt = rt.clone();
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.fetch_add_direct(&rt, 1);
                    }
                });
            }
        });
        assert_eq!(c.load_direct(&rt), 4000);
    }
}
