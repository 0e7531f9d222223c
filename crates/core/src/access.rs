//! Memory-access modes.
//!
//! Sequential data-structure code (the fast path and TLE's under-lock
//! fallback) is written once, generic over [`Mem`], and instantiated with
//! [`TxMem`] (transactional) or [`DirectMem`] (plain coordinated access).
//! This mirrors how the paper derives each path from the same operation
//! logic. Read-only traversals need less: they are generic over
//! [`TxRead`], which every [`Mem`] and
//! [`TemplateMode`](crate::TemplateMode) provides, as do a bare [`Txn`]
//! and, as direct loads, a bare `&HtmRuntime`.

use threepath_htm::{Abort, HtmRuntime, TxCell, Txn};
use threepath_reclaim::ReclaimCtx;

use crate::effects::Effects;

/// A way of reading [`TxCell`]s: transactionally (can abort) or with direct
/// loads (never fails).
pub trait TxRead {
    /// Reads a cell.
    fn read(&mut self, cell: &TxCell) -> Result<u64, Abort>;

    /// Reads consecutive cells into `out` (same length). The transactional
    /// and direct modes validate once per cache line ([`Txn::read_span`],
    /// [`HtmRuntime::load_span_direct`]); the default reads cell by cell.
    fn read_span(&mut self, cells: &[TxCell], out: &mut [u64]) -> Result<(), Abort> {
        assert_eq!(cells.len(), out.len(), "span and output differ in length");
        for (c, o) in cells.iter().zip(out) {
            *o = self.read(c)?;
        }
        Ok(())
    }

    /// Reads a cell as a raw pointer.
    fn read_ptr<T>(&mut self, cell: &TxCell) -> Result<*mut T, Abort> {
        self.read(cell).map(|v| v as *mut T)
    }
}

/// A bare transaction: reads join its read set.
impl TxRead for Txn<'_> {
    fn read(&mut self, cell: &TxCell) -> Result<u64, Abort> {
        Txn::read(self, cell)
    }
    fn read_span(&mut self, cells: &[TxCell], out: &mut [u64]) -> Result<(), Abort> {
        Txn::read_span(self, cells, out)
    }
}

/// Bare direct loads: the runtime's seqlock-coordinated reads, for
/// searches that run outside any transaction under an epoch pin.
impl TxRead for &HtmRuntime {
    fn read(&mut self, cell: &TxCell) -> Result<u64, Abort> {
        Ok(cell.load_direct(self))
    }
    fn read_span(&mut self, cells: &[TxCell], out: &mut [u64]) -> Result<(), Abort> {
        self.load_span_direct(cells, out);
        Ok(())
    }
}

/// A way of reading and writing [`TxCell`]s and retiring unlinked nodes.
///
/// Direct access never fails; transactional access can abort — generic code
/// uses `?` uniformly and the direct instantiation simply never takes the
/// error branch.
pub trait Mem: TxRead {
    /// Writes a cell.
    fn write(&mut self, cell: &TxCell, v: u64) -> Result<(), Abort>;

    /// Schedules an unlinked node for reclamation through
    /// [`ReclaimCtx::retire_node`] (pooled nodes recycle on expiry):
    /// immediately in direct mode, post-commit in transactional mode. Call
    /// only on success paths (after the unlinking write is durable or
    /// inside the transaction that performs it). A node's `info` value
    /// references nothing that needs releasing (see
    /// [`ScxHeader::info`](threepath_llxscx::ScxHeader::info)).
    ///
    /// # Safety
    ///
    /// Same contract as [`ReclaimCtx::retire_node`].
    unsafe fn retire<T: Send>(&mut self, ptr: *mut T);

    /// Allocates a node on the heap. In transactional mode the allocation
    /// is tracked and freed automatically if the attempt aborts.
    fn alloc<T: Send>(&mut self, val: T) -> *mut T;

    /// Frees a node allocated with [`Self::alloc`] that the operation
    /// decided not to publish.
    ///
    /// # Safety
    ///
    /// `ptr` must come from this mode's `alloc` during the current attempt
    /// and must not have been written into any reachable cell.
    unsafe fn free_unpublished<T: Send>(&mut self, ptr: *mut T);

    /// Writes a raw pointer into a cell.
    fn write_ptr<T>(&mut self, cell: &TxCell, p: *mut T) -> Result<(), Abort> {
        self.write(cell, p as u64)
    }
}

/// Transactional access: reads and writes go through the enclosing
/// transaction; retirements are buffered until commit. Allocations come
/// from the thread's node pool (when the domain pools) and return there
/// automatically if the attempt aborts.
pub struct TxMem<'a, 'b> {
    tx: &'a mut Txn<'b>,
    effects: &'a mut Effects,
    reclaim: &'a ReclaimCtx,
}

impl<'a, 'b> TxMem<'a, 'b> {
    /// Wraps a transaction, an effects buffer and the calling thread's
    /// reclamation context (the allocation seam).
    pub fn new(tx: &'a mut Txn<'b>, effects: &'a mut Effects, reclaim: &'a ReclaimCtx) -> Self {
        TxMem {
            tx,
            effects,
            reclaim,
        }
    }

    /// The wrapped transaction.
    pub fn txn(&mut self) -> &mut Txn<'b> {
        self.tx
    }
}

impl TxRead for TxMem<'_, '_> {
    fn read(&mut self, cell: &TxCell) -> Result<u64, Abort> {
        self.tx.read(cell)
    }
    fn read_span(&mut self, cells: &[TxCell], out: &mut [u64]) -> Result<(), Abort> {
        self.tx.read_span(cells, out)
    }
}

impl Mem for TxMem<'_, '_> {
    fn write(&mut self, cell: &TxCell, v: u64) -> Result<(), Abort> {
        self.tx.write(cell, v)
    }
    unsafe fn retire<T: Send>(&mut self, ptr: *mut T) {
        // SAFETY: forwarded contract, applied post-commit.
        unsafe { self.effects.defer_retire(ptr) };
    }
    fn alloc<T: Send>(&mut self, val: T) -> *mut T {
        self.effects.alloc(self.reclaim, val)
    }
    unsafe fn free_unpublished<T: Send>(&mut self, ptr: *mut T) {
        // SAFETY: forwarded contract.
        unsafe { self.effects.free_unpublished(self.reclaim, ptr) };
    }
}

/// Direct access: seqlock-coordinated loads and stores, outside any
/// transaction. Used by the TLE fallback (which holds the global lock) and
/// by wait-free searches on the software path.
pub struct DirectMem<'a> {
    rt: &'a HtmRuntime,
    reclaim: &'a ReclaimCtx,
}

impl<'a> DirectMem<'a> {
    /// Wraps a runtime and the calling thread's reclamation context (which
    /// must be pinned for the duration of use).
    pub fn new(rt: &'a HtmRuntime, reclaim: &'a ReclaimCtx) -> Self {
        debug_assert!(reclaim.is_pinned());
        DirectMem { rt, reclaim }
    }
}

impl TxRead for DirectMem<'_> {
    fn read(&mut self, cell: &TxCell) -> Result<u64, Abort> {
        Ok(cell.load_direct(self.rt))
    }
    fn read_span(&mut self, cells: &[TxCell], out: &mut [u64]) -> Result<(), Abort> {
        self.rt.load_span_direct(cells, out);
        Ok(())
    }
}

impl Mem for DirectMem<'_> {
    fn write(&mut self, cell: &TxCell, v: u64) -> Result<(), Abort> {
        cell.store_direct(self.rt, v);
        Ok(())
    }
    unsafe fn retire<T: Send>(&mut self, ptr: *mut T) {
        // SAFETY: forwarded contract.
        unsafe { self.reclaim.retire_node(ptr) };
    }
    fn alloc<T: Send>(&mut self, val: T) -> *mut T {
        self.reclaim.alloc(val)
    }
    unsafe fn free_unpublished<T: Send>(&mut self, ptr: *mut T) {
        // SAFETY: unpublished per contract; direct mode applies writes
        // immediately, so the caller is the sole owner — the block goes
        // straight back to the pool.
        unsafe { self.reclaim.dealloc_unpublished(ptr) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use threepath_htm::HtmConfig;
    use threepath_reclaim::{Domain, ReclaimMode};

    fn double<M: Mem>(m: &mut M, c: &TxCell) -> Result<u64, Abort> {
        let v = m.read(c)?;
        m.write(c, v * 2)?;
        m.read(c)
    }

    #[test]
    fn generic_code_runs_in_both_modes() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        let ctx = Domain::register(&domain);
        let c = TxCell::new(21);

        ctx.enter();
        let mut direct = DirectMem::new(&rt, &ctx);
        assert_eq!(double(&mut direct, &c).unwrap(), 42);
        ctx.exit();

        let mut th = rt.register_thread();
        let mut eff = Effects::new();
        let r = rt.attempt(&mut th, |tx| {
            let mut m = TxMem::new(tx, &mut eff, &ctx);
            double(&mut m, &c)
        });
        assert_eq!(r.unwrap(), 84);
        assert_eq!(c.load_direct(&rt), 84);
    }

    #[test]
    fn pointer_helpers() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        let ctx = Domain::register(&domain);
        let c = TxCell::new(0);
        let mut x = 5u32;
        ctx.enter();
        let mut m = DirectMem::new(&rt, &ctx);
        m.write_ptr(&c, &mut x as *mut u32).unwrap();
        assert_eq!(m.read_ptr::<u32>(&c).unwrap(), &mut x as *mut u32);
        ctx.exit();
    }

    #[test]
    fn tx_retire_applies_only_on_commit() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        let ctx = Domain::register(&domain);
        let mut th = rt.register_thread();
        let mut eff = Effects::new();
        let p = Box::into_raw(Box::new(0u64));
        let _: Result<(), _> = rt.attempt(&mut th, |tx| {
            let mut m = TxMem::new(tx, &mut eff, &ctx);
            // SAFETY: test owns p.
            unsafe { m.retire(p) };
            Err(tx.abort(0))
        });
        // Aborted: the retirement must be discarded, not applied.
        eff.abort_cleanup(&ctx);
        assert_eq!(domain.retired_total(), 0);
        drop(unsafe { Box::from_raw(p) });
        drop(ctx);
    }
}
