//! Template-operation modes: the same tree-update-template code runs on the
//! software path (original LLX/SCX) or inside a transaction (HTM LLX/SCX),
//! depending on which [`TemplateMode`] it is instantiated with.

use threepath_htm::{codes, Abort, TxCell, Txn};
use threepath_llxscx::{LlxHandle, LlxResult, ScxArgs, ScxEngine, ScxHeader, ScxThread};
use threepath_reclaim::ReclaimCtx;

use crate::access::Mem;
use crate::effects::Effects;

/// Result of one template-operation attempt body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpOutcome<T> {
    /// The operation completed (its SCX succeeded, or it decided no change
    /// was needed).
    Done(T),
    /// Transient failure (LLX failed, node finalized, or SCX lost a race):
    /// re-run the operation from its search phase. Only produced in
    /// [`OrigMode`]; transactional modes abort instead.
    Retry,
}

impl<T> OpOutcome<T> {
    /// Unwraps `Done`, panicking on `Retry`.
    pub fn unwrap_done(self) -> T {
        match self {
            OpOutcome::Done(t) => t,
            OpOutcome::Retry => panic!("operation outcome was Retry"),
        }
    }
}

/// How a template operation performs its LLXs, SCX, and traversal reads.
///
/// Implementors: [`OrigMode`] (software path) and [`TxMode`] (HTM paths).
pub trait TemplateMode {
    /// Performs an LLX on a node.
    ///
    /// Returns `Ok(None)` when the operation should retry from scratch
    /// (software path), or aborts the transaction (HTM paths).
    fn llx(&mut self, hdr: &ScxHeader, mutable: &[TxCell]) -> Result<Option<LlxHandle>, Abort>;

    /// Performs the operation's SCX. `Ok(false)` means the SCX failed and
    /// the operation should retry (software path only).
    fn scx(&mut self, args: &ScxArgs<'_>) -> Result<bool, Abort>;

    /// Reads a cell during the search phase.
    fn read(&mut self, cell: &TxCell) -> Result<u64, Abort>;

    /// Schedules `ptr` for reclamation once the operation's success is
    /// durable (immediately on the software path, post-commit on HTM paths).
    /// Call only after [`Self::scx`] returned `Ok(true)`.
    ///
    /// # Safety
    ///
    /// Same contract as [`threepath_reclaim::ReclaimCtx::retire`].
    unsafe fn retire<T: Send>(&mut self, ptr: *mut T);

    /// Allocates a node; in transactional mode the allocation is freed
    /// automatically if the attempt aborts.
    fn alloc<T: Send>(&mut self, val: T) -> *mut T;

    /// Frees a node allocated with [`Self::alloc`] that will not be
    /// published (e.g. after a failed SCX on the software path).
    ///
    /// # Safety
    ///
    /// `ptr` must come from this mode's `alloc` during the current attempt
    /// and must not have been written into any reachable cell.
    unsafe fn free_unpublished<T: Send>(&mut self, ptr: *mut T);

    /// Reads a cell as a pointer.
    fn read_ptr<T>(&mut self, cell: &TxCell) -> Result<*mut T, Abort> {
        self.read(cell).map(|v| v as *mut T)
    }
}

/// Software-path mode: the original CAS-based LLX/SCX with helping.
pub struct OrigMode<'a> {
    eng: &'a ScxEngine,
    th: &'a ScxThread,
}

impl<'a> OrigMode<'a> {
    /// Creates the mode. The caller must hold an epoch pin for the whole
    /// operation attempt.
    pub fn new(eng: &'a ScxEngine, th: &'a ScxThread) -> Self {
        debug_assert!(th.reclaim.is_pinned());
        OrigMode { eng, th }
    }
}

impl TemplateMode for OrigMode<'_> {
    fn llx(&mut self, hdr: &ScxHeader, mutable: &[TxCell]) -> Result<Option<LlxHandle>, Abort> {
        match self.eng.llx(self.th, hdr, mutable) {
            LlxResult::Snapshot(h) => Ok(Some(h)),
            // Fail: a concurrent SCX is in flight (we already helped it).
            // Finalized: the node left the structure; re-search.
            LlxResult::Fail | LlxResult::Finalized => Ok(None),
        }
    }

    fn scx(&mut self, args: &ScxArgs<'_>) -> Result<bool, Abort> {
        Ok(self.eng.scx_orig(self.th, args))
    }

    fn read(&mut self, cell: &TxCell) -> Result<u64, Abort> {
        Ok(cell.load_direct(self.eng.runtime()))
    }

    unsafe fn retire<T: Send>(&mut self, ptr: *mut T) {
        // SAFETY: forwarded contract; pooled nodes recycle on expiry.
        unsafe { self.th.reclaim.retire_node(ptr) };
    }
    fn alloc<T: Send>(&mut self, val: T) -> *mut T {
        self.th.reclaim.alloc(val)
    }
    unsafe fn free_unpublished<T: Send>(&mut self, ptr: *mut T) {
        // SAFETY: the SCX that would have published `ptr` failed (or was
        // never attempted), so the caller is the sole owner — the block
        // goes straight back to the pool.
        unsafe { self.th.reclaim.dealloc_unpublished(ptr) };
    }
}

/// HTM-path mode: the operation runs inside one transaction; LLX/SCX become
/// the paper's transformed versions (tagged sequence numbers, no helping,
/// no SCX-records).
pub struct TxMode<'a, 'b> {
    eng: &'a ScxEngine,
    tx: &'a mut Txn<'b>,
    tseq: u64,
    effects: &'a mut Effects,
    reclaim: &'a ReclaimCtx,
}

impl<'a, 'b> TxMode<'a, 'b> {
    /// Creates the mode for one transactional attempt. `tseq` is the
    /// thread's fresh tagged sequence number for this attempt; `reclaim`
    /// is the calling thread's reclamation context (the allocation seam).
    pub fn new(
        eng: &'a ScxEngine,
        tx: &'a mut Txn<'b>,
        tseq: u64,
        effects: &'a mut Effects,
        reclaim: &'a ReclaimCtx,
    ) -> Self {
        TxMode {
            eng,
            tx,
            tseq,
            effects,
            reclaim,
        }
    }

    /// The underlying transaction.
    pub fn txn(&mut self) -> &mut Txn<'b> {
        self.tx
    }
}

impl TemplateMode for TxMode<'_, '_> {
    fn llx(&mut self, hdr: &ScxHeader, mutable: &[TxCell]) -> Result<Option<LlxHandle>, Abort> {
        match self.eng.llx_tx(self.tx, hdr, mutable)? {
            LlxResult::Snapshot(h) => Ok(Some(h)),
            // No helping inside transactions (paper Section 4): abort and
            // let the attempt policy escalate; helping happens once the
            // operation reaches the software path.
            LlxResult::Fail => Err(Abort::explicit(codes::LLX_FAIL)),
            LlxResult::Finalized => Err(Abort::explicit(codes::LLX_FINALIZED)),
        }
    }

    fn scx(&mut self, args: &ScxArgs<'_>) -> Result<bool, Abort> {
        self.eng.scx_tx(self.tx, self.tseq, args)?;
        // The committed transaction will have replaced each frozen node's
        // info value; release the replaced records' references then.
        for h in args.v {
            self.effects.defer_release_info(h.info_observed());
        }
        Ok(true)
    }

    fn read(&mut self, cell: &TxCell) -> Result<u64, Abort> {
        self.tx.read(cell)
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

/// Adapts a [`TemplateMode`] to the [`Mem`] interface for `Mem`-generic
/// code running *inside* a template operation, such as read-only
/// traversals. Template operations mutate nodes only through LLX/SCX, so
/// raw writes stay unreachable; the adapter exposes reads, allocation and
/// retirement.
pub struct TemplateMem<'m, M: TemplateMode>(pub &'m mut M);

impl<M: TemplateMode> Mem for TemplateMem<'_, M> {
    fn read(&mut self, cell: &TxCell) -> Result<u64, Abort> {
        self.0.read(cell)
    }
    fn write(&mut self, _cell: &TxCell, _v: u64) -> Result<(), Abort> {
        unreachable!("template operations write only through LLX/SCX")
    }
    unsafe fn retire<T: Send>(&mut self, ptr: *mut T) {
        // SAFETY: forwarded contract.
        unsafe { self.0.retire(ptr) };
    }
    fn alloc<T: Send>(&mut self, val: T) -> *mut T {
        self.0.alloc(val)
    }
    unsafe fn free_unpublished<T: Send>(&mut self, ptr: *mut T) {
        // SAFETY: forwarded contract.
        unsafe { self.0.free_unpublished(ptr) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_outcome_unwrap() {
        assert_eq!(OpOutcome::Done(5).unwrap_done(), 5);
    }

    #[test]
    #[should_panic(expected = "Retry")]
    fn op_outcome_retry_panics() {
        OpOutcome::<u32>::Retry.unwrap_done();
    }
}
