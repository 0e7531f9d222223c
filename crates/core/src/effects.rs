//! Deferred side effects of transactional attempts.
//!
//! Code running inside a transaction must not retire nodes — the attempt
//! may abort, leaving the structure untouched. Instead it records the
//! retirements in an [`Effects`] buffer; the attempt wrapper applies them
//! only after the transaction commits.
//! Conversely, nodes *allocated* inside a transaction are tracked so an
//! abort can free them (an aborted transaction published nothing, so they
//! are provably unreachable — which is also why the undo path may return
//! them to the thread's node pool immediately, with no grace period).

use threepath_reclaim::ReclaimCtx;

/// A type-erased action on a pointer that needs the thread's reclamation
/// context (to reach its node pool).
type CtxAction = unsafe fn(*mut u8, &ReclaimCtx);

unsafe fn retire_node_erased<T: Send>(p: *mut u8, ctx: &ReclaimCtx) {
    // SAFETY: forwarded from `defer_retire`'s contract.
    unsafe { ctx.retire_node(p as *mut T) };
}

unsafe fn return_node_erased<T: Send>(p: *mut u8, ctx: &ReclaimCtx) {
    // SAFETY: forwarded from `alloc` tracking — the node was never
    // published (the attempt aborted or explicitly un-published it).
    unsafe { ctx.dealloc_unpublished(p as *mut T) };
}

/// The room a buffer of [`Effects`] makes on its first push: a batch plan
/// of 8 updates (the server's default cap) allocates or retires at most
/// two nodes per update, so it never grows a buffer past this.
const INITIAL_CAPACITY: usize = 16;

/// Pushes onto one of an [`Effects`]' buffers, sizing an empty one to
/// [`INITIAL_CAPACITY`] instead of growing it step by step.
fn push(v: &mut Vec<(*mut u8, CtxAction)>, entry: (*mut u8, CtxAction)) {
    if v.capacity() == 0 {
        v.reserve_exact(INITIAL_CAPACITY);
    }
    v.push(entry);
}

/// Buffered post-commit (and post-abort) actions for one transactional
/// attempt. [`Self::commit`] and [`Self::abort_cleanup`] leave the buffer
/// empty with its capacity kept, so one buffer serves attempt after
/// attempt without going back to the allocator.
#[derive(Default)]
pub struct Effects {
    retire: Vec<(*mut u8, CtxAction)>,
    allocs: Vec<(*mut u8, CtxAction)>,
}

impl Effects {
    /// An empty buffer.
    pub const fn new() -> Self {
        Effects {
            retire: Vec::new(),
            allocs: Vec::new(),
        }
    }

    /// Defers retiring `ptr` (a node that the transaction unlinks) until
    /// the transaction commits; the retirement goes through
    /// [`ReclaimCtx::retire_node`], so pooled nodes recycle.
    ///
    /// # Safety
    ///
    /// Same contract as [`ReclaimCtx::retire_node`], holding at the time
    /// [`Effects::commit`] runs.
    pub unsafe fn defer_retire<T: Send>(&mut self, ptr: *mut T) {
        push(&mut self.retire, (ptr as *mut u8, retire_node_erased::<T>));
    }

    /// Allocates a node through `ctx` (pooled when the domain pools) and
    /// tracks the allocation: if the attempt aborts, the node returns to
    /// the pool (nothing was published); if it commits, the node has been
    /// linked into the structure and is kept.
    pub fn alloc<T: Send>(&mut self, ctx: &ReclaimCtx, val: T) -> *mut T {
        let p = ctx.alloc(val);
        push(&mut self.allocs, (p as *mut u8, return_node_erased::<T>));
        p
    }

    /// Stops tracking an allocation made with [`Self::alloc`] and frees it
    /// now (back to the pool). For paths that decide *within* the attempt
    /// not to publish a node.
    ///
    /// # Safety
    ///
    /// `ptr` must have come from [`Self::alloc`] on this buffer (allocated
    /// through `ctx`'s domain) and must not have been published.
    pub unsafe fn free_unpublished<T: Send>(&mut self, ctx: &ReclaimCtx, ptr: *mut T) {
        let raw = ptr as *mut u8;
        if let Some(i) = self.allocs.iter().position(|(p, _)| *p == raw) {
            let (p, ret) = self.allocs.swap_remove(i);
            // SAFETY: tracked allocation, unpublished per contract.
            unsafe { ret(p, ctx) };
        }
    }

    /// Whether nothing was deferred or tracked.
    pub fn is_empty(&self) -> bool {
        self.retire.is_empty() && self.allocs.is_empty()
    }

    /// Applies the deferred retirements through `ctx` after a successful
    /// commit. Tracked allocations are simply released from tracking (they
    /// are now owned by the structure).
    pub fn commit(&mut self, ctx: &ReclaimCtx) {
        for (ptr, retire) in self.retire.drain(..) {
            // SAFETY: per defer_retire's contract; the transaction that
            // unlinked these nodes has committed.
            unsafe { retire(ptr, ctx) };
        }
        // Cleared without freeing: the nodes are published.
        self.allocs.clear();
    }

    /// Cleans up after an abort: returns tracked allocations to the pool
    /// (the transaction had no effect, so they were never published and
    /// need no grace period) and discards deferred retirements (the nodes
    /// are still linked).
    pub fn abort_cleanup(&mut self, ctx: &ReclaimCtx) {
        self.retire.clear();
        for (ptr, ret) in self.allocs.drain(..) {
            // SAFETY: allocated by `alloc` and unpublished (attempt aborted).
            unsafe { ret(ptr, ctx) };
        }
    }
}

impl std::fmt::Debug for Effects {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Effects")
            .field("retire", &self.retire.len())
            .field("allocs", &self.allocs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use threepath_reclaim::{Domain, PoolConfig, ReclaimMode};

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn ctx() -> ReclaimCtx {
        Domain::register(&Arc::new(Domain::new(ReclaimMode::Epoch)))
    }

    #[test]
    fn abort_cleanup_frees_allocs_and_discards_retires() {
        let ctx = ctx();
        let count = Arc::new(AtomicUsize::new(0));
        let mut e = Effects::new();
        let _a = e.alloc(&ctx, DropCounter(count.clone()));
        let r = Box::into_raw(Box::new(0u64));
        unsafe { e.defer_retire(r) };
        e.abort_cleanup(&ctx);
        assert!(e.is_empty());
        assert_eq!(count.load(Ordering::Relaxed), 1, "alloc freed on abort");
        // The deferred retire must NOT have freed r.
        drop(unsafe { Box::from_raw(r) });
    }

    #[test]
    fn free_unpublished_releases_single_alloc() {
        let ctx = ctx();
        let count = Arc::new(AtomicUsize::new(0));
        let mut e = Effects::new();
        let a = e.alloc(&ctx, DropCounter(count.clone()));
        let _b = e.alloc(&ctx, DropCounter(count.clone()));
        unsafe { e.free_unpublished(&ctx, a) };
        assert_eq!(count.load(Ordering::Relaxed), 1);
        e.abort_cleanup(&ctx);
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pooled_abort_cleanup_returns_blocks_to_the_pool() {
        let domain = Arc::new(Domain::with_pool(ReclaimMode::Epoch, PoolConfig::default()));
        let ctx = Domain::register(&domain);
        let count = Arc::new(AtomicUsize::new(0));
        let mut e = Effects::new();
        let a = e.alloc(&ctx, DropCounter(count.clone()));
        let addr = a as usize;
        e.abort_cleanup(&ctx);
        assert_eq!(count.load(Ordering::Relaxed), 1, "dropped in place");
        assert_eq!(ctx.pool_stats().unpublished_returns, 1);
        // The same block is handed straight back out.
        let b = ctx.alloc(0u64);
        assert_eq!(b as usize, addr);
        unsafe { ctx.dealloc_unpublished(b) };
    }
}
