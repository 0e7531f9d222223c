//! Limbo bags: type-erased retired objects awaiting a grace period.

use crate::pool::NodePool;

/// How a retired object's memory is returned once its grace period ends.
pub(crate) enum Disposal {
    /// Run the destructor, which also deallocates (a `Box`-allocated
    /// object owning its memory).
    Dealloc(unsafe fn(*mut u8)),
    /// Drop the object in place and push its block back onto a node-pool
    /// free list of `class` (the block's memory belongs to an arena
    /// chunk, never deallocated individually).
    Recycle {
        drop: unsafe fn(*mut u8),
        class: u8,
    },
}

/// A retired heap object with its disposal method.
pub(crate) struct Retired {
    ptr: *mut u8,
    disposal: Disposal,
}

// SAFETY: retired objects are required to be `Send` at `retire` time; the
// type-erased wrapper inherits that contract.
unsafe impl Send for Retired {}

unsafe fn drop_in_place_erased<T>(p: *mut u8) {
    unsafe { std::ptr::drop_in_place(p as *mut T) };
}

impl Retired {
    /// Type-erases `ptr` (a `Box<T>`-allocated object).
    ///
    /// # Safety
    ///
    /// `ptr` must have been produced by `Box::into_raw` and must not be
    /// freed by anyone else.
    pub(crate) unsafe fn new<T: Send>(ptr: *mut T) -> Self {
        unsafe fn drop_box<T>(p: *mut u8) {
            drop(unsafe { Box::from_raw(p as *mut T) });
        }
        Retired {
            ptr: ptr as *mut u8,
            disposal: Disposal::Dealloc(drop_box::<T>),
        }
    }

    /// Wraps an already type-erased pointer and destructor.
    ///
    /// # Safety callers' contract
    ///
    /// `dtor(ptr)` must be sound to call exactly once.
    pub(crate) fn from_raw(ptr: *mut u8, dtor: unsafe fn(*mut u8)) -> Self {
        Retired {
            ptr,
            disposal: Disposal::Dealloc(dtor),
        }
    }

    /// Type-erases a pool-allocated object of size class `class`.
    ///
    /// # Safety
    ///
    /// `ptr` must have come from a node-pool hand-out of `class` in the
    /// same domain, hold a valid `T`, and not be freed by anyone else.
    pub(crate) unsafe fn recycle<T: Send>(ptr: *mut T, class: u8) -> Self {
        Retired {
            ptr: ptr as *mut u8,
            disposal: Disposal::Recycle {
                drop: drop_in_place_erased::<T>,
                class,
            },
        }
    }

    /// Destroys the object without a pool: `Dealloc` objects free their
    /// memory; `Recycle` objects are only dropped in place (their block's
    /// memory belongs to an arena chunk the domain frees later). Used at
    /// domain drop and in leak mode.
    pub(crate) fn free(self) {
        // SAFETY: constructed from a valid allocation; consumed by value,
        // so each object is destroyed once.
        match self.disposal {
            Disposal::Dealloc(dtor) => unsafe { dtor(self.ptr) },
            Disposal::Recycle { drop, .. } => unsafe { drop(self.ptr) },
        }
    }

    /// Destroys the object, returning `Recycle` blocks to `pool` for
    /// reuse. The steady-state expiry path.
    pub(crate) fn settle(self, pool: &mut NodePool) {
        match self.disposal {
            // SAFETY: as in `free`.
            Disposal::Dealloc(dtor) => unsafe { dtor(self.ptr) },
            Disposal::Recycle { drop, class } => unsafe {
                drop(self.ptr);
                // SAFETY: per `recycle`'s contract the block came from a
                // pool of this domain; its grace period just ended.
                pool.recycle(class, self.ptr);
            },
        }
    }
}

/// The capacity a settled bag keeps. A bag that grew past it while the
/// epoch could not advance (a pinned thread descheduled) gives the excess
/// back when it settles, instead of holding it until its thread exits.
/// The benchmark workloads' bags stay far below it between such stalls
/// (at most 1 477 entries in their one-second runs), so steady-state
/// retiring never reallocates.
pub(crate) const BAG_KEEP_CAPACITY: usize = 4096;

/// A bag of objects retired during one epoch.
#[derive(Default)]
pub(crate) struct Bag {
    /// The epoch during which the current contents were retired.
    pub(crate) epoch: u64,
    pub(crate) items: Vec<Retired>,
}

impl Bag {
    /// Destroys all contents, recycling pooled blocks into `pool`, and
    /// trims the buffer to [`BAG_KEEP_CAPACITY`]. Inlined into the epoch
    /// pin that every read takes: out of line, the pin's code changed and
    /// `read-mostly` lost 4–9% of its ops/s.
    #[inline]
    pub(crate) fn settle_all(&mut self, pool: &mut NodePool) -> usize {
        let n = self.items.len();
        for item in self.items.drain(..) {
            item.settle(pool);
        }
        if self.items.capacity() > BAG_KEEP_CAPACITY {
            self.trim();
        }
        n
    }

    /// Out of line and cold: it runs only after an epoch stall, and keeps
    /// the reallocation out of the inlined `settle_all`.
    #[cold]
    #[inline(never)]
    fn trim(&mut self) {
        self.items.shrink_to(BAG_KEEP_CAPACITY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn retired_frees_exactly_once() {
        let count = Arc::new(AtomicUsize::new(0));
        let p = Box::into_raw(Box::new(DropCounter(count.clone())));
        let r = unsafe { Retired::new(p) };
        assert_eq!(count.load(Ordering::Relaxed), 0);
        r.free();
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn bag_settles_all() {
        let count = Arc::new(AtomicUsize::new(0));
        let mut pool = NodePool::new(2);
        let mut bag = Bag::default();
        for _ in 0..10 {
            let p = Box::into_raw(Box::new(DropCounter(count.clone())));
            bag.items.push(unsafe { Retired::new(p) });
        }
        assert_eq!(bag.settle_all(&mut pool), 10);
        assert_eq!(count.load(Ordering::Relaxed), 10);
        assert_eq!(bag.settle_all(&mut pool), 0);
    }

    #[test]
    fn settling_a_stalled_bag_gives_its_buffer_back() {
        let count = Arc::new(AtomicUsize::new(0));
        let mut pool = NodePool::new(2);
        let mut bag = Bag::default();
        for _ in 0..10_000 {
            let p = Box::into_raw(Box::new(DropCounter(count.clone())));
            bag.items.push(unsafe { Retired::new(p) });
        }
        assert_eq!(bag.settle_all(&mut pool), 10_000);
        assert_eq!(count.load(Ordering::Relaxed), 10_000);
        assert!(
            bag.items.capacity() <= BAG_KEEP_CAPACITY,
            "{}",
            bag.items.capacity()
        );
        // A bag within the bound keeps its buffer.
        bag.items.reserve_exact(100);
        let kept = bag.items.capacity();
        bag.settle_all(&mut pool);
        assert_eq!(bag.items.capacity(), kept);
    }

    #[test]
    fn settle_recycles_pooled_objects_and_runs_their_drop() {
        let count = Arc::new(AtomicUsize::new(0));
        let mut pool = NodePool::new(2);
        let class = crate::pool::class_for(std::alloc::Layout::new::<DropCounter>()).unwrap();
        let block = pool.alloc_block(class) as *mut DropCounter;
        unsafe { block.write(DropCounter(count.clone())) };
        let mut bag = Bag::default();
        bag.items.push(unsafe { Retired::recycle(block, class) });
        let free_before = pool.free_blocks(class);
        assert_eq!(bag.settle_all(&mut pool), 1);
        assert_eq!(count.load(Ordering::Relaxed), 1, "object dropped in place");
        assert_eq!(pool.free_blocks(class), free_before + 1, "block recycled");
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn free_without_pool_drops_but_does_not_dealloc_pooled_blocks() {
        let count = Arc::new(AtomicUsize::new(0));
        let mut pool = NodePool::new(2);
        let class = crate::pool::class_for(std::alloc::Layout::new::<DropCounter>()).unwrap();
        let block = pool.alloc_block(class) as *mut DropCounter;
        unsafe { block.write(DropCounter(count.clone())) };
        let r = unsafe { Retired::recycle(block, class) };
        r.free();
        assert_eq!(count.load(Ordering::Relaxed), 1);
        // The block's memory is still owned by the pool's chunk; dropping
        // the pool deallocates it exactly once.
        drop(pool);
    }

    #[test]
    fn settle_also_handles_box_objects() {
        let count = Arc::new(AtomicUsize::new(0));
        let mut pool = NodePool::new(2);
        let p = Box::into_raw(Box::new(DropCounter(count.clone())));
        let r = unsafe { Retired::new(p) };
        r.settle(&mut pool);
        assert_eq!(count.load(Ordering::Relaxed), 1);
        assert_eq!(pool.stats().recycled, 0, "box objects are not recycled");
    }
}
