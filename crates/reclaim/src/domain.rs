//! The reclamation domain: global epoch, per-thread announcements, limbo
//! bags, node pools and the advance/collect protocol.

use std::alloc::Layout;
use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use threepath_htm::CachePadded;

use crate::bag::{Bag, Retired};
use crate::pool::{Chunks, ClassTable, NodePool, OrphanChain, PoolStats};
use crate::GRACE_EPOCHS;

/// How a domain reclaims retired objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReclaimMode {
    /// DEBRA-style epoch-based reclamation (the paper's default, \[5\]).
    Epoch,
    /// No per-operation reclamation work at all: retired objects are freed
    /// when the domain is dropped. This is the safe stand-in for the
    /// paper's §9 "immediate free inside transactions" optimization (see
    /// crate docs) and the baseline for the §9 ablation benchmark.
    Leak,
}

/// Node-pool configuration for a [`Domain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Whether contexts allocate nodes from per-thread pools
    /// ([`ReclaimCtx::alloc`]) and expired retirements recycle blocks
    /// instead of freeing them. When off, `alloc`/`retire_node` degrade to
    /// plain `Box` allocation and deallocation.
    pub enabled: bool,
    /// Blocks carved per arena chunk on a free-list miss (amortizes one
    /// global allocation over this many node hand-outs).
    pub chunk_blocks: usize,
    /// The domain's size-class table. Defaults to the standard table;
    /// structures with fat nodes add an exact-fit class with
    /// [`PoolConfig::with_class_of`] so they stop paying internal
    /// fragmentation.
    pub classes: ClassTable,
}

impl Default for PoolConfig {
    fn default() -> Self {
        // 64 class-0 blocks = one 4 KiB page per refill.
        PoolConfig {
            enabled: true,
            chunk_blocks: 64,
            classes: ClassTable::standard(),
        }
    }
}

impl PoolConfig {
    /// A configuration with pooling switched off (`Box` semantics).
    pub fn disabled() -> Self {
        PoolConfig {
            enabled: false,
            ..PoolConfig::default()
        }
    }

    /// Adds a dedicated size class exactly fitting `T` (see
    /// [`ClassTable::with_class_of`]).
    pub fn with_class_of<T>(mut self) -> Self {
        self.classes = self.classes.with_class_of::<T>();
        self
    }
}

const DEFAULT_SLOTS: usize = 512;
/// Try to advance the global epoch every this many pins.
const PIN_ADVANCE_PERIOD: u64 = 64;
/// Also try to advance whenever a limbo bag grows beyond this.
const BAG_ADVANCE_THRESHOLD: usize = 256;

/// One context's slot: its epoch announcement and its reclamation
/// counters, padded onto lines of their own. Only the context holding the
/// slot writes it, so retiring and freeing move no line between cores;
/// the counters outlive the context and keep counting for the next holder.
#[derive(Default)]
struct Slot {
    /// `(epoch << 1) | active`.
    announce: AtomicU64,
    /// Objects retired by the contexts that held this slot.
    retired: AtomicU64,
    /// Objects those contexts freed.
    freed: AtomicU64,
}

/// Adds `n` to a counter of the caller's own slot. A load and a store,
/// not a read-modify-write: the slot has one writer, and a slot changes
/// hands through the `free_slots` mutex, which orders the two holders.
fn bump(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

/// A reclamation domain. One per data structure instance. No field is
/// written per operation: each context writes only its own slot.
pub struct Domain {
    mode: ReclaimMode,
    pool_cfg: PoolConfig,
    epoch: CachePadded<AtomicU64>,
    slots: Box<[CachePadded<Slot>]>,
    /// High-water mark of allocated slots.
    slot_hwm: AtomicUsize,
    free_slots: Mutex<Vec<usize>>,
    /// Bags abandoned by dropped contexts; freed when the domain drops.
    orphans: Mutex<Vec<Retired>>,
    /// Free chains abandoned by dropped contexts; adopted by later pools.
    orphan_chains: Mutex<Vec<OrphanChain>>,
    /// Pool counters folded in by dropped contexts.
    pool_totals: Mutex<PoolStats>,
    /// Arena chunks from dropped contexts. Declared last: chunk memory
    /// must outlive the orphaned `Retired`s freed in `Drop::drop` and the
    /// orphan chains above.
    chunks: Mutex<Chunks>,
}

impl Domain {
    /// Creates a domain with the default slot capacity and node pooling
    /// disabled (plain `Box` allocation).
    pub fn new(mode: ReclaimMode) -> Self {
        Self::with_slots_and_pool(mode, DEFAULT_SLOTS, PoolConfig::disabled())
    }

    /// Creates a domain with per-thread node pools per `pool`.
    pub fn with_pool(mode: ReclaimMode, pool: PoolConfig) -> Self {
        Self::with_slots_and_pool(mode, DEFAULT_SLOTS, pool)
    }

    /// Creates a domain supporting up to `slots` concurrently live
    /// contexts, pooling disabled.
    pub fn with_slots(mode: ReclaimMode, slots: usize) -> Self {
        Self::with_slots_and_pool(mode, slots, PoolConfig::disabled())
    }

    /// Creates a domain with explicit slot capacity and pool configuration.
    ///
    /// # Panics
    ///
    /// Panics if `pool.enabled` and `pool.chunk_blocks == 0`.
    pub fn with_slots_and_pool(mode: ReclaimMode, slots: usize, pool: PoolConfig) -> Self {
        assert!(
            !pool.enabled || pool.chunk_blocks > 0,
            "pool chunk_blocks must be positive"
        );
        let mut v = Vec::with_capacity(slots);
        v.resize_with(slots, CachePadded::default);
        Domain {
            mode,
            pool_cfg: pool,
            epoch: CachePadded::new(AtomicU64::new(GRACE_EPOCHS + 1)),
            slots: v.into_boxed_slice(),
            slot_hwm: AtomicUsize::new(0),
            free_slots: Mutex::new(Vec::new()),
            orphans: Mutex::new(Vec::new()),
            orphan_chains: Mutex::new(Vec::new()),
            pool_totals: Mutex::new(PoolStats::default()),
            chunks: Mutex::new(Chunks::new()),
        }
    }

    /// The domain's reclamation mode.
    pub fn mode(&self) -> ReclaimMode {
        self.mode
    }

    /// Whether node pooling is enabled.
    pub fn pool_enabled(&self) -> bool {
        self.pool_cfg.enabled
    }

    /// The pool size class serving `T`, or `None` when `T` bypasses the
    /// pool (pooling disabled, or `T` too big or over-aligned). Allocation
    /// and retirement both derive the class from this, so they can never
    /// disagree on how a node's memory returns.
    pub fn class_of<T>(&self) -> Option<u8> {
        if !self.pool_cfg.enabled {
            return None;
        }
        self.pool_cfg.classes.class_for(Layout::new::<T>())
    }

    /// The pooled block size serving `T`, or `None` when `T` bypasses the
    /// pool. `block_size_of::<T>() - size_of::<T>()` is the internal
    /// fragmentation `T` pays per node — a structure that registers a
    /// dedicated class ([`PoolConfig::with_class_of`]) keeps it under one
    /// cache line.
    pub fn block_size_of<T>(&self) -> Option<usize> {
        self.class_of::<T>()
            .map(|c| self.pool_cfg.classes.block_size(c))
    }

    /// Registers the calling thread, returning its reclamation context.
    ///
    /// # Panics
    ///
    /// Panics if more contexts are simultaneously live than the domain has
    /// slots.
    pub fn register(domain: &Arc<Domain>) -> ReclaimCtx {
        let slot = {
            let mut free = domain.free_slots.lock().unwrap();
            free.pop()
        }
        .unwrap_or_else(|| {
            let s = domain.slot_hwm.fetch_add(1, Ordering::AcqRel);
            assert!(
                s < domain.slots.len(),
                "reclamation domain slot capacity exhausted"
            );
            s
        });
        domain.slots[slot].announce.store(0, Ordering::SeqCst);
        let chunk_blocks = domain.pool_cfg.chunk_blocks.max(1);
        ReclaimCtx {
            domain: Arc::clone(domain),
            slot,
            depth: Cell::new(0),
            pin_count: Cell::new(0),
            local_epoch: Cell::new(0),
            bags: UnsafeCell::new([Bag::default(), Bag::default(), Bag::default()]),
            pool: UnsafeCell::new(NodePool::with_table(chunk_blocks, domain.pool_cfg.classes)),
        }
    }

    /// Total objects retired so far: the sum of every slot's count, exact
    /// once the contexts that retire are quiet.
    pub fn retired_total(&self) -> u64 {
        self.sum_slots(|s| &s.retired)
    }

    /// Total objects actually freed so far (excluding domain drop). For
    /// pooled objects "freed" means dropped in place and recycled. Summed
    /// over the slots like [`Self::retired_total`].
    pub fn freed_total(&self) -> u64 {
        self.sum_slots(|s| &s.freed)
    }

    fn sum_slots(&self, counter: impl Fn(&Slot) -> &AtomicU64) -> u64 {
        // A register that found the slots exhausted still bumped the mark.
        let hwm = self.slot_hwm.load(Ordering::Acquire).min(self.slots.len());
        self.slots[..hwm]
            .iter()
            .map(|s| counter(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Pool counters folded in by contexts that have already dropped.
    /// Live contexts report through [`ReclaimCtx::pool_stats`]; for a full
    /// picture, read after the structure's handles are gone.
    pub fn pool_stats(&self) -> PoolStats {
        *self.pool_totals.lock().unwrap()
    }

    /// Blocks currently parked in orphaned free chains (from dropped
    /// contexts, awaiting adoption).
    pub fn orphan_chain_blocks(&self) -> u64 {
        self.orphan_chains.lock().unwrap().iter().map(|c| c.len).sum()
    }

    fn pop_orphan_chain(&self, class: u8) -> Option<OrphanChain> {
        let mut chains = self.orphan_chains.lock().unwrap();
        let i = chains.iter().position(|c| c.class == class)?;
        Some(chains.swap_remove(i))
    }

    /// Current global epoch (diagnostic).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Attempts one epoch advance: succeeds iff every active context has
    /// announced the current epoch.
    fn try_advance(&self) -> bool {
        let g = self.epoch.load(Ordering::SeqCst);
        let hwm = self.slot_hwm.load(Ordering::Acquire);
        for i in 0..hwm {
            let a = self.slots[i].announce.load(Ordering::SeqCst);
            if a & 1 == 1 && (a >> 1) != g {
                return false;
            }
        }
        self.epoch
            .compare_exchange(g, g + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

impl Drop for Domain {
    fn drop(&mut self) {
        // Orphaned retired objects are destroyed first; the arena chunks
        // (the `chunks` field) drop after this body, releasing the memory
        // that backed the pooled ones.
        let mut orphans = self.orphans.lock().unwrap();
        for r in orphans.drain(..) {
            r.free();
        }
    }
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domain")
            .field("mode", &self.mode)
            .field("pool", &self.pool_cfg)
            .field("epoch", &self.epoch())
            .field("retired", &self.retired_total())
            .field("freed", &self.freed_total())
            .finish()
    }
}

/// Per-thread reclamation context. Not `Sync`; create one per thread via
/// [`Domain::register`].
pub struct ReclaimCtx {
    domain: Arc<Domain>,
    slot: usize,
    depth: Cell<u32>,
    pin_count: Cell<u64>,
    local_epoch: Cell<u64>,
    bags: UnsafeCell<[Bag; 3]>,
    pool: UnsafeCell<NodePool>,
}

impl ReclaimCtx {
    /// The owning domain.
    pub fn domain(&self) -> &Arc<Domain> {
        &self.domain
    }

    /// This context's slot, written by no other context.
    #[inline]
    fn slot(&self) -> &Slot {
        &self.domain.slots[self.slot]
    }

    /// Pins the current epoch; reads of shared objects are safe until the
    /// guard drops. Pinning is reentrant (nested pins are cheap no-ops).
    pub fn pin(&self) -> Guard<'_> {
        let depth = self.depth.get();
        self.depth.set(depth + 1);
        if depth == 0 && self.domain.mode == ReclaimMode::Epoch {
            let e = self.domain.epoch.load(Ordering::SeqCst);
            self.slot().announce.store((e << 1) | 1, Ordering::SeqCst);
            let pins = self.pin_count.get() + 1;
            self.pin_count.set(pins);
            if self.local_epoch.get() != e {
                self.local_epoch.set(e);
                self.collect_eligible(e);
            }
            if pins % PIN_ADVANCE_PERIOD == 0 {
                self.domain.try_advance();
            }
        }
        Guard { ctx: self }
    }

    /// Whether the context currently holds at least one pin.
    pub fn is_pinned(&self) -> bool {
        self.depth.get() > 0
    }

    /// Begins a manually managed pin. Must be balanced by [`Self::exit`].
    ///
    /// Prefer [`Self::pin`]; this exists for callers that need to hold a pin
    /// across calls taking `&mut` access to a structure containing this
    /// context (where a borrowing guard would conflict).
    pub fn enter(&self) {
        // Equivalent to pin() without constructing a guard.
        std::mem::forget(self.pin());
    }

    /// Ends a manually managed pin begun with [`Self::enter`].
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if no pin is held.
    pub fn exit(&self) {
        self.unpin();
    }

    // ------------------------------------------------------------------
    // Node allocation (the pool seam).
    // ------------------------------------------------------------------

    /// Allocates a node. On a pooled domain this pops a block from the
    /// thread's free list for `T`'s size class (adopting an orphaned chain
    /// or carving an arena chunk on a miss); otherwise it is a plain `Box`
    /// allocation. Free the result with [`Self::retire_node`] (once
    /// unlinked from the structure) or [`Self::dealloc_unpublished`]
    /// (never published).
    pub fn alloc<T: Send>(&self, val: T) -> *mut T {
        match self.domain.class_of::<T>() {
            None => Box::into_raw(Box::new(val)),
            Some(class) => {
                // SAFETY: !Sync context; pool only touched by this thread.
                let p = {
                    let pool = unsafe { &mut *self.pool.get() };
                    if pool.would_miss(class) {
                        if let Some(chain) = self.domain.pop_orphan_chain(class) {
                            // SAFETY: chain orphaned by a context of this
                            // same domain (same class table).
                            unsafe { pool.adopt(chain) };
                        }
                    }
                    pool.alloc_block(class) as *mut T
                };
                // SAFETY: the block is at least size_of::<T>() bytes at
                // BLOCK_ALIGN >= align_of::<T>() (per `class_of`),
                // exclusively owned, uninitialized.
                unsafe { p.write(val) };
                p
            }
        }
    }

    /// Frees a node from [`Self::alloc`] that was never published: drops
    /// it in place and returns its block to the pool immediately (an
    /// unpublished node is unreachable by construction — no other thread
    /// can hold a reference, so no grace period is needed).
    ///
    /// # Safety
    ///
    /// `ptr` must come from [`Self::alloc`] on a context of this domain,
    /// must never have been written into any reachable cell, and must not
    /// be used again.
    pub unsafe fn dealloc_unpublished<T: Send>(&self, ptr: *mut T) {
        match self.domain.class_of::<T>() {
            None => drop(unsafe { Box::from_raw(ptr) }),
            Some(class) => {
                // SAFETY: sole owner per contract.
                unsafe { std::ptr::drop_in_place(ptr) };
                // SAFETY: !Sync context; block provably unreachable.
                let pool = unsafe { &mut *self.pool.get() };
                unsafe { pool.release_unpublished(class, ptr as *mut u8) };
            }
        }
    }

    /// Retires a node from [`Self::alloc`] for deferred destruction; on a
    /// pooled domain the node's block returns to a free list once its
    /// grace period ends, instead of going through the global allocator.
    ///
    /// # Safety
    ///
    /// As [`Self::retire`], and `ptr` must come from [`Self::alloc`] on a
    /// context of this domain (on pooled domains the block's class is
    /// derived from `T`, which must match the allocation).
    pub unsafe fn retire_node<T: Send>(&self, ptr: *mut T) {
        bump(&self.slot().retired, 1);
        let retired = match self.domain.class_of::<T>() {
            // SAFETY: per caller contract.
            None => unsafe { Retired::new(ptr) },
            Some(class) => {
                {
                    // SAFETY: !Sync context (borrow ends before `stash`).
                    let pool = unsafe { &mut *self.pool.get() };
                    pool.stats_mut().retired_pooled += 1;
                }
                // SAFETY: per caller contract.
                unsafe { Retired::recycle(ptr, class) }
            }
        };
        self.stash(retired);
    }

    /// This context's pool counters (folded into
    /// [`Domain::pool_stats`] when the context drops).
    pub fn pool_stats(&self) -> PoolStats {
        // SAFETY: !Sync context; shared borrow of the pool for a copy.
        *unsafe { &*self.pool.get() }.stats()
    }

    // ------------------------------------------------------------------
    // Type-erased / Box retirement (SCX records, non-node objects).
    // ------------------------------------------------------------------

    /// Retires a type-erased object for deferred destruction.
    ///
    /// # Safety
    ///
    /// Same contract as [`Self::retire`]; additionally `dtor` must be sound
    /// to call exactly once with `ptr`.
    pub unsafe fn retire_raw(&self, ptr: *mut u8, dtor: unsafe fn(*mut u8)) {
        bump(&self.slot().retired, 1);
        let retired = Retired::from_raw(ptr, dtor);
        self.stash(retired);
    }

    /// Retires a `Box`-allocated object for deferred destruction. Objects
    /// allocated with [`Self::alloc`] must use [`Self::retire_node`]
    /// instead (which returns pooled blocks to the pool).
    ///
    /// # Safety
    ///
    /// * `ptr` must have been produced by `Box::into_raw`.
    /// * The object must already be unreachable for threads that pin after
    ///   this call (i.e. unlinked from every shared structure).
    /// * It must be retired at most once and never accessed by the caller
    ///   afterwards.
    pub unsafe fn retire<T: Send>(&self, ptr: *mut T) {
        bump(&self.slot().retired, 1);
        // SAFETY: per caller contract.
        let retired = unsafe { Retired::new(ptr) };
        self.stash(retired);
    }

    fn stash(&self, retired: Retired) {
        match self.domain.mode {
            ReclaimMode::Leak => {
                // SAFETY: !Sync context; bags only touched by this thread.
                let bags = unsafe { &mut *self.bags.get() };
                bags[0].items.push(retired);
            }
            ReclaimMode::Epoch => {
                let e = self.domain.epoch.load(Ordering::Acquire);
                // SAFETY: as above; bags and pool are distinct cells.
                let bags = unsafe { &mut *self.bags.get() };
                let pool = unsafe { &mut *self.pool.get() };
                let bag = &mut bags[(e % 3) as usize];
                if bag.epoch != e {
                    // The bag's previous contents are >= 3 epochs old.
                    let n = bag.settle_all(pool);
                    bump(&self.slot().freed, n as u64);
                    bag.epoch = e;
                }
                if bag.items.capacity() == 0 {
                    // First use: room for all that one epoch retires
                    // before the bag's length asks for an advance, so a
                    // bag whose epoch moves on in time never reallocates.
                    bag.items.reserve_exact(BAG_ADVANCE_THRESHOLD);
                }
                bag.items.push(retired);
                if bag.items.len() >= BAG_ADVANCE_THRESHOLD {
                    self.domain.try_advance();
                }
            }
        }
    }

    /// Frees bags whose epoch is at least [`GRACE_EPOCHS`] behind `e`.
    fn collect_eligible(&self, e: u64) {
        // SAFETY: !Sync context; bags and pool are distinct cells only
        // touched by this thread.
        let bags = unsafe { &mut *self.bags.get() };
        let pool = unsafe { &mut *self.pool.get() };
        let mut freed = 0usize;
        for bag in bags.iter_mut() {
            if !bag.items.is_empty() && e >= bag.epoch + GRACE_EPOCHS {
                freed += bag.settle_all(pool);
            }
        }
        if freed > 0 {
            bump(&self.slot().freed, freed as u64);
        }
    }

    fn unpin(&self) {
        let depth = self.depth.get();
        debug_assert!(depth > 0, "unpin without matching pin");
        self.depth.set(depth - 1);
        if depth == 1 && self.domain.mode == ReclaimMode::Epoch {
            let e = self.local_epoch.get();
            // Leaving the critical section only needs every access made
            // under the pin to come before the announcement that it is
            // over, which a release store gives (as crossbeam-epoch's
            // unpin); only the pin's store must be `SeqCst`.
            self.slot().announce.store(e << 1, Ordering::Release);
        }
    }
}

impl Drop for ReclaimCtx {
    fn drop(&mut self) {
        debug_assert_eq!(self.depth.get(), 0, "context dropped while pinned");
        // Abandon remaining bag contents to the domain; freed on its drop
        // (by then no context can be pinned, since each holds an Arc).
        let bags = self.bags.get_mut();
        let mut orphans = self.domain.orphans.lock().unwrap();
        for bag in bags.iter_mut() {
            orphans.append(&mut bag.items);
        }
        drop(orphans);
        // Orphan the pool the same way: counters fold into the domain,
        // free chains become adoptable, chunks transfer so the memory
        // backing still-live blocks outlives every context.
        let pool = self.pool.get_mut();
        self.domain.pool_totals.lock().unwrap().merge(pool.stats());
        let (chunks, chains) = pool.take_orphans();
        if !chunks.is_empty() {
            self.domain.chunks.lock().unwrap().append(chunks);
        }
        if !chains.is_empty() {
            self.domain.orphan_chains.lock().unwrap().extend(chains);
        }
        self.slot().announce.store(0, Ordering::SeqCst);
        self.domain.free_slots.lock().unwrap().push(self.slot);
    }
}

impl std::fmt::Debug for ReclaimCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReclaimCtx")
            .field("slot", &self.slot)
            .field("depth", &self.depth.get())
            .finish()
    }
}

/// RAII epoch pin; see [`ReclaimCtx::pin`].
#[derive(Debug)]
pub struct Guard<'a> {
    ctx: &'a ReclaimCtx,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        self.ctx.unpin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct DropCounter(Arc<AtomicUsize>);
    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn retire_counter(ctx: &ReclaimCtx, count: &Arc<AtomicUsize>) {
        let p = Box::into_raw(Box::new(DropCounter(count.clone())));
        unsafe { ctx.retire(p) };
    }

    /// Churn pins so epochs advance and bags drain.
    fn churn(ctx: &ReclaimCtx, n: u64) {
        for _ in 0..n {
            drop(ctx.pin());
        }
    }

    #[test]
    fn nested_pin_unpin() {
        let d = Arc::new(Domain::new(ReclaimMode::Epoch));
        let ctx = Domain::register(&d);
        let g1 = ctx.pin();
        let g2 = ctx.pin();
        assert!(ctx.is_pinned());
        drop(g2);
        assert!(ctx.is_pinned());
        drop(g1);
        assert!(!ctx.is_pinned());
    }

    #[test]
    fn retired_objects_eventually_freed() {
        let d = Arc::new(Domain::new(ReclaimMode::Epoch));
        let ctx = Domain::register(&d);
        let count = Arc::new(AtomicUsize::new(0));
        {
            let _g = ctx.pin();
            for _ in 0..10 {
                retire_counter(&ctx, &count);
            }
        }
        churn(&ctx, PIN_ADVANCE_PERIOD * 8);
        assert_eq!(count.load(Ordering::Relaxed), 10);
        assert_eq!(d.freed_total(), 10);
        assert_eq!(d.retired_total(), 10);
    }

    #[test]
    fn pinned_reader_blocks_reclamation() {
        let d = Arc::new(Domain::new(ReclaimMode::Epoch));
        let reader = Domain::register(&d);
        let writer = Domain::register(&d);
        let count = Arc::new(AtomicUsize::new(0));

        let _reader_pin = reader.pin();
        {
            let _g = writer.pin();
            retire_counter(&writer, &count);
        }
        // However hard the writer churns, the pinned reader caps epoch
        // advance at +1, so nothing reaches the grace distance.
        churn(&writer, PIN_ADVANCE_PERIOD * 8);
        assert_eq!(count.load(Ordering::Relaxed), 0, "freed under a pin");
        drop(_reader_pin);
        churn(&writer, PIN_ADVANCE_PERIOD * 8);
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn leak_mode_frees_only_at_domain_drop() {
        let count = Arc::new(AtomicUsize::new(0));
        {
            let d = Arc::new(Domain::new(ReclaimMode::Leak));
            let ctx = Domain::register(&d);
            for _ in 0..20 {
                let _g = ctx.pin();
                retire_counter(&ctx, &count);
            }
            churn(&ctx, 1000);
            assert_eq!(count.load(Ordering::Relaxed), 0);
            drop(ctx);
            assert_eq!(count.load(Ordering::Relaxed), 0);
        }
        assert_eq!(count.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn orphan_bags_freed_at_domain_drop() {
        let count = Arc::new(AtomicUsize::new(0));
        {
            let d = Arc::new(Domain::new(ReclaimMode::Epoch));
            let ctx = Domain::register(&d);
            {
                let _g = ctx.pin();
                for _ in 0..5 {
                    retire_counter(&ctx, &count);
                }
            }
            drop(ctx); // bags orphaned without ever being collected
            assert_eq!(count.load(Ordering::Relaxed), 0);
        }
        assert_eq!(count.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn slots_are_reused() {
        let d = Arc::new(Domain::with_slots(ReclaimMode::Epoch, 2));
        for _ in 0..10 {
            let a = Domain::register(&d);
            let b = Domain::register(&d);
            drop((a, b));
        }
    }

    #[test]
    fn concurrent_stress_all_freed() {
        let d = Arc::new(Domain::new(ReclaimMode::Epoch));
        let count = Arc::new(AtomicUsize::new(0));
        let n_threads = 4;
        let per_thread = 2000;
        std::thread::scope(|s| {
            for _ in 0..n_threads {
                let d = d.clone();
                let count = count.clone();
                s.spawn(move || {
                    let ctx = Domain::register(&d);
                    for _ in 0..per_thread {
                        let _g = ctx.pin();
                        retire_counter(&ctx, &count);
                    }
                });
            }
        });
        let total = (n_threads * per_thread) as u64;
        assert_eq!(d.retired_total(), total);
        drop(d);
        assert_eq!(count.load(Ordering::Relaxed) as u64, total);
    }

    /// Two threads retire known counts and settle them, then drop their
    /// contexts; a third context reuses one of their slots. The slot sums
    /// are exact at every quiet point: while the contexts are live, after
    /// they drop, and after the reused slot counts on.
    #[test]
    fn counters_are_exact_across_threads_and_slot_reuse() {
        /// Retires `n` counted objects, then pins until all are freed.
        fn retire_and_settle(ctx: &ReclaimCtx, n: usize) {
            let count = Arc::new(AtomicUsize::new(0));
            for _ in 0..n {
                let _g = ctx.pin();
                retire_counter(ctx, &count);
            }
            while count.load(Ordering::Relaxed) < n {
                churn(ctx, PIN_ADVANCE_PERIOD);
            }
        }
        let d = Arc::new(Domain::new(ReclaimMode::Epoch));
        let counts = [700, 1300];
        let settled = std::sync::Barrier::new(3);
        let checked = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for n in counts {
                let (d, settled, checked) = (&d, &settled, &checked);
                s.spawn(move || {
                    let ctx = Domain::register(d);
                    retire_and_settle(&ctx, n);
                    settled.wait();
                    checked.wait();
                });
            }
            settled.wait();
            assert_eq!(d.retired_total(), 2000, "contexts live");
            assert_eq!(d.freed_total(), 2000, "contexts live");
            checked.wait();
        });
        assert_eq!(d.retired_total(), 2000, "contexts dropped");
        assert_eq!(d.freed_total(), 2000, "contexts dropped");
        let ctx = Domain::register(&d);
        assert!(ctx.slot < 2, "a dropped context's slot is reused");
        retire_and_settle(&ctx, 50);
        assert_eq!(d.retired_total(), 2050);
        assert_eq!(d.freed_total(), 2050);
        drop(ctx);
        assert_eq!(d.retired_total(), 2050);
        assert_eq!(d.freed_total(), 2050);
    }

    #[test]
    fn epoch_advances_under_activity() {
        let d = Arc::new(Domain::new(ReclaimMode::Epoch));
        let ctx = Domain::register(&d);
        let e0 = d.epoch();
        churn(&ctx, PIN_ADVANCE_PERIOD * 4);
        assert!(d.epoch() > e0);
    }

    // ------------------------------------------------------------------
    // Node-pool integration.
    // ------------------------------------------------------------------

    fn pooled_domain() -> Arc<Domain> {
        Arc::new(Domain::with_pool(
            ReclaimMode::Epoch,
            PoolConfig {
                enabled: true,
                chunk_blocks: 8,
                ..PoolConfig::default()
            },
        ))
    }

    #[test]
    fn pooled_alloc_retire_recycles_blocks() {
        let d = pooled_domain();
        let ctx = Domain::register(&d);
        let count = Arc::new(AtomicUsize::new(0));
        let mut blocks = std::collections::HashSet::new();
        for round in 0..4 {
            {
                let _g = ctx.pin();
                for _ in 0..8 {
                    let p = ctx.alloc(DropCounter(count.clone()));
                    blocks.insert(p as usize);
                    // SAFETY: p unlinked (never published anywhere).
                    unsafe { ctx.retire_node(p) };
                }
            }
            churn(&ctx, PIN_ADVANCE_PERIOD * 8);
            let s = ctx.pool_stats();
            assert_eq!(s.alloc_total, (round + 1) * 8);
            assert_eq!(s.recycled, d.freed_total(), "every free was a recycle");
        }
        let s = ctx.pool_stats();
        // Blocks cycled: only the first round(s) carve; later rounds hit.
        assert_eq!(s.chunks, 1, "one 8-block chunk serves 8-at-a-time churn");
        assert!(s.pool_hits >= 16, "recycled blocks are reused");
        assert!(
            blocks.len() < 32,
            "addresses repeat across rounds ({} distinct)",
            blocks.len()
        );
        assert_eq!(count.load(Ordering::Relaxed) as u64, d.freed_total());
        assert_eq!(d.retired_total(), 32);
        // Destructors that never ran fire at domain drop via orphans.
        drop(ctx);
        drop(d);
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn unpublished_nodes_return_to_the_pool_immediately() {
        let d = pooled_domain();
        let ctx = Domain::register(&d);
        let count = Arc::new(AtomicUsize::new(0));
        let p = ctx.alloc(DropCounter(count.clone()));
        let q = ctx.alloc(DropCounter(count.clone()));
        assert_ne!(p, q);
        // SAFETY: never published.
        unsafe { ctx.dealloc_unpublished(p) };
        assert_eq!(count.load(Ordering::Relaxed), 1, "dropped in place");
        let r = ctx.alloc(DropCounter(count.clone()));
        assert_eq!(r, p, "block reused with no grace period");
        let s = ctx.pool_stats();
        assert_eq!(s.unpublished_returns, 1);
        assert_eq!(s.alloc_total, 3);
        assert_eq!(d.retired_total(), 0, "unpublished frees are not retires");
        unsafe {
            ctx.dealloc_unpublished(q);
            ctx.dealloc_unpublished(r);
        }
    }

    #[test]
    fn orphaned_chains_are_adopted_by_new_contexts() {
        let d = pooled_domain();
        {
            let donor = Domain::register(&d);
            let p = donor.alloc(7u64);
            unsafe { donor.dealloc_unpublished(p) };
            drop(donor);
        }
        assert_eq!(d.orphan_chain_blocks(), 8, "whole chunk orphaned");
        assert_eq!(d.pool_stats().chunks, 1, "counters folded on drop");
        let heir = Domain::register(&d);
        let p = heir.alloc(9u64);
        let s = heir.pool_stats();
        assert_eq!(s.chunks, 0, "no new chunk needed");
        assert_eq!(s.adopted_blocks, 8);
        assert_eq!(d.orphan_chain_blocks(), 0);
        unsafe { heir.dealloc_unpublished(p) };
    }

    #[test]
    fn disabled_pool_uses_box_semantics() {
        let d = Arc::new(Domain::new(ReclaimMode::Epoch));
        assert!(!d.pool_enabled());
        assert_eq!(d.class_of::<u64>(), None);
        let ctx = Domain::register(&d);
        let count = Arc::new(AtomicUsize::new(0));
        let p = ctx.alloc(DropCounter(count.clone()));
        unsafe { ctx.retire_node(p) };
        churn(&ctx, PIN_ADVANCE_PERIOD * 8);
        assert_eq!(count.load(Ordering::Relaxed), 1);
        let s = ctx.pool_stats();
        assert_eq!(s.alloc_total, 0, "pool untouched");
        assert_eq!(s.recycled, 0);
        let q = ctx.alloc(DropCounter(count.clone()));
        unsafe { ctx.dealloc_unpublished(q) };
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn oversized_types_bypass_the_pool() {
        let d = pooled_domain();
        assert!(d.pool_enabled());
        assert_eq!(d.class_of::<[u64; 1024]>(), None, "8 KiB exceeds classes");
        assert!(d.class_of::<u64>().is_some());
        let ctx = Domain::register(&d);
        let p = ctx.alloc([0u64; 1024]);
        unsafe { ctx.retire_node(p) };
        churn(&ctx, PIN_ADVANCE_PERIOD * 8);
        assert_eq!(d.freed_total(), 1);
        assert_eq!(ctx.pool_stats().alloc_total, 0);
    }

    #[test]
    fn cross_thread_retires_recycle_into_the_retiring_pool() {
        // A node allocated by thread A and retired by thread B lands in
        // B's free list — blocks migrate, chunks do not.
        let d = pooled_domain();
        struct SendPtr(*mut u64);
        unsafe impl Send for SendPtr {}
        let a = Domain::register(&d);
        let p = a.alloc(41u64);
        let addr = p as usize;
        let sent = SendPtr(p);
        std::thread::scope(|s| {
            let d2 = d.clone();
            s.spawn(move || {
                let b = Domain::register(&d2);
                let sent = sent; // move the whole wrapper (not just .0)
                let p = sent.0;
                // SAFETY: sole reference, "unlinked" by construction.
                unsafe { b.retire_node(p) };
                churn(&b, PIN_ADVANCE_PERIOD * 8);
                let sb = b.pool_stats();
                assert_eq!(sb.recycled, 1, "B recycled A's block");
                let q = b.alloc(43u64);
                assert_eq!(q as usize, addr, "B reuses the migrated block");
                unsafe { b.dealloc_unpublished(q) };
            });
        });
        assert_eq!(d.freed_total(), 1);
        assert_eq!(a.pool_stats().recycled, 0);
    }

    #[test]
    fn pooled_balance_invariant_holds() {
        // alloc_total == unpublished + retired_pooled + live hand-outs.
        let d = pooled_domain();
        let ctx = Domain::register(&d);
        let mut live = Vec::new();
        for i in 0..50u64 {
            let p = ctx.alloc(i);
            match i % 3 {
                0 => unsafe { ctx.dealloc_unpublished(p) },
                1 => unsafe { ctx.retire_node(p) },
                _ => live.push(p as usize),
            }
        }
        churn(&ctx, PIN_ADVANCE_PERIOD * 8);
        let s = ctx.pool_stats();
        assert_eq!(
            s.alloc_total,
            s.unpublished_returns + s.retired_pooled + live.len() as u64
        );
        // Free-list population: carved + returned - handed out.
        let frees = unsafe { &*ctx.pool.get() }.free_blocks_total();
        assert_eq!(
            frees,
            s.carved_blocks + s.recycled + s.unpublished_returns - s.alloc_total
        );
    }
}
