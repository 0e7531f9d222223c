//! Per-thread node pools: segregated intrusive free lists keyed by size
//! class, backed by chunked arena refills.
//!
//! Lock-free tree updates allocate and retire nodes at the operation rate;
//! once synchronization is cheap (the whole point of the HTM template),
//! `malloc`/`free` become the hot-path bottleneck. A [`NodePool`] removes
//! both calls from the steady state:
//!
//! * **Allocation** pops a block from the thread's free list for the node's
//!   size class — one pointer read, no shared state, no locks. On a miss
//!   the pool *carves* a fresh arena chunk (one `alloc` for many blocks)
//!   and refills the list.
//! * **Reclamation** recycles: when the epoch machinery expires a retired
//!   node, its block is pushed back onto the reclaiming thread's free list
//!   instead of going through the global allocator.
//!
//! Blocks are cache-line aligned ([`BLOCK_ALIGN`]) and sized to their
//! class, so two nodes never share a line (malloc packs two 64-byte BST
//! nodes per line, a guaranteed false-sharing conflict under HTM).
//!
//! # Ownership
//!
//! A block's *memory* is owned by the chunk it was carved from, never by
//! the block itself: blocks are never passed to `dealloc` individually.
//! Blocks migrate freely between threads (allocated by one, retired and
//! recycled into another's pool); chunks do not — a pool keeps the chunks
//! it carved until the owning thread exits, at which point chunks and any
//! remaining free blocks are orphaned into the reclamation domain
//! (mirroring the domain's orphan-bag path). Orphaned free chains are
//! adopted by the next pool that misses; chunk memory is released when the
//! domain drops, after every retired object has been destroyed.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr;

/// Alignment of every pooled block (one cache line). Types with stricter
/// alignment fall back to the global allocator.
pub const BLOCK_ALIGN: usize = 64;

/// Block size of each class in the *standard* table. Classes are
/// cache-line multiples — fine steps up to 512 bytes (node-sized
/// structures live there: a BST node fits class 0 exactly, the relaxed
/// (a,b)-tree's b = 16 nodes take the ~5-line class; a coarse table would
/// waste a large fraction of each block and the cache lines that back it),
/// then powers of two.
pub const CLASS_SIZES: [usize; 10] =
    [64, 128, 192, 256, 320, 384, 448, 512, 1024, 2048];

/// Number of size classes in the standard table.
pub const NUM_CLASSES: usize = CLASS_SIZES.len();

/// Maximum number of size classes a [`ClassTable`] may hold (the standard
/// table plus a few per-structure exact-fit classes).
pub const MAX_CLASSES: usize = 16;

/// A domain's size-class table: the sorted block sizes its pools segregate
/// free lists by.
///
/// Every domain starts from the [standard](ClassTable::standard) table;
/// structures with fat nodes add a dedicated exact-fit class via
/// [`ClassTable::with_class_of`] so they stop paying internal
/// fragmentation (ROADMAP PR 4 follow-up: per-structure class tables).
/// Class *indices* are only meaningful within one domain — allocation,
/// retirement and orphan-chain adoption all happen against a single
/// domain's table, so the indices can never cross tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassTable {
    sizes: [usize; MAX_CLASSES],
    len: usize,
}

impl ClassTable {
    /// The standard table ([`CLASS_SIZES`]).
    pub fn standard() -> Self {
        let mut sizes = [0usize; MAX_CLASSES];
        sizes[..NUM_CLASSES].copy_from_slice(&CLASS_SIZES);
        ClassTable {
            sizes,
            len: NUM_CLASSES,
        }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no classes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The block sizes, ascending.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes[..self.len]
    }

    /// Block size of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn block_size(&self, class: u8) -> usize {
        self.sizes()[class as usize]
    }

    /// Adds a dedicated class exactly fitting `T` (its size rounded up to
    /// the cache-line multiple pooled blocks require). No-op when such a
    /// class already exists or when `T` cannot be pooled at all (too big
    /// for the largest standard class stays poolable — the new class is
    /// inserted — but over-alignment bypasses the pool entirely).
    ///
    /// # Panics
    ///
    /// Panics if the table is full ([`MAX_CLASSES`]).
    pub fn with_class_of<T>(mut self) -> Self {
        let layout = Layout::new::<T>();
        if layout.align() > BLOCK_ALIGN || layout.size() == 0 {
            return self;
        }
        let size = layout.size().div_ceil(BLOCK_ALIGN) * BLOCK_ALIGN;
        let slice = &self.sizes[..self.len];
        let Err(pos) = slice.binary_search(&size) else {
            return self; // exact class already present
        };
        assert!(self.len < MAX_CLASSES, "class table full");
        self.sizes.copy_within(pos..self.len, pos + 1);
        self.sizes[pos] = size;
        self.len += 1;
        self
    }

    /// The size class serving `layout`, or `None` when the layout is too
    /// big or over-aligned and must use the global allocator. Pure
    /// function of the layout and the table, so allocation and retirement
    /// sites agree on a type's class without storing anything per object.
    pub fn class_for(&self, layout: Layout) -> Option<u8> {
        if layout.align() > BLOCK_ALIGN {
            return None;
        }
        self.sizes()
            .iter()
            .position(|&s| s >= layout.size().max(1))
            .map(|i| i as u8)
    }
}

impl Default for ClassTable {
    fn default() -> Self {
        Self::standard()
    }
}

/// The *standard-table* size class serving `layout` (see
/// [`ClassTable::class_for`]).
#[cfg(test)]
pub(crate) fn class_for(layout: Layout) -> Option<u8> {
    ClassTable::standard().class_for(layout)
}

/// The first [`BLOCK_ALIGN`] bytes of every arena chunk: its link in the
/// list that owns it, and its layout. Keeping the list inside the chunks
/// means a carve allocates the chunk and nothing else — no registry that
/// reallocates as the pool grows.
struct ChunkHead {
    next: *mut ChunkHead,
    layout: Layout,
}

const _: () = assert!(size_of::<ChunkHead>() <= BLOCK_ALIGN);

/// A list of arena chunks, each a single allocation carved into blocks
/// of one class, linked through their heads. Owns the memory: dropping
/// the list deallocates every chunk, so the list must outlive every
/// block carved from it (pools hand their chunks to the domain on thread
/// exit; the domain drops them last).
pub(crate) struct Chunks {
    head: *mut ChunkHead,
    len: usize,
}

// SAFETY: chunks are passive memory regions; the pool/domain protocols
// serialize all access to them.
unsafe impl Send for Chunks {}

impl Chunks {
    pub(crate) const fn new() -> Self {
        Chunks {
            head: ptr::null_mut(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocates a chunk with `bytes` of block space, links it in, and
    /// returns the start of that space (aligned to [`BLOCK_ALIGN`]).
    fn carve(&mut self, bytes: usize) -> *mut u8 {
        let layout = BLOCK_ALIGN
            .checked_add(bytes)
            .and_then(|size| Layout::from_size_align(size, BLOCK_ALIGN).ok())
            .expect("chunk layout overflow");
        // SAFETY: layout has non-zero size.
        let chunk = unsafe { alloc(layout) };
        if chunk.is_null() {
            handle_alloc_error(layout);
        }
        let head = chunk.cast::<ChunkHead>();
        // SAFETY: the chunk starts with BLOCK_ALIGN >= size_of::<ChunkHead>()
        // bytes, aligned to BLOCK_ALIGN >= align_of::<ChunkHead>().
        unsafe {
            head.write(ChunkHead {
                next: self.head,
                layout,
            })
        };
        self.head = head;
        self.len += 1;
        // SAFETY: BLOCK_ALIGN <= layout.size(); the block space keeps the
        // chunk's provenance.
        unsafe { chunk.add(BLOCK_ALIGN) }
    }

    /// Moves every chunk of `other` into this list.
    pub(crate) fn append(&mut self, mut other: Chunks) {
        if other.head.is_null() {
            return;
        }
        let mut tail = other.head;
        // SAFETY: every head in a list is a live chunk's, written by
        // `carve`; the list owns them exclusively.
        unsafe {
            while !(*tail).next.is_null() {
                tail = (*tail).next;
            }
            (*tail).next = self.head;
        }
        self.head = std::mem::replace(&mut other.head, ptr::null_mut());
        self.len += std::mem::take(&mut other.len);
    }
}

impl Drop for Chunks {
    fn drop(&mut self) {
        let mut head = self.head;
        while !head.is_null() {
            // SAFETY: a live chunk's head (see `append`); read before the
            // chunk is freed with the layout it was allocated with.
            let ChunkHead { next, layout } = unsafe { head.read() };
            unsafe { dealloc(head.cast(), layout) };
            head = next;
        }
    }
}

/// Counters for one pool (plain `u64`s — pools are thread-local). Folded
/// into domain-wide totals when the owning context drops.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Blocks handed out (`pool_hits + fresh_blocks + adopted` hand-outs
    /// all count once here).
    pub alloc_total: u64,
    /// Hand-outs served from a warm free list (no chunk carve needed).
    pub pool_hits: u64,
    /// Blocks carved from arena chunks (lifetime capacity created).
    pub carved_blocks: u64,
    /// Arena chunks allocated.
    pub chunks: u64,
    /// Blocks adopted from the domain's orphaned free chains.
    pub adopted_blocks: u64,
    /// Retired blocks returned to a free list after their grace period.
    pub recycled: u64,
    /// Unpublished allocations (failed SCX, aborted transaction) returned
    /// to a free list immediately.
    pub unpublished_returns: u64,
    /// Pooled objects retired into limbo bags (the pooled share of the
    /// domain's `retired_total`).
    pub retired_pooled: u64,
}

impl PoolStats {
    /// Fraction of hand-outs served without touching the global allocator
    /// path at all (warm free list; carves amortize one `alloc` over a
    /// whole chunk). 0 when idle.
    pub fn hit_rate(&self) -> f64 {
        if self.alloc_total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / self.alloc_total as f64
        }
    }

    /// Accumulates another pool's counters.
    pub fn merge(&mut self, other: &PoolStats) {
        self.alloc_total += other.alloc_total;
        self.pool_hits += other.pool_hits;
        self.carved_blocks += other.carved_blocks;
        self.chunks += other.chunks;
        self.adopted_blocks += other.adopted_blocks;
        self.recycled += other.recycled;
        self.unpublished_returns += other.unpublished_returns;
        self.retired_pooled += other.retired_pooled;
    }
}

/// An orphaned free chain: `len` blocks of `class` linked through their
/// first word, headed by `head`. Produced on thread exit, adopted on a
/// refill miss.
pub(crate) struct OrphanChain {
    pub(crate) class: u8,
    pub(crate) head: *mut u8,
    pub(crate) len: u64,
}

// SAFETY: the chain's blocks are unreachable from any thread (they were in
// a thread-local free list); ownership transfers wholesale.
unsafe impl Send for OrphanChain {}

/// A per-thread segregated node pool. Not `Sync`; lives inside a
/// `ReclaimCtx`.
pub struct NodePool {
    /// Intrusive free-list heads (next pointer stored in each block's
    /// first word). Indexed by class of `table`; slots past `table.len()`
    /// stay empty.
    heads: [*mut u8; MAX_CLASSES],
    free_len: [u64; MAX_CLASSES],
    table: ClassTable,
    chunk_blocks: usize,
    chunks: Chunks,
    stats: PoolStats,
}

// SAFETY: the pool exclusively owns its parked blocks and chunks; moving
// the whole pool to another thread transfers that ownership wholesale
// (the thread-exit orphan/adopt protocol is exactly such a move).
unsafe impl Send for NodePool {}

impl NodePool {
    /// A pool over the standard class table whose refills carve
    /// `chunk_blocks` blocks at a time.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_blocks` is zero.
    pub fn new(chunk_blocks: usize) -> Self {
        Self::with_table(chunk_blocks, ClassTable::standard())
    }

    /// A pool over an explicit class table (all pools of one domain must
    /// share the domain's table — class indices travel between them via
    /// cross-thread recycling and orphan-chain adoption).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_blocks` is zero.
    pub fn with_table(chunk_blocks: usize, table: ClassTable) -> Self {
        assert!(chunk_blocks > 0, "chunk_blocks must be positive");
        NodePool {
            heads: [ptr::null_mut(); MAX_CLASSES],
            free_len: [0; MAX_CLASSES],
            table,
            chunk_blocks,
            chunks: Chunks::new(),
            stats: PoolStats::default(),
        }
    }

    /// This pool's counters.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// Mutable access for the owning context's retire bookkeeping.
    pub(crate) fn stats_mut(&mut self) -> &mut PoolStats {
        &mut self.stats
    }

    /// Blocks currently parked in the class's free list.
    pub fn free_blocks(&self, class: u8) -> u64 {
        self.free_len[class as usize]
    }

    /// Blocks parked across all free lists.
    pub fn free_blocks_total(&self) -> u64 {
        self.free_len.iter().sum()
    }

    fn push(&mut self, class: u8, block: *mut u8) {
        let c = class as usize;
        // SAFETY: `block` is a live, exclusively owned block of at least
        // BLOCK_ALIGN-aligned CLASS_SIZES[c] >= 8 bytes; its first word is
        // free for the intrusive link.
        unsafe { block.cast::<*mut u8>().write(self.heads[c]) };
        self.heads[c] = block;
        self.free_len[c] += 1;
    }

    fn pop(&mut self, class: u8) -> Option<*mut u8> {
        let c = class as usize;
        let head = self.heads[c];
        if head.is_null() {
            return None;
        }
        // SAFETY: non-null heads always point at a parked block whose
        // first word holds the next link (written in `push`/`carve`).
        self.heads[c] = unsafe { head.cast::<*mut u8>().read() };
        self.free_len[c] -= 1;
        Some(head)
    }

    /// Carves one fresh chunk for `class` and parks its blocks.
    fn carve(&mut self, class: u8) {
        let size = self.table.block_size(class);
        let bytes = size
            .checked_mul(self.chunk_blocks)
            .expect("chunk layout overflow");
        let blocks = self.chunks.carve(bytes);
        for i in 0..self.chunk_blocks {
            // SAFETY: i*size stays inside the chunk's block space; blocks
            // retain the chunk's provenance.
            self.push(class, unsafe { blocks.add(i * size) });
        }
        self.stats.chunks += 1;
        self.stats.carved_blocks += self.chunk_blocks as u64;
    }

    /// Whether a hand-out for `class` would miss the free list (the caller
    /// may then offer an orphan chain via `adopt` before paying
    /// for a carve).
    pub fn would_miss(&self, class: u8) -> bool {
        self.heads[class as usize].is_null()
    }

    /// Hands out one block of `class`, carving a fresh chunk on a miss.
    /// The returned block is uninitialized.
    pub fn alloc_block(&mut self, class: u8) -> *mut u8 {
        let hit = !self.would_miss(class);
        if !hit {
            self.carve(class);
        }
        let block = self.pop(class).expect("carve refilled the free list");
        self.stats.alloc_total += 1;
        self.stats.pool_hits += u64::from(hit);
        block
    }

    /// Returns a block whose retired object's grace period expired.
    ///
    /// # Safety
    ///
    /// `block` must be a pool block of `class` (from any pool of the same
    /// domain), its object already dropped in place, and unreachable.
    pub unsafe fn recycle(&mut self, class: u8, block: *mut u8) {
        self.push(class, block);
        self.stats.recycled += 1;
    }

    /// Returns a block whose allocation was never published (failed SCX,
    /// aborted transaction): nothing can reach it, so it is reusable
    /// immediately with no grace period.
    ///
    /// # Safety
    ///
    /// As [`Self::recycle`].
    pub unsafe fn release_unpublished(&mut self, class: u8, block: *mut u8) {
        self.push(class, block);
        self.stats.unpublished_returns += 1;
    }

    /// Splices an orphaned free chain into this pool's `class` list.
    ///
    /// # Safety
    ///
    /// The chain must have been produced by [`Self::take_orphans`] for the
    /// same class table (same domain), and ownership transfers here.
    pub(crate) unsafe fn adopt(&mut self, chain: OrphanChain) {
        let c = chain.class as usize;
        // Walk to the tail and splice before the current head.
        let mut tail = chain.head;
        // SAFETY: chain links were written by `push` and never exposed.
        unsafe {
            while !tail.cast::<*mut u8>().read().is_null() {
                tail = tail.cast::<*mut u8>().read();
            }
            tail.cast::<*mut u8>().write(self.heads[c]);
        }
        self.heads[c] = chain.head;
        self.free_len[c] += chain.len;
        self.stats.adopted_blocks += chain.len;
    }

    /// Dismantles the pool on thread exit: the chunks (whose blocks may
    /// still be live in the structure or other pools) and the parked free
    /// chains, both destined for the domain.
    pub(crate) fn take_orphans(&mut self) -> (Chunks, Vec<OrphanChain>) {
        let mut chains = Vec::new();
        for c in 0..self.table.len() {
            if !self.heads[c].is_null() {
                chains.push(OrphanChain {
                    class: c as u8,
                    head: self.heads[c],
                    len: self.free_len[c],
                });
                self.heads[c] = ptr::null_mut();
                self.free_len[c] = 0;
            }
        }
        (std::mem::replace(&mut self.chunks, Chunks::new()), chains)
    }
}

impl std::fmt::Debug for NodePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodePool")
            .field("free", &self.free_len)
            .field("chunks", &self.chunks.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_table_is_monotonic_and_line_aligned() {
        let mut prev = 0;
        for &s in &CLASS_SIZES {
            assert!(s > prev && s % BLOCK_ALIGN == 0, "class {s}");
            prev = s;
        }
    }

    #[test]
    fn class_table_with_class_of_inserts_exact_fit() {
        struct Fat(#[allow(dead_code)] [u8; 600]);
        let t = ClassTable::standard().with_class_of::<Fat>();
        assert_eq!(t.len(), NUM_CLASSES + 1);
        let c = t.class_for(Layout::new::<Fat>()).unwrap();
        assert_eq!(t.block_size(c), 640, "600 B rounds up to 10 lines");
        assert!(t.sizes().windows(2).all(|w| w[0] < w[1]), "sorted");
        // Re-adding is a no-op, as is a size the standard table covers
        // exactly already.
        assert_eq!(t.with_class_of::<Fat>(), t);
        assert_eq!(
            ClassTable::standard().with_class_of::<[u8; 64]>(),
            ClassTable::standard()
        );
        // Over-aligned types bypass the pool and gain no class.
        #[repr(align(128))]
        struct Over(#[allow(dead_code)] u8);
        assert_eq!(
            ClassTable::standard().with_class_of::<Over>(),
            ClassTable::standard()
        );
        assert_eq!(t.class_for(Layout::new::<Over>()), None);
        // Beyond the standard maximum, a dedicated class still pools.
        let big = ClassTable::standard().with_class_of::<[u8; 4096]>();
        let cb = big.class_for(Layout::new::<[u8; 4096]>()).unwrap();
        assert_eq!(big.block_size(cb), 4096);
    }

    #[test]
    fn pool_serves_dedicated_classes() {
        let t = ClassTable::standard().with_class_of::<[u8; 600]>();
        let mut p = NodePool::with_table(2, t);
        let c = t.class_for(Layout::new::<[u8; 600]>()).unwrap();
        let a = p.alloc_block(c);
        let b = p.alloc_block(c);
        assert_ne!(a, b);
        // The whole 640-byte block is usable and blocks do not overlap.
        unsafe {
            ptr::write_bytes(a, 0xA5, t.block_size(c));
            ptr::write_bytes(b, 0x5A, t.block_size(c));
            assert_eq!(a.add(t.block_size(c) - 1).read(), 0xA5);
            assert_eq!(b.add(t.block_size(c) - 1).read(), 0x5A);
            p.recycle(c, a);
            p.recycle(c, b);
        }
        assert_eq!(p.free_blocks(c), 2);
    }

    #[test]
    fn class_for_picks_smallest_fit() {
        assert_eq!(class_for(Layout::from_size_align(1, 1).unwrap()), Some(0));
        assert_eq!(class_for(Layout::from_size_align(64, 8).unwrap()), Some(0));
        assert_eq!(class_for(Layout::from_size_align(65, 8).unwrap()), Some(1));
        assert_eq!(
            class_for(Layout::from_size_align(2048, 64).unwrap()),
            Some((NUM_CLASSES - 1) as u8)
        );
        assert_eq!(class_for(Layout::from_size_align(2049, 8).unwrap()), None);
        assert_eq!(class_for(Layout::from_size_align(64, 128).unwrap()), None);
    }

    #[test]
    fn alloc_recycle_round_trip() {
        let mut p = NodePool::new(4);
        let a = p.alloc_block(0);
        assert!(!a.is_null());
        assert_eq!(a as usize % BLOCK_ALIGN, 0, "blocks are line-aligned");
        // First hand-out carved a chunk: miss, 3 blocks left parked.
        assert_eq!(p.stats().chunks, 1);
        assert_eq!(p.stats().pool_hits, 0);
        assert_eq!(p.free_blocks(0), 3);
        // Use the block as real memory.
        unsafe {
            a.cast::<u64>().write(0xFEED);
            assert_eq!(a.cast::<u64>().read(), 0xFEED);
        }
        unsafe { p.recycle(0, a) };
        assert_eq!(p.free_blocks(0), 4);
        let b = p.alloc_block(0);
        assert_eq!(b, a, "LIFO reuse of the recycled block");
        assert_eq!(p.stats().pool_hits, 1);
        unsafe { p.release_unpublished(0, b) };
        assert_eq!(p.stats().unpublished_returns, 1);
        assert_eq!(
            p.stats().alloc_total,
            p.stats().recycled + p.stats().unpublished_returns
        );
    }

    #[test]
    fn carve_refills_exhausted_class_and_classes_are_independent() {
        let mut p = NodePool::new(2);
        let blocks: Vec<*mut u8> = (0..5).map(|_| p.alloc_block(1)).collect();
        assert_eq!(p.stats().chunks, 3, "5 hand-outs from 2-block chunks");
        assert_eq!(p.stats().carved_blocks, 6);
        assert_eq!(p.free_blocks(1), 1);
        assert_eq!(p.free_blocks(0), 0, "class 0 untouched");
        // Distinct, non-overlapping blocks (stride = class size).
        let mut sorted: Vec<usize> = blocks.iter().map(|b| *b as usize).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
        for b in blocks {
            unsafe { p.recycle(1, b) };
        }
        assert_eq!(p.free_blocks(1), 6);
    }

    #[test]
    fn whole_block_is_writable() {
        // Every byte of a block is usable memory of the class's size, not
        // just the intrusive first word (catches carve stride bugs under
        // Miri).
        let mut p = NodePool::new(3);
        for class in 0..NUM_CLASSES as u8 {
            let size = CLASS_SIZES[class as usize];
            let a = p.alloc_block(class);
            let b = p.alloc_block(class);
            unsafe {
                ptr::write_bytes(a, 0xA5, size);
                ptr::write_bytes(b, 0x5A, size);
                assert_eq!(a.add(size - 1).read(), 0xA5);
                assert_eq!(b.add(size - 1).read(), 0x5A);
                p.recycle(class, a);
                p.recycle(class, b);
            }
        }
    }

    #[test]
    fn orphan_chains_transfer_between_pools() {
        let mut donor = NodePool::new(4);
        let a = donor.alloc_block(2);
        unsafe { donor.recycle(2, a) };
        let (chunks, chains) = donor.take_orphans();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].len, 4);
        assert_eq!(donor.free_blocks_total(), 0, "donor emptied");

        let mut heir = NodePool::new(4);
        for chain in chains {
            unsafe { heir.adopt(chain) };
        }
        assert_eq!(heir.free_blocks(2), 4);
        assert_eq!(heir.stats().adopted_blocks, 4);
        // Adopted blocks are served without carving.
        for _ in 0..4 {
            heir.alloc_block(2);
        }
        assert_eq!(heir.stats().chunks, 0);
        assert_eq!(heir.stats().pool_hits, 4);
        // `chunks` still owns the memory; dropping it frees the arena.
        // (Blocks handed out by `heir` must not be used past this point —
        // this test stops here.)
        drop(chunks);
    }

    #[test]
    fn adopt_splices_ahead_of_existing_blocks() {
        let mut donor = NodePool::new(2);
        let d = donor.alloc_block(0);
        unsafe { donor.recycle(0, d) };
        let (_chunks, chains) = donor.take_orphans();

        let mut heir = NodePool::new(2);
        let h = heir.alloc_block(0);
        unsafe { heir.recycle(0, h) };
        let before = heir.free_blocks(0);
        for chain in chains {
            unsafe { heir.adopt(chain) };
        }
        assert_eq!(heir.free_blocks(0), before + 2);
        // Both the adopted and the original blocks drain cleanly.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..heir.free_blocks(0) {
            assert!(seen.insert(heir.alloc_block(0) as usize), "duplicate block");
        }
        assert!(heir.would_miss(0));
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = PoolStats::default();
        let mut p = NodePool::new(2);
        p.alloc_block(0);
        a.merge(p.stats());
        a.merge(p.stats());
        assert_eq!(a.alloc_total, 2);
        assert_eq!(a.chunks, 2);
        assert!(a.hit_rate() < 1e-9);
        a.pool_hits = 1;
        assert!((a.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chunk_blocks_rejected() {
        NodePool::new(0);
    }
}
