//! The HTM runtime: global version clock, hashed line table, thread
//! registration and the transaction attempt entry point.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::abort::Abort;
use crate::cell::{line_runs, load_line_direct, TxCell};
use crate::config::HtmConfig;
use crate::pad::CachePadded;
use crate::rng::SplitMix64;
use crate::sets::{ReadSet, WriteSet};
use crate::txn::Txn;

/// Maximum number of registered threads (the paper packs the process name
/// into 15 bits of the tagged sequence number).
pub const MAX_THREADS: usize = 1 << 15;

/// Identifier of a registered thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u16);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Per-thread transactional context: read/write sets and the spurious-abort
/// PRNG, reused across attempts to avoid per-transaction allocation.
pub struct TxThread {
    id: ThreadId,
    rng: SplitMix64,
    read_set: ReadSet,
    write_set: WriteSet,
    locked_buf: Vec<(u32, u64)>,
    sorted_buf: Vec<u32>,
    extensions: u64,
}

impl TxThread {
    /// This thread's id.
    pub fn id(&self) -> ThreadId {
        self.id
    }

    /// Snapshot extensions this thread's transactions have run so far,
    /// aborted attempts included: each is one clock raise and one
    /// re-validation of the read set, the price of a clock that commits
    /// never advance.
    pub fn extensions(&self) -> u64 {
        self.extensions
    }

    /// Mutable access to the thread's PRNG (used by tests for determinism).
    pub fn rng_mut(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }
}

impl std::fmt::Debug for TxThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxThread").field("id", &self.id).finish()
    }
}

/// A simulated best-effort HTM.
///
/// See the [crate docs](crate) for semantics. All cells accessed by
/// transactions on one runtime must be used only with that runtime (each
/// data structure in this workspace owns one).
pub struct HtmRuntime {
    cfg: HtmConfig,
    clock: CachePadded<AtomicU64>,
    lines: Box<[AtomicU64]>,
    line_mask: u64,
    next_thread: AtomicU32,
}

impl HtmRuntime {
    /// Creates a runtime with the given configuration.
    pub fn new(cfg: HtmConfig) -> Self {
        let n = 1usize << cfg.line_table_bits;
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, || AtomicU64::new(0));
        HtmRuntime {
            line_mask: (n - 1) as u64,
            lines: v.into_boxed_slice(),
            clock: CachePadded::new(AtomicU64::new(0)),
            next_thread: AtomicU32::new(0),
            cfg,
        }
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &HtmConfig {
        &self.cfg
    }

    /// Registers the calling thread, allocating a fresh id and context.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_THREADS`] threads register.
    pub fn register_thread(&self) -> TxThread {
        let id = self.next_thread.fetch_add(1, Ordering::AcqRel);
        assert!(
            (id as usize) < MAX_THREADS,
            "too many threads registered with the HTM runtime"
        );
        TxThread {
            id: ThreadId(id as u16),
            rng: SplitMix64::new(self.cfg.seed ^ (0x9E37 + id as u64 * 0x1_0000_0001)),
            read_set: ReadSet::with_capacity(self.cfg.read_capacity_lines),
            write_set: WriteSet::with_capacity(self.cfg.write_capacity_lines),
            locked_buf: Vec::with_capacity(16),
            sorted_buf: Vec::with_capacity(16),
            extensions: 0,
        }
    }

    /// Number of threads registered so far.
    pub fn registered_threads(&self) -> usize {
        self.next_thread.load(Ordering::Acquire) as usize
    }

    /// Runs one transaction attempt.
    ///
    /// The closure performs transactional reads and writes through the
    /// provided [`Txn`]; returning `Ok` requests a commit, returning `Err`
    /// (typically via [`Txn::abort`] or `?`) aborts with no effect on shared
    /// memory.
    ///
    /// # Errors
    ///
    /// Returns the abort reason if the attempt failed (explicit abort,
    /// conflict, capacity, or spurious). The caller decides whether to
    /// retry, wait, or take a software path — that policy lives in
    /// `threepath-core`.
    pub fn attempt<T>(
        &self,
        th: &mut TxThread,
        f: impl FnOnce(&mut Txn<'_>) -> Result<T, Abort>,
    ) -> Result<T, Abort> {
        th.read_set.clear();
        th.write_set.clear();
        let doomed = th.rng.chance(self.cfg.spurious_abort_prob);
        let mut tx = Txn {
            rt: self,
            rv: self.clock_now(),
            doomed,
            read_set: &mut th.read_set,
            write_set: &mut th.write_set,
            extensions: &mut th.extensions,
        };
        let val = f(&mut tx)?;
        tx.commit(&mut th.locked_buf, &mut th.sorted_buf)?;
        Ok(val)
    }

    #[inline]
    pub(crate) fn line_index(&self, addr: usize) -> u32 {
        let line = (addr as u64) >> 6; // 64-byte cache lines
        (line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24 & self.line_mask) as u32
    }

    #[inline]
    pub(crate) fn line(&self, index: u32) -> &AtomicU64 {
        &self.lines[index as usize]
    }

    #[inline]
    pub(crate) fn line_for(&self, addr: usize) -> &AtomicU64 {
        self.line(self.line_index(addr))
    }

    /// Reads `cells` outside any transaction into `out`, with one seqlock
    /// read per 64-byte line instead of one per cell: each line's cells
    /// are loaded between two loads of its version, so every line is read
    /// in one committed state of it, as [`TxCell::load_direct`] reads one
    /// cell. Distinct lines are read one after another, not atomically
    /// together.
    ///
    /// # Panics
    ///
    /// Panics if `out` and `cells` differ in length.
    pub fn load_span_direct(&self, cells: &[TxCell], out: &mut [u64]) {
        assert_eq!(cells.len(), out.len(), "span and output differ in length");
        let mut out = out;
        for run in line_runs(cells) {
            let (dst, rest) = std::mem::take(&mut out).split_at_mut(run.len());
            out = rest;
            load_line_direct(self, run[0].addr(), || {
                for (c, o) in run.iter().zip(dst.iter_mut()) {
                    *o = c.raw().load(Ordering::Acquire);
                }
            });
        }
    }

    /// Read-ahead hint for the `bytes` at `p`, about to be read with
    /// direct loads: prefetches each of their cache lines and the
    /// line-table word a [`TxCell::load_direct`] of a cell on that line
    /// probes. A hint only — it never faults, never changes what any load
    /// returns, and compiles to nothing off x86_64 and under Miri.
    #[inline]
    pub fn prefetch(&self, p: *const u8, bytes: usize) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let end = p.wrapping_add(bytes);
            // Start at the line holding `p`; step a line at a time.
            let mut line = p.wrapping_sub(p as usize % crate::LINE_BYTES);
            while line < end {
                let word = self.line_for(line as usize) as *const AtomicU64;
                // SAFETY: `prefetcht0` is an architectural no-op on any
                // address (no fault, no visible effect); SSE is baseline
                // on x86_64.
                unsafe {
                    _mm_prefetch::<_MM_HINT_T0>(line as *const i8);
                    _mm_prefetch::<_MM_HINT_T0>(word as *const i8);
                }
                line = line.wrapping_add(crate::LINE_BYTES);
            }
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        let _ = (p, bytes);
    }

    /// The global version clock: a begin's snapshot and every writer's
    /// version start from this load.
    #[inline]
    pub(crate) fn clock_now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// The version a writer publishes on the lines it has locked, whose
    /// largest pre-lock version is `pre`. It reads the clock and never
    /// writes it (TL2's GV5), so a commit charges no shared write. Above
    /// the clock, it lies past every snapshot taken before this load;
    /// above `pre`, it keeps each line's versions strictly increasing
    /// when commits share a clock value. Call it only after the lines
    /// are locked.
    #[inline]
    pub(crate) fn write_version(&self, pre: u64) -> u64 {
        self.clock_now().max(pre) + 2
    }

    /// Raises the clock to at least `v` (a line version a snapshot
    /// extension has just met) and returns the clock after the raise:
    /// the extended snapshot. A later writer reads a clock `>= v` and so
    /// publishes above the snapshot. A plain load suffices when the clock
    /// already covers `v`; only a raise pays the read-modify-write.
    #[inline]
    pub(crate) fn raise_clock(&self, v: u64) -> u64 {
        let now = self.clock_now();
        if now >= v {
            return now;
        }
        self.clock.fetch_max(v, Ordering::SeqCst).max(v)
    }

    /// Convenience: a fused "transactional fetch-add" on a cell, used by
    /// benchmarks and tests.
    pub fn tx_fetch_add(&self, th: &mut TxThread, cell: &TxCell, delta: u64) -> Result<u64, Abort> {
        self.attempt(th, |tx| {
            let v = tx.read(cell)?;
            tx.write(cell, v.wrapping_add(delta))?;
            Ok(v)
        })
    }
}

impl std::fmt::Debug for HtmRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmRuntime")
            .field("config", &self.cfg)
            .field("clock", &self.clock_now())
            .field("threads", &self.registered_threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort::{codes, AbortCode};
    use std::sync::Arc;

    #[test]
    fn empty_transaction_commits() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let mut th = rt.register_thread();
        let r = rt.attempt(&mut th, |_tx| Ok(7u32));
        assert_eq!(r.unwrap(), 7);
    }

    #[test]
    fn read_write_read_own_writes() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let mut th = rt.register_thread();
        let c = TxCell::new(10);
        let r = rt.attempt(&mut th, |tx| {
            let a = tx.read(&c)?;
            tx.write(&c, a + 1)?;
            let b = tx.read(&c)?; // must see own buffered write
            tx.write(&c, b + 1)?;
            Ok((a, b))
        });
        assert_eq!(r.unwrap(), (10, 11));
        assert_eq!(c.load_direct(&rt), 12);
    }

    #[test]
    fn explicit_abort_leaves_memory_untouched() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let mut th = rt.register_thread();
        let c = TxCell::new(1);
        let r: Result<(), Abort> = rt.attempt(&mut th, |tx| {
            tx.write(&c, 999)?;
            Err(tx.abort(codes::VALIDATION))
        });
        assert_eq!(r.unwrap_err().user_code(), Some(codes::VALIDATION));
        assert_eq!(c.load_direct(&rt), 1);
    }

    #[test]
    fn capacity_abort_on_reads() {
        let rt = HtmRuntime::new(HtmConfig::default().with_capacity(4, 4));
        let mut th = rt.register_thread();
        // 64 cells spread over many lines.
        let cells: Vec<TxCell> = (0..64).map(TxCell::new).collect();
        let r = rt.attempt(&mut th, |tx| {
            let mut sum = 0;
            for c in &cells {
                sum += tx.read(c)?;
            }
            Ok(sum)
        });
        assert_eq!(r.unwrap_err().code(), AbortCode::Capacity);
    }

    #[test]
    fn capacity_abort_on_writes() {
        let rt = HtmRuntime::new(HtmConfig::default().with_capacity(1024, 2));
        let mut th = rt.register_thread();
        let cells: Vec<TxCell> = (0..64).map(TxCell::new).collect();
        let r = rt.attempt(&mut th, |tx| {
            for (i, c) in cells.iter().enumerate() {
                tx.write(c, i as u64)?;
            }
            Ok(())
        });
        assert_eq!(r.unwrap_err().code(), AbortCode::Capacity);
        // None of the buffered writes took effect.
        for c in &cells {
            assert!(c.load_direct(&rt) < 64);
        }
    }

    #[test]
    fn capacity_boundary_is_exact() {
        // Reading exactly `read_capacity_lines` distinct lines commits;
        // one more aborts. Cells are spaced a line apart so each occupies
        // its own line (modulo hash collisions, avoided by the small
        // count vs the 2^16-entry table).
        let cap = 16;
        let rt = HtmRuntime::new(HtmConfig::default().with_capacity(cap, cap));
        let mut th = rt.register_thread();
        #[repr(align(64))]
        struct Line(TxCell);
        let cells: Vec<Line> = (0..cap as u64 + 1).map(|i| Line(TxCell::new(i))).collect();

        let ok = rt.attempt(&mut th, |tx| {
            for c in &cells[..cap] {
                tx.read(&c.0)?;
            }
            Ok(())
        });
        assert!(ok.is_ok(), "exactly-at-capacity must commit");

        let over = rt.attempt(&mut th, |tx| {
            for c in &cells[..cap + 1] {
                tx.read(&c.0)?;
            }
            Ok(())
        });
        assert_eq!(over.unwrap_err().code(), AbortCode::Capacity);
    }

    #[test]
    fn false_sharing_conflicts_at_line_granularity() {
        // Two distinct cells on one cache line: a direct store to one must
        // abort a transaction that only read the *other* — the paper's
        // conflict-abort granularity (Section 2).
        let rt = HtmRuntime::new(HtmConfig::default());
        let mut th = rt.register_thread();
        #[repr(align(64))]
        struct PairedLine {
            a: TxCell,
            b: TxCell,
        }
        let pair = PairedLine {
            a: TxCell::new(1),
            b: TxCell::new(2),
        };
        let r = rt.attempt(&mut th, |tx| {
            let v = tx.read(&pair.a)?;
            pair.b.store_direct(&rt, 99); // neighbour write, same line
            tx.write(&pair.a, v + 1)?;
            Ok(())
        });
        assert_eq!(r.unwrap_err().code(), AbortCode::Conflict);
        assert_eq!(pair.a.load_direct(&rt), 1);
    }

    #[test]
    fn spurious_aborts_fire_with_probability_one() {
        let rt = HtmRuntime::new(HtmConfig::default().with_spurious(1.0));
        let mut th = rt.register_thread();
        let c = TxCell::new(0);
        for _ in 0..10 {
            let r = rt.attempt(&mut th, |tx| {
                tx.write(&c, 1)?;
                Ok(())
            });
            assert_eq!(r.unwrap_err().code(), AbortCode::Spurious);
        }
        assert_eq!(c.load_direct(&rt), 0);
    }

    #[test]
    fn direct_store_aborts_conflicting_transaction() {
        // A transaction that read a cell must fail to commit if a direct
        // (non-transactional) store intervened: strong atomicity.
        let rt = HtmRuntime::new(HtmConfig::default());
        let mut th = rt.register_thread();
        let c = TxCell::new(5);
        let d = TxCell::new(0);
        let r = rt.attempt(&mut th, |tx| {
            let v = tx.read(&c)?;
            // Simulate an interleaved non-transactional writer.
            c.store_direct(&rt, 77);
            tx.write(&d, v)?;
            Ok(())
        });
        assert_eq!(r.unwrap_err().code(), AbortCode::Conflict);
        assert_eq!(d.load_direct(&rt), 0);
    }

    #[test]
    fn opacity_read_set_extension() {
        // Reading a newly-updated line after an unrelated commit must either
        // observe a consistent snapshot (extension succeeds) or abort. Here
        // extension succeeds because the earlier read is still valid.
        let rt = HtmRuntime::new(HtmConfig::default());
        let mut th = rt.register_thread();
        // Padded so the two cells are guaranteed to live on distinct cache
        // lines; adjacent stack cells would share a line and the direct
        // store would (correctly) conflict with the earlier read.
        let a = crate::CachePadded::new(TxCell::new(1));
        let b = crate::CachePadded::new(TxCell::new(2));
        let r = rt.attempt(&mut th, |tx| {
            let x = tx.read(&a)?;
            b.store_direct(&rt, 20); // bump b's line beyond rv
            let y = tx.read(&b)?; // forces extension; a unchanged -> ok
            Ok((x, y))
        });
        assert_eq!(r.unwrap(), (1, 20));
    }

    #[test]
    fn opacity_no_torn_snapshot() {
        // Invariant x == y maintained by every writer; readers must never
        // observe x != y inside a transaction.
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        let x = Arc::new(TxCell::new(0));
        let y = Arc::new(TxCell::new(0));
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            {
                let (rt, x, y, stop) = (rt.clone(), x.clone(), y.clone(), stop.clone());
                s.spawn(move || {
                    let mut th = rt.register_thread();
                    for i in 1..2000u64 {
                        let _ = rt.attempt(&mut th, |tx| {
                            tx.write(&x, i)?;
                            tx.write(&y, i)?;
                            Ok(())
                        });
                    }
                    stop.store(1, Ordering::Release);
                });
            }
            for _ in 0..2 {
                let (rt, x, y, stop) = (rt.clone(), x.clone(), y.clone(), stop.clone());
                s.spawn(move || {
                    let mut th = rt.register_thread();
                    while stop.load(Ordering::Acquire) == 0 {
                        let r = rt.attempt(&mut th, |tx| {
                            let a = tx.read(&x)?;
                            let b = tx.read(&y)?;
                            Ok((a, b))
                        });
                        if let Ok((a, b)) = r {
                            assert_eq!(a, b, "torn transactional snapshot");
                        }
                    }
                });
            }
        });
        // Also check via direct reads (strong atomicity of commit).
        assert_eq!(x.load_direct(&rt), y.load_direct(&rt));
    }

    #[test]
    fn concurrent_counter_increments_are_not_lost() {
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        let c = Arc::new(TxCell::new(0));
        let per_thread = 500;
        let threads = 4;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let rt = rt.clone();
                let c = c.clone();
                s.spawn(move || {
                    let mut th = rt.register_thread();
                    let mut done = 0;
                    while done < per_thread {
                        if rt.tx_fetch_add(&mut th, &c, 1).is_ok() {
                            done += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(c.load_direct(&rt), threads * per_thread);
    }

    #[test]
    fn prefetch_is_a_pure_hint() {
        // Any address, even null or unaligned, and any length: no fault,
        // no effect on cells or their line versions.
        let rt = HtmRuntime::new(HtmConfig::default());
        let cells: Vec<TxCell> = (0..32).map(TxCell::new).collect();
        let before = rt.line_for(cells[0].addr()).load(Ordering::Acquire);
        rt.prefetch(cells.as_ptr().cast::<u8>().wrapping_add(3), 32 * 8);
        rt.prefetch(std::ptr::null(), 4096);
        rt.prefetch(cells.as_ptr().cast::<u8>(), 0);
        assert_eq!(rt.line_for(cells[0].addr()).load(Ordering::Acquire), before);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.load_direct(&rt), i as u64);
        }
    }

    /// A line locked by a committer when a direct span read starts: the
    /// reader waits the lock out and returns the committed state of that
    /// line, never a mix — as per-cell `load_direct` does.
    #[test]
    fn load_span_direct_waits_out_a_locked_line() {
        #[repr(C, align(64))]
        struct Lines([TxCell; 32]);
        let rt = HtmRuntime::new(HtmConfig::default());
        let a = Lines(std::array::from_fn(|i| TxCell::new(i as u64)));
        // Lines 0..=2; line 1 (cells 8..16) is the locked one.
        let span = &a.0[4..20];
        for per_cell in [false, true] {
            let line = rt.line_for(a.0[8].addr());
            let v0 = crate::cell::lock_line(line);
            let got = std::thread::scope(|s| {
                let reader = s.spawn(|| {
                    let mut out = vec![0; span.len()];
                    if per_cell {
                        for (c, o) in span.iter().zip(out.iter_mut()) {
                            *o = c.load_direct(&rt);
                        }
                    } else {
                        rt.load_span_direct(span, &mut out);
                    }
                    out
                });
                // The reader cannot return before the release below; the
                // pause only lets it start spinning on the lock first.
                std::thread::sleep(std::time::Duration::from_millis(20));
                // A commit's write-back, then its release of the line.
                for c in &a.0[8..16] {
                    c.raw().store(c.load_plain() + 100, Ordering::Release);
                }
                line.store(rt.write_version(v0), Ordering::Release);
                reader.join().unwrap()
            });
            let want: Vec<u64> = span.iter().map(TxCell::load_plain).collect();
            assert_eq!(got, want, "per_cell = {per_cell}");
        }
        assert_eq!(a.0[8].load_plain(), 208, "both rounds committed");
    }

    #[test]
    fn load_span_direct_matches_per_cell_loads() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let cells: Vec<TxCell> = (0..40).map(|i| TxCell::new(i * 3)).collect();
        for (lo, hi) in [(0, 40), (3, 4), (5, 29), (39, 40), (7, 7)] {
            let mut out = vec![0; hi - lo];
            rt.load_span_direct(&cells[lo..hi], &mut out);
            let want: Vec<u64> = cells[lo..hi].iter().map(|c| c.load_direct(&rt)).collect();
            assert_eq!(out, want);
        }
    }

    #[test]
    fn thread_ids_are_unique() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let a = rt.register_thread();
        let b = rt.register_thread();
        assert_ne!(a.id(), b.id());
        assert_eq!(rt.registered_threads(), 2);
    }

    #[test]
    fn footprint_reporting() {
        let rt = HtmRuntime::new(HtmConfig::reliable());
        let mut th = rt.register_thread();
        let cells: Vec<TxCell> = (0..8).map(TxCell::new).collect();
        rt.attempt(&mut th, |tx| {
            for c in &cells {
                tx.read(c)?;
            }
            tx.write(&cells[0], 9)?;
            let (r, w) = tx.footprint();
            assert!(r >= 1);
            assert_eq!(w, 1);
            Ok(())
        })
        .unwrap();
    }
}
