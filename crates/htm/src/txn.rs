//! Transactions: TL2-style lazy-versioning with opacity.
//!
//! A transaction records `(line, version)` pairs for every line it reads and
//! buffers its writes. Reads validate against a snapshot timestamp `rv`
//! taken from the global version clock at begin; observing a newer line
//! triggers *read-set extension* (raise the clock to the line's version,
//! re-validate everything, then advance `rv`), which preserves opacity — a
//! transaction never computes on state inconsistent with one atomic
//! snapshot. Commit locks the written lines in sorted order, reads (never
//! bumps) the clock for its version, re-validates the read set, applies the
//! buffered writes and publishes that version.

use std::sync::atomic::{fence, Ordering};

use crate::abort::{Abort, AbortCode};
use crate::cell::{line_runs, TxCell, TxPtr};
use crate::runtime::HtmRuntime;
use crate::sets::{ReadRecord, ReadSet, WriteSet};

/// An in-flight transaction attempt.
///
/// Obtained from [`HtmRuntime::attempt`](crate::HtmRuntime::attempt); all
/// shared-memory access inside the attempt closure must go through this
/// handle (or through freshly allocated, still-private memory).
pub struct Txn<'a> {
    pub(crate) rt: &'a HtmRuntime,
    pub(crate) rv: u64,
    pub(crate) doomed: bool,
    pub(crate) read_set: &'a mut ReadSet,
    pub(crate) write_set: &'a mut WriteSet,
    pub(crate) extensions: &'a mut u64,
}

impl<'a> Txn<'a> {
    /// The runtime this transaction runs on.
    pub fn runtime(&self) -> &'a HtmRuntime {
        self.rt
    }

    /// Transactional read of a cell.
    ///
    /// # Errors
    ///
    /// Aborts with [`AbortCode::Conflict`] if the line is locked by a
    /// committing transaction or changed since this transaction's snapshot,
    /// or with [`AbortCode::Capacity`] if the read footprint exceeds the
    /// configured line budget.
    pub fn read(&mut self, cell: &TxCell) -> Result<u64, Abort> {
        let addr = cell.addr();
        if let Some(v) = self.write_set.get(addr) {
            return Ok(v);
        }
        let mut val = 0;
        self.read_line(self.rt.line_index(addr), || {
            val = cell.raw().load(Ordering::Acquire)
        })?;
        Ok(val)
    }

    /// Transactional read of consecutive cells into `out`, validated once
    /// per 64-byte line rather than once per cell — the granularity at
    /// which hardware tracks a read set.
    ///
    /// The outcome is that of [`Self::read`] on each cell in order: the
    /// same values, the same `(line, version)` pairs recorded, the same
    /// snapshot extensions and the same capacity and conflict aborts.
    /// Only the cost differs: one version check, one snapshot test and
    /// one read-set probe per line. A line the write set touches is read
    /// cell by cell, so buffered writes are still returned and such cells
    /// still record nothing. (A commit that lands on a line *between* two
    /// per-cell reads of it aborts the per-cell loop; the span reads each
    /// line in one validated step, so it never sees that interleaving.)
    ///
    /// # Errors
    ///
    /// As [`Self::read`].
    ///
    /// # Panics
    ///
    /// Panics if `out` and `cells` differ in length.
    pub fn read_span(&mut self, cells: &[TxCell], out: &mut [u64]) -> Result<(), Abort> {
        assert_eq!(cells.len(), out.len(), "span and output differ in length");
        let mut out = out;
        for run in line_runs(cells) {
            let (dst, rest) = std::mem::take(&mut out).split_at_mut(run.len());
            out = rest;
            let li = self.rt.line_index(run[0].addr());
            if self.write_set.touches_line(li) {
                for (c, o) in run.iter().zip(dst.iter_mut()) {
                    *o = self.read(c)?;
                }
            } else {
                self.read_line(li, || {
                    for (c, o) in run.iter().zip(dst.iter_mut()) {
                        *o = c.raw().load(Ordering::Acquire);
                    }
                })?;
            }
        }
        Ok(())
    }

    /// One validated read of line `li`: runs `load` between two loads of
    /// the line's version, records the line once, then extends the
    /// snapshot if the line is newer than it.
    ///
    /// The line is recorded *before* the extension, so the extension
    /// re-validates it too. In the other order a commit landing between
    /// the load and the extension would go unseen: the extension would
    /// advance `rv` past that commit without checking the line just read,
    /// and a later read of another line the commit wrote would pass as
    /// consistent at the new `rv` (see the crate docs on opacity).
    #[inline(always)]
    fn read_line(&mut self, li: u32, mut load: impl FnMut()) -> Result<(), Abort> {
        let line = self.rt.line(li);
        let mut spins = 0usize;
        loop {
            let v1 = line.load(Ordering::SeqCst);
            if v1 & 1 == 0 {
                load();
                fence(Ordering::Acquire);
                if line.load(Ordering::Acquire) == v1 {
                    #[cfg(test)]
                    seam::after_validated_load();
                    match self.read_set.record(li, v1) {
                        ReadRecord::New | ReadRecord::Seen => {}
                        ReadRecord::VersionChanged => return Err(Abort::new(AbortCode::Conflict)),
                        ReadRecord::Capacity => return Err(Abort::new(AbortCode::Capacity)),
                    }
                    if v1 > self.rv {
                        self.extend_snapshot(v1)?;
                    }
                    return Ok(());
                }
            }
            spins += 1;
            if spins > self.rt.config().lock_spin_limit {
                return Err(Abort::new(AbortCode::Conflict));
            }
            std::hint::spin_loop();
        }
    }

    /// Transactional buffered write.
    ///
    /// The cell must remain valid until the attempt returns (in this
    /// workspace, guaranteed by epoch pinning around every operation).
    ///
    /// # Errors
    ///
    /// Aborts with [`AbortCode::Capacity`] if the write footprint exceeds
    /// the configured line budget.
    pub fn write(&mut self, cell: &TxCell, val: u64) -> Result<(), Abort> {
        let addr = cell.addr();
        let li = self.rt.line_index(addr);
        if self.write_set.insert(addr, li, val) {
            Ok(())
        } else {
            Err(Abort::new(AbortCode::Capacity))
        }
    }

    /// Typed pointer read.
    pub fn read_ptr<T>(&mut self, p: &TxPtr<T>) -> Result<*mut T, Abort> {
        self.read(p.cell()).map(|v| v as *mut T)
    }

    /// Typed pointer write.
    pub fn write_ptr<T>(&mut self, p: &TxPtr<T>, val: *mut T) -> Result<(), Abort> {
        self.write(p.cell(), val as u64)
    }

    /// Explicitly aborts the transaction with a user code, like `xabort`.
    /// Returns the `Abort` for use with `return Err(...)`/`?`.
    pub fn abort(&self, user_code: u8) -> Abort {
        Abort::explicit(user_code)
    }

    /// Current footprint in distinct cache lines `(read, written)`.
    pub fn footprint(&self) -> (usize, usize) {
        (self.read_set.len(), self.write_set.line_count())
    }

    /// Raises the clock to `v`, the version of the line just read,
    /// re-validates every recorded read and advances the snapshot to the
    /// raised clock.
    ///
    /// The raise comes *before* the validation. A commit at a version
    /// `<= new_rv` read the clock before the raise (after it, the clock
    /// reads `>= new_rv` and the commit's version is above that), and it
    /// had locked its lines before that read; so it either shows as a
    /// changed or locked line here, or wrote no line this transaction has
    /// read. Raising, not just sampling, is what keeps later commits above
    /// `new_rv`: they cannot publish at a version the snapshot already
    /// counts as seen.
    fn extend_snapshot(&mut self, v: u64) -> Result<(), Abort> {
        *self.extensions += 1;
        let new_rv = self.rt.raise_clock(v);
        for (li, ver) in self.read_set.iter() {
            let cur = self.rt.line(li).load(Ordering::SeqCst);
            if cur != ver {
                return Err(Abort::new(AbortCode::Conflict));
            }
        }
        self.rv = new_rv;
        Ok(())
    }

    /// Commit protocol. `locked_buf` and `sorted` are scratch reused
    /// across attempts.
    pub(crate) fn commit(
        &mut self,
        locked_buf: &mut Vec<(u32, u64)>,
        sorted: &mut Vec<u32>,
    ) -> Result<(), Abort> {
        if self.doomed {
            return Err(Abort::new(AbortCode::Spurious));
        }
        if self.write_set.is_empty() {
            // Read-only transactions are already consistent at `rv`.
            return Ok(());
        }

        // Phase 1: lock written lines in sorted order.
        locked_buf.clear();
        let mut lines_buf = std::mem::take(locked_buf);
        let mut pre = 0;
        self.write_set.sorted_lines(sorted);
        for &li in sorted.iter() {
            let line = self.rt.line(li);
            let mut ok = false;
            for _ in 0..self.rt.config().lock_spin_limit {
                let v = line.load(Ordering::Acquire);
                if v & 1 == 0
                    && line
                        .compare_exchange_weak(v, v | 1, Ordering::SeqCst, Ordering::Relaxed)
                        .is_ok()
                {
                    lines_buf.push((li, v));
                    pre = pre.max(v);
                    ok = true;
                    break;
                }
                std::hint::spin_loop();
            }
            if !ok {
                self.release(&lines_buf, None);
                *locked_buf = lines_buf;
                return Err(Abort::new(AbortCode::Conflict));
            }
        }

        // Phase 2: take the commit version from a load of the clock.
        let wv = self.rt.write_version(pre);

        // Phase 3: validate the read set.
        for (li, ver) in self.read_set.iter() {
            let self_locked = lines_buf.binary_search_by_key(&li, |e| e.0);
            let cur = match self_locked {
                Ok(idx) => lines_buf[idx].1, // version before we locked it
                Err(_) => self.rt.line(li).load(Ordering::SeqCst),
            };
            if cur != ver {
                self.release(&lines_buf, None);
                *locked_buf = lines_buf;
                return Err(Abort::new(AbortCode::Conflict));
            }
        }

        // Phase 4: apply buffered writes.
        for &(addr, val) in self.write_set.entries() {
            // SAFETY: `addr` is the address of a `TxCell` recorded by
            // `Txn::write`, whose validity through the attempt is the
            // caller's contract (epoch pinning).
            let cell = unsafe { &*(addr as *const TxCell) };
            cell.raw().store(val, Ordering::Release);
        }

        // Phase 5: publish the new version (unlocks).
        self.release(&lines_buf, Some(wv));
        *locked_buf = lines_buf;
        Ok(())
    }

    fn release(&self, locked: &[(u32, u64)], publish: Option<u64>) {
        for &(li, orig) in locked {
            let v = publish.unwrap_or(orig);
            self.rt.line(li).store(v, Ordering::Release);
        }
    }
}

impl std::fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("rv", &self.rv)
            .field("reads", &self.read_set.len())
            .field("writes", &self.write_set.entries().len())
            .finish()
    }
}

/// A test-only seam between a transactional read's validated load and
/// its read-set bookkeeping, where a test can land a commit from another
/// thread at exactly the instant the snapshot argument depends on.
#[cfg(test)]
pub(crate) mod seam {
    use std::cell::RefCell;

    type Hook = Box<dyn FnOnce()>;

    thread_local! {
        static AFTER_LOAD: RefCell<Option<Hook>> = const { RefCell::new(None) };
    }

    /// Runs `f` once, right after this thread's next validated load.
    pub(crate) fn arm(f: impl FnOnce() + 'static) {
        AFTER_LOAD.with(|h| *h.borrow_mut() = Some(Box::new(f)));
    }

    pub(super) fn after_validated_load() {
        if let Some(f) = AFTER_LOAD.with(|h| h.borrow_mut().take()) {
            f();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::lock_line;
    use crate::{HtmConfig, SplitMix64, TxThread};
    use std::sync::Arc;

    /// Twelve whole lines of cells, so line boundaries sit at known
    /// indices (every eighth cell).
    const CELLS: usize = 96;

    #[repr(C, align(64))]
    struct Arena([TxCell; CELLS]);

    fn arena() -> Box<Arena> {
        Box::new(Arena(std::array::from_fn(|i| TxCell::new(i as u64))))
    }

    /// Work a transaction does before the span read.
    #[derive(Debug, Clone, Copy)]
    enum Pre {
        Read(usize),
        Write(usize, u64),
    }

    /// What a transaction saw and left behind: the span's values (or the
    /// abort), its sorted read set, its snapshot and its footprint.
    #[derive(Debug, PartialEq)]
    struct Seen {
        vals: Result<Vec<u64>, AbortCode>,
        read_set: Vec<(u32, u64)>,
        rv: u64,
        footprint: (usize, usize),
    }

    /// Runs `pre`, then `mid` (outside the transaction's view, like
    /// another thread), then reads `span` cell by cell or as one span.
    /// The attempt always aborts explicitly, so it leaves memory as found.
    fn run(
        rt: &HtmRuntime,
        th: &mut TxThread,
        a: &Arena,
        pre: &[Pre],
        mid: &dyn Fn(),
        span: std::ops::Range<usize>,
        as_span: bool,
    ) -> Seen {
        let cells = &a.0[span];
        let mut seen = None;
        let _ = rt.attempt(th, |tx| {
            let mut body = || -> Result<Vec<u64>, Abort> {
                for p in pre {
                    match *p {
                        Pre::Read(i) => {
                            tx.read(&a.0[i])?;
                        }
                        Pre::Write(i, v) => tx.write(&a.0[i], v)?,
                    }
                }
                mid();
                let mut vals = vec![0; cells.len()];
                if as_span {
                    tx.read_span(cells, &mut vals)?;
                } else {
                    for (c, o) in cells.iter().zip(vals.iter_mut()) {
                        *o = tx.read(c)?;
                    }
                }
                Ok(vals)
            };
            let vals = body().map_err(|e| e.code());
            let mut read_set: Vec<_> = tx.read_set.iter().collect();
            read_set.sort_unstable();
            seen = Some(Seen {
                vals,
                read_set,
                rv: tx.rv,
                footprint: tx.footprint(),
            });
            Err::<(), _>(tx.abort(0))
        });
        seen.expect("the body ran")
    }

    /// Seeded runs of 1..40 cells at any start, some crossing several
    /// lines, after transactions that already read some lines and wrote
    /// others (the span's own lines included), on a roomy and on a
    /// 6-line read budget: `read_span` and the per-cell loop return the
    /// same values and leave the same read set, snapshot and footprint.
    #[test]
    fn read_span_matches_per_cell_reads() {
        let a = arena();
        let mut rng = SplitMix64::new(0x5EED_5BA1);
        for cap in [1024, 6] {
            let rt = HtmRuntime::new(HtmConfig::default().with_capacity(cap, 64));
            let mut th = rt.register_thread();
            let (mut spans, mut aborted) = (0, 0);
            for _ in 0..1500 {
                // Direct stores between cases give the lines distinct
                // versions, all inside the next transaction's snapshot.
                for _ in 0..rng.next_below(4) {
                    let i = rng.next_below(CELLS as u64) as usize;
                    a.0[i].store_direct(&rt, rng.next_u64() >> 1);
                }
                let len = 1 + rng.next_below(39) as usize;
                let start = rng.next_below((CELLS - len + 1) as u64) as usize;
                let pre: Vec<Pre> = (0..rng.next_below(6))
                    .map(|_| {
                        // Half the work lands on the span's own lines.
                        let i = if rng.chance(0.5) {
                            (start / 8 * 8 + rng.next_below(len as u64 + 8) as usize).min(CELLS - 1)
                        } else {
                            rng.next_below(CELLS as u64) as usize
                        };
                        if rng.chance(0.5) {
                            Pre::Write(i, rng.next_u64() >> 1)
                        } else {
                            Pre::Read(i)
                        }
                    })
                    .collect();
                let span = start..start + len;
                let cell = run(&rt, &mut th, &a, &pre, &|| {}, span.clone(), false);
                let whole = run(&rt, &mut th, &a, &pre, &|| {}, span.clone(), true);
                assert_eq!(whole, cell, "span {span:?} after {pre:?}");
                spans += 1;
                aborted += usize::from(cell.vals.is_err());
            }
            if cap == 6 {
                assert!(aborted > 0, "the small budget never overflowed");
            }
            assert!(aborted < spans, "every case aborted");
        }
    }

    /// A direct store to a line of the span, made after the transaction
    /// began and before the span is read: a line first read after the
    /// store extends the snapshot; a line already read makes extension
    /// fail. Both strategies extend, or abort, alike.
    #[test]
    fn store_after_begin_extends_or_aborts_like_per_cell_reads() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let a = arena();
        let mut th = rt.register_thread();
        // Lines 1..=3; the store hits line 2.
        let span = 10..30;
        let store = || a.0[17].store_direct(&rt, 1017);
        let cases: [(&[Pre], Option<AbortCode>); 3] = [
            // Line 0 read before, untouched: extension succeeds.
            (&[Pre::Read(0)], None),
            // Line 2 itself read before the store: its version changed.
            (&[Pre::Read(20)], Some(AbortCode::Conflict)),
            // Line 2 written before, so read cell by cell: still extends.
            (&[Pre::Write(18, 7)], None),
        ];
        for (pre, want) in cases {
            let cell = run(&rt, &mut th, &a, pre, &store, span.clone(), false);
            let whole = run(&rt, &mut th, &a, pre, &store, span.clone(), true);
            assert_eq!(cell.vals.as_ref().err().copied(), want, "{pre:?}");
            assert_eq!(whole.vals.as_ref().err().copied(), want, "{pre:?}");
            assert_eq!(whole.footprint, cell.footprint, "{pre:?}");
            // Each run's own store gave line 2 a newer version, so the
            // sets agree on lines and differ only in that version.
            let lines = |s: &Seen| s.read_set.iter().map(|e| e.0).collect::<Vec<_>>();
            assert_eq!(lines(&whole), lines(&cell), "{pre:?}");
            if want.is_none() {
                assert_eq!(whole.vals, cell.vals);
                assert_eq!(whole.vals.as_ref().unwrap()[7], 1017);
                let line2 = rt.line_index(a.0[17].addr());
                let v = rt.line(line2).load(Ordering::Acquire);
                assert!(whole.read_set.contains(&(line2, v)), "{pre:?}");
                assert!(whole.rv >= v, "the snapshot was extended past the store");
            }
        }
        // A line locked by a committer for longer than the spin limit is
        // a conflict either way.
        let line = rt.line(rt.line_index(a.0[17].addr()));
        let v0 = lock_line(line);
        for as_span in [false, true] {
            let s = run(&rt, &mut th, &a, &[], &|| {}, span.clone(), as_span);
            assert_eq!(s.vals, Err(AbortCode::Conflict));
        }
        line.store(v0, Ordering::Release);
    }

    /// Commits `writes` (arena index, value) from a fresh thread and waits
    /// for it: a writer the transaction under test cannot see coming.
    fn commit_elsewhere(rt: &Arc<HtmRuntime>, a: &Arc<Arena>, writes: &[(usize, u64)]) {
        let (rt, a, writes) = (rt.clone(), a.clone(), writes.to_vec());
        std::thread::spawn(move || {
            let mut w = rt.register_thread();
            rt.attempt(&mut w, |tx| {
                writes.iter().try_for_each(|&(i, v)| tx.write(&a.0[i], v))
            })
            .expect("an uncontended writer commits");
        })
        .join()
        .unwrap();
    }

    /// The version on the line holding arena cell `i`.
    fn version(rt: &HtmRuntime, a: &Arena, i: usize) -> u64 {
        rt.line(rt.line_index(a.0[i].addr()))
            .load(Ordering::Acquire)
    }

    /// Arena indices on pairwise distinct lines of the line table.
    fn distinct_lines(rt: &HtmRuntime, a: &Arena, idx: &[usize]) {
        let mut lines: Vec<u32> = idx.iter().map(|&i| rt.line_index(a.0[i].addr())).collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(lines.len(), idx.len(), "cells share a line");
    }

    /// A commit to both `x` and `y` lands between the validated load of
    /// `x` (newer than the snapshot, so the read must extend it) and the
    /// extension. The extension has to see `x`'s line change and abort:
    /// otherwise it would advance `rv` past the commit and the later read
    /// of `y` would pair the old `x` with the new `y`.
    #[test]
    fn opacity_commit_between_load_and_extension_aborts() {
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        let a: Arc<Arena> = Arc::from(arena());
        let (xi, yi) = (0, 40);
        distinct_lines(&rt, &a, &[xi, yi]);
        let mut th = rt.register_thread();
        let r = rt.attempt(&mut th, |tx| {
            // Give x's line a version newer than the snapshot.
            a.0[xi].store_direct(&rt, 5);
            let (rt2, a2) = (rt.clone(), a.clone());
            seam::arm(move || commit_elsewhere(&rt2, &a2, &[(xi, 1000), (yi, 1000)]));
            let x = tx.read(&a.0[xi])?;
            let y = tx.read(&a.0[yi])?;
            Ok((x, y))
        });
        assert_eq!(
            r.map_err(|e| e.code()),
            Err(AbortCode::Conflict),
            "torn pair"
        );
        assert_eq!((a.0[xi].load_plain(), a.0[yi].load_plain()), (1000, 1000));
    }

    /// A commit publishes `z` at clock + 2 and leaves the clock where it
    /// was. A reader that has read `x` meets `z`'s newer line and extends
    /// its snapshot over it. A second commit then writes `x` and `y`.
    /// Because the extension raised the clock to `z`'s version, that
    /// commit publishes above the extended snapshot, so the reader's read
    /// of `y` extends again, finds `x` changed and aborts. Had the
    /// extension only sampled the clock, the second commit would publish
    /// `y` at a version the snapshot already counts as seen, and the
    /// reader would pair the old `x` with the new `y`.
    #[test]
    fn opacity_extension_raises_the_clock_over_later_commits() {
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        let a: Arc<Arena> = Arc::from(arena());
        let (xi, yi, zi) = (0, 40, 80);
        distinct_lines(&rt, &a, &[xi, yi, zi]);
        let mut th = rt.register_thread();
        let r = rt.attempt(&mut th, |tx| {
            let rv = tx.rv;
            // The first commit lands right after the validated load of x.
            let (rt2, a2) = (rt.clone(), a.clone());
            seam::arm(move || commit_elsewhere(&rt2, &a2, &[(zi, 7)]));
            let x = tx.read(&a.0[xi])?;
            assert_eq!(rt.clock_now(), rv, "a commit advanced the clock");
            assert_eq!(version(&rt, &a, zi), rv + 2, "published at clock + 2");
            assert_eq!(tx.read(&a.0[zi])?, 7);
            assert_eq!(tx.rv, rv + 2, "the snapshot extended over z");
            commit_elsewhere(&rt, &a, &[(xi, 1000), (yi, 1000)]);
            let y = tx.read(&a.0[yi])?;
            Ok((x, y))
        });
        match r {
            Err(e) => assert_eq!(e.code(), AbortCode::Conflict),
            Ok(pair) => assert_eq!(pair, (1000, 1000), "torn pair"),
        }
        assert_eq!((a.0[xi].load_plain(), a.0[yi].load_plain()), (1000, 1000));
    }

    /// Two commits at one clock value rewrite `x`; the second lands
    /// between a reader's validated load of `x` (the first commit's value)
    /// and its extension, which re-validates the line. The second commit
    /// publishes at its line's pre-lock version + 2, above the clock + 2
    /// both commits read, so the line's version moves and the reader,
    /// which would write a value computed from the overwritten `x`, aborts.
    /// Without that term both commits publish the same version, the
    /// change goes unseen and the reader's commit loses the update.
    #[test]
    fn opacity_commits_at_one_clock_value_still_change_the_version() {
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        let a: Arc<Arena> = Arc::from(arena());
        let (xi, yi) = (0, 40);
        distinct_lines(&rt, &a, &[xi, yi]);
        let clock = rt.clock_now();
        commit_elsewhere(&rt, &a, &[(xi, 1)]);
        assert_eq!(rt.clock_now(), clock, "a commit advanced the clock");
        let mut th = rt.register_thread();
        let r = rt.attempt(&mut th, |tx| {
            let (rt2, a2) = (rt.clone(), a.clone());
            seam::arm(move || {
                commit_elsewhere(&rt2, &a2, &[(xi, 2)]);
                assert_eq!(rt2.clock_now(), clock, "the commits share a clock value");
            });
            let x = tx.read(&a.0[xi])?;
            tx.write(&a.0[yi], x + 100)?;
            Ok(x)
        });
        assert_eq!(
            r.map_err(|e| e.code()),
            Err(AbortCode::Conflict),
            "lost update"
        );
        assert_eq!((a.0[xi].load_plain(), a.0[yi].load_plain()), (2, yi as u64));
    }

    /// Extensions are counted per thread, aborted attempts included.
    #[test]
    fn extensions_are_counted() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let a = arena();
        let mut th = rt.register_thread();
        assert_eq!(th.extensions(), 0);
        a.0[0].store_direct(&rt, 9);
        rt.attempt(&mut th, |tx| tx.read(&a.0[0])).unwrap();
        assert_eq!(th.extensions(), 1, "a line newer than the snapshot");
        rt.attempt(&mut th, |tx| tx.read(&a.0[0])).unwrap();
        assert_eq!(th.extensions(), 1, "the raised clock covers the line");
    }
}
