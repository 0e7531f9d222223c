//! Transactions: TL2-style lazy-versioning with opacity.
//!
//! A transaction records `(line, version)` pairs for every line it reads and
//! buffers its writes. Reads validate against a snapshot timestamp `rv`
//! taken from the global version clock at begin; observing a newer line
//! triggers *read-set extension* (re-validate everything, then advance
//! `rv`), which preserves opacity — a transaction never computes on state
//! inconsistent with one atomic snapshot. Commit locks the written lines in
//! sorted order, re-validates the read set, applies the buffered writes and
//! publishes a new version from the global clock.

use std::sync::atomic::{fence, Ordering};

use crate::abort::{Abort, AbortCode};
use crate::cell::{TxCell, TxPtr};
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
        let li = self.rt.line_index(addr);
        let line = self.rt.line(li);
        let mut spins = 0usize;
        loop {
            let v1 = line.load(Ordering::Acquire);
            if v1 & 1 == 0 {
                let val = cell.raw().load(Ordering::Acquire);
                fence(Ordering::Acquire);
                let v2 = line.load(Ordering::Acquire);
                if v1 == v2 {
                    if v1 > self.rv {
                        self.extend_snapshot()?;
                    }
                    return match self.read_set.record(li, v1) {
                        ReadRecord::New | ReadRecord::Seen => Ok(val),
                        ReadRecord::VersionChanged => Err(Abort::new(AbortCode::Conflict)),
                        ReadRecord::Capacity => Err(Abort::new(AbortCode::Capacity)),
                    };
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

    /// Re-validates every recorded read and advances the snapshot timestamp.
    fn extend_snapshot(&mut self) -> Result<(), Abort> {
        let new_rv = self.rt.clock_now();
        for (li, ver) in self.read_set.iter() {
            let cur = self.rt.line(li).load(Ordering::Acquire);
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
        self.write_set.sorted_lines(sorted);
        for &li in sorted.iter() {
            let line = self.rt.line(li);
            let mut ok = false;
            for _ in 0..self.rt.config().lock_spin_limit {
                let v = line.load(Ordering::Acquire);
                if v & 1 == 0
                    && line
                        .compare_exchange_weak(v, v | 1, Ordering::AcqRel, Ordering::Relaxed)
                        .is_ok()
                {
                    lines_buf.push((li, v));
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

        // Phase 2: acquire a commit timestamp.
        let wv = self.rt.bump_clock();

        // Phase 3: validate the read set.
        for (li, ver) in self.read_set.iter() {
            let self_locked = lines_buf.binary_search_by_key(&li, |e| e.0);
            let cur = match self_locked {
                Ok(idx) => lines_buf[idx].1, // version before we locked it
                Err(_) => self.rt.line(li).load(Ordering::Acquire),
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
