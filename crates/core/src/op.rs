//! The template as code: a tree supplies each operation once, as a search
//! and the bodies that act on what it found, and
//! [`ExecCtx`](crate::ExecCtx) derives every execution path from them.
//!
//! * [`SeqOp`] — a search and a *sequential* body over [`Mem`]. Run in a
//!   transaction over [`TxMem`](crate::TxMem) it is the fast path; run
//!   over [`DirectMem`] it is TLE's locked path.
//! * [`TemplateOp`] — adds the *tree update template* body over
//!   [`TemplateMode`]. Run in a transaction over [`TxMode`](crate::TxMode)
//!   (HTM LLX/SCX) it is the middle path (and 2-path-con's fast path); run
//!   over [`OrigMode`] (software LLX/SCX) it is the lock-free fallback.
//! * [`ReadOp`] — a read-only walk over [`TxRead`], plus the software
//!   path's way of reading consistently when the walk alone is not.
//!
//! [`ExecCtx::run_update`](crate::ExecCtx::run_update),
//! [`ExecCtx::run_query`](crate::ExecCtx::run_query) and
//! [`ExecCtx::run_batch`](crate::ExecCtx::run_batch) own what every path
//! shares: Section 8's search outside the transaction, the epoch pin that
//! keeps a found node alive until the attempt ends, the fallback's retry
//! loop, and the mapping of a transactional `Retry` to an abort.

use threepath_htm::{codes, Abort, HtmRuntime};
use threepath_llxscx::{ScxEngine, ScxThread};
use threepath_reclaim::ReclaimCtx;

use crate::access::{DirectMem, Mem, TxRead};
use crate::template::{OpOutcome, TemplateMode};

/// An operation as a search plus a sequential body.
pub trait SeqOp {
    /// What the search found: the nodes the bodies act on.
    type Found;
    /// The operation's result.
    type Out;

    /// Finds the operation's location.
    fn search<R: TxRead>(&self, r: &mut R) -> Result<Self::Found, Abort>;

    /// The sequential body. `validate` is set when the search ran outside
    /// the transaction (Section 8), so the body must first check, inside
    /// it, that `f` is still linked.
    fn seq<M: Mem>(&self, m: &mut M, f: &Self::Found, validate: bool) -> Result<Self::Out, Abort>;
}

/// An update with a tree-update-template body as well.
pub trait TemplateOp: SeqOp {
    /// The template body: LLXs on the found nodes and one SCX. `Retry`
    /// means an LLX or the SCX lost a race and the operation must search
    /// again.
    fn tmpl<M: TemplateMode>(
        &self,
        m: &mut M,
        f: &Self::Found,
    ) -> Result<OpOutcome<Self::Out>, Abort>;
}

/// A read-only operation.
pub trait ReadOp {
    /// The operation's result.
    type Out;

    /// The whole read, through any reader: a transaction makes it atomic,
    /// and direct loads make it atomic for structures whose searches need
    /// no synchronization.
    fn walk<R: TxRead>(&self, r: &mut R) -> Result<Self::Out, Abort>;

    /// A consistent read on the software path, which runs beside
    /// in-flight SCXs and, under 3-path, never beside an in-place writer.
    /// `None` means the read lost a race and is retried. The default is
    /// the direct [`Self::walk`]; multi-node reads override it with an
    /// LLX-validated walk. Runs under the caller's epoch pin.
    fn validated(&self, eng: &ScxEngine, _th: &ScxThread) -> Option<Self::Out> {
        Some(direct(self.walk(&mut &**eng.runtime())))
    }
}

/// Unwraps the result of direct (non-transactional) access, which never
/// aborts.
pub(crate) fn direct<T>(r: Result<T, Abort>) -> T {
    r.unwrap_or_else(|a| unreachable!("direct access aborted: {a:?}"))
}

/// Maps a template outcome into a transactional result: a transaction
/// cannot re-run its search, so `Retry` aborts the attempt.
pub(crate) fn finish_tx<T>(out: OpOutcome<T>) -> Result<T, Abort> {
    match out {
        OpOutcome::Done(t) => Ok(t),
        OpOutcome::Retry => Err(Abort::explicit(codes::VALIDATION)),
    }
}

/// Runs `op` once over direct memory: its search, then its sequential
/// body with `validate = false`. This is TLE's locked path without the
/// lock, so the caller must exclude every other writer (hold the TLE lock,
/// or own the structure) and must have `reclaim` pinned.
pub fn run_direct<O: SeqOp>(rt: &HtmRuntime, reclaim: &ReclaimCtx, op: &O) -> O::Out {
    let mut m = DirectMem::new(rt, reclaim);
    let f = direct(op.search(&mut m));
    direct(op.seq(&mut m, &f, false))
}

/// Toy operations over a few cells, for the composition tests.
#[cfg(test)]
pub(crate) mod toy {
    use std::cell::{Cell, RefCell};

    use threepath_htm::{codes, Abort, HtmRuntime, TxCell};
    use threepath_llxscx::{ScxEngine, ScxThread};

    use super::{ReadOp, SeqOp, TemplateOp};
    use crate::access::{Mem, TxRead};
    use crate::template::{OpOutcome, TemplateMode};

    /// How far `pins` pin/unpin cycles of `th` advance its domain's epoch.
    /// Every 64th pin tries to advance it, which fails while another
    /// context of the domain announces an older epoch: so the epoch moves
    /// at most one step past a pinned thread, and several steps when no
    /// thread is pinned.
    pub(crate) fn epoch_advance(th: &ScxThread, pins: u64) -> u64 {
        let domain = th.reclaim.domain();
        let before = domain.epoch();
        for _ in 0..pins {
            drop(th.reclaim.pin());
        }
        domain.epoch() - before
    }

    /// An update on a toy structure: `slot` names the live one of `vals`.
    /// The search reads `slot`. The sequential body validates `slot` when
    /// asked to, then writes `value` into the found cell and returns the
    /// old one. The template body answers `Retry` while `retries` lasts,
    /// then reads the found cell.
    pub(crate) struct Toy<'a> {
        pub rt: &'a HtmRuntime,
        pub slot: TxCell,
        pub vals: [TxCell; 4],
        pub value: u64,
        pub retries: Cell<u32>,
        /// Runs at the end of every search, with the index found.
        pub on_search: Box<dyn Fn(&Toy<'a>, u64) + 'a>,
        /// Runs at the start of every sequential body.
        pub on_seq: Box<dyn Fn() + 'a>,
        pub searches: Cell<u32>,
        /// The `validate` argument of every sequential body.
        pub validates: RefCell<Vec<bool>>,
        /// Sequential bodies that failed their validation.
        pub stale: Cell<u32>,
        /// Sequential bodies whose write was visible to direct loads at
        /// once (direct memory, not a transaction's buffer).
        pub direct_writes: Cell<u32>,
        pub tmpls: Cell<u32>,
    }

    impl<'a> Toy<'a> {
        pub(crate) fn new(rt: &'a HtmRuntime) -> Self {
            Toy {
                rt,
                slot: TxCell::new(0),
                vals: std::array::from_fn(|_| TxCell::new(0)),
                value: 7,
                retries: Cell::new(0),
                on_search: Box::new(|_, _| {}),
                on_seq: Box::new(|| {}),
                searches: Cell::new(0),
                validates: RefCell::new(Vec::new()),
                stale: Cell::new(0),
                direct_writes: Cell::new(0),
                tmpls: Cell::new(0),
            }
        }
    }

    impl SeqOp for Toy<'_> {
        type Found = u64;
        type Out = u64;

        fn search<R: TxRead>(&self, r: &mut R) -> Result<u64, Abort> {
            let i = r.read(&self.slot)?;
            self.searches.set(self.searches.get() + 1);
            (self.on_search)(self, i);
            Ok(i)
        }

        fn seq<M: Mem>(&self, m: &mut M, &i: &u64, validate: bool) -> Result<u64, Abort> {
            (self.on_seq)();
            self.validates.borrow_mut().push(validate);
            if validate && m.read(&self.slot)? != i {
                self.stale.set(self.stale.get() + 1);
                return Err(Abort::explicit(codes::VALIDATION));
            }
            let cell = &self.vals[i as usize];
            let old = m.read(cell)?;
            m.write(cell, self.value)?;
            if cell.load_direct(self.rt) == self.value {
                self.direct_writes.set(self.direct_writes.get() + 1);
            }
            Ok(old)
        }
    }

    impl TemplateOp for Toy<'_> {
        fn tmpl<M: TemplateMode>(&self, m: &mut M, &i: &u64) -> Result<OpOutcome<u64>, Abort> {
            self.tmpls.set(self.tmpls.get() + 1);
            if self.retries.get() > 0 {
                self.retries.set(self.retries.get() - 1);
                return Ok(OpOutcome::Retry);
            }
            Ok(OpOutcome::Done(m.read(&self.vals[i as usize])?))
        }
    }

    /// A read of one cell whose software-path read loses `misses` races
    /// before it succeeds.
    pub(crate) struct ToyRead<'a> {
        pub cell: &'a TxCell,
        pub misses: Cell<u32>,
        /// Runs at the start of every walk.
        pub on_walk: Box<dyn Fn() + 'a>,
        pub walks: Cell<u32>,
        pub validated: Cell<u32>,
        /// `validated` calls made without an epoch pin.
        pub unpinned: Cell<u32>,
    }

    impl<'a> ToyRead<'a> {
        pub(crate) fn new(cell: &'a TxCell) -> Self {
            ToyRead {
                cell,
                misses: Cell::new(0),
                on_walk: Box::new(|| {}),
                walks: Cell::new(0),
                validated: Cell::new(0),
                unpinned: Cell::new(0),
            }
        }
    }

    impl ReadOp for ToyRead<'_> {
        type Out = u64;

        fn walk<R: TxRead>(&self, r: &mut R) -> Result<u64, Abort> {
            (self.on_walk)();
            self.walks.set(self.walks.get() + 1);
            r.read(self.cell)
        }

        fn validated(&self, eng: &ScxEngine, th: &ScxThread) -> Option<u64> {
            self.validated.set(self.validated.get() + 1);
            if !th.reclaim.is_pinned() {
                self.unpinned.set(self.unpinned.get() + 1);
            }
            if self.misses.get() > 0 {
                self.misses.set(self.misses.get() - 1);
                return None;
            }
            Some(self.cell.load_direct(eng.runtime()))
        }
    }
}
