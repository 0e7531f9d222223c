//! The LLX/SCX engine: original CAS-based path, HTM fast path, and the
//! in-transaction variants.

use std::cell::Cell;
use std::sync::Arc;

use threepath_htm::{codes, Abort, HtmRuntime, ThreadId, TxCell, TxThread, Txn};
use threepath_reclaim::{Domain, ReclaimCtx};

use crate::handle::{LlxHandle, LlxResult, ScxHeader, Snapshot};
use crate::info::{self, classify, InfoState};
use crate::record::{state, Records, Scx, ScxRecord, Word};
use crate::ScxArgs;

/// Default number of hardware attempts before an SCX falls back to the
/// original algorithm (the paper's experiments use 20 for 2-path
/// algorithms).
pub const DEFAULT_SCX_ATTEMPT_LIMIT: u32 = 20;

/// Per-thread state for LLX/SCX: the HTM context, the reclamation context,
/// the tagged sequence number, and the Figure 6 attempt budget.
pub struct ScxThread {
    /// HTM transaction context.
    pub htm: TxThread,
    /// Epoch-reclamation context. Every LLX/SCX call sequence must run
    /// under a pin from this context.
    pub reclaim: ReclaimCtx,
    tseq: Cell<u64>,
    attempts: u32,
}

impl ScxThread {
    /// This thread's id.
    pub fn id(&self) -> ThreadId {
        self.htm.id()
    }

    /// Advances and returns this thread's tagged sequence number
    /// (the paper's `tseqp := tseqp + 2^{⌈log n⌉}`). Every returned value is
    /// globally fresh, preserving property P1; the fallback path's SCXs
    /// take their sequence numbers from here too.
    pub fn next_tseq(&self) -> u64 {
        let t = info::next_tseq(self.tseq.get());
        self.tseq.set(t);
        t
    }

    /// Runs `f` with an epoch pin held, while still allowing `f` mutable
    /// access to this thread context (which a borrowing guard from
    /// [`ReclaimCtx::pin`] would prevent). Pins are reentrant.
    pub fn pinned<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        struct ExitOnDrop(*const ReclaimCtx);
        impl Drop for ExitOnDrop {
            fn drop(&mut self) {
                // SAFETY: the context outlives this call frame: it lives in
                // the `ScxThread` behind `&mut self`, which cannot move
                // while borrowed.
                unsafe { &*self.0 }.exit();
            }
        }
        self.reclaim.enter();
        let _exit = ExitOnDrop(&self.reclaim as *const ReclaimCtx);
        f(self)
    }
}

impl std::fmt::Debug for ScxThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScxThread")
            .field("id", &self.id())
            .field("attempts", &self.attempts)
            .finish()
    }
}

/// The LLX/SCX engine bound to one HTM runtime and one reclamation domain
/// (one per data structure instance).
pub struct ScxEngine {
    rt: Arc<HtmRuntime>,
    domain: Arc<Domain>,
    attempt_limit: u32,
    /// The reusable SCX-record of each process that ran [`Self::scx_orig`].
    records: Records,
}

impl ScxEngine {
    /// Creates an engine.
    pub fn new(rt: Arc<HtmRuntime>, domain: Arc<Domain>) -> Self {
        ScxEngine {
            rt,
            domain,
            attempt_limit: DEFAULT_SCX_ATTEMPT_LIMIT,
            records: Records::new(),
        }
    }

    /// Sets the Figure 6 `AttemptLimit` (hardware attempts per SCX before
    /// falling back).
    pub fn with_attempt_limit(mut self, limit: u32) -> Self {
        self.attempt_limit = limit;
        self
    }

    /// The underlying HTM runtime.
    pub fn runtime(&self) -> &Arc<HtmRuntime> {
        &self.rt
    }

    /// The reclamation domain.
    pub fn domain(&self) -> &Arc<Domain> {
        &self.domain
    }

    /// Registers the calling thread.
    pub fn register_thread(&self) -> ScxThread {
        let htm = self.rt.register_thread();
        let tseq = info::pack_tseq(htm.id().0, 0);
        ScxThread {
            htm,
            reclaim: Domain::register(&self.domain),
            tseq: Cell::new(tseq),
            attempts: 0,
        }
    }

    /// Interprets an info value read from `hdr` as an SCX-record state
    /// (`None`/`Tagged` behave as committed records — paper Figure 8).
    ///
    /// A record reference whose record has moved on to a later SCX names
    /// a finished SCX. It finalized `hdr` if it marked it; otherwise `hdr`
    /// is unfrozen (the SCX aborted, or committed with `hdr` outside `R`),
    /// which `ABORTED` stands for.
    fn state_of(&self, hdr: &ScxHeader, rinfo: u64) -> u64 {
        match classify(rinfo) {
            InfoState::None | InfoState::Tagged => state::COMMITTED,
            InfoState::Record => {
                let (pid, seq) = info::unpack_tseq(rinfo);
                let w = self.records.get(pid).word(&self.rt);
                w.of(seq)
                    .unwrap_or_else(|| match hdr.is_marked_direct(&self.rt) {
                        true => state::COMMITTED,
                        false => state::ABORTED,
                    })
            }
        }
    }

    /// `LLX(r)` — paper Figure 2 lines 1–15, with the Figure 8 extension
    /// that treats tagged sequence numbers as committed SCX-records.
    ///
    /// `mutable` is the record's sequence of mutable fields (child
    /// pointers). The caller must hold an epoch pin from `th.reclaim`, and
    /// must keep holding it for as long as it uses the returned handle.
    pub fn llx(&self, th: &ScxThread, hdr: &ScxHeader, mutable: &[TxCell]) -> LlxResult {
        debug_assert!(th.reclaim.is_pinned(), "LLX requires an epoch pin");
        let rt = &*self.rt;
        let marked1 = hdr.marked().load_direct(rt) != 0;
        let rinfo = hdr.info().load_direct(rt);
        let st = self.state_of(hdr, rinfo);
        let marked2 = hdr.marked().load_direct(rt) != 0;
        if st == state::ABORTED || (st == state::COMMITTED && !marked2) {
            // r was not frozen: snapshot the mutable fields.
            let mut snap = Snapshot::with_len(mutable.len());
            rt.load_span_direct(mutable, snap.as_mut_slice());
            if hdr.info().load_direct(rt) == rinfo {
                // info unchanged across the field reads: consistent.
                return LlxResult::Snapshot(LlxHandle::new(hdr, rinfo, snap));
            }
        }
        // r was frozen (or changed mid-snapshot): maybe help, then classify.
        let finished = match self.state_of(hdr, rinfo) {
            state::COMMITTED => true,
            state::IN_PROGRESS => self.help(hdr, rinfo),
            _ => false,
        };
        if finished && marked1 {
            return LlxResult::Finalized;
        }
        let rinfo2 = hdr.info().load_direct(rt);
        if self.state_of(hdr, rinfo2) == state::IN_PROGRESS {
            self.help(hdr, rinfo2);
        }
        LlxResult::Fail
    }

    /// `SCX(V, R, fld, new)` via the original lock-free algorithm
    /// (paper Figure 2's `SCXO`): describes the SCX in this thread's
    /// SCX-record under a fresh sequence number and helps it to
    /// completion. Returns whether the SCX succeeded.
    ///
    /// Preconditions (the tree-update template's contract):
    /// * the caller performed a linked LLX on every node in `args.v` under
    ///   the currently held epoch pin;
    /// * `args.new` was never previously stored in `args.fld`;
    /// * `args.fld` belongs to a node in `args.v`.
    pub fn scx_orig(&self, th: &ScxThread, args: &ScxArgs<'_>) -> bool {
        debug_assert!(th.reclaim.is_pinned(), "SCX requires an epoch pin");
        let scx = Scx::new(args);
        let me = info::record_ref(th.next_tseq());
        let (pid, seq) = info::unpack_tseq(me);
        let rec = self.records.own(pid);
        rec.publish(&self.rt, seq, &scx);
        let committed = self
            .run(rec, me, &scx)
            .expect("only its creator moves a record on to a later SCX");
        // The record is free for the next SCX only once this one is
        // settled (see the crate docs).
        debug_assert_ne!(rec.word(&self.rt).state(), state::IN_PROGRESS);
        committed
    }

    /// `Help(scxPtr)` for the SCX that `rinfo`, read from `hdr.info`,
    /// names: copies the SCX's arguments out of its record, seqlock style,
    /// and runs [`Self::run`] on the copy. Returns whether the SCX
    /// committed. If the record has moved on to a later SCX, this one has
    /// finished, and `hdr`'s marked bit tells whether it finalized `hdr`
    /// (see [`Self::state_of`]).
    fn help(&self, hdr: &ScxHeader, rinfo: u64) -> bool {
        let rt = &*self.rt;
        let (pid, seq) = info::unpack_tseq(rinfo);
        let rec = self.records.get(pid);
        let committed = |st: u64| st == state::COMMITTED;
        let outcome = match rec.word(rt).of(seq) {
            Some(state::IN_PROGRESS) => {
                #[cfg(test)]
                seam::before_fields();
                let scx = rec.fields();
                // The re-check: the copy is this SCX's only if the word
                // still names it.
                match rec.word(rt).of(seq) {
                    Some(state::IN_PROGRESS) => self.run(rec, rinfo, &scx),
                    st => st.map(committed),
                }
            }
            st => st.map(committed),
        };
        outcome.unwrap_or_else(|| hdr.is_marked_direct(rt))
    }

    /// The body of `Help(scxPtr)` — paper Figure 2 lines 23–43 — for the
    /// SCX `me` (a record reference) that `rec` describes, working from a
    /// validated copy `scx` of its arguments.
    ///
    /// Every write to `rec` is a CAS that names `me`'s sequence number, so
    /// a helper whose SCX has finished writes nothing there once the
    /// record has moved on. Its late node writes are the ones Figure 2
    /// already tolerates: a freezing CAS expects an `info` value that P1
    /// never lets recur, marks are idempotent, and `old` never returns to
    /// `fld`.
    ///
    /// Returns whether the SCX committed, or `None` if the record moved on
    /// before this helper could tell.
    fn run(&self, rec: &ScxRecord, me: u64, scx: &Scx) -> Option<bool> {
        let rt = &*self.rt;
        let seq = info::unpack_tseq(me).1;
        let in_progress = Word::new(seq, state::IN_PROGRESS, false);
        let frozen = Word::new(seq, state::IN_PROGRESS, true);
        for (hdr, rinfo) in scx.entries() {
            // SAFETY: the crate docs argue why every node of `V` is still
            // allocated ("Reusing SCX-records").
            let hdr = unsafe { &*hdr };
            match hdr.info().cas_direct(rt, rinfo, me) {
                Ok(_) => {}
                // Another helper already froze this entry for this SCX.
                Err(actual) if actual == me => {}
                Err(_) => {
                    // Frozen for another SCX: the frozen check step (the
                    // SCX already succeeded), else the abort step.
                    let aborted = Word::new(seq, state::ABORTED, false);
                    return match rec.cas(rt, in_progress, aborted) {
                        Ok(()) => Some(false),
                        Err(w) => w.of(seq).map(|_| w.all_frozen()),
                    };
                }
            }
        }
        // Frozen step: all of V is frozen for this SCX.
        if let Err(w) = rec.cas(rt, in_progress, frozen) {
            if w.of(seq)? == state::ABORTED {
                return Some(false);
            }
        }
        // Mark step: set the marked bit of each r in R.
        for (i, (hdr, _)) in scx.entries().enumerate() {
            if scx.r_mask() & (1 << i) != 0 {
                // SAFETY: as above.
                unsafe { &*hdr }.marked().store_direct(rt, 1);
            }
        }
        // Update CAS: exactly one helper changes fld from old to new.
        let (fld, old, new) = scx.update();
        // SAFETY: fld belongs to a node in V (template contract).
        let _ = unsafe { &*fld }.cas_direct(rt, old, new);
        // Commit step: finalizes R and unfreezes V \ R atomically.
        let _ = rec.cas(rt, frozen, Word::new(seq, state::COMMITTED, true));
        Some(true)
    }

    /// One hardware attempt of the fully-optimized HTM SCX
    /// (paper Figure 11 / `SCXHTM`): validate every `info` field against the
    /// linked LLX, then write a fresh tagged sequence number into each,
    /// mark `R`, and update `fld` — all in one transaction.
    ///
    /// # Errors
    ///
    /// Propagates the transaction's abort (explicit
    /// [`codes::INFO_CHANGED`] if some node changed since its linked LLX,
    /// or conflict/capacity/spurious).
    pub fn scx_htm_attempt(&self, th: &mut ScxThread, args: &ScxArgs<'_>) -> Result<(), Abort> {
        let tseq = th.next_tseq();
        self.rt.attempt(&mut th.htm, |tx| {
            // Read phase first, write phase second: delaying writes reduces
            // the window in which this transaction can abort others.
            for h in args.v {
                let cur = tx.read(h.header().info())?;
                if cur != h.info_observed() {
                    return Err(tx.abort(codes::INFO_CHANGED));
                }
            }
            for h in args.v {
                tx.write(h.header().info(), tseq)?;
            }
            for (i, h) in args.v.iter().enumerate() {
                if args.r_mask & (1 << i) != 0 {
                    tx.write(h.header().marked(), 1)?;
                }
            }
            tx.write(args.fld, args.new)?;
            Ok(())
        })
    }

    /// `SCX` — the paper Figure 6 wrapper: try [`Self::scx_htm_attempt`]
    /// while the per-thread budget lasts, otherwise run the original
    /// algorithm. The budget resets whenever an SCX succeeds.
    pub fn scx(&self, th: &mut ScxThread, args: &ScxArgs<'_>) -> bool {
        let ok = if th.attempts < self.attempt_limit {
            th.attempts += 1;
            self.scx_htm_attempt(th, args).is_ok()
        } else {
            self.scx_orig(th, args)
        };
        if ok {
            th.attempts = 0;
        }
        ok
    }

    /// In-transaction LLX (for operations that run entirely inside one
    /// transaction: the 2-path-con fast path and the 3-path middle path).
    ///
    /// Differences from [`Self::llx`], per Section 4/5 of the paper:
    /// no helping is performed inside a transaction (it would abort the
    /// helped transaction and ourselves); an in-progress record simply
    /// yields [`LlxResult::Fail`], and the caller is expected to abort.
    /// The record's word is read transactionally, so a reuse of the record
    /// (or any state change) before commit aborts the transaction.
    pub fn llx_tx(
        &self,
        tx: &mut Txn<'_>,
        hdr: &ScxHeader,
        mutable: &[TxCell],
    ) -> Result<LlxResult, Abort> {
        let marked1 = tx.read(hdr.marked())? != 0;
        let rinfo = tx.read(hdr.info())?;
        let st = match classify(rinfo) {
            InfoState::None | InfoState::Tagged => state::COMMITTED,
            InfoState::Record => {
                let (pid, seq) = info::unpack_tseq(rinfo);
                let w = Word(tx.read(self.records.get(pid).word_cell())?);
                match w.of(seq) {
                    Some(st) => st,
                    // Finished: see `state_of`.
                    None if tx.read(hdr.marked())? != 0 => state::COMMITTED,
                    None => state::ABORTED,
                }
            }
        };
        let marked2 = tx.read(hdr.marked())? != 0;
        if st == state::ABORTED || (st == state::COMMITTED && !marked2) {
            // One span: a 16-field record is three line checks, not 16.
            let mut snap = Snapshot::with_len(mutable.len());
            tx.read_span(mutable, snap.as_mut_slice())?;
            // Within a transaction the re-read of info is guaranteed to
            // return the same value (opacity); kept for fidelity with the
            // paper's pseudocode at negligible cost.
            if tx.read(hdr.info())? == rinfo {
                return Ok(LlxResult::Snapshot(LlxHandle::new(hdr, rinfo, snap)));
            }
        }
        if st == state::COMMITTED && marked1 {
            return Ok(LlxResult::Finalized);
        }
        Ok(LlxResult::Fail)
    }

    /// In-transaction SCX (inlined into an enclosing operation-level
    /// transaction, Section 5): writes `tseq` into each node's info field,
    /// marks `R`, and updates `fld`. The Figure 11 re-validation is elided —
    /// the enclosing transaction's read set already covers every `info`
    /// field read by the linked [`Self::llx_tx`] calls, so any change aborts
    /// the transaction at commit.
    pub fn scx_tx(&self, tx: &mut Txn<'_>, tseq: u64, args: &ScxArgs<'_>) -> Result<(), Abort> {
        for h in args.v {
            tx.write(h.header().info(), tseq)?;
        }
        for (i, h) in args.v.iter().enumerate() {
            if args.r_mask & (1 << i) != 0 {
                tx.write(h.header().marked(), 1)?;
            }
        }
        tx.write(args.fld, args.new)?;
        Ok(())
    }
}

impl std::fmt::Debug for ScxEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScxEngine")
            .field("attempt_limit", &self.attempt_limit)
            .finish()
    }
}

/// A hook into [`ScxEngine::help`], for tests that make a record move on
/// at a chosen point of a helper's read.
#[cfg(test)]
pub(crate) mod seam {
    use std::cell::RefCell;

    type Hook = Box<dyn FnOnce()>;

    thread_local! {
        static BEFORE_FIELDS: RefCell<Option<Hook>> = const { RefCell::new(None) };
    }

    /// Runs `f` once, in this thread's next help of an in-progress SCX:
    /// after the helper has read the record's word and before it reads
    /// the arguments and re-checks the word.
    pub(crate) fn arm(f: impl FnOnce() + 'static) {
        BEFORE_FIELDS.with(|h| *h.borrow_mut() = Some(Box::new(f)));
    }

    pub(super) fn before_fields() {
        if let Some(f) = BEFORE_FIELDS.with(|h| h.borrow_mut().take()) {
            f();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use threepath_htm::HtmConfig;
    use threepath_reclaim::ReclaimMode;

    /// A minimal Data-record: one mutable field.
    struct RegNode {
        hdr: ScxHeader,
        cells: [TxCell; 1],
    }

    impl RegNode {
        fn new(v: u64) -> Self {
            RegNode {
                hdr: ScxHeader::new(),
                cells: [TxCell::new(v)],
            }
        }
    }

    fn engine() -> ScxEngine {
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        ScxEngine::new(rt, domain)
    }

    fn llx_snapshot(eng: &ScxEngine, th: &ScxThread, n: &RegNode) -> LlxHandle {
        match eng.llx(th, &n.hdr, &n.cells) {
            LlxResult::Snapshot(h) => h,
            other => panic!("expected snapshot, got {other:?}"),
        }
    }

    #[test]
    fn llx_fresh_node_snapshots() {
        let eng = engine();
        let th = eng.register_thread();
        let n = RegNode::new(7);
        let _pin = th.reclaim.pin();
        let h = llx_snapshot(&eng, &th, &n);
        assert_eq!(h.snapshot().as_slice(), &[7]);
        assert_eq!(h.info_observed(), 0);
    }

    #[test]
    fn scx_orig_updates_field() {
        let eng = engine();
        let th = eng.register_thread();
        let n = RegNode::new(7);
        let _pin = th.reclaim.pin();
        let h = llx_snapshot(&eng, &th, &n);
        let ok = eng.scx_orig(
            &th,
            &ScxArgs {
                v: &[&h],
                r_mask: 0,
                fld: &n.cells[0],
                old: 7,
                new: 9,
            },
        );
        assert!(ok);
        assert_eq!(n.cells[0].load_direct(eng.runtime()), 9);
        // The node is unfrozen again: a fresh LLX snapshots the new value.
        let h2 = llx_snapshot(&eng, &th, &n);
        assert_eq!(h2.snapshot().as_slice(), &[9]);
    }

    #[test]
    fn scx_orig_finalizes_r_set() {
        let eng = engine();
        let th = eng.register_thread();
        let n = RegNode::new(1);
        let _pin = th.reclaim.pin();
        let h = llx_snapshot(&eng, &th, &n);
        assert!(eng.scx_orig(
            &th,
            &ScxArgs {
                v: &[&h],
                r_mask: 0b1,
                fld: &n.cells[0],
                old: 1,
                new: 2,
            },
        ));
        assert!(matches!(
            eng.llx(&th, &n.hdr, &n.cells),
            LlxResult::Finalized
        ));
    }

    #[test]
    fn scx_orig_fails_on_stale_handle() {
        let eng = engine();
        let th = eng.register_thread();
        let n = RegNode::new(1);
        let _pin = th.reclaim.pin();
        let stale = llx_snapshot(&eng, &th, &n);
        // An intervening SCX changes the node (and its info field).
        let fresh = llx_snapshot(&eng, &th, &n);
        assert!(eng.scx_orig(
            &th,
            &ScxArgs {
                v: &[&fresh],
                r_mask: 0,
                fld: &n.cells[0],
                old: 1,
                new: 2,
            },
        ));
        // The stale handle must now fail: the node changed since its LLX.
        assert!(!eng.scx_orig(
            &th,
            &ScxArgs {
                v: &[&stale],
                r_mask: 0,
                fld: &n.cells[0],
                old: 1,
                new: 3,
            },
        ));
        assert_eq!(n.cells[0].load_direct(eng.runtime()), 2);
    }

    #[test]
    fn scx_htm_attempt_writes_tagged_seq() {
        let eng = engine();
        let mut th = eng.register_thread();
        let n = RegNode::new(5);
        th.reclaim.enter();
        let h = llx_snapshot(&eng, &th, &n);
        eng.scx_htm_attempt(
            &mut th,
            &ScxArgs {
                v: &[&h],
                r_mask: 0,
                fld: &n.cells[0],
                old: 5,
                new: 6,
            },
        )
        .unwrap();
        assert_eq!(n.cells[0].load_direct(eng.runtime()), 6);
        let info_now = n.hdr.info().load_direct(eng.runtime());
        assert_eq!(classify(info_now), InfoState::Tagged);
        // LLX treats the tagged value as unfrozen and can snapshot.
        let h2 = llx_snapshot(&eng, &th, &n);
        assert_eq!(h2.snapshot().as_slice(), &[6]);
        th.reclaim.exit();
    }

    #[test]
    fn scx_htm_attempt_aborts_if_info_changed() {
        let eng = engine();
        let mut th = eng.register_thread();
        let n = RegNode::new(5);
        th.reclaim.enter();
        let stale = llx_snapshot(&eng, &th, &n);
        let fresh = llx_snapshot(&eng, &th, &n);
        eng.scx_htm_attempt(
            &mut th,
            &ScxArgs {
                v: &[&fresh],
                r_mask: 0,
                fld: &n.cells[0],
                old: 5,
                new: 6,
            },
        )
        .unwrap();
        let err = eng
            .scx_htm_attempt(
                &mut th,
                &ScxArgs {
                    v: &[&stale],
                    r_mask: 0,
                    fld: &n.cells[0],
                    old: 5,
                    new: 7,
                },
            )
            .unwrap_err();
        assert_eq!(err.user_code(), Some(codes::INFO_CHANGED));
        assert_eq!(n.cells[0].load_direct(eng.runtime()), 6);
        th.reclaim.exit();
    }

    #[test]
    fn scx_wrapper_falls_back_when_htm_hopeless() {
        // All hardware attempts abort spuriously; the Figure 6 wrapper must
        // eventually run the original algorithm and still succeed.
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default().with_spurious(1.0)));
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        let eng = ScxEngine::new(rt, domain).with_attempt_limit(3);
        let mut th = eng.register_thread();
        let n = RegNode::new(0);
        th.reclaim.enter();
        let mut successes = 0;
        for i in 0..20u64 {
            let h = llx_snapshot(&eng, &th, &n);
            let old = h.snapshot().get(0);
            if eng.scx(
                &mut th,
                &ScxArgs {
                    v: &[&h],
                    r_mask: 0,
                    fld: &n.cells[0],
                    old,
                    new: 1000 + i,
                },
            ) {
                successes += 1;
            }
        }
        assert!(successes > 0, "fallback path must make progress");
        assert!(n.cells[0].load_direct(eng.runtime()) >= 1000);
        th.reclaim.exit();
    }

    /// Starts an SCX as `th` would on the fallback path and stops right
    /// after its first freezing CAS, as if the creator stalled there.
    /// Returns the record reference and the arguments.
    fn start_scx(eng: &ScxEngine, th: &ScxThread, args: &ScxArgs<'_>) -> (u64, Scx) {
        let (me, scx) = publish_scx(eng, th, args);
        let (hdr, rinfo) = scx.entries().next().unwrap();
        // SAFETY: the test's nodes outlive the test body.
        let hdr = unsafe { &*hdr };
        hdr.info().cas_direct(eng.runtime(), rinfo, me).unwrap();
        (me, scx)
    }

    /// Publishes an SCX in `th`'s record without freezing anything.
    fn publish_scx(eng: &ScxEngine, th: &ScxThread, args: &ScxArgs<'_>) -> (u64, Scx) {
        let scx = Scx::new(args);
        let me = info::record_ref(th.next_tseq());
        let (pid, seq) = info::unpack_tseq(me);
        eng.records.own(pid).publish(eng.runtime(), seq, &scx);
        (me, scx)
    }

    /// Resumes a stalled creator: runs its help to the end.
    fn finish_scx(eng: &ScxEngine, me: u64, scx: &Scx) -> bool {
        let rec = eng.records.get(info::unpack_tseq(me).0);
        eng.run(rec, me, scx)
            .expect("the creator's record cannot move on")
    }

    fn word_of(eng: &ScxEngine, me: u64) -> Word {
        eng.records.get(info::unpack_tseq(me).0).word(eng.runtime())
    }

    #[test]
    fn llx_helps_in_progress_record_to_completion() {
        // White-box: a creator stalls after its first freezing CAS; a
        // fresh LLX must help its SCX commit (Figure 2's helping).
        let eng = engine();
        let th = eng.register_thread();
        let n = RegNode::new(10);
        let _pin = th.reclaim.pin();
        let h = llx_snapshot(&eng, &th, &n);
        let args = ScxArgs {
            v: &[&h],
            r_mask: 0,
            fld: &n.cells[0],
            old: 10,
            new: 11,
        };
        let (me, _) = start_scx(&eng, &th, &args);

        let r = eng.llx(&th, &n.hdr, &n.cells);
        assert!(r.is_fail(), "LLX during helping returns Fail");
        assert_eq!(
            n.cells[0].load_direct(eng.runtime()),
            11,
            "helped to completion"
        );
        assert_eq!(
            word_of(&eng, me).of(info::unpack_tseq(me).1),
            Some(state::COMMITTED)
        );

        // And the node is usable again.
        let h2 = llx_snapshot(&eng, &th, &n);
        assert_eq!(h2.snapshot().as_slice(), &[11]);
    }

    /// The helper-race fixture: one engine, a creator and a helper thread
    /// context (both on the test's thread), and four one-field nodes.
    /// The seam's hooks are `'static`, so they share it through an `Rc`.
    struct Race {
        eng: ScxEngine,
        creator: ScxThread,
        helper: ScxThread,
        n: [RegNode; 4],
    }

    impl Race {
        fn new() -> Rc<Race> {
            let eng = engine();
            let creator = eng.register_thread();
            let helper = eng.register_thread();
            creator.reclaim.enter();
            helper.reclaim.enter();
            Rc::new(Race {
                eng,
                creator,
                helper,
                n: std::array::from_fn(|_| RegNode::new(0)),
            })
        }

        fn llx(&self, th: &ScxThread, i: usize) -> LlxResult {
            self.eng.llx(th, &self.n[i].hdr, &self.n[i].cells)
        }

        /// Every node's `(info, marked, field)`.
        fn nodes(&self) -> Vec<(u64, u64, u64)> {
            let rt = self.eng.runtime();
            self.n
                .iter()
                .map(|n| {
                    (
                        n.hdr.info().load_direct(rt),
                        n.hdr.marked().load_direct(rt),
                        n.cells[0].load_direct(rt),
                    )
                })
                .collect()
        }

        /// A whole SCX by the creator on node `i` alone: `fld` 0 → `new`.
        fn scx_on(&self, i: usize, new: u64) -> bool {
            let h = self.llx(&self.creator, i).handle().unwrap();
            let old = h.snapshot().get(0);
            self.eng.scx_orig(
                &self.creator,
                &ScxArgs {
                    v: &[&h],
                    r_mask: 0,
                    fld: &self.n[i].cells[0],
                    old,
                    new,
                },
            )
        }
    }

    impl Drop for Race {
        fn drop(&mut self) {
            self.creator.reclaim.exit();
            self.helper.reclaim.exit();
        }
    }

    /// Starts the creator's SCX `V = [n0, n1]`, `fld = n0` (0 → 7), with
    /// `R` = `r_mask`, stalled after freezing n0.
    fn stalled_two_node_scx(race: &Race, r_mask: u32) -> (u64, Scx) {
        let h0 = race.llx(&race.creator, 0).handle().unwrap();
        let h1 = race.llx(&race.creator, 1).handle().unwrap();
        start_scx(
            &race.eng,
            &race.creator,
            &ScxArgs {
                v: &[&h0, &h1],
                r_mask,
                fld: &race.n[0].cells[0],
                old: 0,
                new: 7,
            },
        )
    }

    #[test]
    fn helper_whose_record_is_reused_before_its_recheck_writes_nothing() {
        let race = Race::new();
        let (me1, scx1) = stalled_two_node_scx(&race, 0);
        // Another SCX changes n1, so s1 must abort when it resumes.
        let other = race.eng.register_thread();
        other.reclaim.enter();
        let h1 = race.llx(&other, 1).handle().unwrap();
        assert!(race.eng.scx_orig(
            &other,
            &ScxArgs {
                v: &[&h1],
                r_mask: 0,
                fld: &race.n[1].cells[0],
                old: 0,
                new: 5,
            },
        ));
        other.reclaim.exit();

        // The helper sees s1 in progress in n0; before it reads the
        // arguments, s1 aborts and the creator reuses its record for s2
        // on n2, stalled before its first freezing CAS.
        let s2 = Rc::new(Cell::new(None));
        let after_hook = Rc::new(RefCell::new(Vec::new()));
        {
            let (race, s2, after_hook) = (race.clone(), s2.clone(), after_hook.clone());
            seam::arm(move || {
                assert!(!finish_scx(&race.eng, me1, &scx1), "s1 aborts on n1");
                let h2 = race.llx(&race.creator, 2).handle().unwrap();
                s2.set(Some(publish_scx(
                    &race.eng,
                    &race.creator,
                    &ScxArgs {
                        v: &[&h2],
                        r_mask: 0,
                        fld: &race.n[2].cells[0],
                        old: 0,
                        new: 200,
                    },
                )));
                *after_hook.borrow_mut() = race.nodes();
            });
        }
        assert!(race.llx(&race.helper, 0).is_fail(), "n0 was frozen for s1");
        let (me2, scx2) = s2.take().expect("the hook ran");
        assert_eq!(
            race.nodes(),
            *after_hook.borrow(),
            "the helper wrote no node"
        );
        let seq2 = info::unpack_tseq(me2).1;
        assert_eq!(
            word_of(&race.eng, me2),
            Word::new(seq2, state::IN_PROGRESS, false),
            "the helper wrote nothing to the reused record"
        );

        // s2 completes correctly.
        assert!(finish_scx(&race.eng, me2, &scx2), "s2 commits");
        assert_eq!(race.n[2].cells[0].load_plain(), 200);
        assert_eq!(race.n[0].cells[0].load_plain(), 0, "s1 changed nothing");
        // n0 still names the finished s1, and is unfrozen.
        let h = race.llx(&race.helper, 0).handle().unwrap();
        assert_eq!(h.info_observed(), me1);
    }

    #[test]
    fn helper_of_an_scx_that_committed_meanwhile_writes_nothing() {
        let race = Race::new();
        let (me1, scx1) = stalled_two_node_scx(&race, 0b10);
        let after_hook = Rc::new(RefCell::new(Vec::new()));
        {
            let (race, after_hook) = (race.clone(), after_hook.clone());
            seam::arm(move || {
                assert!(finish_scx(&race.eng, me1, &scx1), "s1 commits");
                *after_hook.borrow_mut() = race.nodes();
            });
        }
        assert!(race.llx(&race.helper, 0).is_fail(), "n0 was frozen for s1");
        assert_eq!(
            race.nodes(),
            *after_hook.borrow(),
            "the helper wrote no node"
        );
        let seq1 = info::unpack_tseq(me1).1;
        assert_eq!(
            word_of(&race.eng, me1),
            Word::new(seq1, state::COMMITTED, true)
        );
        let h = race.llx(&race.helper, 0).handle().unwrap();
        assert_eq!(h.snapshot().as_slice(), &[7]);
        assert!(race.llx(&race.helper, 1).is_finalized());
    }

    /// After s1 (`V = [n0, n1]`, `R = {n1}`, n0's field 0 → 7) committed
    /// and the creator's record moved on: n0 is unfrozen and still names
    /// s1, n1 is finalized, for either thread's LLX and for `llx_tx`.
    fn assert_s1_settled(race: &Race, me1: u64) {
        let rt = race.eng.runtime().clone();
        assert_ne!(word_of(&race.eng, me1).seq(), info::unpack_tseq(me1).1);
        for th in [&race.helper, &race.creator] {
            let h = race.llx(th, 0).handle().expect("n0 is unfrozen");
            assert_eq!((h.info_observed(), h.snapshot().get(0)), (me1, 7));
            assert!(race.llx(th, 1).is_finalized());
        }
        let mut htm = rt.register_thread();
        let (r0, r1) = rt
            .attempt(&mut htm, |tx| {
                let r0 = race.eng.llx_tx(tx, &race.n[0].hdr, &race.n[0].cells)?;
                let r1 = race.eng.llx_tx(tx, &race.n[1].hdr, &race.n[1].cells)?;
                Ok((r0, r1))
            })
            .unwrap();
        assert_eq!(r0.handle().unwrap().snapshot().as_slice(), &[7]);
        assert!(r1.is_finalized());
    }

    /// Moves the creator's record on three more times, so that its latest
    /// SCX is committed, then aborted, then in progress, and runs `check`
    /// in each of those states.
    fn reuse_thrice(race: &Race, check: impl Fn()) {
        assert!(race.scx_on(2, 20));
        check();
        let stale = race.llx(&race.creator, 2).handle().unwrap();
        assert!(race.scx_on(2, 21));
        let args = ScxArgs {
            v: &[&stale],
            r_mask: 0,
            fld: &race.n[2].cells[0],
            old: 20,
            new: 22,
        };
        assert!(!race.eng.scx_orig(&race.creator, &args));
        check();
        let h = race.llx(&race.creator, 3).handle().unwrap();
        let args = ScxArgs {
            v: &[&h],
            r_mask: 0,
            fld: &race.n[3].cells[0],
            old: 0,
            new: 23,
        };
        let (me, scx) = start_scx(&race.eng, &race.creator, &args);
        check();
        assert!(finish_scx(&race.eng, me, &scx));
    }

    #[test]
    fn llx_of_a_node_whose_record_was_reused_snapshots_or_reports_finalized() {
        let race = Race::new();
        let (me1, scx1) = stalled_two_node_scx(&race, 0b10);
        {
            let race = race.clone();
            seam::arm(move || {
                assert!(finish_scx(&race.eng, me1, &scx1), "s1 commits");
                assert!(race.scx_on(2, 9), "the record moves on to s2");
            });
        }
        // The helper saw n0 frozen for s1, so this LLX fails; s1 has since
        // finished and its record describes s2.
        assert!(race.llx(&race.helper, 0).is_fail());
        assert_s1_settled(&race, me1);
        reuse_thrice(&race, || assert_s1_settled(&race, me1));
    }

    #[test]
    fn finalized_node_stays_finalized_after_its_record_is_reused() {
        let race = Race::new();
        let (me1, scx1) = stalled_two_node_scx(&race, 0b10);
        // Stall s1 later: every node frozen and n1 marked, not committed.
        let rt = race.eng.runtime().clone();
        let (pid, seq1) = info::unpack_tseq(me1);
        let rec = race.eng.records.get(pid);
        let (_, rinfo1) = scx1.entries().nth(1).unwrap();
        race.n[1].hdr.info().cas_direct(&rt, rinfo1, me1).unwrap();
        rec.cas(
            &rt,
            Word::new(seq1, state::IN_PROGRESS, false),
            Word::new(seq1, state::IN_PROGRESS, true),
        )
        .unwrap();
        race.n[1].hdr.marked().store_direct(&rt, 1);
        {
            let race = race.clone();
            seam::arm(move || {
                assert!(finish_scx(&race.eng, me1, &scx1), "s1 commits");
                assert!(race.scx_on(2, 9), "the record moves on to s2");
            });
        }
        // The helper read n1 marked and frozen for s1, in progress; s1
        // commits and the record is reused before the re-check.
        assert!(race.llx(&race.helper, 1).is_finalized());
        assert_s1_settled(&race, me1);
        reuse_thrice(&race, || assert_s1_settled(&race, me1));
    }

    #[test]
    fn multi_node_scx_freezes_all() {
        let eng = engine();
        let th = eng.register_thread();
        let a = RegNode::new(1);
        let b = RegNode::new(2);
        let _pin = th.reclaim.pin();
        let ha = llx_snapshot(&eng, &th, &a);
        let hb = llx_snapshot(&eng, &th, &b);
        // Change b independently; the two-node SCX must then fail.
        let hb2 = llx_snapshot(&eng, &th, &b);
        assert!(eng.scx_orig(
            &th,
            &ScxArgs {
                v: &[&hb2],
                r_mask: 0,
                fld: &b.cells[0],
                old: 2,
                new: 22,
            },
        ));
        assert!(
            !eng.scx_orig(
                &th,
                &ScxArgs {
                    v: &[&ha, &hb],
                    r_mask: 0,
                    fld: &a.cells[0],
                    old: 1,
                    new: 11,
                },
            ),
            "SCX must fail because b changed since its linked LLX"
        );
        assert_eq!(a.cells[0].load_direct(eng.runtime()), 1);
    }

    #[test]
    fn llx_tx_and_scx_tx_inside_transaction() {
        let eng = engine();
        let mut th = eng.register_thread();
        let n = RegNode::new(3);
        th.reclaim.enter();
        let tseq = th.next_tseq();
        eng.runtime()
            .clone()
            .attempt(&mut th.htm, |tx| {
                let r = eng.llx_tx(tx, &n.hdr, &n.cells)?;
                let h = match r {
                    LlxResult::Snapshot(h) => h,
                    _ => return Err(tx.abort(codes::LLX_FAIL)),
                };
                let old = h.snapshot().get(0);
                eng.scx_tx(
                    tx,
                    tseq,
                    &ScxArgs {
                        v: &[&h],
                        r_mask: 0,
                        fld: &n.cells[0],
                        old,
                        new: old + 1,
                    },
                )
            })
            .unwrap();
        assert_eq!(n.cells[0].load_direct(eng.runtime()), 4);
        assert_eq!(
            classify(n.hdr.info().load_direct(eng.runtime())),
            InfoState::Tagged
        );
        th.reclaim.exit();
    }
}
