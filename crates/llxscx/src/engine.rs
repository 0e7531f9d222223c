//! The LLX/SCX engine: original CAS-based path, HTM fast path, and the
//! in-transaction variants.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use threepath_htm::{codes, Abort, HtmRuntime, ThreadId, TxCell, TxThread, Txn};
use threepath_reclaim::{Domain, ReclaimCtx};

use crate::handle::{LlxHandle, LlxResult, ScxHeader, Snapshot};
use crate::info::{self, classify, InfoState};
use crate::record::{self, state, ScxRecord};
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
    tseq: u64,
    attempts: u32,
}

impl ScxThread {
    /// This thread's id.
    pub fn id(&self) -> ThreadId {
        self.htm.id()
    }

    /// Advances and returns this thread's tagged sequence number
    /// (the paper's `tseqp := tseqp + 2^{⌈log n⌉}`). Every returned value is
    /// globally fresh, preserving property P1.
    pub fn next_tseq(&mut self) -> u64 {
        self.tseq = info::next_tseq(self.tseq);
        self.tseq
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
    /// Set by the first [`Self::scx_orig`]: whether any SCX-record was
    /// ever created.
    ran_orig: AtomicBool,
}

impl ScxEngine {
    /// Creates an engine.
    pub fn new(rt: Arc<HtmRuntime>, domain: Arc<Domain>) -> Self {
        ScxEngine {
            rt,
            domain,
            attempt_limit: DEFAULT_SCX_ATTEMPT_LIMIT,
            ran_orig: AtomicBool::new(false),
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

    /// Whether [`Self::scx_orig`] ever ran, i.e. whether an `info` field
    /// of this engine's structure may hold an SCX-record. A structure
    /// that never took the software path has none to release on drop.
    pub fn ran_scx_orig(&self) -> bool {
        self.ran_orig.load(Ordering::Relaxed)
    }

    /// Registers the calling thread.
    pub fn register_thread(&self) -> ScxThread {
        let htm = self.rt.register_thread();
        let tseq = info::pack_tseq(htm.id().0, 0);
        ScxThread {
            htm,
            reclaim: Domain::register(&self.domain),
            tseq,
            attempts: 0,
        }
    }

    /// Interprets an info value as an SCX-record state (`None`/`Tagged`
    /// behave as committed records — paper Figure 8).
    fn state_of(&self, rinfo: u64) -> u64 {
        match classify(rinfo) {
            InfoState::None | InfoState::Tagged => state::COMMITTED,
            // SAFETY: a record pointer read from a node's info field under
            // the caller's epoch pin. A record is retired only once its
            // last install reference is dropped, and a node drops its
            // reference only when its info is replaced or when the node
            // is retired after its unlink. So at the read either the node
            // still held its reference, or the node was unlinked while
            // the caller was already pinned (it could not have reached it
            // otherwise). Either way the retirement follows the start of
            // the pin, which defers the free.
            InfoState::Record => unsafe { &*(rinfo as *const ScxRecord) }
                .state
                .load_direct(&self.rt),
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
        let st = self.state_of(rinfo);
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
        let st2 = self.state_of(rinfo);
        let finished = st2 == state::COMMITTED
            || (st2 == state::IN_PROGRESS && self.help(th, rinfo as *const ScxRecord));
        if finished && marked1 {
            return LlxResult::Finalized;
        }
        let rinfo2 = hdr.info().load_direct(rt);
        if self.state_of(rinfo2) == state::IN_PROGRESS {
            self.help(th, rinfo2 as *const ScxRecord);
        }
        LlxResult::Fail
    }

    /// `SCX(V, R, fld, new)` via the original lock-free algorithm
    /// (paper Figure 2's `SCXO`): creates an SCX-record and helps it to
    /// completion. Returns whether the SCX succeeded.
    ///
    /// Preconditions (the tree-update template's contract):
    /// * the caller performed a linked LLX on every node in `args.v` under
    ///   the currently held epoch pin;
    /// * `args.new` was never previously stored in `args.fld`;
    /// * `args.fld` belongs to a node in `args.v`.
    pub fn scx_orig(&self, th: &ScxThread, args: &ScxArgs<'_>) -> bool {
        debug_assert!(th.reclaim.is_pinned(), "SCX requires an epoch pin");
        if !self.ran_orig.load(Ordering::Relaxed) {
            self.ran_orig.store(true, Ordering::Relaxed);
        }
        let rec = Box::into_raw(Box::new(ScxRecord::new(
            args.v, args.r_mask, args.fld, args.old, args.new,
        )));
        let ok = self.help(th, rec);
        // Drop the creation reference.
        self.release_record(th, rec);
        ok
    }

    /// `Help(scxPtr)` — paper Figure 2 lines 23–43, extended with install
    /// reference counting for record reclamation (see crate docs).
    ///
    /// Returns whether the SCX committed.
    fn help(&self, th: &ScxThread, rec_ptr: *const ScxRecord) -> bool {
        let rt = &*self.rt;
        // SAFETY: see `state_of`.
        let rec = unsafe { &*rec_ptr };

        for e in rec.entries() {
            // Hold a provisional reference across the freezing CAS so a
            // successful install is always backed by a reference and a
            // condemned (refcount-zero) record is never re-installed.
            if !rec.try_acquire() {
                // The record's SCX finished long ago and every install was
                // already replaced; its final state is immutable.
                return rec.state.load_direct(rt) == state::COMMITTED;
            }
            // SAFETY: entry headers are nodes the creator LLXed under a pin;
            // nodes are epoch-reclaimed.
            let hdr = unsafe { &*e.hdr };
            match hdr.info().cas_direct(rt, e.rinfo, rec_ptr as u64) {
                Ok(_) => {
                    // Freezing CAS succeeded: the provisional reference now
                    // backs the install. Whatever value we replaced loses
                    // its install reference.
                    self.release_info(th, e.rinfo);
                }
                Err(actual) => {
                    if rec.release() {
                        // Ours was the final reference, so the creator has
                        // already returned from `help` and the record's
                        // state is terminal. Retire and report it.
                        let st = rec.state.load_direct(rt);
                        // SAFETY: last reference holder retires.
                        unsafe { th.reclaim.retire(rec_ptr as *mut ScxRecord) };
                        return st == state::COMMITTED;
                    }
                    if actual != rec_ptr as u64 {
                        // Frozen for another SCX.
                        if rec.all_frozen.load_direct(rt) != 0 {
                            // Frozen check step: SCX already succeeded.
                            return true;
                        }
                        // Abort step: unfreeze everything frozen for us.
                        rec.state.store_direct(rt, state::ABORTED);
                        return false;
                    }
                    // else: another helper already froze this entry for
                    // this record; continue with the next entry.
                }
            }
        }
        // Frozen step: all of V is frozen for this record.
        rec.all_frozen.store_direct(rt, 1);
        // Mark step: set the marked bit of each r in R.
        for (i, e) in rec.entries().iter().enumerate() {
            if rec.r_mask & (1 << i) != 0 {
                // SAFETY: as above.
                unsafe { &*e.hdr }.marked().store_direct(rt, 1);
            }
        }
        // Update CAS: exactly one helper changes fld from old to new.
        // SAFETY: fld belongs to a node in V (template contract).
        let _ = unsafe { &*rec.fld }.cas_direct(rt, rec.old, rec.new);
        // Commit step: finalizes R and unfreezes V \ R atomically.
        rec.state.store_direct(rt, state::COMMITTED);
        true
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
        let res = self.rt.attempt(&mut th.htm, |tx| {
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
        });
        if res.is_ok() {
            // The commit replaced each node's info value: release the
            // replaced records' install references.
            for h in args.v {
                self.release_info(th, h.info_observed());
            }
        }
        res
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
            // SAFETY: see `state_of`; the enclosing operation holds a pin.
            InfoState::Record => tx.read(&unsafe { &*(rinfo as *const ScxRecord) }.state)?,
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
    ///
    /// On *commit* of the enclosing transaction the caller must call
    /// [`Self::release_replaced`] with the handles' observed info values.
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

    /// Releases the install references of record pointers that a committed
    /// transaction replaced (its `llx_tx`-observed info values).
    pub fn release_replaced(&self, th: &ScxThread, replaced_infos: &[u64]) {
        for &i in replaced_infos {
            self.release_info(th, i);
        }
    }

    /// If `old` is a record pointer, drop the install reference it held.
    fn release_info(&self, th: &ScxThread, old: u64) {
        if info::is_record(old) {
            self.release_record(th, old as *mut ScxRecord);
        }
    }

    fn release_record(&self, th: &ScxThread, rec: *mut ScxRecord) {
        // SAFETY: the caller owns the reference and holds a pin.
        unsafe { record::release_ref(&th.reclaim, rec) };
    }
}

impl std::fmt::Debug for ScxEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScxEngine")
            .field("attempt_limit", &self.attempt_limit)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn llx_helps_in_progress_record_to_completion() {
        // White-box: install an InProgress record in a node's info field,
        // then let a fresh LLX help it commit (Figure 2's helping).
        let eng = engine();
        let th = eng.register_thread();
        let n = RegNode::new(10);
        let _pin = th.reclaim.pin();
        let h = llx_snapshot(&eng, &th, &n);
        let rec = Box::into_raw(Box::new(ScxRecord::new(
            &[&h],
            0,
            &n.cells[0],
            10,
            11,
        )));
        // Manually freeze the node for the record (as if the initiating
        // process stalled right after its freezing CAS).
        // SAFETY: rec is alive; we hold its creation reference.
        unsafe { &*rec }.try_acquire(); // the install's reference
        n.hdr
            .info()
            .cas_direct(eng.runtime(), h.info_observed(), rec as u64)
            .unwrap();

        // A concurrent LLX must help the SCX finish.
        let r = eng.llx(&th, &n.hdr, &n.cells);
        assert!(r.is_fail(), "LLX during helping returns Fail");
        assert_eq!(n.cells[0].load_direct(eng.runtime()), 11, "helped to completion");
        // SAFETY: still alive (install reference outstanding).
        assert_eq!(
            unsafe { &*rec }.state.load_direct(eng.runtime()),
            state::COMMITTED
        );

        // And the node is usable again.
        let h2 = llx_snapshot(&eng, &th, &n);
        assert_eq!(h2.snapshot().as_slice(), &[11]);
        // Release the creation reference (normally done by scx_orig).
        eng.release_record(&th, rec);
    }

    #[test]
    fn records_are_reclaimed() {
        let eng = engine();
        let th = eng.register_thread();
        let n = RegNode::new(0);
        // Force the fallback path so records are actually created.
        for i in 0..100u64 {
            let _pin = th.reclaim.pin();
            let h = llx_snapshot(&eng, &th, &n);
            assert!(eng.scx_orig(
                &th,
                &ScxArgs {
                    v: &[&h],
                    r_mask: 0,
                    fld: &n.cells[0],
                    old: i,
                    new: i + 1,
                },
            ));
        }
        assert!(
            eng.domain().retired_total() >= 99,
            "replaced records must be retired (got {})",
            eng.domain().retired_total()
        );
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
        let replaced = eng
            .runtime()
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
                )?;
                Ok(h.info_observed())
            })
            .unwrap();
        eng.release_replaced(&th, &[replaced]);
        assert_eq!(n.cells[0].load_direct(eng.runtime()), 4);
        assert_eq!(
            classify(n.hdr.info().load_direct(eng.runtime())),
            InfoState::Tagged
        );
        th.reclaim.exit();
    }
}
