//! Bonsai-style snapshot tier for optimistic scans.
//!
//! When the optimistic scan ladder (bounded full walks, then the
//! hole-repair partial rescan) keeps losing races, the scan stops
//! *validating* and starts *versioning*: it publishes a snapshot epoch over
//! its key range, and from then on every updater whose mutation is covered
//! by the epoch first pushes the mutated key's **pre-image** onto an
//! epoch-tagged version chain. The scan then walks the live tree with no
//! validation at all and overlays the harvested pre-images, reconstructing
//! the exact key/value map as of the snapshot's linearization instant —
//! the BonsaiTree shape ("writes version, reads are wait-free"), grafted
//! onto the template structures without making the update paths
//! copy-on-write in the common case.
//!
//! # Protocol
//!
//! One [`SnapshotCtl`] per tree holds four cells: `active` (the published
//! epoch id, `0` when idle), the covered range `lo`/`hi`, and `head`, the
//! top of a Treiber-style chain of [`SnapNode`] pre-images.
//!
//! **Publish** ([`SnapshotCtl::begin`]): wait out another scan's live
//! epoch, reserve `active` with a direct CAS `0 -> BUSY`, install
//! `lo`/`hi`, then store the fresh epoch id. The CAS bumps `active`'s line
//! clock, which conflict-aborts every in-flight transaction that read
//! `active == 0` — so every transaction that commits after the publish ran
//! its deposit check against the published epoch.
//!
//! **Cut**: the snapshot linearizes at an instant `T*` inside a *stable
//! window* — a span in which `head` is observed unchanged (`h1 == h2`)
//! around one observation of the fallback indicator `F` inactive and the
//! TLE lock free. `h_cut = h1` then splits the chain exactly:
//!
//! * a *transactional* deposit is pushed at its commit instant, so a
//!   deposit on the chain above `h_cut` commits after `T*` and one at or
//!   below `h_cut` commits before;
//! * a *non-transactional* operation (software fallback, or under the TLE
//!   lock) pushes strictly before its mutation lands, but it holds `F`
//!   (respectively the lock) across that whole span — an operation
//!   straddling `T*` would have kept `F`/the lock active through the
//!   window, contradicting the observation, and a transactional push inside
//!   the window would have moved `head`. So no deposit/mutation pair
//!   straddles the cut.
//!
//! If the window cannot be stabilized within a bounded number of probes
//! (sustained fallback pressure), `begin` abandons the epoch and the scan
//! escalates to a transaction as before.
//!
//! **Walk**: between `begin` and [`SnapshotCtl::finish`] the scan walks the
//! live tree with plain direct loads — no version checks, no read-set. Any
//! value it reads that postdates `T*` belongs to a covered mutation that
//! committed after `T*`, which by the publish argument deposited its
//! pre-image above `h_cut`.
//!
//! **Finish**: detach the chain with a CAS loop, *then* clear `active` (a
//! publisher waiting in `begin` wins the epoch the instant it reads 0; a
//! detach after that would carry off its deposits), and harvest every
//! node strictly above `h_cut` newest-to-oldest into an overlay map (later
//! inserts overwrite, so the *oldest* deposit per key wins — the value as
//! of `T*`). Overlay keys replace whatever the walk saw; every detached
//! node is retired through the epoch domain. Deposits that raced `finish`
//! and pushed onto the emptied head are orphans: they are excluded by the
//! next cut (they sit below the next `h_cut` only if pushed before it, and
//! their mutations predate the next `T*`) and retired by the next drain.
//!
//! Pre-images of *failed* operations (an SCX that lost its race after
//! depositing, a validation abort whose transactional push was discarded
//! with the transaction) are harmless: an extra pre-image deposit for a key
//! either duplicates an older one (oldest wins) or records the very value
//! the walk would have seen anyway.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use threepath_htm::{Abort, Backoff, HtmRuntime, TxCell};
use threepath_reclaim::ReclaimCtx;

use crate::access::Mem;
use crate::driver::ExecCtx;

// Test seam: runs right after `active` is cleared, the first instant
// another publisher can win the epoch.
#[cfg(test)]
thread_local! {
    static AFTER_CLEAR: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::RefCell::new(None) };
}

/// `active` value while a publisher owns the epoch but `lo`/`hi` are not
/// yet installed. Depositors seeing it push unconditionally (range unknown
/// for one publish instant); the extra nodes are retired with the rest.
const BUSY: u64 = u64::MAX;

/// Bounded attempts to stabilize a cut window before abandoning the epoch.
const CUT_RETRIES: u32 = 16;

/// Per-attempt probes of the fallback indicator and TLE lock.
const QUIET_SPINS: u32 = 1 << 12;

/// One pre-image on the version chain: the covered key and the value it
/// held (or its absence) just before a mutation. Immutable once published
/// via the `head` CAS.
struct SnapNode {
    key: u64,
    value: u64,
    present: bool,
    /// Next-older chain node (`*mut SnapNode` as bits, `0` = end). Written
    /// by the pusher before the publishing CAS, never after.
    next: u64,
}

/// A published snapshot epoch: its id and the chain cut `h_cut`.
/// Returned by [`SnapshotCtl::begin`], consumed by [`SnapshotCtl::finish`].
pub struct SnapToken {
    id: u64,
    h_cut: u64,
}

/// Per-tree snapshot coordination state. See the module docs for the
/// protocol and its linearizability argument.
pub struct SnapshotCtl {
    /// Published epoch id; `0` idle, [`BUSY`] while `lo`/`hi` install.
    active: TxCell,
    /// Covered range, valid while `active` holds an epoch id.
    lo: TxCell,
    hi: TxCell,
    /// Top of the pre-image chain (`*mut SnapNode` as bits).
    head: TxCell,
    next_id: AtomicU64,
}

impl Default for SnapshotCtl {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotCtl {
    /// Creates an idle controller.
    pub fn new() -> Self {
        SnapshotCtl {
            active: TxCell::new(0),
            lo: TxCell::new(0),
            hi: TxCell::new(0),
            head: TxCell::new(0),
            next_id: AtomicU64::new(1),
        }
    }

    /// Whether a snapshot epoch is currently published (diagnostics).
    pub fn is_active(&self, rt: &HtmRuntime) -> bool {
        self.active.load_direct(rt) != 0
    }

    /// Publishes a snapshot epoch over `[lo, hi)` and cuts the chain.
    ///
    /// A publisher that finds another snapshot's epoch active waits for it
    /// to end. Returns `None` when the cut window cannot be stabilized
    /// under sustained fallback pressure — the caller escalates the scan
    /// to a transaction instead. On `None` any deposits collected
    /// meanwhile are drained and retired.
    ///
    /// The caller must hold an epoch pin from before this call until after
    /// [`Self::finish`] returns.
    pub fn begin(
        &self,
        exec: &ExecCtx,
        reclaim: &ReclaimCtx,
        lo: u64,
        hi: u64,
    ) -> Option<SnapToken> {
        debug_assert!(reclaim.is_pinned());
        let rt = &**exec.runtime();
        // Another scan holds the epoch: wait for it to end instead of
        // escalating into a transaction. A holder waits on nothing but its
        // own bounded cut window, so this is at most one snapshot scan.
        // Poll with loads and CAS only on an observed 0: a failed
        // `cas_direct` locks the line every covered updater reads.
        let mut backoff = Backoff::new(lo ^ hi.rotate_left(32));
        while self.active.load_direct(rt) != 0 || self.active.cas_direct(rt, 0, BUSY).is_err() {
            backoff.wait();
        }
        self.lo.store_direct(rt, lo);
        self.hi.store_direct(rt, hi);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        debug_assert!(id != 0 && id != BUSY);
        self.active.store_direct(rt, id);

        for _ in 0..CUT_RETRIES {
            let h1 = self.head.load_direct(rt);
            if !exec.observe_quiet(QUIET_SPINS) {
                continue;
            }
            let h2 = self.head.load_direct(rt);
            if h1 == h2 {
                return Some(SnapToken { id, h_cut: h1 });
            }
        }
        // The serialized machinery never went quiet with a stable head:
        // abandon the epoch and let the scan escalate.
        self.drain(rt, reclaim);
        self.clear_active(rt);
        None
    }

    /// Ends the epoch and merges the harvested pre-images into `walk`, the
    /// key/value pairs the unvalidated tree walk produced for `[lo, hi)`.
    /// Returns the snapshot-consistent result as of the cut instant,
    /// sorted by key.
    pub fn finish(
        &self,
        exec: &ExecCtx,
        reclaim: &ReclaimCtx,
        token: SnapToken,
        mut walk: Vec<(u64, u64)>,
        lo: u64,
        hi: u64,
    ) -> Vec<(u64, u64)> {
        debug_assert!(reclaim.is_pinned());
        let rt = &**exec.runtime();
        debug_assert_eq!(self.active.load_direct(rt), token.id);
        let h = self.detach(rt);
        self.clear_active(rt);
        // Newest-to-oldest with overwriting inserts: the oldest (first
        // pushed) pre-image per key survives — the value as of the cut.
        let mut overlay: HashMap<u64, Option<u64>> = HashMap::new();
        let mut past_cut = false;
        let mut p = h;
        while p != 0 {
            if p == token.h_cut {
                past_cut = true;
            }
            let n = p as *mut SnapNode;
            // SAFETY: detached chain nodes stay alive until retired below,
            // and retirement defers past our epoch pin.
            let node = unsafe { &*n };
            let next = node.next;
            if !past_cut {
                overlay.insert(node.key, node.present.then_some(node.value));
            }
            // SAFETY: the chain is detached — `n` is unreachable from any
            // shared cell and visited exactly once.
            unsafe { reclaim.retire_node(n) };
            p = next;
        }

        if !overlay.is_empty() {
            walk.retain(|(k, _)| !overlay.contains_key(k));
            for (k, v) in overlay {
                if let Some(value) = v {
                    if lo <= k && k < hi {
                        walk.push((k, value));
                    }
                }
            }
            walk.sort_unstable();
        }
        walk
    }

    /// Whether a snapshot epoch is armed, read through the caller's memory
    /// mode. In transactional modes this *subscribes* the transaction to
    /// the epoch word exactly like [`Self::deposit`] does, so a `false`
    /// answer is sound: a publish racing this transaction aborts it.
    /// Callers that deposit many pre-images per operation (whole-leaf
    /// deposits) use this to pay one read instead of one per pair when no
    /// epoch is active.
    pub fn armed<M: Mem>(&self, m: &mut M) -> Result<bool, Abort> {
        Ok(m.read(&self.active)? != 0)
    }

    /// Pushes a pre-image for `key` if a snapshot epoch covering it is
    /// active. `pre` is the key's value just before the caller's mutation
    /// (`None` = absent, i.e. the mutation is an insert of a new key).
    ///
    /// Call from every mutating operation *within the same atomic scope as
    /// the mutation* (same transaction) or — on non-transactional paths —
    /// while holding the fallback indicator or the TLE lock from before
    /// the push until after the mutation; the cut's stable-window argument
    /// relies on exactly this.
    pub fn deposit<M: Mem>(&self, m: &mut M, key: u64, pre: Option<u64>) -> Result<(), Abort> {
        let a = m.read(&self.active)?;
        if a == 0 {
            return Ok(());
        }
        if a != BUSY {
            let lo = m.read(&self.lo)?;
            let hi = m.read(&self.hi)?;
            if key < lo || key >= hi {
                return Ok(());
            }
        }
        let node = m.alloc(SnapNode {
            key,
            value: pre.unwrap_or(0),
            present: pre.is_some(),
            next: 0,
        });
        loop {
            let h = m.read(&self.head)?;
            // SAFETY: `node` is unpublished — this thread is its sole owner
            // until the CAS below succeeds (transactional modes publish
            // atomically at commit; an abort returns it to the pool).
            unsafe { (*node).next = h };
            if m.cas(&self.head, h, node as u64)? {
                return Ok(());
            }
        }
    }

    /// Ends the epoch. Callers detach the chain *first*: a publisher waiting
    /// in `begin` may win the epoch the instant `active` reads 0, and a
    /// detach after that would carry off the new epoch's deposits.
    fn clear_active(&self, rt: &HtmRuntime) {
        self.active.store_direct(rt, 0);
        #[cfg(test)]
        if let Some(hook) = AFTER_CLEAR.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }

    /// Detaches and retires the whole chain without harvesting (abandoned
    /// epochs). Safe to call while pinned at any idle point.
    fn drain(&self, rt: &HtmRuntime, reclaim: &ReclaimCtx) {
        let mut p = self.detach(rt);
        while p != 0 {
            let n = p as *mut SnapNode;
            // SAFETY: as in `finish` — detached, visited once, alive until
            // the deferred retirement fires.
            let next = unsafe { (*n).next };
            unsafe { reclaim.retire_node(n) };
            p = next;
        }
    }

    fn detach(&self, rt: &HtmRuntime) -> u64 {
        loop {
            let h = self.head.load_direct(rt);
            if h == 0 || self.head.cas_direct(rt, h, 0).is_ok() {
                return h;
            }
        }
    }
}

// Chain nodes are plain `Send` data reached only through `head`.
unsafe impl Send for SnapshotCtl {}
unsafe impl Sync for SnapshotCtl {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{DirectMem, TxMem};
    use crate::driver::ExecCtx;
    use crate::effects::Effects;
    use crate::strategy::Strategy;
    use std::sync::Arc;
    use threepath_htm::{HtmConfig, HtmRuntime};
    use threepath_reclaim::{Domain, ReclaimMode};

    fn setup() -> (ExecCtx, Arc<Domain>) {
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        (
            ExecCtx::new(rt, Strategy::ThreePath),
            Arc::new(Domain::new(ReclaimMode::Epoch)),
        )
    }

    #[test]
    fn idle_deposit_is_a_no_op() {
        let (exec, domain) = setup();
        let ctx = Domain::register(&domain);
        ctx.enter();
        let snap = SnapshotCtl::new();
        let mut m = DirectMem::new(exec.runtime(), &ctx);
        snap.deposit(&mut m, 7, Some(70)).unwrap();
        assert_eq!(snap.head.load_direct(exec.runtime()), 0);
        ctx.exit();
    }

    /// A second publisher waits for the holder's epoch to end and then
    /// publishes its own, instead of refusing (which escalated its scan
    /// into a transaction). The holder stays published far longer than
    /// the old bounded retry (8 yields) could wait.
    #[test]
    fn concurrent_publish_waits_for_the_holder() {
        use std::sync::atomic::AtomicBool;
        let (exec, domain) = setup();
        let snap = SnapshotCtl::new();
        let (published, calling) = (AtomicBool::new(false), AtomicBool::new(false));
        let spin_until = |flag: &AtomicBool| {
            while !flag.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                let ctx = Domain::register(&domain);
                ctx.enter();
                let t = snap.begin(&exec, &ctx, 0, 100).expect("quiet publish");
                published.store(true, Ordering::Release);
                spin_until(&calling);
                for _ in 0..1000 {
                    std::thread::yield_now();
                }
                assert!(snap.finish(&exec, &ctx, t, vec![], 0, 100).is_empty());
                ctx.exit();
            });
            spin_until(&published);
            let ctx = Domain::register(&domain);
            ctx.enter();
            calling.store(true, Ordering::Release);
            let t = snap.begin(&exec, &ctx, 0, 100).expect("waited, then won");
            snap.finish(&exec, &ctx, t, vec![], 0, 100);
            assert!(!snap.is_active(exec.runtime()));
            ctx.exit();
        });
    }

    /// A publisher that wins the epoch the instant the holder's `finish`
    /// clears it keeps every deposit made under its own epoch. `finish`
    /// used to clear `active` before detaching the chain, so it carried
    /// off the next epoch's deposits — rare while a second publisher
    /// gave up after 8 yields, a torn scan once publishers wait.
    #[test]
    fn next_epoch_keeps_its_chain_when_published_during_finish() {
        use std::cell::Cell;
        use std::rc::Rc;
        let (exec, domain) = setup();
        let ctx = Domain::register(&domain);
        ctx.enter();
        let snap = SnapshotCtl::new();
        let t1 = snap.begin(&exec, &ctx, 0, 100).expect("quiet publish");
        let next: Rc<Cell<Option<SnapToken>>> = Rc::new(Cell::new(None));
        let (sp, ep, cp) = (
            &snap as *const SnapshotCtl,
            &exec as *const ExecCtx,
            &ctx as *const ReclaimCtx,
        );
        let slot = Rc::clone(&next);
        AFTER_CLEAR.with(|h| {
            *h.borrow_mut() = Some(Box::new(move || {
                // SAFETY: the test's locals outlive the `finish` call that
                // runs this hook on the same thread.
                let (snap, exec, ctx) = unsafe { (&*sp, &*ep, &*cp) };
                let t2 = snap.begin(exec, ctx, 0, 100).expect("the epoch is free");
                // Key 7 held 70 at t2's cut; its update deposits that.
                let mut m = DirectMem::new(exec.runtime(), ctx);
                snap.deposit(&mut m, 7, Some(70)).unwrap();
                slot.set(Some(t2));
            }));
        });
        snap.finish(&exec, &ctx, t1, vec![], 0, 100);
        let t2 = next.take().expect("the hook ran");
        // t2's walk saw the updated value; its overlay must restore 70.
        let out = snap.finish(&exec, &ctx, t2, vec![(7, 71)], 0, 100);
        assert_eq!(out, vec![(7, 70)], "the holder's finish took t2's deposit");
        ctx.exit();
    }

    #[test]
    fn fallback_pressure_abandons_the_cut() {
        let (exec, domain) = setup();
        let ctx = Domain::register(&domain);
        ctx.enter();
        let snap = SnapshotCtl::new();
        exec.fallback_indicator().arrive(exec.runtime(), 0);
        assert!(snap.begin(&exec, &ctx, 0, 100).is_none());
        assert!(!snap.is_active(exec.runtime()));
        exec.fallback_indicator().depart(exec.runtime(), 0);
        // The machinery is quiet again: publishing works.
        let t = snap.begin(&exec, &ctx, 0, 100).expect("quiet publish");
        snap.finish(&exec, &ctx, t, vec![], 0, 100);
        ctx.exit();
    }

    #[test]
    fn overlay_chain_restores_the_cut_state() {
        let (exec, domain) = setup();
        let ctx = Domain::register(&domain);
        ctx.enter();
        let snap = SnapshotCtl::new();
        let t = snap.begin(&exec, &ctx, 10, 100).expect("quiet publish");
        let mut m = DirectMem::new(exec.runtime(), &ctx);
        // Covered overwrite: pre-image 50 for key 20 (walk later sees 55).
        snap.deposit(&mut m, 20, Some(50)).unwrap();
        // Second mutation of the same key: first push must win.
        snap.deposit(&mut m, 20, Some(55)).unwrap();
        // Covered insert of a fresh key: pre-image "absent".
        snap.deposit(&mut m, 30, None).unwrap();
        // Covered delete: pre-image present, walk won't see the key.
        snap.deposit(&mut m, 40, Some(400)).unwrap();
        // Out of range: skipped entirely.
        snap.deposit(&mut m, 5, Some(5)).unwrap();

        let walk = vec![(20, 55), (30, 300), (60, 600)];
        let out = snap.finish(&exec, &ctx, t, walk, 10, 100);
        assert_eq!(out, vec![(20, 50), (40, 400), (60, 600)]);
        assert_eq!(snap.head.load_direct(exec.runtime()), 0);
        ctx.exit();
    }

    #[test]
    fn pre_cut_chain_nodes_are_excluded_and_retired() {
        let (exec, domain) = setup();
        let ctx = Domain::register(&domain);
        ctx.enter();
        let snap = SnapshotCtl::new();
        // Plant a stale node on the chain before publishing (models an
        // orphan push that raced a previous finish).
        let stale = ctx.alloc(SnapNode {
            key: 20,
            value: 999,
            present: true,
            next: 0,
        });
        snap.head.store_direct(exec.runtime(), stale as u64);

        let t = snap.begin(&exec, &ctx, 10, 100).expect("quiet publish");
        assert_eq!(t.h_cut, stale as u64);
        let mut m = DirectMem::new(exec.runtime(), &ctx);
        snap.deposit(&mut m, 20, Some(50)).unwrap();

        let retired_before = domain.retired_total();
        let out = snap.finish(&exec, &ctx, t, vec![(20, 55)], 10, 100);
        // The stale pre-image below the cut must not leak into the overlay…
        assert_eq!(out, vec![(20, 50)]);
        // …but it is still reclaimed along with the harvested node.
        assert_eq!(domain.retired_total(), retired_before + 2);
        ctx.exit();
    }

    #[test]
    fn transactional_deposits_publish_at_commit_and_vanish_on_abort() {
        let (exec, domain) = setup();
        let ctx = Domain::register(&domain);
        ctx.enter();
        let snap = SnapshotCtl::new();
        let t = snap.begin(&exec, &ctx, 0, 100).expect("quiet publish");

        let rt = exec.runtime().clone();
        let mut th = rt.register_thread();

        // Aborted transaction: the push is buffered and discarded.
        let mut eff = Effects::new();
        let _: Result<(), _> = rt.attempt(&mut th, |tx| {
            let mut m = TxMem::new(tx, &mut eff, &ctx);
            snap.deposit(&mut m, 7, Some(70))?;
            Err(tx.abort(0))
        });
        eff.abort_cleanup(&ctx);
        assert_eq!(snap.head.load_direct(&rt), 0);

        // Committed transaction: the push lands. (No deferred effects to
        // apply — deposits only allocate, and commit keeps allocations.)
        let mut eff = Effects::new();
        rt.attempt(&mut th, |tx| {
            let mut m = TxMem::new(tx, &mut eff, &ctx);
            snap.deposit(&mut m, 7, Some(70))
        })
        .unwrap();
        assert_ne!(snap.head.load_direct(&rt), 0);

        let out = snap.finish(&exec, &ctx, t, vec![(7, 77)], 0, 100);
        assert_eq!(out, vec![(7, 70)]);
        ctx.exit();
    }
}
