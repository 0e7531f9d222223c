//! The k-CAS engine: RDCSS + k-CAS descriptors from single-word CAS, plus
//! the transactional (HTM) implementation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use threepath_htm::{codes, Abort, HtmRuntime, TxCell, TxThread, Txn};
use threepath_reclaim::{Domain, ReclaimCtx};

/// Maximum number of words per k-CAS.
pub const MAX_K: usize = 8;

const TAG_MASK: u64 = 0b11;
const RDCSS_TAG: u64 = 0b01;
const KCAS_TAG: u64 = 0b11;

const UNDECIDED: u64 = 0;
const SUCCEEDED: u64 = 1;
const FAILED: u64 = 2;

#[inline]
fn is_rdcss(v: u64) -> bool {
    v & TAG_MASK == RDCSS_TAG
}
#[inline]
fn is_kcas(v: u64) -> bool {
    v & TAG_MASK == KCAS_TAG
}
#[inline]
fn untag(v: u64) -> u64 {
    v & !TAG_MASK
}

/// One word of a k-CAS: the cell, its expected value, and its new value.
/// Both values must have zero low tag bits.
#[derive(Debug, Clone, Copy)]
pub struct KcasEntry {
    /// Target cell.
    pub cell: *const TxCell,
    /// Expected value.
    pub exp: u64,
    /// New value.
    pub new: u64,
}

struct KcasDesc {
    status: TxCell,
    /// Install reference count; creation holds 1 (a condemned descriptor
    /// is never re-installed).
    refs: AtomicU64,
    len: u8,
    entries: [KcasEntry; MAX_K],
}

// SAFETY: shared by design; all mutation through atomics.
unsafe impl Send for KcasDesc {}
unsafe impl Sync for KcasDesc {}

impl KcasDesc {
    fn acquire_unless_zero(&self) -> bool {
        let mut cur = self.refs.load(Ordering::Acquire);
        loop {
            if cur == 0 {
                return false;
            }
            match self
                .refs
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return true,
                Err(c) => cur = c,
            }
        }
    }

    fn release(&self) -> bool {
        self.refs.fetch_sub(1, Ordering::AcqRel) == 1
    }

    fn entries(&self) -> &[KcasEntry] {
        &self.entries[..self.len as usize]
    }
}

struct RdcssDesc {
    /// The k-CAS status cell ("control address").
    status: *const TxCell,
    /// Target cell.
    a2: *const TxCell,
    /// Expected value of the target.
    o2: u64,
    /// Tagged pointer to the k-CAS descriptor to install.
    n2: u64,
}

// SAFETY: as above.
unsafe impl Send for RdcssDesc {}
unsafe impl Sync for RdcssDesc {}

/// Per-thread context for k-CAS operations.
pub struct KcasThread {
    /// HTM context (for the transactional k-CAS).
    pub htm: TxThread,
    /// Reclamation context; every k-CAS call sequence must run pinned.
    pub reclaim: ReclaimCtx,
}

impl KcasThread {
    /// Runs `f` with an epoch pin held (reentrant).
    pub fn pinned<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        struct Exit(*const ReclaimCtx);
        impl Drop for Exit {
            fn drop(&mut self) {
                // SAFETY: context outlives the frame (behind &mut self).
                unsafe { &*self.0 }.exit();
            }
        }
        self.reclaim.enter();
        let _exit = Exit(&self.reclaim as *const ReclaimCtx);
        f(self)
    }
}

/// The k-CAS engine bound to one HTM runtime and reclamation domain.
pub struct KcasHeap {
    rt: Arc<HtmRuntime>,
    domain: Arc<Domain>,
}

impl KcasHeap {
    /// Creates an engine.
    pub fn new(rt: Arc<HtmRuntime>, domain: Arc<Domain>) -> Self {
        KcasHeap { rt, domain }
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &Arc<HtmRuntime> {
        &self.rt
    }

    /// The reclamation domain.
    pub fn domain(&self) -> &Arc<Domain> {
        &self.domain
    }

    /// Registers the calling thread.
    pub fn register_thread(&self) -> KcasThread {
        KcasThread {
            htm: self.rt.register_thread(),
            reclaim: Domain::register(&self.domain),
        }
    }

    /// Software k-CAS (Harris et al.): atomically compare-and-swap all
    /// `entries`. The caller must hold an epoch pin.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty, longer than [`MAX_K`], or contains
    /// tagged values.
    pub fn kcas(&self, th: &KcasThread, entries: &[KcasEntry]) -> bool {
        assert!(!entries.is_empty() && entries.len() <= MAX_K);
        debug_assert!(th.reclaim.is_pinned());
        debug_assert!(entries
            .iter()
            .all(|e| e.exp & TAG_MASK == 0 && e.new & TAG_MASK == 0));
        let mut sorted = [KcasEntry {
            cell: std::ptr::null(),
            exp: 0,
            new: 0,
        }; MAX_K];
        sorted[..entries.len()].copy_from_slice(entries);
        // Canonical address order prevents livelock between overlapping
        // operations.
        sorted[..entries.len()].sort_unstable_by_key(|e| e.cell as usize);

        let desc = Box::into_raw(Box::new(KcasDesc {
            status: TxCell::new(UNDECIDED),
            refs: AtomicU64::new(1),
            len: entries.len() as u8,
            entries: sorted,
        }));
        let ok = self.help_kcas(th, desc);
        self.release_desc(th, desc);
        ok
    }

    /// Reads a cell that may be targeted by concurrent k-CAS operations,
    /// helping any descriptor it encounters (fallback-path reads).
    pub fn read(&self, th: &KcasThread, cell: &TxCell) -> u64 {
        loop {
            let v = cell.load_direct(&self.rt);
            if is_rdcss(v) {
                // SAFETY: descriptor pointers read under a pin stay live.
                self.rdcss_complete(unsafe { &*(untag(v) as *const RdcssDesc) }, v);
            } else if is_kcas(v) {
                self.help_kcas(th, untag(v) as *const KcasDesc);
            } else {
                return v;
            }
        }
    }

    fn help_kcas(&self, th: &KcasThread, dptr: *const KcasDesc) -> bool {
        // SAFETY: reference-counted + epoch pinned.
        let d = unsafe { &*dptr };
        let rt = &*self.rt;
        if d.status.load_direct(rt) == UNDECIDED {
            let mut desired = SUCCEEDED;
            'phase1: for e in d.entries() {
                loop {
                    // SAFETY: caller guarantees entry cells outlive the op
                    // (list nodes are epoch-reclaimed).
                    let cell = unsafe { &*e.cell };
                    let r = self.rdcss(th, &d.status, cell, e.exp, dptr as u64 | KCAS_TAG);
                    if is_kcas(r) {
                        if untag(r) != dptr as u64 {
                            // Another k-CAS holds this word: help it first.
                            self.help_kcas(th, untag(r) as *const KcasDesc);
                            continue;
                        }
                        break; // already installed here
                    }
                    if r != e.exp {
                        desired = FAILED;
                        break 'phase1;
                    }
                    break; // installed
                }
            }
            let _ = d.status.cas_direct(rt, UNDECIDED, desired);
        }
        // Phase 2: replace installed descriptors with the outcome values.
        let success = d.status.load_direct(rt) == SUCCEEDED;
        for e in d.entries() {
            // SAFETY: as above.
            let cell = unsafe { &*e.cell };
            let outcome = if success { e.new } else { e.exp };
            if cell
                .cas_direct(rt, dptr as u64 | KCAS_TAG, outcome)
                .is_ok()
            {
                self.release_desc(th, dptr);
            }
        }
        success
    }

    /// RDCSS (restricted double-compare single-swap): writes `n2` into
    /// `a2` iff `a2 == o2` *and* the k-CAS status is still `UNDECIDED`.
    /// Returns the value `a2` held (its "old" value) at linearization.
    fn rdcss(
        &self,
        th: &KcasThread,
        status: &TxCell,
        a2: &TxCell,
        o2: u64,
        n2: u64,
    ) -> u64 {
        let rd = Box::into_raw(Box::new(RdcssDesc {
            status,
            a2,
            o2,
            n2,
        }));
        let tagged = rd as u64 | RDCSS_TAG;
        let res = loop {
            match a2.cas_direct(&self.rt, o2, tagged) {
                Ok(_) => {
                    // SAFETY: we own rd until retire below.
                    self.rdcss_complete(unsafe { &*rd }, tagged);
                    break o2;
                }
                Err(r) => {
                    if is_rdcss(r) {
                        // SAFETY: pinned.
                        self.rdcss_complete(unsafe { &*(untag(r) as *const RdcssDesc) }, r);
                        continue;
                    }
                    break r;
                }
            }
        };
        // The descriptor was installed at most once and has been removed;
        // stalled helpers may still hold the pointer, so epoch-retire.
        // SAFETY: sole owner; removed from a2.
        unsafe { th.reclaim.retire(rd) };
        res
    }

    fn rdcss_complete(&self, rd: &RdcssDesc, tagged: u64) {
        let rt = &*self.rt;
        // SAFETY: the status cell belongs to a reference-counted k-CAS
        // descriptor reachable from rd (epoch pinned).
        let undecided = unsafe { &*rd.status }.load_direct(rt) == UNDECIDED;
        // SAFETY: as above.
        let a2 = unsafe { &*rd.a2 };
        if undecided {
            let kd = unsafe { &*(untag(rd.n2) as *const KcasDesc) };
            if kd.acquire_unless_zero() {
                if a2.cas_direct(rt, tagged, rd.n2).is_err() {
                    // Someone else completed this RDCSS; drop our ref.
                    // (Cannot be the last: an installed or in-flight k-CAS
                    // holds references, and even if it were, release()
                    // handles retirement via the installer side.)
                    kd.release();
                }
            } else {
                // Condemned k-CAS (long finished): restore the old value.
                let _ = a2.cas_direct(rt, tagged, rd.o2);
            }
        } else {
            let _ = a2.cas_direct(rt, tagged, rd.o2);
        }
    }

    fn release_desc(&self, th: &KcasThread, dptr: *const KcasDesc) {
        // SAFETY: reference counted.
        if unsafe { &*dptr }.release() {
            // SAFETY: last reference; no cell contains the descriptor.
            unsafe { th.reclaim.retire(dptr as *mut KcasDesc) };
        }
    }

    /// Transactional k-CAS (the HTM middle-path replacement): validates and
    /// writes every entry inside the enclosing transaction — no
    /// descriptors, no helping.
    ///
    /// # Errors
    ///
    /// Aborts with [`codes::VALIDATION`] if any cell does not hold its
    /// expected value (including holding a descriptor installed by a
    /// concurrent software k-CAS).
    pub fn kcas_tx(&self, tx: &mut Txn<'_>, entries: &[KcasEntry]) -> Result<(), Abort> {
        for e in entries {
            // SAFETY: entry cells outlive the operation (epoch pinned).
            let cell = unsafe { &*e.cell };
            if tx.read(cell)? != e.exp {
                return Err(tx.abort(codes::VALIDATION));
            }
        }
        for e in entries {
            // SAFETY: as above.
            let cell = unsafe { &*e.cell };
            tx.write(cell, e.new)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for KcasHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KcasHeap").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threepath_htm::{CachePadded, HtmConfig};
    use threepath_reclaim::ReclaimMode;

    fn heap() -> KcasHeap {
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        KcasHeap::new(rt, domain)
    }

    fn entry(cell: &TxCell, exp: u64, new: u64) -> KcasEntry {
        KcasEntry { cell, exp, new }
    }

    #[test]
    fn kcas_succeeds_when_all_match() {
        let h = heap();
        let th = h.register_thread();
        let a = CachePadded::new(TxCell::new(4));
        let b = CachePadded::new(TxCell::new(8));
        th.reclaim.enter();
        assert!(h.kcas(&th, &[entry(&a, 4, 12), entry(&b, 8, 16)]));
        assert_eq!(h.read(&th, &a), 12);
        assert_eq!(h.read(&th, &b), 16);
        th.reclaim.exit();
    }

    #[test]
    fn kcas_fails_when_any_mismatches() {
        let h = heap();
        let th = h.register_thread();
        let a = CachePadded::new(TxCell::new(4));
        let b = CachePadded::new(TxCell::new(8));
        th.reclaim.enter();
        assert!(!h.kcas(&th, &[entry(&a, 4, 12), entry(&b, 99 << 2, 16)]));
        // Nothing changed.
        assert_eq!(h.read(&th, &a), 4);
        assert_eq!(h.read(&th, &b), 8);
        th.reclaim.exit();
    }

    #[test]
    fn kcas_tx_matches_software_semantics() {
        let h = heap();
        let mut th = h.register_thread();
        let a = CachePadded::new(TxCell::new(0));
        let b = CachePadded::new(TxCell::new(4));
        let entries = [entry(&a, 0, 8), entry(&b, 4, 12)];
        let rt = h.runtime().clone();
        rt.attempt(&mut th.htm, |tx| h.kcas_tx(tx, &entries)).unwrap();
        th.reclaim.enter();
        assert_eq!(h.read(&th, &a), 8);
        assert_eq!(h.read(&th, &b), 12);
        // Now expected values are stale: must abort.
        let r = rt.attempt(&mut th.htm, |tx| h.kcas_tx(tx, &entries));
        assert!(r.is_err());
        th.reclaim.exit();
    }

    #[test]
    fn concurrent_disjoint_and_overlapping_kcas() {
        // 4 threads repeatedly 2-CAS (counter_i, shared): all increments of
        // `shared` must be atomic with the per-thread counters.
        let h = Arc::new(heap());
        let shared = Arc::new(CachePadded::new(TxCell::new(0)));
        let per: u64 = 300;
        let counters: Arc<Vec<CachePadded<TxCell>>> =
            Arc::new((0..4).map(|_| CachePadded::new(TxCell::new(0))).collect());
        std::thread::scope(|s| {
            for t in 0..4usize {
                let h = h.clone();
                let shared = shared.clone();
                let counters = counters.clone();
                s.spawn(move || {
                    let mut th = h.register_thread();
                    let mut done = 0;
                    while done < per {
                        th.pinned(|th| {
                            let my = &counters[t];
                            let c = h.read(th, my);
                            let sh = h.read(th, &shared);
                            if h.kcas(
                                th,
                                &[entry(my, c, c + 4), entry(&shared, sh, sh + 4)],
                            ) {
                                done += 1;
                            }
                        });
                    }
                });
            }
        });
        let th = h.register_thread();
        th.reclaim.enter();
        let total: u64 = (0..4).map(|t| h.read(&th, &counters[t])).sum();
        assert_eq!(total, 4 * per * 4);
        assert_eq!(h.read(&th, &shared), 4 * per * 4);
        th.reclaim.exit();
    }

    #[test]
    #[should_panic(expected = "entries.len()")]
    fn rejects_oversized_kcas() {
        let h = heap();
        let th = h.register_thread();
        let cells: Vec<TxCell> = (0..MAX_K + 1).map(|_| TxCell::new(0)).collect();
        let entries: Vec<KcasEntry> = cells.iter().map(|c| entry(c, 0, 4)).collect();
        // The size check fires before any epoch pin is needed.
        h.kcas(&th, &entries);
    }
}
