//! A sorted linked-list map accelerated with the 3-path approach over
//! k-CAS (paper Section 10.2).
//!
//! Node removal marks the node and unlinks it in one atomic k-CAS, so a
//! reachable node is never marked — searches need no mark-skipping. The
//! three paths:
//!
//! * **fast** — the whole operation in one transaction subscribing to `F`:
//!   plain reads with *no descriptor checks*. Safe because descriptors are
//!   only installed by fallback operations (which hold `F > 0`): one
//!   installed before the transaction began trips the subscription; one
//!   installed after invalidates the transaction's snapshot before the
//!   value can be returned (opacity);
//! * **middle** — descriptor-aware (helping) search outside the
//!   transaction, then the update phase as a transactional k-CAS;
//! * **fallback** — the software k-CAS list, `F` incremented around it.

use std::sync::Arc;

use threepath_core::{FallbackCount, PathKind, PathStats, TxRead};
use threepath_htm::{codes, Abort, HtmConfig, HtmRuntime, TxCell};
use threepath_reclaim::{Domain, ReclaimMode};

use crate::heap::{KcasEntry, KcasHeap, KcasThread};

/// Marked value for the `mark` cell (tag bits must stay clear).
const MARKED: u64 = 4;

struct LNode {
    key: u64,
    value: u64,
    mark: TxCell,
    next: TxCell,
}

impl LNode {
    fn new(key: u64, value: u64, next: *mut LNode) -> LNode {
        LNode {
            key,
            value,
            mark: TxCell::new(0),
            next: TxCell::new(next as u64),
        }
    }
}

/// Reads through the k-CAS heap, helping any k-CAS in the way: the
/// fallback path's [`TxRead`]. They never abort.
struct HelpingRead<'a>(&'a KcasHeap, &'a KcasThread);

impl TxRead for HelpingRead<'_> {
    fn read(&mut self, cell: &TxCell) -> Result<u64, Abort> {
        Ok(self.0.read(self.1, cell))
    }
}

/// Configuration for a [`KcasList`].
#[derive(Debug, Clone)]
pub struct KcasListConfig {
    /// Simulated-HTM parameters.
    pub htm: HtmConfig,
    /// Fast-path attempts per operation.
    pub fast_limit: u32,
    /// Middle-path attempts per operation.
    pub middle_limit: u32,
    /// Reclamation mode.
    pub reclaim: ReclaimMode,
}

impl Default for KcasListConfig {
    fn default() -> Self {
        KcasListConfig {
            htm: HtmConfig::default(),
            fast_limit: 10,
            middle_limit: 10,
            reclaim: ReclaimMode::Epoch,
        }
    }
}

/// A concurrent sorted-list map from `u64` to `u64` with set-style inserts
/// (an existing key is not updated).
pub struct KcasList {
    heap: KcasHeap,
    f: FallbackCount,
    head: *mut LNode,
    fast_limit: u32,
    middle_limit: u32,
}

// SAFETY: shared mutation is mediated by k-CAS and the HTM runtime.
unsafe impl Send for KcasList {}
unsafe impl Sync for KcasList {}

impl KcasList {
    /// A list with the default configuration.
    pub fn new() -> Self {
        Self::with_config(KcasListConfig::default())
    }

    /// A list with the given configuration.
    pub fn with_config(cfg: KcasListConfig) -> Self {
        let rt = Arc::new(HtmRuntime::new(cfg.htm.clone()));
        let domain = Arc::new(Domain::new(cfg.reclaim));
        KcasList {
            heap: KcasHeap::new(rt, domain),
            f: FallbackCount::new(),
            head: Box::into_raw(Box::new(LNode::new(0, 0, std::ptr::null_mut()))),
            fast_limit: cfg.fast_limit,
            middle_limit: cfg.middle_limit,
        }
    }

    /// The underlying HTM runtime.
    pub fn runtime(&self) -> &Arc<HtmRuntime> {
        self.heap.runtime()
    }

    /// Registers the calling thread.
    pub fn handle(self: &Arc<Self>) -> KcasListHandle {
        KcasListHandle {
            th: self.heap.register_thread(),
            list: Arc::clone(self),
            stats: PathStats::new(),
        }
    }

    /// All pairs in ascending key order. Quiescent only.
    pub fn collect(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        // SAFETY: quiescent per contract.
        let mut cur = unsafe { &*self.head }.next.load_plain() as *mut LNode;
        while !cur.is_null() {
            let n = unsafe { &*cur };
            out.push((n.key, n.value));
            cur = n.next.load_plain() as *mut LNode;
        }
        out
    }

    /// Sum of keys (quiescent).
    pub fn key_sum(&self) -> u128 {
        self.collect().iter().map(|(k, _)| *k as u128).sum()
    }

    fn search_with<R: TxRead>(
        &self,
        r: &mut R,
        key: u64,
    ) -> Result<(*mut LNode, *mut LNode), Abort> {
        // SAFETY: nodes reachable under the operation's pin.
        let mut prev = self.head;
        let mut cur = r.read_ptr::<LNode>(&unsafe { &*prev }.next)?;
        while !cur.is_null() && unsafe { &*cur }.key < key {
            prev = cur;
            cur = r.read_ptr(&unsafe { &*cur }.next)?;
        }
        Ok((prev, cur))
    }

    fn search_helping(&self, th: &KcasThread, key: u64) -> (*mut LNode, *mut LNode) {
        self.search_with(&mut HelpingRead(&self.heap, th), key)
            .expect("helping search cannot abort")
    }

    // ------------------------------------------------------------------
    // The local 3-path driver (the sketch in Section 10.2 is specifically
    // three-path, so the list does not parameterize over strategies).
    // ------------------------------------------------------------------

    fn run_3path<T>(
        &self,
        th: &mut KcasThread,
        stats: &mut PathStats,
        mut fast: impl FnMut(&mut KcasThread) -> Result<T, Abort>,
        mut middle: impl FnMut(&mut KcasThread) -> Result<T, Abort>,
        mut fallback: impl FnMut(&mut KcasThread) -> T,
    ) -> T {
        let rt = self.heap.runtime();
        let mut attempts = 0;
        while attempts < self.fast_limit {
            attempts += 1;
            match fast(th) {
                Ok(v) => {
                    stats.record_commit(PathKind::Fast);
                    stats.record_completed(PathKind::Fast);
                    return v;
                }
                Err(a) => {
                    stats.record_abort(PathKind::Fast, &a);
                    if a.user_code() == Some(codes::F_NONZERO) {
                        break;
                    }
                }
            }
        }
        for _ in 0..self.middle_limit {
            match middle(th) {
                Ok(v) => {
                    stats.record_commit(PathKind::Middle);
                    stats.record_completed(PathKind::Middle);
                    return v;
                }
                Err(a) => stats.record_abort(PathKind::Middle, &a),
            }
        }
        self.f.increment(rt);
        let v = fallback(th);
        self.f.decrement(rt);
        stats.record_completed(PathKind::Fallback);
        v
    }

    // ------------------------------------------------------------------
    // Insert.
    // ------------------------------------------------------------------

    fn fast_insert(&self, th: &mut KcasThread, key: u64, value: u64) -> Result<bool, Abort> {
        th.pinned(|th| {
            let node = Box::into_raw(Box::new(LNode::new(key, value, std::ptr::null_mut())));
            let res = self.heap.runtime().attempt(&mut th.htm, |tx| {
                if tx.read(self.f.cell())? != 0 {
                    return Err(tx.abort(codes::F_NONZERO));
                }
                let (prev, cur) = self.search_with(tx, key)?;
                if !cur.is_null() && unsafe { &*cur }.key == key {
                    return Ok(false);
                }
                // SAFETY: node unpublished until the write below commits.
                unsafe { (*node).next.store_plain(cur as u64) };
                tx.write(&unsafe { &*prev }.next, node as u64)?;
                Ok(true)
            });
            match res {
                Ok(true) => Ok(true),
                other => {
                    // Not linked: free the speculative node.
                    // SAFETY: never published.
                    drop(unsafe { Box::from_raw(node) });
                    other
                }
            }
        })
    }

    fn middle_insert(&self, th: &mut KcasThread, key: u64, value: u64) -> Result<bool, Abort> {
        th.pinned(|th| {
            let (prev, cur) = self.search_helping(th, key);
            if !cur.is_null() && unsafe { &*cur }.key == key {
                return Ok(false);
            }
            let node = Box::into_raw(Box::new(LNode::new(key, value, cur)));
            let prev_ref = unsafe { &*prev };
            let entries = [
                KcasEntry {
                    cell: &prev_ref.mark,
                    exp: 0,
                    new: 0,
                },
                KcasEntry {
                    cell: &prev_ref.next,
                    exp: cur as u64,
                    new: node as u64,
                },
            ];
            let res = self
                .heap
                .runtime()
                .attempt(&mut th.htm, |tx| self.heap.kcas_tx(tx, &entries));
            match res {
                Ok(()) => Ok(true),
                Err(a) => {
                    // SAFETY: never published.
                    drop(unsafe { Box::from_raw(node) });
                    Err(a)
                }
            }
        })
    }

    fn fallback_insert(&self, th: &mut KcasThread, key: u64, value: u64) -> bool {
        loop {
            let done = th.pinned(|th| {
                let (prev, cur) = self.search_helping(th, key);
                if !cur.is_null() && unsafe { &*cur }.key == key {
                    return Some(false);
                }
                let node = Box::into_raw(Box::new(LNode::new(key, value, cur)));
                let prev_ref = unsafe { &*prev };
                let ok = self.heap.kcas(
                    th,
                    &[
                        KcasEntry {
                            cell: &prev_ref.mark,
                            exp: 0,
                            new: 0,
                        },
                        KcasEntry {
                            cell: &prev_ref.next,
                            exp: cur as u64,
                            new: node as u64,
                        },
                    ],
                );
                if ok {
                    Some(true)
                } else {
                    // SAFETY: never published.
                    drop(unsafe { Box::from_raw(node) });
                    None
                }
            });
            if let Some(r) = done {
                return r;
            }
        }
    }

    // ------------------------------------------------------------------
    // Remove.
    // ------------------------------------------------------------------

    #[allow(clippy::type_complexity)]
    fn fast_remove(
        &self,
        th: &mut KcasThread,
        key: u64,
    ) -> Result<Option<u64>, Abort> {
        th.pinned(|th| {
            let removed = self.heap.runtime().attempt(&mut th.htm, |tx| {
                if tx.read(self.f.cell())? != 0 {
                    return Err(tx.abort(codes::F_NONZERO));
                }
                let (prev, cur) = self.search_with(tx, key)?;
                if cur.is_null() || unsafe { &*cur }.key != key {
                    return Ok(None);
                }
                let cur_ref = unsafe { &*cur };
                let succ = tx.read(&cur_ref.next)?;
                tx.write(&cur_ref.mark, MARKED)?;
                tx.write(&unsafe { &*prev }.next, succ)?;
                Ok(Some((cur_ref.value, cur)))
            })?;
            Ok(removed.map(|(v, cur)| {
                // SAFETY: atomically marked and unlinked by the committed
                // transaction.
                unsafe { th.reclaim.retire(cur) };
                v
            }))
        })
    }

    fn middle_remove(&self, th: &mut KcasThread, key: u64) -> Result<Option<u64>, Abort> {
        th.pinned(|th| {
            let (prev, cur) = self.search_helping(th, key);
            if cur.is_null() || unsafe { &*cur }.key != key {
                return Ok(None);
            }
            let cur_ref = unsafe { &*cur };
            let succ = self.heap.read(th, &cur_ref.next);
            let prev_ref = unsafe { &*prev };
            let entries = [
                KcasEntry {
                    cell: &prev_ref.mark,
                    exp: 0,
                    new: 0,
                },
                KcasEntry {
                    cell: &cur_ref.mark,
                    exp: 0,
                    new: MARKED,
                },
                KcasEntry {
                    cell: &cur_ref.next,
                    exp: succ,
                    new: succ,
                },
                KcasEntry {
                    cell: &prev_ref.next,
                    exp: cur as u64,
                    new: succ,
                },
            ];
            self.heap
                .runtime()
                .attempt(&mut th.htm, |tx| self.heap.kcas_tx(tx, &entries))?;
            let v = cur_ref.value;
            // SAFETY: marked and unlinked atomically.
            unsafe { th.reclaim.retire(cur) };
            Ok(Some(v))
        })
    }

    fn fallback_remove(&self, th: &mut KcasThread, key: u64) -> Option<u64> {
        loop {
            let done = th.pinned(|th| {
                let (prev, cur) = self.search_helping(th, key);
                if cur.is_null() || unsafe { &*cur }.key != key {
                    return Some(None);
                }
                let cur_ref = unsafe { &*cur };
                let succ = self.heap.read(th, &cur_ref.next);
                let prev_ref = unsafe { &*prev };
                let ok = self.heap.kcas(
                    th,
                    &[
                        KcasEntry {
                            cell: &prev_ref.mark,
                            exp: 0,
                            new: 0,
                        },
                        KcasEntry {
                            cell: &cur_ref.mark,
                            exp: 0,
                            new: MARKED,
                        },
                        KcasEntry {
                            cell: &cur_ref.next,
                            exp: succ,
                            new: succ,
                        },
                        KcasEntry {
                            cell: &prev_ref.next,
                            exp: cur as u64,
                            new: succ,
                        },
                    ],
                );
                if ok {
                    let v = cur_ref.value;
                    // SAFETY: marked and unlinked atomically.
                    unsafe { th.reclaim.retire(cur) };
                    Some(Some(v))
                } else {
                    None
                }
            });
            if let Some(r) = done {
                return r;
            }
        }
    }

    // ------------------------------------------------------------------
    // Get.
    // ------------------------------------------------------------------

    fn fast_get(&self, th: &mut KcasThread, key: u64) -> Result<Option<u64>, Abort> {
        th.pinned(|th| {
            self.heap.runtime().attempt(&mut th.htm, |tx| {
                if tx.read(self.f.cell())? != 0 {
                    return Err(tx.abort(codes::F_NONZERO));
                }
                let (_prev, cur) = self.search_with(tx, key)?;
                if cur.is_null() || unsafe { &*cur }.key != key {
                    Ok(None)
                } else {
                    Ok(Some(unsafe { &*cur }.value))
                }
            })
        })
    }

    fn helping_get(&self, th: &mut KcasThread, key: u64) -> Option<u64> {
        th.pinned(|th| {
            let (_prev, cur) = self.search_helping(th, key);
            if cur.is_null() || unsafe { &*cur }.key != key {
                None
            } else {
                Some(unsafe { &*cur }.value)
            }
        })
    }
}

impl Default for KcasList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for KcasList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KcasList").finish()
    }
}

impl Drop for KcasList {
    fn drop(&mut self) {
        // SAFETY: exclusive access; removed nodes live in limbo bags.
        let mut cur = self.head;
        while !cur.is_null() {
            let next = unsafe { &*cur }.next.load_plain() as *mut LNode;
            drop(unsafe { Box::from_raw(cur) });
            cur = next;
        }
    }
}

/// A per-thread handle to a [`KcasList`].
pub struct KcasListHandle {
    list: Arc<KcasList>,
    th: KcasThread,
    stats: PathStats,
}

impl KcasListHandle {
    /// The underlying list.
    pub fn list(&self) -> &Arc<KcasList> {
        &self.list
    }

    /// Path statistics accumulated by this handle.
    pub fn stats(&self) -> &PathStats {
        &self.stats
    }

    /// Inserts `key`; returns false if already present (set semantics).
    pub fn insert(&mut self, key: u64, value: u64) -> bool {
        let list = &self.list;
        list.run_3path(
            &mut self.th,
            &mut self.stats,
            |th| list.fast_insert(th, key, value),
            |th| list.middle_insert(th, key, value),
            |th| list.fallback_insert(th, key, value),
        )
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        let list = &self.list;
        list.run_3path(
            &mut self.th,
            &mut self.stats,
            |th| list.fast_remove(th, key),
            |th| list.middle_remove(th, key),
            |th| list.fallback_remove(th, key),
        )
    }

    /// Looks up `key`.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        let list = &self.list;
        list.run_3path(
            &mut self.th,
            &mut self.stats,
            |th| list.fast_get(th, key),
            |th| Ok(list.helping_get(th, key)),
            |th| list.helping_get(th, key),
        )
    }
}

impl std::fmt::Debug for KcasListHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KcasListHandle").finish()
    }
}
