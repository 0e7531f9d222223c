//! CITRUS: an internal (node-oriented) BST using RCU searches and
//! fine-grained per-node locks (Arbel & Attiya), accelerated with the
//! 3-path approach (paper Section 10.1).

use std::sync::Arc;

use threepath_core::{FallbackCount, PathKind, PathStats, TxRead};
use threepath_htm::{codes, Abort, HtmConfig, HtmRuntime, TxCell, TxThread, Txn};
use threepath_reclaim::{Domain, ReclaimCtx, ReclaimMode};

use crate::rcu::{RcuDomain, RcuThread};

/// Largest storable key (one sentinel value is reserved).
pub const MAX_KEY: u64 = u64::MAX - 1;

struct CNode {
    key: u64,
    value: TxCell,
    children: [TxCell; 2],
    lock: TxCell,
    marked: TxCell,
}

impl CNode {
    fn new(key: u64, value: u64) -> CNode {
        CNode {
            key,
            value: TxCell::new(value),
            children: [TxCell::new(0), TxCell::new(0)],
            lock: TxCell::new(0),
            marked: TxCell::new(0),
        }
    }
}

fn dir_of(key: u64, node_key: u64) -> usize {
    usize::from(key >= node_key)
}

/// Configuration for a [`Citrus`] tree.
#[derive(Debug, Clone)]
pub struct CitrusConfig {
    /// Simulated-HTM parameters.
    pub htm: HtmConfig,
    /// Fast-path attempts per operation.
    pub fast_limit: u32,
    /// Middle-path attempts per operation.
    pub middle_limit: u32,
    /// Reclamation mode (memory safety; `rcu_wait` remains the fallback's
    /// algorithmic wait).
    pub reclaim: ReclaimMode,
}

impl Default for CitrusConfig {
    fn default() -> Self {
        CitrusConfig {
            htm: HtmConfig::default(),
            fast_limit: 10,
            middle_limit: 10,
            reclaim: ReclaimMode::Epoch,
        }
    }
}

/// Per-thread context.
pub struct CitrusThread {
    htm: TxThread,
    reclaim: ReclaimCtx,
    rcu: RcuThread,
}

impl CitrusThread {
    fn pinned<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
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

/// A concurrent internal BST (map `u64 -> u64`) in the CITRUS style, with
/// 3-path HTM acceleration.
pub struct Citrus {
    rt: Arc<HtmRuntime>,
    domain: Arc<Domain>,
    rcu: Arc<RcuDomain>,
    f: FallbackCount,
    root: *mut CNode,
    fast_limit: u32,
    middle_limit: u32,
}

// SAFETY: shared mutation is mediated by locks/RCU/transactions.
unsafe impl Send for Citrus {}
unsafe impl Sync for Citrus {}

struct Search {
    prev: *mut CNode,
    dir: usize,
    cur: *mut CNode, // null when absent
}

impl Citrus {
    /// A tree with the default configuration.
    pub fn new() -> Self {
        Self::with_config(CitrusConfig::default())
    }

    /// A tree with the given configuration.
    pub fn with_config(cfg: CitrusConfig) -> Self {
        Citrus {
            rt: Arc::new(HtmRuntime::new(cfg.htm.clone())),
            domain: Arc::new(Domain::new(cfg.reclaim)),
            rcu: Arc::new(RcuDomain::new()),
            f: FallbackCount::new(),
            root: Box::into_raw(Box::new(CNode::new(u64::MAX, 0))),
            fast_limit: cfg.fast_limit,
            middle_limit: cfg.middle_limit,
        }
    }

    /// The underlying HTM runtime.
    pub fn runtime(&self) -> &Arc<HtmRuntime> {
        &self.rt
    }

    /// The RCU domain (diagnostics: grace-period count).
    pub fn rcu(&self) -> &Arc<RcuDomain> {
        &self.rcu
    }

    /// Registers the calling thread.
    pub fn handle(self: &Arc<Self>) -> CitrusHandle {
        CitrusHandle {
            th: CitrusThread {
                htm: self.rt.register_thread(),
                reclaim: Domain::register(&self.domain),
                rcu: self.rcu.register(),
            },
            tree: Arc::clone(self),
            stats: PathStats::new(),
        }
    }

    /// All pairs in ascending key order. Quiescent only.
    pub fn collect(&self) -> Vec<(u64, u64)> {
        fn rec(n: *mut CNode, out: &mut Vec<(u64, u64)>) {
            if n.is_null() {
                return;
            }
            // SAFETY: quiescent per contract.
            let node = unsafe { &*n };
            rec(node.children[0].load_plain() as *mut CNode, out);
            if node.key <= MAX_KEY {
                out.push((node.key, node.value.load_plain()));
            }
            rec(node.children[1].load_plain() as *mut CNode, out);
        }
        let mut out = Vec::new();
        // The sentinel root holds no user key; the tree hangs at its left.
        rec(
            unsafe { &*self.root }.children[0].load_plain() as *mut CNode,
            &mut out,
        );
        out
    }

    /// Sum of keys (quiescent).
    pub fn key_sum(&self) -> u128 {
        self.collect().iter().map(|(k, _)| *k as u128).sum()
    }

    /// Structural check: BST order and no reachable marked/locked nodes.
    /// Quiescent only.
    pub fn validate(&self) -> Result<usize, String> {
        fn rec(n: *mut CNode, lo: u64, hi: u64, count: &mut usize) -> Result<(), String> {
            if n.is_null() {
                return Ok(());
            }
            // SAFETY: quiescent per contract.
            let node = unsafe { &*n };
            if !(lo <= node.key && node.key < hi) {
                return Err(format!("key {} out of range [{lo},{hi})", node.key));
            }
            if node.marked.load_plain() != 0 {
                return Err("reachable marked node".into());
            }
            if node.lock.load_plain() != 0 {
                return Err("reachable locked node".into());
            }
            *count += 1;
            rec(node.children[0].load_plain() as *mut CNode, lo, node.key, count)?;
            rec(
                node.children[1].load_plain() as *mut CNode,
                node.key + 1,
                hi,
                count,
            )
        }
        let mut count = 0;
        rec(
            unsafe { &*self.root }.children[0].load_plain() as *mut CNode,
            0,
            u64::MAX,
            &mut count,
        )?;
        Ok(count)
    }

    fn search_with<R: TxRead>(&self, r: &mut R, key: u64) -> Result<Search, Abort> {
        // SAFETY: nodes reachable under the operation's epoch pin.
        let mut prev = self.root;
        let mut dir = 0usize;
        let mut cur = r.read_ptr::<CNode>(&unsafe { &*prev }.children[0])?;
        while !cur.is_null() {
            let n = unsafe { &*cur };
            if n.key == key {
                break;
            }
            prev = cur;
            dir = dir_of(key, n.key);
            cur = r.read_ptr(&n.children[dir])?;
        }
        Ok(Search { prev, dir, cur })
    }

    /// Successor of `cur` (which has two children): `(sp, s)` where `s` is
    /// the leftmost node of `cur`'s right subtree and `sp` its parent.
    fn successor_with<R: TxRead>(
        &self,
        r: &mut R,
        cur: *mut CNode,
    ) -> Result<(*mut CNode, *mut CNode), Abort> {
        let mut sp = cur;
        let mut s = r.read_ptr::<CNode>(&unsafe { &*cur }.children[1])?;
        loop {
            let left = r.read_ptr::<CNode>(&unsafe { &*s }.children[0])?;
            if left.is_null() {
                return Ok((sp, s));
            }
            sp = s;
            s = left;
        }
    }

    // ------------------------------------------------------------------
    // Fallback path: real CITRUS (locks + RCU).
    // ------------------------------------------------------------------

    fn lock(&self, n: *mut CNode) {
        let cell = &unsafe { &*n }.lock;
        let mut spins = 0u32;
        while cell.cas_direct(&self.rt, 0, 1).is_err() {
            spins += 1;
            if spins % 64 == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    fn unlock(&self, n: *mut CNode) {
        unsafe { &*n }.lock.store_direct(&self.rt, 0);
    }

    fn unlock_all(&self, locked: &[*mut CNode]) {
        for &n in locked.iter().rev() {
            self.unlock(n);
        }
    }

    fn is_marked(&self, n: *mut CNode) -> bool {
        unsafe { &*n }.marked.load_direct(&self.rt) != 0
    }

    fn search_direct(&self, th: &CitrusThread, key: u64) -> Search {
        // CITRUS searches run inside an RCU read-side critical section.
        let _rcu = th.rcu.read_lock();
        self.search_with(&mut &*self.rt, key)
            .expect("direct search cannot abort")
    }

    fn fallback_insert(&self, th: &mut CitrusThread, key: u64, value: u64) -> Option<u64> {
        loop {
            let out = th.pinned(|th| {
                let s = self.search_direct(th, key);
                let rt = &*self.rt;
                if !s.cur.is_null() {
                    self.lock(s.cur);
                    if self.is_marked(s.cur) {
                        self.unlock(s.cur);
                        return None; // retry
                    }
                    let node = unsafe { &*s.cur };
                    let old = node.value.load_direct(rt);
                    node.value.store_direct(rt, value);
                    self.unlock(s.cur);
                    Some(Some(old))
                } else {
                    self.lock(s.prev);
                    let prev = unsafe { &*s.prev };
                    let valid = !self.is_marked(s.prev)
                        && prev.children[s.dir].load_direct(rt) == 0;
                    if !valid {
                        self.unlock(s.prev);
                        return None; // retry
                    }
                    let n = Box::into_raw(Box::new(CNode::new(key, value)));
                    prev.children[s.dir].store_direct(rt, n as u64);
                    self.unlock(s.prev);
                    Some(None)
                }
            });
            if let Some(r) = out {
                return r;
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn fallback_remove(&self, th: &mut CitrusThread, key: u64) -> Option<u64> {
        loop {
            enum Outcome {
                Done(Option<u64>),
                Retry,
            }
            let out = th.pinned(|th| {
                let rt = &*self.rt;
                let s = self.search_direct(th, key);
                if s.cur.is_null() {
                    return Outcome::Done(None);
                }
                let cur = unsafe { &*s.cur };
                let mut locked: Vec<*mut CNode> = Vec::with_capacity(4);
                macro_rules! bail {
                    () => {{
                        self.unlock_all(&locked);
                        return Outcome::Retry;
                    }};
                }
                self.lock(s.prev);
                locked.push(s.prev);
                self.lock(s.cur);
                locked.push(s.cur);
                let prev = unsafe { &*s.prev };
                if self.is_marked(s.prev)
                    || self.is_marked(s.cur)
                    || prev.children[s.dir].load_direct(rt) != s.cur as u64
                {
                    bail!();
                }
                let old = cur.value.load_direct(rt);
                let l = cur.children[0].load_direct(rt) as *mut CNode;
                let r = cur.children[1].load_direct(rt) as *mut CNode;

                if l.is_null() || r.is_null() {
                    // Splice out.
                    let child = if l.is_null() { r } else { l };
                    cur.marked.store_direct(rt, 1);
                    prev.children[s.dir].store_direct(rt, child as u64);
                    self.unlock_all(&locked);
                    // CITRUS frees after a grace period so readers cannot
                    // hold the spliced node.
                    self.rcu.synchronize();
                    // SAFETY: unlinked; retired once.
                    unsafe { th.reclaim.retire(s.cur) };
                    return Outcome::Done(Some(old));
                }

                // Two children: replace with a copy carrying the
                // successor's pair, wait out readers, then unlink the
                // successor (CITRUS's rcu_wait is the dominating cost the
                // middle path eliminates).
                let (sp, succ) = self
                    .successor_with(&mut &*rt, s.cur)
                    .expect("direct reads cannot abort");
                if sp != s.cur {
                    self.lock(sp);
                    locked.push(sp);
                }
                self.lock(succ);
                locked.push(succ);
                let succ_ref = unsafe { &*succ };
                let sp_ref = unsafe { &*sp };
                let valid = !self.is_marked(succ)
                    && (sp == s.cur || !self.is_marked(sp))
                    && succ_ref.children[0].load_direct(rt) == 0
                    && sp_ref.children[usize::from(sp == s.cur)].load_direct(rt) == succ as u64;
                if !valid {
                    bail!();
                }
                let sval = succ_ref.value.load_direct(rt);
                let new = Box::into_raw(Box::new(CNode::new(succ_ref.key, sval)));
                let new_ref = unsafe { &*new };
                // SAFETY: unpublished until stored below.
                unsafe {
                    new_ref.children[0].store_plain(l as u64);
                    if sp == s.cur {
                        // The successor is cur's right child: absorb its
                        // right subtree directly.
                        new_ref.children[1].store_plain(succ_ref.children[1].load_direct(rt));
                    } else {
                        new_ref.children[1].store_plain(r as u64);
                    }
                }
                cur.marked.store_direct(rt, 1);
                if sp == s.cur {
                    succ_ref.marked.store_direct(rt, 1);
                    prev.children[s.dir].store_direct(rt, new as u64);
                    self.unlock_all(&locked);
                    self.rcu.synchronize();
                } else {
                    prev.children[s.dir].store_direct(rt, new as u64);
                    // Readers may still be traversing from the old `cur`
                    // toward the successor: wait them out, then unlink it.
                    self.rcu.synchronize();
                    succ_ref.marked.store_direct(rt, 1);
                    sp_ref.children[0].store_direct(rt, succ_ref.children[1].load_direct(rt));
                    self.unlock_all(&locked);
                    self.rcu.synchronize();
                }
                // SAFETY: both unlinked; retired once each.
                unsafe {
                    th.reclaim.retire(s.cur);
                    th.reclaim.retire(succ);
                }
                Outcome::Done(Some(old))
            });
            match out {
                Outcome::Done(r) => return r,
                Outcome::Retry => continue,
            }
        }
    }

    fn fallback_get(&self, th: &mut CitrusThread, key: u64) -> Option<u64> {
        th.pinned(|th| {
            let s = self.search_direct(th, key);
            if s.cur.is_null() {
                None
            } else {
                Some(unsafe { &*s.cur }.value.load_direct(&self.rt))
            }
        })
    }

    // ------------------------------------------------------------------
    // Transactional paths. `check_locks = true` gives the middle path
    // (which runs concurrently with lock-holding fallback operations);
    // `false` plus the `F` subscription gives the fast path.
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn tx_update(
        &self,
        tx: &mut Txn<'_>,
        key: u64,
        value: Option<u64>, // Some = insert, None = remove
        check_locks: bool,
        removed: &mut Vec<*mut CNode>,
        shell: *mut CNode, // pre-allocated node, configured if used
    ) -> Result<(Option<u64>, bool), Abort> {
        let guard = |tx: &mut Txn<'_>, n: *mut CNode| -> Result<(), Abort> {
            if check_locks {
                let node = unsafe { &*n };
                if tx.read(&node.lock)? != 0 {
                    return Err(Abort::explicit(codes::LOCK_HELD));
                }
                if tx.read(&node.marked)? != 0 {
                    return Err(Abort::explicit(codes::MARKED));
                }
            }
            Ok(())
        };

        let s = self.search_with(tx, key)?;
        match value {
            Some(v) => {
                if !s.cur.is_null() {
                    guard(tx, s.cur)?;
                    let node = unsafe { &*s.cur };
                    let old = tx.read(&node.value)?;
                    tx.write(&node.value, v)?;
                    Ok((Some(old), false))
                } else {
                    guard(tx, s.prev)?;
                    // SAFETY: shell unpublished; configure it for this use.
                    unsafe {
                        (*shell).key = key;
                        (*shell).value.store_plain(v);
                        (*shell).children[0].store_plain(0);
                        (*shell).children[1].store_plain(0);
                    }
                    tx.write(&unsafe { &*s.prev }.children[s.dir], shell as u64)?;
                    Ok((None, true))
                }
            }
            None => {
                if s.cur.is_null() {
                    return Ok((None, false));
                }
                guard(tx, s.prev)?;
                guard(tx, s.cur)?;
                let cur = unsafe { &*s.cur };
                let prev = unsafe { &*s.prev };
                let old = tx.read(&cur.value)?;
                let l = tx.read(&cur.children[0])? as *mut CNode;
                let r = tx.read(&cur.children[1])? as *mut CNode;
                if l.is_null() || r.is_null() {
                    let child = if l.is_null() { r } else { l };
                    if check_locks {
                        tx.write(&cur.marked, 1)?;
                    }
                    tx.write(&prev.children[s.dir], child as u64)?;
                    removed.push(s.cur);
                    return Ok((Some(old), false));
                }
                // Two children: copy-replace; no rcu_wait — the
                // transaction is atomic (the middle path's key win).
                let (sp, succ) = self.successor_with(tx, s.cur)?;
                if sp != s.cur {
                    guard(tx, sp)?;
                }
                guard(tx, succ)?;
                let succ_ref = unsafe { &*succ };
                let sval = tx.read(&succ_ref.value)?;
                let succ_right = tx.read(&succ_ref.children[1])?;
                // SAFETY: shell unpublished; configure as the replacement.
                unsafe {
                    (*shell).key = succ_ref.key;
                    (*shell).value.store_plain(sval);
                    (*shell).children[0].store_plain(l as u64);
                    (*shell).children[1].store_plain(if sp == s.cur {
                        succ_right
                    } else {
                        r as u64
                    });
                }
                if check_locks {
                    tx.write(&cur.marked, 1)?;
                    tx.write(&succ_ref.marked, 1)?;
                }
                tx.write(&prev.children[s.dir], shell as u64)?;
                if sp != s.cur {
                    tx.write(&unsafe { &*sp }.children[0], succ_right)?;
                }
                removed.push(s.cur);
                removed.push(succ);
                Ok((Some(old), true))
            }
        }
    }

    fn tx_attempt(
        &self,
        th: &mut CitrusThread,
        key: u64,
        value: Option<u64>,
        check_locks: bool,
    ) -> Result<Option<u64>, Abort> {
        th.pinned(|th| {
            let shell = Box::into_raw(Box::new(CNode::new(0, 0)));
            let mut removed = Vec::new();
            let res = self.rt.attempt(&mut th.htm, |tx| {
                removed.clear();
                if !check_locks {
                    // Fast path: subscribe to F.
                    if tx.read(self.f.cell())? != 0 {
                        return Err(tx.abort(codes::F_NONZERO));
                    }
                }
                self.tx_update(tx, key, value, check_locks, &mut removed, shell)
            });
            match res {
                Ok((out, used_shell)) => {
                    for &n in &removed {
                        // SAFETY: unlinked by the committed transaction.
                        unsafe { th.reclaim.retire(n) };
                    }
                    if !used_shell {
                        // SAFETY: never published.
                        drop(unsafe { Box::from_raw(shell) });
                    }
                    Ok(out)
                }
                Err(a) => {
                    // SAFETY: aborted transaction published nothing.
                    drop(unsafe { Box::from_raw(shell) });
                    Err(a)
                }
            }
        })
    }

    fn tx_get(&self, th: &mut CitrusThread, key: u64, subscribe: bool) -> Result<Option<u64>, Abort> {
        th.pinned(|th| {
            self.rt.attempt(&mut th.htm, |tx| {
                if subscribe && tx.read(self.f.cell())? != 0 {
                    return Err(tx.abort(codes::F_NONZERO));
                }
                let s = self.search_with(tx, key)?;
                if s.cur.is_null() {
                    Ok(None)
                } else {
                    Ok(Some(tx.read(&unsafe { &*s.cur }.value)?))
                }
            })
        })
    }

    fn run_3path<T>(
        &self,
        th: &mut CitrusThread,
        stats: &mut PathStats,
        mut fast: impl FnMut(&mut CitrusThread) -> Result<T, Abort>,
        mut middle: impl FnMut(&mut CitrusThread) -> Result<T, Abort>,
        mut fallback: impl FnMut(&mut CitrusThread) -> T,
    ) -> T {
        let rt = &*self.rt;
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
}

impl Default for Citrus {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Citrus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Citrus")
            .field("fast_limit", &self.fast_limit)
            .field("middle_limit", &self.middle_limit)
            .finish()
    }
}

impl Drop for Citrus {
    fn drop(&mut self) {
        unsafe fn free_rec(n: *mut CNode) {
            if n.is_null() {
                return;
            }
            let node = unsafe { &*n };
            unsafe {
                free_rec(node.children[0].load_plain() as *mut CNode);
                free_rec(node.children[1].load_plain() as *mut CNode);
            }
            drop(unsafe { Box::from_raw(n) });
        }
        // SAFETY: exclusive; retired nodes are in limbo bags, unreachable.
        unsafe { free_rec(self.root) };
    }
}

/// A per-thread handle to a [`Citrus`] tree.
pub struct CitrusHandle {
    tree: Arc<Citrus>,
    th: CitrusThread,
    stats: PathStats,
}

impl CitrusHandle {
    /// The underlying tree.
    pub fn tree(&self) -> &Arc<Citrus> {
        &self.tree
    }

    /// Path statistics accumulated by this handle.
    pub fn stats(&self) -> &PathStats {
        &self.stats
    }

    /// Inserts or updates `key`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `key > MAX_KEY`.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        assert!(key <= MAX_KEY);
        let tree = &self.tree;
        tree.run_3path(
            &mut self.th,
            &mut self.stats,
            |th| tree.tx_attempt(th, key, Some(value), false),
            |th| tree.tx_attempt(th, key, Some(value), true),
            |th| tree.fallback_insert(th, key, value),
        )
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        if key > MAX_KEY {
            return None;
        }
        let tree = &self.tree;
        tree.run_3path(
            &mut self.th,
            &mut self.stats,
            |th| tree.tx_attempt(th, key, None, false),
            |th| tree.tx_attempt(th, key, None, true),
            |th| tree.fallback_remove(th, key),
        )
    }

    /// Looks up `key`.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        if key > MAX_KEY {
            return None;
        }
        let tree = &self.tree;
        tree.run_3path(
            &mut self.th,
            &mut self.stats,
            |th| tree.tx_get(th, key, true),
            |th| tree.tx_get(th, key, false),
            |th| tree.fallback_get(th, key),
        )
    }
}

impl std::fmt::Debug for CitrusHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CitrusHandle").finish()
    }
}
