//! The unbalanced external BST implemented directly on Hybrid NOrec: every
//! operation is one TM transaction over sequential BST code (paper
//! Section 7.3's methodology, with the TM inlined into the tree code).

use std::sync::{Arc, Mutex};

use threepath_htm::{Abort, HtmConfig, HtmRuntime, TxCell};

use crate::norec::{NorecTm, TmAccess};

const SENT1: u64 = u64::MAX - 1;
const SENT2: u64 = u64::MAX;

/// Largest storable key.
pub const MAX_KEY: u64 = u64::MAX - 2;

struct Node {
    key: u64,
    is_leaf: bool,
    value: TxCell,
    children: [TxCell; 2],
}

impl Node {
    fn leaf(key: u64, value: u64) -> Node {
        Node {
            key,
            is_leaf: true,
            value: TxCell::new(value),
            children: [TxCell::new(0), TxCell::new(0)],
        }
    }
    fn internal(key: u64, l: *mut Node, r: *mut Node) -> Node {
        Node {
            key,
            is_leaf: false,
            value: TxCell::new(0),
            children: [TxCell::new(l as u64), TxCell::new(r as u64)],
        }
    }
}

fn dir_of(key: u64, node_key: u64) -> usize {
    usize::from(key >= node_key)
}

/// Configuration for [`HnBst`].
#[derive(Debug, Clone)]
pub struct HnConfig {
    /// Simulated-HTM parameters.
    pub htm: HtmConfig,
    /// Hardware attempts before the NOrec software path.
    pub hw_attempts: u32,
}

impl Default for HnConfig {
    fn default() -> Self {
        HnConfig {
            htm: HtmConfig::default(),
            hw_attempts: 10,
        }
    }
}

/// A BST whose operations run as Hybrid NOrec transactions.
pub struct HnBst {
    tm: NorecTm,
    root: *mut Node,
    graveyard: Mutex<Vec<*mut Node>>,
}

// SAFETY: all shared mutation goes through the TM.
unsafe impl Send for HnBst {}
unsafe impl Sync for HnBst {}

impl HnBst {
    /// A tree with default configuration.
    pub fn new() -> Self {
        Self::with_config(HnConfig::default())
    }

    /// A tree with the given configuration.
    pub fn with_config(cfg: HnConfig) -> Self {
        let rt = Arc::new(HtmRuntime::new(cfg.htm.clone()));
        let tm = NorecTm::new(rt, cfg.hw_attempts);
        let l1 = Box::into_raw(Box::new(Node::leaf(SENT1, 0)));
        let l2 = Box::into_raw(Box::new(Node::leaf(SENT2, 0)));
        let root = Box::into_raw(Box::new(Node::internal(SENT2, l1, l2)));
        HnBst {
            tm,
            root,
            graveyard: Mutex::new(Vec::new()),
        }
    }

    /// Registers the calling thread.
    pub fn handle(self: &Arc<Self>) -> HnBstHandle {
        HnBstHandle {
            th: self.tm.runtime().register_thread(),
            tree: Arc::clone(self),
            graveyard: Vec::new(),
        }
    }

    /// Sum of user keys; quiescent only.
    pub fn key_sum_quiescent(&self) -> u128 {
        fn rec(n: *mut Node, acc: &mut u128) {
            // SAFETY: quiescent per contract.
            let node = unsafe { &*n };
            if node.is_leaf {
                if node.key < SENT1 {
                    *acc += node.key as u128;
                }
            } else {
                rec(node.children[0].load_plain() as *mut Node, acc);
                rec(node.children[1].load_plain() as *mut Node, acc);
            }
        }
        let mut acc = 0;
        rec(self.root, &mut acc);
        acc
    }
}

impl Default for HnBst {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for HnBst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HnBst").field("tm", &self.tm).finish()
    }
}

impl Drop for HnBst {
    fn drop(&mut self) {
        unsafe fn free_rec(n: *mut Node) {
            let node = unsafe { &*n };
            if !node.is_leaf {
                unsafe {
                    free_rec(node.children[0].load_plain() as *mut Node);
                    free_rec(node.children[1].load_plain() as *mut Node);
                }
            }
            drop(unsafe { Box::from_raw(n) });
        }
        // SAFETY: exclusive access; graveyard nodes are unreachable from
        // the root (no double free).
        unsafe { free_rec(self.root) };
        for n in self.graveyard.lock().unwrap().drain(..) {
            drop(unsafe { Box::from_raw(n) });
        }
    }
}

struct Found {
    gp: *mut Node,
    gp_dir: usize,
    p: *mut Node,
    p_dir: usize,
    l: *mut Node,
}

fn search(acc: &mut dyn TmAccess, root: *mut Node, key: u64) -> Result<Found, Abort> {
    // SAFETY: nodes are only freed at tree drop (graveyard discipline), so
    // every pointer read through the TM remains dereferenceable.
    let mut gp = std::ptr::null_mut();
    let mut gp_dir = 0usize;
    let mut p = root;
    let mut p_dir = dir_of(key, unsafe { &*root }.key);
    let mut l = acc.read(&unsafe { &*p }.children[p_dir])? as *mut Node;
    while !unsafe { &*l }.is_leaf {
        gp = p;
        gp_dir = p_dir;
        p = l;
        p_dir = dir_of(key, unsafe { &*p }.key);
        l = acc.read(&unsafe { &*p }.children[p_dir])? as *mut Node;
    }
    Ok(Found {
        gp,
        gp_dir,
        p,
        p_dir,
        l,
    })
}

/// A per-thread handle to an [`HnBst`].
pub struct HnBstHandle {
    tree: Arc<HnBst>,
    th: threepath_htm::TxThread,
    graveyard: Vec<*mut Node>,
}

impl HnBstHandle {
    /// Inserts or updates, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `key > MAX_KEY`.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        assert!(key <= MAX_KEY);
        let tree = &self.tree;
        let root = tree.root;
        // New nodes are pre-allocated outside the transaction and reused
        // across attempts; freed if ultimately unused.
        let nl = Box::into_raw(Box::new(Node::leaf(key, value)));
        let ni = Box::into_raw(Box::new(Node::internal(0, std::ptr::null_mut(), std::ptr::null_mut())));
        let used = tree.tm.execute(&mut self.th, |acc| {
            let f = search(acc, root, key)?;
            let l = unsafe { &*f.l };
            let p = unsafe { &*f.p };
            if l.key == key {
                let old = acc.read(&l.value)?;
                acc.write(&l.value, value)?;
                Ok(Some(old))
            } else {
                // Configure the pre-allocated internal node for this
                // attempt (safe: it is unpublished until the write below).
                let internal = unsafe { &mut *ni };
                if key < l.key {
                    internal.key = l.key;
                    // SAFETY: unpublished.
                    unsafe {
                        internal.children[0].store_plain(nl as u64);
                        internal.children[1].store_plain(f.l as u64);
                    }
                } else {
                    internal.key = key;
                    unsafe {
                        internal.children[0].store_plain(f.l as u64);
                        internal.children[1].store_plain(nl as u64);
                    }
                }
                acc.write(&p.children[f.p_dir], ni as u64)?;
                Ok(None)
            }
        });
        if used.is_some() {
            // Updated in place: the pre-allocated nodes are unused.
            // SAFETY: never published.
            unsafe {
                drop(Box::from_raw(nl));
                drop(Box::from_raw(ni));
            }
        }
        used
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        if key > MAX_KEY {
            return None;
        }
        let tree = &self.tree;
        let root = tree.root;
        let removed = tree.tm.execute(&mut self.th, |acc| {
            let f = search(acc, root, key)?;
            let l = unsafe { &*f.l };
            if l.key != key {
                return Ok(None);
            }
            let gp = unsafe { &*f.gp };
            let p = unsafe { &*f.p };
            let sibling = acc.read(&p.children[1 - f.p_dir])?;
            let old = acc.read(&l.value)?;
            acc.write(&gp.children[f.gp_dir], sibling)?;
            Ok(Some((old, f.p, f.l)))
        });
        match removed {
            Some((old, p, l)) => {
                self.graveyard.push(p);
                self.graveyard.push(l);
                Some(old)
            }
            None => None,
        }
    }

    /// Looks up a key.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        if key > MAX_KEY {
            return None;
        }
        let tree = &self.tree;
        let root = tree.root;
        tree.tm.execute(&mut self.th, |acc| {
            let f = search(acc, root, key)?;
            let l = unsafe { &*f.l };
            if l.key == key {
                Ok(Some(acc.read(&l.value)?))
            } else {
                Ok(None)
            }
        })
    }
}

impl Drop for HnBstHandle {
    fn drop(&mut self) {
        self.tree
            .graveyard
            .lock()
            .unwrap()
            .append(&mut self.graveyard);
    }
}

impl std::fmt::Debug for HnBstHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HnBstHandle").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use threepath_htm::SplitMix64;

    #[test]
    fn oracle_sequential() {
        let tree = Arc::new(HnBst::new());
        let mut h = tree.handle();
        let mut oracle = BTreeMap::new();
        let mut rng = SplitMix64::new(11);
        for i in 0..3000u64 {
            let k = rng.next_below(200);
            match rng.next_below(3) {
                0 => assert_eq!(h.insert(k, i), oracle.insert(k, i)),
                1 => assert_eq!(h.remove(k), oracle.remove(&k)),
                _ => assert_eq!(h.get(k), oracle.get(&k).copied()),
            }
        }
        drop(h);
        let sum: u128 = oracle.keys().map(|k| *k as u128).sum();
        assert_eq!(tree.key_sum_quiescent(), sum);
    }

    #[test]
    fn oracle_software_only() {
        // hw_attempts = 0: pure NOrec.
        let tree = Arc::new(HnBst::with_config(HnConfig {
            hw_attempts: 0,
            ..HnConfig::default()
        }));
        let mut h = tree.handle();
        let mut oracle = BTreeMap::new();
        let mut rng = SplitMix64::new(13);
        for i in 0..1500u64 {
            let k = rng.next_below(128);
            if rng.next_below(2) == 0 {
                assert_eq!(h.insert(k, i), oracle.insert(k, i));
            } else {
                assert_eq!(h.remove(k), oracle.remove(&k));
            }
        }
    }

    #[test]
    fn concurrent_keysum() {
        use std::sync::atomic::{AtomicI64, Ordering};
        let tree = Arc::new(HnBst::new());
        let delta = Arc::new(AtomicI64::new(0));
        std::thread::scope(|s| {
            for t in 0..4 {
                let tree = tree.clone();
                let delta = delta.clone();
                s.spawn(move || {
                    let mut h = tree.handle();
                    let mut rng = SplitMix64::new(100 + t);
                    let mut local = 0i64;
                    for i in 0..1500u64 {
                        let k = rng.next_below(256);
                        if rng.next_below(2) == 0 {
                            if h.insert(k, i).is_none() {
                                local += k as i64;
                            }
                        } else if h.remove(k).is_some() {
                            local -= k as i64;
                        }
                    }
                    delta.fetch_add(local, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(
            tree.key_sum_quiescent() as i128,
            delta.load(Ordering::Relaxed) as i128
        );
    }
}
