//! The public BST: configuration, handles, and quiescent validation
//! utilities. Each handle operation hands its op (see `crate::ops`) to
//! the execution context, which derives the paths.

use std::sync::Arc;

use threepath_core::scan::ScanState;
use threepath_core::{
    drop_tree, BatchApply, BatchOp, ExecCtx, LockedSection, PathKind, PathStats, TemplateConfig,
};
use threepath_llxscx::{ScxEngine, ScxThread};
use threepath_reclaim::{Domain, PoolStats};

use crate::node::{BstNode, MAX_KEY, SENT1, SENT2};
use crate::ops;
use crate::rq;
use crate::scan;

/// Shape and content summary returned by [`Bst::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    /// Number of user keys.
    pub keys: usize,
    /// Sum of user keys (the paper's key-sum correctness check).
    pub key_sum: u128,
    /// Number of internal nodes (including sentinels).
    pub internal_nodes: usize,
    /// Number of leaves (including sentinels).
    pub leaves: usize,
    /// Maximum leaf depth.
    pub depth_max: usize,
}

/// A concurrent ordered map from `u64` keys to `u64` values, implemented as
/// a lock-free external BST accelerated per the configured [`Strategy`](threepath_core::Strategy).
///
/// Create handles with [`Bst::handle`] (one per thread); all operations go
/// through handles. Keys must be `<= MAX_KEY`.
///
/// [`MAX_KEY`]: crate::MAX_KEY
pub struct Bst {
    exec: ExecCtx,
    eng: ScxEngine,
    root: *mut BstNode,
    /// Whether reads bypass the template's paths (see
    /// [`TemplateConfig::read_path`]).
    read_path: bool,
    /// Whether scans bypass the template's paths (see
    /// [`TemplateConfig::scan_path`]).
    scan_path: bool,
}

// SAFETY: the raw root pointer references a heap structure whose shared
// mutation is mediated entirely by the HTM runtime and LLX/SCX engine.
unsafe impl Send for Bst {}
unsafe impl Sync for Bst {}

impl Bst {
    /// A tree with the default configuration (3-path strategy).
    pub fn new() -> Self {
        Self::with_config(TemplateConfig::default())
    }

    /// A tree with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`TemplateConfig::validate`] rejects `cfg`.
    pub fn with_config(cfg: TemplateConfig) -> Self {
        // Initial tree (Ellen et al.): entry(∞₂) over leaf(∞₁), leaf(∞₂).
        let (exec, eng, root) = cfg.build(|ctx| {
            let l1 = ctx.alloc(BstNode::new_leaf(SENT1, 0));
            let l2 = ctx.alloc(BstNode::new_leaf(SENT2, 0));
            ctx.alloc(BstNode::new_internal(SENT2, l1, l2))
        });
        Bst {
            exec,
            eng,
            root,
            read_path: cfg.read_path,
            scan_path: cfg.scan_path,
        }
    }

    /// The execution context: the HTM runtime, and the strategy, budgets,
    /// indicator, gate and flags the tree was built with; also whether
    /// serialized work (the fallback path or a holder of the fallback
    /// lock) is in progress ([`ExecCtx::serialized_active`]).
    pub fn exec(&self) -> &ExecCtx {
        &self.exec
    }

    /// The reclamation domain (for diagnostics and benchmarks).
    pub fn domain(&self) -> &Arc<Domain> {
        self.eng.domain()
    }

    /// Node-pool counters folded into the domain so far (contexts fold on
    /// drop; read after handles are gone for a complete picture).
    pub fn pool_stats(&self) -> PoolStats {
        self.domain().pool_stats()
    }

    /// Registers the calling thread and returns an operation handle.
    pub fn handle(self: &Arc<Self>) -> BstHandle {
        BstHandle {
            th: self.eng.register_thread(),
            tree: Arc::clone(self),
            stats: PathStats::new(),
            scan_scratch: Box::new(ScanState::new()),
        }
    }

    /// `op` as this tree's operation; panics on an insert key above
    /// [`MAX_KEY`].
    fn op(&self, op: BatchOp) -> ops::Op {
        if let BatchOp::Insert(key, _) = op {
            assert!(key <= MAX_KEY, "key exceeds MAX_KEY");
        }
        ops::Op {
            root: self.root,
            op,
            mark_removed: self.exec.search_outside_txn(),
        }
    }

    // ------------------------------------------------------------------
    // Quiescent inspection (no concurrent operations allowed).
    // ------------------------------------------------------------------

    /// Number of user keys. Quiescent only.
    pub fn len(&self) -> usize {
        self.validate().expect("invalid tree").keys
    }

    /// Whether the tree holds no user keys. Quiescent only.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of all user keys (the paper's key-sum check). Quiescent only.
    pub fn key_sum(&self) -> u128 {
        self.validate().expect("invalid tree").key_sum
    }

    /// All user pairs in ascending key order. Quiescent only.
    pub fn collect(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        // SAFETY: quiescent per contract.
        unsafe { collect_rec(self.root, &mut out) };
        out
    }

    /// Full structural validation: leaf-orientation, search-tree order,
    /// reachability of unmarked nodes only. Quiescent only.
    pub fn validate(&self) -> Result<TreeShape, String> {
        let mut shape = TreeShape {
            keys: 0,
            key_sum: 0,
            internal_nodes: 0,
            leaves: 0,
            depth_max: 0,
        };
        // SAFETY: quiescent per contract.
        unsafe { validate_rec(self.root, 0, u64::MAX, 0, &mut shape)? };
        Ok(shape)
    }
}

impl Default for Bst {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Bst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bst")
            .field("strategy", &self.exec.strategy())
            .field("search_outside_txn", &self.exec.search_outside_txn())
            .finish()
    }
}

impl Drop for Bst {
    fn drop(&mut self) {
        // SAFETY: exclusive access; every node was allocated through the
        // engine's domain.
        unsafe {
            drop_tree(&self.eng, self.root, |node, stack| {
                if !node.is_leaf {
                    stack.extend([node.child_plain(0), node.child_plain(1)]);
                }
            })
        };
    }
}

unsafe fn collect_rec(n: *mut BstNode, out: &mut Vec<(u64, u64)>) {
    let node = unsafe { &*n };
    if node.is_leaf {
        if node.key < SENT1 {
            out.push((node.key, node.value.load_plain()));
        }
    } else {
        unsafe {
            collect_rec(node.child_plain(0), out);
            collect_rec(node.child_plain(1), out);
        }
    }
}

unsafe fn validate_rec(
    n: *mut BstNode,
    lo: u64,
    hi: u64,
    depth: usize,
    shape: &mut TreeShape,
) -> Result<(), String> {
    if n.is_null() {
        return Err("null child reached".into());
    }
    let node = unsafe { &*n };
    if node.hdr.marked().load_plain() != 0 {
        return Err(format!("reachable node (key {}) is marked", node.key));
    }
    if node.is_leaf {
        shape.leaves += 1;
        shape.depth_max = shape.depth_max.max(depth);
        if !(lo <= node.key && node.key <= hi) {
            return Err(format!(
                "leaf key {} outside range [{lo}, {hi}]",
                node.key
            ));
        }
        if node.key < SENT1 {
            shape.keys += 1;
            shape.key_sum += node.key as u128;
        }
        if !node.child_plain(0).is_null() || !node.child_plain(1).is_null() {
            return Err("leaf with children".into());
        }
    } else {
        shape.internal_nodes += 1;
        if !(lo <= node.key && node.key <= hi) {
            return Err(format!(
                "routing key {} outside range [{lo}, {hi}]",
                node.key
            ));
        }
        let (l, r) = (node.child_plain(0), node.child_plain(1));
        if l.is_null() || r.is_null() {
            return Err(format!("internal node (key {}) missing a child", node.key));
        }
        // Left subtree keys < node.key; right subtree keys >= node.key.
        unsafe {
            validate_rec(l, lo, node.key.saturating_sub(1), depth + 1, shape)?;
            validate_rec(r, node.key, hi, depth + 1, shape)?;
        }
    }
    Ok(())
}

/// The [`BatchApply`] view handed to a flat-combining hook: each `apply`
/// runs one more plan inside the serialized section the caller already
/// holds (see [`BstHandle::run_batch_with`]).
struct BstBatchApplier<'s, 'l> {
    tree: &'s Bst,
    section: &'s mut LockedSection<'l>,
}

impl BatchApply for BstBatchApplier<'_, '_> {
    fn apply(&mut self, ops: &[BatchOp]) -> Vec<Option<u64>> {
        let tree = self.tree;
        self.section.apply(ops, |op| tree.op(op))
    }
}

/// A per-thread handle to a [`Bst`].
///
/// Create one per thread with [`Bst::handle`]; operations take `&mut self`
/// (handles are not shared between threads).
pub struct BstHandle {
    tree: Arc<Bst>,
    th: ScxThread,
    stats: PathStats,
    /// Reusable optimistic-scan scratch: every scan clears it, so only
    /// the vector capacities survive — calm scans stop paying the
    /// allocator for their validation set and pairs. Boxed, so growing
    /// the scratch does not grow the handle (whose size shifts the heap
    /// pattern of building a map; see CHANGES.md).
    scan_scratch: Box<ScanState<BstNode>>,
}

impl BstHandle {
    /// The underlying tree.
    pub fn tree(&self) -> &Arc<Bst> {
        &self.tree
    }

    /// Path-usage statistics accumulated by this handle.
    pub fn stats(&self) -> &PathStats {
        &self.stats
    }

    /// Resets this handle's statistics.
    pub fn reset_stats(&mut self) {
        self.stats = PathStats::new();
    }

    /// Inserts or updates `key`, returning the previous value if present.
    ///
    /// # Panics
    ///
    /// Panics if `key > MAX_KEY`.
    ///
    /// [`MAX_KEY`]: crate::MAX_KEY
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        let tree = &self.tree;
        let op = tree.op(BatchOp::Insert(key, value));
        tree.exec
            .run_update(&tree.eng, &mut self.th, &mut self.stats, &op)
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        if key > MAX_KEY {
            return None;
        }
        let tree = &self.tree;
        let op = tree.op(BatchOp::Remove(key));
        tree.exec
            .run_update(&tree.eng, &mut self.th, &mut self.stats, &op)
    }

    /// Applies a coalesced plan of operations in submission order,
    /// returning one reply per operation (the same `Option<u64>` each
    /// would return individually) and the path the batch committed on.
    ///
    /// The whole plan commits in a **single** fast-path transaction or,
    /// after the attempt budget, one serialized section under the
    /// fallback lock — `ceil(N / batch_cap)` transactions for N
    /// operations instead of N. Later operations in the plan observe the
    /// effects of earlier ones. Requires a tree built with
    /// [`TemplateConfig::batched`].
    ///
    /// # Panics
    ///
    /// Panics if the tree was not built with `batched`, or if an insert
    /// key exceeds [`MAX_KEY`](crate::MAX_KEY).
    pub fn run_batch(&mut self, ops: &[BatchOp]) -> (Vec<Option<u64>>, PathKind) {
        self.run_batch_with(ops, |_| {})
    }

    /// Like [`Self::run_batch`], with a flat-combining hook: when the
    /// batch escalates to the serialized section, `combine` runs while
    /// this thread still holds the fallback lock, receiving a
    /// [`BatchApply`] that applies further plans in the same section. A
    /// server uses this to drain other submitters' queued requests
    /// before the lock is released. The hook does **not** run when the
    /// batch commits on the fast path (no lock is held there).
    pub fn run_batch_with(
        &mut self,
        ops: &[BatchOp],
        combine: impl FnOnce(&mut dyn BatchApply),
    ) -> (Vec<Option<u64>>, PathKind) {
        for op in ops {
            if let BatchOp::Insert(key, _) = op {
                assert!(*key <= MAX_KEY, "key exceeds MAX_KEY");
            }
        }
        let tree = &self.tree;
        tree.exec.run_batch(
            &tree.eng,
            &mut self.th,
            &mut self.stats,
            ops,
            |op| tree.op(op),
            |section| combine(&mut BstBatchApplier { tree, section }),
        )
    }

    /// Looks up `key`.
    ///
    /// On the default configuration this is a wait-free uninstrumented
    /// search ([`threepath_core::ExecCtx::run_read`]): zero HTM
    /// transactions, no locks, no fallback escalation — under every
    /// strategy, including TLE (reads never take or wait for the global
    /// lock). Completions land on the
    /// [`PathKind::Read`](threepath_core::PathKind) stats lane.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        if key > MAX_KEY {
            return None;
        }
        self.leaf(key, false).map(|(_, v)| v)
    }

    /// Whether `key` is present.
    pub fn contains(&mut self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// The smallest key and its value, if any.
    ///
    /// Locating the leaf that covers key `0` finds the minimum: user keys
    /// all sit left of the sentinel spine, so the leftmost leaf is real
    /// whenever the tree is non-empty.
    pub fn first(&mut self) -> Option<(u64, u64)> {
        self.leaf(0, true)
    }

    /// The largest key and its value, if any.
    pub fn last(&mut self) -> Option<(u64, u64)> {
        self.leaf(MAX_KEY, true)
    }

    /// Reads the leaf covering `key` (see [`ops::Leaf`]).
    fn leaf(&mut self, key: u64, any: bool) -> Option<(u64, u64)> {
        let tree = &self.tree;
        let op = ops::Leaf {
            root: tree.root,
            key,
            any,
        };
        if tree.read_path {
            tree.exec.run_read(&mut self.th, &mut self.stats, &op)
        } else {
            tree.exec
                .run_query(&tree.eng, &mut self.th, &mut self.stats, &op)
        }
    }

    /// Returns all pairs with keys in `[lo, hi)`, ascending.
    ///
    /// On the default configuration this is an uninstrumented optimistic
    /// scan ([`threepath_core::scan`]): an epoch-pinned traversal with
    /// zero HTM transactions and no locks, under every strategy, whose
    /// followed edges and copied leaves' `ver` words are re-checked as a
    /// whole after the copy-out. A scan that keeps losing races retries
    /// in full, then repairs only the invalidated subranges; if that
    /// loses too, it escalates to the template and runs like any
    /// operation on the fast, middle or fallback path. Completions of the
    /// optimistic rungs land on the
    /// [`PathKind::Read`](threepath_core::PathKind) lane; retries,
    /// validated-leaf counts and escalations land in the [`PathStats`]
    /// scan lane.
    pub fn range_query(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let tree = &self.tree;
        if tree.scan_path {
            if let Some(r) = tree.exec.run_scan(
                &mut self.th,
                &mut self.stats,
                &mut self.scan_scratch,
                &scan::BstScan { entry: tree.root },
                lo,
                hi,
            ) {
                return r;
            }
            // The optimistic attempts kept losing races: escalate to the
            // template's paths.
        }
        let op = rq::Rq {
            root: tree.root,
            lo,
            hi,
        };
        tree.exec
            .run_query(&tree.eng, &mut self.th, &mut self.stats, &op)
    }

    /// The path *most* of this handle's completed operations ran on,
    /// according to its statistics (diagnostic helper for tests). On a
    /// read-heavy handle this is [`PathKind::Read`], the uninstrumented
    /// read lane — reads never appear on the fast/middle/fallback lanes
    /// unless the tree was built with `read_path: false`.
    pub fn last_path_hint(&self) -> Option<PathKind> {
        PathKind::ALL
            .into_iter()
            .max_by_key(|p| self.stats.completed(*p))
    }
}

impl std::fmt::Debug for BstHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BstHandle")
            .field("tree", &self.tree)
            .finish()
    }
}
