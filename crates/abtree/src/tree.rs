//! The public (a,b)-tree: configuration, handles, rebalancing loop, and
//! quiescent validation. Each handle operation hands its op (see
//! `crate::ops`, `crate::fix`, `crate::rq`) to the execution context,
//! which derives the paths.

use std::sync::Arc;

use threepath_core::scan::ScanState;
use threepath_core::{
    drop_tree, BatchApply, BatchOp, ExecCtx, LockedSection, PathKind, PathStats, TemplateConfig,
    DEFAULT_READ_ATTEMPTS,
};
use threepath_llxscx::{ScxEngine, ScxThread};
use threepath_reclaim::{Domain, PoolStats};

use crate::fix;
use crate::node::{AbNode, A, B, MAX_KEY};
use crate::ops::{self, UpdResult};
use crate::readpath;
use crate::rq;
use crate::scan;

/// Shape summary from [`AbTree::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbShape {
    /// Number of keys stored.
    pub keys: usize,
    /// Sum of stored keys.
    pub key_sum: u128,
    /// Leaves reachable.
    pub leaves: usize,
    /// Internal nodes reachable (excluding the entry).
    pub internal_nodes: usize,
    /// Reachable tagged nodes (0 when quiescent and fully rebalanced).
    pub tagged: usize,
    /// Reachable non-root nodes with degree `< a`.
    pub underfull: usize,
    /// Maximum raw leaf depth.
    pub depth_max: usize,
}

/// A concurrent ordered map implemented as a relaxed (a,b)-tree
/// accelerated per the configured [`Strategy`](threepath_core::Strategy).
/// See the crate docs.
pub struct AbTree {
    exec: ExecCtx,
    eng: ScxEngine,
    entry: *mut AbNode,
    /// Whether reads bypass the template's paths (see
    /// [`TemplateConfig::read_path`]).
    read_path: bool,
    /// Whether scans bypass the template's paths (see
    /// [`TemplateConfig::scan_path`]).
    scan_path: bool,
}

// SAFETY: shared mutation of the raw node graph is mediated by the HTM
// runtime and the LLX/SCX engine.
unsafe impl Send for AbTree {}
unsafe impl Sync for AbTree {}

impl AbTree {
    /// A tree with the default configuration (3-path, a=6, b=16).
    pub fn new() -> Self {
        Self::with_config(TemplateConfig::default())
    }

    /// A tree with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if [`TemplateConfig::validate`] rejects `cfg`.
    pub fn with_config(cfg: TemplateConfig) -> Self {
        // Entry node (never deleted) with the initial empty root leaf.
        let (exec, eng, entry) = cfg.build(|ctx| {
            let root = ctx.alloc(AbNode::new_leaf(&[]));
            ctx.alloc(AbNode::new_internal(&[], &[root as u64], false))
        });
        AbTree {
            exec,
            eng,
            entry,
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

    /// The reclamation domain.
    pub fn domain(&self) -> &Arc<Domain> {
        self.eng.domain()
    }

    /// Node-pool counters folded into the domain so far (contexts fold on
    /// drop; read after handles are gone for a complete picture).
    pub fn pool_stats(&self) -> PoolStats {
        self.domain().pool_stats()
    }

    /// `(pooled block size, node size)` for this tree's nodes, or `None`
    /// when pooling is off. The difference is the per-node internal
    /// fragmentation; the dedicated (a,b)-tree size class registered at
    /// construction keeps it under one cache line.
    pub fn node_block_size(&self) -> Option<(usize, usize)> {
        self.domain()
            .block_size_of::<AbNode>()
            .map(|b| (b, std::mem::size_of::<AbNode>()))
    }

    /// Registers the calling thread and returns an operation handle.
    pub fn handle(self: &Arc<Self>) -> AbTreeHandle {
        AbTreeHandle {
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
            entry: self.entry,
            a: A,
            op,
        }
    }

    /// Builds a tree from strictly ascending `(key, value)` pairs in
    /// O(n), producing full-ish nodes (degree between `a` and `b`) — the
    /// standard bulk-loading construction for B-tree-like structures.
    ///
    /// # Panics
    ///
    /// Panics if keys are not strictly ascending or exceed
    /// [`MAX_KEY`](crate::MAX_KEY).
    pub fn bulk_load(items: &[(u64, u64)], cfg: TemplateConfig) -> Self {
        for w in items.windows(2) {
            assert!(w[0].0 < w[1].0, "bulk_load requires strictly ascending keys");
        }
        if let Some(last) = items.last() {
            assert!(last.0 <= MAX_KEY, "key exceeds MAX_KEY");
        }
        let tree = Self::with_config(cfg);
        if items.is_empty() {
            return tree;
        }
        // Aim for comfortably-full nodes with slack for later updates.
        let target = (A + B) / 2;
        // Bulk nodes go through the tree's allocation seam too (pooled
        // when the domain pools).
        let ctx = Domain::register(tree.domain());

        // Leaf level: (subtree min key, node pointer).
        let mut level: Vec<(u64, u64)> = chunk_sizes(items.len(), target, A)
            .into_iter()
            .scan(0usize, |off, sz| {
                let chunk = &items[*off..*off + sz];
                *off += sz;
                let node = ctx.alloc(AbNode::new_leaf(chunk));
                Some((chunk[0].0, node as u64))
            })
            .collect();

        // Internal levels.
        while level.len() > 1 {
            let mut next = Vec::new();
            let mut off = 0usize;
            for sz in chunk_sizes(level.len(), target, A) {
                let group = &level[off..off + sz];
                off += sz;
                let keys: Vec<u64> = group[1..].iter().map(|(k, _)| *k).collect();
                let children: Vec<u64> = group.iter().map(|(_, p)| *p).collect();
                let node = ctx.alloc(AbNode::new_internal(&keys, &children, false));
                next.push((group[0].0, node as u64));
            }
            level = next;
        }

        // Swap the new root in for the placeholder empty leaf.
        // SAFETY: the tree is private (not yet shared), so the
        // placeholder is provably unpublished once unlinked here.
        unsafe {
            let entry = &*tree.entry;
            let placeholder = entry.ptr_plain(0) as *mut AbNode;
            entry.ptr_cell(0).store_plain(level[0].1);
            ctx.dealloc_unpublished(placeholder);
        }
        tree
    }

    // ------------------------------------------------------------------
    // Quiescent inspection.
    // ------------------------------------------------------------------

    /// Number of keys. Quiescent only.
    pub fn len(&self) -> usize {
        self.validate().expect("invalid tree").keys
    }

    /// Whether the tree is empty. Quiescent only.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of keys. Quiescent only.
    pub fn key_sum(&self) -> u128 {
        self.validate().expect("invalid tree").key_sum
    }

    /// All pairs in ascending key order. Quiescent only.
    pub fn collect(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.visit(|n| {
            if n.leaf {
                out.extend((0..n.size_plain()).map(|i| (n.key_plain(i), n.ptr_plain(i))));
            }
        });
        out
    }

    /// Each reachable internal node's address and routing keys (one fewer
    /// than its degree), in key order. Quiescent only. A published
    /// internal node's keys never change, so an address keeps its keys for
    /// as long as it stays reachable.
    pub fn routing_keys(&self) -> Vec<(usize, Vec<u64>)> {
        let mut out = Vec::new();
        self.visit(|n| {
            if !n.leaf {
                let keys = (0..n.size_plain() - 1).map(|i| n.key_plain(i));
                out.push((n as *const AbNode as usize, keys.collect()));
            }
        });
        out
    }

    /// Visits the reachable nodes depth-first, children left to right.
    /// Quiescent only.
    fn visit(&self, mut f: impl FnMut(&AbNode)) {
        let mut stack = vec![unsafe { &*self.entry }.ptr_plain(0)];
        while let Some(p) = stack.pop() {
            // SAFETY: quiescent per contract.
            let n = unsafe { &*(p as *const AbNode) };
            f(n);
            if !n.leaf {
                stack.extend((0..n.size_plain()).rev().map(|i| n.ptr_plain(i)));
            }
        }
    }

    /// Structural validation: ordering against routing keys, arity bounds,
    /// uniform *weighted* leaf depth (tagged nodes add no height — the
    /// relaxed balance invariant), plus violation counts. Quiescent only.
    pub fn validate(&self) -> Result<AbShape, String> {
        let mut shape = AbShape {
            keys: 0,
            key_sum: 0,
            leaves: 0,
            internal_nodes: 0,
            tagged: 0,
            underfull: 0,
            depth_max: 0,
        };
        let root = unsafe { &*self.entry }.ptr_plain(0) as *mut AbNode;
        let mut leaf_wdepth: Option<usize> = None;
        // SAFETY: quiescent per contract.
        unsafe { validate_rec(root, None, None, 0, 1, true, &mut shape, &mut leaf_wdepth)? };
        Ok(shape)
    }
}

impl Default for AbTree {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for AbTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbTree")
            .field("strategy", &self.exec.strategy())
            .field("a", &A)
            .field("b", &B)
            .finish()
    }
}

impl Drop for AbTree {
    fn drop(&mut self) {
        // SAFETY: exclusive access; every node was allocated through the
        // engine's domain. The entry node is an internal node whose one
        // child is the root.
        unsafe {
            drop_tree(&self.eng, self.entry, |node, stack| {
                if !node.leaf {
                    stack.extend((0..node.size_plain()).map(|i| node.ptr_plain(i) as *mut AbNode));
                }
            })
        };
    }
}

/// Splits `n` items into chunks of roughly `target`, each at least `min`
/// (assuming `n >= 1`; a single short chunk is allowed only when
/// `n < min`, which for this tree means "root only" and is legal).
fn chunk_sizes(n: usize, target: usize, min: usize) -> Vec<usize> {
    debug_assert!(target >= min);
    let mut sizes = Vec::new();
    let mut remaining = n;
    while remaining > 0 {
        let take = if remaining >= target + min || remaining <= target {
            target.min(remaining)
        } else {
            // Splitting the tail evenly avoids a final undersized chunk.
            remaining / 2
        };
        sizes.push(take);
        remaining -= take;
    }
    debug_assert_eq!(sizes.iter().sum::<usize>(), n);
    sizes
}

#[allow(clippy::too_many_arguments)]
unsafe fn validate_rec(
    n: *mut AbNode,
    lo: Option<u64>,
    hi: Option<u64>,
    depth: usize,
    wdepth: usize,
    is_root: bool,
    shape: &mut AbShape,
    leaf_wdepth: &mut Option<usize>,
) -> Result<(), String> {
    if n.is_null() {
        return Err("null child".into());
    }
    let node = unsafe { &*n };
    if node.hdr.marked().load_plain() != 0 {
        return Err("reachable node is marked".into());
    }
    let size = node.size_plain();
    if size > B {
        return Err(format!("node degree {size} exceeds b = {B}"));
    }
    if node.tagged {
        shape.tagged += 1;
        if node.leaf {
            return Err("tagged leaf".into());
        }
    }
    if !is_root && size < A {
        shape.underfull += 1;
    }
    let in_range = |k: u64| lo.is_none_or(|l| k >= l) && hi.is_none_or(|h| k < h);
    if node.leaf {
        shape.leaves += 1;
        shape.depth_max = shape.depth_max.max(depth);
        match leaf_wdepth {
            None => *leaf_wdepth = Some(wdepth),
            Some(d) => {
                if *d != wdepth {
                    return Err(format!(
                        "weighted leaf depth mismatch: {wdepth} vs {d}"
                    ));
                }
            }
        }
        let mut prev: Option<u64> = None;
        for i in 0..size {
            let k = node.key_plain(i);
            if !in_range(k) {
                return Err(format!("leaf key {k} out of range"));
            }
            if let Some(p) = prev {
                if k <= p {
                    return Err("leaf keys not strictly ascending".into());
                }
            }
            prev = Some(k);
            shape.keys += 1;
            shape.key_sum += k as u128;
        }
    } else {
        shape.internal_nodes += 1;
        if size == 0 {
            return Err("internal node with zero children".into());
        }
        let mut prev: Option<u64> = None;
        for i in 0..size - 1 {
            let k = node.key_plain(i);
            if !in_range(k) {
                return Err(format!("routing key {k} out of range"));
            }
            if let Some(p) = prev {
                if k <= p {
                    return Err("routing keys not strictly ascending".into());
                }
            }
            prev = Some(k);
        }
        for i in 0..size {
            let child = node.ptr_plain(i) as *mut AbNode;
            let clo = if i == 0 { lo } else { Some(node.key_plain(i - 1)) };
            let chi = if i == size - 1 {
                hi
            } else {
                Some(node.key_plain(i))
            };
            let ctagged = unsafe { &*child }.tagged;
            unsafe {
                validate_rec(
                    child,
                    clo,
                    chi,
                    depth + 1,
                    wdepth + usize::from(!ctagged),
                    false,
                    shape,
                    leaf_wdepth,
                )?
            };
        }
    }
    Ok(())
}

/// The [`BatchApply`] view handed to a flat-combining hook: each `apply`
/// runs one more plan inside the serialized section the caller already
/// holds (see [`AbTreeHandle::run_batch_with`]). Rebalancing keys are
/// collected and repaired by the combining handle after the section ends.
struct AbBatchApplier<'s, 'l> {
    tree: &'s AbTree,
    section: &'s mut LockedSection<'l>,
    fixes: &'s mut Vec<u64>,
}

impl BatchApply for AbBatchApplier<'_, '_> {
    fn apply(&mut self, ops: &[BatchOp]) -> Vec<Option<u64>> {
        let tree = self.tree;
        let out = self.section.apply(ops, |op| tree.op(op));
        replies(ops, out, self.fixes)
    }
}

/// The replies of a batch's steps, in plan order; the keys whose paths
/// need rebalancing go to `fixes`.
fn replies(ops: &[BatchOp], out: Vec<UpdResult>, fixes: &mut Vec<u64>) -> Vec<Option<u64>> {
    ops.iter()
        .zip(out)
        .map(|(op, (prev, fix))| {
            if fix {
                fixes.push(op.key());
            }
            prev
        })
        .collect()
}

/// A per-thread handle to an [`AbTree`].
pub struct AbTreeHandle {
    tree: Arc<AbTree>,
    th: ScxThread,
    stats: PathStats,
    /// Reusable optimistic-scan scratch: every scan clears it, so only
    /// the vector capacities survive — calm scans stop paying the
    /// allocator for their validation set and pairs. Boxed, so growing
    /// the scratch does not grow the handle (whose size shifts the heap
    /// pattern of building a map; see CHANGES.md).
    scan_scratch: Box<ScanState<AbNode>>,
}

impl AbTreeHandle {
    /// The underlying tree.
    pub fn tree(&self) -> &Arc<AbTree> {
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

    /// Inserts or updates `key`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `key > MAX_KEY`.
    ///
    /// [`MAX_KEY`]: crate::MAX_KEY
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        self.update(BatchOp::Insert(key, value))
    }

    /// Removes `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        if key > MAX_KEY {
            return None;
        }
        self.update(BatchOp::Remove(key))
    }

    /// Runs one update, then repairs the violation it left, if any.
    fn update(&mut self, op: BatchOp) -> Option<u64> {
        let tree = &self.tree;
        let (prev, fix) =
            tree.exec
                .run_update(&tree.eng, &mut self.th, &mut self.stats, &tree.op(op));
        if fix {
            self.fix_to_key(op.key());
        }
        prev
    }

    /// Applies a coalesced plan of operations in submission order,
    /// returning one reply per operation (the same `Option<u64>` each
    /// would return individually) and the path the batch committed on.
    ///
    /// The whole plan commits in a **single** fast-path transaction or,
    /// after the attempt budget, one serialized section under the
    /// fallback lock. Later operations in the plan observe the effects
    /// of earlier ones. Rebalancing (tag/underfull repair) runs after
    /// the batch commits, exactly as it does after single updates.
    /// Requires a tree built with [`TemplateConfig::batched`].
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
    /// [`BatchApply`] that applies further plans in the same section.
    /// The hook does **not** run when the batch commits on the fast path
    /// (no lock is held there). Rebalancing for combined plans runs on
    /// this handle after the section ends.
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
        let mut fixes = Vec::new();
        let mut combined_fixes = Vec::new();
        let (out, path) = tree.exec.run_batch(
            &mut self.th,
            &mut self.stats,
            ops,
            |op| tree.op(op),
            |section| {
                combine(&mut AbBatchApplier {
                    tree,
                    section,
                    fixes: &mut combined_fixes,
                })
            },
        );
        let out = replies(ops, out, &mut fixes);
        for key in fixes.into_iter().chain(combined_fixes) {
            self.fix_to_key(key);
        }
        (out, path)
    }

    /// Looks up `key`.
    ///
    /// On the default configuration this is an uninstrumented optimistic
    /// read: zero HTM transactions and no locks in the steady state, under
    /// every strategy including TLE. Leaves are seqlock-validated (they
    /// mutate in place); a read that keeps losing validation races
    /// escalates to the transactional machinery after
    /// [`threepath_core::DEFAULT_READ_ATTEMPTS`] attempts. Completions
    /// land on the [`PathKind::Read`](threepath_core::PathKind) lane,
    /// validation failures and escalations in
    /// [`PathStats::read_retries`]/[`PathStats::read_escalations`].
    pub fn get(&mut self, key: u64) -> Option<u64> {
        if key > MAX_KEY {
            return None;
        }
        let tree = &self.tree;
        if tree.read_path {
            let rt = tree.exec.runtime();
            if let Some(r) = tree.exec.run_read_validated(
                &mut self.th,
                &mut self.stats,
                DEFAULT_READ_ATTEMPTS,
                |_th| readpath::get_optimistic(rt, tree.entry, key, &mut || {}),
            ) {
                return r;
            }
            // The optimistic attempts kept losing races: escalate to the
            // template's paths.
        }
        let op = ops::Get {
            entry: tree.entry,
            key,
        };
        tree.exec
            .run_query(&tree.eng, &mut self.th, &mut self.stats, &op)
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
                &scan::AbScan { entry: tree.entry },
                lo,
                hi,
            ) {
                return r;
            }
            // The optimistic attempts kept losing races: escalate to the
            // template's paths.
        }
        let op = rq::Rq {
            entry: tree.entry,
            lo,
            hi,
        };
        tree.exec
            .run_query(&tree.eng, &mut self.th, &mut self.stats, &op)
    }

    /// Whether `key` is present.
    pub fn contains(&mut self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// The smallest key and its value, if any.
    pub fn first(&mut self) -> Option<(u64, u64)> {
        self.extreme(false)
    }

    /// The largest key and its value, if any.
    pub fn last(&mut self) -> Option<(u64, u64)> {
        self.extreme(true)
    }

    fn extreme(&mut self, last: bool) -> Option<(u64, u64)> {
        let tree = &self.tree;
        if tree.read_path {
            let rt = tree.exec.runtime();
            if let Some(r) = tree.exec.run_read_validated(
                &mut self.th,
                &mut self.stats,
                DEFAULT_READ_ATTEMPTS,
                |_th| readpath::extreme_optimistic(rt, tree.entry, last, &mut || {}),
            ) {
                return r;
            }
            // The optimistic attempts kept losing races: escalate to the
            // template's paths.
        }
        let op = rq::Extreme {
            entry: tree.entry,
            last,
        };
        tree.exec
            .run_query(&tree.eng, &mut self.th, &mut self.stats, &op)
    }

    /// Repairs every violation on `key`'s path (called automatically after
    /// updates that create one; public for tests and tooling).
    pub fn fix_to_key(&mut self, key: u64) {
        let tree = &self.tree;
        let op = fix::Fix {
            entry: tree.entry,
            a: A,
            key,
            mark_removed: tree.exec.search_outside_txn(),
        };
        // Each step repairs one violation; stop when none is left.
        while tree
            .exec
            .run_update(&tree.eng, &mut self.th, &mut self.stats, &op)
        {}
    }
}

impl std::fmt::Debug for AbTreeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbTreeHandle")
            .field("tree", &self.tree)
            .finish()
    }
}
