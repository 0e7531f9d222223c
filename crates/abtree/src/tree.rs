//! The public (a,b)-tree: configuration, handles, rebalancing loop, and
//! quiescent validation. Each handle operation hands its op (see
//! `crate::ops`, `crate::fix`, `crate::rq`) to the execution context,
//! which derives the paths.

use std::sync::Arc;

use threepath_core::scan::ScanState;
use threepath_core::{
    BatchApply, BatchOp, ExecCtx, LockedSection, PathKind, PathLimits, PathStats, Strategy,
    DEFAULT_READ_ATTEMPTS,
};
use threepath_htm::{HtmConfig, HtmRuntime};
use threepath_llxscx::{ScxEngine, ScxThread};
use threepath_reclaim::{Domain, PoolConfig, PoolStats, ReclaimMode};

use crate::fix;
use crate::node::{AbNode, B, MAX_KEY};
use crate::ops::{self, UpdResult};
use crate::readpath;
use crate::rq;
use crate::scan;

/// Configuration for an [`AbTree`].
#[derive(Debug, Clone)]
pub struct AbTreeConfig {
    /// Execution-path strategy.
    pub strategy: Strategy,
    /// Simulated-HTM parameters.
    pub htm: HtmConfig,
    /// Attempt budgets; defaults to the paper's per-strategy values.
    pub limits: Option<PathLimits>,
    /// Memory-reclamation mode.
    pub reclaim: ReclaimMode,
    /// Minimum degree `a` (the paper fixes `a = 6`, `b = 16`; `b` is the
    /// compile-time [`B`]). Must satisfy `2 <= a` and `b >= 2a - 1`.
    pub a: usize,
    /// Section 8: search phase outside the transaction.
    pub search_outside_txn: bool,
    /// Use a SNZI instead of the fetch-and-increment counter `F`
    /// (Section 5's scalability alternative).
    pub snzi: bool,
    /// Allocate nodes from per-thread pools and recycle them on expiry
    /// instead of going through the global allocator (see
    /// [`threepath_reclaim::NodePool`]). On by default.
    pub pool: bool,
    /// Route `get`/`contains`/`first`/`last` through the uninstrumented
    /// read path: an epoch-pinned direct traversal with zero transactions
    /// or locks. Because (a,b)-tree leaves are mutated in place, each leaf
    /// read is seqlock-validated against the node's version word and the
    /// search retries on a lost race, escalating to the transactional
    /// machinery only after
    /// [`threepath_core::DEFAULT_READ_ATTEMPTS`] failures. On by
    /// default; off routes reads through the template's paths
    /// ([`threepath_core::ExecCtx::run_query`]; the baseline the
    /// read-heavy benchmarks compare against).
    pub read_path: bool,
    /// Route `range_query` through the uninstrumented scan path: an
    /// epoch-pinned multi-leaf traversal that accumulates a validation
    /// set (followed edges + per-leaf version words) and re-validates it
    /// as a whole (see `crate::scan`). Lost races retry; after
    /// [`threepath_core::DEFAULT_READ_ATTEMPTS`] failures a partial
    /// rescan re-reads only the invalidated subranges, and only if that
    /// also fails does the scan escalate to the transactional machinery.
    /// On by default; off routes scans through the template's paths (the
    /// baseline the scan benchmarks compare against).
    pub scan_path: bool,
    /// HTM admission control on the fallback path: at most this many
    /// threads may attempt hardware transactions while the fallback is
    /// active (TLE lock held / `F != 0`); overflow threads park on a
    /// ready lane and take the fallback directly — see
    /// [`threepath_core::AdmissionGate`]. `None` (the default) admits
    /// everyone.
    pub admission: Option<u32>,
    /// Enable the batch entry point ([`AbTreeHandle::run_batch`]):
    /// coalesced operation plans commit in a single fast-path transaction
    /// or one serialized section. Requires a TLE or 3-path strategy and
    /// puts every transaction on the blended subscription discipline.
    pub batched: bool,
}

impl Default for AbTreeConfig {
    fn default() -> Self {
        AbTreeConfig {
            strategy: Strategy::ThreePath,
            htm: HtmConfig::default(),
            limits: None,
            reclaim: ReclaimMode::Epoch,
            a: 6,
            search_outside_txn: false,
            snzi: false,
            pool: true,
            read_path: true,
            scan_path: true,
            admission: None,
            batched: false,
        }
    }
}

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
/// accelerated per the configured [`Strategy`]. See the crate docs.
pub struct AbTree {
    exec: ExecCtx,
    eng: ScxEngine,
    entry: *mut AbNode,
    a: usize,
    /// Whether nodes live in pool chunks (owned by the domain) rather
    /// than individual `Box` allocations — decides how `Drop` frees the
    /// node graph.
    pooled: bool,
    /// Whether reads bypass the template's paths (see
    /// [`AbTreeConfig::read_path`]).
    read_path: bool,
    /// Whether scans bypass the template's paths (see
    /// [`AbTreeConfig::scan_path`]).
    scan_path: bool,
}

// SAFETY: shared mutation of the raw node graph is mediated by the HTM
// runtime and the LLX/SCX engine.
unsafe impl Send for AbTree {}
unsafe impl Sync for AbTree {}

impl AbTree {
    /// A tree with the default configuration (3-path, a=6, b=16).
    pub fn new() -> Self {
        Self::with_config(AbTreeConfig::default())
    }

    /// A tree with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= a` and `B >= 2a - 1`.
    pub fn with_config(cfg: AbTreeConfig) -> Self {
        assert!(cfg.a >= 2 && B >= 2 * cfg.a - 1, "invalid (a, b) pair");
        let rt = Arc::new(HtmRuntime::new(cfg.htm.clone()));
        // Fat-node structure: register an exact-fit size class so nodes
        // are guaranteed under one cache line of internal fragmentation
        // regardless of how the node layout evolves (today the standard
        // table's 320 B class already fits `AbNode` exactly; the
        // registration pins that property rather than changing it —
        // per-structure class tables, ROADMAP PR 4 follow-up).
        let pool_cfg = if cfg.pool {
            PoolConfig::default().with_class_of::<AbNode>()
        } else {
            PoolConfig::disabled()
        };
        let domain = Arc::new(Domain::with_pool(cfg.reclaim, pool_cfg));
        let pooled = domain.class_of::<AbNode>().is_some();
        let eng = ScxEngine::new(rt.clone(), domain.clone());
        let mut exec = ExecCtx::new(rt, cfg.strategy);
        if let Some(l) = cfg.limits {
            exec = exec.with_limits(l);
        }
        if cfg.snzi {
            exec = exec.with_snzi();
        }
        if let Some(cap) = cfg.admission {
            exec = exec.with_admission(cap);
        }
        if cfg.batched {
            exec = exec.with_batching();
        }
        if cfg.search_outside_txn {
            exec = exec.with_search_outside_txn();
        }
        // Entry node (never deleted) with the initial empty root leaf,
        // allocated through a short-lived context so they come from the
        // pool too (uniform ownership for `Drop`).
        let entry = {
            let ctx = Domain::register(&domain);
            let root = ctx.alloc(AbNode::new_leaf(&[]));
            ctx.alloc(AbNode::new_internal(&[], &[root as u64], false))
        };
        AbTree {
            exec,
            eng,
            entry,
            a: cfg.a,
            pooled,
            read_path: cfg.read_path,
            scan_path: cfg.scan_path,
        }
    }

    /// The execution strategy.
    pub fn strategy(&self) -> Strategy {
        self.exec.strategy()
    }

    /// The minimum degree `a`.
    pub fn min_degree(&self) -> usize {
        self.a
    }

    /// Whether the batch entry point ([`AbTreeHandle::run_batch`]) is
    /// enabled (see [`AbTreeConfig::batched`]).
    pub fn is_batched(&self) -> bool {
        self.exec.is_batched()
    }

    /// Whether serialized work (the fallback path or a holder of the
    /// fallback lock) is in progress on this tree right now — see
    /// [`threepath_core::ExecCtx::serialized_active`].
    pub fn serialized_active(&self) -> bool {
        self.exec.serialized_active()
    }

    /// The underlying HTM runtime.
    pub fn runtime(&self) -> &Arc<HtmRuntime> {
        self.exec.runtime()
    }

    /// The reclamation domain.
    pub fn domain(&self) -> &Arc<Domain> {
        self.eng.domain()
    }

    /// The attempt budgets in effect (a fixed override, or the paper
    /// defaults).
    pub fn limits(&self) -> PathLimits {
        self.exec.limits()
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
            a: self.a,
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
    pub fn bulk_load(items: &[(u64, u64)], cfg: AbTreeConfig) -> Self {
        for w in items.windows(2) {
            assert!(w[0].0 < w[1].0, "bulk_load requires strictly ascending keys");
        }
        if let Some(last) = items.last() {
            assert!(last.0 <= MAX_KEY, "key exceeds MAX_KEY");
        }
        let a = cfg.a;
        let tree = Self::with_config(cfg);
        if items.is_empty() {
            return tree;
        }
        // Aim for comfortably-full nodes with slack for later updates.
        let target = (a + B) / 2;
        // Bulk nodes go through the tree's allocation seam too (pooled
        // when the domain pools).
        let ctx = Domain::register(tree.domain());

        // Leaf level: (subtree min key, node pointer).
        let mut level: Vec<(u64, u64)> = chunk_sizes(items.len(), target, a)
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
            for sz in chunk_sizes(level.len(), target, a) {
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
        let root = unsafe { &*self.entry }.ptr_plain(0) as *mut AbNode;
        // SAFETY: quiescent per contract.
        unsafe { collect_rec(root, &mut out) };
        out
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
        unsafe {
            validate_rec(
                root,
                None,
                None,
                0,
                1,
                true,
                self.a,
                &mut shape,
                &mut leaf_wdepth,
            )?
        };
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
            .field("strategy", &self.strategy())
            .field("a", &self.a)
            .field("b", &B)
            .finish()
    }
}

impl Drop for AbTree {
    fn drop(&mut self) {
        // Nodes are plain data (no drop glue — asserted below), so a
        // pooled tree walks its nodes only to release the SCX-records
        // their `info` fields still hold, and only if the software path
        // ever created one. The blocks' memory belongs to arena chunks
        // the domain releases when it drops, after the limbo bags (where
        // the released records then wait too).
        const { assert!(!std::mem::needs_drop::<AbNode>()) };
        let release = self.eng.ran_scx_orig();
        if self.pooled && !release {
            return;
        }
        let rt = self.eng.runtime();
        let ctx = Domain::register(self.domain());
        // The entry node is an internal node whose one child is the root.
        let mut stack = vec![self.entry];
        while let Some(n) = stack.pop() {
            // SAFETY: exclusive access. Every reachable node is live and
            // still holds its install reference; retired nodes released
            // theirs when retired and sit in limbo bags, never reachable,
            // so nothing is released or freed twice.
            let node = unsafe { &*n };
            if !node.leaf {
                stack.extend((0..node.size_plain()).map(|i| node.ptr_plain(i) as *mut AbNode));
            }
            if release {
                unsafe { node.hdr.release_install(rt, &ctx) };
            }
            if !self.pooled {
                drop(unsafe { Box::from_raw(n) });
            }
        }
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

unsafe fn collect_rec(n: *mut AbNode, out: &mut Vec<(u64, u64)>) {
    let node = unsafe { &*n };
    if node.leaf {
        for i in 0..node.size_plain() {
            out.push((node.key_plain(i), node.ptr_plain(i)));
        }
    } else {
        for i in 0..node.size_plain() {
            unsafe { collect_rec(node.ptr_plain(i) as *mut AbNode, out) };
        }
    }
}

#[allow(clippy::too_many_arguments)]
unsafe fn validate_rec(
    n: *mut AbNode,
    lo: Option<u64>,
    hi: Option<u64>,
    depth: usize,
    wdepth: usize,
    is_root: bool,
    a: usize,
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
    if !is_root && size < a {
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
                    a,
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
    /// Requires a tree built with [`AbTreeConfig::batched`].
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
            &tree.eng,
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
            a: tree.a,
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
