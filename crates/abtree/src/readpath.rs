//! The uninstrumented optimistic read path.
//!
//! Unlike the BST — whose leaves are immutable, making a raw traversal
//! linearizable with no validation at all — the (a,b)-tree's *leaves* are
//! mutated **in place** by the fast and TLE paths (sorted-insert shifts,
//! deletion shifts, overflow splices). A wait-free reader therefore
//! validates with a seqlock ([`AbNode::ver_cell`], logically extending
//! the LLX header: `hdr.info` versions node replacement, `ver` versions
//! in-place mutation):
//!
//! 1. descend, recording every `(child cell, pointer)` edge followed (a
//!    direct load) and routing on the node's immutable keys (plain loads);
//! 2. snapshot the leaf's `ver` (retry if odd — a direct-mode TLE
//!    mutation is mid-flight), read the leaf's `size`/`keys`/`values`
//!    cells with relaxed loads, acquire-fence, re-read `ver`;
//! 3. re-validate **everything** — every recorded edge and the `ver`
//!    snapshot — and retry the whole search on any change.
//!
//! Step 3 is what makes the result linearizable. Each recorded value can
//! never recur once changed (child pointers are fresh allocations and the
//! reader's epoch pin blocks address recycling; `ver` is monotone), so a
//! value that matches at its re-check held *throughout* the interval
//! between its original read and the re-check. All those intervals
//! overlap (every original read precedes every re-check), so there is an
//! instant `T` at which every edge and the leaf version held
//! simultaneously: at `T` the recorded path is the live path from the
//! entry — internal keys and sizes are immutable, so routing decisions
//! depend only on the validated edges — the leaf is the live covering
//! leaf, and (`ver` unchanged since before the content reads) the view is
//! its live content. The answer is correct at `T`. Without the edge
//! re-validation a reader that loaded a parent pointer just before an
//! in-place *split* committed, but snapshotted `ver` just after, would
//! pass the seqlock check on the truncated left half and miss a
//! continuously-present key that moved to the new sibling.
//!
//! A leaf that is *replaced* (rather than mutated) during the read needs
//! no special handling: replacement swings the live parent's pointer, so
//! either the reader's edge re-check fails, or the reader ran entirely
//! before the swing. Internal nodes are never mutated in place at all.
//!
//! **Routing keys are plain loads**, here as on every other descent:
//! [`AbNode::route`] states why an internal node's `size` and keys need
//! neither tracking nor re-validation. Each key is read once, as
//! [`leaf_view_optimistic`] already reads leaf contents.
//!
//! **Prefetch.** After loading a child edge the descent issues
//! [`AbNode::prefetch`] for the child — its cache lines and the line-table
//! words of its direct loads — so those misses overlap rather than being
//! discovered one dependent load at a time. It is a hint with no effect
//! on what any load returns.
//!
//! Validation only ever fails while an in-place mutation races the
//! traversal, so retries are bounded in practice; after
//! [`threepath_core::DEFAULT_READ_ATTEMPTS`] failures the caller
//! escalates to the transactional machinery (`run_query`), whose paths do
//! not rely on optimistic validation.

use std::sync::atomic::{fence, Ordering};

use threepath_htm::{HtmRuntime, TxCell};

use crate::node::{AbNode, NodeView, B};

/// Bound on recorded `(cell, value)` pairs per optimistic attempt: the
/// descent depth plus the leaf version for a lookup, plus the visited
/// empty-leaf fringe for an extremum walk. Overflowing the bound fails
/// the attempt (the caller retries or escalates); it never compromises
/// validation.
const MAX_TRACE: usize = 48;

/// The validation set of one optimistic attempt: every `(cell, value)`
/// the traversal's answer depends on.
struct Trace {
    cells: [(*const TxCell, u64); MAX_TRACE],
    len: usize,
}

impl Trace {
    fn new() -> Self {
        Trace {
            cells: [(std::ptr::null(), 0); MAX_TRACE],
            len: 0,
        }
    }

    /// Records a dependency; `false` when the trace is full (fail the
    /// attempt, never skip validation).
    #[must_use]
    fn push(&mut self, cell: &TxCell, value: u64) -> bool {
        if self.len == MAX_TRACE {
            return false;
        }
        self.cells[self.len] = (cell as *const TxCell, value);
        self.len += 1;
        true
    }

    /// Whether every recorded cell still holds its recorded value.
    fn revalidate(&self, rt: &HtmRuntime) -> bool {
        self.cells[..self.len].iter().all(|&(cell, value)| {
            // SAFETY: recorded cells belong to nodes reached under the
            // caller's epoch pin, still held.
            unsafe { &*cell }.load_direct(rt) == value
        })
    }
}

/// One optimistic seqlock read of leaf `l`'s logical content, returning
/// the view and the version snapshot it was validated against. `None`
/// when validation failed (an in-place mutation raced the read).
///
/// `stall` is a test hook injected between the version snapshot and the
/// content reads (production callers pass a no-op); the torn-read
/// detector below uses it to force a mutation into exactly the window
/// the seqlock must protect.
pub(crate) fn leaf_view_optimistic(
    rt: &HtmRuntime,
    l: &AbNode,
    stall: &mut dyn FnMut(),
) -> Option<(NodeView, u64)> {
    debug_assert!(l.leaf, "only leaves are mutated in place");
    let v1 = l.ver_cell().load_direct(rt);
    if v1 & 1 == 1 {
        // A direct-mode (TLE under-lock) mutation is mid-flight.
        return None;
    }
    stall();
    // Relaxed loads: each cell is an atomic word (no torn single cells);
    // cross-cell consistency comes from the version re-check. The size
    // guard keeps a racing view in bounds before validation rejects it.
    let size = l.size_cell().load_plain() as usize;
    if size > B {
        return None;
    }
    let mut view = NodeView {
        keys: [0; B],
        ptrs: [0; B],
        size,
    };
    for i in 0..size {
        view.keys[i] = l.key_cell(i).load_plain();
        view.ptrs[i] = l.ptr_cell(i).load_plain();
    }
    // The fence orders the relaxed content loads before the re-read; a
    // content load that observed any store of an in-flight mutation
    // forces this load to observe that mutation's version bump too.
    fence(Ordering::Acquire);
    if l.ver_cell().load_direct(rt) != v1 {
        return None;
    }
    Some((view, v1))
}

/// One optimistic lookup attempt: tracked direct search to the covering
/// leaf, seqlock-validated leaf read, full-path re-validation. `None` =
/// validation failed, retry. Requires the caller's epoch pin.
pub(crate) fn get_optimistic(
    rt: &HtmRuntime,
    entry: *mut AbNode,
    key: u64,
    stall: &mut dyn FnMut(),
) -> Option<Option<u64>> {
    let mut trace = Trace::new();
    // SAFETY (here and below): nodes are reached through published
    // pointers under the caller's epoch pin.
    let root_cell = unsafe { &*entry }.ptr_cell(0);
    let mut cur = root_cell.load_direct(rt) as *mut AbNode;
    if !trace.push(root_cell, cur as u64) {
        return None;
    }
    while !unsafe { &*cur }.leaf {
        let n = unsafe { &*cur };
        let cell = n.ptr_cell(n.route(key));
        let child = cell.load_direct(rt) as *mut AbNode;
        // Issue all of the child's misses at once instead of discovering
        // them one dependent load at a time.
        AbNode::prefetch(rt, child);
        if !trace.push(cell, child as u64) {
            return None;
        }
        cur = child;
    }
    // Second test-hook site: between the route and the leaf's version
    // snapshot — the window only the edge re-validation protects.
    stall();
    let l = unsafe { &*cur };
    let (view, v1) = leaf_view_optimistic(rt, l, stall)?;
    if !trace.push(l.ver_cell(), v1) || !trace.revalidate(rt) {
        return None;
    }
    Some(view.find_key(key).ok().map(|i| view.ptrs[i]))
}

/// One optimistic extremum attempt: directed walk to the first (or last)
/// non-empty leaf, every leaf read seqlock-validated and every followed
/// edge (plus every visited leaf's version — an "empty" view must still
/// be the leaf's live content at validation time) re-validated at the
/// end. `None` = validation failed or the visited fringe exceeded the
/// trace bound, retry. Requires the caller's epoch pin.
///
/// The common case — the extremum-edge leaf is non-empty — descends one
/// edge per level with no heap allocation; only a transiently empty
/// fringe (concurrent deletes) falls back to the stack-based walk.
pub(crate) fn extreme_optimistic(
    rt: &HtmRuntime,
    entry: *mut AbNode,
    last: bool,
    stall: &mut dyn FnMut(),
) -> Option<Option<(u64, u64)>> {
    let mut trace = Trace::new();
    // SAFETY: as in `get_optimistic`.
    let root_cell = unsafe { &*entry }.ptr_cell(0);
    let root = root_cell.load_direct(rt) as *mut AbNode;
    if !trace.push(root_cell, root as u64) {
        return None;
    }
    // Fast path: straight down the extremum edge.
    let mut cur = root;
    while !unsafe { &*cur }.leaf {
        let n = unsafe { &*cur };
        let size = n.size_cell().load_plain() as usize;
        if size == 0 || size > B {
            return None; // internal arity is invariant; stale node
        }
        let cell = n.ptr_cell(if last { size - 1 } else { 0 });
        let child = cell.load_direct(rt) as *mut AbNode;
        if !trace.push(cell, child as u64) {
            return None;
        }
        cur = child;
    }
    let l = unsafe { &*cur };
    let (view, v1) = leaf_view_optimistic(rt, l, stall)?;
    if !trace.push(l.ver_cell(), v1) {
        return None;
    }
    if view.size > 0 {
        if !trace.revalidate(rt) {
            return None;
        }
        let i = if last { view.size - 1 } else { 0 };
        return Some(Some((view.keys[i], view.ptrs[i])));
    }
    // Rare path: the extremum leaf is transiently empty — full directed
    // DFS skipping empty leaves, still recording every followed edge and
    // visited leaf version.
    let mut stack: Vec<(*mut AbNode, *const TxCell)> = Vec::new();
    let push_children = |n: &AbNode, stack: &mut Vec<(*mut AbNode, *const TxCell)>| -> Option<()> {
        let v = NodeView::read(&mut &*rt, n).ok()?;
        if v.size == 0 || v.size > B {
            return None;
        }
        // Visit order pops the extremum-most child first.
        if last {
            for i in 0..v.size {
                stack.push((v.ptrs[i] as *mut AbNode, n.ptr_cell(i)));
            }
        } else {
            for i in (0..v.size).rev() {
                stack.push((v.ptrs[i] as *mut AbNode, n.ptr_cell(i)));
            }
        }
        Some(())
    };
    // Restart from the already-validated root edge.
    if unsafe { &*root }.leaf {
        // Single empty root leaf (already traced above).
        if !trace.revalidate(rt) {
            return None;
        }
        return Some(None);
    }
    push_children(unsafe { &*root }, &mut stack)?;
    while let Some((ptr, parent_cell)) = stack.pop() {
        // SAFETY: reachable under the caller's epoch pin.
        if !trace.push(unsafe { &*parent_cell }, ptr as u64) {
            return None;
        }
        let n = unsafe { &*ptr };
        if n.leaf {
            let (v, v1) = leaf_view_optimistic(rt, n, stall)?;
            if !trace.push(n.ver_cell(), v1) {
                return None;
            }
            if v.size > 0 {
                if !trace.revalidate(rt) {
                    return None;
                }
                let i = if last { v.size - 1 } else { 0 };
                return Some(Some((v.keys[i], v.ptrs[i])));
            }
        } else {
            push_children(n, &mut stack)?;
        }
    }
    if !trace.revalidate(rt) {
        return None;
    }
    Some(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use threepath_core::{run_direct, BatchOp};
    use threepath_htm::HtmConfig;
    use threepath_reclaim::{Domain, ReclaimMode};

    use crate::ops;

    fn no_stall() -> impl FnMut() {
        || {}
    }

    #[test]
    fn quiet_leaf_reads_consistently() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let l = AbNode::new_leaf(&[(1, 10), (3, 30), (5, 50)]);
        let (v, v1) = leaf_view_optimistic(&rt, &l, &mut no_stall()).expect("no writers");
        assert_eq!(v1, 0);
        assert_eq!(v.size, 3);
        assert_eq!(v.find_key(3), Ok(1));
        assert_eq!(
            v.items().collect::<Vec<_>>(),
            vec![(1, 10), (3, 30), (5, 50)]
        );
    }

    #[test]
    fn odd_version_blocks_optimistic_readers() {
        // An odd `ver` means a direct-mode mutation is mid-flight: the
        // reader must refuse rather than read a half-shifted leaf.
        let rt = HtmRuntime::new(HtmConfig::default());
        let l = AbNode::new_leaf(&[(1, 10)]);
        l.ver_cell().store_direct(&rt, 1);
        assert!(leaf_view_optimistic(&rt, &l, &mut no_stall()).is_none());
        l.ver_cell().store_direct(&rt, 2);
        assert!(leaf_view_optimistic(&rt, &l, &mut no_stall()).is_some());
    }

    /// The torn-read detector: stall a reader mid-node — after its `ver`
    /// snapshot, before its content reads — and run a full in-place
    /// mutation (exactly the store sequence `insert_seq`'s shift branch
    /// issues through `DirectMem` under the TLE lock). The reader sees the
    /// post-mutation content with the pre-mutation version snapshot; only
    /// the seqlock re-check can catch it. Single-threaded and
    /// deterministic, so it runs under Miri.
    #[test]
    fn stalled_reader_detects_in_place_mutation() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let l = AbNode::new_leaf(&[(1, 10), (5, 50)]);
        let mut mutated = false;
        let r = leaf_view_optimistic(&rt, &l, &mut || {
            // In-place sorted insertion of (3, 30), as DirectMem applies
            // it: ver -> odd, shift the tail right, insert, size, ver ->
            // even.
            let v0 = l.ver_cell().load_direct(&rt);
            assert_eq!(v0 & 1, 0);
            l.ver_cell().store_direct(&rt, v0 + 1);
            l.key_cell(2).store_direct(&rt, 5);
            l.ptr_cell(2).store_direct(&rt, 50);
            l.key_cell(1).store_direct(&rt, 3);
            l.ptr_cell(1).store_direct(&rt, 30);
            l.size_cell().store_direct(&rt, 3);
            l.ver_cell().store_direct(&rt, v0 + 2);
            mutated = true;
        });
        assert!(mutated);
        assert!(r.is_none(), "validation must catch the in-place mutation");
        // A quiet re-read (the retry) sees the new consistent content.
        let (v, _) = leaf_view_optimistic(&rt, &l, &mut no_stall()).expect("quiescent");
        assert_eq!(
            v.items().collect::<Vec<_>>(),
            vec![(1, 10), (3, 30), (5, 50)]
        );
    }

    /// A reader stalled mid-flight (between the mutator's odd and even
    /// version stores) is likewise rejected — it observes the odd marker
    /// on re-validation even though its snapshot was even.
    #[test]
    fn stalled_reader_detects_mutation_still_in_flight() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let l = AbNode::new_leaf(&[(2, 20), (4, 40)]);
        let r = leaf_view_optimistic(&rt, &l, &mut || {
            let v0 = l.ver_cell().load_direct(&rt);
            l.ver_cell().store_direct(&rt, v0 + 1);
            // Half-done shift: size already bumped, keys not yet written.
            l.size_cell().store_direct(&rt, 3);
        });
        assert!(r.is_none(), "odd re-read must fail validation");
    }

    /// The real sequential operations bump the seqlock: drive
    /// `ops::insert_seq`'s shift and overwrite branches and
    /// `ops::delete_seq` over direct memory and watch `ver` advance by 2
    /// per in-place mutation while staying even.
    #[test]
    fn in_place_mutators_bump_the_seqlock() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        let ctx = Domain::register(&domain);
        let leaf = Box::into_raw(Box::new(AbNode::new_leaf(&[(2, 20), (6, 60)])));
        let entry = Box::into_raw(Box::new(AbNode::new_internal(&[], &[leaf as u64], false)));
        let op = |op| ops::Op { entry, a: 1, op };
        ctx.enter();
        {
            let l = unsafe { &*leaf };
            assert_eq!(l.ver_cell().load_direct(&rt), 0);
            // Shift-insert: one wrapped mutation -> +2.
            let r = run_direct(&rt, &ctx, &op(BatchOp::Insert(4, 40)));
            assert_eq!(r, (None, false));
            assert_eq!(l.ver_cell().load_direct(&rt), 2);
            // Value-only update: one cell, still bumped so scans see it.
            let r = run_direct(&rt, &ctx, &op(BatchOp::Insert(4, 41)));
            assert_eq!(r, (Some(40), false));
            assert_eq!(l.ver_cell().load_direct(&rt), 4);
            // In-place delete: +2 again.
            let r = run_direct(&rt, &ctx, &op(BatchOp::Remove(2)));
            assert_eq!(r, (Some(20), false));
            assert_eq!(l.ver_cell().load_direct(&rt), 6);
            // The optimistic reader agrees with the mutated content.
            let (v, _) = leaf_view_optimistic(&rt, l, &mut no_stall()).unwrap();
            assert_eq!(v.items().collect::<Vec<_>>(), vec![(4, 41), (6, 60)]);
        }
        ctx.exit();
        drop(ctx);
        // SAFETY: test-owned nodes, no concurrent access.
        unsafe {
            drop(Box::from_raw(entry));
            drop(Box::from_raw(leaf));
        }
    }

    #[test]
    fn optimistic_get_and_extreme_walk_the_tree() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let l1 = Box::into_raw(Box::new(AbNode::new_leaf(&[(1, 10), (2, 20)])));
        let l2 = Box::into_raw(Box::new(AbNode::new_leaf(&[(8, 80), (9, 90)])));
        let inner = Box::into_raw(Box::new(AbNode::new_internal(
            &[8],
            &[l1 as u64, l2 as u64],
            false,
        )));
        let entry = Box::into_raw(Box::new(AbNode::new_internal(&[], &[inner as u64], false)));
        let mut ns = no_stall();
        assert_eq!(get_optimistic(&rt, entry, 2, &mut ns), Some(Some(20)));
        assert_eq!(get_optimistic(&rt, entry, 8, &mut ns), Some(Some(80)));
        assert_eq!(get_optimistic(&rt, entry, 7, &mut ns), Some(None));
        assert_eq!(
            extreme_optimistic(&rt, entry, false, &mut ns),
            Some(Some((1, 10)))
        );
        assert_eq!(
            extreme_optimistic(&rt, entry, true, &mut ns),
            Some(Some((9, 90)))
        );
        // A leaf validation failure propagates as a whole-walk retry.
        let mut first = true;
        let r = extreme_optimistic(&rt, entry, false, &mut |/* stall */| {
            if first {
                first = false;
                let l = unsafe { &*l1 };
                let v0 = l.ver_cell().load_direct(&rt);
                l.ver_cell().store_direct(&rt, v0 + 2);
            }
        });
        assert_eq!(r, None);
        // SAFETY: test-owned nodes.
        unsafe {
            drop(Box::from_raw(entry));
            drop(Box::from_raw(inner));
            drop(Box::from_raw(l2));
            drop(Box::from_raw(l1));
        }
    }

    /// The full-path re-validation catches an in-place split that lands
    /// *between* the reader's route and its leaf-version snapshot: the
    /// stall hook performs the whole splice (truncate + publish sibling
    /// under a new parent, ver held odd throughout, exactly as
    /// `insert_seq`'s overflow branch applies it through `DirectMem`) —
    /// the leaf's seqlock then reads a stable *even* version over the
    /// truncated half, and only the edge re-check can reject the view.
    #[test]
    fn split_between_route_and_snapshot_is_caught() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let items: Vec<(u64, u64)> = (0..B as u64).map(|k| (k * 2, k * 2 + 1)).collect();
        let leaf = Box::into_raw(Box::new(AbNode::new_leaf(&items)));
        let entry = Box::into_raw(Box::new(AbNode::new_internal(&[], &[leaf as u64], false)));
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        let ctx = Domain::register(&domain);
        ctx.enter();
        // Probe a key in the *upper* half: the splice moves it to the
        // sibling, so a reader that validated only the leaf would miss it.
        let probe = items[B - 1].0;
        let mut split = false;
        let r = get_optimistic(&rt, entry, probe, &mut || {
            if split {
                return;
            }
            split = true;
            // Overflowing insert of a new largest key over direct memory:
            // the in-place splice `insert_seq` performs under the lock.
            let op = ops::Op {
                entry,
                a: 2,
                op: BatchOp::Insert(999, 1000),
            };
            assert_eq!(run_direct(&rt, &ctx, &op), (None, false));
        });
        assert_eq!(
            r, None,
            "edge re-validation must reject the truncated view"
        );
        // The retry (quiet) finds the key under the new parent.
        let mut ns = no_stall();
        assert_eq!(get_optimistic(&rt, entry, probe, &mut ns), Some(Some(items[B - 1].1)));
        assert_eq!(get_optimistic(&rt, entry, 999, &mut ns), Some(Some(1000)));
        ctx.exit();
        drop(ctx);
        // SAFETY: test-owned graph — entry now points at the new parent,
        // whose children are the truncated original leaf and the sibling;
        // the two fresh nodes came from `ctx.alloc` (Box, pool disabled)
        // and are reclaimed via the domain when it drops. Free the graph
        // we own directly.
        unsafe {
            let np = (*entry).ptr_plain(0) as *mut AbNode;
            let right = (*np).ptr_plain(1) as *mut AbNode;
            drop(Box::from_raw(right));
            drop(Box::from_raw(np));
            drop(Box::from_raw(entry));
            drop(Box::from_raw(leaf));
        }
    }
}
