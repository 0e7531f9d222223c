//! Uninstrumented optimistic range scans.
//!
//! The multi-leaf extension of `crate::readpath`: where a point read
//! validates one root-to-leaf path, a scan walks **every** leaf covering
//! `[lo, hi)` with direct loads and accumulates a *validation set* — the
//! root edge, every followed child edge, and every visited leaf's seqlock
//! `ver` word — each tagged with the key subrange it covers (derived from
//! the immutable routing keys). Matching pairs are copied out per leaf as
//! the walk goes; at the end the whole set is re-validated in one pass.
//!
//! **Memory layout.** Every copied pair goes into one handle-owned pair
//! buffer whose capacity survives across scans; a leaf's [`Segment`] is
//! just its subrange plus `start..end` indices into that buffer, so a calm
//! scan allocates nothing but its exact-capacity result. A full walk
//! emits segments in key order (the DFS visits leaves left to right), so
//! [`ScanState::assemble`] is one slice copy per leaf; a partial rescan
//! appends the re-walked holes' segments after the retained ones and
//! sorts the O(leaves) segments, never the pairs.
//!
//! **Memory parallelism.** Expanding an internal node reads each routing
//! key once with a plain load (immutable and published before the edge
//! that reached the node; the ordering argument is in
//! `crate::readpath`'s docs) and, for every child overlapping the scanned
//! subrange, loads the edge and issues [`AbNode::prefetch`] — the child's
//! cache lines and the line-table words its direct `ver`/edge loads will
//! probe. The leaves below one parent are therefore fetched together
//! rather than one dependent miss at a time; the hint changes no value
//! any load returns.
//!
//! The linearizability argument is the point read's, extended across
//! leaves: each recorded value can never recur once changed (child
//! pointers are fresh allocations under the reader's epoch pin, `ver` is
//! monotone), so a value that matches at its re-check held throughout the
//! interval between its original read and the re-check. All those
//! intervals overlap — every original read precedes every re-check — so
//! there is an instant `T` at which **all** edges and leaf versions held
//! simultaneously: at `T` every copied segment is the live content of the
//! live covering leaf, reached over the live path. The result is the
//! tree's content over `[lo, hi)` at `T`.
//!
//! Failed attempts escalate in tiers (`ExecCtx::run_scan` drives them):
//! full re-scans up to the attempt budget, then one *partial rescan* — the
//! invalidated entries' subranges are merged into holes
//! ([`threepath_core::merge_subranges`]), the entries and segments the
//! holes swallow are dropped, only the holes are re-walked, and the
//! **combined** set (retained + fresh) is re-validated in one final pass,
//! so the single-instant argument is preserved. Every entry the holes do
//! not swallow is retained *whether or not it still holds*: one
//! invalidated after the holes were computed must stay in the set so the
//! next pass turns it into a hole — dropping it would leave its segments
//! certified by nothing. Only when even that fails does the scan escalate
//! to the transactional machinery.

use threepath_core::{merge_subranges, ScanTally};
use threepath_htm::{HtmRuntime, TxCell};

use crate::node::{AbNode, B};
use crate::readpath::leaf_view_optimistic;

/// How many hole-repair rounds one partial-rescan tier may run before the
/// scan escalates to the transactional machinery. Each round re-reads only
/// the invalidated subranges, so the bound caps wasted work under a
/// pathological mutation storm, not the calm path.
pub(crate) const PARTIAL_ROUNDS: u32 = 4;

/// One recorded dependency: a cell, the value the scan's answer relies
/// on, and the key subrange that part of the answer covers.
struct TraceEntry {
    cell: *const TxCell,
    value: u64,
    lo: u64,
    hi: u64,
}

/// The matching pairs copied from one validated leaf — `pairs[start..end]`
/// of the scan's pair buffer — tagged with the leaf's routed subrange
/// (clipped to the query).
struct Segment {
    lo: u64,
    hi: u64,
    start: usize,
    end: usize,
}

/// The accumulated state of one optimistic scan, carried across the
/// full-attempt and partial-rescan tiers of `ExecCtx::run_scan`. Lives in
/// the handle, so every vector's capacity is reused across scans.
pub(crate) struct ScanState {
    trace: Vec<TraceEntry>,
    segments: Vec<Segment>,
    /// Every pair copied since `attempt_full` began, in visit order. A
    /// partial rescan appends; dropped segments' pairs stay as dead space
    /// until the next scan clears the buffer.
    pairs: Vec<(u64, u64)>,
    /// Subranges already known invalid at read time (mid-flight leaf
    /// mutations the seqlock refused to read through).
    failed: Vec<(u64, u64)>,
    /// DFS worklist, drained by every `scan_range` call.
    stack: Vec<(*mut AbNode, u64, u64)>,
    /// Test seam: runs in `attempt_partial` after the holes are computed
    /// and before the trace is pruned — the window of the retain race.
    #[cfg(test)]
    before_retain: Option<Box<dyn FnMut()>>,
}

// SAFETY: the recorded pointers are only dereferenced inside
// `attempt_full`/`attempt_partial`, under the epoch pin of the scan that
// recorded them (`attempt_full` clears every vector first). Between
// scans the contents are dead values retained purely for allocation
// reuse, so moving the scratch to another thread moves inert words. The
// pair buffer holds plain integers. The test-only `before_retain` hook
// is installed and run by single-threaded unit tests that never move the
// state.
unsafe impl Send for ScanState {}

/// Whether `[lo, hi)` overlaps any of the (sorted, disjoint) `holes`.
fn intersects(holes: &[(u64, u64)], lo: u64, hi: u64) -> bool {
    holes.iter().any(|&(a, b)| a < hi && b > lo)
}

/// Whether `[lo, hi)` lies entirely inside one of the (sorted, disjoint)
/// `holes` (merged holes are maximal, so containment means one hole).
fn contained(holes: &[(u64, u64)], lo: u64, hi: u64) -> bool {
    holes.iter().any(|&(a, b)| a <= lo && hi <= b)
}

impl ScanState {
    pub(crate) fn new() -> Self {
        ScanState {
            trace: Vec::new(),
            segments: Vec::new(),
            pairs: Vec::new(),
            failed: Vec::new(),
            stack: Vec::new(),
            #[cfg(test)]
            before_retain: None,
        }
    }

    /// Pruned DFS over `[lo, hi)` with direct loads, appending to the
    /// validation set and segments. A leaf whose seqlock read fails is
    /// recorded as a failed subrange rather than aborting the walk, so
    /// the partial tier knows exactly what to re-read. Requires the
    /// caller's epoch pin.
    ///
    /// `stall` is a test hook invoked before each leaf read (mirroring
    /// `readpath::get_optimistic`'s route/snapshot window) and inside the
    /// leaf seqlock read; production callers pass a no-op.
    fn scan_range(
        &mut self,
        rt: &HtmRuntime,
        entry: *mut AbNode,
        lo: u64,
        hi: u64,
        tally: &mut ScanTally,
        stall: &mut dyn FnMut(),
    ) {
        if lo >= hi {
            return;
        }
        // SAFETY (here and below): nodes are reached through published
        // pointers under the caller's epoch pin.
        let root_cell = unsafe { &*entry }.ptr_cell(0);
        let root = root_cell.load_direct(rt) as *mut AbNode;
        self.trace.push(TraceEntry {
            cell: root_cell,
            value: root as u64,
            lo,
            hi,
        });
        debug_assert!(self.stack.is_empty(), "worklist drained by every walk");
        self.stack.push((root, lo, hi));
        while let Some((ptr, clo, chi)) = self.stack.pop() {
            let n = unsafe { &*ptr };
            if n.leaf {
                // The window between routing here and the version snapshot
                // is protected only by the edge re-validation.
                stall();
                match leaf_view_optimistic(rt, n, stall) {
                    Some((view, v1)) => {
                        tally.leaves += 1;
                        self.trace.push(TraceEntry {
                            cell: n.ver_cell(),
                            value: v1,
                            lo: clo,
                            hi: chi,
                        });
                        let start = self.pairs.len();
                        self.pairs
                            .extend(view.items().filter(|&(k, _)| k >= clo && k < chi));
                        self.segments.push(Segment {
                            lo: clo,
                            hi: chi,
                            start,
                            end: self.pairs.len(),
                        });
                    }
                    None => self.failed.push((clo, chi)),
                }
            } else {
                // Internal keys and size are immutable (plain loads, see
                // the module docs): the routing-key subranges below are
                // stable properties of this node.
                let size = n.size_cell().load_plain() as usize;
                if size == 0 || size > B {
                    self.failed.push((clo, chi));
                    continue;
                }
                // Child i covers [keys[i-1], keys[i]). Load and prefetch
                // every overlapping child now, then reverse the pushed run
                // so the leftmost is processed first.
                let base = self.stack.len();
                let mut klo = clo;
                for i in 0..size {
                    let key = if i + 1 == size {
                        u64::MAX
                    } else {
                        n.key_cell(i).load_plain()
                    };
                    let khi = key.min(chi);
                    if klo < khi {
                        let cell = n.ptr_cell(i);
                        let child = cell.load_direct(rt) as *mut AbNode;
                        AbNode::prefetch(rt, child);
                        self.trace.push(TraceEntry {
                            cell,
                            value: child as u64,
                            lo: klo,
                            hi: khi,
                        });
                        self.stack.push((child, klo, khi));
                    }
                    if key >= chi {
                        break;
                    }
                    klo = key.max(clo);
                }
                self.stack[base..].reverse();
            }
        }
    }

    /// The merged subranges whose coverage is currently invalid: failed
    /// leaf reads plus every validation-set entry whose cell changed.
    fn invalid_subranges(&self, rt: &HtmRuntime) -> Vec<(u64, u64)> {
        let mut holes = self.failed.clone();
        for e in &self.trace {
            // SAFETY: recorded cells belong to nodes reached under the
            // caller's epoch pin, still held.
            if unsafe { &*e.cell }.load_direct(rt) != e.value {
                holes.push((e.lo, e.hi));
            }
        }
        merge_subranges(holes)
    }

    /// Copies the segments' pairs into an exact-capacity result, one
    /// slice per leaf. The segments must be in key order (a full walk
    /// emits them so; `attempt_partial` sorts them first); a validated set
    /// certifies that they are disjoint.
    fn assemble(&self) -> Vec<(u64, u64)> {
        debug_assert!(self.segments.windows(2).all(|w| w[0].hi <= w[1].lo));
        let len = self.segments.iter().map(|s| s.end - s.start).sum();
        let mut out = Vec::with_capacity(len);
        for s in &self.segments {
            out.extend_from_slice(&self.pairs[s.start..s.end]);
        }
        out
    }

    /// One full optimistic attempt over `[lo, hi)`: fresh walk, whole-set
    /// re-validation. `None` = a race was lost; the state keeps the walk's
    /// trace so a subsequent [`Self::attempt_partial`] can repair exactly
    /// the invalidated subranges. Requires the caller's epoch pin.
    pub(crate) fn attempt_full(
        &mut self,
        rt: &HtmRuntime,
        entry: *mut AbNode,
        lo: u64,
        hi: u64,
        tally: &mut ScanTally,
        stall: &mut dyn FnMut(),
    ) -> Option<Vec<(u64, u64)>> {
        self.trace.clear();
        self.segments.clear();
        self.pairs.clear();
        self.failed.clear();
        self.scan_range(rt, entry, lo, hi, tally, stall);
        if self.invalid_subranges(rt).is_empty() {
            Some(self.assemble())
        } else {
            None
        }
    }

    /// The partial-rescan tier: starting from the last failed attempt's
    /// state, merge the invalidated subranges into holes, drop the
    /// entries and segments the holes swallow, re-walk only the holes,
    /// and re-validate the combined set — up to `rounds` times. `None` =
    /// even targeted repair kept losing races; the caller escalates to
    /// the transactional machinery. Requires the caller's epoch pin.
    pub(crate) fn attempt_partial(
        &mut self,
        rt: &HtmRuntime,
        entry: *mut AbNode,
        tally: &mut ScanTally,
        stall: &mut dyn FnMut(),
        rounds: u32,
    ) -> Option<Vec<(u64, u64)>> {
        for round in 0..=rounds {
            let mut holes = self.invalid_subranges(rt);
            if holes.is_empty() {
                break;
            }
            if round == rounds {
                return None;
            }
            // A dropped segment's *whole* subrange must be re-walked, and
            // across rounds the tree's routing (and so the subranges) may
            // have shifted: grow the holes until every intersected
            // segment is fully contained.
            loop {
                let extra: Vec<(u64, u64)> = self
                    .segments
                    .iter()
                    .filter(|s| {
                        intersects(&holes, s.lo, s.hi) && !contained(&holes, s.lo, s.hi)
                    })
                    .map(|s| (s.lo, s.hi))
                    .collect();
                if extra.is_empty() {
                    break;
                }
                holes.extend(extra);
                holes = merge_subranges(holes);
            }
            self.failed.clear();
            #[cfg(test)]
            if let Some(hook) = self.before_retain.as_mut() {
                hook();
            }
            // Drop only what the holes swallow. Every other entry stays,
            // valid or not: an edge spanning a hole keeps the retained
            // segments' root-to-leaf coverage, and an entry invalidated
            // since `holes` was computed must survive to become a hole on
            // the next pass — dropping it would leave its segments
            // certified by nothing.
            self.trace.retain(|e| !contained(&holes, e.lo, e.hi));
            self.segments.retain(|s| !intersects(&holes, s.lo, s.hi));
            for &(hlo, hhi) in &holes {
                self.scan_range(rt, entry, hlo, hhi, tally, stall);
            }
        }
        // The re-walked holes' segments were appended after the retained
        // ones: order the segments (not the pairs) by key.
        self.segments.sort_unstable_by_key(|s| s.lo);
        Some(self.assemble())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use threepath_core::DirectMem;
    use threepath_htm::HtmConfig;
    use threepath_reclaim::{Domain, ReclaimMode};

    use crate::ops;

    fn no_stall() -> impl FnMut() {
        || {}
    }

    #[test]
    fn hole_bookkeeping_is_pure_interval_logic() {
        let holes = merge_subranges(vec![(10, 20), (30, 40), (19, 25)]);
        assert_eq!(holes, vec![(10, 25), (30, 40)]);
        assert!(intersects(&holes, 0, 11));
        assert!(!intersects(&holes, 25, 30));
        assert!(contained(&holes, 12, 25));
        assert!(!contained(&holes, 12, 26));
        assert!(!contained(&holes, 24, 31), "spanning two holes never counts");
    }

    /// Builds entry -> inner(key 8) -> [leaf(1,2), leaf(8,9)] and returns
    /// the raw nodes (caller frees).
    fn two_leaf_tree() -> (*mut AbNode, *mut AbNode, *mut AbNode, *mut AbNode) {
        let l1 = Box::into_raw(Box::new(AbNode::new_leaf(&[(1, 10), (2, 20)])));
        let l2 = Box::into_raw(Box::new(AbNode::new_leaf(&[(8, 80), (9, 90)])));
        let inner = Box::into_raw(Box::new(AbNode::new_internal(
            &[8],
            &[l1 as u64, l2 as u64],
            false,
        )));
        let entry = Box::into_raw(Box::new(AbNode::new_internal(&[], &[inner as u64], false)));
        (entry, inner, l1, l2)
    }

    unsafe fn free_two_leaf_tree(t: (*mut AbNode, *mut AbNode, *mut AbNode, *mut AbNode)) {
        unsafe {
            drop(Box::from_raw(t.0));
            drop(Box::from_raw(t.1));
            drop(Box::from_raw(t.2));
            drop(Box::from_raw(t.3));
        }
    }

    #[test]
    fn quiet_scan_walks_the_leaves_in_order() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let t = two_leaf_tree();
        let (entry, ..) = t;
        let mut state = ScanState::new();
        let mut tally = ScanTally::default();
        let r = state.attempt_full(&rt, entry, 0, 100, &mut tally, &mut no_stall());
        assert_eq!(r, Some(vec![(1, 10), (2, 20), (8, 80), (9, 90)]));
        assert_eq!(tally.leaves, 2);
        // Pruning: a subrange covering one leaf validates one leaf.
        let mut state = ScanState::new();
        let r = state.attempt_full(&rt, entry, 8, 100, &mut tally, &mut no_stall());
        assert_eq!(r, Some(vec![(8, 80), (9, 90)]));
        assert_eq!(tally.leaves, 3);
        // Empty and inverted ranges validate nothing.
        let mut state = ScanState::new();
        assert_eq!(
            state.attempt_full(&rt, entry, 50, 50, &mut tally, &mut no_stall()),
            Some(vec![])
        );
        assert_eq!(tally.leaves, 3);
        // SAFETY: test-owned nodes.
        unsafe { free_two_leaf_tree(t) };
    }

    #[test]
    fn partial_rescan_walks_only_the_invalidated_subrange() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let t = two_leaf_tree();
        let (entry, _, _, l2) = t;
        let mut state = ScanState::new();
        let mut tally = ScanTally::default();
        // Mutate l2 *after* the walk read it: bump its seqlock once per
        // full attempt, so every full attempt fails the set re-check.
        let mut bumped = false;
        let r = state.attempt_full(&rt, entry, 0, 100, &mut tally, &mut || {
            if !bumped {
                bumped = true;
                let l = unsafe { &*l2 };
                let v0 = l.ver_cell().load_direct(&rt);
                l.ver_cell().store_direct(&rt, v0 + 2);
            }
        });
        // The bump lands during the *first* leaf visit (l1), so l2's
        // version entry is recorded afterwards... make sure the attempt
        // actually failed on the recorded-before case instead.
        // (If leaves are visited left to right, the bump happens before
        // l2 is read, and the attempt may legitimately succeed — so force
        // the failure deterministically below instead when it did.)
        let full_leaves = tally.leaves;
        if r.is_some() {
            // Re-run with a bump injected after both leaves were read.
            let mut calls = 0u32;
            let r2 = state.attempt_full(&rt, entry, 0, 100, &mut tally, &mut || {
                calls += 1;
                // 2 stall calls per leaf; bump l2 on the last one.
                if calls == 4 {
                    let l = unsafe { &*l2 };
                    let v0 = l.ver_cell().load_direct(&rt);
                    l.ver_cell().store_direct(&rt, v0 + 2);
                }
            });
            assert_eq!(r2, None, "post-read bump must fail the set re-check");
        }
        let before_partial = tally.leaves;
        let r = state.attempt_partial(&rt, entry, &mut tally, &mut no_stall(), PARTIAL_ROUNDS);
        assert_eq!(r, Some(vec![(1, 10), (2, 20), (8, 80), (9, 90)]));
        assert_eq!(
            tally.leaves - before_partial,
            1,
            "only the invalidated leaf is re-read"
        );
        assert!(full_leaves >= 2);
        // SAFETY: test-owned nodes.
        unsafe { free_two_leaf_tree(t) };
    }

    /// A multi-cell in-place mutation of `leaf`'s slot `i` value, wrapped
    /// in the seqlock as `DirectMem` applies one under the TLE lock.
    fn mutate_in_place(rt: &HtmRuntime, leaf: *mut AbNode, i: usize, value: u64) {
        // SAFETY: test-owned node.
        let l = unsafe { &*leaf };
        let v0 = l.ver_cell().load_direct(rt);
        l.ver_cell().store_direct(rt, v0 + 1);
        l.ptr_cell(i).store_direct(rt, value);
        l.ver_cell().store_direct(rt, v0 + 2);
    }

    /// ROADMAP item 1a, deterministically: an entry that still held when
    /// the partial tier computed its holes, but is invalidated before the
    /// trace is pruned, must survive the pruning and become a hole on the
    /// next pass. The old `retain` also required the entry to hold, so it
    /// dropped l2's version word while keeping l2's segment: the final
    /// pass then certified the stale `(8, 80)`.
    #[test]
    fn stale_retained_entry_is_rewalked() {
        let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
        let t = two_leaf_tree();
        let (entry, _, l1, l2) = t;
        let mut state = ScanState::new();
        let mut tally = ScanTally::default();
        let r = state.attempt_full(&rt, entry, 0, 100, &mut tally, &mut no_stall());
        assert!(r.is_some());
        // l1 changes after the walk: [0, 8) is the partial tier's hole.
        mutate_in_place(&rt, l1, 0, 11);
        // l2 lies outside the hole; it changes inside the retain window.
        let hook_rt = Arc::clone(&rt);
        let mut fired = false;
        state.before_retain = Some(Box::new(move || {
            if !fired {
                fired = true;
                mutate_in_place(&hook_rt, l2, 0, 81);
            }
        }));
        let r = state.attempt_partial(&rt, entry, &mut tally, &mut no_stall(), PARTIAL_ROUNDS);
        assert_eq!(
            r,
            Some(vec![(1, 11), (2, 20), (8, 81), (9, 90)]),
            "a retained entry invalidated before the pruning must be re-walked"
        );
        // SAFETY: test-owned nodes.
        unsafe { free_two_leaf_tree(t) };
    }

    /// Repairing the *leftmost* leaf appends its fresh segment after the
    /// retained ones; `assemble` must still emit the tree's content in key
    /// order, each pair once.
    #[test]
    fn leftmost_leaf_rewalk_assembles_in_key_order() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let t = two_leaf_tree();
        let (entry, _, l1, _) = t;
        let mut state = ScanState::new();
        let mut tally = ScanTally::default();
        // Two stall calls per leaf: the third is l2's, after l1 was read.
        let mut calls = 0u32;
        let r = state.attempt_full(&rt, entry, 0, 100, &mut tally, &mut || {
            calls += 1;
            if calls == 3 {
                mutate_in_place(&rt, l1, 1, 21);
            }
        });
        assert_eq!(r, None, "l1 changed after it was copied");
        let r = state.attempt_partial(&rt, entry, &mut tally, &mut no_stall(), PARTIAL_ROUNDS);
        assert_eq!(r, Some(vec![(1, 10), (2, 21), (8, 80), (9, 90)]));
        // SAFETY: test-owned nodes.
        unsafe { free_two_leaf_tree(t) };
    }

    /// The pair buffer is handle scratch: a second scan of the same
    /// extent reuses its capacity instead of growing it.
    #[test]
    fn second_walk_reuses_the_pair_buffer() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let t = two_leaf_tree();
        let (entry, ..) = t;
        let mut state = ScanState::new();
        let mut tally = ScanTally::default();
        let first = state.attempt_full(&rt, entry, 0, 100, &mut tally, &mut no_stall());
        let cap = state.pairs.capacity();
        assert!(cap >= 4);
        let second = state.attempt_full(&rt, entry, 0, 100, &mut tally, &mut no_stall());
        assert_eq!(first, second);
        assert_eq!(state.pairs.capacity(), cap, "the buffer grew");
        // SAFETY: test-owned nodes.
        unsafe { free_two_leaf_tree(t) };
    }

    /// The validation set catches a leaf *split* that lands mid-scan: the
    /// stall hook performs `insert_seq`'s whole in-place overflow splice
    /// (truncate + publish sibling under a new parent) between the scan's
    /// route and the leaf's version snapshot — the seqlock then reads a
    /// stable even version over the truncated half, and only the edge
    /// re-validation can reject the torn scan. The PR 5 moved-key hazard,
    /// across multiple leaves.
    #[test]
    fn split_mid_scan_walk_is_caught_by_the_validation_set() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let items: Vec<(u64, u64)> = (0..B as u64).map(|k| (k * 2, k * 2 + 1)).collect();
        let leaf = Box::into_raw(Box::new(AbNode::new_leaf(&items)));
        let entry = Box::into_raw(Box::new(AbNode::new_internal(&[], &[leaf as u64], false)));
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        let ctx = Domain::register(&domain);
        ctx.enter();
        let mut split = false;
        let mut state = ScanState::new();
        let mut tally = ScanTally::default();
        let r = state.attempt_full(&rt, entry, 0, 10_000, &mut tally, &mut || {
            if split {
                return;
            }
            split = true;
            let f = ops::AbFound {
                p: entry,
                p_idx: 0,
                l: leaf,
            };
            let mut m = DirectMem::new(&rt, &ctx);
            let r = ops::insert_seq(&mut m, entry, &f, 999, 1000, false, None).unwrap();
            assert_eq!(r, (None, false));
        });
        assert_eq!(r, None, "the torn scan must fail the set re-check");
        // The escalation ladder repairs it: the root edge changed, so the
        // hole is the whole range and the partial tier re-walks the new
        // two-leaf tree.
        let r = state.attempt_partial(&rt, entry, &mut tally, &mut no_stall(), PARTIAL_ROUNDS);
        let got = r.expect("quiet partial rescan succeeds");
        let mut want = items.clone();
        want.push((999, 1000));
        assert_eq!(got, want, "no key lost across the split");
        ctx.exit();
        drop(ctx);
        // SAFETY: test-owned graph — entry now points at the new parent
        // over the truncated original leaf and the fresh sibling.
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
