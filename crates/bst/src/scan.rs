//! Uninstrumented optimistic range scans over the BST.
//!
//! A scan walks every leaf covering `[lo, hi)` with **direct loads** —
//! no LLX snapshots, no transactions — and accumulates a flat *validation
//! set* of words, each tagged with the key subrange it covers (left
//! subtree `[clo, key)`, right `[key, chi)` — a stable property of the
//! immutable node key):
//!
//! * every **followed edge** — the child cell must still hold the pointer
//!   the walk followed. Every committed BST mutation (template SCX or
//!   sequential splice) becomes visible by swinging exactly one child
//!   pointer on the update path, so an unchanged followed-edge frontier
//!   certifies the walked region's whole shape;
//! * every copied leaf's **`ver` seqlock word** — the one mutation that
//!   swings no edge is the sequential insert's in-place value overwrite,
//!   which wraps the write in an odd/even bump of [`BstNode::ver`]
//!   (`crate::ops::insert_seq`). An odd version at read time is a
//!   mid-flight write (recorded as a failed subrange); an even version
//!   unchanged at re-check certifies the copied value.
//!
//! This is the (a,b)-tree's per-leaf version-ladder discipline lifted to
//! the BST, replacing the PR 6 per-node `info`/marked/edge/value
//! quadruples: the set shrinks from ~4 entries per *visited node* to one
//! entry per followed edge plus one per copied leaf, which is what closes
//! the calm-scan gap against the transactional walk. The old value-ABA
//! caveat (values certified *by value*, blind to write-away-write-back)
//! is gone: `ver` is monotone, so an unchanged version word really means
//! no write happened.
//!
//! A final pass re-checks the whole set. Pointers cannot recur while the
//! scan's epoch pin blocks node recycling and `ver` never decreases, so
//! unchanged-at-recheck means unchanged-throughout: every entry's
//! validity interval covers the instant the pass began, and the copied
//! pairs are the tree's content over `[lo, hi)` at that single instant.
//!
//! Lost races escalate in tiers (`ExecCtx::run_scan` drives them): full
//! re-walks up to the attempt budget, then the partial-rescan tier —
//! invalidated subranges merge into holes
//! ([`threepath_core::merge_subranges`]), the entries and segments the
//! holes swallow are dropped, only the holes are re-walked, and the
//! **combined** set re-validates in one final pass, preserving the
//! single-instant argument while re-reading only what was lost. Every
//! entry the holes do not swallow is retained *whether or not it still
//! holds*, so one invalidated after the holes were computed becomes a
//! hole on the next pass instead of silently vanishing with its segments
//! still in the answer. Only when even that fails does the scan leave the
//! optimistic regime — for the snapshot tier or, last, the transactional
//! machinery (see `crate::tree::Bst::range_query`).
//!
//! The state has the (a,b)-tree scan's shape (`threepath_abtree`'s
//! `scan` module): copied pairs go into one handle-owned buffer, each
//! leaf's segment is its subrange plus `start..end` indices into it, and
//! the answer is assembled by ordering segments, never pairs. The two
//! modules differ only in node decoding. There is no prefetch here: a
//! binary node has two children, so there is no batch of independent
//! misses to overlap.

use threepath_core::{merge_subranges, ScanTally};
use threepath_htm::{HtmRuntime, TxCell};

use crate::node::{BstNode, SENT1};

/// How many hole-repair rounds one partial-rescan tier may run before the
/// scan escalates past the optimistic regime.
pub(crate) const PARTIAL_ROUNDS: u32 = 4;

/// One recorded dependency: a cell (a followed child edge, or a copied
/// leaf's `ver` word), the value the scan's answer relies on, and the key
/// subrange that part of the answer covers.
struct TraceEntry {
    cell: *const TxCell,
    value: u64,
    lo: u64,
    hi: u64,
}

impl TraceEntry {
    /// Whether the dependency still holds. Requires the scan's epoch pin.
    fn holds(&self, rt: &HtmRuntime) -> bool {
        // SAFETY: the cell lives in a node reached under the pin.
        unsafe { &*self.cell }.load_direct(rt) == self.value
    }
}

/// The pair copied from one leaf — `pairs[start..end]` of the scan's pair
/// buffer, empty when the leaf's key falls outside the query or is a
/// sentinel — tagged with the leaf's routed subrange.
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
    /// Subranges already known invalid at read time (a leaf's `ver` was
    /// odd: an in-place value write was in flight).
    failed: Vec<(u64, u64)>,
    /// DFS worklist, drained by every `scan_range` call.
    stack: Vec<(*mut BstNode, u64, u64)>,
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

    /// Pruned direct-load DFS over `[lo, hi)`, appending to the
    /// validation set and segments. A leaf read mid-mutation (odd `ver`)
    /// is recorded as a failed subrange rather than aborting the walk, so
    /// the partial tier knows exactly what to re-read. Requires the
    /// caller's epoch pin.
    ///
    /// `stall` is a test hook invoked after each leaf's version/value
    /// snapshot (the window the final re-validation must certify);
    /// production callers pass a no-op.
    fn scan_range(
        &mut self,
        rt: &HtmRuntime,
        root: *mut BstNode,
        lo: u64,
        hi: u64,
        tally: &mut ScanTally,
        stall: &mut dyn FnMut(),
    ) {
        if lo >= hi {
            return;
        }
        debug_assert!(self.stack.is_empty(), "worklist drained by every walk");
        self.stack.push((root, lo, hi));
        while let Some((ptr, clo, chi)) = self.stack.pop() {
            // SAFETY: reachable under the caller's epoch pin.
            let n = unsafe { &*ptr };
            if n.is_leaf {
                tally.leaves += 1;
                let start = self.pairs.len();
                let in_range = n.key >= clo && n.key < chi && n.key < SENT1;
                if in_range {
                    let v0 = n.ver.load_direct(rt);
                    if v0 % 2 == 1 {
                        // An in-place value write is in flight; the value
                        // word is torn until the writer's closing bump.
                        self.failed.push((clo, chi));
                        continue;
                    }
                    let value = n.value.load_direct(rt);
                    stall();
                    self.trace.push(TraceEntry {
                        cell: &n.ver,
                        value: v0,
                        lo: clo,
                        hi: chi,
                    });
                    self.pairs.push((n.key, value));
                } else {
                    stall();
                }
                self.segments.push(Segment {
                    lo: clo,
                    hi: chi,
                    start,
                    end: self.pairs.len(),
                });
            } else {
                // Left subtree keys < n.key; right >= n.key. Push the
                // right first so the left is processed first (ascending).
                // Each followed edge joins the validation set under the
                // child's subrange: every committed mutation (SCX or
                // sequential splice) swings exactly one such edge.
                for (dir, (elo, ehi)) in [(1, (n.key.max(clo), chi)), (0, (clo, n.key.min(chi)))] {
                    if elo < ehi {
                        let child = n.child(dir).load_direct(rt) as *mut BstNode;
                        self.trace.push(TraceEntry {
                            cell: n.child(dir),
                            value: child as u64,
                            lo: elo,
                            hi: ehi,
                        });
                        self.stack.push((child, elo, ehi));
                    }
                }
            }
        }
    }

    /// The merged subranges whose coverage is currently invalid: torn
    /// leaf reads plus every validation-set entry that no longer holds.
    fn invalid_subranges(&self, rt: &HtmRuntime) -> Vec<(u64, u64)> {
        let mut holes = self.failed.clone();
        for e in &self.trace {
            if !e.holds(rt) {
                holes.push((e.lo, e.hi));
            }
        }
        merge_subranges(holes)
    }

    /// Copies the segments' pairs into an exact-capacity result. The
    /// segments must be in key order (a full walk emits them so;
    /// `attempt_partial` sorts them first); a validated set certifies that
    /// they are disjoint.
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
        root: *mut BstNode,
        lo: u64,
        hi: u64,
        tally: &mut ScanTally,
        stall: &mut dyn FnMut(),
    ) -> Option<Vec<(u64, u64)>> {
        self.trace.clear();
        self.segments.clear();
        self.pairs.clear();
        self.failed.clear();
        self.scan_range(rt, root, lo, hi, tally, stall);
        if self.invalid_subranges(rt).is_empty() {
            Some(self.assemble())
        } else {
            None
        }
    }

    /// The partial-rescan tier: merge the invalidated subranges into
    /// holes, drop the entries and segments the holes swallow, re-walk
    /// only the holes, and re-validate the combined set — up to `rounds`
    /// times. `None` = the caller escalates past the optimistic regime.
    /// Requires the caller's epoch pin.
    pub(crate) fn attempt_partial(
        &mut self,
        rt: &HtmRuntime,
        root: *mut BstNode,
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
            // across rounds the tree's shape (and so the subranges) may
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
            // valid or not: an entry spanning a hole keeps the retained
            // segments' root-to-leaf coverage, and an entry invalidated
            // since `holes` was computed must survive to become a hole on
            // the next pass — dropping it would leave its segments
            // certified by nothing.
            self.trace.retain(|e| !contained(&holes, e.lo, e.hi));
            self.segments.retain(|s| !intersects(&holes, s.lo, s.hi));
            for &(hlo, hhi) in &holes {
                self.scan_range(rt, root, hlo, hhi, tally, stall);
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
    use threepath_htm::HtmConfig;

    use super::*;

    #[test]
    fn hole_bookkeeping_is_pure_interval_logic() {
        let holes = merge_subranges(vec![(5, 9), (9, 12), (40, 41)]);
        assert_eq!(holes, vec![(5, 12), (40, 41)]);
        assert!(intersects(&holes, 0, 6));
        assert!(!intersects(&holes, 12, 40));
        assert!(contained(&holes, 5, 12));
        assert!(!contained(&holes, 4, 12));
        assert!(!contained(&holes, 11, 41), "spanning two holes never counts");
    }

    /// A three-leaf test tree:
    ///
    /// ```text
    ///        entry(key=5)
    ///        /          \
    ///    l1(2,20)    inner(8)
    ///                /      \
    ///           l2(6,60)  l3(9,90)
    /// ```
    fn three_leaf_tree() -> (*mut BstNode, *mut BstNode, *mut BstNode, *mut BstNode, *mut BstNode) {
        let l1 = Box::into_raw(Box::new(BstNode::new_leaf(2, 20)));
        let l2 = Box::into_raw(Box::new(BstNode::new_leaf(6, 60)));
        let l3 = Box::into_raw(Box::new(BstNode::new_leaf(9, 90)));
        let inner = Box::into_raw(Box::new(BstNode::new_internal(8, l2, l3)));
        let entry = Box::into_raw(Box::new(BstNode::new_internal(5, l1, inner)));
        (entry, inner, l1, l2, l3)
    }

    unsafe fn free_three_leaf_tree(
        t: (*mut BstNode, *mut BstNode, *mut BstNode, *mut BstNode, *mut BstNode),
    ) {
        unsafe {
            drop(Box::from_raw(t.0));
            drop(Box::from_raw(t.1));
            drop(Box::from_raw(t.2));
            drop(Box::from_raw(t.3));
            drop(Box::from_raw(t.4));
        }
    }

    #[test]
    fn quiet_scan_walks_the_leaves_in_order() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let t = three_leaf_tree();
        let (entry, ..) = t;
        let mut state = ScanState::new();
        let mut tally = ScanTally::default();
        let r = state.attempt_full(&rt, entry, 0, 100, &mut tally, &mut || {});
        assert_eq!(r, Some(vec![(2, 20), (6, 60), (9, 90)]));
        assert_eq!(tally.leaves, 3);
        // Pruning: a subrange covering the right subtree skips l1.
        let mut state = ScanState::new();
        let r = state.attempt_full(&rt, entry, 6, 100, &mut tally, &mut || {});
        assert_eq!(r, Some(vec![(6, 60), (9, 90)]));
        assert_eq!(tally.leaves, 5);
        // Empty and inverted ranges validate nothing.
        let mut state = ScanState::new();
        assert_eq!(
            state.attempt_full(&rt, entry, 50, 50, &mut tally, &mut || {}),
            Some(vec![])
        );
        assert_eq!(tally.leaves, 5);
        // SAFETY: test-owned nodes.
        unsafe { free_three_leaf_tree(t) };
    }

    /// The version ladder catches an in-place value overwrite that lands
    /// between a leaf's snapshot and the final validation pass: the stall
    /// hook performs `insert_seq`'s whole seqlock-wrapped value write on
    /// an *already-copied* leaf, so only the recorded `ver` word can
    /// reject the stale copy (the edge frontier never changes). The
    /// partial tier then repairs exactly the invalidated leaf.
    #[test]
    fn in_place_mutation_mid_walk_is_caught_by_the_version_ladder() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let t = three_leaf_tree();
        let (entry, _, l1, ..) = t;
        let mut state = ScanState::new();
        let mut tally = ScanTally::default();
        let mut leaves_seen = 0u32;
        let r = state.attempt_full(&rt, entry, 0, 100, &mut tally, &mut || {
            leaves_seen += 1;
            if leaves_seen == 3 {
                // All three leaves copied; overwrite l1 the way
                // `ops::insert_seq` does under the TLE lock.
                let l = unsafe { &*l1 };
                let v0 = l.ver.load_direct(&rt);
                assert_eq!(v0 % 2, 0);
                l.ver.store_direct(&rt, v0 + 1);
                l.value.store_direct(&rt, 21);
                l.ver.store_direct(&rt, v0 + 2);
            }
        });
        assert_eq!(r, None, "the stale copy must fail the version re-check");
        let before_partial = tally.leaves;
        let r = state.attempt_partial(&rt, entry, &mut tally, &mut || {}, PARTIAL_ROUNDS);
        assert_eq!(r, Some(vec![(2, 21), (6, 60), (9, 90)]));
        assert_eq!(
            tally.leaves - before_partial,
            1,
            "only the invalidated leaf is re-read"
        );
        // SAFETY: test-owned nodes.
        unsafe { free_three_leaf_tree(t) };
    }

    /// `insert_seq`'s seqlock-wrapped in-place value overwrite of `leaf`.
    fn overwrite(rt: &HtmRuntime, leaf: *mut BstNode, value: u64) {
        // SAFETY: test-owned node.
        let l = unsafe { &*leaf };
        let v0 = l.ver.load_direct(rt);
        l.ver.store_direct(rt, v0 + 1);
        l.value.store_direct(rt, value);
        l.ver.store_direct(rt, v0 + 2);
    }

    /// ROADMAP item 1a, deterministically: an entry that still held when
    /// the partial tier computed its holes, but is invalidated before the
    /// trace is pruned, must survive the pruning and become a hole on the
    /// next pass. The old `retain` also required the entry to hold, so it
    /// dropped l3's version word while keeping l3's segment: the final
    /// pass then certified the stale `(9, 90)`.
    #[test]
    fn stale_retained_entry_is_rewalked() {
        let rt = std::sync::Arc::new(HtmRuntime::new(HtmConfig::default()));
        let t = three_leaf_tree();
        let (entry, _, l1, _, l3) = t;
        let mut state = ScanState::new();
        let mut tally = ScanTally::default();
        let r = state.attempt_full(&rt, entry, 0, 100, &mut tally, &mut || {});
        assert!(r.is_some());
        // l1 changes after the walk: [0, 5) is the partial tier's hole.
        overwrite(&rt, l1, 21);
        // l3 lies outside the hole; it changes inside the retain window.
        let hook_rt = std::sync::Arc::clone(&rt);
        let mut fired = false;
        state.before_retain = Some(Box::new(move || {
            if !fired {
                fired = true;
                overwrite(&hook_rt, l3, 91);
            }
        }));
        let r = state.attempt_partial(&rt, entry, &mut tally, &mut || {}, PARTIAL_ROUNDS);
        assert_eq!(
            r,
            Some(vec![(2, 21), (6, 60), (9, 91)]),
            "a retained entry invalidated before the pruning must be re-walked"
        );
        // SAFETY: test-owned nodes.
        unsafe { free_three_leaf_tree(t) };
    }

    /// Repairing the *leftmost* leaf appends its fresh segment after the
    /// retained ones; `assemble` must still emit the tree's content in key
    /// order, each pair once.
    #[test]
    fn leftmost_leaf_rewalk_assembles_in_key_order() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let t = three_leaf_tree();
        let (entry, _, l1, ..) = t;
        let mut state = ScanState::new();
        let mut tally = ScanTally::default();
        // One stall call per leaf: the second is l2's, after l1 was read.
        let mut calls = 0u32;
        let r = state.attempt_full(&rt, entry, 0, 100, &mut tally, &mut || {
            calls += 1;
            if calls == 2 {
                overwrite(&rt, l1, 22);
            }
        });
        assert_eq!(r, None, "l1 changed after it was copied");
        let r = state.attempt_partial(&rt, entry, &mut tally, &mut || {}, PARTIAL_ROUNDS);
        assert_eq!(r, Some(vec![(2, 22), (6, 60), (9, 90)]));
        // SAFETY: test-owned nodes.
        unsafe { free_three_leaf_tree(t) };
    }

    /// The pair buffer is handle scratch: a second scan of the same
    /// extent reuses its capacity instead of growing it.
    #[test]
    fn second_walk_reuses_the_pair_buffer() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let t = three_leaf_tree();
        let (entry, ..) = t;
        let mut state = ScanState::new();
        let mut tally = ScanTally::default();
        let first = state.attempt_full(&rt, entry, 0, 100, &mut tally, &mut || {});
        let cap = state.pairs.capacity();
        assert!(cap >= 3);
        let second = state.attempt_full(&rt, entry, 0, 100, &mut tally, &mut || {});
        assert_eq!(first, second);
        assert_eq!(state.pairs.capacity(), cap, "the buffer grew");
        // SAFETY: test-owned nodes.
        unsafe { free_three_leaf_tree(t) };
    }

    /// The version-word dependency discipline on a standalone leaf — no
    /// tree walk, so unlike the walking tests it holds no
    /// integer-round-tripped child pointers and runs under the nightly
    /// Miri strict-provenance lane: an unchanged even `ver` certifies
    /// the copied value; any seqlock bump — the odd mid-write state or
    /// the even landing after it — invalidates the recorded dependency.
    /// The landing case is the value-ABA defense: `ver` is monotone, so
    /// a write-away-write-back never re-certifies a stale copy.
    #[test]
    fn version_word_recheck_tracks_the_seqlock_protocol() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let leaf = BstNode::new_leaf(2, 20);
        let dep = TraceEntry {
            cell: &leaf.ver,
            value: leaf.ver.load_direct(&rt),
            lo: 0,
            hi: 5,
        };
        assert!(dep.holds(&rt));
        // Writer opens the seqlock: odd version, dependency broken.
        leaf.ver.store_direct(&rt, 1);
        leaf.value.store_direct(&rt, 21);
        assert!(!dep.holds(&rt), "odd version is a mid-flight write");
        // Writer lands: even again, but larger — still broken.
        leaf.ver.store_direct(&rt, 2);
        assert!(!dep.holds(&rt), "a completed overwrite must not re-certify");
        // A snapshot taken at the new version holds until the next bump.
        let dep = TraceEntry {
            cell: &leaf.ver,
            value: 2,
            lo: 0,
            hi: 5,
        };
        assert!(dep.holds(&rt));
    }

    /// A torn read — the scan arrives while the writer's seqlock is odd —
    /// is detected at read time and repaired once the writer finishes.
    #[test]
    fn odd_version_at_read_time_is_a_failed_subrange() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let t = three_leaf_tree();
        let (entry, _, l1, ..) = t;
        // Freeze l1 mid-write.
        unsafe { &*l1 }.ver.store_direct(&rt, 1);
        let mut state = ScanState::new();
        let mut tally = ScanTally::default();
        let r = state.attempt_full(&rt, entry, 0, 100, &mut tally, &mut || {});
        assert_eq!(r, None, "an odd version is a mid-flight write");
        // Writer completes; the partial tier re-reads just that leaf.
        let l = unsafe { &*l1 };
        l.value.store_direct(&rt, 22);
        l.ver.store_direct(&rt, 2);
        let r = state.attempt_partial(&rt, entry, &mut tally, &mut || {}, PARTIAL_ROUNDS);
        assert_eq!(r, Some(vec![(2, 22), (6, 60), (9, 90)]));
        // SAFETY: test-owned nodes.
        unsafe { free_three_leaf_tree(t) };
    }
}
