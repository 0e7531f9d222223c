//! The optimistic range scan, once for every tree.
//!
//! A scan walks every leaf covering `[lo, hi)` with **direct loads** — no
//! LLX snapshots, no transactions — and accumulates a flat *validation
//! set*, each entry tagged with the key subrange it covers:
//!
//! * every **followed edge** — the child cell must still hold the pointer
//!   the walk followed. A mutation that reshapes the tree (template SCX,
//!   a sequential splice or split) becomes visible by swinging a child
//!   pointer on the walked frontier;
//! * every copied leaf's **`ver` seqlock word** — a mutation that swings
//!   no edge (an in-place value overwrite, an (a,b)-tree leaf shift)
//!   wraps its writes in an odd/even bump of the leaf's `ver`. An odd
//!   version at read time is a mid-flight write (a *torn* read, recorded
//!   as a failed subrange); an even version unchanged at re-check
//!   certifies the copy.
//!
//! A tree supplies only node decoding, through [`ScanSource`]: which
//! child edges of a node overlap a subrange, and which pairs of a leaf
//! fall in it. Everything else is here: the [`ScanState`] scratch, the
//! DFS worklist, the trace and segment bookkeeping, whole-set
//! re-validation, hole repair and assembly, and the ladder
//! [`ExecCtx::run_scan`] climbs.
//!
//! **Single instant.** A final pass re-checks the whole set. Pointers
//! cannot recur while the scan's epoch pin blocks node recycling and
//! `ver` never decreases, so a value unchanged at its re-check held
//! throughout the interval since it was read. Every read precedes every
//! re-check, so all those intervals overlap: at the instant `T` the final
//! pass began, every followed edge and every copied leaf's version held
//! at once, and the copied pairs are the tree's content over `[lo, hi)`
//! at `T`.
//!
//! **Memory layout.** Copied pairs go into one scratch-owned buffer whose
//! capacity survives across scans; a leaf's segment is its subrange plus
//! `start..end` indices into that buffer, so a calm scan allocates only
//! its exact-capacity result. A full walk emits segments in key order (the
//! DFS visits leaves left to right), so assembly is one slice copy per
//! leaf; a partial rescan appends the re-walked holes' segments after the
//! retained ones and sorts the O(leaves) segments, never the pairs.
//!
//! **The ladder.** Lost races escalate in two rungs: full re-walks up to
//! the read-attempt bound, then the partial rescan — invalidated
//! subranges merge into holes ([`merge_subranges`]), the entries and
//! segments the holes swallow are dropped, only the holes are re-walked,
//! and the **combined** set re-validates in one final pass, preserving
//! the single-instant argument while re-reading only what was lost.
//! Every entry the holes do not swallow is retained *whether or not it
//! still holds*: one invalidated after the holes were computed stays in
//! the set so the next pass turns it into a hole — dropping it would
//! leave its segments certified by nothing. When even that fails, the
//! caller escalates the scan to the template's transactional paths
//! ([`ExecCtx::run_query`]).

use threepath_htm::{HtmRuntime, TxCell};
use threepath_llxscx::ScxThread;

use crate::driver::ExecCtx;
use crate::readpath::DEFAULT_READ_ATTEMPTS;
use crate::stats::{PathKind, PathStats};

/// How many hole-repair rounds the partial rescan may run before the
/// scan escalates past the optimistic regime. Each round re-reads only
/// the invalidated subranges, so the bound caps wasted work under a
/// pathological mutation storm, not the calm path.
const PARTIAL_ROUNDS: u32 = 4;

/// A read that met a writer mid-flight (an odd `ver`, or a node whose
/// immutable shape read out of bounds): the node's subrange becomes a
/// hole for the partial rescan to re-read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torn;

/// A tree's node decoding, all the optimistic scan needs from it.
///
/// The walk holds nodes as `*mut Self::Node`. The driver calls these
/// methods only under the scan's epoch pin, on [`Self::entry`] and on
/// nodes reached from it through edges [`Self::expand`] followed, so an
/// implementation may dereference them.
///
/// # Safety
///
/// The driver keeps every cell [`Self::expand`] hands over and every
/// `ver` cell [`Self::copy_leaf`] returns as a raw pointer, and re-reads
/// it in the final validation pass, after the call returned. An
/// implementation must hand over only cells that stay allocated until the
/// scan's epoch pin is released: cells of nodes reached from
/// [`Self::entry`], whose reclamation the pin defers.
pub unsafe trait ScanSource {
    /// The tree's node type.
    type Node;

    /// The node every walk starts from. It is never replaced, so no edge
    /// leads to it.
    fn entry(&self) -> *mut Self::Node;

    /// Whether `node` is a leaf (immutable for the node's lifetime).
    fn is_leaf(&self, node: *mut Self::Node) -> bool;

    /// Loads every child edge of the internal `node` whose subrange
    /// overlaps `[lo, hi)` and hands each to `follow`, in key order, as
    /// `(edge cell, child, child's subrange clipped to [lo, hi))`. The
    /// child must be the pointer the cell held at the load: the driver
    /// records it as the edge's validation word. `Err(Torn)` (before any
    /// `follow` call) marks `[lo, hi)` unreadable.
    fn expand(
        &self,
        rt: &HtmRuntime,
        node: *mut Self::Node,
        lo: u64,
        hi: u64,
        follow: &mut impl FnMut(&TxCell, *mut Self::Node, u64, u64),
    ) -> Result<(), Torn>;

    /// Appends the leaf's pairs in `[lo, hi)`, in key order, to `pairs`
    /// and returns its `ver` cell with the even version the copy was read
    /// under; `Ok(None)` when the copy depends on nothing mutable (a leaf
    /// whose immutable key falls outside `[lo, hi)`). `Err(Torn)` appends
    /// nothing.
    fn copy_leaf(
        &self,
        rt: &HtmRuntime,
        leaf: *mut Self::Node,
        lo: u64,
        hi: u64,
        pairs: &mut Vec<(u64, u64)>,
    ) -> Result<Option<(&TxCell, u64)>, Torn>;
}

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
        // SAFETY: the cell came from a `ScanSource`, whose contract keeps
        // it allocated while the scan's pin is held.
        unsafe { &*self.cell }.load_direct(rt) == self.value
    }
}

/// The pairs copied from one leaf — `pairs[start..end]` of the scan's
/// pair buffer, possibly empty — tagged with the leaf's routed subrange
/// (clipped to the query).
struct Segment {
    lo: u64,
    hi: u64,
    start: usize,
    end: usize,
}

/// The accumulated state of one optimistic scan over `N` nodes, carried
/// across the rungs of [`ExecCtx::run_scan`]. A handle owns one, so every
/// vector's capacity is reused across scans.
pub struct ScanState<N> {
    trace: Vec<TraceEntry>,
    segments: Vec<Segment>,
    /// Every pair copied since [`Self::attempt_full`] began, in visit
    /// order. A partial rescan appends; dropped segments' pairs stay as
    /// dead space until the next scan clears the buffer.
    pairs: Vec<(u64, u64)>,
    /// Subranges already known invalid at read time (torn reads).
    failed: Vec<(u64, u64)>,
    /// DFS worklist, drained by every walk.
    stack: Vec<(*mut N, u64, u64)>,
    /// Leaves whose `ver` word entered the trace, over this scratch's
    /// lifetime.
    validated: u64,
    /// Test seam: runs in [`Self::attempt_partial`] after the holes are
    /// computed and before the trace is pruned, the window of the retain
    /// race. Only this module's tests set it.
    before_retain: Option<Box<dyn FnMut(&HtmRuntime) + Send>>,
}

// SAFETY: the recorded pointers are only dereferenced inside
// `attempt_full`/`attempt_partial`, under the epoch pin of the scan that
// recorded them (`attempt_full` clears every vector first). Between
// scans the contents are dead values retained purely for allocation
// reuse, so moving the scratch to another thread moves inert words. The
// pair buffer holds plain integers, and the test hook is `Send` by type.
unsafe impl<N> Send for ScanState<N> {}

impl<N> Default for ScanState<N> {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether `[lo, hi)` overlaps any of the (sorted, disjoint) `holes`.
fn intersects(holes: &[(u64, u64)], lo: u64, hi: u64) -> bool {
    holes.iter().any(|&(a, b)| a < hi && b > lo)
}

/// Whether `[lo, hi)` lies entirely inside one of the (sorted, disjoint)
/// `holes` (merged holes are maximal, so containment means one hole).
fn contained(holes: &[(u64, u64)], lo: u64, hi: u64) -> bool {
    holes.iter().any(|&(a, b)| a <= lo && hi <= b)
}

/// Merges a set of half-open `[lo, hi)` subranges into a minimal sorted
/// list of disjoint subranges (empty inputs are dropped, overlapping and
/// adjacent inputs coalesce). The partial rescan uses this to turn the
/// invalidated validation-set entries into the holes it re-reads.
pub fn merge_subranges(mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    ranges.retain(|&(lo, hi)| lo < hi);
    ranges.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(ranges.len());
    for (lo, hi) in ranges {
        match out.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

impl<N> ScanState<N> {
    /// An empty scratch.
    pub fn new() -> Self {
        ScanState {
            trace: Vec::new(),
            segments: Vec::new(),
            pairs: Vec::new(),
            failed: Vec::new(),
            stack: Vec::new(),
            validated: 0,
            before_retain: None,
        }
    }

    /// Leaves whose `ver` word entered the trace over this scratch's
    /// lifetime — leaves a scan visits but depends on nothing mutable in
    /// (a BST leaf outside the range) and torn reads do not count.
    pub fn leaves_validated(&self) -> u64 {
        self.validated
    }

    /// Pruned direct-load DFS over `[lo, hi)` from `src`'s entry,
    /// appending to the validation set and segments. A torn node is
    /// recorded as a failed subrange rather than aborting the walk, so the
    /// partial rescan knows exactly what to re-read. Requires the caller's
    /// epoch pin.
    fn walk<S: ScanSource<Node = N>>(&mut self, rt: &HtmRuntime, src: &S, lo: u64, hi: u64) {
        if lo >= hi {
            return;
        }
        debug_assert!(self.stack.is_empty(), "worklist drained by every walk");
        self.stack.push((src.entry(), lo, hi));
        while let Some((node, clo, chi)) = self.stack.pop() {
            if src.is_leaf(node) {
                let start = self.pairs.len();
                match src.copy_leaf(rt, node, clo, chi, &mut self.pairs) {
                    Ok(ver) => {
                        if let Some((cell, value)) = ver {
                            self.validated += 1;
                            self.trace.push(TraceEntry {
                                cell,
                                value,
                                lo: clo,
                                hi: chi,
                            });
                        }
                        self.segments.push(Segment {
                            lo: clo,
                            hi: chi,
                            start,
                            end: self.pairs.len(),
                        });
                    }
                    Err(Torn) => self.failed.push((clo, chi)),
                }
            } else {
                // Each followed edge joins the set under the child's
                // subrange. The children arrive in key order; reverse the
                // pushed run so the leftmost is processed first.
                let base = self.stack.len();
                let (trace, stack) = (&mut self.trace, &mut self.stack);
                let expanded = src.expand(rt, node, clo, chi, &mut |cell, child, elo, ehi| {
                    trace.push(TraceEntry {
                        cell,
                        value: child as u64,
                        lo: elo,
                        hi: ehi,
                    });
                    stack.push((child, elo, ehi));
                });
                match expanded {
                    Ok(()) => self.stack[base..].reverse(),
                    Err(Torn) => self.failed.push((clo, chi)),
                }
            }
        }
    }

    /// The merged subranges whose coverage is currently invalid: torn
    /// reads plus every validation-set entry that no longer holds.
    fn invalid_subranges(&self, rt: &HtmRuntime) -> Vec<(u64, u64)> {
        let mut holes = self.failed.clone();
        for e in &self.trace {
            if !e.holds(rt) {
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

    /// The first rung: one full optimistic attempt over `[lo, hi)` — a
    /// fresh walk, then whole-set re-validation. `None` = a race was lost;
    /// the state keeps the walk's trace so a following
    /// [`Self::attempt_partial`] can repair exactly the invalidated
    /// subranges. Requires the caller's epoch pin; [`ExecCtx::run_scan`]
    /// drives both rungs.
    pub fn attempt_full<S: ScanSource<Node = N>>(
        &mut self,
        rt: &HtmRuntime,
        src: &S,
        lo: u64,
        hi: u64,
    ) -> Option<Vec<(u64, u64)>> {
        self.trace.clear();
        self.segments.clear();
        self.pairs.clear();
        self.failed.clear();
        self.walk(rt, src, lo, hi);
        if self.invalid_subranges(rt).is_empty() {
            Some(self.assemble())
        } else {
            None
        }
    }

    /// The second rung, from the last failed full attempt's state: merge
    /// the invalidated subranges into holes, drop the entries and segments
    /// the holes swallow, re-walk only the holes, and re-validate the
    /// combined set — up to a fixed number of rounds. `None` = the caller
    /// escalates past the optimistic regime. Requires the caller's epoch
    /// pin.
    pub fn attempt_partial<S: ScanSource<Node = N>>(
        &mut self,
        rt: &HtmRuntime,
        src: &S,
    ) -> Option<Vec<(u64, u64)>> {
        for round in 0..=PARTIAL_ROUNDS {
            let mut holes = self.invalid_subranges(rt);
            if holes.is_empty() {
                break;
            }
            if round == PARTIAL_ROUNDS {
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
                    .filter(|s| intersects(&holes, s.lo, s.hi) && !contained(&holes, s.lo, s.hi))
                    .map(|s| (s.lo, s.hi))
                    .collect();
                if extra.is_empty() {
                    break;
                }
                holes.extend(extra);
                holes = merge_subranges(holes);
            }
            self.failed.clear();
            if let Some(hook) = self.before_retain.as_mut() {
                hook(rt);
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
                self.walk(rt, src, hlo, hhi);
            }
        }
        // The re-walked holes' segments were appended after the retained
        // ones: order the segments (not the pairs) by key.
        self.segments.sort_unstable_by_key(|s| s.lo);
        Some(self.assemble())
    }
}

impl ExecCtx {
    /// Runs an optimistic range scan of `src` over `[lo, hi)`, using
    /// `state` as working storage: up to [`DEFAULT_READ_ATTEMPTS`] full attempts
    /// under one epoch pin, each returning the pairs in key order or
    /// losing a race at its whole-set re-check; then one partial rescan of
    /// the last attempt's invalidated subranges (see the [module
    /// docs](self)).
    ///
    /// Returns `Some` on success (recorded on the [`PathKind::Read`] lane;
    /// failed attempts tallied as [scan retries](PathStats::scan_retries))
    /// or `None` once even the partial rescan failed — recorded as a
    /// [scan escalation](PathStats::scan_escalations); the caller then
    /// routes the scan through the transactional machinery
    /// ([`Self::run_query`]). Leaves whose `ver` entered the
    /// validation set land on [`PathStats::scan_leaves_validated`].
    pub fn run_scan<S: ScanSource>(
        &self,
        th: &mut ScxThread,
        stats: &mut PathStats,
        state: &mut ScanState<S::Node>,
        src: &S,
        lo: u64,
        hi: u64,
    ) -> Option<Vec<(u64, u64)>> {
        let rt = self.runtime();
        let max_attempts = DEFAULT_READ_ATTEMPTS;
        let validated_before = state.validated;
        let (out, failed) = th.pinned(|_th| {
            for i in 0..max_attempts {
                if let Some(v) = state.attempt_full(rt, src, lo, hi) {
                    return (Some(v), u64::from(i));
                }
            }
            match state.attempt_partial(rt, src) {
                Some(v) => (Some(v), u64::from(max_attempts)),
                None => (None, u64::from(max_attempts) + 1),
            }
        });
        stats.add_scan_retries(failed);
        stats.add_scan_leaves_validated(state.validated - validated_before);
        match out {
            Some(v) => {
                stats.record_completed(PathKind::Read);
                Some(v)
            }
            None => {
                stats.record_scan_escalation();
                None
            }
        }
    }
}

/// The scan tests every tree runs against its own decoding, through
/// [`scan_driver_tests!`](crate::scan_driver_tests).
#[doc(hidden)]
pub mod driver_tests {
    use std::cell::RefCell;
    use std::sync::Arc;

    use threepath_htm::{HtmConfig, HtmRuntime, TxCell};
    use threepath_llxscx::{ScxEngine, ScxThread};
    use threepath_reclaim::{Domain, ReclaimMode};

    use super::{ScanSource, ScanState, Torn};
    use crate::{ExecCtx, PathKind, PathStats, TemplateConfig, DEFAULT_READ_ATTEMPTS};

    /// The node type of a fixture's source.
    pub type Node<F> = <<F as ScanFixture>::Source as ScanSource>::Node;

    /// A small test-owned tree: at least two leaves, each holding at
    /// least one pair, every key below 1000. Dropping it frees the nodes.
    pub trait ScanFixture: Sized + 'static {
        /// The tree's scan decoding, rooted at the fixture's entry.
        type Source: ScanSource<Node: 'static>;
        /// Builds the tree.
        fn build() -> Self;
        /// The decoding the shared tests scan through.
        fn source(&self) -> &Self::Source;
        /// Every pair the tree was built with, in key order.
        fn content(&self) -> Vec<(u64, u64)>;
        /// Each leaf with its smallest key, in key order.
        fn leaves(&self) -> Vec<(*mut Node<Self>, u64)>;
        /// `leaf`'s `ver` word and the value cell of its smallest key.
        fn cells<'a>(leaf: *mut Node<Self>) -> (&'a TxCell, &'a TxCell);
        /// Sets `key := value` through the tree's own sequential insert
        /// in direct mode (as under the TLE lock), returning the old
        /// value.
        fn insert_seq(rt: &HtmRuntime, entry: *mut Node<Self>, key: u64, value: u64)
            -> Option<u64>;
    }

    /// `src` with a test hook after every leaf copy: the window between
    /// one leaf's copy and the next leaf's `ver` snapshot, after the
    /// parents' expands recorded the edges to both.
    pub struct AfterCopy<'a, S, H> {
        src: &'a S,
        hook: RefCell<H>,
    }

    impl<'a, S, H: FnMut(&HtmRuntime)> AfterCopy<'a, S, H> {
        /// Wraps `src`; `hook` runs after each of its leaf copies.
        pub fn new(src: &'a S, hook: H) -> Self {
            AfterCopy {
                src,
                hook: RefCell::new(hook),
            }
        }
    }

    // SAFETY: hands the driver exactly the cells `src` hands over.
    unsafe impl<S: ScanSource, H: FnMut(&HtmRuntime)> ScanSource for AfterCopy<'_, S, H> {
        type Node = S::Node;

        fn entry(&self) -> *mut S::Node {
            self.src.entry()
        }

        fn is_leaf(&self, node: *mut S::Node) -> bool {
            self.src.is_leaf(node)
        }

        fn expand(
            &self,
            rt: &HtmRuntime,
            node: *mut S::Node,
            lo: u64,
            hi: u64,
            follow: &mut impl FnMut(&TxCell, *mut S::Node, u64, u64),
        ) -> Result<(), Torn> {
            self.src.expand(rt, node, lo, hi, follow)
        }

        fn copy_leaf(
            &self,
            rt: &HtmRuntime,
            leaf: *mut S::Node,
            lo: u64,
            hi: u64,
            pairs: &mut Vec<(u64, u64)>,
        ) -> Result<Option<(&TxCell, u64)>, Torn> {
            let copied = self.src.copy_leaf(rt, leaf, lo, hi, pairs);
            (self.hook.borrow_mut())(rt);
            copied
        }
    }

    /// Above every fixture key.
    const HI: u64 = 1000;

    fn runtime() -> HtmRuntime {
        HtmRuntime::new(HtmConfig::default())
    }

    /// A context to run [`ExecCtx::run_scan`] in, and the engine its
    /// threads register with.
    fn context() -> (ExecCtx, ScxEngine) {
        let rt = Arc::new(runtime());
        let eng = ScxEngine::new(rt.clone(), Arc::new(Domain::new(ReclaimMode::Epoch)));
        (ExecCtx::new(rt, &TemplateConfig::default()), eng)
    }

    /// `leaf`'s smallest key := `value`, inside the odd/even `ver` bracket
    /// both trees' sequential overwrites use.
    fn overwrite<F: ScanFixture>(rt: &HtmRuntime, leaf: *mut Node<F>, value: u64) {
        let (ver, cell) = F::cells(leaf);
        let v0 = ver.load_direct(rt);
        assert_eq!(v0 % 2, 0, "no writer in flight");
        ver.store_direct(rt, v0 + 1);
        cell.store_direct(rt, value);
        ver.store_direct(rt, v0 + 2);
    }

    /// A node pointer a `Send` hook can carry. The hooks that carry one
    /// run on the thread that built the fixture, which outlives them.
    struct SendPtr<T>(*mut T);

    // SAFETY: the pointer is only dereferenced on the fixture's thread,
    // while the fixture is alive.
    unsafe impl<T> Send for SendPtr<T> {}

    impl<T> SendPtr<T> {
        fn get(&self) -> *mut T {
            self.0
        }
    }

    /// How far `pins` pin/unpin cycles of `th` advance its domain's
    /// epoch. Each cycle announces the current epoch and every 64th tries
    /// to advance it, which fails while another context of the domain
    /// still announces an older one. So `th` moves the epoch at most one
    /// step past a pinned scan's, and several steps when no scan is pinned.
    fn epoch_advance(th: &ScxThread, pins: u64) -> u64 {
        let domain = th.reclaim.domain();
        let before = domain.epoch();
        for _ in 0..pins {
            drop(th.reclaim.pin());
        }
        domain.epoch() - before
    }

    /// `pairs` with `key`'s value replaced.
    fn with(mut pairs: Vec<(u64, u64)>, key: u64, value: u64) -> Vec<(u64, u64)> {
        pairs
            .iter_mut()
            .find(|p| p.0 == key)
            .expect("fixture key")
            .1 = value;
        pairs
    }

    /// A calm walk returns the content in key order and validates each
    /// leaf once; a range starting at the second leaf prunes the first.
    pub fn quiet_scan_walks_the_leaves_in_order<F: ScanFixture>() {
        let rt = runtime();
        let t = F::build();
        let leaves = t.leaves().len() as u64;
        let mut state = ScanState::new();
        assert_eq!(
            state.attempt_full(&rt, t.source(), 0, HI),
            Some(t.content())
        );
        assert_eq!(state.leaves_validated(), leaves);
        let from = t.leaves()[1].1;
        let tail: Vec<_> = t.content().into_iter().filter(|p| p.0 >= from).collect();
        assert_eq!(state.attempt_full(&rt, t.source(), from, HI), Some(tail));
        assert_eq!(
            state.leaves_validated(),
            2 * leaves - 1,
            "pruned the first leaf"
        );
        // Empty and inverted ranges validate nothing.
        assert_eq!(state.attempt_full(&rt, t.source(), 50, 50), Some(vec![]));
        assert_eq!(state.attempt_full(&rt, t.source(), 60, 50), Some(vec![]));
        assert_eq!(state.leaves_validated(), 2 * leaves - 1);
    }

    /// An already-copied leaf is overwritten after the last copy, before
    /// the final pass. No edge changes, so only the leaf's recorded `ver`
    /// can reject the stale copy; the partial rung then re-reads that one
    /// leaf and nothing else.
    pub fn partial_rung_rereads_only_the_overwritten_leaf<F: ScanFixture>() {
        let rt = runtime();
        let t = F::build();
        let leaves = t.leaves();
        let (first, key) = leaves[0];
        let last_copy = leaves.len();
        let mut state = ScanState::new();
        let mut copies = 0;
        let stalled = AfterCopy::new(t.source(), |rt: &HtmRuntime| {
            copies += 1;
            if copies == last_copy {
                overwrite::<F>(rt, first, 7);
            }
        });
        assert_eq!(
            state.attempt_full(&rt, &stalled, 0, HI),
            None,
            "the stale copy must fail the version re-check"
        );
        let before = state.leaves_validated();
        assert_eq!(
            state.attempt_partial(&rt, t.source()),
            Some(with(t.content(), key, 7))
        );
        assert_eq!(
            state.leaves_validated() - before,
            1,
            "only the overwritten leaf is re-read"
        );
    }

    /// An entry that still held when the partial rung computed its holes,
    /// but is invalidated before the trace is pruned, must survive the
    /// pruning and become a hole on the next pass. A `retain` that also
    /// required the entry to hold would drop the last leaf's version word
    /// while keeping its segment, and the final pass would certify the
    /// stale copy.
    pub fn stale_retained_entry_is_rewalked<F: ScanFixture>() {
        let rt = runtime();
        let t = F::build();
        let leaves = t.leaves();
        let ((first, k1), (last, k2)) = (leaves[0], leaves[leaves.len() - 1]);
        let mut state = ScanState::new();
        assert_eq!(
            state.attempt_full(&rt, t.source(), 0, HI),
            Some(t.content())
        );
        // The first leaf changes after the walk: its subrange is the hole.
        overwrite::<F>(&rt, first, 7);
        // The last leaf lies outside the hole; it changes in the window.
        let last = SendPtr(last);
        let mut fired = false;
        state.before_retain = Some(Box::new(move |rt| {
            if !fired {
                fired = true;
                overwrite::<F>(rt, last.get(), 8);
            }
        }));
        assert_eq!(
            state.attempt_partial(&rt, t.source()),
            Some(with(with(t.content(), k1, 7), k2, 8)),
            "a retained entry invalidated before the pruning must be re-walked"
        );
    }

    /// Repairing the *leftmost* leaf appends its fresh segment after the
    /// retained ones; assembly must still emit the content in key order,
    /// each pair once.
    pub fn leftmost_leaf_rewalk_assembles_in_key_order<F: ScanFixture>() {
        let rt = runtime();
        let t = F::build();
        let (first, key) = t.leaves()[0];
        let mut state = ScanState::new();
        let mut copies = 0;
        let stalled = AfterCopy::new(t.source(), |rt: &HtmRuntime| {
            copies += 1;
            if copies == 1 {
                overwrite::<F>(rt, first, 7);
            }
        });
        assert_eq!(
            state.attempt_full(&rt, &stalled, 0, HI),
            None,
            "the first leaf changed after it was copied"
        );
        assert_eq!(
            state.attempt_partial(&rt, t.source()),
            Some(with(t.content(), key, 7))
        );
    }

    /// Cross-key atomicity of value-only overwrites: after the scan copied
    /// the first leaf, a writer overwrites a key in it and then a key in
    /// the second leaf through the tree's own sequential insert, and only
    /// then does the scan copy the second leaf. Returning the second write
    /// without the first would be a state the map never held; the first
    /// overwrite's `ver` bump must fail the attempt.
    pub fn overwrites_behind_and_ahead_of_the_walk_fail_validation<F: ScanFixture>() {
        let rt = runtime();
        let t = F::build();
        let leaves = t.leaves();
        let writes = [(leaves[0].1, 7), (leaves[1].1, 8)];
        let olds: Vec<_> = writes
            .iter()
            .map(|&(k, _)| t.content().into_iter().find(|p| p.0 == k).map(|p| p.1))
            .collect();
        let entry = t.source().entry();
        let mut state = ScanState::new();
        let mut copies = 0;
        let stalled = AfterCopy::new(t.source(), |rt: &HtmRuntime| {
            copies += 1;
            if copies == 1 {
                for (&(key, value), &old) in writes.iter().zip(&olds) {
                    assert_eq!(F::insert_seq(rt, entry, key, value), old);
                }
            }
        });
        assert_eq!(
            state.attempt_full(&rt, &stalled, 0, HI),
            None,
            "the scan saw the second write but not the first"
        );
    }

    /// The pair buffer is scratch: a second scan of the same extent
    /// reuses its capacity instead of growing it.
    pub fn second_walk_reuses_the_pair_buffer<F: ScanFixture>() {
        let rt = runtime();
        let t = F::build();
        let mut state = ScanState::new();
        let first = state.attempt_full(&rt, t.source(), 0, HI);
        let cap = state.pairs.capacity();
        assert!(cap >= t.content().len());
        assert_eq!(state.attempt_full(&rt, t.source(), 0, HI), first);
        assert_eq!(state.pairs.capacity(), cap, "the buffer grew");
    }

    /// A torn read — the scan arrives while a writer's seqlock is odd — is
    /// a failed subrange at read time, validates nothing, and is repaired
    /// by the partial rung once the writer finishes.
    pub fn odd_version_at_read_time_is_a_failed_subrange<F: ScanFixture>() {
        let rt = runtime();
        let t = F::build();
        let leaves = t.leaves();
        let (first, key) = leaves[0];
        let (ver, cell) = F::cells(first);
        let v0 = ver.load_direct(&rt);
        ver.store_direct(&rt, v0 + 1);
        let mut state = ScanState::new();
        assert_eq!(
            state.attempt_full(&rt, t.source(), 0, HI),
            None,
            "an odd version is a mid-flight write"
        );
        assert_eq!(state.leaves_validated(), leaves.len() as u64 - 1);
        cell.store_direct(&rt, 7);
        ver.store_direct(&rt, v0 + 2);
        assert_eq!(
            state.attempt_partial(&rt, t.source()),
            Some(with(t.content(), key, 7))
        );
    }

    /// A calm scan completes on the read lane at its first attempt. Its
    /// walk runs under the epoch pin: a second context of the domain,
    /// pinned over and over at every leaf copy, cannot move the epoch
    /// more than one step. After the scan it can, and the scan's thread
    /// is unpinned.
    pub fn run_scan_success_records_read_lane_and_leaves<F: ScanFixture>() {
        let (exec, eng) = context();
        let (mut th, mut stats) = (eng.register_thread(), PathStats::new());
        let other = eng.register_thread();
        let t = F::build();
        let mut state = ScanState::new();
        let mut advanced = 0;
        let pinned = AfterCopy::new(t.source(), |_: &HtmRuntime| {
            advanced += epoch_advance(&other, 256);
        });
        let r = exec.run_scan(&mut th, &mut stats, &mut state, &pinned, 0, HI);
        assert_eq!(r, Some(t.content()));
        assert!(advanced <= 1, "the epoch moved {advanced} steps mid-scan");
        assert!(epoch_advance(&other, 256) >= 2, "the epoch is stuck");
        assert!(!th.reclaim.is_pinned());
        assert_eq!(stats.completed(PathKind::Read), 1);
        assert_eq!(stats.scan_retries(), 0);
        assert_eq!(stats.scan_escalations(), 0);
        assert_eq!(stats.scan_leaves_validated(), t.leaves().len() as u64);
    }

    /// Every full attempt loses a race on its last leaf; the partial rung
    /// re-reads just that leaf and rescues the scan.
    pub fn run_scan_retries_then_partial_rescue_counts_full_failures<F: ScanFixture>() {
        let (exec, eng) = context();
        let (mut th, mut stats) = (eng.register_thread(), PathStats::new());
        let t = F::build();
        let leaves = t.leaves();
        let (n, full) = (leaves.len() as u64, u64::from(DEFAULT_READ_ATTEMPTS));
        let (last, key) = leaves[leaves.len() - 1];
        let mut state = ScanState::new();
        let mut copies = 0;
        let stalled = AfterCopy::new(t.source(), |rt: &HtmRuntime| {
            copies += 1;
            if copies <= full * n && copies % n == 0 {
                overwrite::<F>(rt, last, copies);
            }
        });
        let r = exec.run_scan(&mut th, &mut stats, &mut state, &stalled, 0, HI);
        assert_eq!(r, Some(with(t.content(), key, full * n)));
        assert_eq!(stats.completed(PathKind::Read), 1);
        assert_eq!(stats.scan_retries(), full, "every full attempt failed");
        assert_eq!(stats.scan_escalations(), 0, "the partial rescan rescued it");
        assert_eq!(stats.scan_leaves_validated(), full * n + 1);
    }

    /// Every copy is overwritten behind the walk, so even the partial
    /// rung fails: the scan is recorded as an escalation.
    pub fn run_scan_escalates_when_even_the_partial_rescan_fails<F: ScanFixture>() {
        let (exec, eng) = context();
        let (mut th, mut stats) = (eng.register_thread(), PathStats::new());
        let t = F::build();
        let leaves = t.leaves();
        let mut state = ScanState::new();
        let stalled = AfterCopy::new(t.source(), |rt: &HtmRuntime| {
            for &(leaf, _) in &leaves {
                overwrite::<F>(rt, leaf, 7);
            }
        });
        let r = exec.run_scan(&mut th, &mut stats, &mut state, &stalled, 0, HI);
        assert_eq!(r, None);
        assert_eq!(stats.completed(PathKind::Read), 0);
        assert_eq!(
            stats.scan_retries(),
            u64::from(DEFAULT_READ_ATTEMPTS) + 1,
            "every full attempt and the partial rescan failed"
        );
        assert_eq!(stats.scan_escalations(), 1);
    }
}

/// Expands to one `#[test]` per [`scan::driver_tests`](crate::scan)
/// function, each run against the fixture type given (a
/// `scan::driver_tests::ScanFixture`).
#[doc(hidden)]
#[macro_export]
macro_rules! scan_driver_tests {
    ($fixture:ty) => {
        $crate::scan_driver_tests!(@each $fixture;
            quiet_scan_walks_the_leaves_in_order,
            partial_rung_rereads_only_the_overwritten_leaf,
            stale_retained_entry_is_rewalked,
            leftmost_leaf_rewalk_assembles_in_key_order,
            overwrites_behind_and_ahead_of_the_walk_fail_validation,
            second_walk_reuses_the_pair_buffer,
            odd_version_at_read_time_is_a_failed_subrange,
            run_scan_success_records_read_lane_and_leaves,
            run_scan_retries_then_partial_rescue_counts_full_failures,
            run_scan_escalates_when_even_the_partial_rescan_fails
        );
    };
    (@each $fixture:ty; $($name:ident),*) => {
        $(
            #[test]
            fn $name() {
                $crate::scan::driver_tests::$name::<$fixture>();
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use threepath_htm::HtmConfig;

    use super::*;

    #[test]
    fn hole_bookkeeping_is_pure_interval_logic() {
        let holes = merge_subranges(vec![(10, 20), (30, 40), (19, 25), (40, 41)]);
        assert_eq!(holes, vec![(10, 25), (30, 41)]);
        assert!(intersects(&holes, 0, 11));
        assert!(!intersects(&holes, 25, 30));
        assert!(contained(&holes, 12, 25));
        assert!(!contained(&holes, 12, 26));
        assert!(
            !contained(&holes, 24, 31),
            "spanning two holes never counts"
        );
    }

    #[test]
    fn merge_subranges_coalesces_and_sorts() {
        assert_eq!(merge_subranges(vec![]), vec![]);
        assert_eq!(
            merge_subranges(vec![(5, 5), (9, 3)]),
            vec![],
            "empties dropped"
        );
        assert_eq!(
            merge_subranges(vec![(10, 20), (5, 8), (19, 25), (8, 9)]),
            vec![(5, 9), (10, 25)],
            "overlap and adjacency coalesce, gaps stay split"
        );
        assert_eq!(
            merge_subranges(vec![(0, 1), (1, 2), (3, 4)]),
            vec![(0, 2), (3, 4)]
        );
    }

    /// The version-word dependency discipline on a bare cell — no tree
    /// walk, so it holds no integer-round-tripped pointers: an unchanged
    /// even `ver` certifies the copy; any seqlock bump — the odd mid-write
    /// state or the even landing after it — invalidates the dependency.
    /// The landing case is the value-ABA defense: `ver` is monotone, so a
    /// write-away-write-back never re-certifies a stale copy.
    #[test]
    fn version_word_recheck_tracks_the_seqlock_protocol() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let ver = TxCell::new(0);
        let dep = |value| TraceEntry {
            cell: &ver,
            value,
            lo: 0,
            hi: 5,
        };
        assert!(dep(0).holds(&rt));
        // Writer opens the seqlock: odd version, dependency broken.
        ver.store_direct(&rt, 1);
        assert!(!dep(0).holds(&rt), "odd version is a mid-flight write");
        // Writer lands: even again, but larger — still broken.
        ver.store_direct(&rt, 2);
        assert!(
            !dep(0).holds(&rt),
            "a completed overwrite must not re-certify"
        );
        // A snapshot taken at the new version holds until the next bump.
        assert!(dep(2).holds(&rt));
    }
}
