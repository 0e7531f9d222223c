//! Range queries and extrema over the (a,b)-tree.
//!
//! Each is one walk over node views, run two ways: reading every view
//! through a [`TxRead`] (in a transaction, or with direct loads under
//! TLE's lock), or, on the software path, taking every view from an LLX
//! snapshot and then re-checking each visited node's `info` word. If none
//! changed, all snapshots were simultaneously valid when the check began,
//! so the result is linearizable (the BST's range query makes the same
//! argument).

use threepath_core::{ReadOp, TxRead};
use threepath_htm::{codes, Abort};
use threepath_llxscx::{LlxResult, ScxEngine, ScxThread};

use crate::node::{AbNode, NodeView};

/// A range query over `[lo, hi)`.
pub(crate) struct Rq {
    pub entry: *mut AbNode,
    pub lo: u64,
    pub hi: u64,
}

impl ReadOp for Rq {
    type Out = Vec<(u64, u64)>;

    #[inline]
    fn walk<R: TxRead>(&self, r: &mut R) -> Result<Vec<(u64, u64)>, Abort> {
        let root = r.read_ptr(unsafe { &*self.entry }.ptr_cell(0))?;
        rq_walk(root, self.lo, self.hi, |n| NodeView::read(r, n))
    }

    #[inline]
    fn validated(&self, eng: &ScxEngine, th: &ScxThread) -> Option<Vec<(u64, u64)>> {
        llx_validated(eng, th, self.entry, |root, view| {
            rq_walk(root, self.lo, self.hi, view)
        })
    }
}

/// The first (or, with `last`, the last) pair in key order.
pub(crate) struct Extreme {
    pub entry: *mut AbNode,
    pub last: bool,
}

impl ReadOp for Extreme {
    type Out = Option<(u64, u64)>;

    #[inline]
    fn walk<R: TxRead>(&self, r: &mut R) -> Result<Option<(u64, u64)>, Abort> {
        let root = r.read_ptr(unsafe { &*self.entry }.ptr_cell(0))?;
        extreme_walk(root, self.last, |n| NodeView::read(r, n))
    }

    #[inline]
    fn validated(&self, eng: &ScxEngine, th: &ScxThread) -> Option<Option<(u64, u64)>> {
        llx_validated(eng, th, self.entry, |root, view| {
            extreme_walk(root, self.last, view)
        })
    }
}

/// Pruned DFS over `[lo, hi)` from `root`, reading each node through
/// `view`; results ascending.
fn rq_walk(
    root: *mut AbNode,
    lo: u64,
    hi: u64,
    mut view: impl FnMut(&AbNode) -> Result<NodeView, Abort>,
) -> Result<Vec<(u64, u64)>, Abort> {
    let mut out = Vec::new();
    if lo >= hi {
        return Ok(out);
    }
    let mut stack: Vec<*mut AbNode> = vec![root];
    while let Some(ptr) = stack.pop() {
        // SAFETY: reachable under the operation's epoch pin.
        let n = unsafe { &*ptr };
        let v = view(n)?;
        if n.leaf {
            for (k, val) in v.items() {
                if k >= lo && k < hi {
                    out.push((k, val));
                }
            }
        } else {
            // Child i covers [keys[i-1], keys[i]); push overlapping
            // children in reverse so the leftmost is processed first.
            for i in (0..v.size).rev() {
                let lower_ok = i == 0 || v.keys[i - 1] < hi;
                let upper_ok = i == v.size - 1 || v.keys[i] > lo;
                if lower_ok && upper_ok {
                    stack.push(v.ptrs[i] as *mut AbNode);
                }
            }
        }
    }
    // Leaves visit in ascending order, but be defensive about interleaved
    // pushes.
    out.sort_unstable_by_key(|e| e.0);
    Ok(out)
}

/// Directed extremum search from `root`, reading each node through
/// `view`: the first (or last) pair in key order, skipping transiently
/// empty leaves. O(depth) plus any empty fringe.
fn extreme_walk(
    root: *mut AbNode,
    last: bool,
    mut view: impl FnMut(&AbNode) -> Result<NodeView, Abort>,
) -> Result<Option<(u64, u64)>, Abort> {
    let mut stack: Vec<*mut AbNode> = vec![root];
    while let Some(ptr) = stack.pop() {
        // SAFETY: reachable under the operation's epoch pin.
        let n = unsafe { &*ptr };
        let v = view(n)?;
        if n.leaf {
            if v.size > 0 {
                let i = if last { v.size - 1 } else { 0 };
                return Ok(Some((v.keys[i], v.ptrs[i])));
            }
        } else if last {
            // Ascending push: the largest-index child pops first.
            for i in 0..v.size {
                stack.push(v.ptrs[i] as *mut AbNode);
            }
        } else {
            for i in (0..v.size).rev() {
                stack.push(v.ptrs[i] as *mut AbNode);
            }
        }
    }
    Ok(None)
}

/// Runs `walk` from the root with every node view taken from an LLX
/// snapshot, then re-checks each visited node's `info` word. `None` means
/// an LLX failed or a node changed: retry. Requires the caller's epoch
/// pin.
fn llx_validated<T>(
    eng: &ScxEngine,
    th: &ScxThread,
    entry: *mut AbNode,
    walk: impl FnOnce(
        *mut AbNode,
        &mut dyn FnMut(&AbNode) -> Result<NodeView, Abort>,
    ) -> Result<T, Abort>,
) -> Option<T> {
    let rt = &**eng.runtime();
    let root = unsafe { &*entry }.ptr_cell(0).load_direct(rt) as *mut AbNode;
    let mut visited: Vec<(*const AbNode, u64)> = Vec::new();
    let out = walk(root, &mut |n| {
        let LlxResult::Snapshot(h) = eng.llx(th, &n.hdr, n.mutable()) else {
            return Err(Abort::explicit(codes::LLX_FAIL));
        };
        visited.push((n, h.info_observed()));
        NodeView::from_snapshot(&mut &*rt, n, h.snapshot())
    })
    .ok()?;
    visited
        .iter()
        .all(|&(n, info)| unsafe { &*n }.hdr.info().load_direct(rt) == info)
        .then_some(out)
}
