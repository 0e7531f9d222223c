//! Range queries over the (a,b)-tree.

use threepath_core::TxRead;
use threepath_htm::Abort;
use threepath_llxscx::{LlxResult, ScxEngine, ScxThread};

use crate::node::{AbNode, NodeView};

/// Pruned DFS over `[lo, hi)` through an arbitrary read mode; results
/// ascending.
pub(crate) fn rq_with<R: TxRead>(
    r: &mut R,
    entry: *mut AbNode,
    lo: u64,
    hi: u64,
) -> Result<Vec<(u64, u64)>, Abort> {
    let mut out = Vec::new();
    if lo >= hi {
        return Ok(out);
    }
    let root = r.read_ptr::<AbNode>(unsafe { &*entry }.ptr_cell(0))?;
    let mut stack: Vec<*mut AbNode> = vec![root];
    while let Some(ptr) = stack.pop() {
        // SAFETY: reachable under the operation's epoch pin.
        let n = unsafe { &*ptr };
        let v = NodeView::read(r, n)?;
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

/// Directed extremum search: the first (or last) pair in key order,
/// skipping transiently empty leaves. O(depth) plus any empty fringe.
pub(crate) fn extreme_with<R: TxRead>(
    r: &mut R,
    entry: *mut AbNode,
    last: bool,
) -> Result<Option<(u64, u64)>, Abort> {
    let root = r.read_ptr::<AbNode>(unsafe { &*entry }.ptr_cell(0))?;
    let mut stack: Vec<*mut AbNode> = vec![root];
    while let Some(ptr) = stack.pop() {
        // SAFETY: reachable under the operation's epoch pin.
        let n = unsafe { &*ptr };
        let v = NodeView::read(r, n)?;
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

/// Software-path extremum: LLX-snapshot walk plus final info validation
/// (same linearizability argument as `rq_validated`). `None` = retry.
pub(crate) fn extreme_validated(
    eng: &ScxEngine,
    th: &ScxThread,
    entry: *mut AbNode,
    last: bool,
) -> Option<Option<(u64, u64)>> {
    let mut rt = &**eng.runtime();
    let root = unsafe { &*entry }.ptr_cell(0).load_direct(rt) as *mut AbNode;
    let mut visited: Vec<(*mut AbNode, u64)> = Vec::new();
    let mut stack: Vec<*mut AbNode> = vec![root];
    let mut found = None;
    while let Some(ptr) = stack.pop() {
        // SAFETY: reachable under the caller's epoch pin.
        let n = unsafe { &*ptr };
        let h = match eng.llx(th, &n.hdr, n.mutable()) {
            LlxResult::Snapshot(h) => h,
            _ => return None,
        };
        visited.push((ptr, h.info_observed()));
        let v = NodeView::from_snapshot(&mut rt, n, h.snapshot()).unwrap();
        if n.leaf {
            if v.size > 0 {
                let i = if last { v.size - 1 } else { 0 };
                found = Some((v.keys[i], v.ptrs[i]));
                break;
            }
        } else if last {
            for i in 0..v.size {
                stack.push(v.ptrs[i] as *mut AbNode);
            }
        } else {
            for i in (0..v.size).rev() {
                stack.push(v.ptrs[i] as *mut AbNode);
            }
        }
    }
    for (ptr, info) in &visited {
        let n = unsafe { &**ptr };
        if n.hdr.info().load_direct(rt) != *info {
            return None;
        }
    }
    Some(found)
}

/// Software-path range query: LLX-snapshot DFS plus a final validation of
/// every visited node's info word (see the BST's `rq_validated` for the
/// linearizability argument). `None` means validation failed — retry.
pub(crate) fn rq_validated(
    eng: &ScxEngine,
    th: &ScxThread,
    entry: *mut AbNode,
    lo: u64,
    hi: u64,
) -> Option<Vec<(u64, u64)>> {
    let mut rt = &**eng.runtime();
    let mut out = Vec::new();
    if lo >= hi {
        return Some(out);
    }
    let root = unsafe { &*entry }.ptr_cell(0).load_direct(rt) as *mut AbNode;
    let mut visited: Vec<(*mut AbNode, u64)> = Vec::new();
    let mut stack: Vec<*mut AbNode> = vec![root];
    while let Some(ptr) = stack.pop() {
        // SAFETY: reachable under the caller's epoch pin.
        let n = unsafe { &*ptr };
        let h = match eng.llx(th, &n.hdr, n.mutable()) {
            LlxResult::Snapshot(h) => h,
            _ => return None,
        };
        visited.push((ptr, h.info_observed()));
        let v = NodeView::from_snapshot(&mut rt, n, h.snapshot()).unwrap();
        if n.leaf {
            for (k, val) in v.items() {
                if k >= lo && k < hi {
                    out.push((k, val));
                }
            }
        } else {
            for i in (0..v.size).rev() {
                let lower_ok = i == 0 || v.keys[i - 1] < hi;
                let upper_ok = i == v.size - 1 || v.keys[i] > lo;
                if lower_ok && upper_ok {
                    stack.push(v.ptrs[i] as *mut AbNode);
                }
            }
        }
    }
    for (ptr, info) in &visited {
        let n = unsafe { &**ptr };
        if n.hdr.info().load_direct(rt) != *info {
            return None;
        }
    }
    out.sort_unstable_by_key(|e| e.0);
    Some(out)
}
