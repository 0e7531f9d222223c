//! Range queries: `[lo, hi)` over the leaf keys.
//!
//! The transactional version is a pruned DFS whose reads are covered by the
//! enclosing transaction (atomicity comes from the HTM system; long ranges
//! blow the capacity budget and abort — exactly the behaviour that drives
//! the paper's heavy workloads to the software paths). The software-path
//! version snapshots nodes with LLX and validates every visited `info`
//! field afterwards: if none changed, all snapshots were simultaneously
//! valid when validation began, so the result is linearizable.

use threepath_core::{ReadOp, TxRead};
use threepath_htm::Abort;
use threepath_llxscx::{LlxResult, ScxEngine, ScxThread};

use crate::node::{BstNode, SENT1};

/// A range query over `[lo, hi)`: the pruned DFS in a transaction or over
/// direct memory, the LLX-validated DFS on the software path.
pub(crate) struct Rq {
    pub root: *mut BstNode,
    pub lo: u64,
    pub hi: u64,
}

impl ReadOp for Rq {
    type Out = Vec<(u64, u64)>;

    /// Pruned DFS over `[lo, hi)` reading through `r`. Results are pushed
    /// in ascending key order.
    fn walk<R: TxRead>(&self, r: &mut R) -> Result<Vec<(u64, u64)>, Abort> {
        let (lo, hi) = (self.lo, self.hi);
        let mut out = Vec::new();
        if lo >= hi {
            return Ok(out);
        }
        let mut stack: Vec<*mut BstNode> = vec![self.root];
        while let Some(ptr) = stack.pop() {
            // SAFETY: reachable under the operation's epoch pin.
            let n = unsafe { &*ptr };
            if n.is_leaf {
                if n.key >= lo && n.key < hi && n.key < SENT1 {
                    out.push((n.key, r.read(&n.value)?));
                }
            } else {
                // Left subtree keys < n.key; right subtree keys >= n.key.
                // Push right first so the left is processed first
                // (ascending).
                if hi > n.key {
                    stack.push(r.read_ptr(n.child(1))?);
                }
                if lo < n.key {
                    stack.push(r.read_ptr(n.child(0))?);
                }
            }
        }
        Ok(out)
    }

    /// LLX-snapshot DFS plus a final validation pass. Returns `None` when
    /// validation fails (the caller retries).
    fn validated(&self, eng: &ScxEngine, th: &ScxThread) -> Option<Vec<(u64, u64)>> {
        let (lo, hi) = (self.lo, self.hi);
        let rt = eng.runtime();
        let mut out = Vec::new();
        if lo >= hi {
            return Some(out);
        }
        let mut visited: Vec<(*mut BstNode, u64)> = Vec::new();
        let mut stack: Vec<*mut BstNode> = vec![self.root];
        while let Some(ptr) = stack.pop() {
            // SAFETY: reachable under the caller's epoch pin.
            let n = unsafe { &*ptr };
            let h = match eng.llx(th, &n.hdr, n.mutable()) {
                LlxResult::Snapshot(h) => h,
                _ => return None,
            };
            visited.push((ptr, h.info_observed()));
            if n.is_leaf {
                if n.key >= lo && n.key < hi && n.key < SENT1 {
                    out.push((n.key, n.value.load_direct(rt)));
                }
            } else {
                if hi > n.key {
                    stack.push(h.snapshot().get_ptr(1));
                }
                if lo < n.key {
                    stack.push(h.snapshot().get_ptr(0));
                }
            }
        }
        // Validation: every visited node's info word is unchanged, so all
        // snapshots were simultaneously valid at the first validation
        // read.
        for (ptr, info) in &visited {
            let n = unsafe { &**ptr };
            if n.hdr.info().load_direct(rt) != *info {
                return None;
            }
        }
        out.sort_unstable_by_key(|e| e.0);
        Some(out)
    }
}
