//! The BST's node decoding for the optimistic range scan
//! ([`threepath_core::scan`], which owns the walk, the validation set and
//! the ladder).
//!
//! The validation set needs two kinds of word here. Every committed BST
//! mutation that changes the tree's shape (template SCX or sequential
//! splice) swings exactly one child pointer on the update path, so the
//! followed edges certify the walked region's shape. The one mutation
//! that swings no edge is the sequential insert's in-place value
//! overwrite, which wraps the write in an odd/even bump of
//! [`BstNode::ver`] (`crate::ops::insert_seq`), so each copied leaf's
//! `ver` certifies its value. A leaf whose key falls outside the
//! subrange, or is a sentinel, contributes no pair; its key is immutable,
//! so it needs no version word.
//!
//! There is no prefetch: a binary node has two children, so there is no
//! batch of independent misses to overlap.

use threepath_core::scan::{ScanSource, Torn};
use threepath_htm::{HtmRuntime, TxCell};

use crate::node::{BstNode, SENT1};

/// The BST below `entry`, as the scan driver walks it.
pub(crate) struct BstScan {
    pub(crate) entry: *mut BstNode,
}

// SAFETY: every cell handed to the driver is a child edge or the `ver`
// word of a node reached from `entry`; the scan's epoch pin defers the
// node's reclamation.
unsafe impl ScanSource for BstScan {
    type Node = BstNode;

    #[inline]
    fn entry(&self) -> *mut BstNode {
        self.entry
    }

    #[inline]
    fn is_leaf(&self, node: *mut BstNode) -> bool {
        // SAFETY (here and below): the driver passes nodes reached under
        // its epoch pin.
        unsafe { &*node }.is_leaf
    }

    #[inline]
    fn expand(
        &self,
        rt: &HtmRuntime,
        node: *mut BstNode,
        lo: u64,
        hi: u64,
        follow: &mut impl FnMut(&TxCell, *mut BstNode, u64, u64),
    ) -> Result<(), Torn> {
        let n = unsafe { &*node };
        // Left subtree keys < n.key; right >= n.key.
        for (dir, (clo, chi)) in [(0, (lo, n.key.min(hi))), (1, (n.key.max(lo), hi))] {
            if clo < chi {
                let cell = n.child(dir);
                follow(cell, cell.load_direct(rt) as *mut BstNode, clo, chi);
            }
        }
        Ok(())
    }

    #[inline]
    fn copy_leaf(
        &self,
        rt: &HtmRuntime,
        leaf: *mut BstNode,
        lo: u64,
        hi: u64,
        pairs: &mut Vec<(u64, u64)>,
    ) -> Result<Option<(&TxCell, u64)>, Torn> {
        let n = unsafe { &*leaf };
        if n.key < lo || n.key >= hi || n.key >= SENT1 {
            return Ok(None);
        }
        let v0 = n.ver.load_direct(rt);
        if v0 % 2 == 1 {
            // An in-place value write is in flight; the value word is
            // torn until the writer's closing bump.
            return Err(Torn);
        }
        pairs.push((n.key, n.value.load_direct(rt)));
        Ok(Some((&n.ver, v0)))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use threepath_core::scan::driver_tests::{AfterCopy, ScanFixture};
    use threepath_core::scan::ScanState;
    use threepath_core::{run_direct, BatchOp};
    use threepath_htm::HtmConfig;
    use threepath_reclaim::{Domain, ReclaimMode};

    use super::*;
    use crate::ops;

    /// A three-leaf test tree:
    ///
    /// ```text
    ///        entry(key=5)
    ///        /          \
    ///    l1(2,20)    inner(8)
    ///                /      \
    ///           l2(6,60)  l3(9,90)
    /// ```
    struct Fixture {
        src: BstScan,
        /// `[inner, l1, l2, l3]`.
        nodes: [*mut BstNode; 4],
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            // SAFETY: test-owned nodes.
            for n in [self.src.entry].into_iter().chain(self.nodes) {
                drop(unsafe { Box::from_raw(n) });
            }
        }
    }

    impl ScanFixture for Fixture {
        type Source = BstScan;

        fn build() -> Self {
            let leaf = |k, v| Box::into_raw(Box::new(BstNode::new_leaf(k, v)));
            let (l1, l2, l3) = (leaf(2, 20), leaf(6, 60), leaf(9, 90));
            let inner = Box::into_raw(Box::new(BstNode::new_internal(8, l2, l3)));
            let entry = Box::into_raw(Box::new(BstNode::new_internal(5, l1, inner)));
            Fixture {
                src: BstScan { entry },
                nodes: [inner, l1, l2, l3],
            }
        }

        fn source(&self) -> &BstScan {
            &self.src
        }

        fn content(&self) -> Vec<(u64, u64)> {
            vec![(2, 20), (6, 60), (9, 90)]
        }

        fn leaves(&self) -> Vec<(*mut BstNode, u64)> {
            vec![(self.nodes[1], 2), (self.nodes[2], 6), (self.nodes[3], 9)]
        }

        fn cells<'a>(leaf: *mut BstNode) -> (&'a TxCell, &'a TxCell) {
            // SAFETY: test-owned node.
            let l = unsafe { &*leaf };
            (&l.ver, &l.value)
        }

        fn insert_seq(rt: &HtmRuntime, entry: *mut BstNode, key: u64, value: u64) -> Option<u64> {
            let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
            let ctx = Domain::register(&domain);
            ctx.enter();
            let op = ops::Op {
                root: entry,
                op: BatchOp::Insert(key, value),
                mark_removed: false,
            };
            let old = run_direct(rt, &ctx, &op);
            ctx.exit();
            old
        }
    }

    threepath_core::scan_driver_tests!(Fixture);

    /// `scan_leaves_validated` counts leaves whose `ver` entered the
    /// trace, not leaves visited: `[6, 9)` reaches l2 and l3, but l3's key
    /// is out of range, so only l2 is validated.
    #[test]
    fn leaves_outside_the_range_are_visited_not_validated() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let t = Fixture::build();
        let mut visits = 0;
        let counted = AfterCopy::new(t.source(), |_: &HtmRuntime| visits += 1);
        let mut state = ScanState::new();
        assert_eq!(state.attempt_full(&rt, &counted, 6, 9), Some(vec![(6, 60)]));
        assert_eq!(visits, 2);
        assert_eq!(state.leaves_validated(), 1);
    }
}
