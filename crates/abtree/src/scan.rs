//! The (a,b)-tree's node decoding for the optimistic range scan
//! ([`threepath_core::scan`], which owns the walk, the validation set and
//! the ladder).
//!
//! The multi-leaf extension of `crate::readpath`: where a point read
//! validates one root-to-leaf path, a scan records every followed child
//! edge — including the entry's edge to the root, since the entry is an
//! ordinary arity-1 internal node here — and every copied leaf's seqlock
//! `ver` word, read through [`leaf_view_optimistic`].
//!
//! **Memory parallelism.** Expanding an internal node reads each routing
//! key once with a plain load (immutable and published before the edge
//! that reached the node; the ordering argument is in [`AbNode::route`]'s
//! docs) and, for every child overlapping the scanned subrange, loads the
//! edge and issues [`AbNode::prefetch`] — the child's cache lines and the
//! line-table words its direct `ver`/edge loads will probe — before the
//! driver visits any of them. The leaves below one parent are therefore
//! fetched together rather than one dependent miss at a time; the hint
//! changes no value any load returns.

use threepath_core::scan::{ScanSource, Torn};
use threepath_htm::{HtmRuntime, TxCell};

use crate::node::{AbNode, B};
use crate::readpath::leaf_view_optimistic;

/// The (a,b)-tree below `entry`, as the scan driver walks it.
pub(crate) struct AbScan {
    pub(crate) entry: *mut AbNode,
}

// SAFETY: every cell handed to the driver is a child edge or the `ver`
// word of a node reached from `entry`; the scan's epoch pin defers the
// node's reclamation.
unsafe impl ScanSource for AbScan {
    type Node = AbNode;

    #[inline]
    fn entry(&self) -> *mut AbNode {
        self.entry
    }

    #[inline]
    fn is_leaf(&self, node: *mut AbNode) -> bool {
        // SAFETY (here and below): the driver passes nodes reached under
        // its epoch pin.
        unsafe { &*node }.leaf
    }

    #[inline]
    fn expand(
        &self,
        rt: &HtmRuntime,
        node: *mut AbNode,
        lo: u64,
        hi: u64,
        follow: &mut impl FnMut(&TxCell, *mut AbNode, u64, u64),
    ) -> Result<(), Torn> {
        let n = unsafe { &*node };
        // Internal keys and size are immutable (plain loads, see
        // `AbNode::route`): the routing-key subranges below are stable
        // properties of this node.
        let size = n.size_cell().load_plain() as usize;
        if size == 0 || size > B {
            return Err(Torn);
        }
        // Child i covers [keys[i-1], keys[i]).
        let mut klo = lo;
        for i in 0..size {
            let key = if i + 1 == size {
                u64::MAX
            } else {
                n.key_cell(i).load_plain()
            };
            let khi = key.min(hi);
            if klo < khi {
                let cell = n.ptr_cell(i);
                let child = cell.load_direct(rt) as *mut AbNode;
                AbNode::prefetch(rt, child);
                follow(cell, child, klo, khi);
            }
            if key >= hi {
                break;
            }
            klo = key.max(lo);
        }
        Ok(())
    }

    #[inline]
    fn copy_leaf(
        &self,
        rt: &HtmRuntime,
        leaf: *mut AbNode,
        lo: u64,
        hi: u64,
        pairs: &mut Vec<(u64, u64)>,
    ) -> Result<Option<(&TxCell, u64)>, Torn> {
        let n = unsafe { &*leaf };
        let (view, v1) = leaf_view_optimistic(rt, n, &mut || {}).ok_or(Torn)?;
        pairs.extend(view.items().filter(|&(k, _)| k >= lo && k < hi));
        Ok(Some((n.ver_cell(), v1)))
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

    /// entry -> inner(key 8) -> [leaf(1,10 2,20), leaf(8,80 9,90)].
    struct Fixture {
        src: AbScan,
        /// `[inner, l1, l2]`.
        nodes: [*mut AbNode; 3],
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
        type Source = AbScan;

        fn build() -> Self {
            let l1 = Box::into_raw(Box::new(AbNode::new_leaf(&[(1, 10), (2, 20)])));
            let l2 = Box::into_raw(Box::new(AbNode::new_leaf(&[(8, 80), (9, 90)])));
            let inner = AbNode::new_internal(&[8], &[l1 as u64, l2 as u64], false);
            let inner = Box::into_raw(Box::new(inner));
            let entry = AbNode::new_internal(&[], &[inner as u64], false);
            Fixture {
                src: AbScan {
                    entry: Box::into_raw(Box::new(entry)),
                },
                nodes: [inner, l1, l2],
            }
        }

        fn source(&self) -> &AbScan {
            &self.src
        }

        fn content(&self) -> Vec<(u64, u64)> {
            vec![(1, 10), (2, 20), (8, 80), (9, 90)]
        }

        fn leaves(&self) -> Vec<(*mut AbNode, u64)> {
            vec![(self.nodes[1], 1), (self.nodes[2], 8)]
        }

        fn cells<'a>(leaf: *mut AbNode) -> (&'a TxCell, &'a TxCell) {
            // SAFETY: test-owned node.
            let l = unsafe { &*leaf };
            (l.ver_cell(), l.ptr_cell(0))
        }

        fn insert_seq(rt: &HtmRuntime, entry: *mut AbNode, key: u64, value: u64) -> Option<u64> {
            let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
            let ctx = Domain::register(&domain);
            ctx.enter();
            let op = ops::Op {
                entry,
                a: 2,
                op: BatchOp::Insert(key, value),
            };
            let (old, _) = run_direct(rt, &ctx, &op);
            ctx.exit();
            old
        }
    }

    threepath_core::scan_driver_tests!(Fixture);

    /// The validation set catches a leaf *split* that lands mid-scan:
    /// after the first leaf's copy, and so after the parent's expand
    /// recorded the edge to the second leaf, the hook runs `insert_seq`'s
    /// whole in-place overflow splice on that second leaf (truncate +
    /// publish a sibling under a new parent). Its version snapshot then
    /// reads a stable even version over the truncated half, and only the
    /// edge re-validation can reject the torn scan.
    #[test]
    fn split_mid_scan_walk_is_caught_by_the_validation_set() {
        let rt = HtmRuntime::new(HtmConfig::default());
        let items: Vec<(u64, u64)> = (0..B as u64).map(|k| (100 + k * 2, k)).collect();
        let l1 = Box::into_raw(Box::new(AbNode::new_leaf(&[(1, 10)])));
        let l2 = Box::into_raw(Box::new(AbNode::new_leaf(&items)));
        let inner = AbNode::new_internal(&[100], &[l1 as u64, l2 as u64], false);
        let inner = Box::into_raw(Box::new(inner));
        let entry = Box::into_raw(Box::new(AbNode::new_internal(&[], &[inner as u64], false)));
        let src = AbScan { entry };
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        let mut state = ScanState::new();
        let mut split = false;
        let stalled = AfterCopy::new(&src, |rt: &HtmRuntime| {
            if !split {
                split = true;
                // Routes through `inner` to `l2`, which overflows.
                let op = ops::Op {
                    entry,
                    a: 2,
                    op: BatchOp::Insert(999, 1000),
                };
                let ctx = Domain::register(&domain);
                ctx.enter();
                assert_eq!(run_direct(rt, &ctx, &op), (None, true));
                ctx.exit();
            }
        });
        let r = state.attempt_full(&rt, &stalled, 0, 10_000);
        assert_eq!(r, None, "the torn scan must fail the set re-check");
        // The ladder repairs it: the edge to the split leaf changed, so the
        // partial rung re-walks its subrange through the new parent.
        let got = state
            .attempt_partial(&rt, &src)
            .expect("quiet partial rescan");
        let mut want = vec![(1, 10)];
        want.extend(&items);
        want.push((999, 1000));
        assert_eq!(got, want, "no key lost across the split");
        // SAFETY: test-owned graph — inner now points at the new parent
        // over the truncated original leaf and the fresh sibling.
        unsafe {
            let np = (*inner).ptr_plain(1) as *mut AbNode;
            let right = (*np).ptr_plain(1) as *mut AbNode;
            for n in [right, np, l2, l1, inner, entry] {
                drop(Box::from_raw(n));
            }
        }
    }
}
