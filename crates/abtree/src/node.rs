//! (a,b)-tree nodes and consistent node views.

use threepath_core::TxRead;
use threepath_htm::{Abort, HtmRuntime, TxCell};
use threepath_llxscx::{ScxHeader, Snapshot};

/// Maximum node degree (the paper's `b = 16`: a leaf holds up to 16 pairs,
/// an internal node up to 16 children and 15 routing keys).
pub const B: usize = 16;

/// Minimum degree of a non-root node once rebalanced (the paper's
/// `a = 6`; `b >= 2a - 1` lets a split and a merge always succeed).
pub const A: usize = 6;
const _: () = assert!(A >= 2 && B >= 2 * A - 1);

/// Largest storable key.
pub const MAX_KEY: u64 = u64::MAX - 1;

/// An (a,b)-tree node.
///
/// `leaf` and `tagged` are immutable (structure changes replace nodes).
/// For internal nodes, `keys` and `size` are also immutable (see
/// [`AbNode::route`]) — only the child pointers in `ptrs` (the LLX mutable
/// fields) ever change, one whole edge at a time. Leaves are updated **in
/// place** by the HTM fast path (keys, values and size), which is safe
/// because the fast path never runs concurrently with the software path
/// and transactional conflict detection covers the middle path.
#[repr(C)]
pub(crate) struct AbNode {
    pub(crate) hdr: ScxHeader,
    /// Mutable fields (LLX snapshot): children (internal) / values (leaf).
    ptrs: [TxCell; B],
    /// Leaf: `size` sorted keys. Internal: `size - 1` sorted routing keys.
    keys: [TxCell; B],
    size: TxCell,
    /// Seqlock word for the uninstrumented read path, logically extending
    /// the LLX header: where `hdr.info` versions node *replacement*, `ver`
    /// versions *in-place* leaf mutation (which never touches `hdr`).
    /// Every multi-cell in-place mutation wraps itself in
    /// `ver += 1 … ver += 1` (odd while a non-transactional TLE mutation
    /// is mid-flight; transactional mutations publish the whole wrap
    /// atomically, so readers only ever observe even values from them).
    /// An optimistic reader snapshots `ver`, reads the leaf's cells with
    /// relaxed loads, re-validates `ver`, and retries the search on any
    /// change. Always 0 on internal nodes — their keys and size are
    /// immutable and their child pointers change by single atomic words.
    ver: TxCell,
    pub(crate) leaf: bool,
    pub(crate) tagged: bool,
}

impl AbNode {
    pub(crate) fn new_leaf(items: &[(u64, u64)]) -> AbNode {
        assert!(items.len() <= B);
        let n = AbNode {
            hdr: ScxHeader::new(),
            ptrs: std::array::from_fn(|_| TxCell::new(0)),
            keys: std::array::from_fn(|_| TxCell::new(0)),
            size: TxCell::new(items.len() as u64),
            ver: TxCell::new(0),
            leaf: true,
            tagged: false,
        };
        for (i, (k, v)) in items.iter().enumerate() {
            // SAFETY: node is private until published.
            unsafe {
                n.keys[i].store_plain(*k);
                n.ptrs[i].store_plain(*v);
            }
        }
        n
    }

    pub(crate) fn new_internal(keys: &[u64], children: &[u64], tagged: bool) -> AbNode {
        assert!(children.len() <= B && !children.is_empty());
        assert_eq!(keys.len() + 1, children.len());
        let n = AbNode {
            hdr: ScxHeader::new(),
            ptrs: std::array::from_fn(|_| TxCell::new(0)),
            keys: std::array::from_fn(|_| TxCell::new(0)),
            size: TxCell::new(children.len() as u64),
            ver: TxCell::new(0),
            leaf: false,
            tagged,
        };
        for (i, k) in keys.iter().enumerate() {
            // SAFETY: private until published.
            unsafe { n.keys[i].store_plain(*k) };
        }
        for (i, c) in children.iter().enumerate() {
            // SAFETY: private until published.
            unsafe { n.ptrs[i].store_plain(*c) };
        }
        n
    }

    /// The LLX mutable-field slice (child pointers / values).
    pub(crate) fn mutable(&self) -> &[TxCell] {
        &self.ptrs
    }

    pub(crate) fn ptr_cell(&self, i: usize) -> &TxCell {
        &self.ptrs[i]
    }

    pub(crate) fn key_cell(&self, i: usize) -> &TxCell {
        &self.keys[i]
    }

    pub(crate) fn size_cell(&self) -> &TxCell {
        &self.size
    }

    pub(crate) fn ver_cell(&self) -> &TxCell {
        &self.ver
    }

    /// The routing step of every descent: the index of this internal
    /// node's child covering `key`, each routing key read at most once.
    ///
    /// **Size and keys are plain loads on every path.** They are written
    /// only while the node is private (`AbNode::new_*`: `ops` and `fix`
    /// change a published internal node's child edges and header only),
    /// and the node is published by a release store of a child edge (a
    /// transaction's write-back, `store_direct` or SCX's `cas_direct`).
    /// Every reader reaches it through an acquire read of such an edge
    /// (`Txn::read` or `load_direct`; a node the reader's own transaction
    /// made is read in program order), so a relaxed load returns the one
    /// value the cell ever holds. Inside a transaction that edge is
    /// tracked: either the child was live at the read version or
    /// validation aborts (the optimistic reader re-validates it instead).
    /// The epoch pin keeps a node live at that point from being recycled
    /// under the descent. Only the chosen edge is read through the mode.
    pub(crate) fn route(&self, key: u64) -> usize {
        debug_assert!(!self.leaf, "leaves do not route");
        let size = self.size_plain();
        debug_assert!((1..=B).contains(&size));
        let mut i = 0;
        while i + 1 < size && key >= self.key_plain(i) {
            i += 1;
        }
        i
    }

    /// Read-ahead hint for an optimistic reader about to visit `p`: all
    /// of the node's cache lines, plus the line-table words its direct
    /// `ver` and child-edge loads will probe. Never dereferences `p`.
    #[inline]
    pub(crate) fn prefetch(rt: &HtmRuntime, p: *const AbNode) {
        rt.prefetch(p.cast(), std::mem::size_of::<AbNode>());
    }

    // Plain readers: quiescent (validation / drop / collect), or of an
    // internal node's immutable cells (see `route`).
    pub(crate) fn size_plain(&self) -> usize {
        self.size.load_plain() as usize
    }
    pub(crate) fn key_plain(&self, i: usize) -> u64 {
        self.keys[i].load_plain()
    }
    pub(crate) fn ptr_plain(&self, i: usize) -> u64 {
        self.ptrs[i].load_plain()
    }
}

/// A locally consistent copy of a node's logical content.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeView {
    pub keys: [u64; B],
    pub ptrs: [u64; B],
    pub size: usize,
}

impl NodeView {
    /// Reads size, then keys, then pointers through `r`, the keys and the
    /// pointers each as one span (one validation per cache line).
    pub(crate) fn read<R: TxRead>(r: &mut R, n: &AbNode) -> Result<NodeView, Abort> {
        let mut v = NodeView::keys_of(r, n)?;
        r.read_span(&n.ptrs[..v.size], &mut v.ptrs[..v.size])?;
        Ok(v)
    }

    /// Builds a view whose pointers come from an LLX snapshot (the values
    /// the linked SCX will validate), with keys and size read through `r`.
    /// Used by template operations, where keys and size are immutable.
    pub(crate) fn from_snapshot<R: TxRead>(
        r: &mut R,
        n: &AbNode,
        snap: &Snapshot,
    ) -> Result<NodeView, Abort> {
        let mut v = NodeView::keys_of(r, n)?;
        v.ptrs[..v.size].copy_from_slice(&snap.as_slice()[..v.size]);
        Ok(v)
    }

    /// A view holding `n`'s size and keys (leaf: `size`, internal:
    /// `size - 1`), pointers not yet read.
    fn keys_of<R: TxRead>(r: &mut R, n: &AbNode) -> Result<NodeView, Abort> {
        let size = r.read(&n.size)? as usize;
        debug_assert!(size <= B);
        let mut v = NodeView {
            keys: [0; B],
            ptrs: [0; B],
            size,
        };
        let nkeys = if n.leaf { size } else { size.saturating_sub(1) };
        r.read_span(&n.keys[..nkeys], &mut v.keys[..nkeys])?;
        Ok(v)
    }

    /// Leaf search: `Ok(i)` if `keys[i] == key`, else `Err(insertion_pos)`.
    pub(crate) fn find_key(&self, key: u64) -> Result<usize, usize> {
        for i in 0..self.size {
            if self.keys[i] == key {
                return Ok(i);
            }
            if self.keys[i] > key {
                return Err(i);
            }
        }
        Err(self.size)
    }

    /// Leaf items as (key, value) pairs.
    pub(crate) fn items(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.size).map(|i| (self.keys[i], self.ptrs[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threepath_htm::HtmConfig;

    fn read_plain(n: &AbNode) -> NodeView {
        NodeView::read(&mut &HtmRuntime::new(HtmConfig::default()), n).unwrap()
    }

    #[test]
    fn leaf_round_trip() {
        let n = AbNode::new_leaf(&[(1, 10), (3, 30), (5, 50)]);
        let v = read_plain(&n);
        assert_eq!(v.size, 3);
        assert_eq!(v.find_key(3), Ok(1));
        assert_eq!(v.find_key(2), Err(1));
        assert_eq!(v.find_key(9), Err(3));
        assert_eq!(v.items().collect::<Vec<_>>(), vec![(1, 10), (3, 30), (5, 50)]);
    }

    #[test]
    fn internal_view_round_trip() {
        // keys [10, 20]: children cover (-inf,10) [10,20) [20,inf).
        let n = AbNode::new_internal(&[10, 20], &[111, 222, 333], false);
        let v = read_plain(&n);
        assert_eq!(v.size, 3);
        assert_eq!(&v.keys[..2], &[10, 20]);
        assert_eq!(&v.ptrs[..3], &[111, 222, 333]);
    }

    #[test]
    fn node_spans_multiple_cache_lines() {
        // The paper notes b = 16 nodes occupy ~4 consecutive cache lines.
        let sz = std::mem::size_of::<AbNode>();
        assert!(sz >= 4 * 64, "node unexpectedly small: {sz}");
        assert!(sz <= 6 * 64, "node unexpectedly large: {sz}");
    }

    #[test]
    #[should_panic]
    fn internal_key_child_arity_checked() {
        let _ = AbNode::new_internal(&[1, 2], &[10, 20], false);
    }
}
