//! BST nodes: Data-records with two child pointers as their mutable fields.

use threepath_htm::TxCell;
use threepath_llxscx::ScxHeader;

/// First sentinel key (the paper's ∞₁): every user key is smaller.
pub(crate) const SENT1: u64 = u64::MAX - 1;
/// Second sentinel key (∞₂): the entry node's key.
pub(crate) const SENT2: u64 = u64::MAX;
/// Largest key a user may store.
pub const MAX_KEY: u64 = u64::MAX - 2;

/// A BST node. Internal nodes route; leaves carry key/value pairs.
///
/// `key` and `is_leaf` are immutable for the node's lifetime (changing a
/// key means replacing the node), so they are plain fields: any thread that
/// can reach the node does so through an acquire-load of a child pointer
/// published after construction. `value` is written in place by the fast
/// path, so it is a [`TxCell`].
#[repr(C)]
pub(crate) struct BstNode {
    pub(crate) hdr: ScxHeader,
    /// Mutable fields (LLX snapshot order): left, right. Both null in
    /// leaves.
    children: [TxCell; 2],
    pub(crate) key: u64,
    pub(crate) value: TxCell,
    /// Seqlock-style version word for the optimistic scan path: the only
    /// in-place mutation a live leaf ever sees (the sequential insert's
    /// existing-key value overwrite) wraps the value write in an
    /// odd/even bump, so a scan certifies a copied leaf with one version
    /// check instead of re-reading the value (which would be ABA-blind).
    /// NOT part of [`BstNode::mutable`]: SCX replaces nodes wholesale and
    /// never mutates a published node in place, so the version word only
    /// tracks the sequential value overwrite.
    pub(crate) ver: TxCell,
    pub(crate) is_leaf: bool,
}

impl BstNode {
    pub(crate) fn new_leaf(key: u64, value: u64) -> BstNode {
        BstNode {
            hdr: ScxHeader::new(),
            children: [TxCell::new(0), TxCell::new(0)],
            key,
            value: TxCell::new(value),
            ver: TxCell::new(0),
            is_leaf: true,
        }
    }

    pub(crate) fn new_internal(key: u64, left: *mut BstNode, right: *mut BstNode) -> BstNode {
        BstNode {
            hdr: ScxHeader::new(),
            children: [TxCell::new(left as u64), TxCell::new(right as u64)],
            key,
            value: TxCell::new(0),
            ver: TxCell::new(0),
            is_leaf: false,
        }
    }

    /// The mutable-field slice handed to LLX.
    pub(crate) fn mutable(&self) -> &[TxCell] {
        &self.children
    }

    /// Child cell in direction `dir` (0 = left, 1 = right).
    pub(crate) fn child(&self, dir: usize) -> &TxCell {
        &self.children[dir]
    }

    /// Uncoordinated child read for quiescent traversals (validation,
    /// drop).
    pub(crate) fn child_plain(&self, dir: usize) -> *mut BstNode {
        self.children[dir].load_plain() as *mut BstNode
    }
}

/// Which child to follow searching for `key` at a node with `node_key`:
/// left when `key < node_key` (left subtree keys are `< node_key`).
#[inline]
pub(crate) fn dir_of(key: u64, node_key: u64) -> usize {
    usize::from(key >= node_key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_convention() {
        assert_eq!(dir_of(3, 5), 0);
        assert_eq!(dir_of(5, 5), 1);
        assert_eq!(dir_of(7, 5), 1);
    }

    #[test]
    fn leaf_has_null_children() {
        let l = BstNode::new_leaf(9, 90);
        assert!(l.is_leaf);
        assert!(l.child_plain(0).is_null());
        assert!(l.child_plain(1).is_null());
        assert_eq!(l.mutable().len(), 2);
    }

    #[test]
    fn internal_wires_children() {
        let a = Box::into_raw(Box::new(BstNode::new_leaf(1, 10)));
        let b = Box::into_raw(Box::new(BstNode::new_leaf(2, 20)));
        let n = BstNode::new_internal(2, a, b);
        assert!(!n.is_leaf);
        assert_eq!(n.child_plain(0), a);
        assert_eq!(n.child_plain(1), b);
        unsafe {
            drop(Box::from_raw(a));
            drop(Box::from_raw(b));
        }
    }

    #[test]
    fn node_fits_one_cache_line() {
        assert!(std::mem::size_of::<BstNode>() <= 64);
    }
}
