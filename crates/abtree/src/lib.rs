//! Lock-free relaxed (a,b)-tree on the accelerated tree-update template
//! (paper Section 6.2; Jacobson & Larsen's relaxed balance scheme).
//!
//! A generalization of a B-tree: leaves hold up to `b` key-value pairs,
//! internal nodes up to `b` children, and — when no updates are in flight —
//! every non-root node has degree at least `a` (with `b >= 2a - 1`) and all
//! leaves sit at the same (weighted) depth. Updates may transiently violate
//! balance: an overflowing insert creates a *tagged* subtree-too-tall
//! parent; a shrinking delete leaves an underfull node. Each operation
//! repairs the violations it creates with separate rebalancing steps
//! (absorb/split for tags, merge/redistribute for degree), every one an
//! atomic single-pointer swing via the template.
//!
//! The paper fixes `a = 6`, `b = 16`, making nodes span several cache
//! lines; this is why the (a,b)-tree profits even more than the BST from
//! the fast path's in-place updates (no node copies on the common path).
//!
//! Transactions track only cells that can change: child edges, leaf cells
//! and `marked`. Every point descent routes on an internal node's
//! immutable size and keys with plain loads, one tracked edge per level;
//! range queries and extrema still read whole nodes through the mode.
//!
//! # Example
//!
//! ```
//! use threepath_abtree::AbTree;
//! use threepath_core::{Strategy, TemplateConfig};
//! use std::sync::Arc;
//!
//! let tree = Arc::new(AbTree::with_config(TemplateConfig {
//!     strategy: Strategy::ThreePath,
//!     ..TemplateConfig::default()
//! }));
//! let mut h = tree.handle();
//! for k in 0..100 {
//!     h.insert(k, k * 10);
//! }
//! assert_eq!(h.get(42), Some(420));
//! assert_eq!(h.range_query(10, 13), vec![(10, 100), (11, 110), (12, 120)]);
//! assert_eq!(h.remove(42), Some(420));
//! assert_eq!(tree.validate().unwrap().keys, 99);
//! ```

#![warn(missing_docs)]

mod fix;
mod node;
mod ops;
mod readpath;
mod rq;
mod scan;
mod tree;

pub use node::{A, B, MAX_KEY};
pub use tree::{AbShape, AbTree, AbTreeHandle};
