//! Lock-free external (leaf-oriented) binary search tree on the accelerated
//! tree-update template (paper Section 6.1, Figures 12–13).
//!
//! All keys live in leaves; internal nodes hold routing keys. The tree is
//! unbalanced (like the paper's: the chromatic tree without rebalancing).
//! Each operation runs under the configured [`Strategy`]:
//!
//! * **fallback path** — the original tree-update template over the
//!   CAS-based LLX/SCX: updates replace nodes (copy-on-write) and change
//!   exactly one child pointer per SCX;
//! * **middle path** (and the 2-path-con fast path) — the same template
//!   code inside one hardware transaction using the HTM LLX/SCX;
//! * **fast path** — plain sequential code inside a transaction: existing
//!   keys are updated in place, deletions splice without copying the
//!   sibling (Figure 13's reduced node creation).
//!
//! # Example
//!
//! ```
//! use threepath_bst::Bst;
//! use threepath_core::{Strategy, TemplateConfig};
//! use std::sync::Arc;
//!
//! let tree = Arc::new(Bst::with_config(TemplateConfig {
//!     strategy: Strategy::ThreePath,
//!     ..TemplateConfig::default()
//! }));
//! let mut h = tree.handle();
//! assert_eq!(h.insert(5, 50), None);
//! assert_eq!(h.get(5), Some(50));
//! assert_eq!(h.insert(5, 55), Some(50));
//! assert_eq!(h.range_query(0, 10), vec![(5, 55)]);
//! assert_eq!(h.remove(5), Some(55));
//! assert_eq!(h.get(5), None);
//! ```
//!
//! [`Strategy`]: threepath_core::Strategy

#![warn(missing_docs)]

mod node;
mod ops;
mod rq;
mod scan;
mod tree;

pub use node::MAX_KEY;
pub use tree::{Bst, BstHandle, TreeShape};
