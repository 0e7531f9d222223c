//! Hybrid NOrec transactional memory and a BST built on it — the paper's
//! Section 7.3 / Figure 17 comparison point.
//!
//! Hybrid NOrec (Dalessandro et al., ASPLOS 2011) combines best-effort
//! hardware transactions with the NOrec software TM (a single global
//! sequence lock plus value-based read-set validation):
//!
//! * **hardware path** — the operation runs in one hardware transaction
//!   that *subscribes* to the global sequence lock (aborting if a software
//!   commit is in flight) and, if it wrote anything, bumps the lock at
//!   commit so software transactions revalidate. That bump is the
//!   scalability trap the paper highlights: every updating hardware
//!   transaction conflicts with every other on the clock's cache line,
//!   regardless of what data they touch;
//! * **software path** — NOrec: buffered writes, value-logged reads
//!   revalidated whenever the global clock moves, commit under the
//!   sequence lock.
//!
//! As in the paper's experiment, the TM is compiled directly into the BST
//! (no function-call indirection), which is *charitable* toward the hybrid.
//! Unlinked nodes are kept in a per-handle graveyard until the tree drops —
//! the same leak-until-teardown discipline research hybrid-TM prototypes
//! use — so this baseline pays no reclamation cost at all.
//!
//! # Example
//!
//! ```
//! use threepath_hybridnorec::HnBst;
//! use std::sync::Arc;
//!
//! let tree = Arc::new(HnBst::new());
//! let mut h = tree.handle();
//! assert_eq!(h.insert(1, 10), None);
//! assert_eq!(h.get(1), Some(10));
//! assert_eq!(h.remove(1), Some(10));
//! ```

#![warn(missing_docs)]

mod bst;
mod norec;

pub use bst::{HnBst, HnBstHandle, HnConfig};
pub use norec::{NorecTm, TmAccess};
