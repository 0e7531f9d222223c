//! Multi-word compare-and-swap (k-CAS) and a 3-path accelerated ordered
//! list (paper Section 10.2).
//!
//! A k-CAS atomically reads `k` cells, compares them with expected values,
//! and — if all match — writes `k` new values. This crate implements:
//!
//! * [`KcasHeap::kcas`] — the software k-CAS of Harris, Fraser and Pratt
//!   (DISC 2002), built from single-word CAS via RDCSS descriptors, with
//!   helping and epoch-based descriptor reclamation (descriptors are
//!   install-reference-counted);
//! * [`KcasHeap::kcas_tx`] — the HTM replacement: one transaction that
//!   validates and writes every cell, with no descriptors at all (the
//!   optimization of Timnat, Herlihy and Petrank the paper builds on);
//! * [`KcasList`] — a sorted linked-list map whose operations run on three
//!   paths: an uninstrumented fast path (sequential list code in a
//!   transaction subscribing to `F`; it never checks for descriptors —
//!   safe because descriptors only exist while fallback operations hold
//!   `F > 0`, and transaction opacity turns any descriptor installation
//!   into an abort before the value can be observed), an HTM middle path
//!   (descriptor-aware search, transactional k-CAS update), and the
//!   lock-free software k-CAS fallback.
//!
//! Cells operated on by k-CAS must hold values whose two low bits are zero
//! (aligned pointers, or small integers shifted left by 2) — the tag space
//! distinguishes RDCSS and k-CAS descriptors.
//!
//! # Example
//!
//! ```
//! use threepath_kcas::KcasList;
//! use std::sync::Arc;
//!
//! let list = Arc::new(KcasList::new());
//! let mut h = list.handle();
//! assert!(h.insert(3, 30));
//! assert!(!h.insert(3, 31));
//! assert_eq!(h.get(3), Some(30));
//! assert_eq!(h.remove(3), Some(30));
//! assert_eq!(h.get(3), None);
//! ```

#![warn(missing_docs)]

mod heap;
mod list;

pub use heap::{KcasEntry, KcasHeap, KcasThread, MAX_K};
pub use list::{KcasList, KcasListConfig, KcasListHandle};
