//! One template tree's configuration, and the construction and teardown
//! every tree shares: a tree is built from a [`TemplateConfig`] by
//! [`TemplateConfig::build`], and frees its node graph with
//! [`drop_tree`].

use std::fmt;
use std::sync::Arc;

use threepath_htm::{HtmConfig, HtmRuntime};
use threepath_llxscx::ScxEngine;
use threepath_reclaim::{Domain, PoolConfig, ReclaimCtx, ReclaimMode};

use crate::access::ScxNode;
use crate::driver::{ExecCtx, BATCH_STRATEGIES};
use crate::strategy::{PathLimits, Strategy};

/// The knobs of one template tree. Every tree is built from one (see
/// [`Self::build`]); the default is the paper's 3-path configuration.
#[derive(Debug, Clone)]
pub struct TemplateConfig {
    /// Execution-path strategy.
    pub strategy: Strategy,
    /// Simulated-HTM parameters (the tree builds its own runtime).
    pub htm: HtmConfig,
    /// Attempt budgets; `None` uses the paper's per-strategy values.
    pub limits: Option<PathLimits>,
    /// Memory-reclamation mode (the tree builds its own domain).
    pub reclaim: ReclaimMode,
    /// Section 8: perform each update's search phase *outside* the
    /// transaction, validating links and marked bits inside it (see
    /// [`ExecCtx::run_update`]).
    pub search_outside_txn: bool,
    /// Use a SNZI instead of the fetch-and-increment counter `F`
    /// (Section 5's scalability alternative).
    pub snzi: bool,
    /// Allocate nodes from per-thread pools and recycle them on expiry
    /// instead of going through the global allocator (see
    /// [`threepath_reclaim::NodePool`]). On by default; off gives the
    /// `Box`-based baseline of allocator A/B measurements.
    pub pool: bool,
    /// Route point reads (`get`, `contains`, `first`, `last`) through the
    /// uninstrumented read path ([`ExecCtx::run_read`],
    /// [`ExecCtx::run_read_validated`]): zero transactions, locks or `F`
    /// subscription. On by default; off routes them through the template's
    /// paths ([`ExecCtx::run_query`]), the read benchmarks' baseline.
    pub read_path: bool,
    /// Route `range_query` through the uninstrumented optimistic scan
    /// ([`ExecCtx::run_scan`]), which escalates to the template's paths
    /// only after its retries and partial rescan lose. On by default; off
    /// routes scans through the template's paths, the scan benchmarks'
    /// baseline.
    pub scan_path: bool,
    /// HTM admission control on the fallback path: at most this many
    /// threads may attempt hardware transactions while the fallback is
    /// active (TLE lock held / `F != 0`); overflow threads park on a
    /// ready lane and take the fallback directly — see
    /// [`crate::AdmissionGate`]. `None` (the default) admits everyone;
    /// `Some(0)` is rejected.
    pub admission: Option<u32>,
    /// Enable the batch entry point ([`ExecCtx::run_batch`]): coalesced
    /// operation plans commit in a single fast-path transaction or one
    /// serialized section. Requires a strategy in [`BATCH_STRATEGIES`]
    /// and puts every transaction on the blended subscription discipline
    /// (one extra transactional lock read per attempt; see [`ExecCtx`]).
    pub batched: bool,
}

impl Default for TemplateConfig {
    fn default() -> Self {
        TemplateConfig {
            strategy: Strategy::ThreePath,
            htm: HtmConfig::default(),
            limits: None,
            reclaim: ReclaimMode::Epoch,
            search_outside_txn: false,
            snzi: false,
            pool: true,
            read_path: true,
            scan_path: true,
            admission: None,
            batched: false,
        }
    }
}

/// Why [`TemplateConfig::validate`] rejects a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateConfigError {
    /// `admission: Some(0)`: a window of zero threads would send every
    /// operation down the serialized path while the fallback is busy.
    ZeroAdmissionWindow,
    /// `batched` with a strategy outside [`BATCH_STRATEGIES`] (only TLE
    /// and 3-path have the single-transaction fast path plus serialized
    /// section a batch commits through).
    BatchedStrategy(Strategy),
}

impl fmt::Display for TemplateConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateConfigError::ZeroAdmissionWindow => {
                f.write_str("the HTM admission window must admit at least one thread")
            }
            TemplateConfigError::BatchedStrategy(s) => write!(
                f,
                "batched contexts require the TLE or 3-path strategy, not `{s}`"
            ),
        }
    }
}

impl std::error::Error for TemplateConfigError {}

impl TemplateConfig {
    /// Checks the knobs that cannot be combined: a zero admission window,
    /// and batching under a strategy outside [`BATCH_STRATEGIES`].
    pub fn validate(&self) -> Result<(), TemplateConfigError> {
        if self.admission == Some(0) {
            return Err(TemplateConfigError::ZeroAdmissionWindow);
        }
        if self.batched && !BATCH_STRATEGIES.contains(&self.strategy) {
            return Err(TemplateConfigError::BatchedStrategy(self.strategy));
        }
        Ok(())
    }

    /// What a tree of `N` nodes runs on: a fresh HTM runtime, a
    /// reclamation domain (whose pool, when on, has a size class fitting
    /// `N`), the LLX/SCX engine over both, and the execution context;
    /// plus the tree's initial nodes, which `init` allocates through a
    /// short-lived context of the domain, so they come from the pool too
    /// and [`drop_tree`] owns every node alike. Returns the root `init`
    /// made.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::validate`] rejects the configuration.
    pub fn build<N>(
        &self,
        init: impl FnOnce(&ReclaimCtx) -> *mut N,
    ) -> (ExecCtx, ScxEngine, *mut N) {
        let rt = Arc::new(HtmRuntime::new(self.htm.clone()));
        let pool = if self.pool {
            PoolConfig::default().with_class_of::<N>()
        } else {
            PoolConfig::disabled()
        };
        let domain = Arc::new(Domain::with_pool(self.reclaim, pool));
        let eng = ScxEngine::new(rt.clone(), domain);
        let exec = ExecCtx::new(rt, self);
        let root = init(&Domain::register(eng.domain()));
        (exec, eng, root)
    }
}

/// Frees a dropped tree's node graph: the nodes reachable from `root`,
/// where `children` pushes a node's children onto the stack it is given.
///
/// Nodes are plain data (no drop glue — asserted below), so a pooled
/// tree walks its nodes only to release the SCX-records their `info`
/// fields still hold, and only if the software path ever created one.
/// The blocks' memory belongs to arena chunks the domain releases when it
/// drops, after the limbo bags (where the released records then wait
/// too). An unpooled tree also frees each node's `Box`.
///
/// # Safety
///
/// The caller has exclusive access to the tree, and every node reachable
/// through `children` was allocated through `eng`'s domain and is still
/// linked (holds its install reference). Retired nodes released theirs
/// when retired and sit in limbo bags, never reachable, so nothing is
/// released or freed twice.
pub unsafe fn drop_tree<N: ScxNode>(
    eng: &ScxEngine,
    root: *mut N,
    children: impl Fn(&N, &mut Vec<*mut N>),
) {
    const { assert!(!std::mem::needs_drop::<N>()) };
    let pooled = eng.domain().class_of::<N>().is_some();
    let release = eng.ran_scx_orig();
    if pooled && !release {
        return;
    }
    let rt = eng.runtime();
    let ctx = Domain::register(eng.domain());
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        // SAFETY: per the contract, `n` is a live node of the tree.
        let node = unsafe { &*n };
        children(node, &mut stack);
        if release {
            // SAFETY: the node is linked, so the reference is its own,
            // and the caller has exclusive access.
            unsafe { node.scx_header().release_install(rt, &ctx) };
        }
        if !pooled {
            // SAFETY: an unpooled node is its own `Box`, freed once here.
            drop(unsafe { Box::from_raw(n) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_exactly_a_zero_window_and_unbatchable_strategies() {
        assert_eq!(TemplateConfig::default().validate(), Ok(()));
        let zero = TemplateConfig {
            admission: Some(0),
            ..TemplateConfig::default()
        };
        assert_eq!(
            zero.validate(),
            Err(TemplateConfigError::ZeroAdmissionWindow)
        );
        for strategy in Strategy::ALL {
            let cfg = TemplateConfig {
                strategy,
                batched: true,
                admission: Some(1),
                ..TemplateConfig::default()
            };
            let want = if BATCH_STRATEGIES.contains(&strategy) {
                Ok(())
            } else {
                Err(TemplateConfigError::BatchedStrategy(strategy))
            };
            assert_eq!(cfg.validate(), want, "{strategy}");
        }
    }

    #[test]
    #[should_panic(expected = "admission window must admit at least one thread")]
    fn build_panics_on_a_zero_admission_window() {
        let cfg = TemplateConfig {
            admission: Some(0),
            ..TemplateConfig::default()
        };
        let _ = cfg.build(|_| std::ptr::null_mut::<u64>());
    }
}
