//! Rebalancing steps for the relaxed (a,b)-tree.
//!
//! A *fix step* walks from the root toward a key, stops at the first
//! violation on the path — a **tagged** node (subtree too tall, created by
//! an overflowing insert) or an **underfull** node (degree `< a`, created
//! by a delete or by a previous fix) — and repairs it with one atomic
//! pointer swing:
//!
//! * tagged `u` at the root → replace with an untagged copy;
//! * tagged `u` under `p`: **absorb** `u`'s children into a new `p'` when
//!   they fit, else **split** `p∪u` into two nodes under a new (possibly
//!   tagged) parent;
//! * underfull `u` with adjacent sibling `s`: **merge** into one node when
//!   the contents fit (collapsing the root when `p` loses its last
//!   separator), else **redistribute** evenly;
//! * a tagged sibling is repaired first (tags take precedence).
//!
//! Each step may create a new violation strictly closer to the root or
//! with fewer nodes, so the per-operation fix loop terminates. Both the
//! template executor (software/middle paths) and the sequential executor
//! (fast/TLE paths) share the same pure content planners; [`Fix`] hands
//! the two to the execution context as one operation.

use threepath_core::{Mem, OpOutcome, SeqOp, TemplateMode, TemplateOp, TxRead};
use threepath_htm::Abort;
use threepath_llxscx::ScxArgs;

use crate::node::{AbNode, NodeView, B};
use crate::ops::llx_edge;

/// The first violation on a key's path.
pub(crate) struct Violation {
    pub gp: *mut AbNode,
    pub gp_idx: usize,
    pub p: *mut AbNode,
    pub p_idx: usize,
    pub u: *mut AbNode,
    /// true: `u` is tagged; false: `u` is underfull.
    pub tagged: bool,
}

/// Walks from the entry toward `key`, returning the first violation.
pub(crate) fn find_violation<R: TxRead>(
    r: &mut R,
    entry: *mut AbNode,
    key: u64,
    a: usize,
) -> Result<Option<Violation>, Abort> {
    let mut gp: *mut AbNode = std::ptr::null_mut();
    let mut gp_idx = 0usize;
    let mut p = entry;
    let mut p_idx = 0usize;
    let mut u = r.read_ptr::<AbNode>(unsafe { &*entry }.ptr_cell(0))?;
    loop {
        // SAFETY: reachable under the operation's epoch pin.
        let un = unsafe { &*u };
        // A leaf's size changes in place; an internal node's never does
        // (see `AbNode::route`).
        let size = if un.leaf {
            r.read(un.size_cell())? as usize
        } else {
            un.size_plain()
        };
        if un.tagged || (size < a && p != entry) {
            return Ok(Some(Violation {
                gp,
                gp_idx,
                p,
                p_idx,
                u,
                tagged: un.tagged,
            }));
        }
        if un.leaf {
            return Ok(None);
        }
        gp = p;
        gp_idx = p_idx;
        p = u;
        p_idx = un.route(key);
        u = r.read_ptr(un.ptr_cell(p_idx))?;
    }
}

// ---------------------------------------------------------------------
// Pure content planners.
// ---------------------------------------------------------------------

/// A run of at most `2·B` words on the stack — the most a planner ever
/// holds is the contents of two nodes (`p ∪ u`, or two siblings) — so
/// planning a rebalancing step allocates no buffer.
#[derive(Clone)]
pub(crate) struct Run {
    buf: [u64; 2 * B],
    len: usize,
}

impl Run {
    fn new() -> Self {
        Run {
            buf: [0; 2 * B],
            len: 0,
        }
    }

    fn from_slice(words: &[u64]) -> Self {
        let mut r = Run::new();
        r.extend_from_slice(words);
        r
    }

    fn push(&mut self, w: u64) {
        self.extend_from_slice(&[w]);
    }

    fn extend_from_slice(&mut self, words: &[u64]) {
        self.buf[self.len..self.len + words.len()].copy_from_slice(words);
        self.len += words.len();
    }

    fn remove(&mut self, i: usize) {
        assert!(i < self.len, "remove index {i} out of {}", self.len);
        self.buf.copy_within(i + 1..self.len, i);
        self.len -= 1;
    }
}

impl std::ops::Deref for Run {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.buf[..self.len]
    }
}

impl std::ops::DerefMut for Run {
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.buf[..self.len]
    }
}

impl std::fmt::Debug for Run {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
impl PartialEq<Vec<u64>> for Run {
    fn eq(&self, other: &Vec<u64>) -> bool {
        **self == **other
    }
}

/// Blueprint for a node to construct.
#[derive(Debug, Clone)]
pub(crate) struct Spec {
    pub leaf: bool,
    pub tagged: bool,
    pub keys: Run,
    pub ptrs: Run,
}

impl Spec {
    pub(crate) fn build(&self) -> AbNode {
        debug_assert!(self.ptrs.len() <= B);
        if self.leaf {
            debug_assert_eq!(self.keys.len(), self.ptrs.len());
            let mut items = [(0, 0); B];
            for (item, pair) in items.iter_mut().zip(self.keys.iter().zip(self.ptrs.iter())) {
                *item = (*pair.0, *pair.1);
            }
            AbNode::new_leaf(&items[..self.keys.len()])
        } else {
            AbNode::new_internal(&self.keys, &self.ptrs, self.tagged)
        }
    }
}

/// A plain copy of `v` with the given tag.
pub(crate) fn copy_spec(v: &NodeView, leaf: bool, tagged: bool) -> Spec {
    let nkeys = if leaf { v.size } else { v.size - 1 };
    Spec {
        leaf,
        tagged,
        keys: Run::from_slice(&v.keys[..nkeys]),
        ptrs: Run::from_slice(&v.ptrs[..v.size]),
    }
}

/// `p ∪ u` flattened: `u`'s children spliced in place of `u`, `u`'s keys
/// spliced at the same position (both nodes internal).
fn flatten(pv: &NodeView, uv: &NodeView, u_idx: usize) -> (Run, Run) {
    let mut keys = Run::new();
    let mut ptrs = Run::new();
    keys.extend_from_slice(&pv.keys[..u_idx]);
    keys.extend_from_slice(&uv.keys[..uv.size - 1]);
    keys.extend_from_slice(&pv.keys[u_idx..pv.size - 1]);
    ptrs.extend_from_slice(&pv.ptrs[..u_idx]);
    ptrs.extend_from_slice(&uv.ptrs[..uv.size]);
    ptrs.extend_from_slice(&pv.ptrs[u_idx + 1..pv.size]);
    debug_assert_eq!(keys.len() + 1, ptrs.len());
    (keys, ptrs)
}

/// Absorb plan: new `p'` when `deg(p) - 1 + deg(u) <= b`.
pub(crate) fn absorb_spec(pv: &NodeView, uv: &NodeView, u_idx: usize) -> Spec {
    let (keys, ptrs) = flatten(pv, uv, u_idx);
    debug_assert!(ptrs.len() <= B);
    Spec {
        leaf: false,
        tagged: false,
        keys,
        ptrs,
    }
}

/// Split plan for `p ∪ u` too large: two internals plus the pivot key.
pub(crate) fn split_tag_specs(pv: &NodeView, uv: &NodeView, u_idx: usize) -> (Spec, Spec, u64) {
    let (keys, ptrs) = flatten(pv, uv, u_idx);
    let t = ptrs.len();
    debug_assert!(t > B && t <= 2 * B);
    let ls = t.div_ceil(2);
    let left = Spec {
        leaf: false,
        tagged: false,
        keys: Run::from_slice(&keys[..ls - 1]),
        ptrs: Run::from_slice(&ptrs[..ls]),
    };
    let right = Spec {
        leaf: false,
        tagged: false,
        keys: Run::from_slice(&keys[ls..]),
        ptrs: Run::from_slice(&ptrs[ls..]),
    };
    (left, right, keys[ls - 1])
}

/// Concatenation of two adjacent siblings (leaf: pairs; internal: children
/// with the parent's separator pulled down).
fn concat(lv: &NodeView, rv: &NodeView, leaf: bool, pulldown: u64) -> (Run, Run) {
    let mut keys = Run::new();
    let mut ptrs = Run::new();
    if leaf {
        keys.extend_from_slice(&lv.keys[..lv.size]);
        keys.extend_from_slice(&rv.keys[..rv.size]);
    } else {
        keys.extend_from_slice(&lv.keys[..lv.size - 1]);
        keys.push(pulldown);
        keys.extend_from_slice(&rv.keys[..rv.size - 1]);
    }
    ptrs.extend_from_slice(&lv.ptrs[..lv.size]);
    ptrs.extend_from_slice(&rv.ptrs[..rv.size]);
    (keys, ptrs)
}

/// Merge plan: one node `w` holding both siblings' contents.
pub(crate) fn merge_spec(lv: &NodeView, rv: &NodeView, leaf: bool, pulldown: u64) -> Spec {
    let (keys, ptrs) = concat(lv, rv, leaf, pulldown);
    debug_assert!(ptrs.len() <= B);
    Spec {
        leaf,
        tagged: false,
        keys,
        ptrs,
    }
}

/// New parent after a merge: child `li` replaced by `w` (placeholder 0 in
/// `ptrs[li]`, patched by the executor), child `li + 1` and separator
/// `keys[li]` removed.
pub(crate) fn parent_after_merge(pv: &NodeView, li: usize) -> Spec {
    let mut keys = Run::from_slice(&pv.keys[..pv.size - 1]);
    keys.remove(li);
    let mut ptrs = Run::from_slice(&pv.ptrs[..pv.size]);
    ptrs.remove(li + 1);
    ptrs[li] = 0; // patched with w
    Spec {
        leaf: false,
        tagged: false,
        keys,
        ptrs,
    }
}

/// Redistribute plan: both siblings rebuilt with balanced contents plus the
/// new separator for the parent.
pub(crate) fn redistribute_specs(
    lv: &NodeView,
    rv: &NodeView,
    leaf: bool,
    pulldown: u64,
) -> (Spec, Spec, u64) {
    let (keys, ptrs) = concat(lv, rv, leaf, pulldown);
    let t = ptrs.len();
    debug_assert!(t > B);
    let ls = t.div_ceil(2);
    if leaf {
        let left = Spec {
            leaf: true,
            tagged: false,
            keys: Run::from_slice(&keys[..ls]),
            ptrs: Run::from_slice(&ptrs[..ls]),
        };
        let right = Spec {
            leaf: true,
            tagged: false,
            keys: Run::from_slice(&keys[ls..]),
            ptrs: Run::from_slice(&ptrs[ls..]),
        };
        let pivot = keys[ls];
        (left, right, pivot)
    } else {
        let left = Spec {
            leaf: false,
            tagged: false,
            keys: Run::from_slice(&keys[..ls - 1]),
            ptrs: Run::from_slice(&ptrs[..ls]),
        };
        let right = Spec {
            leaf: false,
            tagged: false,
            keys: Run::from_slice(&keys[ls..]),
            ptrs: Run::from_slice(&ptrs[ls..]),
        };
        (left, right, keys[ls - 1])
    }
}

/// New parent after a redistribute: children `li`, `li + 1` become the two
/// placeholders; separator `keys[li]` becomes `pivot`.
pub(crate) fn parent_after_redistribute(pv: &NodeView, li: usize, pivot: u64) -> Spec {
    let mut keys = Run::from_slice(&pv.keys[..pv.size - 1]);
    keys[li] = pivot;
    let mut ptrs = Run::from_slice(&pv.ptrs[..pv.size]);
    ptrs[li] = 0; // patched with new left
    ptrs[li + 1] = 0; // patched with new right
    Spec {
        leaf: false,
        tagged: false,
        keys,
        ptrs,
    }
}

// ---------------------------------------------------------------------
// Template executor (software path and middle path).
// ---------------------------------------------------------------------

fn fix_tag_tmpl<M: TemplateMode>(
    m: &mut M,
    entry: *mut AbNode,
    v: &Violation,
) -> Result<OpOutcome<bool>, Abort> {
    let p = unsafe { &*v.p };
    let u = unsafe { &*v.u };

    if v.p == entry {
        // Tagged root: replace with an untagged copy.
        let Some(hp) = llx_edge(m, p, 0, v.u)? else {
            return Ok(OpOutcome::Retry);
        };
        let Some(hu) = m.llx(&u.hdr, u.mutable())? else {
            return Ok(OpOutcome::Retry);
        };
        let uv = NodeView::from_snapshot(m, u, hu.snapshot())?;
        let copy = m.alloc(copy_spec(&uv, u.leaf, false).build());
        let ok = m.scx(&ScxArgs {
            v: &[&hp, &hu],
            r_mask: 0b10,
            fld: p.ptr_cell(0),
            old: v.u as u64,
            new: copy as u64,
        })?;
        return if ok {
            // SAFETY: finalized and unlinked.
            unsafe { m.retire(v.u) };
            Ok(OpOutcome::Done(true))
        } else {
            // SAFETY: never published.
            unsafe { m.free_unpublished(copy) };
            Ok(OpOutcome::Retry)
        };
    }

    debug_assert!(!v.gp.is_null());
    let gp = unsafe { &*v.gp };
    let Some(hgp) = llx_edge(m, gp, v.gp_idx, v.p)? else {
        return Ok(OpOutcome::Retry);
    };
    let Some(hp) = llx_edge(m, p, v.p_idx, v.u)? else {
        return Ok(OpOutcome::Retry);
    };
    let Some(hu) = m.llx(&u.hdr, u.mutable())? else {
        return Ok(OpOutcome::Retry);
    };
    let pv = NodeView::from_snapshot(m, p, hp.snapshot())?;
    let uv = NodeView::from_snapshot(m, u, hu.snapshot())?;

    if pv.size - 1 + uv.size <= B {
        // Absorb u into p.
        let pn = m.alloc(absorb_spec(&pv, &uv, v.p_idx).build());
        let ok = m.scx(&ScxArgs {
            v: &[&hgp, &hp, &hu],
            r_mask: 0b110,
            fld: gp.ptr_cell(v.gp_idx),
            old: v.p as u64,
            new: pn as u64,
        })?;
        if ok {
            // SAFETY: finalized and unlinked.
            unsafe {
                m.retire(v.p);
                m.retire(v.u);
            }
            Ok(OpOutcome::Done(true))
        } else {
            // SAFETY: never published.
            unsafe { m.free_unpublished(pn) };
            Ok(OpOutcome::Retry)
        }
    } else {
        // Split p ∪ u.
        let (ls, rs, pivot) = split_tag_specs(&pv, &uv, v.p_idx);
        let left = m.alloc(ls.build());
        let right = m.alloc(rs.build());
        let np_tagged = v.gp != entry;
        let np = m.alloc(AbNode::new_internal(
            &[pivot],
            &[left as u64, right as u64],
            np_tagged,
        ));
        let ok = m.scx(&ScxArgs {
            v: &[&hgp, &hp, &hu],
            r_mask: 0b110,
            fld: gp.ptr_cell(v.gp_idx),
            old: v.p as u64,
            new: np as u64,
        })?;
        if ok {
            // SAFETY: finalized and unlinked.
            unsafe {
                m.retire(v.p);
                m.retire(v.u);
            }
            Ok(OpOutcome::Done(true))
        } else {
            // SAFETY: never published.
            unsafe {
                m.free_unpublished(np);
                m.free_unpublished(right);
                m.free_unpublished(left);
            }
            Ok(OpOutcome::Retry)
        }
    }
}

fn fix_degree_tmpl<M: TemplateMode>(
    m: &mut M,
    entry: *mut AbNode,
    v: &Violation,
) -> Result<OpOutcome<bool>, Abort> {
    debug_assert!(v.p != entry, "root is exempt from the degree rule");
    debug_assert!(!v.gp.is_null());
    let gp = unsafe { &*v.gp };
    let p = unsafe { &*v.p };
    let u = unsafe { &*v.u };

    let Some(hgp) = llx_edge(m, gp, v.gp_idx, v.p)? else {
        return Ok(OpOutcome::Retry);
    };
    let Some(hp) = llx_edge(m, p, v.p_idx, v.u)? else {
        return Ok(OpOutcome::Retry);
    };
    let pv = NodeView::from_snapshot(m, p, hp.snapshot())?;

    if pv.size == 1 {
        // Degree-1 parent: it must be the root (anything else would have
        // been flagged first on the walk). Collapse a level.
        debug_assert!(v.gp == entry, "degree-1 internal below the root");
        let Some(hu) = m.llx(&u.hdr, u.mutable())? else {
            return Ok(OpOutcome::Retry);
        };
        let uv = NodeView::from_snapshot(m, u, hu.snapshot())?;
        let copy = m.alloc(copy_spec(&uv, u.leaf, false).build());
        let ok = m.scx(&ScxArgs {
            v: &[&hgp, &hp, &hu],
            r_mask: 0b110,
            fld: gp.ptr_cell(v.gp_idx),
            old: v.p as u64,
            new: copy as u64,
        })?;
        return if ok {
            // SAFETY: finalized and unlinked.
            unsafe {
                m.retire(v.p);
                m.retire(v.u);
            }
            Ok(OpOutcome::Done(true))
        } else {
            // SAFETY: never published.
            unsafe { m.free_unpublished(copy) };
            Ok(OpOutcome::Retry)
        };
    }

    // Adjacent sibling.
    let s_idx = if v.p_idx > 0 { v.p_idx - 1 } else { 1 };
    let s_ptr = pv.ptrs[s_idx] as *mut AbNode;
    let s = unsafe { &*s_ptr };
    if s.tagged {
        // Tags are repaired before degree violations.
        let vs = Violation {
            gp: v.gp,
            gp_idx: v.gp_idx,
            p: v.p,
            p_idx: s_idx,
            u: s_ptr,
            tagged: true,
        };
        return fix_tag_tmpl(m, entry, &vs);
    }

    // Order left-to-right for a canonical V sequence.
    let (li, l_ptr, r_ptr) = if s_idx < v.p_idx {
        (s_idx, s_ptr, v.u)
    } else {
        (v.p_idx, v.u, s_ptr)
    };
    let ln = unsafe { &*l_ptr };
    let rn = unsafe { &*r_ptr };
    let Some(hl) = m.llx(&ln.hdr, ln.mutable())? else {
        return Ok(OpOutcome::Retry);
    };
    let Some(hr) = m.llx(&rn.hdr, rn.mutable())? else {
        return Ok(OpOutcome::Retry);
    };
    let lv = NodeView::from_snapshot(m, ln, hl.snapshot())?;
    let rv = NodeView::from_snapshot(m, rn, hr.snapshot())?;
    let leaf = ln.leaf;
    debug_assert_eq!(leaf, rn.leaf, "siblings at different heights");
    let pulldown = pv.keys[li];

    if lv.size + rv.size <= B {
        // Merge.
        let w = m.alloc(merge_spec(&lv, &rv, leaf, pulldown).build());
        let (fld_node, fld_idx, new_top): (&AbNode, usize, *mut AbNode) =
            if pv.size == 2 && v.gp == entry {
                // p loses its last separator and gp is the entry: collapse
                // the root level, making w the root.
                (gp, v.gp_idx, w)
            } else {
                let mut spec = parent_after_merge(&pv, li);
                spec.ptrs[li] = w as u64;
                let pn = m.alloc(spec.build());
                (gp, v.gp_idx, pn)
            };
        let ok = m.scx(&ScxArgs {
            v: &[&hgp, &hp, &hl, &hr],
            r_mask: 0b1110,
            fld: fld_node.ptr_cell(fld_idx),
            old: v.p as u64,
            new: new_top as u64,
        })?;
        if ok {
            // SAFETY: finalized and unlinked.
            unsafe {
                m.retire(v.p);
                m.retire(l_ptr);
                m.retire(r_ptr);
            }
            Ok(OpOutcome::Done(true))
        } else {
            // SAFETY: never published.
            unsafe {
                if new_top != w {
                    m.free_unpublished(new_top);
                }
                m.free_unpublished(w);
            }
            Ok(OpOutcome::Retry)
        }
    } else {
        // Redistribute.
        let (lspec, rspec, pivot) = redistribute_specs(&lv, &rv, leaf, pulldown);
        let nl = m.alloc(lspec.build());
        let nr = m.alloc(rspec.build());
        let mut pspec = parent_after_redistribute(&pv, li, pivot);
        pspec.ptrs[li] = nl as u64;
        pspec.ptrs[li + 1] = nr as u64;
        let pn = m.alloc(pspec.build());
        let ok = m.scx(&ScxArgs {
            v: &[&hgp, &hp, &hl, &hr],
            r_mask: 0b1110,
            fld: gp.ptr_cell(v.gp_idx),
            old: v.p as u64,
            new: pn as u64,
        })?;
        if ok {
            // SAFETY: finalized and unlinked.
            unsafe {
                m.retire(v.p);
                m.retire(l_ptr);
                m.retire(r_ptr);
            }
            Ok(OpOutcome::Done(true))
        } else {
            // SAFETY: never published.
            unsafe {
                m.free_unpublished(pn);
                m.free_unpublished(nr);
                m.free_unpublished(nl);
            }
            Ok(OpOutcome::Retry)
        }
    }
}

// ---------------------------------------------------------------------
// Sequential executor (fast path and TLE under-lock path).
// ---------------------------------------------------------------------

fn retire_marked<M: Mem>(m: &mut M, node: *mut AbNode, mark: bool) -> Result<(), Abort> {
    if mark {
        m.write(unsafe { &*node }.hdr.marked(), 1)?;
    }
    // SAFETY: unlinked by the caller's pointer swing (atomic with these
    // writes via the enclosing transaction, or exclusive under TLE's lock).
    unsafe { m.retire(node) };
    Ok(())
}

fn fix_violation_seq<M: Mem>(
    m: &mut M,
    entry: *mut AbNode,
    v: &Violation,
    mark: bool,
) -> Result<(), Abort> {
    let p = unsafe { &*v.p };
    let u = unsafe { &*v.u };
    if v.tagged {
        if v.p == entry {
            // Untag the root.
            let uv = NodeView::read(m, u)?;
            let copy = m.alloc(copy_spec(&uv, u.leaf, false).build());
            m.write(p.ptr_cell(0), copy as u64)?;
            return retire_marked(m, v.u, mark);
        }
        let gp = unsafe { &*v.gp };
        let pv = NodeView::read(m, p)?;
        let uv = NodeView::read(m, u)?;
        if pv.size - 1 + uv.size <= B {
            let pn = m.alloc(absorb_spec(&pv, &uv, v.p_idx).build());
            m.write(gp.ptr_cell(v.gp_idx), pn as u64)?;
        } else {
            let (ls, rs, pivot) = split_tag_specs(&pv, &uv, v.p_idx);
            let left = m.alloc(ls.build());
            let right = m.alloc(rs.build());
            let np = m.alloc(AbNode::new_internal(
                &[pivot],
                &[left as u64, right as u64],
                v.gp != entry,
            ));
            m.write(gp.ptr_cell(v.gp_idx), np as u64)?;
        }
        retire_marked(m, v.p, mark)?;
        return retire_marked(m, v.u, mark);
    }

    // Degree violation.
    debug_assert!(v.p != entry);
    let gp = unsafe { &*v.gp };
    let pv = NodeView::read(m, p)?;
    if pv.size == 1 {
        debug_assert!(v.gp == entry, "degree-1 internal below the root");
        let uv = NodeView::read(m, u)?;
        let copy = m.alloc(copy_spec(&uv, u.leaf, false).build());
        m.write(gp.ptr_cell(v.gp_idx), copy as u64)?;
        retire_marked(m, v.p, mark)?;
        return retire_marked(m, v.u, mark);
    }
    let s_idx = if v.p_idx > 0 { v.p_idx - 1 } else { 1 };
    let s_ptr = pv.ptrs[s_idx] as *mut AbNode;
    let s = unsafe { &*s_ptr };
    if s.tagged {
        let vs = Violation {
            gp: v.gp,
            gp_idx: v.gp_idx,
            p: v.p,
            p_idx: s_idx,
            u: s_ptr,
            tagged: true,
        };
        return fix_violation_seq(m, entry, &vs, mark);
    }
    let (li, l_ptr, r_ptr) = if s_idx < v.p_idx {
        (s_idx, s_ptr, v.u)
    } else {
        (v.p_idx, v.u, s_ptr)
    };
    let ln = unsafe { &*l_ptr };
    let rn = unsafe { &*r_ptr };
    let lv = NodeView::read(m, ln)?;
    let rv = NodeView::read(m, rn)?;
    let leaf = ln.leaf;
    let pulldown = pv.keys[li];

    if lv.size + rv.size <= B {
        let w = m.alloc(merge_spec(&lv, &rv, leaf, pulldown).build());
        if pv.size == 2 && v.gp == entry {
            m.write(gp.ptr_cell(v.gp_idx), w as u64)?;
        } else {
            let mut spec = parent_after_merge(&pv, li);
            spec.ptrs[li] = w as u64;
            let pn = m.alloc(spec.build());
            m.write(gp.ptr_cell(v.gp_idx), pn as u64)?;
        }
    } else {
        let (lspec, rspec, pivot) = redistribute_specs(&lv, &rv, leaf, pulldown);
        let nl = m.alloc(lspec.build());
        let nr = m.alloc(rspec.build());
        let mut pspec = parent_after_redistribute(&pv, li, pivot);
        pspec.ptrs[li] = nl as u64;
        pspec.ptrs[li + 1] = nr as u64;
        let pn = m.alloc(pspec.build());
        m.write(gp.ptr_cell(v.gp_idx), pn as u64)?;
    }
    retire_marked(m, v.p, mark)?;
    retire_marked(m, l_ptr, mark)?;
    retire_marked(m, r_ptr, mark)
}

/// One rebalancing step on `key`'s path: whether a violation was found
/// (and repaired, or an SCX attempted). Its search is empty: both bodies
/// find their violation themselves, in the memory mode they run in.
/// `mark_removed` is set in Section 8 mode so out-of-transaction searches
/// can detect removed nodes.
pub(crate) struct Fix {
    pub entry: *mut AbNode,
    pub a: usize,
    pub key: u64,
    pub mark_removed: bool,
}

impl SeqOp for Fix {
    type Found = ();
    type Out = bool;

    #[inline]
    fn search<R: TxRead>(&self, _r: &mut R) -> Result<(), Abort> {
        Ok(())
    }

    /// Plain reads and writes inside the enclosing transaction (or under
    /// the TLE lock). Rebalancing creates new nodes and swings one pointer
    /// even on the fast path — the paper found in-place rebalancing
    /// slower.
    #[inline]
    fn seq<M: Mem>(&self, m: &mut M, _f: &(), _validate: bool) -> Result<bool, Abort> {
        let Some(v) = find_violation(m, self.entry, self.key, self.a)? else {
            return Ok(false);
        };
        fix_violation_seq(m, self.entry, &v, self.mark_removed)?;
        Ok(true)
    }
}

impl TemplateOp for Fix {
    /// The tree-update template; `Retry` when a linked LLX or the SCX
    /// failed.
    #[inline]
    fn tmpl<M: TemplateMode>(&self, m: &mut M, _f: &()) -> Result<OpOutcome<bool>, Abort> {
        let Some(v) = find_violation(m, self.entry, self.key, self.a)? else {
            return Ok(OpOutcome::Done(false));
        };
        if v.tagged {
            fix_tag_tmpl(m, self.entry, &v)
        } else {
            fix_degree_tmpl(m, self.entry, &v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(keys: &[u64], ptrs: &[u64]) -> NodeView {
        let mut v = NodeView {
            keys: [0; B],
            ptrs: [0; B],
            size: ptrs.len(),
        };
        v.keys[..keys.len()].copy_from_slice(keys);
        v.ptrs[..ptrs.len()].copy_from_slice(ptrs);
        v
    }

    #[test]
    fn absorb_splices_children() {
        // p: keys [10, 20], children [A, U, C]; u at index 1 with keys [12,
        // 15], children [x, y, z].
        let pv = view(&[10, 20], &[1, 2, 3]);
        let uv = view(&[12, 15], &[7, 8, 9]);
        let s = absorb_spec(&pv, &uv, 1);
        assert_eq!(s.keys, vec![10, 12, 15, 20]);
        assert_eq!(s.ptrs, vec![1, 7, 8, 9, 3]);
        assert!(!s.tagged);
    }

    #[test]
    fn split_halves_and_pivot() {
        // Build a flattened sequence of 18 children (> B = 16).
        let pkeys: Vec<u64> = (1..16).map(|i| i * 100).collect(); // 15 keys
        let pptrs: Vec<u64> = (0..16).collect(); // 16 children
        let pv = view(&pkeys, &pptrs);
        let uv = view(&[250, 260], &[90, 91, 92]); // u at index 2
        let (l, r, pivot) = split_tag_specs(&pv, &uv, 2);
        let total = l.ptrs.len() + r.ptrs.len();
        assert_eq!(total, 18);
        assert_eq!(l.ptrs.len(), 9);
        assert_eq!(l.keys.len() + 1, l.ptrs.len());
        assert_eq!(r.keys.len() + 1, r.ptrs.len());
        // Pivot separates the two halves.
        assert!(l.keys.iter().all(|k| *k < pivot));
        assert!(r.keys.iter().all(|k| *k >= pivot));
    }

    #[test]
    fn merge_leaf_concatenates() {
        let lv = view(&[1, 2], &[10, 20]);
        let rv = view(&[5, 6], &[50, 60]);
        let s = merge_spec(&lv, &rv, true, 0);
        assert_eq!(s.keys, vec![1, 2, 5, 6]);
        assert_eq!(s.ptrs, vec![10, 20, 50, 60]);
        assert!(s.leaf);
    }

    #[test]
    fn merge_internal_pulls_down_separator() {
        let lv = view(&[5], &[1, 2]);
        let rv = view(&[20], &[3, 4]);
        let s = merge_spec(&lv, &rv, false, 10);
        assert_eq!(s.keys, vec![5, 10, 20]);
        assert_eq!(s.ptrs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn parent_after_merge_drops_separator() {
        let pv = view(&[10, 20], &[1, 2, 3]);
        let s = parent_after_merge(&pv, 0);
        assert_eq!(s.keys, vec![20]);
        assert_eq!(s.ptrs, vec![0, 3]); // slot 0 patched with w
    }

    #[test]
    fn redistribute_leaf_balances() {
        let lkeys: Vec<u64> = (0..3).collect();
        let lptrs: Vec<u64> = (0..3).collect();
        let rkeys: Vec<u64> = (10..26).collect(); // full sibling
        let rptrs: Vec<u64> = (10..26).collect();
        let lv = view(&lkeys, &lptrs);
        let rv = view(&rkeys, &rptrs);
        let (l, r, pivot) = redistribute_specs(&lv, &rv, true, 0);
        assert_eq!(l.ptrs.len() + r.ptrs.len(), 19);
        assert_eq!(l.ptrs.len(), 10);
        assert_eq!(pivot, r.keys[0]);
        assert!(l.keys.iter().all(|k| *k < pivot));
    }

    #[test]
    fn redistribute_internal_rotates_through_parent() {
        let lkeys: Vec<u64> = (1..3).collect(); // 2 keys, 3 children
        let lptrs: Vec<u64> = (0..3).collect();
        let rkeys: Vec<u64> = (20..35).collect(); // 15 keys, 16 children
        let rptrs: Vec<u64> = (100..116).collect();
        let lv = view(&lkeys, &lptrs);
        let rv = view(&rkeys, &rptrs);
        let (l, r, pivot) = redistribute_specs(&lv, &rv, false, 10);
        assert_eq!(l.ptrs.len() + r.ptrs.len(), 19);
        assert_eq!(l.keys.len() + 1, l.ptrs.len());
        assert_eq!(r.keys.len() + 1, r.ptrs.len());
        assert!(l.keys.iter().all(|k| *k < pivot));
        assert!(r.keys.iter().all(|k| *k > pivot || *k >= pivot));
    }

    #[test]
    fn parent_after_redistribute_rekeys() {
        let pv = view(&[10, 20], &[1, 2, 3]);
        let s = parent_after_redistribute(&pv, 1, 15);
        assert_eq!(s.keys, vec![10, 15]);
        assert_eq!(s.ptrs, vec![1, 0, 0]);
    }

    mod planner_properties {
        //! Property-based checks of the rebalancing planners: element
        //! preservation, arity bounds, and key ordering for arbitrary
        //! well-formed inputs.

        use super::*;
        use proptest::prelude::*;

        /// Arbitrary internal parent + tagged child at a random slot, with
        /// strictly ascending keys spliced consistently.
        fn parent_child_strategy() -> impl Strategy<Value = (NodeView, NodeView, usize)> {
            (2..=B, 1..=B).prop_flat_map(|(dp, du)| {
                (0..dp).prop_map(move |u_idx| {
                    // Parent keys: 10, 20, ...; u's keys nest strictly
                    // inside (K[u_idx-1], K[u_idx]).
                    let mut pv = NodeView {
                        keys: [0; B],
                        ptrs: [0; B],
                        size: dp,
                    };
                    for i in 0..dp - 1 {
                        pv.keys[i] = (i as u64 + 1) * 1000;
                    }
                    for i in 0..dp {
                        pv.ptrs[i] = 0xA000 + i as u64 * 8;
                    }
                    let lo = if u_idx == 0 { 0 } else { pv.keys[u_idx - 1] };
                    let mut uv = NodeView {
                        keys: [0; B],
                        ptrs: [0; B],
                        size: du,
                    };
                    for i in 0..du.saturating_sub(1) {
                        uv.keys[i] = lo + 1 + i as u64;
                    }
                    for i in 0..du {
                        uv.ptrs[i] = 0xB000 + i as u64 * 8;
                    }
                    (pv, uv, u_idx)
                })
            })
        }

        fn keys_sorted(keys: &[u64]) -> bool {
            keys.windows(2).all(|w| w[0] < w[1])
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            #[test]
            fn absorb_or_split_preserves_children_and_order((pv, uv, u_idx) in parent_child_strategy()) {
                let total = pv.size - 1 + uv.size;
                let mut expect_children: Vec<u64> = Vec::new();
                expect_children.extend_from_slice(&pv.ptrs[..u_idx]);
                expect_children.extend_from_slice(&uv.ptrs[..uv.size]);
                expect_children.extend_from_slice(&pv.ptrs[u_idx + 1..pv.size]);

                if total <= B {
                    let s = absorb_spec(&pv, &uv, u_idx);
                    prop_assert_eq!(&s.ptrs, &expect_children);
                    prop_assert_eq!(s.keys.len() + 1, s.ptrs.len());
                    prop_assert!(keys_sorted(&s.keys));
                    prop_assert!(!s.tagged);
                } else {
                    let (l, r, pivot) = split_tag_specs(&pv, &uv, u_idx);
                    let mut got = l.ptrs.clone();
                    got.extend_from_slice(&r.ptrs);
                    prop_assert_eq!(&got, &expect_children);
                    prop_assert_eq!(l.keys.len() + 1, l.ptrs.len());
                    prop_assert_eq!(r.keys.len() + 1, r.ptrs.len());
                    prop_assert!(l.ptrs.len() <= B && r.ptrs.len() <= B);
                    prop_assert!(keys_sorted(&l.keys) && keys_sorted(&r.keys));
                    prop_assert!(l.keys.iter().all(|k| *k < pivot));
                    prop_assert!(r.keys.iter().all(|k| *k > pivot));
                    // Both halves keep at least ceil((B+1)/2) - ish degree:
                    // never underfull for a = 6 with b = 16.
                    prop_assert!(l.ptrs.len() >= B.div_ceil(2));
                    prop_assert!(r.ptrs.len() >= B.div_ceil(2) - 1);
                }
            }

            #[test]
            fn merge_or_redistribute_preserves_leaf_items(
                dl in 0..=B, dr in 1..=B,
            ) {
                prop_assume!(dl + dr >= 1);
                let mut lv = NodeView { keys: [0; B], ptrs: [0; B], size: dl };
                let mut rv = NodeView { keys: [0; B], ptrs: [0; B], size: dr };
                for i in 0..dl {
                    lv.keys[i] = 10 + i as u64;
                    lv.ptrs[i] = 1000 + i as u64;
                }
                for i in 0..dr {
                    rv.keys[i] = 100 + i as u64;
                    rv.ptrs[i] = 2000 + i as u64;
                }
                let mut expect: Vec<(u64, u64)> = Vec::new();
                expect.extend((0..dl).map(|i| (lv.keys[i], lv.ptrs[i])));
                expect.extend((0..dr).map(|i| (rv.keys[i], rv.ptrs[i])));

                if dl + dr <= B {
                    let w = merge_spec(&lv, &rv, true, 0);
                    let got: Vec<(u64, u64)> = w
                        .keys
                        .iter()
                        .copied()
                        .zip(w.ptrs.iter().copied())
                        .collect();
                    prop_assert_eq!(got, expect);
                    prop_assert!(keys_sorted(&w.keys));
                } else {
                    let (l, r, pivot) = redistribute_specs(&lv, &rv, true, 0);
                    let mut got: Vec<(u64, u64)> = l
                        .keys
                        .iter()
                        .copied()
                        .zip(l.ptrs.iter().copied())
                        .collect();
                    got.extend(r.keys.iter().copied().zip(r.ptrs.iter().copied()));
                    prop_assert_eq!(got, expect);
                    prop_assert_eq!(pivot, r.keys[0]);
                    prop_assert!(l.keys.iter().all(|k| *k < pivot));
                    prop_assert!(l.ptrs.len() <= B && r.ptrs.len() <= B);
                    // Redistribution leaves both sides >= floor((B+1)/2):
                    // no fresh degree violations for the paper's a = 6.
                    prop_assert!(l.ptrs.len() >= B.div_ceil(2));
                    prop_assert!(r.ptrs.len() >= B.div_ceil(2) - 1);
                }
            }

            #[test]
            fn merge_internal_preserves_children(dl in 1..=B/2, dr in 1..=B/2) {
                prop_assume!(dl + dr <= B);
                let mut lv = NodeView { keys: [0; B], ptrs: [0; B], size: dl };
                let mut rv = NodeView { keys: [0; B], ptrs: [0; B], size: dr };
                for i in 0..dl.saturating_sub(1) {
                    lv.keys[i] = 10 + i as u64;
                }
                for i in 0..dl {
                    lv.ptrs[i] = 1000 + i as u64;
                }
                for i in 0..dr.saturating_sub(1) {
                    rv.keys[i] = 100 + i as u64;
                }
                for i in 0..dr {
                    rv.ptrs[i] = 2000 + i as u64;
                }
                let w = merge_spec(&lv, &rv, false, 50);
                prop_assert_eq!(w.ptrs.len(), dl + dr);
                prop_assert_eq!(w.keys.len(), dl + dr - 1);
                prop_assert!(keys_sorted(&w.keys));
                prop_assert!(w.keys.contains(&50), "separator pulled down");
            }
        }
    }
}
