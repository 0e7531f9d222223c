//! (a,b)-tree search, insert and delete — template and sequential families.
//!
//! Update results carry a `fix_needed` flag: inserts that split create a
//! tagged parent, deletes can leave an underfull leaf. The handle then runs
//! rebalancing steps (see [`crate::fix`]) until the key's path is clean,
//! exactly like the paper's data structure fixes the violations each
//! operation creates.

use threepath_core::{Mem, OpOutcome, TemplateMode};
use threepath_htm::{Abort, TxCell};
use threepath_llxscx::ScxArgs;

use crate::node::{AbNode, NodeView, B};

/// Result of an update: previous value (if any) and whether rebalancing is
/// needed.
pub(crate) type UpdResult = (Option<u64>, bool);

/// Search result: parent (with the child index taken) and leaf.
pub(crate) struct AbFound {
    pub p: *mut AbNode,
    pub p_idx: usize,
    pub l: *mut AbNode,
}

/// Routing step: index of the child of `n` covering `key`.
fn route(
    read: &mut dyn FnMut(&TxCell) -> Result<u64, Abort>,
    n: &AbNode,
    key: u64,
) -> Result<usize, Abort> {
    let size = read(n.size_cell())? as usize;
    debug_assert!((1..=B).contains(&size));
    let mut i = 0;
    while i + 1 < size && key >= read(n.key_cell(i))? {
        i += 1;
    }
    Ok(i)
}

/// Descends from the entry node to the leaf covering `key`.
pub(crate) fn search_ab(
    read: &mut dyn FnMut(&TxCell) -> Result<u64, Abort>,
    entry: *mut AbNode,
    key: u64,
) -> Result<AbFound, Abort> {
    // SAFETY (here and throughout): nodes are reached through published
    // pointers under the operation's epoch pin.
    let mut p = entry;
    let mut p_idx = 0usize;
    let mut l = read(unsafe { &*entry }.ptr_cell(0))? as *mut AbNode;
    while !unsafe { &*l }.leaf {
        p = l;
        p_idx = route(read, unsafe { &*p }, key)?;
        l = read(unsafe { &*p }.ptr_cell(p_idx))? as *mut AbNode;
    }
    Ok(AbFound { p, p_idx, l })
}

/// Collects a leaf view's items plus an inserted/updated pair into `buf`
/// (capacity `B + 1`), returning the item count.
fn items_with(lv: &NodeView, key: u64, value: u64, buf: &mut [(u64, u64); B + 1]) -> usize {
    let mut n = 0;
    let mut placed = false;
    for (k, v) in lv.items() {
        if k == key {
            buf[n] = (key, value);
            placed = true;
        } else {
            if !placed && k > key {
                buf[n] = (key, value);
                n += 1;
                placed = true;
            }
            buf[n] = (k, v);
        }
        n += 1;
    }
    if !placed {
        buf[n] = (key, value);
        n += 1;
    }
    n
}

/// Template insert (fallback and middle paths): replaces the leaf with a
/// new copy, or with a (possibly tagged) two-leaf subtree on overflow.
pub(crate) fn insert_tmpl<M: TemplateMode>(
    m: &mut M,
    entry: *mut AbNode,
    f: &AbFound,
    key: u64,
    value: u64,
) -> Result<OpOutcome<UpdResult>, Abort> {
    let p = unsafe { &*f.p };
    let l = unsafe { &*f.l };
    let hp = match m.llx(&p.hdr, p.mutable())? {
        Some(h) => h,
        None => return Ok(OpOutcome::Retry),
    };
    if hp.snapshot().get(f.p_idx) != f.l as u64 {
        return Ok(OpOutcome::Retry);
    }
    let hl = match m.llx(&l.hdr, l.mutable())? {
        Some(h) => h,
        None => return Ok(OpOutcome::Retry),
    };
    let lv = {
        let mut rd = |c: &TxCell| m.read(c);
        NodeView::from_snapshot(&mut rd, l, hl.snapshot())?
    };

    let prev = lv.find_key(key);
    if let Ok(i) = prev {
        // Key present: new leaf with the updated value.
        let old = lv.ptrs[i];
        let mut buf = [(0u64, 0u64); B + 1];
        let n = items_with(&lv, key, value, &mut buf);
        debug_assert_eq!(n, lv.size);
        let nl = m.alloc(AbNode::new_leaf(&buf[..n]));
        return finish_leaf_replace(m, f, &hp, &hl, nl, Some(old), false);
    }
    if lv.size < B {
        let mut buf = [(0u64, 0u64); B + 1];
        let n = items_with(&lv, key, value, &mut buf);
        debug_assert_eq!(n, lv.size + 1);
        let nl = m.alloc(AbNode::new_leaf(&buf[..n]));
        return finish_leaf_replace(m, f, &hp, &hl, nl, None, false);
    }
    // Overflow: split into two leaves under a new parent; the parent is
    // tagged (subtree too tall) unless it becomes the root.
    let mut buf = [(0u64, 0u64); B + 1];
    let n = items_with(&lv, key, value, &mut buf);
    debug_assert_eq!(n, B + 1);
    let ls = n.div_ceil(2);
    let left = m.alloc(AbNode::new_leaf(&buf[..ls]));
    let right = m.alloc(AbNode::new_leaf(&buf[ls..n]));
    let tagged = f.p != entry;
    let np = m.alloc(AbNode::new_internal(
        &[buf[ls].0],
        &[left as u64, right as u64],
        tagged,
    ));
    match finish_leaf_replace(m, f, &hp, &hl, np, None, tagged)? {
        OpOutcome::Done(r) => Ok(OpOutcome::Done(r)),
        OpOutcome::Retry => {
            // SAFETY: never published.
            unsafe {
                m.free_unpublished(right);
                m.free_unpublished(left);
            }
            Ok(OpOutcome::Retry)
        }
    }
}

/// Shared SCX tail for leaf-replacing updates: swings `p.ptrs[p_idx]` from
/// the old leaf to `new`, finalizing the old leaf.
fn finish_leaf_replace<M: TemplateMode>(
    m: &mut M,
    f: &AbFound,
    hp: &threepath_llxscx::LlxHandle,
    hl: &threepath_llxscx::LlxHandle,
    new: *mut AbNode,
    prev: Option<u64>,
    fix: bool,
) -> Result<OpOutcome<UpdResult>, Abort> {
    let p = unsafe { &*f.p };
    let ok = m.scx(&ScxArgs {
        v: &[hp, hl],
        r_mask: 0b10,
        fld: p.ptr_cell(f.p_idx),
        old: f.l as u64,
        new: new as u64,
    })?;
    if ok {
        // SAFETY: the old leaf was finalized and unlinked.
        unsafe { m.retire(f.l) };
        Ok(OpOutcome::Done((prev, fix)))
    } else {
        // SAFETY: never published.
        unsafe { m.free_unpublished(new) };
        Ok(OpOutcome::Retry)
    }
}

/// Template delete: replaces the leaf with a copy lacking the key.
pub(crate) fn delete_tmpl<M: TemplateMode>(
    m: &mut M,
    entry: *mut AbNode,
    f: &AbFound,
    key: u64,
    a: usize,
) -> Result<OpOutcome<UpdResult>, Abort> {
    let p = unsafe { &*f.p };
    let l = unsafe { &*f.l };
    let hp = match m.llx(&p.hdr, p.mutable())? {
        Some(h) => h,
        None => return Ok(OpOutcome::Retry),
    };
    if hp.snapshot().get(f.p_idx) != f.l as u64 {
        return Ok(OpOutcome::Retry);
    }
    let hl = match m.llx(&l.hdr, l.mutable())? {
        Some(h) => h,
        None => return Ok(OpOutcome::Retry),
    };
    let lv = {
        let mut rd = |c: &TxCell| m.read(c);
        NodeView::from_snapshot(&mut rd, l, hl.snapshot())?
    };
    let i = match lv.find_key(key) {
        Ok(i) => i,
        Err(_) => return Ok(OpOutcome::Done((None, false))),
    };
    let old = lv.ptrs[i];
    let mut buf = [(0u64, 0u64); B + 1];
    let mut n = 0;
    for (k, v) in lv.items() {
        if k != key {
            buf[n] = (k, v);
            n += 1;
        }
    }
    let nl = m.alloc(AbNode::new_leaf(&buf[..n]));
    // The leaf is the root iff its parent is the entry node; the root is
    // exempt from the minimum-degree rule.
    let fix = n < a && f.p != entry;
    finish_leaf_replace(m, f, &hp, &hl, nl, Some(old), fix)
}

/// Validates a pre-computed search result inside a transaction
/// (Section 8 mode): links intact, nodes unmarked.
fn validate_seq<M: Mem>(m: &mut M, f: &AbFound) -> Result<(), Abort> {
    use threepath_htm::codes;
    let p = unsafe { &*f.p };
    let l = unsafe { &*f.l };
    if m.read(p.hdr.marked())? != 0 || m.read(l.hdr.marked())? != 0 {
        return Err(Abort::explicit(codes::MARKED));
    }
    if m.read(p.ptr_cell(f.p_idx))? != f.l as u64 {
        return Err(Abort::explicit(codes::VALIDATION));
    }
    Ok(())
}

/// Sequential insert (fast path / TLE): in-place value update or in-place
/// sorted insertion; on overflow, two new nodes (a parent and a sibling)
/// while the old leaf is truncated in place — Figure 13's economy applied
/// to the (a,b)-tree (Section 6.2).
pub(crate) fn insert_seq<M: Mem>(
    m: &mut M,
    entry: *mut AbNode,
    f: &AbFound,
    key: u64,
    value: u64,
    validate: bool,
) -> Result<UpdResult, Abort> {
    if validate {
        validate_seq(m, f)?;
    }
    let p = unsafe { &*f.p };
    let l = unsafe { &*f.l };
    let lv = {
        let mut rd = |c: &TxCell| m.read(c);
        NodeView::read(&mut rd, l)?
    };
    match lv.find_key(key) {
        Ok(i) => {
            // Value-only update: one cell, but still wrapped in the
            // seqlock. A one-key `get` would not need it; a scan does,
            // because it certifies every copied leaf by `ver` alone. An
            // unbumped overwrite of a leaf the scan already copied, then
            // a write to a later leaf, would pass validation with the old
            // value of the first key and the new value of the second — a
            // result no single instant ever held.
            let old = lv.ptrs[i];
            let v0 = begin_inplace(m, l)?;
            m.write(l.ptr_cell(i), value)?;
            end_inplace(m, l, v0)?;
            Ok((Some(old), false))
        }
        Err(pos) if lv.size < B => {
            // In-place sorted insertion: shift the tail right, wrapped in
            // the leaf's seqlock (odd while a direct-mode mutation is in
            // flight; one atomic +2 when transactional) so uninstrumented
            // readers detect the multi-cell mutation and retry.
            let v0 = begin_inplace(m, l)?;
            for j in (pos..lv.size).rev() {
                m.write(l.key_cell(j + 1), lv.keys[j])?;
                m.write(l.ptr_cell(j + 1), lv.ptrs[j])?;
            }
            m.write(l.key_cell(pos), key)?;
            m.write(l.ptr_cell(pos), value)?;
            m.write(l.size_cell(), (lv.size + 1) as u64)?;
            end_inplace(m, l, v0)?;
            Ok((None, false))
        }
        Err(_) => {
            // Overflow: keep the left half in place, create a sibling and
            // a parent (two new nodes instead of the template's three).
            // The seqlock stays odd across the *whole* splice — truncation
            // AND parent swing — because the truncated leaf no longer
            // covers its upper half until the new parent is reachable: a
            // direct-mode (TLE) reader validating the leaf between the
            // two steps would miss continuously-present keys.
            let mut buf = [(0u64, 0u64); B + 1];
            let n = items_with(&lv, key, value, &mut buf);
            let ls = n.div_ceil(2);
            let v0 = begin_inplace(m, l)?;
            for (j, (k, v)) in buf[..ls].iter().enumerate() {
                m.write(l.key_cell(j), *k)?;
                m.write(l.ptr_cell(j), *v)?;
            }
            m.write(l.size_cell(), ls as u64)?;
            let right = m.alloc(AbNode::new_leaf(&buf[ls..n]));
            let tagged = f.p != entry;
            let np = m.alloc(AbNode::new_internal(
                &[buf[ls].0],
                &[f.l as u64, right as u64],
                tagged,
            ));
            m.write(p.ptr_cell(f.p_idx), np as u64)?;
            end_inplace(m, l, v0)?;
            Ok((None, tagged))
        }
    }
}

/// Sequential delete: in-place removal (shift the tail left).
pub(crate) fn delete_seq<M: Mem>(
    m: &mut M,
    entry: *mut AbNode,
    f: &AbFound,
    key: u64,
    a: usize,
    validate: bool,
) -> Result<UpdResult, Abort> {
    let l = unsafe { &*f.l };
    if validate {
        validate_seq(m, f)?;
    }
    let lv = {
        let mut rd = |c: &TxCell| m.read(c);
        NodeView::read(&mut rd, l)?
    };
    let i = match lv.find_key(key) {
        Ok(i) => i,
        Err(_) => return Ok((None, false)),
    };
    let old = lv.ptrs[i];
    let v0 = begin_inplace(m, l)?;
    for j in i + 1..lv.size {
        m.write(l.key_cell(j - 1), lv.keys[j])?;
        m.write(l.ptr_cell(j - 1), lv.ptrs[j])?;
    }
    m.write(l.size_cell(), (lv.size - 1) as u64)?;
    end_inplace(m, l, v0)?;
    let fix = lv.size - 1 < a && f.p != entry;
    Ok((Some(old), fix))
}

/// Opens a leaf's seqlock around an in-place multi-cell mutation: bumps
/// `ver` to odd and returns the pre-mutation (even) value. In
/// transactional modes the odd intermediate is buffered and overwritten by
/// [`end_inplace`] before the atomic commit, so readers only ever observe
/// the even `+2`; in direct mode (TLE under the lock) the odd value is
/// visible for the duration of the mutation and makes optimistic readers
/// retry.
fn begin_inplace<M: Mem>(m: &mut M, l: &AbNode) -> Result<u64, Abort> {
    let v0 = m.read(l.ver_cell())?;
    debug_assert_eq!(v0 & 1, 0, "mutators are mutually excluded");
    m.write(l.ver_cell(), v0.wrapping_add(1))?;
    Ok(v0)
}

/// Closes the seqlock opened by [`begin_inplace`].
fn end_inplace<M: Mem>(m: &mut M, l: &AbNode, v0: u64) -> Result<(), Abort> {
    m.write(l.ver_cell(), v0.wrapping_add(2))
}

/// Lookup through any read mode.
pub(crate) fn get_with(
    read: &mut dyn FnMut(&TxCell) -> Result<u64, Abort>,
    f: &AbFound,
    key: u64,
) -> Result<Option<u64>, Abort> {
    let l = unsafe { &*f.l };
    let lv = NodeView::read(read, l)?;
    Ok(lv.find_key(key).ok().map(|i| lv.ptrs[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf_view(items: &[(u64, u64)]) -> (AbNode, NodeView) {
        let n = AbNode::new_leaf(items);
        let mut rd = |c: &TxCell| Ok(c.load_plain());
        let v = NodeView::read(&mut rd, &n).unwrap();
        (n, v)
    }

    #[test]
    fn items_with_inserts_sorted() {
        let (_n, v) = leaf_view(&[(1, 10), (5, 50)]);
        let mut buf = [(0, 0); B + 1];
        let n = items_with(&v, 3, 30, &mut buf);
        assert_eq!(&buf[..n], &[(1, 10), (3, 30), (5, 50)]);
    }

    #[test]
    fn items_with_updates_in_place() {
        let (_n, v) = leaf_view(&[(1, 10), (5, 50)]);
        let mut buf = [(0, 0); B + 1];
        let n = items_with(&v, 5, 55, &mut buf);
        assert_eq!(&buf[..n], &[(1, 10), (5, 55)]);
    }

    #[test]
    fn items_with_appends_at_end() {
        let (_n, v) = leaf_view(&[(1, 10)]);
        let mut buf = [(0, 0); B + 1];
        let n = items_with(&v, 9, 90, &mut buf);
        assert_eq!(&buf[..n], &[(1, 10), (9, 90)]);
    }

    #[test]
    fn items_with_handles_full_leaf() {
        let items: Vec<(u64, u64)> = (0..B as u64).map(|i| (i * 2, i)).collect();
        let (_n, v) = leaf_view(&items);
        let mut buf = [(0, 0); B + 1];
        let n = items_with(&v, 5, 99, &mut buf);
        assert_eq!(n, B + 1);
        assert!(buf[..n].windows(2).all(|w| w[0].0 < w[1].0));
    }
}
