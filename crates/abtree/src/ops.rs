//! (a,b)-tree search, insert and delete — template and sequential families.
//!
//! Each family is written once. [`Op`] hands an insert, remove or batched
//! lookup to [`ExecCtx`](threepath_core::ExecCtx) as a [`TemplateOp`], and
//! [`Get`] a lookup as a [`ReadOp`]; core derives the fast, middle,
//! fallback and locked paths from them.
//!
//! Update results carry a `fix_needed` flag: inserts that split create a
//! tagged parent, deletes can leave an underfull leaf. The handle then runs
//! rebalancing steps (see [`crate::fix`]) until the key's path is clean,
//! exactly like the paper's data structure fixes the violations each
//! operation creates.

use threepath_core::{BatchOp, Mem, OpOutcome, ReadOp, SeqOp, TemplateMode, TemplateOp, TxRead};
use threepath_htm::Abort;
use threepath_llxscx::{LlxHandle, ScxArgs};

use crate::node::{AbNode, NodeView, B, MAX_KEY};

/// Result of an update: previous value (if any) and whether rebalancing is
/// needed.
pub(crate) type UpdResult = (Option<u64>, bool);

/// Search result: parent (with the child index taken) and leaf.
pub(crate) struct AbFound {
    pub p: *mut AbNode,
    pub p_idx: usize,
    pub l: *mut AbNode,
}

/// Descends from the entry node to the leaf covering `key`. Only the
/// followed edges are read through `r`; routing is plain (see
/// [`AbNode::route`]).
pub(crate) fn search_ab<R: TxRead>(
    r: &mut R,
    entry: *mut AbNode,
    key: u64,
) -> Result<AbFound, Abort> {
    // SAFETY (here and throughout): nodes are reached through published
    // pointers under the operation's epoch pin.
    let mut p = entry;
    let mut p_idx = 0usize;
    let mut l = r.read_ptr::<AbNode>(unsafe { &*entry }.ptr_cell(0))?;
    while !unsafe { &*l }.leaf {
        p = l;
        let n = unsafe { &*p };
        p_idx = n.route(key);
        l = r.read_ptr(n.ptr_cell(p_idx))?;
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
    let Some(hp) = llx_edge(m, p, f.p_idx, f.l)? else {
        return Ok(OpOutcome::Retry);
    };
    let Some(hl) = m.llx(&l.hdr, l.mutable())? else {
        return Ok(OpOutcome::Retry);
    };
    let lv = NodeView::from_snapshot(m, l, hl.snapshot())?;

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

/// LLX of `n` whose child `i` must still be `child`: `None` (retry the
/// operation) when the LLX failed or the edge moved since the search.
pub(crate) fn llx_edge<M: TemplateMode>(
    m: &mut M,
    n: &AbNode,
    i: usize,
    child: *mut AbNode,
) -> Result<Option<LlxHandle>, Abort> {
    Ok(m.llx(&n.hdr, n.mutable())?
        .filter(|h| h.snapshot().get(i) == child as u64))
}

/// Shared SCX tail for leaf-replacing updates: swings `p.ptrs[p_idx]` from
/// the old leaf to `new`, finalizing the old leaf.
fn finish_leaf_replace<M: TemplateMode>(
    m: &mut M,
    f: &AbFound,
    hp: &LlxHandle,
    hl: &LlxHandle,
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
    let Some(hp) = llx_edge(m, p, f.p_idx, f.l)? else {
        return Ok(OpOutcome::Retry);
    };
    let Some(hl) = m.llx(&l.hdr, l.mutable())? else {
        return Ok(OpOutcome::Retry);
    };
    let lv = NodeView::from_snapshot(m, l, hl.snapshot())?;
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
    let lv = NodeView::read(m, l)?;
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
    let lv = NodeView::read(m, l)?;
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

/// `key`'s value in leaf `l`, read through any read mode.
fn leaf_get<R: TxRead>(r: &mut R, l: *mut AbNode, key: u64) -> Result<Option<u64>, Abort> {
    let lv = NodeView::read(r, unsafe { &*l })?;
    Ok(lv.find_key(key).ok().map(|i| lv.ptrs[i]))
}

/// An insert, remove or lookup: a single update, or one operation of a
/// batch plan. A lookup answers `(value, false)`; a remove or lookup of a
/// key above [`MAX_KEY`] answers `(None, false)` without descending.
pub(crate) struct Op {
    pub entry: *mut AbNode,
    pub a: usize,
    pub op: BatchOp,
}

impl SeqOp for Op {
    type Found = Option<AbFound>;
    type Out = UpdResult;

    #[inline]
    fn search<R: TxRead>(&self, r: &mut R) -> Result<Option<AbFound>, Abort> {
        match self.op {
            BatchOp::Remove(k) | BatchOp::Get(k) if k > MAX_KEY => Ok(None),
            op => search_ab(r, self.entry, op.key()).map(Some),
        }
    }

    #[inline]
    fn seq<M: Mem>(
        &self,
        m: &mut M,
        f: &Option<AbFound>,
        validate: bool,
    ) -> Result<UpdResult, Abort> {
        let Some(f) = f else { return Ok((None, false)) };
        let (entry, a) = (self.entry, self.a);
        match self.op {
            BatchOp::Insert(key, value) => insert_seq(m, entry, f, key, value, validate),
            BatchOp::Remove(key) => delete_seq(m, entry, f, key, a, validate),
            BatchOp::Get(key) => Ok((leaf_get(m, f.l, key)?, false)),
        }
    }
}

impl TemplateOp for Op {
    #[inline]
    fn tmpl<M: TemplateMode>(
        &self,
        m: &mut M,
        f: &Option<AbFound>,
    ) -> Result<OpOutcome<UpdResult>, Abort> {
        let Some(f) = f else {
            return Ok(OpOutcome::Done((None, false)));
        };
        let (entry, a) = (self.entry, self.a);
        match self.op {
            BatchOp::Insert(key, value) => insert_tmpl(m, entry, f, key, value),
            BatchOp::Remove(key) => delete_tmpl(m, entry, f, key, a),
            BatchOp::Get(key) => Ok(OpOutcome::Done((leaf_get(m, f.l, key)?, false))),
        }
    }
}

/// Look up `key`: search, then read the leaf.
pub(crate) struct Get {
    pub entry: *mut AbNode,
    pub key: u64,
}

impl ReadOp for Get {
    type Out = Option<u64>;

    #[inline]
    fn walk<R: TxRead>(&self, r: &mut R) -> Result<Option<u64>, Abort> {
        let l = search_ab(r, self.entry, self.key)?.l;
        leaf_get(r, l, self.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threepath_htm::{HtmConfig, HtmRuntime, TxCell};

    fn leaf_view(items: &[(u64, u64)]) -> (AbNode, NodeView) {
        let n = AbNode::new_leaf(items);
        let v = NodeView::read(&mut &HtmRuntime::new(HtmConfig::default()), &n).unwrap();
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

    /// A node on cache lines of its own, as pool blocks place nodes.
    #[repr(C, align(64))]
    struct Lined(AbNode);

    /// The cells a fast-path insert reads: the entry edge; per internal
    /// node only the chosen edge (its size and routing keys are immutable
    /// and read plainly, see [`AbNode::route`]); then the leaf's size,
    /// keys and values, and the `ver` an in-place insert reads. Also the
    /// internal nodes on the path.
    fn per_cell_insert_reads(entry: &AbNode, key: u64) -> (Vec<*const TxCell>, Vec<&AbNode>) {
        // SAFETY (both derefs): test-owned nodes, alive for the whole test.
        let mut cells: Vec<*const TxCell> = vec![entry.ptr_cell(0)];
        let mut path = Vec::new();
        let mut n = unsafe { &*(entry.ptr_plain(0) as *const AbNode) };
        while !n.leaf {
            // Child i covers [keys[i-1], keys[i]): skip the keys <= `key`.
            let i = (0..n.size_plain() - 1)
                .take_while(|&i| n.key_plain(i) <= key)
                .count();
            cells.push(n.ptr_cell(i));
            path.push(n);
            n = unsafe { &*(n.ptr_plain(i) as *const AbNode) };
        }
        cells.push(n.size_cell());
        let size = n.size_plain();
        cells.extend((0..size).map(|i| n.key_cell(i) as *const TxCell));
        cells.extend((0..size).map(|i| n.ptr_cell(i) as *const TxCell));
        cells.push(n.ver_cell());
        (cells, path)
    }

    /// A fast-path insert on a fixed 3-level tree records exactly the
    /// lines of the cells [`per_cell_insert_reads`] lists, and no
    /// routing-key line that holds no chosen edge: reading one after the
    /// insert grows the read set by one line.
    #[test]
    fn fast_path_insert_reads_the_per_cell_lines() {
        use std::collections::HashSet;
        use std::sync::Arc;
        use threepath_core::{Effects, TxMem};
        use threepath_reclaim::{Domain, ReclaimMode};

        // entry -> root (keys 100..=1500, 16 children) -> mid[i] (key
        // 100i + 50, two leaves) -> leaves of two keys each.
        let mut nodes: Vec<Box<Lined>> = Vec::new();
        let mut node = |n: AbNode| {
            nodes.push(Box::new(Lined(n)));
            &nodes.last().unwrap().0 as *const AbNode as u64
        };
        let mids: Vec<u64> = (0..16u64)
            .map(|i| {
                let lo = node(AbNode::new_leaf(&[(100 * i + 10, 1), (100 * i + 20, 2)]));
                let hi = node(AbNode::new_leaf(&[(100 * i + 60, 3), (100 * i + 70, 4)]));
                node(AbNode::new_internal(&[100 * i + 50], &[lo, hi], false))
            })
            .collect();
        let keys: Vec<u64> = (1..16).map(|i| 100 * i).collect();
        let root = node(AbNode::new_internal(&keys, &mids, false)) as *mut AbNode;
        let entry = node(AbNode::new_internal(&[], &[root as u64], false)) as *mut AbNode;
        let line = |c: *const TxCell| c as usize / threepath_htm::LINE_BYTES;

        // A 2^20-entry line table: distinct lines of one node never share
        // a version word here.
        let rt = HtmRuntime::new(HtmConfig {
            line_table_bits: 20,
            ..HtmConfig::reliable()
        });
        let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
        let ctx = Domain::register(&domain);
        let _pin = ctx.pin();
        let mut th = rt.register_thread();
        let mut eff = Effects::new();
        // Key 15 takes the root's first edge, key 1475 its second-last.
        for key in [15, 1475] {
            let (cells, path) = per_cell_insert_reads(unsafe { &*entry }, key);
            assert_eq!(path.len(), 2, "root and mid route");
            // One key cell per routing-key line that holds no read cell,
            // with the depth of its node.
            let mut seen: HashSet<usize> = cells.iter().map(|&c| line(c)).collect();
            let mut unread: Vec<(usize, &TxCell)> = Vec::new();
            for (d, n) in path.iter().enumerate() {
                for i in 0..n.size_plain() - 1 {
                    if seen.insert(line(n.key_cell(i))) {
                        unread.push((d, n.key_cell(i)));
                    }
                }
            }
            assert!(
                unread.iter().any(|&(d, _)| d == 0),
                "key {key}: the root has a key line without a chosen edge"
            );
            let want = rt
                .attempt(&mut th, |tx| {
                    for &c in &cells {
                        tx.read(unsafe { &*c })?;
                    }
                    Ok(tx.footprint().0)
                })
                .unwrap();
            let (got, added) = rt
                .attempt(&mut th, |tx| {
                    let mut m = TxMem::new(tx, &mut eff, &ctx);
                    let f = search_ab(&mut m, entry, key)?;
                    assert_eq!(insert_seq(&mut m, entry, &f, key, 9, false)?, (None, false));
                    let lines = m.txn().footprint().0;
                    let mut added = Vec::new();
                    for &(_, c) in &unread {
                        let before = m.txn().footprint().0;
                        m.read(c)?;
                        added.push(m.txn().footprint().0 - before);
                    }
                    Ok((lines, added))
                })
                .unwrap();
            assert_eq!(got, want, "key {key}: lines read");
            let leaf_lines: HashSet<usize> =
                cells[1 + path.len()..].iter().map(|&c| line(c)).collect();
            assert_eq!(
                got,
                1 + path.len() + leaf_lines.len(),
                "key {key}: one line per level"
            );
            assert!(
                added.iter().all(|&a| a == 1),
                "key {key}: a routing-key line without a chosen edge was read: {added:?}"
            );
        }
    }
}
