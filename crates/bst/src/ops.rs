//! BST operations, each written once per family:
//!
//! * [`insert_tmpl`]/[`delete_tmpl`] — the tree-update-template operations
//!   (paper Figure 12), generic over [`TemplateMode`];
//! * [`insert_seq`]/[`delete_seq`] — the sequential operations
//!   (paper Figure 13), generic over [`Mem`].
//!
//! [`Op`] hands them to [`ExecCtx`](threepath_core::ExecCtx) as one
//! [`TemplateOp`] per insert, remove or batched lookup, and core derives
//! the paths: `TxMode` makes a template body the middle path (and the
//! 2-path-con fast path), `OrigMode` the fallback; `TxMem` makes a
//! sequential body the HTM fast path, `DirectMem` TLE's locked path.
//! [`Leaf`] is the point read.
//!
//! The sequential ops optionally validate their pre-computed search result
//! (parent still points to the leaf, nodes unmarked) — required when the
//! search ran *outside* the transaction (Section 8's optimization).

use threepath_core::{BatchOp, Mem, OpOutcome, ReadOp, SeqOp, TemplateMode, TemplateOp, TxRead};
use threepath_htm::{codes, Abort};
use threepath_llxscx::ScxArgs;

use crate::node::{dir_of, BstNode, MAX_KEY};

/// Result of a leaf search: grandparent, parent (with the directions taken)
/// and the leaf.
pub(crate) struct Found {
    pub gp: *mut BstNode,
    pub gp_dir: usize,
    pub p: *mut BstNode,
    pub p_dir: usize,
    pub l: *mut BstNode,
}

/// Leaf search from `root`, reading child pointers through `r`
/// (transactional or direct). `root` must be the entry node (internal).
pub(crate) fn search_with<R: TxRead>(
    r: &mut R,
    root: *mut BstNode,
    key: u64,
) -> Result<Found, Abort> {
    // SAFETY (here and below): nodes are reached through published child
    // pointers under the operation's epoch pin; see crate-level safety
    // notes in `tree.rs`.
    let mut gp = std::ptr::null_mut();
    let mut gp_dir = 0usize;
    let mut p = root;
    let mut p_dir = dir_of(key, unsafe { &*root }.key);
    let mut l = r.read_ptr::<BstNode>(unsafe { &*p }.child(p_dir))?;
    while !unsafe { &*l }.is_leaf {
        gp = p;
        gp_dir = p_dir;
        p = l;
        p_dir = dir_of(key, unsafe { &*p }.key);
        l = r.read_ptr(unsafe { &*p }.child(p_dir))?;
    }
    Ok(Found {
        gp,
        gp_dir,
        p,
        p_dir,
        l,
    })
}

/// Template insert (Figure 12). On success returns the previous value if
/// the key was present.
pub(crate) fn insert_tmpl<M: TemplateMode>(
    m: &mut M,
    f: &Found,
    key: u64,
    value: u64,
) -> Result<OpOutcome<Option<u64>>, Abort> {
    let p = unsafe { &*f.p };
    let l = unsafe { &*f.l };
    let hp = match m.llx(&p.hdr, p.mutable())? {
        Some(h) => h,
        None => return Ok(OpOutcome::Retry),
    };
    // The parent must still point to the leaf we found.
    if hp.snapshot().get(f.p_dir) != f.l as u64 {
        return Ok(OpOutcome::Retry);
    }
    let hl = match m.llx(&l.hdr, l.mutable())? {
        Some(h) => h,
        None => return Ok(OpOutcome::Retry),
    };

    if l.key == key {
        // Key present: replace the leaf with a new copy holding the new
        // value (immutable fields change only by node replacement).
        let old = m.read(&l.value)?;
        let nl = m.alloc(BstNode::new_leaf(key, value));
        let ok = m.scx(&ScxArgs {
            v: &[&hp, &hl],
            r_mask: 0b10, // finalize l
            fld: p.child(f.p_dir),
            old: f.l as u64,
            new: nl as u64,
        })?;
        if ok {
            // SAFETY: l was finalized and unlinked by the SCX.
            unsafe { m.retire(f.l) };
            Ok(OpOutcome::Done(Some(old)))
        } else {
            // SAFETY: nl was never published.
            unsafe { m.free_unpublished(nl) };
            Ok(OpOutcome::Retry)
        }
    } else {
        // Key absent: insert a new internal with the new leaf and the old
        // leaf (reused) as children.
        let nl = m.alloc(BstNode::new_leaf(key, value));
        let ni = if key < l.key {
            m.alloc(BstNode::new_internal(l.key, nl, f.l))
        } else {
            m.alloc(BstNode::new_internal(key, f.l, nl))
        };
        let ok = m.scx(&ScxArgs {
            v: &[&hp, &hl],
            r_mask: 0, // l is kept (re-parented under ni)
            fld: p.child(f.p_dir),
            old: f.l as u64,
            new: ni as u64,
        })?;
        if ok {
            Ok(OpOutcome::Done(None))
        } else {
            // SAFETY: neither node was published.
            unsafe {
                m.free_unpublished(ni);
                m.free_unpublished(nl);
            }
            Ok(OpOutcome::Retry)
        }
    }
}

/// Template delete (Figure 12): replaces the deleted leaf's parent with a
/// fresh copy of the leaf's sibling (the copy is required by the template's
/// ABA-freedom rule: every SCX stores a never-before-seen pointer).
pub(crate) fn delete_tmpl<M: TemplateMode>(
    m: &mut M,
    f: &Found,
    key: u64,
) -> Result<OpOutcome<Option<u64>>, Abort> {
    let l = unsafe { &*f.l };
    if l.key != key {
        return Ok(OpOutcome::Done(None));
    }
    // A leaf holding a user key always has a grandparent (user keys sit
    // strictly below the sentinel level).
    debug_assert!(!f.gp.is_null());
    let gp = unsafe { &*f.gp };
    let p = unsafe { &*f.p };

    let hgp = match m.llx(&gp.hdr, gp.mutable())? {
        Some(h) => h,
        None => return Ok(OpOutcome::Retry),
    };
    if hgp.snapshot().get(f.gp_dir) != f.p as u64 {
        return Ok(OpOutcome::Retry);
    }
    let hp = match m.llx(&p.hdr, p.mutable())? {
        Some(h) => h,
        None => return Ok(OpOutcome::Retry),
    };
    if hp.snapshot().get(f.p_dir) != f.l as u64 {
        return Ok(OpOutcome::Retry);
    }
    let s_ptr = hp.snapshot().get_ptr::<BstNode>(1 - f.p_dir);
    let s = unsafe { &*s_ptr };
    let hl = match m.llx(&l.hdr, l.mutable())? {
        Some(h) => h,
        None => return Ok(OpOutcome::Retry),
    };
    let hs = match m.llx(&s.hdr, s.mutable())? {
        Some(h) => h,
        None => return Ok(OpOutcome::Retry),
    };

    let old = m.read(&l.value)?;
    let scopy = if s.is_leaf {
        let sv = m.read(&s.value)?;
        m.alloc(BstNode::new_leaf(s.key, sv))
    } else {
        m.alloc(BstNode::new_internal(
            s.key,
            hs.snapshot().get_ptr(0),
            hs.snapshot().get_ptr(1),
        ))
    };
    let ok = m.scx(&ScxArgs {
        v: &[&hgp, &hp, &hl, &hs],
        r_mask: 0b1110, // finalize p, l, s
        fld: gp.child(f.gp_dir),
        old: f.p as u64,
        new: scopy as u64,
    })?;
    if ok {
        // SAFETY: all three were finalized and unlinked by the SCX.
        unsafe {
            m.retire(f.p);
            m.retire(f.l);
            m.retire(s_ptr);
        }
        Ok(OpOutcome::Done(Some(old)))
    } else {
        // SAFETY: never published.
        unsafe { m.free_unpublished(scopy) };
        Ok(OpOutcome::Retry)
    }
}

/// Validates a pre-computed search result inside a transaction (Section 8:
/// the search ran outside). Checks the links are intact and the nodes
/// unmarked; aborts otherwise.
fn validate_seq<M: Mem>(m: &mut M, f: &Found) -> Result<(), Abort> {
    let p = unsafe { &*f.p };
    let l = unsafe { &*f.l };
    if m.read(p.hdr.marked())? != 0 || m.read(l.hdr.marked())? != 0 {
        return Err(Abort::explicit(codes::MARKED));
    }
    if !f.gp.is_null() {
        let gp = unsafe { &*f.gp };
        if m.read(gp.hdr.marked())? != 0 {
            return Err(Abort::explicit(codes::MARKED));
        }
        if m.read(gp.child(f.gp_dir))? != f.p as u64 {
            return Err(Abort::explicit(codes::VALIDATION));
        }
    }
    if m.read(p.child(f.p_dir))? != f.l as u64 {
        return Err(Abort::explicit(codes::VALIDATION));
    }
    Ok(())
}

/// Sequential insert (Figure 13): updates the value in place when the key
/// exists; otherwise links a fresh internal+leaf pair (reusing the old
/// leaf).
pub(crate) fn insert_seq<M: Mem>(
    m: &mut M,
    f: &Found,
    key: u64,
    value: u64,
    validate: bool,
) -> Result<Option<u64>, Abort> {
    if validate {
        validate_seq(m, f)?;
    }
    let p = unsafe { &*f.p };
    let l = unsafe { &*f.l };
    if l.key == key {
        // In-place value overwrite — the one mutation a live leaf ever
        // sees. Wrap it in the leaf's seqlock bump (odd while the write
        // is in flight) so optimistic scans certify copied values by
        // version instead of re-reading them. Inside a transaction the
        // three writes commit atomically (the odd state is never
        // observable); under the TLE lock the odd window is real and a
        // racing scan's version check fails exactly then.
        let old = m.read(&l.value)?;
        let v0 = m.read(&l.ver)?;
        debug_assert!(v0 % 2 == 0, "leaf version odd outside a mutation");
        m.write(&l.ver, v0.wrapping_add(1))?;
        m.write(&l.value, value)?;
        m.write(&l.ver, v0.wrapping_add(2))?;
        Ok(Some(old))
    } else {
        let nl = m.alloc(BstNode::new_leaf(key, value));
        let ni = if key < l.key {
            m.alloc(BstNode::new_internal(l.key, nl, f.l))
        } else {
            m.alloc(BstNode::new_internal(key, f.l, nl))
        };
        m.write(p.child(f.p_dir), ni as u64)?;
        Ok(None)
    }
}

/// Sequential delete (Figure 13): splices out the leaf and its parent,
/// reusing the existing sibling (no copy). When `mark_removed` is set
/// (Section 8 mode), the removed nodes' marked bits are set so concurrent
/// out-of-transaction searches can detect them.
pub(crate) fn delete_seq<M: Mem>(
    m: &mut M,
    f: &Found,
    key: u64,
    validate: bool,
    mark_removed: bool,
) -> Result<Option<u64>, Abort> {
    let l = unsafe { &*f.l };
    if l.key != key {
        return Ok(None);
    }
    if validate {
        validate_seq(m, f)?;
    }
    debug_assert!(!f.gp.is_null());
    let gp = unsafe { &*f.gp };
    let p = unsafe { &*f.p };
    let s = m.read_ptr::<BstNode>(p.child(1 - f.p_dir))?;
    let old = m.read(&l.value)?;
    m.write(gp.child(f.gp_dir), s as u64)?;
    if mark_removed {
        m.write(p.hdr.marked(), 1)?;
        m.write(l.hdr.marked(), 1)?;
    }
    // SAFETY: p and l are unlinked by the write above (durable iff the
    // enclosing attempt commits; `Mem::retire` defers accordingly).
    unsafe {
        m.retire(f.p);
        m.retire(f.l);
    }
    Ok(Some(old))
}

/// Sequential lookup.
pub(crate) fn get_seq<R: TxRead>(r: &mut R, f: &Found, key: u64) -> Result<Option<u64>, Abort> {
    let l = unsafe { &*f.l };
    if l.key == key {
        Ok(Some(r.read(&l.value)?))
    } else {
        Ok(None)
    }
}

/// An insert, remove or lookup: a single update, or one operation of a
/// batch plan. A remove or lookup of a key above [`MAX_KEY`] answers
/// `None` without touching the sentinel spine. `mark_removed` is set in
/// Section 8 mode.
pub(crate) struct Op {
    pub root: *mut BstNode,
    pub op: BatchOp,
    pub mark_removed: bool,
}

impl SeqOp for Op {
    type Found = Option<Found>;
    type Out = Option<u64>;

    #[inline]
    fn search<R: TxRead>(&self, r: &mut R) -> Result<Option<Found>, Abort> {
        match self.op {
            BatchOp::Remove(k) | BatchOp::Get(k) if k > MAX_KEY => Ok(None),
            op => search_with(r, self.root, op.key()).map(Some),
        }
    }

    #[inline]
    fn seq<M: Mem>(
        &self,
        m: &mut M,
        f: &Option<Found>,
        validate: bool,
    ) -> Result<Option<u64>, Abort> {
        let Some(f) = f else { return Ok(None) };
        match self.op {
            BatchOp::Insert(key, value) => insert_seq(m, f, key, value, validate),
            BatchOp::Remove(key) => delete_seq(m, f, key, validate, self.mark_removed),
            BatchOp::Get(key) => get_seq(m, f, key),
        }
    }
}

impl TemplateOp for Op {
    #[inline]
    fn tmpl<M: TemplateMode>(
        &self,
        m: &mut M,
        f: &Option<Found>,
    ) -> Result<OpOutcome<Option<u64>>, Abort> {
        let Some(f) = f else {
            return Ok(OpOutcome::Done(None));
        };
        match self.op {
            BatchOp::Insert(key, value) => insert_tmpl(m, f, key, value),
            BatchOp::Remove(key) => delete_tmpl(m, f, key),
            BatchOp::Get(key) => get_seq(m, f, key).map(OpOutcome::Done),
        }
    }
}

/// A read of the leaf covering `key`: its pair when it holds `key` (a
/// lookup) or, with `any`, any user key (the minimum for key `0`, the
/// maximum for [`MAX_KEY`]).
pub(crate) struct Leaf {
    pub root: *mut BstNode,
    pub key: u64,
    pub any: bool,
}

impl ReadOp for Leaf {
    type Out = Option<(u64, u64)>;

    #[inline]
    fn walk<R: TxRead>(&self, r: &mut R) -> Result<Option<(u64, u64)>, Abort> {
        let l = unsafe { &*search_with(r, self.root, self.key)?.l };
        if l.key == self.key || (self.any && l.key <= MAX_KEY) {
            Ok(Some((l.key, r.read(&l.value)?)))
        } else {
            Ok(None)
        }
    }
}
