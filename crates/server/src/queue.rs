//! Per-shard submission queues and per-request completion slots.
//!
//! A queue element is one submission's whole same-shard sub-plan (a
//! *group*), never a single operation: the combiner coalesces **whole
//! groups** into a batch plan, so a group is always applied inside one
//! plan — one transaction or one serialized section. That gives every
//! submission per-shard atomicity regardless of how groups from
//! different clients interleave in the queue.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use threepath_core::BatchOp;

/// One queued request: a same-shard group of point operations destined
/// for a coalesced batch plan, or a per-shard sub-scan of a range query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Request {
    /// Insert/remove/get group, applied atomically within one plan.
    Ops(Vec<BatchOp>),
    /// Sub-scan over `[lo, hi)`, clipped to the owning shard.
    Range(u64, u64),
}

/// The answer to a [`Request`], of the matching kind.
#[derive(Debug, PartialEq, Eq)]
enum Reply {
    /// One reply per operation of the group, in group order.
    Ops(Vec<Option<u64>>),
    /// The sub-scan's pairs in ascending key order.
    Range(Vec<(u64, u64)>),
}

/// [`Pending::state`]: no reply yet.
const UNANSWERED: u8 = 0;
/// [`Pending::state`]: an executor is writing the reply.
const WRITING: u8 = 1;
/// [`Pending::state`]: the reply is published.
const DONE: u8 = 2;

/// A submitted request plus its reply slot. The reply is written once, by
/// the request's executor, which first claims the slot (`UNANSWERED` →
/// `WRITING`) and then releases it (`DONE`); the submitter reads it after
/// acquiring `DONE`.
///
/// A group's `Pending` is recycled by its submitter for a later group
/// through [`Self::refill`], which takes `&mut` access — in practice
/// [`Arc::get_mut`], so only once no executor still holds a clone. The
/// reply storage travels with it: the submitter sizes it and the executor
/// fills it in place, so neither side allocates what the other frees.
pub(crate) struct Pending {
    pub(crate) req: Request,
    reply: UnsafeCell<Reply>,
    state: AtomicU8,
}

// SAFETY: `req` is only written through `&mut`. `reply` is written only
// by the one thread whose claim moved `state` from `UNANSWERED` to
// `WRITING`, before its release store of `DONE`, and read only after an
// acquire load of `DONE`; nothing moves `state` back except `refill`,
// whose `&mut` access excludes every other reference. `state` is atomic.
unsafe impl Sync for Pending {}

impl Pending {
    pub(crate) fn new(req: Request) -> Arc<Self> {
        let reply = match &req {
            Request::Ops(ops) => Reply::Ops(Vec::with_capacity(ops.len())),
            Request::Range(..) => Reply::Range(Vec::new()),
        };
        Arc::new(Pending {
            req,
            reply: UnsafeCell::new(reply),
            state: AtomicU8::new(UNANSWERED),
        })
    }

    /// Turns a finished request into an unanswered group of `plan`'s
    /// operations, reusing its buffers.
    pub(crate) fn refill(&mut self, plan: &[BatchOp]) {
        match &mut self.req {
            Request::Ops(ops) => {
                reset(ops, plan.len());
                ops.extend_from_slice(plan);
            }
            req => *req = Request::Ops(plan.to_vec()),
        }
        match self.reply.get_mut() {
            Reply::Ops(r) => reset(r, plan.len()),
            reply => *reply = Reply::Ops(Vec::with_capacity(plan.len())),
        }
        *self.state.get_mut() = UNANSWERED;
    }

    /// Operations in this request's plan (0 for a sub-scan).
    pub(crate) fn op_count(&self) -> usize {
        match &self.req {
            Request::Ops(ops) => ops.len(),
            Request::Range(..) => 0,
        }
    }

    /// Whether the reply has been published.
    pub(crate) fn is_done(&self) -> bool {
        self.state.load(Ordering::Acquire) == DONE
    }

    /// Writes the reply through `write` and publishes it.
    ///
    /// # Panics
    ///
    /// Panics if the reply was already written.
    fn publish(&self, write: impl FnOnce(&mut Reply)) {
        let claimed = self
            .state
            .compare_exchange(UNANSWERED, WRITING, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        assert!(claimed, "reply published twice");
        // SAFETY: the claim above makes this thread the reply's one
        // writer, and nobody reads it before `DONE` (see the `Sync` impl).
        write(unsafe { &mut *self.reply.get() });
        self.state.store(DONE, Ordering::Release);
    }

    /// Publishes a group's replies, one per operation, into the storage
    /// its submitter sized.
    pub(crate) fn publish_ops(&self, replies: &[Option<u64>]) {
        debug_assert_eq!(replies.len(), self.op_count(), "reply count mismatch");
        self.publish(|reply| match reply {
            Reply::Ops(r) => r.extend_from_slice(replies),
            Reply::Range(_) => unreachable!("a sub-scan answered with replies"),
        });
    }

    /// Publishes a sub-scan's pairs.
    pub(crate) fn publish_range(&self, pairs: Vec<(u64, u64)>) {
        self.publish(|reply| *reply = Reply::Range(pairs));
    }

    /// The published reply.
    fn reply(&self) -> &Reply {
        assert!(self.is_done(), "reply read before it was published");
        // SAFETY: `DONE` was acquired, so the write happened before this
        // read, and nothing writes the reply again while `&self` lives
        // (see the `Sync` impl).
        unsafe { &*self.reply.get() }
    }

    /// The group's replies (call only after [`Self::is_done`]).
    pub(crate) fn replies(&self) -> &[Option<u64>] {
        match self.reply() {
            Reply::Ops(r) => r,
            other => unreachable!("group answered with {other:?}"),
        }
    }

    /// The sub-scan's pairs (call only after [`Self::is_done`]).
    pub(crate) fn range_reply(&self) -> &[(u64, u64)] {
        match self.reply() {
            Reply::Range(r) => r,
            other => unreachable!("sub-scan answered with {other:?}"),
        }
    }
}

impl std::fmt::Debug for Pending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending")
            .field("req", &self.req)
            .field("done", &self.is_done())
            .finish()
    }
}

/// Empties `v` and makes room for `n` items without a reallocation: a
/// buffer too small is replaced rather than grown (growing would copy
/// the contents `clear` just dropped).
pub(crate) fn reset<T>(v: &mut Vec<T>, n: usize) {
    v.clear();
    if v.capacity() < n {
        *v = Vec::with_capacity(n);
    }
}

/// One shard's submission queue plus its combiner claim flag, aligned to
/// two cache lines (adjacent-line prefetch, like
/// `threepath_htm::CachePadded`) so one shard's claim traffic never
/// invalidates its neighbour's. The mutex guards only push/pop (never
/// held across tree operations); `combiner` elects the one thread
/// currently allowed to drain the queue. `closed` lives under the same
/// mutex so that once [`ShardQueue::close`] returns, no further push can
/// ever land: everything the shutdown drain finds is everything there is.
/// `queued` mirrors the queue's length (release-stored under the mutex,
/// acquire-loaded by [`ShardQueue::is_empty`]) so the submit path's "is
/// anyone waiting?" probe writes nothing.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct ShardQueue {
    q: Mutex<Inner>,
    queued: AtomicUsize,
    combiner: AtomicBool,
}

#[derive(Debug, Default)]
struct Inner {
    q: VecDeque<Arc<Pending>>,
    closed: bool,
}

impl ShardQueue {
    /// Runs `f` on the queue under its mutex, then republishes the
    /// length — the one place `queued` is written.
    fn locked<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        let mut inner = self.q.lock().unwrap();
        let r = f(&mut inner);
        self.queued.store(inner.q.len(), Ordering::Release);
        r
    }

    /// Enqueues a request at the tail. Returns `false` (leaving the
    /// request unqueued) once the queue has been closed for shutdown.
    #[must_use]
    pub(crate) fn push(&self, p: Arc<Pending>) -> bool {
        self.locked(|inner| {
            if inner.closed {
                return false;
            }
            inner.q.push_back(p);
            true
        })
    }

    /// Closes the queue: every subsequent [`ShardQueue::push`] fails.
    /// Requests already queued stay queued and still drain.
    pub(crate) fn close(&self) {
        self.q.lock().unwrap().closed = true;
    }

    /// Pops the next run of whole operation groups into `run` (empty on
    /// entry) — at least one, then more while the combined plan stays
    /// within `cap` operations (a single group larger than `cap` still
    /// rides alone; groups are never split). When a sub-scan heads the
    /// queue, pops that sub-scan by itself. `false` when the queue is
    /// empty.
    pub(crate) fn pop_run(&self, cap: usize, run: &mut Vec<Arc<Pending>>) -> bool {
        debug_assert!(run.is_empty());
        self.locked(|inner| match inner.q.front() {
            None => false,
            Some(p) if matches!(p.req, Request::Range(..)) => {
                run.extend(inner.q.pop_front());
                true
            }
            Some(_) => {
                Self::drain_ops(&mut inner.q, cap, run);
                true
            }
        })
    }

    /// Pops the next run of operation groups only into `run` (empty on
    /// entry) — the flat-combining drain, which cannot execute sub-scans
    /// because it runs inside a batch's serialized section. `false` when
    /// the queue is empty or a sub-scan heads it.
    pub(crate) fn pop_op_run(&self, cap: usize, run: &mut Vec<Arc<Pending>>) -> bool {
        debug_assert!(run.is_empty());
        self.locked(|inner| match inner.q.front() {
            Some(p) if matches!(p.req, Request::Ops(_)) => {
                Self::drain_ops(&mut inner.q, cap, run);
                true
            }
            _ => false,
        })
    }

    fn drain_ops(q: &mut VecDeque<Arc<Pending>>, cap: usize, run: &mut Vec<Arc<Pending>>) {
        let mut ops = 0usize;
        while let Some(p) = q.front() {
            let n = match &p.req {
                Request::Ops(o) => o.len(),
                Request::Range(..) => break,
            };
            // The first group always rides; later ones only while the
            // plan stays within the cap.
            if !run.is_empty() && ops + n > cap {
                break;
            }
            ops += n;
            run.push(q.pop_front().unwrap());
            if ops >= cap {
                break;
            }
        }
    }

    /// Whether the queue currently holds no requests. A momentary answer
    /// (a push that has not yet stored the new length reads as absent):
    /// good for the submit path's lane decision, and exact for the
    /// shutdown drain, which asks only after [`ShardQueue::close`] while
    /// holding the combiner claim.
    pub(crate) fn is_empty(&self) -> bool {
        self.queued.load(Ordering::Acquire) == 0
    }

    /// Whether nobody is waiting on this shard: no queued request and no
    /// combiner at work. Two loads, no write to the shared line.
    pub(crate) fn is_idle(&self) -> bool {
        !self.combiner.load(Ordering::Relaxed) && self.is_empty()
    }

    /// Tries to become this shard's combiner.
    pub(crate) fn try_claim(&self) -> bool {
        !self.combiner.load(Ordering::Relaxed)
            && self
                .combiner
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// Releases the combiner role.
    pub(crate) fn release(&self) {
        self.combiner.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ShardQueue {
        /// [`ShardQueue::pop_run`] into a fresh run.
        fn pop(&self, cap: usize) -> Option<Vec<Arc<Pending>>> {
            let mut run = Vec::new();
            self.pop_run(cap, &mut run).then_some(run)
        }

        /// [`ShardQueue::pop_op_run`] into a fresh run.
        fn pop_ops(&self, cap: usize) -> Option<Vec<Arc<Pending>>> {
            let mut run = Vec::new();
            self.pop_op_run(cap, &mut run).then_some(run)
        }
    }

    fn ops_group(keys: &[u64]) -> Arc<Pending> {
        Pending::new(Request::Ops(keys.iter().map(|&k| BatchOp::Get(k)).collect()))
    }

    #[test]
    fn replies_publish_once_and_read_back() {
        let p = ops_group(&[1, 2]);
        assert!(!p.is_done());
        p.publish_ops(&[Some(7), None]);
        assert!(p.is_done());
        assert_eq!(p.replies(), [Some(7), None]);

        let p = Pending::new(Request::Range(0, 10));
        p.publish_range(vec![(1, 2)]);
        assert!(p.is_done());
        assert_eq!(p.range_reply(), [(1, 2)]);
    }

    /// A second publish is refused, not raced: the reply has one writer.
    #[test]
    #[should_panic(expected = "reply published twice")]
    fn a_reply_is_published_once() {
        let p = ops_group(&[1]);
        p.publish_ops(&[None]);
        p.publish_ops(&[Some(1)]);
    }

    #[test]
    fn closing_rejects_pushes_but_drains_the_backlog() {
        let q = ShardQueue::default();
        assert!(q.push(ops_group(&[1])));
        q.close();
        assert!(!q.push(ops_group(&[2])), "closed queue rejects pushes");
        // The pre-close backlog still drains.
        assert_eq!(q.pop(8).unwrap().len(), 1);
        assert!(q.pop(8).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn groups_are_never_split() {
        let q = ShardQueue::default();
        assert!(q.push(ops_group(&[1, 2, 3])));
        assert!(q.push(ops_group(&[4, 5, 6])));
        // Cap 4: the second group does not fit, so it must wait whole.
        let run = q.pop(4).unwrap();
        assert_eq!(run.len(), 1);
        assert_eq!(run[0].op_count(), 3);
        let run = q.pop(4).unwrap();
        assert_eq!(run.len(), 1);
        // An oversized group still rides alone rather than splitting.
        assert!(q.push(ops_group(&[1, 2, 3, 4, 5, 6, 7])));
        let run = q.pop(4).unwrap();
        assert_eq!(run[0].op_count(), 7);
    }

    #[test]
    fn runs_coalesce_groups_and_isolate_scans() {
        let q = ShardQueue::default();
        assert!(q.push(ops_group(&[1])));
        assert!(q.push(ops_group(&[2, 3])));
        assert!(q.push(Pending::new(Request::Range(0, 10))));
        assert!(q.push(ops_group(&[4])));

        let run = q.pop(8).unwrap();
        assert_eq!(run.len(), 2, "groups coalesce up to the scan");
        let run = q.pop(8).unwrap();
        assert!(matches!(run[0].req, Request::Range(0, 10)));
        // The op-only drain refuses to pop a heading scan.
        assert!(q.push(Pending::new(Request::Range(5, 6))));
        assert_eq!(q.pop_ops(8).unwrap().len(), 1);
        assert!(q.pop_ops(8).is_none());
        assert!(q.pop(8).is_some());
        assert!(q.pop(8).is_none());
    }

    #[test]
    fn combiner_claim_is_exclusive() {
        let q = ShardQueue::default();
        assert!(q.is_idle());
        assert!(q.try_claim());
        assert!(!q.try_claim());
        assert!(!q.is_idle(), "a combiner at work makes the shard busy");
        q.release();
        assert!(q.try_claim());
        q.release();
        assert!(q.push(ops_group(&[1])));
        assert!(!q.is_idle(), "a waiting request makes the shard busy");
        assert!(std::mem::align_of::<ShardQueue>() >= 128, "one shard per line pair");
    }
}
