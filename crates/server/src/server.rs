//! The server: configuration, the shared queue set, and per-client
//! submission handles.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};

use threepath_core::{BatchApply, BatchOp, PathStats};
use threepath_sharded::{merge_sorted_slices, PersistError, ShardedHandle, ShardedMap};

use crate::queue::{reset, Pending, Request, ShardQueue};

/// A client's "a submission of mine is executing" flag, alone on its
/// cache lines: its owner writes it twice per submission and nobody else
/// reads it until [`KvServer::shutdown`].
#[derive(Debug, Default)]
#[repr(align(128))]
struct InFlight(AtomicBool);

/// Tuning for a [`KvServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum operations coalesced into one batch plan (one fast-path
    /// transaction / one serialized section). Default 8.
    pub batch_cap: usize,
    /// Maximum *additional* plans the combiner drains while holding a
    /// shard's fallback lock after a plan escalates (the flat-combining
    /// rounds). Zero disables combining; default 4.
    pub combine_rounds: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch_cap: 8,
            combine_rounds: 4,
        }
    }
}

/// Error constructing a [`KvServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerError {
    /// The map was not built with [`threepath_sharded::ShardedConfig::batched`],
    /// so it has no batch entry point to coalesce into.
    NotBatched,
    /// `batch_cap == 0`: no plan could ever hold an operation.
    ZeroBatchCap,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::NotBatched => {
                f.write_str("the server requires a map built with `batched: true`")
            }
            ServerError::ZeroBatchCap => f.write_str("batch_cap must be at least 1"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Error from [`ServerClient::try_submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The server is shutting down and no longer accepts submissions.
    /// Groups of this submission that were already enqueued before
    /// shutdown closed their queues are still applied (whole, atomically
    /// per shard) by the shutdown drain; their replies are discarded —
    /// the same applied-but-unacknowledged outcome a crash can produce.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::ShuttingDown => f.write_str("the server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// The serving front-end over a batched [`ShardedMap`]: one submission
/// queue per shard, shared by every [`ServerClient`]. See the crate docs
/// for the execution model.
pub struct KvServer {
    map: Arc<ShardedMap>,
    queues: Vec<ShardQueue>,
    cfg: ServerConfig,
    stopping: AtomicBool,
    /// The in-flight flag of every live client (see
    /// [`ServerClient::try_submit`] and [`KvServer::shutdown`]).
    in_flight: Mutex<Vec<Weak<InFlight>>>,
}

impl KvServer {
    /// A server over `map`. Fails unless the map was built with
    /// [`threepath_sharded::ShardedConfig::batched`] and the tuning is
    /// sane.
    pub fn new(map: Arc<ShardedMap>, cfg: ServerConfig) -> Result<Self, ServerError> {
        if cfg.batch_cap == 0 {
            return Err(ServerError::ZeroBatchCap);
        }
        if !map.is_batched() {
            return Err(ServerError::NotBatched);
        }
        let queues = (0..map.shard_count()).map(|_| ShardQueue::default()).collect();
        Ok(KvServer {
            map,
            queues,
            cfg,
            stopping: AtomicBool::new(false),
            in_flight: Mutex::new(Vec::new()),
        })
    }

    /// Whether [`KvServer::shutdown`] has begun: new submissions are
    /// being rejected.
    pub fn is_shutting_down(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: rejects all new submissions, drains every
    /// shard's queue through the combiner (publishing the backlog's
    /// replies), waits for every submission still executing, then, when
    /// the map is persistent, waits until the map's flusher has fsynced
    /// every record written ([`ShardedMap::sync_persist`]). After an `Ok`
    /// the on-disk state reflects every acknowledged update and the map
    /// is quiescent — safe to drop, or to hand to [`ShardedMap::recover`]
    /// in a new process. An `Err` is a shard's sticky fsync failure,
    /// whenever it happened: the tail of that shard's log is not known to
    /// be on stable storage. Idempotent; concurrent in-flight submissions
    /// either complete normally or observe [`SubmitError::ShuttingDown`].
    pub fn shutdown(&self) -> Result<(), PersistError> {
        self.stopping.store(true, Ordering::SeqCst);
        for q in &self.queues {
            q.close();
        }
        // Drain the backlog. A client that still holds a shard's
        // combiner claim is draining that shard for us; spin until every
        // queue is observed empty *while we hold its claim* (so nothing
        // can be mid-drain behind our back — pushes are already closed).
        let mut h = self.map.handle();
        let (mut run, mut hook) = (RunBufs::new(&self.cfg), RunBufs::new(&self.cfg));
        for shard in 0..self.queues.len() {
            loop {
                if self.queues[shard].try_claim() {
                    combine_shard(self, &mut h, &mut PathStats::new(), shard, &mut run, &mut hook);
                    let empty = self.queues[shard].is_empty();
                    self.queues[shard].release();
                    if empty {
                        break;
                    }
                } else {
                    std::thread::yield_now();
                }
            }
        }
        drop(h);
        // An empty queue does not mean an idle shard: direct groups run
        // without the claim (and may carry queued runs they popped under
        // the fallback lock). A submission raises its client's flag
        // *before* reading `stopping`, so one that got past that read is
        // visible here until its last reply is out.
        let flags = self.in_flight.lock().expect("no panic under the registry lock");
        for flag in flags.iter().filter_map(Weak::upgrade) {
            while flag.0.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        }
        self.map.sync_persist()
    }

    /// The underlying map.
    pub fn map(&self) -> &Arc<ShardedMap> {
        &self.map
    }

    /// The tuning in effect.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Test hook: grabs shard `shard`'s combiner claim, as a racing
    /// combiner would. Returns whether the claim was free.
    #[doc(hidden)]
    pub fn queue_try_claim_for_test(&self, shard: usize) -> bool {
        self.queues[shard].try_claim()
    }

    /// Test hook: releases shard `shard`'s combiner claim.
    #[doc(hidden)]
    pub fn queue_release_for_test(&self, shard: usize) {
        self.queues[shard].release()
    }

    /// Test hook: whether shard `shard`'s queue is momentarily empty.
    #[doc(hidden)]
    pub fn queue_is_empty_for_test(&self, shard: usize) -> bool {
        self.queues[shard].is_empty()
    }

    /// Registers the calling thread and returns a submission handle.
    pub fn client(self: &Arc<Self>) -> ServerClient {
        let in_flight = Arc::new(InFlight::default());
        let mut flags = self.in_flight.lock().expect("no panic under the registry lock");
        flags.retain(|f| f.strong_count() > 0);
        flags.push(Arc::downgrade(&in_flight));
        drop(flags);
        let shards = self.queues.len();
        ServerClient {
            h: self.map.handle(),
            srv: Arc::clone(self),
            local: PathStats::new(),
            in_flight,
            groups: (0..shards).map(|_| Group::default()).collect(),
            touched: Vec::with_capacity(shards),
            pends: Vec::with_capacity(shards),
            spare: Vec::new(),
            run: RunBufs::new(&self.cfg),
            hook: RunBufs::new(&self.cfg),
            #[cfg(test)]
            stall: None,
        }
    }
}

impl fmt::Debug for KvServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KvServer")
            .field("shards", &self.map.shard_count())
            .field("batch_cap", &self.cfg.batch_cap)
            .field("combine_rounds", &self.cfg.combine_rounds)
            .finish()
    }
}

/// A per-thread client of a [`KvServer`]: submits requests into the
/// shared queues and participates in combining while waiting for its own
/// replies (closed loop — every client is also a potential combiner, so
/// the server needs no dedicated executor threads).
pub struct ServerClient {
    srv: Arc<KvServer>,
    h: ShardedHandle,
    /// Front-end-local counters (queue bypasses, hook-combined plans)
    /// merged into [`Self::stats`] alongside the tree-level statistics.
    local: PathStats,
    /// Raised for the length of every submission; registered with the
    /// server so [`KvServer::shutdown`] can wait it out.
    in_flight: Arc<InFlight>,
    // Reused buffers: once warm, a submission allocates only its reply
    // vector and the batch result of each plan it runs.
    /// One group per shard, indexed by shard; only those in `touched`
    /// belong to the submission being compiled.
    groups: Vec<Group>,
    /// The shards the current submission touches, in first-touch order.
    touched: Vec<usize>,
    /// The current submission's queued groups.
    pends: Vec<(usize, Arc<Pending>)>,
    /// The `Pending`s of earlier submissions' queued groups, reused by
    /// later groups once no combiner holds them (see [`recycle`]).
    spare: Vec<Arc<Pending>>,
    /// The run and plan this client combines, and those its
    /// flat-combining hook drains into the same section.
    run: RunBufs,
    hook: RunBufs,
    /// Test seam: runs on the direct lane, between the lane decision and
    /// the group.
    #[cfg(test)]
    stall: Option<Box<dyn FnMut() + Send>>,
}

impl ServerClient {
    /// The server this client submits to.
    pub fn server(&self) -> &Arc<KvServer> {
        &self.srv
    }

    /// Submits a batch of operations (may straddle shards), blocking
    /// until every reply is in. Replies come back in submission order,
    /// each the same `Option<u64>` the direct operation would return. The
    /// batch is compiled into one *group* per shard; a group is applied
    /// atomically — all of its operations land in a single plan (one
    /// transaction or one serialized section), in submission order —
    /// either directly by this client or, when its shard is busy, by
    /// whoever combines that shard's queue. Groups on different shards
    /// may interleave with other clients' work (each key lives in exactly
    /// one shard, so per-key semantics are unaffected).
    ///
    /// # Panics
    ///
    /// Panics if an insert key exceeds the trees' maximum key, or if the
    /// server is shutting down (use [`ServerClient::try_submit`] to
    /// observe shutdown as data instead).
    pub fn submit(&mut self, ops: Vec<BatchOp>) -> Vec<Option<u64>> {
        self.try_submit(ops)
            .expect("submission rejected: the server is shutting down")
    }

    /// [`ServerClient::submit`], but a server that is shutting down is
    /// reported as [`SubmitError::ShuttingDown`] instead of a panic. See
    /// that variant for the fate of a submission racing shutdown.
    pub fn try_submit(&mut self, ops: Vec<BatchOp>) -> Result<Vec<Option<u64>>, SubmitError> {
        let n = ops.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        // Raise the flag, *then* read `stopping` (both `SeqCst`): either
        // we see shutdown and leave, or shutdown sees the flag and waits
        // for this submission's last reply — so every update accepted
        // here is applied (and logged) before shutdown's final fsync.
        self.in_flight.0.store(true, Ordering::SeqCst);
        if self.srv.is_shutting_down() {
            self.in_flight.0.store(false, Ordering::Release);
            return Err(SubmitError::ShuttingDown);
        }
        self.compile(&ops);
        // A WAL-backed shard serializes updaters on its log mutex anyway,
        // and groups that queue together share one log record; measured,
        // running them directly only loses that (README), so persistent
        // maps keep the queue as their front door.
        let direct = !self.srv.map.is_persistent();
        let mut out = vec![None; n];
        let mut pends = std::mem::take(&mut self.pends);
        let mut rejected = false;
        let srv = &*self.srv;
        for &shard in &self.touched {
            let group = &self.groups[shard];
            let q = &srv.queues[shard];
            // The lane rule (crate docs). A *free* shard — nobody queued,
            // no combiner at work, no serialized section in progress —
            // runs the group right here, concurrently with other clients'
            // direct groups; only a group that finds the shard *busy*
            // becomes a waiter and hands its work to the queue.
            if direct && q.is_idle() && !srv.map.shard_busy(shard) {
                #[cfg(test)]
                if let Some(stall) = &mut self.stall {
                    stall();
                }
                let (lane, hook) = (&mut self.local, &mut self.hook);
                let (replies, _path) = self.h.shard_batch_with(shard, &group.plan, |apply| {
                    drain_rounds(srv, shard, apply, lane, hook)
                });
                for (&i, r) in group.at.iter().zip(replies) {
                    out[i] = r;
                }
                continue;
            }
            let p = recycle(&mut self.spare, &group.plan);
            if !q.push(Arc::clone(&p)) {
                // Shutdown closed this queue after our entry check.
                // Groups already run, or enqueued and awaited below, stay
                // applied; their replies are discarded with the error —
                // applied-but-unacknowledged, like a crash right after
                // the log append.
                self.spare.push(p);
                rejected = true;
                break;
            }
            pends.push((shard, p));
        }
        self.drive(&pends);
        self.in_flight.0.store(false, Ordering::Release);
        let result = if rejected {
            Err(SubmitError::ShuttingDown)
        } else {
            if pends.is_empty() {
                self.local.record_batch_bypass(); // never touched a queue
            }
            for (shard, p) in &pends {
                for (&i, &r) in self.groups[*shard].at.iter().zip(p.replies()) {
                    out[i] = r;
                }
            }
            Ok(out)
        };
        self.spare.extend(pends.drain(..).map(|(_, p)| p));
        self.pends = pends;
        result
    }

    /// Compiles a submission into one group per shard, remembering each
    /// operation's position so replies reassemble in submission order.
    /// Each group's buffers are sized for the whole submission when its
    /// shard is first touched, so compiling never reallocates.
    fn compile(&mut self, ops: &[BatchOp]) {
        for &shard in &self.touched {
            self.groups[shard].at.clear();
        }
        self.touched.clear();
        for (i, &op) in ops.iter().enumerate() {
            let shard = self.srv.map.shard_of(op.key());
            let group = &mut self.groups[shard];
            if group.at.is_empty() {
                self.touched.push(shard);
                reset(&mut group.at, ops.len());
                reset(&mut group.plan, ops.len());
            }
            group.at.push(i);
            group.plan.push(op);
        }
    }

    /// Inserts or updates `key` as a one-operation submission, returning
    /// the previous value.
    pub fn insert(&mut self, key: u64, value: u64) -> Option<u64> {
        self.submit(vec![BatchOp::Insert(key, value)]).pop().unwrap()
    }

    /// Removes `key` as a one-operation submission, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<u64> {
        self.submit(vec![BatchOp::Remove(key)]).pop().unwrap()
    }

    /// Looks up `key` as a one-operation submission.
    pub fn get(&mut self, key: u64) -> Option<u64> {
        self.submit(vec![BatchOp::Get(key)]).pop().unwrap()
    }

    /// Range query over `[lo, hi)`: the router's plan splits it into
    /// per-shard sub-scans that travel through the same submission
    /// queues as updates; the runs concatenate (order-preserving router)
    /// or sort-merge into one ascending sequence. Like the direct
    /// [`ShardedHandle::range_query`], a query spanning multiple shards
    /// is not a single atomic snapshot of the whole map.
    ///
    /// # Panics
    ///
    /// Panics if the server is shutting down.
    pub fn range_query(&mut self, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        assert!(
            !self.srv.is_shutting_down(),
            "range query rejected: the server is shutting down"
        );
        let plan = self.srv.map.router().shards_for_range(lo, hi);
        let mut pends: Vec<(usize, Arc<Pending>)> = Vec::with_capacity(plan.len());
        for &(shard, _, _) in &plan {
            let p = Pending::new(Request::Range(lo, hi));
            if !self.srv.queues[shard].push(Arc::clone(&p)) {
                // Shutdown raced us; finish what was enqueued, then give
                // up with the same panic the entry assertion raises.
                self.drive(&pends);
                panic!("range query rejected: the server is shutting down");
            }
            pends.push((shard, p));
        }
        self.drive(&pends);
        let runs: Vec<&[(u64, u64)]> = pends.iter().map(|(_, p)| p.range_reply()).collect();
        if self.srv.map.router().preserves_order() {
            runs.concat()
        } else {
            merge_sorted_slices(&runs)
        }
    }

    /// Merged path statistics across every shard this client has combined
    /// on (includes work it executed for other clients), plus this
    /// client's front-end counters (queue bypasses, hook-combined plans).
    pub fn stats(&self) -> PathStats {
        let mut s = self.h.stats();
        s.merge(&self.local);
        s
    }

    /// Closed-loop completion: until every own request is answered, try
    /// to claim the combiner role on each still-pending shard and drain
    /// its queue; otherwise yield (another client is combining and will
    /// answer for us).
    fn drive(&mut self, pends: &[(usize, Arc<Pending>)]) {
        loop {
            let mut progressed = false;
            let mut all_done = true;
            for i in 0..pends.len() {
                let (shard, p) = &pends[i];
                if p.is_done() {
                    continue;
                }
                all_done = false;
                // One claim per shard per pass: skip if an earlier
                // pending already covered this shard.
                if pends[..i].iter().any(|(s, q)| s == shard && !q.is_done()) {
                    continue;
                }
                if self.srv.queues[*shard].try_claim() {
                    combine_shard(
                        &self.srv,
                        &mut self.h,
                        &mut self.local,
                        *shard,
                        &mut self.run,
                        &mut self.hook,
                    );
                    self.srv.queues[*shard].release();
                    progressed = true;
                }
            }
            if all_done {
                return;
            }
            if !progressed {
                std::thread::yield_now();
            }
        }
    }
}

/// One shard's group of the submission being compiled: its operations
/// and their positions in the submission.
#[derive(Default)]
struct Group {
    at: Vec<usize>,
    plan: Vec<BatchOp>,
}

/// A run of queued requests popped for one plan, and that plan. Reused
/// from plan to plan; the run is emptied as soon as its replies are out,
/// so a combiner holds no submitter's `Pending` any longer than that.
struct RunBufs {
    run: Vec<Arc<Pending>>,
    plan: Vec<BatchOp>,
}

impl RunBufs {
    /// Sized for the longest run `cfg` lets a combiner pop.
    fn new(cfg: &ServerConfig) -> Self {
        RunBufs {
            run: Vec::with_capacity(cfg.batch_cap),
            plan: Vec::new(),
        }
    }
}

/// A `Pending` for a queued group of `plan`: one of `spare` refilled, if
/// any is exclusively ours — no combiner still holds its clone — or else
/// a fresh one. A shared one stays in `spare` for a later group, so a
/// combiner never drops the last clone of a live client's `Pending`:
/// the client that allocated it frees it.
fn recycle(spare: &mut Vec<Arc<Pending>>, plan: &[BatchOp]) -> Arc<Pending> {
    for i in 0..spare.len() {
        if let Some(p) = Arc::get_mut(&mut spare[i]) {
            p.refill(plan);
            return spare.swap_remove(i);
        }
    }
    Pending::new(Request::Ops(plan.to_vec()))
}

/// Drains `shard`'s queue as its combiner: each run of queued point
/// operations becomes one coalesced plan committed through the batch
/// entry point (with the flat-combining hook draining further runs into
/// `hook` if the plan escalates to the serialized section); a queued
/// sub-scan runs on the shard's optimistic scan path. Shared by client
/// `drive` loops and the [`KvServer::shutdown`] drain (callers hold the
/// shard's combiner claim); `lane` is the caller's front-end counters.
fn combine_shard(
    srv: &KvServer,
    h: &mut ShardedHandle,
    lane: &mut PathStats,
    shard: usize,
    bufs: &mut RunBufs,
    hook: &mut RunBufs,
) {
    while srv.queues[shard].pop_run(srv.cfg.batch_cap, &mut bufs.run) {
        if let [p] = bufs.run.as_slice() {
            if let Request::Range(lo, hi) = p.req {
                p.publish_range(h.shard_range_query(shard, lo, hi));
                bufs.run.clear();
                continue;
            }
        }
        plan_of(&bufs.run, &mut bufs.plan);
        let (replies, _path) = h.shard_batch_with(shard, &bufs.plan, |apply| {
            drain_rounds(srv, shard, apply, lane, hook)
        });
        publish_replies(&mut bufs.run, &replies);
    }
}

/// The flat-combining hook of every plan the server runs, queued or
/// direct: entered only when the plan escalated, while this thread holds
/// the shard's fallback lock, it applies up to `combine_rounds` further
/// queued runs in the same serialized section — the waiters that found
/// the shard busy because of this very section. Each such run is a plan
/// on `lane`'s batch lane that cost no transaction of its own (the tree
/// counts its operations as `combined_ops` only), so every operation the
/// server executes is in `batch_ops`.
fn drain_rounds(
    srv: &KvServer,
    shard: usize,
    apply: &mut dyn BatchApply,
    lane: &mut PathStats,
    bufs: &mut RunBufs,
) {
    for _ in 0..srv.cfg.combine_rounds {
        if !srv.queues[shard].pop_op_run(srv.cfg.batch_cap, &mut bufs.run) {
            break;
        }
        plan_of(&bufs.run, &mut bufs.plan);
        let replies = apply.apply(&bufs.plan);
        lane.record_batch(replies.len() as u64, 0);
        publish_replies(&mut bufs.run, &replies);
    }
}

impl fmt::Debug for ServerClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerClient").field("srv", &self.srv).finish()
    }
}

/// Writes the coalesced [`BatchOp`] plan of a run of queued operation
/// groups into `plan`.
fn plan_of(run: &[Arc<Pending>], plan: &mut Vec<BatchOp>) {
    reset(plan, run.iter().map(|p| p.op_count()).sum());
    for p in run {
        match &p.req {
            Request::Ops(ops) => plan.extend_from_slice(ops),
            Request::Range(..) => unreachable!("sub-scans never join a batch plan"),
        }
    }
}

/// Splits a coalesced plan's replies back into per-group slices,
/// publishes each, and empties the run.
fn publish_replies(run: &mut Vec<Arc<Pending>>, replies: &[Option<u64>]) {
    let mut rest = replies;
    for p in run.iter() {
        let (mine, more) = rest.split_at(p.op_count());
        p.publish_ops(mine);
        rest = more;
    }
    debug_assert!(rest.is_empty(), "reply count mismatch");
    run.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use threepath_sharded::{FsyncPolicy, PersistConfig, ShardedConfig};

    /// A direct group on a volatile map holds no combiner claim, so an
    /// empty queue under shutdown's claim no longer proves the shard idle.
    /// Park a client mid-group — volatile: lane decided, direct group not
    /// yet run (the stall seam); persistent: group queued behind a claim
    /// the test holds — and start `shutdown()`: it must not return before
    /// the group's replies are out and, on a persistent map, before the
    /// group is in the log that `recover` then replays.
    #[test]
    fn shutdown_waits_for_a_group_in_flight() {
        for persistent in [false, true] {
            let dir = std::env::temp_dir().join(format!(
                "threepath-server-shutdown-{}-{persistent}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let cfg = ShardedConfig {
                shards: 2,
                key_space: 64,
                batched: true,
                persist: persistent.then(|| PersistConfig {
                    fsync: FsyncPolicy::Never,
                    ..PersistConfig::new(&dir)
                }),
                ..ShardedConfig::default()
            };
            let map = Arc::new(ShardedMap::with_config(cfg.clone()).expect("valid config"));
            let srv = Arc::new(KvServer::new(map, ServerConfig::default()).expect("batched map"));
            let parked = Arc::new(AtomicBool::new(false));
            let go = Arc::new(AtomicBool::new(false));
            let stopped = AtomicBool::new(false);
            if persistent {
                assert!(srv.queues[0].try_claim());
            }
            std::thread::scope(|s| {
                let submitter = s.spawn(|| {
                    let mut c = srv.client();
                    let (parked, go) = (Arc::clone(&parked), Arc::clone(&go));
                    c.stall = Some(Box::new(move || {
                        parked.store(true, Ordering::SeqCst);
                        while !go.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                    }));
                    let ops = (0..4).map(|k| BatchOp::Insert(k, k + 100)).collect();
                    (c.try_submit(ops), c.stats().batch_bypasses())
                });
                while !parked.load(Ordering::SeqCst) && srv.queues[0].is_empty() {
                    std::thread::yield_now();
                }
                let stopper = s.spawn(|| {
                    let r = srv.shutdown();
                    stopped.store(true, Ordering::SeqCst);
                    r
                });
                while !srv.is_shutting_down() {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(50));
                let early = stopped.load(Ordering::SeqCst);
                go.store(true, Ordering::SeqCst);
                if persistent {
                    srv.queues[0].release();
                }
                assert!(
                    !early,
                    "shutdown returned with a group in flight (persistent: {persistent})"
                );
                stopper.join().unwrap().expect("shutdown");
                // Shutdown has returned: the group is applied, whether or
                // not the submitter has got as far as returning.
                assert_eq!(srv.map().len(), 4);
                let (r, bypasses) = submitter.join().unwrap();
                assert_eq!(r, Ok(vec![None; 4]), "accepted before shutdown: acknowledged");
                assert_eq!(bypasses, u64::from(!persistent), "direct iff volatile");
            });
            let mut late = srv.client();
            assert_eq!(late.try_submit(vec![BatchOp::Get(0)]), Err(SubmitError::ShuttingDown));
            drop(late);
            if persistent {
                let want = srv.map().collect();
                drop(srv);
                let (back, _reports) = ShardedMap::recover(&dir, cfg).expect("recover");
                assert_eq!(back.collect(), want, "the parked group reached the log");
                drop(back);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    fn durable_map(dir: &std::path::Path, fsync: FsyncPolicy, spurious: f64) -> ShardedConfig {
        let _ = std::fs::remove_dir_all(dir);
        ShardedConfig {
            shards: 1,
            key_space: 64,
            batched: true,
            htm: threepath_htm::HtmConfig::default().with_spurious(spurious),
            persist: Some(PersistConfig {
                fsync,
                ..PersistConfig::new(dir)
            }),
            ..ShardedConfig::default()
        }
    }

    /// Under `Always` a plan the combiner drains through its
    /// flat-combining hook is applied in the lock holder's section, but
    /// its reply is not published until the flusher has synced its
    /// record: `LoggedApply` waits before it returns.
    #[test]
    fn always_combined_replies_wait_for_their_sync() {
        let dir = std::env::temp_dir().join(format!(
            "threepath-server-always-combined-{}",
            std::process::id()
        ));
        // Every attempt aborts: each plan escalates to the serialized
        // section, where the hook drains the queue.
        let cfg = durable_map(&dir, FsyncPolicy::Always, 1.0);
        let map = Arc::new(ShardedMap::with_config(cfg).expect("valid config"));
        let srv = Arc::new(KvServer::new(map, ServerConfig::default()).expect("batched map"));
        let logs = srv.map().logs().expect("persistent");
        // The test holds the claim, so the client's group waits queued.
        assert!(srv.queues[0].try_claim());
        logs.park_flusher_for_test(true);
        let replied = AtomicBool::new(false);
        std::thread::scope(|s| {
            let client = s.spawn(|| {
                let r = srv.client().try_submit(vec![BatchOp::Insert(5, 50)]);
                replied.store(true, Ordering::SeqCst);
                r
            });
            while srv.queues[0].is_empty() {
                std::thread::yield_now();
            }
            let combiner = s.spawn(|| {
                let mut h = srv.map().handle();
                let mut lane = PathStats::new();
                let mut bufs = RunBufs::new(srv.config());
                h.shard_batch_with(0, &[BatchOp::Insert(1, 10)], |apply| {
                    drain_rounds(&srv, 0, apply, &mut lane, &mut bufs)
                });
                lane.batch_ops()
            });
            let mut reader = srv.map().handle();
            while reader.get(5).is_none() {
                std::thread::yield_now();
            }
            // Applied in the combiner's section; now held for the sync.
            std::thread::sleep(Duration::from_millis(50));
            let early = replied.load(Ordering::SeqCst);
            logs.park_flusher_for_test(false);
            assert!(!early, "a combined reply was published before its record was synced");
            assert_eq!(combiner.join().unwrap(), 1, "the client's plan rode the hook");
            assert_eq!(client.join().unwrap(), Ok(vec![None]));
        });
        assert!(logs.synced_seq(0) >= 2, "both records synced");
        srv.queues[0].release();
        drop(srv);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A queued group's `Pending` is reused for a later group only once
    /// no combiner holds it, and no submit returns an earlier one's
    /// replies. The test holds shard 0's combiner claim, so every group
    /// queues, and combines by hand: it pops each run and answers it, but
    /// keeps the run's clones a while — a combiner that has published
    /// and not yet dropped them. Observations are asserted only after the
    /// client is done, so a failure cannot leave it waiting on a reply.
    #[test]
    fn a_pending_a_combiner_still_holds_is_not_reused() {
        let cfg = ShardedConfig {
            shards: 1,
            key_space: 64,
            batched: true,
            ..ShardedConfig::default()
        };
        let map = Arc::new(ShardedMap::with_config(cfg).expect("valid config"));
        let srv = Arc::new(KvServer::new(map, ServerConfig::default()).expect("batched map"));
        assert!(srv.queues[0].try_claim());
        let pop = || {
            let mut run = Vec::new();
            while !srv.queues[0].pop_run(srv.cfg.batch_cap, &mut run) {
                std::thread::yield_now();
            }
            run
        };
        let answer = |h: &mut ShardedHandle, run: &[Arc<Pending>]| {
            let mut plan = Vec::new();
            plan_of(run, &mut plan);
            let (replies, _path) = h.shard_batch(0, &plan);
            publish_replies(&mut run.to_vec(), &replies);
        };
        let mut h = srv.map().handle();
        let (replies, reused_held, held_reply, recycled, second_reply) = std::thread::scope(|s| {
            let client = s.spawn(|| {
                let mut c = srv.client();
                (1..=3)
                    .map(|v| c.submit(vec![BatchOp::Insert(1, v), BatchOp::Insert(2, v)]))
                    .collect::<Vec<_>>()
            });
            let first = pop();
            answer(&mut h, &first);
            // The client's second group queues while `first` is held.
            let second = pop();
            let reused_held = Arc::ptr_eq(&first[0], &second[0]);
            let held_reply = first[0].is_done().then(|| first[0].replies().to_vec());
            let first_ptr = Arc::as_ptr(&first[0]);
            drop(first);
            answer(&mut h, &second);
            // Now the first group's `Pending` is the client's alone; the
            // second's is still held here.
            let third = pop();
            let recycled = Arc::as_ptr(&third[0]) == first_ptr;
            let second_reply = second[0].is_done().then(|| second[0].replies().to_vec());
            answer(&mut h, &third);
            (
                client.join().unwrap(),
                reused_held,
                held_reply,
                recycled,
                second_reply,
            )
        });
        srv.queues[0].release();
        assert_eq!(
            replies,
            [[None, None], [Some(1), Some(1)], [Some(2), Some(2)]],
            "each submit gets its own replies"
        );
        assert!(!reused_held, "a Pending a combiner still held was reused");
        assert_eq!(
            held_reply,
            Some(vec![None, None]),
            "a held reply was overwritten"
        );
        assert_eq!(
            second_reply,
            Some(vec![Some(1), Some(1)]),
            "a held reply was overwritten"
        );
        assert!(recycled, "a Pending nobody else held was not reused");
    }

    /// A failed flusher fsync reaches `shutdown` as the typed error.
    #[test]
    fn shutdown_reports_a_failed_flush() {
        let dir = std::env::temp_dir().join(format!(
            "threepath-server-fail-sync-{}",
            std::process::id()
        ));
        let mut cfg = durable_map(&dir, FsyncPolicy::EveryN(1), 0.0);
        cfg.persist.as_mut().expect("persistent").failpoints.fail_sync = Some(0);
        let map = Arc::new(ShardedMap::with_config(cfg).expect("valid config"));
        let srv = Arc::new(KvServer::new(map, ServerConfig::default()).expect("batched map"));
        assert_eq!(srv.client().submit(vec![BatchOp::Insert(1, 1)]), vec![None]);
        assert_eq!(
            srv.shutdown(),
            Err(PersistError::Injected { point: "fail_sync" })
        );
        drop(srv);
        let _ = std::fs::remove_dir_all(&dir);
    }

}
