//! The server: configuration, the shared queue set, and per-client
//! submission handles.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};

use threepath_core::{BatchApply, BatchOp, PathStats};
use threepath_sharded::{merge_sorted_slices, PersistError, ShardedHandle, ShardedMap};

use crate::queue::{Pending, Reply, Request, ShardQueue};

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
        for shard in 0..self.queues.len() {
            loop {
                if self.queues[shard].try_claim() {
                    combine_shard(self, &mut h, &mut PathStats::new(), shard);
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
        ServerClient {
            h: self.map.handle(),
            srv: Arc::clone(self),
            local: PathStats::new(),
            in_flight,
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
        // Compile the batch: one group per shard, remembering each op's
        // position so replies reassemble in submission order.
        let mut groups: Vec<(usize, Vec<usize>, Vec<BatchOp>)> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            let shard = self.srv.map.shard_of(op.key());
            match groups.iter_mut().find(|(s, _, _)| *s == shard) {
                Some((_, at, plan)) => {
                    at.push(i);
                    plan.push(op);
                }
                None => groups.push((shard, vec![i], vec![op])),
            }
        }
        // A WAL-backed shard serializes updaters on its log mutex anyway,
        // and groups that queue together share one log record; measured,
        // running them directly only loses that (README), so persistent
        // maps keep the queue as their front door.
        let direct = !self.srv.map.is_persistent();
        let mut out = vec![None; n];
        let mut pends = Vec::new();
        let mut positions = Vec::new();
        let mut rejected = false;
        for (shard, at, plan) in groups {
            let srv = &*self.srv;
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
                let lane = &mut self.local;
                let (replies, _path) = self
                    .h
                    .shard_batch_with(shard, &plan, |apply| drain_rounds(srv, shard, apply, lane));
                for (&i, r) in at.iter().zip(replies) {
                    out[i] = r;
                }
                continue;
            }
            let p = Pending::new(Request::Ops(plan));
            if !q.push(Arc::clone(&p)) {
                // Shutdown closed this queue after our entry check.
                // Groups already run, or enqueued and awaited below, stay
                // applied; their replies are discarded with the error —
                // applied-but-unacknowledged, like a crash right after
                // the log append.
                rejected = true;
                break;
            }
            pends.push((shard, p));
            positions.push(at);
        }
        self.drive(&pends);
        self.in_flight.0.store(false, Ordering::Release);
        if rejected {
            return Err(SubmitError::ShuttingDown);
        }
        if pends.is_empty() {
            self.local.record_batch_bypass(); // never touched a queue
        }
        for (at, (_, p)) in positions.iter().zip(&pends) {
            for (&i, &r) in at.iter().zip(p.replies()) {
                out[i] = r;
            }
        }
        Ok(out)
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
                    combine_shard(&self.srv, &mut self.h, &mut self.local, *shard);
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

/// Drains `shard`'s queue as its combiner: each run of queued point
/// operations becomes one coalesced plan committed through the batch
/// entry point (with the flat-combining hook draining further runs if
/// the plan escalates to the serialized section); a queued sub-scan runs
/// on the shard's optimistic scan path. Shared by client `drive` loops
/// and the [`KvServer::shutdown`] drain (callers hold the shard's
/// combiner claim); `lane` is the caller's front-end counters.
fn combine_shard(srv: &KvServer, h: &mut ShardedHandle, lane: &mut PathStats, shard: usize) {
    while let Some(run) = srv.queues[shard].pop_run(srv.cfg.batch_cap) {
        if let [p] = run.as_slice() {
            if let Request::Range(lo, hi) = &p.req {
                p.publish(Reply::Range(h.shard_range_query(shard, *lo, *hi)));
                continue;
            }
        }
        let (replies, _path) = h.shard_batch_with(shard, &plan_of(&run), |apply| {
            drain_rounds(srv, shard, apply, lane)
        });
        publish_replies(&run, replies);
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
fn drain_rounds(srv: &KvServer, shard: usize, apply: &mut dyn BatchApply, lane: &mut PathStats) {
    for _ in 0..srv.cfg.combine_rounds {
        let Some(more) = srv.queues[shard].pop_op_run(srv.cfg.batch_cap) else {
            break;
        };
        let replies = apply.apply(&plan_of(&more));
        lane.record_batch(replies.len() as u64, 0);
        publish_replies(&more, replies);
    }
}

impl fmt::Debug for ServerClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServerClient").field("srv", &self.srv).finish()
    }
}

/// The coalesced [`BatchOp`] plan of a run of queued operation groups.
fn plan_of(run: &[Arc<Pending>]) -> Vec<BatchOp> {
    run.iter()
        .flat_map(|p| match &p.req {
            Request::Ops(ops) => ops.iter().copied(),
            Request::Range(..) => unreachable!("sub-scans never join a batch plan"),
        })
        .collect()
}

/// Splits a coalesced plan's replies back into per-group slices and
/// publishes each.
fn publish_replies(run: &[Arc<Pending>], replies: Vec<Option<u64>>) {
    let mut it = replies.into_iter();
    for p in run {
        let n = p.op_count();
        p.publish(Reply::Ops(it.by_ref().take(n).collect()));
    }
    debug_assert!(it.next().is_none(), "reply count mismatch");
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
                h.shard_batch_with(0, &[BatchOp::Insert(1, 10)], |apply| {
                    drain_rounds(&srv, 0, apply, &mut lane)
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
