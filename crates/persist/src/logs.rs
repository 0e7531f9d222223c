//! The log set of one persistent map: one [`ShardWal`] per shard behind
//! its log lock, and one flusher thread that does every physical fsync
//! of those logs outside the locks.
//!
//! # Who syncs, and who waits
//!
//! An update on shard `s` holds the shard's log lock across *append +
//! execute* (see [`ShardLogs::lock`]). The append writes the record and,
//! when the [`FsyncPolicy`] says a sync is due, raises a request; it
//! never fsyncs. The flusher serves requests: for each requested shard
//! it samples the shard's *written* mark, fsyncs through its own
//! duplicate of the log's descriptor — without the log lock — and
//! publishes the sample as the shard's *synced* mark. Appends on that
//! shard keep running while the fsync is in flight.
//!
//! Under [`FsyncPolicy::Always`] a reply is released only once the
//! synced mark covers its record ([`ShardLogs::await_reply`]). Records
//! that land while one fsync runs are all covered by the next one, so
//! one fsync releases every writer waiting at that moment: group commit
//! by waiting. Under every other policy no reply waits for an fsync.
//!
//! # A failed fsync is sticky
//!
//! After a failed `fdatasync` the state of the log's tail on disk is
//! unknown, so the shard never syncs again and never publishes a synced
//! mark past the failure. The error is kept per shard and returned by
//! the shard's next append, by every [`ShardLogs::await_reply`] whose
//! record is not yet synced, and by [`ShardLogs::sync_all`]. The
//! flusher itself never panics and never retries.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

use crate::wal::{FailPoints, FsyncPolicy, PersistConfig, ShardWal, WalStats};
use crate::{io_err, PersistError};

/// One shard's durability marks and its fsync, shared by the shard's
/// writer, the map's flusher and the writers waiting for a sync.
#[derive(Debug)]
pub(crate) struct ShardSync {
    /// A duplicate of the log's descriptor: the same open file, so an
    /// fsync through it flushes the log (the wal module docs argue why
    /// it stays the log across snapshot rotation).
    file: File,
    path: PathBuf,
    failpoints: FailPoints,
    /// Sequence number of the last record written into the log.
    written: AtomicU64,
    /// Every record up to this sequence number is on stable storage.
    pub(crate) synced: AtomicU64,
    /// A sync was requested and the flusher has not yet taken it.
    requested: AtomicBool,
    /// Physical sync attempts, driving [`FailPoints::fail_sync`].
    attempts: AtomicU64,
    /// Physical syncs completed.
    syncs: AtomicU64,
    error: OnceLock<PersistError>,
}

impl ShardSync {
    /// The sync state of the log open as `file`, whose last record is
    /// `written`. Nothing counts as synced until the first sync.
    pub(crate) fn new(
        file: &File,
        path: &Path,
        failpoints: FailPoints,
        written: u64,
    ) -> Result<ShardSync, PersistError> {
        Ok(ShardSync {
            file: file
                .try_clone()
                .map_err(|e| io_err("dup wal fd", path, e))?,
            path: path.to_path_buf(),
            failpoints,
            written: AtomicU64::new(written),
            synced: AtomicU64::new(0),
            requested: AtomicBool::new(false),
            attempts: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            error: OnceLock::new(),
        })
    }

    /// Publishes `seq` as the last record written. Called by the writer
    /// after the record's `write_all` returned.
    pub(crate) fn set_written(&self, seq: u64) {
        self.written.store(seq, Ordering::Release);
    }

    /// The shard's sticky sync error, if a sync has failed.
    pub(crate) fn check(&self) -> Result<(), PersistError> {
        match self.error.get() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Takes a raised sync request, as the flusher does.
    #[cfg(test)]
    pub(crate) fn take_request(&self) -> bool {
        self.requested.swap(false, Ordering::AcqRel)
    }

    pub(crate) fn syncs(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }

    /// Syncs every record written so far.
    pub(crate) fn sync_written(&self) -> Result<(), PersistError> {
        self.sync_to(self.written.load(Ordering::Acquire))
    }

    /// The one physical sync: fsyncs the log and publishes `upto`, a
    /// written mark sampled before the call, as synced. A failure is
    /// recorded as the shard's sticky error; after it, this returns the
    /// error without syncing.
    fn sync_to(&self, upto: u64) -> Result<(), PersistError> {
        self.check()?;
        let n = self.attempts.fetch_add(1, Ordering::Relaxed);
        let synced = if self.failpoints.fail_sync == Some(n) {
            Err(PersistError::Injected { point: "fail_sync" })
        } else if self.failpoints.drop_sync {
            Ok(())
        } else {
            self.file
                .sync_data()
                .map(|()| {
                    self.syncs.fetch_add(1, Ordering::Relaxed);
                })
                .map_err(|e| io_err("fsync wal", &self.path, e))
        };
        match synced {
            Ok(()) => {
                self.synced.fetch_max(upto, Ordering::Release);
                Ok(())
            }
            Err(e) => Err(self.error.get_or_init(|| e).clone()),
        }
    }
}

/// The rendezvous of a map's writers, its flusher and its waiters.
/// A standalone [`ShardWal`] holds a signal nobody listens to.
#[derive(Debug, Default)]
pub(crate) struct Signal {
    state: Mutex<SignalState>,
    /// The flusher sleeps here.
    wake: Condvar,
    /// Waiters for a synced mark (and for the test park point) sleep
    /// here; the flusher notifies after every round.
    progress: Condvar,
}

#[derive(Debug, Default)]
struct SignalState {
    /// Some shard raised a request since the flusher last looked.
    pending: bool,
    stop: bool,
    /// Test seam: the flusher holds every sampled sync before its fsync.
    parked: bool,
    /// The flusher is holding a sampled sync at the park point.
    at_park: bool,
}

impl Signal {
    fn lock(&self) -> MutexGuard<'_, SignalState> {
        // Every update under this lock is one flag store, so the state
        // is valid even if a holder panicked; the flusher must not
        // panic on poisoning.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Asks the flusher to sync `shard`.
    pub(crate) fn request(&self, shard: &ShardSync) {
        shard.requested.store(true, Ordering::Release);
        self.lock().pending = true;
        self.wake.notify_one();
    }

    /// The flusher's test park point, between sampling a shard's
    /// written mark and syncing it.
    fn park_point(&self) {
        let mut st = self.lock();
        if !st.parked || st.stop {
            return;
        }
        st.at_park = true;
        self.progress.notify_all();
        while st.parked && !st.stop {
            st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.at_park = false;
    }
}

/// The flusher thread: serves sync requests until the map drops. Under
/// [`FsyncPolicy::Interval`] it also wakes once the interval passes with
/// no request, and then syncs every shard with records not yet synced:
/// the append path only requests a sync on an append, so without this
/// the tail after the last append would stay unsynced.
fn flusher(signal: &Signal, shards: &[Arc<ShardSync>], fsync: FsyncPolicy) {
    let interval = match fsync {
        FsyncPolicy::Interval(d) => Some(d),
        _ => None,
    };
    loop {
        let timed_out = {
            let mut st = signal.lock();
            let mut timed_out = false;
            while !st.pending && !st.stop && !timed_out {
                st = match interval {
                    None => signal.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
                    Some(d) => {
                        let (st, res) = signal
                            .wake
                            .wait_timeout(st, d)
                            .unwrap_or_else(PoisonError::into_inner);
                        timed_out = res.timed_out();
                        st
                    }
                };
            }
            if st.stop && !st.pending {
                return;
            }
            st.pending = false;
            timed_out
        };
        for s in shards {
            let requested = s.requested.swap(false, Ordering::AcqRel);
            let upto = s.written.load(Ordering::Acquire);
            let unsynced = upto > s.synced.load(Ordering::Acquire);
            if !(requested || timed_out && unsynced) {
                continue;
            }
            signal.park_point();
            // A failure is kept in `s`: waiters, the next append and
            // `sync_all` report it.
            let _ = s.sync_to(upto);
        }
        let _st = signal.lock();
        signal.progress.notify_all();
    }
}

/// The logs of one persistent map: one [`ShardWal`] per shard behind
/// its log lock, plus the map's flusher thread, joined on drop. See the
/// module docs for who syncs and who waits.
pub struct ShardLogs {
    logs: Box<[Mutex<ShardWal>]>,
    /// Boxed, so that a map's `Option<ShardLogs>` stays three words.
    flush: Box<Flush>,
}

/// What the lock-free side of [`ShardLogs`] reaches: the shards' sync
/// states, the signal and the flusher thread.
struct Flush {
    syncs: Vec<Arc<ShardSync>>,
    signal: Arc<Signal>,
    fsync: FsyncPolicy,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ShardLogs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardLogs")
            .field("shards", &self.logs.len())
            .field("fsync", &self.flush.fsync)
            .finish()
    }
}

impl ShardLogs {
    /// Creates a fresh, empty log for each of `shards` shards in
    /// `cfg.dir` (see [`ShardWal::create`]) and starts their flusher.
    pub fn create(cfg: &PersistConfig, shards: u32) -> Result<ShardLogs, PersistError> {
        let wals = (0..shards)
            .map(|s| ShardWal::create(cfg, s))
            .collect::<Result<Vec<_>, _>>()?;
        ShardLogs::new(cfg, wals)
    }

    /// Takes over `wals` (shard `i` at index `i`, all written under
    /// `cfg`, e.g. by [`recover_shard`](crate::recover_shard)) and
    /// starts their flusher.
    pub fn new(cfg: &PersistConfig, mut wals: Vec<ShardWal>) -> Result<ShardLogs, PersistError> {
        let signal = Arc::new(Signal::default());
        for w in &mut wals {
            w.signal = Arc::clone(&signal);
        }
        let syncs: Vec<Arc<ShardSync>> = wals.iter().map(|w| Arc::clone(w.marks())).collect();
        let thread = {
            let (signal, syncs, fsync) = (Arc::clone(&signal), syncs.clone(), cfg.fsync);
            std::thread::Builder::new()
                .name("threepath-wal-flusher".into())
                .spawn(move || flusher(&signal, &syncs, fsync))
                .map_err(|e| io_err("spawn wal flusher", &cfg.dir, e))?
        };
        Ok(ShardLogs {
            logs: wals.into_iter().map(Mutex::new).collect(),
            flush: Box::new(Flush {
                syncs,
                signal,
                fsync: cfg.fsync,
                thread: Some(thread),
            }),
        })
    }

    /// Locks shard `shard`'s log. Mutating operations on the shard hold
    /// it across *append + execute*, so the log is a total order of the
    /// shard's committed plans. Poisoning is fatal by design: a panic
    /// while holding the log lock means an append or apply died midway,
    /// and continuing would fork the log from the tree.
    pub fn lock(&self, shard: usize) -> MutexGuard<'_, ShardWal> {
        self.logs[shard]
            .lock()
            .expect("shard log lock poisoned: a persistent update panicked mid-commit")
    }

    /// The reply gate for record `seq` of shard `shard`: under
    /// [`FsyncPolicy::Always`] blocks until the record is synced; under
    /// every other policy returns at once. Call it without holding the
    /// shard's log lock where the caller can, and before the record's
    /// reply is published in any case; the flusher never takes a log
    /// lock, so waiting under one is safe, only slower. Fails with the
    /// shard's sticky error if a sync failed before covering `seq`.
    pub fn await_reply(&self, shard: usize, seq: u64) -> Result<(), PersistError> {
        if self.flush.fsync != FsyncPolicy::Always {
            return Ok(());
        }
        self.wait_synced(shard, seq)
    }

    fn wait_synced(&self, shard: usize, seq: u64) -> Result<(), PersistError> {
        let Flush { syncs, signal, .. } = &*self.flush;
        let s = &syncs[shard];
        if s.synced.load(Ordering::Acquire) >= seq {
            return Ok(());
        }
        let mut st = signal.lock();
        loop {
            // Checked under the lock the flusher notifies under, so a
            // round that completes after this check wakes the wait.
            if s.synced.load(Ordering::Acquire) >= seq {
                return Ok(());
            }
            s.check()?;
            st = signal
                .progress
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Syncs every shard's log through the flusher and returns once each
    /// shard's synced mark reaches the written mark it had at the call —
    /// the graceful-shutdown durability barrier. Fails with the first
    /// sticky sync error of any shard.
    pub fn sync_all(&self) -> Result<(), PersistError> {
        let Flush { syncs, signal, .. } = &*self.flush;
        let marks: Vec<u64> = syncs
            .iter()
            .map(|s| s.written.load(Ordering::Acquire))
            .collect();
        for (s, &mark) in syncs.iter().zip(&marks) {
            s.check()?;
            if s.synced.load(Ordering::Acquire) < mark {
                signal.request(s);
            }
        }
        for (shard, &mark) in marks.iter().enumerate() {
            self.wait_synced(shard, mark)?;
        }
        Ok(())
    }

    /// Sequence number of the last record written to shard `shard`'s log.
    pub fn written_seq(&self, shard: usize) -> u64 {
        self.flush.syncs[shard].written.load(Ordering::Acquire)
    }

    /// Every record of shard `shard` up to this sequence number is on
    /// stable storage (0 before the shard's first sync).
    pub fn synced_seq(&self, shard: usize) -> u64 {
        self.flush.syncs[shard].synced.load(Ordering::Acquire)
    }

    /// Lifetime counters summed across shards.
    pub fn stats(&self) -> WalStats {
        let mut total = WalStats::default();
        for shard in 0..self.logs.len() {
            total.merge(&self.lock(shard).stats());
        }
        total
    }

    /// Test seam: while parked, the flusher holds each sync it samples
    /// before the fsync, so no synced mark moves. Unparking releases it.
    #[doc(hidden)]
    pub fn park_flusher_for_test(&self, parked: bool) {
        let signal = &self.flush.signal;
        signal.lock().parked = parked;
        signal.wake.notify_all();
    }

    /// Test seam: blocks until the parked flusher holds a sampled sync.
    #[doc(hidden)]
    pub fn wait_flusher_parked_for_test(&self) {
        let signal = &self.flush.signal;
        let mut st = signal.lock();
        while !st.at_park {
            st = signal
                .progress
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for ShardLogs {
    fn drop(&mut self) {
        self.flush.signal.lock().stop = true;
        self.flush.signal.wake.notify_all();
        if let Some(t) = self.flush.thread.take() {
            // The flusher never panics; a join error has nothing to say.
            let _ = t.join();
        }
        // Each ShardWal's own drop then makes a best-effort final sync.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::test_dir;
    use std::time::{Duration, Instant};
    use threepath_core::BatchOp;

    fn open_logs(tag: &str, fsync: FsyncPolicy, failpoints: FailPoints) -> (ShardLogs, PathBuf) {
        let dir = test_dir(tag);
        let cfg = PersistConfig {
            fsync,
            snapshot_every: None,
            failpoints,
            ..PersistConfig::new(&dir)
        };
        (ShardLogs::create(&cfg, 2).unwrap(), dir)
    }

    /// Appends one insert to `shard` and returns its sequence number.
    fn append(logs: &ShardLogs, shard: usize, k: u64) -> u64 {
        let mut wal = logs.lock(shard);
        assert!(wal.append(&[BatchOp::Insert(k, k)]).unwrap());
        wal.next_seq() - 1
    }

    fn eventually(what: &str, mut done: impl FnMut() -> bool) {
        let t0 = Instant::now();
        while !done() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "timed out waiting: {what}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A due sync is the flusher's: it completes while the writer still
    /// holds the shard's log lock, so the fsync never needs that lock.
    #[test]
    fn the_flusher_syncs_without_the_log_lock() {
        let (logs, dir) = open_logs("flusher", FsyncPolicy::EveryN(2), FailPoints::default());
        let mut wal = logs.lock(1);
        for k in 0..2 {
            wal.append(&[BatchOp::Insert(k, k)]).unwrap();
        }
        eventually("the flusher syncs record 2", || logs.synced_seq(1) == 2);
        assert_eq!(wal.stats().syncs, 1);
        drop(wal);
        assert_eq!(logs.synced_seq(0), 0, "shard 0 requested nothing");
        assert_eq!(logs.stats().syncs, 1);
        drop(logs);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `Interval` syncs the tail after the last append: the flusher,
    /// with no request for an interval, syncs every shard that has
    /// records not yet synced.
    #[test]
    fn interval_syncs_the_tail_after_appends_stop() {
        let interval = Duration::from_millis(50);
        let (logs, dir) = open_logs(
            "interval-tail",
            FsyncPolicy::Interval(interval),
            FailPoints::default(),
        );
        // Within one interval of the log's creation: no append requests
        // a sync.
        for k in 0..3 {
            append(&logs, 0, k);
        }
        append(&logs, 1, 9);
        std::thread::sleep(Duration::from_millis(500));
        for shard in 0..2 {
            assert_eq!(
                logs.synced_seq(shard),
                logs.written_seq(shard),
                "shard {shard}: the tail is still unsynced 500 ms after the last append"
            );
        }
        assert!(logs.written_seq(0) == 3 && logs.written_seq(1) == 1);
        drop(logs);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `Always` holds a reply until the synced mark covers its record;
    /// `EveryN` releases it at once.
    #[test]
    fn only_always_replies_wait_for_the_sync() {
        let (logs, dir) = open_logs("every-n", FsyncPolicy::EveryN(1), FailPoints::default());
        logs.park_flusher_for_test(true);
        let seq = append(&logs, 0, 1);
        logs.await_reply(0, seq).unwrap();
        assert_eq!(logs.synced_seq(0), 0, "nothing synced while parked");
        logs.park_flusher_for_test(false);
        drop(logs);
        std::fs::remove_dir_all(&dir).ok();

        let (logs, dir) = open_logs("always", FsyncPolicy::Always, FailPoints::default());
        logs.park_flusher_for_test(true);
        let seq = append(&logs, 0, 1);
        let replied = AtomicBool::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let r = logs.await_reply(0, seq);
                replied.store(true, Ordering::SeqCst);
                r
            });
            logs.wait_flusher_parked_for_test();
            std::thread::sleep(Duration::from_millis(50));
            let early = replied.load(Ordering::SeqCst);
            logs.park_flusher_for_test(false);
            assert!(!early, "Always replied before its sync");
            waiter.join().unwrap().unwrap();
        });
        assert!(logs.synced_seq(0) >= seq);
        drop(logs);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Records appended while one fsync is in flight are covered by the
    /// next single fsync: group commit by waiting.
    #[test]
    fn one_fsync_covers_every_record_written_during_the_last() {
        let (logs, dir) = open_logs("group", FsyncPolicy::Always, FailPoints::default());
        logs.park_flusher_for_test(true);
        append(&logs, 0, 0);
        logs.wait_flusher_parked_for_test();
        let mut last = 0;
        for k in 1..4 {
            last = append(&logs, 0, k);
        }
        logs.park_flusher_for_test(false);
        logs.await_reply(0, last).unwrap();
        assert_eq!(logs.synced_seq(0), 4);
        assert_eq!(
            logs.stats().syncs,
            2,
            "one fsync for record 1, one for 2..=4"
        );
        drop(logs);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `sync_all` returns only once every shard's synced mark reaches
    /// its written mark.
    #[test]
    fn sync_all_waits_for_every_shard() {
        let (logs, dir) = open_logs("sync-all", FsyncPolicy::Never, FailPoints::default());
        append(&logs, 0, 0);
        append(&logs, 1, 1);
        append(&logs, 1, 2);
        logs.park_flusher_for_test(true);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let syncer = s.spawn(|| {
                let r = logs.sync_all();
                done.store(true, Ordering::SeqCst);
                r
            });
            logs.wait_flusher_parked_for_test();
            std::thread::sleep(Duration::from_millis(20));
            let early = done.load(Ordering::SeqCst);
            logs.park_flusher_for_test(false);
            assert!(!early, "sync_all returned before the sync");
            syncer.join().unwrap().unwrap();
        });
        for shard in 0..2 {
            assert_eq!(logs.synced_seq(shard), logs.written_seq(shard));
        }
        assert_eq!(logs.written_seq(1), 2);
        drop(logs);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A failed flusher fsync is recorded once, never retried, and seen
    /// by the `Always` waiter, the shard's next append, `sync_all` and
    /// an explicit sync.
    #[test]
    fn a_failed_fsync_is_sticky() {
        let failpoints = FailPoints {
            fail_sync: Some(0),
            ..FailPoints::default()
        };
        let (logs, dir) = open_logs("fail-sync", FsyncPolicy::Always, failpoints);
        let injected = PersistError::Injected { point: "fail_sync" };
        let seq = append(&logs, 0, 0);
        assert_eq!(logs.await_reply(0, seq), Err(injected.clone()));
        assert_eq!(
            logs.lock(0).append(&[BatchOp::Remove(0)]),
            Err(injected.clone())
        );
        assert_eq!(logs.sync_all(), Err(injected.clone()));
        assert_eq!(logs.lock(0).sync(), Err(injected));
        assert_eq!(
            logs.flush.syncs[0].attempts.load(Ordering::Relaxed),
            1,
            "never retried"
        );
        assert_eq!(logs.synced_seq(0), 0);
        assert_eq!(logs.written_seq(0), 1, "the failed append wrote nothing");
        drop(logs);
        std::fs::remove_dir_all(&dir).ok();
    }
}
