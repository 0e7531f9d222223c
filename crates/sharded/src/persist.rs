//! The sharded map's durability wiring: the manifest, the commit-hook
//! discipline that makes each shard's log a write-ahead total order of
//! its committed plans, the reply gate, and the map-level recovery
//! entry. The logs themselves, their locks and their flusher are
//! [`ShardLogs`], owned by `threepath-persist`.
//!
//! # Why the commit hook lives here and not inside the execution driver
//!
//! Commit order on a shard is only *observable* where updates are
//! serialized: inside the HTM fast path two plans may race and the
//! winner is decided by the hardware, so a hook there could log in an
//! order that differs from the commit order. The sharded layer instead
//! takes the shard's log lock around `append + execute`, making log
//! order, lock order, and commit order the same order by construction.
//! The cost when persistence is off is a single armed `Option` check
//! per update.
//!
//! # What the guarantee is
//!
//! A record is appended (one sequential `write_all` into the kernel)
//! **before** its plan executes and before any reply publishes. After a
//! process kill, recovery replays every fully-framed record: every
//! acknowledged update is restored (its record preceded the reply), and
//! no batch is half-applied (a batch is one record, atomic under its
//! checksum). A record whose plan never executed replays as a fully
//! applied but unacknowledged batch — permitted, since the plan had
//! been accepted and would have committed.
//!
//! The [`FsyncPolicy`](threepath_persist::FsyncPolicy) widens this to
//! *machine* crashes. The fsync runs on the map's flusher, never under
//! a log lock. Under `Always` a reply also waits until the flusher has
//! synced its record: a point op or `shard_batch` waits after releasing
//! the log lock; a plan drained through [`LoggedApply`] waits inside
//! `apply`, because the server publishes its reply as soon as `apply`
//! returns. Under `EveryN(n)` and `Interval` no reply waits: a machine
//! crash loses at most the records since the last requested sync, plus
//! those appended while one sync is in flight. A failed fsync is sticky
//! and fail-stop: the shard's next append, every `Always` reply still
//! waiting, [`ShardedMap::sync_persist`] and the server's shutdown all
//! see it.

use std::sync::Arc;

use threepath_core::{BatchApply, BatchOp};
use threepath_persist::{
    read_manifest, recover_shard, write_manifest, Manifest, PersistConfig, PersistError,
    RecoveryReport, ShardLogs, ShardWal, WalStats,
};

use crate::map::{ShardedConfig, ShardedMap};
use crate::router::{ConfigError, RouterKind};
use crate::tree::ShardBackend;

fn backend_tag(b: ShardBackend) -> u32 {
    match b {
        ShardBackend::Bst => 0,
        ShardBackend::AbTree => 1,
    }
}

fn router_tag(r: RouterKind) -> u32 {
    match r {
        RouterKind::Range => 0,
        RouterKind::Hash => 1,
    }
}

fn manifest_of(cfg: &ShardedConfig) -> Manifest {
    Manifest {
        shards: cfg.shards as u32,
        backend: backend_tag(cfg.backend),
        router: router_tag(cfg.router),
        key_space: cfg.key_space,
    }
}

/// Initializes a fresh persistence directory for `cfg`: manifest plus
/// one empty log per shard, under a started flusher. Refuses (typed) to
/// clobber an already-initialized directory.
pub(crate) fn create_logs(cfg: &ShardedConfig) -> Result<ShardLogs, ConfigError> {
    let p = cfg.persist.as_ref().expect("caller checked persist is set");
    std::fs::create_dir_all(&p.dir).map_err(|e| {
        ConfigError::Persist(PersistError::Io {
            op: "create dir",
            path: p.dir.display().to_string(),
            kind: e.kind(),
            msg: e.to_string(),
        })
    })?;
    write_manifest(&p.dir, &manifest_of(cfg)).map_err(ConfigError::Persist)?;
    ShardLogs::create(p, cfg.shards as u32).map_err(ConfigError::Persist)
}

/// Validates `cfg` against the manifest already in its persistence
/// directory, recovers every shard, and returns the recovered wals
/// plus per-shard pair sets and reports.
#[allow(clippy::type_complexity)]
pub(crate) fn recover_logs(
    cfg: &ShardedConfig,
) -> Result<(ShardLogs, Vec<Vec<(u64, u64)>>, Vec<RecoveryReport>), ConfigError> {
    let p = cfg.persist.as_ref().ok_or(ConfigError::Persist(PersistError::NotPersisted))?;
    let want = manifest_of(cfg);
    let stored = read_manifest(&p.dir)
        .map_err(ConfigError::Persist)?
        .ok_or_else(|| {
            ConfigError::Persist(PersistError::Io {
                op: "read manifest",
                path: p.dir.display().to_string(),
                kind: std::io::ErrorKind::NotFound,
                msg: "directory holds no manifest — nothing to recover".into(),
            })
        })?;
    for (field, s, c) in [
        ("shards", stored.shards as u64, want.shards as u64),
        ("backend", stored.backend as u64, want.backend as u64),
        ("router", stored.router as u64, want.router as u64),
        ("key_space", stored.key_space, want.key_space),
    ] {
        if s != c {
            return Err(ConfigError::Persist(PersistError::ManifestMismatch {
                field,
                stored: s,
                configured: c,
            }));
        }
    }
    let mut wals = Vec::with_capacity(cfg.shards);
    let mut pairs = Vec::with_capacity(cfg.shards);
    let mut reports = Vec::with_capacity(cfg.shards);
    for s in 0..cfg.shards {
        let r = recover_shard(p, s as u32).map_err(ConfigError::Persist)?;
        wals.push(r.wal);
        pairs.push(r.pairs);
        reports.push(r.report);
    }
    let logs = ShardLogs::new(p, wals).map_err(ConfigError::Persist)?;
    Ok((logs, pairs, reports))
}

/// Validates the persistence knobs of `cfg` (called from
/// `ShardedConfig::validate`).
pub(crate) fn validate_persist(cfg: &ShardedConfig) -> Result<(), ConfigError> {
    if let Some(p) = &cfg.persist {
        p.validate().map_err(ConfigError::Persist)?;
    }
    Ok(())
}

/// Appends the record of `ops` to `wal` (write-ahead: the caller holds
/// the shard's log lock and executes the plan next) and returns its
/// sequence number, or `None` for a plan of pure reads. Runtime log IO
/// failure is fail-stop by design — continuing would acknowledge updates
/// the log never saw.
pub(crate) fn append_record(wal: &mut ShardWal, ops: &[BatchOp]) -> Option<u64> {
    wal.append(ops)
        .expect("WAL append failed (fail-stop: the log is the map)")
        .then(|| wal.next_seq() - 1)
}

/// Holds a reply until the fsync policy lets it leave (see
/// [`ShardLogs::await_reply`]). A failed sync is fail-stop, like a
/// failed append.
pub(crate) fn await_reply(logs: &ShardLogs, shard: usize, seq: Option<u64>) {
    if let Some(seq) = seq {
        logs.await_reply(shard, seq)
            .expect("WAL sync failed (fail-stop: the log is the map)");
    }
}

/// A [`BatchApply`] wrapper that appends each flat-combined plan's
/// record *before* the plan applies, so the write-ahead invariant holds
/// for every plan the combiner drains while holding the fallback lock.
/// The server publishes those replies as soon as `apply` returns, so
/// `apply` also waits out the fsync policy before it returns — under
/// the log lock, which is safe because the flusher never takes it.
pub(crate) struct LoggedApply<'a, 'b> {
    pub(crate) logs: &'a ShardLogs,
    pub(crate) shard: usize,
    pub(crate) wal: &'a mut ShardWal,
    pub(crate) inner: &'b mut dyn BatchApply,
}

impl BatchApply for LoggedApply<'_, '_> {
    fn apply(&mut self, ops: &[BatchOp]) -> Vec<Option<u64>> {
        let seq = append_record(self.wal, ops);
        let replies = self.inner.apply(ops);
        await_reply(self.logs, self.shard, seq);
        replies
    }
}

impl ShardedMap {
    /// Recovers a persistent map from `dir`: validates the manifest
    /// against `cfg`, loads each shard's snapshot, replays its log tail
    /// (discarding torn or corrupt tail records), and rebuilds the
    /// shards. `cfg.persist` supplies the tuning; its `dir` field is
    /// overridden by `dir` (pass a default [`PersistConfig`] to recover
    /// with default tuning). Returns the map and one [`RecoveryReport`]
    /// per shard.
    ///
    /// Never panics on bad bytes: every malformed state is a typed
    /// [`PersistError`] inside [`ConfigError::Persist`].
    pub fn recover(
        dir: impl Into<std::path::PathBuf>,
        mut cfg: ShardedConfig,
    ) -> Result<(Arc<ShardedMap>, Vec<RecoveryReport>), ConfigError> {
        let dir = dir.into();
        let mut p = cfg.persist.take().unwrap_or_else(|| PersistConfig::new(&dir));
        p.dir = dir;
        cfg.persist = Some(p);
        Self::recover_with_config(cfg)
    }

    /// [`ShardedMap::recover`] with the directory taken from
    /// `cfg.persist` (which must be set).
    pub fn recover_with_config(
        cfg: ShardedConfig,
    ) -> Result<(Arc<ShardedMap>, Vec<RecoveryReport>), ConfigError> {
        cfg.validate()?;
        if cfg.persist.is_none() {
            return Err(ConfigError::Persist(PersistError::NotPersisted));
        }
        let (logs, pairs, reports) = recover_logs(&cfg)?;
        let map = Self::build_recovered(cfg, logs)?;
        // Refill each shard directly through its tree handle: replay
        // must not re-log (the records are already durable) and must
        // not re-route (the manifest pinned the partition). The pairs
        // arrive in sorted key order, which would degenerate the
        // unbalanced external BST into a list (quadratic recovery);
        // median-first insertion rebuilds a balanced tree instead and
        // is harmless for the self-balancing (a,b)-tree backend.
        for (s, shard_pairs) in pairs.into_iter().enumerate() {
            let mut h = map.shard_tree(s).handle();
            let mut ranges = vec![(0usize, shard_pairs.len())];
            while let Some((lo, hi)) = ranges.pop() {
                if lo >= hi {
                    continue;
                }
                let mid = lo + (hi - lo) / 2;
                let (k, v) = shard_pairs[mid];
                h.insert(k, v);
                ranges.push((lo, mid));
                ranges.push((mid + 1, hi));
            }
        }
        Ok((map, reports))
    }

    /// Aggregated write-ahead-log counters, or `None` on a volatile map.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.logs().map(ShardLogs::stats)
    }

    /// Fsyncs every shard's log and returns once every record written
    /// so far is on stable storage — the graceful-shutdown durability
    /// barrier (see [`ShardLogs::sync_all`]). Fails with a shard's
    /// sticky error once any of its syncs has failed. No-op on a
    /// volatile map.
    pub fn sync_persist(&self) -> Result<(), PersistError> {
        match self.logs() {
            Some(l) => l.sync_all(),
            None => Ok(()),
        }
    }

    /// Whether this map persists its updates.
    pub fn is_persistent(&self) -> bool {
        self.logs().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::time::Duration;
    use threepath_persist::FsyncPolicy;

    pub(crate) fn test_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "threepath-sharded-persist-{tag}-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create test dir");
        dir
    }

    fn persisted(dir: &std::path::Path, shards: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            key_space: 100,
            batched: true,
            persist: Some(PersistConfig {
                fsync: FsyncPolicy::Never,
                snapshot_every: None,
                ..PersistConfig::new(dir)
            }),
            ..ShardedConfig::default()
        }
    }

    #[test]
    fn point_ops_round_trip_through_recovery() {
        let dir = test_dir("points");
        let cfg = persisted(&dir, 4);
        let map = Arc::new(ShardedMap::with_config(cfg.clone()).unwrap());
        let mut h = map.handle();
        for k in 0..50u64 {
            assert_eq!(h.insert(k, k * 3), None);
        }
        assert_eq!(h.remove(7), Some(21));
        assert_eq!(h.insert(9, 999), Some(27));
        assert_eq!(h.get(9), Some(999), "reads still work on a persistent map");
        drop(h);
        let expect_pairs = map.collect();
        drop(map);

        let (rec, reports) = ShardedMap::recover(&dir, cfg).unwrap();
        assert_eq!(rec.collect(), expect_pairs);
        rec.validate().unwrap();
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().map(|r| r.records_replayed).sum::<u64>() >= 52);
        fs_cleanup(&dir);
    }

    #[test]
    fn batches_and_combining_are_logged_write_ahead() {
        let dir = test_dir("batches");
        let cfg = persisted(&dir, 2);
        let map = Arc::new(ShardedMap::with_config(cfg.clone()).unwrap());
        let mut h = map.handle();
        // Shard 0 owns [0, 50) under range routing.
        let (replies, _) = h.shard_batch(
            0,
            &[
                threepath_core::BatchOp::Insert(1, 10),
                threepath_core::BatchOp::Get(1),
                threepath_core::BatchOp::Remove(1),
                threepath_core::BatchOp::Insert(2, 20),
            ],
        );
        assert_eq!(replies, vec![None, Some(10), Some(10), None]);
        let stats = h.stats();
        assert_eq!(stats.wal_records(), 1, "one batch = one record");
        drop(h);
        let wal = map.wal_stats().unwrap();
        assert_eq!(wal.records, 1);
        drop(map);
        let (rec, _) = ShardedMap::recover(&dir, cfg).unwrap();
        assert_eq!(rec.collect(), vec![(2, 20)]);
        fs_cleanup(&dir);
    }

    #[test]
    fn volatile_maps_have_no_wal() {
        let map = Arc::new(
            ShardedMap::with_config(ShardedConfig {
                shards: 2,
                key_space: 100,
                ..ShardedConfig::default()
            })
            .unwrap(),
        );
        assert!(!map.is_persistent());
        assert_eq!(map.wal_stats(), None);
        map.sync_persist().unwrap();
        let mut h = map.handle();
        h.insert(1, 1);
        assert_eq!(h.stats().wal_records(), 0);
    }

    #[test]
    fn snapshots_bound_recovery_replay() {
        let dir = test_dir("snap");
        let mut cfg = persisted(&dir, 2);
        cfg.persist.as_mut().unwrap().snapshot_every = Some(10);
        let map = Arc::new(ShardedMap::with_config(cfg.clone()).unwrap());
        let mut h = map.handle();
        for k in 0..60u64 {
            h.insert(k, k);
        }
        let snapshots = h.stats().wal_snapshots();
        assert!(snapshots >= 4, "cadence 10 over ~30 records/shard snapshots: {snapshots}");
        drop(h);
        let pairs = map.collect();
        drop(map);
        let (rec, reports) = ShardedMap::recover(&dir, cfg).unwrap();
        assert_eq!(rec.collect(), pairs);
        for r in &reports {
            assert!(
                r.records_replayed <= 10,
                "snapshot failed to bound replay: {r}"
            );
            assert!(r.snapshot_seq > 0);
        }
        fs_cleanup(&dir);
    }

    #[test]
    fn fresh_build_refuses_an_initialized_dir_and_layout_drift_fails_closed() {
        let dir = test_dir("manifest");
        let cfg = persisted(&dir, 2);
        assert!(!cfg.persist.as_ref().unwrap().initialized());
        let map = ShardedMap::with_config(cfg.clone()).unwrap();
        assert!(cfg.persist.as_ref().unwrap().initialized());
        drop(map);
        // Building fresh again would clobber.
        assert!(matches!(
            ShardedMap::with_config(cfg.clone()),
            Err(ConfigError::Persist(PersistError::WouldClobber { .. }))
        ));
        // Recovery under a different layout is a typed mismatch.
        let mut drifted = cfg.clone();
        drifted.shards = 4;
        assert!(matches!(
            ShardedMap::recover(&dir, drifted),
            Err(ConfigError::Persist(PersistError::ManifestMismatch { field: "shards", .. }))
        ));
        let mut drifted = cfg.clone();
        drifted.backend = ShardBackend::AbTree;
        assert!(matches!(
            ShardedMap::recover(&dir, drifted),
            Err(ConfigError::Persist(PersistError::ManifestMismatch { field: "backend", .. }))
        ));
        // Recovery with the true layout works.
        ShardedMap::recover(&dir, cfg).unwrap();
        fs_cleanup(&dir);
    }

    #[test]
    fn recover_without_persist_config_is_typed() {
        let dir = test_dir("nopersist");
        let err = ShardedMap::recover_with_config(ShardedConfig::default()).unwrap_err();
        assert_eq!(err, ConfigError::Persist(PersistError::NotPersisted));
        // recover(dir, cfg) fills in a default persist config; with no
        // manifest on disk that is a typed error too, not a panic.
        assert!(matches!(
            ShardedMap::recover(&dir, ShardedConfig::default()),
            Err(ConfigError::Persist(PersistError::Io { .. }))
        ));
        fs_cleanup(&dir);
    }

    #[test]
    fn torn_tail_at_map_level_is_truncated_not_fatal() {
        use std::io::Write;
        let dir = test_dir("torn");
        let cfg = persisted(&dir, 2);
        let map = Arc::new(ShardedMap::with_config(cfg.clone()).unwrap());
        let mut h = map.handle();
        for k in 0..20u64 {
            h.insert(k, k);
        }
        drop(h);
        let pairs = map.collect();
        drop(map);
        // Tear shard 0's log tail with garbage.
        let wal0 = dir.join("shard-0.wal");
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal0).unwrap();
        f.write_all(&[0x5A; 21]).unwrap();
        drop(f);
        let (rec, reports) = ShardedMap::recover(&dir, cfg).unwrap();
        assert_eq!(rec.collect(), pairs);
        assert_eq!(reports[0].bytes_truncated, 21);
        assert_eq!(reports[1].bytes_truncated, 0);
        fs_cleanup(&dir);
    }

    #[test]
    fn degenerate_persist_tuning_is_a_config_error() {
        let dir = test_dir("tuning");
        let mut cfg = persisted(&dir, 2);
        cfg.persist.as_mut().unwrap().snapshot_every = Some(0);
        assert!(matches!(
            ShardedMap::with_config(cfg),
            Err(ConfigError::Persist(PersistError::InvalidConfig(_)))
        ));
        fs_cleanup(&dir);
    }

    fn with_policy(dir: &std::path::Path, fsync: FsyncPolicy) -> ShardedConfig {
        let mut cfg = persisted(dir, 2);
        cfg.persist.as_mut().unwrap().fsync = fsync;
        cfg
    }

    /// Runs `op` on another thread while the map's flusher is parked
    /// holding a sampled sync, and reports whether `op` returned before
    /// the flusher was released. `op` always completes.
    fn returns_while_parked(map: &Arc<ShardedMap>, op: impl FnOnce() + Send) -> bool {
        let logs = map.logs().unwrap();
        logs.park_flusher_for_test(true);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let t = s.spawn(|| {
                op();
                done.store(true, Ordering::SeqCst);
            });
            let t0 = std::time::Instant::now();
            while !done.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_millis(50) {
                std::thread::sleep(Duration::from_millis(1));
            }
            let early = done.load(Ordering::SeqCst);
            logs.park_flusher_for_test(false);
            t.join().unwrap();
            early
        })
    }

    fn synced_everywhere(map: &ShardedMap) -> bool {
        let logs = map.logs().unwrap();
        (0..map.shard_count()).all(|s| logs.synced_seq(s) == logs.written_seq(s))
    }

    /// (a) Under `EveryN(1)` every record requests a sync, but neither a
    /// point op nor a `shard_batch` waits for it.
    #[test]
    fn every_n_replies_do_not_wait_for_the_flusher() {
        let dir = test_dir("everyn-nowait");
        let cfg = with_policy(&dir, FsyncPolicy::EveryN(1));
        let map = Arc::new(ShardedMap::with_config(cfg).unwrap());
        let mut h = map.handle();
        assert!(returns_while_parked(&map, || {
            h.insert(1, 1);
        }));
        assert!(returns_while_parked(&map, || {
            h.shard_batch(0, &[BatchOp::Insert(2, 2), BatchOp::Remove(1)]);
        }));
        drop(h);
        map.sync_persist().unwrap();
        assert!(synced_everywhere(&map));
        fs_cleanup(&dir);
    }

    /// (b) Under `Always` neither a point op nor a `shard_batch`
    /// returns before the flusher has synced its record.
    #[test]
    fn always_replies_wait_for_their_sync() {
        let dir = test_dir("always-wait");
        let cfg = with_policy(&dir, FsyncPolicy::Always);
        let map = Arc::new(ShardedMap::with_config(cfg).unwrap());
        let logs = map.logs().unwrap();
        let mut h = map.handle();
        assert!(!returns_while_parked(&map, || {
            assert_eq!(h.insert(1, 1), None);
        }));
        assert!(logs.synced_seq(0) >= 1);
        assert!(!returns_while_parked(&map, || {
            h.shard_batch(0, &[BatchOp::Insert(2, 2), BatchOp::Remove(1)]);
        }));
        assert!(logs.synced_seq(0) >= 2);
        // A plan of pure reads logs nothing and waits for nothing.
        assert!(returns_while_parked(&map, || {
            h.shard_batch(0, &[BatchOp::Get(2)]);
        }));
        drop(h);
        fs_cleanup(&dir);
    }

    /// (c) `sync_persist` returns only once every shard's synced mark
    /// has reached its written mark.
    #[test]
    fn sync_persist_waits_until_every_shard_is_synced() {
        let dir = test_dir("sync-persist");
        let cfg = with_policy(&dir, FsyncPolicy::Never);
        let map = Arc::new(ShardedMap::with_config(cfg).unwrap());
        let mut h = map.handle();
        for k in [1, 2, 60, 70, 80] {
            h.insert(k, k);
        }
        assert!(!synced_everywhere(&map));
        assert!(!returns_while_parked(&map, || map.sync_persist().unwrap()));
        assert!(synced_everywhere(&map));
        assert_eq!(map.logs().unwrap().written_seq(1), 3);
        drop(h);
        fs_cleanup(&dir);
    }

    /// (d) Snapshot rotations truncate the log while the flusher holds a
    /// sync it sampled before them; the sync through its duplicate
    /// descriptor still lands, and recovery equals the map.
    #[test]
    fn rotation_under_a_parked_flush_recovers_the_map() {
        let dir = test_dir("rotate-parked");
        let mut cfg = with_policy(&dir, FsyncPolicy::EveryN(1));
        cfg.persist.as_mut().unwrap().snapshot_every = Some(4);
        let map = Arc::new(ShardedMap::with_config(cfg.clone()).unwrap());
        let logs = map.logs().unwrap();
        let mut h = map.handle();
        logs.park_flusher_for_test(true);
        h.insert(0, 0);
        logs.wait_flusher_parked_for_test();
        for k in 1..11 {
            h.insert(k, k * 7);
        }
        h.remove(3);
        assert!(h.stats().wal_snapshots() >= 2, "rotations ran during the parked flush");
        logs.park_flusher_for_test(false);
        map.sync_persist().unwrap();
        assert!(synced_everywhere(&map));
        drop(h);
        let pairs = map.collect();
        drop(map);
        let (rec, reports) = ShardedMap::recover(&dir, cfg).unwrap();
        assert_eq!(rec.collect(), pairs);
        assert!(reports[0].snapshot_seq >= 8);
        fs_cleanup(&dir);
    }

    /// A failed flusher fsync reaches `sync_persist` as the typed error.
    #[test]
    fn sync_persist_reports_a_failed_flush() {
        let dir = test_dir("fail-sync");
        let mut cfg = with_policy(&dir, FsyncPolicy::EveryN(1));
        cfg.persist.as_mut().unwrap().failpoints.fail_sync = Some(0);
        let map = Arc::new(ShardedMap::with_config(cfg).unwrap());
        map.handle().insert(1, 1);
        assert_eq!(
            map.sync_persist(),
            Err(PersistError::Injected { point: "fail_sync" })
        );
        drop(map);
        fs_cleanup(&dir);
    }

    /// An `Always` writer whose sync failed does not reply: the update is
    /// fail-stop, like a failed append.
    #[test]
    #[should_panic(expected = "WAL sync failed")]
    fn an_always_reply_after_a_failed_sync_is_fail_stop() {
        let dir = test_dir("fail-always");
        let mut cfg = with_policy(&dir, FsyncPolicy::Always);
        cfg.persist.as_mut().unwrap().failpoints.fail_sync = Some(0);
        let map = Arc::new(ShardedMap::with_config(cfg).unwrap());
        let mut h = map.handle();
        fs_cleanup(&dir);
        h.insert(1, 1);
    }

    fn fs_cleanup(dir: &std::path::Path) {
        std::fs::remove_dir_all(dir).ok();
    }
}
