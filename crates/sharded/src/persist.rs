//! The sharded map's durability wiring: one [`ShardWal`] per shard
//! behind a mutex, the commit-hook discipline that makes the log a
//! write-ahead total order of the shard's committed plans, and the
//! map-level recovery entry.
//!
//! # Why the commit hook lives here and not inside `run_op`
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
//! been accepted and would have committed. `fsync` policy only widens
//! this to *machine* crashes; see [`FsyncPolicy`].

use std::sync::{Arc, Mutex, MutexGuard};

use threepath_core::{BatchApply, BatchOp};
use threepath_persist::{
    read_manifest, recover_shard, write_manifest, Manifest, PersistConfig, PersistError,
    RecoveryReport, ShardWal, WalStats,
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

/// The per-map durability state: one log writer per shard. Mutating
/// operations on shard `s` hold `logs[s]` across *append + execute*, so
/// the log is a total order of that shard's committed plans.
pub(crate) struct PersistLayer {
    logs: Vec<Mutex<ShardWal>>,
}

impl std::fmt::Debug for PersistLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistLayer")
            .field("shards", &self.logs.len())
            .finish()
    }
}

impl PersistLayer {
    /// Initializes a fresh persistence directory for `cfg`: manifest
    /// plus one empty log per shard. Refuses (typed) to clobber an
    /// already-initialized directory.
    pub(crate) fn create(cfg: &ShardedConfig) -> Result<PersistLayer, ConfigError> {
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
        let logs = (0..cfg.shards)
            .map(|s| ShardWal::create(p, s as u32).map(Mutex::new))
            .collect::<Result<Vec<_>, _>>()
            .map_err(ConfigError::Persist)?;
        Ok(PersistLayer { logs })
    }

    /// Wraps recovered log writers (recovery constructs them itself).
    pub(crate) fn from_wals(wals: Vec<ShardWal>) -> PersistLayer {
        PersistLayer {
            logs: wals.into_iter().map(Mutex::new).collect(),
        }
    }

    /// Locks shard `s`'s log. Poisoning is fatal by design: a panic
    /// while holding the log lock means an append or apply died midway,
    /// and continuing would fork the log from the tree.
    pub(crate) fn lock(&self, shard: usize) -> MutexGuard<'_, ShardWal> {
        self.logs[shard]
            .lock()
            .expect("shard log lock poisoned: a persistent update panicked mid-commit")
    }

    /// Lifetime counters summed across shards.
    pub(crate) fn stats(&self) -> WalStats {
        let mut total = WalStats::default();
        for l in &self.logs {
            total.merge(&self.lock_of(l).stats());
        }
        total
    }

    /// Flushes and fsyncs every shard's log (graceful-shutdown barrier).
    pub(crate) fn sync_all(&self) -> Result<(), PersistError> {
        for l in &self.logs {
            self.lock_of(l).sync()?;
        }
        Ok(())
    }

    fn lock_of<'a>(&self, l: &'a Mutex<ShardWal>) -> MutexGuard<'a, ShardWal> {
        l.lock()
            .expect("shard log lock poisoned: a persistent update panicked mid-commit")
    }
}

/// Validates `cfg` against the manifest already in its persistence
/// directory, recovers every shard, and returns the recovered wals
/// plus per-shard pair sets and reports.
#[allow(clippy::type_complexity)]
pub(crate) fn recover_layer(
    cfg: &ShardedConfig,
) -> Result<(PersistLayer, Vec<Vec<(u64, u64)>>, Vec<RecoveryReport>), ConfigError> {
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
    Ok((PersistLayer::from_wals(wals), pairs, reports))
}

/// Validates the persistence knobs of `cfg` (called from
/// `ShardedConfig::validate`).
pub(crate) fn validate_persist(cfg: &ShardedConfig) -> Result<(), ConfigError> {
    if let Some(p) = &cfg.persist {
        p.validate().map_err(ConfigError::Persist)?;
    }
    Ok(())
}

/// A [`BatchApply`] wrapper that appends each flat-combined plan's
/// record *before* the plan applies, so the write-ahead invariant holds
/// for every plan the combiner drains while holding the fallback lock —
/// the server publishes those replies inside the combining closure.
pub(crate) struct LoggedApply<'a, 'b> {
    pub(crate) wal: &'a mut ShardWal,
    pub(crate) inner: &'b mut dyn BatchApply,
}

impl BatchApply for LoggedApply<'_, '_> {
    fn apply(&mut self, ops: &[BatchOp]) -> Vec<Option<u64>> {
        self.wal
            .append(ops)
            .expect("WAL append failed while flat combining (fail-stop: the log is the map)");
        self.inner.apply(ops)
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
        let (layer, pairs, reports) = recover_layer(&cfg)?;
        let map = Self::build_recovered(cfg, layer)?;
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
        self.persist_layer().map(PersistLayer::stats)
    }

    /// Flushes and fsyncs every shard's log — the graceful-shutdown
    /// durability barrier. No-op on a volatile map.
    pub fn sync_persist(&self) -> Result<(), PersistError> {
        match self.persist_layer() {
            Some(l) => l.sync_all(),
            None => Ok(()),
        }
    }

    /// Whether this map persists its updates.
    pub fn is_persistent(&self) -> bool {
        self.persist_layer().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use threepath_persist::FsyncPolicy;
    use std::sync::atomic::{AtomicU64, Ordering};

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

    fn fs_cleanup(dir: &std::path::Path) {
        std::fs::remove_dir_all(dir).ok();
    }
}
