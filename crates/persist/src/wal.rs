//! The per-shard write-ahead log: framing, the writer, fsync policies,
//! deterministic fault injection, and shard recovery.
//!
//! # Record framing
//!
//! After a 24-byte header, the log is a sequence of frames
//! `[len: u32][crc: u32][payload]`; `crc` is the CRC-32C of the payload
//! and `len` its byte length. The payload is `[seq: u64][count: u32]`
//! followed by `count` update operations (`0 key value` for an insert,
//! `1 key` for a remove). A crashed append leaves a *prefix* of a frame
//! (appends are single sequential `write_all` calls), which recovery
//! detects as a short read or checksum mismatch and truncates.
//!
//! # Write-ahead ordering
//!
//! The sharded layer appends a plan's record **before** executing the
//! plan, holding the shard's log lock across both, so the log's record
//! order equals the shard's commit order. A record whose plan never
//! executed (crash between append and apply) replays as a fully-applied
//! batch — allowed, since the plan had been accepted and would have
//! committed; what can never happen is a *half*-applied batch, because
//! a batch is one record and records are atomic under the checksum.
//!
//! # Writing and syncing are split
//!
//! [`ShardWal::append`] encodes the record and `write_all`s it — the
//! record is in the kernel when `append` returns, which is all a process
//! kill needs — and publishes its sequence number as the shard's
//! *written* mark. It evaluates the [`FsyncPolicy`] but never calls
//! `fdatasync`: when a sync is due it raises a request. In a map
//! the request wakes the [`ShardLogs`](crate::ShardLogs) flusher, which
//! fsyncs outside the log lock; a standalone writer's only physical
//! syncs are explicit [`ShardWal::sync`] calls. Either way one function
//! does the fsync: it samples the written mark, syncs a duplicate of the
//! log's file descriptor, and publishes the sample as the *synced* mark.
//! A failed sync is sticky: the shard never syncs again, and its next
//! append fails with the error.
//!
//! The duplicate descriptor stays the log across snapshot rotation:
//! [`ShardWal::install_snapshot`] truncates the same inode in place (it
//! never unlinks or renames the log), so a sync through the duplicate
//! reaches whatever the log holds at that moment. A record that rotation
//! cuts from the log is covered by the snapshot, which was fsynced and
//! renamed into place before the truncation — so a sync that sampled its
//! mark before a rotation and ran after it still makes every record up
//! to the mark durable.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use threepath_core::BatchOp;

use crate::logs::{ShardSync, Signal};
use crate::snapshot::{read_snapshot, snapshot_path, write_snapshot};
use crate::{crc32c, io_err, sync_dir, PersistError, FORMAT_VERSION};

const MAGIC: &[u8; 4] = b"3PWL";
/// magic + version + shard + base_seq + crc
const HEADER_LEN: u64 = 4 + 4 + 4 + 8 + 4;
/// seq + count
const MIN_PAYLOAD: u32 = 8 + 4;
/// Upper bound on a sane record; larger lengths are treated as tail
/// damage (a torn length word can decode to anything).
const MAX_PAYLOAD: u32 = 1 << 26;

/// When the log is physically flushed to stable storage, and what a
/// reply waits for.
///
/// Note the durability split: `write(2)` alone already survives a
/// process kill (the page cache belongs to the kernel), and every
/// record is written before its reply under every policy, so the crash
/// harness's SIGKILL loop is exact under every policy. `fsync` governs
/// survival of *machine* crashes — power loss, kernel panic. The
/// fsync itself runs on the map's flusher thread, never under a shard's
/// log lock (see [`ShardLogs`](crate::ShardLogs)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every record is synced before its reply: group commit by
    /// waiting. A reply is released once the shard's synced mark covers
    /// its record, so one `fdatasync` releases every writer waiting at
    /// that moment. The default.
    Always,
    /// Request an `fdatasync` once per `n` records (`n >= 1`). No reply
    /// waits for it: a machine crash loses at most the last `n`
    /// records, plus those appended while one sync is in flight.
    EveryN(u64),
    /// Request an `fdatasync` when at least this much time has passed
    /// since the last request, checked after each append; and, when a
    /// map's flusher has had no request for this long, it syncs every
    /// shard holding records not yet synced, so the tail after the last
    /// append is synced within about one interval too. No reply waits
    /// for a sync: a machine crash loses about the last interval's
    /// records, plus those appended while one sync is in flight. (A
    /// standalone [`ShardWal`] has no flusher; only its explicit syncs
    /// flush.)
    Interval(Duration),
    /// Never sync from the append path; only explicit syncs
    /// ([`ShardWal::sync`], `ShardedMap::sync_persist`, server shutdown)
    /// flush. The process-crash-only durability baseline.
    Never,
}

/// Deterministic fault injection for the log writer — the knobs the
/// crash suite uses to manufacture exactly the torn states recovery
/// must absorb. All counters are per-shard lifetime append indices
/// (0-based, counting only appends that produce a record).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailPoints {
    /// On append number `.0`, write only the first `.1` bytes of the
    /// frame and fail with [`PersistError::Injected`] — a mid-record
    /// tear.
    pub torn_append: Option<(u64, usize)>,
    /// On append number `n`, XOR one bit into the frame's CRC field
    /// before writing — an undetected-at-write corruption the reader
    /// must catch.
    pub flip_crc: Option<u64>,
    /// Suppress every physical fsync (the policy's bookkeeping still
    /// runs) — models a drive that lied about the final flush.
    pub drop_sync: bool,
    /// Physical sync number `n` of the shard (0-based, counting every
    /// sync attempt) fails with [`PersistError::Injected`] — an
    /// `fdatasync` error, which is sticky: the shard syncs no more.
    pub fail_sync: Option<u64>,
}

/// Tuning for the durability layer, carried by
/// `threepath_sharded::ShardedConfig::persist`.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistConfig {
    /// Directory holding the manifest and per-shard files. Created on
    /// demand.
    pub dir: PathBuf,
    /// Physical flush policy (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Snapshot a shard (and truncate its log) once this many records
    /// accumulate since the last snapshot. `None` never snapshots —
    /// recovery replays the whole log.
    pub snapshot_every: Option<u64>,
    /// Fault injection, test-only by intent. [`FailPoints::default`]
    /// injects nothing.
    pub failpoints: FailPoints,
}

impl PersistConfig {
    /// A configuration with the safe defaults: fsync every record,
    /// snapshot every 8192 records.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        PersistConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            snapshot_every: Some(8192),
            failpoints: FailPoints::default(),
        }
    }

    /// Rejects degenerate tunings with a typed error.
    pub fn validate(&self) -> Result<(), PersistError> {
        if self.fsync == FsyncPolicy::EveryN(0) {
            return Err(PersistError::InvalidConfig(
                "fsync: EveryN(0) would never sync; use Never to say that",
            ));
        }
        if self.snapshot_every == Some(0) {
            return Err(PersistError::InvalidConfig(
                "snapshot_every: Some(0) would snapshot before any record lands",
            ));
        }
        Ok(())
    }

    /// Whether `dir` already holds a persistent map (its manifest
    /// exists) — the "create fresh or recover?" probe.
    pub fn initialized(&self) -> bool {
        crate::manifest::manifest_path(&self.dir).exists()
    }
}

/// Lifetime counters of one shard's log writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended.
    pub records: u64,
    /// Frame bytes appended.
    pub bytes: u64,
    /// Physical fsyncs completed (by the flusher or an explicit sync).
    pub syncs: u64,
    /// Snapshots installed (each also rotates the log).
    pub snapshots: u64,
}

impl WalStats {
    /// Adds `other`'s counters into `self` (for cross-shard totals).
    pub fn merge(&mut self, other: &WalStats) {
        self.records += other.records;
        self.bytes += other.bytes;
        self.syncs += other.syncs;
        self.snapshots += other.snapshots;
    }
}

/// The log file for `shard` inside `dir`.
pub fn wal_path(dir: &Path, shard: u32) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

fn encode_header(shard: u32, base_seq: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN as usize);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&shard.to_le_bytes());
    buf.extend_from_slice(&base_seq.to_le_bytes());
    let crc = crc32c(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Encodes one record frame into `frame` (replacing its contents), or
/// returns `false` when the plan contains no updates (reads are never
/// logged). The frame is encoded in place, its length and checksum
/// filled in last; a buffer too small for it is replaced, never grown,
/// so a reused buffer reaches its steady size without a reallocation.
pub(crate) fn encode_record(seq: u64, ops: &[BatchOp], frame: &mut Vec<u8>) -> bool {
    let updates = ops.iter().filter(|o| o.is_update()).count();
    if updates == 0 {
        return false;
    }
    let max_len = 8 + 12 + updates * 17;
    frame.clear();
    if frame.capacity() < max_len {
        *frame = Vec::with_capacity(max_len);
    }
    frame.extend_from_slice(&[0; 8]); // payload length and CRC, below
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&(updates as u32).to_le_bytes());
    for op in ops {
        match *op {
            BatchOp::Insert(k, v) => {
                frame.push(0);
                frame.extend_from_slice(&k.to_le_bytes());
                frame.extend_from_slice(&v.to_le_bytes());
            }
            BatchOp::Remove(k) => {
                frame.push(1);
                frame.extend_from_slice(&k.to_le_bytes());
            }
            BatchOp::Get(_) => {}
        }
    }
    let payload_len = (frame.len() - 8) as u32;
    let crc = crc32c(&frame[8..]);
    frame[..4].copy_from_slice(&payload_len.to_le_bytes());
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    true
}

/// Decodes a checksum-validated payload into `(seq, updates)`. Any
/// violation here rode in under a *valid* CRC, so it is real corruption
/// (fail closed), not a torn tail.
fn decode_payload(payload: &[u8]) -> Result<(u64, Vec<BatchOp>), &'static str> {
    if payload.len() < MIN_PAYLOAD as usize {
        return Err("payload shorter than its fixed fields");
    }
    let seq = u64::from_le_bytes(payload[..8].try_into().unwrap());
    let count = u32::from_le_bytes(payload[8..12].try_into().unwrap());
    let mut ops = Vec::with_capacity(count as usize);
    let mut at = 12usize;
    for _ in 0..count {
        let Some(&tag) = payload.get(at) else {
            return Err("payload ends inside an operation");
        };
        at += 1;
        let need = if tag == 0 { 16 } else { 8 };
        if payload.len() < at + need {
            return Err("payload ends inside an operation");
        }
        let key = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        at += 8;
        match tag {
            0 => {
                let val = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
                at += 8;
                ops.push(BatchOp::Insert(key, val));
            }
            1 => ops.push(BatchOp::Remove(key)),
            _ => return Err("unknown operation tag"),
        }
    }
    if at != payload.len() {
        return Err("payload longer than its operation count");
    }
    Ok((seq, ops))
}

/// One shard's append-only log writer. All mutating access happens under
/// the shard's log lock ([`ShardLogs::lock`](crate::ShardLogs::lock)),
/// which is what makes the log a total order of that shard's committed
/// plans. Syncing happens elsewhere (see the module docs).
#[derive(Debug)]
pub struct ShardWal {
    file: File,
    /// The shard's written/synced marks and the fsync itself, shared
    /// with the flusher.
    marks: Arc<ShardSync>,
    /// Where a due sync is requested: the owning map's flusher, or a
    /// signal nobody listens to while the writer stands alone.
    pub(crate) signal: Arc<Signal>,
    path: PathBuf,
    dir: PathBuf,
    shard: u32,
    /// Sequence number the next record will carry.
    next_seq: u64,
    /// Lifetime append index (records only), driving [`FailPoints`].
    appends: u64,
    since_sync: u64,
    last_sync: Instant,
    records_since_snapshot: u64,
    fsync: FsyncPolicy,
    snapshot_every: Option<u64>,
    failpoints: FailPoints,
    stats: WalStats,
    /// The record being appended, encoded in place; reused record after
    /// record.
    frame: Vec<u8>,
}

impl ShardWal {
    /// Creates a fresh, empty log for `shard` (base sequence 0). Fails
    /// with [`PersistError::WouldClobber`] if the shard already has a
    /// log or snapshot on disk.
    pub fn create(cfg: &PersistConfig, shard: u32) -> Result<ShardWal, PersistError> {
        cfg.validate()?;
        fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create dir", &cfg.dir, e))?;
        for existing in [wal_path(&cfg.dir, shard), snapshot_path(&cfg.dir, shard)] {
            if existing.exists() {
                return Err(PersistError::WouldClobber {
                    path: existing.display().to_string(),
                });
            }
        }
        let path = wal_path(&cfg.dir, shard);
        let file = Self::init_log_file(&path, shard, 0)?;
        sync_dir(&cfg.dir)?;
        Self::assemble(cfg, shard, path, file, 1)
    }

    /// Writes a fresh header with `base_seq` into a (new or truncated)
    /// log file at `path` and syncs it.
    fn init_log_file(path: &Path, shard: u32, base_seq: u64) -> Result<File, PersistError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err("create wal", path, e))?;
        file.write_all(&encode_header(shard, base_seq))
            .map_err(|e| io_err("write wal header", path, e))?;
        file.sync_data().map_err(|e| io_err("fsync wal header", path, e))?;
        Ok(file)
    }

    fn assemble(
        cfg: &PersistConfig,
        shard: u32,
        path: PathBuf,
        file: File,
        next_seq: u64,
    ) -> Result<ShardWal, PersistError> {
        let marks = ShardSync::new(&file, &path, cfg.failpoints, next_seq - 1)?;
        Ok(ShardWal {
            file,
            marks: Arc::new(marks),
            signal: Arc::default(),
            path,
            dir: cfg.dir.clone(),
            shard,
            next_seq,
            appends: 0,
            since_sync: 0,
            last_sync: Instant::now(),
            records_since_snapshot: 0,
            fsync: cfg.fsync,
            snapshot_every: cfg.snapshot_every,
            failpoints: cfg.failpoints,
            stats: WalStats::default(),
            frame: Vec::new(),
        })
    }

    /// The shard this log belongs to.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            syncs: self.marks.syncs(),
            ..self.stats
        }
    }

    pub(crate) fn marks(&self) -> &Arc<ShardSync> {
        &self.marks
    }

    /// Appends one record covering the update operations of `ops`
    /// (write-ahead: call **before** executing the plan, holding the
    /// shard's log lock across both). Returns whether a record was
    /// written — a plan of pure reads appends nothing and consumes no
    /// sequence number. The record is in the kernel on return; when the
    /// [`FsyncPolicy`] says a sync is due, the sync is requested, not
    /// run. Fails with the shard's sticky error once a sync has failed.
    pub fn append(&mut self, ops: &[BatchOp]) -> Result<bool, PersistError> {
        self.marks.check()?;
        if !encode_record(self.next_seq, ops, &mut self.frame) {
            return Ok(false);
        }
        let frame = &mut self.frame;
        let index = self.appends;
        self.appends += 1;
        if self.failpoints.flip_crc == Some(index) {
            frame[4] ^= 0x01; // one bit of the CRC field
        }
        if let Some((at, keep)) = self.failpoints.torn_append {
            if at == index {
                let keep = keep.min(frame.len());
                self.file
                    .write_all(&frame[..keep])
                    .map_err(|e| io_err("append (torn)", &self.path, e))?;
                return Err(PersistError::Injected { point: "torn_append" });
            }
        }
        self.file
            .write_all(frame)
            .map_err(|e| io_err("append", &self.path, e))?;
        self.marks.set_written(self.next_seq);
        self.next_seq += 1;
        self.records_since_snapshot += 1;
        self.stats.records += 1;
        self.stats.bytes += frame.len() as u64;
        self.since_sync += 1;
        let due = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.since_sync >= n,
            FsyncPolicy::Interval(d) => self.last_sync.elapsed() >= d,
            FsyncPolicy::Never => false,
        };
        if due {
            self.reset_sync_clock();
            self.signal.request(&self.marks);
        }
        Ok(true)
    }

    /// Flushes every record written so far to stable storage on the
    /// calling thread (unless the `drop_sync` fail point is armed) and
    /// resets the policy's counters. After a failed sync this returns
    /// the shard's sticky error without syncing again.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        self.reset_sync_clock();
        self.marks.sync_written()
    }

    fn reset_sync_clock(&mut self) {
        self.since_sync = 0;
        self.last_sync = Instant::now();
    }

    /// Whether enough records accumulated since the last snapshot that
    /// the caller should collect the shard and
    /// [`install_snapshot`](Self::install_snapshot).
    pub fn snapshot_due(&self) -> bool {
        self.snapshot_every
            .is_some_and(|n| self.records_since_snapshot >= n)
    }

    /// Installs a snapshot of the shard's full pair set and rotates the
    /// log. The caller must guarantee `pairs` reflects every record
    /// appended so far (the sharded layer holds the shard's log lock, so
    /// no persistent updater can be mid-flight). Crash-safe: the
    /// snapshot lands by atomic rename before the log is reset, so
    /// every kill point leaves a recoverable (snapshot, log) pair.
    pub fn install_snapshot(&mut self, pairs: &[(u64, u64)]) -> Result<(), PersistError> {
        let covered = self.next_seq - 1;
        write_snapshot(&self.dir, self.shard, covered, pairs)?;
        // From here on the old log is redundant: every record it holds
        // is covered by the snapshot just renamed into place. Reset it
        // in place (truncate + fresh header). A crash after the rename
        // but before the reset leaves covered records in the log;
        // recovery skips every record with seq <= the snapshot's seq
        // rather than re-applying it. Truncating in place keeps the
        // inode, so the flusher's duplicate descriptor stays this log.
        self.file = Self::init_log_file(&self.path, self.shard, covered)?;
        sync_dir(&self.dir)?;
        self.records_since_snapshot = 0;
        self.stats.snapshots += 1;
        Ok(())
    }
}

impl Drop for ShardWal {
    fn drop(&mut self) {
        // Best-effort final flush on clean teardown; errors are
        // ignorable here because every explicit durability point
        // (policy syncs, shutdown) already surfaced them.
        let _ = self.sync();
    }
}

/// What [`recover_shard`] found and rebuilt for one shard.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The shard.
    pub shard: u32,
    /// Sequence number the loaded snapshot covered (0 when none).
    pub snapshot_seq: u64,
    /// Pairs loaded from the snapshot.
    pub snapshot_pairs: usize,
    /// Log records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Update operations inside those records.
    pub ops_replayed: u64,
    /// Bytes cut from the log tail (torn or checksum-corrupt).
    pub bytes_truncated: u64,
    /// Live pairs after replay.
    pub live_pairs: usize,
    /// Wall-clock recovery time for this shard.
    pub elapsed: Duration,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {}: snapshot seq {} ({} pairs) + {} records ({} ops) replayed, \
             {} bytes truncated, {} live pairs, {:?}",
            self.shard,
            self.snapshot_seq,
            self.snapshot_pairs,
            self.records_replayed,
            self.ops_replayed,
            self.bytes_truncated,
            self.live_pairs,
            self.elapsed
        )
    }
}

/// The result of recovering one shard: its surviving pairs, a log
/// writer positioned after the last durable record, and the report.
#[derive(Debug)]
pub struct ShardRecovery {
    /// The shard's recovered state, in the order the replay map yields
    /// it (ascending keys).
    pub pairs: Vec<(u64, u64)>,
    /// The re-armed writer — appends continue the sequence the log left
    /// off at.
    pub wal: ShardWal,
    /// What recovery found.
    pub report: RecoveryReport,
}

/// Recovers one shard from `cfg.dir`: loads its snapshot, validates the
/// log against it, replays every fully-framed record past the snapshot,
/// and truncates torn or checksum-corrupt tail bytes. Never panics on
/// bad bytes — damage that a crash cannot produce is a typed error, and
/// damage that a crash *does* produce (a torn tail) is absorbed
/// silently and reported in [`RecoveryReport::bytes_truncated`].
pub fn recover_shard(cfg: &PersistConfig, shard: u32) -> Result<ShardRecovery, PersistError> {
    cfg.validate()?;
    let start = Instant::now();
    let snap = read_snapshot(&cfg.dir, shard)?;
    let (snap_seq, snap_pairs) = match &snap {
        Some((seq, pairs)) => (*seq, pairs.len()),
        None => (0, 0),
    };
    fs::create_dir_all(&cfg.dir).map_err(|e| io_err("create dir", &cfg.dir, e))?;
    let path = wal_path(&cfg.dir, shard);
    let disp = || path.display().to_string();

    let mut map: BTreeMap<u64, u64> = snap.into_iter().flat_map(|(_, p)| p).collect();
    let mut report = RecoveryReport {
        shard,
        snapshot_seq: snap_seq,
        snapshot_pairs: snap_pairs,
        records_replayed: 0,
        ops_replayed: 0,
        bytes_truncated: 0,
        live_pairs: 0,
        elapsed: Duration::ZERO,
    };

    let mut file = match OpenOptions::new().read(true).write(true).open(&path) {
        Ok(f) => Some(f),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(io_err("open wal", &path, e)),
    };

    let mut buf = Vec::new();
    if let Some(f) = file.as_mut() {
        f.read_to_end(&mut buf).map_err(|e| io_err("read wal", &path, e))?;
    }

    // Header validation. The header goes down in one 24-byte write,
    // which a process kill cannot tear — so a file *shorter* than a
    // header is crash debris (creation, or a rotation reset killed
    // between the truncate and the header write; the snapshot rename
    // already landed, so the snapshot alone is consistent), while a
    // full-length header that fails its checksum is damage no crash
    // produces. The latter fails closed once a snapshot exists; before
    // any snapshot the log is the whole history and we conservatively
    // restart it empty, counting the bytes as truncated.
    let header_ok = buf.len() >= HEADER_LEN as usize && {
        let stored = u32::from_le_bytes(buf[20..24].try_into().unwrap());
        crc32c(&buf[..20]) == stored
    };
    // The sequence number of the last record surviving in the log file
    // (snap_seq when the file is reinitialized from the snapshot).
    let last_seq;
    let file = if !header_ok {
        if file.is_some() && buf.len() >= 4 && &buf[0..4] != MAGIC {
            return Err(PersistError::BadMagic { path: disp() });
        }
        if file.is_some() && snap_seq > 0 && buf.len() >= HEADER_LEN as usize {
            return Err(PersistError::CorruptRecord {
                path: disp(),
                offset: 0,
                reason: "log header damaged",
            });
        }
        // No log at all (fresh shard, or a snapshotted shard whose log
        // reset was interrupted — the snapshot alone is consistent), or
        // a header torn mid-creation before any snapshot existed.
        report.bytes_truncated = buf.len() as u64;
        last_seq = snap_seq;
        ShardWal::init_log_file(&path, shard, snap_seq)?
    } else {
        let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(PersistError::VersionSkew {
                path: disp(),
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let stored_shard = u32::from_le_bytes(buf[8..12].try_into().unwrap());
        if stored_shard != shard {
            return Err(PersistError::CorruptRecord {
                path: disp(),
                offset: 8,
                reason: "log belongs to a different shard",
            });
        }
        let base_seq = u64::from_le_bytes(buf[12..20].try_into().unwrap());
        if base_seq > snap_seq {
            // The log starts after records the snapshot never covered:
            // committed updates are unrecoverable. Fail closed.
            return Err(PersistError::SnapshotMismatch {
                path: disp(),
                log_base: base_seq,
                snapshot_seq: snap_seq,
            });
        }

        // Replay. `expected` tracks frame-order sequence numbers from
        // the log's own base; only records past the snapshot mutate the
        // map (a crash between the snapshot rename and the log reset
        // leaves covered records in the log — skipped, not re-applied).
        let mut offset = HEADER_LEN as usize;
        let mut expected = base_seq + 1;
        let mut good_end = offset;
        loop {
            let remaining = buf.len() - offset;
            if remaining == 0 {
                break;
            }
            if remaining < 8 {
                break; // torn frame prefix
            }
            let len = u32::from_le_bytes(buf[offset..offset + 4].try_into().unwrap());
            if !(MIN_PAYLOAD..=MAX_PAYLOAD).contains(&len) {
                break; // torn or garbage length word
            }
            let body_at = offset + 8;
            if buf.len() < body_at + len as usize {
                break; // torn payload
            }
            let stored_crc = u32::from_le_bytes(buf[offset + 4..offset + 8].try_into().unwrap());
            let payload = &buf[body_at..body_at + len as usize];
            if crc32c(payload) != stored_crc {
                break; // corrupt record: cut here
            }
            let (seq, ops) = decode_payload(payload).map_err(|reason| {
                PersistError::CorruptRecord {
                    path: disp(),
                    offset: offset as u64,
                    reason,
                }
            })?;
            if seq != expected {
                return Err(PersistError::CorruptRecord {
                    path: disp(),
                    offset: offset as u64,
                    reason: "sequence number gap under a valid checksum",
                });
            }
            if seq > snap_seq {
                for op in &ops {
                    match *op {
                        BatchOp::Insert(k, v) => {
                            map.insert(k, v);
                        }
                        BatchOp::Remove(k) => {
                            map.remove(&k);
                        }
                        BatchOp::Get(_) => unreachable!("reads are never logged"),
                    }
                }
                report.records_replayed += 1;
                report.ops_replayed += ops.len() as u64;
            }
            expected += 1;
            offset = body_at + len as usize;
            good_end = offset;
        }
        report.bytes_truncated = (buf.len() - good_end) as u64;
        let mut f = file.expect("header_ok implies the file was opened");
        if expected - 1 < snap_seq {
            // The snapshot superseded every surviving record (a crash
            // landed between the snapshot rename and the log reset, and
            // possibly tore the tail too): finish the interrupted
            // rotation so appended records stay contiguous from the
            // snapshot.
            last_seq = snap_seq;
            drop(f);
            ShardWal::init_log_file(&path, shard, snap_seq)?
        } else {
            last_seq = expected - 1;
            if report.bytes_truncated > 0 {
                f.set_len(good_end as u64)
                    .map_err(|e| io_err("truncate torn tail", &path, e))?;
                f.sync_data().map_err(|e| io_err("fsync truncation", &path, e))?;
            }
            f.seek(SeekFrom::End(0)).map_err(|e| io_err("seek wal end", &path, e))?;
            f
        }
    };

    let mut wal = ShardWal::assemble(cfg, shard, path, file, last_seq + 1)?;
    // Records already in the current log count against the snapshot
    // cadence, so a restart mid-interval does not double the interval.
    wal.records_since_snapshot = last_seq - snap_seq;
    report.live_pairs = map.len();
    report.elapsed = start.elapsed();
    Ok(ShardRecovery {
        pairs: map.into_iter().collect(),
        wal,
        report,
    })
}

#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "threepath-persist-{tag}-{}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(dir: &Path) -> PersistConfig {
        PersistConfig {
            snapshot_every: None,
            ..PersistConfig::new(dir)
        }
    }

    /// One record's frame in a buffer of its own.
    fn frame(seq: u64, ops: &[BatchOp]) -> Vec<u8> {
        let mut f = Vec::new();
        assert!(encode_record(seq, ops, &mut f), "the plan has updates");
        f
    }

    /// A reused frame buffer encodes each record exactly as a fresh one
    /// does, skips reads, and keeps the capacity it grew to.
    #[test]
    fn encode_record_reuses_its_buffer() {
        let big: Vec<BatchOp> = (0..8).map(|k| BatchOp::Insert(k, k + 100)).collect();
        let mixed = [BatchOp::Get(1), BatchOp::Remove(2), BatchOp::Get(3)];
        let mut buf = Vec::new();
        assert!(encode_record(7, &big, &mut buf));
        assert_eq!(buf, frame(7, &big));
        let cap = buf.capacity();
        assert!(encode_record(8, &mixed, &mut buf));
        assert_eq!(buf, frame(8, &[BatchOp::Remove(2)]));
        assert_eq!(buf.capacity(), cap, "a smaller record reuses the buffer");
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 8);
        assert_eq!(
            u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            crc32c(&buf[8..])
        );
        assert_eq!(decode_payload(&buf[8..]), Ok((8, vec![BatchOp::Remove(2)])));
        assert!(
            !encode_record(9, &[BatchOp::Get(1)], &mut buf),
            "reads log nothing"
        );
    }

    fn plan(ops: &[(u64, Option<u64>)]) -> Vec<BatchOp> {
        ops.iter()
            .map(|&(k, v)| match v {
                Some(v) => BatchOp::Insert(k, v),
                None => BatchOp::Remove(k),
            })
            .collect()
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = test_dir("roundtrip");
        let c = cfg(&dir);
        let mut wal = ShardWal::create(&c, 0).unwrap();
        assert!(wal.append(&plan(&[(1, Some(10)), (2, Some(20))])).unwrap());
        assert!(wal.append(&plan(&[(1, None), (3, Some(30))])).unwrap());
        // A read-only plan appends nothing and burns no sequence number.
        let before = wal.next_seq();
        assert!(!wal.append(&[BatchOp::Get(1)]).unwrap());
        assert_eq!(wal.next_seq(), before);
        drop(wal);

        let r = recover_shard(&c, 0).unwrap();
        assert_eq!(r.pairs, vec![(2, 20), (3, 30)]);
        assert_eq!(r.report.records_replayed, 2);
        assert_eq!(r.report.ops_replayed, 4);
        assert_eq!(r.report.bytes_truncated, 0);
        assert_eq!(r.report.snapshot_seq, 0);
        assert_eq!(r.wal.next_seq(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_wal_continues_the_sequence() {
        let dir = test_dir("continue");
        let c = cfg(&dir);
        let mut wal = ShardWal::create(&c, 0).unwrap();
        wal.append(&plan(&[(1, Some(1))])).unwrap();
        drop(wal);
        let mut r = recover_shard(&c, 0).unwrap();
        r.wal.append(&plan(&[(2, Some(2))])).unwrap();
        drop(r);
        let r = recover_shard(&c, 0).unwrap();
        assert_eq!(r.pairs, vec![(1, 1), (2, 2)]);
        assert_eq!(r.report.records_replayed, 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_to_clobber() {
        let dir = test_dir("clobber");
        let c = cfg(&dir);
        let _wal = ShardWal::create(&c, 0).unwrap();
        assert!(matches!(
            ShardWal::create(&c, 0),
            Err(PersistError::WouldClobber { .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    /// The policy decides *when a sync is due*; `append` then requests
    /// it and never syncs itself. Observed per append: whether a request
    /// was raised, and that no physical sync ran.
    #[test]
    fn fsync_policies_schedule_syncs() {
        fn due_pattern(policy: FsyncPolicy, appends: u64, tag: &str) -> (Vec<bool>, ShardWal) {
            let dir = test_dir(tag);
            let c = PersistConfig { fsync: policy, ..cfg(&dir) };
            let mut wal = ShardWal::create(&c, 0).unwrap();
            let due = (0..appends)
                .map(|k| {
                    wal.append(&plan(&[(k, Some(k))])).unwrap();
                    wal.marks.take_request()
                })
                .collect();
            assert_eq!(wal.stats().syncs, 0, "{policy:?}: append never syncs");
            fs::remove_dir_all(&dir).ok();
            (due, wal)
        }
        // Always: every record is due.
        let (due, _) = due_pattern(FsyncPolicy::Always, 4, "fsync");
        assert_eq!(due, vec![true; 4]);
        // EveryN(3): group commit — one request per three records.
        let (due, mut wal) = due_pattern(FsyncPolicy::EveryN(3), 7, "fsync-group");
        assert_eq!(due, [false, false, true, false, false, true, false]);
        // An explicit sync is physical and restarts the count.
        wal.sync().unwrap();
        assert_eq!(wal.stats().syncs, 1);
        assert_eq!(wal.marks.synced.load(std::sync::atomic::Ordering::Acquire), 7);
        wal.append(&plan(&[(9, Some(9))])).unwrap();
        wal.append(&plan(&[(9, Some(9))])).unwrap();
        assert!(!wal.marks.take_request(), "the count restarted at the sync");
        // Never: only explicit syncs flush.
        let (due, _) = due_pattern(FsyncPolicy::Never, 5, "fsync-never");
        assert_eq!(due, vec![false; 5]);
    }

    #[test]
    fn degenerate_tunings_are_typed_errors() {
        let dir = test_dir("tuning");
        for bad in [
            PersistConfig { fsync: FsyncPolicy::EveryN(0), ..cfg(&dir) },
            PersistConfig { snapshot_every: Some(0), ..cfg(&dir) },
        ] {
            assert!(matches!(
                ShardWal::create(&bad, 0),
                Err(PersistError::InvalidConfig(_))
            ));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_append_failpoint_truncates_on_recovery() {
        let dir = test_dir("torn");
        let good = plan(&[(1, Some(10))]);
        let frame_len = frame(1, &good).len();
        for keep in 0..frame_len {
            let mut c = cfg(&dir);
            c.dir = dir.join(format!("keep-{keep}"));
            c.failpoints.torn_append = Some((1, keep));
            let mut wal = ShardWal::create(&c, 0).unwrap();
            wal.append(&good).unwrap();
            let err = wal.append(&plan(&[(2, Some(20))])).unwrap_err();
            assert_eq!(err, PersistError::Injected { point: "torn_append" });
            drop(wal);
            let r = recover_shard(&c, 0).unwrap();
            assert_eq!(r.pairs, vec![(1, 10)], "keep={keep}");
            assert_eq!(r.report.bytes_truncated, keep as u64, "keep={keep}");
            assert_eq!(r.wal.next_seq(), 2);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc_flip_failpoint_cuts_the_tail_not_the_process() {
        let dir = test_dir("flip");
        let mut c = cfg(&dir);
        c.failpoints.flip_crc = Some(2);
        let mut wal = ShardWal::create(&c, 0).unwrap();
        for k in 0..4 {
            wal.append(&plan(&[(k, Some(k + 100))])).unwrap();
        }
        drop(wal);
        // Records 0 and 1 survive; the flipped record 2 and everything
        // after it are cut (replay cannot trust anything past the first
        // bad checksum).
        let r = recover_shard(&c, 0).unwrap();
        assert_eq!(r.pairs, vec![(0, 100), (1, 101)]);
        assert_eq!(r.report.records_replayed, 2);
        assert!(r.report.bytes_truncated > 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_sync_failpoint_suppresses_physical_syncs() {
        let dir = test_dir("dropsync");
        let mut c = PersistConfig { fsync: FsyncPolicy::Always, ..cfg(&dir) };
        c.failpoints.drop_sync = true;
        let mut wal = ShardWal::create(&c, 0).unwrap();
        for k in 0..3 {
            wal.append(&plan(&[(k, Some(k))])).unwrap();
            wal.sync().unwrap();
        }
        assert_eq!(wal.stats().syncs, 0, "every fsync was dropped");
        drop(wal);
        // The data still reached the kernel, so in-process recovery (the
        // page-cache durability a SIGKILL leaves intact) sees it all.
        let r = recover_shard(&c, 0).unwrap();
        assert_eq!(r.pairs.len(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_tail_is_truncated_not_fatal() {
        let dir = test_dir("garbage");
        let c = cfg(&dir);
        let mut wal = ShardWal::create(&c, 0).unwrap();
        wal.append(&plan(&[(5, Some(50))])).unwrap();
        drop(wal);
        let path = wal_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 37]).unwrap();
        drop(f);
        let r = recover_shard(&c, 0).unwrap();
        assert_eq!(r.pairs, vec![(5, 50)]);
        assert_eq!(r.report.bytes_truncated, 37);
        // Truncation repaired the file in place: a second recovery is
        // clean.
        let r = recover_shard(&c, 0).unwrap();
        assert_eq!(r.report.bytes_truncated, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_rotates_the_log_and_bounds_replay() {
        let dir = test_dir("snaprotate");
        let c = cfg(&dir);
        let mut wal = ShardWal::create(&c, 0).unwrap();
        let mut state = BTreeMap::new();
        for k in 0..10u64 {
            wal.append(&plan(&[(k, Some(k * 2))])).unwrap();
            state.insert(k, k * 2);
        }
        let pairs: Vec<(u64, u64)> = state.iter().map(|(&k, &v)| (k, v)).collect();
        wal.install_snapshot(&pairs).unwrap();
        assert_eq!(wal.stats().snapshots, 1);
        wal.append(&plan(&[(3, None), (100, Some(1))])).unwrap();
        drop(wal);

        let r = recover_shard(&c, 0).unwrap();
        assert_eq!(r.report.snapshot_seq, 10);
        assert_eq!(r.report.snapshot_pairs, 10);
        assert_eq!(r.report.records_replayed, 1, "replay is bounded by the snapshot");
        assert_eq!(r.pairs.len(), 10);
        assert!(r.pairs.contains(&(100, 1)) && !r.pairs.iter().any(|&(k, _)| k == 3));
        assert_eq!(r.wal.next_seq(), 12);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_due_follows_the_cadence() {
        let dir = test_dir("cadence");
        let c = PersistConfig { snapshot_every: Some(3), ..cfg(&dir) };
        let mut wal = ShardWal::create(&c, 0).unwrap();
        for k in 0..2 {
            wal.append(&plan(&[(k, Some(k))])).unwrap();
        }
        assert!(!wal.snapshot_due());
        wal.append(&plan(&[(9, Some(9))])).unwrap();
        assert!(wal.snapshot_due());
        wal.install_snapshot(&[(0, 0), (1, 1), (9, 9)]).unwrap();
        assert!(!wal.snapshot_due());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn log_missing_its_snapshot_fails_closed() {
        // A log whose header says "base 10" with no snapshot on disk
        // means committed records are gone — sequence-number agreement
        // must reject it.
        let dir = test_dir("noshap");
        let c = PersistConfig { snapshot_every: Some(2), ..cfg(&dir) };
        let mut wal = ShardWal::create(&c, 0).unwrap();
        for k in 0..2 {
            wal.append(&plan(&[(k, Some(k))])).unwrap();
        }
        wal.install_snapshot(&[(0, 0), (1, 1)]).unwrap();
        drop(wal);
        fs::remove_file(snapshot_path(&dir, 0)).unwrap();
        assert!(matches!(
            recover_shard(&c, 0),
            Err(PersistError::SnapshotMismatch { log_base: 2, snapshot_seq: 0, .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_newer_than_the_log_lineage_fails_closed() {
        // Conversely: a snapshot covering seq 5 with a log rotated at
        // base 7 would mean records 6..=7 exist nowhere.
        let dir = test_dir("skew");
        let c = cfg(&dir);
        let _wal = ShardWal::create(&c, 0);
        // Hand-rotate the log header to base 7, snapshot only covers 5.
        write_snapshot(&dir, 0, 5, &[(1, 1)]).unwrap();
        ShardWal::init_log_file(&wal_path(&dir, 0), 0, 7).unwrap();
        assert!(matches!(
            recover_shard(&c, 0),
            Err(PersistError::SnapshotMismatch { log_base: 7, snapshot_seq: 5, .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequence_gap_under_valid_checksum_fails_closed() {
        let dir = test_dir("gap");
        let c = cfg(&dir);
        let wal = ShardWal::create(&c, 0).unwrap();
        drop(wal);
        let path = wal_path(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&frame(1, &plan(&[(1, Some(1))]))).unwrap();
        // Record 3 with record 2 missing: valid CRC, impossible order.
        f.write_all(&frame(3, &plan(&[(3, Some(3))]))).unwrap();
        drop(f);
        assert!(matches!(
            recover_shard(&c, 0),
            Err(PersistError::CorruptRecord { reason: "sequence number gap under a valid checksum", .. })
        ));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_version_and_magic_fail_closed() {
        let dir = test_dir("version");
        let c = cfg(&dir);
        drop(ShardWal::create(&c, 0).unwrap());
        let path = wal_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = 99;
        let crc = crc32c(&bytes[..20]);
        bytes[20..24].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            recover_shard(&c, 0),
            Err(PersistError::VersionSkew { found: 99, .. })
        ));
        fs::write(&path, b"not a wal file at all").unwrap();
        assert!(matches!(recover_shard(&c, 0), Err(PersistError::BadMagic { .. })));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_files_recover_to_an_empty_shard() {
        let dir = test_dir("fresh");
        let c = cfg(&dir);
        let r = recover_shard(&c, 0).unwrap();
        assert!(r.pairs.is_empty());
        assert_eq!(r.wal.next_seq(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_without_log_resumes_from_the_snapshot() {
        let dir = test_dir("snaponly");
        let c = cfg(&dir);
        write_snapshot(&dir, 0, 4, &[(1, 1), (2, 2)]).unwrap();
        let r = recover_shard(&c, 0).unwrap();
        assert_eq!(r.pairs, vec![(1, 1), (2, 2)]);
        assert_eq!(r.wal.next_seq(), 5);
        fs::remove_dir_all(&dir).ok();
    }

    /// A rotation reset killed between the log truncate and the header
    /// write leaves a zero-length log beside the renamed snapshot — the
    /// crash harness hits this for real. The snapshot alone is
    /// consistent (the reset runs under the shard lock, so no record can
    /// land between rename and reinit); recovery must resume from it,
    /// not fail closed. A *full-length* damaged header is still fatal:
    /// single-write headers cannot be torn by a process kill.
    #[test]
    fn empty_log_beside_a_snapshot_is_an_interrupted_rotation() {
        let dir = test_dir("emptyrot");
        let c = cfg(&dir);
        write_snapshot(&dir, 0, 4, &[(1, 1), (2, 2)]).unwrap();
        fs::write(wal_path(&dir, 0), b"").unwrap();
        let r = recover_shard(&c, 0).unwrap();
        assert_eq!(r.pairs, vec![(1, 1), (2, 2)]);
        assert_eq!(r.wal.next_seq(), 5);
        assert_eq!(r.report.bytes_truncated, 0);

        // Same snapshot, but a full-size header with a flipped CRC bit:
        // damage no crash produces — typed error, fail closed.
        let mut hdr = encode_header(0, 4);
        hdr[23] ^= 0x40;
        fs::write(wal_path(&dir, 0), &hdr).unwrap();
        let err = recover_shard(&c, 0).unwrap_err();
        assert!(
            matches!(err, PersistError::CorruptRecord { reason: "log header damaged", .. }),
            "unexpected: {err:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}
