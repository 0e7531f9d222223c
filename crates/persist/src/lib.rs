//! Per-shard durability for the threepath sharded map: a checksummed
//! append-only write-ahead log plus periodic snapshots, so a crashed
//! process recovers to snapshot-load + bounded log replay.
//!
//! This crate owns the **storage formats, the per-shard recovery
//! algorithm, and the log lock**: [`ShardLogs`] holds one [`ShardWal`]
//! per shard behind its mutex, plus the map's flusher thread, which does
//! every physical fsync outside those mutexes. It knows nothing about
//! trees, routers, or HTM. The sharded layer (`threepath-sharded`)
//! decides *when* to append (holding the shard's log lock, before an
//! update executes — write-ahead), *when* to snapshot (at a quiescent
//! point where the log lock excludes every other persistent updater),
//! and when a reply may leave ([`ShardLogs::await_reply`]); it feeds
//! recovered pairs back into its shards.
//!
//! # On-disk layout
//!
//! A persistence directory holds one `manifest`, and per shard `s` a log
//! `shard-<s>.wal` and (once the first snapshot lands) `shard-<s>.snap`.
//! All files are little-endian and carry a magic + format-version header
//! so a future format bump fails closed with
//! [`PersistError::VersionSkew`] instead of misparsing.
//!
//! **WAL** (`shard-<s>.wal`): a 24-byte header (`b"3PWL"`, version,
//! shard index, `base_seq`, header CRC) followed by records. Each record
//! is `[len: u32][crc: u32][payload]` where `crc` is the CRC-32C of the
//! payload and the payload is `[seq: u64][op_count: u32]` followed by
//! the update operations (tag byte, key, value-for-inserts). `base_seq`
//! is the sequence number already covered by the shard's snapshot when
//! the log was created or rotated; record sequence numbers are
//! contiguous from `base_seq + 1`. Reads never log; an all-read plan
//! appends nothing.
//!
//! **Snapshot** (`shard-<s>.snap`): header (`b"3PSN"`, version, shard,
//! covered sequence number, pair count), the pairs, and a trailing
//! CRC-32C over everything before it. Snapshots are written to a temp
//! file, fsynced, and atomically renamed into place before the log is
//! rotated, so a crash at any point leaves either the old
//! (snapshot, log) pair or the new one — never a torn mix.
//!
//! # Recovery
//!
//! [`recover_shard`] loads the snapshot (if any), validates the log
//! header against it, replays records with `seq > snapshot_seq`, and
//! **truncates** the log at the first torn or checksum-corrupt record —
//! a crashed append is expected damage, never an error. Structurally
//! valid records that violate the format (bad op tag, sequence gap with
//! a *valid* checksum) are real corruption and fail closed with a typed
//! [`PersistError`]. The outcome of each shard's recovery is summarized
//! in a [`RecoveryReport`].
//!
//! # Fault injection
//!
//! [`FailPoints`] arms deterministic faults inside the log writer —
//! truncate mid-record, flip a CRC byte, suppress fsync, fail the n-th
//! fsync — so the crash suite can manufacture exactly the torn states
//! recovery must handle, and the sync-error path can be driven.

#![warn(missing_docs)]

mod crc;
mod error;
mod logs;
mod manifest;
mod snapshot;
mod wal;

pub use crc::crc32c;
pub use error::PersistError;
pub use logs::ShardLogs;
pub use manifest::{read_manifest, write_manifest, Manifest};
pub use snapshot::{read_snapshot, snapshot_path, write_snapshot};
pub use wal::{
    recover_shard, FailPoints, FsyncPolicy, PersistConfig, RecoveryReport, ShardRecovery,
    ShardWal, WalStats,
};

/// Current on-disk format version, shared by the manifest, WAL, and
/// snapshot headers. Bump on any layout change; readers reject other
/// versions with [`PersistError::VersionSkew`].
pub const FORMAT_VERSION: u32 = 1;

pub(crate) fn io_err(op: &'static str, path: &std::path::Path, e: std::io::Error) -> PersistError {
    PersistError::Io {
        op,
        path: path.display().to_string(),
        kind: e.kind(),
        msg: e.to_string(),
    }
}

/// Fsync a directory so a rename inside it is durable (a no-op on
/// platforms where directories cannot be opened).
pub(crate) fn sync_dir(dir: &std::path::Path) -> Result<(), PersistError> {
    match std::fs::File::open(dir) {
        Ok(d) => d.sync_all().map_err(|e| io_err("fsync dir", dir, e)),
        // Windows cannot open directories; rename durability is weaker
        // there, which the crash harness (unix-only) never relies on.
        Err(_) => Ok(()),
    }
}
