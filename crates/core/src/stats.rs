//! Per-path execution statistics (the data behind the paper's Figure 16 and
//! the Section 7.2 path-usage analysis).

use std::fmt;

use threepath_htm::{Abort, AbortCode};

/// Which execution path an attempt or completion happened on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// HTM fast path (uninstrumented sequential code, except in 2-path-con
    /// where the fast path is the instrumented template).
    Fast,
    /// HTM middle path (instrumented template in a transaction).
    Middle,
    /// Software path: lock-free template, or sequential-under-lock for TLE.
    Fallback,
    /// The uninstrumented wait-free read path: an epoch-pinned direct
    /// traversal with **zero** transactions, locks, or `F` subscription —
    /// the paper's "searches require no synchronization" claim made
    /// first-class (see `ExecCtx::run_read`). Never records commits or
    /// aborts; optimistic-validation retries and escalations to the
    /// transactional machinery are tracked separately
    /// ([`PathStats::read_retries`] / [`PathStats::read_escalations`]).
    Read,
}

impl PathKind {
    /// All paths.
    pub const ALL: [PathKind; 4] = [
        PathKind::Fast,
        PathKind::Middle,
        PathKind::Fallback,
        PathKind::Read,
    ];

    fn index(self) -> usize {
        match self {
            PathKind::Fast => 0,
            PathKind::Middle => 1,
            PathKind::Fallback => 2,
            PathKind::Read => 3,
        }
    }
}

impl fmt::Display for PathKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PathKind::Fast => "fast",
            PathKind::Middle => "middle",
            PathKind::Fallback => "fallback",
            PathKind::Read => "read",
        })
    }
}

/// Abort counts broken down by reason (Figure 16's categories).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbortCounts {
    /// Explicit aborts (lock held, `F != 0`, LLX failed, info changed, ...).
    pub explicit: u64,
    /// Data conflicts at cache-line granularity.
    pub conflict: u64,
    /// Footprint exceeded HTM capacity.
    pub capacity: u64,
    /// Interrupt/page-fault style aborts.
    pub spurious: u64,
}

impl AbortCounts {
    /// Total aborts.
    pub fn total(&self) -> u64 {
        self.explicit + self.conflict + self.capacity + self.spurious
    }

    fn record(&mut self, code: AbortCode) {
        match code {
            AbortCode::Explicit(_) => self.explicit += 1,
            AbortCode::Conflict => self.conflict += 1,
            AbortCode::Capacity => self.capacity += 1,
            AbortCode::Spurious => self.spurious += 1,
        }
    }

    fn merge(&mut self, other: &AbortCounts) {
        self.explicit += other.explicit;
        self.conflict += other.conflict;
        self.capacity += other.capacity;
        self.spurious += other.spurious;
    }
}

/// Per-thread statistics of path usage, commits and aborts.
///
/// Cheap to update (plain counters, no sharing); merge across threads at the
/// end of a trial.
#[derive(Debug, Clone, Default)]
pub struct PathStats {
    completed: [u64; 4],
    commits: [u64; 4],
    aborts: [AbortCounts; 4],
    /// Optimistic-read validation failures (seqlock re-check lost a race
    /// with an in-place mutation; the read re-ran its traversal).
    read_retries: u64,
    /// Reads whose optimistic attempts all failed validation and which
    /// escalated to the transactional machinery (`run_query`); their
    /// completion is recorded on whatever path finished them.
    read_escalations: u64,
    /// Optimistic-scan attempts whose validation set re-check lost a race
    /// (the scan re-ran, fully or over the invalidated subranges only).
    scan_retries: u64,
    /// Scans that exhausted every optimistic attempt — including the
    /// partial-rescan repair — and escalated to the transactional
    /// machinery (`run_query`); completed on whatever path finished them.
    scan_escalations: u64,
    /// Leaves whose `ver` word entered an optimistic scan's validation
    /// set, summed over every attempt. A leaf a scan visits without
    /// depending on it (a BST leaf outside the range) or reads torn does
    /// not count.
    scan_leaves_validated: u64,
    /// Operations turned away at the HTM admission gate (the serialized
    /// path was busy and the attempt window was full); they completed on
    /// the fallback lane without making any HTM attempt.
    admission_overflows: u64,
    /// Batches executed through `ExecCtx::run_batch` (each one a plan of
    /// coalesced same-shard operations).
    batches: u64,
    /// Operations carried by those batches (the batch-size numerator:
    /// `batch_ops / batches` is the mean batch size).
    batch_ops: u64,
    /// Transactions (or serialized critical sections) that committed
    /// batches. A calm batch of K ops under a cap of C commits in
    /// ≤ ceil(K / C) of these — the steady-state amortization claim.
    batch_txns: u64,
    /// Operations this thread applied *on behalf of other submitters*
    /// while flat-combining: it held a shard's fallback lock for its own
    /// batch and drained further queued batches before releasing.
    combined_ops: u64,
    /// Submissions the serving front-end executed directly, every group
    /// of them — each shard was free (queue empty, no combiner at work,
    /// no serialized section), so nothing touched a queue.
    batch_bypasses: u64,
    /// Write-ahead-log records this thread appended (durability layer;
    /// zero on volatile maps). One record per executed update plan.
    wal_records: u64,
    /// Frame bytes those appends wrote.
    wal_bytes: u64,
    /// Shard snapshots this thread installed (each also truncated the
    /// shard's log).
    wal_snapshots: u64,
}

impl PathStats {
    /// Fresh, zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a committed transaction on `path`.
    pub fn record_commit(&mut self, path: PathKind) {
        self.commits[path.index()] += 1;
    }

    /// Records an aborted transaction attempt on `path`.
    pub fn record_abort(&mut self, path: PathKind, abort: &Abort) {
        self.aborts[path.index()].record(abort.code());
    }

    /// Records an operation that completed on `path`.
    pub fn record_completed(&mut self, path: PathKind) {
        self.completed[path.index()] += 1;
    }

    /// Records `n` operations that completed on `path` (a batch commit
    /// lands all its operations at once).
    pub fn record_completed_n(&mut self, path: PathKind, n: u64) {
        self.completed[path.index()] += n;
    }

    /// Operations completed on `path`.
    pub fn completed(&self, path: PathKind) -> u64 {
        self.completed[path.index()]
    }

    /// Total operations completed on any path.
    pub fn total_completed(&self) -> u64 {
        self.completed.iter().sum()
    }

    /// Transactions committed on `path`.
    pub fn commits(&self, path: PathKind) -> u64 {
        self.commits[path.index()]
    }

    /// Abort counts on `path`.
    pub fn aborts(&self, path: PathKind) -> AbortCounts {
        self.aborts[path.index()]
    }

    /// Fraction of completions that happened on `path` (0 when idle).
    pub fn completed_fraction(&self, path: PathKind) -> f64 {
        let total = self.total_completed();
        if total == 0 {
            0.0
        } else {
            self.completed(path) as f64 / total as f64
        }
    }

    /// Total aborted transaction attempts across every path.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().map(AbortCounts::total).sum()
    }

    /// Aborted attempts per completed operation (0 when idle): a rate
    /// near 0 means the HTM fast path commits eagerly, a rate in the tens means most
    /// transactional work is wasted retries. Read-lane completions count
    /// in the denominator and never abort, so a read-heavy mix reads as
    /// calm — which is correct: its updates are the only transactional
    /// work there is.
    pub fn abort_rate(&self) -> f64 {
        let total = self.total_completed();
        if total == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / total as f64
        }
    }

    /// Fraction of operations completing on the software fallback path
    /// (shorthand for `completed_fraction(PathKind::Fallback)`).
    pub fn fallback_fraction(&self) -> f64 {
        self.completed_fraction(PathKind::Fallback)
    }

    /// Records `n` optimistic-read validation failures.
    pub fn add_read_retries(&mut self, n: u64) {
        self.read_retries += n;
    }

    /// Records a read that exhausted its optimistic attempts and escalated
    /// to the transactional machinery.
    pub fn record_read_escalation(&mut self) {
        self.read_escalations += 1;
    }

    /// Optimistic-read validation failures (each one re-ran the read's
    /// traversal; zero on the BST, whose reads never need validation).
    pub fn read_retries(&self) -> u64 {
        self.read_retries
    }

    /// Reads that escalated to `run_query` after exhausting their optimistic
    /// attempts (completed on fast/middle/fallback, not the read lane).
    pub fn read_escalations(&self) -> u64 {
        self.read_escalations
    }

    /// Records `n` optimistic-scan validation failures.
    pub fn add_scan_retries(&mut self, n: u64) {
        self.scan_retries += n;
    }

    /// Records a scan that exhausted its optimistic attempts (full and
    /// partial) and escalated to the transactional machinery.
    pub fn record_scan_escalation(&mut self) {
        self.scan_escalations += 1;
    }

    /// Records `n` leaves validated by an optimistic scan attempt.
    pub fn add_scan_leaves_validated(&mut self, n: u64) {
        self.scan_leaves_validated += n;
    }

    /// Optimistic-scan validation failures (each one re-ran the scan,
    /// fully or over the invalidated subranges only).
    pub fn scan_retries(&self) -> u64 {
        self.scan_retries
    }

    /// Scans that escalated to `run_query` after exhausting their optimistic
    /// attempts (completed on fast/middle/fallback, not the read lane).
    pub fn scan_escalations(&self) -> u64 {
        self.scan_escalations
    }

    /// Always 0: no scan rung completes off a snapshot. Kept because the
    /// repository benchmark (`benchmark/`) still reports it as
    /// `core.scan_snapshot_share`.
    pub fn scan_snapshots(&self) -> u64 {
        0
    }

    /// Total leaves whose `ver` word entered optimistic scans' validation
    /// sets.
    pub fn scan_leaves_validated(&self) -> u64 {
        self.scan_leaves_validated
    }

    /// Records an operation the HTM admission gate diverted straight to
    /// the serialized path.
    pub fn record_admission_overflow(&mut self) {
        self.admission_overflows += 1;
    }

    /// Operations diverted by the HTM admission gate (completed on the
    /// fallback lane with zero HTM attempts).
    pub fn admission_overflows(&self) -> u64 {
        self.admission_overflows
    }

    /// Records one executed batch of `ops` coalesced operations that
    /// committed in `txns` transactions (or serialized sections).
    pub fn record_batch(&mut self, ops: u64, txns: u64) {
        self.batches += 1;
        self.batch_ops += ops;
        self.batch_txns += txns;
    }

    /// Records `n` operations applied on behalf of other submitters
    /// while flat-combining under a held fallback lock.
    pub fn add_combined_ops(&mut self, n: u64) {
        self.combined_ops += n;
    }

    /// Batches executed through the batch entry point.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Operations carried by executed batches.
    pub fn batch_ops(&self) -> u64 {
        self.batch_ops
    }

    /// Transactions (or serialized sections) that committed batches.
    pub fn batch_txns(&self) -> u64 {
        self.batch_txns
    }

    /// Operations applied for other submitters while flat-combining.
    pub fn combined_ops(&self) -> u64 {
        self.combined_ops
    }

    /// Records a submission executed directly, bypassing the serving
    /// front-end's queues (every shard it touched was free).
    pub fn record_batch_bypass(&mut self) {
        self.batch_bypasses += 1;
    }

    /// Submissions that bypassed the serving front-end's queues.
    pub fn batch_bypasses(&self) -> u64 {
        self.batch_bypasses
    }

    /// Records write-ahead-log appends: `records` records totalling
    /// `bytes` frame bytes (durability layer). A flat-combined batch run
    /// appends several records under one log lock hold, so this takes
    /// the delta rather than assuming one record per call.
    pub fn record_wal_appends(&mut self, records: u64, bytes: u64) {
        self.wal_records += records;
        self.wal_bytes += bytes;
    }

    /// Records an installed shard snapshot (durability layer).
    pub fn record_wal_snapshot(&mut self) {
        self.wal_snapshots += 1;
    }

    /// Write-ahead-log records appended.
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// Write-ahead-log frame bytes appended.
    pub fn wal_bytes(&self) -> u64 {
        self.wal_bytes
    }

    /// Shard snapshots installed.
    pub fn wal_snapshots(&self) -> u64 {
        self.wal_snapshots
    }

    /// Mean operations per executed batch (0 when no batches ran).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batch_ops as f64 / self.batches as f64
        }
    }

    /// Accumulates another thread's statistics into this one.
    pub fn merge(&mut self, other: &PathStats) {
        for i in 0..4 {
            self.completed[i] += other.completed[i];
            self.commits[i] += other.commits[i];
            self.aborts[i].merge(&other.aborts[i]);
        }
        self.read_retries += other.read_retries;
        self.read_escalations += other.read_escalations;
        self.scan_retries += other.scan_retries;
        self.scan_escalations += other.scan_escalations;
        self.scan_leaves_validated += other.scan_leaves_validated;
        self.admission_overflows += other.admission_overflows;
        self.batches += other.batches;
        self.batch_ops += other.batch_ops;
        self.batch_txns += other.batch_txns;
        self.combined_ops += other.combined_ops;
        self.batch_bypasses += other.batch_bypasses;
        self.wal_records += other.wal_records;
        self.wal_bytes += other.wal_bytes;
        self.wal_snapshots += other.wal_snapshots;
    }
}

impl fmt::Display for PathStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<9} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "path", "completed", "commits", "ab.expl", "ab.confl", "ab.cap", "ab.spur"
        )?;
        for p in PathKind::ALL {
            let a = self.aborts(p);
            writeln!(
                f,
                "{:<9} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
                p.to_string(),
                self.completed(p),
                self.commits(p),
                a.explicit,
                a.conflict,
                a.capacity,
                a.spurious
            )?;
        }
        writeln!(
            f,
            "read-lane retries {} escalations {}",
            self.read_retries, self.read_escalations
        )?;
        writeln!(
            f,
            "scan-lane retries {} escalations {} leaves-validated {}",
            self.scan_retries, self.scan_escalations, self.scan_leaves_validated
        )?;
        writeln!(
            f,
            "batch-lane batches {} ops {} txns {} combined-ops {} bypasses {}",
            self.batches, self.batch_ops, self.batch_txns, self.combined_ops,
            self.batch_bypasses
        )?;
        if self.wal_records > 0 {
            writeln!(
                f,
                "wal-lane records {} bytes {} snapshots {}",
                self.wal_records, self.wal_bytes, self.wal_snapshots
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut s = PathStats::new();
        s.record_completed(PathKind::Fast);
        s.record_completed(PathKind::Fast);
        s.record_completed(PathKind::Fallback);
        s.record_commit(PathKind::Fast);
        s.record_abort(PathKind::Fast, &Abort::new(AbortCode::Conflict));
        s.record_abort(PathKind::Middle, &Abort::explicit(3));
        assert_eq!(s.completed(PathKind::Fast), 2);
        assert_eq!(s.total_completed(), 3);
        assert_eq!(s.commits(PathKind::Fast), 1);
        assert_eq!(s.aborts(PathKind::Fast).conflict, 1);
        assert_eq!(s.aborts(PathKind::Middle).explicit, 1);
        assert!((s.completed_fraction(PathKind::Fast) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PathStats::new();
        let mut b = PathStats::new();
        a.record_completed(PathKind::Fast);
        b.record_completed(PathKind::Fast);
        b.record_abort(PathKind::Fallback, &Abort::new(AbortCode::Capacity));
        a.merge(&b);
        assert_eq!(a.completed(PathKind::Fast), 2);
        assert_eq!(a.aborts(PathKind::Fallback).capacity, 1);
    }

    #[test]
    fn display_contains_paths() {
        let s = PathStats::new();
        let out = s.to_string();
        assert!(out.contains("fast"));
        assert!(out.contains("middle"));
        assert!(out.contains("fallback"));
    }

    #[test]
    fn empty_fraction_is_zero() {
        let s = PathStats::new();
        assert_eq!(s.completed_fraction(PathKind::Fast), 0.0);
    }

    #[test]
    fn read_lane_counts_and_merges() {
        let mut s = PathStats::new();
        s.record_completed(PathKind::Read);
        s.record_completed(PathKind::Read);
        s.record_completed(PathKind::Fast);
        s.add_read_retries(3);
        s.record_read_escalation();
        assert_eq!(s.completed(PathKind::Read), 2);
        assert_eq!(s.total_completed(), 3);
        assert_eq!(s.read_retries(), 3);
        assert_eq!(s.read_escalations(), 1);
        assert_eq!(s.aborts(PathKind::Read), AbortCounts::default());
        assert!((s.completed_fraction(PathKind::Read) - 2.0 / 3.0).abs() < 1e-12);
        let mut t = PathStats::new();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.completed(PathKind::Read), 4);
        assert_eq!(t.read_retries(), 6);
        assert_eq!(t.read_escalations(), 2);
        assert!(s.to_string().contains("read"));
        assert!(s.to_string().contains("retries 3"));
    }

    #[test]
    fn scan_lane_counts_and_merges() {
        let mut s = PathStats::new();
        s.record_completed(PathKind::Read);
        s.add_scan_retries(2);
        s.record_scan_escalation();
        s.add_scan_leaves_validated(17);
        assert_eq!(s.scan_retries(), 2);
        assert_eq!(s.scan_escalations(), 1);
        assert_eq!(s.scan_leaves_validated(), 17);
        // The scan lane is counters-only: no new PathKind, optimistic
        // scans complete on the read lane.
        assert_eq!(s.completed(PathKind::Read), 1);
        let mut t = PathStats::new();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.scan_retries(), 4);
        assert_eq!(t.scan_escalations(), 2);
        assert_eq!(t.scan_leaves_validated(), 34);
        assert!(s.to_string().contains("scan-lane retries 2"));
    }

    #[test]
    fn batch_lane_counts_and_merges() {
        let mut s = PathStats::new();
        s.record_batch(8, 1);
        s.record_batch(4, 2);
        s.record_completed_n(PathKind::Fast, 8);
        s.record_completed_n(PathKind::Fallback, 4);
        s.add_combined_ops(5);
        s.record_batch_bypass();
        assert_eq!(s.batches(), 2);
        assert_eq!(s.batch_ops(), 12);
        assert_eq!(s.batch_txns(), 3);
        assert_eq!(s.combined_ops(), 5);
        assert_eq!(s.batch_bypasses(), 1);
        assert!((s.mean_batch_size() - 6.0).abs() < 1e-12);
        assert_eq!(s.total_completed(), 12);
        let mut t = PathStats::new();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.batches(), 4);
        assert_eq!(t.batch_ops(), 24);
        assert_eq!(t.batch_txns(), 6);
        assert_eq!(t.combined_ops(), 10);
        assert_eq!(t.batch_bypasses(), 2);
        assert!(s.to_string().contains("batch-lane batches 2"));
        assert!(s.to_string().contains("bypasses 1"));
        assert_eq!(PathStats::new().mean_batch_size(), 0.0);
    }

    #[test]
    fn rate_helpers() {
        let mut s = PathStats::new();
        assert_eq!(s.abort_rate(), 0.0, "idle stats have no rate");
        assert_eq!(s.fallback_fraction(), 0.0);
        s.record_completed(PathKind::Fast);
        s.record_completed(PathKind::Fallback);
        s.record_abort(PathKind::Fast, &Abort::new(AbortCode::Conflict));
        s.record_abort(PathKind::Fast, &Abort::new(AbortCode::Spurious));
        s.record_abort(PathKind::Middle, &Abort::explicit(1));
        assert_eq!(s.total_aborts(), 3);
        assert!((s.abort_rate() - 1.5).abs() < 1e-12);
        assert!((s.fallback_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn path_kinds_display_as_lane_labels() {
        let labels: Vec<String> = PathKind::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(labels, ["fast", "middle", "fallback", "read"]);
    }

    #[test]
    fn abort_reasons_land_in_their_own_category() {
        let mut s = PathStats::new();
        for code in [
            AbortCode::Explicit(7),
            AbortCode::Conflict,
            AbortCode::Conflict,
            AbortCode::Capacity,
            AbortCode::Spurious,
        ] {
            s.record_abort(PathKind::Middle, &Abort::new(code));
        }
        let a = s.aborts(PathKind::Middle);
        assert_eq!(
            (a.explicit, a.conflict, a.capacity, a.spurious),
            (1, 2, 1, 1)
        );
        assert_eq!(a.total(), 5);
        assert_eq!(s.aborts(PathKind::Fast), AbortCounts::default());
        assert_eq!(s.total_aborts(), 5);
    }

    #[test]
    fn admission_overflows_count_and_merge() {
        let mut s = PathStats::new();
        s.record_admission_overflow();
        s.record_admission_overflow();
        assert_eq!(s.admission_overflows(), 2);
        let mut t = PathStats::new();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.admission_overflows(), 4);
    }

    #[test]
    fn wal_lane_counts_merges_and_prints_only_when_used() {
        let mut s = PathStats::new();
        assert!(!s.to_string().contains("wal-lane"), "silent when unused");
        s.record_wal_appends(3, 120);
        s.record_wal_appends(1, 40);
        s.record_wal_snapshot();
        assert_eq!(
            (s.wal_records(), s.wal_bytes(), s.wal_snapshots()),
            (4, 160, 1)
        );
        let mut t = PathStats::new();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(
            (t.wal_records(), t.wal_bytes(), t.wal_snapshots()),
            (8, 320, 2)
        );
        assert!(s
            .to_string()
            .contains("wal-lane records 4 bytes 160 snapshots 1"));
    }
}
