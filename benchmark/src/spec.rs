//! The fixed parts of the benchmark: the six workloads and the metric
//! table (names, units, directions, bounds). The contract test checks that
//! `BENCHMARK.json` says what these tables say, so later issues can cite a
//! name and find it here.

use threepath_sharded::ShardBackend;

use crate::json::{obj, Value};

/// Caller threads of every workload: fixed, not scaled with `nproc`, so
/// numbers from different hosts name the same experiment.
pub const CALLERS: usize = 2;
/// Operations per `ServerClient::submit`.
pub const BATCH: usize = 8;
/// Windows the measured phase is cut into; every timing and throughput
/// metric is the median of its per-window values.
pub const WINDOWS: usize = 5;
/// `get`/`insert`/`remove` are timed one call in this many (a clock read
/// costs a third of a `get`); `range_query` and `submit` every call.
pub const SAMPLE_EVERY: usize = 16;

/// What the callers issue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// `get_share` of calls are uniform `get`s; the rest are single-key
    /// `insert`/`remove`, half each, on the caller's own keys.
    Point { get_share: f64 },
    /// Caller 0 issues couple-ordered updates only; caller 1 issues
    /// `range_query(k, k + s)` only, `s = ⌊x²·10⁴⌋ + 1`, `x` uniform.
    HeavyRq,
    /// 40% `get`, 50% couple-ordered updates (two calls each), 10%
    /// `range_query` of extent 64, by stream item.
    Storm,
    /// `submit` of [`BATCH`] single-key updates, half inserts.
    Batch,
}

impl Mix {
    /// Whether updates keep the couple invariant (`2c` present implies
    /// `2c+1` present) that scans are checked against.
    pub fn couples(self) -> bool {
        matches!(self, Mix::HeavyRq | Mix::Storm)
    }
}

/// The boundary the callers enter through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    Direct,
    Server,
    ServerDurable,
}

/// The operation classes a call can belong to; latency is kept per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Get,
    Insert,
    Remove,
    Scan,
    Submit,
}

impl Op {
    pub const ALL: [Op; 5] = [Op::Get, Op::Insert, Op::Remove, Op::Scan, Op::Submit];

    pub fn index(self) -> usize {
        self as usize
    }

    /// The name used in per-layer metrics (`sharded.<name>_ns`).
    pub fn ledger_name(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::Insert => "insert",
            Op::Remove => "remove",
            Op::Scan => "scan",
            Op::Submit => "batch8",
        }
    }
}

/// The classes `primary_*` and the per-class latency metrics are named by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Get,
    Update,
    Scan,
    Submit,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Get, Class::Update, Class::Scan, Class::Submit];

    pub fn name(self) -> &'static str {
        match self {
            Class::Get => "get",
            Class::Update => "update",
            Class::Scan => "scan",
            Class::Submit => "submit",
        }
    }

    pub fn ops(self) -> &'static [Op] {
        match self {
            Class::Get => &[Op::Get],
            Class::Update => &[Op::Insert, Op::Remove],
            Class::Scan => &[Op::Scan],
            Class::Submit => &[Op::Submit],
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload is in the set (goes to `BENCHMARK.json`).
    pub why: &'static str,
    pub backend: ShardBackend,
    pub shards: usize,
    pub key_range: u64,
    /// Spurious-abort probability of the simulated HTM; `None` = default.
    pub spurious: Option<f64>,
    pub mix: Mix,
    pub entry: Entry,
    /// The class `primary_p50_us` / `primary_p99_us` report.
    pub primary: Class,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "read-mostly",
        why: "95% get on a 2^20-key (a,b)-tree (4 shards, half full, larger than L2): the uninstrumented read path and shard routing do the work; the only working set that misses cache",
        backend: ShardBackend::AbTree,
        shards: 4,
        key_range: 1 << 20,
        spurious: None,
        mix: Mix::Point { get_share: 0.95 },
        entry: Entry::Direct,
        primary: Class::Get,
    },
    Workload {
        name: "update-heavy",
        why: "50/50 insert/remove on a 10^4-key BST (4 shards, cache-resident), the paper's light mix: one fast-path txn and one node alloc/retire per op, so htm and reclaim own the time",
        backend: ShardBackend::Bst,
        shards: 4,
        key_range: 10_000,
        spurious: None,
        mix: Mix::Point { get_share: 0.0 },
        entry: Entry::Direct,
        primary: Class::Update,
    },
    Workload {
        name: "heavy-rq",
        why: "One caller updates couples, one runs range queries of up to 10^4 keys on a 2^20-key (a,b)-tree, the paper's heavy mix: the optimistic scan ladder under live rebalancing; torn scans counted",
        backend: ShardBackend::AbTree,
        shards: 4,
        key_range: 1 << 20,
        spurious: None,
        mix: Mix::HeavyRq,
        entry: Entry::Direct,
        primary: Class::Scan,
    },
    Workload {
        name: "storm-mix",
        why: "40% get, 50% couple updates, 10% scans on one 2^10-key BST shard with 85% spurious aborts: the only workload where middle and fallback paths, LLX/SCX and scan escalation run under contention",
        backend: ShardBackend::Bst,
        shards: 1,
        key_range: 1 << 10,
        spurious: Some(0.85),
        mix: Mix::Storm,
        entry: Entry::Direct,
        primary: Class::Update,
    },
    Workload {
        name: "server-batch",
        why: "Two clients submit 8-update batches to a volatile 2-shard BST (10^4 keys): queue push, combiner claim, plan build, run_batch, reply publish; owns the server-vs-direct gap",
        backend: ShardBackend::Bst,
        shards: 2,
        key_range: 10_000,
        spurious: None,
        mix: Mix::Batch,
        entry: Entry::Server,
        primary: Class::Submit,
    },
    Workload {
        name: "server-durable",
        why: "server-batch's exact stream on a WAL-backed map (fsync every 64 records, snapshot every 8192), then a timed recover: log mutex, encode, write, fsync, rotation, replay; the durability tax",
        backend: ShardBackend::Bst,
        shards: 2,
        key_range: 10_000,
        spurious: None,
        mix: Mix::Batch,
        entry: Entry::ServerDurable,
        primary: Class::Submit,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The issue's bound: the share of the baseline median by which the
    /// metric may worsen before `compare` calls it a breach, workload by
    /// workload (see [`DEMOTED`]). `None` = a diagnostic, never gated.
    pub bound: Option<f64>,
    /// `Some` for the metrics every workload has: the driver's contract
    /// wants each `end_to_end` metric of `BENCHMARK.json` from every
    /// workload, with one bound for all six, printed with `--trace 0`.
    /// Everything else is listed under `per_layer` and printed with
    /// `--trace 1`.
    pub driver_bound: Option<f64>,
}

impl Metric {
    /// Whether either `compare` or the driver holds the metric to a bound:
    /// such values are taken from untraced runs, whose windows are full
    /// length.
    pub fn gated(&self) -> bool {
        self.bound.is_some() || self.driver_bound.is_some()
    }
}

/// A metric every workload has.
const fn all(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
    driver_bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        driver_bound: Some(driver_bound),
    }
}

/// An end-to-end metric that only some workloads have.
const fn some(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        driver_bound: None,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        driver_bound: None,
    }
}

use Better::{Higher, Lower};

/// The issue's regression bound for an end-to-end metric.
const TENTH: f64 = 0.10;

pub const METRICS: &[Metric] = &[
    // End to end, every workload. The driver's bound is one number for all
    // six workloads and has to be three times the widest run-to-run spread
    // any of them shows: `server-durable` (a third of its time is fsync,
    // whose price drifts with the host's disk) and `storm-mix` (limbo-bag
    // memory) set these, not the calm four. `compare` holds each workload
    // to the issue's 10% on its own.
    all("setup_s", "s", Lower, Some(TENTH), 0.25),
    all("ops_per_s", "1/s", Higher, Some(TENTH), 0.20),
    // The workload's primary class under a name every workload has;
    // `compare` judges the class's own row instead.
    all("primary_p50_us", "us", Lower, None, 0.20),
    all("primary_p99_us", "us", Lower, None, 0.25),
    all("peak_rss_mb", "MiB", Lower, Some(TENTH), 0.20),
    // End to end, where the workload has the call.
    some("get_p50_us", "us", Lower, TENTH),
    some("get_p99_us", "us", Lower, TENTH),
    some("update_p50_us", "us", Lower, TENTH),
    some("update_p99_us", "us", Lower, TENTH),
    some("scan_p50_us", "us", Lower, TENTH),
    some("scan_p99_us", "us", Lower, TENTH),
    some("scans_per_s", "1/s", Higher, TENTH),
    some("submit_p50_us", "us", Lower, TENTH),
    some("submit_p99_us", "us", Lower, TENTH),
    some("recover_s", "s", Lower, TENTH),
    some("wal_bytes_per_user_byte", "ratio", Lower, 0.02),
    // 0 = no increase.
    some("failed_share", "ratio", Lower, 0.0),
    // htm
    layer("htm.txn_rw8_ns", "ns", Lower),
    layer("htm.commit_share", "ratio", Higher),
    layer("htm.direct_load_ns", "ns", Lower),
    layer("htm.aborts_per_kop.conflict", "count", Lower),
    layer("htm.aborts_per_kop.capacity", "count", Lower),
    layer("htm.aborts_per_kop.spurious", "count", Lower),
    layer("htm.aborts_per_kop.explicit", "count", Lower),
    // reclaim
    layer("reclaim.pool_alloc_free_ns", "ns", Lower),
    layer("reclaim.pool_hit_share", "ratio", Higher),
    layer("reclaim.carved_per_kop", "count", Lower),
    // llxscx
    layer("llxscx.llx_scx_ns", "ns", Lower),
    // core
    layer("core.path_share.fast", "ratio", Higher),
    layer("core.path_share.middle", "ratio", Lower),
    layer("core.path_share.fallback", "ratio", Lower),
    layer("core.path_share.read", "ratio", Higher),
    layer("core.attempts_per_op", "ratio", Lower),
    layer("core.admission_overflows_per_kop", "count", Lower),
    layer("core.read_retries_per_kread", "count", Lower),
    layer("core.read_escalation_share", "ratio", Lower),
    layer("core.scan_retries_per_scan", "ratio", Lower),
    layer("core.scan_escalation_share", "ratio", Lower),
    layer("core.scan_snapshot_share", "ratio", Lower),
    layer("core.scan_leaves_validated_per_scan", "count", Lower),
    // trees, called through their handle
    layer("bst.get_ns", "ns", Lower),
    layer("bst.insert_ns", "ns", Lower),
    layer("bst.remove_ns", "ns", Lower),
    layer("bst.scan_ns", "ns", Lower),
    layer("bst.batch8_ns", "ns", Lower),
    layer("abtree.get_ns", "ns", Lower),
    layer("abtree.insert_ns", "ns", Lower),
    layer("abtree.remove_ns", "ns", Lower),
    layer("abtree.scan_ns", "ns", Lower),
    // sharded
    layer("sharded.get_ns", "ns", Lower),
    layer("sharded.insert_ns", "ns", Lower),
    layer("sharded.remove_ns", "ns", Lower),
    layer("sharded.scan_ns", "ns", Lower),
    layer("sharded.batch8_ns", "ns", Lower),
    layer("sharded.self_ns.get", "ns", Lower),
    layer("sharded.self_ns.insert", "ns", Lower),
    layer("sharded.self_ns.remove", "ns", Lower),
    layer("sharded.self_ns.scan", "ns", Lower),
    layer("sharded.self_ns.batch8", "ns", Lower),
    // server
    layer("server.submit8_ns_per_op", "ns", Lower),
    layer("server.self_ns_per_op", "ns", Lower),
    layer("server.mean_batch_ops", "count", Higher),
    layer("server.txns_per_op", "ratio", Lower),
    layer("server.bypass_share", "ratio", Higher),
    layer("server.combined_share", "ratio", Higher),
    // persist
    layer("persist.self_ns_per_op", "ns", Lower),
    layer("persist.append8_ns", "ns", Lower),
    layer("persist.sync_ns", "ns", Lower),
    layer("persist.records_per_kop", "count", Lower),
    layer("persist.syncs_per_kop", "count", Lower),
    layer("persist.bytes_per_record", "count", Lower),
    layer("persist.snapshots_per_mop", "count", Lower),
    layer("persist.replay_ops_per_s", "1/s", Higher),
    layer("persist.snapshot_pairs_loaded", "count", Lower),
    // bench: whether a run can be trusted
    layer("bench.clock_ns", "ns", Lower),
    layer("bench.gen_ns_per_op", "ns", Lower),
    layer("bench.stream_hash", "count", Lower),
    layer("bench.latency_samples", "count", Higher),
    layer("bench.steal_share", "ratio", Lower),
    layer("bench.windows_disturbed", "count", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.ledger_residual_share", "ratio", Lower),
    layer("bench.torn_scans", "count", Lower),
    layer("bench.comparable", "count", Higher),
];

pub fn metric(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

/// Pairs of workload and end-to-end metric that failed the two-set test at
/// the issue's bound on the host the benchmark was written on: the medians
/// of two sets of five runs of one build (seed 1 twice, seed 2 once)
/// differed by more than the bound. By the issue's rule such a pair gets no
/// wider bound: `compare` prints it as `demoted` and never counts it as a
/// breach. The measurements are in `README.md`.
pub const DEMOTED: &[(&str, &str)] = &[
    // Tails of sampled sub-microsecond calls: 12–22% between sets.
    ("read-mostly", "get_p99_us"),
    ("read-mostly", "update_p99_us"),
    ("update-heavy", "update_p99_us"),
    // 20–40% spread inside a set: the updater's tail is the scanner's doing.
    ("heavy-rq", "update_p99_us"),
    // Steady on one seed, 14% apart between seeds 1 and 2: it follows the
    // shape of the 1024-key tree.
    ("storm-mix", "scan_p99_us"),
    // A third of the time is fsync, and its price moves with the host's
    // disk: 15% (throughput) and 27% (p99, one fsync) between sets.
    ("server-durable", "ops_per_s"),
    ("server-durable", "submit_p99_us"),
    // 4–10 ms by where in the 8192-record snapshot cycle the run stopped.
    ("server-durable", "recover_s"),
];

pub fn demoted(workload: &str, metric: &str) -> bool {
    DEMOTED.contains(&(workload, metric))
}

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// What `BENCHMARK.json` must say, in the shape the driver's contract
/// prescribes.
pub fn manifest() -> Value {
    let named = |driver: bool| {
        METRICS
            .iter()
            .filter(move |m| m.driver_bound.is_some() == driver)
    };
    obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Value::from)
                .to_vec(),
            ),
        ),
        ("paths", Value::Arr(vec!["benchmark".into()])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                named(true)
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.name().into()),
                            ("bound", Value::Num(m.driver_bound.unwrap_or(0.0))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                named(false)
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.name().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
