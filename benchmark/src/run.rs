//! One run of one workload: set-up, the closed loop of two callers, the
//! output checks, and the metrics.
//!
//! Load shape: the store is an in-process library, so the loop is closed —
//! [`CALLERS`] threads each issue their next call when the previous one
//! returns, and the coordinating thread sleeps between window marks.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use threepath_core::{AbortCounts, BatchOp, PathKind, PathStats};
use threepath_htm::{CachePadded, HtmConfig};
use threepath_reclaim::PoolStats;
use threepath_server::{KvServer, ServerClient, ServerConfig};
use threepath_sharded::{
    FsyncPolicy, PersistConfig, RecoveryReport, ShardedConfig, ShardedHandle, ShardedMap, WalStats,
};

use crate::gen::{self, value_of, Inputs, Model};
use crate::hist::Hist;
use crate::host::{self, now_ns};
use crate::ledger;
use crate::spec::{Class, Entry, Mix, Op, Workload, BATCH, CALLERS, SAMPLE_EVERY, WINDOWS};
use crate::trace::{self, LayerTrace, Span};

pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
}

/// Metric name → value; every name is in [`crate::spec::METRICS`].
pub type Metrics = BTreeMap<&'static str, f64>;

pub struct RunResult {
    /// False when the final state, the structure check or recovery is
    /// wrong; per-call wrong answers are counted in `failed` instead.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Where the benchmark keeps its scratch files: `target/` inside its own
/// directory, wherever `CARGO_TARGET_DIR` points. `cargo run` and `cargo
/// test` name that directory at run time (a checkout may have moved since
/// it was built); a bare binary falls back to where it was compiled.
pub fn scratch_dir() -> PathBuf {
    let manifest_dir =
        std::env::var_os("CARGO_MANIFEST_DIR").unwrap_or_else(|| env!("CARGO_MANIFEST_DIR").into());
    Path::new(&manifest_dir).join("target")
}

fn fresh_data_dir(w: &Workload) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    scratch_dir().join("data").join(format!(
        "{}-{}-{}",
        w.name,
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The store as a workload sees it at boundary `entry`.
pub struct Built {
    pub cfg: ShardedConfig,
    pub map: Arc<ShardedMap>,
    pub server: Option<Arc<KvServer>>,
    pub dir: Option<PathBuf>,
}

impl Built {
    /// Drops the store and removes its log directory.
    pub fn discard(self) {
        let dir = self.dir.clone();
        drop(self);
        if let Some(d) = dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

pub fn config(w: &Workload, entry: Entry, dir: Option<&Path>) -> ShardedConfig {
    ShardedConfig {
        shards: w.shards,
        backend: w.backend,
        key_space: w.key_range,
        htm: match w.spurious {
            Some(p) => HtmConfig::default().with_spurious(p),
            None => HtmConfig::default(),
        },
        batched: entry != Entry::Direct,
        persist: dir.map(|d| PersistConfig {
            fsync: FsyncPolicy::EveryN(64),
            snapshot_every: Some(8192),
            ..PersistConfig::new(d)
        }),
        ..ShardedConfig::default()
    }
}

/// Builds the store and prefills it (and creates the log directory): what
/// `setup_s` times.
pub fn build(w: &Workload, entry: Entry, prefill: &[u64]) -> Built {
    let dir = (entry == Entry::ServerDurable).then(|| fresh_data_dir(w));
    let cfg = config(w, entry, dir.as_deref());
    let map = Arc::new(ShardedMap::with_config(cfg.clone()).expect("workload config is valid"));
    let mut h = map.handle();
    for &k in prefill {
        h.insert(k, value_of(k));
    }
    drop(h);
    let server = (entry != Entry::Direct).then(|| {
        Arc::new(KvServer::new(Arc::clone(&map), ServerConfig::default()).expect("map is batched"))
    });
    Built {
        cfg,
        map,
        server,
        dir,
    }
}

const PH_WARM: u32 = 100;
const PH_TRACED: u32 = 101;
const PH_STOP: u32 = 102;

#[derive(Default)]
struct Progress {
    calls: AtomicU64,
    scans: AtomicU64,
}

struct Control {
    /// A window index, or one of the `PH_*` phases; callers read it once per
    /// block of [`SAMPLE_EVERY`] calls.
    phase: AtomicU32,
    progress: [CachePadded<Progress>; CALLERS],
    start: Barrier,
}

/// What one caller did, saw and timed.
struct CallerOut {
    tally: Tally,
    rec: Recorder,
    stats: PathStats,
}

struct Recorder {
    base: Instant,
    /// `[window][op]`.
    hists: Vec<[Hist; 5]>,
    traced: LayerTrace,
}

impl Recorder {
    #[inline]
    fn note(&mut self, phase: u32, op: Op, req: u64, span: Option<(u64, u64)>) {
        let Some((start_ns, end_ns)) = span else {
            return;
        };
        if (phase as usize) < WINDOWS {
            self.hists[phase as usize][op.index()].record(end_ns - start_ns);
        } else if phase == PH_TRACED {
            self.traced.push(Span {
                req,
                op,
                start_ns,
                end_ns,
            });
        }
    }
}

#[inline]
fn timed<R>(on: bool, base: Instant, f: impl FnOnce() -> R) -> (R, Option<(u64, u64)>) {
    if on {
        let t0 = now_ns(base);
        let r = f();
        (r, Some((t0, now_ns(base))))
    } else {
        (f(), None)
    }
}

#[derive(Default)]
struct Tally {
    calls: u64,
    scans: u64,
    /// `Some` replies to own updates: exact under key ownership, checked
    /// against the replay.
    hits: u64,
    /// Calls (ops, for a submit) whose answer was wrong.
    wrong: u64,
    torn: u64,
}

impl Tally {
    #[inline]
    fn reply(&mut self, key: u64, r: Option<u64>, own_update: bool) {
        if let Some(v) = r {
            self.hits += own_update as u64;
            self.wrong += (v != value_of(key)) as u64;
        }
    }

    /// A scan fails when it is out of order, out of range, holds a wrong
    /// value, or (couple workloads) returns `2c` without `2c+1`.
    fn scan(&mut self, r: &[(u64, u64)], lo: u64, hi: u64, couples: bool) {
        let mut bad = false;
        let mut torn = 0;
        for (i, &(k, v)) in r.iter().enumerate() {
            bad |= k < lo || k >= hi || v != value_of(k);
            let next = r.get(i + 1).map(|p| p.0);
            bad |= next.is_some_and(|n| n <= k);
            if couples && k % 2 == 0 && k + 1 < hi && next != Some(k + 1) {
                torn += 1;
            }
        }
        self.torn += torn;
        self.wrong += (bad || torn > 0) as u64;
    }
}

/// The caller's side of the entry boundary (one per caller thread, on its
/// stack: the size difference costs nothing).
#[allow(clippy::large_enum_variant)]
enum Port {
    Direct(ShardedHandle),
    Server(ServerClient),
}

fn caller(
    t: usize,
    built: &Built,
    w: &Workload,
    inp: &Inputs,
    ctl: &Control,
    base: Instant,
) -> CallerOut {
    let mut port = match &built.server {
        Some(s) => Port::Server(s.client()),
        None => Port::Direct(built.map.handle()),
    };
    let stream = &inp.streams[t];
    let couples = w.mix.couples();
    let mut rec = Recorder {
        base,
        hists: (0..WINDOWS).map(|_| Default::default()).collect(),
        traced: LayerTrace::new("caller", false),
    };
    let mut out = Tally::default();
    let mut pos = 0;
    ctl.start.wait();
    loop {
        let phase = ctl.phase.load(Ordering::Relaxed);
        if phase == PH_STOP {
            break;
        }
        let all = phase == PH_TRACED;
        // Which call of the block is timed: a hash of the block's number,
        // so every position of a couple and (the number keeps growing
        // across laps) every position of the stream gets sampled.
        let block = out.calls / SAMPLE_EVERY as u64;
        let pick = (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % SAMPLE_EVERY;
        for j in 0..SAMPLE_EVERY {
            let c = stream[pos];
            pos = if pos + 1 == stream.len() { 0 } else { pos + 1 };
            // Unique across callers, so a span names its call.
            let req = (out.calls + j as u64) * CALLERS as u64 + t as u64;
            let k = c.key as u64;
            match (&mut port, c.op) {
                (Port::Direct(h), Op::Get) => {
                    let (r, span) = timed(all || j == pick, rec.base, || h.get(k));
                    rec.note(phase, c.op, req, span);
                    out.reply(k, r, false);
                }
                (Port::Direct(h), Op::Insert) => {
                    let (r, span) = timed(all || j == pick, rec.base, || h.insert(k, value_of(k)));
                    rec.note(phase, c.op, req, span);
                    out.reply(k, r, true);
                }
                (Port::Direct(h), Op::Remove) => {
                    let (r, span) = timed(all || j == pick, rec.base, || h.remove(k));
                    rec.note(phase, c.op, req, span);
                    out.reply(k, r, true);
                }
                (Port::Direct(h), Op::Scan) => {
                    let hi = c.hi as u64;
                    let (r, span) = timed(true, rec.base, || h.range_query(k, hi));
                    rec.note(phase, c.op, req, span);
                    out.scans += 1;
                    out.scan(&r, k, hi, couples);
                }
                (Port::Server(cl), Op::Submit) => {
                    let ops = inp.batch(t, c);
                    let (r, span) = timed(true, rec.base, || cl.submit(ops.to_vec()));
                    rec.note(phase, c.op, req, span);
                    out.wrong += (BATCH - r.len().min(BATCH)) as u64;
                    for (op, reply) in ops.iter().zip(r) {
                        out.reply(op.key(), reply, true);
                    }
                }
                (_, op) => unreachable!("{} streams hold no {op:?} for this entry", w.name),
            }
        }
        out.calls += SAMPLE_EVERY as u64;
        let p = &ctl.progress[t];
        p.calls.store(out.calls, Ordering::Relaxed);
        p.scans.store(out.scans, Ordering::Relaxed);
    }
    CallerOut {
        tally: out,
        rec,
        stats: match &port {
            Port::Direct(h) => h.stats(),
            Port::Server(c) => c.stats(),
        },
    }
}

#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    calls: u64,
    scans: u64,
}

fn mark(ctl: &Control) -> Mark {
    let sum = |f: fn(&Progress) -> &AtomicU64| -> u64 {
        ctl.progress
            .iter()
            .map(|p| f(p).load(Ordering::Relaxed))
            .sum()
    };
    Mark {
        at: Instant::now(),
        calls: sum(|p| &p.calls),
        scans: sum(|p| &p.scans),
    }
}

fn sleep_until(t: Instant) {
    std::thread::sleep(t.saturating_duration_since(Instant::now()));
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Replays, in order, exactly the calls each caller completed. Key
/// ownership makes the result exact whatever the interleaving was. Returns
/// the model, each caller's expected `Some`-reply count, and the user bytes
/// of the updates (16 per insert, 8 per remove).
fn replay(w: &Workload, inp: &Inputs, calls: [u64; CALLERS]) -> (Model, [u64; CALLERS], u64) {
    let mut model = Model::new(w, &inp.prefill);
    let mut hits = [0; CALLERS];
    let mut user_bytes = 0;
    for t in 0..CALLERS {
        let mut apply = |insert: bool, key: u64| {
            hits[t] += model.update(insert, key) as u64;
            user_bytes += if insert { 16 } else { 8 };
        };
        for &c in inp.streams[t].iter().cycle().take(calls[t] as usize) {
            match c.op {
                Op::Insert => apply(true, c.key as u64),
                Op::Remove => apply(false, c.key as u64),
                Op::Submit => {
                    for b in inp.batch(t, c) {
                        apply(matches!(b, BatchOp::Insert(..)), b.key());
                    }
                }
                Op::Get | Op::Scan => {}
            }
        }
    }
    (model, hits, user_bytes)
}

/// What the durable workload adds after the clock stops: shut down, drop,
/// recover (timed, median of 3), and check the recovered state.
struct Recovery {
    recover_s: f64,
    reports: Vec<RecoveryReport>,
}

fn recover(
    dir: &Path,
    cfg: &ShardedConfig,
    before: &[(u64, u64)],
    problems: &mut Vec<String>,
) -> Recovery {
    let mut times = Vec::new();
    let mut first = Vec::new();
    for i in 0..3 {
        let t0 = Instant::now();
        match ShardedMap::recover(dir, cfg.clone()) {
            Ok((map, reports)) => {
                times.push(t0.elapsed().as_secs_f64());
                if i == 0 {
                    if map.collect() != before {
                        problems.push("recovered map differs from the map that was dropped".into());
                    }
                    if let Err(e) = map.validate() {
                        problems.push(format!("recovered map fails validate(): {e}"));
                    }
                    let live: usize = reports.iter().map(|r| r.live_pairs).sum();
                    if live != before.len() {
                        problems.push(format!(
                            "recovery reports {live} live pairs, the dropped map held {}",
                            before.len()
                        ));
                    }
                    first = reports;
                }
            }
            Err(e) => problems.push(format!("recover failed: {e}")),
        }
    }
    Recovery {
        recover_s: median(&times),
        reports: first,
    }
}

/// What the measured phase leaves behind.
struct Driven {
    outs: Vec<CallerOut>,
    /// Progress at the edges of the [`WINDOWS`] untraced windows.
    marks: Vec<Mark>,
    /// Progress at the edges of the traced window, in a traced run.
    traced: Option<(Mark, Mark)>,
    steal_share: f64,
}

/// The measured phase: warm-up, [`WINDOWS`] untraced windows, and (traced
/// runs) one window with every call wrapped in a span. A traced run splits
/// its `--seconds` three ways: untraced, traced, ledger and probes.
fn drive(w: &Workload, built: &Built, inp: &Inputs, opts: &RunOpts) -> Driven {
    let measured = if opts.trace {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let window = Duration::from_secs_f64(measured / WINDOWS as f64);
    let warm = Duration::from_secs_f64((opts.seconds / 10.0).min(0.5));
    let ctl = Control {
        phase: AtomicU32::new(PH_WARM),
        progress: Default::default(),
        start: Barrier::new(CALLERS + 1),
    };
    let base = Instant::now();
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|t| {
                let ctl = &ctl;
                s.spawn(move || caller(t, built, w, inp, ctl, base))
            })
            .collect();
        ctl.start.wait();
        let t0 = Instant::now() + warm;
        sleep_until(t0);
        let jiffies = host::cpu_jiffies();
        let mut marks = Vec::with_capacity(WINDOWS + 1);
        for i in 0..WINDOWS {
            ctl.phase.store(i as u32, Ordering::Relaxed);
            marks.push(mark(&ctl));
            sleep_until(t0 + window * (i as u32 + 1));
        }
        marks.push(mark(&ctl));
        let (steal, total) = host::cpu_jiffies();
        let traced = opts.trace.then(|| {
            ctl.phase.store(PH_TRACED, Ordering::Relaxed);
            let from = mark(&ctl);
            std::thread::sleep(Duration::from_secs_f64(measured));
            (from, mark(&ctl))
        });
        ctl.phase.store(PH_STOP, Ordering::Relaxed);
        Driven {
            outs: callers
                .into_iter()
                .map(|c| c.join().expect("caller thread panicked"))
                .collect(),
            marks,
            traced,
            steal_share: ratio((steal - jiffies.0) as f64, (total - jiffies.1) as f64),
        }
    })
}

pub fn run(w: &Workload, opts: &RunOpts) -> RunResult {
    let mut m = Metrics::new();
    // A problem makes the run incorrect; a warning is only reported.
    let (mut problems, mut warnings) = (Vec::new(), Vec::new());
    let comparable = host::nproc() >= CALLERS;
    if !comparable {
        eprintln!(
            "FEWER CPUS THAN CALLERS: {} < {CALLERS}; this result is not comparable",
            host::nproc()
        );
    }
    m.insert("bench.comparable", comparable as u64 as f64);

    let inp = gen::inputs(w, opts.seed);
    m.insert("bench.stream_hash", inp.hash as f64);
    m.insert("bench.gen_ns_per_op", inp.gen_ns_per_op);

    // Set up several times and report the median: a 1 ms set-up measured
    // once is mostly noise. The last store built is the one measured.
    let mut setups = Vec::new();
    let setup_from = Instant::now();
    let built = loop {
        let t0 = Instant::now();
        let b = build(w, w.entry, &inp.prefill);
        setups.push(t0.elapsed().as_secs_f64());
        let enough = setups.len() >= 3 && setup_from.elapsed() >= Duration::from_millis(300);
        if enough || setups.len() == 31 {
            break b;
        }
        b.discard();
    };
    m.insert("setup_s", median(&setups));
    let pool_before = built.map.pool_stats();
    let wal_before = built.map.wal_stats().unwrap_or_default();

    let Driven {
        outs,
        marks,
        traced,
        steal_share,
    } = drive(w, &built, &inp, opts);
    m.insert("bench.steal_share", steal_share);

    // ---- Output checks -------------------------------------------------
    let ops_per_call = if w.mix == Mix::Batch { BATCH as u64 } else { 1 };
    let calls: [u64; CALLERS] = std::array::from_fn(|t| outs[t].tally.calls);
    let attempted = calls.iter().sum::<u64>() * ops_per_call;
    let mut failed: u64 = outs.iter().map(|o| o.tally.wrong).sum();
    let (model, hits, user_bytes) = replay(w, &inp, calls);
    for t in 0..CALLERS {
        let got = outs[t].tally.hits;
        if got != hits[t] {
            // The replies were individually plausible but not the ones the
            // caller's own history implies: count each as a wrong answer.
            failed += got.abs_diff(hits[t]);
            warnings.push(format!(
                "caller {t}: {got} updates replied Some, its own history implies {}",
                hits[t]
            ));
        }
    }
    if let Some(s) = &built.server {
        if let Err(e) = s.shutdown() {
            problems.push(format!("server shutdown failed: {e}"));
        }
    }
    if let Err(e) = built.map.validate() {
        problems.push(format!("validate() failed: {e}"));
    }
    let state = built.map.collect();
    if !state.iter().copied().eq(model.pairs()) {
        problems.push(format!(
            "final state ({} pairs) is not the replay of the completed calls ({} pairs)",
            state.len(),
            model.pairs().count()
        ));
    }
    let pool = pool_delta(built.map.pool_stats(), pool_before);
    let wal = wal_delta(built.map.wal_stats().unwrap_or_default(), wal_before);
    let Built {
        cfg,
        map,
        server,
        dir,
    } = built;
    drop(server);
    assert_eq!(Arc::strong_count(&map), 1, "callers and server are gone");
    drop(map);
    let recovery = dir
        .as_ref()
        .map(|d| recover(d, &cfg, &state, &mut problems));
    if let Some(d) = &dir {
        let _ = std::fs::remove_dir_all(d);
    }

    // ---- End-to-end metrics ---------------------------------------------
    let per_window = |f: fn(&Mark) -> u64| -> Vec<f64> {
        marks
            .windows(2)
            .map(|p| (f(&p[1]) - f(&p[0])) as f64 / (p[1].at - p[0].at).as_secs_f64())
            .collect()
    };
    let win_ops: Vec<f64> = per_window(|m| m.calls)
        .iter()
        .map(|c| c * ops_per_call as f64)
        .collect();
    let ops_per_s = median(&win_ops);
    m.insert("ops_per_s", ops_per_s);
    m.insert("scans_per_s", median(&per_window(|m| m.scans)));
    m.insert(
        "bench.windows_disturbed",
        win_ops
            .iter()
            .filter(|&&x| (x - ops_per_s).abs() > 0.10 * ops_per_s)
            .count() as f64,
    );
    latencies(w, &outs, &mut m, &mut warnings);
    m.insert("failed_share", ratio(failed as f64, attempted as f64));
    m.insert(
        "bench.torn_scans",
        outs.iter().map(|o| o.tally.torn).sum::<u64>() as f64,
    );
    m.insert("recover_s", recovery.as_ref().map_or(0.0, |r| r.recover_s));
    m.insert(
        "wal_bytes_per_user_byte",
        ratio(wal.bytes as f64, user_bytes as f64),
    );

    let mut stats = PathStats::new();
    outs.iter().for_each(|o| stats.merge(&o.stats));
    let scans: u64 = outs.iter().map(|o| o.tally.scans).sum();
    let submits = if w.mix == Mix::Batch {
        calls.iter().sum()
    } else {
        0
    };
    counters(&mut m, &stats, attempted, scans, submits, pool, wal);
    let (replayed, loaded) = recovery.as_ref().map_or((0, 0), |r| {
        r.reports.iter().fold((0, 0), |(o, p), r| {
            (o + r.ops_replayed, p + r.snapshot_pairs)
        })
    });
    m.insert(
        "persist.replay_ops_per_s",
        ratio(
            replayed as f64,
            recovery.as_ref().map_or(0.0, |r| r.recover_s),
        ),
    );
    m.insert("persist.snapshot_pairs_loaded", loaded as f64);

    // ---- Traced run: overhead, ledger, probes ----------------------------
    if let Some((from, to)) = traced {
        let traced_ops =
            (to.calls - from.calls) as f64 * ops_per_call as f64 / (to.at - from.at).as_secs_f64();
        m.insert(
            "bench.trace_overhead_share",
            1.0 - ratio(traced_ops, ops_per_s),
        );
        let mut entry = LayerTrace::new("caller", false);
        outs.into_iter().for_each(|o| entry.absorb(o.rec.traced));
        let budget = Duration::from_secs_f64(opts.seconds / 3.0);
        let layers = ledger::ledger(w, &inp, budget, entry, &mut m);
        ledger::probes(w, &mut m);
        let path = scratch_dir().join(format!("trace-{}.jsonl", w.name));
        if let Err(e) = trace::write(&path, &layers) {
            problems.push(format!("could not write {}: {e}", path.display()));
        }
    }
    m.insert("peak_rss_mb", host::peak_rss_mib());

    for p in problems.iter().chain(&warnings) {
        eprintln!("{}: {p}", w.name);
    }
    RunResult {
        // Torn scans and other per-call wrong answers are counted, not
        // hidden; a wrong state is a wrong run.
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics: m,
    }
}

/// Per class, the median over the windows of each window's p50 and p99
/// (both callers' samples merged); the workload's primary class twice.
fn latencies(w: &Workload, outs: &[CallerOut], m: &mut Metrics, warnings: &mut Vec<String>) {
    let mut samples = 0;
    for class in Class::ALL {
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for i in 0..WINDOWS {
            let mut h = Hist::default();
            for o in outs {
                for op in class.ops() {
                    h.add(&o.rec.hists[i][op.index()]);
                }
            }
            samples += h.count();
            if h.count() > 0 {
                p50s.push(h.quantile(0.50) / 1e3);
                p99s.push(h.quantile(0.99) / 1e3);
                if class == w.primary && h.count() < 1000 {
                    warnings.push(format!(
                        "window {i}: {} {} samples leave fewer than 10 beyond p99",
                        h.count(),
                        class.name()
                    ));
                }
            }
        }
        let (p50, p99) = (median(&p50s), median(&p99s));
        let (n50, n99) = match class {
            Class::Get => ("get_p50_us", "get_p99_us"),
            Class::Update => ("update_p50_us", "update_p99_us"),
            Class::Scan => ("scan_p50_us", "scan_p99_us"),
            Class::Submit => ("submit_p50_us", "submit_p99_us"),
        };
        m.insert(n50, p50);
        m.insert(n99, p99);
        if class == w.primary {
            m.insert("primary_p50_us", p50);
            m.insert("primary_p99_us", p99);
        }
    }
    m.insert("bench.latency_samples", samples as f64);
}

/// The counters the store keeps about itself, turned into per-layer rates.
fn counters(
    m: &mut Metrics,
    stats: &PathStats,
    ops: u64,
    scans: u64,
    submits: u64,
    pool: PoolStats,
    wal: WalStats,
) {
    let done = stats.total_completed() as f64;
    let kops = ops as f64 / 1e3;
    let (mut commits, mut aborts) = (0, AbortCounts::default());
    for p in [PathKind::Fast, PathKind::Middle] {
        commits += stats.commits(p);
        let a = stats.aborts(p);
        aborts.conflict += a.conflict;
        aborts.capacity += a.capacity;
        aborts.spurious += a.spurious;
        aborts.explicit += a.explicit;
    }
    let attempts = commits + aborts.total();
    m.insert("htm.commit_share", ratio(commits as f64, attempts as f64));
    m.insert(
        "htm.aborts_per_kop.conflict",
        ratio(aborts.conflict as f64, kops),
    );
    m.insert(
        "htm.aborts_per_kop.capacity",
        ratio(aborts.capacity as f64, kops),
    );
    m.insert(
        "htm.aborts_per_kop.spurious",
        ratio(aborts.spurious as f64, kops),
    );
    m.insert(
        "htm.aborts_per_kop.explicit",
        ratio(aborts.explicit as f64, kops),
    );
    m.insert(
        "reclaim.pool_hit_share",
        ratio(pool.pool_hits as f64, pool.alloc_total as f64),
    );
    m.insert(
        "reclaim.carved_per_kop",
        ratio(pool.carved_blocks as f64, kops),
    );
    let share = |p: PathKind| ratio(stats.completed(p) as f64, done);
    m.insert("core.path_share.fast", share(PathKind::Fast));
    m.insert("core.path_share.middle", share(PathKind::Middle));
    m.insert("core.path_share.fallback", share(PathKind::Fallback));
    m.insert("core.path_share.read", share(PathKind::Read));
    // Software completions make no HTM attempt; count each as one.
    let software = stats.completed(PathKind::Fallback) + stats.completed(PathKind::Read);
    m.insert(
        "core.attempts_per_op",
        ratio((attempts + software) as f64, done),
    );
    m.insert(
        "core.admission_overflows_per_kop",
        ratio(stats.admission_overflows() as f64, kops),
    );
    let reads = (stats.completed(PathKind::Read) + stats.read_escalations()) as f64;
    m.insert(
        "core.read_retries_per_kread",
        ratio(stats.read_retries() as f64, reads / 1e3),
    );
    m.insert(
        "core.read_escalation_share",
        ratio(stats.read_escalations() as f64, reads),
    );
    // Per range_query call; one that spans two shards runs two shard scans.
    let scans = scans as f64;
    m.insert(
        "core.scan_retries_per_scan",
        ratio(stats.scan_retries() as f64, scans),
    );
    m.insert(
        "core.scan_escalation_share",
        ratio(stats.scan_escalations() as f64, scans),
    );
    m.insert(
        "core.scan_snapshot_share",
        ratio(stats.scan_snapshots() as f64, scans),
    );
    m.insert(
        "core.scan_leaves_validated_per_scan",
        ratio(stats.scan_leaves_validated() as f64, scans),
    );
    m.insert("server.mean_batch_ops", stats.mean_batch_size());
    m.insert(
        "server.txns_per_op",
        ratio(stats.batch_txns() as f64, stats.batch_ops() as f64),
    );
    m.insert(
        "server.bypass_share",
        ratio(stats.batch_bypasses() as f64, submits as f64),
    );
    m.insert(
        "server.combined_share",
        ratio(stats.combined_ops() as f64, stats.batch_ops() as f64),
    );
    m.insert("persist.records_per_kop", ratio(wal.records as f64, kops));
    m.insert("persist.syncs_per_kop", ratio(wal.syncs as f64, kops));
    m.insert(
        "persist.bytes_per_record",
        ratio(wal.bytes as f64, wal.records as f64),
    );
    m.insert(
        "persist.snapshots_per_mop",
        ratio(wal.snapshots as f64, kops / 1e3),
    );
}

fn pool_delta(after: PoolStats, before: PoolStats) -> PoolStats {
    PoolStats {
        alloc_total: after.alloc_total - before.alloc_total,
        pool_hits: after.pool_hits - before.pool_hits,
        carved_blocks: after.carved_blocks - before.carved_blocks,
        ..after
    }
}

fn wal_delta(after: WalStats, before: WalStats) -> WalStats {
    WalStats {
        records: after.records - before.records,
        bytes: after.bytes - before.bytes,
        syncs: after.syncs - before.syncs,
        snapshots: after.snapshots - before.snapshots,
    }
}
