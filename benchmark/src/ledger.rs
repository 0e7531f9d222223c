//! The per-layer cost ledger and the primitive probes of a traced run.
//!
//! The ledger replays the callers' streams against each boundary beneath the
//! workload's entry point — tree handle → `ShardedHandle` → `ServerClient` →
//! persistent `ServerClient` — each on a fresh, identically prefilled store,
//! in the closed loop of the measured run: one thread per caller, each
//! issuing its own stream. So a boundary's time holds what the callers cost
//! each other there (aborts, cache-line traffic, waiting for the combiner or
//! the log), and a layer's self time — its boundary's time minus the
//! boundary below — owns the waiting it adds. The self times sum to the top
//! replay; what the measured run's own entry spans differ from that by is
//! `bench.ledger_residual_share`.

use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use threepath_core::BatchOp;
use threepath_htm::{HtmConfig, HtmRuntime, TxCell};
use threepath_llxscx::{ScxArgs, ScxEngine, ScxHeader};
use threepath_persist::{FsyncPolicy, PersistConfig, ShardWal};
use threepath_reclaim::{Domain, PoolConfig, ReclaimMode};
use threepath_sharded::{ShardBackend, ShardHandle, ShardTree};

use crate::gen::{value_of, Call, Inputs};
use crate::host::{self, now_ns};
use crate::run::{build, config, scratch_dir, Metrics};
use crate::spec::{Entry, Op, Workload, CALLERS, SAMPLE_EVERY};
use crate::trace::{LayerTrace, Span};

/// `ops` split by shard in submission order, as the server compiles a
/// submission into per-shard groups.
fn groups(ops: &[BatchOp], route: impl Fn(u64) -> usize) -> Vec<(usize, Vec<BatchOp>)> {
    let mut out: Vec<(usize, Vec<BatchOp>)> = Vec::new();
    for &op in ops {
        let s = route(op.key());
        match out.iter_mut().find(|(g, _)| *g == s) {
            Some((_, plan)) => plan.push(op),
            None => out.push((s, vec![op])),
        }
    }
    out
}

/// Keeps a call's result alive past the optimiser, then drops it.
fn sink<T>(value: T) {
    black_box(value);
}

const WARM: u32 = 0;
const TIMED: u32 = 1;
const STOP: u32 = 2;

/// Replays the callers' streams against one boundary for `budget`: caller
/// `t`'s thread makes its side of the boundary with `port(t)` and issues its
/// stream through `exec`, every call in a span. The first quarter is warm-up
/// (untimed, from the middle of the stream), so that the timed part starts
/// at call 0 on touched memory and warm handles, as the measured phase does;
/// every boundary gets the same treatment, so they stay comparable.
fn replay<P>(
    layer: &'static str,
    inp: &Inputs,
    budget: Duration,
    port: impl Fn(usize) -> P + Sync,
    exec: impl Fn(&mut P, Call, &[BatchOp]) + Sync,
) -> LayerTrace {
    let phase = AtomicU32::new(WARM);
    let start = Barrier::new(CALLERS + 1);
    let base = Instant::now();
    let caller = |t: usize| {
        let stream = &inp.streams[t];
        let ops_of = |c: Call| {
            if c.op == Op::Submit {
                inp.batch(t, c)
            } else {
                &[]
            }
        };
        let mut p = port(t);
        let mut trace = LayerTrace::new(layer, true);
        let mut warm_at = stream.len() / 2;
        let mut done = 0;
        start.wait();
        loop {
            match phase.load(Ordering::Relaxed) {
                WARM => {
                    for _ in 0..SAMPLE_EVERY {
                        let c = stream[warm_at % stream.len()];
                        warm_at += 1;
                        exec(&mut p, c, ops_of(c));
                    }
                }
                TIMED => {
                    for _ in 0..SAMPLE_EVERY {
                        let c = stream[done % stream.len()];
                        let ops = ops_of(c);
                        let start_ns = now_ns(base);
                        exec(&mut p, c, ops);
                        let end_ns = now_ns(base);
                        trace.push(Span {
                            req: (done * CALLERS + t) as u64,
                            op: c.op,
                            start_ns,
                            end_ns,
                        });
                        done += 1;
                    }
                }
                _ => break trace,
            }
        }
    };
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|t| {
                let caller = &caller;
                s.spawn(move || caller(t))
            })
            .collect();
        start.wait();
        std::thread::sleep(budget / 4);
        phase.store(TIMED, Ordering::Relaxed);
        std::thread::sleep(budget - budget / 4);
        phase.store(STOP, Ordering::Relaxed);
        let mut all = LayerTrace::new(layer, true);
        for c in callers {
            all.absorb(c.join().expect("ledger thread panicked"));
        }
        all
    })
}

/// The tree boundary: one standalone tree per shard, built exactly as the
/// sharded map builds its shards, routed by a plain `key / width`.
fn replay_trees(w: &Workload, inp: &Inputs, budget: Duration) -> LayerTrace {
    let cfg = config(w, w.entry, None);
    let trees: Vec<ShardTree> = (0..w.shards)
        .map(|s| ShardTree::build_shard(&cfg, s))
        .collect();
    let width = w.key_range.div_ceil(w.shards as u64);
    let route = |k: u64| ((k / width) as usize).min(w.shards - 1);
    let handles = |_| trees.iter().map(ShardTree::handle).collect::<Vec<_>>();
    let mut hs = handles(0);
    for &k in &inp.prefill {
        hs[route(k)].insert(k, value_of(k));
    }
    drop(hs);
    let layer = match w.backend {
        ShardBackend::Bst => "bst",
        ShardBackend::AbTree => "abtree",
    };
    replay(
        layer,
        inp,
        budget,
        handles,
        |hs: &mut Vec<ShardHandle>, c, ops| {
            let k = c.key as u64;
            match c.op {
                Op::Get => sink(hs[route(k)].get(k)),
                Op::Insert => sink(hs[route(k)].insert(k, value_of(k))),
                Op::Remove => sink(hs[route(k)].remove(k)),
                Op::Scan => {
                    let hi = c.hi as u64;
                    let mut out = Vec::new();
                    for h in &mut hs[route(k)..=route(hi - 1)] {
                        out.extend(h.range_query(k, hi));
                    }
                    sink(out);
                }
                Op::Submit => {
                    for (s, plan) in groups(ops, route) {
                        sink(hs[s].run_batch(&plan));
                    }
                }
            }
        },
    )
}

/// A boundary of the assembled store: `"sharded"` (the `ShardedHandle`),
/// `"server"` (a `ServerClient` on a volatile map) or `"persist"` (a
/// `ServerClient` on a WAL-backed map).
fn replay_store(w: &Workload, layer: &'static str, inp: &Inputs, budget: Duration) -> LayerTrace {
    let entry = match layer {
        "persist" => Entry::ServerDurable,
        // A server workload's sharded boundary is the batched map the
        // server drives.
        _ if w.entry != Entry::Direct => Entry::Server,
        _ => Entry::Direct,
    };
    let built = build(w, entry, &inp.prefill);
    let trace = if layer == "sharded" {
        let map = &built.map;
        replay(
            layer,
            inp,
            budget,
            |_| map.handle(),
            |h, c, ops| {
                let k = c.key as u64;
                match c.op {
                    Op::Get => sink(h.get(k)),
                    Op::Insert => sink(h.insert(k, value_of(k))),
                    Op::Remove => sink(h.remove(k)),
                    Op::Scan => sink(h.range_query(k, c.hi as u64)),
                    Op::Submit => {
                        for (s, plan) in groups(ops, |k| map.shard_of(k)) {
                            sink(h.shard_batch(s, &plan));
                        }
                    }
                }
            },
        )
    } else {
        let server = built.server.as_ref().expect("server boundary");
        replay(
            layer,
            inp,
            budget,
            |_| server.client(),
            |client, c, ops| {
                assert_eq!(c.op, Op::Submit, "server workloads only submit");
                sink(client.submit(ops.to_vec()));
            },
        )
    };
    built.discard();
    trace
}

/// Runs the ledger for `w` in about `budget`, fills the `*_ns` rows of `m`,
/// and returns every layer's spans, outermost first (`entry` is the measured
/// run's).
pub fn ledger(
    w: &Workload,
    inp: &Inputs,
    budget: Duration,
    entry: LayerTrace,
    m: &mut Metrics,
) -> Vec<LayerTrace> {
    let clock = host::clock_ns();
    m.insert("bench.clock_ns", clock);
    let boundaries = match w.entry {
        Entry::Direct => 2,
        Entry::Server => 3,
        Entry::ServerDurable => 4,
    };
    let each = budget / boundaries;

    let tree = replay_trees(w, inp, each);
    let sharded = replay_store(w, "sharded", inp, each);
    let server = (w.entry != Entry::Direct).then(|| replay_store(w, "server", inp, each));
    let persist = (w.entry == Entry::ServerDurable).then(|| replay_store(w, "persist", inp, each));

    let ns = |l: &LayerTrace, op: Op| l.mean_ns(op, clock);
    for op in Op::ALL {
        let (t, s) = (ns(&tree, op), ns(&sharded, op));
        for (backend, prefix) in [(ShardBackend::Bst, "bst"), (ShardBackend::AbTree, "abtree")] {
            if let Some(name) = metric_name(&format!("{prefix}.{}_ns", op.ledger_name())) {
                m.insert(name, if backend == w.backend { t } else { 0.0 });
            }
        }
        m.insert(
            metric_name(&format!("sharded.{}_ns", op.ledger_name())).expect("in METRICS"),
            s,
        );
        m.insert(
            metric_name(&format!("sharded.self_ns.{}", op.ledger_name())).expect("in METRICS"),
            s - t,
        );
    }
    let per_op = |l: &Option<LayerTrace>| l.as_ref().map_or(0.0, |l| ns(l, Op::Submit) / 8.0);
    let (srv, dur) = (per_op(&server), per_op(&persist));
    m.insert("server.submit8_ns_per_op", srv);
    m.insert(
        "server.self_ns_per_op",
        if server.is_some() {
            srv - ns(&sharded, Op::Submit) / 8.0
        } else {
            0.0
        },
    );
    m.insert(
        "persist.self_ns_per_op",
        if persist.is_some() { dur - srv } else { 0.0 },
    );

    // The time of the measured run's entry spans that the top replay (= the
    // sum of the self times) does not account for, class by class. Both ran
    // the same loop, so what is left is a fresh store against a long-lived
    // one and the host's drift between the two.
    let top = persist.as_ref().or(server.as_ref()).unwrap_or(&sharded);
    let (mut total, mut unexplained) = (0.0, 0.0);
    for op in Op::ALL {
        let n = entry.count(op) as f64;
        total += n * ns(&entry, op);
        unexplained += n * (ns(&entry, op) - ns(top, op));
    }
    m.insert(
        "bench.ledger_residual_share",
        if total > 0.0 {
            unexplained / total
        } else {
            0.0
        },
    );

    let mut layers = vec![entry];
    layers.extend(persist);
    layers.extend(server);
    layers.push(sharded);
    layers.push(tree);
    layers
}

fn metric_name(name: &str) -> Option<&'static str> {
    crate::spec::metric(name).map(|m| m.name)
}

struct Node {
    hdr: ScxHeader,
    cells: [TxCell; 1],
}

/// Mean ns of `f` over `n` back-to-back calls, timed as one section after
/// a tenth as many untimed ones (first-touch page faults are not the
/// primitive's cost).
fn per_call(n: u64, mut f: impl FnMut(u64)) -> f64 {
    (0..n / 10).for_each(&mut f);
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Primitive probes, 10^5 iterations each: what one transaction, one
/// LLX+SCX and one pooled allocate/retire cost on this host right now, and
/// (on the WAL-backed workload; 0 elsewhere, as every `persist.*` row is)
/// one log append and one fsync.
pub fn probes(w: &Workload, m: &mut Metrics) {
    const N: u64 = 100_000;
    let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
    let mut th = rt.register_thread();
    let cells: Vec<TxCell> = (0..8).map(TxCell::new).collect();
    m.insert(
        "htm.txn_rw8_ns",
        per_call(N, |i| {
            let r = rt.attempt(&mut th, |tx| {
                let mut acc = 0u64;
                for c in &cells {
                    acc = acc.wrapping_add(tx.read(c)?);
                }
                tx.write(&cells[0], i)?;
                Ok(acc)
            });
            sink(r.expect("an uncontended transaction commits"));
        }),
    );
    m.insert(
        "htm.direct_load_ns",
        per_call(N, |i| sink(cells[(i & 7) as usize].load_direct(&rt))),
    );

    let domain = Arc::new(Domain::with_pool(ReclaimMode::Epoch, PoolConfig::default()));
    let ctx = Domain::register(&domain);
    m.insert(
        "reclaim.pool_alloc_free_ns",
        per_call(N, |i| {
            let _pin = ctx.pin();
            let p = ctx.alloc([i; 6]);
            // SAFETY: `p` came from `alloc` on this context, was never
            // published, and is not touched again.
            unsafe { ctx.retire_node(black_box(p)) };
        }),
    );
    drop(ctx);

    let eng = ScxEngine::new(Arc::clone(&rt), Arc::new(Domain::new(ReclaimMode::Epoch)));
    let mut sth = eng.register_thread();
    let node = Node {
        hdr: ScxHeader::new(),
        cells: [TxCell::new(0)],
    };
    m.insert(
        "llxscx.llx_scx_ns",
        per_call(N, |_| {
            let ok = sth.pinned(|th| {
                let h = eng
                    .llx(th, &node.hdr, &node.cells)
                    .handle()
                    .expect("uncontended LLX");
                let old = h.snapshot().get(0);
                eng.scx(
                    th,
                    &ScxArgs {
                        v: &[&h],
                        r_mask: 0,
                        fld: &node.cells[0],
                        old,
                        new: old + 2,
                    },
                )
            });
            assert!(black_box(ok), "uncontended SCX succeeds");
        }),
    );

    if w.entry != Entry::ServerDurable {
        m.insert("persist.append8_ns", 0.0);
        m.insert("persist.sync_ns", 0.0);
        return;
    }
    // The log primitives, on the file system the workload's logs are on.
    let dir = scratch_dir()
        .join("data")
        .join(format!("probe-{}", std::process::id()));
    let cfg = PersistConfig {
        fsync: FsyncPolicy::Never,
        snapshot_every: None,
        ..PersistConfig::new(&dir)
    };
    let ops: Vec<BatchOp> = (0..8).map(|k| BatchOp::Insert(k, value_of(k))).collect();
    let mut wal = ShardWal::create(&cfg, 0).expect("fresh probe directory");
    m.insert(
        "persist.append8_ns",
        per_call(N / 5, |_| sink(wal.append(&ops).expect("probe append"))),
    );
    let base = Instant::now();
    let mut sync_ns = 0;
    const SYNCS: u64 = 64;
    for _ in 0..SYNCS {
        wal.append(&ops).expect("probe append");
        let t0 = now_ns(base);
        wal.sync().expect("probe sync");
        sync_ns += now_ns(base) - t0;
    }
    m.insert("persist.sync_ns", sync_ns as f64 / SYNCS as f64);
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
}
