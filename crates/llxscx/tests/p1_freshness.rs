//! Property P1 — the linchpin of LLX/SCX correctness: between any two
//! changes to a Data-record, its `info` field receives a value it has
//! never previously contained. Both paths write `(pid, seq)` words drawn
//! from the writing process's one counter: the HTM path a tagged sequence
//! number, the software path a reference to an SCX of the process's one
//! reusable SCX-record. So no value of either kind may ever recur in a
//! node's `info` field, whichever path wrote it and however often the
//! records are reused.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use threepath_htm::{HtmConfig, HtmRuntime, TxCell};
use threepath_llxscx::{classify, unpack_tseq, InfoState, ScxArgs, ScxEngine, ScxHeader};
use threepath_reclaim::{Domain, ReclaimMode};

struct RegNode {
    hdr: ScxHeader,
    cells: [TxCell; 1],
}
unsafe impl Sync for RegNode {}

/// Counts the values of each kind in `vals`.
fn kinds(vals: &[u64]) -> (usize, usize) {
    let tagged = vals
        .iter()
        .filter(|&&v| classify(v) == InfoState::Tagged)
        .count();
    let records = vals
        .iter()
        .filter(|&&v| classify(v) == InfoState::Record)
        .count();
    (tagged, records)
}

#[test]
fn tagged_sequence_numbers_are_globally_fresh() {
    // Four threads update one hot node over both paths (short attempt
    // budget, 30% spurious aborts) while a fifth samples its `info` field.
    // The sampler can miss values, but under P1 it can never see a value
    // come back after the field moved on.
    let rt = Arc::new(HtmRuntime::new(HtmConfig::default().with_spurious(0.3)));
    let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
    let eng = Arc::new(ScxEngine::new(rt.clone(), domain).with_attempt_limit(3));
    let node = Arc::new(RegNode {
        hdr: ScxHeader::new(),
        cells: [TxCell::new(0)],
    });
    let done = AtomicBool::new(false);

    let sampled = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut seen = vec![0u64];
            while !done.load(Ordering::Relaxed) {
                let v = node.hdr.info().load_direct(&rt);
                if v != *seen.last().unwrap() {
                    seen.push(v);
                }
            }
            seen
        });
        let workers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut th = eng.register_thread();
                    let mut committed = 0;
                    while committed < 400 {
                        let ok = th.pinned(|th| {
                            let Some(h) = eng.llx(th, &node.hdr, &node.cells).handle() else {
                                return false;
                            };
                            let old = h.snapshot().get(0);
                            eng.scx(
                                th,
                                &ScxArgs {
                                    v: &[&h],
                                    r_mask: 0,
                                    fld: &node.cells[0],
                                    old,
                                    new: old + 8,
                                },
                            )
                        });
                        committed += ok as u32;
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        sampler.join().unwrap()
    });

    let mut distinct = HashSet::new();
    for &v in &sampled {
        assert!(distinct.insert(v), "info value {v:#x} recurred");
    }
    let (tagged, records) = kinds(&sampled);
    println!("sampled {tagged} tagged and {records} record values");
    assert_eq!(node.cells[0].load_plain(), 4 * 400 * 8);
}

#[test]
fn every_info_value_a_node_holds_is_fresh() {
    // One thread alternates the HTM and software paths and records every
    // value the node's `info` field ever holds: all must be distinct, of
    // both kinds, although every software SCX reuses the same record.
    let rt = Arc::new(HtmRuntime::new(HtmConfig::default()));
    let domain = Arc::new(Domain::new(ReclaimMode::Epoch));
    let eng = ScxEngine::new(rt.clone(), domain).with_attempt_limit(1);
    let mut th = eng.register_thread();
    let pid = th.id().0;
    let node = RegNode {
        hdr: ScxHeader::new(),
        cells: [TxCell::new(0)],
    };
    let mut held = vec![node.hdr.info().load_plain()];
    for i in 0..200u64 {
        th.pinned(|th| {
            let h = eng.llx(th, &node.hdr, &node.cells).handle().unwrap();
            let old = h.snapshot().get(0);
            let args = ScxArgs {
                v: &[&h],
                r_mask: 0,
                fld: &node.cells[0],
                old,
                new: old + 8,
            };
            // HTM path (attempt budget 1, fresh after each success), or
            // the software path.
            let ok = if i % 2 == 0 {
                eng.scx(th, &args)
            } else {
                eng.scx_orig(th, &args)
            };
            assert!(ok);
        });
        held.push(node.hdr.info().load_plain());
    }
    let mut distinct = HashSet::new();
    let mut last_seq = 0;
    for (i, &v) in held.iter().enumerate() {
        assert!(distinct.insert(v), "info value {v:#x} recurred at step {i}");
        if v != 0 {
            let (p, seq) = unpack_tseq(v);
            assert_eq!(p, pid, "the writer's pid");
            assert!(seq > last_seq, "one counter feeds both kinds");
            last_seq = seq;
        }
    }
    assert_eq!(kinds(&held), (100, 100), "both paths ran");
    assert_eq!(classify(held[0]), InfoState::None);
}
