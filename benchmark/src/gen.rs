//! The benchmark's own input generator: prefill and per-caller call
//! streams, made from `--seed` before any clock starts. The store sees only
//! keys and ops.
//!
//! Key ownership makes every output checkable: couple `c = k >> 1` belongs
//! to caller `c % 2`, only the owner updates its keys, and a key's value is
//! always [`value_of`]`(k)`. So each caller knows the exact reply to every
//! update it issues, the final state is the sequential replay of each
//! caller's completed calls, and — in the workloads with scans — an insert
//! writes `2c+1` then `2c` and a remove deletes `2c` then `2c+1`, so a scan
//! that returns `2c` without `2c+1` is torn.

use std::time::Instant;

use threepath_core::BatchOp;

use crate::spec::{Mix, Op, Workload, BATCH, CALLERS};

/// SplitMix64. The benchmark's own copy, not `threepath_htm::SplitMix64`:
/// a change to the store must not be able to change the benchmark's inputs
/// (`bench.stream_hash` has to agree between a parent and a change).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, n)` (fixed-point multiply; bias < 2^-40 here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The value every present key holds.
pub fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// One call of a stream. For `Scan` the range is `[key, hi)`; for `Submit`
/// `key` indexes the caller's batch array ([`BATCH`] ops per submit).
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub op: Op,
    pub key: u32,
    pub hi: u32,
}

pub struct Inputs {
    /// Keys present before the clock starts, in insertion order (shuffled:
    /// the BST is unbalanced).
    pub prefill: Vec<u64>,
    pub streams: [Vec<Call>; CALLERS],
    /// Per caller, [`BATCH`] ops per `Submit` call; empty otherwise.
    pub batches: [Vec<BatchOp>; CALLERS],
    /// Hash of the prefill and every generated call, 52 bits so it survives
    /// a trip through a JSON number.
    pub hash: u64,
    pub gen_ns_per_op: f64,
}

impl Inputs {
    /// The ops of submit call `c` of caller `t`.
    pub fn batch(&self, t: usize, c: Call) -> &[BatchOp] {
        let at = c.key as usize * BATCH;
        &self.batches[t][at..at + BATCH]
    }
}

/// Calls per caller stream; callers cycle through it. Long enough that a
/// lap touches the whole tree (no replayed-locality artefact) and short
/// enough to generate in well under a second.
const STREAM_CALLS: usize = 1 << 20;
const SCAN_CALLS: usize = 1 << 16;
const SUBMIT_CALLS: usize = 1 << 16;

struct Gen {
    rng: Rng,
    caller: u64,
    range: u64,
}

impl Gen {
    /// A couple owned by this caller.
    fn own_couple(&mut self) -> u64 {
        2 * self.rng.below(self.range / 4) + self.caller
    }

    fn own_key(&mut self) -> u32 {
        (2 * self.own_couple() + self.rng.below(2)) as u32
    }

    fn any_key(&mut self) -> u32 {
        self.rng.below(self.range) as u32
    }

    fn point(op: Op, key: u32) -> Call {
        Call { op, key, hi: 0 }
    }

    /// The two calls of a couple-ordered update.
    fn couple_update(&mut self, out: &mut Vec<Call>) {
        let k = (2 * self.own_couple()) as u32;
        if self.rng.below(2) == 0 {
            out.extend([Self::point(Op::Insert, k + 1), Self::point(Op::Insert, k)]);
        } else {
            out.extend([Self::point(Op::Remove, k), Self::point(Op::Remove, k + 1)]);
        }
    }

    fn scan(&mut self, extent: u64) -> Call {
        let lo = self.any_key();
        Call {
            op: Op::Scan,
            key: lo,
            hi: lo + extent as u32,
        }
    }
}

pub fn inputs(w: &Workload, seed: u64) -> Inputs {
    assert!(w.key_range % 4 == 0 && w.key_range <= 1 << 30);
    let t0 = Instant::now();
    let mut hash = mix64(seed ^ 0x7E57_5EED);
    let mut fold = |x: u64| hash = mix64(hash ^ x);

    // Prefill: half full, by couple where scans check couples.
    let mut rng = Rng::new(mix64(seed).wrapping_add(w.key_range));
    let mut prefill = Vec::with_capacity(w.key_range as usize / 2 + 64);
    if w.mix.couples() {
        for c in 0..w.key_range / 2 {
            if rng.below(2) == 0 {
                prefill.extend([2 * c + 1, 2 * c]);
            }
        }
        // Shuffle couples, not keys, so 2c+1 still goes in before 2c.
        for i in (1..prefill.len() / 2).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            prefill.swap(2 * i, 2 * j);
            prefill.swap(2 * i + 1, 2 * j + 1);
        }
    } else {
        prefill.extend((0..w.key_range).filter(|_| rng.below(2) == 0));
        for i in (1..prefill.len()).rev() {
            prefill.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }
    prefill.iter().for_each(|&k| fold(k));

    let mut streams: [Vec<Call>; CALLERS] = Default::default();
    let mut batches: [Vec<BatchOp>; CALLERS] = Default::default();
    for t in 0..CALLERS {
        let mut g = Gen {
            rng: Rng::new(mix64(seed ^ mix64(t as u64 + 1))),
            caller: t as u64,
            range: w.key_range,
        };
        let calls = &mut streams[t];
        match w.mix {
            Mix::Point { get_share } => {
                for _ in 0..STREAM_CALLS {
                    let c = if g.rng.unit() < get_share {
                        Gen::point(Op::Get, g.any_key())
                    } else if g.rng.below(2) == 0 {
                        Gen::point(Op::Insert, g.own_key())
                    } else {
                        Gen::point(Op::Remove, g.own_key())
                    };
                    calls.push(c);
                }
            }
            Mix::HeavyRq if t == 0 => {
                while calls.len() < STREAM_CALLS {
                    g.couple_update(calls);
                }
            }
            Mix::HeavyRq => {
                for _ in 0..SCAN_CALLS {
                    let x = g.rng.unit();
                    calls.push(g.scan((x * x * 1e4) as u64 + 1));
                }
            }
            Mix::Storm => {
                while calls.len() < STREAM_CALLS / 4 {
                    match g.rng.below(10) {
                        0..=3 => calls.push(Gen::point(Op::Get, g.any_key())),
                        4..=8 => g.couple_update(calls),
                        _ => calls.push(g.scan(64)),
                    }
                }
            }
            Mix::Batch => {
                for i in 0..SUBMIT_CALLS {
                    calls.push(Gen::point(Op::Submit, i as u32));
                    for _ in 0..BATCH {
                        let k = g.own_key() as u64;
                        batches[t].push(if g.rng.below(2) == 0 {
                            BatchOp::Insert(k, value_of(k))
                        } else {
                            BatchOp::Remove(k)
                        });
                    }
                }
            }
        }
        for c in calls.iter() {
            fold((c.op.index() as u64) << 60 | (c.key as u64) << 30 | c.hi as u64);
        }
        for b in &batches[t] {
            fold(match *b {
                BatchOp::Insert(k, _) => k << 1,
                BatchOp::Remove(k) | BatchOp::Get(k) => k << 1 | 1,
            });
        }
    }
    let generated: usize =
        streams.iter().map(Vec::len).sum::<usize>() + batches.iter().map(Vec::len).sum::<usize>();
    Inputs {
        prefill,
        streams,
        batches,
        hash: hash & ((1 << 52) - 1),
        gen_ns_per_op: t0.elapsed().as_nanos() as f64 / generated as f64,
    }
}

/// The sequential model the final state and the update replies are checked
/// against: which keys are present (values are implied).
pub struct Model {
    present: Vec<bool>,
}

impl Model {
    pub fn new(w: &Workload, prefill: &[u64]) -> Self {
        let mut present = vec![false; w.key_range as usize];
        for &k in prefill {
            present[k as usize] = true;
        }
        Model { present }
    }

    /// Applies one update; returns whether the store's reply is `Some`.
    pub fn update(&mut self, insert: bool, key: u64) -> bool {
        std::mem::replace(&mut self.present[key as usize], insert)
    }

    pub fn pairs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.present
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(k, _)| (k as u64, value_of(k as u64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn callers_only_update_their_own_couples() {
        for w in &WORKLOADS {
            let inp = inputs(w, 3);
            for t in 0..CALLERS {
                let own = |k: u64| (k >> 1) % 2 == t as u64 && k < w.key_range;
                for c in &inp.streams[t] {
                    match c.op {
                        Op::Insert | Op::Remove => assert!(own(c.key as u64), "{}", w.name),
                        Op::Submit => {
                            assert!(inp.batch(t, *c).iter().all(|b| own(b.key())))
                        }
                        Op::Get | Op::Scan => assert!((c.key as u64) < w.key_range),
                    }
                }
            }
        }
    }

    #[test]
    fn couple_streams_keep_the_invariant_at_every_call() {
        for w in WORKLOADS.iter().filter(|w| w.mix.couples()) {
            let inp = inputs(w, 5);
            let mut m = Model::new(w, &inp.prefill);
            for t in 0..CALLERS {
                for c in &inp.streams[t] {
                    if matches!(c.op, Op::Insert | Op::Remove) {
                        m.update(c.op == Op::Insert, c.key as u64);
                        let even = (c.key & !1) as usize;
                        assert!(!m.present[even] || m.present[even + 1], "{}", w.name);
                    }
                }
            }
        }
    }
}
