//! Spans of the traced run, recorded by the benchmark around its calls into
//! each layer (spans inside the store are a later issue). Kept in memory;
//! written as JSON lines when the run ends.

use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::spec::{Op, CALLERS};

/// Spans kept per layer, shared equally among the callers (their first
/// calls, so the same requests are kept at every boundary); calls beyond
/// the cap still count in the per-class sums the metrics come from.
pub const SPAN_CAP: usize = 100_000;

/// Timed calls are summed in chunks of this many, per class, and a class's
/// cost is the median of its chunk means: a mean, so that layers add up, but
/// one a burst of stolen time cannot move.
const CHUNK_CALLS: usize = 4096;

#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    n: u64,
    sum_ns: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Stream index of the call; shared by the spans of one request across
    /// boundaries.
    pub req: u64,
    pub op: Op,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The spans of one layer (capped) and the per-class chunk sums over every
/// timed call (not capped). One per caller thread while it records;
/// [`LayerTrace::absorb`] merges the callers'.
pub struct LayerTrace {
    pub layer: &'static str,
    /// Whether this is a ledger replay, whose `req` indices are shared with
    /// the replays of the other boundaries (the measured run's are not).
    pub ledger: bool,
    pub spans: Vec<Span>,
    chunks: Vec<[Agg; 5]>,
    in_chunk: usize,
}

impl LayerTrace {
    pub fn new(layer: &'static str, ledger: bool) -> Self {
        LayerTrace {
            layer,
            ledger,
            spans: Vec::new(),
            chunks: Vec::new(),
            in_chunk: CHUNK_CALLS,
        }
    }

    #[inline]
    pub fn push(&mut self, span: Span) {
        if self.in_chunk == CHUNK_CALLS {
            self.chunks.push(Default::default());
            self.in_chunk = 0;
        }
        self.in_chunk += 1;
        let chunk = self.chunks.last_mut().expect("pushed above");
        let a = &mut chunk[span.op.index()];
        a.n += 1;
        a.sum_ns += span.end_ns - span.start_ns;
        if self.spans.len() < SPAN_CAP / CALLERS {
            self.spans.push(span);
        }
    }

    pub fn absorb(&mut self, other: LayerTrace) {
        self.chunks.extend(other.chunks);
        self.spans.extend(other.spans);
    }

    /// Timed calls of class `op`.
    pub fn count(&self, op: Op) -> u64 {
        self.chunks.iter().map(|c| c[op.index()].n).sum()
    }

    /// What one call of class `op` costs: the median chunk mean, with the
    /// clock's own cost taken out. 0 when the layer saw no such call.
    pub fn mean_ns(&self, op: Op, clock_ns: f64) -> f64 {
        let means: Vec<f64> = self
            .chunks
            .iter()
            .map(|c| c[op.index()])
            .filter(|a| a.n > 0)
            .map(|a| a.sum_ns as f64 / a.n as f64)
            .collect();
        if means.is_empty() {
            0.0
        } else {
            crate::run::median(&means) - clock_ns
        }
    }
}

/// Writes `layers` (outermost boundary first) as one JSON object per span:
/// `{id, req, layer, op, start_ns, end_ns, parent}`. A span's parent is the
/// same request's span one boundary up, where that replay got as far as the
/// request; ids are `layer index << 32 | req`.
pub fn write(path: &Path, layers: &[LayerTrace]) -> io::Result<PathBuf> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(File::create(path)?);
    let mut above: HashSet<u64> = HashSet::new();
    for (i, l) in layers.iter().enumerate() {
        for s in &l.spans {
            let id = (i as u64) << 32 | (s.req & 0xFFFF_FFFF);
            let parent = if above.contains(&s.req) {
                format!("{}", (i as u64 - 1) << 32 | (s.req & 0xFFFF_FFFF))
            } else {
                "null".to_string()
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"req\": {}, \"layer\": \"{}\", \"op\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.req,
                l.layer,
                s.op.ledger_name(),
                s.start_ns,
                s.end_ns,
            )?;
        }
        // The measured run's requests are not the replays'.
        above = if l.ledger {
            l.spans.iter().map(|s| s.req).collect()
        } else {
            HashSet::new()
        };
    }
    out.flush()?;
    Ok(path.to_path_buf())
}
