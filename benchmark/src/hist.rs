//! Latency histogram: exact below 128 ns, then 64 sub-buckets per power
//! of two (≤ 1.6% wide). Quantiles interpolate inside the bucket, so a
//! reported p50 keeps all its digits instead of snapping to a bucket edge.
//! (`threepath_workload::LatencyHistogram` has one bucket per octave, too
//! coarse to hold a 10% bound.)

const SUB: u64 = 64;
/// Values are clamped below 2^40 ns (~18 min): 35 shifts of 64 buckets.
const MAX_SHIFT: u64 = 34;
const BUCKETS: usize = ((MAX_SHIFT + 2) * SUB) as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros() as u64 - 6).min(MAX_SHIFT);
    let m = (v >> shift).min(2 * SUB - 1);
    (shift * SUB + m) as usize
}

/// Lower edge and width of bucket `i`.
fn edges(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < 2 * SUB {
        return (i as f64, 1.0);
    }
    let shift = i / SUB - 1;
    let m = i - shift * SUB;
    ((m << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Merges `other`'s samples in.
    pub fn add(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q * self.n as f64;
        let mut seen = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if seen + c >= rank {
                let (lo, width) = edges(i);
                return lo + width * ((rank - seen) / c).clamp(0.0, 1.0);
            }
            seen += c;
        }
        edges(BUCKETS - 1).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        let mut last = 0;
        for v in (0..100_000u64).chain([1 << 20, (1 << 30) + 12345, 1 << 39, u64::MAX]) {
            let i = index(v);
            assert!(i >= last || v > 100_000, "index fell at {v}");
            assert!(i < BUCKETS);
            if v < 1 << 40 {
                let (lo, w) = edges(i);
                assert!(
                    lo <= v as f64 && (v as f64) < lo + w,
                    "{v} outside bucket {i}"
                );
            }
            last = i.max(last);
        }
    }

    #[test]
    fn quantiles_interpolate() {
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 5000.0).abs() < 100.0, "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 9900.0).abs() < 200.0, "p99 {p99}");
        assert_eq!(h.count(), 1000);
    }
}
