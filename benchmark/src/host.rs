//! What the benchmark reads from the host: CPU count, stolen time, peak
//! memory, and the cost of its own clock.

use std::fs;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(steal, total)` jiffies from the aggregate `cpu` line of `/proc/stat`;
/// zeros where the file is missing.
pub fn cpu_jiffies() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user/nice.
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().take(8).sum())
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` is missing.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Nanoseconds since `base`, the one clock every span and sample uses.
#[inline]
pub fn now_ns(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// What an empty timed section reads: the mean gap between two
/// back-to-back clock reads. Subtracted from ledger and probe timings.
pub fn clock_ns() -> f64 {
    let base = Instant::now();
    let n = 100_000u64;
    let mut total = 0u64;
    for _ in 0..n {
        let a = now_ns(base);
        let b = now_ns(base);
        total += b - a;
    }
    total as f64 / n as f64
}
