//! Small measurement helpers: latency samples, process memory, file
//! sizes.

use std::path::Path;
use std::time::{Duration, Instant};

/// Client-timed latencies of one operation class, in nanoseconds,
/// each with the time it completed.
#[derive(Default)]
pub struct Latencies {
    ns: Vec<u64>,
    done: Vec<Instant>,
}

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos().min(u64::MAX as u128) as u64);
        self.done.push(Instant::now());
    }

    pub fn extend(&mut self, other: Latencies) {
        self.ns.extend(other.ns);
        self.done.extend(other.done);
    }

    /// Splits the samples into `k` equal time slices of the window that
    /// began at `start` and lasted `len`, by completion time.
    pub fn slices(&self, start: Instant, len: Duration, k: usize) -> Vec<Latencies> {
        let mut out: Vec<Latencies> = (0..k).map(|_| Latencies::default()).collect();
        let width = len.as_secs_f64() / k as f64;
        for (&ns, &done) in self.ns.iter().zip(&self.done) {
            let at = done.saturating_duration_since(start).as_secs_f64();
            let i = ((at / width) as usize).min(k - 1);
            out[i].ns.push(ns);
            out[i].done.push(done);
        }
        out
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// The `q`-quantile (0..=1) in milliseconds, linearly interpolated
    /// between the two nearest ranks; 0 when there are no samples.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        let v = sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac;
        v / 1e6
    }

    /// Mean in microseconds; 0 when there are no samples.
    pub fn mean_us(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().map(|&n| n as f64).sum::<f64>() / self.ns.len() as f64 / 1e3
    }

    /// Samples strictly above the `q`-quantile: how many observations
    /// a percentile estimate rests on.
    pub fn beyond(&self, q: f64) -> usize {
        let cut = self.quantile_ms(q) * 1e6;
        self.ns.iter().filter(|&&n| n as f64 > cut).count()
    }
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// This process's resident set size in MiB, from `/proc/self/status`.
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// CPU time (user + system) this process has used, in seconds, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Size of a file in bytes; 0 if it does not exist.
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// SplitMix64 finalizer: a cheap deterministic hash for seeded
/// per-index decisions.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive digest of a result's columns and rows, so a sampled
/// answer can be checked later without keeping its rows alive.
pub fn digest(res: &molap_core::ConsolidationResult) -> u64 {
    use molap_core::AggValue;
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    res.columns().hash(&mut h);
    for row in res.rows() {
        row.keys.hash(&mut h);
        for v in &row.values {
            match *v {
                AggValue::Int(x) => (0u8, x, 0u64).hash(&mut h),
                AggValue::Ratio { sum, count } => (1u8, sum, count).hash(&mut h),
            }
        }
    }
    h.finish()
}

/// `(steal, total)` CPU ticks of the whole machine so far, from the
/// first line of `/proc/stat`.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (cpu.get(7).copied().unwrap_or(0), cpu.iter().sum())
}
