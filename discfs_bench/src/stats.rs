//! The one statistics module of the benchmark: a log-bucketed latency
//! histogram, order statistics, the slice estimator with its steal
//! filter, and the `/proc` readers behind the CPU, steal and memory
//! metrics.
//!
//! # The estimator
//!
//! A measured window is cut into equal wall-clock slices. Every timing
//! metric is computed per slice and reported as the **median over the
//! kept slices**; a slice during which the hypervisor stole more than
//! [`MAX_STEAL_FRAC`] of the machine's CPU ticks is dropped. A run
//! measures [`REPETITIONS`] windows, each on a world set up afresh, and
//! pools their slices: on the 2-vCPU build machine the host's speed
//! shifts for seconds at a time (a fixed spin loop ran 45 % faster for
//! ten seconds in a minute) and a world's threads can land well or
//! badly, so one long window on one world is hostage to both; a median
//! over slices from three worlds spread over the run ignores one bad
//! third.

use std::time::Duration;

/// Slices a measured window is cut into.
pub const SLICES: usize = 8;

/// Windows an untraced run measures, each on its own world; the run's
/// `--seconds` are divided among them, so a run has 24 slices.
pub const REPETITIONS: usize = 3;

/// A slice whose steal share of all CPU ticks exceeds this is dropped.
pub const MAX_STEAL_FRAC: f64 = 0.02;

/// A run that keeps less than this share of its slices is flagged
/// `noisy`.
pub const MIN_KEPT_SHARE: f64 = 0.5;

/// `/proc` reports CPU time in `USER_HZ` ticks, which Linux fixes at
/// 100 per second for every architecture.
pub const TICKS_PER_SECOND: f64 = 100.0;

/// Sub-buckets per power of two: 64 gives buckets 1.6 % wide.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^40 ns (18 minutes) have their own bucket; larger
/// ones share the last.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = SUB + ((MAX_BITS - SUB_BITS) as usize) * SUB;

/// A log-bucketed histogram of nanosecond values.
///
/// Values below 64 are exact; above, each power of two is split into 64
/// equal buckets, so a recorded value is known to within 1.6 %.
/// [`Histogram::percentile`] interpolates inside the bucket by rank, so
/// its result moves continuously with the data instead of jumping from
/// one bucket edge to the next.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let bits = 63 - v.leading_zeros();
    if bits >= MAX_BITS {
        return BUCKETS - 1;
    }
    let sub = ((v >> (bits - SUB_BITS)) as usize) & (SUB - 1);
    SUB + ((bits - SUB_BITS) as usize) * SUB + sub
}

/// The half-open value range `[lo, hi)` of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, i as u64 + 1);
    }
    let octave = ((i - SUB) / SUB) as u32;
    let sub = ((i - SUB) % SUB) as u64;
    let width = 1u64 << octave;
    let lo = (1u64 << (octave + SUB_BITS)) + sub * width;
    (lo, lo + width)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.total += 1;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every value of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0 < q <= 1`) in nanoseconds, `None` when
    /// empty. The rank `q * count` is located in its bucket and the
    /// value interpolated linearly across the bucket's range.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = (q * self.total as f64).clamp(0.0, self.total as f64);
        let mut before = 0u64;
        for (i, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let after = before + n as u64;
            if rank <= after as f64 {
                let (lo, hi) = bucket_bounds(i);
                let within = (rank - before as f64) / n as f64;
                return Some(lo as f64 + (hi - lo) as f64 * within);
            }
            before = after;
        }
        let (_, hi) = bucket_bounds(BUCKETS - 1);
        Some(hi as f64)
    }
}

/// The median of `values`, `None` when empty. An even count averages
/// the two middle values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The three quartiles of `values` as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median: the spread the benchmark contract bounds. Zero for fewer
/// than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => ((q3 - q1) / q2).abs(),
        _ => 0.0,
    }
}

/// One reading of the machine-wide and per-process CPU counters, taken
/// at a slice boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuSample {
    /// This process's user + system ticks (`/proc/self/stat`).
    pub process_ticks: u64,
    /// All ticks of all CPUs (`/proc/stat`, first line).
    pub machine_ticks: u64,
    /// Of those, ticks the hypervisor ran someone else.
    pub steal_ticks: u64,
}

impl CpuSample {
    /// Reads both files now; a field that cannot be read stays zero
    /// (a platform without `/proc` then keeps every slice).
    pub fn now() -> CpuSample {
        let process_ticks = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_self_stat(&s))
            .unwrap_or(0);
        let (machine_ticks, steal_ticks) = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| parse_proc_stat(&s))
            .unwrap_or((0, 0));
        CpuSample {
            process_ticks,
            machine_ticks,
            steal_ticks,
        }
    }

    /// Process CPU time between `earlier` and `self`.
    pub fn cpu_since(&self, earlier: &CpuSample) -> Duration {
        let ticks = self.process_ticks.saturating_sub(earlier.process_ticks);
        Duration::from_secs_f64(ticks as f64 / TICKS_PER_SECOND)
    }

    /// Share of the machine's ticks stolen between `earlier` and `self`.
    pub fn steal_frac_since(&self, earlier: &CpuSample) -> f64 {
        let all = self.machine_ticks.saturating_sub(earlier.machine_ticks);
        if all == 0 {
            return 0.0;
        }
        self.steal_ticks.saturating_sub(earlier.steal_ticks) as f64 / all as f64
    }
}

/// `utime + stime` from the text of `/proc/self/stat`. The command name
/// may contain spaces and parentheses, so fields are counted from the
/// last `)`.
pub fn parse_self_stat(text: &str) -> Option<u64> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3 of the file, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `(all ticks, steal ticks)` from the aggregate `cpu` line of
/// `/proc/stat`. Guest time is already inside user time and is skipped.
pub fn parse_proc_stat(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_ascii_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 4 {
        return None;
    }
    let all = fields.iter().take(8).sum();
    Some((all, fields.get(7).copied().unwrap_or(0)))
}

/// `VmHWM` (peak resident set) in MB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_mb(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set in MB, zero where unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .unwrap_or(0.0)
}

/// Which slices survive the steal filter. `boundaries` holds one sample
/// per slice edge, so `n + 1` samples describe `n` slices. When the
/// filter would leave nothing, every slice is kept (the caller flags the
/// run noisy from the count it would have kept).
pub fn kept_slices(boundaries: &[CpuSample]) -> (Vec<bool>, usize) {
    let keep: Vec<bool> = boundaries
        .windows(2)
        .map(|w| w[1].steal_frac_since(&w[0]) <= MAX_STEAL_FRAC)
        .collect();
    let clean = keep.iter().filter(|k| **k).count();
    if clean == 0 {
        (vec![true; keep.len()], 0)
    } else {
        (keep, clean)
    }
}

/// The median of the per-slice values whose slice is kept and has a
/// value, with their quartile spread.
pub fn slice_median(values: &[Option<f64>], keep: &[bool]) -> Option<(f64, f64)> {
    let kept: Vec<f64> = values
        .iter()
        .zip(keep)
        .filter_map(|(v, k)| v.filter(|_| *k))
        .collect();
    median(&kept).map(|m| (m, quartile_spread(&kept)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut expected_lo = 0;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i}");
            assert!(hi > lo);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi - 1), i);
            expected_lo = hi;
        }
        assert_eq!(expected_lo, 1 << MAX_BITS);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn uniform_distribution_percentiles_are_within_bucket_width() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for (q, exact) in [(0.5, 500_000.0), (0.9, 900_000.0), (0.99, 990_000.0)] {
            let got = h.percentile(q).unwrap();
            assert!(
                (got - exact).abs() / exact < 0.002,
                "q={q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn two_point_distribution_puts_the_tail_where_it_is() {
        let mut h = Histogram::new();
        for _ in 0..980 {
            h.record(200_000);
        }
        for _ in 0..20 {
            h.record(40_000_000);
        }
        let p50 = h.percentile(0.5).unwrap();
        let p99 = h.percentile(0.99).unwrap();
        assert!((p50 - 200_000.0).abs() / 200_000.0 < 0.016, "{p50}");
        assert!((p99 - 40_000_000.0).abs() / 40_000_000.0 < 0.016, "{p99}");
    }

    #[test]
    fn small_values_are_exact_and_empty_is_none() {
        let mut h = Histogram::new();
        assert!(h.percentile(0.5).is_none());
        h.record(7);
        let p = h.percentile(1.0).unwrap();
        assert!((7.0..=8.0).contains(&p));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(100);
        b.record(1_000_000);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!(a.percentile(0.9).unwrap() > 900_000.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn proc_parsers_read_the_documented_fields() {
        let stat = "1234 (disc fs) bench) S 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20 0 7 0 100 1 2";
        assert_eq!(parse_self_stat(stat), Some(200));
        let machine = "cpu  100 5 30 800 10 0 5 50 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_proc_stat(machine), Some((1000, 50)));
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_self_stat("garbage"), None);
        assert_eq!(parse_proc_stat("intr 1 2 3"), None);
    }

    #[test]
    fn steal_filter_drops_only_stolen_slices() {
        let at = |machine: u64, steal: u64| CpuSample {
            process_ticks: 0,
            machine_ticks: machine,
            steal_ticks: steal,
        };
        // Three slices of 100 ticks: 1 %, 10 %, 0 % stolen.
        let edges = [at(0, 0), at(100, 1), at(200, 11), at(300, 11)];
        let (keep, clean) = kept_slices(&edges);
        assert_eq!(keep, vec![true, false, true]);
        assert_eq!(clean, 2);
        let values = [Some(10.0), Some(99.0), Some(20.0)];
        assert_eq!(slice_median(&values, &keep).unwrap().0, 15.0);
        // A slice without a value is skipped, not counted as zero.
        let holes = [Some(10.0), Some(99.0), None];
        assert_eq!(slice_median(&holes, &keep).unwrap().0, 10.0);
        // Everything stolen: keep all, report zero clean slices.
        let all_bad = [at(0, 0), at(100, 50), at(200, 100)];
        assert_eq!(kept_slices(&all_bad), (vec![true, true], 0));
    }

    #[test]
    fn cpu_sample_reads_this_machine() {
        let a = CpuSample::now();
        let mut x = 0u64;
        for i in 0..30_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = CpuSample::now();
        assert!(b.machine_ticks >= a.machine_ticks);
        assert!(b.cpu_since(&a) <= Duration::from_secs(60));
        assert!((0.0..=1.0).contains(&b.steal_frac_since(&a)));
        assert!(peak_rss_mb() >= 0.0);
    }
}
