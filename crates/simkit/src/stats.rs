//! Lightweight named-counter statistics.

use std::fmt;

/// A registry of named `u64` counters plus a few derived helpers.
///
/// Components increment counters as events occur; at the end of a run the
/// harness reads them out to compute hit rates, stall fractions, and
/// bandwidth. Counters live in a name-sorted vector — registries are
/// small (tens of entries), so a binary search beats a tree walk and,
/// unlike a `String`-keyed map, bumping an existing counter allocates
/// nothing. This is hot-path code: components charge counters every
/// simulated cycle.
///
/// # Example
///
/// ```
/// use simkit::Stats;
/// let mut s = Stats::new();
/// s.add("hits", 3);
/// s.inc("misses");
/// assert_eq!(s.get("hits"), 3);
/// assert!((s.ratio("hits", "misses") - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// `(name, value)` sorted by name.
    counters: Vec<(Box<str>, u64)>,
}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Stats::default()
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.counters
            .binary_search_by(|(k, _)| k.as_ref().cmp(name))
    }

    /// Adds `n` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, n: u64) {
        match self.position(name) {
            Ok(i) => self.counters[i].1 += n,
            Err(i) => self.counters.insert(i, (name.into(), n)),
        }
    }

    /// Increments counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        match self.position(name) {
            Ok(i) => self.counters[i].1,
            Err(_) => 0,
        }
    }

    /// `a / b` as `f64`; zero when `b` is zero.
    pub fn ratio(&self, a: &str, b: &str) -> f64 {
        let d = self.get(b);
        if d == 0 {
            0.0
        } else {
            self.get(a) as f64 / d as f64
        }
    }

    /// `a / (a + b)` as `f64`; zero when both are zero. Handy for hit rates.
    pub fn fraction(&self, a: &str, b: &str) -> f64 {
        let x = self.get(a);
        let y = self.get(b);
        if x + y == 0 {
            0.0
        } else {
            x as f64 / (x + y) as f64
        }
    }

    /// Merges another registry into this one, summing shared counters.
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
    }

    /// Iterates counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// `true` when no counter has been created.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "{k}: {v}")?;
        }
        Ok(())
    }
}

/// A fixed-geometry histogram of `u64` samples with an explicit overflow
/// bucket, used by the tracing layer for occupancy distributions.
///
/// Buckets are linear: bucket `i` covers `[i * width, (i + 1) * width)`,
/// and anything at or above `buckets * width` lands in the overflow
/// bucket. All arithmetic saturates, so pathological samples (`u64::MAX`)
/// cannot poison the summary.
///
/// # Example
///
/// ```
/// use simkit::stats::Histogram;
/// let mut h = Histogram::linear(10, 8);
/// for v in [3, 5, 5, 70, 200] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.overflow(), 1); // 200 >= 10 * 8
/// // The median falls in the first bucket; its upper edge is 9.
/// assert_eq!(h.percentile(50.0), Some(9));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with `buckets` linear buckets of `width` each.
    ///
    /// # Panics
    ///
    /// Panics when `width` or `buckets` is zero.
    pub fn linear(width: u64, buckets: usize) -> Self {
        assert!(width > 0 && buckets > 0, "degenerate histogram geometry");
        Histogram {
            width,
            counts: vec![0; buckets],
            overflow: 0,
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = (v / self.width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] = self.counts[idx].saturating_add(1);
        } else {
            self.overflow = self.overflow.saturating_add(1);
        }
        self.total = self.total.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Samples that fell past the last bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Largest sample seen (zero when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of all samples; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `p`-th percentile (0–100) as an upper bound of the bucket the
    /// rank falls into; `None` when the histogram is empty. Overflow
    /// samples report the true maximum.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        // Rank of the sample that bounds the percentile (1-based).
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper edge of bucket i, clamped to the observed max.
                let edge = (i as u64 + 1).saturating_mul(self.width) - 1;
                return Some(edge.min(self.max));
            }
        }
        Some(self.max)
    }

    /// Per-bucket counts, overflow excluded.
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }
}

/// Component ticks of one class over a run: how many the tick loop
/// executed and how many it skipped because the component was provably
/// inert. A deterministic work counter: it depends on the simulated
/// schedule only, never on the host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickCount {
    /// Ticks that ran the component's tick function.
    pub executed: u64,
    /// Ticks skipped as no-ops.
    pub skipped: u64,
}

impl TickCount {
    /// Counts for `components` components over `loop_ticks` loop
    /// iterations, of which `executed` component ticks actually ran.
    pub fn of(components: usize, loop_ticks: u64, executed: u64) -> Self {
        TickCount {
            executed,
            skipped: components as u64 * loop_ticks - executed,
        }
    }

    /// Executed plus skipped.
    pub fn total(&self) -> u64 {
        self.executed + self.skipped
    }

    /// Fraction of ticks skipped (0 when there were none).
    pub fn skipped_share(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.skipped as f64 / self.total() as f64
        }
    }

    /// Adds `other` into `self`.
    pub fn accumulate(&mut self, other: &TickCount) {
        self.executed += other.executed;
        self.skipped += other.skipped;
    }
}

/// Time-bucketed aggregation of a sampled quantity: for each window of
/// `bucket_cycles` simulated cycles, the count, sum, and maximum of the
/// samples that fell inside it. Backs the exported occupancy series.
///
/// # Example
///
/// ```
/// use simkit::stats::TimeBuckets;
/// let mut tb = TimeBuckets::new(100);
/// tb.record(10, 4);
/// tb.record(50, 8);
/// tb.record(250, 2);
/// let pts = tb.points();
/// assert_eq!(pts, vec![(0, 8, 6.0), (200, 2, 2.0)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimeBuckets {
    bucket_cycles: u64,
    /// `(bucket_index, count, sum, max)`, append-only and index-ordered
    /// because simulation time only moves forward.
    buckets: Vec<(u64, u64, u64, u64)>,
}

impl TimeBuckets {
    /// Aggregation over windows of `bucket_cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics when `bucket_cycles` is zero.
    pub fn new(bucket_cycles: u64) -> Self {
        assert!(bucket_cycles > 0, "bucket width must be nonzero");
        TimeBuckets {
            bucket_cycles,
            buckets: Vec::new(),
        }
    }

    /// Records sample `v` taken at cycle `now`. Samples must arrive in
    /// nondecreasing time order (simulation time is monotonic).
    pub fn record(&mut self, now: u64, v: u64) {
        let idx = now / self.bucket_cycles;
        match self.buckets.last_mut() {
            Some(b) if b.0 == idx => {
                b.1 = b.1.saturating_add(1);
                b.2 = b.2.saturating_add(v);
                b.3 = b.3.max(v);
            }
            _ => self.buckets.push((idx, 1, v, v)),
        }
    }

    /// Width of one bucket in cycles.
    pub fn bucket_cycles(&self) -> u64 {
        self.bucket_cycles
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.1).sum()
    }

    /// `(bucket_start_cycle, max, mean)` per non-empty bucket, in time
    /// order — the shape the trace exporters consume.
    pub fn points(&self) -> Vec<(u64, u64, f64)> {
        self.buckets
            .iter()
            .map(|&(idx, count, sum, max)| {
                (
                    idx * self.bucket_cycles,
                    max,
                    if count == 0 {
                        0.0
                    } else {
                        sum as f64 / count as f64
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.inc("x");
        s.add("x", 4);
        assert_eq!(s.get("x"), 5);
        assert_eq!(s.get("missing"), 0);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let mut s = Stats::new();
        s.add("a", 10);
        assert_eq!(s.ratio("a", "nothing"), 0.0);
        s.add("b", 5);
        assert!((s.ratio("a", "b") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_is_hit_rate_style() {
        let mut s = Stats::new();
        s.add("hits", 30);
        s.add("misses", 10);
        assert!((s.fraction("hits", "misses") - 0.75).abs() < 1e-12);
        assert_eq!(Stats::new().fraction("h", "m"), 0.0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = Stats::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = Stats::new();
        b.add("y", 3);
        b.add("z", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 4);
    }

    #[test]
    fn display_is_never_empty_per_counter() {
        let mut s = Stats::new();
        s.inc("only");
        assert_eq!(s.to_string(), "only: 1\n");
    }

    #[test]
    fn iter_is_name_ordered() {
        let mut s = Stats::new();
        s.inc("b");
        s.inc("a");
        let names: Vec<_> = s.iter().map(|(k, _)| k.to_owned()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = Histogram::linear(8, 4);
        assert_eq!(h.count(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.percentile(100.0), None);
    }

    #[test]
    fn single_sample_histogram() {
        let mut h = Histogram::linear(10, 4);
        h.record(7);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 7);
        assert!((h.mean() - 7.0).abs() < 1e-12);
        // Every percentile of a one-sample histogram is that sample's
        // bucket, clamped to the observed max.
        assert_eq!(h.percentile(0.0), Some(7));
        assert_eq!(h.percentile(50.0), Some(7));
        assert_eq!(h.percentile(100.0), Some(7));
    }

    #[test]
    fn histogram_percentiles_walk_buckets() {
        let mut h = Histogram::linear(10, 10);
        for v in 0..100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(10.0), Some(9)); // first bucket's edge
        assert_eq!(h.percentile(50.0), Some(49));
        assert_eq!(h.percentile(99.0), Some(99));
        assert_eq!(h.percentile(100.0), Some(99));
    }

    #[test]
    fn histogram_overflow_bucket_catches_large_samples() {
        let mut h = Histogram::linear(4, 2); // covers [0, 8)
        h.record(3);
        h.record(8);
        h.record(1_000);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 1_000);
        // Ranks past the in-range buckets resolve to the true maximum.
        assert_eq!(h.percentile(100.0), Some(1_000));
        assert_eq!(h.percentile(1.0), Some(3));
    }

    #[test]
    fn histogram_saturates_instead_of_overflowing() {
        let mut h = Histogram::linear(u64::MAX, 1);
        h.record(u64::MAX);
        h.record(u64::MAX); // sum would overflow without saturation
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.overflow(), 2); // MAX / MAX == 1 == bucket count
        assert!(h.mean() > 0.0);
    }

    #[test]
    #[should_panic(expected = "degenerate histogram geometry")]
    fn histogram_rejects_zero_width() {
        let _ = Histogram::linear(0, 4);
    }

    #[test]
    fn time_buckets_aggregate_per_window() {
        let mut tb = TimeBuckets::new(100);
        tb.record(0, 1);
        tb.record(99, 3);
        tb.record(100, 10);
        tb.record(350, 4);
        assert_eq!(tb.count(), 4);
        assert_eq!(
            tb.points(),
            vec![(0, 3, 2.0), (100, 10, 10.0), (300, 4, 4.0)]
        );
    }

    #[test]
    fn time_buckets_empty_and_single() {
        let tb = TimeBuckets::new(16);
        assert_eq!(tb.count(), 0);
        assert!(tb.points().is_empty());
        let mut tb = TimeBuckets::new(16);
        tb.record(17, 5);
        assert_eq!(tb.points(), vec![(16, 5, 5.0)]);
    }

    #[test]
    #[should_panic(expected = "bucket width must be nonzero")]
    fn time_buckets_reject_zero_width() {
        let _ = TimeBuckets::new(0);
    }
}
