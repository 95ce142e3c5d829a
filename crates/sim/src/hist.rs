//! Shared latency/makespan percentile machinery.
//!
//! Two consumers, one rank rule: the serve daemon's lock-free
//! log-bucketed [`Histogram`] (constant memory, wait-free recording,
//! quantiles overstated by at most one bucket width) and the
//! distributional simulator's exact [`TailSummary`] (sorted samples —
//! the tail gates need strict percentile comparisons a 25 %-wide bucket
//! would wash out). Both resolve a quantile to the same
//! [`quantile_rank`], so a p99 reported by the server and a p99 reported
//! by `fig_tail` can never disagree about *which* sample they mean.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count; the last bucket absorbs everything beyond the range.
const BUCKETS: usize = 96;
/// Upper bound of bucket 0, in microseconds.
const BASE_MICROS: f64 = 10.0;
/// Geometric growth per bucket (96 buckets reach ≈ 5.9 hours).
const GROWTH: f64 = 1.25;

/// The 1-based rank of the sample that the `q`-quantile (0 ≤ q ≤ 1) of
/// `total` samples sits at or below: `ceil(q · total)` with a floor of
/// 1. Zero when `total` is zero.
#[must_use]
pub fn quantile_rank(q: f64, total: u64) -> u64 {
    if total == 0 {
        return 0;
    }
    ((q * total as f64).ceil() as u64).clamp(1, total)
}

/// The percentile summary a [`Histogram`] reports. Field names mirror
/// the serve protocol's wire summary so the daemon can copy it across
/// field by field.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Median, milliseconds (bucket upper bound, clamped to `max_ms`).
    pub p50_ms: f64,
    /// 90th percentile, milliseconds (bucket upper bound, clamped to
    /// `max_ms`).
    pub p90_ms: f64,
    /// 99th percentile, milliseconds (bucket upper bound, clamped to
    /// `max_ms`, so it never reads above the largest sample).
    pub p99_ms: f64,
    /// Largest sample seen, milliseconds (exact).
    pub max_ms: f64,
}

/// A fixed-size geometric histogram of latencies in milliseconds.
///
/// Trades exactness for constant memory and wait-free recording:
/// buckets grow geometrically from 10 µs by 25 % per step, so a
/// reported quantile overstates the true one by at most that bucket
/// width. Good enough to watch a p99 move; no allocation, no lock, no
/// sample buffer that grows with load.
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    total: AtomicU64,
    /// Largest sample seen, as `f64::to_bits` (monotone for positive
    /// floats, so compare-and-swap on the bit pattern is a float max).
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            max_bits: AtomicU64::new(0),
        }
    }

    /// Records one sample (milliseconds; negatives clamp to zero).
    pub fn record(&self, ms: f64) {
        let ms = ms.max(0.0);
        self.counts[Self::bucket_of(ms * 1e3)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.max_bits.fetch_max(ms.to_bits(), Ordering::Relaxed);
    }

    fn bucket_of(micros: f64) -> usize {
        if micros <= BASE_MICROS {
            return 0;
        }
        let idx = (micros / BASE_MICROS).log(GROWTH).ceil();
        if idx >= BUCKETS as f64 { BUCKETS - 1 } else { idx as usize }
    }

    /// Upper bound of bucket `i`, in milliseconds.
    fn upper_ms(i: usize) -> f64 {
        BASE_MICROS * GROWTH.powi(i as i32) / 1e3
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) as the matching bucket's upper
    /// bound clamped to the exact max, 0 when empty. Overstates by at
    /// most one bucket width and never exceeds [`Histogram::max_ms`].
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = quantile_rank(q, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::upper_ms(i).min(self.max_ms());
            }
        }
        Self::upper_ms(BUCKETS - 1)
    }

    /// A snapshot of the per-bucket counts, trailing zero buckets
    /// trimmed (an empty histogram yields an empty vector). The indices
    /// line up with [`Histogram::merge_buckets`], so a snapshot taken
    /// on one node can be folded into an aggregate on another — that is
    /// how the serve fleet merges per-daemon latency histograms without
    /// shipping raw samples.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        let mut counts: Vec<u64> =
            self.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        while counts.last() == Some(&0) {
            counts.pop();
        }
        counts
    }

    /// Largest sample seen, in milliseconds (0 when empty).
    #[must_use]
    pub fn max_ms(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Folds another histogram's [`Histogram::bucket_counts`] snapshot
    /// (and its exact max) into this one. Buckets beyond this
    /// histogram's range collapse into the last bucket, mirroring how
    /// `record` clamps oversized samples; short snapshots (trimmed
    /// trailing zeros) are fine.
    pub fn merge_buckets(&self, counts: &[u64], max_ms: f64) {
        let mut added = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            self.counts[i.min(BUCKETS - 1)].fetch_add(c, Ordering::Relaxed);
            added += c;
        }
        if added > 0 {
            self.total.fetch_add(added, Ordering::Relaxed);
            self.max_bits.fetch_max(max_ms.max(0.0).to_bits(), Ordering::Relaxed);
        }
    }

    /// The p50/p90/p99/max summary.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            p50_ms: self.quantile(0.50),
            p90_ms: self.quantile(0.90),
            p99_ms: self.quantile(0.99),
            max_ms: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Exact percentile summary of a set of simulated makespan draws
/// (seconds). Unlike [`Histogram`] this sorts the full sample set, so
/// it is only for offline use (figure sweeps, gates) where the strict
/// comparisons — "window 2's p99 must beat window 1's" — need exact
/// sample values, not bucket upper bounds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TailSummary {
    /// Number of draws summarized.
    pub draws: usize,
    /// Median draw.
    pub p50: f64,
    /// 90th-percentile draw.
    pub p90: f64,
    /// 99th-percentile draw.
    pub p99: f64,
    /// Mean over all draws.
    pub mean: f64,
    /// Fastest draw.
    pub min: f64,
    /// Slowest draw.
    pub max: f64,
}

impl TailSummary {
    /// Summarizes `samples` (not required to be sorted; empty input
    /// yields the all-zero summary). Percentiles are exact order
    /// statistics at [`quantile_rank`].
    ///
    /// Samples are ordered by [`f64::total_cmp`], so a NaN never panics:
    /// a NaN with the sign bit clear (what arithmetic produces) sorts
    /// above `+∞` and surfaces as `max` and in the top percentiles, one
    /// with the sign bit set sorts below `-∞`; either makes `mean` NaN.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return TailSummary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let at = |q: f64| sorted[(quantile_rank(q, n as u64) as usize) - 1];
        TailSummary {
            draws: n,
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
            mean: sorted.iter().sum::<f64>() / n as f64,
            min: sorted[0],
            max: sorted[n - 1],
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.max_ms, 0.0);
    }

    #[test]
    fn quantiles_bracket_samples() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(1.0); // 1 ms
        }
        h.record(1000.0); // one 1 s outlier
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.50);
        assert!((1.0..=1.3).contains(&p50), "p50 {p50} should be ~1 ms");
        // p99 covers rank 99, still inside the 1 ms mass.
        assert!(h.quantile(0.99) < 2.0);
        // The max and the top quantile see the outlier.
        assert!(h.quantile(1.0) >= 1000.0);
        assert_eq!(h.summary().max_ms, 1000.0);
    }

    #[test]
    fn tiny_and_huge_samples_clamp_to_end_buckets() {
        let h = Histogram::new();
        h.record(0.0001); // under bucket 0's bound
        h.record(1e12); // far past the last bucket
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.5) <= 0.011);
        assert!(h.quantile(1.0) > 1e3);
    }

    #[test]
    fn quantiles_never_exceed_the_max() {
        // Every sample lands in one bucket whose upper bound sits above
        // them all: the quantiles must clamp to the exact max.
        let h = Histogram::new();
        let samples = [2.2, 2.3, 2.4, 2.5];
        for ms in samples {
            h.record(ms);
        }
        assert_eq!(h.bucket_counts().iter().filter(|&&c| c > 0).count(), 1);
        let s = h.summary();
        assert!(s.p50_ms <= s.p99_ms && s.p99_ms <= s.max_ms, "{s:?}");
        assert_eq!(s.p99_ms, 2.5);
    }

    #[test]
    fn rank_rule_is_shared() {
        assert_eq!(quantile_rank(0.5, 0), 0);
        assert_eq!(quantile_rank(0.0, 10), 1);
        assert_eq!(quantile_rank(0.5, 10), 5);
        assert_eq!(quantile_rank(0.99, 100), 99);
        assert_eq!(quantile_rank(0.99, 33), 33);
        assert_eq!(quantile_rank(1.0, 7), 7);
    }

    #[test]
    fn merged_histograms_agree_with_a_single_combined_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let combined = Histogram::new();
        for ms in [0.5, 1.0, 2.0, 150.0] {
            a.record(ms);
            combined.record(ms);
        }
        for ms in [3.0, 900.0] {
            b.record(ms);
            combined.record(ms);
        }
        let merged = Histogram::new();
        merged.merge_buckets(&a.bucket_counts(), a.max_ms());
        merged.merge_buckets(&b.bucket_counts(), b.max_ms());
        assert_eq!(merged.count(), combined.count());
        assert_eq!(merged.summary(), combined.summary());
        // Empty snapshots are no-ops and don't disturb the max.
        merged.merge_buckets(&[], 1e9);
        merged.merge_buckets(&Histogram::new().bucket_counts(), 1e9);
        assert_eq!(merged.summary(), combined.summary());
    }

    #[test]
    fn oversized_merge_snapshots_clamp_to_the_last_bucket() {
        let h = Histogram::new();
        let mut counts = vec![0u64; 300];
        counts[0] = 1;
        counts[299] = 2;
        h.merge_buckets(&counts, 7200.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.summary().max_ms, 7200.0);
        assert!(h.quantile(1.0) > 1e3);
    }

    #[test]
    fn tail_summary_is_exact_order_statistics() {
        let samples: Vec<f64> = (1..=100).rev().map(|i| i as f64).collect();
        let t = TailSummary::from_samples(&samples);
        assert_eq!(t.draws, 100);
        assert_eq!(t.p50, 50.0);
        assert_eq!(t.p90, 90.0);
        assert_eq!(t.p99, 99.0);
        assert_eq!(t.min, 1.0);
        assert_eq!(t.max, 100.0);
        assert!((t.mean - 50.5).abs() < 1e-12);
        assert_eq!(TailSummary::from_samples(&[]), TailSummary::default());
    }

    #[test]
    fn tail_summary_of_a_nan_sample_does_not_panic() {
        let finite = [3.0, 1.0, 2.0, 5.0, 4.0];
        let mut with_nan = finite.to_vec();
        with_nan.insert(2, f64::NAN);
        let t = TailSummary::from_samples(&with_nan);
        // The NaN sorts above every finite sample.
        assert!(t.max.is_nan() && t.p99.is_nan() && t.mean.is_nan());
        assert_eq!((t.draws, t.min, t.p50), (6, 1.0, 3.0));
        let negative = TailSummary::from_samples(&[1.0, -f64::NAN, 2.0]);
        assert!(negative.min.is_nan());
        assert_eq!(negative.max, 2.0);
        // Finite samples summarize exactly as a comparison sort does.
        let mut sorted = finite.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let t = TailSummary::from_samples(&finite);
        assert_eq!((t.min, t.p50, t.p90, t.max), (sorted[0], sorted[2], sorted[4], sorted[4]));
        assert_eq!(t.mean, sorted.iter().sum::<f64>() / 5.0);
    }

    #[test]
    fn histogram_and_tail_agree_on_the_rank() {
        // 33 identical 1 ms samples + no outliers: both report the same
        // sample for every quantile (the histogram up to bucket width).
        let h = Histogram::new();
        let v = vec![1.0; 33];
        for &ms in &v {
            h.record(ms);
        }
        let t = TailSummary::from_samples(&v);
        assert_eq!(t.p99, 1.0);
        assert!(h.quantile(0.99) >= 1.0 && h.quantile(0.99) <= 1.3);
    }
}
