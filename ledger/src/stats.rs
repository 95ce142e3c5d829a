//! Exact order statistics over raw samples. Nothing here buckets:
//! `overlap_sim::Histogram`'s 25 %-wide buckets are what made two
//! identical loadgen runs print p50 19.72 ms and 24.65 ms.

use overlap_sim::quantile_rank;

/// Samples a run must hold before a p99 is reported: at 1100 the 99th
/// percentile sits at rank 1089, leaving 11 samples beyond it.
pub const P99_MIN_SAMPLES: usize = 1100;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile of `samples` as the order statistic at
/// [`quantile_rank`] — the rank rule the simulator's `TailSummary` and
/// the daemon's histogram already share. Zero for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    match quantile_rank(q, v.len() as u64) {
        0 => 0.0,
        rank => v[rank as usize - 1],
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The 99th percentile, refused when fewer than ten samples would lie
/// beyond it.
pub fn p99(samples: &[f64]) -> Result<f64, String> {
    if samples.len() < P99_MIN_SAMPLES {
        return Err(format!("p99 needs at least {P99_MIN_SAMPLES} samples, got {}", samples.len()));
    }
    Ok(quantile(samples, 0.99))
}

/// Geometric mean, summed in the order given (callers sort by a stable
/// key first, so equal sets give bit-equal results).
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_1100_samples() {
        let few: Vec<f64> = (0..1099).map(f64::from).collect();
        assert!(p99(&few).is_err());
        let enough: Vec<f64> = (0..1100).map(f64::from).collect();
        // Rank ceil(0.99 * 1100) = 1089, i.e. value 1088; 11 samples beyond.
        assert_eq!(p99(&enough), Ok(1088.0));
    }

    #[test]
    fn quantiles_are_order_statistics_not_interpolations() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 100.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean(&[2.0, 0.5, 4.0, 0.25]) - 1.0).abs() < 1e-15);
    }
}
