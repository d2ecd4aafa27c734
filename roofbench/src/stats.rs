//! Order statistics over measured samples.
//!
//! A latency sample is `Some(value)` for an operation that completed and
//! `None` for one that failed or was refused after its retries. A failure
//! sorts after every completed sample, so it counts as missing any latency
//! limit instead of dropping out and making a failing system look faster.

/// Median of a non-empty sample (mean of the middle pair for even sizes).
///
/// # Panics
///
/// Panics on an empty sample or a NaN.
pub fn median(samples: &[f64]) -> f64 {
    perfmon::stats::Summary::from_samples(samples).median()
}

/// Nearest-rank percentile `p` (0–100] of latency samples, failures
/// included. `None` when the rank falls on a failed operation or the
/// sample is empty.
pub fn percentile(samples: &[Option<f64>], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let value = sorted[rank.clamp(1, sorted.len()) - 1];
    value.is_finite().then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<Option<f64>> = (1..=100).map(|v| Some(v as f64)).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 99.0), Some(99.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn failures_count_as_missing_every_limit() {
        // 90 fast completions and 10 failures: the p90 is the slowest
        // completion, and every percentile past it lands on a failure.
        let mut samples: Vec<Option<f64>> = (1..=90).map(|v| Some(v as f64)).collect();
        samples.extend(std::iter::repeat_n(None, 10));
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 91.0), None);
        assert_eq!(percentile(&samples, 99.0), None);
        // Dropping the failures would have reported a faster p99.
        let completed: Vec<Option<f64>> = samples.iter().copied().filter(Option::is_some).collect();
        assert_eq!(percentile(&completed, 99.0), Some(90.0));
    }

    #[test]
    fn median_of_even_sample_is_mean_of_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
