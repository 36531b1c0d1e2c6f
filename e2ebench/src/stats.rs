//! Summary statistics of one run's operation times.

/// The highest percentile reported: the 99th.
pub const TAIL_Q: f64 = 0.99;

/// Samples a percentile must have beyond it to count as a tail.
pub const TAIL_SAMPLES: usize = 10;

/// The 1-based nearest rank of quantile `q` among `n` samples:
/// `ceil(q * n)`, at least 1.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending `sorted` samples.
///
/// # Panics
///
/// On an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// `q`-percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// True when `n` samples leave at least [`TAIL_SAMPLES`] beyond the
/// `q`-percentile, so that it describes a tail and not one outlier.
pub fn tail_ok(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= TAIL_SAMPLES
}

/// The smallest sample count whose 99th percentile is a tail: a run
/// keeps going until it has completed this many operations.
pub fn min_ops() -> usize {
    (1..)
        .find(|&n| tail_ok(n, TAIL_Q))
        .expect("some count qualifies")
}

/// Median of ascending samples.
pub fn median(sorted: &[f64]) -> f64 {
    percentile(sorted, 0.5)
}

/// Sorts samples ascending (times are never NaN).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, TAIL_Q), 10);
        assert!(tail_ok(1000, TAIL_Q));
        assert_eq!(beyond(999, TAIL_Q), 9);
        assert!(!tail_ok(999, TAIL_Q));
        assert!(!tail_ok(100, TAIL_Q));
        assert!(!tail_ok(0, TAIL_Q));
        assert_eq!(min_ops(), 1000);
        // The median of 20 samples has 10 beyond it.
        assert!(tail_ok(20, 0.5));
    }
}
