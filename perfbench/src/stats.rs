//! Order statistics over latency samples.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile: the smallest sample with at least `pct`% of the
/// samples at or below it. `sorted` must be ascending and non-empty, and
/// `pct` must lie in `1..=100`.
#[must_use]
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile {pct} out of range");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of the `pct` percentile among `n` samples.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).max(1)
}

/// Number of samples strictly above the nearest-rank `pct` percentile.
#[must_use]
pub fn beyond(n: usize, pct: usize) -> usize {
    n - rank(n, pct)
}

/// Smallest sample count whose `pct` percentile has [`MIN_BEYOND_TAIL`]
/// samples beyond it (200 for the 95th percentile).
#[must_use]
pub fn min_samples_for_tail(pct: usize) -> usize {
    assert!(pct < 100, "no samples lie beyond the maximum");
    (1..)
        .find(|&n| beyond(n, pct) >= MIN_BEYOND_TAIL)
        .expect("the beyond-count grows without bound")
}

/// Median of unsorted samples (nearest rank); 0 for no samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50)
}

/// Arithmetic mean; 0 for no samples.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50), 5.0);
        assert_eq!(percentile(&samples, 90), 9.0);
        assert_eq!(percentile(&samples, 95), 10.0);
        assert_eq!(percentile(&samples, 100), 10.0);
        assert_eq!(percentile(&[7.0], 50), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples_for_tail(95), 200);
        assert_eq!(beyond(200, 95), 10);
        assert_eq!(beyond(199, 95), 9);
        assert_eq!(min_samples_for_tail(99), 1000);
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&samples, 95);
        assert_eq!(samples.iter().filter(|&&s| s > p95).count(), 10);
    }
}
