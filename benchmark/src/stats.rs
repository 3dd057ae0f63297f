//! Order statistics for timing samples: median, nearest-rank percentiles,
//! the "ten samples beyond" rule, and the quartile spread the regression
//! bounds are calibrated against.

/// Samples that must lie beyond a reported percentile for it to be
/// supported by the data.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut xs = samples.to_vec();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    xs
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let xs = sorted(samples);
    assert!(!xs.is_empty(), "median of no samples");
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    let xs = sorted(samples);
    assert!(!xs.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Samples strictly above the nearest-rank position of percentile `p`.
pub fn samples_beyond(count: usize, p: f64) -> usize {
    let rank = (p / 100.0 * count as f64).ceil() as usize;
    count - rank.min(count)
}

/// The highest of `candidates` (ascending) that still has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the lowest does
/// not.
pub fn highest_supported_percentile(count: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| samples_beyond(count, p) >= MIN_BEYOND)
        .fold(None, |_, p| Some(p))
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns as its first and last cut
/// point, so spreads computed here match the ones the driver computes.
///
/// # Panics
///
/// Panics on fewer than two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let xs = sorted(samples);
    let n = xs.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (xs[j - 1] * (4.0 - delta) + xs[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median; 0 when there
/// are fewer than two samples or the median is 0.
pub fn relative_spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = median(samples);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        // Five samples: p95 is the maximum, p50 the middle one.
        let five = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&five, 95.0), 5.0);
        assert_eq!(percentile(&five, 50.0), 3.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(200, 95.0), 10);
        let candidates = [50.0, 90.0, 95.0, 99.0];
        assert_eq!(highest_supported_percentile(1000, &candidates), Some(99.0));
        assert_eq!(highest_supported_percentile(999, &candidates), Some(95.0));
        assert_eq!(highest_supported_percentile(360, &candidates), Some(95.0));
        assert_eq!(highest_supported_percentile(150, &candidates), Some(90.0));
        assert_eq!(highest_supported_percentile(25, &candidates), Some(50.0));
        assert_eq!(highest_supported_percentile(12, &candidates), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[4.0, 4.0, 4.0]), 0.0);
        assert_eq!(relative_spread(&[4.0]), 0.0);
        assert_eq!(relative_spread(&[0.0, 0.0]), 0.0);
    }
}
