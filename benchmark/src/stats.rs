//! Order statistics over timing samples.

/// Median of `samples` (mean of the two middle values for an even count).
///
/// Panics on an empty slice: every metric is reported from at least one
/// sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The percentiles a tail may be reported at, lowest first, each with the
/// share of samples beyond it in thousandths.
const TAIL_LADDER: [(f64, usize); 5] =
    [(50.0, 500), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest percentile of the ladder that still has at least ten of `n`
/// samples beyond it, or `None` when even the median has fewer than ten.
pub fn highest_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().rev().find(|&&(_, beyond)| n * beyond >= 10_000).map(|&(p, _)| p)
}

/// Nearest-rank percentile `p` (0..=100) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The tail of `samples`: the value at [`highest_percentile`] and that
/// percentile, falling back to the maximum (percentile 100) when there are
/// too few samples for any ladder entry.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    match highest_percentile(samples.len()) {
        Some(p) => (percentile(samples, p), p),
        None => (percentile(samples, 100.0), 100.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(999), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(9_999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.9), 5.0);
    }

    #[test]
    fn tail_falls_back_to_the_maximum() {
        assert_eq!(tail(&[1.0, 9.0, 4.0]), (9.0, 100.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (990.0, 99.0));
    }
}
