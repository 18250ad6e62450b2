//! Order statistics for timing samples.
//!
//! Percentiles use the nearest-rank rule: the `p`-th percentile of `n`
//! sorted samples is the sample at 1-based rank `ceil(p/100 · n)`. A
//! percentile is only reported when at least [`MIN_TAIL`] samples lie
//! beyond it, so that a tail figure never rests on a handful of slots.

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
pub const MIN_TAIL: usize = 10;

/// The percentiles a timing may be reported at, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    // Round away float noise before the ceiling: 0.95 × 200 must be rank
    // 190, not 191.
    let exact = p / 100.0 * n as f64;
    let rounded = (exact * 1e9).round() / 1e9;
    (rounded.ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the `p`-th percentile among `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of [`LADDER`] with at least [`MIN_TAIL`]
/// samples beyond it, or `None` when even the median has fewer.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| n > 0 && beyond(n, p) >= MIN_TAIL)
}

/// The `p`-th percentile of `samples` by nearest rank, or `None` when
/// fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || beyond(n, p) < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(n, p) - 1])
}

/// The median of `samples` (mean of the middle pair for even counts), or
/// `None` when empty. Used for small repeated measurements such as
/// set-up time, where the tail rule does not apply.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Mean of `samples`, or `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_at_round_counts() {
        assert_eq!(rank(200, 95.0), 190);
        assert_eq!(rank(200, 50.0), 100);
        assert_eq!(rank(1000, 99.0), 990);
        assert_eq!(rank(10_000, 99.9), 9990);
        assert_eq!(rank(1, 50.0), 1);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(0), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(999), Some(95.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(9999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), Some(190.0));
        assert_eq!(percentile(&samples, 50.0), Some(100.0));
        assert_eq!(percentile(&samples, 99.0), None);
        assert_eq!(percentile(&samples[..199], 95.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 95.0), Some(190.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }
}
