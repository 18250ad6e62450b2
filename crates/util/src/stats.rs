//! Descriptive statistics for experiment reporting.
//!
//! Two flavours are provided: [`Summary`], a batch summary of a slice, and
//! [`Welford`], a numerically stable streaming accumulator used when series
//! are too long to retain in memory (e.g. long DPP horizons).

use serde::{Deserialize, Serialize};

/// Batch summary statistics of a sample.
///
/// # Examples
///
/// ```
/// use eotora_util::stats::Summary;
///
/// let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.min, 1.0);
/// assert_eq!(s.max, 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean; `0.0` for an empty sample.
    pub mean: f64,
    /// Unbiased (n−1) sample standard deviation; `0.0` when `count < 2`.
    pub std_dev: f64,
    /// Smallest observation; `+∞` for an empty sample.
    pub min: f64,
    /// Largest observation; `−∞` for an empty sample.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics of `xs`.
    pub fn from_slice(xs: &[f64]) -> Self {
        let count = xs.len();
        if count == 0 {
            return Self {
                count,
                mean: 0.0,
                std_dev: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            };
        }
        let mean = xs.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (count as f64 - 1.0)
        } else {
            0.0
        };
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in xs {
            min = min.min(x);
            max = max.max(x);
        }
        Self { count, mean, std_dev: var.sqrt(), min, max }
    }
}

/// Returns the `q`-quantile (`0 ≤ q ≤ 1`) of `xs` by linear interpolation.
///
/// Returns `None` if `xs` is empty.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
///
/// # Examples
///
/// ```
/// use eotora_util::stats::quantile;
///
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(quantile(&xs, 0.5), Some(2.5));
/// assert_eq!(quantile(&xs, 0.0), Some(1.0));
/// assert_eq!(quantile(&xs, 1.0), Some(4.0));
/// ```
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0,1]");
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` of a non-negative sample:
/// `1.0` means perfectly equal shares, `1/n` means one member takes all.
///
/// Returns `None` for an empty sample or an all-zero sample.
///
/// # Examples
///
/// ```
/// use eotora_util::stats::jains_index;
///
/// assert_eq!(jains_index(&[1.0, 1.0, 1.0]), Some(1.0));
/// assert_eq!(jains_index(&[1.0, 0.0, 0.0]), Some(1.0 / 3.0));
/// assert_eq!(jains_index(&[]), None);
/// ```
pub fn jains_index(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        None
    } else {
        Some(sum * sum / (xs.len() as f64 * sum_sq))
    }
}

/// Numerically stable streaming mean/variance accumulator (Welford, 1962).
///
/// # Examples
///
/// ```
/// use eotora_util::stats::Welford;
///
/// let mut w = Welford::new();
/// for x in [1.0, 2.0, 3.0] {
///     w.push(x);
/// }
/// assert_eq!(w.mean(), 2.0);
/// assert_eq!(w.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean; `0.0` before any observation.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; `0.0` when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count as f64 - 1.0)
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::approx_eq;

    #[test]
    fn summary_of_empty() {
        let s = Summary::from_slice(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert!(s.min.is_infinite() && s.min > 0.0);
    }

    #[test]
    fn summary_of_singleton() {
        let s = Summary::from_slice(&[3.0]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!(approx_eq(s.mean, 5.0, 1e-12));
        // Sample (n-1) std dev of this classic example is sqrt(32/7).
        assert!(approx_eq(s.std_dev, (32.0f64 / 7.0).sqrt(), 1e-12));
    }

    #[test]
    fn quantile_edges_and_median() {
        let xs = [10.0, 20.0, 30.0];
        assert_eq!(quantile(&xs, 0.0), Some(10.0));
        assert_eq!(quantile(&xs, 0.5), Some(20.0));
        assert_eq!(quantile(&xs, 1.0), Some(30.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(quantile(&xs, 0.25), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn quantile_rejects_bad_q() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn jains_index_bounds() {
        // Always within [1/n, 1] for non-negative samples.
        let xs = [5.0, 1.0, 3.0, 0.5];
        let j = jains_index(&xs).unwrap();
        assert!(j >= 1.0 / xs.len() as f64 && j <= 1.0);
    }

    #[test]
    fn jains_index_degenerate_cases() {
        assert_eq!(jains_index(&[0.0, 0.0]), None);
        assert_eq!(jains_index(&[7.0]), Some(1.0));
    }

    #[test]
    fn welford_agrees_with_batch() {
        let xs = [1.5, -2.0, 3.25, 0.0, 9.5, -7.75];
        let batch = Summary::from_slice(&xs);
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert!(approx_eq(w.mean(), batch.mean, 1e-12));
        assert!(approx_eq(w.std_dev(), batch.std_dev, 1e-12));
    }

    #[test]
    fn welford_empty_is_zero() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.count(), 0);
    }
}
