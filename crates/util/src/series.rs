//! Time-series bookkeeping for time-average metrics.
//!
//! The paper's objective and constraint are *time averages*
//! (`lim (1/T) Σ_t E[·]`), so the simulator needs cheap running and windowed
//! averages over long horizons. [`TimeSeries`] retains the raw samples (for
//! plotting figures), while callers that only need the running mean should
//! prefer [`crate::stats::Welford`].

use serde::{Deserialize, Serialize};

/// An append-only series of per-slot samples with average helpers.
///
/// # Examples
///
/// ```
/// use eotora_util::series::TimeSeries;
///
/// let mut s = TimeSeries::new("latency");
/// s.push(2.0);
/// s.push(4.0);
/// assert_eq!(s.time_average(), 3.0);
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series labelled `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), values: Vec::new() }
    }

    /// The label given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one sample.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw samples in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mean of all samples so far; `0.0` if empty.
    pub fn time_average(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Mean of the last `window` samples (or all, if fewer exist).
    ///
    /// The paper reports e.g. "each latency is an average of 48 slots"
    /// (Fig. 9) — this is that operation.
    pub fn tail_average(&self, window: usize) -> f64 {
        if self.values.is_empty() || window == 0 {
            return 0.0;
        }
        let start = self.values.len().saturating_sub(window);
        let tail = &self.values[start..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    /// Final sample, if any.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// Sample autocorrelation at `lag` (biased estimator, normalized by the
    /// full-series variance). Returns `None` when the series is shorter than
    /// `lag + 2` or has zero variance.
    ///
    /// Used to verify the periodicity of the state processes (a daily trend
    /// shows a strong peak at lag 24 for hourly slots).
    pub fn autocorrelation(&self, lag: usize) -> Option<f64> {
        autocorrelation(&self.values, lag)
    }
}

/// Sample autocorrelation of `xs` at `lag`; see
/// [`TimeSeries::autocorrelation`].
///
/// # Examples
///
/// ```
/// use eotora_util::series::autocorrelation;
///
/// // Period-2 alternation: perfectly anti-correlated at lag 1.
/// let xs: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
/// assert!(autocorrelation(&xs, 1).unwrap() < -0.9);
/// assert!(autocorrelation(&xs, 2).unwrap() > 0.9);
/// ```
pub fn autocorrelation(xs: &[f64], lag: usize) -> Option<f64> {
    if xs.len() < lag + 2 {
        return None;
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let denom: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
    if denom == 0.0 {
        return None;
    }
    let num: f64 = (0..xs.len() - lag).map(|i| (xs[i] - mean) * (xs[i + lag] - mean)).sum();
    Some(num / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages() {
        let mut s = TimeSeries::new("x");
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.time_average(), 2.5);
        assert_eq!(s.tail_average(2), 3.5);
        assert_eq!(s.tail_average(10), 2.5);
        assert_eq!(s.last(), Some(4.0));
    }

    #[test]
    fn empty_series() {
        let s = TimeSeries::new("x");
        assert!(s.is_empty());
        assert_eq!(s.time_average(), 0.0);
        assert_eq!(s.tail_average(5), 0.0);
        assert_eq!(s.last(), None);
    }

    #[test]
    fn autocorrelation_detects_period() {
        let mut s = TimeSeries::new("daily");
        for t in 0..240 {
            s.push((t % 24) as f64);
        }
        let a24 = s.autocorrelation(24).unwrap();
        let a12 = s.autocorrelation(12).unwrap();
        assert!(a24 > 0.85, "lag-24 autocorrelation {a24}");
        assert!(a24 > a12);
    }

    #[test]
    fn autocorrelation_degenerate() {
        assert_eq!(autocorrelation(&[1.0, 1.0, 1.0], 1), None); // zero variance
        assert_eq!(autocorrelation(&[1.0], 1), None); // too short
    }

    #[test]
    fn serde_roundtrip() {
        let mut s = TimeSeries::new("queue");
        s.push(1.25);
        let json = serde_json::to_string(&s).unwrap();
        let back: TimeSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
