//! Fixed-bucket log-linear histogram for durations and counts.

use serde::{get_field, Deserialize, Error, Serialize, Value};

/// Number of linear sub-buckets per power-of-two range (resolution
/// ~6.25%, i.e. 4 significant bits).
const SUB_BUCKETS: usize = 16;

/// A log-linear histogram over `u64` values with fixed bucket
/// boundaries.
///
/// Values below 16 get exact unit buckets; above that, each power-of-two
/// range `[2^k, 2^(k+1))` splits into 16 equal sub-buckets,
/// bounding relative quantile error at 1/16. Exact `min`/`max`/`sum`
/// are tracked alongside, so `quantile(0.0)` and `quantile(1.0)` are
/// exact and `mean` has no bucketing error.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (exp - 4)) & 15) as usize;
        (exp - 3) * SUB_BUCKETS + sub
    }
}

fn bucket_midpoint(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        idx as u64
    } else {
        let exp = idx / SUB_BUCKETS + 3;
        let sub = (idx % SUB_BUCKETS) as u64;
        let width = 1u64 << (exp - 4);
        (SUB_BUCKETS as u64 + sub) * width + width / 2
    }
}

/// Largest value that lands in bucket `idx` (the inclusive upper edge,
/// i.e. a Prometheus `le` bound).
pub(crate) fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < SUB_BUCKETS {
        idx as u64
    } else {
        let exp = idx / SUB_BUCKETS + 3;
        let sub = (idx % SUB_BUCKETS) as u128;
        let width = 1u128 << (exp - 4);
        let next_lower = (SUB_BUCKETS as u128 + sub + 1) * width;
        u64::try_from(next_lower - 1).unwrap_or(u64::MAX)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raw per-index bucket counts (index is [`bucket_index`]).
    pub(crate) fn bucket_counts(&self) -> &[u64] {
        &self.buckets
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += u128::from(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact minimum observation, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum observation, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean of the observations, if any.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`) of the recorded
    /// values, within one bucket width (~6.25% relative error).
    ///
    /// Returns `None` on an empty histogram. Non-decreasing in `q`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the order statistic to report, in [1, count].
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                // Clamp to the exact extremes so q=0 / q=1 are exact and
                // midpoint rounding can never leave the observed range.
                return Some((bucket_midpoint(idx) as f64).clamp(self.min as f64, self.max as f64));
            }
        }
        Some(self.max as f64)
    }

    /// Exact sum of all recorded observations.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Occupied buckets as `(representative value, count)` pairs, in
    /// increasing value order — the raw material for ASCII bar charts.
    /// Representative values are exact below 16 and bucket midpoints
    /// (~6.25% error) above.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(idx, &n)| (bucket_midpoint(idx), n))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, &src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

impl Serialize for Histogram {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("buckets".to_owned(), self.buckets.to_value()),
            ("count".to_owned(), Value::U64(self.count)),
            ("sum".to_owned(), Value::Str(self.sum.to_string())),
            ("min".to_owned(), Value::U64(self.min)),
            ("max".to_owned(), Value::U64(self.max)),
        ])
    }
}

impl Deserialize for Histogram {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let fields = v.as_object().ok_or_else(|| Error::expected("object", "Histogram", v))?;
        let sum_str = String::from_value(get_field(fields, "sum", "Histogram")?)?;
        Ok(Histogram {
            buckets: Vec::from_value(get_field(fields, "buckets", "Histogram")?)?,
            count: u64::from_value(get_field(fields, "count", "Histogram")?)?,
            sum: sum_str
                .parse()
                .map_err(|_| Error::custom(format!("invalid u128 sum `{sum_str}`")))?,
            min: u64::from_value(get_field(fields, "min", "Histogram")?)?,
            max: u64::from_value(get_field(fields, "max", "Histogram")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 15] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(15.0));
        assert_eq!(h.mean(), Some(21.0 / 5.0));
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        for v in 1..10_000u64 {
            h.record(v * 1000);
        }
        for (q, exact) in [(0.5, 5_000_000.0), (0.95, 9_500_000.0), (0.99, 9_900_000.0)] {
            let got = h.quantile(q).unwrap();
            assert!((got - exact).abs() / exact < 0.0725, "q={q}: got {got}, exact {exact}");
        }
    }

    #[test]
    fn nonzero_buckets_cover_all_observations() {
        let mut h = Histogram::new();
        for v in [1u64, 1, 2, 5, 5, 5] {
            h.record(v);
        }
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(1, 2), (2, 1), (5, 3)]);
        assert_eq!(h.sum(), 19);
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in 0..100u64 {
            let x = v * v * 31 + 7;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            whole.record(x);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn serde_roundtrip_preserves_exact_state() {
        let mut h = Histogram::new();
        for v in [3u64, 70_000, u64::MAX, 12] {
            h.record(v);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }

    proptest! {
        /// Quantiles are non-decreasing in q and bracketed by min/max.
        #[test]
        fn quantiles_are_monotone(
            values in prop::collection::vec(0u64..1_000_000_000_000, 1..200),
            qs in prop::collection::vec(0.0f64..1.0, 2..10),
        ) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut qs = qs;
            qs.sort_by(f64::total_cmp);
            let mut prev = f64::NEG_INFINITY;
            for &q in &qs {
                let x = h.quantile(q).unwrap();
                prop_assert!(x >= prev, "quantile({}) = {} < previous {}", q, x, prev);
                prop_assert!(x >= h.min().unwrap() as f64 && x <= h.max().unwrap() as f64);
                prev = x;
            }
        }

        /// Bucket midpoints stay within ~6.25% of the recorded value.
        #[test]
        fn single_value_quantile_is_close(v in 16u64..u64::MAX / 2) {
            let mut h = Histogram::new();
            h.record(v);
            let got = h.quantile(0.5).unwrap();
            prop_assert!((got - v as f64).abs() / v as f64 <= 1.0 / 16.0);
        }
    }
}
