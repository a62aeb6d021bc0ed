//! Statistics helpers for the evaluation harness.
//!
//! Two small tools cover everything the paper's tables and figures need:
//!
//! * [`Histogram`] — log-scaled bucket counts with percentile queries and
//!   exact count/sum/mean/max, used for response-time reporting (§6.4).
//! * [`Cdf`] — an exact empirical CDF over collected samples, used for the
//!   region-density distribution of Figure 1.

/// A histogram with logarithmically spaced buckets for non-negative samples.
///
/// Bucket `i` covers `[2^i, 2^(i+1))` (bucket 0 also catches 0), giving
/// ~2x relative resolution over an unbounded range with 64 fixed buckets —
/// sufficient for microsecond-scale latency distributions. Beside the
/// buckets it keeps the exact count, sum and maximum as integers: recording
/// is on the per-event path of every replay, where a running `f64` mean
/// would cost a dependent division per sample.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count.max(1) as f64
    }

    /// Exact maximum of recorded samples (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`), reported as the upper bound
    /// of the bucket containing the quantile.
    ///
    /// Returns `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Upper bound of bucket i.
                return Some(if i >= 63 { u64::MAX } else { (2u64 << i) - 1 });
            }
        }
        Some(u64::MAX)
    }

    /// The raw per-bucket counts (bucket `i` covers `[2^i, 2^(i+1))`).
    /// Exposed so equivalence tests can compare full distributions, not
    /// just quantiles.
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// An exact empirical cumulative distribution over collected samples.
///
/// Used where the paper plots exact CDFs (Figure 1). Samples are stored and
/// sorted on [`Cdf::build`]; the builder type keeps collection O(1) per
/// sample.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples. Non-finite samples are dropped.
    pub fn build(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples compare"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (0 for an empty CDF).
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Value at quantile `q` in `[0, 1]` (`None` for an empty CDF).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let idx = ((q.clamp(0.0, 1.0) * (self.sorted.len() - 1) as f64).round()) as usize;
        Some(self.sorted[idx])
    }

    /// Iterates `(value, cumulative_fraction)` pairs for plotting.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &v)| (v, (i + 1) as f64 / n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 999 * 1000 / 2);
        assert_eq!(h.mean(), 499.5);
        assert_eq!(Histogram::new().mean(), 0.0);
        let p50 = h.quantile(0.5).unwrap();
        // Median 500 lives in bucket [256,512) whose upper bound is 511.
        assert_eq!(p50, 511);
        let p100 = h.quantile(1.0).unwrap();
        assert!(p100 >= 999);
        assert_eq!(h.max(), Some(999));
    }

    #[test]
    fn histogram_empty_quantile_none() {
        assert_eq!(Histogram::new().quantile(0.5), None);
    }

    #[test]
    fn histogram_zero_and_one() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.25), Some(1)); // bucket 0 upper bound
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(20);
        b.record(30);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!((a.sum(), a.max()), (60, Some(30)));
    }

    #[test]
    fn cdf_fractions_and_quantiles() {
        let cdf = Cdf::build(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.len(), 4);
        assert!((cdf.fraction_le(2.0) - 0.5).abs() < 1e-12);
        assert!((cdf.fraction_le(0.5) - 0.0).abs() < 1e-12);
        assert!((cdf.fraction_le(10.0) - 1.0).abs() < 1e-12);
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(4.0));
    }

    #[test]
    fn cdf_drops_non_finite() {
        let cdf = Cdf::build(vec![f64::NAN, 1.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 1);
    }

    #[test]
    fn cdf_points_monotone() {
        let cdf = Cdf::build(vec![3.0, 1.0, 2.0]);
        let pts: Vec<_> = cdf.points().collect();
        assert_eq!(pts.len(), 3);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_empty_behaviour() {
        let cdf = Cdf::build(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_le(1.0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
    }
}
