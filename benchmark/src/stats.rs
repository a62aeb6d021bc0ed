//! Order statistics for the ledger's estimators.
//!
//! No host-time figure the benchmark reports is a mean: one preempted
//! repeat on a shared 2-core box moves a mean by several percent. Layer
//! figures and diagnostics are medians of repeats or of fixed windows; the
//! bounded end-to-end figures go further (per-chunk minima at nominal core
//! speed — see `calib.rs`), because the driver's box showed that medians
//! of whole repeats still spread by a third.

/// Median of `values` (mean of the two middle elements for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile with the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so the noise
/// table in README.md and the driver's acceptance check agree.
///
/// # Panics
///
/// Panics with fewer than two samples or a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let n = v.len();
    let at = |i: usize| -> f64 {
        // Position i*(n+1)/4 on a 1-based axis, clamped into the data.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a percentage of the median — the spread the
/// driver bounds. `0` for fewer than two samples.
pub fn iqr_pct(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m * 100.0
    }
}

/// Exact percentile of a sample set that the caller has already sorted
/// ascending: the smallest element with at least `q` of the samples at or
/// below it. `0` for no samples.
pub fn percentile_sorted(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_outlier() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // One preempted repeat does not move the estimate.
        assert_eq!(median(&[370.0, 372.0, 371.0, 900.0, 369.0]), 371.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12, "{q1}");
        assert!((q3 - 8.25).abs() < 1e-12, "{q3}");
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        let (q1, q3) = quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]);
        assert!((q1 - 15.0).abs() < 1e-12, "{q1}");
        assert!((q3 - 120.0).abs() < 1e-12, "{q3}");
        // Two samples: statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn iqr_is_relative_to_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_pct(&v) - 100.0).abs() < 1e-9);
        assert_eq!(iqr_pct(&[5.0]), 0.0);
    }

    #[test]
    fn percentiles_are_exact() {
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 500);
        assert_eq!(percentile_sorted(&v, 0.99), 990);
        assert_eq!(percentile_sorted(&v, 0.999), 999);
        assert_eq!(percentile_sorted(&v, 1.0), 1000);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }
}
