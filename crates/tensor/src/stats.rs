//! Descriptive statistics and empirical CDFs.
//!
//! The paper's headline result (Figure 2) is a CDF of relative prediction
//! errors; this module provides the CDF machinery plus the summary statistics
//! (mean/median/p90/p95) the evaluation harness reports alongside it.

use serde::{Deserialize, Serialize};

/// Summary statistics of a sample of `f64` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of values summarized.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Median (p50).
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Compute summary statistics. Returns a zeroed summary for empty input.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p90: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("Summary::of: NaN in input"));
        Self {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile_sorted(&sorted, 50.0),
            p90: percentile_sorted(&sorted, 90.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
        }
    }
}

/// Percentile (0..=100) with linear interpolation. Sorts a copy of the input.
/// Panics on empty input or NaN values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile: empty input");
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile: NaN in input"));
    percentile_sorted(&sorted, p)
}

/// Percentile of an already-sorted slice with linear interpolation.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile_sorted: empty input");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile_sorted: p={p} out of [0,100]"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// An empirical cumulative distribution function.
///
/// Built from a sample; evaluable at arbitrary points and exportable as an
/// `(x, F(x))` series for plotting — the exact artifact behind Figure 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Build from a sample. Panics on empty input or NaN values.
    pub fn new(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "EmpiricalCdf::new: empty input");
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("EmpiricalCdf::new: NaN in input"));
        Self { sorted }
    }

    /// Number of underlying samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty samples.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `F(x)` = fraction of samples `<= x`.
    pub fn eval(&self, x: f64) -> f64 {
        // partition_point returns the number of elements < x or <= x depending
        // on the predicate; we want P(X <= x), so count elements <= x.
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: smallest sample value v with `F(v) >= q`, `q` in `(0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q <= 1.0, "quantile: q={q} out of (0,1]");
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        self.sorted[idx.min(self.sorted.len() - 1)]
    }

    /// Export `points` evenly spaced `(x, F(x))` pairs across the sample range.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "series: need at least 2 points");
        let lo = self.sorted[0];
        let hi = self.sorted[self.sorted.len() - 1];
        (0..points)
            .map(|i| {
                // Pin the endpoints exactly: (hi-lo)*k/k may round below hi,
                // which would make F(last point) < 1.
                let x = if i == 0 {
                    lo
                } else if i == points - 1 {
                    hi
                } else {
                    lo + (hi - lo) * i as f64 / (points - 1) as f64
                };
                (x, self.eval(x))
            })
            .collect()
    }

    /// Export the CDF evaluated at the given x positions.
    pub fn series_at(&self, xs: &[f64]) -> Vec<(f64, f64)> {
        xs.iter().map(|&x| (x, self.eval(x))).collect()
    }
}

/// Convenience: build an empirical CDF from a sample.
pub fn empirical_cdf(values: &[f64]) -> EmpiricalCdf {
    EmpiricalCdf::new(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.count, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.median - 3.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn summary_empty_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert!((percentile(&v, 0.0) - 10.0).abs() < 1e-12);
        assert!((percentile(&v, 100.0) - 40.0).abs() < 1e-12);
        assert!((percentile(&v, 50.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_eval_monotone_and_bounded() {
        let cdf = EmpiricalCdf::new(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(cdf.eval(0.0), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.0), 0.75);
        assert_eq!(cdf.eval(3.0), 1.0);
        assert_eq!(cdf.eval(99.0), 1.0);
    }

    #[test]
    fn cdf_quantile_is_inverse() {
        let cdf = EmpiricalCdf::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.quantile(0.25), 1.0);
        assert_eq!(cdf.quantile(0.5), 2.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
    }

    #[test]
    fn cdf_series_spans_range() {
        let cdf = EmpiricalCdf::new(&[0.0, 10.0]);
        let series = cdf.series(11);
        assert_eq!(series.len(), 11);
        assert_eq!(series[0].0, 0.0);
        assert_eq!(series[10].0, 10.0);
        assert_eq!(series[10].1, 1.0);
        // monotone non-decreasing in F
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    #[should_panic(expected = "empty input")]
    fn cdf_rejects_empty() {
        let _ = EmpiricalCdf::new(&[]);
    }
}
