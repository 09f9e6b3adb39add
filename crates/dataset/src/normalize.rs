//! Target and feature normalization.
//!
//! Delays span orders of magnitude across load levels; training on raw
//! seconds makes the readout chase the heavy tail. The trainer therefore
//! standardizes log-delays (or raw values) with statistics computed on the
//! *training* set only, and inverts the transform for reporting.

use serde::{Deserialize, Serialize};

/// An affine normalizer `y = (f(x) − mean) / std`, where `f` is identity or
/// natural log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Normalizer {
    /// Whether values pass through `ln` before standardization.
    pub log_space: bool,
    /// Mean of (possibly log-transformed) fitting values.
    pub mean: f64,
    /// Standard deviation of the fitting values (floored to avoid division
    /// blow-ups on near-constant data).
    pub std: f64,
}

impl Normalizer {
    /// Fit on raw values. With `log_space`, all values must be positive.
    pub fn fit(values: &[f64], log_space: bool) -> Self {
        assert!(!values.is_empty(), "Normalizer::fit: empty input");
        let transformed: Vec<f64> = values
            .iter()
            .map(|&v| {
                if log_space {
                    assert!(
                        v > 0.0,
                        "Normalizer::fit: non-positive value {v} in log space"
                    );
                    v.ln()
                } else {
                    v
                }
            })
            .collect();
        let n = transformed.len() as f64;
        let mean = transformed.iter().sum::<f64>() / n;
        let var = transformed
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / n;
        Self {
            log_space,
            mean,
            std: var.sqrt().max(1e-9),
        }
    }

    /// Identity normalizer (useful as a disabled-normalization sentinel).
    pub fn identity() -> Self {
        Self {
            log_space: false,
            mean: 0.0,
            std: 1.0,
        }
    }

    /// Forward transform: raw → normalized.
    pub fn normalize(&self, v: f64) -> f64 {
        let t = if self.log_space { v.ln() } else { v };
        (t - self.mean) / self.std
    }

    /// Inverse transform: normalized → raw.
    pub fn denormalize(&self, v: f64) -> f64 {
        let t = v * self.std + self.mean;
        if self.log_space {
            t.exp()
        } else {
            t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_identity() {
        let n = Normalizer::fit(&[1.0, 2.0, 3.0, 4.0], false);
        for v in [0.5, 1.7, 9.9] {
            assert!((n.denormalize(n.normalize(v)) - v).abs() < 1e-12);
        }
    }

    #[test]
    fn round_trip_log_space() {
        let n = Normalizer::fit(&[0.01, 0.1, 1.0, 10.0], true);
        for v in [0.02, 0.5, 7.0] {
            assert!((n.denormalize(n.normalize(v)) - v).abs() < 1e-9 * v.max(1.0));
        }
    }

    #[test]
    fn fitted_values_are_standardized() {
        let data = [2.0, 4.0, 6.0, 8.0];
        let n = Normalizer::fit(&data, false);
        let z: Vec<f64> = data.iter().map(|&v| n.normalize(v)).collect();
        let mean: f64 = z.iter().sum::<f64>() / z.len() as f64;
        let var: f64 = z.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 1e-12);
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_data_does_not_blow_up() {
        let n = Normalizer::fit(&[5.0, 5.0, 5.0], false);
        let z = n.normalize(5.0);
        assert!(z.is_finite());
        assert!((n.denormalize(z) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn identity_is_inert() {
        let n = Normalizer::identity();
        assert_eq!(n.normalize(3.5), 3.5);
        assert_eq!(n.denormalize(3.5), 3.5);
    }

    #[test]
    #[should_panic(expected = "non-positive")]
    fn log_space_rejects_zero() {
        Normalizer::fit(&[1.0, 0.0], true);
    }

    #[test]
    fn serde_round_trip() {
        let n = Normalizer::fit(&[0.1, 0.2, 0.4], true);
        let back: Normalizer = serde_json::from_str(&serde_json::to_string(&n).unwrap()).unwrap();
        assert_eq!(n, back);
    }
}
