//! Weight initialization schemes.
//!
//! RouteNet-era TensorFlow used Glorot (Xavier) uniform for dense kernels and
//! zeros for biases; we default to the same so training dynamics are
//! comparable.

use rn_tensor::{Matrix, Prng};

/// Glorot/Xavier uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
/// The default for kernels feeding tanh/sigmoid nonlinearities (GRU gates).
pub fn xavier_uniform(rng: &mut Prng, fan_in: usize, fan_out: usize) -> Matrix {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    rng.uniform_matrix(fan_in, fan_out, -a, a)
}

/// LeCun normal: `N(0, 1/fan_in)` — the initialization SELU networks were
/// derived with.
pub fn lecun_normal(rng: &mut Prng, fan_in: usize, fan_out: usize) -> Matrix {
    let std = (1.0 / fan_in as f32).sqrt();
    rng.normal_matrix(fan_in, fan_out, 0.0, std)
}

/// Zero bias row vector of width `n`.
pub fn zeros_bias(n: usize) -> Matrix {
    Matrix::zeros(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_bounds_hold() {
        let mut rng = Prng::new(1);
        let w = xavier_uniform(&mut rng, 64, 32);
        let bound = (6.0f32 / 96.0).sqrt();
        assert_eq!(w.shape(), (64, 32));
        assert!(w.as_slice().iter().all(|v| v.abs() <= bound));
        // values should not all be tiny — spread across the range
        assert!(w.max_abs() > bound * 0.8);
    }

    #[test]
    fn lecun_normal_std_plausible() {
        let mut rng = Prng::new(3);
        let fan_in = 100;
        let w = lecun_normal(&mut rng, fan_in, 200);
        let mean = w.mean();
        let var = w
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / w.len() as f32;
        let expected = 1.0 / fan_in as f32;
        assert!(
            (var - expected).abs() < expected * 0.2,
            "var {var} vs {expected}"
        );
    }

    #[test]
    fn init_is_seed_deterministic() {
        let a = xavier_uniform(&mut Prng::new(7), 8, 8);
        let b = xavier_uniform(&mut Prng::new(7), 8, 8);
        assert!(a.approx_eq(&b, 0.0));
    }
}
