//! Property-based precision pins for the fast activation path.
//!
//! The training hot loops evaluate sigmoid/tanh/SELU through [`fast_exp`]
//! (and its 8- and 16-lane vector twins) instead of libm. These tests pin the contract
//! that makes that substitution safe everywhere it is used:
//!
//! - `fast_exp` tracks `libm::exp` to ~1e-7 **relative** error across the
//!   whole clamped domain `[-87, 87]`, not just near zero — the exponent is
//!   applied through exact bit construction, so the error does not grow
//!   with magnitude;
//! - the composed activations track their `*_precise` forms to a small
//!   **absolute** error (their outputs are bounded, so an absolute bound is
//!   the meaningful one in the saturated tails);
//! - the clamp boundaries (±87 for exp, ±9 for tanh's `2x` argument) hand
//!   over smoothly: outside them the fast forms are finite and saturate.
//!
//! The vectorized slice kernels are additionally required to be **bitwise**
//! identical to the scalar loops on arbitrary inputs — that is what lets
//! every forward/backward site route through them without perturbing golden
//! outputs.

use proptest::prelude::*;
use rn_tensor::activations::{
    fast_exp, selu, selu_precise, sigmoid, sigmoid_precise, tanh, tanh_precise,
};
use rn_tensor::simd::activations as vact;

/// `fast_exp`'s worst relative error against `f64::exp`, measured on a
/// deterministic sweep of the clamp range. Over every `f32` in `[-87, 87]`
/// the fused chain's worst is 2.31e-7 (at -27.379168); the separately
/// rounded chain it replaced reached 2.55e-7 (at 48.867237).
#[test]
fn fast_exp_worst_relative_error_is_measured() {
    let steps = 1 << 20;
    let mut worst = (0.0f64, 0.0f32);
    for i in 0..=steps {
        let x = -87.0 + 174.0 * (i as f32 / steps as f32);
        let exact = f64::from(x).exp();
        let rel = ((f64::from(fast_exp(x)) - exact) / exact).abs();
        if rel > worst.0 {
            worst = (rel, x);
        }
    }
    println!(
        "fast_exp worst relative error {:.3e} at {}",
        worst.0, worst.1
    );
    assert!(worst.0 < 2.4e-7, "fast_exp worst relative error {worst:?}");
}

proptest! {
    /// `fast_exp` holds ~2e-7 relative error over the full clamp range —
    /// the argument reduction is exact (Cody–Waite + bit-built exponent),
    /// so only the degree-6 polynomial contributes. Against `f32::exp` the
    /// bound adds libm's own half ulp to the 2.31e-7 measured above.
    #[test]
    fn fast_exp_relative_error_over_full_clamp_range(x in -87.0f32..87.0) {
        let exact = x.exp();
        let fast = fast_exp(x);
        prop_assert!(fast.is_finite());
        let rel = ((fast - exact) / exact).abs();
        prop_assert!(rel < 3e-7, "fast_exp({x}) rel err {rel}");
    }

    /// Sigmoid tracks the libm form absolutely; its output is in (0, 1) so
    /// an absolute bound also bounds the relative error away from 0.
    #[test]
    fn sigmoid_tracks_precise_form(x in -100.0f32..100.0) {
        let d = (sigmoid(x) - sigmoid_precise(x)).abs();
        prop_assert!(d < 1e-6, "sigmoid({x}) abs err {d}");
        prop_assert!((0.0..=1.0).contains(&sigmoid(x)));
    }

    /// Tanh tracks the libm form absolutely and never leaves [-1, 1] — the
    /// GRU state-boundedness invariant.
    #[test]
    fn tanh_tracks_precise_form(x in -100.0f32..100.0) {
        let d = (tanh(x) - tanh_precise(x)).abs();
        prop_assert!(d < 1e-6, "tanh({x}) abs err {d}");
        prop_assert!(tanh(x).abs() <= 1.0);
    }

    /// SELU: exponential branch below 0, linear above; the error is the
    /// scaled fast_exp error (λ·α ≈ 1.84 amplification).
    #[test]
    fn selu_tracks_precise_form(x in -60.0f32..60.0) {
        let d = (selu(x) - selu_precise(x)).abs();
        prop_assert!(d < 2e-6, "selu({x}) abs err {d}");
    }

    /// The dispatched slice kernels (the widest SIMD tier the host has) are
    /// bitwise identical to the scalar reference loops on arbitrary finite
    /// inputs — including ragged lengths that exercise the masked tails.
    #[test]
    fn map_kernels_match_scalar_bitwise(
        src in proptest::collection::vec(-90.0f32..90.0, 1..64),
    ) {
        for (kernel, reference) in [
            (
                vact::exp_map as fn(&[f32], &mut [f32]),
                vact::exp_map_scalar as fn(&[f32], &mut [f32]),
            ),
            (vact::sigmoid_map, vact::sigmoid_map_scalar),
            (vact::tanh_map, vact::tanh_map_scalar),
            (vact::selu_map, vact::selu_map_scalar),
        ] {
            let mut fast = vec![0.0f32; src.len()];
            let mut reference_out = vec![0.0f32; src.len()];
            kernel(&src, &mut fast);
            reference(&src, &mut reference_out);
            let fast_bits: Vec<u32> = fast.iter().map(|v| v.to_bits()).collect();
            let ref_bits: Vec<u32> = reference_out.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(fast_bits, ref_bits);
        }
    }

    /// Same bitwise contract for the fused backward kernels `g · f'(y)`.
    #[test]
    fn deriv_kernels_match_scalar_bitwise(
        g in proptest::collection::vec(-3.0f32..3.0, 1..64),
    ) {
        let y: Vec<f32> = g.iter().map(|v| sigmoid(*v)).collect();
        let mut fast = vec![0.0f32; g.len()];
        let mut reference = vec![0.0f32; g.len()];
        vact::sigmoid_deriv_mul(&g, &y, &mut fast);
        vact::sigmoid_deriv_mul_scalar(&g, &y, &mut reference);
        prop_assert_eq!(
            fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let yt: Vec<f32> = g.iter().map(|v| tanh(*v)).collect();
        vact::tanh_deriv_mul(&g, &yt, &mut fast);
        vact::tanh_deriv_mul_scalar(&g, &yt, &mut reference);
        prop_assert_eq!(
            fast.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

/// Deterministic boundary sweep: the clamps hand over smoothly and the
/// saturated tails stay finite and ordered.
#[test]
fn clamp_boundaries_saturate_cleanly() {
    // exp clamp at ±87: continuous into the clamp, finite beyond it.
    for &x in &[-87.0f32, -86.999, 86.999, 87.0, 88.0, 1e4] {
        assert!(fast_exp(x).is_finite(), "fast_exp({x}) must stay finite");
        assert!(fast_exp(x) >= 0.0);
    }
    assert_eq!(fast_exp(88.0), fast_exp(87.0), "clamp pins the tail");
    assert_eq!(fast_exp(-88.0), fast_exp(-87.0));
    // tanh clamp at ±9: fully saturated to f32 precision at the boundary.
    assert!((tanh(9.0) - 1.0).abs() < 1e-6);
    assert!((tanh(-9.0) + 1.0).abs() < 1e-6);
    assert_eq!(tanh(9.0), tanh(1e6), "beyond-clamp tail is exactly flat");
    assert_eq!(tanh(-9.0), tanh(-1e6));
    // sigmoid saturates monotonically through its (internal) clamp.
    assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.9999);
    assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-4);
}
