//! Scalar activation functions and their derivatives.
//!
//! Shared between the autograd tape ops (`rn-autograd`) and the layer
//! implementations in `rn-nn`, so forward values and adjoints can never drift
//! apart. Lives in the tensor crate so the SIMD kernels in [`crate::simd`]
//! can vectorize the *same* definitions the scalar code uses — the 8- and
//! 16-lane bodies replicate these functions operation for operation.
//!
//! ## Fast transcendentals
//!
//! Profiling the RouteNet hot loop showed libm `expf`/`tanhf` dominating the
//! GRU sweep (three gate activations over every path row at every sequence
//! position). [`sigmoid`], [`tanh`] and [`selu`] therefore use [`fast_exp`],
//! a branch-free polynomial `2^f`-with-exponent-bits construction whose
//! relative error is below ~1e-7 over the whole clamped range — far inside
//! the 1e-5 equivalence budget the golden tests enforce, and smooth enough
//! for the finite-difference gradient checks. The libm-backed `*_precise`
//! forms are the yardstick the precision tests hold the fast forms to
//! (`tests/activation_precision.rs`).

/// SELU scale constant (Klambauer et al., 2017).
pub const SELU_LAMBDA: f32 = 1.050_700_9;
/// SELU alpha constant.
pub const SELU_ALPHA: f32 = 1.673_263_2;

// Constants of the fast_exp argument reduction, shared with the vector lane
// bodies in `crate::simd::activations` (which must use bit-identical values).
pub(crate) const LN2_HI: f32 = 0.693_145_75;
pub(crate) const LN2_LO: f32 = 1.428_606_8e-6;
pub(crate) const ROUND_MAGIC: f32 = 12_582_912.0;
pub(crate) const EXP_CLAMP: f32 = 87.0;
pub(crate) const TANH_CLAMP: f32 = 9.0;

/// Fast `e^x` with ~1e-7 relative error.
///
/// Decomposes `x·log2(e) = n + f` with `n = round(·)` and `|f| <= 0.5`,
/// evaluates `2^f` by a degree-6 Taylor/minimax polynomial, and applies
/// `2^n` by constructing the float's exponent bits directly. Branch-free
/// (the clamp handles under/overflow), so the 8- and 16-lane forms in
/// [`crate::simd`] run the same steps lane for lane.
#[inline]
pub fn fast_exp(x: f32) -> f32 {
    // Cody–Waite split of ln2: the high part has trailing zero mantissa
    // bits, so `n * LN2_HI` is exact for |n| <= 128 and the argument
    // reduction below loses no precision.
    //
    // Round-to-nearest via the 1.5·2^23 magic-number trick: baseline x86-64
    // has no SSE4.1 roundps, so `f32::round` would become a libm call per
    // element and block autovectorization of the surrounding loops.
    //
    // exp(±87) is comfortably inside f32 normal range after the 2^n split.
    //
    // Every `a·b + c` below is one fused multiply-add (`mul_add`, rounded
    // once), and the vector lanes in `crate::simd` use the same fused steps:
    // a correctly rounded FMA gives the same bits on every machine.
    let x = x.clamp(-EXP_CLAMP, EXP_CLAMP);
    let n = x.mul_add(std::f32::consts::LOG2_E, ROUND_MAGIC) - ROUND_MAGIC;
    // |g| <= ln2/2 (+1 ulp of rounding).
    let g = (-n).mul_add(LN2_LO, (-n).mul_add(LN2_HI, x));
    // e^g by degree-6 Taylor, in Horner form.
    let p = g.mul_add(1.0 / 720.0, 1.0 / 120.0);
    let p = g.mul_add(p, 1.0 / 24.0);
    let p = g.mul_add(p, 1.0 / 6.0);
    let p = g.mul_add(p, 0.5);
    let p = g.mul_add(p, 1.0);
    let p = g.mul_add(p, 1.0);
    let scale = f32::from_bits(((n as i32 + 127) << 23) as u32);
    scale * p
}

/// Logistic sigmoid on the fast-exp path (the training hot loop).
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    // Clamp keeps fast_exp in range; sigmoid is flat to f32 precision there.
    let e = fast_exp(-x);
    1.0 / (1.0 + e)
}

/// Libm-backed sigmoid — the reference form the fast one is held to.
#[inline]
pub fn sigmoid_precise(x: f32) -> f32 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Derivative of sigmoid expressed through its output `y = sigmoid(x)`.
#[inline]
pub fn sigmoid_deriv_from_output(y: f32) -> f32 {
    y * (1.0 - y)
}

/// Hyperbolic tangent on the fast-exp path (the training hot loop).
///
/// `tanh(x) = (e^{2x} − 1) / (e^{2x} + 1)`; saturates (to within f32) past
/// `|x| > 9`, which the clamp makes explicit. Always inside `(-1, 1)`.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let x = x.clamp(-TANH_CLAMP, TANH_CLAMP);
    let e2 = fast_exp(2.0 * x);
    (e2 - 1.0) / (e2 + 1.0)
}

/// Libm-backed tanh — the reference form the fast one is held to.
#[inline]
pub fn tanh_precise(x: f32) -> f32 {
    x.tanh()
}

/// Derivative of tanh expressed through its output `y = tanh(x)`.
#[inline]
pub fn tanh_deriv_from_output(y: f32) -> f32 {
    1.0 - y * y
}

/// Scaled exponential linear unit — the readout activation used by RouteNet.
#[inline]
pub fn selu(x: f32) -> f32 {
    if x > 0.0 {
        SELU_LAMBDA * x
    } else {
        SELU_LAMBDA * SELU_ALPHA * (fast_exp(x) - 1.0)
    }
}

/// Libm-backed SELU — the reference form the fast one is held to.
#[inline]
pub fn selu_precise(x: f32) -> f32 {
    if x > 0.0 {
        SELU_LAMBDA * x
    } else {
        SELU_LAMBDA * SELU_ALPHA * (x.exp() - 1.0)
    }
}

/// Derivative of SELU as a function of the input.
#[inline]
pub fn selu_deriv(x: f32) -> f32 {
    if x > 0.0 {
        SELU_LAMBDA
    } else {
        SELU_LAMBDA * SELU_ALPHA * fast_exp(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_deriv(f: impl Fn(f32) -> f32, x: f32) -> f32 {
        let h = 1e-3;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn sigmoid_basics() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(30.0) > 0.999_999);
        assert!(sigmoid(-30.0) < 1e-6);
        // stability: no NaN at extremes
        assert!(sigmoid(1e4).is_finite());
        assert!(sigmoid(-1e4).is_finite());
    }

    #[test]
    fn derivative_formulas_match_numeric() {
        for &x in &[-2.0f32, -0.5, 0.3, 1.7] {
            let y = sigmoid(x);
            assert!((sigmoid_deriv_from_output(y) - numeric_deriv(sigmoid, x)).abs() < 1e-3);
            let t = tanh(x);
            assert!((tanh_deriv_from_output(t) - numeric_deriv(tanh, x)).abs() < 1e-3);
            assert!((selu_deriv(x) - numeric_deriv(selu, x)).abs() < 2e-3);
        }
    }

    #[test]
    fn selu_is_continuous_at_zero() {
        assert!((selu(1e-6) - selu(-1e-6)).abs() < 1e-4);
    }

    #[test]
    fn fast_exp_tracks_libm_to_1e7_relative() {
        let mut worst = 0.0f32;
        let mut x = -30.0f32;
        while x <= 30.0 {
            let exact = x.exp();
            let fast = fast_exp(x);
            let rel = ((fast - exact) / exact).abs();
            worst = worst.max(rel);
            x += 0.0173;
        }
        // ~2 ulp of f32: argument-reduction + polynomial rounding.
        assert!(worst < 3e-7, "fast_exp worst relative error {worst}");
        assert!(fast_exp(-1000.0) >= 0.0 && fast_exp(-1000.0).is_finite());
        assert!(fast_exp(1000.0).is_finite());
    }

    #[test]
    fn fast_activations_track_precise_forms() {
        let mut x = -12.0f32;
        while x <= 12.0 {
            assert!(
                (sigmoid(x) - sigmoid_precise(x)).abs() < 1e-6,
                "sigmoid at {x}"
            );
            assert!((tanh(x) - tanh_precise(x)).abs() < 1e-6, "tanh at {x}");
            assert!((selu(x) - selu_precise(x)).abs() < 2e-6, "selu at {x}");
            x += 0.0311;
        }
        // tanh stays strictly inside (-1, 1) so GRU states remain bounded.
        for &x in &[-1e4f32, -9.1, 9.1, 1e4] {
            assert!(tanh(x).abs() <= 1.0);
        }
    }
}
