//! The one SIMD gate, and the runtime-dispatched activation maps.
//!
//! [`Tier::detected`] picks, once per process, the widest instruction set
//! this CPU runs: AVX-512 (`avx512f` alone), then AVX2 with FMA (`avx2` and
//! `fma`), then the baseline build. Every vector kernel dispatches on it —
//! the matmul bodies in [`crate::matrix`], the activation maps below, and
//! `rn_autograd`'s fused GRU step, whose elementwise loops compile at the
//! tier's width. The CPU is the only selector: there is no variable, feature
//! or setting that picks a tier. Each dispatcher also has an `*_at` form
//! taking the tier explicitly, so the tests can run every tier the host has
//! on the same inputs.
//!
//! The activation maps are the branch-free Cody–Waite
//! [`fast_exp`](crate::activations::fast_exp) construction plus the
//! sigmoid/tanh/SELU forms and their derivative-times-adjoint fusions, 8
//! lanes (AVX2) or 16 lanes (AVX-512) at a time, with the ragged tail of a
//! slice as one masked step. A bias row that divides the register (1, 2, 4
//! or 8 floats; 16 too on AVX-512) is tiled across one, so a whole block
//! runs as flat full-width steps; any other row ends in one masked step per
//! row. Both widths are expanded from one template (`lane_template!`)
//! written against a handful of lane primitives, so the operation sequence
//! that must match the scalar form is written once.
//!
//! ## Bitwise contract
//!
//! Every vector body performs, per element, *exactly* the operations of the
//! matching `*_scalar` form in the same order: the clamp is `max(min(x, hi),
//! lo)`, the polynomial is the same nested chain, negation flips the sign
//! bit, and `2^n` is built from a truncating float-to-int conversion (exact
//! — `n` is integral by construction) and exponent-bit arithmetic. Each
//! `a·b + c` of `fast_exp` — the magic-number rounding, both Cody–Waite
//! steps, the six Horner steps — is one fused multiply-add, rounded once:
//! `f32::mul_add` in the scalar form, the `fma` / `fnma` lane primitives
//! here. A fused multiply-add is correctly rounded wherever it runs (the
//! baseline's `mul_add` without the `fma` feature is a call to a correctly
//! rounded `fmaf`), and nothing else contracts — rustc never fuses `a*b + c`
//! on its own — so for **finite inputs** every tier is bitwise identical to
//! the scalar path on every machine: the property the kernel-vs-scalar tests
//! pin at each tier the host has. NaN inputs are the one divergence
//! (`f32::clamp` propagates NaN, the vector `min`/`max` select the second
//! operand); the serving boundary rejects non-finite inputs, and a NaN
//! activation inside training means it already diverged.
//!
//! Non-x86-64 targets detect [`Tier::Baseline`] and compile the scalar
//! forms only.

use crate::activations as act;

/// An instruction-set tier of the vector kernels, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// The baseline build (SSE2 on x86-64): portable bodies and scalar maps.
    Baseline,
    /// 256-bit AVX2 bodies with FMA (`avx2` and `fma`), 8 lanes.
    Avx2,
    /// 512-bit AVX-512 bodies (`avx512f` only), 16 lanes.
    Avx512,
}

impl Tier {
    /// The widest tier this CPU runs, detected on first use and cached.
    pub fn detected() -> Tier {
        use std::sync::OnceLock;
        static TIER: OnceLock<Tier> = OnceLock::new();
        *TIER.get_or_init(detect)
    }

    /// Every tier this CPU runs, narrowest first.
    pub fn supported() -> impl Iterator<Item = Tier> {
        let widest = Tier::detected();
        [Tier::Baseline, Tier::Avx2, Tier::Avx512]
            .into_iter()
            .filter(move |&t| t <= widest)
    }

    /// `self`, after asserting this CPU runs it — what makes entering a
    /// tier's `#[target_feature]` body sound.
    pub fn checked(self) -> Tier {
        assert!(
            self <= Tier::detected(),
            "SIMD tier {self:?} requested on a CPU whose widest is {:?}",
            Tier::detected()
        );
        self
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Tier {
    if std::arch::is_x86_feature_detected!("avx512f") {
        Tier::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        Tier::Avx2
    } else {
        Tier::Baseline
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Tier {
    Tier::Baseline
}

/// Slice-level activation maps with runtime tier dispatch.
///
/// Each kernel has three forms: the dispatching entry point (what the tape
/// ops call), its `*_at` twin taking the tier, and a `*_scalar` reference
/// loop (the bitwise ground truth and the baseline tier's body). The
/// dispatchers assert shape compatibility; the vector bodies assume it.
pub mod activations {
    use super::{act, Tier};

    // ---------------------------------------------------------------
    // Dispatching entry points
    // ---------------------------------------------------------------

    /// Defines a dispatcher `$name` (at [`Tier::detected`]) and its `$at`
    /// twin, public where a caller outside the crate picks the tier (the
    /// fused GRU step's maps). `$check` asserts the shapes the vector bodies
    /// rely on.
    macro_rules! dispatched {
        ($(#[$doc:meta])* $name:ident, $vis:vis $at:ident, $scalar:ident,
         ($($arg:ident: $ty:ty),*), $check:block) => {
            $(#[$doc])*
            pub fn $name($($arg: $ty),*) {
                $at(Tier::detected(), $($arg),*)
            }

            #[doc = concat!("[`", stringify!($name), "`] through the bodies of `tier`.")]
            ///
            /// # Panics
            /// If this CPU does not run `tier`, or on mismatched shapes.
            $vis fn $at(tier: Tier, $($arg: $ty),*) {
                $check
                match tier.checked() {
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `checked` asserted that this CPU runs AVX-512;
                    // `$check` asserted the shapes.
                    Tier::Avx512 => unsafe { avx512::$name($($arg),*) },
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: as above, for AVX2.
                    Tier::Avx2 => unsafe { avx2::$name($($arg),*) },
                    _ => $scalar($($arg),*),
                }
            }
        };
    }

    dispatched!(
        /// `dst[i] = fast_exp(src[i])`.
        exp_map, pub(crate) exp_map_at, exp_map_scalar,
        (src: &[f32], dst: &mut [f32]),
        { assert_eq!(src.len(), dst.len(), "activation map length mismatch"); }
    );
    dispatched!(
        /// `dst[i] = sigmoid(src[i])` (fast-exp form).
        sigmoid_map, pub(crate) sigmoid_map_at, sigmoid_map_scalar,
        (src: &[f32], dst: &mut [f32]),
        { assert_eq!(src.len(), dst.len(), "activation map length mismatch"); }
    );
    dispatched!(
        /// `dst[i] = tanh(src[i])` (fast-exp form).
        tanh_map, pub(crate) tanh_map_at, tanh_map_scalar,
        (src: &[f32], dst: &mut [f32]),
        { assert_eq!(src.len(), dst.len(), "activation map length mismatch"); }
    );
    dispatched!(
        /// `dst[i] = selu(src[i])` (fast-exp form).
        selu_map, pub(crate) selu_map_at, selu_map_scalar,
        (src: &[f32], dst: &mut [f32]),
        { assert_eq!(src.len(), dst.len(), "activation map length mismatch"); }
    );
    dispatched!(
        /// Fused bias-add + sigmoid over a row-major block: for every row of
        /// width `bias.len()`, `v = sigmoid(v + b)`. Bitwise identical to a
        /// broadcast add followed by a sigmoid map (same per-element chain).
        /// The three fused GRU gate activations run through this.
        sigmoid_bias_map_inplace, pub sigmoid_bias_map_inplace_at, sigmoid_bias_map_inplace_scalar,
        (block: &mut [f32], bias: &[f32]),
        {
            assert!(!bias.is_empty(), "bias must be non-empty");
            assert_eq!(block.len() % bias.len(), 0, "block width mismatch");
        }
    );
    dispatched!(
        /// Fused bias-add + tanh over a row-major block (candidate gate).
        tanh_bias_map_inplace, pub tanh_bias_map_inplace_at, tanh_bias_map_inplace_scalar,
        (block: &mut [f32], bias: &[f32]),
        {
            assert!(!bias.is_empty(), "bias must be non-empty");
            assert_eq!(block.len() % bias.len(), 0, "block width mismatch");
        }
    );
    dispatched!(
        /// `dst[i] = g[i] * sigmoid_deriv_from_output(y[i])` — the sigmoid
        /// adjoint as one pass.
        sigmoid_deriv_mul, pub(crate) sigmoid_deriv_mul_at, sigmoid_deriv_mul_scalar,
        (g: &[f32], y: &[f32], dst: &mut [f32]),
        { assert!(g.len() == y.len() && y.len() == dst.len(), "adjoint length mismatch"); }
    );
    dispatched!(
        /// `dst[i] = g[i] * tanh_deriv_from_output(y[i])`.
        tanh_deriv_mul, pub(crate) tanh_deriv_mul_at, tanh_deriv_mul_scalar,
        (g: &[f32], y: &[f32], dst: &mut [f32]),
        { assert!(g.len() == y.len() && y.len() == dst.len(), "adjoint length mismatch"); }
    );
    dispatched!(
        /// `dst[i] = g[i] * selu_deriv(x[i])` — SELU's adjoint is a function
        /// of the *input*, not the output.
        selu_deriv_mul, pub(crate) selu_deriv_mul_at, selu_deriv_mul_scalar,
        (g: &[f32], x: &[f32], dst: &mut [f32]),
        { assert!(g.len() == x.len() && x.len() == dst.len(), "adjoint length mismatch"); }
    );
    dispatched!(
        /// `g[i] *= sigmoid_deriv_from_output(y[i])` in place — the fused GRU
        /// backward gate tails.
        sigmoid_deriv_mul_inplace, pub sigmoid_deriv_mul_inplace_at, sigmoid_deriv_mul_inplace_scalar,
        (g: &mut [f32], y: &[f32]),
        { assert_eq!(g.len(), y.len(), "adjoint length mismatch"); }
    );
    dispatched!(
        /// `g[i] *= tanh_deriv_from_output(y[i])` in place.
        tanh_deriv_mul_inplace, pub tanh_deriv_mul_inplace_at, tanh_deriv_mul_inplace_scalar,
        (g: &mut [f32], y: &[f32]),
        { assert_eq!(g.len(), y.len(), "adjoint length mismatch"); }
    );

    // ---------------------------------------------------------------
    // Scalar reference forms (the bitwise ground truth)
    // ---------------------------------------------------------------

    /// Scalar reference for [`exp_map`].
    pub fn exp_map_scalar(src: &[f32], dst: &mut [f32]) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = act::fast_exp(v);
        }
    }

    /// Scalar reference for [`sigmoid_map`].
    pub fn sigmoid_map_scalar(src: &[f32], dst: &mut [f32]) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = act::sigmoid(v);
        }
    }

    /// Scalar reference for [`tanh_map`].
    pub fn tanh_map_scalar(src: &[f32], dst: &mut [f32]) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = act::tanh(v);
        }
    }

    /// Scalar reference for [`selu_map`].
    pub fn selu_map_scalar(src: &[f32], dst: &mut [f32]) {
        for (d, &v) in dst.iter_mut().zip(src) {
            *d = act::selu(v);
        }
    }

    /// Scalar reference for [`sigmoid_bias_map_inplace`].
    pub fn sigmoid_bias_map_inplace_scalar(block: &mut [f32], bias: &[f32]) {
        for row in block.chunks_exact_mut(bias.len()) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v = act::sigmoid(*v + b);
            }
        }
    }

    /// Scalar reference for [`tanh_bias_map_inplace`].
    pub fn tanh_bias_map_inplace_scalar(block: &mut [f32], bias: &[f32]) {
        for row in block.chunks_exact_mut(bias.len()) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v = act::tanh(*v + b);
            }
        }
    }

    /// Scalar reference for [`sigmoid_deriv_mul`].
    pub fn sigmoid_deriv_mul_scalar(g: &[f32], y: &[f32], dst: &mut [f32]) {
        for ((d, &gi), &yi) in dst.iter_mut().zip(g).zip(y) {
            *d = gi * act::sigmoid_deriv_from_output(yi);
        }
    }

    /// Scalar reference for [`tanh_deriv_mul`].
    pub fn tanh_deriv_mul_scalar(g: &[f32], y: &[f32], dst: &mut [f32]) {
        for ((d, &gi), &yi) in dst.iter_mut().zip(g).zip(y) {
            *d = gi * act::tanh_deriv_from_output(yi);
        }
    }

    /// Scalar reference for [`selu_deriv_mul`].
    pub fn selu_deriv_mul_scalar(g: &[f32], x: &[f32], dst: &mut [f32]) {
        for ((d, &gi), &xi) in dst.iter_mut().zip(g).zip(x) {
            *d = gi * act::selu_deriv(xi);
        }
    }

    /// Scalar reference for [`sigmoid_deriv_mul_inplace`].
    pub fn sigmoid_deriv_mul_inplace_scalar(g: &mut [f32], y: &[f32]) {
        for (gi, &yi) in g.iter_mut().zip(y) {
            *gi *= act::sigmoid_deriv_from_output(yi);
        }
    }

    /// Scalar reference for [`tanh_deriv_mul_inplace`].
    pub fn tanh_deriv_mul_inplace_scalar(g: &mut [f32], y: &[f32]) {
        for (gi, &yi) in g.iter_mut().zip(y) {
            *gi *= act::tanh_deriv_from_output(yi);
        }
    }

    // ---------------------------------------------------------------
    // Vector bodies: one template, two widths
    // ---------------------------------------------------------------

    /// Run `$body` for `$i` over `0..$n` in steps of `LANES`, `$len` being
    /// the lanes the step covers: `LANES`, except for one final partial step.
    #[cfg(target_arch = "x86_64")]
    macro_rules! for_lanes {
        ($n:expr, |$i:ident, $len:ident| $body:expr) => {{
            let n = $n;
            let mut $i = 0;
            while $i + LANES <= n {
                let $len = LANES;
                $body;
                $i += LANES;
            }
            if $i < n {
                let $len = n - $i;
                $body;
            }
        }};
    }

    /// `dst[i] = $f(src[i])`, a step of lanes at a time.
    #[cfg(target_arch = "x86_64")]
    macro_rules! unary_map {
        ($src:ident, $dst:ident, $f:ident) => {{
            let (s, d) = ($src.as_ptr(), $dst.as_mut_ptr());
            for_lanes!($src.len(), |i, len| store(
                d.add(i),
                len,
                $f(load(s.add(i), len))
            ));
        }};
    }

    /// `v = $f(v + b)` over a row-major block of rows `$bias.len()` wide.
    /// A bias row that divides the register is tiled across one (lane `l`
    /// adds `bias[l % w]`), and the block runs as flat full-width steps:
    /// only the block's tail is masked. Any other width runs row by row,
    /// each row's tail one masked step. Both add the same bias element to
    /// the same value, so the bits do not depend on the branch.
    #[cfg(target_arch = "x86_64")]
    macro_rules! bias_map_inplace {
        ($block:ident, $bias:ident, $f:ident) => {{
            let (w, b) = ($bias.len(), $bias.as_ptr());
            if LANES % w == 0 {
                let tiled: [f32; LANES] = std::array::from_fn(|l| $bias[l % w]);
                let (bt, p) = (load(tiled.as_ptr(), LANES), $block.as_mut_ptr());
                for_lanes!($block.len(), |i, len| store(
                    p.add(i),
                    len,
                    $f(add(load(p.add(i), len), bt))
                ));
            } else {
                for row in $block.chunks_exact_mut(w) {
                    let r = row.as_mut_ptr();
                    for_lanes!(w, |j, len| {
                        let v = add(load(r.add(j), len), load(b.add(j), len));
                        store(r.add(j), len, $f(v))
                    });
                }
            }
        }};
    }

    /// The lane chains and slice bodies of every map, for the lane
    /// primitives in scope (`V`, `LANES`, `splat`, `add`, `sub`, `mul`,
    /// `fma`, `fnma`, `div`, `min`, `max`, `neg`, `pow2`, `select_pos`,
    /// `load`, `store`),
    /// compiled for `$feature`. Each chain is its scalar function in
    /// `crate::activations`, operation for operation.
    #[cfg(target_arch = "x86_64")]
    macro_rules! lane_template {
        ($feature:tt) => {
            use crate::activations::{
                EXP_CLAMP, LN2_HI, LN2_LO, ROUND_MAGIC, SELU_ALPHA, SELU_LAMBDA, TANH_CLAMP,
            };

            /// `fast_exp`: clamp (min, then max), fused magic-number
            /// rounding, fused Cody–Waite reduction, the fused degree-6
            /// Horner chain, `2^n · p`.
            #[inline]
            #[target_feature(enable = $feature)]
            fn fast_exp(x: V) -> V {
                let one = splat(1.0);
                let x = max(min(x, splat(EXP_CLAMP)), splat(-EXP_CLAMP));
                let magic = splat(ROUND_MAGIC);
                let n = sub(fma(x, splat(std::f32::consts::LOG2_E), magic), magic);
                let g = fnma(n, splat(LN2_LO), fnma(n, splat(LN2_HI), x));
                let p = fma(g, splat(1.0 / 720.0), splat(1.0 / 120.0));
                let p = fma(g, p, splat(1.0 / 24.0));
                let p = fma(g, p, splat(1.0 / 6.0));
                let p = fma(g, p, splat(0.5));
                let p = fma(g, p, one);
                let p = fma(g, p, one);
                mul(pow2(n), p)
            }

            /// `sigmoid`: `1 / (1 + fast_exp(-x))`.
            #[inline]
            #[target_feature(enable = $feature)]
            fn sigmoid(x: V) -> V {
                let one = splat(1.0);
                div(one, add(one, fast_exp(neg(x))))
            }

            /// `tanh`: clamp ±9, `(e^{2x} − 1) / (e^{2x} + 1)`.
            #[inline]
            #[target_feature(enable = $feature)]
            fn tanh(x: V) -> V {
                let one = splat(1.0);
                let x = max(min(x, splat(TANH_CLAMP)), splat(-TANH_CLAMP));
                let e2 = fast_exp(mul(splat(2.0), x));
                div(sub(e2, one), add(e2, one))
            }

            /// `selu`: both branches, picked on `x > 0`. The scalar
            /// `SELU_LAMBDA * SELU_ALPHA * (e − 1)` associates left, so λ·α
            /// is one constant here — identical rounding.
            #[inline]
            #[target_feature(enable = $feature)]
            fn selu(x: V) -> V {
                const LA: f32 = SELU_LAMBDA * SELU_ALPHA;
                let pos = mul(splat(SELU_LAMBDA), x);
                let neg = mul(splat(LA), sub(fast_exp(x), splat(1.0)));
                select_pos(x, pos, neg)
            }

            /// `selu_deriv` (a function of the input).
            #[inline]
            #[target_feature(enable = $feature)]
            fn selu_deriv(x: V) -> V {
                const LA: f32 = SELU_LAMBDA * SELU_ALPHA;
                select_pos(x, splat(SELU_LAMBDA), mul(splat(LA), fast_exp(x)))
            }

            /// `sigmoid_deriv_from_output`: `y · (1 − y)`.
            #[inline]
            #[target_feature(enable = $feature)]
            fn sigmoid_deriv(y: V) -> V {
                mul(y, sub(splat(1.0), y))
            }

            /// `tanh_deriv_from_output`: `1 − y·y`.
            #[inline]
            #[target_feature(enable = $feature)]
            fn tanh_deriv(y: V) -> V {
                sub(splat(1.0), mul(y, y))
            }

            // # Safety (every `unsafe fn` below): the caller guarantees that
            // this CPU runs `$feature` and the shapes its dispatcher asserts.
            // Every pointer is then offset by less than its slice's length,
            // and a partial step touches only the lanes inside the slice.

            #[target_feature(enable = $feature)]
            pub(super) unsafe fn exp_map(src: &[f32], dst: &mut [f32]) {
                unary_map!(src, dst, fast_exp)
            }

            #[target_feature(enable = $feature)]
            pub(super) unsafe fn sigmoid_map(src: &[f32], dst: &mut [f32]) {
                unary_map!(src, dst, sigmoid)
            }

            #[target_feature(enable = $feature)]
            pub(super) unsafe fn tanh_map(src: &[f32], dst: &mut [f32]) {
                unary_map!(src, dst, tanh)
            }

            #[target_feature(enable = $feature)]
            pub(super) unsafe fn selu_map(src: &[f32], dst: &mut [f32]) {
                unary_map!(src, dst, selu)
            }

            #[target_feature(enable = $feature)]
            pub(super) unsafe fn sigmoid_bias_map_inplace(block: &mut [f32], bias: &[f32]) {
                bias_map_inplace!(block, bias, sigmoid)
            }

            #[target_feature(enable = $feature)]
            pub(super) unsafe fn tanh_bias_map_inplace(block: &mut [f32], bias: &[f32]) {
                bias_map_inplace!(block, bias, tanh)
            }

            #[target_feature(enable = $feature)]
            pub(super) unsafe fn sigmoid_deriv_mul(g: &[f32], y: &[f32], dst: &mut [f32]) {
                let (gp, yp, d) = (g.as_ptr(), y.as_ptr(), dst.as_mut_ptr());
                for_lanes!(g.len(), |i, len| {
                    let v = mul(load(gp.add(i), len), sigmoid_deriv(load(yp.add(i), len)));
                    store(d.add(i), len, v)
                });
            }

            #[target_feature(enable = $feature)]
            pub(super) unsafe fn tanh_deriv_mul(g: &[f32], y: &[f32], dst: &mut [f32]) {
                let (gp, yp, d) = (g.as_ptr(), y.as_ptr(), dst.as_mut_ptr());
                for_lanes!(g.len(), |i, len| {
                    let v = mul(load(gp.add(i), len), tanh_deriv(load(yp.add(i), len)));
                    store(d.add(i), len, v)
                });
            }

            #[target_feature(enable = $feature)]
            pub(super) unsafe fn selu_deriv_mul(g: &[f32], x: &[f32], dst: &mut [f32]) {
                let (gp, xp, d) = (g.as_ptr(), x.as_ptr(), dst.as_mut_ptr());
                for_lanes!(g.len(), |i, len| {
                    let v = mul(load(gp.add(i), len), selu_deriv(load(xp.add(i), len)));
                    store(d.add(i), len, v)
                });
            }

            #[target_feature(enable = $feature)]
            pub(super) unsafe fn sigmoid_deriv_mul_inplace(g: &mut [f32], y: &[f32]) {
                let (gp, yp) = (g.as_mut_ptr(), y.as_ptr());
                for_lanes!(g.len(), |i, len| {
                    let v = mul(load(gp.add(i), len), sigmoid_deriv(load(yp.add(i), len)));
                    store(gp.add(i), len, v)
                });
            }

            #[target_feature(enable = $feature)]
            pub(super) unsafe fn tanh_deriv_mul_inplace(g: &mut [f32], y: &[f32]) {
                let (gp, yp) = (g.as_mut_ptr(), y.as_ptr());
                for_lanes!(g.len(), |i, len| {
                    let v = mul(load(gp.add(i), len), tanh_deriv(load(yp.add(i), len)));
                    store(gp.add(i), len, v)
                });
            }
        };
    }

    /// 8-lane AVX2 + FMA lane primitives and the template over them.
    #[cfg(target_arch = "x86_64")]
    mod avx2 {
        use std::arch::x86_64::*;

        type V = __m256;
        const LANES: usize = 8;

        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn splat(x: f32) -> V {
            _mm256_set1_ps(x)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn add(a: V, b: V) -> V {
            _mm256_add_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn sub(a: V, b: V) -> V {
            _mm256_sub_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn mul(a: V, b: V) -> V {
            _mm256_mul_ps(a, b)
        }
        /// `a·b + c`, rounded once.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn fma(a: V, b: V, c: V) -> V {
            _mm256_fmadd_ps(a, b, c)
        }
        /// `c − a·b`, rounded once.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn fnma(a: V, b: V, c: V) -> V {
            _mm256_fnmadd_ps(a, b, c)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn div(a: V, b: V) -> V {
            _mm256_div_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn min(a: V, b: V) -> V {
            _mm256_min_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn max(a: V, b: V) -> V {
            _mm256_max_ps(a, b)
        }
        /// `-x`: the sign-bit flip the scalar negation lowers to.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn neg(x: V) -> V {
            _mm256_xor_ps(x, _mm256_set1_ps(-0.0))
        }
        /// `2^n` for integral `n` in `[-126, 127]`: exponent bits. The
        /// truncating conversion is exact for integral `n`.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn pow2(n: V) -> V {
            let e = _mm256_add_epi32(_mm256_cvttps_epi32(n), _mm256_set1_epi32(127));
            _mm256_castsi256_ps(_mm256_slli_epi32::<23>(e))
        }
        /// `pos` where `x > 0`, `neg` elsewhere.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn select_pos(x: V, pos: V, neg: V) -> V {
            _mm256_blendv_ps(
                neg,
                pos,
                _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_setzero_ps()),
            )
        }
        /// Lanes `0..len` set.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn mask(len: usize) -> __m256i {
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            _mm256_cmpgt_epi32(_mm256_set1_epi32(len as i32), lane)
        }
        /// The first `len` (1..=8) floats at `p`, zeros after; nothing past
        /// `p + len` is read.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load(p: *const f32, len: usize) -> V {
            if len == LANES {
                _mm256_loadu_ps(p)
            } else {
                _mm256_maskload_ps(p, mask(len))
            }
        }
        /// Store the first `len` (1..=8) lanes of `v` at `p`; nothing past
        /// `p + len` is written.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn store(p: *mut f32, len: usize, v: V) {
            if len == LANES {
                _mm256_storeu_ps(p, v)
            } else {
                _mm256_maskstore_ps(p, mask(len), v)
            }
        }

        lane_template!("avx2,fma");
    }

    /// 16-lane AVX-512 lane primitives (`avx512f` only) and the template
    /// over them.
    #[cfg(target_arch = "x86_64")]
    mod avx512 {
        use std::arch::x86_64::*;

        type V = __m512;
        const LANES: usize = 16;

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn splat(x: f32) -> V {
            _mm512_set1_ps(x)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn add(a: V, b: V) -> V {
            _mm512_add_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn sub(a: V, b: V) -> V {
            _mm512_sub_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn mul(a: V, b: V) -> V {
            _mm512_mul_ps(a, b)
        }
        /// `a·b + c`, rounded once.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn fma(a: V, b: V, c: V) -> V {
            _mm512_fmadd_ps(a, b, c)
        }
        /// `c − a·b`, rounded once.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn fnma(a: V, b: V, c: V) -> V {
            _mm512_fnmadd_ps(a, b, c)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn div(a: V, b: V) -> V {
            _mm512_div_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn min(a: V, b: V) -> V {
            _mm512_min_ps(a, b)
        }
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn max(a: V, b: V) -> V {
            _mm512_max_ps(a, b)
        }
        /// `-x`: the sign-bit flip, as an integer xor (`avx512f` has no
        /// float xor).
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn neg(x: V) -> V {
            let sign = _mm512_set1_epi32(i32::MIN);
            _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(x), sign))
        }
        /// `2^n` for integral `n` in `[-126, 127]`: exponent bits. The
        /// truncating conversion is exact for integral `n`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn pow2(n: V) -> V {
            let e = _mm512_add_epi32(_mm512_cvttps_epi32(n), _mm512_set1_epi32(127));
            _mm512_castsi512_ps(_mm512_slli_epi32::<23>(e))
        }
        /// `pos` where `x > 0`, `neg` elsewhere.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn select_pos(x: V, pos: V, neg: V) -> V {
            let gt = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, _mm512_setzero_ps());
            _mm512_mask_blend_ps(gt, neg, pos)
        }
        /// The first `len` (1..=16) floats at `p`, zeros after; nothing past
        /// `p + len` is read.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn load(p: *const f32, len: usize) -> V {
            if len == LANES {
                _mm512_loadu_ps(p)
            } else {
                _mm512_maskz_loadu_ps(((1u32 << len) - 1) as __mmask16, p)
            }
        }
        /// Store the first `len` (1..=16) lanes of `v` at `p`; nothing past
        /// `p + len` is written.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn store(p: *mut f32, len: usize, v: V) {
            if len == LANES {
                _mm512_storeu_ps(p, v)
            } else {
                _mm512_mask_storeu_ps(p, ((1u32 << len) - 1) as __mmask16, v)
            }
        }

        lane_template!("avx512f");
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn ramp(n: usize) -> Vec<f32> {
            (0..n)
                .map(|i| (i as f32) * 0.37 - (n as f32) * 0.17)
                .collect()
        }

        /// Lengths around both vector widths and their tails.
        const LENGTHS: [usize; 17] = [
            0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 64, 133, 257,
        ];

        /// Every tier this host runs, printed so a log says what was covered.
        fn tiers(test: &str) -> Vec<Tier> {
            let tiers: Vec<Tier> = Tier::supported().collect();
            println!(
                "{test}: tiers run {tiers:?} (widest detected {:?})",
                Tier::detected()
            );
            tiers
        }

        #[test]
        fn dispatched_maps_match_scalar_bitwise() {
            type Map = fn(Tier, &[f32], &mut [f32]);
            type Scalar = fn(&[f32], &mut [f32]);
            let maps: [(&str, Map, Scalar); 4] = [
                ("exp", exp_map_at, exp_map_scalar),
                ("sigmoid", sigmoid_map_at, sigmoid_map_scalar),
                ("tanh", tanh_map_at, tanh_map_scalar),
                ("selu", selu_map_at, selu_map_scalar),
            ];
            for tier in tiers("dispatched_maps_match_scalar_bitwise") {
                for n in LENGTHS {
                    let src = ramp(n);
                    for (name, at, scalar) in maps {
                        let mut a = vec![0.0f32; n];
                        let mut b = vec![0.0f32; n];
                        at(tier, &src, &mut a);
                        scalar(&src, &mut b);
                        assert_eq!(bits(&a), bits(&b), "{name} {tier:?} n={n}");
                    }
                }
            }
            // The plain entry points run the detected tier.
            let src = ramp(33);
            let (mut a, mut b) = (vec![0.0f32; 33], vec![0.0f32; 33]);
            tanh_map(&src, &mut a);
            tanh_map_scalar(&src, &mut b);
            assert_eq!(bits(&a), bits(&b));
        }

        #[test]
        fn fused_bias_maps_match_two_pass_scalar_bitwise() {
            for tier in tiers("fused_bias_maps_match_two_pass_scalar_bitwise") {
                // 1, 2, 4 and 8 (16 on AVX-512) divide the register and run
                // the flat tiled-bias path; the others run row by row.
                for w in [1usize, 2, 3, 4, 8, 11, 16, 24, 32, 48, 96] {
                    let rows = 9;
                    let bias: Vec<f32> = (0..w).map(|j| (j as f32) * 0.11 - 0.4).collect();
                    let block = ramp(rows * w);
                    let mut two_pass = block.clone();
                    for row in two_pass.chunks_exact_mut(w) {
                        for (v, &b) in row.iter_mut().zip(&bias) {
                            *v += b;
                        }
                    }

                    let mut fused = block.clone();
                    sigmoid_bias_map_inplace_at(tier, &mut fused, &bias);
                    let mut expect = vec![0.0f32; rows * w];
                    sigmoid_map_scalar(&two_pass, &mut expect);
                    assert_eq!(bits(&fused), bits(&expect), "sigmoid bias {tier:?} w={w}");

                    let mut fused_t = block.clone();
                    tanh_bias_map_inplace_at(tier, &mut fused_t, &bias);
                    let mut expect_t = vec![0.0f32; rows * w];
                    tanh_map_scalar(&two_pass, &mut expect_t);
                    assert_eq!(bits(&fused_t), bits(&expect_t), "tanh bias {tier:?} w={w}");
                }
            }
        }

        #[test]
        fn deriv_fusions_match_scalar_bitwise() {
            for tier in tiers("deriv_fusions_match_scalar_bitwise") {
                for n in LENGTHS {
                    let g = ramp(n);
                    let x = ramp(n).iter().map(|v| v * 0.13).collect::<Vec<_>>();
                    let mut y = vec![0.0f32; n];
                    sigmoid_map_scalar(&x, &mut y);

                    let mut a = vec![0.0f32; n];
                    let mut b = vec![0.0f32; n];
                    sigmoid_deriv_mul_at(tier, &g, &y, &mut a);
                    sigmoid_deriv_mul_scalar(&g, &y, &mut b);
                    assert_eq!(bits(&a), bits(&b), "sigmoid' {tier:?} n={n}");

                    tanh_deriv_mul_at(tier, &g, &y, &mut a);
                    tanh_deriv_mul_scalar(&g, &y, &mut b);
                    assert_eq!(bits(&a), bits(&b), "tanh' {tier:?} n={n}");

                    selu_deriv_mul_at(tier, &g, &x, &mut a);
                    selu_deriv_mul_scalar(&g, &x, &mut b);
                    assert_eq!(bits(&a), bits(&b), "selu' {tier:?} n={n}");

                    let mut ip_a = g.clone();
                    let mut ip_b = g.clone();
                    sigmoid_deriv_mul_inplace_at(tier, &mut ip_a, &y);
                    sigmoid_deriv_mul_inplace_scalar(&mut ip_b, &y);
                    assert_eq!(bits(&ip_a), bits(&ip_b), "sigmoid' in place {tier:?} n={n}");

                    tanh_deriv_mul_inplace_at(tier, &mut ip_a, &y);
                    tanh_deriv_mul_inplace_scalar(&mut ip_b, &y);
                    assert_eq!(bits(&ip_a), bits(&ip_b), "tanh' in place {tier:?} n={n}");
                }
            }
        }

        #[test]
        fn a_partial_step_touches_nothing_past_the_slice() {
            // The slice ends `pad` floats before its buffer does; the lanes
            // past it must keep their sentinel.
            for tier in tiers("a_partial_step_touches_nothing_past_the_slice") {
                for n in [1usize, 7, 9, 15, 17, 31] {
                    let src = ramp(n);
                    let mut buf = vec![f32::MAX; n + 16];
                    tanh_map_at(tier, &src, &mut buf[..n]);
                    assert!(buf[n..].iter().all(|&v| v == f32::MAX), "{tier:?} n={n}");
                }
            }
        }

        #[test]
        fn every_tier_rounds_each_multiply_add_once() {
            // Operands whose fused and unfused answers differ. With
            // `x = 1 + 2⁻¹²`, `x·x = 1 + 2⁻¹¹ + 2⁻²⁴` exactly: a tie that
            // rounds to even, so `x·x − 1` is `2⁻¹¹` unfused and
            // `2⁻¹¹ + 2⁻²⁴` fused. One step of the shared dimension carries
            // that product, the others multiply by zero; every step position
            // and every blocking path (rows, columns, k mod 4) must fuse.
            let x = 1.0 + 2f32.powi(-12);
            let fused = 2f32.powi(-11) + 2f32.powi(-24);
            let tiers = tiers("every_tier_rounds_each_multiply_add_once");
            for &tier in &tiers {
                for (m, k, n) in [(1, 1, 1), (2, 5, 17), (5, 4, 33), (4, 7, 64), (3, 9, 8)] {
                    for step in 0..k {
                        let a: Vec<f32> = (0..m * k)
                            .map(|i| if i % k == step { x } else { 0.0 })
                            .collect();
                        let at: Vec<f32> = (0..k * m)
                            .map(|i| if i / m == step { x } else { 0.0 })
                            .collect();
                        let b: Vec<f32> = (0..k * n)
                            .map(|i| if i / n == step { x } else { 0.0 })
                            .collect();
                        let mut out = vec![-1.0f32; m * n];
                        crate::kernels::matmul_acc_at(tier, &a, &b, m, k, n, &mut out);
                        assert!(
                            out.iter().all(|&v| v == fused),
                            "matmul_acc {tier:?} {m}x{k}x{n} step {step}: {out:?}"
                        );
                        let mut out = vec![-1.0f32; m * n];
                        crate::kernels::matmul_tn_acc_at(tier, &at, &b, k, m, n, &mut out);
                        assert!(
                            out.iter().all(|&v| v == fused),
                            "matmul_tn_acc {tier:?} {m}x{k}x{n} step {step}: {out:?}"
                        );
                    }
                }
            }
            // `fast_exp` at inputs found by search where the fused chain and
            // the separately rounded one (the same steps as `a * b + c`)
            // differ in the last bit: (x, fused bits, unfused bits).
            let cases = [
                (0.48f32, 0x3fce_db87u32, 0x3fce_db86u32),
                (1.03, 0x4033_44a9, 0x4033_44a8),
            ];
            for (x, fused, unfused) in cases {
                assert_ne!(fused, unfused);
                assert_eq!(act::fast_exp(x).to_bits(), fused, "fast_exp({x})");
                for &tier in &tiers {
                    for n in [1, 9, 16, 17] {
                        let mut dst = vec![0.0f32; n];
                        exp_map_at(tier, &vec![x; n], &mut dst);
                        assert!(
                            dst.iter().all(|v| v.to_bits() == fused),
                            "exp_map {tier:?} n={n} at {x}: {dst:?}"
                        );
                    }
                }
            }
        }

        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }
    }
}
