//! The one SIMD gate, the runtime-dispatched activation maps, and every
//! vector kernel body.
//!
//! [`Tier::detected`] picks, once per process, the widest instruction set
//! this CPU runs: AVX-512 (`avx512f` alone), then AVX2 with FMA (`avx2` and
//! `fma`), then the baseline build. Every vector kernel dispatches on it —
//! the matmul kernels and the fused GRU step of [`crate::kernels`], the
//! activation maps below, and `rn_autograd`'s GRU adjoint, whose
//! elementwise loops compile at the tier's width. The CPU is the only
//! selector: there is no variable, feature or setting that picks a tier.
//! Each dispatcher also has an `*_at` form taking the tier explicitly, so
//! the tests can run every tier the host has on the same inputs.
//!
//! The activation maps are the branch-free Cody–Waite
//! [`fast_exp`](crate::activations::fast_exp) construction plus the
//! sigmoid/tanh/SELU forms and their derivative-times-adjoint fusions, 8
//! lanes (AVX2) or 16 lanes (AVX-512) at a time, with the ragged tail of a
//! slice as one masked step. Both widths are expanded from one template
//! (`lane_template!`) written against a handful of lane primitives, so the
//! operation sequence that must match the scalar form is written once. The
//! template also holds the one register tile every vector product runs
//! through: `product` (and `product_pairs`, two rows per register at half a
//! register's width) serves `matmul_acc` / `matmul_tn_acc`, whose left
//! operands differ only in their strides, and both products of the fused
//! GRU step ([`crate::kernels::gru_step`]), which runs the same sigmoid and
//! tanh chains in registers.
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

    /// Run `$f::<R, NV>(args…, j)` over the column blocks of a `w`-wide
    /// row: `NV` registers from column `j`, at most [`BLOCK_REGS`] and at
    /// most `ACCS / R`. A block a tile of `R` rows cannot meet (`NV·R >
    /// ACCS`) is never instantiated.
    #[cfg(target_arch = "x86_64")]
    macro_rules! column_blocks {
        ($w:expr, $f:ident::<$r:ident>($($arg:expr),*)) => {{
            let w = $w;
            let mut j = 0;
            while j < w {
                let regs = (w - j).div_ceil(LANES).min(BLOCK_REGS).min(ACCS / $r);
                match regs {
                    1 => $f::<$r, 1>($($arg,)* j),
                    2 if const { 2 * $r <= ACCS } => $f::<$r, 2>($($arg,)* j),
                    3 if const { 3 * $r <= ACCS } => $f::<$r, 3>($($arg,)* j),
                    4 if const { 4 * $r <= ACCS } => $f::<$r, 4>($($arg,)* j),
                    _ => unreachable!(),
                }
                j += regs * LANES;
            }
        }};
    }

    /// How a register tile reaches an operand: element `t` of the tile's
    /// row `r` sits at `at(r, t)`.
    #[cfg(target_arch = "x86_64")]
    pub(crate) trait Operand: Copy {
        /// # Safety
        /// `(r, t)` is inside the operand.
        unsafe fn at(self, r: usize, t: usize) -> *const f32;
    }

    /// An operand laid out by strides: `(r, t)` at `a + r·row + t·step`.
    /// A row-major `m x k` matrix is `(k, 1)`, its transpose `(1, m)`.
    #[cfg(target_arch = "x86_64")]
    #[derive(Clone, Copy)]
    pub(crate) struct Strided {
        pub(crate) a: *const f32,
        pub(crate) row: usize,
        pub(crate) step: usize,
    }

    #[cfg(target_arch = "x86_64")]
    impl Strided {
        /// The operand from row `i` on.
        ///
        /// # Safety
        /// Row `i` is inside the operand.
        #[inline(always)]
        unsafe fn skip_rows(self, i: usize) -> Strided {
            Strided {
                a: self.at(i, 0),
                ..self
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    impl Operand for Strided {
        #[inline(always)]
        unsafe fn at(self, r: usize, t: usize) -> *const f32 {
            self.a.add(r * self.row + t * self.step)
        }
    }

    /// An operand by row pointers, its steps adjacent: the GRU step's state,
    /// table and scratch rows.
    #[cfg(target_arch = "x86_64")]
    impl<const R: usize> Operand for [*const f32; R] {
        #[inline(always)]
        unsafe fn at(self, r: usize, t: usize) -> *const f32 {
            self[r].add(t)
        }
    }

    /// The lane chains and slice bodies of every map, and the register
    /// tile with the matmul and fused GRU step bodies over it, for the lane
    /// primitives in scope (`V`, `LANES`, `splat`, `add`, `sub`, `mul`,
    /// `fma`, `fnma`, `div`, `min`, `max`, `neg`, `pow2`, `select_pos`,
    /// `load`, `store`; for the tile also `ACCS`, `Mask`, `lanes`, `load_m`,
    /// `store_m`, `load_halves`, `load_dup`, `splat_halves`, `store_lo`,
    /// `store_hi`), compiled for
    /// `$feature`. Each chain is its scalar function in
    /// `crate::activations`, operation for operation.
    #[cfg(target_arch = "x86_64")]
    macro_rules! lane_template {
        ($feature:tt) => {
            use super::{Operand, Strided};
            use crate::activations::{
                EXP_CLAMP, LN2_HI, LN2_LO, ROUND_MAGIC, SELU_ALPHA, SELU_LAMBDA, TANH_CLAMP,
            };
            use crate::matrix::kernels::{GruOperands, GRU_TILE_MAX};

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

            // ---------------------------------------------------------
            // The register tile: matmul products and the fused GRU step
            // ---------------------------------------------------------

            /// Registers per row of one column block of a product.
            const BLOCK_REGS: usize = 4;
            /// Rows of a matmul tile; a packed tile holds twice as many.
            const MATMUL_ROWS: usize = 4;

            /// Columns `j..j + NV·LANES` (masked at `w`) of `seed + a·b`
            /// for a tile's `R` rows, `b` being `k x w`: each accumulator
            /// starts at its seed row and takes one fused multiply-add per
            /// step `t`, in ascending order — the matmul contract
            /// (`crate::kernels`).
            ///
            /// # Safety
            /// This CPU runs `$feature`; `seed` holds columns `j..w` of `R`
            /// rows, `a` steps `0..k` of them; `b` holds `k x w`.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn product<const R: usize, const NV: usize>(
                seed: impl Operand,
                a: impl Operand,
                b: *const f32,
                (k, w, j): (usize, usize, usize),
                m: &[Mask; NV],
            ) -> [[V; NV]; R] {
                let mut acc: [[V; NV]; R] = std::array::from_fn(|r| {
                    std::array::from_fn(|v| load_m(seed.at(r, j + v * LANES), m[v]))
                });
                for t in 0..k {
                    for v in 0..NV {
                        let bt = load_m(b.add(t * w + j + v * LANES), m[v]);
                        for (r, row) in acc.iter_mut().enumerate() {
                            row[v] = fma(splat(*a.at(r, t)), bt, row[v]);
                        }
                    }
                }
                acc
            }

            /// [`product`] at `w == LANES / 2`, two rows per register: `P`
            /// registers over rows `2p` (low half) and `2p + 1` (high half),
            /// every load unmasked.
            ///
            /// # Safety
            /// As for [`product`], with `w == LANES / 2` and `2·P` rows.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn product_pairs<const P: usize>(
                seed: impl Operand,
                a: impl Operand,
                b: *const f32,
                k: usize,
            ) -> [V; P] {
                let mut acc: [V; P] =
                    std::array::from_fn(|p| load_halves(seed.at(2 * p, 0), seed.at(2 * p + 1, 0)));
                for t in 0..k {
                    let bt = load_dup(b.add(t * (LANES / 2)));
                    for (p, reg) in acc.iter_mut().enumerate() {
                        let at = splat_halves(*a.at(2 * p, t), *a.at(2 * p + 1, t));
                        *reg = fma(at, bt, *reg);
                    }
                }
                acc
            }

            /// The masks of a block of `NV` registers at column `j` of a
            /// `w`-wide row.
            #[inline]
            #[target_feature(enable = $feature)]
            fn block_masks<const NV: usize>(w: usize, j: usize) -> [Mask; NV] {
                std::array::from_fn(|v| lanes((w - j - v * LANES).min(LANES)))
            }

            /// `out += A·b` (`crate::kernels::matmul_acc`) over one panel of
            /// the shared dimension, `A` being `m x k` as `a` lays it out:
            /// column block by column block (up to [`BLOCK_REGS`] registers,
            /// no more than [`ACCS`] accumulators in a tile), tiles of
            /// [`MATMUL_ROWS`] rows are seeded from `out`, run through
            /// [`product`] and stored with the block masks; the rows past
            /// the last full tile take a 2-row and a 1-row tile, so no tile
            /// reaches past row `m`. At `n == LANES / 2` tiles of twice as
            /// many rows pack two rows per register ([`product_pairs`]) and
            /// leave at most one row to the blocks.
            ///
            /// # Safety
            /// This CPU runs `$feature`; `a` holds `A(i, t)` for `i < m`
            /// and `t < k`; `b` and `out` hold `k x n` and `m x n`.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn matmul_acc(
                a: Strided,
                b: *const f32,
                (m, k, n): (usize, usize, usize),
                out: *mut f32,
            ) {
                let mut i = 0;
                if 2 * n == LANES {
                    while i + 2 * MATMUL_ROWS <= m {
                        matmul_pairs::<MATMUL_ROWS>(a.skip_rows(i), b, k, out.add(i * n));
                        i += 2 * MATMUL_ROWS;
                    }
                    while i + 1 < m {
                        let rows = 1 << (m - i).ilog2();
                        let (a, out) = (a.skip_rows(i), out.add(i * n));
                        match rows {
                            4 => matmul_pairs::<2>(a, b, k, out),
                            _ => matmul_pairs::<1>(a, b, k, out),
                        }
                        i += rows;
                    }
                }
                if i < m {
                    column_blocks!(n, matmul_columns::<MATMUL_ROWS>(a, b, (i, m, k, n), out));
                }
            }

            /// Columns `j..` of rows `i0..m`: tiles of `R` rows, then the
            /// rest (fewer than [`MATMUL_ROWS`]) as a 2-row and a 1-row tile.
            /// Out of line: inlined for every block width into
            /// [`matmul_acc`], the set-up of all of them ran on every call,
            /// which the smallest products paid for.
            ///
            /// # Safety
            /// As for [`matmul_acc`]; `j < n`.
            #[inline(never)]
            #[target_feature(enable = $feature)]
            unsafe fn matmul_columns<const R: usize, const NV: usize>(
                a: Strided,
                b: *const f32,
                (i0, m, k, n): (usize, usize, usize, usize),
                out: *mut f32,
                j: usize,
            ) {
                let mut i = i0;
                while i + R <= m {
                    matmul_block::<R, NV>(a.skip_rows(i), b, (k, n, j), out.add(i * n));
                    i += R;
                }
                while i < m {
                    let rows = 1 << (m - i).ilog2();
                    let (a, out) = (a.skip_rows(i), out.add(i * n));
                    match rows {
                        2 => matmul_block::<2, NV>(a, b, (k, n, j), out),
                        _ => matmul_block::<1, NV>(a, b, (k, n, j), out),
                    }
                    i += rows;
                }
            }

            /// Columns `j..j + NV·LANES` of `R` matmul rows, `out` at the
            /// first.
            ///
            /// # Safety
            /// As for [`matmul_acc`], for the tile's rows; `j < n`.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn matmul_block<const R: usize, const NV: usize>(
                a: Strided,
                b: *const f32,
                (k, n, j): (usize, usize, usize),
                out: *mut f32,
            ) {
                let m = block_masks::<NV>(n, j);
                let seed = Strided {
                    a: out,
                    row: n,
                    step: 1,
                };
                let acc = product::<R, NV>(seed, a, b, (k, n, j), &m);
                for (r, row) in acc.iter().enumerate() {
                    for (v, &reg) in row.iter().enumerate() {
                        store_m(out.add(r * n + j + v * LANES), m[v], reg);
                    }
                }
            }

            /// `2·P` matmul rows at `n == LANES / 2`, `out` at the first.
            ///
            /// # Safety
            /// As for [`matmul_acc`], for the tile's rows.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn matmul_pairs<const P: usize>(
                a: Strided,
                b: *const f32,
                k: usize,
                out: *mut f32,
            ) {
                let seed = Strided {
                    a: out,
                    row: LANES / 2,
                    step: 1,
                };
                let acc = product_pairs::<P>(seed, a, b, k);
                for (p, &reg) in acc.iter().enumerate() {
                    store(out.add(p * LANES), LANES, reg);
                }
            }

            /// One tile's rows: `TILE` consecutive active rows, the last
            /// one standing in for the rows past the end of the list (see
            /// [`gru_step`]).
            struct Rows<const R: usize> {
                /// The state row each advances (read, then written by the
                /// blend).
                h: [*mut f32; R],
                /// The table row each reads, `[px_z | px_r | px_c]`.
                px: [*const f32; R],
                /// `[z | r]`, the tile's own scratch row.
                zr: [*mut f32; R],
                /// `r ⊙ h`, the tile's own scratch row.
                rh: [*mut f32; R],
            }

            /// What every tile of one step shares.
            struct Tile<'a> {
                op: &'a GruOperands<'a>,
                /// The list position of the tile's first row.
                k0: usize,
                /// How many of its rows are in the list.
                valid: usize,
                saved: Option<[*mut f32; 3]>,
            }

            /// The fused GRU step over tiles of active rows: per tile, the
            /// gate product seeded from the table rows and read from the
            /// state rows, bias and sigmoid in registers; `r ⊙ h`; the
            /// candidate product, bias and tanh in registers; the blend
            /// stored into the state rows. Every element takes the scalar
            /// form's operations in its order (`crate::kernels::gru_step`).
            ///
            /// A tile is [`ACCS`] accumulators of the gate product: its
            /// height is the largest power of two with that many at the
            /// gate row's width (capped at [`BLOCK_REGS`] registers, the
            /// width of one column block). The list's last, shorter tile
            /// takes the next power of two above its rows, and its rows
            /// past the list repeat the list's last row: they compute what
            /// that row computes and store nothing. At `2·hidden == LANES`
            /// the candidate packs two rows into each register.
            ///
            /// # Safety
            /// This CPU runs `$feature`; `op` passed the dispatcher's
            /// checks, so every row and id is in range; `state` holds every
            /// row of `op.rows`; `saved`, when given, points at `a·hidden`,
            /// `a·2·hidden` and `a·hidden` floats (`a` active rows);
            /// `scratch` at `GRU_TILE_MAX · 3 · hidden`.
            #[target_feature(enable = $feature)]
            pub(crate) unsafe fn gru_step(
                op: &GruOperands<'_>,
                state: *mut f32,
                saved: Option<[*mut f32; 3]>,
                scratch: *mut f32,
            ) {
                let (h, a) = (op.hidden, op.rows.len());
                let gate_regs = (2 * h).div_ceil(LANES).min(BLOCK_REGS);
                let tile = 1 << (ACCS / gate_regs).ilog2();
                let paired = 2 * h == LANES;
                let mut k0 = 0;
                while k0 < a {
                    let valid = (a - k0).min(tile);
                    let t = Tile {
                        op,
                        k0,
                        valid,
                        saved,
                    };
                    match valid.next_power_of_two().max(1 + paired as usize) {
                        1 => gru_tile::<1>(&t, state, scratch, paired),
                        2 => gru_tile::<2>(&t, state, scratch, paired),
                        4 => gru_tile::<4>(&t, state, scratch, paired),
                        8 => gru_tile::<8>(&t, state, scratch, paired),
                        _ if const { 16 <= ACCS } => gru_tile::<16>(&t, state, scratch, paired),
                        _ => unreachable!(),
                    }
                    k0 += valid;
                }
            }

            /// One tile of [`gru_step`], `R` rows high.
            ///
            /// # Safety
            /// As for [`gru_step`], with `t` one of its tiles:
            /// `t.k0 + t.valid` active rows at most, `t.valid ≥ 1`.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn gru_tile<const R: usize>(
                t: &Tile<'_>,
                state: *mut f32,
                scratch: *mut f32,
                paired: bool,
            ) {
                let (op, h) = (t.op, t.op.hidden);
                let k = |r: usize| t.k0 + r.min(t.valid - 1);
                let rows = Rows::<R> {
                    h: std::array::from_fn(|r| state.add(op.rows[k(r)] * h)),
                    px: std::array::from_fn(|r| op.table.as_ptr().add(op.ids[k(r)] * 3 * h)),
                    zr: std::array::from_fn(|r| scratch.add(r * 2 * h)),
                    rh: std::array::from_fn(|r| scratch.add((2 * GRU_TILE_MAX + r) * h)),
                };

                // [z | r] = σ(px_zr + h·W_h,zr + b_zr), block by block.
                column_blocks!(2 * h, gate_block::<R>(op, &rows));
                for r in 0..R {
                    let (rh, zr, hr) = (rows.rh[r], rows.zr[r].add(h), rows.h[r]);
                    for_lanes!(h, |i, len| store(
                        rh.add(i),
                        len,
                        mul(load(zr.add(i), len), load(hr.add(i), len))
                    ));
                }
                // What the adjoint reads, before the blend overwrites h.
                if let Some([sh, szr, _]) = t.saved {
                    for r in 0..t.valid {
                        let k = t.k0 + r;
                        std::ptr::copy_nonoverlapping(rows.h[r], sh.add(k * h), h);
                        std::ptr::copy_nonoverlapping(rows.zr[r], szr.add(k * 2 * h), 2 * h);
                    }
                }

                // c = tanh(px_c + (r ⊙ h)·W_h,c + b_c), then the blend.
                if paired {
                    match R {
                        2 => cand_pairs::<1, R>(t, &rows),
                        4 => cand_pairs::<2, R>(t, &rows),
                        8 => cand_pairs::<4, R>(t, &rows),
                        _ => cand_pairs::<8, R>(t, &rows),
                    }
                } else {
                    column_blocks!(h, cand_block::<R>(t, &rows));
                }
            }

            /// One column block of `[z | r]` into the tile's scratch rows.
            ///
            /// # Safety
            /// As for [`gru_tile`]; `j < 2·hidden`.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn gate_block<const R: usize, const NV: usize>(
                op: &GruOperands<'_>,
                rows: &Rows<R>,
                j: usize,
            ) {
                let (h, w) = (op.hidden, 2 * op.hidden);
                let m = block_masks::<NV>(w, j);
                let a = rows.h.map(|p| p as *const f32);
                let acc = product::<R, NV>(rows.px, a, op.w_h_zr.as_ptr(), (h, w, j), &m);
                for v in 0..NV {
                    let off = j + v * LANES;
                    let bias = load_m(op.b.as_ptr().add(off), m[v]);
                    for (row, &zr) in acc.iter().zip(&rows.zr) {
                        store_m(zr.add(off), m[v], sigmoid(add(row[v], bias)));
                    }
                }
            }

            /// One column block of the candidate, and the blend of its
            /// columns into the state rows (the list's rows only).
            ///
            /// # Safety
            /// As for [`gru_tile`], after its gate blocks and `r ⊙ h`;
            /// `j < hidden`.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn cand_block<const R: usize, const NV: usize>(
                t: &Tile<'_>,
                rows: &Rows<R>,
                j: usize,
            ) {
                let (op, h) = (t.op, t.op.hidden);
                let m = block_masks::<NV>(h, j);
                let seed = rows.px.map(|p| p.add(2 * h));
                let a = rows.rh.map(|p| p as *const f32);
                let acc = product::<R, NV>(seed, a, op.w_h_c.as_ptr(), (h, h, j), &m);
                let one = splat(1.0);
                for v in 0..NV {
                    let off = j + v * LANES;
                    let bias = load_m(op.b.as_ptr().add(2 * h + off), m[v]);
                    for (r, row) in acc.iter().enumerate() {
                        let c = tanh(add(row[v], bias));
                        let z = load_m(rows.zr[r].add(off), m[v]);
                        let hv = load_m(rows.h[r].add(off), m[v]);
                        let out = add(mul(sub(one, z), hv), mul(z, c));
                        if r < t.valid {
                            if let Some([_, _, sc]) = t.saved {
                                store_m(sc.add((t.k0 + r) * h + off), m[v], c);
                            }
                            store_m(rows.h[r].add(off), m[v], out);
                        }
                    }
                }
            }

            /// The candidate and the blend at `hidden == LANES / 2`, two
            /// rows per register ([`product_pairs`]), every load and store
            /// unmasked.
            ///
            /// # Safety
            /// As for [`cand_block`], with `hidden == LANES / 2` and
            /// `R == 2·P`.
            #[inline]
            #[target_feature(enable = $feature)]
            unsafe fn cand_pairs<const P: usize, const R: usize>(t: &Tile<'_>, rows: &Rows<R>) {
                let (op, h) = (t.op, t.op.hidden);
                let seed = rows.px.map(|p| p.add(2 * h));
                let a = rows.rh.map(|p| p as *const f32);
                let acc = product_pairs::<P>(seed, a, op.w_h_c.as_ptr(), h);
                let bias = load_dup(op.b.as_ptr().add(2 * h));
                let one = splat(1.0);
                for (p, &reg) in acc.iter().enumerate() {
                    let (lo, hi) = (2 * p, 2 * p + 1);
                    let c = tanh(add(reg, bias));
                    let z = load_halves(rows.zr[lo], rows.zr[hi]);
                    let hv = load_halves(rows.h[lo], rows.h[hi]);
                    let out = add(mul(sub(one, z), hv), mul(z, c));
                    if let Some([_, _, sc]) = t.saved {
                        if lo < t.valid {
                            store_lo(sc.add((t.k0 + lo) * h), c);
                        }
                        if hi < t.valid {
                            store_hi(sc.add((t.k0 + hi) * h), c);
                        }
                    }
                    if lo < t.valid {
                        store_lo(rows.h[lo], out);
                    }
                    if hi < t.valid {
                        store_hi(rows.h[hi], out);
                    }
                }
            }
        };
    }

    /// 8-lane AVX2 + FMA lane primitives and the template over them.
    #[cfg(target_arch = "x86_64")]
    pub(crate) mod avx2 {
        use std::arch::x86_64::*;

        type V = __m256;
        const LANES: usize = 8;
        /// Accumulators a register tile keeps (of 16 registers).
        const ACCS: usize = 8;

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
        /// The first `len` (1..=8) lanes, for [`load_m`] and [`store_m`].
        type Mask = (usize, __m256i);
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn lanes(len: usize) -> Mask {
            (len, mask(len))
        }
        /// [`load`] with its mask made once.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load_m(p: *const f32, m: Mask) -> V {
            if m.0 == LANES {
                _mm256_loadu_ps(p)
            } else {
                _mm256_maskload_ps(p, m.1)
            }
        }
        /// [`store`] with its mask made once.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn store_m(p: *mut f32, m: Mask, v: V) {
            if m.0 == LANES {
                _mm256_storeu_ps(p, v)
            } else {
                _mm256_maskstore_ps(p, m.1, v)
            }
        }
        /// Four floats at `lo` in the low half, four at `hi` in the high.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load_halves(lo: *const f32, hi: *const f32) -> V {
            _mm256_set_m128(_mm_loadu_ps(hi), _mm_loadu_ps(lo))
        }
        /// The four floats at `p` in both halves.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load_dup(p: *const f32) -> V {
            let x = _mm_loadu_ps(p);
            _mm256_set_m128(x, x)
        }
        /// `lo` in the low half's lanes, `hi` in the high half's.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        fn splat_halves(lo: f32, hi: f32) -> V {
            _mm256_blend_ps::<0xf0>(splat(lo), splat(hi))
        }
        /// Store the low half of `v` (four floats) at `p`.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn store_lo(p: *mut f32, v: V) {
            _mm_storeu_ps(p, _mm256_castps256_ps128(v))
        }
        /// Store the high half of `v` (four floats) at `p`.
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn store_hi(p: *mut f32, v: V) {
            _mm_storeu_ps(p, _mm256_extractf128_ps::<1>(v))
        }

        lane_template!("avx2,fma");
    }

    /// 16-lane AVX-512 lane primitives (`avx512f` only) and the template
    /// over them.
    #[cfg(target_arch = "x86_64")]
    pub(crate) mod avx512 {
        use std::arch::x86_64::*;

        type V = __m512;
        const LANES: usize = 16;
        /// Accumulators a register tile keeps (of 32 registers).
        const ACCS: usize = 16;

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
        /// The first `len` (1..=16) lanes, for [`load_m`] and [`store_m`].
        type Mask = __mmask16;
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn lanes(len: usize) -> Mask {
            ((1u32 << len) - 1) as __mmask16
        }
        /// [`load`] with its mask made once.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn load_m(p: *const f32, m: Mask) -> V {
            _mm512_maskz_loadu_ps(m, p)
        }
        /// [`store`] with its mask made once.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn store_m(p: *mut f32, m: Mask, v: V) {
            _mm512_mask_storeu_ps(p, m, v)
        }
        /// Eight floats at `lo` in the low half, eight at `hi` in the high.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn load_halves(lo: *const f32, hi: *const f32) -> V {
            let lo = _mm512_castpd256_pd512(_mm256_castps_pd(_mm256_loadu_ps(lo)));
            let hi = _mm256_castps_pd(_mm256_loadu_ps(hi));
            _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, hi))
        }
        /// The eight floats at `p` in both halves.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn load_dup(p: *const f32) -> V {
            _mm512_castpd_ps(_mm512_broadcast_f64x4(_mm256_castps_pd(_mm256_loadu_ps(p))))
        }
        /// `lo` in the low half's lanes, `hi` in the high half's.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn splat_halves(lo: f32, hi: f32) -> V {
            _mm512_mask_blend_ps(0xff00, splat(lo), splat(hi))
        }
        /// Store the low half of `v` (eight floats) at `p`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn store_lo(p: *mut f32, v: V) {
            _mm256_storeu_ps(p, _mm512_castps512_ps256(v))
        }
        /// Store the high half of `v` (eight floats) at `p`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn store_hi(p: *mut f32, v: V) {
            let hi = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v));
            _mm256_storeu_ps(p, _mm256_castpd_ps(hi))
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
        fn deriv_fusions_match_scalar_bitwise() {
            for tier in tiers("deriv_fusions_match_scalar_bitwise") {
                for n in LENGTHS {
                    let g = ramp(n);
                    let x = ramp(n).iter().map(|v| v * 0.13).collect::<Vec<_>>();
                    let (mut ys, mut yt) = (vec![0.0f32; n], vec![0.0f32; n]);
                    sigmoid_map_scalar(&x, &mut ys);
                    tanh_map_scalar(&x, &mut yt);

                    let mut a = vec![0.0f32; n];
                    let mut b = vec![0.0f32; n];
                    selu_deriv_mul_at(tier, &g, &x, &mut a);
                    selu_deriv_mul_scalar(&g, &x, &mut b);
                    assert_eq!(bits(&a), bits(&b), "selu' {tier:?} n={n}");

                    let (mut a, mut b) = (g.clone(), g.clone());
                    sigmoid_deriv_mul_inplace_at(tier, &mut a, &ys);
                    sigmoid_deriv_mul_inplace_scalar(&mut b, &ys);
                    assert_eq!(bits(&a), bits(&b), "sigmoid' {tier:?} n={n}");

                    let (mut a, mut b) = (g.clone(), g.clone());
                    tanh_deriv_mul_inplace_at(tier, &mut a, &yt);
                    tanh_deriv_mul_inplace_scalar(&mut b, &yt);
                    assert_eq!(bits(&a), bits(&b), "tanh' {tier:?} n={n}");
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
            // and every tile path (4-, 2- and 1-row tiles, column blocks,
            // rows packed two to a register) must fuse.
            let x = 1.0 + 2f32.powi(-12);
            let fused = 2f32.powi(-11) + 2f32.powi(-24);
            let tiers = tiers("every_tier_rounds_each_multiply_add_once");
            for &tier in &tiers {
                for (m, k, n) in [
                    (1, 1, 1),
                    (2, 5, 17),
                    (7, 4, 33),
                    (4, 7, 64),
                    (3, 9, 8),
                    (9, 3, 4),
                    (11, 2, 8),
                ] {
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
