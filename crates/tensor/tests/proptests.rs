//! Property-based tests for the tensor substrate: algebraic identities of the
//! matrix ops and distributional sanity of the RNG.

use proptest::prelude::*;
use rn_tensor::simd::Tier;
use rn_tensor::{kernels, Matrix, Prng};

/// Strategy producing a matrix with bounded dimensions and finite values.
fn matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// Two matrices with an identical shape.
fn matrix_pair(max_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        (
            proptest::collection::vec(-10.0f32..10.0, r * c),
            proptest::collection::vec(-10.0f32..10.0, r * c),
        )
            .prop_map(move |(a, b)| (Matrix::from_vec(r, c, a), Matrix::from_vec(r, c, b)))
    })
}

/// The matmul kernels' contract spelled one element at a time:
/// `out[i][j] = fma(x, y, out[i][j])` for every shared-dimension index `t`
/// in ascending order — one `f32::mul_add`, rounded once — where `x` is
/// `a_at(i, t)` and `y` is `b[t][j]`.
fn canonical_acc(
    a_at: impl Fn(usize, usize) -> f32,
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    out: &mut [f32],
) {
    for i in 0..m {
        for j in 0..n {
            let mut o = out[i * n + j];
            for t in 0..k {
                o = a_at(i, t).mul_add(b[t * n + j], o);
            }
            out[i * n + j] = o;
        }
    }
}

/// Run both kernels at every tier this host has on seeded operands of one
/// shape (non-zero initial `out`) and hold every bit to [`canonical_acc`].
/// `out` is a clone, so its allocation ends where its last row does: a
/// masked column tail there is the case that must not touch memory.
fn assert_kernels_match_canonical_bits((m, k, n): (usize, usize, usize), seed: u64) {
    let mut rng = Prng::new(seed);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let b = rng.uniform_matrix(k, n, -2.0, 2.0).into_vec();
    let init = rng.uniform_matrix(m, n, -3.0, 3.0).into_vec();
    let a = rng.uniform_matrix(m, k, -2.0, 2.0).into_vec();
    let at = rng.uniform_matrix(k, m, -2.0, 2.0).into_vec();

    let mut want = init.clone();
    canonical_acc(|i, t| a[i * k + t], &b, (m, k, n), &mut want);
    let mut want_tn = init.clone();
    canonical_acc(|i, t| at[t * m + i], &b, (m, k, n), &mut want_tn);
    for tier in Tier::supported() {
        let mut got = init.clone();
        kernels::matmul_acc_at(tier, &a, &b, m, k, n, &mut got);
        assert_eq!(
            bits(&got),
            bits(&want),
            "matmul_acc {tier:?} m={m} k={k} n={n}"
        );

        let mut got = init.clone();
        kernels::matmul_tn_acc_at(tier, &at, &b, k, m, n, &mut got);
        assert_eq!(
            bits(&got),
            bits(&want_tn),
            "matmul_tn_acc {tier:?} m={m} k={k} n={n}"
        );
    }
}

/// Every combination of ragged extents around the register tile: row
/// counts on both sides of its 4-row height and of its 2- and 1-row
/// remainders, the 8- and 16-lane vector widths (one to six registers, the
/// masked tail of each), the adjoint's own widths and a long `k` (past one
/// panel of steps). At half a register (4 columns on AVX2, 8 on AVX-512)
/// tiles of 8 rows pack two rows per register; 7, 8, 9 and 17 rows give
/// packed tiles of every height and the row left after them.
#[test]
fn kernels_are_bitwise_equal_to_the_canonical_expression() {
    println!("tiers run: {:?}", Tier::supported().collect::<Vec<_>>());
    let widths = (1..=17).chain([24, 32, 33, 48, 64, 65, 96]);
    for n in widths {
        for m in (1..=9).chain([15, 16, 17, 31, 33, 64]) {
            for k in [0, 1, 2, 3, 4, 5, 6, 7, 130] {
                assert_kernels_match_canonical_bits((m, k, n), (m * 1000 + n * 10 + k) as u64);
            }
        }
    }
}

proptest! {
    #[test]
    fn kernels_match_canonical_expression_on_arbitrary_shapes(
        shape in (1usize..14, 0usize..24, 1usize..40),
        seed in any::<u64>(),
    ) {
        assert_kernels_match_canonical_bits(shape, seed);
    }

    #[test]
    fn addition_commutes((a, b) in matrix_pair(6)) {
        prop_assert!(a.add(&b).approx_eq(&b.add(&a), 1e-5));
    }

    #[test]
    fn hadamard_commutes((a, b) in matrix_pair(6)) {
        prop_assert!(a.mul(&b).approx_eq(&b.mul(&a), 1e-4));
    }

    #[test]
    fn subtract_self_is_zero(a in matrix(6)) {
        let z = a.sub(&a);
        prop_assert!(z.approx_eq(&Matrix::zeros(a.rows(), a.cols()), 0.0));
    }

    #[test]
    fn transpose_involution(a in matrix(6)) {
        prop_assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn matmul_identity(a in matrix(6)) {
        let id = Matrix::identity(a.cols());
        prop_assert!(a.matmul(&id).approx_eq(&a, 1e-4));
    }

    #[test]
    fn matmul_transpose_identity(a in matrix(5), cols in 1usize..5) {
        // (A B)^T == B^T A^T
        let mut rng = Prng::new(a.rows() as u64 + cols as u64);
        let b = rng.uniform_matrix(a.cols(), cols, -1.0, 1.0);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn matmul_tn_nt_consistent(a in matrix(5), n in 1usize..5) {
        let mut rng = Prng::new(17);
        let b = rng.uniform_matrix(a.rows(), n, -1.0, 1.0);
        prop_assert!(a.matmul_tn(&b).approx_eq(&a.transpose().matmul(&b), 1e-3));
        let c = rng.uniform_matrix(n, a.cols(), -1.0, 1.0);
        prop_assert!(a.matmul_nt_reference(&c).approx_eq(&a.matmul(&c.transpose()), 1e-3));
    }

    #[test]
    fn segment_sum_preserves_total(a in matrix(6), nseg in 1usize..4) {
        let segs: Vec<usize> = (0..a.rows()).map(|i| i % nseg).collect();
        let s = a.segment_sum(&segs, nseg);
        prop_assert!((s.sum() - a.sum()).abs() < 1e-3 * (1.0 + a.sum().abs()));
    }

    #[test]
    fn gather_then_segment_sum_roundtrip(a in matrix(5)) {
        // Gathering each row once and scattering back to its origin is identity.
        let idx: Vec<usize> = (0..a.rows()).collect();
        let g = a.gather_rows(&idx);
        let back = g.segment_sum(&idx, a.rows());
        prop_assert!(back.approx_eq(&a, 1e-5));
    }

    #[test]
    fn concat_slice_roundtrip((a, b) in matrix_pair(5)) {
        let cat = a.concat_cols(&b);
        prop_assert!(cat.slice_cols(0, a.cols()).approx_eq(&a, 0.0));
        prop_assert!(cat.slice_cols(a.cols(), a.cols() + b.cols()).approx_eq(&b, 0.0));
    }

    #[test]
    fn scale_distributes_over_add((a, b) in matrix_pair(5)) {
        let lhs = a.add(&b).scale(2.5);
        let rhs = a.scale(2.5).add(&b.scale(2.5));
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    #[test]
    fn rng_split_reproducible(seed in any::<u64>(), stream in any::<u64>()) {
        let parent = Prng::new(seed);
        let mut a = parent.split(stream);
        let mut b = parent.split(stream);
        for _ in 0..8 {
            prop_assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn percentile_bounded(mut values in proptest::collection::vec(-100.0f64..100.0, 1..50), p in 0.0f64..100.0) {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let v = rn_tensor::stats::percentile_sorted(&values, p);
        prop_assert!(v >= values[0] - 1e-9 && v <= values[values.len() - 1] + 1e-9);
    }

    #[test]
    fn cdf_is_monotone(values in proptest::collection::vec(-50.0f64..50.0, 1..60)) {
        let cdf = rn_tensor::stats::EmpiricalCdf::new(&values);
        let series = cdf.series(16);
        for w in series.windows(2) {
            prop_assert!(w[1].1 >= w[0].1);
        }
        prop_assert!(series.last().unwrap().1 >= 1.0 - 1e-12);
    }

    // ---- Tiled-kernel equivalence: the unrolled/blocked kernels must agree
    // ---- with the naive reference implementations on arbitrary shapes.

    #[test]
    fn tiled_matmul_matches_reference(
        (m, k, n) in (1usize..12, 1usize..20, 1usize..20),
        seed in any::<u64>(),
    ) {
        let mut rng = Prng::new(seed);
        let a = rng.uniform_matrix(m, k, -2.0, 2.0);
        let b = rng.uniform_matrix(k, n, -2.0, 2.0);
        prop_assert!(a.matmul(&b).approx_eq(&a.matmul_reference(&b), 1e-3));
    }

    #[test]
    fn tiled_matmul_tn_matches_reference(
        (k, m, n) in (1usize..20, 1usize..12, 1usize..20),
        seed in any::<u64>(),
    ) {
        let mut rng = Prng::new(seed);
        let a = rng.uniform_matrix(k, m, -2.0, 2.0);
        let b = rng.uniform_matrix(k, n, -2.0, 2.0);
        prop_assert!(a.matmul_tn(&b).approx_eq(&a.matmul_tn_reference(&b), 1e-3));
    }

    #[test]
    fn tiled_matmul_nt_matches_reference(
        (m, k, n) in (1usize..12, 1usize..20, 1usize..20),
        seed in any::<u64>(),
    ) {
        let mut rng = Prng::new(seed);
        let a = rng.uniform_matrix(m, k, -2.0, 2.0);
        let b = rng.uniform_matrix(n, k, -2.0, 2.0);
        prop_assert!(a.matmul(&b.transpose()).approx_eq(&a.matmul_nt_reference(&b), 1e-3));
    }

    #[test]
    fn into_and_acc_kernels_compose(
        (m, k, n) in (1usize..10, 1usize..16, 1usize..16),
        seed in any::<u64>(),
    ) {
        let mut rng = Prng::new(seed);
        let a = rng.uniform_matrix(m, k, -1.0, 1.0);
        let b = rng.uniform_matrix(k, n, -1.0, 1.0);
        let expect = a.matmul_reference(&b);
        let mut out = rng.uniform_matrix(m, n, -9.0, 9.0); // garbage to overwrite
        a.matmul_into(&b, &mut out);
        prop_assert!(out.approx_eq(&expect, 1e-3));
        a.matmul_acc(&b, &mut out); // out = 2*expect
        prop_assert!(out.approx_eq(&expect.scale(2.0), 1e-3));
    }
}
