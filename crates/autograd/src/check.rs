//! Finite-difference gradient checking.
//!
//! Every op's adjoint in this crate, and every layer in `rn-nn`, is validated
//! against a central-difference approximation through [`check_gradients`].
//! Keeping the checker here (rather than in test code) lets downstream crates
//! reuse it for their own composite functions.

use crate::{Graph, Var};
use rn_tensor::Matrix;

/// Result of a gradient check: the worst absolute and relative deviation
/// observed across all checked elements.
#[derive(Debug, Clone, Copy)]
pub struct CheckReport {
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_err: f64,
    /// Largest relative difference (normalized by magnitude, floored at 1).
    pub max_rel_err: f64,
    /// Number of elements compared.
    pub elements: usize,
}

impl CheckReport {
    /// True when the analytic gradient is within `tol` of the numeric one.
    pub fn passes(&self, tol: f64) -> bool {
        self.max_rel_err <= tol
    }
}

/// Compare the analytic gradients of `f` with central finite differences.
///
/// `f` receives a fresh [`Graph`] plus the registered input [`Var`]s (in the
/// order of `inputs`) and must return a scalar loss `Var`. The inputs are
/// registered as differentiable parameters. `eps` is the perturbation step —
/// `1e-2` to `1e-3` works well for f32.
///
/// Panics if `f` returns a non-scalar node.
pub fn check_gradients(
    f: impl Fn(&mut Graph, &[Var]) -> Var,
    inputs: &[Matrix],
    eps: f32,
) -> CheckReport {
    // Analytic pass.
    let mut g = Graph::new();
    let vars: Vec<Var> = inputs.iter().map(|m| g.param(m.clone())).collect();
    let loss = f(&mut g, &vars);
    g.backward(loss);
    let analytic: Vec<Matrix> = vars
        .iter()
        .zip(inputs)
        .map(|(&v, m)| {
            g.grad(v)
                .cloned()
                .unwrap_or_else(|| Matrix::zeros(m.rows(), m.cols()))
        })
        .collect();

    // Numeric pass: perturb each element of each input.
    let eval = |perturbed: &[Matrix]| -> f64 {
        let mut g = Graph::new();
        let vars: Vec<Var> = perturbed.iter().map(|m| g.param(m.clone())).collect();
        let loss = f(&mut g, &vars);
        g.value(loss).get(0, 0) as f64
    };

    let mut max_abs_err = 0.0f64;
    let mut max_rel_err = 0.0f64;
    let mut elements = 0usize;
    let mut work: Vec<Matrix> = inputs.to_vec();
    for (i, input) in inputs.iter().enumerate() {
        for r in 0..input.rows() {
            for c in 0..input.cols() {
                let orig = input.get(r, c);
                work[i].set(r, c, orig + eps);
                let up = eval(&work);
                work[i].set(r, c, orig - eps);
                let down = eval(&work);
                work[i].set(r, c, orig);
                let numeric = (up - down) / (2.0 * eps as f64);
                let a = analytic[i].get(r, c) as f64;
                let abs_err = (a - numeric).abs();
                let rel_err = abs_err / numeric.abs().max(a.abs()).max(1.0);
                max_abs_err = max_abs_err.max(abs_err);
                max_rel_err = max_rel_err.max(rel_err);
                elements += 1;
            }
        }
    }
    CheckReport {
        max_abs_err,
        max_rel_err,
        elements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Op;
    use crate::GruVars;
    use rn_tensor::Prng;

    const TOL: f64 = 2e-2;
    const EPS: f32 = 1e-2;
    /// Absolute bound for the op table, whose gradients are O(1).
    const ABS_TOL: f64 = 5e-3;

    fn rand_matrix(seed: u64, rows: usize, cols: usize) -> Matrix {
        Prng::new(seed).uniform_matrix(rows, cols, -1.0, 1.0)
    }

    #[test]
    fn check_matmul_chain() {
        let report = check_gradients(
            |g, vars| {
                let y = g.matmul(vars[0], vars[1]);
                let t = g.selu(y);
                g.mean(t)
            },
            &[rand_matrix(1, 3, 4), rand_matrix(2, 4, 2)],
            EPS,
        );
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_bias_and_activation() {
        let report = check_gradients(
            |g, vars| {
                let y = g.add_bias(vars[0], vars[1]);
                let a = g.selu(y);
                g.mean(a)
            },
            &[rand_matrix(3, 4, 3), rand_matrix(4, 1, 3)],
            EPS,
        );
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_structural_ops() {
        let report = check_gradients(
            |g, vars| {
                let gathered = g.gather_rows(vars[0], &[0, 2, 1, 2, 0]);
                let acc = g.constant(Matrix::zeros(3, 3));
                let summed = g.segment_acc_rows(acc, gathered, &[0, 1, 2, 3, 4], &[0, 0, 1, 1, 2]);
                let s = g.selu(summed);
                g.mean(s)
            },
            &[rand_matrix(6, 3, 3)],
            EPS,
        );
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_pack_and_mask() {
        let mask = Matrix::column_vector(&[1.0, 0.0, 1.0]);
        let report = check_gradients(
            move |g, vars| {
                let packed = g.pack_cols(&[vars[0], vars[1]], 1, 4);
                let masked = g.mask_rows(packed, &mask);
                let sq = g.square(masked);
                g.mean(sq)
            },
            &[rand_matrix(7, 4, 2), rand_matrix(8, 4, 2)],
            EPS,
        );
        assert!(report.passes(TOL), "{report:?}");
    }

    /// Width of the state and of the input in the GRU step checks:
    /// `hidden = 6` makes every product's width `% 4 != 0` and leaves two
    /// output rows of the weight-gradient kernel to its 1-row tail.
    const GRU_HIDDEN: usize = 6;
    const GRU_INPUT: usize = 5;

    /// The differentiable inputs of one GRU step, in the order `W_z, b_z,
    /// W_r, b_r, W_c, b_c, h, x, px`: the step reads rows of the table
    /// `x·W_x − px`, so `px` sees the gradient the step scatters into its
    /// table and the `W_x` rows of the kernels see theirs through the
    /// projection.
    fn gru_inputs(seed: u64, h_rows: usize, x_rows: usize) -> Vec<Matrix> {
        let wide = GRU_HIDDEN + GRU_INPUT;
        let shapes = [
            (wide, GRU_HIDDEN),
            (1, GRU_HIDDEN),
            (wide, GRU_HIDDEN),
            (1, GRU_HIDDEN),
            (wide, GRU_HIDDEN),
            (1, GRU_HIDDEN),
            (h_rows, GRU_HIDDEN),
            (x_rows, GRU_INPUT),
            (x_rows, 3 * GRU_HIDDEN),
        ];
        shapes
            .iter()
            .enumerate()
            .map(|(i, &(r, c))| rand_matrix(seed + i as u64, r, c))
            .collect()
    }

    /// Pack [`gru_inputs`]' first six vars as a cell and project its `x`:
    /// `(cell, h, x·W_x − px)`.
    fn gru_packed(g: &mut Graph, v: &[Var]) -> (GruVars, Var, Var) {
        let vars = g.gru_pack([v[0], v[1], v[2], v[3], v[4], v[5]]);
        let projected = g.matmul(v[7], vars.w_x);
        let px = g.sub(projected, v[8]);
        (vars, v[6], px)
    }

    /// The loss of every table row, `sum((out − w)²)` with a fixed random
    /// `w` in `[0.5, 1.5]`: every output element carries an O(1) gradient of
    /// its own, `2·(out − w)`, so the absolute tolerance is a real bound on
    /// every weight, bias, state and input gradient, and a row scattered to
    /// the wrong place shows.
    fn shifted_sum_of_squares(g: &mut Graph, out: Var) -> Var {
        let (rows, cols) = g.value(out).shape();
        let w = g.constant(Prng::new(61).uniform_matrix(rows, cols, 0.5, 1.5));
        let shifted = g.sub(out, w);
        let sq = g.square(shifted);
        g.sum(sq)
    }

    /// `x` pushed at least 0.2 away from 0, where `selu` has no derivative.
    fn off_zero(x: Matrix) -> Matrix {
        x.map(|v| v + 0.2 * v.signum())
    }

    /// One row of [`op_table`]. `name` is `<row>/<shape>`, where `<row>` is
    /// what [`table_row`] answers for the variant the row is there for.
    struct OpCase {
        name: &'static str,
        inputs: Vec<Matrix>,
        /// Record the op on the inputs and return its output.
        record: fn(&mut Graph, &[Var]) -> Var,
    }

    /// The table row that checks `op`'s adjoint. No wildcard arm: a new
    /// variant does not compile until it names a row here, and
    /// `check_every_op_variant_on_ragged_shapes` fails until [`op_table`]
    /// has that row and the row records the variant.
    fn table_row(op: &Op) -> &'static str {
        match op {
            Op::Leaf { .. } => "leaf",
            Op::Sub(..) => "sub",
            Op::MatMul { .. } => "matmul",
            Op::AddBias { .. } => "add_bias",
            Op::Selu(_) => "selu",
            Op::Square(_) => "square",
            Op::GatherRows { .. } => "gather_rows",
            Op::MaskRows { .. } => "mask_rows",
            Op::Sum(_) => "sum",
            Op::Mean(_) => "mean",
            Op::GruStep { .. } => "gru_step",
            Op::PackCols { .. } => "pack_cols",
            Op::SegmentAccRows { .. } => "segment_acc_rows",
        }
    }

    /// Every op on the shapes message passing produces at its edges: an
    /// index list that is empty, has one entry or skips entities; a segment
    /// nothing lands in; a mask that hides every row; row counts that are
    /// not a multiple of the kernels' 4-row blocks. Seven entity rows and
    /// eight dense (path) rows where an op indexes between the two spaces.
    fn op_table() -> Vec<OpCase> {
        let m = rand_matrix;
        // Entities 1, 3 and 5 are referenced by no row; dense rows 3 and 4
        // are inactive.
        const ROWS: [usize; 6] = [0, 1, 2, 5, 6, 7];
        const IDS: [usize; 6] = [0, 2, 2, 4, 6, 4];
        // Nine active rows of 13 (not a multiple of 4; four pass through),
        // reading entities 0, 2, 4 and 6 of seven.
        const GRU_ROWS: [usize; 9] = [0, 1, 3, 4, 7, 8, 10, 11, 12];
        const GRU_IDS: [usize; 9] = [0, 2, 2, 4, 6, 4, 0, 2, 6];
        vec![
            OpCase {
                name: "leaf/param_minus_constant",
                inputs: vec![m(101, 3, 2)],
                record: |_, v| v[0],
            },
            OpCase {
                name: "sub/five_rows",
                inputs: vec![m(104, 5, 3), m(105, 5, 3)],
                record: |g, v| g.sub(v[0], v[1]),
            },
            OpCase {
                name: "matmul/five_rows",
                inputs: vec![m(71, 5, 4), m(72, 4, 3)],
                record: |g, v| g.matmul(v[0], v[1]),
            },
            OpCase {
                name: "matmul/single_row",
                inputs: vec![m(108, 1, 4), m(109, 4, 3)],
                record: |g, v| g.matmul(v[0], v[1]),
            },
            OpCase {
                name: "matmul/no_rows",
                inputs: vec![m(110, 0, 4), m(111, 4, 3)],
                record: |g, v| g.matmul(v[0], v[1]),
            },
            OpCase {
                name: "add_bias/five_rows",
                inputs: vec![m(73, 5, 3), m(74, 1, 3)],
                record: |g, v| g.add_bias(v[0], v[1]),
            },
            OpCase {
                name: "add_bias/no_rows",
                inputs: vec![m(112, 0, 3), m(113, 1, 3)],
                record: |g, v| g.add_bias(v[0], v[1]),
            },
            OpCase {
                name: "selu/five_rows",
                inputs: vec![off_zero(m(75, 5, 3))],
                record: |g, v| g.selu(v[0]),
            },
            OpCase {
                name: "square/single_row",
                inputs: vec![m(120, 1, 3)],
                record: |g, v| g.square(v[0]),
            },
            OpCase {
                name: "gather_rows/unreferenced_entities",
                inputs: vec![m(62, 7, 3)],
                record: |g, v| g.gather_rows(v[0], &IDS),
            },
            OpCase {
                name: "gather_rows/single_row",
                inputs: vec![m(62, 7, 3)],
                record: |g, v| g.gather_rows(v[0], &[2]),
            },
            OpCase {
                name: "gather_rows/empty_list",
                inputs: vec![m(62, 7, 3)],
                record: |g, v| g.gather_rows(v[0], &[]),
            },
            OpCase {
                name: "mask_rows/ragged",
                inputs: vec![m(126, 5, 3)],
                record: |g, v| {
                    let mask = Matrix::column_vector(&[1.0, 0.0, 1.0, 1.0, 0.0]);
                    g.mask_rows(v[0], &mask)
                },
            },
            OpCase {
                name: "mask_rows/all_rows_masked",
                inputs: vec![m(127, 3, 3)],
                record: |g, v| g.mask_rows(v[0], &Matrix::zeros(3, 1)),
            },
            OpCase {
                name: "sum/five_rows",
                inputs: vec![m(128, 5, 3)],
                record: |g, v| g.sum(v[0]),
            },
            OpCase {
                name: "mean/five_rows",
                inputs: vec![m(129, 5, 3)],
                record: |g, v| g.mean(v[0]),
            },
            OpCase {
                // The active rows read a 7-row table through ids that repeat
                // and never reach rows 1, 3 and 5.
                name: "gru_step/nine_rows_of_thirteen",
                inputs: gru_inputs(31, 13, 7),
                record: |g, v| {
                    let (vars, h, table) = gru_packed(g, v);
                    g.gru_step_rows(&vars, h, table, &GRU_ROWS, &GRU_IDS)
                },
            },
            OpCase {
                name: "gru_step/single_row",
                inputs: gru_inputs(33, 5, 3),
                record: |g, v| {
                    let (vars, h, table) = gru_packed(g, v);
                    g.gru_step_rows(&vars, h, table, &[4], &[1])
                },
            },
            OpCase {
                // Every row passes through; the parameters and the table
                // get zero.
                name: "gru_step/no_active_row",
                inputs: gru_inputs(35, 5, 3),
                record: |g, v| {
                    let (vars, h, table) = gru_packed(g, v);
                    g.gru_step_rows(&vars, h, table, &[], &[])
                },
            },
            OpCase {
                // Every active row reads the same table row.
                name: "gru_step/one_table_row_for_every_row",
                inputs: gru_inputs(37, 6, 2),
                record: |g, v| {
                    let (vars, h, table) = gru_packed(g, v);
                    g.gru_step_rows(&vars, h, table, &[0, 1, 2, 3, 5], &[1; 5])
                },
            },
            OpCase {
                name: "gru_step/every_row",
                inputs: gru_inputs(47, 9, 9),
                record: |g, v| {
                    let (vars, h, px) = gru_packed(g, v);
                    g.gru_step_dense(&vars, h, px)
                },
            },
            OpCase {
                // Two steps with a scatter reading the state between them:
                // the second step consumes that state and the scatter's
                // accumulator is consumed by the last one, so both adjoints
                // take the shapes they need from the op, not the value.
                name: "gru_step/two_steps_through_a_scatter",
                inputs: [
                    gru_inputs(49, 13, 7),
                    vec![m(58, 5, 3 * GRU_HIDDEN), m(59, 7, GRU_HIDDEN)],
                ]
                .concat(),
                record: |g, v| {
                    const SEGMENTS: [usize; 9] = [0, 2, 2, 4, 6, 4, 1, 0, 6];
                    const ROWS_2: [usize; 5] = [1, 2, 4, 8, 12];
                    let (vars, h, table) = gru_packed(g, v);
                    let h1 = g.gru_step_rows(&vars, h, table, &GRU_ROWS, &GRU_IDS);
                    let msgs = g.segment_acc_rows(v[10], h1, &GRU_ROWS, &SEGMENTS);
                    let h2 = g.gru_step_rows(&vars, h1, v[9], &ROWS_2, &[4, 0, 4, 1, 3]);
                    assert_eq!(g.value(h1).shape(), (0, 0), "the stepped state is consumed");
                    let out = g.segment_acc_rows(msgs, h2, &ROWS_2, &[3, 0, 6, 6, 5]);
                    assert_eq!(g.value(msgs).shape(), (0, 0), "the sum is consumed");
                    out
                },
            },
            OpCase {
                // The state is also projected, as an entity state is for the
                // path sweep: the projection's adjoint reads it, so the step
                // must copy it and leave it intact.
                name: "gru_step/dense_state_also_projected",
                inputs: [
                    gru_inputs(51, 9, 9),
                    vec![m(60, GRU_HIDDEN, 3 * GRU_HIDDEN)],
                ]
                .concat(),
                record: |g, v| {
                    let (vars, h_leaf, px) = gru_packed(g, v);
                    // A tape-owned copy, which the step could consume.
                    let h = g.mask_rows(h_leaf, &Matrix::ones(9, 1));
                    let projected = g.matmul(h, v[9]);
                    let px = g.sub(px, projected);
                    let out = g.gru_step_dense(&vars, h, px);
                    assert_eq!(g.value(h).shape(), (9, GRU_HIDDEN), "a read state is kept");
                    out
                },
            },
            OpCase {
                name: "pack_cols/row_sub_range",
                inputs: vec![m(130, 4, 2), m(131, 4, 3)],
                record: |g, v| g.pack_cols(&[v[0], v[1]], 1, 3),
            },
            OpCase {
                name: "segment_acc_rows/unreferenced_entities",
                inputs: vec![m(64, 7, 3), m(65, 8, 3)],
                record: |g, v| g.segment_acc_rows(v[0], v[1], &ROWS, &IDS),
            },
            OpCase {
                name: "segment_acc_rows/single_row",
                inputs: vec![m(64, 7, 3), m(65, 8, 3)],
                record: |g, v| g.segment_acc_rows(v[0], v[1], &[4], &[2]),
            },
            OpCase {
                name: "segment_acc_rows/empty_list",
                inputs: vec![m(64, 7, 3), m(65, 8, 3)],
                record: |g, v| g.segment_acc_rows(v[0], v[1], &[], &[]),
            },
        ]
    }

    #[test]
    fn check_every_op_variant_on_ragged_shapes() {
        let table = op_table();
        let row_of = |case: &OpCase| case.name.split('/').next().expect("a name");
        for case in &table {
            let loss = |g: &mut Graph, v: &[Var]| {
                let out = (case.record)(g, v);
                shifted_sum_of_squares(g, out)
            };
            let report = check_gradients(loss, &case.inputs, EPS);
            let elements: usize = case.inputs.iter().map(Matrix::len).sum();
            assert_eq!(report.elements, elements, "{}", case.name);
            assert!(report.max_abs_err < ABS_TOL, "{}: {report:?}", case.name);

            // The row records the variant it is named for, and every
            // variant on its tape has a row.
            let mut g = Graph::new();
            let vars: Vec<Var> = case.inputs.iter().map(|m| g.param(m.clone())).collect();
            loss(&mut g, &vars);
            assert!(
                g.ops().any(|op| table_row(op) == row_of(case)),
                "{} records no node of its variant",
                case.name
            );
            for op in g.ops() {
                assert!(
                    table.iter().any(|c| row_of(c) == table_row(op)),
                    "no table row `{}`",
                    table_row(op)
                );
            }
        }
    }

    #[test]
    fn check_losses() {
        let target = rand_matrix(21, 4, 1);
        let report = check_gradients(
            move |g, vars| {
                let t = g.constant(target.clone());
                g.mse(vars[0], t)
            },
            &[rand_matrix(22, 4, 1)],
            EPS,
        );
        assert!(report.passes(TOL), "{report:?}");
    }
}
