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
                let t = g.tanh(y);
                g.mean(t)
            },
            &[rand_matrix(1, 3, 4), rand_matrix(2, 4, 2)],
            EPS,
        );
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_bias_and_activations() {
        for activation in ["sigmoid", "tanh", "selu", "softplus"] {
            let report = check_gradients(
                |g, vars| {
                    let y = g.add_bias(vars[0], vars[1]);
                    let a = match activation {
                        "sigmoid" => g.sigmoid(y),
                        "tanh" => g.tanh(y),
                        "selu" => g.selu(y),
                        _ => g.softplus(y),
                    };
                    g.mean(a)
                },
                &[rand_matrix(3, 4, 3), rand_matrix(4, 1, 3)],
                EPS,
            );
            assert!(report.passes(TOL), "{activation}: {report:?}");
        }
    }

    #[test]
    fn check_relu_away_from_kink() {
        // Shift inputs away from 0 where ReLU is non-differentiable.
        let x = rand_matrix(5, 2, 3).add_scalar(2.0);
        let report = check_gradients(
            |g, vars| {
                let y = g.relu(vars[0]);
                g.sum(y)
            },
            &[x],
            EPS,
        );
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_structural_ops() {
        let report = check_gradients(
            |g, vars| {
                let gathered = g.gather_rows(vars[0], &[0, 2, 1, 2, 0]);
                let summed = g.segment_sum(gathered, &[0, 0, 1, 1, 2], 3);
                let s = g.sigmoid(summed);
                g.mean(s)
            },
            &[rand_matrix(6, 3, 3)],
            EPS,
        );
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_concat_slice_mask() {
        let mask = Matrix::column_vector(&[1.0, 0.0, 1.0]);
        let report = check_gradients(
            move |g, vars| {
                let cat = g.concat_cols(vars[0], vars[1]);
                let masked = g.mask_rows(cat, &mask);
                let left = g.slice_cols(masked, 0, 2);
                let sq = g.square(left);
                g.mean(sq)
            },
            &[rand_matrix(7, 3, 2), rand_matrix(8, 3, 2)],
            EPS,
        );
        assert!(report.passes(TOL), "{report:?}");
    }

    #[test]
    fn check_gru_like_composite() {
        // A hand-rolled GRU step: validates the exact op mix the models use.
        let report = check_gradients(
            |g, vars| {
                let (h, x, wz, wr, wh) = (vars[0], vars[1], vars[2], vars[3], vars[4]);
                let hx = g.concat_cols(h, x);
                let zr_lin = g.matmul(hx, wz);
                let z = g.sigmoid(zr_lin);
                let r_lin = g.matmul(hx, wr);
                let r = g.sigmoid(r_lin);
                let rh = g.mul(r, h);
                let rhx = g.concat_cols(rh, x);
                let c_lin = g.matmul(rhx, wh);
                let c = g.tanh(c_lin);
                let zc = g.mul(z, c);
                let omz = g.one_minus(z);
                let zh = g.mul(omz, h);
                let h_new = g.add(zh, zc);
                let sq = g.square(h_new);
                g.mean(sq)
            },
            &[
                rand_matrix(11, 2, 3), // h
                rand_matrix(12, 2, 2), // x
                rand_matrix(13, 5, 3), // wz
                rand_matrix(14, 5, 3), // wr
                rand_matrix(15, 5, 3), // wh
            ],
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
    /// W_r, b_r, W_c, b_c, h, x, px`: the step reads `x·W_x + px`, so `px`
    /// sees the step's own input gradient and the `W_x` rows of the kernels
    /// see theirs through the projection.
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
    /// `(cell, h, x·W_x + px)`.
    fn gru_packed(g: &mut Graph, v: &[Var]) -> (GruVars, Var, Var) {
        let vars = g.gru_pack([v[0], v[1], v[2], v[3], v[4], v[5]]);
        let projected = g.matmul(v[7], vars.w_x);
        let px = g.add(projected, v[8]);
        (vars, v[6], px)
    }

    /// The loss of every table row, `sum((out ∘ w)²)` with a fixed random
    /// `w` in `[0.5, 1.5]`: every output element carries an O(1) gradient of
    /// its own, so the absolute tolerance is a real bound on every weight,
    /// bias, state and input gradient, and a row scattered to the wrong
    /// place shows.
    fn weighted_sum_of_squares(g: &mut Graph, out: Var) -> Var {
        let (rows, cols) = g.value(out).shape();
        let w = g.constant(Prng::new(61).uniform_matrix(rows, cols, 0.5, 1.5));
        let weighted = g.mul(out, w);
        let sq = g.square(weighted);
        g.sum(sq)
    }

    /// `x` pushed at least 0.2 away from 0, where `relu` and `selu` have no
    /// derivative.
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
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::MatMul { .. } => "matmul",
            Op::AddBias { .. } => "add_bias",
            Op::Affine { .. } => "affine",
            Op::Sigmoid(_) => "sigmoid",
            Op::Tanh(_) => "tanh",
            Op::Relu(_) => "relu",
            Op::Selu(_) => "selu",
            Op::Softplus(_) => "softplus",
            Op::Square(_) => "square",
            Op::ConcatCols(..) => "concat_cols",
            Op::SliceCols { .. } => "slice_cols",
            Op::GatherRows { .. } => "gather_rows",
            Op::SegmentSum { .. } => "segment_sum",
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
        // Nine active rows of 13 (not a multiple of 4; four pass through).
        const GRU_ROWS: [usize; 9] = [0, 1, 3, 4, 7, 8, 10, 11, 12];
        vec![
            OpCase {
                name: "leaf/param_times_constant",
                inputs: vec![m(101, 3, 2)],
                record: |_, v| v[0],
            },
            OpCase {
                name: "add/single_row",
                inputs: vec![m(102, 1, 3), m(103, 1, 3)],
                record: |g, v| g.add(v[0], v[1]),
            },
            OpCase {
                name: "sub/five_rows",
                inputs: vec![m(104, 5, 3), m(105, 5, 3)],
                record: |g, v| g.sub(v[0], v[1]),
            },
            OpCase {
                name: "mul/five_rows",
                inputs: vec![m(106, 5, 3), m(107, 5, 3)],
                record: |g, v| g.mul(v[0], v[1]),
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
                name: "affine/five_rows",
                inputs: vec![m(114, 5, 3)],
                record: |g, v| g.affine(v[0], -1.5, 0.25),
            },
            OpCase {
                name: "sigmoid/five_rows",
                inputs: vec![m(115, 5, 3)],
                record: |g, v| g.sigmoid(v[0]),
            },
            OpCase {
                name: "tanh/five_rows",
                inputs: vec![m(116, 5, 3)],
                record: |g, v| g.tanh(v[0]),
            },
            OpCase {
                name: "relu/five_rows",
                inputs: vec![off_zero(m(117, 5, 3))],
                record: |g, v| g.relu(v[0]),
            },
            OpCase {
                name: "selu/five_rows",
                inputs: vec![off_zero(m(75, 5, 3))],
                record: |g, v| g.selu(v[0]),
            },
            OpCase {
                name: "softplus/five_rows",
                inputs: vec![m(118, 5, 3)],
                record: |g, v| g.softplus(v[0]),
            },
            OpCase {
                name: "square/single_row",
                inputs: vec![m(120, 1, 3)],
                record: |g, v| g.square(v[0]),
            },
            OpCase {
                name: "concat_cols/single_row",
                inputs: vec![m(122, 1, 2), m(123, 1, 3)],
                record: |g, v| g.concat_cols(v[0], v[1]),
            },
            OpCase {
                name: "slice_cols/inner_columns",
                inputs: vec![m(124, 5, 4)],
                record: |g, v| g.slice_cols(v[0], 1, 3),
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
                // Segments 1 and 3 receive nothing.
                name: "segment_sum/empty_segments",
                inputs: vec![m(125, 5, 3)],
                record: |g, v| g.segment_sum(v[0], &[0, 0, 2, 2, 2], 4),
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
                name: "gru_step/nine_rows_of_thirteen",
                inputs: gru_inputs(31, 13, GRU_ROWS.len()),
                record: |g, v| {
                    let (vars, h, px) = gru_packed(g, v);
                    g.gru_step_rows(&vars, h, px, &GRU_ROWS)
                },
            },
            OpCase {
                name: "gru_step/single_row",
                inputs: gru_inputs(33, 5, 1),
                record: |g, v| {
                    let (vars, h, px) = gru_packed(g, v);
                    g.gru_step_rows(&vars, h, px, &[4])
                },
            },
            OpCase {
                // Every row passes through; the parameters get zero.
                name: "gru_step/no_active_row",
                inputs: gru_inputs(35, 5, 0),
                record: |g, v| {
                    let (vars, h, px) = gru_packed(g, v);
                    g.gru_step_rows(&vars, h, px, &[])
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
                weighted_sum_of_squares(g, out)
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
