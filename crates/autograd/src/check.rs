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
    use crate::{GruVars, IndexInput, ShardSplit};
    use rn_tensor::Prng;

    const TOL: f64 = 2e-2;
    const EPS: f32 = 1e-2;
    /// Absolute bound for the GRU step checks, whose gradients are O(1).
    const GRU_TOL: f64 = 5e-3;

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

    /// Sum of squares: every output element carries an O(1) gradient, so
    /// the absolute tolerance below is a real bound on every weight, bias,
    /// state and input gradient.
    fn sum_of_squares(g: &mut Graph, out: Var) -> Var {
        let sq = g.square(out);
        g.sum(sq)
    }

    #[test]
    fn check_gru_step_rows_on_ragged_layouts() {
        // Nine active rows of 13 (not a multiple of 4; row 9 and three more
        // pass through), as four shards — three active rows of four, a
        // one-row shard, an empty shard, five of six — and as one.
        let rows = [0usize, 1, 3, 4, 7, 8, 10, 11, 12];
        let four = ([0usize, 3, 4, 4, 9], [0usize, 4, 5, 7, 13]);
        for split in [Some(&four), None] {
            let report = check_gradients(
                |g, v| {
                    let (vars, h, px) = gru_packed(g, v);
                    let split =
                        split.map(|(active, dense)| ShardSplit::borrowed(active, dense, dense));
                    let out = g.gru_step_rows_sharded(&vars, h, px, (&rows).into(), split);
                    sum_of_squares(g, out)
                },
                &gru_inputs(31, 13, rows.len()),
                EPS,
            );
            let shards = split.map_or(1, |_| 4);
            assert!(report.max_abs_err < GRU_TOL, "{shards} shards: {report:?}");
        }
    }

    #[test]
    fn check_gru_step_dense_on_ragged_layouts() {
        // Every row advances (identity rows): blocks of three rows, none,
        // one and five, and the same nine rows as one block.
        let four = [0usize, 3, 3, 4, 9];
        for bounds in [Some(&four), None] {
            let report = check_gradients(
                |g, v| {
                    let (vars, h, px) = gru_packed(g, v);
                    let bounds = bounds.map(|b| b.into());
                    let out = g.gru_step_dense_sharded(&vars, h, px, bounds);
                    sum_of_squares(g, out)
                },
                &gru_inputs(47, 9, 9),
                EPS,
            );
            let shards = bounds.map_or(1, |_| 4);
            assert!(report.max_abs_err < GRU_TOL, "{shards} shards: {report:?}");
        }
    }

    #[test]
    fn check_dense_sharded_ops_on_ragged_bounds() {
        // Five rows as one block and as three: four rows, none, one.
        type DenseOp = fn(&mut Graph, &[Var], Option<IndexInput<'_>>) -> Var;
        let ops: [(&str, DenseOp, Vec<Matrix>); 3] = [
            (
                "matmul_sharded",
                |g, v, bounds| g.matmul_sharded(v[0], v[1], bounds),
                vec![rand_matrix(71, 5, 4), rand_matrix(72, 4, 3)],
            ),
            (
                "add_bias_sharded",
                |g, v, bounds| g.add_bias_sharded(v[0], v[1], bounds),
                vec![rand_matrix(73, 5, 3), rand_matrix(74, 1, 3)],
            ),
            (
                "selu_sharded",
                |g, v, bounds| g.selu_sharded(v[0], bounds),
                // Away from the kink at 0, where SELU has no derivative.
                vec![rand_matrix(75, 5, 3).map(|x| x + 0.2 * x.signum())],
            ),
        ];
        for (name, op, inputs) in &ops {
            for bounds in [&[0usize, 5][..], &[0, 4, 4, 5]] {
                let report = check_gradients(
                    |g, v| {
                        let out = op(g, v, Some(bounds.into()));
                        weighted_sum_of_squares(g, out, 76)
                    },
                    inputs,
                    EPS,
                );
                let elements: usize = inputs.iter().map(Matrix::len).sum();
                assert_eq!(report.elements, elements);
                assert!(
                    report.passes(TOL),
                    "{name} @ {} shards: {report:?}",
                    bounds.len() - 1
                );
            }
        }
    }

    /// A ragged index layout for the sharded gather / scatter checks: seven
    /// entity rows, eight dense (path) rows.
    struct RaggedCase {
        name: &'static str,
        /// Dense rows that are active, ascending.
        rows: &'static [usize],
        /// Entity id per active row.
        ids: &'static [usize],
        /// `[active, dense, entity]` bounds at three shards.
        three: [&'static [usize]; 3],
    }

    const ENTITY_ROWS: usize = 7;
    const DENSE_ROWS: usize = 8;
    const RAGGED: [RaggedCase; 2] = [
        // Entities 1, 3 and 5 are referenced by no row; the middle shard
        // owns an entity and two dense rows but no active row.
        RaggedCase {
            name: "unreferenced entities, one shard empty",
            rows: &[0, 1, 2, 5, 6, 7],
            ids: &[0, 2, 2, 4, 6, 4],
            three: [&[0, 3, 3, 6], &[0, 3, 5, 8], &[0, 3, 4, 7]],
        },
        RaggedCase {
            name: "a single active row",
            rows: &[4],
            ids: &[2],
            three: [&[0, 0, 1, 1], &[0, 3, 5, 8], &[0, 2, 5, 7]],
        },
    ];

    /// Every ragged case at one shard (the bounds span everything) and three.
    fn for_each_ragged_split(check: impl Fn(&RaggedCase, ShardSplit<'_>, String)) {
        for case in &RAGGED {
            let one = [[0, case.rows.len()], [0, DENSE_ROWS], [0, ENTITY_ROWS]];
            check(
                case,
                ShardSplit::borrowed(&one[0], &one[1], &one[2]),
                format!("{} @ 1 shard", case.name),
            );
            let [active, dense, entity] = case.three;
            check(
                case,
                ShardSplit::borrowed(active, dense, entity),
                format!("{} @ 3 shards", case.name),
            );
        }
    }

    /// `sum((out ∘ w)²)` with a fixed random `w`: every output element gets
    /// its own gradient, so a row scattered to the wrong place shows.
    fn weighted_sum_of_squares(g: &mut Graph, out: Var, seed: u64) -> Var {
        let (rows, cols) = g.value(out).shape();
        let w = g.constant(rand_matrix(seed, rows, cols));
        let weighted = g.mul(out, w);
        sum_of_squares(g, weighted)
    }

    #[test]
    fn check_gather_rows_sharded_on_ragged_layouts() {
        for_each_ragged_split(|case, split, name| {
            let report = check_gradients(
                |g, v| {
                    let out = g.gather_rows_sharded(v[0], case.ids.into(), Some(split.clone()));
                    weighted_sum_of_squares(g, out, 61)
                },
                &[rand_matrix(62, ENTITY_ROWS, 3)],
                EPS,
            );
            assert_eq!(report.elements, ENTITY_ROWS * 3);
            assert!(report.passes(TOL), "{name}: {report:?}");
        });
    }

    #[test]
    fn check_segment_acc_rows_sharded_on_ragged_layouts() {
        for_each_ragged_split(|case, split, name| {
            let report = check_gradients(
                |g, v| {
                    let out = g.segment_acc_rows_sharded(
                        v[0],
                        v[1],
                        case.rows.into(),
                        case.ids.into(),
                        Some(split.clone()),
                    );
                    weighted_sum_of_squares(g, out, 63)
                },
                &[
                    rand_matrix(64, ENTITY_ROWS, 3), // acc
                    rand_matrix(65, DENSE_ROWS, 3),  // x
                ],
                EPS,
            );
            assert_eq!(report.elements, (ENTITY_ROWS + DENSE_ROWS) * 3);
            assert!(report.passes(TOL), "{name}: {report:?}");
        });
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
