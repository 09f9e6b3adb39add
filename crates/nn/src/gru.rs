//! Gated recurrent unit cell.
//!
//! The three recurrent functions of the extended RouteNet — `RNN_P` (paths),
//! `RNN_L` (links) and `RNN_N` (nodes) — are all GRU cells (the paper, citing
//! Li et al. 2015, uses a recurrent unit "to ease convergence during the
//! message passing process"). The cell follows the standard formulation:
//!
//! ```text
//! z = σ([h, x]·W_z + b_z)          update gate
//! r = σ([h, x]·W_r + b_r)          reset gate
//! c = tanh([r⊙h, x]·W_c + b_c)     candidate state
//! h' = (1 − z)⊙h + z⊙c
//! ```
//!
//! With `z → 1` the cell replaces its state with the candidate; with `z → 0`
//! it keeps the old state. The batched forward operates on `n x hidden`
//! state matrices so a whole batch of paths advances one sequence position
//! per call.
//!
//! ## The split the fused step runs on
//!
//! Each kernel is `(hidden + input) x hidden`. Its top `hidden` rows, `W_h`,
//! multiply the state half of `[h, x]` and its bottom `input` rows, `W_x`,
//! the input half, so every gate product splits as
//!
//! ```text
//! [h, x]·W = h·W_h + x·W_x          W_h = W[..hidden, :]   W_x = W[hidden.., :]
//! ```
//!
//! and `x·W_x` does not depend on `h`. The fused tape path therefore
//! computes the **projection** `px = x·[W_x,z | W_x,r | W_x,c]` (`n x
//! 3·hidden`, [`BoundGruCell::project`]) once per distinct input — in
//! RouteNet, once per entity and iteration, however many paths cross the
//! entity — and the recurrent step reads rows of it:
//!
//! ```text
//! [z | r] = σ(px_zr + h·[W_h,z | W_h,r] + [b_z | b_r])
//! c       = tanh(px_c + (r⊙h)·W_h,c + b_c)
//! ```
//!
//! with `k = hidden` instead of `hidden + input` in every product over the
//! active rows. The regrouping is done at bind time by copying
//! ([`rn_autograd::Graph::gru_pack`]); the cell still owns, serializes and
//! receives gradients for the six matrices above, in the order above.
//! [`BoundGruCell::step`] and [`GruCell::step_inference`] keep the textbook
//! `[h, x]` form as the independent reference.

use crate::{init, Layer};
use rn_autograd::{Graph, GruVars, Var};
use rn_tensor::{Matrix, Prng};
use serde::de::field;
use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};

/// GRU cell parameters. Kernels are `(hidden + input) x hidden`, biases
/// `1 x hidden` — also for a cell read from a file, which fails to
/// deserialize otherwise (binding splits the kernels by row and would
/// panic on any other shape).
#[derive(Debug, Clone, Serialize)]
pub struct GruCell {
    input_dim: usize,
    hidden_dim: usize,
    w_z: Matrix,
    b_z: Matrix,
    w_r: Matrix,
    b_r: Matrix,
    w_c: Matrix,
    b_c: Matrix,
}

impl<'de> Deserialize<'de> for GruCell {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let cell = Self {
            input_dim: field(v, "input_dim")?,
            hidden_dim: field(v, "hidden_dim")?,
            w_z: field(v, "w_z")?,
            b_z: field(v, "b_z")?,
            w_r: field(v, "w_r")?,
            b_r: field(v, "b_r")?,
            w_c: field(v, "w_c")?,
            b_c: field(v, "b_c")?,
        };
        let (input, hidden) = (cell.input_dim, cell.hidden_dim);
        let kernel = (hidden.checked_add(input), hidden);
        for (name, m) in [("w_z", &cell.w_z), ("w_r", &cell.w_r), ("w_c", &cell.w_c)] {
            if (Some(m.rows()), m.cols()) != kernel {
                return Err(DeError::new(format!(
                    "GRU kernel `{name}` is {} x {}, a cell of input {input} and hidden {hidden} \
                     needs (hidden + input) x hidden",
                    m.rows(),
                    m.cols()
                )));
            }
        }
        for (name, m) in [("b_z", &cell.b_z), ("b_r", &cell.b_r), ("b_c", &cell.b_c)] {
            if m.shape() != (1, hidden) {
                return Err(DeError::new(format!(
                    "GRU bias `{name}` is {} x {}, a cell of hidden {hidden} needs 1 x hidden",
                    m.rows(),
                    m.cols()
                )));
            }
        }
        Ok(cell)
    }
}

/// Tape handles for a bound [`GruCell`].
#[derive(Debug, Clone, Copy)]
pub struct BoundGruCell {
    w_z: Var,
    b_z: Var,
    w_r: Var,
    b_r: Var,
    w_c: Var,
    b_c: Var,
    /// The six regrouped by operand for the fused step (see the module
    /// docs); gradients flow through the packing back to the six.
    packed: GruVars,
}

impl GruCell {
    /// Create with Xavier-uniform kernels and zero biases.
    pub fn new(rng: &mut Prng, input_dim: usize, hidden_dim: usize) -> Self {
        let fan_in = hidden_dim + input_dim;
        Self {
            input_dim,
            hidden_dim,
            w_z: init::xavier_uniform(rng, fan_in, hidden_dim),
            b_z: init::zeros_bias(hidden_dim),
            w_r: init::xavier_uniform(rng, fan_in, hidden_dim),
            b_r: init::zeros_bias(hidden_dim),
            w_c: init::xavier_uniform(rng, fan_in, hidden_dim),
            b_c: init::zeros_bias(hidden_dim),
        }
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden state dimension.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Tape-free single step for inference-only paths.
    pub fn step_inference(&self, h: &Matrix, x: &Matrix) -> Matrix {
        use rn_autograd::activations as act;
        let hx = h.concat_cols(x);
        let z = hx
            .matmul(&self.w_z)
            .add_row_broadcast(&self.b_z)
            .map(act::sigmoid);
        let r = hx
            .matmul(&self.w_r)
            .add_row_broadcast(&self.b_r)
            .map(act::sigmoid);
        let rhx = r.mul(h).concat_cols(x);
        let c = rhx
            .matmul(&self.w_c)
            .add_row_broadcast(&self.b_c)
            .map(act::tanh);
        let one_minus_z = z.map(|v| 1.0 - v);
        one_minus_z.mul(h).add(&z.mul(&c))
    }
}

impl BoundGruCell {
    /// Bind six parameter handles — `[W_z, b_z, W_r, b_r, W_c, b_c]`, already
    /// on the tape — as a cell.
    pub fn from_params(g: &mut Graph, params: [Var; 6]) -> Self {
        let [w_z, b_z, w_r, b_r, w_c, b_c] = params;
        BoundGruCell {
            w_z,
            b_z,
            w_r,
            b_r,
            w_c,
            b_c,
            packed: g.gru_pack(params),
        }
    }

    /// The cell in the layout the fused tape op consumes.
    pub fn vars(&self) -> GruVars {
        self.packed
    }

    /// The input projection `x·[W_x,z | W_x,r | W_x,c]` (`n x 3·hidden`),
    /// whose rows [`Graph::gru_step_rows`] reads in place of `x`.
    pub fn project(&self, g: &mut Graph, x: Var) -> Var {
        g.matmul(x, self.packed.w_x)
    }

    /// One recurrent step over every row as a projection and a single fused
    /// tape node (see [`Graph::gru_step_rows`]). Numerically equivalent to
    /// [`BoundGruCell::step`] but ~9x fewer tape nodes.
    pub fn step_fused(&self, g: &mut Graph, h: Var, x: Var) -> Var {
        let px = self.project(g, x);
        g.gru_step_dense(&self.packed, h, px)
    }

    /// One recurrent step on the tape: `h' = GRU(h, x)`.
    ///
    /// `h` is `n x hidden`, `x` is `n x input`; returns `n x hidden`. Safe to
    /// call repeatedly with shared weights (that is the point of a binding).
    /// This is the unfused op-by-op expansion, kept as the numerical
    /// reference; production forward passes use [`BoundGruCell::step_fused`].
    pub fn step(&self, g: &mut Graph, h: Var, x: Var) -> Var {
        let hx = g.concat_cols(h, x);

        let z_lin = g.matmul(hx, self.w_z);
        let z_b = g.add_bias(z_lin, self.b_z);
        let z = g.sigmoid(z_b);

        let r_lin = g.matmul(hx, self.w_r);
        let r_b = g.add_bias(r_lin, self.b_r);
        let r = g.sigmoid(r_b);

        let rh = g.mul(r, h);
        let rhx = g.concat_cols(rh, x);
        let c_lin = g.matmul(rhx, self.w_c);
        let c_b = g.add_bias(c_lin, self.b_c);
        let c = g.tanh(c_b);

        let one_minus_z = g.one_minus(z);
        let keep = g.mul(one_minus_z, h);
        let update = g.mul(z, c);
        g.add(keep, update)
    }

    /// A masked step: rows with `mask == 0` keep their previous state
    /// unchanged; rows with `mask == 1` advance. This implements padded
    /// variable-length sequences batched into one matrix.
    pub fn step_masked(&self, g: &mut Graph, h: Var, x: Var, mask: &Matrix) -> Var {
        let advanced = self.step(g, h, x);
        let keep_mask = mask.map(|v| 1.0 - v);
        let kept = g.mask_rows(h, &keep_mask);
        let moved = g.mask_rows(advanced, mask);
        g.add(kept, moved)
    }
}

impl Layer for GruCell {
    type Bound = BoundGruCell;

    fn bind(&self, g: &mut Graph) -> BoundGruCell {
        // Pooled copies: a tape that binds every step takes the parameter
        // buffers from its own pool instead of cloning them. The packing is
        // four more copies per bind, amortized over every step of the
        // forward pass (a megabatch runs hundreds of steps per bind).
        let params = [
            &self.w_z, &self.b_z, &self.w_r, &self.b_r, &self.w_c, &self.b_c,
        ]
        .map(|p| g.param_copy(p));
        BoundGruCell::from_params(g, params)
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![
            &self.w_z, &self.b_z, &self.w_r, &self.b_r, &self.w_c, &self.b_c,
        ]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![
            &mut self.w_z,
            &mut self.b_z,
            &mut self.w_r,
            &mut self.b_r,
            &mut self.w_c,
            &mut self.b_c,
        ]
    }

    fn bound_vars(bound: &BoundGruCell) -> Vec<Var> {
        vec![
            bound.w_z, bound.b_z, bound.w_r, bound.b_r, bound.w_c, bound.b_c,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_autograd::check::check_gradients;

    #[test]
    fn step_preserves_shape() {
        let mut rng = Prng::new(1);
        let cell = GruCell::new(&mut rng, 3, 5);
        let mut g = Graph::new();
        let bound = cell.bind(&mut g);
        let h = g.constant(Matrix::zeros(4, 5));
        let x = g.constant(rng.uniform_matrix(4, 3, -1.0, 1.0));
        let h2 = bound.step(&mut g, h, x);
        assert_eq!(g.value(h2).shape(), (4, 5));
    }

    #[test]
    fn tape_and_inference_agree() {
        let mut rng = Prng::new(2);
        let cell = GruCell::new(&mut rng, 2, 3);
        let h0 = rng.uniform_matrix(3, 3, -1.0, 1.0);
        let x0 = rng.uniform_matrix(3, 2, -1.0, 1.0);
        let mut g = Graph::new();
        let bound = cell.bind(&mut g);
        let h = g.constant(h0.clone());
        let x = g.constant(x0.clone());
        let h2 = bound.step(&mut g, h, x);
        assert!(g.value(h2).approx_eq(&cell.step_inference(&h0, &x0), 1e-5));
    }

    #[test]
    fn state_stays_bounded() {
        // tanh candidate + convex blend keep |h| <= 1 once |h0| <= 1
        let mut rng = Prng::new(3);
        let cell = GruCell::new(&mut rng, 2, 4);
        let mut h = Matrix::zeros(2, 4);
        for step in 0..50 {
            let x = rng.uniform_matrix(2, 2, -3.0, 3.0);
            h = cell.step_inference(&h, &x);
            assert!(
                h.max_abs() <= 1.0 + 1e-5,
                "state escaped at step {step}: {}",
                h.max_abs()
            );
        }
    }

    #[test]
    fn zero_update_gate_keeps_state() {
        // Forcing b_z to -inf-ish makes z≈0, so h' ≈ h.
        let mut rng = Prng::new(4);
        let mut cell = GruCell::new(&mut rng, 2, 3);
        cell.b_z = Matrix::filled(1, 3, -30.0);
        cell.w_z = Matrix::zeros(5, 3);
        let h0 = rng.uniform_matrix(2, 3, -0.9, 0.9);
        let x = rng.uniform_matrix(2, 2, -1.0, 1.0);
        let h1 = cell.step_inference(&h0, &x);
        assert!(h1.approx_eq(&h0, 1e-4));
    }

    #[test]
    fn masked_step_freezes_masked_rows() {
        let mut rng = Prng::new(5);
        let cell = GruCell::new(&mut rng, 2, 3);
        let h0 = rng.uniform_matrix(3, 3, -0.5, 0.5);
        let x0 = rng.uniform_matrix(3, 2, -1.0, 1.0);
        let mask = Matrix::column_vector(&[1.0, 0.0, 1.0]);

        let mut g = Graph::new();
        let bound = cell.bind(&mut g);
        let h = g.constant(h0.clone());
        let x = g.constant(x0.clone());
        let h1 = bound.step_masked(&mut g, h, x, &mask);
        let out = g.value(h1);

        let full = cell.step_inference(&h0, &x0);
        assert_eq!(out.row(1), h0.row(1), "masked row must not change");
        assert!(Matrix::from_rows(&[out.row(0).to_vec()])
            .approx_eq(&Matrix::from_rows(&[full.row(0).to_vec()]), 1e-5));
        assert!(Matrix::from_rows(&[out.row(2).to_vec()])
            .approx_eq(&Matrix::from_rows(&[full.row(2).to_vec()]), 1e-5));
    }

    #[test]
    fn multi_step_gradients_pass_finite_difference_check() {
        // Unroll the same cell for 3 steps — shared-weight gradients must sum.
        let mut rng = Prng::new(6);
        let cell = GruCell::new(&mut rng, 2, 3);
        let params: Vec<Matrix> = cell.params().into_iter().cloned().collect();
        let xs: Vec<Matrix> = (0..3)
            .map(|_| rng.uniform_matrix(2, 2, -1.0, 1.0))
            .collect();

        let report = check_gradients(
            move |g, vars| {
                let bound = BoundGruCell::from_params(
                    g,
                    [vars[0], vars[1], vars[2], vars[3], vars[4], vars[5]],
                );
                let mut h = g.constant(Matrix::zeros(2, 3));
                for x in &xs {
                    let xv = g.constant(x.clone());
                    h = bound.step(g, h, xv);
                }
                let sq = g.square(h);
                g.mean(sq)
            },
            &params,
            1e-2,
        );
        assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn fused_step_matches_unfused_reference() {
        let mut rng = Prng::new(12);
        let cell = GruCell::new(&mut rng, 3, 4);
        let h0 = rng.uniform_matrix(5, 4, -0.8, 0.8);
        let x0 = rng.uniform_matrix(5, 3, -1.0, 1.0);
        let mask = Matrix::column_vector(&[1.0, 0.0, 1.0, 1.0, 0.0]);

        let mut g = Graph::new();
        let bound = cell.bind(&mut g);
        let h = g.constant(h0.clone());
        let x = g.constant(x0.clone());
        let fused = bound.step_fused(&mut g, h, x);
        let unfused = bound.step(&mut g, h, x);
        assert!(g.value(fused).approx_eq(g.value(unfused), 1e-6));

        // The row-compacted step over the active rows is the fused form of
        // the masked reference.
        let rows = [0usize, 2, 3];
        let projected = bound.project(&mut g, x);
        let px_rows = g.gather_rows(projected, &rows);
        let fused_m = g.gru_step_rows(&bound.vars(), h, px_rows, &rows);
        let unfused_m = bound.step_masked(&mut g, h, x, &mask);
        assert!(g.value(fused_m).approx_eq(g.value(unfused_m), 1e-6));
        assert_eq!(g.value(fused_m).row(1), h0.row(1), "masked row frozen");
    }

    #[test]
    fn serde_round_trip_preserves_dynamics() {
        let mut rng = Prng::new(7);
        let cell = GruCell::new(&mut rng, 3, 4);
        let json = serde_json::to_string(&cell).unwrap();
        let back: GruCell = serde_json::from_str(&json).unwrap();
        let h = rng.uniform_matrix(2, 4, -1.0, 1.0);
        let x = rng.uniform_matrix(2, 3, -1.0, 1.0);
        assert!(cell
            .step_inference(&h, &x)
            .approx_eq(&back.step_inference(&h, &x), 0.0));
    }

    #[test]
    fn a_cell_whose_shapes_disagree_with_its_dims_does_not_deserialize() {
        let mut rng = Prng::new(9);
        let cell = GruCell::new(&mut rng, 3, 4);
        let json = serde_json::to_string(&cell).unwrap();
        for (from, to, complaint) in [
            // Every kernel is now one row short of hidden + input.
            (
                "\"input_dim\":3",
                "\"input_dim\":4",
                "kernel `w_z` is 7 x 4",
            ),
            (
                "\"hidden_dim\":4",
                "\"hidden_dim\":5",
                "kernel `w_z` is 7 x 4",
            ),
        ] {
            assert!(json.contains(from));
            let err = serde_json::from_str::<GruCell>(&json.replacen(from, to, 1))
                .expect_err("shapes disagree with the dims")
                .to_string();
            assert!(err.contains(complaint), "{err}");
        }
        let mut no_bias = cell.clone();
        no_bias.b_r = Matrix::zeros(1, 3);
        let err = serde_json::from_str::<GruCell>(&serde_json::to_string(&no_bias).unwrap())
            .expect_err("short bias")
            .to_string();
        assert!(err.contains("bias `b_r` is 1 x 3"), "{err}");
    }
}
