//! Regression losses built from tape primitives.

use rn_autograd::{Graph, Var};
use rn_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Which training loss to optimize. MSE on the standardized log delay is
/// the one a recorded row uses; the paper's metric is relative error, which
/// that loss already trains on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Loss {
    /// Mean squared error.
    Mse,
}

impl Loss {
    /// Build the loss node on the tape. `pred` and `target` must share shape;
    /// the result is a `1 x 1` scalar node.
    pub fn apply(self, g: &mut Graph, pred: Var, target: Var) -> Var {
        match self {
            Loss::Mse => g.mse(pred, target),
        }
    }

    /// Weighted form for block-diagonal megabatches: per-row errors are
    /// multiplied by `weights` (an `n x 1` constant column) and *summed*, not
    /// averaged. With `weights[i] = 1 / (num_samples * rows_in_sample(i))`
    /// this reproduces the per-sample-mean-then-batch-mean semantics of the
    /// per-sample training path, so megabatched gradients match the legacy
    /// ones up to f32 rounding.
    pub fn apply_weighted(self, g: &mut Graph, pred: Var, target: Var, weights: &Matrix) -> Var {
        let per_row = match self {
            Loss::Mse => {
                let d = g.sub(pred, target);
                g.square(d)
            }
        };
        let weighted = g.mask_rows(per_row, weights);
        g.sum(weighted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_autograd::check::check_gradients;
    use rn_tensor::Matrix;

    fn eval(loss: Loss, pred: &[f32], target: &[f32]) -> f32 {
        let mut g = Graph::new();
        let p = g.param(Matrix::row_vector(pred));
        let t = g.constant(Matrix::row_vector(target));
        let l = loss.apply(&mut g, p, t);
        g.value(l).get(0, 0)
    }

    #[test]
    fn mse_known_value() {
        assert!((eval(Loss::Mse, &[1.0, 3.0], &[0.0, 0.0]) - 5.0).abs() < 1e-6);
        assert_eq!(eval(Loss::Mse, &[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn mse_passes_gradient_check() {
        let target = Matrix::row_vector(&[0.3, -0.7, 1.9, 0.0]);
        let report = check_gradients(
            move |g, vars| {
                let tv = g.constant(target.clone());
                Loss::Mse.apply(g, vars[0], tv)
            },
            &[Matrix::row_vector(&[1.3, 0.4, -0.8, 2.0])],
            1e-3,
        );
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn weighted_loss_reproduces_mean_of_per_sample_means() {
        // Two "samples": rows {0,1} and rows {2,3,4}. Uniform per-sample
        // weights 1/(2*2) and 1/(2*3) must equal the mean of the two
        // per-sample mean losses.
        let pred = [1.0f32, 3.0, 0.0, -1.0, 2.0];
        let target = [0.0f32; 5];
        let weights =
            Matrix::column_vector(&[1.0 / 4.0, 1.0 / 4.0, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0]);
        let mut g = Graph::new();
        let p = g.param(Matrix::column_vector(&pred));
        let t = g.constant(Matrix::column_vector(&target));
        let l = Loss::Mse.apply_weighted(&mut g, p, t, &weights);
        let got = g.value(l).get(0, 0);
        let expect = 0.5
            * (eval(Loss::Mse, &pred[..2], &target[..2])
                + eval(Loss::Mse, &pred[2..], &target[2..]));
        assert!((got - expect).abs() < 1e-6, "{got} vs {expect}");
        g.backward(l);
        assert!(g.grad(p).is_some());
    }
}
