//! Fully-connected layer.

use crate::{init, Activation, Layer};
use rn_autograd::{Graph, Var};
use rn_tensor::{Matrix, Prng};
use serde::de::field;
use serde::value::{DeError, Value};
use serde::{Deserialize, Serialize};

/// A dense layer `y = act(x · W + b)`.
///
/// `W` is `in_dim x out_dim`, `b` is `1 x out_dim` (a layer read from a file
/// fails to deserialize otherwise); inputs are row-major batches
/// (`n x in_dim`).
#[derive(Debug, Clone, Serialize)]
pub struct Linear {
    weight: Matrix,
    bias: Matrix,
    activation: Activation,
}

impl<'de> Deserialize<'de> for Linear {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let layer = Self {
            weight: field(v, "weight")?,
            bias: field(v, "bias")?,
            activation: field(v, "activation")?,
        };
        if layer.bias.shape() != (1, layer.weight.cols()) {
            return Err(DeError::new(format!(
                "linear layer with a {} x {} weight and a {} x {} bias",
                layer.weight.rows(),
                layer.weight.cols(),
                layer.bias.rows(),
                layer.bias.cols()
            )));
        }
        Ok(layer)
    }
}

/// Tape handles for a [`Linear`] whose parameters are registered on a graph.
#[derive(Debug, Clone, Copy)]
pub struct BoundLinear {
    weight: Var,
    bias: Var,
    activation: Activation,
}

impl Linear {
    /// Create with Xavier-uniform weights and zero bias.
    pub fn new(rng: &mut Prng, in_dim: usize, out_dim: usize, activation: Activation) -> Self {
        Self {
            weight: init::xavier_uniform(rng, in_dim, out_dim),
            bias: init::zeros_bias(out_dim),
            activation,
        }
    }

    /// Create with LeCun-normal weights (for SELU stacks).
    pub fn new_lecun(
        rng: &mut Prng,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
    ) -> Self {
        Self {
            weight: init::lecun_normal(rng, in_dim, out_dim),
            bias: init::zeros_bias(out_dim),
            activation,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Tape-free forward for inference-only paths.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let y = x.matmul(&self.weight).add_row_broadcast(&self.bias);
        self.activation.apply_matrix(&y)
    }
}

impl BoundLinear {
    /// Forward pass on the tape. May be called any number of times per graph.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        let h = g.matmul(x, self.weight);
        let hb = g.add_bias(h, self.bias);
        self.activation.apply(g, hb)
    }
}

impl Layer for Linear {
    type Bound = BoundLinear;

    fn bind(&self, g: &mut Graph) -> BoundLinear {
        BoundLinear {
            weight: g.param_copy(&self.weight),
            bias: g.param_copy(&self.bias),
            activation: self.activation,
        }
    }

    fn params(&self) -> Vec<&Matrix> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn bound_vars(bound: &BoundLinear) -> Vec<Var> {
        vec![bound.weight, bound.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_autograd::check::check_gradients;

    #[test]
    fn forward_shapes_and_values() {
        let mut rng = Prng::new(1);
        let layer = Linear::new(&mut rng, 3, 2, Activation::Identity);
        let x = Matrix::ones(4, 3);
        let y = layer.forward_inference(&x);
        assert_eq!(y.shape(), (4, 2));
        // identity activation: y = x·W + b; all rows equal for equal inputs
        for r in 1..4 {
            assert_eq!(y.row(r), y.row(0));
        }
    }

    #[test]
    fn tape_and_inference_agree() {
        let mut rng = Prng::new(2);
        let layer = Linear::new(&mut rng, 4, 3, Activation::Tanh);
        let x = rng.uniform_matrix(5, 4, -1.0, 1.0);
        let mut g = Graph::new();
        let bound = layer.bind(&mut g);
        let xv = g.constant(x.clone());
        let y = bound.forward(&mut g, xv);
        assert!(g.value(y).approx_eq(&layer.forward_inference(&x), 1e-5));
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut rng = Prng::new(3);
        let x = rng.uniform_matrix(3, 4, -1.0, 1.0);
        let report = check_gradients(
            move |g, vars| {
                // vars[0] = weight (4x2), vars[1] = bias (1x2)
                let xv = g.constant(x.clone());
                let h = g.matmul(xv, vars[0]);
                let hb = g.add_bias(h, vars[1]);
                let a = g.tanh(hb);
                let sq = g.square(a);
                g.mean(sq)
            },
            &[rng.uniform_matrix(4, 2, -0.5, 0.5), Matrix::zeros(1, 2)],
            1e-2,
        );
        assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn layer_grads_align_with_params() {
        let mut rng = Prng::new(4);
        let layer = Linear::new(&mut rng, 2, 2, Activation::Sigmoid);
        let mut g = Graph::new();
        let bound = layer.bind(&mut g);
        let x = g.constant(Matrix::ones(1, 2));
        let y = bound.forward(&mut g, x);
        let loss = g.mean(y);
        g.backward(loss);
        let grads = layer.grads(&g, &bound);
        assert_eq!(grads.len(), 2);
        assert_eq!(grads[0].shape(), (2, 2));
        assert_eq!(grads[1].shape(), (1, 2));
        assert!(grads[0].max_abs() > 0.0, "weight gradient must be nonzero");
    }

    #[test]
    fn serde_round_trip_preserves_outputs() {
        let mut rng = Prng::new(6);
        let layer = Linear::new(&mut rng, 3, 3, Activation::Selu);
        let json = serde_json::to_string(&layer).unwrap();
        let back: Linear = serde_json::from_str(&json).unwrap();
        let x = rng.uniform_matrix(2, 3, -1.0, 1.0);
        assert!(layer
            .forward_inference(&x)
            .approx_eq(&back.forward_inference(&x), 0.0));
    }
}
