//! Multi-layer perceptron — RouteNet's readout function.

use crate::{Activation, Layer, Linear};
use rn_autograd::{Graph, Var};
use rn_tensor::{Matrix, Prng};
use serde::json::Reader;
use serde::value::DeError;
use serde::{Deserialize, Serialize};

/// A stack of [`Linear`] layers: hidden layers share one activation, the
/// output layer has its own (RouteNet's readout: [`Activation::Selu`] and
/// [`Activation::Identity`]). There is at least
/// one layer and each feeds the next one's input width — also in a stack
/// read from a file, which fails to deserialize otherwise.
#[derive(Debug, Clone, Serialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

/// An [`Mlp`]'s fields as a file holds them, before they are checked.
#[derive(Deserialize)]
struct MlpFields {
    layers: Vec<Linear>,
}

impl<'de> Deserialize<'de> for Mlp {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let MlpFields { layers } = MlpFields::deserialize_json(r)?;
        if layers.is_empty() {
            return Err(DeError::new("an MLP without layers"));
        }
        if let Some(w) = layers.windows(2).find(|w| w[0].out_dim() != w[1].in_dim()) {
            return Err(DeError::new(format!(
                "an MLP layer {} wide feeding one that reads {}",
                w[0].out_dim(),
                w[1].in_dim()
            )));
        }
        Ok(Self { layers })
    }
}

/// Tape handles for a bound [`Mlp`].
#[derive(Debug, Clone)]
pub struct BoundMlp {
    layers: Vec<crate::BoundLinear>,
}

impl Mlp {
    /// Build an MLP with the given layer widths.
    ///
    /// `dims = [in, h1, h2, out]` produces three layers. `hidden_activation`
    /// applies to all but the last layer; `output_activation` to the last.
    /// Panics if fewer than two dims are given.
    pub fn new(
        rng: &mut Prng,
        dims: &[usize],
        hidden_activation: Activation,
        output_activation: Activation,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "Mlp::new: need at least [in, out] dims, got {dims:?}"
        );
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let act = if i + 2 == dims.len() {
                    output_activation
                } else {
                    hidden_activation
                };
                // SELU stacks train best from LeCun-normal init.
                if hidden_activation == Activation::Selu {
                    Linear::new_lecun(rng, w[0], w[1], act)
                } else {
                    Linear::new(rng, w[0], w[1], act)
                }
            })
            .collect();
        Self { layers }
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.layers
            .first()
            .expect("Mlp has at least one layer")
            .in_dim()
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.layers
            .last()
            .expect("Mlp has at least one layer")
            .out_dim()
    }

    /// Tape-free forward for inference-only paths.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        self.layers
            .iter()
            .fold(x.clone(), |h, layer| layer.forward_inference(&h))
    }
}

impl BoundMlp {
    /// Forward pass on the tape.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        self.layers.iter().fold(x, |h, layer| layer.forward(g, h))
    }
}

impl Layer for Mlp {
    type Bound = BoundMlp;

    fn bind(&self, g: &mut Graph) -> BoundMlp {
        BoundMlp {
            layers: self.layers.iter().map(|l| l.bind(g)).collect(),
        }
    }

    fn params(&self) -> Vec<&Matrix> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn bound_vars(bound: &BoundMlp) -> Vec<Var> {
        bound.layers.iter().flat_map(Linear::bound_vars).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_wire_up() {
        let mut rng = Prng::new(1);
        let mlp = Mlp::new(
            &mut rng,
            &[8, 16, 8, 1],
            Activation::Selu,
            Activation::Identity,
        );
        assert_eq!(mlp.depth(), 3);
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 1);
        let y = mlp.forward_inference(&Matrix::ones(5, 8));
        assert_eq!(y.shape(), (5, 1));
    }

    #[test]
    fn tape_and_inference_agree() {
        let mut rng = Prng::new(2);
        let mlp = Mlp::new(&mut rng, &[4, 6, 2], Activation::Selu, Activation::Selu);
        let x = rng.uniform_matrix(3, 4, -1.0, 1.0);
        let mut g = Graph::new();
        let bound = mlp.bind(&mut g);
        let xv = g.constant(x.clone());
        let y = bound.forward(&mut g, xv);
        assert!(g.value(y).approx_eq(&mlp.forward_inference(&x), 1e-5));
    }

    #[test]
    fn training_reduces_loss_on_toy_regression() {
        use crate::{Adam, Optimizer};
        // Fit y = 2x on 1-D data: the whole bind/forward/backward/step cycle.
        let mut rng = Prng::new(4);
        let mut mlp = Mlp::new(&mut rng, &[1, 8, 1], Activation::Selu, Activation::Identity);
        let x = Matrix::column_vector(&[-1.0, -0.5, 0.0, 0.5, 1.0]);
        let t = x.scale(2.0);

        let mut opt = Adam::new(1e-2);
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..300 {
            let mut g = Graph::new();
            let bound = mlp.bind(&mut g);
            let xv = g.constant(x.clone());
            let tv = g.constant(t.clone());
            let y = bound.forward(&mut g, xv);
            let loss = g.mse(y, tv);
            last_loss = g.value(loss).get(0, 0);
            first_loss.get_or_insert(last_loss);
            g.backward(loss);
            let grads = mlp.grads(&g, &bound);
            opt.step(&mut mlp.params_mut(), &grads);
        }
        let first = first_loss.unwrap();
        assert!(
            last_loss < first * 0.05,
            "training failed to reduce loss: first {first}, last {last_loss}"
        );
    }

    #[test]
    fn serde_round_trip() {
        let mut rng = Prng::new(5);
        let mlp = Mlp::new(&mut rng, &[2, 4, 1], Activation::Selu, Activation::Identity);
        let json = serde_json::to_string(&mlp).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = rng.uniform_matrix(3, 2, -1.0, 1.0);
        assert!(mlp
            .forward_inference(&x)
            .approx_eq(&back.forward_inference(&x), 0.0));
    }
}
