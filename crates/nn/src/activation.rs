//! Activation selector applied through the autograd tape.

use rn_autograd::{Graph, Var};
use serde::{Deserialize, Serialize};

/// Which nonlinearity a layer applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// No nonlinearity.
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Scaled exponential linear unit — RouteNet's readout activation.
    Selu,
    /// Softplus; useful as a final activation when predicting non-negative
    /// quantities such as delays.
    Softplus,
}

impl Activation {
    /// Apply the activation on the tape.
    pub fn apply(self, g: &mut Graph, x: Var) -> Var {
        match self {
            Activation::Identity => x,
            Activation::Relu => g.relu(x),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Tanh => g.tanh(x),
            Activation::Selu => g.selu(x),
            Activation::Softplus => g.softplus(x),
        }
    }

    /// Apply the activation directly to a matrix (no tape), for inference-only
    /// code paths. Sigmoid/tanh/SELU run the vectorized slice kernels
    /// (bitwise identical to the scalar maps).
    pub fn apply_matrix(self, x: &rn_tensor::Matrix) -> rn_tensor::Matrix {
        use rn_autograd::activations as a;
        use rn_tensor::simd::activations as vact;
        let mapped = |kernel: fn(&[f32], &mut [f32])| {
            let mut out = rn_tensor::Matrix::zeros(x.rows(), x.cols());
            kernel(x.as_slice(), out.as_mut_slice());
            out
        };
        match self {
            Activation::Identity => x.clone(),
            Activation::Relu => x.map(a::relu),
            Activation::Sigmoid => mapped(vact::sigmoid_map),
            Activation::Tanh => mapped(vact::tanh_map),
            Activation::Selu => mapped(vact::selu_map),
            Activation::Softplus => x.map(a::softplus),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_tensor::Matrix;

    #[test]
    fn tape_and_matrix_paths_agree() {
        let input = Matrix::row_vector(&[-2.0, -0.5, 0.0, 0.5, 2.0]);
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Selu,
            Activation::Softplus,
        ] {
            let mut g = Graph::new();
            let x = g.param(input.clone());
            let y = act.apply(&mut g, x);
            let via_tape = g.value(y).clone();
            let via_matrix = act.apply_matrix(&input);
            assert!(
                via_tape.approx_eq(&via_matrix, 1e-6),
                "{act:?} paths disagree"
            );
        }
    }

    #[test]
    fn serde_round_trip() {
        let json = serde_json::to_string(&Activation::Selu).unwrap();
        let back: Activation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Activation::Selu);
    }
}
