//! Activation selector applied through the autograd tape.

use rn_autograd::{Graph, Var};
use serde::{Deserialize, Serialize};

/// Which nonlinearity a layer applies: the two RouteNet's readout uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// No nonlinearity (the readout's output layer).
    Identity,
    /// Scaled exponential linear unit — the readout's hidden layers.
    Selu,
}

impl Activation {
    /// Apply the activation on the tape.
    pub fn apply(self, g: &mut Graph, x: Var) -> Var {
        match self {
            Activation::Identity => x,
            Activation::Selu => g.selu(x),
        }
    }

    /// Apply the activation directly to a matrix (no tape), for inference-only
    /// code paths. SELU runs the vectorized slice kernel (bitwise identical
    /// to the scalar map).
    pub fn apply_matrix(self, x: &rn_tensor::Matrix) -> rn_tensor::Matrix {
        match self {
            Activation::Identity => x.clone(),
            Activation::Selu => {
                let mut out = rn_tensor::Matrix::zeros(x.rows(), x.cols());
                rn_tensor::simd::activations::selu_map(x.as_slice(), out.as_mut_slice());
                out
            }
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
        for act in [Activation::Identity, Activation::Selu] {
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
