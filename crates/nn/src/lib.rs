//! # rn-nn
//!
//! Neural-network building blocks for the RouteNet reproduction, built on the
//! [`rn_autograd`] tape.
//!
//! The crate follows a *bind-then-forward* pattern suited to define-by-run
//! graphs whose structure changes every sample:
//!
//! 1. A layer (e.g. [`GruCell`]) owns its parameters as plain
//!    [`rn_tensor::Matrix`] values.
//! 2. Before a forward pass, [`Layer::bind`] registers those parameters on a
//!    fresh [`rn_autograd::Graph`] and returns a lightweight *binding* of
//!    [`rn_autograd::Var`] handles.
//! 3. The binding's `forward` can be applied any number of times within the
//!    graph (a GRU cell is applied at every sequence position with shared
//!    weights — exactly what RouteNet's message passing needs).
//! 4. After `backward`, [`Layer::grads`] extracts the accumulated parameter
//!    gradients in a canonical order, and an [`optim`] optimizer applies them.
//!
//! All layers serialize with serde, so trained models round-trip through JSON.

pub mod activation;
pub mod gru;
pub mod init;
pub mod linear;
pub mod loss;
pub mod mlp;
pub mod optim;

pub use activation::Activation;
pub use gru::{BoundGruCell, GruCell};
pub use linear::{BoundLinear, Linear};
pub use mlp::{BoundMlp, Mlp};
pub use optim::{clip_global_norm, Adam, Optimizer, Sgd};

use rn_autograd::{Graph, Var};
use rn_tensor::Matrix;

/// Common interface of every trainable component.
///
/// Parameter order is canonical: `params`, `params_mut`, and the `Var` list of
/// a binding all enumerate parameters in the same order, so gradient vectors
/// and optimizer state line up by index.
pub trait Layer {
    /// The binding type returned by [`Layer::bind`].
    type Bound;

    /// Register this layer's parameters on `g` and return a binding.
    fn bind(&self, g: &mut Graph) -> Self::Bound;

    /// Immutable references to the parameters, in canonical order.
    fn params(&self) -> Vec<&Matrix>;

    /// Mutable references to the parameters, in canonical order.
    fn params_mut(&mut self) -> Vec<&mut Matrix>;

    /// The `Var` handles of a binding, in canonical order.
    fn bound_vars(bound: &Self::Bound) -> Vec<Var>;

    /// Extract gradients for this layer from a backward-completed graph.
    ///
    /// Parameters the loss did not touch yield zero matrices, so the result
    /// always aligns with [`Layer::params`].
    fn grads(&self, g: &Graph, bound: &Self::Bound) -> Vec<Matrix> {
        Self::bound_vars(bound)
            .iter()
            .zip(self.params())
            .map(|(&v, p)| {
                g.grad(v)
                    .cloned()
                    .unwrap_or_else(|| Matrix::zeros(p.rows(), p.cols()))
            })
            .collect()
    }

    /// Add `grads` (canonical order) into `acc`, used when summing gradients
    /// across the samples of a minibatch.
    fn accumulate_grads(acc: &mut [Matrix], grads: &[Matrix]) {
        assert_eq!(acc.len(), grads.len(), "accumulate_grads: length mismatch");
        for (a, g) in acc.iter_mut().zip(grads) {
            a.add_assign(g);
        }
    }
}
