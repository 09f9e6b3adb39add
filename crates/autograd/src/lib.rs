//! # rn-autograd
//!
//! Tape-based reverse-mode automatic differentiation over [`rn_tensor::Matrix`].
//!
//! The RouteNet message-passing loop is a *define-by-run* computation: the
//! structure of the graph (which links/nodes each path traverses) changes with
//! every sample, so the differentiation tape is rebuilt per forward pass.
//! [`Graph`] records every operation as it executes; [`Graph::backward`]
//! replays the tape in reverse, accumulating gradients into every node.
//!
//! The tape records only what the models and their loss run: dense ops
//! (matmul, bias, SELU, the squared-error loss's difference, square and
//! mean), the fused GRU step with its parameter packing, and the two
//! *structural* primitives GNN message passing is made of, with exact
//! adjoints:
//!
//! - [`Graph::gru_step_rows`] — advance the active path rows, each reading
//!   its entity's row of a projection table through the entity ids
//!   (adjoint: scatter-add into the table), and
//! - [`Graph::segment_acc_rows`] — accumulate per-position messages into
//!   entity states, over the active rows only (adjoint: gather).
//!
//! [`Graph::gather_rows`] (adjoint: scatter-add) selects the rows a loss
//! reads.
//!
//! [`check`] provides finite-difference gradient checking, used extensively in
//! the test suites of this crate and of `rn-nn`.
//!
//! See `docs/ARCHITECTURE.md` at the workspace root for how the tape fits
//! into the plan → compose → megabatch → tape pipeline and which
//! bitwise-determinism invariants this crate promises the layers above it.
//!
//! ## Example
//!
//! ```
//! use rn_tensor::Matrix;
//! use rn_autograd::Graph;
//!
//! let mut g = Graph::new();
//! let x = g.param(Matrix::row_vector(&[1.0, 2.0]));
//! let w = g.param(Matrix::from_vec(2, 1, vec![3.0, 4.0]));
//! let y = g.matmul(x, w);          // y = x·w = 11
//! let loss = g.mean(y);
//! g.backward(loss);
//! assert_eq!(g.grad(w).unwrap().as_slice(), &[1.0, 2.0]); // d(loss)/dw = xᵀ
//! ```

#![warn(missing_docs)]

pub mod activations;
pub mod bufpool;
pub mod check;
pub mod graph;
pub mod index;
pub mod pool;
pub mod trace;

pub use bufpool::BufPool;
pub use graph::{Graph, GruVars, Var};
pub use index::{IndexInput, SharedIndices};
pub use pool::TapePool;
