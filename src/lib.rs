//! # routenet-repro
//!
//! Umbrella crate for the reproduction of *"Towards more realistic network models
//! based on Graph Neural Networks"* (Badia-Sampera et al., CoNEXT 2019).
//!
//! This crate re-exports the public surfaces of every workspace member so the
//! examples and integration tests can exercise the whole pipeline through a single
//! dependency. Downstream users should normally depend on the individual crates:
//!
//! - [`rn_tensor`] — dense f32 matrices, RNG and statistics.
//! - [`rn_autograd`] — tape-based reverse-mode automatic differentiation.
//! - [`rn_nn`] — neural-network layers (GRU, MLP), losses and optimizers.
//! - [`rn_netgraph`] — network topologies, routing schemes and traffic matrices.
//! - [`rn_netsim`] — the packet-level discrete-event simulator (ground truth).
//! - [`rn_qtheory`] — analytical M/M/1(/K) baselines.
//! - [`rn_dataset`] — dataset schema, generation, normalization and IO.
//! - [`routenet`] — the paper's contribution: original and extended RouteNet.
//!
//! See `docs/ARCHITECTURE.md` for the system map: which crate owns what, the
//! plan → compose → megabatch → tape data flow, the determinism invariants
//! and how performance is measured.

pub use rn_autograd as autograd;
pub use rn_dataset as dataset;
pub use rn_netgraph as netgraph;
pub use rn_netsim as netsim;
pub use rn_nn as nn;
pub use rn_qtheory as qtheory;
pub use rn_tensor as tensor;
pub use routenet as model;
