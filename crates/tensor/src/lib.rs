//! # rn-tensor
//!
//! Minimal dense linear-algebra substrate for the RouteNet reproduction.
//!
//! The whole GNN stack (autograd tape, GRU cells, readout MLPs) is built on a
//! single concrete type: [`Matrix`], a row-major dense 2-D array of `f32`.
//! Batches of entities (paths, links, nodes) are rows; features are columns.
//!
//! The crate also provides:
//!
//! - [`rng`]: deterministic, splittable random-number streams plus the
//!   distributions the simulator and the initializers need (uniform, normal,
//!   exponential, Poisson-process inter-arrivals).
//! - [`stats`]: descriptive statistics (mean/variance/percentiles), empirical
//!   CDFs (the output format of the paper's Figure 2) and histograms.
//! - [`activations`]: the scalar activation functions (fast Cody–Waite
//!   transcendentals plus libm-backed `*_precise` references) shared by the
//!   autograd tape and the layer stack.
//! - [`simd`]: the one runtime gate ([`simd::Tier`]: AVX-512, AVX2 or
//!   baseline, from the CPU alone) that the matmul bodies in [`matrix`], the
//!   slice-level activation maps and `rn_autograd`'s fused GRU step dispatch
//!   on — every tier bitwise identical to the scalar form for finite inputs.
//!
//! Design notes: following the smoltcp ethos, this crate favours simplicity
//! and robustness over cleverness — no generic scalar type, no lifetime
//! tricks; every operation validates shapes and panics with a precise message
//! on misuse (shape errors are programming errors, not runtime conditions).
//! The one concession to speed is [`simd`], and it buys none of it with
//! result drift: every vector kernel is pinned bitwise to its scalar loop.

pub mod activations;
pub mod matrix;
pub mod rng;
pub mod simd;
pub mod stats;

pub use matrix::{kernels, Matrix};
pub use rng::Prng;
pub use stats::{empirical_cdf, percentile, Summary};
