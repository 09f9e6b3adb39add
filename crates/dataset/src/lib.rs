//! # rn-dataset
//!
//! Dataset schema, generation, normalization and IO for the RouteNet
//! reproduction.
//!
//! A [`Sample`] is one simulated network scenario: a routing scheme, a traffic
//! matrix, per-node queue profiles and per-link capacities, plus the simulated
//! per-path delay/jitter/loss labels. A [`Dataset`] is a topology plus many
//! samples; [`generate()`] produces them in parallel, each fully determined by
//! `master_seed` and its index (so regenerating sample 17 alone yields exactly
//! the same scenario).
//!
//! The paper trains on 400,000 GEANT2 samples and evaluates on 100,000 GEANT2
//! plus 100,000 NSFNET samples. Dataset sizes here are arguments, not
//! constants — the experiment binaries in `crates/bench/src/bin` set the
//! scaled-down defaults used for the reproduction (see the "Figure/ablation
//! binaries" section of `docs/ARCHITECTURE.md`).

pub mod generate;
pub mod io;
pub mod normalize;
pub mod schema;
pub mod split;

pub use generate::{
    generate, generate_sample, generate_sparse, generate_sparse_sample, GeneratorConfig,
    QosGenConfig, TrafficModel,
};
pub use normalize::Normalizer;
pub use schema::{Dataset, PathTarget, Sample, SampleQos};
pub use split::train_test_split;
