//! # routenet
//!
//! The paper's contribution: **RouteNet** (Rusek et al., SOSR'19) and the
//! **extended RouteNet** of Badia-Sampera et al. (CoNEXT'19), which adds a
//! *node entity* so device-level features — queue size in the paper — enter
//! the model.
//!
//! ## Architecture recap
//!
//! RouteNet maintains hidden state vectors for **links** and **paths** and
//! alternates, for `T` iterations:
//!
//! 1. **Path update** — a GRU reads, for every path, the sequence of entity
//!    states along the path (original: its links; extended: the interleaved
//!    `node₁-link₁-node₂-link₂-…` sequence). The GRU's hidden state after
//!    consuming position *j* is the *message* from the path to the entity at
//!    position *j*; the final hidden state becomes the new path state.
//! 2. **Link update** — every link aggregates (element-wise sum) the messages
//!    of the paths crossing it and feeds them through `RNN_L`.
//! 3. **Node update** (extended only) — every node aggregates the messages of
//!    the paths traversing it and feeds them through `RNN_N`.
//!
//! After `T` iterations a feed-forward readout maps each path state to the
//! predicted per-path delay. The learnable functions are exactly the four of
//! the paper: `RNN_P`, `RNN_L`, `RNN_N`, readout.
//!
//! ## Crate layout
//!
//! - [`config`] — hyper-parameters. A node aggregates the path-GRU states
//!   *at its positions*, symmetric with the link update; the paper's literal
//!   "sum of the final path states" lost every seed and topology of
//!   `BENCH_accuracy.json`'s `decided` block and is gone.
//! - [`features`] — feature scaling fitted on the training set.
//! - [`entities`] — converts a dataset sample into the tensors and the one
//!   row-compacted gather/scatter schedule message passing executes over.
//! - [`model`] — the one message-passing loop, `RouteNet<ENTITIES>`, and its
//!   three entity lists: [`OriginalRouteNet`] (`[Link]`),
//!   [`ExtendedRouteNet`] (`[Node, Link]`) and the QoS-aware
//!   [`QosRouteNet`] (`[Node, Queue, Link]`: adds a per-(link, class) queue
//!   entity).
//! - [`trainer`] — minibatch Adam training with rayon data-parallel gradients.
//! - [`eval`] — relative-error evaluation and CDF series (Figure 2).
//! - [`persist`] — atomic JSON save/load of trained models.
//! - [`plan_cache`] — scenario fingerprints and the compiled-plan LRU cache
//!   the serving layer (`rn_serve`) builds on.
//! - [`compose`] — the megabatch composition layer: `B` plans composed into
//!   the one block-diagonal plan the forward runs, and in-place feature
//!   refill through the same writer.

#![warn(missing_docs)]

pub mod compose;
pub mod config;
pub mod entities;
pub mod eval;
pub mod features;
mod lru;
pub mod model;
pub mod persist;
pub mod plan_cache;
pub mod train_trace;
pub mod trainer;

pub use compose::ComposedMegabatch;
pub use config::{ModelConfig, NodeUpdate};
pub use entities::{EntityKind, MegabatchError, SamplePlan};
pub use eval::{evaluate, EvalReport};
pub use features::FeatureScales;
pub use model::{ExtendedRouteNet, OriginalRouteNet, PathPredictor, QosRouteNet};
pub use plan_cache::{sample_fingerprint, PlanCache};
pub use trainer::{train, TrainConfig, TrainingHistory};
