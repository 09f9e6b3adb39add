//! # rn-serve
//!
//! A concurrent inference service over the megabatch engine: the missing
//! layer between "a fast `predict_batch`" and "serves heavy interactive
//! what-if traffic".
//!
//! ## Architecture
//!
//! ```text
//!             ┌────────────┐   ┌──────────────────────────────┐
//!  clients ──▶│ TCP (JSONL)│──▶│ admission queue              │
//!   (or the   └────────────┘   │  ├ dynamic batcher: flush on │
//!    in-proc  ┌────────────┐   │  │  max_batch / path budget /│
//!    handle) ─▶ ServeHandle│──▶│  │  deadline                 │
//!             └────────────┘   └──┼───────────────────────────┘
//!                                 ▼
//!                     worker pool (TapePool-backed tapes)
//!                                 │  one fused block-diagonal
//!                                 ▼  forward per batch
//!            ┌──────────────┐  ┌───────────────┐  ┌─────────────┐
//!            │ PlanCache    │  │ ModelRegistry │  │ ServeMetrics│
//!            │ (plan's own  │  │ (atomic hot-  │  │ (latency /  │
//!            │  fingerprint │  │  swap)        │  │  occupancy) │
//!            │  → plan LRU) │  │               │  │             │
//!            └──────────────┘  └───────────────┘  └─────────────┘
//! ```
//!
//! `Register` and `Predict` plan their scenario, key the plan by its own
//! fingerprint and insert it into the [`routenet::PlanCache`]; only `Cached`
//! looks a plan up.
//!
//! - [`service`] — admission queue, dynamic batching, the worker pool, and
//!   the in-process [`ServeHandle`] API.
//! - [`server`] — the JSONL-over-TCP frontend (`Register` / `Predict` /
//!   `Cached` / `Metrics`).
//! - [`registry`] — versioned model slot with atomic hot-swap.
//! - [`metrics`] — throughput, latency percentiles, batch occupancy, the
//!   `Cached` hit rate.
//! - [`loadgen`] — the measurement client driving the serving benchmark.
//! - [`fault`] — deterministic chaos injection (worker panics/kills, batch
//!   latency, connection drops), set in code through `ServeConfig::chaos`.
//! - [`cli`] — the strict `--flag value` parsing of the two binaries.
//!
//! Serving results are bitwise identical to direct
//! [`routenet::PathPredictor::predict_batch`] calls regardless of how the
//! dynamic batcher groups requests — see the crate's stress tests.
//!
//! ## Fault tolerance
//!
//! Workers are *supervised*: batch execution runs under `catch_unwind` (a
//! panicking batch answers its requests with errors instead of aborting the
//! process), panics escaping a batch respawn the worker loop, and every
//! lock acquisition recovers from poison instead of cascading. Requests
//! carry optional deadlines; a full admission queue sheds load with a
//! structured `Overloaded {retry_after_ms}` reply. `tests/serve_faults.rs`
//! drives all of it through injected chaos.

pub mod cli;
pub mod fault;
pub mod loadgen;
pub mod metrics;
pub mod registry;
pub mod server;
pub mod service;
mod sync;

pub use fault::{ChaosPlan, FaultInjector};
pub use loadgen::{run_loadgen, LoadMode, LoadgenConfig, LoadgenReport};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use registry::ModelRegistry;
pub use server::{Request, Response, TcpServer};
pub use service::{ServeConfig, ServeError, ServeHandle, Service};
