//! # rn-netsim
//!
//! A packet-level discrete-event network simulator — the stand-in for the
//! paper's in-house OMNeT++ simulator. It produces the ground-truth per-path
//! delay/jitter/loss labels the RouteNet models are trained on.
//!
//! ## Model
//!
//! - Every ordered source–destination pair with positive traffic is a *flow*.
//!   Flows emit packets as independent Poisson processes (exponential
//!   inter-arrival times) with i.i.d. exponential packet sizes, and every
//!   packet follows the pair's routed path.
//! - Every directed link has one *output port* at its transmitting node: a
//!   single server (transmission time = size / capacity) with a finite FIFO
//!   drop-tail queue. **Queue capacity is a per-node property** — the feature
//!   the extended RouteNet models — counted in waiting packets (the packet in
//!   transmission does not occupy a slot).
//! - Store-and-forward: a packet is eligible at the next hop only after its
//!   last bit leaves the link (plus propagation delay).
//!
//! ## Determinism
//!
//! A simulation is a pure function of its inputs and one `u64` seed. Each flow
//! draws arrivals and sizes from its own split RNG stream, and simultaneous
//! events are ordered by a global sequence number, so results do not depend on
//! platform or on how many flows exist.
//!
//! ## QoS scenarios
//!
//! A [`QosSpec`] attaches per-flow ToS classes, a multi-queue scheduling
//! policy (Strict Priority, WFQ/SCFQ, or DRR — see [`SchedulingPolicy`]) and
//! per-class traffic models ([`TrafficProfile`]: Poisson, on-off, bursty
//! batches, multimodal packet sizes) to a run via [`simulate_qos`]. Results
//! then carry pooled per-class statistics ([`metrics::ClassStats`]) next to
//! the per-flow labels. There is one event loop: [`simulate`] runs it with a
//! single-class FIFO/Poisson spec (the model above) and reports no per-class
//! statistics; `tests/legacy_digest.rs` freezes its output bits.
//!
//! ## Validation
//!
//! The test suite checks conservation (created = delivered + dropped +
//! in-flight), FIFO ordering per port, scheduler invariants (work
//! conservation, strict-priority ordering, DRR fairness bounds — see
//! `tests/qos_proptests.rs`), and — on single-queue scenarios — agreement
//! with closed-form M/M/1, M/M/1/K and priority/WFQ results from
//! `rn-qtheory`.

pub mod config;
pub mod engine;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod port;
pub mod qos;

pub use config::{QueueProfile, SimConfig};
pub use engine::{simulate, simulate_qos, Simulation};
pub use fault::FaultPlan;
pub use metrics::{ClassStats, FlowStats, LinkStats, SimResult};
pub use qos::{QosSpec, SchedulingPolicy, TrafficProfile};
