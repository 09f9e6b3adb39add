//! # rn-netgraph
//!
//! Network topology model for the RouteNet reproduction: graphs, canonical
//! topologies, routing schemes and traffic matrices.
//!
//! The paper evaluates on two topologies — the 14-node NSFNET and the 24-node
//! GEANT2 — with "diverse combinations of … routing schemes and end-to-end
//! traffic matrices". This crate supplies all three ingredients:
//!
//! - [`Topology`]: a directed multigraph of forwarding devices and capacity-
//!   annotated links ([`topologies`] has the canonical instances, [`generators`]
//!   random ones for tests and robustness experiments).
//! - [`Routing`]: one path per source–destination pair, computed by Dijkstra
//!   under configurable link weights; randomizing the weights yields the
//!   diverse routing schemes of the datasets.
//! - [`TrafficMatrix`]: average traffic rate per pair, drawn uniformly and
//!   scaled to a target utilization level.

pub mod generators;
pub mod graph;
mod pairs;
pub mod routing;
pub mod topologies;
pub mod traffic;

pub use graph::{Link, LinkId, NodeId, Topology};
pub use routing::{Path, Routing};
pub use traffic::TrafficMatrix;
