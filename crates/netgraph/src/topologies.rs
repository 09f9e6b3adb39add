//! Canonical topologies.
//!
//! - [`nsfnet`]: the standard 14-node / 21-edge NSFNET T1 backbone, the
//!   adjacency used by the RouteNet datasets (and by Hei et al. 2004, the
//!   paper's reference \[3\]).
//! - [`geant2`]: a 24-node / 37-edge topology modeled after the GEANT2
//!   pan-European research network. **Substitution note** (see DESIGN.md): the
//!   exact `.ned` adjacency of the paper's dataset was not available offline;
//!   this reconstruction preserves the properties RouteNet's evaluation relies
//!   on — 24 nodes, 37 duplex links, hub-dominated degree distribution,
//!   diameter ≈ 5 — so generalization experiments retain their meaning.
//! - [`abilene`]: the 11-node Internet2/Abilene backbone, used in extension
//!   experiments beyond the paper.
//! - [`toy5`]: a 5-node example network for documentation, unit tests and the
//!   Figure-1 message-passing trace.
//!
//! All constructors take uniform link capacity/propagation delay; dataset
//! generators may re-draw per-link capacities afterwards via
//! [`crate::Topology::set_link_capacity`].

use crate::Topology;

/// Default link capacity used across the datasets (bits per second). Matches
/// the 10 kbps scale of the public RouteNet/KDN datasets, where average flow
/// rates of a few hundred bit/s drive queues into interesting regimes.
pub const DEFAULT_CAPACITY_BPS: f64 = 10_000.0;

/// Default propagation delay: zero, as in the KDN datasets, where queueing and
/// transmission dominate end-to-end delay.
pub const DEFAULT_PROP_DELAY_S: f64 = 0.0;

/// Undirected edge list of the 14-node NSFNET backbone (21 edges).
pub const NSFNET_EDGES: [(usize, usize); 21] = [
    (0, 1),
    (0, 2),
    (0, 3),
    (1, 2),
    (1, 7),
    (2, 5),
    (3, 4),
    (3, 10),
    (4, 5),
    (4, 6),
    (5, 9),
    (5, 13),
    (6, 7),
    (7, 8),
    (8, 9),
    (8, 11),
    (8, 12),
    (10, 11),
    (10, 12),
    (11, 13),
    (12, 13),
];

/// Undirected edge list of the GEANT2-like topology (24 nodes, 37 edges).
pub const GEANT2_EDGES: [(usize, usize); 37] = [
    (0, 1),
    (0, 2),
    (1, 3),
    (1, 6),
    (1, 9),
    (2, 3),
    (2, 4),
    (3, 5),
    (3, 6),
    (4, 7),
    (4, 11),
    (5, 8),
    (6, 8),
    (6, 9),
    (7, 8),
    (7, 11),
    (8, 11),
    (8, 12),
    (8, 17),
    (8, 18),
    (9, 10),
    (9, 12),
    (9, 13),
    (10, 13),
    (11, 14),
    (11, 20),
    (12, 13),
    (12, 19),
    (12, 21),
    (14, 15),
    (15, 16),
    (16, 17),
    (17, 18),
    (18, 21),
    (19, 23),
    (21, 22),
    (22, 23),
];

/// Undirected edge list of the 11-node Abilene/Internet2 backbone (14 edges).
pub const ABILENE_EDGES: [(usize, usize); 14] = [
    (0, 1),
    (0, 2),
    (1, 2),
    (1, 3),
    (2, 5),
    (3, 4),
    (4, 5),
    (4, 7),
    (5, 6),
    (6, 7),
    (6, 8),
    (7, 9),
    (8, 10),
    (9, 10),
];

/// The 14-node NSFNET topology with uniform link parameters.
pub fn nsfnet(capacity_bps: f64, prop_delay_s: f64) -> Topology {
    Topology::from_undirected_edges("nsfnet", 14, &NSFNET_EDGES, capacity_bps, prop_delay_s)
}

/// NSFNET with the default 10 kbps / zero-delay links.
pub fn nsfnet_default() -> Topology {
    nsfnet(DEFAULT_CAPACITY_BPS, DEFAULT_PROP_DELAY_S)
}

/// The 24-node GEANT2-like topology with uniform link parameters.
pub fn geant2(capacity_bps: f64, prop_delay_s: f64) -> Topology {
    Topology::from_undirected_edges("geant2", 24, &GEANT2_EDGES, capacity_bps, prop_delay_s)
}

/// GEANT2 with the default 10 kbps / zero-delay links.
pub fn geant2_default() -> Topology {
    geant2(DEFAULT_CAPACITY_BPS, DEFAULT_PROP_DELAY_S)
}

/// The 11-node Abilene topology with uniform link parameters.
pub fn abilene(capacity_bps: f64, prop_delay_s: f64) -> Topology {
    Topology::from_undirected_edges("abilene", 11, &ABILENE_EDGES, capacity_bps, prop_delay_s)
}

/// Abilene with the default 10 kbps / zero-delay links.
pub fn abilene_default() -> Topology {
    abilene(DEFAULT_CAPACITY_BPS, DEFAULT_PROP_DELAY_S)
}

/// A 5-node example network (a square with one diagonal) used by docs, unit
/// tests and the Figure-1 trace.
pub fn toy5() -> Topology {
    Topology::from_undirected_edges(
        "toy5",
        5,
        &[(0, 1), (1, 2), (2, 3), (3, 0), (1, 3), (3, 4)],
        DEFAULT_CAPACITY_BPS,
        DEFAULT_PROP_DELAY_S,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nsfnet_shape_matches_paper() {
        let t = nsfnet_default();
        assert_eq!(t.num_nodes(), 14);
        assert_eq!(t.num_links(), 42, "21 duplex edges = 42 directed links");
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn geant2_shape_matches_paper() {
        let t = geant2_default();
        assert_eq!(t.num_nodes(), 24);
        assert_eq!(t.num_links(), 74, "37 duplex edges = 74 directed links");
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn abilene_shape() {
        let t = abilene_default();
        assert_eq!(t.num_nodes(), 11);
        assert_eq!(t.num_links(), 28);
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn toy5_is_connected() {
        assert!(toy5().is_strongly_connected());
    }

    #[test]
    fn every_node_has_a_link() {
        for topo in [
            nsfnet_default(),
            geant2_default(),
            abilene_default(),
            toy5(),
        ] {
            for n in 0..topo.num_nodes() {
                assert!(
                    !topo.out_links(n).is_empty(),
                    "{}: node {n} is isolated",
                    topo.name
                );
            }
        }
    }

    #[test]
    fn no_duplicate_undirected_edges() {
        for edges in [&NSFNET_EDGES[..], &GEANT2_EDGES[..], &ABILENE_EDGES[..]] {
            let mut seen = std::collections::HashSet::new();
            for &(a, b) in edges {
                let key = (a.min(b), a.max(b));
                assert!(seen.insert(key), "duplicate edge {key:?}");
                assert_ne!(a, b, "self-loop in edge list");
            }
        }
    }

    #[test]
    fn geant2_has_hub_structure() {
        // The reconstruction must preserve a hub-dominated degree profile.
        let t = geant2_default();
        let max_degree = t.degrees().into_iter().max().unwrap();
        assert!(
            max_degree >= 6,
            "expected a hub of degree >= 6, got {max_degree}"
        );
    }
}
