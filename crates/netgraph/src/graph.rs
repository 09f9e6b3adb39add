//! Directed network topology.

use serde::{Deserialize, Serialize};

/// Index of a forwarding device.
pub type NodeId = usize;
/// Index of a directed link.
pub type LinkId = usize;

/// A directed, capacity-annotated link between two forwarding devices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Transmission capacity in bits per second.
    pub capacity_bps: f64,
    /// Propagation delay in seconds.
    pub prop_delay_s: f64,
}

/// A directed multigraph of forwarding devices.
///
/// Physical networks are modeled as symmetric pairs of directed links (one per
/// direction), because each direction has its own output queue — the entity
/// whose size the extended RouteNet models.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    /// Human-readable name (used in dataset manifests and reports).
    pub name: String,
    num_nodes: usize,
    links: Vec<Link>,
    /// Outgoing link ids per node, in insertion order.
    out_links: Vec<Vec<LinkId>>,
}

impl Topology {
    /// An empty topology with `num_nodes` devices and no links.
    pub fn new(name: impl Into<String>, num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "Topology::new: need at least one node");
        Self {
            name: name.into(),
            num_nodes,
            links: Vec::new(),
            out_links: vec![Vec::new(); num_nodes],
        }
    }

    /// Add one directed link; returns its id.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity_bps: f64,
        prop_delay_s: f64,
    ) -> LinkId {
        assert!(src < self.num_nodes, "add_link: src {src} out of range");
        assert!(dst < self.num_nodes, "add_link: dst {dst} out of range");
        assert_ne!(src, dst, "add_link: self-loops are not allowed");
        check_capacity("add_link", capacity_bps);
        assert!(
            prop_delay_s >= 0.0,
            "add_link: propagation delay must be non-negative"
        );
        let id = self.links.len();
        self.links.push(Link {
            src,
            dst,
            capacity_bps,
            prop_delay_s,
        });
        self.out_links[src].push(id);
        id
    }

    /// Add a symmetric pair of directed links; returns `(forward, reverse)` ids.
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_bps: f64,
        prop_delay_s: f64,
    ) -> (LinkId, LinkId) {
        (
            self.add_link(a, b, capacity_bps, prop_delay_s),
            self.add_link(b, a, capacity_bps, prop_delay_s),
        )
    }

    /// Build from an undirected edge list, creating both directions of every
    /// edge with uniform capacity and delay.
    pub fn from_undirected_edges(
        name: impl Into<String>,
        num_nodes: usize,
        edges: &[(NodeId, NodeId)],
        capacity_bps: f64,
        prop_delay_s: f64,
    ) -> Self {
        let mut topo = Self::new(name, num_nodes);
        for &(a, b) in edges {
            topo.add_duplex(a, b, capacity_bps, prop_delay_s);
        }
        topo
    }

    /// Number of forwarding devices.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The link with the given id. Panics on out-of-range ids.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id]
    }

    /// All links, indexed by [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Ids of the links leaving `node`.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out_links[node]
    }

    /// Replace the capacity of a link (used by dataset generators that draw
    /// heterogeneous capacities per sample). Panics unless the capacity is a
    /// positive, finite, normal number.
    pub fn set_link_capacity(&mut self, id: LinkId, capacity_bps: f64) {
        check_capacity("set_link_capacity", capacity_bps);
        self.links[id].capacity_bps = capacity_bps;
    }

    /// The directed link from `src` to `dst`, if one exists (first match for
    /// multigraphs).
    pub fn find_link(&self, src: NodeId, dst: NodeId) -> Option<LinkId> {
        self.out_links[src]
            .iter()
            .copied()
            .find(|&id| self.links[id].dst == dst)
    }

    /// Out-degree of each node.
    pub fn degrees(&self) -> Vec<usize> {
        self.out_links.iter().map(Vec::len).collect()
    }

    /// True when every node can reach every other node over directed links.
    pub fn is_strongly_connected(&self) -> bool {
        if self.num_nodes == 0 {
            return true;
        }
        // BFS out from node 0 and over reversed links from node 0.
        let forward = self.reachable_from(0, false);
        let backward = self.reachable_from(0, true);
        forward.iter().all(|&r| r) && backward.iter().all(|&r| r)
    }

    fn reachable_from(&self, start: NodeId, reversed: bool) -> Vec<bool> {
        let mut seen = vec![false; self.num_nodes];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(n) = stack.pop() {
            for link in &self.links {
                let (from, to) = if reversed {
                    (link.dst, link.src)
                } else {
                    (link.src, link.dst)
                };
                if from == n && !seen[to] {
                    seen[to] = true;
                    stack.push(to);
                }
            }
        }
        seen
    }

    /// All ordered source–destination pairs `(s, d)` with `s != d` — the path
    /// set RouteNet models.
    pub fn all_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let mut pairs = Vec::with_capacity(self.num_nodes * (self.num_nodes - 1));
        for s in 0..self.num_nodes {
            for d in 0..self.num_nodes {
                if s != d {
                    pairs.push((s, d));
                }
            }
        }
        pairs
    }
}

/// A capacity divides every rate routed over its link: an infinite one
/// makes the link free, and a subnormal one overflows its utilisation to
/// infinity.
fn check_capacity(op: &str, capacity_bps: f64) {
    assert!(
        capacity_bps > 0.0 && capacity_bps.is_normal(),
        "{op}: capacity must be positive, finite and normal (got {capacity_bps:e})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        Topology::from_undirected_edges("tri", 3, &[(0, 1), (1, 2), (2, 0)], 1e4, 0.0)
    }

    #[test]
    fn duplex_creates_both_directions() {
        let t = triangle();
        assert_eq!(t.num_links(), 6);
        assert!(t.find_link(0, 1).is_some());
        assert!(t.find_link(1, 0).is_some());
        assert!(t.find_link(0, 2).is_some());
    }

    #[test]
    fn out_links_track_sources() {
        let t = triangle();
        for n in 0..3 {
            assert_eq!(t.out_links(n).len(), 2, "node {n}");
            for &l in t.out_links(n) {
                assert_eq!(t.link(l).src, n);
            }
        }
    }

    #[test]
    fn strongly_connected_detection() {
        assert!(triangle().is_strongly_connected());
        let mut one_way = Topology::new("oneway", 2);
        one_way.add_link(0, 1, 1e4, 0.0);
        assert!(!one_way.is_strongly_connected());
        let disconnected = Topology::new("disc", 3);
        assert!(!disconnected.is_strongly_connected());
    }

    #[test]
    fn all_pairs_excludes_diagonal() {
        let t = triangle();
        let pairs = t.all_pairs();
        assert_eq!(pairs.len(), 6);
        assert!(pairs.iter().all(|&(s, d)| s != d));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut t = Topology::new("bad", 2);
        t.add_link(1, 1, 1e4, 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let mut t = Topology::new("bad", 2);
        t.add_link(0, 1, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive, finite and normal (got inf)")]
    fn rejects_infinite_capacity() {
        Topology::new("bad", 2).add_link(0, 1, f64::INFINITY, 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive, finite and normal (got NaN)")]
    fn rejects_nan_capacity() {
        Topology::new("bad", 2).add_link(0, 1, f64::NAN, 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive, finite and normal (got 5e-324)")]
    fn rejects_subnormal_capacity() {
        Topology::new("bad", 2).add_link(0, 1, 5e-324, 0.0);
    }

    #[test]
    #[should_panic(expected = "set_link_capacity: capacity must be positive, finite and normal")]
    fn set_link_capacity_rejects_a_subnormal() {
        triangle().set_link_capacity(0, 5e-324);
    }

    #[test]
    fn serde_round_trip() {
        let t = triangle();
        let json = serde_json::to_string(&t).unwrap();
        let back: Topology = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_nodes(), 3);
        assert_eq!(back.num_links(), 6);
        assert_eq!(back.out_links(1).len(), 2);
    }
}
