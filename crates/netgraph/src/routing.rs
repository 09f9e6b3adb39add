//! Routing schemes: one loop-free path per source–destination pair.
//!
//! RouteNet's input is a routing scheme, and the datasets contain *diverse*
//! schemes. We obtain them the way the KDN datasets did: compute shortest
//! paths under per-link weights, and randomize the weights per sample
//! ([`Routing::randomized`]) so different samples route differently while
//! every individual path stays loop-free and connected.

use crate::graph::{LinkId, NodeId, Topology};
use crate::pairs::{Entry, PairTable};
use rn_tensor::Prng;
use serde::json::Reader;
use serde::value::DeError;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A source–destination path: the node sequence and the directed links that
/// join consecutive nodes (`links.len() == nodes.len() - 1`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Path {
    /// Traversed devices, source first, destination last.
    pub nodes: Vec<NodeId>,
    /// Traversed links, in travel order.
    pub links: Vec<LinkId>,
}

impl Path {
    /// Number of hops (links traversed).
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Source node.
    pub fn src(&self) -> NodeId {
        *self.nodes.first().expect("Path has at least two nodes")
    }

    /// Destination node.
    pub fn dst(&self) -> NodeId {
        *self.nodes.last().expect("Path has at least two nodes")
    }

    /// Check structural validity against a topology: links connect consecutive
    /// nodes and no node repeats (loop-free).
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        if self.nodes.len() < 2 {
            return Err("path must visit at least two nodes".into());
        }
        if self.links.len() + 1 != self.nodes.len() {
            return Err(format!(
                "path has {} nodes but {} links",
                self.nodes.len(),
                self.links.len()
            ));
        }
        for (i, &l) in self.links.iter().enumerate() {
            if l >= topo.num_links() {
                return Err(format!("link id {l} out of range"));
            }
            let link = topo.link(l);
            if link.src != self.nodes[i] || link.dst != self.nodes[i + 1] {
                return Err(format!(
                    "link {l} ({} -> {}) does not join path nodes {} -> {}",
                    link.src,
                    link.dst,
                    self.nodes[i],
                    self.nodes[i + 1]
                ));
            }
        }
        let mut seen = vec![false; topo.num_nodes()];
        for &n in &self.nodes {
            if seen[n] {
                return Err(format!("node {n} repeats: path has a loop"));
            }
            seen[n] = true;
        }
        Ok(())
    }
}

/// A routing scheme: one path per routed ordered pair of distinct nodes —
/// every connected pair ([`Routing::weighted_shortest_paths`]) or the pairs
/// a scenario selects ([`Routing::sparse_weighted_shortest_paths`]).
///
/// Only the routed pairs are stored: their paths, keyed `src · n + dst` in
/// ascending order, so [`Routing::path`] is a binary search and a sparse
/// scheme holds `O(routed pairs)` bytes whatever the node count. The JSON is
/// still the dense `n × n` table, `{"num_nodes":n,"paths":[…]}` with `null`
/// for every unrouted pair: dataset files and serving requests keep their
/// bytes, and a `Predict` line for an `n`-node scenario still carries `n²`
/// slots.
#[derive(Debug, Clone)]
pub struct Routing {
    table: PairTable<Path>,
}

impl Entry for Path {
    const FIELD: &'static str = "paths";
    const EMPTY: &'static str = "null";
    fn read_json(r: &mut Reader<'_>) -> Result<Option<Self>, DeError> {
        Option::<Path>::deserialize_json(r)
    }
}

impl Serialize for Routing {
    fn serialize_json(&self, out: &mut String) {
        self.table.serialize_json(out);
    }
}

impl<'de> Deserialize<'de> for Routing {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        PairTable::deserialize_json(r).map(|table| Self { table })
    }
}

/// The path from `src` to `dst` along Dijkstra's predecessor links.
fn walk_back(topo: &Topology, prev_link: &[Option<LinkId>], src: NodeId, dst: NodeId) -> Path {
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let l = prev_link[cur].expect("finite distance implies a predecessor");
        links.push(l);
        cur = topo.link(l).src;
    }
    links.reverse();
    let mut nodes = vec![src];
    for &l in &links {
        nodes.push(topo.link(l).dst);
    }
    Path { nodes, links }
}

impl Routing {
    /// Shortest paths under unit link weights (minimum hop count).
    pub fn shortest_paths(topo: &Topology) -> Self {
        let weights = vec![1.0; topo.num_links()];
        Self::weighted_shortest_paths(topo, &weights)
    }

    /// A randomized routing scheme: shortest paths under link weights drawn
    /// uniformly from `[1, 2)`. Different seeds yield genuinely different
    /// schemes while paths remain near-shortest and loop-free.
    pub fn randomized(topo: &Topology, rng: &mut Prng) -> Self {
        let weights: Vec<f64> = (0..topo.num_links())
            .map(|_| 1.0 + rng.uniform() as f64)
            .collect();
        Self::weighted_shortest_paths(topo, &weights)
    }

    /// Shortest paths under explicit per-link weights (must all be positive)
    /// between every ordered pair of distinct, connected nodes: the sparse
    /// scheme below over every pair.
    ///
    /// Ties are broken deterministically (by predecessor link id), so equal
    /// inputs produce identical routings on every platform.
    pub fn weighted_shortest_paths(topo: &Topology, weights: &[f64]) -> Self {
        let n = topo.num_nodes();
        let every_pair: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|src| (0..n).map(move |dst| (src, dst)))
            .collect();
        Self::sparse_weighted_shortest_paths(topo, weights, &every_pair)
    }

    /// Shortest paths for a **selected subset** of source–destination pairs
    /// under positive per-link weights — the giant-topology entry point. A full
    /// scheme on an `n`-node graph runs `n` Dijkstras and stores `n(n-1)`
    /// paths; for a 1000-node ISP topology that is a million paths when a
    /// scenario only exercises a few hundred. This constructor runs one
    /// Dijkstra per *distinct source* in `pairs` and routes only the
    /// requested pairs, so [`Routing::num_paths`] (and therefore the label
    /// count a [`crate::TrafficMatrix`]-driven simulation produces) matches
    /// the active-pair count exactly.
    ///
    /// Self-pairs and unreachable pairs are left unrouted; duplicates
    /// collapse. [`Routing::iter_paths`] stays row-major over routed pairs,
    /// and since [`Routing::weighted_shortest_paths`] is this scheme over
    /// every pair, a requested pair is routed exactly as the dense scheme
    /// routes it.
    pub fn sparse_weighted_shortest_paths(
        topo: &Topology,
        weights: &[f64],
        pairs: &[(NodeId, NodeId)],
    ) -> Self {
        assert_eq!(
            weights.len(),
            topo.num_links(),
            "one weight per link required"
        );
        assert!(
            weights.iter().all(|&w| w > 0.0),
            "link weights must be positive"
        );
        let n = topo.num_nodes();
        let mut by_src: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(src, dst) in pairs {
            assert!(src < n && dst < n, "pair ({src}, {dst}) out of range");
            if src != dst {
                by_src[src].push(dst);
            }
        }
        for dsts in &mut by_src {
            dsts.sort_unstable();
            dsts.dedup();
        }
        let mut table = PairTable::with_capacity(n, by_src.iter().map(Vec::len).sum());
        for (src, dsts) in by_src.iter().enumerate() {
            if dsts.is_empty() {
                continue;
            }
            let (dist, prev_link) = dijkstra(topo, weights, src);
            for &dst in dsts {
                if dist[dst].is_infinite() {
                    continue;
                }
                let key = table.key(src, dst).expect("both ids are nodes");
                table.set(key, Some(walk_back(topo, &prev_link, src, dst)));
            }
        }
        table.shrink_to_fit();
        Self { table }
    }

    /// The path from `src` to `dst`, if the pair is routed; `None` for an
    /// unrouted pair and for an id that is not a node.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<&Path> {
        self.table.get(self.table.key(src, dst)?)
    }

    /// Number of nodes this routing covers.
    pub fn num_nodes(&self) -> usize {
        self.table.num_nodes()
    }

    /// Whether the table is `num_nodes × num_nodes`, as [`Routing::path`] and
    /// [`Routing::iter_paths`] assume. Every constructor builds it so; a
    /// deserialized routing carries whatever the input said.
    pub fn check_shape(&self) -> Result<(), String> {
        let n = self.num_nodes();
        if n.checked_mul(n) != Some(self.table.slots()) {
            return Err(format!(
                "routing table holds {} entries for {n} nodes",
                self.table.slots()
            ));
        }
        Ok(())
    }

    /// Iterate `(src, dst, path)` over all routed pairs in deterministic
    /// (row-major) order.
    pub fn iter_paths(&self) -> impl Iterator<Item = (NodeId, NodeId, &Path)> {
        self.table.iter()
    }

    /// Total number of routed pairs.
    pub fn num_paths(&self) -> usize {
        self.table.len()
    }

    /// Validate every path against the topology.
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        for (s, d, p) in self.iter_paths() {
            p.validate(topo)
                .map_err(|e| format!("path {s}->{d}: {e}"))?;
            if p.src() != s || p.dst() != d {
                return Err(format!(
                    "path {s}->{d} has endpoints {}->{}",
                    p.src(),
                    p.dst()
                ));
            }
        }
        Ok(())
    }
}

/// Max-heap entry ordered for Dijkstra (min distance first, then node id and
/// predecessor link id for full determinism).
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
    via_link: Option<LinkId>,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on distance for a min-heap; tie-break on (node, link).
        other
            .dist
            .partial_cmp(&self.dist)
            .expect("distances are finite")
            .then_with(|| other.node.cmp(&self.node))
            .then_with(|| other.via_link.cmp(&self.via_link))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra from `src`: returns per-node distance and predecessor link.
fn dijkstra(topo: &Topology, weights: &[f64], src: NodeId) -> (Vec<f64>, Vec<Option<LinkId>>) {
    let n = topo.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev_link: Vec<Option<LinkId>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: src,
        via_link: None,
    });

    while let Some(HeapEntry {
        dist: d,
        node,
        via_link,
    }) = heap.pop()
    {
        if done[node] {
            continue;
        }
        done[node] = true;
        prev_link[node] = via_link;
        for &l in topo.out_links(node) {
            let link = topo.link(l);
            let nd = d + weights[l];
            // Strict improvement, or equal distance via a smaller link id:
            // the deterministic tie-break that keeps routings reproducible.
            let better = nd < dist[link.dst]
                || (nd == dist[link.dst]
                    && prev_link[link.dst].is_none_or(|existing| l < existing)
                    && !done[link.dst]);
            if better {
                dist[link.dst] = nd;
                heap.push(HeapEntry {
                    dist: nd,
                    node: link.dst,
                    via_link: Some(l),
                });
            }
        }
    }
    (dist, prev_link)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;

    #[test]
    fn shortest_paths_cover_all_pairs() {
        let topo = topologies::nsfnet_default();
        let routing = Routing::shortest_paths(&topo);
        assert_eq!(routing.num_paths(), 14 * 13);
        routing.validate(&topo).expect("routing must validate");
    }

    #[test]
    fn line_graph_routes_through_middle() {
        let topo = Topology::from_undirected_edges("line", 3, &[(0, 1), (1, 2)], 1e4, 0.0);
        let routing = Routing::shortest_paths(&topo);
        let p = routing.path(0, 2).unwrap();
        assert_eq!(p.nodes, vec![0, 1, 2]);
        assert_eq!(p.hop_count(), 2);
    }

    #[test]
    fn hop_counts_are_minimal_under_unit_weights() {
        let topo = topologies::toy5();
        let routing = Routing::shortest_paths(&topo);
        // toy5 edges: 0-1, 1-2, 2-3, 3-0, 1-3, 3-4
        assert_eq!(routing.path(0, 2).unwrap().hop_count(), 2);
        assert_eq!(routing.path(0, 4).unwrap().hop_count(), 2);
        assert_eq!(routing.path(2, 4).unwrap().hop_count(), 2);
    }

    #[test]
    fn weighted_routing_avoids_heavy_links() {
        // Square 0-1-2-3-0. Make 0->1 expensive: 0->2 must go via 3.
        let topo =
            Topology::from_undirected_edges("sq", 4, &[(0, 1), (1, 2), (2, 3), (3, 0)], 1e4, 0.0);
        let mut weights = vec![1.0; topo.num_links()];
        let heavy = topo.find_link(0, 1).unwrap();
        weights[heavy] = 10.0;
        let routing = Routing::weighted_shortest_paths(&topo, &weights);
        assert_eq!(routing.path(0, 2).unwrap().nodes, vec![0, 3, 2]);
    }

    #[test]
    fn randomized_schemes_differ_but_stay_valid() {
        let topo = topologies::geant2_default();
        let mut rng_a = Prng::new(1);
        let mut rng_b = Prng::new(2);
        let ra = Routing::randomized(&topo, &mut rng_a);
        let rb = Routing::randomized(&topo, &mut rng_b);
        ra.validate(&topo).unwrap();
        rb.validate(&topo).unwrap();
        let differing = topo
            .all_pairs()
            .iter()
            .filter(|&&(s, d)| ra.path(s, d).unwrap().nodes != rb.path(s, d).unwrap().nodes)
            .count();
        assert!(
            differing > 0,
            "different seeds should route at least one pair differently"
        );
    }

    #[test]
    fn determinism_across_runs() {
        let topo = topologies::nsfnet_default();
        let ra = Routing::randomized(&topo, &mut Prng::new(99));
        let rb = Routing::randomized(&topo, &mut Prng::new(99));
        for (s, d, p) in ra.iter_paths() {
            assert_eq!(p, rb.path(s, d).unwrap());
        }
    }

    #[test]
    fn sparse_routing_matches_dense_on_requested_pairs() {
        let topo = topologies::geant2_default();
        let dense = Routing::shortest_paths(&topo);
        let pairs = [(0, 5), (3, 17), (17, 3), (9, 1), (9, 1), (4, 4)];
        let weights = vec![1.0; topo.num_links()];
        let sparse = Routing::sparse_weighted_shortest_paths(&topo, &weights, &pairs);
        sparse.validate(&topo).unwrap();
        // Duplicates collapse and self-pairs are unrouted: 4 distinct paths.
        assert_eq!(sparse.num_paths(), 4);
        for &(s, d) in &pairs {
            if s == d {
                assert!(sparse.path(s, d).is_none());
            } else {
                assert_eq!(sparse.path(s, d), dense.path(s, d), "pair ({s},{d})");
            }
        }
        // Unrequested pairs stay unrouted.
        assert!(sparse.path(0, 1).is_none());
    }

    #[test]
    fn sparse_weighted_routing_uses_same_tie_break() {
        let topo = topologies::nsfnet_default();
        let weights: Vec<f64> = (0..topo.num_links())
            .map(|l| 1.0 + (l % 3) as f64 * 0.25)
            .collect();
        let dense = Routing::weighted_shortest_paths(&topo, &weights);
        let pairs: Vec<(usize, usize)> = (0..14).map(|d| (2, d)).filter(|&(s, d)| s != d).collect();
        let sparse = Routing::sparse_weighted_shortest_paths(&topo, &weights, &pairs);
        for &(s, d) in &pairs {
            assert_eq!(sparse.path(s, d), dense.path(s, d), "pair ({s},{d})");
        }
    }

    #[test]
    fn an_id_past_the_nodes_names_no_pair() {
        let topo = topologies::toy5();
        let routing = Routing::shortest_paths(&topo);
        assert!(routing.path(1, 2).is_some());
        // `0 * 5 + 7` is the key of (1, 2): the ids are checked, not the key.
        assert!(routing.path(0, 7).is_none());
        assert!(routing.path(5, 0).is_none());
        assert!(routing.path(usize::MAX, usize::MAX).is_none());
    }

    #[test]
    fn path_validate_rejects_corruption() {
        let topo = topologies::toy5();
        let routing = Routing::shortest_paths(&topo);
        let mut p = routing.path(0, 2).unwrap().clone();
        p.nodes.swap(0, 1);
        assert!(p.validate(&topo).is_err());
    }

    #[test]
    fn paths_are_loop_free() {
        let topo = topologies::geant2_default();
        let routing = Routing::randomized(&topo, &mut Prng::new(5));
        for (_, _, p) in routing.iter_paths() {
            let mut sorted = p.nodes.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), p.nodes.len(), "loop in {:?}", p.nodes);
        }
    }
}
