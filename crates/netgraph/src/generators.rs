//! Random topology generators.
//!
//! Used by property tests (routing/simulator invariants must hold on *any*
//! connected graph, not just the canonical ones), by robustness experiments
//! beyond the paper, and by the accuracy ledger's size rows (`rn_bench`'s
//! `figure2`), which need connected ISP-like graphs hundreds to thousands
//! of nodes wide.
//!
//! All generators are deterministic functions of their [`Prng`] stream and
//! return structured [`GeneratorError`]s instead of panicking on misuse, so
//! a harness sweeping sizes and parameters can skip an infeasible point
//! rather than abort the run.

use crate::graph::Topology;
use rn_tensor::Prng;
use std::collections::HashSet;

/// Why a generator rejected its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum GeneratorError {
    /// Fewer nodes requested than the generator's structural minimum.
    TooFewNodes {
        /// Requested node count.
        got: usize,
        /// Minimum the generator can build.
        min: usize,
    },
    /// Edge probability outside `[0, 1]`.
    InvalidEdgeProbability {
        /// The offending probability.
        p: f64,
    },
    /// Attachment count incompatible with the node count (`m` must satisfy
    /// `1 <= m < num_nodes`).
    InvalidAttachment {
        /// Requested attachments per new node.
        m: usize,
        /// Requested node count.
        num_nodes: usize,
    },
    /// Capacity is not a positive, finite bandwidth.
    InvalidCapacity {
        /// The offending capacity (bps).
        capacity_bps: f64,
    },
}

impl std::fmt::Display for GeneratorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewNodes { got, min } => {
                write!(f, "generator needs at least {min} nodes, got {got}")
            }
            Self::InvalidEdgeProbability { p } => {
                write!(f, "edge probability must be in [0,1], got {p}")
            }
            Self::InvalidAttachment { m, num_nodes } => write!(
                f,
                "attachment count m={m} must satisfy 1 <= m < num_nodes ({num_nodes})"
            ),
            Self::InvalidCapacity { capacity_bps } => {
                write!(
                    f,
                    "capacity must be positive, finite and normal, got {capacity_bps} bps"
                )
            }
        }
    }
}

impl std::error::Error for GeneratorError {}

fn check_capacity(capacity_bps: f64) -> Result<(), GeneratorError> {
    if capacity_bps > 0.0 && capacity_bps.is_normal() {
        Ok(())
    } else {
        Err(GeneratorError::InvalidCapacity { capacity_bps })
    }
}

/// Undirected edge key, normalized so `(a, b)` and `(b, a)` collide.
#[inline]
fn edge_key(a: usize, b: usize) -> (usize, usize) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A connected Erdős–Rényi-style random topology.
///
/// Starts from a random spanning tree (guaranteeing connectivity), then adds
/// each remaining undirected edge independently with probability `p`. All
/// links get `capacity_bps` and zero propagation delay.
///
/// The edge index is a hash set and the extra-edge pass uses geometric
/// skip sampling over the `n(n-1)/2` pair space, so the cost is
/// `O(n + edges)` — independent of `n²` for the sparse `p` values giant
/// topologies use — instead of the dense `present` bitmap plus all-pairs
/// Bernoulli sweep this generator started with.
pub fn erdos_renyi_connected(
    num_nodes: usize,
    p: f64,
    capacity_bps: f64,
    rng: &mut Prng,
) -> Result<Topology, GeneratorError> {
    if num_nodes < 2 {
        return Err(GeneratorError::TooFewNodes {
            got: num_nodes,
            min: 2,
        });
    }
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(GeneratorError::InvalidEdgeProbability { p });
    }
    check_capacity(capacity_bps)?;
    let mut topo = Topology::new(format!("er{num_nodes}"), num_nodes);
    let mut present: HashSet<(usize, usize)> = HashSet::with_capacity(num_nodes * 2);

    // Random spanning tree: attach each node to a uniformly random earlier
    // node (a random recursive tree).
    let mut order: Vec<usize> = (0..num_nodes).collect();
    rng.shuffle(&mut order);
    for i in 1..num_nodes {
        let a = order[i];
        let b = order[rng.index(i)];
        topo.add_duplex(a, b, capacity_bps, 0.0);
        present.insert(edge_key(a, b));
    }

    // Extra edges: visit exactly the pairs a geometric skip chain selects
    // (each pair independently with probability p), walking the (a, b)
    // cursor forward in O(1) amortized per selected pair. Pairs already in
    // the spanning tree are simply skipped — same marginal distribution as
    // the dense sweep, without touching the other n²/2 pairs.
    if p >= 1.0 {
        for a in 0..num_nodes {
            for b in (a + 1)..num_nodes {
                if present.insert((a, b)) {
                    topo.add_duplex(a, b, capacity_bps, 0.0);
                }
            }
        }
        return Ok(topo);
    }
    if p > 0.0 {
        let ln_q = (1.0 - p).ln();
        let (mut a, mut b) = (0usize, 0usize); // cursor, b == a means "row start"
        loop {
            // Geometric(p) gap to the next selected pair (0-based gap).
            let gap = (rng.uniform_pos_f64().ln() / ln_q).floor() as usize;
            let mut step = gap + 1;
            // Advance the (a, b) cursor `step` pairs forward, row by row.
            while step > 0 {
                let row_remaining = num_nodes - 1 - b.max(a);
                if step <= row_remaining {
                    b = b.max(a) + step;
                    step = 0;
                } else {
                    step -= row_remaining;
                    a += 1;
                    b = a;
                    if a >= num_nodes - 1 {
                        return Ok(topo);
                    }
                }
            }
            if present.insert((a, b)) {
                topo.add_duplex(a, b, capacity_bps, 0.0);
            }
        }
    }
    Ok(topo)
}

/// Pick `m` distinct indices from `0..weights.len()`, each draw proportional
/// to `weights[i]` among the not-yet-chosen candidates — weighted sampling
/// **without replacement**. Zero-weight candidates are reachable only when
/// every remaining weight is zero (the draw then falls back to uniform), so
/// the pick always succeeds when `m <= weights.len()`; there is no rejection
/// loop to starve.
fn weighted_distinct(weights: &[usize], m: usize, rng: &mut Prng) -> Vec<usize> {
    debug_assert!(m <= weights.len());
    let mut chosen = vec![false; weights.len()];
    let mut picks = Vec::with_capacity(m);
    let mut total: u64 = weights.iter().map(|&w| w as u64).sum();
    for _ in 0..m {
        let pick = if total == 0 {
            // All remaining weight is zero: uniform over the unchosen.
            let remaining = chosen.iter().filter(|&&c| !c).count();
            let mut k = rng.index(remaining);
            let mut idx = 0;
            loop {
                if !chosen[idx] {
                    if k == 0 {
                        break idx;
                    }
                    k -= 1;
                }
                idx += 1;
            }
        } else {
            // Inverse-CDF walk over the unchosen prefix sums.
            let mut t = (rng.uniform_pos_f64() * total as f64) as u64;
            t = t.min(total - 1);
            let mut idx = 0;
            loop {
                if !chosen[idx] {
                    let w = weights[idx] as u64;
                    if t < w {
                        break idx;
                    }
                    t -= w;
                }
                idx += 1;
            }
        };
        chosen[pick] = true;
        total -= weights[pick] as u64;
        picks.push(pick);
    }
    picks
}

/// A preferential-attachment (Barabási–Albert-style) topology: each new node
/// attaches to `m` distinct existing nodes chosen proportionally to degree.
/// Produces the hub-dominated profiles typical of real backbones.
///
/// Targets are drawn by weighted sampling **without replacement**
/// (`weighted_distinct`), so every new node terminates in exactly `m`
/// draws — the rejection loop (and its guard-counter panic for large `m`
/// against a low-diversity pool) is gone.
pub fn preferential_attachment(
    num_nodes: usize,
    m: usize,
    capacity_bps: f64,
    rng: &mut Prng,
) -> Result<Topology, GeneratorError> {
    if m < 1 || num_nodes <= m {
        return Err(GeneratorError::InvalidAttachment { m, num_nodes });
    }
    check_capacity(capacity_bps)?;
    let mut topo = Topology::new(format!("ba{num_nodes}"), num_nodes);
    let mut degree = vec![0usize; num_nodes];
    // Seed: a small clique over the first m+1 nodes.
    for a in 0..=m {
        for b in (a + 1)..=m {
            topo.add_duplex(a, b, capacity_bps, 0.0);
            degree[a] += 1;
            degree[b] += 1;
        }
    }
    for new in (m + 1)..num_nodes {
        let targets = weighted_distinct(&degree[..new], m, rng);
        for &t in &targets {
            topo.add_duplex(new, t, capacity_bps, 0.0);
            degree[t] += 1;
            degree[new] += 1;
        }
    }
    Ok(topo)
}

/// Capacities and tier sizing for [`isp_tiered`]. The defaults mirror the
/// workspace's toy bandwidth scale (the canonical topologies use `1e4` bps
/// links) with a 4:2:1 core:aggregation:edge capacity hierarchy.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Fraction of nodes in the core tier (floored at 3 nodes).
    pub core_fraction: f64,
    /// Fraction of nodes in the aggregation tier (floored at 2 nodes).
    pub aggregation_fraction: f64,
    /// Capacity of core↔core links (bps).
    pub core_capacity_bps: f64,
    /// Capacity of aggregation↔core links (bps).
    pub aggregation_capacity_bps: f64,
    /// Capacity of edge↔aggregation links (bps).
    pub edge_capacity_bps: f64,
    /// Probability an edge node dual-homes to a second aggregation node.
    pub dual_home_p: f64,
}

impl Default for TierConfig {
    fn default() -> Self {
        Self {
            core_fraction: 0.05,
            aggregation_fraction: 0.25,
            core_capacity_bps: 4e4,
            aggregation_capacity_bps: 2e4,
            edge_capacity_bps: 1e4,
            dual_home_p: 0.3,
        }
    }
}

/// A deterministic ISP-like tiered topology: a meshed **core** ring with
/// random chords, an **aggregation** tier where each node homes to two
/// distinct core nodes picked preferentially by degree, and an **edge**
/// tier single- or dual-homed (see [`TierConfig::dual_home_p`]) onto the
/// aggregation tier, again degree-preferentially. Preferential homing makes
/// the degree profile heavy-tailed (hub POPs), the tier structure bounds
/// path diameter the way real ISP networks do, and the construction is
/// connected by induction: the ring is connected and every later node
/// attaches to an earlier tier.
///
/// Designed for the 100–2000 node range of the accuracy ledger's size
/// rows; the structural minimum is 8 nodes.
pub fn isp_tiered(
    num_nodes: usize,
    config: &TierConfig,
    rng: &mut Prng,
) -> Result<Topology, GeneratorError> {
    if num_nodes < 8 {
        return Err(GeneratorError::TooFewNodes {
            got: num_nodes,
            min: 8,
        });
    }
    for p in [config.core_fraction, config.aggregation_fraction] {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(GeneratorError::InvalidEdgeProbability { p });
        }
    }
    if !(0.0..=1.0).contains(&config.dual_home_p) || config.dual_home_p.is_nan() {
        return Err(GeneratorError::InvalidEdgeProbability {
            p: config.dual_home_p,
        });
    }
    for c in [
        config.core_capacity_bps,
        config.aggregation_capacity_bps,
        config.edge_capacity_bps,
    ] {
        check_capacity(c)?;
    }
    let n_core =
        ((num_nodes as f64 * config.core_fraction).round() as usize).clamp(3, num_nodes - 5);
    let n_agg = ((num_nodes as f64 * config.aggregation_fraction).round() as usize)
        .clamp(2, num_nodes - n_core - 1);
    let agg_lo = n_core;
    let agg_hi = n_core + n_agg; // edge tier is agg_hi..num_nodes

    let mut topo = Topology::new(format!("isp{num_nodes}"), num_nodes);
    let mut degree = vec![0usize; num_nodes];
    let mut present: HashSet<(usize, usize)> = HashSet::new();
    let mut connect =
        |topo: &mut Topology, degree: &mut Vec<usize>, a: usize, b: usize, cap: f64| -> bool {
            if a == b || !present.insert(edge_key(a, b)) {
                return false;
            }
            topo.add_duplex(a, b, cap, 0.0);
            degree[a] += 1;
            degree[b] += 1;
            true
        };

    // Core ring + chords: the ring guarantees a connected backbone, chords
    // shorten it into a partial mesh.
    for i in 0..n_core {
        connect(
            &mut topo,
            &mut degree,
            i,
            (i + 1) % n_core,
            config.core_capacity_bps,
        );
    }
    for i in 0..n_core {
        if n_core > 3 && rng.bernoulli(0.5) {
            let other = rng.index(n_core);
            connect(&mut topo, &mut degree, i, other, config.core_capacity_bps);
        }
    }

    // Aggregation tier: two distinct core homes, degree-preferential so
    // hub POPs emerge.
    for node in agg_lo..agg_hi {
        for t in weighted_distinct(&degree[..n_core], 2.min(n_core), rng) {
            connect(
                &mut topo,
                &mut degree,
                node,
                t,
                config.aggregation_capacity_bps,
            );
        }
    }

    // Edge tier: one aggregation home (plus an optional second), again
    // degree-preferential among aggregation nodes.
    for node in agg_hi..num_nodes {
        let homes = if rng.bernoulli(config.dual_home_p) {
            2.min(n_agg)
        } else {
            1
        };
        let agg_degrees = &degree[agg_lo..agg_hi];
        for t in weighted_distinct(agg_degrees, homes, rng) {
            connect(
                &mut topo,
                &mut degree,
                node,
                agg_lo + t,
                config.edge_capacity_bps,
            );
        }
    }
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn er_is_connected_for_any_p() {
        for seed in 0..5 {
            let mut rng = Prng::new(seed);
            let topo = erdos_renyi_connected(12, 0.0, 1e4, &mut rng).unwrap();
            assert!(topo.is_strongly_connected(), "seed {seed}");
            // p = 0 leaves exactly the spanning tree: n-1 duplex edges.
            assert_eq!(topo.num_links(), 2 * 11);
        }
    }

    #[test]
    fn er_adds_edges_with_positive_p() {
        let rng = Prng::new(3);
        let sparse = erdos_renyi_connected(15, 0.0, 1e4, &mut rng.split(0)).unwrap();
        let dense = erdos_renyi_connected(15, 0.8, 1e4, &mut rng.split(1)).unwrap();
        assert!(dense.num_links() > sparse.num_links());
    }

    #[test]
    fn er_p_one_is_complete() {
        let mut rng = Prng::new(9);
        let topo = erdos_renyi_connected(9, 1.0, 1e4, &mut rng).unwrap();
        assert_eq!(topo.num_links(), 9 * 8, "complete graph, duplex links");
    }

    #[test]
    fn er_edge_count_tracks_p_at_scale() {
        // The skip-sampling pass must land near p · C(n,2) edges without an
        // O(n²) sweep. 600 nodes, p = 0.01 → ~1797 extra undirected edges.
        let mut rng = Prng::new(77);
        let n = 600;
        let p = 0.01;
        let topo = erdos_renyi_connected(n, p, 1e4, &mut rng).unwrap();
        assert!(topo.is_strongly_connected());
        let undirected = topo.num_links() / 2;
        let expected = (n - 1) as f64 + p * (n * (n - 1) / 2) as f64;
        assert!(
            (undirected as f64) > 0.7 * expected && (undirected as f64) < 1.3 * expected,
            "undirected edges {undirected} vs expected ≈{expected}"
        );
    }

    #[test]
    fn er_rejects_bad_parameters() {
        let mut rng = Prng::new(0);
        assert_eq!(
            erdos_renyi_connected(1, 0.5, 1e4, &mut rng).unwrap_err(),
            GeneratorError::TooFewNodes { got: 1, min: 2 }
        );
        assert!(matches!(
            erdos_renyi_connected(5, 1.5, 1e4, &mut rng).unwrap_err(),
            GeneratorError::InvalidEdgeProbability { .. }
        ));
        assert!(matches!(
            erdos_renyi_connected(5, 0.5, 0.0, &mut rng).unwrap_err(),
            GeneratorError::InvalidCapacity { .. }
        ));
    }

    #[test]
    fn ba_is_connected_and_hubby() {
        let mut rng = Prng::new(11);
        let topo = preferential_attachment(30, 2, 1e4, &mut rng).unwrap();
        assert!(topo.is_strongly_connected());
        let max_deg = topo.degrees().into_iter().max().unwrap();
        assert!(max_deg >= 6, "expected hubs, max degree {max_deg}");
    }

    #[test]
    fn ba_handles_large_m_without_panicking() {
        // The old rejection loop could exhaust its guard counter when m was
        // close to the candidate count; weighted sampling without
        // replacement terminates in exactly m draws.
        let mut rng = Prng::new(19);
        let topo = preferential_attachment(12, 10, 1e4, &mut rng).unwrap();
        assert!(topo.is_strongly_connected());
        // Every node past the clique attaches to exactly 10 targets.
        assert_eq!(topo.num_links(), 2 * (10 * 11 / 2 + 10));
    }

    #[test]
    fn ba_rejects_bad_parameters() {
        let mut rng = Prng::new(0);
        assert_eq!(
            preferential_attachment(5, 0, 1e4, &mut rng).unwrap_err(),
            GeneratorError::InvalidAttachment { m: 0, num_nodes: 5 }
        );
        assert_eq!(
            preferential_attachment(3, 3, 1e4, &mut rng).unwrap_err(),
            GeneratorError::InvalidAttachment { m: 3, num_nodes: 3 }
        );
    }

    #[test]
    fn generators_are_deterministic() {
        let a = erdos_renyi_connected(10, 0.3, 1e4, &mut Prng::new(42)).unwrap();
        let b = erdos_renyi_connected(10, 0.3, 1e4, &mut Prng::new(42)).unwrap();
        assert_eq!(a.num_links(), b.num_links());
        for (la, lb) in a.links().iter().zip(b.links()) {
            assert_eq!(la, lb);
        }
    }

    #[test]
    fn isp_tiered_is_connected_at_scale() {
        for (seed, n) in [(1u64, 100usize), (2, 500), (3, 1000)] {
            let mut rng = Prng::new(seed);
            let topo = isp_tiered(n, &TierConfig::default(), &mut rng).unwrap();
            assert_eq!(topo.num_nodes(), n);
            assert!(topo.is_strongly_connected(), "n={n} seed={seed}");
        }
    }

    #[test]
    fn isp_tiered_is_deterministic() {
        let a = isp_tiered(300, &TierConfig::default(), &mut Prng::new(7)).unwrap();
        let b = isp_tiered(300, &TierConfig::default(), &mut Prng::new(7)).unwrap();
        assert_eq!(a.num_links(), b.num_links());
        for (la, lb) in a.links().iter().zip(b.links()) {
            assert_eq!(la, lb);
        }
    }

    #[test]
    fn isp_tiered_has_heavy_tailed_degrees() {
        let mut rng = Prng::new(5);
        let topo = isp_tiered(500, &TierConfig::default(), &mut rng).unwrap();
        let degrees = topo.degrees();
        let max_deg = degrees.iter().copied().max().unwrap();
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        assert!(
            max_deg as f64 > 4.0 * mean,
            "expected hub POPs: max degree {max_deg}, mean {mean:.2}"
        );
    }

    #[test]
    fn isp_tiered_rejects_tiny_graphs() {
        let mut rng = Prng::new(0);
        assert_eq!(
            isp_tiered(4, &TierConfig::default(), &mut rng).unwrap_err(),
            GeneratorError::TooFewNodes { got: 4, min: 8 }
        );
    }
}
