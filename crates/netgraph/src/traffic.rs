//! End-to-end traffic matrices.
//!
//! A traffic matrix assigns an average rate (bits per second) to every ordered
//! source–destination pair. The datasets use uniformly drawn per-pair rates
//! scaled to a global load level, mirroring the KDN dataset generator: the
//! interesting regimes for queue-size modeling are moderate-to-high loads
//! where finite queues actually drop packets.

use crate::graph::{NodeId, Topology};
use crate::routing::Routing;
use rn_tensor::Prng;
use serde::{Deserialize, Serialize};

/// Average offered traffic per ordered pair, in bits per second.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    num_nodes: usize,
    /// Dense row-major `src * n + dst` rates; the diagonal is zero.
    rates_bps: Vec<f64>,
}

impl TrafficMatrix {
    /// All-zero matrix.
    pub fn zeros(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            rates_bps: vec![0.0; num_nodes * num_nodes],
        }
    }

    /// Uniform random rates in `[lo, hi)` bits per second for every ordered
    /// pair of distinct nodes.
    pub fn uniform_random(num_nodes: usize, rng: &mut Prng, lo: f64, hi: f64) -> Self {
        assert!(
            lo >= 0.0 && hi >= lo,
            "uniform_random: invalid range [{lo}, {hi})"
        );
        let mut tm = Self::zeros(num_nodes);
        for s in 0..num_nodes {
            for d in 0..num_nodes {
                if s != d {
                    tm.set(s, d, lo + (hi - lo) * rng.uniform() as f64);
                }
            }
        }
        tm
    }

    /// Draw a matrix whose *busiest link* under `routing` carries
    /// approximately `target_utilization` of its capacity.
    ///
    /// Rates are first drawn uniformly, then rescaled so that
    /// `max_l (carried(l) / capacity(l)) == target_utilization`. This is how
    /// the dataset generator controls the congestion regime of a sample.
    pub fn with_target_utilization(
        topo: &Topology,
        routing: &Routing,
        rng: &mut Prng,
        target_utilization: f64,
    ) -> Self {
        assert!(
            target_utilization > 0.0,
            "target utilization must be positive"
        );
        let mut tm = Self::uniform_random(topo.num_nodes(), rng, 0.1, 1.0);
        let max_util = tm.max_link_utilization(topo, routing);
        if max_util > 0.0 {
            let scale = target_utilization / max_util;
            for r in &mut tm.rates_bps {
                *r *= scale;
            }
        }
        tm
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Whether the matrix is `num_nodes × num_nodes`, as [`TrafficMatrix::rate`]
    /// assumes. Every constructor builds it so; a deserialized matrix carries
    /// whatever the input said.
    pub fn check_shape(&self) -> Result<(), String> {
        if self.num_nodes.checked_mul(self.num_nodes) != Some(self.rates_bps.len()) {
            return Err(format!(
                "traffic matrix holds {} rates for {} nodes",
                self.rates_bps.len(),
                self.num_nodes
            ));
        }
        Ok(())
    }

    /// The rate from `src` to `dst` in bits per second.
    pub fn rate(&self, src: NodeId, dst: NodeId) -> f64 {
        self.rates_bps[src * self.num_nodes + dst]
    }

    /// Set the rate for one pair. Panics on the diagonal or negative rates.
    pub fn set(&mut self, src: NodeId, dst: NodeId, rate_bps: f64) {
        assert_ne!(
            src, dst,
            "TrafficMatrix::set: diagonal entries must stay zero"
        );
        assert!(rate_bps >= 0.0, "TrafficMatrix::set: negative rate");
        self.rates_bps[src * self.num_nodes + dst] = rate_bps;
    }

    /// Total offered load in bits per second.
    pub fn total_bps(&self) -> f64 {
        self.rates_bps.iter().sum()
    }

    /// Offered load per link (bits per second) when routed over `routing`.
    pub fn link_loads(&self, topo: &Topology, routing: &Routing) -> Vec<f64> {
        let mut loads = vec![0.0; topo.num_links()];
        for (s, d, path) in routing.iter_paths() {
            let rate = self.rate(s, d);
            for &l in &path.links {
                loads[l] += rate;
            }
        }
        loads
    }

    /// The maximum link utilization (offered load / capacity) under `routing`.
    pub fn max_link_utilization(&self, topo: &Topology, routing: &Routing) -> f64 {
        self.link_loads(topo, routing)
            .iter()
            .enumerate()
            .map(|(l, &load)| load / topo.link(l).capacity_bps)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topologies;

    #[test]
    fn zeros_has_no_traffic() {
        let tm = TrafficMatrix::zeros(4);
        assert_eq!(tm.total_bps(), 0.0);
    }

    #[test]
    fn uniform_random_respects_bounds_and_diagonal() {
        let mut rng = Prng::new(1);
        let tm = TrafficMatrix::uniform_random(5, &mut rng, 100.0, 200.0);
        for s in 0..5 {
            for d in 0..5 {
                let r = tm.rate(s, d);
                if s == d {
                    assert_eq!(r, 0.0);
                } else {
                    assert!((100.0..200.0).contains(&r), "rate {r}");
                }
            }
        }
    }

    #[test]
    fn link_loads_accumulate_along_paths() {
        let topo = Topology::from_undirected_edges("line", 3, &[(0, 1), (1, 2)], 1e4, 0.0);
        let routing = Routing::shortest_paths(&topo);
        let mut tm = TrafficMatrix::zeros(3);
        tm.set(0, 2, 500.0);
        tm.set(0, 1, 300.0);
        let loads = tm.link_loads(&topo, &routing);
        let l01 = topo.find_link(0, 1).unwrap();
        let l12 = topo.find_link(1, 2).unwrap();
        assert_eq!(loads[l01], 800.0, "0->1 carries both flows");
        assert_eq!(loads[l12], 500.0, "1->2 carries only the transit flow");
    }

    #[test]
    fn target_utilization_is_hit() {
        let topo = topologies::nsfnet_default();
        let routing = Routing::shortest_paths(&topo);
        let mut rng = Prng::new(7);
        for target in [0.3, 0.6, 0.9] {
            let tm = TrafficMatrix::with_target_utilization(&topo, &routing, &mut rng, target);
            let got = tm.max_link_utilization(&topo, &routing);
            assert!((got - target).abs() < 1e-9, "target {target}, got {got}");
        }
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut tm = TrafficMatrix::zeros(3);
        tm.set(1, 2, 42.0);
        assert_eq!(tm.rate(1, 2), 42.0);
        assert_eq!(tm.rate(2, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn set_rejects_diagonal() {
        TrafficMatrix::zeros(3).set(1, 1, 10.0);
    }
}
