//! End-to-end traffic matrices.
//!
//! A traffic matrix assigns an average rate (bits per second) to every ordered
//! source–destination pair. The datasets use uniformly drawn per-pair rates
//! scaled to a global load level, mirroring the KDN dataset generator: the
//! interesting regimes for queue-size modeling are moderate-to-high loads
//! where finite queues actually drop packets.

use crate::graph::{NodeId, Topology};
use crate::pairs::{Entry, PairTable};
use crate::routing::Routing;
use rn_tensor::Prng;
use serde::json::Reader;
use serde::value::DeError;
use serde::{Deserialize, Serialize};

/// Average offered traffic per ordered pair, in bits per second.
///
/// Only the nonzero rates are stored, keyed `src · n + dst` in ascending
/// order: an entry is kept exactly when its bits are not `+0.0`, so a pair
/// set to zero holds nothing, equal matrices hold equal entries, and a
/// sparse scenario's matrix costs `O(active pairs)` bytes whatever the node
/// count. The JSON is still the dense row-major table,
/// `{"num_nodes":n,"rates_bps":[…]}` with `0.0` for every pair without
/// traffic, so dataset files and serving requests keep their bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMatrix {
    table: PairTable<f64>,
}

impl Entry for f64 {
    const FIELD: &'static str = "rates_bps";
    const EMPTY: &'static str = "0.0";
    fn read_json(r: &mut Reader<'_>) -> Result<Option<Self>, DeError> {
        f64::deserialize_json(r).map(stored)
    }
}

/// The entry a rate keeps: none for `+0.0`.
fn stored(rate: f64) -> Option<f64> {
    (rate.to_bits() != 0).then_some(rate)
}

impl Serialize for TrafficMatrix {
    fn serialize_json(&self, out: &mut String) {
        self.table.serialize_json(out);
    }
}

impl<'de> Deserialize<'de> for TrafficMatrix {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        PairTable::deserialize_json(r).map(|table| Self { table })
    }
}

impl TrafficMatrix {
    /// All-zero matrix.
    pub fn zeros(num_nodes: usize) -> Self {
        Self {
            table: PairTable::with_capacity(num_nodes, 0),
        }
    }

    /// Uniform random rates in `[lo, hi)` bits per second for every ordered
    /// pair of distinct nodes.
    pub fn uniform_random(num_nodes: usize, rng: &mut Prng, lo: f64, hi: f64) -> Self {
        assert!(
            lo >= 0.0 && hi >= lo,
            "uniform_random: invalid range [{lo}, {hi})"
        );
        let mut tm = Self {
            table: PairTable::with_capacity(num_nodes, num_nodes * num_nodes.saturating_sub(1)),
        };
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
    /// Panics unless the target is positive and finite: an infinite one over
    /// an overflowing load would scale every rate by `inf / inf`, a NaN.
    pub fn with_target_utilization(
        topo: &Topology,
        routing: &Routing,
        rng: &mut Prng,
        target_utilization: f64,
    ) -> Self {
        assert!(
            target_utilization > 0.0 && target_utilization.is_finite(),
            "target utilization must be positive and finite (got {target_utilization})"
        );
        let mut tm = Self::uniform_random(topo.num_nodes(), rng, 0.1, 1.0);
        let max_util = tm.max_link_utilization(topo, routing);
        if max_util > 0.0 {
            let scale = target_utilization / max_util;
            tm.table.retain_mut(|r| {
                *r *= scale;
                stored(*r).is_some()
            });
        }
        tm
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.table.num_nodes()
    }

    /// Whether the matrix is `num_nodes × num_nodes`, as [`TrafficMatrix::rate`]
    /// assumes. Every constructor builds it so; a deserialized matrix carries
    /// whatever the input said.
    pub fn check_shape(&self) -> Result<(), String> {
        let n = self.num_nodes();
        if n.checked_mul(n) != Some(self.table.slots()) {
            return Err(format!(
                "traffic matrix holds {} rates for {n} nodes",
                self.table.slots()
            ));
        }
        Ok(())
    }

    /// The key of `(src, dst)`. Panics, naming the pair, on an id that is
    /// not a node.
    fn key(&self, src: NodeId, dst: NodeId, caller: &str) -> u32 {
        self.table.key(src, dst).unwrap_or_else(|| {
            panic!(
                "TrafficMatrix::{caller}: pair ({src}, {dst}) out of range for {} nodes",
                self.num_nodes()
            )
        })
    }

    /// The rate from `src` to `dst` in bits per second. Panics on an id that
    /// is not a node.
    pub fn rate(&self, src: NodeId, dst: NodeId) -> f64 {
        let key = self.key(src, dst, "rate");
        self.table.get(key).copied().unwrap_or(0.0)
    }

    /// Set the rate for one pair. Panics on the diagonal, on negative rates
    /// and on an id that is not a node.
    pub fn set(&mut self, src: NodeId, dst: NodeId, rate_bps: f64) {
        assert_ne!(
            src, dst,
            "TrafficMatrix::set: diagonal entries must stay zero"
        );
        assert!(rate_bps >= 0.0, "TrafficMatrix::set: negative rate");
        let key = self.key(src, dst, "set");
        self.table.set(key, stored(rate_bps));
    }

    /// `(src, dst, rate)` over the pairs with a rate that is not `+0.0`, in
    /// row-major order; every other pair's rate is zero.
    pub fn iter_rates(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.table.iter().map(|(s, d, &rate)| (s, d, rate))
    }

    /// Total offered load in bits per second.
    pub fn total_bps(&self) -> f64 {
        self.table.values().iter().fold(0.0, |sum, rate| sum + rate)
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
    #[should_panic(expected = "target utilization must be positive and finite (got inf)")]
    fn an_infinite_target_utilization_is_refused() {
        let topo = topologies::nsfnet_default();
        let routing = Routing::shortest_paths(&topo);
        TrafficMatrix::with_target_utilization(&topo, &routing, &mut Prng::new(7), f64::INFINITY);
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut tm = TrafficMatrix::zeros(3);
        tm.set(1, 2, 42.0);
        assert_eq!(tm.rate(1, 2), 42.0);
        assert_eq!(tm.rate(2, 1), 0.0);
    }

    #[test]
    fn a_zero_rate_is_no_entry() {
        let mut tm = TrafficMatrix::zeros(3);
        tm.set(0, 1, 5.0);
        tm.set(0, 1, 0.0);
        assert_eq!(tm, TrafficMatrix::zeros(3));
        assert_eq!(tm.iter_rates().count(), 0);
        tm.set(2, 0, 7.0);
        tm.set(0, 2, 3.0);
        let rates: Vec<_> = tm.iter_rates().collect();
        assert_eq!(rates, [(0, 2, 3.0), (2, 0, 7.0)]);
        let json = serde_json::to_string(&tm).unwrap();
        assert_eq!(
            json,
            r#"{"num_nodes":3,"rates_bps":[0.0,0.0,3.0,0.0,0.0,0.0,7.0,0.0,0.0]}"#
        );
        assert_eq!(serde_json::from_str::<TrafficMatrix>(&json).unwrap(), tm);
    }

    #[test]
    #[should_panic(expected = "pair (0, 5) out of range")]
    fn rate_rejects_an_id_past_the_nodes() {
        // `0 * 3 + 5` is the key of (1, 2).
        let mut tm = TrafficMatrix::zeros(3);
        tm.set(1, 2, 1.0);
        tm.rate(0, 5);
    }

    #[test]
    #[should_panic(expected = "pair (0, 5) out of range")]
    fn set_rejects_an_id_past_the_nodes() {
        TrafficMatrix::zeros(3).set(0, 5, 1.0);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn set_rejects_diagonal() {
        TrafficMatrix::zeros(3).set(1, 1, 10.0);
    }
}
