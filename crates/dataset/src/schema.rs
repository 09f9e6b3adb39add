//! Dataset schema: samples, per-path labels, and the dataset container.

use rn_netgraph::{Routing, Topology, TrafficMatrix};
use rn_netsim::{ClassStats, FaultPlan, QueueProfile, SchedulingPolicy, TrafficProfile};
use serde::{Deserialize, Serialize};

/// Ground-truth labels for one source–destination path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathTarget {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Simulated mean end-to-end delay in seconds.
    pub mean_delay_s: f64,
    /// Simulated delay standard deviation (jitter) in seconds.
    pub jitter_s: f64,
    /// Simulated loss ratio.
    pub loss_ratio: f64,
    /// Packets the statistic is based on; low counts mean noisy labels and
    /// are filtered by [`PathTarget::is_reliable`].
    pub delivered: u64,
}

impl PathTarget {
    /// True when the label rests on at least `min_packets` deliveries.
    pub fn is_reliable(&self, min_packets: u64) -> bool {
        self.delivered >= min_packets
    }
}

/// The QoS dimension of one sample: the scheduling policy and per-class
/// traffic models the simulator ran, the ToS class of every labeled path,
/// and the simulator's pooled per-class ground truth (the labels the
/// queue-theory validation harness checks the model against).
///
/// Kept as an `Option` on [`Sample`] — legacy (FIFO, single-class) datasets
/// simply omit it, and files written before this field existed deserialize
/// with `qos: None` (the vendored serde maps missing keys to `None` for
/// `Option` fields; do not add non-`Option` fields to persisted structs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleQos {
    /// The per-port scheduling discipline of this scenario.
    pub policy: SchedulingPolicy,
    /// Per-class traffic model; the length is the number of ToS classes.
    pub class_profiles: Vec<TrafficProfile>,
    /// ToS class of each labeled path, aligned with [`Sample::targets`].
    pub path_classes: Vec<u8>,
    /// Simulated per-class pooled statistics (ground truth for per-class
    /// validation), indexed by class.
    pub class_targets: Vec<ClassStats>,
}

impl SampleQos {
    /// Number of ToS classes.
    pub fn num_classes(&self) -> usize {
        self.class_profiles.len()
    }

    /// True when this spec is indistinguishable from the legacy model:
    /// one class scheduled FIFO. Plans built from such samples carry no
    /// queue entities.
    pub fn is_single_class_fifo(&self) -> bool {
        self.num_classes() == 1 && self.policy == SchedulingPolicy::Fifo
    }
}

/// One simulated network scenario with its labels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sample {
    /// The routing scheme of this scenario.
    pub routing: Routing,
    /// The offered traffic matrix (bits per second per ordered pair).
    pub traffic: TrafficMatrix,
    /// Per-node queue archetype (the feature the extended model sees).
    pub queue_profiles: Vec<QueueProfile>,
    /// Per-node waiting-room capacity in packets (derived from the profiles
    /// and the simulator config; stored so consumers need no sim config).
    pub queue_capacities: Vec<usize>,
    /// Per-directed-link capacity in bits per second (may vary per sample).
    pub link_capacities: Vec<f64>,
    /// Ground-truth labels, in `routing.iter_paths()` order.
    pub targets: Vec<PathTarget>,
    /// The seed that generated this sample (provenance).
    pub seed: u64,
    /// QoS dimension (scheduling policy, classes, per-class labels).
    /// `None` for legacy FIFO scenarios.
    pub qos: Option<SampleQos>,
    /// Fault dimension (random drops, link outages) the simulator applied.
    /// `None` means the fault-free baseline.
    pub faults: Option<FaultPlan>,
}

impl Sample {
    /// Number of labeled paths.
    pub fn num_paths(&self) -> usize {
        self.targets.len()
    }

    /// Check everything a consumer indexes or computes with: the routing
    /// table and the traffic matrix are square over the same nodes, every
    /// routed path crosses at least one link, has one more node than links
    /// and runs from its source to its destination, node ids address
    /// `queue_capacities` and link ids `link_capacities`, labels and path
    /// classes line up with the routed paths, the scheduling policy has one
    /// positive finite weight or quantum per class, every traffic rate is finite
    /// and non-negative, and every link capacity is finite and positive (a
    /// NaN would reach the kernels, whose answer to it is not defined).
    /// Needs no topology, so it is the check for a sample that arrives alone
    /// (a serving request);
    /// [`Sample::validate`] adds what only the topology can tell.
    pub fn check_inputs(&self) -> Result<(), String> {
        self.routing.check_shape()?;
        self.traffic.check_shape()?;
        if self.traffic.num_nodes() != self.routing.num_nodes() {
            return Err(format!(
                "traffic matrix over {} nodes, routing over {}",
                self.traffic.num_nodes(),
                self.routing.num_nodes()
            ));
        }
        let mut routed = 0;
        for (s, d, path) in self.routing.iter_paths() {
            routed += 1;
            if path.nodes.len() != path.links.len() + 1 {
                return Err(format!(
                    "path {s}->{d} has {} nodes but {} links",
                    path.nodes.len(),
                    path.links.len()
                ));
            }
            if path.links.is_empty() {
                return Err(format!("path {s}->{d} crosses no link"));
            }
            if (path.src(), path.dst()) != (s, d) {
                return Err(format!(
                    "path {s}->{d} has endpoints {}->{}",
                    path.src(),
                    path.dst()
                ));
            }
            if let Some(n) = path
                .nodes
                .iter()
                .find(|&&n| n >= self.queue_capacities.len())
            {
                return Err(format!(
                    "path {s}->{d}: node id {n} out of range ({} queue capacities)",
                    self.queue_capacities.len()
                ));
            }
            if let Some(l) = path
                .links
                .iter()
                .find(|&&l| l >= self.link_capacities.len())
            {
                return Err(format!(
                    "path {s}->{d}: link id {l} out of range ({} link capacities)",
                    self.link_capacities.len()
                ));
            }
        }
        if self.targets.len() != routed {
            return Err(format!(
                "{} targets for {routed} routed paths",
                self.targets.len()
            ));
        }
        if let Some(qos) = &self.qos {
            if qos.path_classes.len() != routed {
                return Err(format!(
                    "{} path classes for {routed} routed paths",
                    qos.path_classes.len()
                ));
            }
            let n = qos.num_classes();
            if let Some(c) = qos.path_classes.iter().find(|&&c| c as usize >= n) {
                return Err(format!("path class {c} out of range (num classes {n})"));
            }
            qos.policy.validate(n)?;
        }
        for (s, d, rate) in self.traffic.iter_rates() {
            if !(rate.is_finite() && rate >= 0.0) {
                return Err(format!(
                    "traffic rate {rate} for {s}->{d} (must be finite and >= 0)"
                ));
            }
        }
        if let Some((l, c)) = self
            .link_capacities
            .iter()
            .enumerate()
            .find(|(_, c)| !(c.is_finite() && **c > 0.0))
        {
            return Err(format!(
                "link capacity {c} on link {l} (must be finite and > 0)"
            ));
        }
        Ok(())
    }

    /// Structural validation against the dataset topology.
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        if self.queue_profiles.len() != topo.num_nodes() {
            return Err(format!(
                "{} queue profiles for {} nodes",
                self.queue_profiles.len(),
                topo.num_nodes()
            ));
        }
        if self.queue_capacities.len() != topo.num_nodes() {
            return Err(format!(
                "{} queue capacities for {} nodes",
                self.queue_capacities.len(),
                topo.num_nodes()
            ));
        }
        if self.link_capacities.len() != topo.num_links() {
            return Err(format!(
                "{} link capacities for {} links",
                self.link_capacities.len(),
                topo.num_links()
            ));
        }
        // Ids in range first: `Routing::validate` indexes the topology with
        // them.
        self.check_inputs()?;
        self.routing.validate(topo)?;
        for t in &self.targets {
            if !(t.mean_delay_s.is_finite() && t.jitter_s.is_finite() && t.loss_ratio.is_finite()) {
                return Err(format!("non-finite label on path {}->{}", t.src, t.dst));
            }
            if t.mean_delay_s < 0.0 || t.jitter_s < 0.0 || !(0.0..=1.0).contains(&t.loss_ratio) {
                return Err(format!("out-of-range label on path {}->{}", t.src, t.dst));
            }
        }
        if let Some(qos) = &self.qos {
            let n = qos.num_classes();
            for p in &qos.class_profiles {
                p.validate()?;
            }
            if qos.class_targets.len() != n {
                return Err(format!(
                    "{} class targets for {} classes",
                    qos.class_targets.len(),
                    n
                ));
            }
        }
        if let Some(faults) = &self.faults {
            faults.validate(topo.num_links())?;
        }
        Ok(())
    }
}

/// A topology plus its simulated samples.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// The shared topology (per-sample link capacities may override the
    /// topology's nominal ones).
    pub topology: Topology,
    /// The scenarios.
    pub samples: Vec<Sample>,
}

impl Dataset {
    /// Validate every sample against the topology.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.samples.iter().enumerate() {
            s.validate(&self.topology)
                .map_err(|e| format!("sample {i}: {e}"))?;
        }
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All reliable mean-delay labels across the dataset (for normalization).
    pub fn all_delays(&self, min_packets: u64) -> Vec<f64> {
        self.samples
            .iter()
            .flat_map(|s| {
                s.targets
                    .iter()
                    .filter(move |t| t.is_reliable(min_packets))
                    .map(|t| t.mean_delay_s)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_netgraph::topologies;

    fn tiny_sample(topo: &Topology) -> Sample {
        let routing = Routing::shortest_paths(topo);
        let n = topo.num_nodes();
        let targets: Vec<PathTarget> = routing
            .iter_paths()
            .map(|(s, d, _)| PathTarget {
                src: s,
                dst: d,
                mean_delay_s: 0.1,
                jitter_s: 0.01,
                loss_ratio: 0.0,
                delivered: 100,
            })
            .collect();
        Sample {
            routing,
            traffic: TrafficMatrix::zeros(n),
            queue_profiles: vec![QueueProfile::Standard; n],
            queue_capacities: vec![32; n],
            link_capacities: vec![1e4; topo.num_links()],
            targets,
            seed: 7,
            qos: None,
            faults: None,
        }
    }

    fn tiny_qos(num_paths: usize) -> SampleQos {
        SampleQos {
            policy: SchedulingPolicy::StrictPriority,
            class_profiles: vec![TrafficProfile::Poisson, TrafficProfile::Poisson],
            path_classes: (0..num_paths).map(|i| (i % 2) as u8).collect(),
            class_targets: ClassStats::from_accumulators(
                &vec![Default::default(); num_paths],
                &(0..num_paths).map(|i| (i % 2) as u8).collect::<Vec<_>>(),
                2,
            ),
        }
    }

    #[test]
    fn valid_sample_validates() {
        let topo = topologies::toy5();
        let s = tiny_sample(&topo);
        s.validate(&topo).unwrap();
        assert_eq!(s.num_paths(), 20);
        assert!(s.targets.iter().all(|t| t.is_reliable(50)));
        assert!(!s.targets.iter().any(|t| t.is_reliable(200)));
    }

    #[test]
    fn corrupted_sample_fails_validation() {
        let topo = topologies::toy5();
        let mut s = tiny_sample(&topo);
        s.targets[0].mean_delay_s = f64::NAN;
        assert!(s.validate(&topo).is_err());

        let mut s = tiny_sample(&topo);
        s.queue_capacities.pop();
        assert!(s.validate(&topo).is_err());

        let mut s = tiny_sample(&topo);
        s.targets.pop();
        assert!(s.validate(&topo).is_err());
    }

    #[test]
    fn check_inputs_rejects_what_a_consumer_would_index_or_compute_with() {
        let topo = topologies::toy5();
        let good = tiny_sample(&topo);
        good.check_inputs().unwrap();
        let through_json = |edit: &dyn Fn(&str) -> String| -> Sample {
            serde_json::from_str(&edit(&serde_json::to_string(&good).unwrap())).unwrap()
        };

        // Ids past the capacity vectors; a path with a node too few.
        let mut bad = good.clone();
        bad.link_capacities.truncate(3);
        assert!(bad.check_inputs().unwrap_err().contains("link id"));
        let mut bad = good.clone();
        bad.queue_capacities.truncate(2);
        assert!(bad.check_inputs().unwrap_err().contains("node id"));
        let first_path = serde_json::to_string(good.routing.iter_paths().next().unwrap().2);
        let first_path = first_path.unwrap();
        let bad = through_json(&|json| {
            assert!(json.contains(&first_path));
            json.replacen(&first_path, r#"{"nodes":[0],"links":[0]}"#, 1)
        });
        assert!(bad
            .check_inputs()
            .unwrap_err()
            .contains("1 nodes but 1 links"));
        // A routed pair whose path crosses no link, or runs between other
        // nodes.
        let bad =
            through_json(&|json| json.replacen(&first_path, r#"{"nodes":[0],"links":[]}"#, 1));
        assert!(bad.check_inputs().unwrap_err().contains("crosses no link"));
        let bad =
            through_json(&|json| json.replacen(&first_path, r#"{"nodes":[3,4],"links":[0]}"#, 1));
        assert!(bad
            .check_inputs()
            .unwrap_err()
            .contains("has endpoints 3->4"));

        // Labels and classes misaligned with the routed paths.
        let mut bad = good.clone();
        bad.targets.pop();
        assert!(bad.check_inputs().unwrap_err().contains("targets"));
        let mut bad = good.clone();
        bad.qos = Some(tiny_qos(good.num_paths() - 1));
        assert!(bad.check_inputs().unwrap_err().contains("path classes"));
        let mut bad = good.clone();
        bad.qos = Some(tiny_qos(good.num_paths()));
        bad.qos.as_mut().unwrap().path_classes[0] = 2;
        assert!(bad.check_inputs().unwrap_err().contains("path class 2"));

        // Tables that are not square over one node count (wire data only).
        let bad = through_json(&|json| json.replacen(r#""num_nodes":5"#, r#""num_nodes":0"#, 1));
        assert!(bad.check_inputs().unwrap_err().contains("routing table"));
        let mut bad = good.clone();
        bad.traffic = TrafficMatrix::zeros(4);
        assert!(bad.check_inputs().unwrap_err().contains("traffic matrix"));

        // Rates that are infinite or negative: the wire can carry both
        // (`1e999` parses to infinity). A NaN rate has no way in: the wire
        // writes NaN as `null`, which no rate reads, and no constructor
        // makes one (`with_target_utilization` refuses an infinite target,
        // `Topology` a capacity that is not a normal number, so no rescale
        // is `inf / inf`).
        let rates = r#""rates_bps":[0.0"#;
        for rate in ["-1.0", "1e999", "-1e999"] {
            let bad = through_json(&|json| {
                assert!(json.contains(rates));
                json.replacen(rates, &format!(r#""rates_bps":[{rate}"#), 1)
            });
            assert!(
                bad.check_inputs().unwrap_err().contains("traffic rate"),
                "{rate}"
            );
        }

        // Capacities that are NaN, infinite, zero or negative.
        for capacity in [f64::NAN, f64::INFINITY, 0.0, -1e4] {
            let mut bad = good.clone();
            bad.link_capacities[3] = capacity;
            let err = bad.check_inputs().unwrap_err();
            assert!(
                err.contains("link capacity") && err.contains("link 3"),
                "{err}"
            );
        }
    }

    #[test]
    fn qos_dimension_validates() {
        let topo = topologies::toy5();
        let mut s = tiny_sample(&topo);
        s.qos = Some(tiny_qos(s.num_paths()));
        s.faults = Some(FaultPlan::with_drop_chance(0.01));
        s.validate(&topo).unwrap();
        assert!(!s.qos.as_ref().unwrap().is_single_class_fifo());

        // Misaligned path classes are rejected.
        let mut bad = s.clone();
        bad.qos.as_mut().unwrap().path_classes.pop();
        assert!(bad.validate(&topo).is_err());

        // Out-of-range classes are rejected.
        let mut bad = s.clone();
        bad.qos.as_mut().unwrap().path_classes[0] = 9;
        assert!(bad.validate(&topo).is_err());

        // Fault plans referencing missing links are rejected.
        let mut bad = s.clone();
        bad.faults = Some(FaultPlan::none().with_outage(topo.num_links(), 0.0, 1.0));
        assert!(bad.validate(&topo).is_err());
    }

    #[test]
    fn single_class_fifo_is_recognized_as_legacy() {
        let q = SampleQos {
            policy: SchedulingPolicy::Fifo,
            class_profiles: vec![TrafficProfile::Poisson],
            path_classes: vec![0; 4],
            class_targets: ClassStats::from_accumulators(
                &vec![Default::default(); 4],
                &[0, 0, 0, 0],
                1,
            ),
        };
        assert!(q.is_single_class_fifo());
    }

    #[test]
    fn dataset_collects_delays() {
        let topo = topologies::toy5();
        let ds = Dataset {
            topology: topo.clone(),
            samples: vec![tiny_sample(&topo), tiny_sample(&topo)],
        };
        ds.validate().unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.all_delays(1).len(), 40);
        assert!(ds.all_delays(1000).is_empty());
    }
}
