//! Simulator-backed sample generation.
//!
//! Each sample draws — deterministically from `(master_seed, index)` — a
//! routing scheme, a traffic matrix at a random load level, a queue-profile
//! assignment, optionally heterogeneous link capacities; runs the
//! packet-level simulator; and records the per-path labels. Samples are
//! generated in parallel with rayon, which is safe because every sample owns
//! an independent split RNG stream.

use crate::schema::{Dataset, PathTarget, Sample, SampleQos};
use rayon::prelude::*;
use rn_netgraph::{Routing, Topology, TrafficMatrix};
use rn_netsim::{
    simulate, simulate_qos, FaultPlan, QosSpec, QueueProfile, SchedulingPolicy, SimConfig,
    SimResult, TrafficProfile,
};
use rn_tensor::Prng;
use serde::{Deserialize, Serialize};

/// How per-sample traffic matrices are drawn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficModel {
    /// Draw uniform per-pair rates, then rescale so the busiest link's
    /// offered utilization hits a per-sample target from
    /// [`GeneratorConfig::utilization_range`]. Gives precise control of the
    /// congestion regime, but couples per-flow rates to the topology (bigger
    /// topologies get smaller per-flow rates at equal utilization).
    TargetUtilization,
    /// Draw per-pair rates uniformly from `rate_range_bps`, multiplied by a
    /// per-sample global intensity from `intensity_range` — the KDN-dataset
    /// approach. Rate features are identically distributed across
    /// topologies, which is what lets a model trained on GEANT2 see
    /// in-distribution inputs on NSFNET (the paper's generalization
    /// experiment).
    AbsoluteRates {
        /// Per-pair base rate range in bits per second.
        rate_range_bps: (f64, f64),
        /// Per-sample global multiplier range (the "traffic intensity").
        intensity_range: (f64, f64),
    },
}

/// Controls for the QoS dimension of generated scenarios: each sample draws
/// a scheduling policy from the menu and assigns every flow a ToS class
/// uniformly at random. The per-class traffic profiles are fixed by the
/// config (class count = profile count).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QosGenConfig {
    /// Menu of scheduling policies; each sample draws one uniformly.
    pub policies: Vec<SchedulingPolicy>,
    /// Per-class traffic model; the length fixes the number of ToS classes.
    pub class_profiles: Vec<TrafficProfile>,
}

impl QosGenConfig {
    /// A two-class strict-priority/WFQ/DRR mix with heterogeneous traffic —
    /// a reasonable default QoS scenario space.
    pub fn two_class_mix() -> Self {
        Self {
            policies: vec![
                SchedulingPolicy::StrictPriority,
                SchedulingPolicy::Wfq {
                    weights: vec![3.0, 1.0],
                },
                SchedulingPolicy::Drr {
                    quanta_bits: vec![3_000.0, 1_000.0],
                },
            ],
            class_profiles: vec![
                TrafficProfile::Poisson,
                TrafficProfile::OnOff {
                    on_mean_s: 1.0,
                    off_mean_s: 1.0,
                },
            ],
        }
    }

    /// Validate the menu against the class count.
    pub fn validate(&self) -> Result<(), String> {
        if self.policies.is_empty() {
            return Err("QoS config needs at least one policy".into());
        }
        let n = self.class_profiles.len();
        for p in &self.policies {
            p.validate(n)?;
        }
        for p in &self.class_profiles {
            p.validate()?;
        }
        Ok(())
    }
}

/// Controls for the dataset generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Simulator parameters (per-sample seeds are derived, the `seed` field
    /// here is ignored).
    pub sim: SimConfig,
    /// Traffic-matrix model.
    pub traffic_model: TrafficModel,
    /// Per-sample target utilization of the busiest link, drawn uniformly
    /// from this range (used by [`TrafficModel::TargetUtilization`]).
    pub utilization_range: (f64, f64),
    /// Per-sample fraction of nodes with [`QueueProfile::Tiny`] queues, drawn
    /// uniformly from this range before assigning profiles per node.
    pub tiny_fraction_range: (f64, f64),
    /// Optional menu of link capacities (bps). When non-empty, every directed
    /// link independently draws a capacity from the menu per sample —
    /// exercising the variable-capacity support of the reference RouteNet.
    pub capacity_choices_bps: Vec<f64>,
    /// Randomize the routing scheme per sample (Dijkstra under random link
    /// weights). When false, minimum-hop routing is used for every sample.
    pub randomize_routing: bool,
    /// QoS scenario dimension: per-sample scheduling policies, ToS classes
    /// and heterogeneous traffic models. `None` (the default, and what old
    /// configs deserialize to) generates legacy FIFO scenarios **with a
    /// bit-identical RNG stream** — every QoS draw is gated behind this
    /// option.
    pub qos: Option<QosGenConfig>,
    /// Fault scenario dimension: a fault plan applied to every sample's
    /// simulation and recorded on the sample. `None` means fault-free.
    pub faults: Option<FaultPlan>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            sim: SimConfig::default(),
            traffic_model: TrafficModel::TargetUtilization,
            utilization_range: (0.4, 0.95),
            tiny_fraction_range: (0.2, 0.8),
            capacity_choices_bps: Vec::new(),
            randomize_routing: true,
            qos: None,
            faults: None,
        }
    }
}

impl GeneratorConfig {
    /// Validate ranges.
    pub fn validate(&self) -> Result<(), String> {
        self.sim.validate()?;
        let (ulo, uhi) = self.utilization_range;
        if !(ulo > 0.0 && uhi >= ulo) {
            return Err(format!("bad utilization range ({ulo}, {uhi})"));
        }
        if let TrafficModel::AbsoluteRates {
            rate_range_bps: (rlo, rhi),
            intensity_range: (ilo, ihi),
        } = self.traffic_model
        {
            if !(rlo > 0.0 && rhi >= rlo) {
                return Err(format!("bad rate range ({rlo}, {rhi})"));
            }
            if !(ilo > 0.0 && ihi >= ilo) {
                return Err(format!("bad intensity range ({ilo}, {ihi})"));
            }
        }
        let (tlo, thi) = self.tiny_fraction_range;
        if !(0.0..=1.0).contains(&tlo) || !(0.0..=1.0).contains(&thi) || thi < tlo {
            return Err(format!("bad tiny-fraction range ({tlo}, {thi})"));
        }
        if self.capacity_choices_bps.iter().any(|&c| c <= 0.0) {
            return Err("capacity choices must be positive".into());
        }
        if let Some(qos) = &self.qos {
            qos.validate()?;
        }
        if let Some(faults) = &self.faults {
            // Link indices are checked per-topology at simulation time.
            faults.validate(usize::MAX)?;
        }
        Ok(())
    }
}

/// Draw the per-sample [`QosSpec`] (policy + per-flow classes) and run the
/// simulator through the matching entry point. All QoS RNG draws happen in
/// here, *after* the queue-profile draw and *before* the sim-seed draw, so
/// a `None` QoS config leaves the legacy RNG stream untouched.
fn draw_qos_and_simulate(
    rng: &mut Prng,
    sample_topo: &Topology,
    routing: &Routing,
    traffic: &TrafficMatrix,
    queue_capacities: &[usize],
    config: &GeneratorConfig,
) -> (Option<QosSpec>, u64, SimResult) {
    let spec = config.qos.as_ref().map(|qc| {
        let policy = rng.choose(&qc.policies).clone();
        let num_classes = qc.class_profiles.len() as u64;
        let num_flows = routing
            .iter_paths()
            .filter(|&(s, d, _)| traffic.rate(s, d) > 0.0)
            .count();
        QosSpec {
            policy,
            class_profiles: qc.class_profiles.clone(),
            flow_classes: (0..num_flows)
                .map(|_| rng.int_range(0, num_classes) as u8)
                .collect(),
        }
    });
    let sim_seed = rng.int_range(0, u64::MAX);
    let sim_config = SimConfig {
        seed: sim_seed,
        ..config.sim.clone()
    };
    let faults = config.faults.clone().unwrap_or_default();
    let result = match &spec {
        Some(spec) => simulate_qos(
            sample_topo,
            routing,
            traffic,
            queue_capacities,
            &sim_config,
            &faults,
            spec,
        ),
        None => simulate(
            sample_topo,
            routing,
            traffic,
            queue_capacities,
            &sim_config,
            &faults,
        ),
    }
    .expect("generator inputs are validated");
    debug_assert!(result.conservation_holds(), "simulator lost packets");
    (spec, sim_seed, result)
}

/// The per-sample topology: a clone of `topo` whose link capacities are
/// re-drawn from [`GeneratorConfig::capacity_choices_bps`] when that menu is
/// non-empty. The first draws of every sample's RNG stream.
fn draw_sample_topology(topo: &Topology, config: &GeneratorConfig, rng: &mut Prng) -> Topology {
    let mut sample_topo = topo.clone();
    if !config.capacity_choices_bps.is_empty() {
        for l in 0..sample_topo.num_links() {
            let cap = *rng.choose(&config.capacity_choices_bps);
            sample_topo.set_link_capacity(l, cap);
        }
    }
    sample_topo
}

/// Everything after the traffic matrix, shared by the dense and the sparse
/// generator: draw the tiny-queue fraction and the per-node queue profiles,
/// draw the QoS spec and the simulator seed, simulate, and record the
/// per-path labels. The draws keep this order — it is the sample's RNG
/// stream (this crate's `tests/generate_digest.rs` pins it).
fn label_sample(
    rng: &mut Prng,
    sample_topo: &Topology,
    routing: Routing,
    traffic: TrafficMatrix,
    config: &GeneratorConfig,
) -> Sample {
    let (tlo, thi) = config.tiny_fraction_range;
    let tiny_fraction = tlo + (thi - tlo) * rng.uniform() as f64;
    let queue_profiles =
        QueueProfile::random_assignment(sample_topo.num_nodes(), tiny_fraction, rng);
    let queue_capacities = QueueProfile::capacities(&queue_profiles, &config.sim);

    let (spec, sim_seed, result) = draw_qos_and_simulate(
        rng,
        sample_topo,
        &routing,
        &traffic,
        &queue_capacities,
        config,
    );

    let targets = result
        .flows
        .iter()
        .zip(&result.flow_pairs)
        .map(|(f, &(src, dst))| PathTarget {
            src,
            dst,
            mean_delay_s: f.mean_delay_s,
            jitter_s: f.jitter_s,
            loss_ratio: f.loss_ratio,
            delivered: f.delivered,
        })
        .collect();

    Sample {
        routing,
        traffic,
        queue_profiles,
        queue_capacities,
        link_capacities: sample_topo.links().iter().map(|l| l.capacity_bps).collect(),
        targets,
        seed: sim_seed,
        qos: spec.map(|s| SampleQos {
            policy: s.policy,
            class_profiles: s.class_profiles,
            path_classes: s.flow_classes,
            class_targets: result.classes,
        }),
        faults: config.faults.clone(),
    }
}

/// Generate one sample deterministically from `(master_seed, index)`.
pub fn generate_sample(
    topo: &Topology,
    config: &GeneratorConfig,
    master_seed: u64,
    index: u64,
) -> Sample {
    let master = Prng::new(master_seed);
    let mut rng = master.split(index);

    let sample_topo = draw_sample_topology(topo, config, &mut rng);

    let routing = if config.randomize_routing {
        Routing::randomized(&sample_topo, &mut rng)
    } else {
        Routing::shortest_paths(&sample_topo)
    };

    let traffic = match config.traffic_model {
        TrafficModel::TargetUtilization => {
            let (ulo, uhi) = config.utilization_range;
            let target_util = ulo + (uhi - ulo) * rng.uniform() as f64;
            TrafficMatrix::with_target_utilization(&sample_topo, &routing, &mut rng, target_util)
        }
        TrafficModel::AbsoluteRates {
            rate_range_bps: (rlo, rhi),
            intensity_range: (ilo, ihi),
        } => {
            let intensity = ilo + (ihi - ilo) * rng.uniform() as f64;
            TrafficMatrix::uniform_random(
                sample_topo.num_nodes(),
                &mut rng,
                rlo * intensity,
                rhi * intensity,
            )
        }
    };

    label_sample(&mut rng, &sample_topo, routing, traffic, config)
}

/// Generate one **sparse** sample: only `active_pairs` source–destination
/// pairs carry traffic, and the routing scheme routes exactly those pairs
/// ([`Routing::sparse_weighted_shortest_paths`]). This is the giant-topology
/// entry point: a full scheme on an `n`-node graph is `n(n-1)` paths (a
/// million for `n = 1000`), while a scenario's label count — the simulator
/// creates one flow per pair with positive rate — stays at `active_pairs`.
/// Sparse samples therefore cost `O(active_pairs)` in paths, labels, plan
/// rows and memory regardless of `n` — [`Routing`] and [`TrafficMatrix`]
/// store only the routed pairs and their rates — which is what lets a model
/// trained on 14–24-node topologies be *evaluated* on 500+-node graphs.
/// Only the JSON form is still `n²` (both types write their dense table).
///
/// Pair selection, routing weights, rates, queue profiles and the simulator
/// seed all derive from `(master_seed, index)` exactly like
/// [`generate_sample`]. Traffic rates follow the configured
/// [`TrafficModel`]: `AbsoluteRates` keeps per-path rate features
/// identically distributed across topology sizes (the cross-topology
/// generalization requirement); `TargetUtilization` rescales the sparse
/// matrix so the busiest *loaded* link hits the drawn utilization target.
pub fn generate_sparse_sample(
    topo: &Topology,
    config: &GeneratorConfig,
    active_pairs: usize,
    master_seed: u64,
    index: u64,
) -> Sample {
    let n = topo.num_nodes();
    assert!(n >= 2, "sparse sample needs at least two nodes");
    let max_pairs = n * (n - 1);
    let active_pairs = active_pairs.min(max_pairs);
    assert!(active_pairs > 0, "sparse sample needs at least one pair");
    let master = Prng::new(master_seed);
    let mut rng = master.split(index);

    let sample_topo = draw_sample_topology(topo, config, &mut rng);

    // Distinct ordered pairs, drawn by rejection (active_pairs << n² in the
    // sparse regime this exists for, so collisions are rare; the draw is
    // still deterministic and terminates because active_pairs <= n(n-1)).
    let mut chosen = std::collections::HashSet::with_capacity(active_pairs);
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(active_pairs);
    while pairs.len() < active_pairs {
        let src = rng.index(n);
        let dst = rng.index(n);
        if src != dst && chosen.insert((src, dst)) {
            pairs.push((src, dst));
        }
    }

    // Routing over exactly the active pairs, with the same weight model as
    // the dense generator (random weights per sample, or unit weights).
    let weights: Vec<f64> = if config.randomize_routing {
        (0..sample_topo.num_links())
            .map(|_| 1.0 + rng.uniform() as f64)
            .collect()
    } else {
        vec![1.0; sample_topo.num_links()]
    };
    let routing = Routing::sparse_weighted_shortest_paths(&sample_topo, &weights, &pairs);

    let mut traffic = TrafficMatrix::zeros(n);
    match config.traffic_model {
        TrafficModel::AbsoluteRates {
            rate_range_bps: (rlo, rhi),
            intensity_range: (ilo, ihi),
        } => {
            let intensity = ilo + (ihi - ilo) * rng.uniform() as f64;
            for &(src, dst) in &pairs {
                let rate = rlo + (rhi - rlo) * rng.uniform() as f64;
                traffic.set(src, dst, rate * intensity);
            }
        }
        TrafficModel::TargetUtilization => {
            let (ulo, uhi) = config.utilization_range;
            let target_util = ulo + (uhi - ulo) * rng.uniform() as f64;
            for &(src, dst) in &pairs {
                traffic.set(src, dst, 0.5 + rng.uniform() as f64);
            }
            let max_util = traffic.max_link_utilization(&sample_topo, &routing);
            if max_util > 0.0 {
                let scale = target_util / max_util;
                for &(src, dst) in &pairs {
                    let r = traffic.rate(src, dst);
                    traffic.set(src, dst, r * scale);
                }
            }
        }
    }

    label_sample(&mut rng, &sample_topo, routing, traffic, config)
}

/// Generate `count` sparse samples in parallel (see
/// [`generate_sparse_sample`]).
pub fn generate_sparse(
    topo: &Topology,
    config: &GeneratorConfig,
    active_pairs: usize,
    master_seed: u64,
    count: usize,
) -> Dataset {
    config.validate().expect("invalid generator config");
    let samples: Vec<Sample> = (0..count as u64)
        .into_par_iter()
        .map(|i| generate_sparse_sample(topo, config, active_pairs, master_seed, i))
        .collect();
    Dataset {
        topology: topo.clone(),
        samples,
    }
}

/// Generate `count` samples in parallel.
pub fn generate(
    topo: &Topology,
    config: &GeneratorConfig,
    master_seed: u64,
    count: usize,
) -> Dataset {
    config.validate().expect("invalid generator config");
    let samples: Vec<Sample> = (0..count as u64)
        .into_par_iter()
        .map(|i| generate_sample(topo, config, master_seed, i))
        .collect();
    Dataset {
        topology: topo.clone(),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_netgraph::topologies;

    fn quick_config() -> GeneratorConfig {
        GeneratorConfig {
            sim: SimConfig {
                duration_s: 60.0,
                warmup_s: 10.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        }
    }

    #[test]
    fn generates_valid_samples() {
        let topo = topologies::toy5();
        let ds = generate(&topo, &quick_config(), 42, 4);
        assert_eq!(ds.len(), 4);
        ds.validate().unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let topo = topologies::toy5();
        let a = generate(&topo, &quick_config(), 7, 3);
        let b = generate(&topo, &quick_config(), 7, 3);
        for (sa, sb) in a.samples.iter().zip(&b.samples) {
            assert_eq!(sa.seed, sb.seed);
            assert_eq!(sa.targets, sb.targets);
            assert_eq!(sa.queue_profiles, sb.queue_profiles);
        }
    }

    #[test]
    fn single_sample_reproduces_independently() {
        let topo = topologies::toy5();
        let ds = generate(&topo, &quick_config(), 11, 3);
        let regenerated = generate_sample(&topo, &quick_config(), 11, 2);
        assert_eq!(ds.samples[2].targets, regenerated.targets);
    }

    #[test]
    fn samples_differ_from_each_other() {
        let topo = topologies::toy5();
        let ds = generate(&topo, &quick_config(), 13, 2);
        assert_ne!(ds.samples[0].targets, ds.samples[1].targets);
    }

    #[test]
    fn heterogeneous_capacities_are_drawn_from_menu() {
        let topo = topologies::toy5();
        let mut config = quick_config();
        config.capacity_choices_bps = vec![10_000.0, 40_000.0];
        let ds = generate(&topo, &config, 17, 3);
        for s in &ds.samples {
            assert!(s
                .link_capacities
                .iter()
                .all(|c| *c == 10_000.0 || *c == 40_000.0));
        }
        // At least one sample should mix both speeds.
        assert!(ds.samples.iter().any(
            |s| s.link_capacities.contains(&10_000.0) && s.link_capacities.contains(&40_000.0)
        ));
    }

    #[test]
    fn queue_profiles_mix_tiny_and_standard() {
        let topo = topologies::nsfnet_default();
        let config = quick_config();
        let ds = generate(&topo, &config, 19, 4);
        let mut saw_tiny = false;
        let mut saw_std = false;
        for s in &ds.samples {
            saw_tiny |= s.queue_profiles.contains(&QueueProfile::Tiny);
            saw_std |= s.queue_profiles.contains(&QueueProfile::Standard);
        }
        assert!(
            saw_tiny && saw_std,
            "expected both queue archetypes across samples"
        );
    }

    #[test]
    fn higher_load_range_produces_higher_delays() {
        let topo = topologies::toy5();
        let mut low = quick_config();
        low.utilization_range = (0.1, 0.2);
        let mut high = quick_config();
        high.utilization_range = (0.9, 0.95);
        let d_low = generate(&topo, &low, 23, 3);
        let d_high = generate(&topo, &high, 23, 3);
        let mean = |ds: &Dataset| {
            let v = ds.all_delays(1);
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(mean(&d_high) > mean(&d_low));
    }

    #[test]
    fn absolute_rates_are_topology_independent() {
        let mut config = quick_config();
        config.traffic_model = TrafficModel::AbsoluteRates {
            rate_range_bps: (100.0, 200.0),
            intensity_range: (1.0, 1.0),
        };
        let small = generate(&topologies::toy5(), &config, 71, 2);
        let large = generate(&topologies::nsfnet_default(), &config, 71, 2);
        // Every pair's rate must come from the same absolute range on both.
        for ds in [&small, &large] {
            for s in &ds.samples {
                for (src, dst, _) in s.routing.iter_paths() {
                    let r = s.traffic.rate(src, dst);
                    assert!(
                        (100.0..200.0).contains(&r),
                        "rate {r} outside the absolute range"
                    );
                }
            }
        }
    }

    #[test]
    fn intensity_scales_absolute_rates() {
        let mut lo = quick_config();
        lo.traffic_model = TrafficModel::AbsoluteRates {
            rate_range_bps: (100.0, 200.0),
            intensity_range: (0.5, 0.5),
        };
        let mut hi = quick_config();
        hi.traffic_model = TrafficModel::AbsoluteRates {
            rate_range_bps: (100.0, 200.0),
            intensity_range: (2.0, 2.0),
        };
        let ds_lo = generate(&topologies::toy5(), &lo, 73, 1);
        let ds_hi = generate(&topologies::toy5(), &hi, 73, 1);
        assert!(ds_hi.samples[0].traffic.total_bps() > 3.0 * ds_lo.samples[0].traffic.total_bps());
    }

    #[test]
    fn sparse_samples_validate_and_stay_sparse() {
        let mut rng = rn_tensor::Prng::new(31);
        let topo = rn_netgraph::generators::isp_tiered(
            100,
            &rn_netgraph::generators::TierConfig::default(),
            &mut rng,
        )
        .unwrap();
        let mut config = quick_config();
        config.sim.duration_s = 30.0;
        config.sim.warmup_s = 5.0;
        config.traffic_model = TrafficModel::AbsoluteRates {
            rate_range_bps: (100.0, 1_000.0),
            intensity_range: (0.5, 1.8),
        };
        let ds = generate_sparse(&topo, &config, 32, 41, 2);
        ds.validate().unwrap();
        for s in &ds.samples {
            // Label count tracks the active-pair budget, not n(n-1).
            assert_eq!(s.routing.num_paths(), 32);
            assert_eq!(s.targets.len(), 32);
            // Labels align with iter_paths order (row-major): the invariant
            // build_plan's target zip relies on.
            for ((src, dst, _), t) in s.routing.iter_paths().zip(&s.targets) {
                assert_eq!((src, dst), (t.src, t.dst));
                assert!(s.traffic.rate(src, dst) > 0.0);
            }
        }
    }

    #[test]
    fn sparse_generation_is_deterministic() {
        let topo = topologies::nsfnet_default();
        let mut config = quick_config();
        config.sim.duration_s = 30.0;
        let a = generate_sparse(&topo, &config, 20, 53, 2);
        let b = generate_sparse(&topo, &config, 20, 53, 2);
        for (sa, sb) in a.samples.iter().zip(&b.samples) {
            assert_eq!(sa.seed, sb.seed);
            assert_eq!(sa.targets, sb.targets);
        }
        // Independent regeneration of one index reproduces it.
        let lone = generate_sparse_sample(&topo, &config, 20, 53, 1);
        assert_eq!(a.samples[1].targets, lone.targets);
    }

    #[test]
    fn sparse_target_utilization_hits_a_sane_load() {
        let topo = topologies::nsfnet_default();
        let mut config = quick_config();
        config.sim.duration_s = 20.0;
        config.utilization_range = (0.5, 0.5);
        let s = generate_sparse_sample(&topo, &config, 12, 61, 0);
        // The busiest loaded link should sit at the drawn target.
        let topo_caps = topologies::nsfnet_default();
        let util = s.traffic.max_link_utilization(&topo_caps, &s.routing);
        assert!(
            (util - 0.5).abs() < 1e-9,
            "sparse rescaling missed the target: {util}"
        );
    }

    #[test]
    fn qos_samples_carry_classes_and_per_class_labels() {
        let topo = topologies::toy5();
        let mut config = quick_config();
        config.qos = Some(QosGenConfig::two_class_mix());
        config.faults = Some(FaultPlan::with_drop_chance(0.005));
        let ds = generate(&topo, &config, 29, 4);
        ds.validate().unwrap();
        for s in &ds.samples {
            let qos = s.qos.as_ref().expect("QoS config produces QoS samples");
            assert_eq!(qos.path_classes.len(), s.targets.len());
            assert_eq!(qos.num_classes(), 2);
            assert_eq!(qos.class_targets.len(), 2);
            assert!(!qos.is_single_class_fifo());
            assert_eq!(s.faults, Some(FaultPlan::with_drop_chance(0.005)));
            // Per-class delivered counts pool the per-flow counts exactly.
            let per_class: u64 = qos.class_targets.iter().map(|c| c.delivered).sum();
            let per_flow: u64 = s.targets.iter().map(|t| t.delivered).sum();
            assert_eq!(per_class, per_flow);
        }
        // The policy menu actually varies across samples (drawn per sample).
        let distinct: std::collections::HashSet<_> = ds
            .samples
            .iter()
            .map(|s| format!("{:?}", s.qos.as_ref().unwrap().policy))
            .collect();
        assert!(distinct.len() > 1, "4 samples should draw >1 policy");
    }

    #[test]
    fn qos_generation_is_deterministic() {
        let topo = topologies::toy5();
        let mut config = quick_config();
        config.qos = Some(QosGenConfig::two_class_mix());
        let a = generate(&topo, &config, 37, 2);
        let b = generate(&topo, &config, 37, 2);
        for (sa, sb) in a.samples.iter().zip(&b.samples) {
            assert_eq!(sa.targets, sb.targets);
            assert_eq!(sa.qos, sb.qos);
        }
    }

    #[test]
    fn legacy_config_produces_legacy_samples() {
        // No QoS, no faults: samples must carry neither dimension, so the
        // serialized form (and the RNG stream — no gated draws taken) matches
        // what the pre-QoS generator produced.
        let topo = topologies::toy5();
        let ds = generate(&topo, &quick_config(), 42, 2);
        for s in &ds.samples {
            assert!(s.qos.is_none());
            assert!(s.faults.is_none());
        }
    }

    #[test]
    fn sparse_qos_samples_validate() {
        let topo = topologies::nsfnet_default();
        let mut config = quick_config();
        config.sim.duration_s = 30.0;
        config.qos = Some(QosGenConfig::two_class_mix());
        let ds = generate_sparse(&topo, &config, 16, 43, 2);
        ds.validate().unwrap();
        for s in &ds.samples {
            assert_eq!(s.qos.as_ref().unwrap().path_classes.len(), 16);
        }
    }

    #[test]
    fn invalid_qos_config_is_rejected() {
        let mut c = quick_config();
        c.qos = Some(QosGenConfig {
            policies: vec![SchedulingPolicy::Wfq {
                weights: vec![1.0], // arity mismatch with two profiles
            }],
            class_profiles: vec![TrafficProfile::Poisson, TrafficProfile::Poisson],
        });
        assert!(c.validate().is_err());
        let mut c = quick_config();
        c.qos = Some(QosGenConfig {
            policies: vec![],
            class_profiles: vec![TrafficProfile::Poisson],
        });
        assert!(c.validate().is_err());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut c = quick_config();
        c.utilization_range = (0.5, 0.1);
        assert!(c.validate().is_err());
        let mut c = quick_config();
        c.tiny_fraction_range = (0.5, 1.5);
        assert!(c.validate().is_err());
    }
}
