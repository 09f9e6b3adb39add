//! The six workloads and what they share: how `--seed` becomes inputs, and
//! the outside-in probes every traced pass runs on the layers its set-up
//! crosses (generator, simulator, routing, JSON).

pub mod datagen;
pub mod eval;
pub mod serve;
pub mod train;

use crate::metrics::Values;
use crate::spans::Recorder;
use rn_autograd::Graph;
use rn_dataset::{generate_sample, GeneratorConfig, QosGenConfig, Sample};
use rn_netgraph::{Routing, Topology};
use rn_netsim::{simulate, simulate_qos, FaultPlan, QosSpec, SimConfig};
use rn_nn::{GruCell, Layer};
use rn_tensor::{Matrix, Prng};
use routenet::model::PathPredictor;
use routenet::SamplePlan;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What one untraced timed rep measured.
pub struct Rep {
    /// Work items per second.
    pub throughput: f64,
    /// Median latency of the rep's user-visible operations, ms.
    pub latency_p50_ms: f64,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
}

/// What the traced pass found besides the per-layer values it set.
#[derive(Default)]
pub struct Traced {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Correctness gates that did not hold.
    pub violations: Vec<String>,
}

/// One workload: inputs built from a seed, untraced timed reps, and a
/// traced pass that attributes the same work to layers.
pub trait Workload: Sized {
    /// Build every input from `seed` and run one reduced warm-up rep, so
    /// lazy set-up and cache fills are paid before timing starts. `scratch`
    /// is a directory of the run's own for files.
    fn setup(seed: u64, scratch: &Path) -> Self;

    /// One timed rep, tracing off. Gates that do not hold go to
    /// `violations`.
    fn rep(&mut self, violations: &mut Vec<String>) -> Rep;

    /// Attribute the work to layers: spans around the public calls, the
    /// counters the program exposes under `RN_TRACE`, and kernel probes at
    /// this workload's shapes. Takes about `seconds`.
    fn trace(&mut self, seconds: f64, rec: &Recorder, layers: &mut Values) -> Traced;
}

/// Independent input streams derived from the run's `--seed`.
#[derive(Clone, Copy)]
pub enum Stream {
    /// Scenario generation (`generate*` master seed).
    Scenarios = 2,
    /// Model weight initialisation.
    ModelInit = 3,
    /// Training shuffle schedule.
    Schedule = 4,
    /// Request order and arrival times.
    Requests = 5,
}

/// The seed of `stream` under the run's `seed`.
pub fn stream_seed(seed: u64, stream: Stream) -> u64 {
    Prng::new(seed).split(stream as u64).seed()
}

/// Generator settings at the given simulated duration: library defaults
/// otherwise, FIFO or the two-class QoS mix.
pub fn generator(duration_s: f64, qos: bool) -> GeneratorConfig {
    GeneratorConfig {
        sim: SimConfig {
            duration_s,
            warmup_s: duration_s * 0.1,
            ..SimConfig::default()
        },
        qos: qos.then(QosGenConfig::two_class_mix),
        ..GeneratorConfig::default()
    }
}

/// Run `f` repeatedly for about `budget_s` (at least three calls) and
/// return the median seconds per call.
pub fn median_call_s(budget_s: f64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        f();
        walls.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&walls)
}

/// Generate `count` samples one by one under spans, then re-run routing and
/// the simulator on the inputs each sample records: the generator's own
/// share is what is left of `generate_sample` after those two.
///
/// Returns a violation when a re-run simulation loses packets or its labels
/// differ from the sample's.
pub fn probe_generation(
    rec: &Recorder,
    layers: &mut Values,
    topo: &Topology,
    config: &GeneratorConfig,
    master_seed: u64,
    count: u64,
) -> Vec<String> {
    let mut violations = Vec::new();
    let sim_name = if config.qos.is_some() {
        "netsim.simulate_qos"
    } else {
        "netsim.simulate"
    };
    let mut packets = 0u64;
    rec.scope("datagen.replica", None, 0, |root| {
        for index in 0..count {
            let sample = rec.leaf("dataset.generate_sample", Some(root), index, || {
                generate_sample(topo, config, master_seed, index)
            });
            let mut sample_topo = topo.clone();
            for (l, &cap) in sample.link_capacities.iter().enumerate() {
                sample_topo.set_link_capacity(l, cap);
            }
            let mut rng = Prng::new(master_seed).split(index);
            rec.leaf("netgraph.routing", Some(root), index, || {
                black_box(if config.randomize_routing {
                    Routing::randomized(&sample_topo, &mut rng)
                } else {
                    Routing::shortest_paths(&sample_topo)
                });
            });
            let sim_config = SimConfig {
                seed: sample.seed,
                ..config.sim.clone()
            };
            let result = rec
                .leaf(sim_name, Some(root), index, || match &sample.qos {
                    Some(q) => simulate_qos(
                        &sample_topo,
                        &sample.routing,
                        &sample.traffic,
                        &sample.queue_capacities,
                        &sim_config,
                        &FaultPlan::none(),
                        &QosSpec {
                            policy: q.policy.clone(),
                            class_profiles: q.class_profiles.clone(),
                            flow_classes: q.path_classes.clone(),
                        },
                    ),
                    None => simulate(
                        &sample_topo,
                        &sample.routing,
                        &sample.traffic,
                        &sample.queue_capacities,
                        &sim_config,
                        &FaultPlan::none(),
                    ),
                })
                .expect("a generated sample's inputs are valid simulator inputs");
            packets += result.total_created;
            if !result.conservation_holds() {
                violations.push(format!("sample {index}: re-run simulation lost packets"));
            }
            let same_labels = result.flows.len() == sample.targets.len()
                && result
                    .flows
                    .iter()
                    .zip(&sample.targets)
                    .all(|(f, t)| f.mean_delay_s.to_bits() == t.mean_delay_s.to_bits());
            if !same_labels {
                violations.push(format!(
                    "sample {index}: re-run simulation does not reproduce the sample's labels"
                ));
            }
        }
    });
    let sim_s = rec.total_s(sim_name);
    let (sim_ms, pkts) = if config.qos.is_some() {
        ("netsim.qos_sim_ms", "netsim.qos_pkts_per_s")
    } else {
        ("netsim.fifo_sim_ms", "netsim.fifo_pkts_per_s")
    };
    layers.set(sim_ms, rec.mean_s(sim_name) * 1e3);
    layers.set(pkts, packets as f64 / sim_s);
    layers.set("netgraph.routing_us", rec.mean_s("netgraph.routing") * 1e6);
    layers.set(
        "dataset.generate_sample_ms",
        rec.mean_s("dataset.generate_sample") * 1e3,
    );
    // Over both simulator loops when the caller probed both flavours.
    let simulated_s = rec.total_s("netsim.simulate") + rec.total_s("netsim.simulate_qos");
    layers.set(
        "dataset.self_share",
        1.0 - (rec.total_s("netgraph.routing") + simulated_s)
            / rec.total_s("dataset.generate_sample"),
    );
    violations
}

/// The layers every set-up crosses, probed the same way on every workload:
/// four samples through the generator, routing and the simulator, and the
/// JSON writer and parser on `line` (a `T` this workload ships around).
pub fn probe_inputs<T>(
    rec: &Recorder,
    layers: &mut Values,
    topo: &Topology,
    config: &GeneratorConfig,
    master_seed: u64,
    line: &str,
    budget_s: f64,
) -> Vec<String>
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let violations = probe_generation(rec, layers, topo, config, master_seed, 4);
    layers.set("dataset.bytes_per_sample", line.len() as f64);
    probe_json::<T>(layers, line, budget_s);
    violations
}

/// Throughput of the hand-written JSON on `text`, which must parse as `T`:
/// sets `serde_json.from_str_mb_per_s` and `serde_json.to_string_mb_per_s`.
pub fn probe_json<T>(layers: &mut Values, text: &str, budget_s: f64)
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let mb = text.len() as f64 / 1e6;
    let value: T = serde_json::from_str(text).expect("probe text was written by to_string");
    let parse_s = median_call_s(budget_s / 2.0, || {
        black_box(serde_json::from_str::<T>(black_box(text)).expect("parsed above"));
    });
    let print_s = median_call_s(budget_s / 2.0, || {
        black_box(serde_json::to_string(black_box(&value)).expect("infallible writer"));
    });
    layers.set("serde_json.from_str_mb_per_s", mb / parse_s);
    layers.set("serde_json.to_string_mb_per_s", mb / print_s);
}

/// Kernel rates at a workload's path-GRU shape: `rows` path rows advancing
/// one step at state width `d` multiply a `rows x 2d` block by the merged
/// `2d x 2d` gate kernel (forward) and reduce `rows x 2d` against
/// `rows x 2d` into the kernel gradient (backward).
pub fn probe_kernels(layers: &mut Values, rows: usize, d: usize, budget_s: f64) {
    let mut rng = Prng::new(0);
    let hx = rng.uniform_matrix(rows, 2 * d, -1.0, 1.0);
    let w = rng.uniform_matrix(2 * d, 2 * d, -1.0, 1.0);
    let mut out = Matrix::zeros(rows, 2 * d);
    let flops = 2.0 * rows as f64 * (2 * d) as f64 * (2 * d) as f64;
    let share = budget_s / 4.0;

    let s = median_call_s(share, || {
        hx.matmul_into(black_box(&w), &mut out);
        black_box(&out);
    });
    layers.set("tensor.matmul_gflops", flops / s / 1e9);
    layers.set(
        "tensor.matmul_bytes_per_call",
        4.0 * (hx.len() + w.len() + out.len()) as f64,
    );

    let mut grad = Matrix::zeros(2 * d, 2 * d);
    let s = median_call_s(share, || {
        hx.matmul_tn_into(black_box(&out), &mut grad);
        black_box(&grad);
    });
    layers.set("tensor.matmul_tn_gflops", flops / s / 1e9);

    let src = hx.as_slice();
    let mut dst = vec![0.0f32; src.len()];
    let s = median_call_s(share, || {
        rn_tensor::simd::activations::tanh_map(black_box(src), &mut dst);
        black_box(&dst);
    });
    layers.set("tensor.tanh_melem_per_s", src.len() as f64 / s / 1e6);

    let cell = GruCell::new(&mut rng, d, d);
    let h = rng.uniform_matrix(rows, d, -1.0, 1.0);
    let x = rng.uniform_matrix(rows, d, -1.0, 1.0);
    let mut g = Graph::new();
    let mut steps = Vec::new();
    let started = Instant::now();
    while steps.len() < 3 || started.elapsed().as_secs_f64() < share {
        g.reset();
        let bound = cell.bind(&mut g);
        let (hv, xv) = (g.constant_copy(&h), g.constant_copy(&x));
        let t = Instant::now();
        black_box(bound.step_fused(&mut g, hv, xv));
        steps.push(t.elapsed().as_secs_f64());
    }
    layers.set("nn.gru_step_us", crate::stats::median(&steps) * 1e6);
}

/// The direct-loop floor under serving and evaluation: `predict_with` on one
/// reused tape over `plans`, round robin. Sets `core.predict_us`,
/// `core.direct_predict_rps` and the tape gauges of an inference pass.
pub fn probe_direct_predict<M: PathPredictor>(
    layers: &mut Values,
    model: &M,
    plans: &[&SamplePlan],
    budget_s: f64,
) {
    let mut g = Graph::new();
    let mut next = 0usize;
    let s = median_call_s(budget_s, || {
        black_box(model.predict_with(&mut g, plans[next % plans.len()]));
        next += 1;
    });
    layers.set("core.predict_us", s * 1e6);
    layers.set("core.direct_predict_rps", 1.0 / s);
    layers.set("autograd.pooled_buffers", g.pooled_buffers() as f64);
}

/// `sample_fingerprint` and `model.plan` per call on `samples`, round robin.
pub fn probe_planning<M: PathPredictor>(
    layers: &mut Values,
    model: &M,
    samples: &[Sample],
    budget_s: f64,
) {
    let (scales, normalizer) = model.preprocessing();
    let cfg = routenet::entities::PlanConfig::new(model.config(), scales, normalizer);
    let mut next = 0usize;
    let s = median_call_s(budget_s / 2.0, || {
        black_box(routenet::sample_fingerprint(
            &samples[next % samples.len()],
            &cfg,
        ));
        next += 1;
    });
    layers.set("core.fingerprint_us", s * 1e6);
    let s = median_call_s(budget_s / 2.0, || {
        black_box(model.plan(&samples[next % samples.len()]));
        next += 1;
    });
    layers.set("core.plan_us", s * 1e6);
}
