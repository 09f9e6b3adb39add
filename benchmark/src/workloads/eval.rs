//! `eval_isp250`: `routenet::evaluate` of both paper-scale models over
//! sparse scenarios on a seeded 250-node ISP topology, and a
//! span-instrumented replica of one evaluation round.

use super::{
    generator, probe_direct_predict, probe_inputs, probe_kernels, probe_planning, stream_seed, Rep,
    Stream, Traced, Workload,
};
use crate::metrics::Values;
use crate::spans::Recorder;
use crate::stats::median;
use rayon::prelude::*;
use rn_autograd::TapePool;
use rn_dataset::{generate, generate_sparse, Dataset, Sample};
use rn_netgraph::generators::{isp_tiered, TierConfig};
use rn_netgraph::topologies;
use rn_tensor::Prng;
use routenet::model::PathPredictor;
use routenet::{
    evaluate, ComposedMegabatch, EvalReport, ExtendedRouteNet, ModelConfig, OriginalRouteNet,
    SamplePlan,
};
use std::path::Path;
use std::time::Instant;

const NODES: usize = 250;
/// The one ISP every run evaluates on; `--seed` draws the scenarios on it.
/// Topologies of different seeds differ in link count, path lengths and
/// longest path, so in cost per path (by ~8 % between seeds 1 and 10), and
/// that difference would count as spread between runs.
const TOPOLOGY_SEED: u64 = 250;
const SAMPLES: usize = 16;
const ACTIVE_PAIRS: usize = 256;
const SIM_DURATION_S: f64 = 60.0;
/// Label reliability threshold handed to `evaluate`.
const MIN_PACKETS: u64 = 10;
/// `evaluate` packs consecutive plans into one forward pass while their path
/// rows stay within this budget (`EVAL_PATH_BUDGET` in `rn_core::eval`); the
/// replica packs the same way.
const REPLICA_PATH_BUDGET: usize = 512;

/// The evaluation workload's inputs.
pub struct Eval {
    seed: u64,
    dataset: Dataset,
    extended: ExtendedRouteNet,
    original: OriginalRouteNet,
    /// Labelled paths `evaluate` must report per model.
    expected_paths: usize,
    /// Paths of all samples, labelled or not: `evaluate` predicts every one,
    /// and unlike the labelled count this does not move with the seed.
    paths: usize,
}

impl Eval {
    /// One `evaluate` call; returns its wall seconds.
    fn call<M: PathPredictor>(&self, model: &M, violations: &mut Vec<String>) -> f64 {
        let t = Instant::now();
        let report = evaluate(model, &self.dataset, "isp250", MIN_PACKETS);
        let wall = t.elapsed().as_secs_f64();
        self.check(&report, violations);
        wall
    }

    fn check(&self, report: &EvalReport, violations: &mut Vec<String>) {
        if report.num_paths() != self.expected_paths {
            violations.push(format!(
                "{}: evaluated {} paths, expected {}",
                report.model,
                report.num_paths(),
                self.expected_paths
            ));
        }
        let finite = report.rel_errors.iter().all(|e| e.is_finite())
            && report.mae_s.is_finite()
            && report.rmse_s.is_finite();
        if !finite {
            violations.push(format!("{}: non-finite evaluation errors", report.model));
        }
    }

    /// One round: both models over the dataset. Returns the two call walls.
    fn round(&self, violations: &mut Vec<String>) -> [f64; 2] {
        [
            self.call(&self.extended, violations),
            self.call(&self.original, violations),
        ]
    }

    /// `evaluate` rebuilt from its public parts, each call in a span.
    fn replica<M: PathPredictor>(&self, rec: &Recorder, model: &M, op: u64) -> (f64, usize) {
        let t = Instant::now();
        let paths = rec.scope("eval.replica", None, op, |root| {
            let plans: Vec<SamplePlan> = rec.leaf("core.plan_all", Some(root), op, || {
                self.dataset
                    .samples
                    .par_iter()
                    .map(|s| model.plan(s))
                    .collect()
            });
            let mut chunks: Vec<(usize, usize)> = Vec::new();
            let mut start = 0;
            while start < plans.len() {
                let mut end = start + 1;
                let mut rows = plans[start].n_paths;
                while end < plans.len() && rows + plans[end].n_paths <= REPLICA_PATH_BUDGET {
                    rows += plans[end].n_paths;
                    end += 1;
                }
                chunks.push((start, end));
                start = end;
            }
            let tapes = TapePool::new();
            let (_, normalizer) = model.preprocessing();
            let pairs: Vec<(f64, f64)> = chunks
                .par_iter()
                .flat_map_iter(|&(start, end)| {
                    let chunk_op = start as u64;
                    let parts: Vec<&SamplePlan> = plans[start..end].iter().collect();
                    let composed = rec.leaf("core.compose", Some(root), chunk_op, || {
                        ComposedMegabatch::compose(&parts).expect("uniform-width chunk")
                    });
                    let mb = composed.megabatch();
                    let mut g = tapes.acquire();
                    let bound = rec.leaf("autograd.bind", Some(root), chunk_op, || {
                        g.reset();
                        g.set_inference_mode(true);
                        model.bind(&mut g)
                    });
                    let pred = rec.leaf("core.forward", Some(root), chunk_op, || {
                        model.forward(&mut g, &bound, &mb.plan)
                    });
                    let values = g.value(pred).as_slice();
                    let mut out = Vec::new();
                    for (sample, &(lo, _)) in
                        self.dataset.samples[start..end].iter().zip(&mb.path_ranges)
                    {
                        for (i, t) in sample.targets.iter().enumerate() {
                            if t.is_reliable(MIN_PACKETS) && t.mean_delay_s > 0.0 {
                                out.push((
                                    normalizer.denormalize(values[lo + i] as f64),
                                    t.mean_delay_s,
                                ));
                            }
                        }
                    }
                    g.set_inference_mode(false);
                    tapes.release(g);
                    out
                })
                .collect();
            let (preds, targets): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            let report = rec.leaf("core.report", Some(root), op, || {
                EvalReport::from_predictions(model.name(), "isp250", &preds, &targets)
            });
            report.num_paths()
        });
        (t.elapsed().as_secs_f64(), paths)
    }
}

impl Workload for Eval {
    fn setup(seed: u64, _scratch: &Path) -> Self {
        let mut rng = Prng::new(TOPOLOGY_SEED);
        let topo = isp_tiered(NODES, &TierConfig::default(), &mut rng)
            .expect("250 nodes and the default tiers are valid generator input");
        let scenarios = stream_seed(seed, Stream::Scenarios);
        let dataset = generate_sparse(
            &topo,
            &generator(SIM_DURATION_S, false),
            ACTIVE_PAIRS,
            scenarios,
            SAMPLES,
        );
        // The train-small / evaluate-large regime: preprocessing is fitted
        // on a small NSFNET set, the weights stay at their seeded init
        // (evaluation cost does not depend on them).
        let fit_on = generate(
            &topologies::nsfnet_default(),
            &generator(SIM_DURATION_S, false),
            scenarios,
            8,
        );
        let config = ModelConfig {
            seed: stream_seed(seed, Stream::ModelInit),
            ..ModelConfig::paper_scale()
        };
        let mut extended = ExtendedRouteNet::new(config.clone());
        extended.fit_preprocessing(&fit_on, MIN_PACKETS);
        let mut original = OriginalRouteNet::new(config);
        original.fit_preprocessing(&fit_on, MIN_PACKETS);
        let expected_paths = dataset
            .samples
            .iter()
            .flat_map(|s| &s.targets)
            .filter(|t| t.is_reliable(MIN_PACKETS) && t.mean_delay_s > 0.0)
            .count();
        let paths = dataset.samples.iter().map(|s| s.num_paths()).sum();
        let workload = Self {
            seed,
            dataset,
            extended,
            original,
            expected_paths,
            paths,
        };
        workload.round(&mut Vec::new());
        workload
    }

    fn rep(&mut self, violations: &mut Vec<String>) -> Rep {
        let walls = self.round(violations);
        if self.expected_paths == 0 {
            violations.push("no labelled path in the evaluation set".to_string());
        }
        let round_s = walls[0] + walls[1];
        Rep {
            throughput: 2.0 * self.paths as f64 / round_s,
            latency_p50_ms: round_s * 1e3,
            attempted: 2,
            failed: 0,
        }
    }

    fn trace(&mut self, seconds: f64, rec: &Recorder, layers: &mut Values) -> Traced {
        let mut traced = Traced::default();
        let rounds = (seconds / 1.5) as usize;

        // By turns, so that a drifting host slows all three alike: the real
        // entry point with tracing off, with it on, and the span-instrumented
        // replica of the same round.
        let rounds = rounds.max(3) as u64;
        let (mut untraced, mut with_trace, mut replica) = (Vec::new(), Vec::new(), Vec::new());
        for r in 0..rounds {
            let walls = self.round(&mut traced.violations);
            untraced.push(walls[0] + walls[1]);
            rn_trace::set_enabled(true);
            let walls = self.round(&mut traced.violations);
            rn_trace::set_enabled(false);
            with_trace.push(walls[0] + walls[1]);
            let (ext_s, ext_paths) = self.replica(rec, &self.extended, 2 * r);
            let (orig_s, orig_paths) = self.replica(rec, &self.original, 2 * r + 1);
            replica.push(ext_s + orig_s);
            if ext_paths != self.expected_paths || orig_paths != self.expected_paths {
                traced
                    .violations
                    .push("the replica evaluated another path count than evaluate()".to_string());
            }
        }
        traced.attempted += 6 * rounds;
        let untraced_s = median(&untraced);
        layers.set(
            "trace_overhead_pct",
            (median(&with_trace) / untraced_s - 1.0) * 100.0,
        );
        layers.set("core.replica_ratio", untraced_s / median(&replica));
        layers.set("core.compose_us", rec.mean_s("core.compose") * 1e6);
        layers.set("autograd.bind_us", rec.mean_s("autograd.bind") * 1e6);
        layers.set("core.forward_ms", rec.mean_s("core.forward") * 1e3);
        layers.set("core.report_us", rec.mean_s("core.report") * 1e6);

        // Probes at this workload's shapes, and of the layers set-up crossed.
        let budget = (seconds / 8.0).max(0.2);
        let plans: Vec<SamplePlan> = self
            .dataset
            .samples
            .iter()
            .map(|s| self.extended.plan(s))
            .collect();
        let singles: Vec<&SamplePlan> = plans.iter().collect();
        let pair = ComposedMegabatch::compose(&singles[..2]).expect("uniform-width chunk");
        let mut g = rn_autograd::Graph::new();
        self.extended
            .predict_megabatch_with(&mut g, pair.megabatch());
        layers.set("autograd.tape_nodes", g.len() as f64);
        probe_kernels(
            layers,
            pair.plan().n_paths,
            self.extended.config().state_dim,
            budget,
        );
        probe_planning(layers, &self.extended, &self.dataset.samples, budget);
        probe_direct_predict(layers, &self.extended, &singles, budget / 2.0);
        let s = super::median_call_s(budget / 4.0, || {
            let mut rng = Prng::new(TOPOLOGY_SEED);
            std::hint::black_box(isp_tiered(NODES, &TierConfig::default(), &mut rng).ok());
        });
        layers.set("netgraph.isp_tiered_ms", s * 1e3);
        let line = serde_json::to_string(&self.dataset.samples[0]).expect("infallible writer");
        traced.violations.extend(probe_inputs::<Sample>(
            rec,
            layers,
            &topologies::nsfnet_default(),
            &generator(SIM_DURATION_S, false),
            stream_seed(self.seed, Stream::Scenarios),
            &line,
            budget,
        ));
        traced
    }
}
