//! `train_nsfnet` and `train_qos_small`: `routenet::train` end to end, and
//! a span-instrumented replica of its loop built from the same public calls.

use super::{
    generator, probe_direct_predict, probe_inputs, probe_kernels, probe_planning, stream_seed, Rep,
    Stream, Traced, Workload,
};
use crate::metrics::Values;
use crate::spans::{Recorder, SpanId};
use crate::stats::median;
use rayon::prelude::*;
use rn_autograd::{Graph, TapePool};
use rn_dataset::{generate, Dataset, Sample};
use rn_netgraph::topologies;
use rn_nn::{clip_global_norm, Adam, Layer, Optimizer};
use rn_tensor::{Matrix, Prng};
use routenet::model::PathPredictor;
use routenet::train_trace::RunSummary;
use routenet::{
    train, ComposedMegabatch, ExtendedRouteNet, ModelConfig, QosRouteNet, SamplePlan, TrainConfig,
};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// What distinguishes the two training workloads.
pub trait TrainSpec {
    /// The model trained.
    type Model: PathPredictor;
    /// NSFNET scenarios in the training set.
    const SAMPLES: usize;
    /// Scenarios drawn from the two-class QoS mix instead of FIFO.
    const QOS: bool;
    /// Epochs per `train()` call.
    const EPOCHS: usize;
    /// `(state_dim, mp_iterations, readout_hidden)`.
    const DIMS: (usize, usize, usize);
    /// Build the untrained model.
    fn model(config: ModelConfig) -> Self::Model;
}

/// Paper-scale extended model: kernels dominate a step.
pub struct Nsfnet;

impl TrainSpec for Nsfnet {
    type Model = ExtendedRouteNet;
    const SAMPLES: usize = 32;
    const QOS: bool = false;
    const EPOCHS: usize = 3;
    const DIMS: (usize, usize, usize) = (32, 8, 64);
    fn model(config: ModelConfig) -> ExtendedRouteNet {
        ExtendedRouteNet::new(config)
    }
}

/// Tiny QoS model: per-step bookkeeping dominates.
pub struct QosSmall;

impl TrainSpec for QosSmall {
    type Model = QosRouteNet;
    const SAMPLES: usize = 64;
    const QOS: bool = true;
    const EPOCHS: usize = 20;
    const DIMS: (usize, usize, usize) = (8, 2, 16);
    fn model(config: ModelConfig) -> QosRouteNet {
        QosRouteNet::new(config)
    }
}

/// Simulated seconds per scenario: short, the trainer is what is measured.
const SIM_DURATION_S: f64 = 60.0;

/// A training workload's inputs.
pub struct Train<S: TrainSpec> {
    seed: u64,
    dataset: Dataset,
    model_config: ModelConfig,
    train_config: TrainConfig,
    scratch: PathBuf,
    /// Per-epoch losses of the first full rep: every later rep of the same
    /// seed must reproduce them bit for bit.
    reference_losses: Option<Vec<u64>>,
    spec: PhantomData<S>,
}

impl<S: TrainSpec> Train<S> {
    fn fresh_model(&self) -> S::Model {
        S::model(self.model_config.clone())
    }

    /// One `train()` call on a fresh model; returns its wall seconds.
    fn train_once(&mut self, config: &TrainConfig, violations: &mut Vec<String>) -> f64 {
        let mut model = self.fresh_model();
        let t = Instant::now();
        let history = train(&mut model, &self.dataset, None, config);
        let wall = t.elapsed().as_secs_f64();
        if config.epochs == S::EPOCHS {
            self.check_losses(&history.train_loss, violations);
        }
        wall
    }

    fn check_losses(&mut self, losses: &[f64], violations: &mut Vec<String>) {
        let (first, last) = (losses[0], losses[losses.len() - 1]);
        if !losses.iter().all(|l| l.is_finite()) || last >= first {
            violations.push(format!(
                "training loss must be finite and fall: epoch 1 {first}, final {last}"
            ));
        }
        let bits: Vec<u64> = losses.iter().map(|l| l.to_bits()).collect();
        match &self.reference_losses {
            None => self.reference_losses = Some(bits),
            Some(reference) if *reference != bits => {
                violations.push("training losses differ between reps of one seed".to_string())
            }
            Some(_) => {}
        }
    }

    fn items_per_rep(&self) -> f64 {
        (S::SAMPLES * S::EPOCHS) as f64
    }

    /// The trainer's loop rebuilt from its public parts, each call in a
    /// span. Returns `(wall seconds, per-epoch losses, tape nodes per shard
    /// step, index words copied)`.
    fn replica(&self, rec: &Recorder, op: u64) -> (f64, Vec<f64>, usize, u64) {
        let tc = &self.train_config;
        let t = Instant::now();
        let mut tape_nodes = 0usize;
        let words_copied = AtomicU64::new(0);
        let losses = rec.scope("train.replica", None, op, |root| {
            let mut model = self.fresh_model();
            rec.leaf("core.fit_preprocessing", Some(root), op, || {
                model.fit_preprocessing(&self.dataset, tc.min_packets)
            });
            let plans: Vec<SamplePlan> = rec.leaf("core.plan_all", Some(root), op, || {
                let model = &model;
                self.dataset
                    .samples
                    .par_iter()
                    .map(|s| model.plan(s))
                    .collect()
            });
            let mut optimizer = Adam::new(tc.learning_rate);
            let mut rng = Prng::new(tc.seed);
            let mut order: Vec<usize> = (0..plans.len()).collect();
            rng.shuffle(&mut order);
            let batches: Vec<&[usize]> = order.chunks(tc.batch_size).collect();
            let mut composed: Vec<Option<Vec<ComposedMegabatch>>> =
                batches.iter().map(|_| None).collect();
            let tapes = TapePool::new();
            let mut losses = Vec::new();
            let mut step = 0u64;
            for epoch in 0..tc.epochs {
                let mut visit: Vec<usize> = (0..batches.len()).collect();
                if epoch > 0 {
                    rng.shuffle(&mut visit);
                }
                let (mut loss_sum, mut loss_count) = (0.0f64, 0usize);
                for &bi in &visit {
                    let labelled = batches[bi]
                        .iter()
                        .filter(|&&i| !plans[i].reliable_idx.is_empty())
                        .count();
                    if labelled == 0 {
                        continue;
                    }
                    step += 1;
                    rec.scope("train.step", Some(root), step, |span| {
                        let comps = composed[bi].get_or_insert_with(|| {
                            batches[bi]
                                .chunks(tc.megabatch_size)
                                .map(|shard| {
                                    let parts: Vec<&SamplePlan> =
                                        shard.iter().map(|&i| &plans[i]).collect();
                                    rec.leaf("core.compose", Some(span), step, || {
                                        ComposedMegabatch::compose(&parts)
                                            .expect("uniform-width non-empty shard")
                                    })
                                })
                                .collect()
                        });
                        let model_ref = &model;
                        let results: Vec<(f64, usize, Vec<Matrix>, usize)> = comps
                            .par_iter()
                            .filter_map(|c| {
                                let mut tape = tapes.acquire();
                                let before = tape.index_words_copied();
                                let out = shard_gradients(
                                    rec, span, step, model_ref, c, tc, labelled, &mut tape,
                                );
                                words_copied.fetch_add(
                                    tape.index_words_copied() - before,
                                    Ordering::Relaxed,
                                );
                                tapes.release(tape);
                                out
                            })
                            .collect();
                        let mut grads: Option<Vec<Matrix>> = None;
                        rec.leaf("train.reduce", Some(span), step, || {
                            for (sum_of_means, samples, shard_grads, nodes) in results {
                                loss_sum += sum_of_means;
                                loss_count += samples;
                                tape_nodes = tape_nodes.max(nodes);
                                match &mut grads {
                                    None => grads = Some(shard_grads),
                                    Some(acc) => {
                                        for (a, g) in acc.iter_mut().zip(&shard_grads) {
                                            a.add_assign(g);
                                        }
                                    }
                                }
                            }
                        });
                        let Some(mut grads) = grads else { return };
                        rec.leaf("nn.clip", Some(span), step, || {
                            clip_global_norm(&mut grads, tc.grad_clip)
                        });
                        rec.leaf("nn.adam", Some(span), step, || {
                            optimizer.step(&mut model.params_mut(), &grads)
                        });
                    });
                }
                losses.push(loss_sum / loss_count as f64);
            }
            losses
        });
        (
            t.elapsed().as_secs_f64(),
            losses,
            tape_nodes,
            words_copied.into_inner(),
        )
    }
}

/// One fused forward/backward over a composed shard, as the trainer runs
/// it: `(sum of per-sample mean losses, labelled samples, gradients, tape
/// nodes)`.
#[allow(clippy::too_many_arguments)]
fn shard_gradients<M: PathPredictor>(
    rec: &Recorder,
    parent: SpanId,
    step: u64,
    model: &M,
    composed: &ComposedMegabatch,
    tc: &TrainConfig,
    scale: usize,
    g: &mut Graph,
) -> Option<(f64, usize, Vec<Matrix>, usize)> {
    let mb = composed.megabatch();
    if mb.plan.reliable_idx.is_empty() {
        return None;
    }
    let bound = rec.leaf("autograd.bind", Some(parent), step, || {
        g.reset();
        model.bind(g)
    });
    let loss_node = rec.leaf("core.forward", Some(parent), step, || {
        let pred = model.forward(g, &bound, &mb.plan);
        let reliable = g.gather_rows_sharded(pred, mb.plan.reliable_idx_shared().into(), None);
        let target = g.constant(mb.plan.reliable_targets_norm());
        let weights = Matrix::column_vector(
            &mb.sample_mean_weights
                .iter()
                .map(|w| w / scale as f32)
                .collect::<Vec<f32>>(),
        );
        tc.loss.apply_weighted(g, reliable, target, &weights)
    });
    let sum_of_means = g.value(loss_node).get(0, 0) as f64 * scale as f64;
    let nodes = g.len();
    rec.leaf("autograd.backward", Some(parent), step, || {
        g.backward(loss_node)
    });
    let grads = rec.leaf("core.grads", Some(parent), step, || model.grads(g, &bound));
    Some((sum_of_means, mb.reliable_samples, grads, nodes))
}

impl<S: TrainSpec> Workload for Train<S> {
    fn setup(seed: u64, scratch: &Path) -> Self {
        let dataset = generate(
            &topologies::nsfnet_default(),
            &generator(SIM_DURATION_S, S::QOS),
            stream_seed(seed, Stream::Scenarios),
            S::SAMPLES,
        );
        let (state_dim, mp_iterations, readout_hidden) = S::DIMS;
        let mut workload = Self {
            seed,
            dataset,
            model_config: ModelConfig {
                state_dim,
                mp_iterations,
                readout_hidden,
                seed: stream_seed(seed, Stream::ModelInit),
                ..ModelConfig::default()
            },
            train_config: TrainConfig {
                epochs: S::EPOCHS,
                seed: stream_seed(seed, Stream::Schedule),
                ..TrainConfig::default()
            },
            scratch: scratch.to_path_buf(),
            reference_losses: None,
            spec: PhantomData,
        };
        // Warm-up: one epoch pays planning, the cold compose and the
        // allocator's first growth.
        let warm = TrainConfig {
            epochs: 1,
            ..workload.train_config.clone()
        };
        workload.train_once(&warm, &mut Vec::new());
        workload
    }

    fn rep(&mut self, violations: &mut Vec<String>) -> Rep {
        let config = self.train_config.clone();
        let wall = self.train_once(&config, violations);
        Rep {
            throughput: self.items_per_rep() / wall,
            latency_p50_ms: wall * 1e3,
            attempted: 1,
            failed: 0,
        }
    }

    fn trace(&mut self, seconds: f64, rec: &Recorder, layers: &mut Values) -> Traced {
        let mut traced = Traced::default();
        let config = self.train_config.clone();

        // The real entry point, tracing off then on: what RN_TRACE costs,
        // and the counters it exposes.
        let trace_file = self.scratch.join("train_stages.jsonl");
        let traced_config = TrainConfig {
            trace_out: Some(trace_file.to_string_lossy().into_owned()),
            ..config.clone()
        };
        let (mut untraced, mut with_trace, mut replicas) = (Vec::new(), Vec::new(), Vec::new());
        let (mut tape_nodes, mut words_copied) = (0, 0);
        for round in 0..2 {
            untraced.push(self.train_once(&config, &mut traced.violations));
            rn_trace::set_enabled(true);
            with_trace.push(self.train_once(&traced_config, &mut traced.violations));
            rn_trace::set_enabled(false);
            // The span-instrumented replica of the same run.
            let (wall, losses, nodes, words) = self.replica(rec, round);
            replicas.push(wall);
            (tape_nodes, words_copied) = (nodes, words);
            let reference = self.reference_losses.clone().unwrap_or_default();
            if losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>() != reference {
                println!("note: the replica's losses differ from train()'s: its rows describe another loop");
            }
        }
        traced.attempted += 6;
        let untraced_wall = median(&untraced);
        let replica_wall = median(&replicas);
        layers.set(
            "trace_overhead_pct",
            (median(&with_trace) / untraced_wall - 1.0) * 100.0,
        );
        match read_run_summary(&trace_file) {
            Ok(summary) => set_trainer_counters(layers, &summary),
            Err(e) => traced.violations.push(format!("trainer stage stream: {e}")),
        }
        layers.set("core.replica_ratio", untraced_wall / replica_wall);
        layers.set(
            "core.fit_preprocessing_ms",
            rec.mean_s("core.fit_preprocessing") * 1e3,
        );
        layers.set("core.compose_us", rec.mean_s("core.compose") * 1e6);
        layers.set("autograd.bind_us", rec.mean_s("autograd.bind") * 1e6);
        layers.set("core.forward_ms", rec.mean_s("core.forward") * 1e3);
        layers.set(
            "autograd.backward_ms",
            rec.mean_s("autograd.backward") * 1e3,
        );
        layers.set("core.grads_us", rec.mean_s("core.grads") * 1e6);
        layers.set("nn.clip_us", rec.mean_s("nn.clip") * 1e6);
        layers.set("nn.adam_us", rec.mean_s("nn.adam") * 1e6);
        layers.set("autograd.tape_nodes", tape_nodes as f64);
        layers.set("autograd.index_words_copied", words_copied as f64);

        // Probes at this workload's shapes, and of the layers set-up crossed.
        let budget = (seconds / 8.0).max(0.2);
        let mut model = self.fresh_model();
        model.fit_preprocessing(&self.dataset, config.min_packets);
        let plans: Vec<SamplePlan> = self.dataset.samples.iter().map(|s| model.plan(s)).collect();
        let parts: Vec<&SamplePlan> = plans.iter().take(config.megabatch_size).collect();
        let mut composed = ComposedMegabatch::compose(&parts).expect("uniform-width shard");
        let refill_s = super::median_call_s(budget / 2.0, || composed.refill_features(&parts));
        layers.set("core.refill_us", refill_s * 1e6);
        probe_kernels(layers, composed.plan().n_paths, S::DIMS.0, budget);
        probe_planning(layers, &model, &self.dataset.samples, budget);
        let singles: Vec<&SamplePlan> = plans.iter().collect();
        probe_direct_predict(layers, &model, &singles, budget / 2.0);
        let line = serde_json::to_string(&self.dataset.samples[0]).expect("infallible writer");
        traced.violations.extend(probe_inputs::<Sample>(
            rec,
            layers,
            &self.dataset.topology,
            &generator(SIM_DURATION_S, S::QOS),
            stream_seed(self.seed, Stream::Scenarios),
            &line,
            budget,
        ));
        traced
    }
}

fn read_run_summary(path: &Path) -> Result<RunSummary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("{}: empty", path.display()))?;
    serde_json::from_str(last).map_err(|e| format!("{}: {e}", path.display()))
}

/// Counters the trainer exposes under `RN_TRACE`: the share of stage time
/// spent claiming compositions, and the backward sweep by op kind.
fn set_trainer_counters(layers: &mut Values, summary: &RunSummary) {
    let stage_total: f64 = summary.stages.iter().map(|s| s.total_ms).sum();
    let compose_wait = summary
        .stages
        .iter()
        .find(|s| s.name == "compose_wait")
        .map_or(0.0, |s| s.total_ms);
    layers.set(
        "core.trainer_compose_wait_share",
        compose_wait / stage_total,
    );
    let bwd_total: f64 = summary.op_kinds.iter().map(|k| k.total_ms).sum();
    let share = |kinds: &[&str]| {
        summary
            .op_kinds
            .iter()
            .filter(|k| kinds.contains(&k.name.as_str()))
            .map(|k| k.total_ms)
            .sum::<f64>()
            / bwd_total
    };
    layers.set("autograd.bwd_gather_share", share(&["gather"]));
    layers.set("autograd.bwd_gru_share", share(&["gru"]));
    layers.set("autograd.bwd_segment_share", share(&["segment"]));
    layers.set("autograd.bwd_matmul_share", share(&["matmul"]));
    layers.set(
        "autograd.bwd_other_share",
        share(&["activation", "elementwise", "other"]),
    );
}
