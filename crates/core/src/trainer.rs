//! Minibatch training with data-parallel gradients.
//!
//! Each training step picks a minibatch of sample graphs and packs it into
//! block-diagonal **megabatches** ([`crate::entities::build_megabatch`]):
//! each worker runs ONE fused forward/backward over several samples at once
//! — one parameter `bind()` amortized over the pack, `B`-fold taller
//! (cache-friendlier) matmuls, and an order of magnitude fewer tape nodes.
//! Workers draw reusable tapes from a [`TapePool`]: every matrix of a step's
//! bind, forward and backward comes from the tape's bounded buffer pool, so
//! after the first visit of each batch shape a step allocates only the
//! gradients it returns and per-op bookkeeping (the `tape_pool_bytes` /
//! `tape_pool_misses` gauges of the `{"summary":true}` trace line say how
//! much the tapes hold and how often they had to allocate).
//!
//! ## One schedule
//!
//! Megabatch **membership is fixed once** from the seeded shuffle; later
//! epochs only permute the order batches are visited in. Every batch's
//! composed structure ([`crate::compose::ComposedMegabatch`]) is built
//! exactly once — inline on the batch's first visit, under the
//! `compose_wait` span — kept, and replayed: epochs ≥ 2 do **zero**
//! structure work per step and bind straight against the kept compositions.
//! Validation chunks are composed once up front and reused every epoch.
//! This is the only schedule; `docs/ARCHITECTURE.md` ("Why there is no
//! streaming composition") has the measurements behind that.
//!
//! The loss of a megabatch is weighted per row so its gradient equals the
//! mean of per-sample mean losses — what training each sample on its own
//! tape and averaging would give.

use crate::compose::ComposedMegabatch;
use crate::entities::{MegabatchPlan, SamplePlan};
use crate::model::PathPredictor;
use crate::train_trace::{self, TrainTrace};
use rayon::prelude::*;
use rn_autograd::{Graph, TapePool, Var};
use rn_dataset::Dataset;
use rn_nn::loss::Loss;
use rn_nn::{clip_global_norm, Adam, Optimizer};
use rn_tensor::{Matrix, Prng};
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Sample graphs per optimizer step.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Global gradient-norm clip.
    pub grad_clip: f32,
    /// Regression loss.
    pub loss: Loss,
    /// Minimum delivered packets for a path label to be trained on.
    pub min_packets: u64,
    /// Seed of the one shuffle that fixes batch membership and of the
    /// per-epoch visit-order permutations.
    pub seed: u64,
    /// Stop early when validation loss fails to improve for this many epochs
    /// (`None` disables; requires a validation set).
    pub patience: Option<usize>,
    /// Halve the learning rate at the start of these (0-based) epochs — a
    /// simple step schedule that stabilizes the late phase of training.
    pub lr_halve_epochs: Vec<usize>,
    /// Print one progress line per epoch to stderr.
    pub verbose: bool,
    /// Samples per composition; a batch is split into
    /// `ceil(batch_size / megabatch_size)` compositions, each one fused
    /// forward/backward on a tape of its own, spread over the rayon workers.
    /// Fixed boundaries and a merge in composition order keep training
    /// seed-deterministic regardless of worker count.
    pub megabatch_size: usize,
    /// Where the per-epoch stage-breakdown JSONL stream goes when tracing
    /// is on (`RN_TRACE=1`); see [`crate::train_trace`]. `None` sends the
    /// stream to `train_metrics.jsonl`. Ignored (nothing is written) while
    /// tracing is off, so this field is wire-optional for configs saved
    /// before it existed.
    pub trace_out: Option<String>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 20,
            batch_size: 8,
            learning_rate: 1e-3,
            grad_clip: 5.0,
            loss: Loss::Mse,
            min_packets: 10,
            seed: 0,
            patience: None,
            lr_halve_epochs: Vec::new(),
            verbose: false,
            megabatch_size: 4,
            trace_out: None,
        }
    }
}

/// Per-epoch loss record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingHistory {
    /// Mean training loss per epoch (normalized-target space).
    pub train_loss: Vec<f64>,
    /// Mean validation loss per epoch (empty without a validation set).
    pub val_loss: Vec<f64>,
    /// Epoch index training stopped at (== `epochs` unless early-stopped).
    pub stopped_at: usize,
}

impl TrainingHistory {
    /// Final training loss.
    pub fn final_train_loss(&self) -> f64 {
        *self.train_loss.last().expect("at least one epoch")
    }

    /// Best validation loss, if validation ran.
    pub fn best_val_loss(&self) -> Option<f64> {
        self.val_loss
            .iter()
            .copied()
            .fold(None, |best, v| match best {
                None => Some(v),
                Some(b) => Some(b.min(v)),
            })
    }
}

/// Gather the reliable prediction rows for the loss through an `Arc`-backed
/// view of `reliable_idx`, so the tape copies no index word.
fn gather_reliable(g: &mut Graph, pred: Var, plan: &SamplePlan) -> Var {
    g.gather_rows(pred, plan.reliable_idx_shared())
}

/// The reliable rows' normalized targets as a constant column in a pooled
/// buffer — `plan.reliable_targets_norm()`'s values without its allocation.
fn bind_reliable_targets(g: &mut Graph, plan: &SamplePlan) -> Var {
    g.constant_with(plan.reliable_idx.len(), 1, |m| {
        for (dst, &row) in m.as_mut_slice().iter_mut().zip(&plan.reliable_idx) {
            *dst = plan.targets_norm.get(row, 0);
        }
    })
}

/// Bind → forward → gather the reliable rows → row-weighted loss of one
/// **pre-composed** megabatch on a reset tape; the body training and
/// validation share.
///
/// The loss node evaluates to `sum_s mean_loss_s / scale`. Returns the
/// bound parameters, that node and `sum_s mean_loss_s`. Dividing the row
/// weights by `scale = 1` and multiplying the value back are both exact,
/// which is how validation asks for the plain sum of per-sample means.
fn megabatch_forward<M: PathPredictor>(
    model: &M,
    mb: &MegabatchPlan,
    loss: Loss,
    scale: usize,
    g: &mut Graph,
) -> (M::Bound, Var, f64) {
    g.reset();
    let bound = model.bind(g);
    let pred = model.forward(g, &bound, &mb.plan);
    let reliable = gather_reliable(g, pred, &mb.plan);
    let target = bind_reliable_targets(g, &mb.plan);
    let weights = Matrix::column_vector(
        &mb.sample_mean_weights
            .iter()
            .map(|w| w / scale as f32)
            .collect::<Vec<f32>>(),
    );
    let loss_node = loss.apply_weighted(g, reliable, target, &weights);
    let sum_of_means = g.value(loss_node).get(0, 0) as f64 * scale as f64;
    (bound, loss_node, sum_of_means)
}

/// One fused forward/backward over a composition.
///
/// Returns `(sum_of_per_sample_mean_losses, samples_with_labels, grads)`;
/// the gradients are of `sum_s mean_loss_s / scale`, so with
/// `scale = reliable samples in the whole batch` the compositions' gradients
/// of one batch simply add up to the batch-mean gradient.
fn megabatch_gradients<M: PathPredictor>(
    model: &M,
    mb: &MegabatchPlan,
    loss: Loss,
    scale: usize,
    g: &mut Graph,
    stages: &rn_trace::StageRecorder,
) -> (f64, usize, Vec<Matrix>) {
    let fwd = stages.span(train_trace::FORWARD);
    let (bound, loss_node, sum_of_means) = megabatch_forward(model, mb, loss, scale, g);
    fwd.finish();
    let bwd = stages.span(train_trace::BACKWARD);
    g.backward(loss_node);
    bwd.finish();
    (sum_of_means, mb.reliable_samples, model.grads(g, &bound))
}

/// Run `f` on every composition that has a reliable label, each on a tape
/// checked out of `tapes`, and return the results in composition order.
///
/// This is the trainer's one axis of parallelism: whole compositions are
/// independent, so they spread over the rayon workers, each tape runs on its
/// worker's thread alone, and the results come back in input order — which
/// is why the worker count cannot change a bit of what is folded from them.
fn map_labelled_on_tapes<T: Send>(
    tapes: &TapePool,
    comps: &[ComposedMegabatch],
    f: impl Fn(&MegabatchPlan, &mut Graph) -> T + Sync,
) -> Vec<T> {
    comps
        .par_iter()
        .filter_map(|c| {
            let mb = c.megabatch();
            if mb.plan.reliable_idx.is_empty() {
                return None;
            }
            let mut tape = tapes.acquire();
            let out = f(mb, &mut tape);
            tapes.release(tape);
            Some(out)
        })
        .collect()
}

/// Train `model` on `train_set`, optionally tracking `val_set`.
///
/// Fits preprocessing (feature scales, target normalizer) on the training set
/// first, then precomputes every sample's message-passing plan once and
/// reuses it across epochs.
pub fn train<M: PathPredictor>(
    model: &mut M,
    train_set: &Dataset,
    val_set: Option<&Dataset>,
    config: &TrainConfig,
) -> TrainingHistory {
    assert!(!train_set.is_empty(), "train: empty training set");
    model.fit_preprocessing(train_set, config.min_packets);
    let immutable: &M = model;
    let plans: Vec<SamplePlan> = train_set
        .samples
        .par_iter()
        .map(|s| immutable.plan(s))
        .collect();
    let val_plans: Vec<SamplePlan> = val_set
        .map(|ds| ds.samples.par_iter().map(|s| immutable.plan(s)).collect())
        .unwrap_or_default();
    train_on_plans_with_val(model, &plans, &val_plans, config)
}

/// Train on prebuilt plans, no validation. Preprocessing (scales and
/// normalizer) must already be set on the model — this is the entry point
/// for non-default targets such as jitter.
pub fn train_on_plans<M: PathPredictor>(
    model: &mut M,
    plans: &[SamplePlan],
    config: &TrainConfig,
) -> TrainingHistory {
    train_on_plans_with_val(model, plans, &[], config)
}

/// Train on prebuilt plans with an optional prebuilt validation set.
pub fn train_on_plans_with_val<M: PathPredictor>(
    model: &mut M,
    plans: &[SamplePlan],
    val_plans: &[SamplePlan],
    config: &TrainConfig,
) -> TrainingHistory {
    assert!(!plans.is_empty(), "train: empty training set");
    assert!(
        config.epochs > 0 && config.batch_size > 0,
        "train: degenerate config"
    );

    assert!(
        config.megabatch_size > 0,
        "train: megabatch_size must be positive"
    );

    // Stage-level tracing (RN_TRACE=1): every span below is inert — one
    // relaxed atomic load, no clock read — while tracing is off, and
    // recording never perturbs the math (bitwise-identical models either
    // way; see crate::train_trace).
    let trace = TrainTrace::new(config);
    let stages = trace.recorder();
    let mut optimizer = Adam::new(config.learning_rate);
    let mut rng = Prng::new(config.seed);
    let mut history = TrainingHistory {
        train_loss: Vec::new(),
        val_loss: Vec::new(),
        stopped_at: 0,
    };
    let mut best_val = f64::INFINITY;
    let mut bad_epochs = 0usize;
    // Best-validation weight snapshot (patience mode only). Early stopping
    // fires `patience` epochs *after* the best epoch by construction — the
    // trigger is that many non-improving epochs — so without a snapshot the
    // returned model carries the last (worse) epoch's weights. Snapshot at
    // every improvement, restore before returning; when the final epoch is
    // itself the best, the restore rewrites identical values.
    let mut best_weights: Option<Vec<Matrix>> = None;
    // Reusable tapes shared by whichever workers process compositions;
    // buffers survive across batches and epochs.
    let tape_pool = TapePool::new();

    // ---- The schedule -----------------------------------------------------
    // Megabatch membership is fixed ONCE from the seeded shuffle; epochs
    // >= 2 only permute the order batches are visited in. Fixed membership
    // is what makes structure reuse total: each batch's composed megabatch
    // (structure + features, both static across epochs here) is built once
    // and replayed verbatim, so the steady-state loop runs zero per-step
    // `build_megabatch` work.
    let mut order: Vec<usize> = (0..plans.len()).collect();
    rng.shuffle(&mut order);
    let batches: Vec<&[usize]> = order.chunks(config.batch_size).collect();
    // Samples with labels per batch — the fixed gradient scale.
    let batch_labelled: Vec<usize> = batches
        .iter()
        .map(|batch| {
            batch
                .iter()
                .filter(|&&i| !plans[i].reliable_idx.is_empty())
                .count()
        })
        .collect();
    let compose = |parts: &[&SamplePlan]| -> ComposedMegabatch {
        ComposedMegabatch::compose(parts).expect("train: uniform-width non-empty composition")
    };
    // The composed megabatches of each batch, built on the batch's first
    // visit and kept for every later epoch.
    let mut composed: Vec<Option<Vec<ComposedMegabatch>>> = batches.iter().map(|_| None).collect();
    // Validation chunks are composed once up front and reused every epoch.
    let val_composed: Vec<ComposedMegabatch> = val_plans
        .chunks(config.megabatch_size)
        .map(|chunk| compose(&chunk.iter().collect::<Vec<_>>()))
        .collect();

    for epoch in 0..config.epochs {
        if config.lr_halve_epochs.contains(&epoch) {
            let lr = optimizer.learning_rate() * 0.5;
            optimizer.set_learning_rate(lr);
            if config.verbose {
                eprintln!(
                    "[{}] epoch {:>3}: learning rate halved to {lr:.2e}",
                    model.name(),
                    epoch + 1
                );
            }
        }

        let mut epoch_loss_sum = 0.0;
        let mut epoch_loss_count = 0usize;
        // Visit order: the first epoch follows membership order (the seeded
        // shuffle above); later epochs permute which batch is visited when.
        let mut visit: Vec<usize> = (0..batches.len()).collect();
        if epoch > 0 {
            rng.shuffle(&mut visit);
        }
        for &bi in &visit {
            let labelled = batch_labelled[bi];
            if labelled == 0 {
                continue;
            }
            // The compose_wait span is this batch's whole structure cost:
            // one inline compose on the first visit, a lookup afterwards.
            let comps: &[ComposedMegabatch] = {
                let _compose_span = stages.span(train_trace::COMPOSE_WAIT);
                composed[bi].get_or_insert_with(|| {
                    batches[bi]
                        .chunks(config.megabatch_size)
                        .map(|chunk| compose(&chunk.iter().map(|&i| &plans[i]).collect::<Vec<_>>()))
                        .collect()
                })
            };
            let snapshot: &M = model;
            let results = map_labelled_on_tapes(&tape_pool, comps, |mb, tape| {
                megabatch_gradients(snapshot, mb, config.loss, labelled, tape, stages)
            });
            let mut loss_sum = 0.0;
            let mut count = 0usize;
            let mut grads: Option<Vec<Matrix>> = None;
            for (sum_of_means, samples, comp_grads) in results {
                loss_sum += sum_of_means;
                count += samples;
                match &mut grads {
                    None => grads = Some(comp_grads),
                    Some(acc) => {
                        for (a, g) in acc.iter_mut().zip(&comp_grads) {
                            a.add_assign(g);
                        }
                    }
                }
            }
            // Each composition's gradients are already scaled by 1/labelled;
            // their sum is the batch-mean gradient.
            let Some(mut grads) = grads else { continue };
            epoch_loss_sum += loss_sum;
            epoch_loss_count += count;
            let _opt_span = stages.span(train_trace::OPTIMIZER);
            clip_global_norm(&mut grads, config.grad_clip);
            optimizer.step(&mut model.params_mut(), &grads);
        }
        let train_loss = if epoch_loss_count > 0 {
            epoch_loss_sum / epoch_loss_count as f64
        } else {
            f64::NAN
        };
        history.train_loss.push(train_loss);
        history.stopped_at = epoch + 1;

        let mut val_msg = String::new();
        let mut early_stop = false;
        if !val_plans.is_empty() {
            let _eval_span = stages.span(train_trace::EVAL);
            let snapshot: &M = model;
            // No backward follows, so the tape records nothing for one:
            // inference mode gives the same forward bits.
            let (sum, count) = map_labelled_on_tapes(&tape_pool, &val_composed, |mb, tape| {
                tape.set_inference_mode(true);
                let (_, _, sum_of_means) = megabatch_forward(snapshot, mb, config.loss, 1, tape);
                tape.set_inference_mode(false);
                (sum_of_means, mb.reliable_samples)
            })
            .into_iter()
            .fold((0.0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
            let val = if count > 0 {
                sum / count as f64
            } else {
                f64::NAN
            };
            history.val_loss.push(val);
            val_msg = format!(", val {val:.5}");

            if let Some(patience) = config.patience {
                if val < best_val - 1e-9 {
                    best_val = val;
                    bad_epochs = 0;
                    best_weights = Some(model.params().into_iter().cloned().collect());
                } else {
                    bad_epochs += 1;
                    if bad_epochs > patience {
                        if config.verbose {
                            eprintln!(
                                "[{}] early stop at epoch {} (no val improvement for {} epochs)",
                                model.name(),
                                epoch + 1,
                                patience
                            );
                        }
                        // Deferred so the epoch still emits its trace line.
                        early_stop = true;
                    }
                }
            }
        }
        if config.verbose {
            eprintln!(
                "[{}] epoch {:>3}: train {train_loss:.5}{val_msg}",
                model.name(),
                epoch + 1
            );
        }
        trace.emit_epoch(epoch, train_loss, history.val_loss.last().copied());
        if early_stop {
            break;
        }
    }
    // Patience tracking snapshotted the best-validation weights — hand
    // those back, not wherever the last epoch happened to land
    // (`tests: early_stopping_returns_best_validation_weights`).
    if let Some(best) = best_weights {
        for (param, saved) in model.params_mut().into_iter().zip(&best) {
            *param = saved.clone();
        }
    }
    trace.finish(&tape_pool);
    history
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::{ExtendedRouteNet, OriginalRouteNet};
    use rn_dataset::{generate, GeneratorConfig};
    use rn_netgraph::topologies;
    use rn_netsim::SimConfig;

    fn toy_dataset(n: usize, seed: u64) -> Dataset {
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 120.0,
                warmup_s: 20.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        };
        generate(&topologies::toy5(), &config, seed, n)
    }

    fn quick_train_config(epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            batch_size: 4,
            learning_rate: 2e-3,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn training_reduces_loss_extended() {
        let ds = toy_dataset(8, 51);
        let mut model = ExtendedRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 2,
            readout_hidden: 8,
            ..ModelConfig::default()
        });
        let history = train(&mut model, &ds, None, &quick_train_config(8));
        let first = history.train_loss[0];
        let last = history.final_train_loss();
        assert!(last < first, "loss did not drop: {first} -> {last}");
        assert_eq!(history.stopped_at, 8);
    }

    #[test]
    fn training_reduces_loss_original() {
        let ds = toy_dataset(8, 52);
        let mut model = OriginalRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 2,
            readout_hidden: 8,
            ..ModelConfig::default()
        });
        let history = train(&mut model, &ds, None, &quick_train_config(8));
        assert!(history.final_train_loss() < history.train_loss[0]);
    }

    #[test]
    fn validation_is_tracked_and_early_stopping_fires() {
        let train_ds = toy_dataset(6, 53);
        let val_ds = toy_dataset(3, 54);
        let mut model = ExtendedRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 1,
            readout_hidden: 8,
            ..ModelConfig::default()
        });
        let mut config = quick_train_config(50);
        config.patience = Some(2);
        let history = train(&mut model, &train_ds, Some(&val_ds), &config);
        assert_eq!(history.val_loss.len(), history.train_loss.len());
        assert!(history.stopped_at <= 50);
        assert!(history.best_val_loss().is_some());
    }

    #[test]
    fn early_stopping_returns_best_validation_weights() {
        // Early stopping fires `patience` epochs after the best epoch, so
        // the returned model must carry the best epoch's snapshot, not the
        // last epoch's weights. Pin it by retraining to exactly the best
        // epoch: the seeded schedule is a prefix-deterministic function of
        // the config, so a run truncated at the best epoch reproduces the
        // snapshot bit for bit.
        let train_ds = toy_dataset(6, 53);
        let val_ds = toy_dataset(3, 54);
        let make_model = || {
            ExtendedRouteNet::new(ModelConfig {
                state_dim: 8,
                mp_iterations: 1,
                readout_hidden: 8,
                ..ModelConfig::default()
            })
        };
        let run = |epochs: usize, patience: Option<usize>| {
            let mut model = make_model();
            let config = TrainConfig {
                patience,
                // Deliberately hot: validation must regress so the best
                // epoch lands strictly before the stop.
                learning_rate: 3e-2,
                ..quick_train_config(60)
            };
            let config = TrainConfig { epochs, ..config };
            let history = train(&mut model, &train_ds, Some(&val_ds), &config);
            (history, model)
        };
        let (history, stopped) = run(60, Some(1));
        assert!(history.stopped_at < 60, "early stop must fire");
        let best = history.best_val_loss().expect("validated");
        let best_epoch = history
            .val_loss
            .iter()
            .position(|&v| v == best)
            .expect("best epoch recorded");
        assert!(
            best_epoch + 1 < history.stopped_at,
            "stop fires after the best epoch (patience non-improving epochs later)"
        );

        // Truncated run: same schedule prefix, ends exactly at the best
        // epoch — its final weights ARE the snapshot.
        let (trunc_history, best_model) = run(best_epoch + 1, None);
        assert_eq!(
            trunc_history.val_loss.last().copied(),
            Some(best),
            "truncated run reproduces the best validation loss"
        );
        let plan = stopped.plan(&train_ds.samples[0]);
        assert_eq!(
            stopped.predict(&plan),
            best_model.predict(&plan),
            "early-stopped model must return the best-epoch weights"
        );
    }

    #[test]
    fn training_is_seed_deterministic() {
        let ds = toy_dataset(4, 55);
        let make = || {
            let mut model = ExtendedRouteNet::new(ModelConfig {
                state_dim: 8,
                mp_iterations: 1,
                readout_hidden: 8,
                seed: 3,
                ..ModelConfig::default()
            });
            let h = train(&mut model, &ds, None, &quick_train_config(3));
            (h.final_train_loss(), model)
        };
        let (loss_a, model_a) = make();
        let (loss_b, model_b) = make();
        assert_eq!(loss_a, loss_b);
        let plan = model_a.plan(&ds.samples[0]);
        assert_eq!(model_a.predict(&plan), model_b.predict(&plan));
    }

    #[test]
    fn megabatch_sharding_is_deterministic() {
        let ds = toy_dataset(6, 58);
        let make = |megabatch_size: usize| {
            let mut model = ExtendedRouteNet::new(ModelConfig {
                state_dim: 8,
                mp_iterations: 1,
                readout_hidden: 8,
                seed: 4,
                ..ModelConfig::default()
            });
            let mut config = quick_train_config(2);
            config.megabatch_size = megabatch_size;
            train(&mut model, &ds, None, &config);
            model
        };
        // Same composition size twice -> bitwise identical models.
        let a = make(3);
        let b = make(3);
        let plan = a.plan(&ds.samples[0]);
        assert_eq!(a.predict(&plan), b.predict(&plan));
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_is_rejected() {
        let ds = Dataset {
            topology: topologies::toy5(),
            samples: vec![],
        };
        let mut model = OriginalRouteNet::new(ModelConfig::default());
        train(&mut model, &ds, None, &TrainConfig::default());
    }
}
