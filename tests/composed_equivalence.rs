//! Golden bit-identity tests for the megabatch composition layer.
//!
//! The contract under test: a kept [`ComposedMegabatch`] whose features
//! were **refilled** for a new batch is bitwise identical to a fresh
//! `build_megabatch` over that batch — predictions AND gradients, and across
//! model hot-swaps (same structure, new preprocessing). Structure reuse must
//! be invisible to the numerics; only the planning cost may change. Beside
//! it, the two tape facts a replayed composition leans on: a reused tape
//! gives a fresh tape's bits, and in-place inference gives the copying
//! forward's.
//!
//! Nothing here takes a worker count: the trainer's `par_iter` follows the
//! CPUs the process may run on, so CI runs this suite unpinned and again
//! under `taskset -c 0`.

use rn_autograd::Graph;
use rn_dataset::{
    generate, generate_sparse_sample, Dataset, GeneratorConfig, QosGenConfig, Sample,
};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_nn::Layer;
use rn_tensor::Matrix;
use routenet::compose::ComposedMegabatch;
use routenet::entities::{build_megabatch, MegabatchPlan};
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig, QosRouteNet, SamplePlan};

/// The ordered per-part structure fingerprints: equal exactly when a
/// composition of one batch can be refilled with the other.
fn structure_fps(parts: &[&SamplePlan]) -> Vec<u64> {
    parts.iter().map(|p| p.structure_fingerprint()).collect()
}

fn gen_config(qos: bool) -> GeneratorConfig {
    GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        qos: qos.then(QosGenConfig::two_class_mix),
        ..GeneratorConfig::default()
    }
}

fn nsfnet_dataset(batch: usize, seed: u64) -> Dataset {
    generate(
        &topologies::nsfnet_default(),
        &gen_config(false),
        seed,
        batch,
    )
}

/// A batch whose parts differ in every entity count: sparse and full
/// traffic over NSFNET, the middle part with no reliable label; with `qos`
/// every part carries queues and the first one the fewest.
fn ragged_dataset(qos: bool) -> Dataset {
    let topology = topologies::nsfnet_default();
    let config = gen_config(qos);
    let mut unlabeled = generate_sparse_sample(&topology, &config, 40, 606, 1);
    for t in &mut unlabeled.targets {
        t.delivered = 0;
    }
    let samples = vec![
        generate_sparse_sample(&topology, &config, 6, 606, 0),
        unlabeled,
        generate(&topology, &config, 606, 1).samples.remove(0),
    ];
    Dataset { topology, samples }
}

fn model_config(weight_seed: u64) -> ModelConfig {
    ModelConfig {
        state_dim: 16,
        mp_iterations: 3,
        readout_hidden: 16,
        seed: weight_seed,
        ..ModelConfig::default()
    }
}

fn fitted_model(ds: &Dataset, weight_seed: u64) -> ExtendedRouteNet {
    let mut model = ExtendedRouteNet::new(model_config(weight_seed));
    model.fit_preprocessing(ds, 5);
    model
}

/// Feature-only mutation: routing, topology and queue layout untouched, so
/// the per-sample structure fingerprints must not move. One sample also
/// loses a reliable label, so the refill path has to rewrite reliability
/// and loss weights, not just the feature matrices.
fn perturb_features(samples: &[Sample]) -> Vec<Sample> {
    let mut out: Vec<Sample> = samples.to_vec();
    for (i, s) in out.iter_mut().enumerate() {
        for c in &mut s.link_capacities {
            *c *= 1.0 + 0.05 * (i as f64 + 1.0);
        }
        for t in &mut s.targets {
            t.mean_delay_s *= 1.25;
        }
    }
    // Knock one label out entirely: reliable_idx (a feature) must shrink.
    out[0].targets[0].delivered = 0;
    out[0].targets[0].mean_delay_s = 0.0;
    out
}

/// One fused forward + backward on the megabatch, on `g` as it is handed in
/// (fresh, or reset after earlier steps); returns the loss bits, every
/// parameter gradient and how many index words the tape has copied. The
/// loss gather reads the reliable rows through the plan's `Arc` view when
/// `shared_loss_rows`, through a copied slice otherwise.
fn megabatch_step_on<M: PathPredictor>(
    g: &mut Graph,
    model: &M,
    mb: &MegabatchPlan,
    shared_loss_rows: bool,
) -> (u32, Vec<Matrix>, u64) {
    let bound = model.bind(g);
    let pred = model.forward(g, &bound, &mb.plan);
    let reliable = if shared_loss_rows {
        g.gather_rows(pred, mb.plan.reliable_idx_shared())
    } else {
        g.gather_rows(pred, &mb.plan.reliable_idx)
    };
    let target = g.constant(mb.plan.reliable_targets_norm());
    let loss = g.mse(reliable, target);
    g.backward(loss);
    (
        g.value(loss).get(0, 0).to_bits(),
        model.grads(g, &bound),
        g.index_words_copied(),
    )
}

/// [`megabatch_step_on`] a fresh tape: the loss bits and the gradients.
fn megabatch_step<M: PathPredictor>(model: &M, mb: &MegabatchPlan) -> (u32, Vec<Matrix>) {
    let (loss, grads, _) = megabatch_step_on(&mut Graph::new(), model, mb, false);
    (loss, grads)
}

fn prediction_bits<M: PathPredictor>(model: &M, mb: &MegabatchPlan) -> Vec<Vec<u64>> {
    let mut g = Graph::new();
    model
        .predict_megabatch_with(&mut g, mb)
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

#[test]
fn cached_refill_is_bitwise_identical_to_fresh_build_across_shards() {
    let uniform = nsfnet_dataset(4, 20_260_729);
    refill_is_bitwise_identical_to_fresh_build(&fitted_model(&uniform, 11), &uniform.samples);

    // Ragged parts: every offset differs from part to part, one part adds
    // no reliable row, and in the QoS batch the queue offsets start small.
    for qos in [false, true] {
        let ragged = ragged_dataset(qos);
        let sizes: Vec<usize> = ragged.samples.iter().map(|s| s.num_paths()).collect();
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2], "{sizes:?}");
        if qos {
            let mut model = QosRouteNet::new(model_config(11));
            model.fit_preprocessing(&ragged, 5);
            let queues: Vec<usize> = ragged
                .samples
                .iter()
                .map(|s| model.plan(s).num_queues)
                .collect();
            assert!(0 < queues[0] && queues[1..].iter().all(|&q| q > queues[0]));
            refill_is_bitwise_identical_to_fresh_build(&model, &ragged.samples);
        } else {
            refill_is_bitwise_identical_to_fresh_build(&fitted_model(&ragged, 11), &ragged.samples);
        }
    }
}

fn refill_is_bitwise_identical_to_fresh_build<M: PathPredictor>(model: &M, samples_a: &[Sample]) {
    let plans_a: Vec<SamplePlan> = samples_a.iter().map(|s| model.plan(s)).collect();
    let samples_b = perturb_features(samples_a);
    let plans_b: Vec<SamplePlan> = samples_b.iter().map(|s| model.plan(s)).collect();
    let parts_a: Vec<&SamplePlan> = plans_a.iter().collect();
    let parts_b: Vec<&SamplePlan> = plans_b.iter().collect();
    assert_eq!(
        structure_fps(&parts_a),
        structure_fps(&parts_b),
        "feature perturbation must not move the structure fingerprints"
    );
    assert_ne!(
        plans_a[0].reliable_idx, plans_b[0].reliable_idx,
        "the perturbation must change reliability, or refill is under-tested"
    );

    // Compose once from batch A, then refill for batch B.
    let mut composed = ComposedMegabatch::compose(&parts_a).expect("compose");
    composed.refill_features(&parts_b);
    let fresh_b = build_megabatch(&parts_b);

    // Predictions: bitwise across the refill.
    assert_eq!(
        prediction_bits(model, composed.megabatch()),
        prediction_bits(model, &fresh_b),
        "refilled composition changed prediction bits"
    );

    // Gradients: bitwise across the refill.
    let (loss_fresh, grads_fresh) = megabatch_step(model, &fresh_b);
    let (loss_cached, grads_cached) = megabatch_step(model, composed.megabatch());
    assert_eq!(loss_fresh, loss_cached, "refill changed loss bits");
    assert_eq!(grads_fresh.len(), grads_cached.len());
    for (i, (a, b)) in grads_fresh.iter().zip(&grads_cached).enumerate() {
        assert!(a.approx_eq(b, 0.0), "refill changed gradient {i}");
    }

    // Round-trip: refilling back to batch A reproduces a fresh A bitwise.
    composed.refill_features(&parts_a);
    let fresh_a = build_megabatch(&parts_a);
    assert_eq!(
        prediction_bits(model, composed.megabatch()),
        prediction_bits(model, &fresh_a)
    );
}

#[test]
fn cached_refill_is_bitwise_identical_across_hot_swapped_models() {
    // A composition kept under model v1 survives a hot-swap (structure is
    // preprocessing-independent) and is refilled
    // with plans compiled under v2's preprocessing. Results must carry v2's
    // exact bits.
    let ds = nsfnet_dataset(3, 777);
    let other = nsfnet_dataset(6, 778);
    let model_v1 = fitted_model(&ds, 1);
    // Same width, different weights AND different preprocessing (fitted on
    // a different dataset), so v2 plans differ in every feature.
    let model_v2 = fitted_model(&other, 2);
    assert_eq!(model_v2.config().state_dim, model_v1.config().state_dim);

    let plans_v1: Vec<SamplePlan> = ds.samples.iter().map(|s| model_v1.plan(s)).collect();
    let plans_v2: Vec<SamplePlan> = ds.samples.iter().map(|s| model_v2.plan(s)).collect();
    let parts_v1: Vec<&SamplePlan> = plans_v1.iter().collect();
    let parts_v2: Vec<&SamplePlan> = plans_v2.iter().collect();
    assert_eq!(
        structure_fps(&parts_v1),
        structure_fps(&parts_v2),
        "preprocessing changes must not move the structure fingerprints"
    );

    let mut composed = ComposedMegabatch::compose(&parts_v1).expect("compose under v1");
    composed.refill_features(&parts_v2);
    let fresh_v2 = build_megabatch(&parts_v2);
    assert_eq!(
        prediction_bits(&model_v2, composed.megabatch()),
        prediction_bits(&model_v2, &fresh_v2),
        "post-swap refill changed prediction bits"
    );
    let (loss_fresh, grads_fresh) = megabatch_step(&model_v2, &fresh_v2);
    let (loss_cached, grads_cached) = megabatch_step(&model_v2, composed.megabatch());
    assert_eq!(loss_fresh, loss_cached);
    for (i, (a, b)) in grads_fresh.iter().zip(&grads_cached).enumerate() {
        assert!(a.approx_eq(b, 0.0), "post-swap gradient {i} diverged");
    }
}

#[test]
fn trainer_epochs_reuse_compositions_bitwise_across_shard_counts() {
    // End-to-end through the batch scheduler: multi-epoch training (epochs
    // >= 2 replay kept compositions; epoch visit order permutes; each step's
    // two compositions land on whichever worker and pooled tape is free)
    // must give the same bits every time it runs.
    use routenet::trainer::{train, TrainConfig};
    let ds = nsfnet_dataset(6, 775);
    let run = || {
        let mut model = fitted_model(&ds, 5);
        let config = TrainConfig {
            epochs: 3,
            batch_size: 4,
            megabatch_size: 2,
            ..TrainConfig::default()
        };
        let history = train(&mut model, &ds, Some(&ds), &config);
        (history.final_train_loss(), history.val_loss.clone(), model)
    };
    let (loss_a, val_a, model_a) = run();
    let (loss_b, val_b, model_b) = run();
    assert_eq!(loss_a, loss_b, "epoch losses must match exactly");
    assert_eq!(val_a, val_b, "validation losses must match exactly");
    let plan = model_a.plan(&ds.samples[0]);
    assert_eq!(
        model_a.predict(&plan),
        model_b.predict(&plan),
        "trained weights must be bitwise identical from run to run"
    );
}

#[test]
fn compose_is_a_pure_function_of_its_slice() {
    // The trainer composes each batch once and replays it for every later
    // epoch; that is only sound if `ComposedMegabatch::compose` depends on
    // nothing but the plans handed to it. Pin it: composing the same slice
    // a second time, independently, yields a plan bitwise identical to the
    // retained one — forward bits, reliability and targets.
    let ds = nsfnet_dataset(5, 777);
    let model = fitted_model(&ds, 7);
    let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let megabatch_size = 2;
    let retained: Vec<MegabatchPlan> = plans
        .chunks(megabatch_size)
        .map(|shard| {
            let parts: Vec<&SamplePlan> = shard.iter().collect();
            ComposedMegabatch::compose(&parts).unwrap().into_plan()
        })
        .collect();
    for (si, shard) in plans.chunks(megabatch_size).enumerate() {
        let parts: Vec<&SamplePlan> = shard.iter().collect();
        let again = ComposedMegabatch::compose(&parts).unwrap();
        assert_eq!(
            prediction_bits(&model, &retained[si]),
            prediction_bits(&model, again.megabatch()),
            "slice {si}: a second composition changed prediction bits"
        );
        assert_eq!(
            again.plan().reliable_idx,
            retained[si].plan.reliable_idx,
            "slice {si}: reliability diverged"
        );
        assert!(again
            .plan()
            .targets_norm
            .approx_eq(&retained[si].plan.targets_norm, 0.0));
    }
}

#[test]
fn zero_copy_steps_are_bitwise_identical_and_copy_no_index_words() {
    // The model hands the tape Arc-backed views of the composition's index
    // buffers. Two contracts: (1) a full training step against a cached
    // composition copies ZERO index words — every gather/scatter list is a
    // refcount bump — and (2) a list recorded as a view gives the bits of
    // the same list recorded as a copy.
    let ds = nsfnet_dataset(4, 20_260_809);
    let model = fitted_model(&ds, 13);
    let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let composed = ComposedMegabatch::compose(&parts).expect("compose");
    let mb = composed.megabatch();

    let (loss_shared, grads_shared, copied_shared) =
        megabatch_step_on(&mut Graph::new(), &model, mb, true);
    assert_eq!(copied_shared, 0, "the step copied index words");
    let (loss_copied, grads_copied, copied) =
        megabatch_step_on(&mut Graph::new(), &model, mb, false);
    assert_eq!(
        copied,
        mb.plan.reliable_idx.len() as u64,
        "only the loss gather's slice is copied"
    );
    assert_eq!(loss_shared, loss_copied, "a shared view changed loss bits");
    assert_eq!(grads_shared.len(), grads_copied.len());
    for (i, (a, b)) in grads_shared.iter().zip(&grads_copied).enumerate() {
        assert!(a.approx_eq(b, 0.0), "a shared view changed gradient {i}");
    }
}

#[test]
fn megabatch_backward_is_reuse_stable_on_a_pooled_tape() {
    // A reused tape (pooled buffers, GRU scratch recycled) must reproduce
    // the fresh tape's gradients bit for bit.
    let ds = nsfnet_dataset(4, 20_260_729);
    let model = fitted_model(&ds, 11);
    let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let mb = build_megabatch(&parts);
    let (loss_fresh, grads_fresh) = megabatch_step(&model, &mb);

    let mut g = Graph::new();
    for round in 0..3 {
        g.reset();
        let (loss, grads, _) = megabatch_step_on(&mut g, &model, &mb, false);
        assert_eq!(loss_fresh, loss, "round {round} loss diverged");
        for (i, (a, b)) in grads_fresh.iter().zip(&grads).enumerate() {
            assert!(a.approx_eq(b, 0.0), "round {round} grad {i} diverged");
        }
    }
}

#[test]
fn inplace_inference_is_bitwise_identical_to_copying_forward() {
    let ds = nsfnet_dataset(4, 20_260_729);
    let model = fitted_model(&ds, 11);
    let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let mb = build_megabatch(&parts);
    let (_, normalizer) = model.preprocessing();

    // Copying (training-mode) forward: states are copied each step.
    let copying: Vec<f64> = {
        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        let pred = model.forward(&mut g, &bound, &mb.plan);
        g.value(pred)
            .as_slice()
            .iter()
            .map(|&v| normalizer.denormalize(v as f64))
            .collect()
    };

    // In-place (inference-mode) forward: states and accumulators are
    // advanced in the input buffers — megabatched and per-sample.
    let batched = model.predict_batch(&plans);
    let flat: Vec<f64> = batched.iter().flatten().copied().collect();
    assert_eq!(copying, flat, "in-place megabatch inference changed bits");

    // Per-sample in-place inference: a reused (pooled) tape must reproduce
    // a fresh tape bit for bit, and stay within float round-off of the
    // megabatched answer.
    let mut tape = Graph::new();
    for (b, plan) in plans.iter().enumerate() {
        let single = model.predict_with(&mut tape, plan);
        assert_eq!(single, model.predict(plan), "sample {b}: tape-reuse drift");
        for (x, y) in batched[b].iter().zip(&single) {
            let rel = (x - y).abs() / y.abs().max(1e-12);
            assert!(rel < 1e-5, "sample {b}: batched {x} vs single {y}");
        }
    }
}
