//! Golden bit-identity tests for the sharded megabatch engine.
//!
//! The block-diagonal megabatch backward partitions its work into per-sample
//! shards; `Graph::set_worker_pool` fans those shards out to a persistent
//! worker gang. The contract under test: **gradients and forward values are
//! bitwise identical** whether the shards run inline (the sequential path)
//! or on 1, 2, 4 or 8 workers — the parallel backward reduces parameter
//! gradients in a fixed per-shard order, so scheduling cannot perturb a
//! single bit. The in-place inference path (GRU states and accumulators
//! updated in the input buffer instead of copied) is pinned the same way.
//!
//! CI runs this suite in release mode with `--test-threads 4` so the
//! determinism claims are exercised under real optimized concurrency; the
//! `RN_BACKWARD_SHARDS` env var injects an extra worker count.

use rn_autograd::{Graph, WorkerPool};
use rn_dataset::{generate, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_nn::Layer;
use rn_tensor::Matrix;
use routenet::compose::ComposedMegabatch;
use routenet::entities::{build_megabatch, MegabatchPlan};
use routenet::model::PathPredictor;
use routenet::trainer::{train, TrainConfig};
use routenet::{EntityKind, ExtendedRouteNet, ModelConfig, SamplePlan};
use std::sync::Arc;

/// Fixed-seed NSFNET scenario batch — the same topology family the paper
/// (and the training bench) uses.
fn nsfnet_setup(batch: usize) -> (ExtendedRouteNet, Vec<SamplePlan>) {
    let gen_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    let ds = generate(
        &topologies::nsfnet_default(),
        &gen_config,
        20_260_729,
        batch,
    );
    let mut model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 16,
        mp_iterations: 3,
        readout_hidden: 16,
        seed: 11,
        ..ModelConfig::default()
    });
    model.fit_preprocessing(&ds, 5);
    let plans = ds.samples.iter().map(|s| model.plan(s)).collect();
    (model, plans)
}

/// One fused forward + backward over the megabatch on a tape with the given
/// worker pool; returns the loss bits and every parameter gradient.
fn megabatch_step(
    model: &ExtendedRouteNet,
    mb: &MegabatchPlan,
    pool: Option<Arc<WorkerPool>>,
) -> (f32, Vec<Matrix>) {
    let mut g = Graph::new();
    g.set_worker_pool(pool);
    let bound = model.bind(&mut g);
    let pred = model.forward(&mut g, &bound, &mb.plan);
    let reliable = g.gather_rows(pred, &mb.plan.reliable_idx);
    let target = g.constant(mb.plan.reliable_targets_norm());
    let loss = g.mse(reliable, target);
    g.backward(loss);
    (g.value(loss).get(0, 0), model.grads(&g, &bound))
}

/// Worker counts under test: the golden 1/2/4/8 ladder plus whatever the CI
/// job injects via `RN_BACKWARD_SHARDS` (read through the one centralized
/// helper so this suite, the trainer and the benches cannot drift).
fn worker_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 4, 8];
    if let Some(extra) = TrainConfig::env_backward_shards() {
        if !counts.contains(&extra) {
            counts.push(extra);
        }
    }
    counts
}

#[test]
fn sharded_backward_is_bitwise_identical_to_sequential() {
    let (model, plans) = nsfnet_setup(6);
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let mb = build_megabatch(&parts);
    assert!(mb.plan.shards.is_some(), "6-sample megabatch must shard");

    // The sequential path: sharded canonical backward, no pool.
    let (loss_seq, grads_seq) = megabatch_step(&model, &mb, None);
    assert!(loss_seq.is_finite());
    assert!(!grads_seq.is_empty());

    for workers in worker_counts() {
        let pool = Arc::new(WorkerPool::new(workers));
        let (loss_par, grads_par) = megabatch_step(&model, &mb, Some(pool));
        assert_eq!(
            loss_seq.to_bits(),
            loss_par.to_bits(),
            "loss diverged at {workers} workers"
        );
        assert_eq!(grads_seq.len(), grads_par.len());
        for (i, (a, b)) in grads_seq.iter().zip(&grads_par).enumerate() {
            assert!(
                a.approx_eq(b, 0.0),
                "parameter gradient {i} diverged at {workers} workers"
            );
        }
    }
}

/// Strip the dense row partitions from a megabatch plan, leaving only the
/// per-sample message-passing shards — the PR-3-era layout where the dense
/// link/node GRU updates and the readout MLP run sequentially.
fn strip_dense_shards(mb: &mut MegabatchPlan) {
    let shards = mb.plan.shards.as_mut().expect("sharded plan");
    shards.dense_path_bounds = Arc::default();
    shards.dense_link_bounds = Arc::default();
    shards.dense_node_bounds = Arc::default();
}

#[test]
fn dense_sharded_backward_is_bitwise_identical_across_worker_counts() {
    // The fully-parallel backward: per-sample shards for the message
    // passing PLUS balanced dense row blocks for the link/node GRU updates
    // and the readout MLP. The dense partitions must actually be engaged,
    // and the gradients must stay bitwise identical to the sequential
    // canonical path at every worker count.
    let (model, plans) = nsfnet_setup(6);
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let mb = build_megabatch(&parts);
    let shards = mb.plan.shards.as_ref().expect("sharded plan");
    assert!(
        shards.dense_path().is_some()
            && shards.dense_entity(EntityKind::Link).is_some()
            && shards.dense_entity(EntityKind::Node).is_some(),
        "megabatch plans must precompile dense row partitions"
    );

    let (loss_seq, grads_seq) = megabatch_step(&model, &mb, None);
    for workers in worker_counts() {
        let pool = Arc::new(WorkerPool::new(workers));
        let (loss_par, grads_par) = megabatch_step(&model, &mb, Some(pool));
        assert_eq!(
            loss_seq.to_bits(),
            loss_par.to_bits(),
            "dense-sharded loss diverged at {workers} workers"
        );
        for (i, (a, b)) in grads_seq.iter().zip(&grads_par).enumerate() {
            assert!(
                a.approx_eq(b, 0.0),
                "dense-sharded gradient {i} diverged at {workers} workers"
            );
        }
    }

    // Against the dense-stripped plan (dense ops sequential, message
    // passing still sharded): the dense partial merge is a different —
    // equally canonical — float grouping, so gradients agree numerically
    // but need not share bits. Forward values must, though: dense forward
    // blocks compute each element with the full kernel's arithmetic.
    let mut mb_dense_seq = build_megabatch(&parts);
    strip_dense_shards(&mut mb_dense_seq);
    let (loss_nodense, grads_nodense) = megabatch_step(&model, &mb_dense_seq, None);
    assert_eq!(
        loss_seq.to_bits(),
        loss_nodense.to_bits(),
        "dense sharding must not change forward bits"
    );
    for (i, (a, b)) in grads_seq.iter().zip(&grads_nodense).enumerate() {
        let tol = 1e-4 * a.max_abs().max(1.0);
        assert!(
            a.approx_eq(b, tol),
            "gradient {i} diverged numerically between dense-sharded and dense-sequential"
        );
    }
}

#[test]
fn intra_sharded_single_sample_is_bitwise_identical_to_legacy() {
    // Single-sample plans historically skipped `PlanShards` entirely; with
    // `ComposedMegabatch::compose_with(parts, intra_shards)` they keep the
    // single-shard message-passing schedule and fan only the dense per-row
    // work out. The contract mirrors the dense megabatch one: forward bits
    // match the fully-unsharded legacy plan exactly (dense row blocks
    // compute each element with the full kernel's arithmetic), gradients
    // match it numerically (the dense backward folds per-shard partials — a
    // different, equally canonical float grouping), and within one
    // intra-sharded plan everything is bitwise invariant across worker
    // counts.
    let (model, plans) = nsfnet_setup(1);
    let parts: Vec<&SamplePlan> = vec![&plans[0]];
    let legacy = ComposedMegabatch::compose_with(&parts, 1)
        .unwrap()
        .into_plan();
    assert!(
        legacy.plan.shards.is_none(),
        "legacy plan must be unsharded"
    );
    let (loss_legacy, grads_legacy) = megabatch_step(&model, &legacy, None);
    assert!(loss_legacy.is_finite());

    for intra in [2, 4, 7] {
        let mb = ComposedMegabatch::compose_with(&parts, intra)
            .unwrap()
            .into_plan();
        let shards = mb.plan.shards.as_ref().expect("intra-sharded plan");
        assert_eq!(shards.len(), 1, "message passing stays one shard");
        assert!(
            shards.dense_path().is_some()
                && shards.dense_entity(EntityKind::Link).is_some()
                && shards.dense_entity(EntityKind::Node).is_some(),
            "dense partitions must engage at intra={intra}"
        );

        // Forward bits == legacy; gradients within float round-off of it.
        let (loss_seq, grads_seq) = megabatch_step(&model, &mb, None);
        assert_eq!(
            loss_legacy.to_bits(),
            loss_seq.to_bits(),
            "intra={intra}: dense sharding must not change forward bits"
        );
        assert_eq!(grads_legacy.len(), grads_seq.len());
        for (i, (a, b)) in grads_legacy.iter().zip(&grads_seq).enumerate() {
            let tol = 1e-4 * a.max_abs().max(1.0);
            assert!(
                a.approx_eq(b, tol),
                "intra={intra}: gradient {i} diverged numerically from legacy"
            );
        }

        // Scheduling invariance: bitwise identical at every worker count.
        for workers in worker_counts() {
            let pool = Arc::new(WorkerPool::new(workers));
            let (loss, grads) = megabatch_step(&model, &mb, Some(pool));
            assert_eq!(
                loss_seq.to_bits(),
                loss.to_bits(),
                "loss diverged at intra={intra}, {workers} workers"
            );
            for (i, (a, b)) in grads_seq.iter().zip(&grads).enumerate() {
                assert!(
                    a.approx_eq(b, 0.0),
                    "gradient {i} diverged at intra={intra}, {workers} workers"
                );
            }
        }
    }
}

#[test]
fn dense_stripped_backward_stays_bitwise_across_worker_counts() {
    // The per-sample-only layout (dense work sequential) remains its own
    // canonical path: bitwise invariant across worker counts, so older
    // plans or stripped configurations cannot lose determinism.
    let (model, plans) = nsfnet_setup(4);
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let mut mb = build_megabatch(&parts);
    strip_dense_shards(&mut mb);
    let (loss_seq, grads_seq) = megabatch_step(&model, &mb, None);
    for workers in [2, 8] {
        let (loss_par, grads_par) =
            megabatch_step(&model, &mb, Some(Arc::new(WorkerPool::new(workers))));
        assert_eq!(loss_seq.to_bits(), loss_par.to_bits());
        for (i, (a, b)) in grads_seq.iter().zip(&grads_par).enumerate() {
            assert!(
                a.approx_eq(b, 0.0),
                "stripped grad {i} diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn sharded_backward_is_reuse_stable_on_a_pooled_tape() {
    // A reused tape (pooled buffers, shard scratch recycled) must reproduce
    // the fresh tape's sharded gradients bit for bit, with and without
    // workers.
    let (model, plans) = nsfnet_setup(4);
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let mb = build_megabatch(&parts);
    let (loss_fresh, grads_fresh) = megabatch_step(&model, &mb, None);

    let mut g = Graph::new();
    g.set_worker_pool(Some(Arc::new(WorkerPool::new(3))));
    for round in 0..3 {
        g.reset();
        let bound = model.bind(&mut g);
        let pred = model.forward(&mut g, &bound, &mb.plan);
        let reliable = g.gather_rows(pred, &mb.plan.reliable_idx);
        let target = g.constant(mb.plan.reliable_targets_norm());
        let loss = g.mse(reliable, target);
        g.backward(loss);
        assert_eq!(
            loss_fresh.to_bits(),
            g.value(loss).get(0, 0).to_bits(),
            "round {round} loss diverged"
        );
        for (i, (a, b)) in grads_fresh.iter().zip(&model.grads(&g, &bound)).enumerate() {
            assert!(a.approx_eq(b, 0.0), "round {round} grad {i} diverged");
        }
    }
}

#[test]
fn training_is_bitwise_identical_across_backward_shards() {
    // End-to-end: full training runs at backward_shards = 1 (inline) and 4
    // (parallel) must produce bitwise-identical models.
    let gen_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    let ds = generate(&topologies::nsfnet_default(), &gen_config, 77, 6);
    let run = |backward_shards: usize| {
        let mut model = ExtendedRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 2,
            readout_hidden: 8,
            seed: 5,
            ..ModelConfig::default()
        });
        let config = TrainConfig {
            epochs: 2,
            batch_size: 6,
            megabatch_size: 3,
            backward_shards,
            ..TrainConfig::default()
        };
        let history = train(&mut model, &ds, None, &config);
        (history.final_train_loss(), model)
    };
    let (loss_inline, model_inline) = run(1);
    let (loss_parallel, model_parallel) = run(4);
    assert_eq!(
        loss_inline, loss_parallel,
        "epoch losses must match exactly"
    );
    let plan = model_inline.plan(&ds.samples[0]);
    assert_eq!(
        model_inline.predict(&plan),
        model_parallel.predict(&plan),
        "trained weights must be bitwise identical"
    );
}

#[test]
fn inplace_inference_is_bitwise_identical_to_copying_forward() {
    let (model, plans) = nsfnet_setup(4);
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
