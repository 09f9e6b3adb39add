//! Golden bit-identity tests for the queue-entity (QoS) model.
//!
//! The contract under test: FIFO-only scenarios — legacy samples, or QoS
//! samples whose spec degenerates to one class scheduled FIFO — run through
//! the queue-aware compose path produce **bitwise identical** predictions
//! AND gradients to the two-entity [`ExtendedRouteNet`]. The queue entity
//! must be invisible until a scenario actually schedules classes.

use rn_autograd::Graph;
use rn_dataset::{generate, Dataset, GeneratorConfig, Sample, SampleQos};
use rn_netgraph::topologies;
use rn_netsim::{ClassStats, SchedulingPolicy, SimConfig, TrafficProfile};
use rn_nn::Layer;
use rn_tensor::Matrix;
use routenet::compose::ComposedMegabatch;
use routenet::entities::MegabatchPlan;
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig, QosRouteNet, SamplePlan};

/// The ordered per-part structure fingerprints: equal exactly when a
/// composition of one batch can be refilled with the other.
fn structure_fps(parts: &[&SamplePlan]) -> Vec<u64> {
    parts.iter().map(|p| p.structure_fingerprint()).collect()
}

fn nsfnet_dataset(batch: usize, seed: u64) -> Dataset {
    let gen_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    generate(&topologies::nsfnet_default(), &gen_config, seed, batch)
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

/// Attach a single-class FIFO QoS spec: semantically the legacy scenario,
/// but it exercises the QoS branches of plan building and composition.
fn with_fifo_qos(sample: &Sample) -> Sample {
    let mut out = sample.clone();
    out.qos = Some(SampleQos {
        policy: SchedulingPolicy::Fifo,
        class_profiles: vec![TrafficProfile::Poisson],
        path_classes: vec![0; sample.targets.len()],
        class_targets: ClassStats::from_accumulators(
            &vec![Default::default(); sample.targets.len()],
            &vec![0; sample.targets.len()],
            1,
        ),
    });
    out
}

/// One fused forward + backward on the megabatch; returns the loss bits and
/// every parameter gradient.
fn megabatch_step<M: PathPredictor>(model: &M, mb: &MegabatchPlan) -> (u32, Vec<Matrix>) {
    let mut g = Graph::new();
    let bound = model.bind(&mut g);
    let pred = model.forward(&mut g, &bound, &mb.plan);
    let reliable = g.gather_rows(pred, &mb.plan.reliable_idx);
    let target = g.constant(mb.plan.reliable_targets_norm());
    let loss = g.mse(reliable, target);
    g.backward(loss);
    (g.value(loss).get(0, 0).to_bits(), model.grads(&g, &bound))
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
fn qos_model_shares_parameter_bits_with_extended_at_equal_seed() {
    // The RNG-order contract behind every test in this file: the QoS model
    // draws its path/link/node GRUs and readout from the seed stream in the
    // extended model's exact order, the queue GRU only afterwards.
    let ext = ExtendedRouteNet::new(model_config(11));
    let qos = QosRouteNet::new(model_config(11));
    let ep = ext.params();
    let qp = qos.params();
    assert_eq!(
        qp.len(),
        ep.len() + 6,
        "queue GRU adds 3 kernels + 3 biases"
    );
    for (i, (e, q)) in ep.iter().zip(&qp).enumerate() {
        assert!(
            e.approx_eq(q, 0.0),
            "shared parameter {i} differs between extended and QoS models"
        );
    }
}

#[test]
fn fifo_only_batches_are_bitwise_identical_to_legacy_across_workers() {
    let ds = nsfnet_dataset(4, 20_260_808);
    let mut ext = ExtendedRouteNet::new(model_config(11));
    let mut qos = QosRouteNet::new(model_config(11));
    ext.fit_preprocessing(&ds, 5);
    qos.fit_preprocessing(&ds, 5);

    // Mixed FIFO-only batch: half legacy samples, half degenerate-QoS
    // samples — both must land on the two-entity structure.
    let samples: Vec<Sample> = ds
        .samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if i % 2 == 0 {
                with_fifo_qos(s)
            } else {
                s.clone()
            }
        })
        .collect();
    let plans_qos: Vec<SamplePlan> = samples.iter().map(|s| qos.plan(s)).collect();
    let plans_ext: Vec<SamplePlan> = ds.samples.iter().map(|s| ext.plan(s)).collect();
    let parts_qos: Vec<&SamplePlan> = plans_qos.iter().collect();
    let parts_ext: Vec<&SamplePlan> = plans_ext.iter().collect();

    // The degenerate QoS spec is structurally invisible: same composition
    // key, no queue entities anywhere in the composed batch.
    assert_eq!(
        structure_fps(&parts_qos),
        structure_fps(&parts_ext),
        "single-class FIFO QoS must not move the structure fingerprints"
    );
    let composed_qos = ComposedMegabatch::compose(&parts_qos).expect("compose QoS parts");
    let composed_ext = ComposedMegabatch::compose(&parts_ext).expect("compose legacy parts");
    assert_eq!(composed_qos.plan().num_queues, 0);

    // Predictions: bitwise across models and compose paths.
    assert_eq!(
        prediction_bits(&qos, composed_qos.megabatch()),
        prediction_bits(&ext, composed_ext.megabatch()),
        "FIFO-only predictions diverged from the two-entity baseline"
    );

    // Gradients: bitwise. The queue GRU must stay exactly zero — the loss
    // never touches it.
    let (loss_q, grads_q) = megabatch_step(&qos, composed_qos.megabatch());
    let (loss_e, grads_e) = megabatch_step(&ext, composed_ext.megabatch());
    assert_eq!(loss_q, loss_e, "loss bits diverged");
    assert_eq!(grads_q.len(), grads_e.len() + 6);
    for (i, (e, q)) in grads_e.iter().zip(&grads_q).enumerate() {
        assert!(e.approx_eq(q, 0.0), "shared gradient {i} diverged");
    }
    for (i, m) in grads_q[grads_e.len()..].iter().enumerate() {
        assert_eq!(
            m.max_abs(),
            0.0,
            "queue GRU gradient {i} is nonzero on a FIFO-only batch"
        );
    }
}

#[test]
fn fifo_only_single_sample_predictions_are_bitwise_identical() {
    // The per-sample (unbatched) path — what a lone served request
    // runs — must hold the same guarantee as the megabatch path.
    let ds = nsfnet_dataset(2, 909);
    let mut ext = ExtendedRouteNet::new(model_config(7));
    let mut qos = QosRouteNet::new(model_config(7));
    ext.fit_preprocessing(&ds, 5);
    qos.fit_preprocessing(&ds, 5);
    for sample in &ds.samples {
        let fifo = with_fifo_qos(sample);
        let plan_e = ext.plan(sample);
        let plan_q = qos.plan(&fifo);
        assert_eq!(plan_q.num_queues, 0);
        assert_eq!(qos.predict(&plan_q), ext.predict(&plan_e));
    }
}

#[test]
fn qos_batches_refill_bitwise_like_legacy_ones() {
    // The refill contract extends to queue entities: a kept
    // QoS composition refilled with new features (including new queue_init
    // from a changed policy) matches a fresh build bitwise.
    let gen_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        qos: Some(rn_dataset::QosGenConfig::two_class_mix()),
        ..GeneratorConfig::default()
    };
    let ds = generate(&topologies::nsfnet_default(), &gen_config, 4242, 3);
    let mut qos = QosRouteNet::new(model_config(3));
    qos.fit_preprocessing(&ds, 5);

    // Feature-only perturbation: swap every sample's policy for a WFQ with
    // different weights — same class count, so the structure key holds but
    // queue_init must be rewritten by the refill.
    let perturbed: Vec<Sample> = ds
        .samples
        .iter()
        .map(|s| {
            let mut out = s.clone();
            let q = out.qos.as_mut().expect("QoS sample");
            q.policy = SchedulingPolicy::Wfq {
                weights: (0..q.num_classes()).map(|c| 1.0 + 4.0 * c as f64).collect(),
            };
            out
        })
        .collect();
    let plans_a: Vec<SamplePlan> = ds.samples.iter().map(|s| qos.plan(s)).collect();
    let plans_b: Vec<SamplePlan> = perturbed.iter().map(|s| qos.plan(s)).collect();
    let parts_a: Vec<&SamplePlan> = plans_a.iter().collect();
    let parts_b: Vec<&SamplePlan> = plans_b.iter().collect();
    assert_eq!(
        structure_fps(&parts_a),
        structure_fps(&parts_b),
        "a policy swap at equal class count must not move the structure fingerprints"
    );
    assert!(
        !plans_a[0].queue_init.approx_eq(&plans_b[0].queue_init, 0.0),
        "the policy swap must actually change queue features"
    );

    let mut composed = ComposedMegabatch::compose(&parts_a).expect("compose");
    assert!(composed.plan().num_queues > 0);
    composed.refill_features(&parts_b);
    let fresh_b = ComposedMegabatch::compose(&parts_b).expect("compose fresh");
    assert_eq!(
        prediction_bits(&qos, composed.megabatch()),
        prediction_bits(&qos, fresh_b.megabatch()),
        "refilled QoS composition changed prediction bits"
    );
    let (loss_c, grads_c) = megabatch_step(&qos, composed.megabatch());
    let (loss_f, grads_f) = megabatch_step(&qos, fresh_b.megabatch());
    assert_eq!(loss_c, loss_f, "refill changed loss bits");
    for (i, (a, b)) in grads_c.iter().zip(&grads_f).enumerate() {
        assert!(a.approx_eq(b, 0.0), "refill changed gradient {i}");
    }
}
