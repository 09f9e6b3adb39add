//! Frozen reference for the message-passing models: a digest of the
//! predictions, the loss and every parameter gradient of `OriginalRouteNet`,
//! `ExtendedRouteNet` (both `NodeUpdate` variants) and `QosRouteNet` on a
//! two-class plan — single-sample and as a 4-sample megabatch at 1 and 4
//! shard workers. Recorded at commit 89057f9, when each model still had its
//! own forward body, plan schedule and tape index mode; the one loop that
//! replaced them must keep every bit.
//!
//! Beside each full digest sits a digest of the predictions alone, recorded
//! at commit fc7583f together with the `extended_sparse_isp` scenario (a
//! sparse routing on a 60-node ISP graph, where most links and nodes lie on
//! no path). A change that drops state rows or tape ops no readout depends
//! on regroups the weight-gradient sums, so it may move a full digest; it
//! may never move a prediction digest. The full digests of `qos_two_class`
//! and `extended_sparse_isp` were re-recorded once, when plans stopped
//! carrying rows for entities no routed path crosses (fewer rows regroup
//! the 4-row sums of the weight-gradient kernel); the other three scenarios
//! use every entity and kept theirs.
//!
//! After an *intentional* numerics change, print fresh constants with
//! `RN_REGEN_GOLDEN=1 cargo test --test model_digest -- --nocapture`.

use rn_autograd::{Graph, WorkerPool};
use rn_dataset::{generate, generate_sparse, Dataset, GeneratorConfig, QosGenConfig};
use rn_netgraph::generators::{isp_tiered, TierConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_tensor::Prng;
use routenet::entities::build_megabatch;
use routenet::model::PathPredictor;
use routenet::plan_cache::Fingerprint;
use routenet::{
    ExtendedRouteNet, ModelConfig, NodeUpdate, OriginalRouteNet, QosRouteNet, SamplePlan,
};
use std::sync::Arc;

fn generator(qos: bool) -> GeneratorConfig {
    GeneratorConfig {
        sim: SimConfig {
            duration_s: 40.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        qos: qos.then(QosGenConfig::two_class_mix),
        ..GeneratorConfig::default()
    }
}

fn dataset(qos: bool) -> Dataset {
    generate(&topologies::toy5(), &generator(qos), 20_260_928, 4)
}

/// Three samples of 12 routed pairs each on a 60-node ISP graph.
fn sparse_isp_dataset() -> Dataset {
    let topo = isp_tiered(60, &TierConfig::default(), &mut Prng::new(60)).expect("isp_tiered(60)");
    generate_sparse(&topo, &generator(false), 12, 20_260_928, 3)
}

fn config(node_update: NodeUpdate) -> ModelConfig {
    ModelConfig {
        state_dim: 8,
        mp_iterations: 3,
        readout_hidden: 8,
        seed: 13,
        node_update,
    }
}

/// Predictions, then one training-mode forward + backward: FNV-1a over the
/// prediction bits, the loss bits and every gradient element in parameter
/// order. Returns `(full digest, digest of the predictions alone)`.
fn step_digest<M: PathPredictor>(
    model: &M,
    plan: &SamplePlan,
    pool: Option<Arc<WorkerPool>>,
) -> (u64, u64) {
    let mut fp = Fingerprint::new();
    let mut g = Graph::new();
    g.set_worker_pool(pool);
    for p in model.predict_with(&mut g, plan) {
        fp.f64(p);
    }
    let predictions = fp.finish();
    g.reset();
    let bound = model.bind(&mut g);
    let pred = model.forward(&mut g, &bound, plan);
    let reliable = g.gather_rows(pred, &plan.reliable_idx);
    let target = g.constant(plan.reliable_targets_norm());
    let loss = g.mse(reliable, target);
    g.backward(loss);
    fp.u64(u64::from(g.value(loss).get(0, 0).to_bits()));
    for grad in model.grads(&g, &bound) {
        fp.usize(grad.len());
        for &v in grad.as_slice() {
            fp.u64(u64::from(v.to_bits()));
        }
    }
    (fp.finish(), predictions)
}

/// A scenario's digests, `[single sample, whole-dataset megabatch @ 1
/// worker, @ 4 workers]`.
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    /// Predictions, loss and every gradient.
    full: [u64; 3],
    /// Predictions alone.
    predictions: [u64; 3],
}

fn model_digests<M: PathPredictor>(mut model: M, ds: &Dataset) -> Digests {
    model.fit_preprocessing(ds, 5);
    let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let mb = build_megabatch(&parts);
    assert!(mb.plan.shards.is_some(), "a megabatch must shard");
    let steps = [
        step_digest(&model, &plans[0], None),
        step_digest(&model, &mb.plan, Some(Arc::new(WorkerPool::new(1)))),
        step_digest(&model, &mb.plan, Some(Arc::new(WorkerPool::new(4)))),
    ];
    Digests {
        full: steps.map(|(full, _)| full),
        predictions: steps.map(|(_, predictions)| predictions),
    }
}

#[test]
fn models_reproduce_the_recorded_digests() {
    let legacy = dataset(false);
    let two_class = dataset(true);
    assert!(two_class.samples[0].qos.is_some());
    let sparse_isp = sparse_isp_dataset();
    let positional = config(NodeUpdate::PositionalMessages);
    let final_sum = config(NodeUpdate::FinalPathStateSum);
    let scenarios: [(&str, Digests, Digests); 5] = [
        (
            "original",
            Digests {
                full: [
                    0x825b_8021_2c33_6a63,
                    0x49f6_909f_c81b_b138,
                    0x49f6_909f_c81b_b138,
                ],
                predictions: [
                    0xc9ab_73e9_ec1e_5759,
                    0xb129_b92a_598c_5123,
                    0xb129_b92a_598c_5123,
                ],
            },
            model_digests(OriginalRouteNet::new(positional.clone()), &legacy),
        ),
        (
            "extended_positional",
            Digests {
                full: [
                    0xab43_0401_4929_d653,
                    0x1d46_25c8_dfcb_2dc8,
                    0x1d46_25c8_dfcb_2dc8,
                ],
                predictions: [
                    0x1ab1_224a_07df_7eb7,
                    0x5d00_885f_fc79_f91f,
                    0x5d00_885f_fc79_f91f,
                ],
            },
            model_digests(ExtendedRouteNet::new(positional.clone()), &legacy),
        ),
        (
            "extended_final_path_state_sum",
            Digests {
                full: [
                    0x1adf_e306_bd95_ab8d,
                    0xa5a7_d184_ecfe_22c4,
                    0xa5a7_d184_ecfe_22c4,
                ],
                predictions: [
                    0x9d82_fc98_0ae5_4420,
                    0x5ff6_eec8_f350_425e,
                    0x5ff6_eec8_f350_425e,
                ],
            },
            model_digests(ExtendedRouteNet::new(final_sum), &legacy),
        ),
        (
            "qos_two_class",
            Digests {
                full: [
                    0xedb2_19e6_d388_b42d,
                    0x4043_8adf_1b31_d01a,
                    0x4043_8adf_1b31_d01a,
                ],
                predictions: [
                    0x59b2_d1f7_f323_a861,
                    0xf916_7bd8_313e_f06b,
                    0xf916_7bd8_313e_f06b,
                ],
            },
            model_digests(QosRouteNet::new(positional.clone()), &two_class),
        ),
        (
            "extended_sparse_isp",
            Digests {
                full: [
                    0xa9e2_4fc7_5bb8_78e4,
                    0x9c0d_ceae_4714_13b9,
                    0x9c0d_ceae_4714_13b9,
                ],
                predictions: [
                    0x0c5e_caec_c039_75dd,
                    0x0973_b829_9398_e467,
                    0x0973_b829_9398_e467,
                ],
            },
            model_digests(ExtendedRouteNet::new(positional), &sparse_isp),
        ),
    ];
    let hex = |d: [u64; 3]| format!("[{:#018x}, {:#018x}, {:#018x}]", d[0], d[1], d[2]);
    let table: String = scenarios
        .iter()
        .map(|(name, want, got)| {
            format!(
                "  {name} [single, mb@1, mb@4]:\n    full        recorded {}\n    full        got      \
                 {}\n    predictions recorded {}\n    predictions got      {}\n",
                hex(want.full),
                hex(got.full),
                hex(want.predictions),
                hex(got.predictions),
            )
        })
        .collect();
    if std::env::var("RN_REGEN_GOLDEN").is_ok() {
        eprintln!("model_digest scenarios:\n{table}");
        return;
    }
    assert!(
        scenarios.iter().all(|(_, want, got)| want == got),
        "a model moved bits against the frozen per-model reference:\n{table}"
    );
}
