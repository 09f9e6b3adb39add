//! Frozen reference for the message-passing models: a digest of the
//! predictions, the loss and every parameter gradient of `OriginalRouteNet`,
//! `ExtendedRouteNet` (both `NodeUpdate` variants) and `QosRouteNet` on a
//! two-class plan — single-sample and as a 4-sample megabatch at 1 and 4
//! shard workers. Recorded at commit 89057f9, when each model still had its
//! own forward body, plan schedule and tape index mode; the one loop that
//! replaced them must keep every bit.
//!
//! After an *intentional* numerics change, print fresh constants with
//! `RN_REGEN_GOLDEN=1 cargo test --test model_digest -- --nocapture`.

use rn_autograd::{Graph, WorkerPool};
use rn_dataset::{generate, Dataset, GeneratorConfig, QosGenConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use routenet::entities::build_megabatch;
use routenet::model::PathPredictor;
use routenet::plan_cache::Fingerprint;
use routenet::{
    ExtendedRouteNet, ModelConfig, NodeUpdate, OriginalRouteNet, QosRouteNet, SamplePlan,
};
use std::sync::Arc;

fn dataset(qos: bool) -> Dataset {
    let config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 40.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        qos: qos.then(QosGenConfig::two_class_mix),
        ..GeneratorConfig::default()
    };
    generate(&topologies::toy5(), &config, 20_260_928, 4)
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
/// order.
fn step_digest<M: PathPredictor>(
    model: &M,
    plan: &SamplePlan,
    pool: Option<Arc<WorkerPool>>,
) -> u64 {
    let mut fp = Fingerprint::new();
    let mut g = Graph::new();
    g.set_worker_pool(pool);
    for p in model.predict_with(&mut g, plan) {
        fp.f64(p);
    }
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
    fp.finish()
}

/// `[single sample, 4-sample megabatch @ 1 worker, @ 4 workers]`.
fn model_digests<M: PathPredictor>(mut model: M, ds: &Dataset) -> [u64; 3] {
    model.fit_preprocessing(ds, 5);
    let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let mb = build_megabatch(&parts);
    assert!(mb.plan.shards.is_some(), "4-sample megabatch must shard");
    [
        step_digest(&model, &plans[0], None),
        step_digest(&model, &mb.plan, Some(Arc::new(WorkerPool::new(1)))),
        step_digest(&model, &mb.plan, Some(Arc::new(WorkerPool::new(4)))),
    ]
}

#[test]
fn models_reproduce_the_recorded_digests() {
    let legacy = dataset(false);
    let two_class = dataset(true);
    assert!(two_class.samples[0].qos.is_some());
    let positional = config(NodeUpdate::PositionalMessages);
    let final_sum = config(NodeUpdate::FinalPathStateSum);
    let scenarios: [(&str, [u64; 3], [u64; 3]); 4] = [
        (
            "original",
            [
                0x825b_8021_2c33_6a63,
                0x49f6_909f_c81b_b138,
                0x49f6_909f_c81b_b138,
            ],
            model_digests(OriginalRouteNet::new(positional.clone()), &legacy),
        ),
        (
            "extended_positional",
            [
                0xab43_0401_4929_d653,
                0x1d46_25c8_dfcb_2dc8,
                0x1d46_25c8_dfcb_2dc8,
            ],
            model_digests(ExtendedRouteNet::new(positional.clone()), &legacy),
        ),
        (
            "extended_final_path_state_sum",
            [
                0x1adf_e306_bd95_ab8d,
                0xa5a7_d184_ecfe_22c4,
                0xa5a7_d184_ecfe_22c4,
            ],
            model_digests(ExtendedRouteNet::new(final_sum), &legacy),
        ),
        (
            "qos_two_class",
            [
                0x01ff_60d5_20a5_3ba9,
                0x1548_a08b_e5d3_a969,
                0x1548_a08b_e5d3_a969,
            ],
            model_digests(QosRouteNet::new(positional), &two_class),
        ),
    ];
    let table: String = scenarios
        .iter()
        .map(|(name, want, got)| {
            let hex = |d: &[u64; 3]| format!("[{:#018x}, {:#018x}, {:#018x}]", d[0], d[1], d[2]);
            format!(
                "  {name} [single, mb4@1, mb4@4]:\n    recorded {}\n    got      {}\n",
                hex(want),
                hex(got)
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
