//! Full training workflow on NSFNET: dataset generation, train/val split,
//! early stopping, model persistence, and reload-and-verify.
//!
//! Run: `cargo run --release --example train_extended`

use rn_dataset::{generate, train_test_split, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_tensor::Prng;
use routenet::model::PathPredictor;
use routenet::persist::{load_model, save_model};
use routenet::{evaluate, train, ExtendedRouteNet, ModelConfig, TrainConfig};
use std::env;

fn main() {
    let topo = topologies::nsfnet_default();
    let gen_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 600.0,
            warmup_s: 60.0,
            ..SimConfig::default()
        },
        utilization_range: (0.6, 1.1),
        ..GeneratorConfig::default()
    };
    println!("generating 48 NSFNET scenarios ...");
    let dataset = generate(&topo, &gen_config, 2024, 48);
    let (train_val, test_set) = train_test_split(dataset, 0.75, &mut Prng::new(9));
    let (train_set, val_set) = train_test_split(train_val, 0.85, &mut Prng::new(10));
    println!(
        "split: {} train / {} val / {} test",
        train_set.len(),
        val_set.len(),
        test_set.len()
    );

    let model_config = ModelConfig {
        state_dim: 16,
        mp_iterations: 4,
        readout_hidden: 32,
        ..ModelConfig::default()
    };
    let train_config = TrainConfig {
        epochs: 30,
        batch_size: 8,
        patience: Some(4),
        lr_halve_epochs: vec![15],
        verbose: true,
        ..TrainConfig::default()
    };

    let mut model = ExtendedRouteNet::new(model_config);
    let history = train(&mut model, &train_set, Some(&val_set), &train_config);
    println!(
        "\ntrained for {} epochs (best val loss {:.4})",
        history.stopped_at,
        history.best_val_loss().unwrap()
    );

    let report = evaluate(&model, &test_set, "nsfnet", 10);
    println!("{}", report.summary_line());

    // Persist and reload: production models carry their preprocessing.
    let path = env::temp_dir().join("extended_routenet_nsfnet.json");
    save_model(&model, &path).expect("save model");
    println!("\nmodel saved to {}", path.display());
    let reloaded: ExtendedRouteNet = load_model(&path).expect("load model");
    let plan = reloaded.plan(&test_set.samples[0]);
    let a = model.predict(&model.plan(&test_set.samples[0]));
    let b = reloaded.predict(&plan);
    assert_eq!(a, b, "reloaded model must predict identically");
    println!("reload verified: predictions are bit-identical.");
    std::fs::remove_file(&path).ok();
}
