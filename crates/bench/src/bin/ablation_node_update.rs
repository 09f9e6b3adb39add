//! **E5 (beyond paper)** — node-update aggregation ablation.
//!
//! The paper's text says node states are updated from "an element-wise
//! summation of all the path states associated to the node". Read literally,
//! that is the *final* path state; read symmetrically with RouteNet's link
//! update, it is the path-RNN hidden state *at the node's position*. The two
//! are different models. This experiment trains both and compares.
//!
//! Run: `cargo run --release -p rn-bench --bin ablation_node_update`

use rn_bench::{cached_dataset, paper_topologies, ExperimentConfig};
use routenet::{evaluate, train, ExtendedRouteNet, NodeUpdate};

fn main() {
    let mut cfg = ExperimentConfig::from_env();
    cfg.train_samples = rn_bench::env_or("RN_TRAIN_SAMPLES", 96);
    cfg.epochs = rn_bench::env_or("RN_EPOCHS", 8);

    let (geant2, nsfnet) = paper_topologies();
    let gen = cfg.generator();
    let train_set = cached_dataset(&geant2, &gen, cfg.seed, cfg.train_samples, "train");
    let eval_geant2 = cached_dataset(&geant2, &gen, cfg.seed ^ 0xEEE1, cfg.eval_samples, "eval");
    let eval_nsfnet = cached_dataset(&nsfnet, &gen, cfg.seed ^ 0xEEE2, cfg.eval_samples, "eval");

    println!("=== E5: node-update aggregation — positional messages vs final path-state sum ===\n");
    println!(
        "{:<22} {:>16} {:>16} {:>16}",
        "variant", "geant2 med|rel|", "nsfnet med|rel|", "train (s)"
    );
    for (name, variant) in [
        ("positional-messages", NodeUpdate::PositionalMessages),
        ("final-path-state-sum", NodeUpdate::FinalPathStateSum),
    ] {
        let mut model_cfg = cfg.model();
        model_cfg.node_update = variant;
        let mut model = ExtendedRouteNet::new(model_cfg);
        let t0 = std::time::Instant::now();
        train(&mut model, &train_set, None, &cfg.training());
        let train_secs = t0.elapsed().as_secs_f64();
        let rg = evaluate(&model, &eval_geant2, "geant2", 10);
        let rn = evaluate(&model, &eval_nsfnet, "nsfnet", 10);
        println!(
            "{:<22} {:>16.4} {:>16.4} {:>16.1}",
            name,
            rg.median_abs_rel(),
            rn.median_abs_rel(),
            train_secs
        );
    }
    println!("\nBoth variants see queue sizes, so both should beat the original model;");
    println!("positional messages give the node update per-hop context and usually win.");
}
