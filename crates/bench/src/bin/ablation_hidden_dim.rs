//! **E7 (beyond paper)** — accuracy vs. entity state dimensionality.
//!
//! RouteNet used 32-dimensional states; our scaled-down default is 16. This
//! sweep checks how much head-room the state width leaves at the reproduced
//! scale, and how parameter count and training cost grow with it.
//!
//! Run: `cargo run --release -p rn-bench --bin ablation_hidden_dim`

use rn_bench::{cached_dataset, paper_topologies, ExperimentConfig};
use rn_nn::Layer;
use routenet::{evaluate, train, ExtendedRouteNet};

fn main() {
    let mut cfg = ExperimentConfig::from_env();
    cfg.train_samples = rn_bench::env_or("RN_TRAIN_SAMPLES", 96);
    cfg.epochs = rn_bench::env_or("RN_EPOCHS", 8);

    let (geant2, _) = paper_topologies();
    let gen = cfg.generator();
    let train_set = cached_dataset(&geant2, &gen, cfg.seed, cfg.train_samples, "train");
    let eval_set = cached_dataset(&geant2, &gen, cfg.seed ^ 0xEEE1, cfg.eval_samples, "eval");

    println!("=== E7: extended RouteNet accuracy vs state dimensionality ===\n");
    println!(
        "{:>6} {:>12} {:>14} {:>14} {:>12}",
        "dim", "params", "median|rel|", "p90|rel|", "train (s)"
    );
    for dim in [4usize, 8, 16, 32] {
        let mut model_cfg = cfg.model();
        model_cfg.state_dim = dim;
        model_cfg.readout_hidden = 2 * dim;
        let mut model = ExtendedRouteNet::new(model_cfg);
        let params = model.param_count();
        let t0 = std::time::Instant::now();
        train(&mut model, &train_set, None, &cfg.training());
        let train_secs = t0.elapsed().as_secs_f64();
        let report = evaluate(&model, &eval_set, "geant2", 10);
        println!(
            "{:>6} {:>12} {:>14.4} {:>14.4} {:>12.1}",
            dim,
            params,
            report.median_abs_rel(),
            report.abs_rel_summary.p90,
            train_secs
        );
    }
    println!(
        "\nExpected shape: accuracy improves with width then saturates; cost grows ~quadratically."
    );
}
