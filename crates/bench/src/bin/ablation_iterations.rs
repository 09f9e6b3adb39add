//! **E4 (beyond paper)** — accuracy vs. message-passing iterations `T`.
//!
//! RouteNet fixes T = 8; the paper does not ablate it. Too few iterations
//! starve distant entities of information (a path's state can only reflect
//! links within T rounds of influence); too many cost linearly more compute.
//! This sweep quantifies the trade-off for the extended model.
//!
//! Run: `cargo run --release -p rn-bench --bin ablation_iterations`

use rn_bench::{cached_dataset, paper_topologies, ExperimentConfig};
use routenet::{evaluate, train, ExtendedRouteNet};

fn main() {
    let mut cfg = ExperimentConfig::from_env();
    // Ablations default to a reduced budget; env knobs still override.
    cfg.train_samples = rn_bench::env_or("RN_TRAIN_SAMPLES", 96);
    cfg.epochs = rn_bench::env_or("RN_EPOCHS", 8);

    let (geant2, _) = paper_topologies();
    let gen = cfg.generator();
    let train_set = cached_dataset(&geant2, &gen, cfg.seed, cfg.train_samples, "train");
    let eval_set = cached_dataset(&geant2, &gen, cfg.seed ^ 0xEEE1, cfg.eval_samples, "eval");

    println!("=== E4: extended RouteNet accuracy vs message-passing iterations T ===\n");
    println!(
        "{:>4} {:>14} {:>14} {:>14} {:>12}",
        "T", "median|rel|", "p90|rel|", "MAE (s)", "train (s)"
    );
    for t in [1usize, 2, 4, 8] {
        let mut model_cfg = cfg.model();
        model_cfg.mp_iterations = t;
        let mut model = ExtendedRouteNet::new(model_cfg);
        let t0 = std::time::Instant::now();
        train(&mut model, &train_set, None, &cfg.training());
        let train_secs = t0.elapsed().as_secs_f64();
        let report = evaluate(&model, &eval_set, "geant2", 10);
        println!(
            "{:>4} {:>14.4} {:>14.4} {:>14.5} {:>12.1}",
            t,
            report.median_abs_rel(),
            report.abs_rel_summary.p90,
            report.mae_s,
            train_secs
        );
    }
    println!("\nExpected shape: accuracy improves sharply from T=1 and saturates near the");
    println!("network diameter; training cost grows linearly in T.");
}
