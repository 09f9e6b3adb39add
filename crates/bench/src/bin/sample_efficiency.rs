//! **E8 (beyond paper)** — sample efficiency.
//!
//! The paper trains on 400k samples; this reproduction uses orders of
//! magnitude fewer. This sweep makes the scaling explicit: accuracy of the
//! extended model as a function of the training-set size, with everything
//! else fixed. The curve justifies why the Figure-2 conclusion survives the
//! scale-down (the extended/original gap opens long before the accuracy
//! saturates).
//!
//! Run: `cargo run --release -p rn-bench --bin sample_efficiency`

use rn_bench::{cached_dataset, paper_topologies, ExperimentConfig};
use rn_dataset::Dataset;
use routenet::{evaluate, train, ExtendedRouteNet, OriginalRouteNet};

fn main() {
    let mut cfg = ExperimentConfig::from_env();
    let max_train: usize = rn_bench::env_or("RN_TRAIN_SAMPLES", 128);
    cfg.train_samples = max_train;
    cfg.epochs = rn_bench::env_or("RN_EPOCHS", 8);

    let (geant2, _) = paper_topologies();
    let gen = cfg.generator();
    let full_train = cached_dataset(&geant2, &gen, cfg.seed, max_train, "train");
    let eval_set = cached_dataset(&geant2, &gen, cfg.seed ^ 0xEEE1, cfg.eval_samples, "eval");

    println!("=== E8: accuracy vs training-set size (GEANT2) ===\n");
    println!(
        "{:>8} {:>18} {:>18} {:>12}",
        "samples", "ext median|rel|", "orig median|rel|", "gap (x)"
    );
    let mut size = 16usize;
    while size <= max_train {
        let subset = Dataset {
            topology: full_train.topology.clone(),
            samples: full_train.samples[..size].to_vec(),
        };
        let mut ext = ExtendedRouteNet::new(cfg.model());
        train(&mut ext, &subset, None, &cfg.training());
        let re = evaluate(&ext, &eval_set, "geant2", 10);

        let mut orig = OriginalRouteNet::new(cfg.model());
        train(&mut orig, &subset, None, &cfg.training());
        let ro = evaluate(&orig, &eval_set, "geant2", 10);

        let gap = ro.median_abs_rel() / re.median_abs_rel().max(1e-9);
        println!(
            "{:>8} {:>18.4} {:>18.4} {:>12.2}",
            size,
            re.median_abs_rel(),
            ro.median_abs_rel(),
            gap
        );
        size *= 2;
    }
    println!("\nExpected shape: the extended model's error falls with more data while the");
    println!("original plateaus at the queue-size noise floor, so the gap widens.");
}
