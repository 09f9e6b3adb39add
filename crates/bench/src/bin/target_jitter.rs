//! **E9 (beyond paper)** — jitter as the regression target.
//!
//! RouteNet's framing covers "end-to-end network performance metrics such as
//! delay or jitter"; the paper's experiment only reports delay. The
//! architecture is target-agnostic — this binary retrains the extended model
//! on per-path jitter (delay standard deviation) labels and evaluates it the
//! same way, demonstrating the claim.
//!
//! Run: `cargo run --release -p rn-bench --bin target_jitter`

use rayon::prelude::*;
use rn_bench::{cached_dataset, paper_topologies, ExperimentConfig};
use rn_dataset::Normalizer;
use routenet::entities::TargetKind;
use routenet::eval::EvalReport;
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig};

fn main() {
    let mut cfg = ExperimentConfig::from_env();
    cfg.train_samples = rn_bench::env_or("RN_TRAIN_SAMPLES", 96);
    cfg.epochs = rn_bench::env_or("RN_EPOCHS", 8);

    let (geant2, _) = paper_topologies();
    let gen = cfg.generator();
    let train_set = cached_dataset(&geant2, &gen, cfg.seed, cfg.train_samples, "train");
    let eval_set = cached_dataset(&geant2, &gen, cfg.seed ^ 0xEEE1, cfg.eval_samples, "eval");

    println!("=== E9: extended RouteNet predicting per-path jitter ===\n");

    // The generic trainer regresses mean delay; jitter training reuses its
    // pieces with jitter plans. Preprocessing must be fitted on jitter.
    let mut model = ExtendedRouteNet::new(ModelConfig { ..cfg.model() });
    model.fit_preprocessing(&train_set, 10);
    // Refit the normalizer on positive jitter labels.
    let jitters: Vec<f64> = train_set
        .samples
        .iter()
        .flat_map(|s| s.targets.iter())
        .filter(|t| t.delivered >= 10 && t.jitter_s > 0.0)
        .map(|t| t.jitter_s)
        .collect();
    assert!(!jitters.is_empty(), "no jitter labels in the training set");
    model.set_normalizer(Normalizer::fit(&jitters, true));

    let plans: Vec<_> = train_set
        .samples
        .par_iter()
        .map(|s| model.plan_for_target(s, TargetKind::Jitter))
        .collect();
    let history = routenet::trainer::train_on_plans(&mut model, &plans, &cfg.training());
    println!("final training loss: {:.5}", history.final_train_loss());

    // Evaluate on held-out jitter labels.
    let eval_plans: Vec<_> = eval_set
        .samples
        .par_iter()
        .map(|s| model.plan_for_target(s, TargetKind::Jitter))
        .collect();
    let pairs = routenet::eval::collect_predictions(&model, &eval_plans);
    let report = EvalReport::from_predictions(
        "extended-jitter",
        "geant2",
        &pairs.iter().map(|p| p.0).collect::<Vec<_>>(),
        &pairs.iter().map(|p| p.1).collect::<Vec<_>>(),
    );
    println!("{}", report.summary_line());
    println!("\nJitter is intrinsically noisier than mean delay (a second moment from the");
    println!("same packet sample), so expect somewhat higher relative errors than figure2.");
}
