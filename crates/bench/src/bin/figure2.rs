//! **Figure 2 reproduction** — the paper's headline experiment.
//!
//! Pipeline (matching Section 3 of the paper, scaled down — see
//! "Reproducing the paper's figures" in README.md):
//!
//! 1. Generate GEANT2 training samples and held-out GEANT2 + NSFNET
//!    evaluation samples with the packet-level simulator. Every sample mixes
//!    standard-queue and 1-packet-queue forwarding devices, random routings
//!    and random traffic matrices.
//! 2. Train the **extended** RouteNet (sees queue sizes via node entities)
//!    and the **original** RouteNet (cannot see them) on GEANT2 only.
//! 3. Evaluate per-path delay predictions on (i) extended/GEANT2,
//!    (ii) original/GEANT2, (iii) extended/NSFNET, (iv) original/NSFNET.
//! 4. Print the CDF of the signed relative error for the four curves (the
//!    Figure 2 artifact) plus the E3 summary table.
//!
//! Results are also written to `target/rn-results/figure2_reports.json`.
//!
//! Run: `cargo run --release -p rn-bench --bin figure2`
//! Scale with RN_TRAIN_SAMPLES / RN_EVAL_SAMPLES / RN_EPOCHS / ... (see lib).

use rn_bench::{cached_dataset, paper_topologies, render_cdf_table, ExperimentConfig};
use routenet::{evaluate, train, EvalReport, ExtendedRouteNet, OriginalRouteNet};
use std::time::Instant;

fn main() {
    let cfg = ExperimentConfig::from_env();
    eprintln!("[figure2] config: {cfg:?}");
    let (geant2, nsfnet) = paper_topologies();
    let gen = cfg.generator();

    // --- Datasets (cached across runs) ------------------------------------
    let train_set = cached_dataset(&geant2, &gen, cfg.seed, cfg.train_samples, "train");
    let eval_geant2 = cached_dataset(&geant2, &gen, cfg.seed ^ 0xEEE1, cfg.eval_samples, "eval");
    let eval_nsfnet = cached_dataset(&nsfnet, &gen, cfg.seed ^ 0xEEE2, cfg.eval_samples, "eval");

    // --- Training on GEANT2 only ------------------------------------------
    let train_cfg = cfg.training();
    let mut extended = ExtendedRouteNet::new(cfg.model());
    let t0 = Instant::now();
    let hist_e = train(&mut extended, &train_set, None, &train_cfg);
    eprintln!(
        "[figure2] extended trained: {:.1}s, final loss {:.5}",
        t0.elapsed().as_secs_f64(),
        hist_e.final_train_loss()
    );
    let mut original = OriginalRouteNet::new(cfg.model());
    let t0 = Instant::now();
    let hist_o = train(&mut original, &train_set, None, &train_cfg);
    eprintln!(
        "[figure2] original trained: {:.1}s, final loss {:.5}",
        t0.elapsed().as_secs_f64(),
        hist_o.final_train_loss()
    );

    // --- Evaluation ---------------------------------------------------------
    let min_packets = 10;
    let reports: Vec<EvalReport> = vec![
        evaluate(&extended, &eval_geant2, "geant2", min_packets),
        evaluate(&original, &eval_geant2, "geant2", min_packets),
        evaluate(&extended, &eval_nsfnet, "nsfnet", min_packets),
        evaluate(&original, &eval_nsfnet, "nsfnet", min_packets),
    ];

    // --- E3: summary table ---------------------------------------------------
    println!("\n=== Figure 2 / E3: delay prediction accuracy (trained on GEANT2 only) ===\n");
    for r in &reports {
        println!("{}", r.summary_line());
    }

    // --- Figure 2: CDF of relative error -------------------------------------
    let xs: Vec<f64> = (-20..=30).map(|i| i as f64 * 0.05).collect();
    let series: Vec<Vec<(f64, f64)>> = reports.iter().map(|r| r.cdf_series_at(&xs)).collect();
    println!("\nCDF of relative error (pred-true)/true — columns are the paper's four curves:\n");
    println!(
        "{}",
        render_cdf_table(
            &[
                "rel_error",
                "ext/geant2",
                "orig/geant2",
                "ext/nsfnet",
                "orig/nsfnet"
            ],
            &xs,
            &series
        )
    );

    // --- Shape checks vs. the paper ------------------------------------------
    println!("=== shape checks against the paper's qualitative claims ===");
    let med = |i: usize| reports[i].median_abs_rel();
    let claim1 = med(0) < med(1);
    let claim2 = med(2) < med(3);
    let claim3 = med(2) < 2.0 * med(0).max(1e-9);
    println!(
        "  [{}] extended beats original on GEANT2 (median |rel|: {:.3} vs {:.3})",
        tick(claim1),
        med(0),
        med(1)
    );
    println!(
        "  [{}] extended beats original on unseen NSFNET (median |rel|: {:.3} vs {:.3})",
        tick(claim2),
        med(2),
        med(3)
    );
    println!(
        "  [{}] extended generalizes to NSFNET (median within 2x of GEANT2: {:.3} vs {:.3})",
        tick(claim3),
        med(2),
        med(0)
    );

    // --- Persist ---------------------------------------------------------------
    std::fs::create_dir_all("target/rn-results").ok();
    let out = std::path::Path::new("target/rn-results/figure2_reports.json");
    if let Err(e) = routenet::persist::save_model(&reports, out) {
        eprintln!("[figure2] warning: could not save reports: {e}");
    } else {
        eprintln!("[figure2] reports saved to {}", out.display());
    }
    let models_out = std::path::Path::new("target/rn-results/figure2_extended_model.json");
    routenet::persist::save_model(&extended, models_out).ok();
    let models_out = std::path::Path::new("target/rn-results/figure2_original_model.json");
    routenet::persist::save_model(&original, models_out).ok();
}

fn tick(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}
