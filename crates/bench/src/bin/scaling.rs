//! **Giant-topology scaling harness** — train small, evaluate large.
//!
//! The generalization claim of the paper (train on one topology, predict on
//! another) is exercised here at ISP scale: the model trains on GEANT2
//! (24 nodes), then predicts per-path delays on generated tiered ISP
//! topologies of 100/250/500+ nodes it has never seen.
//! Giant scenarios use **sparse** traffic (`generate_sparse`): a fixed
//! number of active source/destination pairs regardless of node count, so
//! label count stays constant across sizes and the per-path cost column
//! isolates the cost of topology growth.
//!
//! For every evaluation size the harness records accuracy (median |relative
//! error|), wall-clock cost per labelled path and the process peak RSS
//! (`VmHWM` from `/proc/self/status`), writing everything to
//! `BENCH_scaling.json` in `BENCH_OUT_DIR` (default: workspace root).
//!
//! Run: `cargo run --release -p rn_bench --bin scaling`
//!
//! Knobs (on top of the shared `RN_TRAIN_SAMPLES` / `RN_EPOCHS` / ... set):
//!
//! | env | default | meaning |
//! |-----|---------|---------|
//! | `RN_SCALING_SIZES` | `100,250,500` | comma-separated eval topology sizes |
//! | `RN_SCALING_PAIRS` | `256` | active traffic pairs per giant sample |
//! | `RN_SCALING_EVAL_SAMPLES` | `3` | samples per eval size |
//! | `RN_SCALING_MAX_RSS_MB` | unset | exit non-zero if peak RSS exceeds this |

use rn_bench::{cached_dataset, env_or, peak_rss_mb, ExperimentConfig};
use rn_netgraph::generators::{isp_tiered, TierConfig};
use rn_netgraph::topologies;
use rn_tensor::Prng;
use routenet::{evaluate, train, EvalReport, ExtendedRouteNet};
use serde::Serialize;
use std::time::Instant;

/// One evaluation topology size.
#[derive(Serialize)]
struct ScalingRow {
    /// Nodes in the evaluation topology.
    nodes: usize,
    /// Links in the evaluation topology.
    links: usize,
    /// Active traffic pairs per sample (labelled paths per sample).
    active_pairs: usize,
    /// Evaluation samples at this size.
    eval_samples: usize,
    /// Reliable labelled paths across all samples.
    reliable_paths: usize,
    /// Median |(pred − true)/true| over reliable paths.
    median_abs_rel: f64,
    /// Mean absolute error (seconds).
    mae_s: f64,
    /// Wall-clock to simulate the evaluation samples (seconds).
    generate_s: f64,
    /// Wall-clock to plan + predict all samples (seconds).
    eval_s: f64,
    /// Inference cost per labelled path (microseconds).
    eval_us_per_path: f64,
    /// Process peak RSS after this size finished (MB, 0 if unreadable).
    peak_rss_mb: f64,
}

/// The whole `BENCH_scaling.json` artifact.
#[derive(Serialize)]
struct ScalingReport {
    /// Topology the model was trained on.
    train_topology: String,
    /// Its node count — the "small" in train-small/eval-large.
    train_nodes: usize,
    /// Training samples.
    train_samples: usize,
    /// Training epochs.
    epochs: usize,
    /// Training wall-clock (seconds).
    train_s: f64,
    /// Final epoch mean training loss.
    final_train_loss: f64,
    /// Peak RSS right after training (MB).
    peak_rss_after_train_mb: f64,
    /// RSS budget from `RN_SCALING_MAX_RSS_MB` (0 = unset).
    max_rss_budget_mb: f64,
    /// Whether the final peak RSS stayed within the budget (true if unset).
    rss_within_budget: bool,
    /// One row per evaluation size, training topology first.
    rows: Vec<ScalingRow>,
}

/// Parse `RN_SCALING_SIZES` ("100,250,500") into sorted sizes.
fn scaling_sizes() -> Vec<usize> {
    let raw = std::env::var("RN_SCALING_SIZES").unwrap_or_else(|_| "100,250,500".into());
    let mut sizes: Vec<usize> = raw
        .split(',')
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                eprintln!("error: RN_SCALING_SIZES={raw:?}: {s:?} is not a size");
                std::process::exit(2)
            })
        })
        .filter(|&n| n >= 8)
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    assert!(
        !sizes.is_empty(),
        "RN_SCALING_SIZES parsed to nothing: {raw}"
    );
    sizes
}

fn row_from_report(
    report: &EvalReport,
    nodes: usize,
    links: usize,
    active_pairs: usize,
    eval_samples: usize,
    generate_s: f64,
    eval_s: f64,
) -> ScalingRow {
    let paths = report.num_paths();
    ScalingRow {
        nodes,
        links,
        active_pairs,
        eval_samples,
        reliable_paths: paths,
        median_abs_rel: report.median_abs_rel(),
        mae_s: report.mae_s,
        generate_s,
        eval_s,
        eval_us_per_path: if paths > 0 {
            eval_s * 1e6 / paths as f64
        } else {
            0.0
        },
        peak_rss_mb: peak_rss_mb(),
    }
}

fn main() {
    let cfg = ExperimentConfig::from_env();
    let sizes = scaling_sizes();
    let pairs: usize = env_or("RN_SCALING_PAIRS", 256);
    let eval_samples: usize = env_or("RN_SCALING_EVAL_SAMPLES", 3);
    let rss_budget_mb: f64 = env_or("RN_SCALING_MAX_RSS_MB", 0.0);
    eprintln!("[scaling] config: {cfg:?}, sizes {sizes:?}, pairs {pairs}");

    let gen = cfg.generator();
    let min_packets = 10;

    // --- Train small: GEANT2 ------------------------------------------------
    let geant2 = topologies::geant2_default();
    let train_set = cached_dataset(&geant2, &gen, cfg.seed, cfg.train_samples, "train");
    let train_cfg = cfg.training();
    let mut model = ExtendedRouteNet::new(cfg.model());
    let t0 = Instant::now();
    let hist = train(&mut model, &train_set, None, &train_cfg);
    let train_s = t0.elapsed().as_secs_f64();
    let peak_rss_after_train_mb = peak_rss_mb();
    eprintln!(
        "[scaling] trained on {} ({} nodes): {train_s:.1}s, final loss {:.5}, peak RSS {:.0} MB",
        geant2.name,
        geant2.num_nodes(),
        hist.final_train_loss(),
        peak_rss_after_train_mb,
    );

    // --- Evaluate: training distribution first, then the giants ------------
    let mut rows = Vec::new();
    let held_out = cached_dataset(&geant2, &gen, cfg.seed ^ 0xEEE1, cfg.eval_samples, "eval");
    let t0 = Instant::now();
    let report = evaluate(&model, &held_out, "geant2", min_packets);
    rows.push(row_from_report(
        &report,
        geant2.num_nodes(),
        geant2.num_links(),
        geant2.num_nodes() * (geant2.num_nodes() - 1),
        cfg.eval_samples,
        0.0,
        t0.elapsed().as_secs_f64(),
    ));
    eprintln!("[scaling] {}", report.summary_line());

    // Uniform tier capacities keep the link-capacity feature inside the
    // training distribution: this harness isolates *scale* generalization,
    // not capacity extrapolation.
    let tier = TierConfig {
        core_capacity_bps: 1e4,
        aggregation_capacity_bps: 1e4,
        edge_capacity_bps: 1e4,
        ..TierConfig::default()
    };
    for &n in &sizes {
        let mut rng = Prng::new(cfg.seed ^ (n as u64).rotate_left(17));
        let topo = isp_tiered(n, &tier, &mut rng)
            .unwrap_or_else(|e| panic!("isp_tiered({n}) failed: {e}"));
        let t_gen = Instant::now();
        let ds = rn_dataset::generate_sparse(&topo, &gen, pairs, cfg.seed ^ 0xBEEF, eval_samples);
        let generate_s = t_gen.elapsed().as_secs_f64();
        let t_eval = Instant::now();
        let report = evaluate(&model, &ds, &format!("isp-{n}"), min_packets);
        let eval_s = t_eval.elapsed().as_secs_f64();
        let row = row_from_report(
            &report,
            topo.num_nodes(),
            topo.num_links(),
            pairs,
            eval_samples,
            generate_s,
            eval_s,
        );
        eprintln!(
            "[scaling] {} — {:.1} us/path, peak RSS {:.0} MB",
            report.summary_line(),
            row.eval_us_per_path,
            row.peak_rss_mb,
        );
        rows.push(row);
    }

    let final_rss = peak_rss_mb();
    let rss_within_budget = rss_budget_mb <= 0.0 || final_rss <= rss_budget_mb;
    let out = ScalingReport {
        train_topology: geant2.name.clone(),
        train_nodes: geant2.num_nodes(),
        train_samples: cfg.train_samples,
        epochs: cfg.epochs,
        train_s,
        final_train_loss: hist.final_train_loss(),
        peak_rss_after_train_mb,
        max_rss_budget_mb: rss_budget_mb,
        rss_within_budget,
        rows,
    };

    let path = rn_bench::report_path("BENCH_scaling.json");
    std::fs::write(&path, serde_json::to_string(&out).expect("serialize"))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("[scaling] wrote {}", path.display());

    if !rss_within_budget {
        eprintln!(
            "[scaling] FAIL: peak RSS {final_rss:.0} MB exceeds budget {rss_budget_mb:.0} MB"
        );
        std::process::exit(1);
    }
}
