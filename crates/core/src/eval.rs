//! Evaluation: relative-error distributions — the paper's Figure 2 artifact.

use crate::entities::SamplePlan;
use crate::model::PathPredictor;
use rayon::prelude::*;
use rn_dataset::Dataset;
use rn_tensor::stats::{EmpiricalCdf, Summary};
use serde::{Deserialize, Serialize};

/// The evaluation record of one (model, dataset) pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalReport {
    /// Model identifier ("original" / "extended" / baseline name).
    pub model: String,
    /// Dataset/topology identifier (e.g. "geant2", "nsfnet").
    pub dataset: String,
    /// Signed relative errors `(pred − true) / true` over all reliable paths
    /// of all samples — the quantity whose CDF the paper plots.
    pub rel_errors: Vec<f64>,
    /// Mean absolute error in seconds.
    pub mae_s: f64,
    /// Root-mean-square error in seconds.
    pub rmse_s: f64,
    /// Summary of |relative error|.
    pub abs_rel_summary: Summary,
}

impl EvalReport {
    /// Build a report from aligned prediction/target vectors.
    pub fn from_predictions(
        model: impl Into<String>,
        dataset: impl Into<String>,
        predictions: &[f64],
        targets: &[f64],
    ) -> Self {
        assert_eq!(
            predictions.len(),
            targets.len(),
            "prediction/target length mismatch"
        );
        // Empty input yields an empty report (zero paths, zeroed summary):
        // evaluating an empty dataset — e.g. after reliability filtering —
        // is a legitimate no-op, not a crash.
        if predictions.is_empty() {
            return Self {
                model: model.into(),
                dataset: dataset.into(),
                rel_errors: Vec::new(),
                mae_s: 0.0,
                rmse_s: 0.0,
                abs_rel_summary: Summary::of(&[]),
            };
        }
        let mut rel = Vec::with_capacity(predictions.len());
        let mut abs_sum = 0.0;
        let mut sq_sum = 0.0;
        for (&p, &t) in predictions.iter().zip(targets) {
            assert!(
                t > 0.0,
                "targets must be positive (filtered upstream), got {t}"
            );
            rel.push((p - t) / t);
            abs_sum += (p - t).abs();
            sq_sum += (p - t) * (p - t);
        }
        let n = predictions.len() as f64;
        let abs_rel: Vec<f64> = rel.iter().map(|e| e.abs()).collect();
        Self {
            model: model.into(),
            dataset: dataset.into(),
            rel_errors: rel,
            mae_s: abs_sum / n,
            rmse_s: (sq_sum / n).sqrt(),
            abs_rel_summary: Summary::of(&abs_rel),
        }
    }

    /// Number of evaluated paths.
    pub fn num_paths(&self) -> usize {
        self.rel_errors.len()
    }

    /// Empirical CDF of the signed relative error (the Figure 2 curve).
    pub fn cdf(&self) -> EmpiricalCdf {
        EmpiricalCdf::new(&self.rel_errors)
    }

    /// `(x, F(x))` series of the signed relative-error CDF at the given xs.
    pub fn cdf_series_at(&self, xs: &[f64]) -> Vec<(f64, f64)> {
        self.cdf().series_at(xs)
    }

    /// Median of |relative error| — the headline accuracy number.
    pub fn median_abs_rel(&self) -> f64 {
        self.abs_rel_summary.median
    }

    /// One-line human-readable summary.
    pub fn summary_line(&self) -> String {
        format!(
            "{:<9} on {:<7}: paths {:>7}, median|rel| {:>6.3}, p90|rel| {:>6.3}, p95|rel| {:>6.3}, MAE {:.4}s, RMSE {:.4}s",
            self.model,
            self.dataset,
            self.num_paths(),
            self.abs_rel_summary.median,
            self.abs_rel_summary.p90,
            self.abs_rel_summary.p95,
            self.mae_s,
            self.rmse_s
        )
    }
}

/// GRU-row budget per fused evaluation pass: the rows one message-passing
/// iteration pushes through a GRU (see [`gru_rows`]). Megabatching pays off
/// by amortizing binds and fattening matmuls, but the tape keeps every
/// step's activations resident, so packs that outgrow the cache lose more
/// than they gain — and what fills the cache is the work a pass holds, which
/// at equal path count doubles from 2-hop NSFNET paths to 4-hop ISP paths.
/// Small samples (toy topologies) batch up by the dozen, NSFNET samples
/// (~840 rows) in pairs, GEANT2-sized and 250-node samples run singly.
const EVAL_ROW_BUDGET: usize = 2048;

/// Rows of `plan` that go through a GRU in one message-passing iteration:
/// every active (path, position) row of the schedule plus every entity state
/// row.
fn gru_rows(plan: &SamplePlan) -> usize {
    plan.schedule.active_rows_flat.len() + plan.num_links + plan.num_nodes + plan.num_queues
}

/// Greedy size-aware chunking: consecutive plans packed while the GRU-row
/// budget holds (every chunk gets at least one plan).
fn eval_chunks(plans: &[SamplePlan]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < plans.len() {
        let mut end = start + 1;
        let mut rows = gru_rows(&plans[start]);
        while end < plans.len() && rows + gru_rows(&plans[end]) <= EVAL_ROW_BUDGET {
            rows += gru_rows(&plans[end]);
            end += 1;
        }
        ranges.push((start, end));
        start = end;
    }
    ranges
}

/// Evaluate a trained model over a dataset: plan every sample (in parallel),
/// predict in fused megabatches packed by `eval_chunks` (greedy, up to
/// `EVAL_ROW_BUDGET` GRU rows each), collect reliable paths, compute the
/// relative-error report.
pub fn evaluate<M: PathPredictor>(
    model: &M,
    dataset: &Dataset,
    dataset_name: &str,
    min_packets: u64,
) -> EvalReport {
    let plans: Vec<SamplePlan> = dataset
        .samples
        .par_iter()
        .map(|sample| {
            let mut plan = model.plan(sample);
            // Respect the caller's reliability threshold even if it differs
            // from the model's default plan config.
            plan.reliable_idx = sample
                .targets
                .iter()
                .enumerate()
                .filter(|(_, t)| t.is_reliable(min_packets) && t.mean_delay_s > 0.0)
                .map(|(i, _)| i)
                .collect();
            plan.reliable_shared = std::sync::OnceLock::new();
            plan
        })
        .collect();
    let pairs = collect_predictions(model, &plans);
    let (preds, targets): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
    EvalReport::from_predictions(model.name(), dataset_name, &preds, &targets)
}

/// Evaluate raw `(prediction, target)` pairs from a non-learned baseline.
pub fn evaluate_baseline(name: &str, dataset_name: &str, pairs: &[(f64, f64)]) -> EvalReport {
    let (preds, targets): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    EvalReport::from_predictions(name, dataset_name, &preds, &targets)
}

/// Plan-level prediction collection — exposed for harnesses that already
/// built plans (avoids re-planning in ablation sweeps). Runs the fused
/// megabatch inference path: workers pack size-aware chunks (see
/// `eval_chunks`) into block-diagonal forward passes on pooled tapes;
/// each chunk is composed once (`build_megabatch`) and run. One-shot
/// evaluation has no recurring batch shapes, so nothing is cached or
/// refilled here; the trainer keeps the compositions of its fixed batches
/// and validation chunks itself.
pub fn collect_predictions<M: PathPredictor>(model: &M, plans: &[SamplePlan]) -> Vec<(f64, f64)> {
    let tape_pool = rn_autograd::TapePool::new();
    eval_chunks(plans)
        .par_iter()
        .flat_map_iter(|&(start, end)| {
            let chunk: Vec<&SamplePlan> = plans[start..end].iter().collect();
            let mut tape = tape_pool.acquire();
            let batch_preds = model.predict_batch_with(&mut tape, &chunk);
            tape_pool.release(tape);
            chunk
                .iter()
                .zip(batch_preds)
                .flat_map(|(plan, preds)| {
                    plan.reliable_idx
                        .iter()
                        .map(|&i| (preds[i], plan.targets_raw[i]))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions_give_zero_errors() {
        let t = [0.1, 0.2, 0.3];
        let r = EvalReport::from_predictions("m", "d", &t, &t);
        assert_eq!(r.mae_s, 0.0);
        assert_eq!(r.rmse_s, 0.0);
        assert!(r.rel_errors.iter().all(|&e| e == 0.0));
        assert_eq!(r.median_abs_rel(), 0.0);
    }

    #[test]
    fn signed_errors_keep_direction() {
        let r = EvalReport::from_predictions("m", "d", &[0.2, 0.05], &[0.1, 0.1]);
        assert!(
            (r.rel_errors[0] - 1.0).abs() < 1e-12,
            "overprediction is +100%"
        );
        assert!(
            (r.rel_errors[1] + 0.5).abs() < 1e-12,
            "underprediction is -50%"
        );
    }

    #[test]
    fn cdf_series_is_monotone() {
        let preds = [0.11, 0.19, 0.33, 0.09, 0.52];
        let targets = [0.1, 0.2, 0.3, 0.1, 0.5];
        let r = EvalReport::from_predictions("m", "d", &preds, &targets);
        let xs: Vec<f64> = (-10..=10).map(|i| i as f64 / 10.0).collect();
        let series = r.cdf_series_at(&xs);
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn better_model_has_smaller_median() {
        let targets = [0.1, 0.2, 0.3, 0.4];
        let good: Vec<f64> = targets.iter().map(|t| t * 1.05).collect();
        let bad: Vec<f64> = targets.iter().map(|t| t * 1.8).collect();
        let rg = EvalReport::from_predictions("good", "d", &good, &targets);
        let rb = EvalReport::from_predictions("bad", "d", &bad, &targets);
        assert!(rg.median_abs_rel() < rb.median_abs_rel());
    }

    #[test]
    fn summary_line_mentions_model_and_dataset() {
        let r = EvalReport::from_predictions("extended", "nsfnet", &[0.1], &[0.1]);
        let line = r.summary_line();
        assert!(line.contains("extended") && line.contains("nsfnet"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_rejected() {
        let _ = EvalReport::from_predictions("m", "d", &[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn empty_input_yields_empty_report() {
        let r = EvalReport::from_predictions("m", "d", &[], &[]);
        assert_eq!(r.num_paths(), 0);
        assert_eq!(r.mae_s, 0.0);
        assert_eq!(r.rmse_s, 0.0);
        assert_eq!(r.median_abs_rel(), 0.0);
        assert!(r.summary_line().contains('m'));
    }

    #[test]
    fn chunks_pack_by_gru_rows_and_cover_every_plan_once() {
        use crate::config::ModelConfig;
        use crate::model::ExtendedRouteNet;
        use rn_dataset::{generate, GeneratorConfig};
        use rn_netsim::SimConfig;
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 20.0,
                warmup_s: 2.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        };
        let ds = generate(&rn_netgraph::topologies::toy5(), &config, 5, 3);
        let model = ExtendedRouteNet::new(ModelConfig::default());
        let small: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
        // toy5, full mesh: 20 paths over 12 links and 5 nodes.
        let rows = gru_rows(&small[0]);
        assert_eq!(rows, small[0].schedule.active_rows_flat.len() + 12 + 5);
        let fit = EVAL_ROW_BUDGET / rows;
        assert!(fit >= 2, "toy samples batch up");
        let plans: Vec<SamplePlan> = small.iter().cycle().take(2 * fit + 1).cloned().collect();
        let chunks = eval_chunks(&plans);
        assert_eq!(chunks, [(0, fit), (fit, 2 * fit), (2 * fit, 2 * fit + 1)]);
        // A plan over the budget still gets a pass of its own.
        let parts: Vec<&SamplePlan> = plans.iter().take(fit + 1).collect();
        let big = crate::entities::build_megabatch(&parts).plan;
        assert!(gru_rows(&big) > EVAL_ROW_BUDGET);
        let mixed = [small[0].clone(), big, small[1].clone()];
        assert_eq!(eval_chunks(&mixed), [(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn evaluate_handles_empty_dataset() {
        use crate::config::ModelConfig;
        use crate::model::ExtendedRouteNet;
        let topo = rn_netgraph::topologies::toy5();
        let ds = rn_dataset::Dataset {
            topology: topo,
            samples: Vec::new(),
        };
        let model = ExtendedRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 1,
            readout_hidden: 8,
            ..ModelConfig::default()
        });
        let report = evaluate(&model, &ds, "empty", 5);
        assert_eq!(report.num_paths(), 0);
    }
}
