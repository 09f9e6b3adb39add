//! # rn-bench
//!
//! The experiment harness: shared infrastructure for the binaries that
//! regenerate every figure of the paper (and the ablations beyond it) and
//! for the `scaling` run. Performance is measured by the end-to-end
//! benchmark in `benchmark/`, not here.
//!
//! ## Binaries
//!
//! | binary | artifact |
//! |--------|----------|
//! | `figure1` | machine-generated trace of the extended message-passing schedule (paper Figure 1) |
//! | `figure2` | CDF of delay relative error, 4 curves: {extended, original} × {GEANT2, NSFNET}, trained on GEANT2 only (paper Figure 2) + summary table (E3) |
//! | `ablation_iterations` | accuracy vs. message-passing iterations T (E4) |
//! | `ablation_node_update` | positional messages vs. final-path-state sum (E5) |
//! | `baseline_qtheory` | M/M/1/K analytical baseline vs. both RouteNets (E6) |
//! | `ablation_hidden_dim` | accuracy vs. state dimensionality (E7) |
//! | `sample_efficiency` | accuracy vs. training-set size (E8) |
//! | `scaling` | train on GEANT2, evaluate on generated 100/250/500-node ISP topologies (`BENCH_scaling.json`) |
//!
//! ## Scaling knobs
//!
//! The paper trains on 400k samples; the defaults here are sized for a
//! laptop-minutes run. Override with environment variables:
//! `RN_TRAIN_SAMPLES`, `RN_EVAL_SAMPLES`, `RN_EPOCHS`, `RN_STATE_DIM`,
//! `RN_MP_ITERS`, `RN_SIM_DURATION_S`, `RN_SEED`. `RN_CACHE_DIR` controls
//! where generated datasets are cached (default `target/rn-dataset-cache`).

use rn_dataset::{generate, Dataset, GeneratorConfig, TrafficModel};
use rn_netgraph::{topologies, Topology};
use rn_netsim::SimConfig;
use routenet::{ModelConfig, TrainConfig};
use std::path::PathBuf;
use std::str::FromStr;

/// Read an experiment knob from the environment; `default` when it is
/// unset or does not parse as `T`.
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The process's high-water resident set (`VmHWM` in `/proc/self/status`),
/// MB; 0.0 where procfs does not say, so reports stay well-formed.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The shared experiment configuration, resolved from env + defaults.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Training samples (GEANT2).
    pub train_samples: usize,
    /// Evaluation samples per topology.
    pub eval_samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Entity state width.
    pub state_dim: usize,
    /// Message-passing iterations.
    pub mp_iterations: usize,
    /// Simulated horizon per sample (seconds).
    pub sim_duration_s: f64,
    /// Master seed for datasets and weights.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Resolve from environment variables, falling back to defaults sized for
    /// a small CPU box (~minutes per figure).
    pub fn from_env() -> Self {
        Self {
            train_samples: env_or("RN_TRAIN_SAMPLES", 320),
            eval_samples: env_or("RN_EVAL_SAMPLES", 48),
            epochs: env_or("RN_EPOCHS", 16),
            state_dim: env_or("RN_STATE_DIM", 16),
            mp_iterations: env_or("RN_MP_ITERS", 4),
            sim_duration_s: env_or("RN_SIM_DURATION_S", 1_200.0),
            seed: env_or("RN_SEED", 2019),
        }
    }

    /// The generator configuration used by every experiment.
    ///
    /// Traffic uses [`TrafficModel::AbsoluteRates`]: per-pair rates come from
    /// one absolute range regardless of topology (the KDN-dataset approach),
    /// so a model trained on GEANT2 sees in-distribution rate features on
    /// NSFNET — the precondition of the paper's generalization experiment.
    /// The intensity range is tuned so GEANT2 samples span moderate-to-
    /// overloaded regimes where queue size matters.
    pub fn generator(&self) -> GeneratorConfig {
        GeneratorConfig {
            sim: SimConfig {
                duration_s: self.sim_duration_s,
                warmup_s: self.sim_duration_s * 0.1,
                ..SimConfig::default()
            },
            // The wide intensity range makes the *union* of load regimes
            // overlap across topologies: GEANT2 (≈24 flows/link) is loaded
            // already at low intensity, NSFNET (≈10 flows/link) needs the
            // upper half of the range to develop queueing. Both draw from
            // the same distribution, so no feature is out-of-distribution.
            traffic_model: TrafficModel::AbsoluteRates {
                rate_range_bps: (50.0, 500.0),
                intensity_range: (0.4, 3.0),
            },
            ..GeneratorConfig::default()
        }
    }

    /// Model configuration derived from the experiment knobs.
    pub fn model(&self) -> ModelConfig {
        ModelConfig {
            state_dim: self.state_dim,
            mp_iterations: self.mp_iterations,
            readout_hidden: 2 * self.state_dim,
            seed: self.seed,
            ..ModelConfig::default()
        }
    }

    /// Training configuration derived from the experiment knobs.
    pub fn training(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: 8,
            learning_rate: 1e-3,
            seed: self.seed,
            verbose: true,
            // Step-decay in the last third stabilizes the fine-grained
            // queue-size corrections the extended model learns late.
            lr_halve_epochs: vec![(self.epochs * 2) / 3],
            ..TrainConfig::default()
        }
    }
}

/// Where cached datasets live.
pub fn cache_dir() -> PathBuf {
    std::env::var("RN_CACHE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/rn-dataset-cache"))
}

/// Generate (or load from cache) a dataset for a canonical topology.
///
/// The cache key includes topology, sample count, simulation horizon and
/// seed, so changing any knob regenerates. `label` distinguishes train/eval
/// streams drawn from different master seeds.
pub fn cached_dataset(
    topo: &Topology,
    config: &GeneratorConfig,
    master_seed: u64,
    count: usize,
    label: &str,
) -> Dataset {
    let dir = cache_dir();
    std::fs::create_dir_all(&dir).ok();
    let key = format!(
        "{}_{label}_{count}x{}s_seed{master_seed}.jsonl",
        topo.name, config.sim.duration_s as u64
    );
    let path = dir.join(key);
    if path.exists() {
        match rn_dataset::io::load_jsonl(&path) {
            Ok(ds) if ds.len() == count => {
                eprintln!("[data] loaded {} samples from {}", ds.len(), path.display());
                return ds;
            }
            _ => eprintln!("[data] cache at {} is stale, regenerating", path.display()),
        }
    }
    eprintln!("[data] generating {count} samples on {} ...", topo.name);
    let t0 = std::time::Instant::now();
    let ds = generate(topo, config, master_seed, count);
    eprintln!("[data] generated in {:.1}s", t0.elapsed().as_secs_f64());
    if let Err(e) = rn_dataset::io::save_jsonl(&ds, &path) {
        eprintln!("[data] warning: failed to cache dataset: {e}");
    }
    ds
}

/// The two topologies of the paper's evaluation.
pub fn paper_topologies() -> (Topology, Topology) {
    (topologies::geant2_default(), topologies::nsfnet_default())
}

/// Render an `(x, F(x))` CDF series as an aligned text table, one row per x.
pub fn render_cdf_table(header: &[&str], xs: &[f64], series: &[Vec<(f64, f64)>]) -> String {
    assert_eq!(
        header.len(),
        series.len() + 1,
        "one header per series plus the x column"
    );
    let mut out = String::new();
    out.push_str(
        &header
            .iter()
            .map(|h| format!("{h:>22}"))
            .collect::<Vec<_>>()
            .join(""),
    );
    out.push('\n');
    for (i, &x) in xs.iter().enumerate() {
        out.push_str(&format!("{x:>22.3}"));
        for s in series {
            out.push_str(&format!("{:>22.4}", s[i].1));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_falls_back() {
        std::env::remove_var("RN_TEST_KNOB_X");
        assert_eq!(env_or::<usize>("RN_TEST_KNOB_X", 7), 7);
        std::env::set_var("RN_TEST_KNOB_X", "13");
        assert_eq!(env_or::<usize>("RN_TEST_KNOB_X", 7), 13);
        std::env::set_var("RN_TEST_KNOB_X", "not a number");
        assert_eq!(env_or::<usize>("RN_TEST_KNOB_X", 7), 7);
        std::env::remove_var("RN_TEST_KNOB_X");
    }

    #[test]
    fn experiment_config_is_consistent() {
        let c = ExperimentConfig::from_env();
        c.generator().validate().unwrap();
        c.model().validate().unwrap();
        assert!(c.training().epochs > 0);
    }

    #[test]
    fn cdf_table_renders_all_series() {
        let xs = vec![-0.5, 0.0, 0.5];
        let mk = |off: f64| {
            xs.iter()
                .map(|&x| (x, (x + off).clamp(0.0, 1.0)))
                .collect::<Vec<_>>()
        };
        let table = render_cdf_table(&["relerr", "a", "b"], &xs, &[mk(0.5), mk(0.6)]);
        assert_eq!(table.lines().count(), 4);
        assert!(table.contains("relerr"));
    }
}
