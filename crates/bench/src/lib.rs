//! # rn-bench
//!
//! The experiment harness: shared infrastructure for the binaries that
//! regenerate the paper's figures and record its accuracy claim.
//! Performance is measured by the end-to-end benchmark in `benchmark/`, not
//! here.
//!
//! ## Binaries
//!
//! | binary | artifact |
//! |--------|----------|
//! | `figure1` | machine-generated trace of the extended message-passing schedule (paper Figure 1) |
//! | `figure2` | the accuracy harness: the paper's comparison (extended vs. original RouteNet, trained on GEANT2, evaluated on GEANT2 and unseen NSFNET), the M/M/1/K oracle, the ablations (iterations `T`, state width, training-set size, jitter target) and the extended model on generated 100 / 250 / 500 / 2 000-node ISP topologies with the process's peak RSS after each, on three seeds, written to `BENCH_accuracy.json` and guarded against the committed file ([`accuracy`]); prints the Figure 2 CDF table for the first seed |
//!
//! ## Budget
//!
//! The paper trains on 400k samples; the budget here
//! ([`ExperimentConfig::default`]) is the one `BENCH_accuracy.json`
//! records, about half a minute per seed on two cores. Changing it is a code
//! edit that re-records the ledger. `RN_CACHE_DIR` controls where generated
//! datasets are cached (default `target/rn-dataset-cache`).

pub mod accuracy;

use rn_dataset::{generate, Dataset, GeneratorConfig, TrafficModel};
use rn_netgraph::{topologies, Topology};
use rn_netsim::SimConfig;
use routenet::plan_cache::Fingerprint;
use routenet::{ModelConfig, TrainConfig};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

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

/// The shared experiment configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// The budget `BENCH_accuracy.json` records: a bare `figure2` run
/// reproduces the committed file.
impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            train_samples: 96,
            eval_samples: 16,
            epochs: 12,
            state_dim: 16,
            mp_iterations: 4,
            sim_duration_s: 300.0,
            seed: 2019,
        }
    }
}

impl ExperimentConfig {
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

/// The cache file of one dataset under `dir`. The name carries topology,
/// label, count, horizon and seed for the reader, and an FNV hash of the
/// whole topology and generator configuration, so a change to either (a
/// link capacity, the traffic model, the intensity range, queue choices, …)
/// names a new file instead of reusing samples the code no longer
/// generates.
pub fn cache_path(
    dir: &Path,
    topo: &Topology,
    config: &GeneratorConfig,
    master_seed: u64,
    count: usize,
    label: &str,
) -> PathBuf {
    let topo_json = serde_json::to_string(topo).expect("a topology serializes");
    let config_json = serde_json::to_string(config).expect("a generator config serializes");
    let hash = (Fingerprint::new().bytes(topo_json.as_bytes()))
        .bytes(config_json.as_bytes())
        .finish();
    dir.join(format!(
        "{}_{label}_{count}x{}s_seed{master_seed}_{hash:016x}.jsonl",
        topo.name, config.sim.duration_s as u64
    ))
}

/// Generate (or load from cache) a dataset for a canonical topology.
///
/// The cache key is [`cache_path`]'s, so changing the topology or any
/// budget or generator setting regenerates. `label` distinguishes train/eval streams drawn from
/// different master seeds.
pub fn cached_dataset(
    topo: &Topology,
    config: &GeneratorConfig,
    master_seed: u64,
    count: usize,
    label: &str,
) -> Dataset {
    let dir = cache_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = cache_path(&dir, topo, config, master_seed, count, label);
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

/// Where a `BENCH_*.json` report lives: `BENCH_OUT_DIR` when set, else the
/// workspace root.
pub fn report_path(file: &str) -> PathBuf {
    std::env::var("BENCH_OUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .join(file)
}

/// The two topologies of the paper's evaluation.
pub fn paper_topologies() -> (Topology, Topology) {
    (topologies::geant2_default(), topologies::nsfnet_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_path_follows_the_generator_config() {
        let (geant2, _) = paper_topologies();
        let dir = Path::new("cache");
        let config = ExperimentConfig::default().generator();
        let path = |c: &GeneratorConfig| cache_path(dir, &geant2, c, 7, 16, "eval");
        assert_eq!(path(&config), path(&config.clone()));
        let TrafficModel::AbsoluteRates {
            rate_range_bps,
            intensity_range: (low, high),
        } = config.traffic_model.clone()
        else {
            panic!("the experiments draw absolute rates");
        };
        let wider = GeneratorConfig {
            traffic_model: TrafficModel::AbsoluteRates {
                rate_range_bps,
                intensity_range: (low, high + 0.5),
            },
            ..config.clone()
        };
        assert_ne!(path(&config), path(&wider));
    }

    #[test]
    fn cache_path_follows_the_topology_not_only_its_name() {
        let (geant2, _) = paper_topologies();
        let mut edited = geant2.clone();
        edited.set_link_capacity(0, 2.0 * geant2.links()[0].capacity_bps);
        assert_eq!(edited.name, geant2.name);
        let config = ExperimentConfig::default().generator();
        let path = |t: &Topology| cache_path(Path::new("cache"), t, &config, 7, 16, "eval");
        assert_eq!(path(&geant2), path(&geant2.clone()));
        assert_ne!(path(&geant2), path(&edited));
    }

    #[test]
    fn experiment_config_is_consistent() {
        let c = ExperimentConfig::default();
        c.generator().validate().unwrap();
        c.model().validate().unwrap();
        assert!(c.training().epochs > 0);
    }
}
