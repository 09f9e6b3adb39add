//! `BENCH_accuracy.json`: the paper's claim as a recorded, guarded number.
//!
//! `figure2` trains every row on three seeds (`RN_SEED`, `+ 1`, `+ 2`) at
//! one budget and writes a [`Ledger`]: per (row, seed), median / p90 |rel|
//! and MAE on GEANT2 and unseen NSFNET; per headline (model, topology), the
//! three-seed median with its min and max; per (seed, topology), the
//! original-minus-extended gap in median |rel|. [`check`] holds a fresh
//! ledger to the committed one:
//!
//! - on every seed the extended model beats the original on GEANT2 and, at
//!   the committed budget, by at least the committed floor (half the
//!   smallest GEANT2 gap it recorded);
//! - at the committed budget, no headline three-seed median is worse than
//!   the committed one by more than that headline's recorded min–max spread.
//!
//! NSFNET ordering is recorded per seed (`holds`) and never fails the run:
//! on some seeds the original model wins there.

use crate::ExperimentConfig;
use routenet::EvalReport;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The two evaluation topologies, in the order rows store them.
pub const TOPOLOGIES: [&str; 2] = ["geant2", "nsfnet"];

/// Every row group a ledger holds on every seed. `extended`, `original` and
/// `oracle` (the M/M/1/K decomposition) are the headline rows; each other
/// group varies one setting of the extended model (`train_samples_original`:
/// of the original), a swept value in [`Row::value`].
pub const GROUPS: [&str; 8] = [
    "extended",
    "original",
    "oracle",
    "mp_iterations",
    "state_dim",
    "train_samples_extended",
    "train_samples_original",
    "jitter",
];

/// The rows whose three-seed medians [`check`] guards.
pub const HEADLINE_GROUPS: [&str; 3] = ["extended", "original", "oracle"];

/// Accuracy of one model on one evaluation set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metrics {
    /// Paths with reliable labels that were evaluated.
    pub paths: usize,
    /// Median |relative error|.
    pub median: f64,
    /// 90th percentile of |relative error|.
    pub p90: f64,
    /// Mean absolute error, seconds.
    pub mae_s: f64,
}

impl Metrics {
    /// The ledger's columns of an evaluation report.
    pub fn of(report: &EvalReport) -> Self {
        Self {
            paths: report.num_paths(),
            median: report.abs_rel_summary.median,
            p90: report.abs_rel_summary.p90,
            mae_s: report.mae_s,
        }
    }
}

/// One model variant trained on one seed, evaluated on both topologies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// One of [`GROUPS`].
    pub group: String,
    /// The swept value (`T`, state width, training samples); 0 in groups
    /// that sweep nothing.
    pub value: usize,
    /// Seed of the datasets and the weights.
    pub seed: u64,
    /// On held-out GEANT2 (the training topology).
    pub geant2: Metrics,
    /// On NSFNET, which the model never saw.
    pub nsfnet: Metrics,
}

impl Row {
    /// The metrics on `topology` (one of [`TOPOLOGIES`]).
    pub fn on(&self, topology: &str) -> &Metrics {
        match topology {
            "geant2" => &self.geant2,
            "nsfnet" => &self.nsfnet,
            other => panic!("no evaluation set {other}"),
        }
    }
}

/// A headline row's median |rel| across the seeds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Headline {
    /// One of [`HEADLINE_GROUPS`].
    pub model: String,
    /// One of [`TOPOLOGIES`].
    pub topology: String,
    /// Median over the (odd number of) seeds of the per-seed median |rel|.
    pub median: f64,
    /// Smallest per-seed median |rel|.
    pub min: f64,
    /// Largest per-seed median |rel|.
    pub max: f64,
}

/// The paper's claim on one seed and topology.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Gap {
    /// The seed.
    pub seed: u64,
    /// One of [`TOPOLOGIES`].
    pub topology: String,
    /// Original minus extended median |rel|: positive when the extended
    /// model wins.
    pub gap: f64,
    /// `gap > 0`.
    pub holds: bool,
}

/// A variant measured before it was deleted, and why it went. Carried from
/// the committed file into every new one: the code that produced these rows
/// is gone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decided {
    /// The variant, as the code named it.
    pub variant: String,
    /// The commit its rows were measured at (the ledger's budget).
    pub commit: String,
    /// What the rows decided.
    pub verdict: String,
    /// Its rows, one per seed.
    pub rows: Vec<Row>,
}

/// The whole `BENCH_accuracy.json` as it is read: the rows and what they
/// ran at. The file also holds the summaries ([`Ledger::headline`],
/// [`Ledger::gaps`], [`Ledger::gap_floor`]) for its reader; they follow from
/// the rows, so [`Ledger::save`] recomputes them and [`Ledger::load`] skips
/// them.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Ledger {
    /// `git describe --always --dirty` of the tree that ran.
    pub commit: String,
    /// The budget every row ran at.
    pub budget: ExperimentConfig,
    /// The seeds every row ran on.
    pub seeds: Vec<u64>,
    /// Every (row, seed): every group of [`GROUPS`] on every seed, at least
    /// the headline ones.
    pub rows: Vec<Row>,
    /// Variants deleted on the strength of their rows.
    pub decided: Vec<Decided>,
}

/// The file [`Ledger::save`] writes: the ledger with its summaries.
#[derive(Serialize)]
struct LedgerFile {
    commit: String,
    budget: ExperimentConfig,
    seeds: Vec<u64>,
    gap_floor: f64,
    headline: Vec<Headline>,
    gaps: Vec<Gap>,
    rows: Vec<Row>,
    decided: Vec<Decided>,
}

impl Ledger {
    /// Three-seed medians of the headline rows, in [`HEADLINE_GROUPS`] ×
    /// [`TOPOLOGIES`] order.
    pub fn headline(&self) -> Vec<Headline> {
        let mut headline = Vec::new();
        for model in HEADLINE_GROUPS {
            for topology in TOPOLOGIES {
                let mut medians: Vec<f64> = (self.seeds.iter())
                    .map(|&seed| self.metrics(model, seed, topology).median)
                    .collect();
                medians.sort_by(f64::total_cmp);
                headline.push(Headline {
                    model: model.into(),
                    topology: topology.into(),
                    median: medians[medians.len() / 2],
                    min: medians[0],
                    max: medians[medians.len() - 1],
                });
            }
        }
        headline
    }

    /// Original-minus-extended gap per seed and topology.
    pub fn gaps(&self) -> Vec<Gap> {
        let mut gaps = Vec::new();
        for &seed in &self.seeds {
            for topology in TOPOLOGIES {
                let gap = self.metrics("original", seed, topology).median
                    - self.metrics("extended", seed, topology).median;
                gaps.push(Gap {
                    seed,
                    topology: topology.into(),
                    gap,
                    holds: gap > 0.0,
                });
            }
        }
        gaps
    }

    /// Half the smallest GEANT2 gap: the least margin a later run at the
    /// same budget must keep on every seed.
    pub fn gap_floor(&self) -> f64 {
        let geant2 = self.gaps().into_iter().filter(|g| g.topology == "geant2");
        0.5 * geant2.map(|g| g.gap).fold(f64::INFINITY, f64::min)
    }

    fn metrics(&self, group: &str, seed: u64, topology: &str) -> &Metrics {
        let row = self
            .rows
            .iter()
            .find(|r| r.group == group && r.seed == seed);
        row.unwrap_or_else(|| panic!("no {group} row on seed {seed}"))
            .on(topology)
    }

    /// Read a ledger file.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
    }

    /// Write the ledger and its summaries, one JSON line.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let file = LedgerFile {
            commit: self.commit.clone(),
            budget: self.budget.clone(),
            seeds: self.seeds.clone(),
            gap_floor: self.gap_floor(),
            headline: self.headline(),
            gaps: self.gaps(),
            rows: self.rows.clone(),
            decided: self.decided.clone(),
        };
        let text = serde_json::to_string(&file).map_err(|e| format!("serialize: {e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Why `fresh` must not replace `committed`; empty when it may. See the
/// module docs for the two rules. The extended model must beat the original
/// on GEANT2 on every seed at any budget; the floor and the headline medians
/// are compared only when both budgets are equal, since a number at another
/// budget is another quantity.
pub fn check(committed: Option<&Ledger>, fresh: &Ledger) -> Vec<String> {
    let committed = committed.filter(|c| c.budget == fresh.budget);
    let floor = committed.map_or(f64::NEG_INFINITY, Ledger::gap_floor);
    let mut failures = Vec::new();
    for gap in fresh.gaps().iter().filter(|g| g.topology == "geant2") {
        if !gap.holds {
            failures.push(format!(
                "seed {}: the extended model does not beat the original on GEANT2 \
                 (original minus extended median |rel| = {:.4})",
                gap.seed, gap.gap
            ));
        } else if gap.gap < floor {
            failures.push(format!(
                "seed {}: the GEANT2 gap {:.4} is below the recorded floor {floor:.4}",
                gap.seed, gap.gap
            ));
        }
    }
    let Some(committed) = committed else {
        return failures;
    };
    let fresh_headline = fresh.headline();
    for old in committed.headline() {
        let new = (fresh_headline.iter())
            .find(|h| h.model == old.model && h.topology == old.topology)
            .map_or(f64::NAN, |h| h.median);
        let spread = old.max - old.min;
        let worse_by = new - old.median;
        if worse_by.is_nan() || worse_by > spread {
            failures.push(format!(
                "{} on {}: the three-seed median |rel| went {:.4} -> {new:.4}, \
                 worse by more than the recorded seed spread {spread:.4}",
                old.model, old.topology, old.median
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(median: f64) -> Metrics {
        Metrics {
            paths: 100,
            median,
            p90: 2.0 * median,
            mae_s: 0.1,
        }
    }

    /// A ledger whose headline rows have the given per-seed GEANT2 medians
    /// (NSFNET the same plus 0.01).
    fn ledger(budget: ExperimentConfig, extended: [f64; 3], original: [f64; 3]) -> Ledger {
        let seeds = vec![1, 2, 3];
        let mut rows = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            for (group, median) in [
                ("extended", extended[i]),
                ("original", original[i]),
                ("oracle", 0.1),
            ] {
                rows.push(Row {
                    group: group.into(),
                    value: 0,
                    seed,
                    geant2: metrics(median),
                    nsfnet: metrics(median + 0.01),
                });
            }
        }
        Ledger {
            commit: "test".into(),
            budget,
            seeds,
            rows,
            decided: Vec::new(),
        }
    }

    #[test]
    fn summaries_are_the_seed_median_spread_and_gaps() {
        let l = ledger(
            ExperimentConfig::default(),
            [0.3, 0.2, 0.25],
            [0.6, 0.5, 0.55],
        );
        let ext = &l.headline()[0];
        assert_eq!(
            (ext.model.as_str(), ext.topology.as_str()),
            ("extended", "geant2")
        );
        assert_eq!((ext.median, ext.min, ext.max), (0.25, 0.2, 0.3));
        let gaps = l.gaps();
        assert_eq!(gaps.len(), 6);
        assert!(gaps.iter().all(|g| g.holds));
        assert!((l.gap_floor() - 0.15).abs() < 1e-12, "{}", l.gap_floor());
    }

    #[test]
    fn the_file_holds_the_summaries_and_reads_back_as_the_rows() {
        let l = ledger(
            ExperimentConfig::default(),
            [0.3, 0.2, 0.25],
            [0.6, 0.5, 0.55],
        );
        let path = std::env::temp_dir().join(format!("rn_ledger_{}.json", std::process::id()));
        l.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let back = Ledger::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for key in ["\"gap_floor\":0.15", "\"headline\":", "\"gaps\":"] {
            assert!(text.contains(key), "{key} missing from {text}");
        }
        assert_eq!(back, l);
    }

    #[test]
    fn the_guard_fails_each_broken_rule_and_compares_only_equal_budgets() {
        let budget = ExperimentConfig::default();
        let committed = ledger(budget.clone(), [0.2, 0.3, 0.25], [0.6, 0.5, 0.55]);

        // Within the spread (0.1): passes.
        let fresh = ledger(budget.clone(), [0.3, 0.3, 0.34], [0.6, 0.6, 0.6]);
        assert!(check(Some(&committed), &fresh).is_empty());

        // A headline median worse than the recorded spread.
        let worse = ledger(budget.clone(), [0.36, 0.36, 0.36], [0.6, 0.5, 0.55]);
        let failures = check(Some(&committed), &worse);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(
            failures.iter().all(|f| f.contains("seed spread")),
            "{failures:?}"
        );

        // A GEANT2 inversion on one seed.
        let inverted = ledger(budget.clone(), [0.2, 0.3, 0.25], [0.6, 0.29, 0.55]);
        let failures = check(Some(&committed), &inverted);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("seed 2") && failures[0].contains("does not beat"));

        // A gap below the committed floor (0.1), ordering intact.
        let narrow = [[0.2, 0.3, 0.25], [0.6, 0.35, 0.55]];
        let failures = check(
            Some(&committed),
            &ledger(budget.clone(), narrow[0], narrow[1]),
        );
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("below the recorded floor"));

        // Another budget, or no committed file: neither the medians nor the
        // floor are compared, the ordering still is.
        let other = ExperimentConfig {
            epochs: 3,
            ..budget
        };
        for committed in [Some(&committed), None] {
            let worse_and_narrow = ledger(other.clone(), [0.36, 0.36, 0.36], [0.9, 0.4, 0.9]);
            assert!(check(committed, &worse_and_narrow).is_empty());
            let inverted = ledger(other.clone(), [0.36; 3], [0.3; 3]);
            assert_eq!(check(committed, &inverted).len(), 3);
        }
    }
}
