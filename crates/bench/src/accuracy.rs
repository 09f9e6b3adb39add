//! `BENCH_accuracy.json`: the paper's claim as a recorded, guarded number.
//!
//! `figure2` trains every row on three seeds (the budget's seed, `+ 1`,
//! `+ 2`) at one budget and writes a [`Ledger`]: per (row, seed), median /
//! p90 |rel| and MAE on GEANT2 and unseen NSFNET; per headline (model,
//! topology), the three-seed median with its min and max; per (seed,
//! topology), the original-minus-extended gap in median |rel|; per (seed,
//! size of [`SIZES`]), the extended model on a generated ISP topology of
//! that size, with its cost per path and the process's peak RSS after it.
//! [`check`] holds a fresh ledger to the committed one:
//!
//! - on every seed the extended model beats the original on GEANT2 and, at
//!   the committed budget, by at least the committed floor. The floor is
//!   set once per budget — half the smallest GEANT2 gap of the first ledger
//!   recorded at it — and carried forward by every later ledger at that
//!   budget, so re-recording does not move the bar by initialization noise;
//! - at the committed budget, no headline three-seed median is worse than
//!   the committed one by more than that headline's recorded min–max spread;
//! - at any budget, no size row's peak RSS exceeds [`RSS_BUDGET_MB`].
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

/// Node counts of the generated ISP topologies every seed's extended model
/// is evaluated on ([`SizeRow`]).
pub const SIZES: [usize; 4] = [100, 250, 500, 2000];

/// The most a size row's [`SizeRow::peak_rss_mb`] may read. Routing and
/// traffic tables dense in `n²` peaked at 385 MB after the 2 000-node row.
pub const RSS_BUDGET_MB: f64 = 192.0;

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

/// The extended model of one seed on a generated ISP topology far larger
/// than the GEANT2 graph it was trained on, at a fixed number of routed
/// pairs so the cost per path isolates the cost of topology size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SizeRow {
    /// Seed of the trained model.
    pub seed: u64,
    /// Nodes in the evaluation topology, one of [`SIZES`].
    pub nodes: usize,
    /// Directed links in the evaluation topology.
    pub links: usize,
    /// Routed source/destination pairs per sample.
    pub pairs: usize,
    /// Evaluation samples.
    pub samples: usize,
    /// The extended model's accuracy over the samples' reliable paths.
    pub extended: Metrics,
    /// Wall time to simulate the samples, seconds.
    pub generate_s: f64,
    /// Wall time to plan and predict, per reliable path, microseconds.
    pub us_per_path: f64,
    /// The process's peak RSS (`VmHWM`) after this row, MB.
    pub peak_rss_mb: f64,
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

/// The whole `BENCH_accuracy.json` as it is read: the rows, what they ran
/// at and the gap floor. The file also holds the summaries
/// ([`Ledger::headline`], [`Ledger::gaps`]) for its reader; they follow from
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
    /// The least GEANT2 gap a later run at the same budget must keep on
    /// every seed: set by the first ledger at this budget, then carried
    /// forward (see [`Ledger::record`]).
    pub gap_floor: f64,
    /// Every (row, seed): every group of [`GROUPS`] on every seed, at least
    /// the headline ones.
    pub rows: Vec<Row>,
    /// Variants deleted on the strength of their rows.
    pub decided: Vec<Decided>,
    /// Every (seed, size of [`SIZES`]).
    pub sizes: Vec<SizeRow>,
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
    sizes: Vec<SizeRow>,
}

impl Ledger {
    /// The ledger of a fresh run. At the budget of the `committed` ledger
    /// it carries that ledger's gap floor; at a new budget, or with no
    /// committed ledger, the floor is [`Ledger::derived_gap_floor`] of the
    /// fresh rows. The committed ledger's [`Decided`] variants carry over.
    pub fn record(
        commit: String,
        budget: ExperimentConfig,
        seeds: Vec<u64>,
        rows: Vec<Row>,
        sizes: Vec<SizeRow>,
        committed: Option<&Ledger>,
    ) -> Self {
        let mut ledger = Ledger {
            commit,
            budget,
            seeds,
            gap_floor: f64::NAN,
            rows,
            decided: committed.map_or_else(Vec::new, |c| c.decided.clone()),
            sizes,
        };
        ledger.gap_floor = match committed.filter(|c| c.budget == ledger.budget) {
            Some(c) => c.gap_floor,
            None => ledger.derived_gap_floor(),
        };
        ledger
    }

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

    /// Half the smallest GEANT2 gap of these rows: the floor a ledger at a
    /// new budget sets.
    pub fn derived_gap_floor(&self) -> f64 {
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
        committed_ledger(path)?.ok_or_else(|| format!("read {}: no such file", path.display()))
    }

    /// Write the ledger and its summaries, one JSON line.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let file = LedgerFile {
            commit: self.commit.clone(),
            budget: self.budget.clone(),
            seeds: self.seeds.clone(),
            gap_floor: self.gap_floor,
            headline: self.headline(),
            gaps: self.gaps(),
            rows: self.rows.clone(),
            decided: self.decided.clone(),
            sizes: self.sizes.clone(),
        };
        let text = serde_json::to_string(&file).map_err(|e| format!("serialize: {e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Why `fresh` must not replace `committed`; empty when it may. See the
/// module docs for the rules. The extended model must beat the original on
/// GEANT2 on every seed, and every size row keep within [`RSS_BUDGET_MB`],
/// at any budget; the floor and the headline medians are compared only when
/// both budgets are equal, since a number at another budget is another
/// quantity.
pub fn check(committed: Option<&Ledger>, fresh: &Ledger) -> Vec<String> {
    let committed = committed.filter(|c| c.budget == fresh.budget);
    let floor = committed.map_or(f64::NEG_INFINITY, |c| c.gap_floor);
    let mut failures = Vec::new();
    for row in fresh.sizes.iter().filter(|r| r.peak_rss_mb > RSS_BUDGET_MB) {
        failures.push(format!(
            "seed {}, {} nodes: peak RSS {:.1} MB exceeds the {RSS_BUDGET_MB} MB budget",
            row.seed, row.nodes, row.peak_rss_mb
        ));
    }
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

/// The ledger a run compares with: `None` only when no file exists at
/// `path`. A file that exists but cannot be read or parsed — a field added
/// to [`Ledger`] that the file lacks, say — is an error naming the file,
/// never "no ledger": a run without it would drop the decided variants,
/// derive a new gap floor, skip the comparisons and overwrite the file.
pub fn committed_ledger(path: &Path) -> Result<Option<Ledger>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    serde_json::from_str(&text)
        .map(Some)
        .map_err(|e| format!("parse {}: {e}", path.display()))
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
    /// (NSFNET the same plus 0.01), and one 100 MB size row per seed.
    fn ledger(budget: ExperimentConfig, extended: [f64; 3], original: [f64; 3]) -> Ledger {
        let seeds = vec![1, 2, 3];
        let sizes = (seeds.iter())
            .map(|&seed| SizeRow {
                seed,
                nodes: 100,
                links: 296,
                pairs: 64,
                samples: 4,
                extended: metrics(0.5),
                generate_s: 0.01,
                us_per_path: 15.0,
                peak_rss_mb: 100.0,
            })
            .collect();
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
        Ledger::record("test".into(), budget, seeds, rows, sizes, None)
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
        assert!((l.gap_floor - 0.15).abs() < 1e-12, "{}", l.gap_floor);
        assert_eq!(l.gap_floor, l.derived_gap_floor(), "no committed ledger");
    }

    #[test]
    fn the_floor_is_carried_at_the_committed_budget_and_derived_at_a_new_one() {
        let budget = ExperimentConfig::default();
        let committed = ledger(budget.clone(), [0.2, 0.3, 0.25], [0.6, 0.5, 0.55]);
        assert!((committed.gap_floor - 0.1).abs() < 1e-12);
        // A same-budget re-record whose gaps all widened keeps the floor:
        // its own rows would derive 0.15.
        let (wide_ext, wide_orig) = ([0.2, 0.3, 0.25], [0.6, 0.6, 0.6]);
        let rows = ledger(budget.clone(), wide_ext, wide_orig).rows;
        let fresh = Ledger::record(
            "fresh".into(),
            budget.clone(),
            committed.seeds.clone(),
            rows.clone(),
            committed.sizes.clone(),
            Some(&committed),
        );
        assert!((fresh.derived_gap_floor() - 0.15).abs() < 1e-12);
        assert_eq!(fresh.gap_floor, committed.gap_floor);
        assert!(check(Some(&committed), &fresh).is_empty());
        // And it is the floor the file holds and a reader gets back.
        let path = std::env::temp_dir().join(format!("rn_floor_{}.json", std::process::id()));
        fresh.save(&path).unwrap();
        let back = Ledger::load(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(back.gap_floor, committed.gap_floor);
        // At another budget the fresh rows set the floor.
        let other = ExperimentConfig {
            epochs: 3,
            ..budget
        };
        let seeds = vec![1, 2, 3];
        let moved = Ledger::record("moved".into(), other, seeds, rows, vec![], Some(&committed));
        assert!((moved.gap_floor - 0.15).abs() < 1e-12);
    }

    #[test]
    fn only_a_missing_file_is_no_committed_ledger() {
        let dir = std::env::temp_dir();
        let missing = dir.join(format!("rn_no_ledger_{}.json", std::process::id()));
        assert_eq!(committed_ledger(&missing), Ok(None));

        // A ledger written before `sizes` existed: it does not parse, and
        // the error names the file.
        let l = ledger(
            ExperimentConfig::default(),
            [0.3, 0.2, 0.25],
            [0.6, 0.5, 0.55],
        );
        let path = dir.join(format!("rn_malformed_ledger_{}.json", std::process::id()));
        l.save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.find(",\"sizes\":").expect("sizes is the last field");
        std::fs::write(&path, format!("{}}}\n", &text[..cut])).unwrap();
        let err = committed_ledger(&path).expect_err("a ledger without sizes");
        std::fs::remove_file(&path).unwrap();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("sizes"), "{err}");

        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_accuracy.json");
        let ledger = committed_ledger(Path::new(committed)).unwrap_or_else(|e| panic!("{e}"));
        assert!(ledger.is_some_and(|l| !l.rows.is_empty() && !l.sizes.is_empty()));
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
        for key in [
            "\"gap_floor\":0.15",
            "\"headline\":",
            "\"gaps\":",
            "\"sizes\":",
        ] {
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

    #[test]
    fn the_guard_names_a_size_row_over_the_rss_budget_and_passes_one_at_it() {
        let budget = ExperimentConfig::default();
        let committed = ledger(budget.clone(), [0.2, 0.3, 0.25], [0.6, 0.5, 0.55]);
        let mut fresh = committed.clone();
        fresh.sizes[0].peak_rss_mb = RSS_BUDGET_MB;
        assert!(check(Some(&committed), &fresh).is_empty());
        fresh.sizes[1].peak_rss_mb = RSS_BUDGET_MB + 0.5;
        fresh.sizes[1].nodes = 2000;
        // At another budget too: memory is not a quantity of the budget.
        let other = ExperimentConfig {
            epochs: 3,
            ..budget
        };
        for budget in [fresh.budget.clone(), other] {
            let fresh = Ledger {
                budget,
                ..fresh.clone()
            };
            let failures = check(Some(&committed), &fresh);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(
                failures[0].contains("seed 2, 2000 nodes") && failures[0].contains("192.5 MB"),
                "{failures:?}"
            );
        }
    }
}
