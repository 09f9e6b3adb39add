//! **Figure 2 reproduction and the accuracy ledger** — the paper's headline
//! experiment, the oracle beside it and the ablations around it.
//!
//! Per seed (the budget's seed, `+ 1`, `+ 2`), matching Section 3 of the
//! paper, scaled down (see "Reproducing the paper's figures" in README.md):
//!
//! 1. Generate GEANT2 training samples and held-out GEANT2 + NSFNET
//!    evaluation samples with the packet-level simulator. Every sample mixes
//!    standard-queue and 1-packet-queue forwarding devices, random routings
//!    and random traffic matrices.
//! 2. Train the **extended** RouteNet (sees queue sizes via node entities)
//!    and the **original** RouteNet (cannot see them) on GEANT2 only, and
//!    evaluate both on both topologies beside the M/M/1/K decomposition
//!    (`rn_qtheory`), the **oracle** row.
//! 3. Ablate the extended model one setting at a time: message-passing
//!    iterations `T`, state width, training-set size (the original model
//!    too), and the target (per-path jitter instead of mean delay: the
//!    architecture is target-agnostic). A variant equal to the extended
//!    model reuses its row instead of training again.
//! 4. Evaluate the extended model on generated ISP topologies of
//!    [`SIZES`] nodes, with sparse traffic (a fixed number of routed pairs
//!    at every size), recording its cost per path and the process's peak
//!    RSS after each size.
//!
//! For the first seed it prints the E3 summary and the CDF of the signed
//! relative error for the paper's four curves (the Figure 2 artifact). It
//! then holds the new ledger to `BENCH_accuracy.json` (workspace root, or
//! `BENCH_OUT_DIR`) with [`rn_bench::accuracy::check`]: when it passes it
//! replaces that file; when it fails the file stays, the new ledger goes to
//! `BENCH_accuracy.rejected.json` beside it and the run exits 1.
//!
//! Run: `cargo run --release -p rn_bench --bin figure2`. It runs
//! [`ExperimentConfig::default`]; at any other budget only the GEANT2
//! ordering and the RSS budget are checked.

use rayon::prelude::*;
use rn_bench::accuracy::{check, committed_ledger, Ledger, Metrics, Row, SizeRow, SIZES};
use rn_bench::{cached_dataset, paper_topologies, peak_rss_mb, ExperimentConfig};
use rn_dataset::{generate_sparse, Dataset, Normalizer};
use rn_netgraph::generators::{isp_tiered, TierConfig};
use rn_qtheory::PathDelayPredictor;
use rn_tensor::Prng;
use routenet::entities::TargetKind;
use routenet::eval::{collect_predictions, evaluate_baseline};
use routenet::model::PathPredictor;
use routenet::{
    evaluate, train, EvalReport, ExtendedRouteNet, ModelConfig, OriginalRouteNet, TrainConfig,
};
use std::time::Instant;

/// Paths whose labels rest on fewer delivered packets are not evaluated.
const MIN_PACKETS: u64 = 10;
/// Swept message-passing iterations.
const ITERATIONS: [usize; 4] = [1, 2, 4, 8];
/// Swept state widths (the readout is twice as wide).
const STATE_DIMS: [usize; 4] = [4, 8, 16, 32];
/// Swept training-set sizes: leading samples of the training set.
const TRAIN_SIZES: [usize; 3] = [16, 32, 64];
/// Routed pairs per sample of a size row.
const SIZE_PAIRS: usize = 64;
/// Samples per size row: over 200 reliable paths at every size.
const SIZE_SAMPLES: usize = 4;

fn main() {
    let base = ExperimentConfig::default();
    eprintln!("[figure2] budget: {base:?}");
    let path = rn_bench::report_path("BENCH_accuracy.json");
    // Decided before the run: a ledger that exists but does not load stops
    // it, where treating it as absent would overwrite it.
    let committed = committed_ledger(&path).unwrap_or_else(|e| {
        eprintln!("[figure2] the committed ledger does not load: {e}");
        std::process::exit(1)
    });
    if committed.is_none() {
        eprintln!("[figure2] no committed ledger at {}", path.display());
    }

    let seeds: Vec<u64> = (0..3).map(|i| base.seed + i).collect();
    let (mut rows, mut sizes) = (Vec::new(), Vec::new());
    for &seed in &seeds {
        let cfg = ExperimentConfig {
            seed,
            ..base.clone()
        };
        let (seed_rows, seed_sizes) = Seed::new(cfg).rows(seed == base.seed);
        rows.extend(seed_rows);
        sizes.extend(seed_sizes);
    }

    let ledger = Ledger::record(commit(), base, seeds, rows, sizes, committed.as_ref());
    print_summary(&ledger);
    // A rejected ledger never replaces the one it failed against.
    let failures = check(committed.as_ref(), &ledger);
    let out = if failures.is_empty() {
        path
    } else {
        rn_bench::report_path("BENCH_accuracy.rejected.json")
    };
    if let Err(e) = ledger.save(&out) {
        eprintln!("[figure2] {e}");
        std::process::exit(1);
    }
    eprintln!("[figure2] wrote {}", out.display());
    for failure in &failures {
        eprintln!("[figure2] FAIL: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// One seed's budget and datasets.
struct Seed {
    cfg: ExperimentConfig,
    train: Dataset,
    geant2: Dataset,
    nsfnet: Dataset,
}

impl Seed {
    fn new(cfg: ExperimentConfig) -> Self {
        let (geant2, nsfnet) = paper_topologies();
        let gen = cfg.generator();
        Self {
            train: cached_dataset(&geant2, &gen, cfg.seed, cfg.train_samples, "train"),
            geant2: cached_dataset(&geant2, &gen, cfg.seed ^ 0xEEE1, cfg.eval_samples, "eval"),
            nsfnet: cached_dataset(&nsfnet, &gen, cfg.seed ^ 0xEEE2, cfg.eval_samples, "eval"),
            cfg,
        }
    }

    /// Every row and size row of the seed.
    fn rows(&self, print_figure: bool) -> (Vec<Row>, Vec<SizeRow>) {
        let base = self.cfg.model();
        let mut model = ExtendedRouteNet::new(base.clone());
        let extended = self.fit(&mut model, &self.train, "extended");
        let original = self.fit(
            &mut OriginalRouteNet::new(base.clone()),
            &self.train,
            "original",
        );
        if print_figure {
            print_figure2(&extended, &original);
        }
        let mut rows = vec![
            self.row("extended", 0, &extended),
            self.row("original", 0, &original),
            self.row("oracle", 0, &self.oracle()),
        ];
        let iterations = ITERATIONS.map(|t| {
            let model = ModelConfig {
                mp_iterations: t,
                ..base.clone()
            };
            ("mp_iterations", t, model)
        });
        let widths = STATE_DIMS.map(|d| {
            let model = ModelConfig {
                state_dim: d,
                readout_hidden: 2 * d,
                ..base.clone()
            };
            ("state_dim", d, model)
        });
        for (group, value, model) in iterations.into_iter().chain(widths) {
            let reports = if model == base {
                extended.clone()
            } else {
                let name = format!("extended {group}={value}");
                self.fit(&mut ExtendedRouteNet::new(model), &self.train, &name)
            };
            rows.push(self.row(group, value, &reports));
        }
        for size in TRAIN_SIZES
            .into_iter()
            .filter(|&n| n <= self.cfg.train_samples)
        {
            let subset = Dataset {
                topology: self.train.topology.clone(),
                samples: self.train.samples[..size].to_vec(),
            };
            let name = format!("extended on {size} samples");
            let ext = self.fit(&mut ExtendedRouteNet::new(base.clone()), &subset, &name);
            rows.push(self.row("train_samples_extended", size, &ext));
            let name = format!("original on {size} samples");
            let orig = self.fit(&mut OriginalRouteNet::new(base.clone()), &subset, &name);
            rows.push(self.row("train_samples_original", size, &orig));
        }
        rows.push(self.row("jitter", 0, &self.jitter()));
        (rows, SIZES.map(|n| self.size_row(&model, n)).into())
    }

    /// The experiment's training configuration, without per-epoch lines.
    fn training(&self) -> TrainConfig {
        TrainConfig {
            verbose: false,
            ..self.cfg.training()
        }
    }

    fn row(&self, group: &str, value: usize, [geant2, nsfnet]: &[EvalReport; 2]) -> Row {
        Row {
            group: group.into(),
            value,
            seed: self.cfg.seed,
            geant2: Metrics::of(geant2),
            nsfnet: Metrics::of(nsfnet),
        }
    }

    /// Train `model` on `train_set`, then evaluate it on both sets.
    fn fit<M: PathPredictor>(
        &self,
        model: &mut M,
        train_set: &Dataset,
        name: &str,
    ) -> [EvalReport; 2] {
        let t0 = Instant::now();
        train(model, train_set, None, &self.training());
        let reports = [(&self.geant2, "geant2"), (&self.nsfnet, "nsfnet")]
            .map(|(ds, topology)| evaluate(&*model, ds, topology, MIN_PACKETS));
        self.log(name, t0, &reports);
        reports
    }

    fn log(&self, name: &str, t0: Instant, [geant2, nsfnet]: &[EvalReport; 2]) {
        eprintln!(
            "[figure2] seed {}: {name:<28} {:5.1}s, median |rel| geant2 {:.3}, nsfnet {:.3}",
            self.cfg.seed,
            t0.elapsed().as_secs_f64(),
            geant2.median_abs_rel(),
            nsfnet.median_abs_rel()
        );
    }

    /// The trained extended `model` on fresh samples of an `n`-node
    /// tiered ISP topology. Tier capacities are uniform at 1e4 bps, inside
    /// the training range, so the row measures size alone, not capacity
    /// extrapolation. The samples are not cached: a 2 000-node sample's
    /// file holds dense `n²` routing and traffic tables.
    fn size_row(&self, model: &ExtendedRouteNet, n: usize) -> SizeRow {
        let seed = self.cfg.seed;
        let tier = TierConfig {
            core_capacity_bps: 1e4,
            aggregation_capacity_bps: 1e4,
            edge_capacity_bps: 1e4,
            ..TierConfig::default()
        };
        let mut rng = Prng::new(seed ^ (n as u64).rotate_left(17));
        let topo =
            isp_tiered(n, &tier, &mut rng).unwrap_or_else(|e| panic!("isp_tiered({n}): {e}"));
        let t0 = Instant::now();
        let ds = generate_sparse(
            &topo,
            &self.cfg.generator(),
            SIZE_PAIRS,
            seed ^ 0xBEEF,
            SIZE_SAMPLES,
        );
        let generate_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let report = evaluate(model, &ds, &format!("isp-{n}"), MIN_PACKETS);
        let us_per_path = t0.elapsed().as_secs_f64() * 1e6 / report.num_paths().max(1) as f64;
        let row = SizeRow {
            seed,
            nodes: n,
            links: topo.num_links(),
            pairs: SIZE_PAIRS,
            samples: SIZE_SAMPLES,
            extended: Metrics::of(&report),
            generate_s,
            us_per_path,
            peak_rss_mb: peak_rss_mb(),
        };
        eprintln!(
            "[figure2] seed {seed}: extended on {n:>4} nodes, {} paths, median |rel| {:.3}, \
             {us_per_path:.1} us/path, peak RSS {:.1} MB",
            row.extended.paths, row.extended.median, row.peak_rss_mb
        );
        row
    }

    /// The M/M/1/K decomposition on both evaluation sets.
    fn oracle(&self) -> [EvalReport; 2] {
        let predictor = PathDelayPredictor::new(self.cfg.generator().sim.mean_packet_bits);
        [(&self.geant2, "geant2"), (&self.nsfnet, "nsfnet")].map(|(ds, topology)| {
            let mut pairs: Vec<(f64, f64)> = Vec::new();
            for sample in &ds.samples {
                // The sample's own capacities, on the canonical topology.
                let mut topo = ds.topology.clone();
                for (l, &c) in sample.link_capacities.iter().enumerate() {
                    topo.set_link_capacity(l, c);
                }
                let (routing, traffic) = (&sample.routing, &sample.traffic);
                let preds = predictor.predict(&topo, routing, traffic, &sample.queue_capacities);
                for ((_, _, pred), target) in preds.iter().zip(&sample.targets) {
                    if target.is_reliable(MIN_PACKETS) && target.mean_delay_s > 0.0 {
                        pairs.push((*pred, target.mean_delay_s));
                    }
                }
            }
            evaluate_baseline("mm1k-decomp", topology, &pairs)
        })
    }

    /// The extended model regressing per-path jitter (delay standard
    /// deviation) instead of mean delay: jitter plans, a normalizer fitted
    /// on jitter labels, `train_on_plans`.
    fn jitter(&self) -> [EvalReport; 2] {
        let t0 = Instant::now();
        let mut model = ExtendedRouteNet::new(self.cfg.model());
        model.fit_preprocessing(&self.train, MIN_PACKETS);
        let jitters: Vec<f64> = (self.train.samples.iter())
            .flat_map(|s| s.targets.iter())
            .filter(|t| t.delivered >= MIN_PACKETS && t.jitter_s > 0.0)
            .map(|t| t.jitter_s)
            .collect();
        assert!(!jitters.is_empty(), "no jitter labels in the training set");
        model.set_normalizer(Normalizer::fit(&jitters, true));
        let plans = |model: &ExtendedRouteNet, ds: &Dataset| -> Vec<_> {
            (ds.samples.par_iter())
                .map(|s| model.plan_for_target(s, TargetKind::Jitter))
                .collect()
        };
        let train_plans = plans(&model, &self.train);
        routenet::trainer::train_on_plans(&mut model, &train_plans, &self.training());
        let reports = [(&self.geant2, "geant2"), (&self.nsfnet, "nsfnet")].map(|(ds, topology)| {
            let pairs = collect_predictions(&model, &plans(&model, ds));
            let (preds, targets): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            EvalReport::from_predictions("extended-jitter", topology, &preds, &targets)
        });
        self.log("extended, jitter target", t0, &reports);
        reports
    }
}

/// The E3 summary and the Figure 2 CDF table of one seed.
fn print_figure2(extended: &[EvalReport; 2], original: &[EvalReport; 2]) {
    let reports = [&extended[0], &original[0], &extended[1], &original[1]];
    println!("\n=== Figure 2 / E3: delay prediction accuracy (trained on GEANT2 only) ===\n");
    for r in reports {
        println!("{}", r.summary_line());
    }
    let xs: Vec<f64> = (-20..=30).map(|i| i as f64 * 0.05).collect();
    let series: Vec<Vec<(f64, f64)>> = reports.iter().map(|r| r.cdf_series_at(&xs)).collect();
    let header = [
        "rel_error",
        "ext/geant2",
        "orig/geant2",
        "ext/nsfnet",
        "orig/nsfnet",
    ];
    println!("\nCDF of relative error (pred-true)/true — columns are the paper's four curves:\n");
    println!("{}", header.map(|h| format!("{h:>22}")).concat());
    for (i, x) in xs.iter().enumerate() {
        let cdf: String = series.iter().map(|s| format!("{:>22.4}", s[i].1)).collect();
        println!("{x:>22.3}{cdf}");
    }
}

/// The headline medians and the gap per seed (every row is on stderr and
/// in the file).
fn print_summary(ledger: &Ledger) {
    println!("=== median |rel| over seeds {:?} ===\n", ledger.seeds);
    for h in ledger.headline() {
        println!(
            "  {:<9} on {:<7}: {:.3}  [min {:.3}, max {:.3}]",
            h.model, h.topology, h.median, h.min, h.max
        );
    }
    println!(
        "\n  original minus extended (GEANT2 floor {:.3}):",
        ledger.gap_floor
    );
    for g in ledger.gaps() {
        let verdict = if g.holds { "holds" } else { "does NOT hold" };
        println!(
            "    seed {} {:<7}: {:+.3}  {verdict}",
            g.seed, g.topology, g.gap
        );
    }
    println!("\n  extended on generated ISP topologies (median |rel|, us/path, peak RSS):");
    for r in &ledger.sizes {
        println!(
            "    seed {} {:>4} nodes: {:.3}  {:6.1} us  {:6.1} MB",
            r.seed, r.nodes, r.extended.median, r.us_per_path, r.peak_rss_mb
        );
    }
}

/// `git describe --always --dirty` of the working tree, or `unknown`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}
