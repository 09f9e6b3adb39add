//! The committed `BENCH_accuracy.json` is the paper's claim as a number.
//! This test holds the file to what a bare `figure2` run writes: the
//! default budget, every row group on three seeds, and the extended model
//! beating the original on GEANT2 on every seed, by a recorded floor no
//! wider than its smallest GEANT2 gap. NSFNET ordering is recorded per seed
//! and not asserted. Every seed's extended model has a row on every
//! generated topology size, and the run's peak RSS stayed within budget.

use rn_bench::accuracy::{Ledger, GROUPS, RSS_BUDGET_MB, SIZES};
use rn_bench::ExperimentConfig;
use std::path::Path;

fn committed() -> Ledger {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_accuracy.json");
    Ledger::load(&path).unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn the_committed_ledger_is_a_bare_figure2_run_and_the_claim_holds_on_every_seed() {
    let ledger = committed();
    assert_eq!(
        ledger.budget,
        ExperimentConfig::default(),
        "recorded at another budget"
    );
    let base = ledger.budget.seed;
    assert_eq!(ledger.seeds, vec![base, base + 1, base + 2]);
    for seed in &ledger.seeds {
        for group in GROUPS {
            let present = ledger
                .rows
                .iter()
                .any(|r| r.group == group && r.seed == *seed);
            assert!(present, "no {group} row on seed {seed}");
        }
    }
    let geant2: Vec<_> = (ledger.gaps().into_iter())
        .filter(|g| g.topology == "geant2")
        .collect();
    assert_eq!(geant2.len(), 3);
    assert!(
        geant2.iter().all(|g| g.holds),
        "the extended model must beat the original on GEANT2 on every seed: {geant2:?}"
    );
    let smallest = geant2.iter().map(|g| g.gap).fold(f64::INFINITY, f64::min);
    assert!(
        ledger.gap_floor > 0.0 && ledger.gap_floor <= smallest,
        "the recorded floor {} must be positive and within the smallest GEANT2 gap {smallest}",
        ledger.gap_floor
    );
}

#[test]
fn the_committed_ledger_has_every_size_row_within_the_rss_budget() {
    let ledger = committed();
    for &seed in &ledger.seeds {
        for nodes in SIZES {
            let row = (ledger.sizes.iter())
                .find(|r| r.seed == seed && r.nodes == nodes)
                .unwrap_or_else(|| panic!("no {nodes}-node row on seed {seed}"));
            assert!(
                row.extended.paths > 0 && row.extended.median.is_finite(),
                "{row:?}"
            );
        }
    }
    for row in &ledger.sizes {
        assert!(
            row.peak_rss_mb <= RSS_BUDGET_MB,
            "seed {} at {} nodes peaked at {} MB, over {RSS_BUDGET_MB} MB",
            row.seed,
            row.nodes,
            row.peak_rss_mb
        );
    }
}
