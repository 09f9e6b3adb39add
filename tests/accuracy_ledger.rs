//! The committed `BENCH_accuracy.json` is the paper's claim as a number.
//! This test holds the file to what a bare `figure2` run writes: the
//! default budget, every row group on three seeds, and the extended model
//! beating the original on GEANT2 on every seed. NSFNET ordering is
//! recorded per seed and not asserted.

use rn_bench::accuracy::{Ledger, GROUPS};
use rn_bench::ExperimentConfig;
use std::path::Path;

#[test]
fn the_committed_ledger_is_a_bare_figure2_run_and_the_claim_holds_on_every_seed() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_accuracy.json");
    let ledger = Ledger::load(&path).unwrap_or_else(|e| panic!("{e}"));
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
}
