//! Golden-equivalence regression tests.
//!
//! A fixed-seed `ExtendedRouteNet` evaluated on a fixed-seed `toy5` sample
//! must keep producing the predictions recorded in
//! `tests/fixtures/golden_toy5.json` to within 1e-5 relative error. This
//! pins the numerics of the fused hot path (tiled kernels, fast
//! transcendentals, fused GRU tape ops, block-diagonal megabatching): any
//! future perf work that silently changes model output fails here. The same
//! predictions must also stay within 1e-5 of what the op-by-op forward —
//! and the seed-faithful reference mode — predicted on that plan, recorded
//! in `tests/fixtures/reference_values.json` before both were deleted.
//!
//! Regenerate the fixture (only after an *intentional* numerics change) with:
//!
//! ```sh
//! RN_REGEN_GOLDEN=1 cargo test --test golden_equivalence
//! ```

use rn_dataset::{generate, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig, SamplePlan};
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_toy5.json")
}

/// The frozen scenario: seeds, sizes and dataset generation must not change,
/// or the fixture loses its meaning.
fn golden_setup() -> (ExtendedRouteNet, SamplePlan) {
    let gen_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 60.0,
            warmup_s: 10.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    let ds = generate(&topologies::toy5(), &gen_config, 20_190_101, 1);
    let mut model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 16,
        mp_iterations: 4,
        readout_hidden: 16,
        seed: 7,
        ..ModelConfig::default()
    });
    model.fit_preprocessing(&ds, 5);
    let plan = model.plan(&ds.samples[0]);
    (model, plan)
}

fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "prediction count changed");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / y.abs().max(1e-12))
        .fold(0.0, f64::max)
}

#[test]
fn predictions_match_recorded_fixture() {
    let (model, plan) = golden_setup();
    let predictions = model.predict(&plan);

    let path = fixture_path();
    if std::env::var("RN_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let json = serde_json::to_string(&predictions).unwrap();
        std::fs::write(&path, json).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with RN_REGEN_GOLDEN=1",
            path.display()
        )
    });
    let recorded: Vec<f64> = serde_json::from_str(&text).unwrap();
    let worst = max_rel_diff(&predictions, &recorded);
    assert!(
        worst < 1e-5,
        "fused predictions drifted from the golden fixture: max rel diff {worst:e}"
    );
}

/// What the op-by-op forward predicted on [`golden_setup`]'s plan, with the
/// production kernels and in the seed-faithful reference mode (naive
/// kernels, libm transcendentals): recorded in
/// `tests/fixtures/reference_values.json` before both were deleted. No
/// regeneration path writes it.
#[derive(serde::Deserialize)]
struct GoldenReference {
    unfused: Vec<f64>,
    reference_mode: Vec<f64>,
}

fn golden_reference() -> GoldenReference {
    #[derive(serde::Deserialize)]
    struct ReferenceValues {
        golden_toy5: GoldenReference,
    }
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/reference_values.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()));
    let values: ReferenceValues = serde_json::from_str(&text).expect("parse reference_values.json");
    values.golden_toy5
}

#[test]
fn fused_forward_matches_unfused_and_seed_reference() {
    let (model, plan) = golden_setup();
    let fused = model.predict(&plan);
    let recorded = golden_reference();

    let worst = max_rel_diff(&fused, &recorded.unfused);
    assert!(worst < 1e-5, "fused vs unfused forward diverged: {worst:e}");
    let worst_ref = max_rel_diff(&fused, &recorded.reference_mode);
    assert!(
        worst_ref < 1e-5,
        "fused vs seed-reference forward diverged: {worst_ref:e}"
    );
}

#[test]
fn megabatched_forward_matches_per_sample_forward() {
    let gen_config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 60.0,
            warmup_s: 10.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    let ds = generate(&topologies::toy5(), &gen_config, 20_190_102, 4);
    let mut model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 16,
        mp_iterations: 4,
        readout_hidden: 16,
        seed: 7,
        ..ModelConfig::default()
    });
    model.fit_preprocessing(&ds, 5);
    let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let batched = model.predict_batch(&plans);
    for (b, plan) in plans.iter().enumerate() {
        let single = model.predict(plan);
        let worst = max_rel_diff(&batched[b], &single);
        assert!(
            worst < 1e-5,
            "sample {b}: megabatch diverged from per-sample: {worst:e}"
        );
    }
}

#[test]
fn prediction_is_deterministic_within_build() {
    let (model, plan) = golden_setup();
    let a = model.predict(&plan);
    let b = model.predict(&plan);
    assert_eq!(a, b, "same plan, same build must give bitwise-equal output");
}
