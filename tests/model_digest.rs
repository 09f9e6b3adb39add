//! Frozen reference for the message-passing models: a digest of the
//! predictions, the loss and every parameter gradient of `OriginalRouteNet`,
//! `ExtendedRouteNet` and `QosRouteNet` on a
//! two-class plan, and of `ExtendedRouteNet` on a sparse routing over a
//! 60-node ISP graph (where most links and nodes lie on no path) —
//! single-sample and as a whole-dataset megabatch — and of `ExtendedRouteNet`
//! at the benchmarks' widths (16/4/32, the serving model's shape, and
//! 32/8/64) on NSFNET plans, where every other scenario runs `state_dim` 8.
//! Beside each full digest sits a digest of the predictions alone: a change
//! that drops state rows or tape ops no readout depends on regroups the
//! weight-gradient sums, so it may move a full digest; it may never move a
//! prediction digest.
//!
//! History of the constants: recorded at commit 89057f9, when each model
//! still had its own forward body, plan schedule and tape index mode, and
//! kept by the one loop that replaced them; prediction digests and the
//! sparse scenario added at fc7583f; the full digests of `qos_two_class` and
//! `extended_sparse_isp` re-recorded when plans stopped carrying rows for
//! entities no routed path crosses. **Every** constant was re-recorded once
//! more when the GRU step began to read a pre-projected input (`[h|x]·W`
//! became `h·W_h + x·W_x`, a 2·d-term sum regrouped as d + d): against the
//! values below, predictions moved by at most 1.4e-7 relative, losses by
//! 1.6e-7, gradients by 3.1e-6 of their matrix's largest element. The five
//! megabatch full digests were re-recorded when the shard gang went and a
//! megabatch's weight gradients became one product over all its rows instead
//! of per-sample partials merged in order (gradients within 1.9e-6 of their
//! matrix's largest element of the values below; no single-sample digest and
//! no prediction digest moved); each entry used to hold the megabatch digest
//! twice, at 1 and at 4 shard workers. The `extended_final_path_state_sum`
//! entry went with the node-update variant it pinned (its losing rows are in
//! `BENCH_accuracy.json`'s `decided` block); no other constant moved.
//! **Every** constant was re-recorded again when each multiply-add of the
//! matmul kernels and of `fast_exp` became one fused, correctly rounded
//! step on every SIMD tier, the baseline included (`out = fma(x, y, out)`
//! per shared-dimension step instead of 4-group sums): against the values
//! below, predictions moved by at most 1.4e-7 relative, losses by 1.6e-7,
//! gradients by 1.3e-6 of their matrix's largest element, the saved model's
//! predictions by 1.0e-7; against the reference forward's values, 1.3e-7,
//! 1.9e-7 and 5.6e-6. No value fixture was rewritten.
//! The two NSFNET scenarios (`WIDE_SCENARIOS`) were added, digests and
//! `model_values.json` numbers both, by the code that still ran the GRU
//! step as one pass per operation, before the row-tiled step replaced it:
//! they hold that step to the bits the old one wrote at widths 16 and 32.
//!
//! A digest says *that* bits moved, not by how much. Beside the digests,
//! `tests/fixtures/model_values.json` therefore holds the same steps as
//! numbers — every prediction, the loss and every parameter gradient of each
//! scenario, single-sample and megabatch — written by commit 8e9b40a, and
//! `tests/fixtures/model_extended.json` an `ExtendedRouteNet` saved by that
//! commit's `save_model`, with its predictions. `model_values.json` still
//! holds the `extended_final_path_state_sum` scenario, which no model runs
//! any more: the values test skips exactly that one and requires every other
//! recorded scenario, in order.
//! `models_stay_within_tolerance_of_the_recorded_values` holds the head to
//! them: predictions and loss to 1e-5 relative, each gradient matrix to 1e-4
//! of its largest element, the saved file loading and predicting to 1e-5. A
//! change that regroups a floating-point sum re-records the digests and
//! reports the deviation this test prints; it re-records the values only
//! when the arithmetic they describe is itself meant to change.
//!
//! After an *intentional* numerics change, `RN_REGEN_GOLDEN=1 cargo test
//! --test model_digest -- --nocapture` prints fresh constants and rewrites
//! both fixtures; name one test (`models_reproduce…`, `models_stay…`) to do
//! one without the other.

use rn_autograd::Graph;
use rn_dataset::{generate, generate_sparse, Dataset, GeneratorConfig, QosGenConfig};
use rn_netgraph::generators::{isp_tiered, TierConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_tensor::{Matrix, Prng};
use routenet::entities::build_megabatch;
use routenet::model::PathPredictor;
use routenet::persist::{load_model, save_model};
use routenet::plan_cache::Fingerprint;
use routenet::{ExtendedRouteNet, ModelConfig, OriginalRouteNet, QosRouteNet, SamplePlan};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

fn generator(qos: bool) -> GeneratorConfig {
    GeneratorConfig {
        sim: SimConfig {
            duration_s: 40.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        qos: qos.then(QosGenConfig::two_class_mix),
        ..GeneratorConfig::default()
    }
}

fn dataset(qos: bool) -> Dataset {
    generate(&topologies::toy5(), &generator(qos), 20_260_928, 4)
}

/// Three samples of 12 routed pairs each on a 60-node ISP graph.
fn sparse_isp_dataset() -> Dataset {
    let topo = isp_tiered(60, &TierConfig::default(), &mut Prng::new(60)).expect("isp_tiered(60)");
    generate_sparse(&topo, &generator(false), 12, 20_260_928, 3)
}

/// Two samples on NSFNET, 182 routed paths each: the plan shape the
/// serving benchmarks run.
fn nsfnet_dataset() -> Dataset {
    generate(
        &topologies::nsfnet_default(),
        &generator(false),
        20_260_928,
        2,
    )
}

fn config() -> ModelConfig {
    ModelConfig {
        state_dim: 8,
        mp_iterations: 3,
        readout_hidden: 8,
        seed: 13,
        ..ModelConfig::default()
    }
}

/// `state_dim / mp_iterations / readout_hidden` at the widths the
/// benchmarks run, where the GRU rows fill whole vector registers.
fn wide_config(state_dim: usize, mp_iterations: usize, readout_hidden: usize) -> ModelConfig {
    ModelConfig {
        state_dim,
        mp_iterations,
        readout_hidden,
        seed: 13,
        ..ModelConfig::default()
    }
}

/// What one step computes: the predictions, then the loss and every
/// parameter gradient of one training-mode forward + backward.
struct Step {
    predictions: Vec<f64>,
    loss: f32,
    grads: Vec<Matrix>,
}

fn step<M: PathPredictor>(model: &M, plan: &SamplePlan) -> Step {
    let mut g = Graph::new();
    let predictions = model.predict_with(&mut g, plan);
    g.reset();
    let bound = model.bind(&mut g);
    let pred = model.forward(&mut g, &bound, plan);
    let reliable = g.gather_rows(pred, &plan.reliable_idx);
    let target = g.constant(plan.reliable_targets_norm());
    let loss = g.mse(reliable, target);
    g.backward(loss);
    Step {
        predictions,
        loss: g.value(loss).get(0, 0),
        grads: model.grads(&g, &bound),
    }
}

impl Step {
    /// FNV-1a over the prediction bits, the loss bits and every gradient
    /// element in parameter order. Returns `(full digest, digest of the
    /// predictions alone)`.
    fn digests(&self) -> (u64, u64) {
        let mut fp = Fingerprint::new();
        for &p in &self.predictions {
            fp.f64(p);
        }
        let predictions = fp.finish();
        fp.u64(u64::from(self.loss.to_bits()));
        for grad in &self.grads {
            fp.usize(grad.len());
            for &v in grad.as_slice() {
                fp.u64(u64::from(v.to_bits()));
            }
        }
        (fp.finish(), predictions)
    }
}

/// A scenario's digests, `[single sample, whole-dataset megabatch]`.
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    /// Predictions, loss and every gradient.
    full: [u64; 2],
    /// Predictions alone.
    predictions: [u64; 2],
}

impl Digests {
    fn of(steps: &[Step; 2]) -> Self {
        let digests = [0, 1].map(|i| steps[i].digests());
        Digests {
            full: digests.map(|(full, _)| full),
            predictions: digests.map(|(_, predictions)| predictions),
        }
    }
}

/// A scenario's steps, `[single sample, whole-dataset megabatch]`.
fn model_steps<M: PathPredictor>(mut model: M, ds: &Dataset) -> [Step; 2] {
    model.fit_preprocessing(ds, 5);
    let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let mb = build_megabatch(&parts);
    [step(&model, &plans[0]), step(&model, &mb.plan)]
}

/// The scenarios the op-by-op reference forward ran, in the order of the
/// recorded tables.
const SCENARIOS: [&str; 4] = [
    "original",
    "extended_positional",
    "qos_two_class",
    "extended_sparse_isp",
];

/// The scenarios at the benchmarks' widths, recorded after [`SCENARIOS`]
/// in the digest table and in `model_values.json` (the reference forward
/// never ran them): `ExtendedRouteNet` 16/4/32, the serving model's shape,
/// and 32/8/64, on NSFNET plans.
const WIDE_SCENARIOS: [&str; 2] = ["extended_nsfnet_16_4_32", "extended_nsfnet_32_8_64"];

/// Every scenario: [`SCENARIOS`], then [`WIDE_SCENARIOS`].
fn all_steps() -> Vec<(&'static str, [Step; 2])> {
    let nsfnet = nsfnet_dataset();
    let [narrow, wide] = WIDE_SCENARIOS;
    let mut steps: Vec<_> = scenario_steps().into();
    steps.push((
        narrow,
        model_steps(ExtendedRouteNet::new(wide_config(16, 4, 32)), &nsfnet),
    ));
    steps.push((
        wide,
        model_steps(ExtendedRouteNet::new(wide_config(32, 8, 64)), &nsfnet),
    ));
    steps
}

/// Every scenario of [`SCENARIOS`], in its order.
fn scenario_steps() -> [(&'static str, [Step; 2]); 4] {
    let legacy = dataset(false);
    let two_class = dataset(true);
    assert!(two_class.samples[0].qos.is_some());
    let sparse_isp = sparse_isp_dataset();
    let [original, extended, qos, sparse] = SCENARIOS;
    [
        (
            original,
            model_steps(OriginalRouteNet::new(config()), &legacy),
        ),
        (
            extended,
            model_steps(ExtendedRouteNet::new(config()), &legacy),
        ),
        (qos, model_steps(QosRouteNet::new(config()), &two_class)),
        (
            sparse,
            model_steps(ExtendedRouteNet::new(config()), &sparse_isp),
        ),
    ]
}

#[test]
fn models_reproduce_the_recorded_digests() {
    // One constant a line, so that a re-record shows in `git diff` as exactly
    // the constants that moved.
    #[rustfmt::skip]
    let recorded: [(&str, Digests); 6] = [
        (
            "original",
            Digests {
                full: [
                    0x7fe4_3547_398f_11ed,
                    0x440f_f357_2596_883e,
                ],
                predictions: [
                    0xb350_5c48_cb8b_6585,
                    0xee30_5083_38d2_9e27,
                ],
            },
        ),
        (
            "extended_positional",
            Digests {
                full: [
                    0x7584_570d_671d_4185,
                    0x2541_4ee8_9c87_a4be,
                ],
                predictions: [
                    0xcec0_ccbf_2615_13cb,
                    0x8840_6565_767c_4b21,
                ],
            },
        ),
        (
            "qos_two_class",
            Digests {
                full: [
                    0xc9c1_f04a_4734_66d7,
                    0x5668_98f7_76d2_b541,
                ],
                predictions: [
                    0xed4b_2e88_ef1d_8ffe,
                    0xcf6a_b7ce_7840_5818,
                ],
            },
        ),
        (
            "extended_sparse_isp",
            Digests {
                full: [
                    0xe3bb_e287_43c8_e1f8,
                    0x3b54_b629_9041_0581,
                ],
                predictions: [
                    0xe9dc_395f_6726_80e1,
                    0x0aa0_3dc1_0969_2256,
                ],
            },
        ),
        (
            "extended_nsfnet_16_4_32",
            Digests {
                full: [
                    0xfa4c_2192_de7a_7d81,
                    0x31fe_7a53_40f9_f6e2,
                ],
                predictions: [
                    0x5ad6_938f_c0a2_995b,
                    0xf623_50f8_dc24_5acc,
                ],
            },
        ),
        (
            "extended_nsfnet_32_8_64",
            Digests {
                full: [
                    0x6c2b_76e4_206a_f67d,
                    0x6b7c_0971_1709_f4c0,
                ],
                predictions: [
                    0xacc0_db1f_8d29_5933,
                    0xbc06_7627_d7d0_04c1,
                ],
            },
        ),
    ];
    let steps = all_steps();
    assert_eq!(
        steps.len(),
        recorded.len(),
        "recorded table and scenarios out of step"
    );
    let scenarios: Vec<(&str, &Digests, Digests)> = recorded
        .iter()
        .zip(steps)
        .map(|((name, want), (ran, steps))| {
            assert_eq!(*name, ran, "recorded table and scenarios out of step");
            (*name, want, Digests::of(&steps))
        })
        .collect();
    let hex = |d: [u64; 2]| format!("[{:#018x}, {:#018x}]", d[0], d[1]);
    let table: String = scenarios
        .iter()
        .map(|(name, want, got)| {
            format!(
                "  {name} [single, mb]:\n    full        recorded {}\n    full        got      \
                 {}\n    predictions recorded {}\n    predictions got      {}\n",
                hex(want.full),
                hex(got.full),
                hex(want.predictions),
                hex(got.predictions),
            )
        })
        .collect();
    if std::env::var("RN_REGEN_GOLDEN").is_ok() {
        eprintln!("model_digest scenarios:\n{table}");
        return;
    }
    assert!(
        scenarios.iter().all(|(_, want, got)| *want == got),
        "a model moved bits against the frozen per-model reference:\n{table}"
    );
}

// ---------------------------------------------------------------------------
// The same steps as numbers
// ---------------------------------------------------------------------------

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// One [`Step`] as the fixture stores it. `f32` values are written through
/// their shortest decimal form, which halves the file against the exact
/// `f64` expansion and is still eight digits past the tolerances below.
#[derive(Serialize, Deserialize)]
struct RecordedStep {
    predictions: Vec<f64>,
    loss: f64,
    /// One flat row-major list per parameter, in parameter order.
    grads: Vec<Vec<f64>>,
}

#[derive(Serialize, Deserialize)]
struct RecordedScenario {
    name: String,
    single: RecordedStep,
    megabatch: RecordedStep,
}

#[derive(Serialize, Deserialize)]
struct RecordedValues {
    scenarios: Vec<RecordedScenario>,
    /// What the model in `model_extended.json` predicts on
    /// [`saved_model_plan`]'s sample.
    saved_model_predictions: Vec<f64>,
}

fn short(v: f32) -> f64 {
    v.to_string().parse().expect("an f32 prints as a number")
}

impl RecordedStep {
    fn of(step: &Step) -> Self {
        RecordedStep {
            predictions: step.predictions.clone(),
            loss: short(step.loss),
            grads: step
                .grads
                .iter()
                .map(|g| g.as_slice().iter().map(|&v| short(v)).collect())
                .collect(),
        }
    }
}

/// How far a step is from its recorded values, in the units of the
/// tolerances: relative for predictions and loss, relative to the largest
/// element of its matrix for gradients.
#[derive(Default)]
struct Deviation {
    predictions: f64,
    loss: f64,
    grads: f64,
}

fn max_rel(got: &[f64], want: &[f64]) -> f64 {
    assert_eq!(got.len(), want.len(), "value count changed");
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() / w.abs().max(1e-12))
        .fold(0.0, f64::max)
}

fn deviation(got: &Step, want: &RecordedStep) -> Deviation {
    assert_eq!(got.grads.len(), want.grads.len(), "parameter count changed");
    let grads = got
        .grads
        .iter()
        .zip(&want.grads)
        .map(|(g, w)| {
            assert_eq!(g.len(), w.len(), "parameter shape changed");
            let scale = w.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let worst = g
                .as_slice()
                .iter()
                .zip(w)
                .map(|(&a, &b)| f64::from((a - b as f32).abs()))
                .fold(0.0, f64::max);
            // A gradient that was identically zero must stay so.
            if scale == 0.0 {
                worst
            } else {
                worst / scale
            }
        })
        .fold(0.0, f64::max);
    Deviation {
        predictions: max_rel(&got.predictions, &want.predictions),
        loss: max_rel(&[f64::from(got.loss)], &[f64::from(want.loss as f32)]),
        grads,
    }
}

/// The worst deviation of `steps` from `recorded`, which must name the same
/// scenarios in the same order; one line per scenario and mode goes to
/// `table`.
fn worst_deviation(
    recorded: &[&RecordedScenario],
    steps: &[(&str, [Step; 2])],
    table: &mut String,
) -> Deviation {
    let recorded_names: Vec<&str> = recorded.iter().map(|r| r.name.as_str()).collect();
    let names: Vec<&str> = steps.iter().map(|(name, _)| *name).collect();
    assert_eq!(recorded_names, names, "fixture and scenarios out of step");
    let mut worst = Deviation::default();
    for (want, (name, [single, megabatch])) in recorded.iter().zip(steps) {
        for (mode, got, want) in [
            ("single", single, &want.single),
            ("mb", megabatch, &want.megabatch),
        ] {
            let d = deviation(got, want);
            *table += &format!(
                "  {name} {mode}: predictions {:.1e}, loss {:.1e}, gradients {:.1e}\n",
                d.predictions, d.loss, d.grads
            );
            worst.predictions = worst.predictions.max(d.predictions);
            worst.loss = worst.loss.max(d.loss);
            worst.grads = worst.grads.max(d.grads);
        }
    }
    worst
}

impl Deviation {
    fn within_tolerance(&self) -> bool {
        self.predictions <= PREDICTION_TOL && self.loss <= LOSS_TOL && self.grads <= GRAD_TOL
    }
}

/// The sample `model_extended.json`'s recorded predictions are for.
fn saved_model_sample(ds: &Dataset) -> &rn_dataset::Sample {
    &ds.samples[1]
}

const PREDICTION_TOL: f64 = 1e-5;
const LOSS_TOL: f64 = 1e-5;
const GRAD_TOL: f64 = 1e-4;

#[test]
fn models_stay_within_tolerance_of_the_recorded_values() {
    let steps = all_steps();
    let (values_path, model_path) = (fixture("model_values.json"), fixture("model_extended.json"));
    if std::env::var("RN_REGEN_GOLDEN").is_ok() {
        let ds = dataset(false);
        let mut model = ExtendedRouteNet::new(config());
        model.fit_preprocessing(&ds, 5);
        save_model(&model, &model_path).expect("save the model fixture");
        let values = RecordedValues {
            scenarios: steps
                .iter()
                .map(|(name, [single, megabatch])| RecordedScenario {
                    name: name.to_string(),
                    single: RecordedStep::of(single),
                    megabatch: RecordedStep::of(megabatch),
                })
                .collect(),
            saved_model_predictions: model.predict(&model.plan(saved_model_sample(&ds))),
        };
        std::fs::write(&values_path, serde_json::to_string(&values).unwrap()).unwrap();
        eprintln!(
            "regenerated {} and {}",
            values_path.display(),
            model_path.display()
        );
        return;
    }

    let text = std::fs::read_to_string(&values_path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with RN_REGEN_GOLDEN=1",
            values_path.display()
        )
    });
    let recorded: RecordedValues = serde_json::from_str(&text).expect("parse model_values.json");
    let (retired, live): (Vec<_>, Vec<_>) =
        (recorded.scenarios.iter()).partition(|r| r.name == "extended_final_path_state_sum");
    assert_eq!(retired.len(), 1, "fixture and scenarios out of step");
    let mut table = String::new();
    let worst = worst_deviation(&live, &steps, &mut table);

    // The file format did not move: the model saved at the recording commit
    // loads, and predicts what it predicted there.
    let loaded: ExtendedRouteNet = load_model(&model_path).expect("load model_extended.json");
    let saved = max_rel(
        &loaded.predict(&loaded.plan(saved_model_sample(&dataset(false)))),
        &recorded.saved_model_predictions,
    );
    table += &format!("  saved model: predictions {saved:.1e}\n");
    eprintln!("worst deviation from the recorded values:\n{table}");
    assert!(
        worst.within_tolerance() && saved <= PREDICTION_TOL,
        "a model left the tolerance of its recorded values (predictions {PREDICTION_TOL:e}, \
         loss {LOSS_TOL:e}, gradients {GRAD_TOL:e} of the matrix maximum):\n{table}"
    );
}

// ---------------------------------------------------------------------------
// The op-by-op reference forward, as numbers
// ---------------------------------------------------------------------------

/// What the op-by-op forward computed on every scenario, single-sample and
/// megabatch: `tests/fixtures/reference_values.json`, in the schema of
/// `model_values.json`. That forward ran the textbook `[h, x]` GRU products
/// over dense, masked path rows, with every iteration's entity updates, and
/// the fused forward was checked against it until it was deleted. The code
/// of commit 966ca98, the last to hold it, wrote these answers (the file
/// also holds `golden_equivalence`'s, `plan_pruning`'s and the op-level
/// unit tests' parts). There is no regeneration path: nothing is left to
/// regenerate it from, and `RN_REGEN_GOLDEN` does not touch it.
#[derive(Deserialize)]
struct ReferenceValues {
    scenarios: Vec<RecordedScenario>,
}

fn reference_values() -> ReferenceValues {
    let path = fixture("reference_values.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()));
    serde_json::from_str(&text).expect("parse reference_values.json")
}

#[test]
fn the_reference_values_cover_every_scenario() {
    let names = |scenarios: Vec<RecordedScenario>| -> Vec<String> {
        scenarios.into_iter().map(|r| r.name).collect()
    };
    assert_eq!(names(reference_values().scenarios), SCENARIOS);
    // `model_values.json` names them too, beside the retired scenario the
    // reference forward never ran.
    let text = std::fs::read_to_string(fixture("model_values.json")).expect("model_values.json");
    let values: RecordedValues = serde_json::from_str(&text).expect("parse model_values.json");
    let mut recorded = names(values.scenarios);
    recorded.retain(|name| name != "extended_final_path_state_sum");
    assert_eq!(recorded, [&SCENARIOS[..], &WIDE_SCENARIOS[..]].concat());
}

#[test]
fn models_stay_within_tolerance_of_the_reference_forward() {
    let recorded = reference_values();
    let scenarios: Vec<&RecordedScenario> = recorded.scenarios.iter().collect();
    let mut table = String::new();
    let worst = worst_deviation(&scenarios, &scenario_steps(), &mut table);
    eprintln!("worst deviation from the reference forward:\n{table}");
    assert!(
        worst.within_tolerance(),
        "a model left the tolerance of the reference forward (predictions {PREDICTION_TOL:e}, \
         loss {LOSS_TOL:e}, gradients {GRAD_TOL:e} of the matrix maximum):\n{table}"
    );
}
