//! Frozen reference for the trainer loop: a digest of every epoch's train
//! and validation loss, the epoch training stopped at and every parameter
//! after `train()` for `OriginalRouteNet`, `ExtendedRouteNet` and
//! `QosRouteNet` (on a two-class dataset), each with a validation set, early
//! stopping and a learning-rate halving. Recorded at commit 0fd495a, when
//! the trainer still carried a per-sample path, a streaming twin and a
//! background prefetch lane beside its default schedule; the one schedule
//! that replaced them must keep every bit.
//! `qos_two_class` was re-recorded once, when plans stopped carrying rows for
//! (link, class) queues no path crosses: fewer rows regroup the queue GRU's
//! weight-gradient sums, the loss history agreed with the old one to 7e-8
//! relative and training stopped at the same epoch. All three were
//! re-recorded when the GRU step began to read a pre-projected input
//! (`[h|x]·W` regrouped as `h·W_h + x·W_x`): every loss within 1.5e-7
//! relative of the histories below, the same stop epochs. And once more when
//! the shard gang went (a megabatch's weight gradients are one product over
//! all its rows, no longer per-sample partials merged in order): every loss
//! within 1.9e-7, the same stop epochs. And once more when each
//! multiply-add of the matmul kernels and of `fast_exp` became one fused,
//! correctly rounded step on every SIMD tier: every loss within 2.7e-7
//! relative of the histories below (`original` 2.6e-7, `extended` 2.7e-7,
//! `qos_two_class` 1.2e-7), the same stop epochs (8, 8, 3).
//!
//! `tests/model_digest.rs` stops at one forward/backward; this pins what
//! comes after it — batch membership and visit order from the seeded
//! shuffle, the merge of a batch's compositions, clip, Adam, the halving
//! schedule, the patience counter and the best-weights restore.
//!
//! Beside the digests, `tests/fixtures/trainer_values.json` holds every
//! scenario's loss histories and stop epoch as numbers, written by commit
//! 8e9b40a; `trainers_stay_within_tolerance_of_the_recorded_histories` holds
//! every run of the head to them (losses to 1e-4 relative, the same stop
//! epoch), so a change that moves the digests can say by how much.
//!
//! After an *intentional* numerics change, `RN_REGEN_GOLDEN=1 cargo test
//! --test trainer_digest -- --nocapture` prints fresh constants and rewrites
//! the fixture; name one test (`trainers_reproduce…`, `trainers_stay…`) to
//! do one without the other.

use rn_dataset::{generate, Dataset, GeneratorConfig, QosGenConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_nn::loss::Loss;
use routenet::model::PathPredictor;
use routenet::plan_cache::Fingerprint;
use routenet::{
    train, ExtendedRouteNet, ModelConfig, OriginalRouteNet, QosRouteNet, TrainConfig,
    TrainingHistory,
};
use std::path::PathBuf;

fn dataset(qos: bool, seed: u64, samples: usize) -> Dataset {
    let config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 40.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        qos: qos.then(QosGenConfig::two_class_mix),
        ..GeneratorConfig::default()
    };
    generate(&topologies::toy5(), &config, seed, samples)
}

fn model_config() -> ModelConfig {
    ModelConfig {
        state_dim: 8,
        mp_iterations: 2,
        readout_hidden: 8,
        seed: 15,
        ..ModelConfig::default()
    }
}

/// Six samples in batches of four, megabatches of two: a full batch of two
/// compositions and a ragged one of a single composition. The learning rate
/// is hot on purpose, so validation regresses and the patience counter, the
/// early stop and the best-weights restore all run.
fn train_config() -> TrainConfig {
    TrainConfig {
        epochs: 8,
        batch_size: 4,
        megabatch_size: 2,
        learning_rate: 3e-2,
        loss: Loss::Mse,
        min_packets: 5,
        seed: 20_260_928,
        patience: Some(1),
        lr_halve_epochs: vec![2],
        ..TrainConfig::default()
    }
}

/// One `train()` run of a scenario.
struct Run {
    digest: u64,
    history: TrainingHistory,
}

/// `train()` from fresh weights, then FNV-1a over the bit patterns of the
/// loss history, the stop epoch and every parameter in parameter order.
fn run_digest<M: PathPredictor>(mut model: M, (train_set, val_set): &(Dataset, Dataset)) -> Run {
    let history = train(&mut model, train_set, Some(val_set), &train_config());
    let mut fp = Fingerprint::new();
    fp.usize(history.train_loss.len());
    for &l in &history.train_loss {
        fp.f64(l);
    }
    fp.usize(history.val_loss.len());
    for &l in &history.val_loss {
        fp.f64(l);
    }
    fp.usize(history.stopped_at);
    for param in model.params() {
        fp.usize(param.len());
        fp.f32s(param.as_slice());
    }
    Run {
        digest: fp.finish(),
        history,
    }
}

/// Every scenario, in the order of the recorded tables. The worker count is
/// whatever CPUs the process may run on; CI runs this file unpinned and under
/// `taskset -c 0`, and the same constants hold.
fn scenario_runs() -> [(&'static str, Run); 3] {
    let legacy = (dataset(false, 20_260_928, 6), dataset(false, 20_260_929, 3));
    let two_class = (dataset(true, 20_260_928, 6), dataset(true, 20_260_929, 3));
    assert!(two_class.0.samples[0].qos.is_some());
    [
        (
            "original",
            run_digest(OriginalRouteNet::new(model_config()), &legacy),
        ),
        (
            "extended",
            run_digest(ExtendedRouteNet::new(model_config()), &legacy),
        ),
        (
            "qos_two_class",
            run_digest(QosRouteNet::new(model_config()), &two_class),
        ),
    ]
}

#[test]
fn trainers_reproduce_the_recorded_digests() {
    let recorded: [(&str, u64); 3] = [
        ("original", 0xc7ef_158d_4494_7ec8),
        ("extended", 0x62ca_904f_10d9_63c2),
        ("qos_two_class", 0x37d9_2811_5bf9_d5c7),
    ];
    let scenarios: Vec<(&str, u64, Run)> = recorded
        .into_iter()
        .zip(scenario_runs())
        .map(|((name, want), (ran, run))| {
            assert_eq!(name, ran, "recorded table and scenarios out of step");
            (name, want, run)
        })
        .collect();
    let table: String = scenarios
        .iter()
        .map(|(name, want, run)| {
            format!(
                "  {name}:\n    recorded {want:#018x}\n    got      {:#018x} (stopped at epoch {})\n",
                run.digest, run.history.stopped_at
            )
        })
        .collect();
    if std::env::var("RN_REGEN_GOLDEN").is_ok() {
        eprintln!("trainer_digest scenarios:\n{table}");
        return;
    }
    assert!(
        scenarios.iter().all(|(_, want, run)| run.digest == *want),
        "the trainer moved bits against the frozen reference:\n{table}"
    );
}

const LOSS_TOL: f64 = 1e-4;

#[test]
fn trainers_stay_within_tolerance_of_the_recorded_histories() {
    let scenarios = scenario_runs();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/trainer_values.json");
    if std::env::var("RN_REGEN_GOLDEN").is_ok() {
        let values: Vec<(String, TrainingHistory)> = scenarios
            .iter()
            .map(|(name, run)| (name.to_string(), run.history.clone()))
            .collect();
        std::fs::write(&path, serde_json::to_string(&values).unwrap()).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with RN_REGEN_GOLDEN=1",
            path.display()
        )
    });
    let recorded: Vec<(String, TrainingHistory)> =
        serde_json::from_str(&text).expect("parse trainer_values.json");
    assert_eq!(recorded.len(), scenarios.len(), "scenario count");
    let max_rel = |got: &[f64], want: &[f64]| -> f64 {
        assert_eq!(got.len(), want.len(), "epoch count changed");
        got.iter()
            .zip(want)
            .map(|(g, w)| (g - w).abs() / w.abs().max(1e-12))
            .fold(0.0, f64::max)
    };
    let mut table = String::new();
    let mut ok = true;
    for ((name, want), (ran, run)) in recorded.iter().zip(&scenarios) {
        assert_eq!(name, ran, "fixture and scenarios out of step");
        let got = &run.history;
        let worst =
            max_rel(&got.train_loss, &want.train_loss).max(max_rel(&got.val_loss, &want.val_loss));
        table += &format!(
            "  {name}: losses {worst:.1e}, stopped at epoch {} (recorded {})\n",
            got.stopped_at, want.stopped_at
        );
        ok &= worst <= LOSS_TOL && got.stopped_at == want.stopped_at;
    }
    eprintln!("worst deviation from the recorded histories:\n{table}");
    assert!(
        ok,
        "a trainer left the tolerance of its recorded history (losses {LOSS_TOL:e} relative, \
         same stop epoch):\n{table}"
    );
}
