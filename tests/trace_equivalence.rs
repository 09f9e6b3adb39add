//! Tracing is bitwise invisible to training: the same seed produces the
//! same model, losses and predictions with `RN_TRACE` on or off, and the
//! traced run emits a well-formed per-epoch JSONL stream plus a final
//! run summary with op-kind attribution of both tape sweeps.
//!
//! Tracing state is process-global (`rn_trace::set_enabled`), so both runs
//! live in one test function, sequenced explicitly.

use rn_dataset::{generate, Dataset, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use routenet::model::PathPredictor;
use routenet::train_trace::{EpochRecord, RunSummary, STAGES};
use routenet::trainer::{train, TrainConfig, TrainingHistory};
use routenet::{ExtendedRouteNet, ModelConfig};
use std::path::Path;

fn toy_dataset(n: usize, seed: u64) -> Dataset {
    let config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    generate(&topologies::toy5(), &config, seed, n)
}

/// Train a fresh fixed-seed model, tracing (while `RN_TRACE` is on) to
/// `trace_out`, and return (history, prediction bits).
fn train_and_predict(
    train_set: &Dataset,
    val_set: &Dataset,
    trace_out: &Path,
) -> (TrainingHistory, Vec<u64>) {
    let mut model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 8,
        mp_iterations: 2,
        readout_hidden: 8,
        seed: 5,
        ..ModelConfig::default()
    });
    let config = TrainConfig {
        epochs: 3,
        batch_size: 4,
        megabatch_size: 2,
        trace_out: Some(trace_out.to_string_lossy().into_owned()),
        ..TrainConfig::default()
    };
    let history = train(&mut model, train_set, Some(val_set), &config);
    let plans: Vec<_> = val_set.samples.iter().map(|s| model.plan(s)).collect();
    let bits = model
        .predict_batch(&plans)
        .iter()
        .flatten()
        .map(|d| d.to_bits())
        .collect();
    (history, bits)
}

fn loss_bits(h: &TrainingHistory) -> Vec<u64> {
    h.train_loss
        .iter()
        .chain(&h.val_loss)
        .map(|l| l.to_bits())
        .collect()
}

#[test]
fn traced_training_is_bitwise_identical_and_emits_epoch_jsonl() {
    let train_set = toy_dataset(6, 41);
    let val_set = toy_dataset(2, 42);
    let out = std::env::temp_dir().join(format!("rn_trace_train_{}.jsonl", std::process::id()));
    rn_trace::set_enabled(false);
    let (hist_off, bits_off) = train_and_predict(&train_set, &val_set, &out);
    assert!(
        !out.exists(),
        "no trace file may be written while tracing is off"
    );

    rn_trace::set_enabled(true);
    let (hist_on, bits_on) = train_and_predict(&train_set, &val_set, &out);
    rn_trace::set_enabled(false);

    assert_eq!(
        loss_bits(&hist_off),
        loss_bits(&hist_on),
        "per-epoch losses must be bitwise identical tracing on vs off"
    );
    assert_eq!(
        bits_off, bits_on,
        "trained-model predictions must be bitwise identical tracing on vs off"
    );

    // The stream: one EpochRecord line per executed epoch, then exactly one
    // RunSummary line.
    let text = std::fs::read_to_string(&out).expect("trace file written");
    std::fs::remove_file(&out).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        hist_on.stopped_at + 1,
        "one line per epoch plus the summary"
    );
    for (epoch, line) in lines[..hist_on.stopped_at].iter().enumerate() {
        let rec: EpochRecord = serde_json::from_str(line).expect("epoch line parses");
        assert_eq!(rec.epoch, epoch);
        assert_eq!(rec.stages.len(), STAGES.len());
        for (s, &name) in rec.stages.iter().zip(STAGES) {
            assert_eq!(s.name, name, "stage order is positional");
        }
        // Compose, forward, backward and the optimizer all run every epoch;
        // eval runs because a validation set is present.
        for s in &rec.stages {
            assert!(s.count > 0, "stage {} recorded no spans", s.name);
            assert!(s.total_ms >= 0.0 && s.total_ms.is_finite());
        }
        assert!(rec.train_loss.is_some() && rec.val_loss.is_some());
    }
    let summary: RunSummary =
        serde_json::from_str(lines[hist_on.stopped_at]).expect("summary line parses");
    assert!(summary.summary);
    assert_eq!(summary.epochs, hist_on.stopped_at);
    assert_eq!(summary.stages.len(), STAGES.len());
    let fwd = summary.stages.iter().find(|s| s.name == "forward").unwrap();
    assert!(fwd.count > 0 && fwd.total_ms > 0.0);
    // Backward op-kind attribution reached the tape.
    assert!(!summary.op_kinds.is_empty());
    assert!(
        summary.op_kinds.iter().any(|k| k.count > 0),
        "at least one op kind must have recorded backward spans"
    );
    // Forward attribution too, in the same families: every forward records
    // the GRU steps and the products, and each family's forward spans
    // include the tape nodes the backward reached.
    let names = |kinds: &[routenet::train_trace::StageLine]| {
        kinds.iter().map(|k| k.name.clone()).collect::<Vec<_>>()
    };
    assert_eq!(names(&summary.forward_op_kinds), names(&summary.op_kinds));
    for kind in ["gru", "matmul"] {
        let fwd = summary
            .forward_op_kinds
            .iter()
            .find(|k| k.name == kind)
            .unwrap();
        let bwd = summary.op_kinds.iter().find(|k| k.name == kind).unwrap();
        assert!(
            fwd.count >= bwd.count && fwd.count > 0 && fwd.total_ms > 0.0,
            "{kind}: forward {fwd:?}, backward {bwd:?}"
        );
    }
}
