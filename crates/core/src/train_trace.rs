//! Per-epoch stage breakdown of the training loop, emitted as a JSONL
//! stream.
//!
//! When tracing is on (`RN_TRACE=1`, see [`rn_trace::enabled`]) the
//! trainer times five stages of every epoch — [`STAGES`]: composition
//! claiming (the inline compose of a batch's first visit), the fused
//! forward, the backward sweep, the optimizer step, and validation — and
//! appends one [`EpochRecord`] JSON line per epoch to the trace output
//! file, plus one final [`RunSummary`] line with cumulative stage totals
//! and the process-global op-kind attribution of both tape sweeps from
//! [`rn_autograd::trace`]. With tracing off nothing is timed, written, or
//! allocated.
//!
//! The output path is
//! [`TrainConfig::trace_out`](crate::trainer::TrainConfig::trace_out), else
//! [`DEFAULT_TRACE_OUT`] in the working directory.
//!
//! Tracing never perturbs training: it only reads clocks and bumps
//! atomics, so models and gradients are bitwise identical with tracing on
//! or off (pinned by `tests/trace_equivalence.rs` at the workspace root).

use crate::trainer::TrainConfig;
use rn_trace::{StageRecorder, StageStats};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::sync::Mutex;

/// Trainer stage names, recording-index order.
pub const STAGES: &[&str] = &["compose_wait", "forward", "backward", "optimizer", "eval"];
/// Claiming a batch's compositions: the inline compose on the batch's
/// first visit, a lookup afterwards. Near-zero from epoch 2 on — structure
/// reuse is total.
pub const COMPOSE_WAIT: usize = 0;
/// Fused forward pass + loss evaluation, one span per composition.
pub const FORWARD: usize = 1;
/// Reverse sweep over the tape, one span per composition.
pub const BACKWARD: usize = 2;
/// Gradient clipping + Adam step, one span per optimizer step.
pub const OPTIMIZER: usize = 3;
/// The whole validation pass of an epoch, one span per epoch.
pub const EVAL: usize = 4;

/// One stage's statistics inside an [`EpochRecord`] or a serving metrics
/// snapshot — the serializable face of an [`rn_trace::StageStats`]. Percentiles follow the workspace's
/// inclusive nearest-rank / bucket-upper-bound convention; `total_ms` and
/// `mean_ms` are exact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageLine {
    /// Stage name (see [`STAGES`], or [`rn_autograd::trace::OP_KINDS`] in
    /// a summary's `op_kinds` and `forward_op_kinds`, or a serving request
    /// stage).
    pub name: String,
    /// Spans recorded in the window.
    pub count: u64,
    /// Exact total time, milliseconds.
    pub total_ms: f64,
    /// Exact mean span duration, milliseconds.
    pub mean_ms: f64,
    /// Median span duration (ms, bucket upper bound).
    pub p50_ms: f64,
    /// 95th-percentile span duration (ms, bucket upper bound).
    pub p95_ms: f64,
    /// 99th-percentile span duration (ms, bucket upper bound).
    pub p99_ms: f64,
    /// Maximum span duration, milliseconds (exact).
    pub max_ms: f64,
}

impl From<StageStats> for StageLine {
    fn from(s: StageStats) -> Self {
        Self {
            name: s.name.to_string(),
            count: s.count,
            total_ms: s.total_ms,
            mean_ms: s.mean_ms,
            p50_ms: s.p50_ms,
            p95_ms: s.p95_ms,
            p99_ms: s.p99_ms,
            max_ms: s.max_ms,
        }
    }
}

/// One per-epoch line of the `train_metrics.jsonl` stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean training loss of the epoch (`None` when no labelled sample
    /// produced a finite loss — JSON has no NaN).
    pub train_loss: Option<f64>,
    /// Mean validation loss (`None` without a validation set or when not
    /// finite).
    pub val_loss: Option<f64>,
    /// Stage breakdown of this epoch, [`STAGES`] order.
    pub stages: Vec<StageLine>,
}

/// Cumulative totals for one stage across the whole run (percentiles are
/// per-epoch data — see the [`EpochRecord`] lines).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageTotal {
    /// Stage name ([`STAGES`] order).
    pub name: String,
    /// Spans recorded across all epochs.
    pub count: u64,
    /// Exact total time across all epochs, milliseconds.
    pub total_ms: f64,
}

/// The final line of the `train_metrics.jsonl` stream: run-level stage
/// totals plus op-kind attribution of the backward and the forward.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSummary {
    /// Always `true` — distinguishes this line from [`EpochRecord`]s when
    /// scanning the stream.
    pub summary: bool,
    /// Epochs the run actually executed (`TrainingHistory::stopped_at`).
    pub epochs: usize,
    /// Cumulative per-stage totals, [`STAGES`] order.
    pub stages: Vec<StageTotal>,
    /// Backward tape time by op kind ([`rn_autograd::trace::OP_KINDS`]
    /// order), accumulated since this run reset the process-global
    /// recorder. Percentiles here are per-op spans over the whole run.
    pub op_kinds: Vec<StageLine>,
    /// Forward tape time by op kind, in the same order and over the same
    /// window as [`RunSummary::op_kinds`]: each recording method of the
    /// tape, timed by the family of the node it records. Evaluation
    /// forwards count here too.
    pub forward_op_kinds: Vec<StageLine>,
    /// Bytes the run's tapes held in their buffer pools when it ended — the
    /// tape-memory high-water mark (the pools only grow, up to the working
    /// set of the largest step).
    pub tape_pool_bytes: u64,
    /// Fresh allocations those pools made over the whole run; steps after
    /// the first visit of every batch shape add none.
    pub tape_pool_misses: u64,
}

/// Trace output path when
/// [`TrainConfig::trace_out`](crate::trainer::TrainConfig::trace_out) names
/// none.
pub const DEFAULT_TRACE_OUT: &str = "train_metrics.jsonl";

struct Sink {
    writer: BufWriter<File>,
    totals: Vec<(u64, f64)>, // (count, total_ms) per stage
    epochs: usize,
}

/// Per-training-run trace state: a stage recorder the epoch loop records
/// into, and (when tracing is on) the JSONL sink it drains into once per
/// epoch. Constructed by the trainer; one instance per `train_*` call, so
/// concurrent trainings in one process don't interleave stage histograms
/// (the op-kind recorders are process-global and *would* mix).
pub struct TrainTrace {
    recorder: StageRecorder,
    sink: Option<Mutex<Sink>>,
}

impl TrainTrace {
    /// Set up tracing for one training run. With tracing off this is a
    /// recorder whose spans are inert; with it on, the output file is
    /// created (truncating a previous run's) and the process-global
    /// op-kind recorders are reset so the final summary attributes
    /// only this run. An unwritable path warns and disables emission
    /// rather than failing the run.
    pub fn new(config: &TrainConfig) -> Self {
        let recorder = StageRecorder::new(STAGES);
        let sink = rn_trace::enabled().then(|| {
            let path = config.trace_out.as_deref().unwrap_or(DEFAULT_TRACE_OUT);
            rn_autograd::trace::reset_op_trace();
            match File::create(path) {
                Ok(f) => Some(Mutex::new(Sink {
                    writer: BufWriter::new(f),
                    totals: vec![(0, 0.0); STAGES.len()],
                    epochs: 0,
                })),
                Err(e) => {
                    eprintln!("[trace] cannot create {path}: {e}; train trace disabled");
                    None
                }
            }
        });
        Self {
            recorder,
            sink: sink.flatten(),
        }
    }

    /// The stage recorder the epoch loop (and its worker closures) record
    /// into.
    pub fn recorder(&self) -> &StageRecorder {
        &self.recorder
    }

    /// Drain the epoch's stage histograms into one JSONL line and reset
    /// them for the next epoch. No-op while tracing is off.
    pub fn emit_epoch(&self, epoch: usize, train_loss: f64, val_loss: Option<f64>) {
        let Some(sink) = &self.sink else { return };
        let snap = self.recorder.snapshot();
        self.recorder.reset();
        let record = EpochRecord {
            epoch,
            train_loss: Some(train_loss).filter(|l| l.is_finite()),
            val_loss: val_loss.filter(|l| l.is_finite()),
            stages: snap.iter().cloned().map(StageLine::from).collect(),
        };
        let mut sink = sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        sink.epochs = sink.epochs.max(epoch + 1);
        for (acc, s) in sink.totals.iter_mut().zip(&snap) {
            acc.0 += s.count;
            acc.1 += s.total_ms;
        }
        if let Ok(line) = serde_json::to_string(&record) {
            let _ = writeln!(sink.writer, "{line}");
            let _ = sink.writer.flush(); // keep the tail readable mid-run
        }
    }

    /// Write the final [`RunSummary`] line, reading the tape-memory gauges
    /// off the run's (by now fully parked) tapes. No-op while tracing is off.
    pub fn finish(&self, tapes: &rn_autograd::TapePool) {
        let Some(sink) = &self.sink else { return };
        let mut sink = sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let summary = RunSummary {
            summary: true,
            epochs: sink.epochs,
            stages: STAGES
                .iter()
                .zip(&sink.totals)
                .map(|(name, &(count, total_ms))| StageTotal {
                    name: (*name).to_string(),
                    count,
                    total_ms,
                })
                .collect(),
            op_kinds: rn_autograd::trace::op_snapshot()
                .into_iter()
                .map(StageLine::from)
                .collect(),
            forward_op_kinds: rn_autograd::trace::forward_op_snapshot()
                .into_iter()
                .map(StageLine::from)
                .collect(),
            tape_pool_bytes: tapes.pooled_bytes() as u64,
            tape_pool_misses: tapes.pool_misses(),
        };
        if let Ok(line) = serde_json::to_string(&summary) {
            let _ = writeln!(sink.writer, "{line}");
            let _ = sink.writer.flush();
        }
    }
}
