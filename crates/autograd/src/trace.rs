//! Optional per-op-kind timing of the tape, forward and backward.
//!
//! When tracing is on (`RN_TRACE=1`, see [`rn_trace::enabled`]), every
//! recording method of [`Graph`](crate::Graph) times itself from its first
//! line to the node it records, and [`Graph::backward`](crate::Graph::backward)
//! times each node's adjoint. Both attribute the time to one of the coarse
//! [`OP_KINDS`] below, the forward into [`forward_op_recorder`] and the
//! backward into [`op_recorder`] — process-global
//! [`rn_trace::StageRecorder`]s — so a slow training step or serve batch
//! can be broken down to *which kernel family* dominates (gather/scatter
//! traffic vs. the fused GRU vs. dense matmuls) without a profiler attach.
//! When tracing is off the cost is one relaxed atomic load per recording
//! method and per backward node.
//!
//! The two sweeps are timed apart because their costs are not symmetric:
//! at `state_dim = 8` the forward's candidate activation once cost as much
//! as the rest of the GRU step, and no backward op runs it.
//!
//! The recorders are process-global and cumulative: consumers (the
//! trainer's end-of-run summary, ad-hoc tooling) call [`reset_op_trace`]
//! at the start of the window they want to attribute and [`op_snapshot`] /
//! [`forward_op_snapshot`] at the end. Tracing never perturbs results —
//! gradients are bitwise identical with tracing on or off (pinned by
//! `tests/trace_equivalence.rs` at the workspace root).

use crate::graph::Op;
use std::sync::OnceLock;
use std::time::Instant;

/// Coarse op families both sweeps attribute time to, in recording-index
/// order (the order [`op_snapshot`] and [`forward_op_snapshot`] return).
pub const OP_KINDS: &[&str] = &[
    "gather",
    "gru",
    "segment",
    "matmul",
    "activation",
    "elementwise",
    "other",
];

/// Scatter/gather index traffic: `GatherRows`, `MaskRows`.
pub const KIND_GATHER: usize = 0;
/// The fused GRU cell adjoint: `GruStep`.
pub const KIND_GRU: usize = 1;
/// Segment aggregation adjoints: `SegmentAccRows`.
pub const KIND_SEGMENT: usize = 2;
/// Dense linear algebra: `MatMul`, `AddBias`.
pub const KIND_MATMUL: usize = 3;
/// Nonlinearity maps (the vectorized slice kernels): `Selu`.
pub const KIND_ACTIVATION: usize = 4;
/// Elementwise arithmetic, packing and reductions: `Sub`, `Square`,
/// `PackCols`, `Sum`, `Mean`.
pub const KIND_ELEMENTWISE: usize = 5;
/// Everything else: `Leaf`.
pub const KIND_OTHER: usize = 6;

static RECORDER: OnceLock<rn_trace::StageRecorder> = OnceLock::new();
static FORWARD_RECORDER: OnceLock<rn_trace::StageRecorder> = OnceLock::new();

/// The process-global backward op-kind recorder (one histogram per
/// [`OP_KINDS`] entry, shared by every tape on every thread).
pub fn op_recorder() -> &'static rn_trace::StageRecorder {
    RECORDER.get_or_init(|| rn_trace::StageRecorder::new(OP_KINDS))
}

/// The process-global forward op-kind recorder: the recording methods'
/// time, by the family of the node each records.
pub fn forward_op_recorder() -> &'static rn_trace::StageRecorder {
    FORWARD_RECORDER.get_or_init(|| rn_trace::StageRecorder::new(OP_KINDS))
}

/// Snapshot the per-kind backward timing accumulated since process start
/// (or the last [`reset_op_trace`]), in [`OP_KINDS`] order. All-zero
/// entries mean tracing was off or no backward ran.
pub fn op_snapshot() -> Vec<rn_trace::StageStats> {
    op_recorder().snapshot()
}

/// [`op_snapshot`] for the forward: the per-kind time of the recording
/// methods, inference tapes included.
pub fn forward_op_snapshot() -> Vec<rn_trace::StageStats> {
    forward_op_recorder().snapshot()
}

/// Zero both sweeps' op-kind histograms — call at the start of the window
/// you want [`op_snapshot`] and [`forward_op_snapshot`] to describe (e.g. a
/// training run).
pub fn reset_op_trace() {
    op_recorder().reset();
    forward_op_recorder().reset();
}

/// The clock reading a recording method starts from: `None` (no clock
/// read) while tracing is off.
#[inline]
pub(crate) fn forward_start() -> Option<Instant> {
    rn_trace::enabled().then(Instant::now)
}

/// Attribute the time since `start` to the family of the node being
/// recorded, `op`.
pub(crate) fn record_forward(op: &Op, start: Instant) {
    forward_op_recorder().record(kind_of(op), start.elapsed());
}

/// The [`OP_KINDS`] family of `op`. No wildcard arm: a new variant names
/// its family here, as it names its reads in `Op::adjoint_reads` and its
/// finite-difference row in `check`'s table.
pub(crate) fn kind_of(op: &Op) -> usize {
    match op {
        Op::GatherRows { .. } | Op::MaskRows { .. } => KIND_GATHER,
        Op::GruStep { .. } => KIND_GRU,
        Op::SegmentAccRows { .. } => KIND_SEGMENT,
        Op::MatMul { .. } | Op::AddBias { .. } => KIND_MATMUL,
        Op::Selu(_) => KIND_ACTIVATION,
        Op::Sub(..) | Op::Square(_) | Op::PackCols { .. } | Op::Sum(_) | Op::Mean(_) => {
            KIND_ELEMENTWISE
        }
        Op::Leaf { .. } => KIND_OTHER,
    }
}

/// Drop-guard timing one node's adjoint in the backward walk: created at
/// the top of the loop body so it also covers arms that `continue` early.
/// `None` (no clock read) while tracing is off.
pub(crate) struct OpSpan {
    kind: usize,
    start: Instant,
}

impl OpSpan {
    #[inline]
    pub(crate) fn begin(op: &Op) -> Option<OpSpan> {
        if !rn_trace::enabled() {
            return None;
        }
        Some(OpSpan {
            kind: kind_of(op),
            start: Instant::now(),
        })
    }
}

impl Drop for OpSpan {
    fn drop(&mut self) {
        op_recorder().record(self.kind, self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_tensor::Matrix;

    #[test]
    fn both_sweeps_attribute_op_kinds_when_enabled() {
        rn_trace::set_enabled(true);
        reset_op_trace();
        let mut g = crate::Graph::new();
        let x = g.param(Matrix::row_vector(&[1.0, 2.0]));
        let w = g.param(Matrix::from_vec(2, 2, vec![3.0, 4.0, 5.0, 6.0]));
        let y = g.matmul(x, w);
        let z = g.selu(y);
        let loss = g.mean(z);
        g.backward(loss);
        rn_trace::set_enabled(false);
        // The forward: a span per recorded node, in its family (at least:
        // the recorders are process-global and other tests run beside).
        let fwd = forward_op_snapshot();
        assert_eq!(fwd.len(), OP_KINDS.len());
        for (kind, (s, &nodes)) in fwd.iter().zip(&g.op_kind_counts()).enumerate() {
            assert!(s.count >= nodes as u64, "{}: {s:?}", OP_KINDS[kind]);
        }
        let snap = op_snapshot();
        assert_eq!(snap.len(), OP_KINDS.len());
        assert!(snap[KIND_MATMUL].count >= 1, "matmul adjoint must be timed");
        assert!(
            snap[KIND_ACTIVATION].count >= 1,
            "selu adjoint lands in the activation bin"
        );
        assert!(
            snap[KIND_ELEMENTWISE].count >= 1,
            "mean adjoint is elementwise"
        );
        // And with tracing off, nothing further accumulates.
        reset_op_trace();
        let mut g = crate::Graph::new();
        let x = g.param(Matrix::row_vector(&[1.0]));
        let loss = g.mean(x);
        g.backward(loss);
        assert!(op_snapshot().iter().all(|s| s.count == 0));
        assert!(forward_op_snapshot().iter().all(|s| s.count == 0));
    }
}
