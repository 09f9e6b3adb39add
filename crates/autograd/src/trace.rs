//! Optional per-op-kind timing of the backward tape walk.
//!
//! When tracing is on (`RN_TRACE=1`, see [`rn_trace::enabled`]),
//! [`Graph::backward`](crate::Graph::backward) times each node's adjoint
//! and attributes it to one of the coarse [`OP_KINDS`] below in a
//! process-global [`rn_trace::StageRecorder`] — so a slow training step or
//! serve batch can be broken down to *which kernel family* dominates
//! (gather/scatter traffic vs. the fused GRU vs. dense matmuls) without a
//! profiler attach. When tracing is off the cost is one relaxed atomic
//! load per node.
//!
//! Only the **backward** sweep is instrumented: forward ops execute
//! eagerly at their call sites (define-by-run), so there is no central
//! forward interpreter loop to hook; the reverse sweep is where the tape
//! is replayed in one place. Kernel cost is roughly symmetric between the
//! two sweeps, so backward attribution identifies the same hotspots.
//!
//! The recorder is process-global and cumulative: consumers (the trainer's
//! end-of-run summary, ad-hoc tooling) call [`reset_op_trace`] at the
//! start of the window they want to attribute and [`op_snapshot`] at the
//! end. Tracing never perturbs results — gradients are bitwise identical
//! with tracing on or off (pinned by `tests/trace_equivalence.rs` at the
//! workspace root).

use crate::graph::Op;
use std::sync::OnceLock;
use std::time::Instant;

/// Coarse op families the backward walk attributes time to, in
/// recording-index order (the order [`op_snapshot`] returns).
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

/// The process-global backward op-kind recorder (one histogram per
/// [`OP_KINDS`] entry, shared by every tape on every thread).
pub fn op_recorder() -> &'static rn_trace::StageRecorder {
    RECORDER.get_or_init(|| rn_trace::StageRecorder::new(OP_KINDS))
}

/// Snapshot the per-kind backward timing accumulated since process start
/// (or the last [`reset_op_trace`]), in [`OP_KINDS`] order. All-zero
/// entries mean tracing was off or no backward ran.
pub fn op_snapshot() -> Vec<rn_trace::StageStats> {
    op_recorder().snapshot()
}

/// Zero the global op-kind histograms — call at the start of the window
/// you want [`op_snapshot`] to describe (e.g. a training run).
pub fn reset_op_trace() {
    op_recorder().reset();
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
    fn backward_attributes_op_kinds_when_enabled() {
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
    }
}
