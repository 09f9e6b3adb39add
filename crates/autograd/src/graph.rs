//! The differentiation tape.
//!
//! [`Graph`] owns a flat vector of nodes; every operation appends one node
//! holding the forward value plus enough information to compute the adjoint.
//! [`Var`] is a copyable handle (an index into the tape). Because nodes are
//! appended in execution order, a single reverse sweep in `backward` visits
//! every node after all of its consumers — the classic tape invariant.
//!
//! ## Buffer pool
//!
//! Training runs thousands of short-lived tapes, and profiling showed the
//! dominant cost after kernel time is allocator churn: every op allocates its
//! output, every backward allocates adjoints. The tape therefore owns one
//! [`BufPool`] of `f32` buffers (and one of index buffers) and every
//! allocation on the forward / backward / bind path goes through its doors:
//! out through `pool_matrix` (zeroed) and `pool_matrix_scratch` (arbitrary
//! contents, for targets that are fully overwritten), back through
//! `pool_recycle` (mid-cycle, only for what those two handed out) and, at
//! `reset`, `pool_harvest` (any origin). The contract, pinned by
//! `tests/tape_pool_soak.rs` and the crate's proptests:
//!
//! - **Classes.** Free lists are keyed by power-of-two capacity. A request
//!   pops from class `⌈log₂ len⌉` (a **miss** allocates exactly that class's
//!   capacity and is counted in [`Graph::pool_misses`]); a returned buffer is
//!   filed under `⌊log₂ capacity⌋`. A popped buffer therefore always fits and
//!   shaping it never reallocates or copies stale contents.
//! - **Bound.** A class parks at most as many buffers as it ever had live at
//!   once between two [`Graph::reset`]s; anything returned beyond that is
//!   freed. Zero-capacity vectors (the placeholders in-place inference leaves
//!   behind stolen states) are never parked.
//! - **Adoption.** [`Graph::reset`] harvests every node's value, gradient and
//!   fused-op scratch. Buffers it meets for the first time — matrices a
//!   caller allocated and handed to [`Graph::param`] / [`Graph::constant`] —
//!   are parked under the same bound, so a caller that keeps feeding foreign
//!   buffers cannot grow the pool. Adoption never lowers a class's live
//!   count, so a foreign buffer cannot hide a pooled one that is still out.
//!
//! Once a tape has seen every shape of its workload it allocates nothing per
//! cycle beyond small bookkeeping (shard task lists, the boxed saved-state
//! record of a fused GRU node): [`Graph::pooled_buffers`] and
//! [`Graph::pooled_bytes`] stop moving and [`Graph::pool_misses`] stays
//! flat, in inference and in training. Reuse is numerically inert: pooled
//! buffers are fully overwritten (or zero-filled) before use, so a reused
//! tape produces bit-identical values and gradients to a fresh one, whatever
//! shapes it ran before.
//!
//! ## Fused ops
//!
//! RouteNet's hot loop is one GRU step per sequence position per
//! message-passing iteration. Expressed in primitive ops that is ~20 tape
//! nodes per position; [`Graph::gather_rows`] over the active ids, the
//! row-compacted [`Graph::gru_step_rows`] and [`Graph::segment_acc_rows`]
//! collapse it to 3, shrinking tape length (and backward dispatch +
//! allocation) by roughly an order of magnitude. The primitive ops remain —
//! tests use them as the numerical reference.
//!
//! There is one fused GRU form. It reads its input already projected —
//! `px = x·W_x`, see [`GruVars`] — because in message passing many rows
//! share one `x` (every path crossing a link reads that link's state): the
//! caller projects each distinct input once ([`Graph::matmul_sharded`] over
//! the entity rows), gathers rows of the projection, and the step's own
//! products run over the state half alone. The every-row entity updates go
//! through the same node with an identity row list
//! ([`Graph::gru_step_dense_sharded`]), and a layout of one shard is the
//! sharded code run over the whole buffers.

use crate::activations as act;
use crate::bufpool::BufPool;
use crate::index::{IndexInput, IndexList, SharedIndices};
use rayon::WorkerPool;
use rn_tensor::simd::activations as vact;
use rn_tensor::{kernels, Matrix};
use std::sync::{Arc, Mutex};

/// Handle to a node on the tape. Cheap to copy; only valid for the [`Graph`]
/// that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// One bound GRU cell as the fused [`Graph::gru_step_rows`] op consumes it.
///
/// A cell's kernels are `(hidden + input) x hidden`: the top `hidden` rows
/// (`W_h`) multiply the state, the bottom `input` rows (`W_x`) the input, so
/// `[h|x]·W = h·W_h + x·W_x`. [`Graph::gru_pack`] splits the six parameter
/// matrices along that line and packs the halves by operand; the packed
/// nodes hand their gradients back to the six parameters, so nothing
/// downstream of the tape sees the packing.
#[derive(Debug, Clone, Copy)]
pub struct GruVars {
    /// `[W_h,z | W_h,r]`, `hidden x 2·hidden`: both gates' recurrent kernels.
    pub w_h_zr: Var,
    /// `W_h,c`, `hidden x hidden`: the candidate's recurrent kernel.
    pub w_h_c: Var,
    /// `[W_x,z | W_x,r | W_x,c]`, `input x 3·hidden`: the input projection
    /// `px = x·W_x` the step reads in place of `x`.
    pub w_x: Var,
    /// `[b_z | b_r | b_c]`, `1 x 3·hidden`.
    pub b: Var,
}

/// Forward intermediates the fused GRU step saves for its adjoint, all over
/// the `a` active rows.
#[derive(Debug)]
pub(crate) struct GruSaved {
    /// The active rows of the old state, `a x hidden`.
    h: Matrix,
    /// `[z | r]`, both gates post-sigmoid, `a x 2·hidden`.
    zr: Matrix,
    /// `r ⊙ h`, `a x hidden`.
    rh: Matrix,
    /// Candidate state (post-tanh), `a x hidden`.
    c: Matrix,
}

/// Borrowed shard layout handed to the sharded fused ops at record time.
///
/// A megabatch packs `B` samples block-diagonally; its plan precompiles, per
/// fused op, where each sample's slice of the work lives. All three arrays
/// have `B + 1` ascending entries:
///
/// - `active`: offsets into the op's active row/index list (`rows`, `ids`);
///   shard `s` owns entries `active[s]..active[s+1]`.
/// - `dense`: row bounds of the dense per-path state the op reads/writes.
/// - `entity`: row bounds of the entity space gathered from / scattered into.
///
/// Because the megabatch is block-diagonal, shard `s`'s active entries only
/// reference dense rows in `dense[s]..dense[s+1]` and entity rows in
/// `entity[s]..entity[s+1]` — which is what makes every shard's reads and
/// writes disjoint, and therefore parallelizable without changing a single
/// bit of the result.
#[derive(Debug, Clone)]
pub struct ShardSplit<'a> {
    /// Offsets into the op's active list (len `B + 1`).
    pub active: IndexInput<'a>,
    /// Dense (path-state) row bounds (len `B + 1`), spanning all rows.
    pub dense: IndexInput<'a>,
    /// Entity (gather/scatter target) row bounds (len `B + 1`).
    pub entity: IndexInput<'a>,
}

impl<'a> ShardSplit<'a> {
    /// Build a split from three borrowed slices, which the tape copies —
    /// for callers that hold plain slices rather than shared buffers.
    pub fn borrowed(active: &'a [usize], dense: &'a [usize], entity: &'a [usize]) -> Self {
        Self {
            active: active.into(),
            dense: dense.into(),
            entity: entity.into(),
        }
    }
}

/// Owned capture of a [`ShardSplit`] stored on a tape node: pooled copies
/// (recycled through the index pool on [`Graph::reset`]) or shared views,
/// mirroring what the caller handed in.
#[derive(Debug, Default)]
pub(crate) struct OpShards {
    active: IndexList,
    dense: IndexList,
    entity: IndexList,
}

impl OpShards {
    fn capture(idx_pool: &mut BufPool<usize>, copied: &mut u64, split: &ShardSplit<'_>) -> Self {
        Self {
            active: intern_indices(idx_pool, copied, &split.active),
            dense: intern_indices(idx_pool, copied, &split.dense),
            entity: intern_indices(idx_pool, copied, &split.entity),
        }
    }

    fn recycle(self, idx_pool: &mut BufPool<usize>) {
        recycle_index(idx_pool, self.active);
        recycle_index(idx_pool, self.dense);
        recycle_index(idx_pool, self.entity);
    }
}

/// Validate a shard split against the op's active-list length and the row
/// counts of the spaces it partitions (`None` skips that check).
fn validate_split(
    split: &ShardSplit<'_>,
    active_len: usize,
    dense_rows: Option<usize>,
    entity_rows: Option<usize>,
) {
    let check = |bounds: &[usize], total: usize, what: &str| {
        assert!(
            bounds.first() == Some(&0) && bounds.last() == Some(&total),
            "shard split: {what} bounds must span 0..{total}, got {bounds:?}"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "shard split: {what} bounds must be ascending"
        );
    };
    check(split.active.as_slice(), active_len, "active");
    if let Some(n) = dense_rows {
        check(split.dense.as_slice(), n, "dense");
    }
    if let Some(n) = entity_rows {
        check(split.entity.as_slice(), n, "entity");
    }
    assert_eq!(
        split.active.as_slice().len(),
        split.dense.as_slice().len(),
        "shard split: bounds arrays must agree on shard count"
    );
    assert_eq!(
        split.active.as_slice().len(),
        split.entity.as_slice().len(),
        "shard split: bounds arrays must agree on shard count"
    );
}

/// Validate a dense row-bounds partition (ascending, spanning `0..rows`)
/// and capture it into a pooled index buffer when it actually splits the
/// rows (more than one shard). Dense sharded ops — the readout matmuls, bias
/// adds and SELU maps, and the link/node GRU updates — carry only this one
/// bounds array: every row is active, so there is no separate active/entity
/// indirection like the [`ShardSplit`] of the compacted message-passing ops.
fn capture_dense_shards(
    idx_pool: &mut BufPool<usize>,
    copied: &mut u64,
    bounds: Option<&IndexInput<'_>>,
    rows: usize,
) -> Option<IndexList> {
    let input = bounds?;
    let b = input.as_slice();
    assert!(
        b.first() == Some(&0) && b.last() == Some(&rows),
        "dense shards: bounds must span 0..{rows}, got {b:?}"
    );
    assert!(
        b.windows(2).all(|w| w[0] <= w[1]),
        "dense shards: bounds must be ascending"
    );
    (b.len() > 2).then(|| intern_indices(idx_pool, copied, input))
}

/// Minimum per-op element-traffic estimate before fanning out to the
/// worker pool: below this, dispatch latency beats the parallel win (late
/// sequence positions have a handful of active rows). Inline vs pooled
/// execution is bitwise identical, so this is purely a scheduling
/// heuristic.
const PAR_MIN_ELEMS: usize = 4096;

/// The pool, if the estimated work is heavy enough to be worth a dispatch.
fn pool_if_worth(
    pool: &Option<Arc<WorkerPool>>,
    threshold: usize,
    work_elems: usize,
) -> Option<&WorkerPool> {
    pool.as_deref().filter(|_| work_elems >= threshold)
}

/// Run `f` over every task, inline or fanned out on the worker pool.
///
/// Workers pick tasks round-robin by index; since every task's result is a
/// pure function of its inputs (disjoint writes, shard-local scratch), the
/// produced bits do not depend on the worker count — including zero workers
/// (the inline path). `f` must not panic-degrade shared state; a panicking
/// task propagates out of the pool.
fn run_shard_tasks<T: Send>(pool: Option<&WorkerPool>, tasks: &mut [T], f: impl Fn(&mut T) + Sync) {
    match pool {
        Some(pool) if tasks.len() > 1 => {
            let workers = pool.workers();
            let slots: Vec<Mutex<&mut T>> = tasks.iter_mut().map(Mutex::new).collect();
            pool.run(&|w| {
                for (s, slot) in slots.iter().enumerate() {
                    if s % workers == w {
                        let mut guard = slot.lock().expect("shard task poisoned");
                        f(&mut **guard);
                    }
                }
            });
        }
        _ => {
            for t in tasks.iter_mut() {
                f(t);
            }
        }
    }
}

/// Run `f` over disjoint element chunks of `dst`, inline or on the pool.
///
/// The chunk boundaries are a pure function of `dst.len()` (fixed block
/// size), never of the worker count, and [`kernels::reduce_partials`]'s
/// per-element accumulation order is chunking-invariant besides — so the
/// merged bits cannot depend on scheduling.
fn reduce_partials_parallel(pool: Option<&WorkerPool>, dst: &mut Matrix, partials: &[&Matrix]) {
    const CHUNK: usize = 4096;
    let parts: Vec<&[f32]> = partials.iter().map(|p| p.as_slice()).collect();
    let d = dst.as_mut_slice();
    if pool.is_none() || d.len() <= CHUNK {
        kernels::reduce_partials(d, 0, &parts);
        return;
    }
    let mut tasks: Vec<(usize, &mut [f32])> = Vec::with_capacity(d.len() / CHUNK + 1);
    let mut rest = d;
    let mut offset = 0;
    while !rest.is_empty() {
        let take = rest.len().min(CHUNK);
        let (chunk, tail) = rest.split_at_mut(take);
        tasks.push((offset, chunk));
        offset += take;
        rest = tail;
    }
    run_shard_tasks(
        pool,
        &mut tasks,
        |(off, chunk): &mut (usize, &mut [f32])| {
            kernels::reduce_partials(chunk, *off, &parts);
        },
    );
}

/// Recorded operation: the inputs and any auxiliary data the adjoint needs.
#[derive(Debug)]
pub(crate) enum Op {
    /// Leaf node. `requires_grad = false` marks constants whose gradient is
    /// never materialized (saves memory for targets and masks).
    Leaf {
        requires_grad: bool,
    },
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// Matrix product `a · b`. `shards`, when present, is a dense row-bounds
    /// partition of `a`'s (and the output's) rows: the forward computes each
    /// output row block independently (bitwise identical to one full call),
    /// and the adjoint row-blocks the input gradient while accumulating
    /// `b`'s weight gradient as per-shard partials merged in shard order.
    MatMul {
        a: Var,
        b: Var,
        shards: Option<IndexList>,
    },
    /// Broadcast-add a `1 x c` bias row to every row of `x`. `shards` is a
    /// dense row partition (see [`Op::MatMul`]); the sharded adjoint reduces
    /// the bias gradient as per-shard column-sum partials in shard order.
    AddBias {
        x: Var,
        bias: Var,
        shards: Option<IndexList>,
    },
    /// Element-wise `a * x + b`. Only the slope is recorded: the adjoint of
    /// an affine map does not depend on the offset.
    Affine {
        x: Var,
        a: f32,
    },
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    /// SELU activation. `shards` is a dense row partition (see
    /// [`Op::MatMul`]): element-wise work is trivially row-decomposable, so
    /// forward and adjoint fan row blocks across the pool bitwise-safely.
    /// The readout MLP's hidden layers are the only heavy SELU consumers.
    Selu {
        x: Var,
        shards: Option<IndexList>,
    },
    Softplus(Var),
    Abs(Var),
    Square(Var),
    /// Element-wise `min(x, c)` for a scalar cap `c`.
    ClampMax {
        x: Var,
        cap: f32,
    },
    ConcatCols(Var, Var),
    SliceCols {
        x: Var,
        start: usize,
        end: usize,
    },
    GatherRows {
        x: Var,
        indices: IndexList,
        /// Megabatch shard layout (`active` splits `indices`; `entity`
        /// bounds the rows of `x` the adjoint scatters into).
        shards: Option<Box<OpShards>>,
    },
    SegmentSum {
        x: Var,
        segments: IndexList,
    },
    /// Multiply each row of `x` by the matching entry of a constant `n x 1`
    /// mask. The mask is captured by value: it is padding structure, not a
    /// differentiable quantity.
    MaskRows {
        x: Var,
        mask: Matrix,
    },
    Sum(Var),
    Mean(Var),
    /// One GRU step on a pre-projected input, as a single node: only `rows`
    /// advance, every other row of `h` passes through untouched; `px` holds
    /// `x·W_x` for the active rows (`rows.len() x 3·hidden`).
    GruStep {
        vars: GruVars,
        h: Var,
        px: Var,
        rows: IndexList,
        /// Saved-for-backward activations; `None` on nodes recorded in
        /// inference mode, which recycle them as soon as the value exists.
        saved: Option<Box<GruSaved>>,
        /// Megabatch shard layout (`active` splits `rows`; `dense` bounds
        /// the rows of `h`); `None` is the one-shard layout, whose blocks
        /// are the whole buffers. The adjoint accumulates the parameter
        /// gradients as per-shard partials merged in shard order — a
        /// canonical order that does not depend on how many workers run.
        shards: Option<Box<OpShards>>,
    },
    /// Column-concatenate rows `row_lo..row_lo + out.rows()` of every part.
    PackCols {
        parts: Vec<Var>,
        row_lo: usize,
    },
    /// Row-compacted scatter-add accumulate:
    /// `out = acc; out[segments[k]] += x[rows[k]]`.
    SegmentAccRows {
        acc: Var,
        x: Var,
        rows: IndexList,
        segments: IndexList,
        /// Megabatch shard layout (`active` splits `rows`/`segments`;
        /// `dense` bounds the rows of `x`, `entity` the rows of `acc`).
        shards: Option<Box<OpShards>>,
    },
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
}

/// A define-by-run differentiation tape.
///
/// Typical lifecycle: create, register parameters/inputs, run ops, call
/// [`Graph::backward`] once, read gradients with [`Graph::grad`] — then
/// either drop it or [`Graph::reset`] it to replay the next sample with the
/// same buffers.
#[derive(Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Recycled backing buffers (see module docs).
    pool: BufPool<f32>,
    /// Recycled index buffers (gather/scatter id lists).
    idx_pool: BufPool<usize>,
    /// The backward sweep's per-node pending-gradient slots, kept between
    /// calls so a warm tape does not reallocate them (always empty outside
    /// [`Graph::backward`]).
    grad_slots: Vec<Option<Matrix>>,
    /// Seed-faithful reference mode: primitive matmul/activation ops run the
    /// pre-refactor naive kernels and libm transcendentals. Used as the
    /// "before" side of the training-step benchmark and by equivalence tests.
    reference_mode: bool,
    /// Inference mode: fused GRU ops recycle their saved-for-backward
    /// activations immediately instead of keeping them resident until
    /// `reset`. Forward values are bitwise unchanged; `backward` is
    /// unavailable. This is the serving hot path's memory-footprint lever:
    /// a megabatch forward stops dragging ~10x its working set through the
    /// cache for gradients nobody will ask for.
    ///
    /// Inference mode additionally updates GRU states and scatter-add
    /// accumulators **in place**: the fused step ops steal the input state's
    /// buffer instead of copying it, so a megabatch inference stops paying
    /// an `n x state_dim` copy per sequence position. The consumed input
    /// `Var`'s value becomes empty — see [`Graph::gru_step_rows`].
    inference_mode: bool,
    /// Optional gang for intra-megabatch sharding: fused ops recorded with a
    /// [`ShardSplit`] fan their per-shard work out to these workers. Results
    /// are bitwise identical with and without the pool, at any worker count.
    worker_pool: Option<Arc<WorkerPool>>,
    /// Work-size floor (estimated element traffic) below which sharded ops
    /// skip the pool and run inline; 0 forces every sharded op through the
    /// pool. Defaults to `PAR_MIN_ELEMS` (set lazily on first use).
    par_threshold: Option<usize>,
    /// Cumulative count of index words the tape has copied into pooled
    /// buffers (never cleared by `reset`). Stays flat across steps recorded
    /// against shared views only.
    idx_copied: u64,
    /// Grow-only identity prefix `0..cap`, shared with dense fused steps so
    /// they do not materialize a per-step identity row list.
    identity: Option<Arc<[usize]>>,
}

/// Take a pooled buffer and shape it into a zeroed matrix.
fn pool_matrix(pool: &mut BufPool<f32>, rows: usize, cols: usize) -> Matrix {
    let len = rows * cols;
    let mut buf = pool.take(len);
    buf.clear();
    buf.resize(len, 0.0);
    Matrix::from_vec(rows, cols, buf)
}

/// Take a pooled buffer and shape it into a matrix of **arbitrary
/// contents** — for scratch every element of which is overwritten before it
/// is read (gathered/copied/matmul-`into` targets). Skipping the zero fill
/// is a measurable win: the fused hot loop shapes several such buffers per
/// tape node. The buffer's capacity covers `len`, so `resize` only trims it
/// or zero-fills the tail past the stale prefix; it never reallocates.
fn pool_matrix_scratch(pool: &mut BufPool<f32>, rows: usize, cols: usize) -> Matrix {
    let len = rows * cols;
    let mut buf = pool.take(len);
    buf.resize(len, 0.0);
    Matrix::from_vec(rows, cols, buf)
}

/// Return a matrix shaped by `pool_matrix` / `pool_matrix_scratch` in this
/// cycle to the pool. Matrices of any other origin go through
/// `pool_harvest`: a foreign buffer returned here would lower the class's
/// live count while pooled buffers are still out.
fn pool_recycle(pool: &mut BufPool<f32>, m: Matrix) {
    pool.put(m.into_vec());
}

/// Hand a matrix of unknown origin (a node's value or gradient at `reset`,
/// possibly allocated by the caller) to the pool, which keeps it while the
/// class is under its bound.
fn pool_harvest(pool: &mut BufPool<f32>, m: Matrix) {
    pool.adopt(m.into_vec());
}

impl GruSaved {
    /// Every buffer, for whichever door of the pool it leaves through.
    fn into_buffers(self) -> [Matrix; 4] {
        [self.h, self.zr, self.rh, self.c]
    }
}

/// Copy an index slice into a pooled buffer, counting the copied words into
/// the tape's traffic counter.
fn pool_indices(pool: &mut BufPool<usize>, copied: &mut u64, src: &[usize]) -> Vec<usize> {
    *copied += src.len() as u64;
    let mut v = pool.take(src.len());
    v.clear();
    v.extend_from_slice(src);
    v
}

/// Record an index input on the tape: copy a borrowed slice into a pooled
/// buffer, or store a shared view as-is (zero words copied).
fn intern_indices(
    pool: &mut BufPool<usize>,
    copied: &mut u64,
    input: &IndexInput<'_>,
) -> IndexList {
    match input {
        IndexInput::Copied(s) => IndexList::Pooled(pool_indices(pool, copied, s)),
        IndexInput::Shared(sh) => IndexList::Shared(sh.clone()),
    }
}

/// Hand a node's recorded index list to the pool at `reset` (pooled copies
/// only; shared views are just dropped).
fn recycle_index(idx_pool: &mut BufPool<usize>, list: IndexList) {
    if let IndexList::Pooled(v) = list {
        idx_pool.adopt(v);
    }
}

/// Add the column sums of `src` into the `1 x cols` accumulator `bias_grad`.
fn add_col_sums(bias_grad: &mut Matrix, src: &Matrix) {
    debug_assert_eq!(bias_grad.cols(), src.cols());
    let cols = src.cols();
    let acc = bias_grad.as_mut_slice();
    for r in 0..src.rows() {
        for (a, &v) in acc
            .iter_mut()
            .zip(&src.as_slice()[r * cols..(r + 1) * cols])
        {
            *a += v;
        }
    }
}

/// Read-only inputs shared by every shard of one fused GRU step forward.
struct GruFwdCtx<'a> {
    /// Old state `h`, `n x hidden` — `None` when the step runs in place (the
    /// state rows then live in each shard's `out` block already).
    hv: Option<&'a [f32]>,
    /// Projected input `[px_z | px_r | px_c]`, `a x 3·hidden`.
    px: &'a [f32],
    /// Active row per compacted position.
    rows: &'a [usize],
    w_h_zr: &'a [f32],
    w_h_c: &'a [f32],
    b: &'a [f32],
    hidden: usize,
}

/// One shard's mutable slices for the fused GRU step forward. `k_*` index
/// the compacted (active) dimension, `p_*` the dense state rows; all slices
/// are exactly the shard's disjoint blocks of the shared buffers (the whole
/// buffers, for a one-shard layout).
struct GruFwdTask<'a> {
    k_lo: usize,
    k_hi: usize,
    p_lo: usize,
    h: &'a mut [f32],
    zr: &'a mut [f32],
    rh: &'a mut [f32],
    c: &'a mut [f32],
    /// Dense state rows `p_lo..p_hi`: on entry either uninitialized (copy
    /// mode: filled from `ctx.hv` first) or holding the old state rows
    /// (in-place mode); on exit, the stepped state.
    out: &'a mut [f32],
}

/// Advance one shard of a GRU step (see [`Graph::gru_step_rows`]). Every
/// read and write stays inside the shard's blocks and every output element
/// is a function of its own row alone — which is what makes any shard
/// decomposition, on any number of threads, bitwise identical.
fn gru_forward_shard(ctx: &GruFwdCtx<'_>, t: &mut GruFwdTask<'_>) {
    let hidden = ctx.hidden;
    let a_s = t.k_hi - t.k_lo;
    // Copy mode: materialize the shard's old state rows first; afterwards
    // both modes read old state from `out`.
    if let Some(hv) = ctx.hv {
        t.out
            .copy_from_slice(&hv[t.p_lo * hidden..t.p_lo * hidden + t.out.len()]);
    }
    // Compact the active state rows and seed the three pre-activations with
    // the projected input: the kernels below accumulate onto it.
    for k in 0..a_s {
        let h_off = (ctx.rows[t.k_lo + k] - t.p_lo) * hidden;
        t.h[k * hidden..(k + 1) * hidden].copy_from_slice(&t.out[h_off..h_off + hidden]);
        let px = &ctx.px[(t.k_lo + k) * 3 * hidden..(t.k_lo + k + 1) * 3 * hidden];
        t.zr[k * 2 * hidden..(k + 1) * 2 * hidden].copy_from_slice(&px[..2 * hidden]);
        t.c[k * hidden..(k + 1) * hidden].copy_from_slice(&px[2 * hidden..]);
    }
    // [z | r] = σ(px_zr + h·W_h,zr + b_zr): one product for both gates.
    kernels::matmul_acc(t.h, ctx.w_h_zr, a_s, hidden, 2 * hidden, t.zr);
    vact::sigmoid_bias_map_inplace(t.zr, &ctx.b[..2 * hidden]);
    // c = tanh(px_c + (r ⊙ h)·W_h,c + b_c).
    for k in 0..a_s {
        let r = &t.zr[(2 * k + 1) * hidden..(2 * k + 2) * hidden];
        let h = &t.h[k * hidden..(k + 1) * hidden];
        for ((d, &rv), &hv) in t.rh[k * hidden..(k + 1) * hidden].iter_mut().zip(r).zip(h) {
            *d = rv * hv;
        }
    }
    kernels::matmul_acc(t.rh, ctx.w_h_c, a_s, hidden, hidden, t.c);
    vact::tanh_bias_map_inplace(t.c, &ctx.b[2 * hidden..]);
    // h' = (1 − z)⊙h + z⊙c on the active rows; inactive rows pass through.
    for k in 0..a_s {
        let h_off = (ctx.rows[t.k_lo + k] - t.p_lo) * hidden;
        let z = &t.zr[2 * k * hidden..(2 * k + 1) * hidden];
        let c = &t.c[k * hidden..(k + 1) * hidden];
        for ((o, &zj), &cj) in t.out[h_off..h_off + hidden].iter_mut().zip(z).zip(c) {
            *o = (1.0 - zj) * *o + zj * cj;
        }
    }
}

/// Read-only inputs shared by every shard of one fused GRU step adjoint.
struct GruBwdCtx<'a> {
    rows: &'a [usize],
    /// Incoming gradient (`n x hidden`).
    g: &'a [f32],
    saved: &'a GruSaved,
    /// `W_h,zrᵀ`, `2·hidden x hidden`.
    w_h_zr_t: &'a [f32],
    /// `W_h,cᵀ`, `hidden x hidden`.
    w_h_c_t: &'a [f32],
    hidden: usize,
}

/// Shard-local scratch for the GRU adjoint: intermediates plus the shard's
/// parameter-gradient **partials** (accumulated from zero and merged into
/// the gradient slots in fixed shard order afterwards).
struct GruBwdScratch {
    /// `[gz | gr]`, pre-activation gate gradients, `a_s x 2·hidden`.
    gzr: Matrix,
    /// Pre-activation candidate gradient, `a_s x hidden`.
    gc: Matrix,
    /// What reaches the active state rows through the three products.
    gh: Matrix,
    pw_h_zr: Matrix,
    pw_h_c: Matrix,
    pb: Matrix,
}

impl GruBwdScratch {
    fn take(pool: &mut BufPool<f32>, a_s: usize, hidden: usize) -> Self {
        Self {
            gzr: pool_matrix_scratch(pool, a_s, 2 * hidden),
            gc: pool_matrix_scratch(pool, a_s, hidden),
            gh: pool_matrix(pool, a_s, hidden),
            pw_h_zr: pool_matrix(pool, hidden, 2 * hidden),
            pw_h_c: pool_matrix(pool, hidden, hidden),
            pb: pool_matrix(pool, 1, 3 * hidden),
        }
    }

    /// The partials, in the order of [`GruVars::partial_targets`].
    fn partials(&self) -> [&Matrix; 3] {
        [&self.pw_h_zr, &self.pw_h_c, &self.pb]
    }

    fn recycle(self, pool: &mut BufPool<f32>) {
        for m in [
            self.gzr,
            self.gc,
            self.gh,
            self.pw_h_zr,
            self.pw_h_c,
            self.pb,
        ] {
            pool_recycle(pool, m);
        }
    }
}

impl GruVars {
    /// The packed nodes the step's adjoint accumulates into, in the order of
    /// [`GruBwdScratch::partials`].
    fn partial_targets(&self) -> [Var; 3] {
        [self.w_h_zr, self.w_h_c, self.b]
    }
}

/// One shard's mutable state for the GRU adjoint.
struct GruBwdTask<'a> {
    k_lo: usize,
    k_hi: usize,
    p_lo: usize,
    /// Dense block of the state gradient (rows `p_lo..p_hi`).
    gh: &'a mut [f32],
    /// Active block of the projected-input gradient (rows `k_lo..k_hi`).
    gpx: &'a mut [f32],
    scratch: GruBwdScratch,
}

/// Chunk size (elements) for fanning element-wise adjoints across the
/// worker pool. A multiple of the 8-lane vector width, so every chunk
/// decomposes into the same main/tail lanes the monolithic sweep would use.
const ELEMWISE_CHUNK: usize = 4096;

/// Run a `dst[i] = kernel(g[i], src[i])`-shaped adjoint over fixed chunks,
/// fanned across the worker pool when attached. Position-independent
/// element maps split at any boundary without changing bits, so this is
/// bitwise identical to one whole-slice kernel call at any worker count.
fn run_elementwise_chunks(
    pool: Option<&WorkerPool>,
    g: &[f32],
    src: &[f32],
    dst: &mut [f32],
    kernel: fn(&[f32], &[f32], &mut [f32]),
) {
    debug_assert_eq!(g.len(), dst.len());
    debug_assert_eq!(src.len(), dst.len());
    let mut tasks: Vec<(usize, &mut [f32])> = dst
        .chunks_mut(ELEMWISE_CHUNK)
        .enumerate()
        .map(|(i, chunk)| (i * ELEMWISE_CHUNK, chunk))
        .collect();
    run_shard_tasks(
        pool,
        &mut tasks,
        |(off, chunk): &mut (usize, &mut [f32])| {
            let len = chunk.len();
            kernel(&g[*off..*off + len], &src[*off..*off + len], chunk);
        },
    );
}

/// `acc[0..cols] += column sums of the rows of src` (slice form of
/// [`add_col_sums`]).
fn add_col_sums_slice(acc: &mut [f32], src: &[f32], cols: usize) {
    for row in src.chunks_exact(cols) {
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += v;
        }
    }
}

/// The adjoint of one shard of a GRU step. Row-disjoint gradients (`gh`,
/// `gpx`) are functions of their own row alone; parameter gradients land in
/// the shard's zeroed partials. Reads and writes never leave the shard's
/// blocks, so shards run concurrently and bitwise-reproducibly at any worker
/// count.
fn gru_backward_shard<'a>(ctx: &GruBwdCtx<'a>, t: &mut GruBwdTask<'_>) {
    let hidden = ctx.hidden;
    let (k_lo, k_hi, p_lo) = (t.k_lo, t.k_hi, t.p_lo);
    let a_s = k_hi - k_lo;
    let s = ctx.saved;
    let sc = &mut t.scratch;
    // The shard's blocks of the saved activations.
    let block = |m: &'a Matrix, width: usize| -> &'a [f32] {
        &m.as_slice()[k_lo * width * hidden..k_hi * width * hidden]
    };
    let (h, zr, rh, c) = (
        block(&s.h, 1),
        block(&s.zr, 2),
        block(&s.rh, 1),
        block(&s.c, 1),
    );
    let g_row = |k: usize| -> &'a [f32] {
        let row = ctx.rows[k_lo + k];
        &ctx.g[row * hidden..(row + 1) * hidden]
    };

    // Through the blend: gz = g ⊙ (c − h), gc = g ⊙ z.
    for k in 0..a_s {
        let g = g_row(k);
        let z = &zr[2 * k * hidden..(2 * k + 1) * hidden];
        let (lo, hi) = (k * hidden, (k + 1) * hidden);
        let gz = &mut sc.gzr.as_mut_slice()[2 * lo..2 * lo + hidden];
        for ((d, &gj), (&cj, &hj)) in gz.iter_mut().zip(g).zip(c[lo..hi].iter().zip(&h[lo..hi])) {
            *d = gj * (cj - hj);
        }
        for ((d, &gj), &zj) in sc.gc.as_mut_slice()[lo..hi].iter_mut().zip(g).zip(z) {
            *d = gj * zj;
        }
    }

    // Candidate branch: gc ← gc ⊙ (1 − c²); pW_h,c += (r⊙h)ᵀ·gc; and what
    // reaches r ⊙ h is gc·W_h,cᵀ.
    vact::tanh_deriv_mul_inplace(sc.gc.as_mut_slice(), c);
    kernels::matmul_tn_acc(
        rh,
        sc.gc.as_slice(),
        a_s,
        hidden,
        hidden,
        sc.pw_h_c.as_mut_slice(),
    );
    kernels::matmul_acc(
        sc.gc.as_slice(),
        ctx.w_h_c_t,
        a_s,
        hidden,
        hidden,
        sc.gh.as_mut_slice(),
    );
    // Split it: gr = g_rh ⊙ h, and g_rh ⊙ r is the state's share.
    for k in 0..a_s {
        let r = &zr[(2 * k + 1) * hidden..(2 * k + 2) * hidden];
        let (lo, hi) = (k * hidden, (k + 1) * hidden);
        let gr = &mut sc.gzr.as_mut_slice()[2 * lo + hidden..2 * hi];
        for ((g_rh, gr), (&hj, &rj)) in sc.gh.as_mut_slice()[lo..hi]
            .iter_mut()
            .zip(gr)
            .zip(h[lo..hi].iter().zip(r))
        {
            *gr = *g_rh * hj;
            *g_rh *= rj;
        }
    }

    // Both gates at once: [gz | gr] ← ⊙ σ′; pW_h,zr += hᵀ·[gz | gr]; the
    // state's share is [gz | gr]·W_h,zrᵀ, one product over k = 2·hidden.
    vact::sigmoid_deriv_mul_inplace(sc.gzr.as_mut_slice(), zr);
    kernels::matmul_tn_acc(
        h,
        sc.gzr.as_slice(),
        a_s,
        hidden,
        2 * hidden,
        sc.pw_h_zr.as_mut_slice(),
    );
    kernels::matmul_acc(
        sc.gzr.as_slice(),
        ctx.w_h_zr_t,
        a_s,
        2 * hidden,
        hidden,
        sc.gh.as_mut_slice(),
    );

    // Pass-through rows keep the incoming gradient; an active row gets
    // g ⊙ (1 − z) plus what came through the products, and [gz | gr | gc] is
    // the gradient of its projected input.
    t.gh.copy_from_slice(&ctx.g[p_lo * hidden..p_lo * hidden + t.gh.len()]);
    for k in 0..a_s {
        let g = g_row(k);
        let z = &zr[2 * k * hidden..(2 * k + 1) * hidden];
        let h_off = (ctx.rows[k_lo + k] - p_lo) * hidden;
        let (lo, hi) = (k * hidden, (k + 1) * hidden);
        for (((d, &gj), &zj), &through) in t.gh[h_off..h_off + hidden]
            .iter_mut()
            .zip(g)
            .zip(z)
            .zip(&sc.gh.as_slice()[lo..hi])
        {
            *d = gj * (1.0 - zj) + through;
        }
        let gpx = &mut t.gpx[3 * lo..3 * hi];
        gpx[..2 * hidden].copy_from_slice(&sc.gzr.as_slice()[2 * lo..2 * hi]);
        gpx[2 * hidden..].copy_from_slice(&sc.gc.as_slice()[lo..hi]);
    }
    add_col_sums_slice(sc.pb.as_mut_slice(), t.gpx, 3 * hidden);
}

/// `out[i] = f(x[i])` in a pooled buffer — [`Matrix::map`]'s arithmetic,
/// element for element, without its allocation.
fn pooled_map(pool: &mut BufPool<f32>, x: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
    let mut out = pool_matrix_scratch(pool, x.rows(), x.cols());
    for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *o = f(v);
    }
    out
}

/// `out[i] = f(a[i], b[i])` in a pooled buffer — the pooled [`Matrix::zip`].
fn pooled_zip(
    pool: &mut BufPool<f32>,
    a: &Matrix,
    b: &Matrix,
    f: impl Fn(f32, f32) -> f32,
) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "element-wise op: shape mismatch");
    let mut out = pool_matrix_scratch(pool, a.rows(), a.cols());
    for ((o, &x), &y) in out
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = f(x, y);
    }
    out
}

/// A copy of `src` in a pooled buffer (bits match `src.clone()`).
fn pooled_copy(pool: &mut BufPool<f32>, src: &Matrix) -> Matrix {
    let mut out = pool_matrix_scratch(pool, src.rows(), src.cols());
    out.as_mut_slice().copy_from_slice(src.as_slice());
    out
}

/// A pooled `rows x cols` matrix with every element `value`.
fn pooled_filled(pool: &mut BufPool<f32>, rows: usize, cols: usize, value: f32) -> Matrix {
    let mut out = pool_matrix_scratch(pool, rows, cols);
    out.as_mut_slice().fill(value);
    out
}

impl Graph {
    /// Empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty tape with room for `capacity` nodes (avoids reallocation in the
    /// message-passing hot loop, where the node count is predictable).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(capacity),
            ..Self::default()
        }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// How many recorded nodes fall in each family of
    /// [`crate::trace::OP_KINDS`] (same order). This counts the tape as
    /// recorded; the backward walk — and so [`crate::trace::op_snapshot`] —
    /// skips every node no gradient reaches.
    pub fn op_kind_counts(&self) -> Vec<usize> {
        let mut counts = vec![0; crate::trace::OP_KINDS.len()];
        for node in &self.nodes {
            counts[crate::trace::kind_of(&node.op)] += 1;
        }
        counts
    }

    /// Number of `f32` buffers currently parked in the pool (observability
    /// for tests and benchmarks). Flat from cycle to cycle on a warm tape.
    pub fn pooled_buffers(&self) -> usize {
        self.pool.parked()
    }

    /// Bytes of capacity currently parked in the tape's pools (`f32` and
    /// index buffers): the memory a reset tape holds on to. Bounded by the
    /// working set of the largest cycle the tape has run.
    pub fn pooled_bytes(&self) -> usize {
        self.pool.parked_bytes() + self.idx_pool.parked_bytes()
    }

    /// Cumulative count of fresh allocations the tape's pools have made
    /// (requests no parked buffer could serve). Never cleared; flat once
    /// the tape has seen every shape of its workload.
    pub fn pool_misses(&self) -> u64 {
        self.pool.misses() + self.idx_pool.misses()
    }

    /// Switch the primitive ops to the pre-refactor kernels (naive matmul,
    /// libm sigmoid/tanh/selu). Fused ops are unaffected — reference mode
    /// exists to reproduce the seed's hot path for honest before/after
    /// benchmarking and golden tests. Survives [`Graph::reset`].
    pub fn set_reference_mode(&mut self, on: bool) {
        self.reference_mode = on;
    }

    /// Toggle inference mode (see the struct docs): fused GRU steps drop
    /// their backward scratch as soon as the forward value is computed.
    /// Values are bitwise identical either way. [`Graph::backward`] panics
    /// while the mode is on; after toggling it off, [`Graph::reset`] before
    /// recording anything you intend to differentiate — nodes recorded
    /// under inference mode have no saved activations. The `predict_*`
    /// entry points scope the mode per call (reset, enable, run, disable).
    pub fn set_inference_mode(&mut self, on: bool) {
        self.inference_mode = on;
    }

    /// True while the tape records forward-only (inference) computations.
    pub fn inference_mode(&self) -> bool {
        self.inference_mode
    }

    /// Attach (or detach) a worker gang for intra-megabatch sharding. Fused
    /// ops recorded with a [`ShardSplit`] run their per-shard forward kernels
    /// on the gang, and [`Graph::backward`] fans per-shard adjoints out to
    /// it. Pure acceleration: results are bitwise identical with `None`,
    /// with one worker, or with sixty-four. Survives [`Graph::reset`].
    pub fn set_worker_pool(&mut self, pool: Option<Arc<WorkerPool>>) {
        self.worker_pool = pool;
    }

    /// The attached shard worker gang, if any.
    pub fn worker_pool(&self) -> Option<&Arc<WorkerPool>> {
        self.worker_pool.as_ref()
    }

    /// Override the work-size floor below which sharded ops run inline
    /// instead of dispatching to the pool (default: `PAR_MIN_ELEMS` —
    /// late sequence positions with a handful of rows are cheaper inline).
    /// Scheduling only; bits are identical at any threshold. Survives
    /// [`Graph::reset`].
    pub fn set_parallel_threshold(&mut self, elems: usize) {
        self.par_threshold = Some(elems);
    }

    /// The effective inline/pool work-size floor.
    fn par_threshold(&self) -> usize {
        self.par_threshold.unwrap_or(PAR_MIN_ELEMS)
    }

    /// Cumulative count of index words this tape has copied into pooled
    /// buffers at record time (never cleared by [`Graph::reset`]): every
    /// [`IndexInput::Copied`] list an op was handed. A step recorded
    /// entirely against shared plan views leaves this flat.
    pub fn index_words_copied(&self) -> u64 {
        self.idx_copied
    }

    /// Shared identity row list `0..n`, grown on demand and recorded by
    /// refcount instead of building a fresh identity `Vec` per dense step.
    fn identity_rows(&mut self, n: usize) -> SharedIndices {
        let cur = self.identity.as_ref().map_or(0, |a| a.len());
        if cur < n {
            self.identity = Some((0..n.max(cur * 2)).collect::<Vec<_>>().into());
        }
        SharedIndices::new(self.identity.clone().expect("identity grown"), 0, n)
    }

    /// Clear the tape for reuse and end the pool's cycle.
    ///
    /// All `Var` handles from before the reset become invalid. Node values,
    /// gradients and fused-op scratch matrices are harvested into the pool —
    /// each class up to its bound, the rest freed (see the module docs) — so
    /// the next forward/backward of any shape the tape has run before takes
    /// every buffer from the pool. A reset tape computes bit-identical
    /// results to a fresh one (pooled buffers are fully overwritten before
    /// use).
    pub fn reset(&mut self) {
        let pool = &mut self.pool;
        let idx_pool = &mut self.idx_pool;
        for node in self.nodes.drain(..) {
            pool_harvest(pool, node.value);
            if let Some(g) = node.grad {
                pool_harvest(pool, g);
            }
            match node.op {
                Op::MaskRows { mask, .. } => pool_harvest(pool, mask),
                Op::MatMul {
                    shards: Some(s), ..
                }
                | Op::AddBias {
                    shards: Some(s), ..
                }
                | Op::Selu {
                    shards: Some(s), ..
                } => recycle_index(idx_pool, s),
                Op::GatherRows {
                    indices, shards, ..
                } => {
                    recycle_index(idx_pool, indices);
                    if let Some(s) = shards {
                        s.recycle(idx_pool);
                    }
                }
                Op::SegmentSum { segments, .. } => recycle_index(idx_pool, segments),
                Op::SegmentAccRows {
                    rows,
                    segments,
                    shards,
                    ..
                } => {
                    recycle_index(idx_pool, rows);
                    recycle_index(idx_pool, segments);
                    if let Some(s) = shards {
                        s.recycle(idx_pool);
                    }
                }
                Op::GruStep {
                    rows,
                    saved,
                    shards,
                    ..
                } => {
                    recycle_index(idx_pool, rows);
                    if let Some(saved) = saved {
                        for m in saved.into_buffers() {
                            pool_harvest(pool, m);
                        }
                    }
                    if let Some(s) = shards {
                        s.recycle(idx_pool);
                    }
                }
                _ => {}
            }
        }
        pool.end_cycle();
        idx_pool.end_cycle();
    }

    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Register a differentiable leaf (a model parameter or input).
    pub fn param(&mut self, value: Matrix) -> Var {
        self.push(
            value,
            Op::Leaf {
                requires_grad: true,
            },
        )
    }

    /// Register a non-differentiable leaf (targets, masks, constants).
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(
            value,
            Op::Leaf {
                requires_grad: false,
            },
        )
    }

    /// Register a non-differentiable leaf built in a pooled buffer by `fill`.
    ///
    /// `fill` receives a zeroed `rows x cols` matrix; this is the
    /// allocation-free path for per-sample inputs on a reused tape.
    pub fn constant_with(
        &mut self,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut Matrix),
    ) -> Var {
        let mut m = pool_matrix(&mut self.pool, rows, cols);
        fill(&mut m);
        self.constant(m)
    }

    /// Register a differentiable leaf holding a copy of `src`, built in a
    /// pooled buffer — how layers bind their parameters each step without
    /// allocating (bits match `param(src.clone())` exactly).
    pub fn param_copy(&mut self, src: &Matrix) -> Var {
        let m = pooled_copy(&mut self.pool, src);
        self.param(m)
    }

    /// Register a non-differentiable leaf holding a copy of `src`, built in
    /// a pooled buffer.
    ///
    /// This is how a forward pass binds **float** state from a borrowed plan
    /// (a cached megabatch composition shared behind an `Arc`): the tape
    /// needs its own mutable copy because the fused step ops may advance
    /// states in place, stealing the leaf's buffer. Note the contrast with
    /// the tape's *index* lists, which are recorded as refcounted
    /// [`SharedIndices`] views precisely because no op ever mutates them.
    pub fn constant_copy(&mut self, src: &Matrix) -> Var {
        let m = pooled_copy(&mut self.pool, src);
        self.constant(m)
    }

    /// Forward value of a variable.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of the last `backward` call w.r.t. the leaf `v`, if one was
    /// produced.
    ///
    /// `None` for constants, for leaves the loss does not depend on, and for
    /// every computed node: the sweep recycles an intermediate gradient as
    /// soon as its adjoint has run.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Element-wise sum. Shapes must match.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let v = pooled_zip(&mut self.pool, av, bv, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// Element-wise difference. Shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let v = pooled_zip(&mut self.pool, av, bv, |x, y| x - y);
        self.push(v, Op::Sub(a, b))
    }

    /// Element-wise (Hadamard) product. Shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).mul(self.value(b));
        self.push(v, Op::Mul(a, b))
    }

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.matmul_sharded(a, b, None)
    }

    /// [`Graph::matmul`] with a dense row-block shard layout: `bounds`
    /// partitions the rows of `a` (and of the output) into contiguous
    /// blocks, one per megabatch shard. With a worker pool attached the
    /// blocks compute in parallel; each output element is produced by
    /// exactly the full kernel's arithmetic, so the forward is bitwise
    /// identical to the unsharded call at any worker count. The adjoint
    /// row-blocks `a`'s gradient the same way and accumulates `b`'s
    /// (weight) gradient as per-shard partials merged in shard order — its
    /// own canonical grouping, also worker-count independent. Reference
    /// mode ignores the split (it reproduces the seed kernels).
    pub fn matmul_sharded(&mut self, a: Var, b: Var, bounds: Option<IndexInput<'_>>) -> Var {
        if self.reference_mode {
            let v = self.value(a).matmul_reference(self.value(b));
            return self.push(v, Op::MatMul { a, b, shards: None });
        }
        let (m, k) = self.value(a).shape();
        let n = self.value(b).cols();
        assert_eq!(
            self.value(b).rows(),
            k,
            "matmul: inner dimensions differ ({m}x{k} * {}x{n})",
            self.value(b).rows()
        );
        let shards =
            capture_dense_shards(&mut self.idx_pool, &mut self.idx_copied, bounds.as_ref(), m);
        let mut pool = std::mem::take(&mut self.pool);
        let mut out = pool_matrix_scratch(&mut pool, m, n);
        match &shards {
            Some(bounds) => {
                let a_slice = self.value(a).as_slice();
                let b_slice = self.value(b).as_slice();
                let mut tasks: Vec<(usize, usize, &mut [f32])> = out
                    .row_blocks_mut(bounds)
                    .into_iter()
                    .enumerate()
                    .map(|(s, block)| (bounds[s], bounds[s + 1], block))
                    .collect();
                run_shard_tasks(
                    pool_if_worth(&self.worker_pool, self.par_threshold(), m * (k + n)),
                    &mut tasks,
                    |(lo, hi, block): &mut (usize, usize, &mut [f32])| {
                        block.fill(0.0);
                        kernels::matmul_acc(
                            &a_slice[*lo * k..*hi * k],
                            b_slice,
                            *hi - *lo,
                            k,
                            n,
                            block,
                        );
                    },
                );
            }
            None => self.value(a).matmul_into(self.value(b), &mut out),
        }
        self.pool = pool;
        self.push(out, Op::MatMul { a, b, shards })
    }

    /// Broadcast-add a `1 x c` bias row vector to every row of `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        self.add_bias_sharded(x, bias, None)
    }

    /// [`Graph::add_bias`] with a dense row-block shard layout (see
    /// [`Graph::matmul_sharded`]). The forward adds the bias row to each
    /// block independently (bitwise identical to the unsharded op); the
    /// adjoint reduces the bias gradient as per-shard column-sum partials
    /// merged in shard order, and row-blocks `x`'s pass-through gradient.
    pub fn add_bias_sharded(&mut self, x: Var, bias: Var, bounds: Option<IndexInput<'_>>) -> Var {
        let (rows, cols) = self.value(x).shape();
        assert_eq!(
            self.value(bias).shape(),
            (1, cols),
            "add_bias: bias must be 1 x cols"
        );
        let shards = if self.reference_mode {
            None
        } else {
            capture_dense_shards(
                &mut self.idx_pool,
                &mut self.idx_copied,
                bounds.as_ref(),
                rows,
            )
        };
        match &shards {
            Some(bounds) => {
                let mut pool = std::mem::take(&mut self.pool);
                let mut out = pool_matrix_scratch(&mut pool, rows, cols);
                {
                    let x_slice = self.value(x).as_slice();
                    let bias_row = self.value(bias).as_slice();
                    let mut tasks: Vec<(usize, &mut [f32])> = out
                        .row_blocks_mut(bounds)
                        .into_iter()
                        .enumerate()
                        .map(|(s, block)| (bounds[s], block))
                        .collect();
                    run_shard_tasks(
                        pool_if_worth(&self.worker_pool, self.par_threshold(), rows * cols),
                        &mut tasks,
                        |(lo, block): &mut (usize, &mut [f32])| {
                            for (r, dst) in block.chunks_exact_mut(cols).enumerate() {
                                let src = &x_slice[(*lo + r) * cols..(*lo + r + 1) * cols];
                                for ((d, &v), &b) in dst.iter_mut().zip(src).zip(bias_row) {
                                    *d = v + b;
                                }
                            }
                        },
                    );
                }
                self.pool = pool;
                self.push(out, Op::AddBias { x, bias, shards })
            }
            None => {
                let mut out = pooled_copy(&mut self.pool, &self.nodes[x.0].value);
                out.add_row_broadcast_assign(&self.nodes[bias.0].value);
                self.push(out, Op::AddBias { x, bias, shards })
            }
        }
    }

    /// Element-wise affine map `a * x + b`.
    pub fn affine(&mut self, x: Var, a: f32, b: f32) -> Var {
        let v = pooled_map(&mut self.pool, &self.nodes[x.0].value, |t| a * t + b);
        self.push(v, Op::Affine { x, a })
    }

    /// Multiply by a scalar.
    pub fn scale(&mut self, x: Var, a: f32) -> Var {
        self.affine(x, a, 0.0)
    }

    /// `1 - x`, element-wise (the GRU blend complement).
    pub fn one_minus(&mut self, x: Var) -> Var {
        self.affine(x, -1.0, 1.0)
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        // Reference mode keeps the seed's libm map; the fast path runs the
        // vectorized slice kernel (bitwise-identical to the scalar fast
        // form) into a pooled buffer.
        let v = if self.reference_mode {
            self.value(x).map(act::sigmoid_precise)
        } else {
            let (rows, cols) = self.value(x).shape();
            let mut pool = std::mem::take(&mut self.pool);
            let mut out = pool_matrix_scratch(&mut pool, rows, cols);
            vact::sigmoid_map(self.value(x).as_slice(), out.as_mut_slice());
            self.pool = pool;
            out
        };
        self.push(v, Op::Sigmoid(x))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let v = if self.reference_mode {
            self.value(x).map(act::tanh_precise)
        } else {
            let (rows, cols) = self.value(x).shape();
            let mut pool = std::mem::take(&mut self.pool);
            let mut out = pool_matrix_scratch(&mut pool, rows, cols);
            vact::tanh_map(self.value(x).as_slice(), out.as_mut_slice());
            self.pool = pool;
            out
        };
        self.push(v, Op::Tanh(x))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        let v = pooled_map(&mut self.pool, &self.nodes[x.0].value, act::relu);
        self.push(v, Op::Relu(x))
    }

    /// Scaled exponential linear unit (RouteNet's readout activation).
    pub fn selu(&mut self, x: Var) -> Var {
        self.selu_sharded(x, None)
    }

    /// [`Graph::selu`] with a dense row-block shard layout (see
    /// [`Graph::matmul_sharded`]). Element-wise maps decompose by rows
    /// trivially, so forward and adjoint are bitwise identical to the
    /// unsharded op at any worker count; the split exists so the readout
    /// MLP's activation traffic rides the same gang as its matmuls.
    pub fn selu_sharded(&mut self, x: Var, bounds: Option<IndexInput<'_>>) -> Var {
        if self.reference_mode {
            let v = self.value(x).map(act::selu_precise);
            return self.push(v, Op::Selu { x, shards: None });
        }
        let (rows, cols) = self.value(x).shape();
        let shards = capture_dense_shards(
            &mut self.idx_pool,
            &mut self.idx_copied,
            bounds.as_ref(),
            rows,
        );
        match &shards {
            Some(bounds) => {
                let mut pool = std::mem::take(&mut self.pool);
                let mut out = pool_matrix_scratch(&mut pool, rows, cols);
                {
                    let x_slice = self.value(x).as_slice();
                    let mut tasks: Vec<(usize, &mut [f32])> = out
                        .row_blocks_mut(bounds)
                        .into_iter()
                        .enumerate()
                        .map(|(s, block)| (bounds[s], block))
                        .collect();
                    run_shard_tasks(
                        pool_if_worth(&self.worker_pool, self.par_threshold(), rows * cols),
                        &mut tasks,
                        |(lo, block): &mut (usize, &mut [f32])| {
                            let len = block.len();
                            vact::selu_map(&x_slice[*lo * cols..*lo * cols + len], block);
                        },
                    );
                }
                self.pool = pool;
                self.push(out, Op::Selu { x, shards })
            }
            None => {
                let mut pool = std::mem::take(&mut self.pool);
                let mut out = pool_matrix_scratch(&mut pool, rows, cols);
                vact::selu_map(self.value(x).as_slice(), out.as_mut_slice());
                self.pool = pool;
                self.push(out, Op::Selu { x, shards })
            }
        }
    }

    /// Softplus `ln(1+e^x)`.
    pub fn softplus(&mut self, x: Var) -> Var {
        let v = pooled_map(&mut self.pool, &self.nodes[x.0].value, act::softplus);
        self.push(v, Op::Softplus(x))
    }

    /// Element-wise absolute value.
    pub fn abs(&mut self, x: Var) -> Var {
        let v = pooled_map(&mut self.pool, &self.nodes[x.0].value, f32::abs);
        self.push(v, Op::Abs(x))
    }

    /// Element-wise square.
    pub fn square(&mut self, x: Var) -> Var {
        let v = pooled_map(&mut self.pool, &self.nodes[x.0].value, |t| t * t);
        self.push(v, Op::Square(x))
    }

    /// Element-wise `min(x, cap)`. Gradient flows only where `x < cap`
    /// (the tie at `x == cap` takes the pass-through branch).
    pub fn clamp_max(&mut self, x: Var, cap: f32) -> Var {
        let v = pooled_map(&mut self.pool, &self.nodes[x.0].value, |t| t.min(cap));
        self.push(v, Op::ClampMax { x, cap })
    }

    // ------------------------------------------------------------------
    // Structure
    // ------------------------------------------------------------------

    /// Horizontal concatenation `[a | b]`. Row counts must match.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).concat_cols(self.value(b));
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Column slice `x[:, start..end]`.
    pub fn slice_cols(&mut self, x: Var, start: usize, end: usize) -> Var {
        let v = self.value(x).slice_cols(start, end);
        self.push(v, Op::SliceCols { x, start, end })
    }

    /// Gather rows: `out[i] = x[indices[i]]`. Indices may repeat; the adjoint
    /// scatter-adds into the repeated rows. Output comes from the buffer pool.
    pub fn gather_rows(&mut self, x: Var, indices: &[usize]) -> Var {
        self.gather_rows_sharded(x, indices.into(), None)
    }

    /// [`Graph::gather_rows`] with a megabatch shard layout: `active` splits
    /// `indices`, `entity` bounds the rows of `x` (each shard's indices must
    /// stay inside its entity range — block-diagonality). With a worker pool
    /// attached, shards gather (and later scatter their adjoint) in
    /// parallel; the result is bitwise identical either way.
    pub fn gather_rows_sharded(
        &mut self,
        x: Var,
        ids: IndexInput<'_>,
        split: Option<ShardSplit<'_>>,
    ) -> Var {
        let mut pool = std::mem::take(&mut self.pool);
        let (x_rows, cols) = self.value(x).shape();
        let indices = ids.as_slice();
        let shards = split.and_then(|s| {
            validate_split(&s, indices.len(), None, Some(x_rows));
            debug_assert!(
                s.active
                    .as_slice()
                    .windows(2)
                    .zip(s.entity.as_slice().windows(2))
                    .all(|(ka, ea)| {
                        indices[ka[0]..ka[1]]
                            .iter()
                            .all(|&idx| idx >= ea[0] && idx < ea[1])
                    }),
                "gather_rows: shard indices escape their entity range"
            );
            (s.active.as_slice().len() > 2).then(|| {
                Box::new(OpShards::capture(
                    &mut self.idx_pool,
                    &mut self.idx_copied,
                    &s,
                ))
            })
        });
        let mut out = pool_matrix_scratch(&mut pool, indices.len(), cols);
        if cols > 0 {
            let x_slice = self.value(x).as_slice();
            let mut tasks: Vec<(usize, &mut [f32])> = match &shards {
                Some(s) => out
                    .row_blocks_mut(&s.active)
                    .into_iter()
                    .zip(s.active.iter())
                    .map(|(block, &k_lo)| (k_lo, block))
                    .collect(),
                None => vec![(0, out.as_mut_slice())],
            };
            run_shard_tasks(
                pool_if_worth(
                    &self.worker_pool,
                    self.par_threshold(),
                    indices.len() * cols,
                ),
                &mut tasks,
                |(k_lo, block): &mut (usize, &mut [f32])| {
                    for (i, dst) in block.chunks_exact_mut(cols).enumerate() {
                        let idx = indices[*k_lo + i];
                        dst.copy_from_slice(&x_slice[idx * cols..(idx + 1) * cols]);
                    }
                },
            );
        }
        self.pool = pool;
        let indices = intern_indices(&mut self.idx_pool, &mut self.idx_copied, &ids);
        self.push(out, Op::GatherRows { x, indices, shards })
    }

    /// Segment sum: `out[segments[i]] += x[i]` with `num_segments` output rows.
    /// This is RouteNet's message aggregation (paths → links, paths → nodes).
    pub fn segment_sum(&mut self, x: Var, segments: &[usize], num_segments: usize) -> Var {
        let xv = &self.nodes[x.0].value;
        let mut v = pool_matrix(&mut self.pool, num_segments, xv.cols());
        xv.segment_sum_into(segments, &mut v);
        let segments = IndexList::Pooled(pool_indices(
            &mut self.idx_pool,
            &mut self.idx_copied,
            segments,
        ));
        self.push(v, Op::SegmentSum { x, segments })
    }

    /// Multiply each row of `x` by the matching entry of the constant `n x 1`
    /// mask matrix (used to zero padded sequence positions).
    pub fn mask_rows(&mut self, x: Var, mask: &Matrix) -> Var {
        let mut v = pooled_copy(&mut self.pool, &self.nodes[x.0].value);
        v.mul_col_broadcast_assign(mask);
        let mask = pooled_copy(&mut self.pool, mask);
        self.push(v, Op::MaskRows { x, mask })
    }

    // ------------------------------------------------------------------
    // Fused message-passing ops
    // ------------------------------------------------------------------

    /// Row-compacted scatter-add accumulate:
    /// `out = acc` then `out[segments[k]] += x[rows[k]]`.
    ///
    /// One tape node replacing the `mask_rows` → `segment_sum` → `add` chain
    /// that folds per-position messages into the per-entity accumulator:
    /// instead of masking inactive rows to zero and still touching them,
    /// only the active `rows` are visited. With RouteNet's path-length distribution
    /// most positions are inactive in late steps, so this trims both the
    /// forward scatter and the backward gather to the live set.
    /// In **inference mode** this op is destructive like
    /// [`Graph::gru_step_rows`]: it steals `acc`'s buffer and scatter-adds
    /// in place (the `Var` passed as `acc` must not be read afterwards).
    pub fn segment_acc_rows(
        &mut self,
        acc: Var,
        x: Var,
        rows: &[usize],
        segments: &[usize],
    ) -> Var {
        self.segment_acc_rows_sharded(acc, x, rows.into(), segments.into(), None)
    }

    /// [`Graph::segment_acc_rows`] with a megabatch shard layout: `active`
    /// splits `rows`/`segments`, `dense` bounds the rows of `x`, `entity`
    /// the rows of `acc`; shard `s`'s segments must fall inside its entity
    /// range and its rows inside its dense range (block-diagonality). With
    /// a worker pool attached, shards scatter in parallel — each into its
    /// own disjoint slice of the accumulator — bitwise identically to the
    /// sequential sweep.
    pub fn segment_acc_rows_sharded(
        &mut self,
        acc: Var,
        x: Var,
        rows: IndexInput<'_>,
        segments: IndexInput<'_>,
        split: Option<ShardSplit<'_>>,
    ) -> Var {
        let mut pool = std::mem::take(&mut self.pool);
        let (num_segments, cols) = self.value(acc).shape();
        let x_rows = self.value(x).rows();
        let (rows_in, segments_in) = (rows, segments);
        let (rows, segments) = (rows_in.as_slice(), segments_in.as_slice());
        assert_eq!(
            rows.len(),
            segments.len(),
            "segment_acc_rows: rows/segments mismatch"
        );
        assert_eq!(
            self.value(x).cols(),
            cols,
            "segment_acc_rows: width mismatch"
        );
        for &s in segments {
            assert!(
                s < num_segments,
                "segment_acc_rows: segment id {s} out of range"
            );
        }
        let shards = split.and_then(|s| {
            validate_split(&s, rows.len(), Some(x_rows), Some(num_segments));
            debug_assert!(
                s.active
                    .as_slice()
                    .windows(2)
                    .zip(s.entity.as_slice().windows(2))
                    .all(|(ka, ea)| {
                        segments[ka[0]..ka[1]]
                            .iter()
                            .all(|&seg| seg >= ea[0] && seg < ea[1])
                    }),
                "segment_acc_rows: shard segments escape their entity range"
            );
            (s.active.as_slice().len() > 2).then(|| {
                Box::new(OpShards::capture(
                    &mut self.idx_pool,
                    &mut self.idx_copied,
                    &s,
                ))
            })
        });

        // In-place inference: steal the accumulator instead of copying it.
        let inplace = self.inference_mode;
        let mut out = if inplace {
            std::mem::replace(&mut self.nodes[acc.0].value, Matrix::zeros(0, 0))
        } else {
            pool_matrix_scratch(&mut pool, num_segments, cols)
        };
        {
            let acc_src = (!inplace).then(|| self.value(acc).as_slice());
            let x_slice = self.value(x).as_slice();
            let full_active = [0, rows.len()];
            let full_entity = [0, num_segments];
            let (active_bounds, entity_bounds): (&[usize], &[usize]) = match &shards {
                Some(s) => (&s.active, &s.entity),
                None => (&full_active, &full_entity),
            };
            let mut tasks: Vec<(usize, usize, &mut [f32])> = out
                .row_blocks_mut(entity_bounds)
                .into_iter()
                .enumerate()
                .map(|(s, block)| (s, entity_bounds[s], block))
                .collect();
            run_shard_tasks(
                pool_if_worth(
                    &self.worker_pool,
                    self.par_threshold(),
                    (num_segments + rows.len()) * cols,
                ),
                &mut tasks,
                |(s, e_lo, block): &mut (usize, usize, &mut [f32])| {
                    if let Some(acc_src) = acc_src {
                        block.copy_from_slice(&acc_src[*e_lo * cols..*e_lo * cols + block.len()]);
                    }
                    for k in active_bounds[*s]..active_bounds[*s + 1] {
                        let (row, seg) = (rows[k], segments[k]);
                        let src = &x_slice[row * cols..(row + 1) * cols];
                        let dst = &mut block[(seg - *e_lo) * cols..(seg - *e_lo + 1) * cols];
                        for (d, &v) in dst.iter_mut().zip(src) {
                            *d += v;
                        }
                    }
                },
            );
        }
        self.pool = pool;
        let rows = intern_indices(&mut self.idx_pool, &mut self.idx_copied, &rows_in);
        let segments = intern_indices(&mut self.idx_pool, &mut self.idx_copied, &segments_in);
        self.push(
            out,
            Op::SegmentAccRows {
                acc,
                x,
                rows,
                segments,
                shards,
            },
        )
    }

    /// Column-concatenate the rows `row_lo..row_hi` of every part:
    /// `out = [p0[lo..hi] | p1[lo..hi] | …]`. The adjoint adds each column
    /// block of the gradient back into those rows of its part. This is how a
    /// layer regroups its parameters by operand at bind time
    /// ([`Graph::gru_pack`]) while gradients still arrive per parameter.
    pub fn pack_cols(&mut self, parts: &[Var], row_lo: usize, row_hi: usize) -> Var {
        assert!(row_lo <= row_hi, "pack_cols: rows {row_lo}..{row_hi}");
        let rows = row_hi - row_lo;
        let cols = parts.iter().map(|&p| self.value(p).cols()).sum();
        let mut pool = std::mem::take(&mut self.pool);
        let mut out = pool_matrix_scratch(&mut pool, rows, cols);
        let mut off = 0;
        for &p in parts {
            let part = self.value(p);
            assert!(
                row_hi <= part.rows(),
                "pack_cols: rows {row_lo}..{row_hi} of a {}-row part",
                part.rows()
            );
            let width = part.cols();
            for r in 0..rows {
                out.row_mut(r)[off..off + width].copy_from_slice(part.row(row_lo + r));
            }
            off += width;
        }
        self.pool = pool;
        self.push(
            out,
            Op::PackCols {
                parts: parts.to_vec(),
                row_lo,
            },
        )
    }

    /// Pack a GRU cell's six parameters — `[W_z, b_z, W_r, b_r, W_c, b_c]`,
    /// kernels `(hidden + input) x hidden`, biases `1 x hidden` — into the
    /// operands of the fused step (see [`GruVars`]): four [`Graph::pack_cols`]
    /// nodes per bind, through which every gradient flows back to the six.
    pub fn gru_pack(&mut self, params: [Var; 6]) -> GruVars {
        let [w_z, b_z, w_r, b_r, w_c, b_c] = params;
        let (wide, hidden) = self.value(w_z).shape();
        assert!(
            wide >= hidden,
            "gru_pack: a {wide} x {hidden} kernel has no recurrent block"
        );
        for w in [w_r, w_c] {
            assert_eq!(
                self.value(w).shape(),
                (wide, hidden),
                "gru_pack: kernel shapes differ"
            );
        }
        for b in [b_z, b_r, b_c] {
            assert_eq!(
                self.value(b).shape(),
                (1, hidden),
                "gru_pack: bias must be 1 x hidden"
            );
        }
        GruVars {
            w_h_zr: self.pack_cols(&[w_z, w_r], 0, hidden),
            w_h_c: self.pack_cols(&[w_c], 0, hidden),
            w_x: self.pack_cols(&[w_z, w_r, w_c], hidden, wide),
            b: self.pack_cols(&[b_z, b_r, b_c], 0, 1),
        }
    }

    /// One GRU step on a pre-projected input, as a single tape node:
    ///
    /// ```text
    /// [z | r] = σ(px_zr + h·W_h,zr + b_zr)
    /// c       = tanh(px_c + (r⊙h)·W_h,c + b_c)      h' = (1−z)⊙h + z⊙c
    /// ```
    ///
    /// with `px = x·W_x` (`rows.len() x 3·hidden`, see [`GruVars`]) computed
    /// by the caller — once per distinct `x`, however many rows read it.
    /// Only `rows` advance; every other row of `h` passes through bitwise
    /// untouched, so the products and transcendentals cover the active set
    /// alone — the biggest single win on RouteNet's tail steps, where only a
    /// handful of long paths remain active.
    ///
    /// In **inference mode** this op is destructive: it steals `h`'s buffer
    /// and advances the active rows in place instead of copying all `n`
    /// rows, hands `px`'s buffer back to the pool once it is read (`px` must
    /// be a computed node — a gather, a projection — whose buffer came from
    /// there), and saves nothing for an adjoint; neither `Var` may be read
    /// afterwards, their values become empty. Training mode copies, so both
    /// stay intact. Output bits are identical either way.
    pub fn gru_step_rows(&mut self, vars: &GruVars, h: Var, px: Var, rows: &[usize]) -> Var {
        self.gru_step_rows_sharded(vars, h, px, rows.into(), None)
    }

    /// [`Graph::gru_step_rows`] with a megabatch shard layout: `active`
    /// splits `rows`, `dense` bounds the rows of `h`; shard `s`'s active
    /// rows must fall inside its dense range (block-diagonality). With a
    /// worker pool attached the shards advance in parallel; the backward
    /// pass accumulates parameter gradients as per-shard partials merged in
    /// shard order. Results are bitwise identical at any worker count,
    /// including none; without a split the whole buffers are the one shard.
    pub fn gru_step_rows_sharded(
        &mut self,
        vars: &GruVars,
        h: Var,
        px: Var,
        rows: IndexInput<'_>,
        split: Option<ShardSplit<'_>>,
    ) -> Var {
        let mut pool = std::mem::take(&mut self.pool);
        let (n, hidden) = self.value(h).shape();
        let rows_in = rows;
        let rows = rows_in.as_slice();
        let a = rows.len();
        assert_eq!(
            self.value(px).shape(),
            (a, 3 * hidden),
            "gru_step_rows: px must hold one projected row per active row"
        );
        assert_eq!(
            self.value(vars.w_h_zr).shape(),
            (hidden, 2 * hidden),
            "gru_step_rows: W_h,zr shape"
        );
        for &row in rows {
            assert!(row < n, "gru_step_rows: row {row} out of range {n}");
        }
        let shards = split.and_then(|s| {
            validate_split(&s, a, Some(n), None);
            debug_assert!(
                s.active
                    .as_slice()
                    .windows(2)
                    .zip(s.dense.as_slice().windows(2))
                    .all(|(ka, pa)| {
                        rows[ka[0]..ka[1]]
                            .iter()
                            .all(|&row| row >= pa[0] && row < pa[1])
                    }),
                "gru_step_rows: shard rows escape their dense range"
            );
            (s.active.as_slice().len() > 2).then(|| {
                Box::new(OpShards::capture(
                    &mut self.idx_pool,
                    &mut self.idx_copied,
                    &s,
                ))
            })
        });

        let mut saved = GruSaved {
            h: pool_matrix_scratch(&mut pool, a, hidden),
            zr: pool_matrix_scratch(&mut pool, a, 2 * hidden),
            rh: pool_matrix_scratch(&mut pool, a, hidden),
            c: pool_matrix_scratch(&mut pool, a, hidden),
        };
        // In-place inference: steal the state buffer instead of copying it.
        // Training mode takes scratch — every dense block is copied from
        // `hv` by its shard task before any read.
        let inplace = self.inference_mode;
        let mut out = if inplace {
            let stolen = std::mem::replace(&mut self.nodes[h.0].value, Matrix::zeros(0, 0));
            debug_assert_eq!(stolen.shape(), (n, hidden));
            stolen
        } else {
            pool_matrix_scratch(&mut pool, n, hidden)
        };

        {
            let ctx = GruFwdCtx {
                hv: (!inplace).then(|| self.value(h).as_slice()),
                px: self.value(px).as_slice(),
                rows,
                w_h_zr: self.value(vars.w_h_zr).as_slice(),
                w_h_c: self.value(vars.w_h_c).as_slice(),
                b: self.value(vars.b).as_slice(),
                hidden,
            };
            match &shards {
                // One shard: the whole buffers are its blocks — no block
                // lists, no task list, nothing to fan out.
                None => gru_forward_shard(
                    &ctx,
                    &mut GruFwdTask {
                        k_lo: 0,
                        k_hi: a,
                        p_lo: 0,
                        h: saved.h.as_mut_slice(),
                        zr: saved.zr.as_mut_slice(),
                        rh: saved.rh.as_mut_slice(),
                        c: saved.c.as_mut_slice(),
                        out: out.as_mut_slice(),
                    },
                ),
                Some(s) => {
                    let (active, dense): (&[usize], &[usize]) = (&s.active, &s.dense);
                    let mut h_it = saved.h.row_blocks_mut(active).into_iter();
                    let mut zr_it = saved.zr.row_blocks_mut(active).into_iter();
                    let mut rh_it = saved.rh.row_blocks_mut(active).into_iter();
                    let mut c_it = saved.c.row_blocks_mut(active).into_iter();
                    let mut tasks: Vec<GruFwdTask> = out
                        .row_blocks_mut(dense)
                        .into_iter()
                        .enumerate()
                        .map(|(s, out_block)| GruFwdTask {
                            k_lo: active[s],
                            k_hi: active[s + 1],
                            p_lo: dense[s],
                            h: h_it.next().expect("h block"),
                            zr: zr_it.next().expect("zr block"),
                            rh: rh_it.next().expect("rh block"),
                            c: c_it.next().expect("c block"),
                            out: out_block,
                        })
                        .collect();
                    run_shard_tasks(
                        pool_if_worth(&self.worker_pool, self.par_threshold(), a * hidden * 12),
                        &mut tasks,
                        |t| gru_forward_shard(&ctx, t),
                    );
                }
            }
        }

        let saved = if inplace {
            // Nothing reads the projected rows again either: a forward-only
            // sweep keeps no per-step buffer at all.
            let spent = std::mem::replace(&mut self.nodes[px.0].value, Matrix::zeros(0, 0));
            for m in saved.into_buffers().into_iter().chain([spent]) {
                pool_recycle(&mut pool, m);
            }
            None
        } else {
            Some(Box::new(saved))
        };
        self.pool = pool;
        let rows = intern_indices(&mut self.idx_pool, &mut self.idx_copied, &rows_in);
        self.push(
            out,
            Op::GruStep {
                vars: *vars,
                h,
                px,
                rows,
                saved,
                shards,
            },
        )
    }

    /// [`Graph::gru_step_rows_sharded`] over **every** row — the link / node
    /// / queue entity updates — with a dense row-block shard layout:
    /// `bounds`, if given, partitions the `n` state rows into contiguous
    /// blocks; `px` must have `n` rows. The rows recorded are a shared
    /// identity prefix, so the one fused step (and its shard apparatus)
    /// serves the dense use as it serves the path sweep.
    pub fn gru_step_dense_sharded(
        &mut self,
        vars: &GruVars,
        h: Var,
        px: Var,
        bounds: Option<IndexInput<'_>>,
    ) -> Var {
        // Record the shared identity prefix by refcount instead of
        // materializing (and then copying) a 0..n row list.
        let rows = self.identity_rows(self.value(h).rows());
        let split = bounds.map(|b| ShardSplit {
            active: b.clone(),
            dense: b.clone(),
            entity: b,
        });
        self.gru_step_rows_sharded(vars, h, px, rows.into(), split)
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements, as a `1 x 1` matrix.
    pub fn sum(&mut self, x: Var) -> Var {
        let total = self.value(x).sum();
        let v = pooled_filled(&mut self.pool, 1, 1, total);
        self.push(v, Op::Sum(x))
    }

    /// Mean of all elements, as a `1 x 1` matrix.
    pub fn mean(&mut self, x: Var) -> Var {
        let mean = self.value(x).mean();
        let v = pooled_filled(&mut self.pool, 1, 1, mean);
        self.push(v, Op::Mean(x))
    }

    /// Mean squared error between `pred` and `target` as a scalar node.
    pub fn mse(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let sq = self.square(d);
        self.mean(sq)
    }

    /// Mean absolute error between `pred` and `target` as a scalar node.
    pub fn mae(&mut self, pred: Var, target: Var) -> Var {
        let d = self.sub(pred, target);
        let a = self.abs(d);
        self.mean(a)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Run the reverse sweep from `loss`, which must be a `1 x 1` node.
    ///
    /// Gradients accumulate into every differentiable leaf that
    /// (transitively) influences the loss; read them with [`Graph::grad`].
    /// Calling `backward` twice on the same tape replaces them.
    pub fn backward(&mut self, loss: Var) {
        assert!(
            !self.inference_mode,
            "backward: tape is in inference mode (saved activations were discarded)"
        );
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward: loss must be scalar (1x1), got {:?}",
            self.value(loss).shape()
        );
        let n = self.nodes.len();
        let mut pool = std::mem::take(&mut self.pool);
        let mut grads = std::mem::take(&mut self.grad_slots);
        grads.resize_with(n, || None);
        grads[loss.0] = Some(pooled_filled(&mut pool, 1, 1, 1.0));
        // Transposed right-hand operands, by node id: a kernel is bound once
        // and read by the adjoint of every step that used it, so it is
        // transposed once per sweep.
        let mut transposes: Vec<(usize, Matrix)> = Vec::new();

        for id in (0..n).rev() {
            let Some(g) = grads[id].take() else { continue };
            // Per-op-kind timing (RN_TRACE=1): a drop-guard so arms that
            // `continue` out of the match are still attributed. Inert (one
            // relaxed atomic load, no clock read) while tracing is off.
            let _op_span = crate::trace::OpSpan::begin(&self.nodes[id].op);
            match &self.nodes[id].op {
                Op::Leaf { requires_grad } => {
                    // The sweep's results: kept for `Graph::grad`.
                    if *requires_grad {
                        grads[id] = Some(g);
                    } else {
                        pool_recycle(&mut pool, g);
                    }
                    continue;
                }
                &Op::Add(a, b) => {
                    accumulate_ref(&mut grads, &mut pool, a, &g);
                    accumulate_ref(&mut grads, &mut pool, b, &g);
                }
                &Op::Sub(a, b) => {
                    accumulate_ref(&mut grads, &mut pool, a, &g);
                    let gb = pooled_map(&mut pool, &g, |v| -v);
                    accumulate_pooled(&mut grads, &mut pool, b, gb);
                }
                &Op::Mul(a, b) => {
                    let ga = g.mul(self.value(b));
                    let gb = g.mul(self.value(a));
                    accumulate(&mut grads, a, ga);
                    accumulate(&mut grads, b, gb);
                }
                Op::MatMul { a, b, shards } => {
                    let (a, b) = (*a, *b);
                    if self.reference_mode {
                        let ga = g.matmul_nt_reference(self.value(b));
                        let gb = self.value(a).matmul_tn_reference(&g);
                        accumulate(&mut grads, a, ga);
                        accumulate(&mut grads, b, gb);
                    } else if let Some(bounds) = shards {
                        // Dense-sharded adjoint. ga = g·bᵀ is row-disjoint:
                        // each shard fills its own block with exactly the
                        // full kernel's arithmetic (bitwise identical to one
                        // call). gb = aᵀ·g reduces over rows, so each shard
                        // produces a zeroed partial over its row range; the
                        // partials merge into the gradient slot in shard
                        // order — the canonical grouping, independent of
                        // worker count (or the pool's absence).
                        let bv = self.value(b);
                        let (k_dim, n_dim) = bv.shape();
                        let m = g.rows();
                        let num_shards = bounds.len() - 1;
                        let bt = transposed(&mut transposes, &mut pool, b, &self.nodes);
                        let mut ga = pool_matrix_scratch(&mut pool, m, k_dim);
                        let mut partials: Vec<Matrix> = (0..num_shards)
                            .map(|_| pool_matrix(&mut pool, k_dim, n_dim))
                            .collect();
                        let worker = pool_if_worth(
                            &self.worker_pool,
                            self.par_threshold(),
                            m * (k_dim + n_dim),
                        );
                        {
                            let g_slice = g.as_slice();
                            let a_slice = self.value(a).as_slice();
                            let bt_slice = transposes[bt].1.as_slice();
                            let mut tasks: Vec<(usize, usize, &mut [f32], &mut Matrix)> = ga
                                .row_blocks_mut(bounds)
                                .into_iter()
                                .zip(partials.iter_mut())
                                .enumerate()
                                .map(|(s, (block, partial))| {
                                    (bounds[s], bounds[s + 1], block, partial)
                                })
                                .collect();
                            run_shard_tasks(
                                worker,
                                &mut tasks,
                                |(lo, hi, ga_block, partial): &mut (
                                    usize,
                                    usize,
                                    &mut [f32],
                                    &mut Matrix,
                                )| {
                                    let rows_s = *hi - *lo;
                                    ga_block.fill(0.0);
                                    kernels::matmul_acc(
                                        &g_slice[*lo * n_dim..*hi * n_dim],
                                        bt_slice,
                                        rows_s,
                                        n_dim,
                                        k_dim,
                                        ga_block,
                                    );
                                    kernels::matmul_tn_acc(
                                        &a_slice[*lo * k_dim..*hi * k_dim],
                                        &g_slice[*lo * n_dim..*hi * n_dim],
                                        rows_s,
                                        k_dim,
                                        n_dim,
                                        partial.as_mut_slice(),
                                    );
                                },
                            );
                        }
                        {
                            let refs: Vec<&Matrix> = partials.iter().collect();
                            let slot = grad_slot(&mut grads, b, k_dim, n_dim, &mut pool);
                            reduce_partials_parallel(worker, slot, &refs);
                        }
                        for p in partials {
                            pool_recycle(&mut pool, p);
                        }
                        accumulate_pooled(&mut grads, &mut pool, a, ga);
                    } else {
                        let bt = transposed(&mut transposes, &mut pool, b, &self.nodes);
                        let mut ga = pool_matrix_scratch(&mut pool, g.rows(), self.value(b).rows());
                        g.matmul_into(&transposes[bt].1, &mut ga);
                        let mut gb = pool_matrix_scratch(&mut pool, self.value(a).cols(), g.cols());
                        self.value(a).matmul_tn_into(&g, &mut gb);
                        accumulate_pooled(&mut grads, &mut pool, a, ga);
                        accumulate_pooled(&mut grads, &mut pool, b, gb);
                    }
                }
                Op::AddBias { x, bias, shards } => {
                    let (x, bias) = (*x, *bias);
                    if let Some(bounds) = shards {
                        // gx is the pass-through gradient, row-blocked; the
                        // bias gradient reduces as per-shard column-sum
                        // partials merged in shard order (canonical).
                        let (rows, cols) = g.shape();
                        let num_shards = bounds.len() - 1;
                        let mut gx = pool_matrix_scratch(&mut pool, rows, cols);
                        let mut partials: Vec<Matrix> = (0..num_shards)
                            .map(|_| pool_matrix(&mut pool, 1, cols))
                            .collect();
                        let worker =
                            pool_if_worth(&self.worker_pool, self.par_threshold(), rows * cols);
                        {
                            let g_slice = g.as_slice();
                            let mut tasks: Vec<(usize, &mut [f32], &mut Matrix)> = gx
                                .row_blocks_mut(bounds)
                                .into_iter()
                                .zip(partials.iter_mut())
                                .enumerate()
                                .map(|(s, (block, partial))| (bounds[s], block, partial))
                                .collect();
                            run_shard_tasks(
                                worker,
                                &mut tasks,
                                |(lo, block, partial): &mut (usize, &mut [f32], &mut Matrix)| {
                                    block.copy_from_slice(
                                        &g_slice[*lo * cols..*lo * cols + block.len()],
                                    );
                                    add_col_sums_slice(partial.as_mut_slice(), block, cols);
                                },
                            );
                        }
                        {
                            let refs: Vec<&Matrix> = partials.iter().collect();
                            let slot = grad_slot(&mut grads, bias, 1, cols, &mut pool);
                            reduce_partials_parallel(worker, slot, &refs);
                        }
                        for p in partials {
                            pool_recycle(&mut pool, p);
                        }
                        accumulate_pooled(&mut grads, &mut pool, x, gx);
                    } else {
                        let mut gb = pool_matrix(&mut pool, 1, g.cols());
                        add_col_sums(&mut gb, &g);
                        accumulate_pooled(&mut grads, &mut pool, bias, gb);
                        accumulate_ref(&mut grads, &mut pool, x, &g);
                    }
                }
                &Op::Affine { x, a } => {
                    let gx = pooled_map(&mut pool, &g, |v| v * a);
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Sigmoid(x) => {
                    // gx = g ⊙ y(1-y) via the fused vector kernel, fanned
                    // over fixed chunks when a pool is attached — bitwise
                    // identical to the sequential zip either way (the map is
                    // position-independent and the kernel is pinned to the
                    // scalar chain).
                    let (rows, cols) = g.shape();
                    let mut gx = pool_matrix_scratch(&mut pool, rows, cols);
                    run_elementwise_chunks(
                        pool_if_worth(&self.worker_pool, self.par_threshold(), rows * cols),
                        g.as_slice(),
                        self.nodes[id].value.as_slice(),
                        gx.as_mut_slice(),
                        vact::sigmoid_deriv_mul,
                    );
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Tanh(x) => {
                    let (rows, cols) = g.shape();
                    let mut gx = pool_matrix_scratch(&mut pool, rows, cols);
                    run_elementwise_chunks(
                        pool_if_worth(&self.worker_pool, self.par_threshold(), rows * cols),
                        g.as_slice(),
                        self.nodes[id].value.as_slice(),
                        gx.as_mut_slice(),
                        vact::tanh_deriv_mul,
                    );
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Relu(x) => {
                    let gx = pooled_zip(&mut pool, &g, self.value(x), |gi, xi| {
                        gi * act::relu_deriv(xi)
                    });
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                Op::Selu { x, shards } => {
                    let x = *x;
                    if self.reference_mode {
                        // Seed-faithful libm derivative (shards are never
                        // recorded in reference mode).
                        let gx = g.zip(self.value(x), |gi, xi| gi * act::selu_deriv_precise(xi));
                        accumulate(&mut grads, x, gx);
                        continue;
                    }
                    let (rows, cols) = g.shape();
                    let mut gx = pool_matrix_scratch(&mut pool, rows, cols);
                    if let Some(bounds) = shards {
                        // Element-wise adjoint, row-blocked: bitwise
                        // identical to the unsharded sweep at any worker
                        // count.
                        let g_slice = g.as_slice();
                        let x_slice = self.value(x).as_slice();
                        let mut tasks: Vec<(usize, &mut [f32])> = gx
                            .row_blocks_mut(bounds)
                            .into_iter()
                            .enumerate()
                            .map(|(s, block)| (bounds[s], block))
                            .collect();
                        run_shard_tasks(
                            pool_if_worth(&self.worker_pool, self.par_threshold(), rows * cols),
                            &mut tasks,
                            |(lo, block): &mut (usize, &mut [f32])| {
                                let off = *lo * cols;
                                let len = block.len();
                                vact::selu_deriv_mul(
                                    &g_slice[off..off + len],
                                    &x_slice[off..off + len],
                                    block,
                                );
                            },
                        );
                    } else {
                        run_elementwise_chunks(
                            pool_if_worth(&self.worker_pool, self.par_threshold(), rows * cols),
                            g.as_slice(),
                            self.value(x).as_slice(),
                            gx.as_mut_slice(),
                            vact::selu_deriv_mul,
                        );
                    }
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Softplus(x) => {
                    let gx = pooled_zip(&mut pool, &g, self.value(x), |gi, xi| {
                        gi * act::softplus_deriv(xi)
                    });
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Abs(x) => {
                    let gx = pooled_zip(&mut pool, &g, self.value(x), |gi, xi| gi * xi.signum());
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Square(x) => {
                    let gx = pooled_zip(&mut pool, &g, self.value(x), |gi, xi| gi * 2.0 * xi);
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::ClampMax { x, cap } => {
                    let gx = pooled_zip(&mut pool, &g, self.value(x), |gi, xi| {
                        if xi <= cap {
                            gi
                        } else {
                            0.0
                        }
                    });
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::ConcatCols(a, b) => {
                    let ca = self.value(a).cols();
                    let cb = self.value(b).cols();
                    accumulate(&mut grads, a, g.slice_cols(0, ca));
                    accumulate(&mut grads, b, g.slice_cols(ca, ca + cb));
                }
                &Op::SliceCols { x, start, end } => {
                    let (rows, cols) = self.value(x).shape();
                    let mut gx = pool_matrix(&mut pool, rows, cols);
                    for r in 0..rows {
                        gx.row_mut(r)[start..end].copy_from_slice(g.row(r));
                    }
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                Op::GatherRows { x, indices, shards } => {
                    // Adjoint of gather = scatter-add back to the source
                    // rows. With shards, each one scatters into its own
                    // disjoint entity block (possibly in parallel); the k
                    // order within every target row matches the sequential
                    // sweep, so the bits do too.
                    let (x_rows, cols) = self.value(*x).shape();
                    let mut gx = pool_matrix(&mut pool, x_rows, cols);
                    if cols > 0 {
                        let g_slice = g.as_slice();
                        let full_active = [0, indices.len()];
                        let full_entity = [0, x_rows];
                        let (active_bounds, entity_bounds): (&[usize], &[usize]) = match shards {
                            Some(s) => (&s.active, &s.entity),
                            None => (&full_active, &full_entity),
                        };
                        let mut tasks: Vec<(usize, usize, &mut [f32])> = gx
                            .row_blocks_mut(entity_bounds)
                            .into_iter()
                            .enumerate()
                            .map(|(s, block)| (s, entity_bounds[s], block))
                            .collect();
                        run_shard_tasks(
                            pool_if_worth(
                                &self.worker_pool,
                                self.par_threshold(),
                                indices.len() * cols,
                            ),
                            &mut tasks,
                            |(s, e_lo, block): &mut (usize, usize, &mut [f32])| {
                                for k in active_bounds[*s]..active_bounds[*s + 1] {
                                    let idx = indices[k];
                                    let dst =
                                        &mut block[(idx - *e_lo) * cols..(idx - *e_lo + 1) * cols];
                                    for (d, &v) in
                                        dst.iter_mut().zip(&g_slice[k * cols..(k + 1) * cols])
                                    {
                                        *d += v;
                                    }
                                }
                            },
                        );
                    }
                    accumulate_pooled(&mut grads, &mut pool, *x, gx);
                }
                Op::SegmentSum { x, segments } => {
                    // Adjoint of scatter-add = gather from the output rows.
                    let mut gx = pool_matrix_scratch(&mut pool, segments.len(), g.cols());
                    g.gather_rows_into(segments, &mut gx);
                    accumulate_pooled(&mut grads, &mut pool, *x, gx);
                }
                Op::MaskRows { x, mask } => {
                    let mut gx = pooled_copy(&mut pool, &g);
                    gx.mul_col_broadcast_assign(mask);
                    accumulate_pooled(&mut grads, &mut pool, *x, gx);
                }
                &Op::Sum(x) => {
                    let s = g.get(0, 0);
                    let (rows, cols) = self.value(x).shape();
                    let gx = pooled_filled(&mut pool, rows, cols, s);
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Mean(x) => {
                    let (rows, cols) = self.value(x).shape();
                    let denom = (rows * cols).max(1) as f32;
                    let s = g.get(0, 0) / denom;
                    let gx = pooled_filled(&mut pool, rows, cols, s);
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                Op::SegmentAccRows {
                    acc,
                    x,
                    rows,
                    segments,
                    shards,
                } => {
                    // out = acc + scatter(x[rows]): g_acc += g,
                    // g_x[rows[k]] += g[segments[k]]. Sharded: each shard
                    // writes its own dense block of g_x.
                    let (x_rows, cols) = self.value(*x).shape();
                    let mut gx = pool_matrix(&mut pool, x_rows, cols);
                    if cols > 0 {
                        let g_slice = g.as_slice();
                        let full_active = [0, rows.len()];
                        let full_dense = [0, x_rows];
                        let (active_bounds, dense_bounds): (&[usize], &[usize]) = match shards {
                            Some(s) => (&s.active, &s.dense),
                            None => (&full_active, &full_dense),
                        };
                        let mut tasks: Vec<(usize, usize, &mut [f32])> = gx
                            .row_blocks_mut(dense_bounds)
                            .into_iter()
                            .enumerate()
                            .map(|(s, block)| (s, dense_bounds[s], block))
                            .collect();
                        run_shard_tasks(
                            pool_if_worth(
                                &self.worker_pool,
                                self.par_threshold(),
                                rows.len() * cols,
                            ),
                            &mut tasks,
                            |(s, p_lo, block): &mut (usize, usize, &mut [f32])| {
                                for k in active_bounds[*s]..active_bounds[*s + 1] {
                                    let (row, seg) = (rows[k], segments[k]);
                                    let dst =
                                        &mut block[(row - *p_lo) * cols..(row - *p_lo + 1) * cols];
                                    for (d, &v) in
                                        dst.iter_mut().zip(&g_slice[seg * cols..(seg + 1) * cols])
                                    {
                                        *d += v;
                                    }
                                }
                            },
                        );
                    }
                    accumulate_pooled(&mut grads, &mut pool, *x, gx);
                    accumulate_ref(&mut grads, &mut pool, *acc, &g);
                }
                Op::GruStep {
                    vars,
                    h,
                    px,
                    rows,
                    saved,
                    shards,
                } => {
                    // Row-disjoint gradients (state, projected input) are
                    // written in place by each shard; parameter gradients
                    // are accumulated as per-shard partials and merged in
                    // shard order below. The result is a pure function of
                    // the shard layout — independent of the worker count
                    // (or the pool's absence).
                    let (vars, h, px) = (*vars, *h, *px);
                    let s: &GruSaved = saved
                        .as_deref()
                        .expect("backward: node was recorded in inference mode");
                    let (n, hidden) = self.value(h).shape();
                    let a = rows.len();
                    let (full_active, full_dense) = ([0, a], [0, n]);
                    let (active, dense): (&[usize], &[usize]) = match shards {
                        Some(s) => (&s.active, &s.dense),
                        None => (&full_active, &full_dense),
                    };
                    let num_shards = active.len() - 1;
                    let zr_t = transposed(&mut transposes, &mut pool, vars.w_h_zr, &self.nodes);
                    let c_t = transposed(&mut transposes, &mut pool, vars.w_h_c, &self.nodes);

                    let mut gh = pool_matrix_scratch(&mut pool, n, hidden);
                    let mut gpx = pool_matrix_scratch(&mut pool, a, 3 * hidden);
                    let ctx = GruBwdCtx {
                        rows,
                        g: g.as_slice(),
                        saved: s,
                        w_h_zr_t: transposes[zr_t].1.as_slice(),
                        w_h_c_t: transposes[c_t].1.as_slice(),
                        hidden,
                    };
                    let worker_pool =
                        pool_if_worth(&self.worker_pool, self.par_threshold(), a * hidden * 12);
                    let targets = vars.partial_targets();
                    let mut gh_it = gh.row_blocks_mut(dense).into_iter();
                    let mut gpx_it = gpx.row_blocks_mut(active).into_iter();
                    let mut task = |pool: &mut BufPool<f32>, si: usize| GruBwdTask {
                        k_lo: active[si],
                        k_hi: active[si + 1],
                        p_lo: dense[si],
                        gh: gh_it.next().expect("gh block"),
                        gpx: gpx_it.next().expect("gpx block"),
                        scratch: GruBwdScratch::take(pool, active[si + 1] - active[si], hidden),
                    };
                    if worker_pool.is_some() && num_shards > 1 {
                        // Parallel: every shard gets its own scratch up
                        // front; each parameter's partials then reduce in
                        // ascending shard order — per element exactly the
                        // sequential merge's addition order, so the bits
                        // match it at any worker count.
                        let mut tasks: Vec<GruBwdTask> =
                            (0..num_shards).map(|si| task(&mut pool, si)).collect();
                        run_shard_tasks(worker_pool, &mut tasks, |t| gru_backward_shard(&ctx, t));
                        for (i, &var) in targets.iter().enumerate() {
                            let refs: Vec<&Matrix> =
                                tasks.iter().map(|t| t.scratch.partials()[i]).collect();
                            let (rows_, cols_) = refs[0].shape();
                            let slot = grad_slot(&mut grads, var, rows_, cols_, &mut pool);
                            reduce_partials_parallel(worker_pool, slot, &refs);
                        }
                        for t in tasks {
                            t.scratch.recycle(&mut pool);
                        }
                    } else {
                        // Sequential: one scratch set cycles through the
                        // pool (LIFO keeps it cache-hot), each shard's
                        // partials merged the moment they exist. Same
                        // partial contents, same merge order.
                        for si in 0..num_shards {
                            let mut t = task(&mut pool, si);
                            gru_backward_shard(&ctx, &mut t);
                            for (&var, partial) in targets.iter().zip(t.scratch.partials()) {
                                let (rows_, cols_) = partial.shape();
                                grad_slot(&mut grads, var, rows_, cols_, &mut pool)
                                    .add_assign(partial);
                            }
                            t.scratch.recycle(&mut pool);
                        }
                    }
                    accumulate_pooled(&mut grads, &mut pool, h, gh);
                    accumulate_pooled(&mut grads, &mut pool, px, gpx);
                }
                Op::PackCols { parts, row_lo } => {
                    let mut off = 0;
                    for &p in parts {
                        let (rows, cols) = self.value(p).shape();
                        let slot = grad_slot(&mut grads, p, rows, cols, &mut pool);
                        for r in 0..g.rows() {
                            let src = &g.row(r)[off..off + cols];
                            for (d, &v) in slot.row_mut(row_lo + r).iter_mut().zip(src) {
                                *d += v;
                            }
                        }
                        off += cols;
                    }
                }
            }
            // Every consumer of this node ran before it, so nothing reads
            // its gradient again: the buffer serves the next adjoint instead
            // of staying resident until `reset`.
            pool_recycle(&mut pool, g);
        }

        // Persist the leaves' gradients onto the tape.
        for (node, g) in self.nodes.iter_mut().zip(grads.drain(..)) {
            if let Some(old) = std::mem::replace(&mut node.grad, g) {
                pool_recycle(&mut pool, old);
            }
        }
        for (_, t) in transposes {
            pool_recycle(&mut pool, t);
        }
        self.grad_slots = grads;
        self.pool = pool;
    }
}

/// Index into `cache` of the transpose of node `v`'s value, computed into a
/// pooled buffer on first use.
fn transposed(
    cache: &mut Vec<(usize, Matrix)>,
    pool: &mut BufPool<f32>,
    v: Var,
    nodes: &[Node],
) -> usize {
    if let Some(i) = cache.iter().position(|(id, _)| *id == v.0) {
        return i;
    }
    let value = &nodes[v.0].value;
    let mut t = pool_matrix_scratch(pool, value.cols(), value.rows());
    value.transpose_into(&mut t);
    cache.push((v.0, t));
    cache.len() - 1
}

/// Accumulate `delta` into the pending gradient of node `v`.
/// Accumulate a pass-through adjoint that equals the incoming gradient `g`
/// itself. When a gradient is already pending the add folds `g` in without
/// materializing a copy at all; the first contribution is copied into a
/// pooled buffer instead of `g.clone()`'s fresh allocation. Bits are
/// unchanged either way — this only changes where the buffer comes from.
fn accumulate_ref(grads: &mut [Option<Matrix>], pool: &mut BufPool<f32>, v: Var, g: &Matrix) {
    match &mut grads[v.0] {
        Some(existing) => existing.add_assign(g),
        slot @ None => {
            *slot = Some(pooled_copy(pool, g));
        }
    }
}

fn accumulate(grads: &mut [Option<Matrix>], v: Var, delta: Matrix) {
    match &mut grads[v.0] {
        Some(existing) => existing.add_assign(&delta),
        slot @ None => *slot = Some(delta),
    }
}

/// Like [`accumulate`], but recycles `delta`'s buffer when it is folded into
/// an existing gradient instead of stored.
fn accumulate_pooled(grads: &mut [Option<Matrix>], pool: &mut BufPool<f32>, v: Var, delta: Matrix) {
    match &mut grads[v.0] {
        Some(existing) => {
            existing.add_assign(&delta);
            pool_recycle(pool, delta);
        }
        slot @ None => *slot = Some(delta),
    }
}

/// Get (or zero-initialize) the gradient slot for `v` with the given shape.
fn grad_slot<'a>(
    grads: &'a mut [Option<Matrix>],
    v: Var,
    rows: usize,
    cols: usize,
    pool: &mut BufPool<f32>,
) -> &'a mut Matrix {
    let slot = &mut grads[v.0];
    if slot.is_none() {
        *slot = Some(pool_matrix(pool, rows, cols));
    }
    let m = slot.as_mut().expect("just initialized");
    debug_assert_eq!(m.shape(), (rows, cols));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_and_grad_of_simple_chain() {
        // loss = mean((x * 3 + 1)^2), x = [1, 2]
        let mut g = Graph::new();
        let x = g.param(Matrix::row_vector(&[1.0, 2.0]));
        let y = g.affine(x, 3.0, 1.0); // [4, 7]
        let sq = g.square(y); // [16, 49]
        let loss = g.mean(sq); // 32.5
        assert!((g.value(loss).get(0, 0) - 32.5).abs() < 1e-5);
        g.backward(loss);
        // d/dx = 2*(3x+1)*3 / 2 = 3*(3x+1) -> [12, 21]
        let gx = g.grad(x).unwrap();
        assert!(gx.approx_eq(&Matrix::row_vector(&[12.0, 21.0]), 1e-4));
    }

    #[test]
    fn matmul_gradients() {
        // loss = sum(A·B); dA = 1·Bᵀ, dB = Aᵀ·1
        let mut g = Graph::new();
        let a = g.param(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = g.param(Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let c = g.matmul(a, b);
        let loss = g.sum(c);
        g.backward(loss);
        let ga = g.grad(a).unwrap();
        let gb = g.grad(b).unwrap();
        assert!(ga.approx_eq(&Matrix::from_vec(2, 2, vec![11.0, 15.0, 11.0, 15.0]), 1e-4));
        assert!(gb.approx_eq(&Matrix::from_vec(2, 2, vec![4.0, 4.0, 6.0, 6.0]), 1e-4));
    }

    #[test]
    fn constants_receive_no_grad() {
        let mut g = Graph::new();
        let x = g.param(Matrix::ones(1, 2));
        let t = g.constant(Matrix::ones(1, 2));
        let loss = g.mse(x, t);
        g.backward(loss);
        assert!(g.grad(t).is_none());
        assert!(g.grad(x).is_some());
    }

    #[test]
    fn grad_flows_through_gather_and_segment_sum() {
        // states: 3 rows. Gather [0, 1, 0, 2], sum each gathered row, loss=sum.
        // Row 0 is gathered twice so its grad should be 2, others 1.
        let mut g = Graph::new();
        let states = g.param(Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]));
        let gathered = g.gather_rows(states, &[0, 1, 0, 2]);
        let loss = g.sum(gathered);
        g.backward(loss);
        let gs = g.grad(states).unwrap();
        assert!(gs.approx_eq(&Matrix::from_rows(&[vec![2.0], vec![1.0], vec![1.0]]), 1e-5));
    }

    #[test]
    fn segment_sum_grad_is_gather() {
        // 4 rows scattered into 2 segments; loss weights segment 0 by 10.
        let mut g = Graph::new();
        let x = g.param(Matrix::from_rows(&[
            vec![1.0],
            vec![1.0],
            vec![1.0],
            vec![1.0],
        ]));
        let s = g.segment_sum(x, &[0, 1, 0, 1], 2);
        let w = g.constant(Matrix::from_rows(&[vec![10.0], vec![1.0]]));
        let weighted = g.mul(s, w);
        let loss = g.sum(weighted);
        g.backward(loss);
        let gx = g.grad(x).unwrap();
        assert!(gx.approx_eq(
            &Matrix::from_rows(&[vec![10.0], vec![1.0], vec![10.0], vec![1.0]]),
            1e-5
        ));
    }

    #[test]
    fn mask_rows_zeroes_gradient_of_padded_rows() {
        let mut g = Graph::new();
        let x = g.param(Matrix::ones(3, 2));
        let mask = Matrix::column_vector(&[1.0, 0.0, 1.0]);
        let m = g.mask_rows(x, &mask);
        let loss = g.sum(m);
        g.backward(loss);
        let gx = g.grad(x).unwrap();
        assert_eq!(gx.row(0), &[1.0, 1.0]);
        assert_eq!(gx.row(1), &[0.0, 0.0]);
        assert_eq!(gx.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn concat_slice_gradients_route_correctly() {
        let mut g = Graph::new();
        let a = g.param(Matrix::ones(2, 2));
        let b = g.param(Matrix::ones(2, 3));
        let cat = g.concat_cols(a, b);
        // keep only the b-half scaled by 2 -> grad(a)=0, grad(b)=2
        let right = g.slice_cols(cat, 2, 5);
        let scaled = g.scale(right, 2.0);
        let loss = g.sum(scaled);
        g.backward(loss);
        assert!(g.grad(a).unwrap().approx_eq(&Matrix::zeros(2, 2), 1e-6));
        assert!(g
            .grad(b)
            .unwrap()
            .approx_eq(&Matrix::filled(2, 3, 2.0), 1e-6));
    }

    #[test]
    fn fan_out_accumulates() {
        // y = x + x  =>  dy/dx = 2
        let mut g = Graph::new();
        let x = g.param(Matrix::ones(1, 1));
        let y = g.add(x, x);
        let loss = g.sum(y);
        g.backward(loss);
        assert!((g.grad(x).unwrap().get(0, 0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn unused_nodes_have_no_grad() {
        let mut g = Graph::new();
        let x = g.param(Matrix::ones(1, 1));
        let orphan = g.param(Matrix::ones(1, 1));
        let loss = g.sum(x);
        g.backward(loss);
        assert!(g.grad(orphan).is_none());
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_rejects_non_scalar_loss() {
        let mut g = Graph::new();
        let x = g.param(Matrix::ones(2, 2));
        g.backward(x);
    }

    #[test]
    fn mse_value() {
        let mut g = Graph::new();
        let p = g.param(Matrix::row_vector(&[1.0, 2.0]));
        let t = g.constant(Matrix::row_vector(&[3.0, 2.0]));
        let loss = g.mse(p, t);
        assert!((g.value(loss).get(0, 0) - 2.0).abs() < 1e-6);
    }

    // ------------------------------------------------------------------
    // Fused ops & buffer pool
    // ------------------------------------------------------------------

    fn det_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            let v = (r as u64 * 31 + c as u64 * 17 + salt * 13) % 23;
            v as f32 / 11.0 - 1.0
        })
    }

    /// A toy GRU cell registered on the tape: its six parameters `[W_z, b_z,
    /// W_r, b_r, W_c, b_c]` and their packing.
    struct ToyGru {
        params: [Var; 6],
        vars: GruVars,
    }

    fn toy_gru(g: &mut Graph, hidden: usize, input: usize, salt: u64) -> ToyGru {
        let params = [
            g.param(det_matrix(hidden + input, hidden, salt)),
            g.param(det_matrix(1, hidden, salt + 1)),
            g.param(det_matrix(hidden + input, hidden, salt + 2)),
            g.param(det_matrix(1, hidden, salt + 3)),
            g.param(det_matrix(hidden + input, hidden, salt + 4)),
            g.param(det_matrix(1, hidden, salt + 5)),
        ];
        ToyGru {
            params,
            vars: g.gru_pack(params),
        }
    }

    impl ToyGru {
        /// The fused step over `rows`; `x` holds one input row per active row.
        fn step_rows(&self, g: &mut Graph, h: Var, x: Var, rows: &[usize]) -> Var {
            let px = g.matmul(x, self.vars.w_x);
            g.gru_step_rows(&self.vars, h, px, rows)
        }

        /// The fused step over every row.
        fn step(&self, g: &mut Graph, h: Var, x: Var) -> Var {
            let px = g.matmul(x, self.vars.w_x);
            g.gru_step_dense_sharded(&self.vars, h, px, None)
        }
    }

    /// The unfused op-by-op GRU step (the numerical reference).
    fn gru_step_unfused(g: &mut Graph, gru: &ToyGru, h: Var, x: Var, mask: Option<&Matrix>) -> Var {
        let [w_z, b_z, w_r, b_r, w_c, b_c] = gru.params;
        let hx = g.concat_cols(h, x);
        let z_lin = g.matmul(hx, w_z);
        let z_b = g.add_bias(z_lin, b_z);
        let z = g.sigmoid(z_b);
        let r_lin = g.matmul(hx, w_r);
        let r_b = g.add_bias(r_lin, b_r);
        let r = g.sigmoid(r_b);
        let rh = g.mul(r, h);
        let rhx = g.concat_cols(rh, x);
        let c_lin = g.matmul(rhx, w_c);
        let c_b = g.add_bias(c_lin, b_c);
        let c = g.tanh(c_b);
        let one_minus_z = g.one_minus(z);
        let keep = g.mul(one_minus_z, h);
        let update = g.mul(z, c);
        let advanced = g.add(keep, update);
        match mask {
            None => advanced,
            Some(m) => {
                let keep_mask = m.map(|v| 1.0 - v);
                let kept = g.mask_rows(h, &keep_mask);
                let moved = g.mask_rows(advanced, m);
                g.add(kept, moved)
            }
        }
    }

    #[test]
    fn compacted_gather_matches_masked_gather() {
        // Positions 1 and 4 are padding: the compacted gather reads only the
        // active ids; the reference gathers a full-width list and masks.
        let full_ids = [2usize, 0, 1, 2, 0];
        let mask = Matrix::column_vector(&[1.0, 0.0, 1.0, 1.0, 0.0]);
        let active_rows = [0usize, 2, 3];
        let active_ids = [2usize, 1, 2];

        let mut ga = Graph::new();
        let xa = ga.param(det_matrix(3, 4, 7));
        let compact = ga.gather_rows(xa, &active_ids);
        let la = ga.sum(compact);
        ga.backward(la);

        let mut gb = Graph::new();
        let xb = gb.param(det_matrix(3, 4, 7));
        let gathered = gb.gather_rows(xb, &full_ids);
        let masked = gb.mask_rows(gathered, &mask);
        let lb = gb.sum(masked);
        gb.backward(lb);

        for (k, &row) in active_rows.iter().enumerate() {
            assert_eq!(
                ga.value(compact).row(k),
                gb.value(masked).row(row),
                "forward must be exact"
            );
        }
        for row in [1, 4] {
            assert!(gb.value(masked).row(row).iter().all(|&v| v == 0.0));
        }
        assert!(ga.grad(xa).unwrap().approx_eq(gb.grad(xb).unwrap(), 0.0));
    }

    #[test]
    fn segment_acc_rows_matches_unfused_chain() {
        let segments = [1usize, 0, 1, 1];
        let mask = Matrix::column_vector(&[1.0, 1.0, 0.0, 1.0]);
        let active_rows = [0usize, 1, 3];
        let active_segments = [1usize, 0, 1];

        let mut ga = Graph::new();
        let acc_a = ga.param(det_matrix(2, 3, 1));
        let xa = ga.param(det_matrix(4, 3, 2));
        let out_a = ga.segment_acc_rows(acc_a, xa, &active_rows, &active_segments);
        let wa = ga.constant(det_matrix(2, 3, 3));
        let prod_a = ga.mul(out_a, wa);
        let la = ga.sum(prod_a);
        ga.backward(la);

        let mut gb = Graph::new();
        let acc_b = gb.param(det_matrix(2, 3, 1));
        let xb = gb.param(det_matrix(4, 3, 2));
        let masked = gb.mask_rows(xb, &mask);
        let seg = gb.segment_sum(masked, &segments, 2);
        let out_b = gb.add(acc_b, seg);
        let wb = gb.constant(det_matrix(2, 3, 3));
        let prod_b = gb.mul(out_b, wb);
        let lb = gb.sum(prod_b);
        gb.backward(lb);

        assert!(ga.value(out_a).approx_eq(gb.value(out_b), 1e-6));
        assert!(ga.grad(xa).unwrap().approx_eq(gb.grad(xb).unwrap(), 1e-6));
        assert!(ga
            .grad(acc_a)
            .unwrap()
            .approx_eq(gb.grad(acc_b).unwrap(), 1e-6));
    }

    #[test]
    fn gru_step_forward_matches_unfused() {
        let mut ga = Graph::new();
        let va = toy_gru(&mut ga, 5, 3, 42);
        let ha = ga.constant(det_matrix(4, 5, 10));
        let xa = ga.constant(det_matrix(4, 3, 11));
        let fused = va.step(&mut ga, ha, xa);

        let mut gb = Graph::new();
        let vb = toy_gru(&mut gb, 5, 3, 42);
        let hb = gb.constant(det_matrix(4, 5, 10));
        let xb = gb.constant(det_matrix(4, 3, 11));
        let unfused = gru_step_unfused(&mut gb, &vb, hb, xb, None);

        assert!(
            ga.value(fused).approx_eq(gb.value(unfused), 1e-6),
            "fused forward diverged"
        );
    }

    #[test]
    fn gru_step_gradients_match_unfused() {
        let mut ga = Graph::new();
        let va = toy_gru(&mut ga, 5, 3, 9);
        let ha = ga.param(det_matrix(4, 5, 20));
        let xa = ga.param(det_matrix(4, 3, 21));
        let fused = va.step(&mut ga, ha, xa);
        let sq_a = ga.square(fused);
        let la = ga.mean(sq_a);
        ga.backward(la);

        let mut gb = Graph::new();
        let vb = toy_gru(&mut gb, 5, 3, 9);
        let hb = gb.param(det_matrix(4, 5, 20));
        let xb = gb.param(det_matrix(4, 3, 21));
        let unfused = gru_step_unfused(&mut gb, &vb, hb, xb, None);
        let sq_b = gb.square(unfused);
        let lb = gb.mean(sq_b);
        gb.backward(lb);

        let pairs = va
            .params
            .into_iter()
            .zip(vb.params)
            .chain([(ha, hb), (xa, xb)]);
        for (i, (fa, fb)) in pairs.enumerate() {
            let grad_a = ga.grad(fa).expect("fused grad");
            let grad_b = gb.grad(fb).expect("unfused grad");
            assert!(
                grad_a.approx_eq(grad_b, 2e-5),
                "grad {i} diverged: {grad_a:?} vs {grad_b:?}"
            );
        }
    }

    #[test]
    fn gru_step_rows_matches_masked_primitive_chain() {
        // Active rows {0, 2, 3} of 4; the compact ops must agree with the
        // masked primitive chain on values and on every gradient.
        let rows = [0usize, 2, 3];
        let mask = Matrix::column_vector(&[1.0, 0.0, 1.0, 1.0]);
        let ids = [1usize, 0, 2]; // entity per active row

        let mut ga = Graph::new();
        let va = toy_gru(&mut ga, 5, 4, 9);
        let states_a = ga.param(det_matrix(3, 4, 33));
        let ha = ga.param(det_matrix(4, 5, 20));
        let xa = ga.gather_rows(states_a, &ids);
        let fused = va.step_rows(&mut ga, ha, xa, &rows);
        let acc_a = ga.constant(Matrix::zeros(3, 5));
        let out_a = ga.segment_acc_rows(acc_a, fused, &rows, &ids);
        let sq_a = ga.square(out_a);
        let la = ga.mean(sq_a);
        ga.backward(la);

        let mut gb = Graph::new();
        let vb = toy_gru(&mut gb, 5, 4, 9);
        let states_b = gb.param(det_matrix(3, 4, 33));
        let hb = gb.param(det_matrix(4, 5, 20));
        // Masked form: gather a full-width id list (0 for inactive) + mask.
        let full_ids = [1usize, 0, 0, 2];
        let gathered = gb.gather_rows(states_b, &full_ids);
        let xb = gb.mask_rows(gathered, &mask);
        let stepped = gru_step_unfused(&mut gb, &vb, hb, xb, Some(&mask));
        let acc_b = gb.constant(Matrix::zeros(3, 5));
        let msg = gb.mask_rows(stepped, &mask);
        let contribution = gb.segment_sum(msg, &full_ids, 3);
        let out_b = gb.add(acc_b, contribution);
        let sq_b = gb.square(out_b);
        let lb = gb.mean(sq_b);
        gb.backward(lb);

        assert!(
            ga.value(fused).approx_eq(gb.value(stepped), 1e-6),
            "forward diverged"
        );
        assert!(ga.value(out_a).approx_eq(gb.value(out_b), 1e-6));
        let pairs = va
            .params
            .into_iter()
            .zip(vb.params)
            .chain([(ha, hb), (states_a, states_b)]);
        for (i, (fa, fb)) in pairs.enumerate() {
            let grad_a = ga.grad(fa).expect("compact grad");
            let grad_b = gb.grad(fb).expect("masked grad");
            assert!(grad_a.approx_eq(grad_b, 2e-5), "grad {i} diverged");
        }
    }

    #[test]
    fn reference_mode_matches_fast_ops_closely() {
        let run = |reference: bool| {
            let mut g = Graph::new();
            g.set_reference_mode(reference);
            let a = g.param(det_matrix(6, 5, 1));
            let b = g.param(det_matrix(5, 4, 2));
            let mm = g.matmul(a, b);
            let sg = g.sigmoid(mm);
            let th = g.tanh(sg);
            let se = g.selu(th);
            let loss = g.mean(se);
            g.backward(loss);
            (
                g.value(loss).get(0, 0),
                g.grad(a).unwrap().clone(),
                g.grad(b).unwrap().clone(),
            )
        };
        let (l_fast, ga_fast, gb_fast) = run(false);
        let (l_ref, ga_ref, gb_ref) = run(true);
        assert!((l_fast - l_ref).abs() < 1e-5, "loss {l_fast} vs {l_ref}");
        assert!(ga_fast.approx_eq(&ga_ref, 1e-4));
        assert!(gb_fast.approx_eq(&gb_ref, 1e-4));
    }

    /// Run one fused forward+backward and return (loss, all grads).
    fn run_fused_case(g: &mut Graph) -> (f32, Vec<Matrix>) {
        let vars = toy_gru(g, 4, 4, 3);
        let h0 = g.constant(det_matrix(5, 4, 30));
        let x0 = g.constant(det_matrix(5, 4, 31));
        // Row 2 is padding.
        let rows = [0usize, 1, 3, 4];
        let x = g.gather_rows(x0, &[0, 2, 4, 3]);
        let h1 = vars.step_rows(g, h0, x, &rows);
        let acc0 = g.constant(Matrix::zeros(3, 4));
        let acc = g.segment_acc_rows(acc0, h1, &rows, &[0, 1, 0, 1]);
        let sq = g.square(acc);
        let loss = g.mean(sq);
        g.backward(loss);
        let grads = vars
            .params
            .iter()
            .map(|&v| g.grad(v).unwrap().clone())
            .collect();
        (g.value(loss).get(0, 0), grads)
    }

    #[test]
    fn reset_reuse_is_bit_identical_and_allocation_free() {
        let mut fresh = Graph::new();
        let (loss_fresh, grads_fresh) = run_fused_case(&mut fresh);

        let mut reused = Graph::new();
        let _ = run_fused_case(&mut reused);
        reused.reset();
        assert!(reused.is_empty());
        assert!(reused.pooled_buffers() > 0, "reset must harvest buffers");
        let (loss_reused, grads_reused) = run_fused_case(&mut reused);

        assert_eq!(loss_fresh, loss_reused, "reused tape must be bit-identical");
        for (a, b) in grads_fresh.iter().zip(&grads_reused) {
            assert!(
                a.approx_eq(b, 0.0),
                "gradients must be bit-identical after reset"
            );
        }
    }

    #[test]
    fn inference_mode_is_bit_identical_and_discards_gru_scratch() {
        let run = |inference: bool| -> (Matrix, usize) {
            let mut g = Graph::new();
            g.set_inference_mode(inference);
            let vars = toy_gru(&mut g, 4, 4, 3);
            let h = g.constant(det_matrix(5, 4, 30));
            let x = g.constant(det_matrix(5, 4, 31));
            let h1 = vars.step(&mut g, h, x);
            let x2 = g.gather_rows(h1, &[0, 1, 2]);
            let h2 = vars.step_rows(&mut g, h1, x2, &[1, 2, 3]);
            (g.value(h2).clone(), g.pooled_buffers())
        };
        let (train_out, train_pooled) = run(false);
        let (infer_out, infer_pooled) = run(true);
        assert!(
            train_out.approx_eq(&infer_out, 0.0),
            "inference mode must not change forward bits"
        );
        // Training keeps GRU scratch resident on nodes; inference recycles
        // it immediately, so each step reuses the previous step's buffers
        // and one step's worth stays parked when recording ends.
        assert_eq!(train_pooled, 0);
        assert!(
            infer_pooled >= 4,
            "expected recycled scratch, got {infer_pooled}"
        );
    }

    /// A toy 2-sample block-diagonal layout: paths 0..2 / 2..5, entities
    /// 0..3 / 3..6, one padded path (row 3) inactive.
    const SH_ROWS: [usize; 4] = [0, 1, 2, 4];
    const SH_IDS: [usize; 4] = [1, 0, 4, 5];
    const SH_ACTIVE: [usize; 3] = [0, 2, 4];
    const SH_DENSE: [usize; 3] = [0, 2, 5];
    const SH_ENTITY: [usize; 3] = [0, 3, 6];

    /// Run the full fused chain (gather → gru_step_rows → segment_acc_rows)
    /// with an optional shard split, returning (out value, loss, grads).
    fn sharded_case(g: &mut Graph, split: Option<ShardSplit<'_>>) -> (Matrix, f32, Vec<Matrix>) {
        let vars = toy_gru(g, 4, 3, 11);
        let states = g.param(det_matrix(6, 3, 50));
        let h = g.param(det_matrix(5, 4, 51));
        let projected = g.matmul(states, vars.vars.w_x);
        let px = g.gather_rows_sharded(projected, (&SH_IDS).into(), split.clone());
        let h2 = g.gru_step_rows_sharded(&vars.vars, h, px, (&SH_ROWS).into(), split.clone());
        let acc0 = g.constant(Matrix::zeros(6, 4));
        let out = g.segment_acc_rows_sharded(acc0, h2, (&SH_ROWS).into(), (&SH_IDS).into(), split);
        let sq = g.square(out);
        let loss = g.mean(sq);
        g.backward(loss);
        let grads = vars
            .params
            .iter()
            .chain(&[h, states])
            .map(|&v| g.grad(v).unwrap().clone())
            .collect();
        (g.value(out).clone(), g.value(loss).get(0, 0), grads)
    }

    fn toy_split() -> ShardSplit<'static> {
        ShardSplit::borrowed(&SH_ACTIVE, &SH_DENSE, &SH_ENTITY)
    }

    #[test]
    fn sharded_forward_is_bitwise_identical_to_unsharded() {
        let mut ga = Graph::new();
        let (out_plain, _, grads_plain) = sharded_case(&mut ga, None);
        let mut gb = Graph::new();
        let (out_sharded, _, grads_sharded) = sharded_case(&mut gb, Some(toy_split()));
        assert!(
            out_plain.approx_eq(&out_sharded, 0.0),
            "sharding must not change forward bits"
        );
        // Gradients agree numerically; the parameter grads may differ in the
        // last bit (per-shard partial merge is the sharded canonical order).
        for (a, b) in grads_plain.iter().zip(&grads_sharded) {
            assert!(a.approx_eq(b, 1e-5));
        }
    }

    #[test]
    fn sharded_backward_is_bitwise_invariant_across_worker_counts() {
        let mut base = Graph::new();
        let (out_seq, loss_seq, grads_seq) = sharded_case(&mut base, Some(toy_split()));
        for workers in [1, 2, 3, 8] {
            let mut g = Graph::new();
            g.set_worker_pool(Some(Arc::new(WorkerPool::new(workers))));
            // Force even these toy-sized ops through the pool.
            g.set_parallel_threshold(0);
            let (out_par, loss_par, grads_par) = sharded_case(&mut g, Some(toy_split()));
            assert!(
                out_seq.approx_eq(&out_par, 0.0),
                "forward diverged at {workers} workers"
            );
            assert_eq!(loss_seq, loss_par, "loss diverged at {workers} workers");
            for (i, (a, b)) in grads_seq.iter().zip(&grads_par).enumerate() {
                assert!(
                    a.approx_eq(b, 0.0),
                    "grad {i} diverged at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn sharded_ops_handle_empty_shards() {
        // Second sample contributes no active rows at this position.
        let rows = [0usize, 1];
        let ids = [1usize, 0];
        let active = [0usize, 2, 2];
        let split = ShardSplit::borrowed(&active, &SH_DENSE, &SH_ENTITY);
        let run = |split: Option<ShardSplit<'_>>, pool: Option<Arc<WorkerPool>>| {
            let mut g = Graph::new();
            g.set_worker_pool(pool);
            g.set_parallel_threshold(0);
            let vars = toy_gru(&mut g, 4, 3, 13);
            let states = g.param(det_matrix(6, 3, 60));
            let h = g.param(det_matrix(5, 4, 61));
            let projected = g.matmul(states, vars.vars.w_x);
            let px = g.gather_rows_sharded(projected, (&ids).into(), split.clone());
            let h2 = g.gru_step_rows_sharded(&vars.vars, h, px, (&rows).into(), split.clone());
            let acc0 = g.constant(Matrix::zeros(6, 4));
            let out = g.segment_acc_rows_sharded(acc0, h2, (&rows).into(), (&ids).into(), split);
            let sq = g.square(out);
            let loss = g.mean(sq);
            g.backward(loss);
            (g.value(out).clone(), g.grad(h).unwrap().clone())
        };
        let (out_seq, gh_seq) = run(Some(split.clone()), None);
        let (out_par, gh_par) = run(Some(split.clone()), Some(Arc::new(WorkerPool::new(4))));
        assert!(out_seq.approx_eq(&out_par, 0.0));
        assert!(gh_seq.approx_eq(&gh_par, 0.0));
        let (out_plain, _) = run(None, None);
        assert!(out_seq.approx_eq(&out_plain, 0.0));
    }

    #[test]
    fn single_shard_splits_record_no_shards() {
        // A 1-sample "megabatch" must stay on the legacy backward path, so
        // its gradients remain bitwise identical to plain single plans.
        let (active, dense, entity) = ([0usize, 4], [0usize, 5], [0usize, 6]);
        let split = ShardSplit::borrowed(&active, &dense, &entity);
        let mut ga = Graph::new();
        let (_, loss_a, grads_a) = sharded_case(&mut ga, Some(split));
        let mut gb = Graph::new();
        let (_, loss_b, grads_b) = sharded_case(&mut gb, None);
        assert_eq!(loss_a, loss_b);
        for (a, b) in grads_a.iter().zip(&grads_b) {
            assert!(a.approx_eq(b, 0.0), "1-shard split must be a no-op");
        }
    }

    /// A 3-block dense row partition of 7 rows (deliberately unbalanced,
    /// with one single-row block).
    const DENSE_BOUNDS: [usize; 4] = [0, 3, 4, 7];

    /// Readout-shaped chain: matmul → add_bias → selu → matmul, dense GRU on
    /// top, optionally recorded with the dense shard layout. Returns the
    /// output value, the loss bits and every parameter gradient.
    fn dense_sharded_case(g: &mut Graph, bounds: Option<&[usize]>) -> (Matrix, f32, Vec<Matrix>) {
        let vars = toy_gru(g, 4, 4, 21);
        let h = g.param(det_matrix(7, 4, 70));
        let acc = g.param(det_matrix(7, 4, 71));
        let px = g.matmul_sharded(acc, vars.vars.w_x, bounds.map(Into::into));
        let stepped = g.gru_step_dense_sharded(&vars.vars, h, px, bounds.map(Into::into));
        let w1 = g.param(det_matrix(4, 5, 72));
        let b1 = g.param(det_matrix(1, 5, 73));
        let lin = g.matmul_sharded(stepped, w1, bounds.map(Into::into));
        let biased = g.add_bias_sharded(lin, b1, bounds.map(Into::into));
        let act = g.selu_sharded(biased, bounds.map(Into::into));
        let w2 = g.param(det_matrix(5, 1, 74));
        let out = g.matmul_sharded(act, w2, bounds.map(Into::into));
        let sq = g.square(out);
        let loss = g.mean(sq);
        g.backward(loss);
        let grads = vars
            .params
            .iter()
            .chain(&[h, acc, w1, b1, w2])
            .map(|&v| g.grad(v).unwrap().clone())
            .collect();
        (g.value(out).clone(), g.value(loss).get(0, 0), grads)
    }

    #[test]
    fn dense_sharded_forward_is_bitwise_identical_to_unsharded() {
        let mut ga = Graph::new();
        let (out_plain, _, grads_plain) = dense_sharded_case(&mut ga, None);
        let mut gb = Graph::new();
        let (out_sharded, _, grads_sharded) = dense_sharded_case(&mut gb, Some(&DENSE_BOUNDS));
        assert!(
            out_plain.approx_eq(&out_sharded, 0.0),
            "dense sharding must not change forward bits"
        );
        // Gradients agree numerically; weight grads may differ in the last
        // bit (per-shard partial merge is the sharded canonical grouping).
        for (i, (a, b)) in grads_plain.iter().zip(&grads_sharded).enumerate() {
            assert!(a.approx_eq(b, 1e-4), "grad {i} diverged numerically");
        }
    }

    #[test]
    fn dense_sharded_backward_is_bitwise_invariant_across_worker_counts() {
        let mut base = Graph::new();
        let (out_seq, loss_seq, grads_seq) = dense_sharded_case(&mut base, Some(&DENSE_BOUNDS));
        for workers in [1, 2, 3, 8] {
            let mut g = Graph::new();
            g.set_worker_pool(Some(Arc::new(WorkerPool::new(workers))));
            // Force even toy-sized dense ops through the pool.
            g.set_parallel_threshold(0);
            let (out_par, loss_par, grads_par) = dense_sharded_case(&mut g, Some(&DENSE_BOUNDS));
            assert!(
                out_seq.approx_eq(&out_par, 0.0),
                "forward diverged at {workers} workers"
            );
            assert_eq!(
                loss_seq.to_bits(),
                loss_par.to_bits(),
                "loss diverged at {workers} workers"
            );
            for (i, (a, b)) in grads_seq.iter().zip(&grads_par).enumerate() {
                assert!(
                    a.approx_eq(b, 0.0),
                    "grad {i} diverged at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn dense_sharded_ops_reset_reuse_is_bit_identical() {
        let mut fresh = Graph::new();
        let (_, loss_fresh, grads_fresh) = dense_sharded_case(&mut fresh, Some(&DENSE_BOUNDS));
        let mut reused = Graph::new();
        let _ = dense_sharded_case(&mut reused, Some(&DENSE_BOUNDS));
        reused.reset();
        let (_, loss_reused, grads_reused) = dense_sharded_case(&mut reused, Some(&DENSE_BOUNDS));
        assert_eq!(loss_fresh.to_bits(), loss_reused.to_bits());
        for (a, b) in grads_fresh.iter().zip(&grads_reused) {
            assert!(a.approx_eq(b, 0.0), "reused dense-sharded tape drifted");
        }
    }

    #[test]
    fn single_block_dense_bounds_record_no_shards() {
        // A [0, n] partition (one shard) must stay on the legacy bitwise
        // path — exactly what 1-sample megabatch plans rely on.
        let single = [0usize, 7];
        let mut ga = Graph::new();
        let (_, loss_a, grads_a) = dense_sharded_case(&mut ga, Some(&single));
        let mut gb = Graph::new();
        let (_, loss_b, grads_b) = dense_sharded_case(&mut gb, None);
        assert_eq!(loss_a.to_bits(), loss_b.to_bits());
        for (a, b) in grads_a.iter().zip(&grads_b) {
            assert!(a.approx_eq(b, 0.0), "1-block dense split must be a no-op");
        }
    }

    #[test]
    fn dense_gru_step_matches_plain_gru_step_numerically() {
        let run = |bounds: Option<&[usize]>| -> (Matrix, Vec<Matrix>) {
            let mut g = Graph::new();
            let vars = toy_gru(&mut g, 4, 3, 33);
            let h = g.param(det_matrix(7, 4, 80));
            let x = g.param(det_matrix(7, 3, 81));
            let px = g.matmul_sharded(x, vars.vars.w_x, bounds.map(Into::into));
            let out = g.gru_step_dense_sharded(&vars.vars, h, px, bounds.map(Into::into));
            let sq = g.square(out);
            let loss = g.mean(sq);
            g.backward(loss);
            let grads = vars
                .params
                .iter()
                .chain(&[h, x])
                .map(|&v| g.grad(v).unwrap().clone())
                .collect();
            (g.value(out).clone(), grads)
        };
        let (out_plain, grads_plain) = run(None);
        let (out_dense, grads_dense) = run(Some(&DENSE_BOUNDS));
        assert!(
            out_plain.approx_eq(&out_dense, 0.0),
            "dense GRU forward must be bitwise identical"
        );
        for (i, (a, b)) in grads_plain.iter().zip(&grads_dense).enumerate() {
            assert!(a.approx_eq(b, 1e-4), "dense GRU grad {i} diverged");
        }
    }

    #[test]
    fn inference_steps_consume_their_input_state_in_place() {
        let mut g = Graph::new();
        g.set_inference_mode(true);
        let vars = toy_gru(&mut g, 4, 4, 3);
        let h = g.constant(det_matrix(5, 4, 30));
        let x = g.constant(det_matrix(5, 4, 31));
        let h1 = vars.step(&mut g, h, x);
        // The input state's buffer was stolen: h is now empty, h1 owns it.
        assert_eq!(g.value(h).shape(), (0, 0), "h consumed by in-place step");
        assert_eq!(g.value(h1).shape(), (5, 4));
        let acc = g.constant(Matrix::zeros(3, 4));
        let out = g.segment_acc_rows(acc, h1, &[0, 2], &[1, 2]);
        assert_eq!(g.value(acc).shape(), (0, 0), "acc consumed in place");
        assert_eq!(g.value(out).shape(), (3, 4));
        // Training mode copies: inputs stay readable.
        let mut t = Graph::new();
        let vars = toy_gru(&mut t, 4, 4, 3);
        let h = t.constant(det_matrix(5, 4, 30));
        let x = t.constant(det_matrix(5, 4, 31));
        let h1t = vars.step(&mut t, h, x);
        assert_eq!(t.value(h).shape(), (5, 4), "training mode must not steal");
        // And the in-place values are bitwise identical to the copying ones.
        assert!(g.value(h1).approx_eq(t.value(h1t), 0.0));
    }

    #[test]
    #[should_panic(expected = "inference mode")]
    fn backward_rejects_inference_tapes() {
        let mut g = Graph::new();
        g.set_inference_mode(true);
        let x = g.param(Matrix::ones(1, 1));
        let loss = g.sum(x);
        g.backward(loss);
    }

    #[test]
    fn constant_with_builds_pooled_inputs() {
        let mut g = Graph::new();
        let v = g.constant_with(2, 3, |m| m.set(1, 2, 5.0));
        assert_eq!(g.value(v).get(1, 2), 5.0);
        assert_eq!(g.value(v).get(0, 0), 0.0, "pooled constants start zeroed");
    }

    #[test]
    fn index_copy_counter_tracks_copied_but_not_shared_inputs() {
        use crate::index::SharedIndices;
        use std::sync::Arc;
        let ids = [2usize, 0, 1];
        let shared: Arc<[usize]> = Arc::from(&ids[..]);
        let run = |input_shared: bool| {
            let mut g = Graph::new();
            let x = g.param(det_matrix(3, 4, 77));
            let y = if input_shared {
                g.gather_rows_sharded(x, SharedIndices::full(shared.clone()).into(), None)
            } else {
                g.gather_rows(x, &ids)
            };
            let loss = g.mean(y);
            g.backward(loss);
            (
                g.value(y).clone(),
                g.grad(x).unwrap().clone(),
                g.index_words_copied(),
            )
        };
        let (y_copied, gx_copied, words_copied) = run(false);
        let (y_shared, gx_shared, words_shared) = run(true);
        assert_eq!(
            words_copied,
            ids.len() as u64,
            "copied input must count each index word"
        );
        assert_eq!(
            words_shared, 0,
            "shared input is a refcount bump, not a copy"
        );
        assert!(
            y_copied.approx_eq(&y_shared, 0.0),
            "values must be bitwise equal"
        );
        assert!(
            gx_copied.approx_eq(&gx_shared, 0.0),
            "grads must be bitwise equal"
        );
    }

    #[test]
    fn index_copy_counter_is_cumulative_across_reset() {
        let ids = [1usize, 0];
        let mut g = Graph::new();
        let x = g.param(det_matrix(2, 2, 5));
        g.gather_rows(x, &ids);
        let after_first = g.index_words_copied();
        assert_eq!(after_first, ids.len() as u64);
        g.reset();
        let x = g.param(det_matrix(2, 2, 5));
        g.gather_rows(x, &ids);
        assert_eq!(
            g.index_words_copied(),
            2 * after_first,
            "reset recycles buffers but never clears the traffic counter"
        );
    }
}
