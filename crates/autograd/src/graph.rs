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
//!   freed. Zero-capacity vectors (the placeholders consumed states leave
//!   behind, see below) are never parked.
//! - **Adoption.** [`Graph::reset`] harvests every node's value, gradient and
//!   fused-op scratch. Buffers it meets for the first time — matrices a
//!   caller allocated and handed to [`Graph::param`] / [`Graph::constant`] —
//!   are parked under the same bound, so a caller that keeps feeding foreign
//!   buffers cannot grow the pool. Adoption never lowers a class's live
//!   count, so a foreign buffer cannot hide a pooled one that is still out.
//!
//! Once a tape has seen every shape of its workload it allocates nothing per
//! cycle beyond small bookkeeping (the boxed saved-state record of a fused
//! GRU node): [`Graph::pooled_buffers`] and
//! [`Graph::pooled_bytes`] stop moving and [`Graph::pool_misses`] stays
//! flat, in inference and in training. Reuse is numerically inert: pooled
//! buffers are fully overwritten (or zero-filled) before use, so a reused
//! tape produces bit-identical values and gradients to a fresh one, whatever
//! shapes it ran before.
//!
//! ## What the tape keeps
//!
//! A training tape keeps a buffer only while an adjoint will read it. Each
//! node carries two bits: `pooled`, its value was taken from this tape's
//! pool in this cycle, and `read`, a recorded op's adjoint reads its value
//! or its shape (set when that op is recorded, from `Op::adjoint_reads`,
//! and never in inference mode, which records nothing for an adjoint). A
//! node with the first bit and not the second is *spendable*,
//! and the ops that advance a state consume it:
//!
//! - [`Graph::gru_step_rows`] and [`Graph::gru_step_dense`] advance a
//!   spendable `h` in `h`'s own buffer, and the dense form returns a
//!   spendable `px` to the pool once it has read it;
//! - [`Graph::segment_acc_rows`] scatter-adds into a spendable `acc`.
//!
//! A table [`Graph::gru_step_rows`] reads through entity ids is never
//! consumed, spendable or not: the step of every sweep position reads it.
//! A consumed `Var` reads as an empty matrix afterwards. Nothing an adjoint
//! needs is lost: the GRU step's adjoint takes the state's shape from its
//! incoming gradient and the table's from the op, the scatter records its
//! input's row count, and the step saves its own activations (`h`'s active
//! rows, both gates, the candidate; `r ⊙ h` it forms again). In a RouteNet
//! sweep this spends the path state at every position, in training as in
//! inference, while the entity states stay, because the projection's
//! `MatMul` adjoint reads them.
//!
//! Tape-owned leaves are the pooled ones — [`Graph::param_copy`],
//! [`Graph::constant_copy`], [`Graph::constant_with`] — and every op's
//! output is pooled too. A matrix the caller hands to [`Graph::param`] or
//! [`Graph::constant`] stays readable: it is never consumed, and a foreign
//! buffer never reaches the pool mid-cycle, where it would lower a class's
//! live count. Either way the output bits are the same; only the copy is
//! saved.
//!
//! ## Fused ops
//!
//! RouteNet's hot loop is one GRU step per sequence position per
//! message-passing iteration. Expressed in primitive ops (column
//! concatenations, three gate products, element-wise gates and blend, a
//! masked segment sum) that was ~20 tape nodes per position; the
//! row-compacted [`Graph::gru_step_rows`], which reads its projected input
//! through the active rows' entity ids, and [`Graph::segment_acc_rows`]
//! collapse it to 2, shrinking tape length (and backward dispatch +
//! allocation) by roughly an order of magnitude. The tape records only
//! these: the primitive chain is gone, and what it computed on the unit
//! tests' inputs is recorded in `tests/fixtures/reference_values.json` at
//! the workspace root, which the tests compare the fused ops against.
//!
//! There is one fused GRU form. It reads its input already projected —
//! `px = x·W_x`, see [`GruVars`] — because in message passing many rows
//! share one `x` (every path crossing a link reads that link's state): the
//! caller projects each distinct input once ([`Graph::matmul`] over the
//! entity rows), the step reads the projection's rows through the entity
//! ids, and its own products run over the state half alone. The every-row
//! entity updates go through the same node with an identity row list
//! ([`Graph::gru_step_dense`]). The forward is one pass over tiles of the
//! active rows ([`rn_tensor::kernels::gru_step`]); the adjoint's body sits
//! behind `#[target_feature]` entry points, one per
//! [`rn_tensor::simd::Tier`], so its blend and split loops compile at the
//! widest vector width the CPU has, and runs that tier's kernels. Every
//! tier gives the same bits.
//!
//! Every op runs on the calling thread. Parallelism lives one level up:
//! independent units (samples, compositions, requests) each get a tape of
//! their own — `docs/ARCHITECTURE.md`, "Why there is no shard gang".

use crate::bufpool::BufPool;
use crate::index::{IndexInput, IndexList, SharedIndices};
use rn_tensor::simd::activations as vact;
use rn_tensor::simd::Tier;
use rn_tensor::{kernels, Matrix};
use std::sync::Arc;
use std::time::Instant;

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
    /// Candidate state (post-tanh), `a x hidden`. `r ⊙ h` is not kept: the
    /// adjoint forms it again from `zr` and `h`, with the forward's multiply.
    c: Matrix,
}

/// Recorded operation: the inputs and any auxiliary data the adjoint needs.
#[derive(Debug)]
pub(crate) enum Op {
    /// Leaf node. `requires_grad = false` marks constants whose gradient is
    /// never materialized (saves memory for targets and masks).
    Leaf {
        requires_grad: bool,
    },
    Sub(Var, Var),
    /// Matrix product `a · b`.
    MatMul {
        a: Var,
        b: Var,
    },
    /// Broadcast-add a `1 x c` bias row to every row of `x`.
    AddBias {
        x: Var,
        bias: Var,
    },
    Selu(Var),
    Square(Var),
    GatherRows {
        x: Var,
        indices: IndexList,
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
    /// advance, every other row of `h` passes through untouched. Active row
    /// `k` reads row `ids[k]` of the projection table `px` (`x·W_x`,
    /// `3·hidden` wide), or row `k` of `px` when `ids` is `None` (the dense
    /// form, whose `px` holds one row per state row).
    GruStep {
        vars: GruVars,
        h: Var,
        px: Var,
        /// `px`'s row count: the adjoint's shape, so `px` itself is not read.
        px_rows: usize,
        rows: IndexList,
        ids: Option<IndexList>,
        /// Saved-for-backward activations; `None` on nodes recorded in
        /// inference mode, which never write them.
        saved: Option<Box<GruSaved>>,
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
        /// `x`'s row count: the adjoint's shape, so `x` itself may be
        /// consumed by a later step.
        x_rows: usize,
        rows: IndexList,
        segments: IndexList,
    },
}

impl Op {
    /// Call `f` on every input whose value — or only its shape — this op's
    /// adjoint reads. No wildcard arm: a new variant states its reads, or
    /// the consume rule could hand a buffer its adjoint still needs to a
    /// later step.
    fn adjoint_reads(&self, mut f: impl FnMut(Var)) {
        match self {
            Op::Leaf { .. }
            | Op::Sub(..)
            | Op::AddBias { .. }
            | Op::MaskRows { .. }
            | Op::SegmentAccRows { .. } => {}
            &Op::MatMul { a, b } => {
                f(a);
                f(b);
            }
            &Op::Selu(x)
            | &Op::Square(x)
            | &Op::Sum(x)
            | &Op::Mean(x)
            | &Op::GatherRows { x, .. } => f(x),
            // The state's shape comes from the incoming gradient and the
            // table's from the op; the saved activations are the op's own.
            Op::GruStep { vars, .. } => {
                f(vars.w_h_zr);
                f(vars.w_h_c);
            }
            Op::PackCols { parts, .. } => parts.iter().copied().for_each(f),
        }
    }
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    /// The value's buffer was taken from the tape's pool in this cycle, so
    /// the tape owns it (see "What the tape keeps" in the module docs).
    pooled: bool,
    /// A recorded adjoint reads this node's value or shape.
    read: bool,
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
    /// Inference mode: record nothing for an adjoint. Fused GRU ops keep no
    /// activations, and no operand is marked as read, so the consume rule
    /// (module docs) hands every pooled state to the step that advances it. Forward values are bitwise
    /// unchanged; `backward` is unavailable.
    inference_mode: bool,
    /// Cumulative count of index words the tape has copied into pooled
    /// buffers (never cleared by `reset`). Stays flat across steps recorded
    /// against shared views only.
    idx_copied: u64,
    /// Grow-only identity prefix `0..cap`, shared with dense fused steps so
    /// they do not materialize a per-step identity row list.
    identity: Option<Arc<[usize]>>,
    /// Under `RN_TRACE`, when the recording method in progress began: the
    /// node it records is timed from here into the forward op-kind
    /// recorder ([`crate::trace`]). `None` while tracing is off.
    fwd_start: Option<Instant>,
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
    fn into_buffers(self) -> [Matrix; 3] {
        [self.h, self.zr, self.c]
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

/// Read-only inputs of one fused GRU step adjoint.
struct GruBwdCtx<'a> {
    rows: &'a [usize],
    saved: &'a GruSaved,
    /// `W_h,zrᵀ`, `2·hidden x hidden`.
    w_h_zr_t: &'a [f32],
    /// `W_h,cᵀ`, `hidden x hidden`.
    w_h_c_t: &'a [f32],
    hidden: usize,
}

/// Scratch for the GRU adjoint: intermediates plus the step's
/// parameter-gradient **partials**, accumulated from zero and then added
/// into the gradient slots — the grouping every recorded gradient bit has.
struct GruBwdScratch {
    /// `[gz | gr]`, pre-activation gate gradients, `a x 2·hidden`.
    gzr: Matrix,
    /// Pre-activation candidate gradient, `a x hidden`.
    gc: Matrix,
    /// `r ⊙ h`, formed again from the saved gates and state, `a x hidden`.
    rh: Matrix,
    /// What reaches the active state rows through the three products.
    gh: Matrix,
    pw_h_zr: Matrix,
    pw_h_c: Matrix,
    pb: Matrix,
}

impl GruBwdScratch {
    fn take(pool: &mut BufPool<f32>, a: usize, hidden: usize) -> Self {
        Self {
            gzr: pool_matrix_scratch(pool, a, 2 * hidden),
            gc: pool_matrix_scratch(pool, a, hidden),
            rh: pool_matrix_scratch(pool, a, hidden),
            gh: pool_matrix(pool, a, hidden),
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
            self.rh,
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

/// `acc[0..cols] += column sums of the rows of src` (slice form of
/// [`add_col_sums`]).
fn add_col_sums_slice(acc: &mut [f32], src: &[f32], cols: usize) {
    for row in src.chunks_exact(cols) {
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += v;
        }
    }
}

/// The adjoint of a GRU step at `tier`, gated like the kernels: the body
/// below, compiled for that tier's width, running that tier's kernels. `g`
/// is the incoming gradient (`n x hidden`) and leaves as the state's.
fn gru_backward(
    tier: Tier,
    ctx: &GruBwdCtx<'_>,
    g: &mut [f32],
    gpx: &mut [f32],
    sc: &mut GruBwdScratch,
) {
    match tier.checked() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `checked` asserted that this CPU runs AVX-512.
        Tier::Avx512 => unsafe { gru_backward_avx512(ctx, g, gpx, sc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `checked` asserted that this CPU runs AVX2.
        Tier::Avx2 => unsafe { gru_backward_avx2(ctx, g, gpx, sc) },
        _ => gru_backward_body(Tier::Baseline, ctx, g, gpx, sc),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gru_backward_avx512(
    ctx: &GruBwdCtx<'_>,
    g: &mut [f32],
    gpx: &mut [f32],
    sc: &mut GruBwdScratch,
) {
    gru_backward_body(Tier::Avx512, ctx, g, gpx, sc);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn gru_backward_avx2(ctx: &GruBwdCtx<'_>, g: &mut [f32], gpx: &mut [f32], sc: &mut GruBwdScratch) {
    gru_backward_body(Tier::Avx2, ctx, g, gpx, sc);
}

/// The adjoint. Row-disjoint gradients — the `n` dense state rows, updated
/// in `g` itself, and `gpx`, the `a` projected-input rows — are functions
/// of their own row alone; parameter gradients land in the zeroed partials
/// of `sc`.
#[inline(always)]
fn gru_backward_body(
    tier: Tier,
    ctx: &GruBwdCtx<'_>,
    g: &mut [f32],
    gpx: &mut [f32],
    sc: &mut GruBwdScratch,
) {
    let hidden = ctx.hidden;
    let a = ctx.rows.len();
    let s = ctx.saved;
    let (h, zr, c) = (s.h.as_slice(), s.zr.as_slice(), s.c.as_slice());

    // Through the blend: gz = g ⊙ (c − h), gc = g ⊙ z; and r ⊙ h again, the
    // forward's multiply on the forward's operands.
    for (k, &row) in ctx.rows.iter().enumerate() {
        let g = &g[row * hidden..(row + 1) * hidden];
        let z = &zr[2 * k * hidden..(2 * k + 1) * hidden];
        let r = &zr[(2 * k + 1) * hidden..(2 * k + 2) * hidden];
        let (lo, hi) = (k * hidden, (k + 1) * hidden);
        let gz = &mut sc.gzr.as_mut_slice()[2 * lo..2 * lo + hidden];
        for ((d, &gj), (&cj, &hj)) in gz.iter_mut().zip(g).zip(c[lo..hi].iter().zip(&h[lo..hi])) {
            *d = gj * (cj - hj);
        }
        for ((d, &gj), &zj) in sc.gc.as_mut_slice()[lo..hi].iter_mut().zip(g).zip(z) {
            *d = gj * zj;
        }
        for ((d, &rv), &hv) in sc.rh.as_mut_slice()[lo..hi]
            .iter_mut()
            .zip(r)
            .zip(&h[lo..hi])
        {
            *d = rv * hv;
        }
    }

    // Candidate branch: gc ← gc ⊙ (1 − c²); pW_h,c += (r⊙h)ᵀ·gc; and what
    // reaches r ⊙ h is gc·W_h,cᵀ.
    vact::tanh_deriv_mul_inplace_at(tier, sc.gc.as_mut_slice(), c);
    kernels::matmul_tn_acc_at(
        tier,
        sc.rh.as_slice(),
        sc.gc.as_slice(),
        a,
        hidden,
        hidden,
        sc.pw_h_c.as_mut_slice(),
    );
    kernels::matmul_acc_at(
        tier,
        sc.gc.as_slice(),
        ctx.w_h_c_t,
        a,
        hidden,
        hidden,
        sc.gh.as_mut_slice(),
    );
    // Split it: gr = g_rh ⊙ h, and g_rh ⊙ r is the state's share.
    for k in 0..a {
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
    vact::sigmoid_deriv_mul_inplace_at(tier, sc.gzr.as_mut_slice(), zr);
    kernels::matmul_tn_acc_at(
        tier,
        h,
        sc.gzr.as_slice(),
        a,
        hidden,
        2 * hidden,
        sc.pw_h_zr.as_mut_slice(),
    );
    kernels::matmul_acc_at(
        tier,
        sc.gzr.as_slice(),
        ctx.w_h_zr_t,
        a,
        2 * hidden,
        hidden,
        sc.gh.as_mut_slice(),
    );

    // Pass-through rows keep the incoming gradient, where they already are;
    // an active row becomes g ⊙ (1 − z) plus what came through the products,
    // and [gz | gr | gc] is the gradient of its projected input.
    for (k, &row) in ctx.rows.iter().enumerate() {
        let z = &zr[2 * k * hidden..(2 * k + 1) * hidden];
        let h_off = row * hidden;
        let (lo, hi) = (k * hidden, (k + 1) * hidden);
        for ((gj, &zj), &through) in g[h_off..h_off + hidden]
            .iter_mut()
            .zip(z)
            .zip(&sc.gh.as_slice()[lo..hi])
        {
            *gj = *gj * (1.0 - zj) + through;
        }
        let gpx = &mut gpx[3 * lo..3 * hi];
        gpx[..2 * hidden].copy_from_slice(&sc.gzr.as_slice()[2 * lo..2 * hi]);
        gpx[2 * hidden..].copy_from_slice(&sc.gc.as_slice()[lo..hi]);
    }
    add_col_sums_slice(sc.pb.as_mut_slice(), gpx, 3 * hidden);
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

    /// The recorded ops, in tape order.
    #[cfg(test)]
    pub(crate) fn ops(&self) -> impl Iterator<Item = &Op> {
        self.nodes.iter().map(|node| &node.op)
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

    /// Toggle inference mode (see the struct docs): the tape records nothing
    /// for an adjoint — fused GRU steps write no activations for it, and
    /// no operand counts as read, so every pooled state is consumed by the
    /// step that advances it.
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
                Op::GatherRows { indices, .. } => recycle_index(idx_pool, indices),
                Op::SegmentAccRows { rows, segments, .. } => {
                    recycle_index(idx_pool, rows);
                    recycle_index(idx_pool, segments);
                }
                Op::GruStep {
                    rows, ids, saved, ..
                } => {
                    recycle_index(idx_pool, rows);
                    if let Some(ids) = ids {
                        recycle_index(idx_pool, ids);
                    }
                    if let Some(saved) = saved {
                        for m in saved.into_buffers() {
                            pool_harvest(pool, m);
                        }
                    }
                }
                _ => {}
            }
        }
        pool.end_cycle();
        idx_pool.end_cycle();
    }

    /// Record a node whose value was taken from the pool in this cycle.
    fn push(&mut self, value: Matrix, op: Op) -> Var {
        self.push_node(value, op, true)
    }

    /// Record a node whose value the caller allocated ([`Graph::param`],
    /// [`Graph::constant`]). Such a value is never consumed.
    fn push_foreign(&mut self, value: Matrix, op: Op) -> Var {
        self.push_node(value, op, false)
    }

    fn push_node(&mut self, value: Matrix, op: Op, pooled: bool) -> Var {
        if let Some(start) = self.fwd_start.take() {
            crate::trace::record_forward(&op, start);
        }
        if !self.inference_mode {
            let nodes = &mut self.nodes;
            op.adjoint_reads(|v| nodes[v.0].read = true);
        }
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            pooled,
            read: false,
        });
        Var(self.nodes.len() - 1)
    }

    /// Whether a state-advancing op may take `v`'s buffer: the tape owns it
    /// and no recorded adjoint reads it.
    fn spendable(&self, v: Var) -> bool {
        let node = &self.nodes[v.0];
        node.pooled && !node.read
    }

    /// Take `v`'s value out of its node, leaving an empty matrix: `v` is
    /// consumed and may not be read again.
    fn take_value(&mut self, v: Var) -> Matrix {
        std::mem::replace(&mut self.nodes[v.0].value, Matrix::zeros(0, 0))
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Register a differentiable leaf (a model parameter or input). The
    /// matrix stays the caller's to read: no op consumes it.
    pub fn param(&mut self, value: Matrix) -> Var {
        self.fwd_start = crate::trace::forward_start();
        self.push_foreign(
            value,
            Op::Leaf {
                requires_grad: true,
            },
        )
    }

    /// Register a non-differentiable leaf (targets, masks, constants). The
    /// matrix stays the caller's to read: no op consumes it.
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.fwd_start = crate::trace::forward_start();
        self.push_foreign(
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
        self.fwd_start = crate::trace::forward_start();
        let mut m = pool_matrix(&mut self.pool, rows, cols);
        fill(&mut m);
        self.push(
            m,
            Op::Leaf {
                requires_grad: false,
            },
        )
    }

    /// Register a differentiable leaf holding a copy of `src`, built in a
    /// pooled buffer — how layers bind their parameters each step without
    /// allocating (bits match `param(src.clone())` exactly).
    pub fn param_copy(&mut self, src: &Matrix) -> Var {
        self.fwd_start = crate::trace::forward_start();
        let m = pooled_copy(&mut self.pool, src);
        self.push(
            m,
            Op::Leaf {
                requires_grad: true,
            },
        )
    }

    /// Register a non-differentiable leaf holding a copy of `src`, built in
    /// a pooled buffer.
    ///
    /// This is how a forward pass binds **float** state from a borrowed plan
    /// (a cached megabatch composition shared behind an `Arc`): the tape
    /// owns the copy, so the fused step ops may advance it in place,
    /// consuming the leaf (module docs, "What the tape keeps"). Note the contrast with
    /// the tape's *index* lists, which are recorded as refcounted
    /// [`SharedIndices`] views precisely because no op ever mutates them.
    pub fn constant_copy(&mut self, src: &Matrix) -> Var {
        self.fwd_start = crate::trace::forward_start();
        let m = pooled_copy(&mut self.pool, src);
        self.push(
            m,
            Op::Leaf {
                requires_grad: false,
            },
        )
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

    /// Element-wise difference. Shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.fwd_start = crate::trace::forward_start();
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let v = pooled_zip(&mut self.pool, av, bv, |x, y| x - y);
        self.push(v, Op::Sub(a, b))
    }

    /// Matrix product `a · b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.fwd_start = crate::trace::forward_start();
        let (m, k) = self.value(a).shape();
        let n = self.value(b).cols();
        assert_eq!(
            self.value(b).rows(),
            k,
            "matmul: inner dimensions differ ({m}x{k} * {}x{n})",
            self.value(b).rows()
        );
        let mut pool = std::mem::take(&mut self.pool);
        let mut out = pool_matrix_scratch(&mut pool, m, n);
        self.value(a).matmul_into(self.value(b), &mut out);
        self.pool = pool;
        self.push(out, Op::MatMul { a, b })
    }

    /// Broadcast-add a `1 x c` bias row vector to every row of `x`.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        self.fwd_start = crate::trace::forward_start();
        let cols = self.value(x).cols();
        assert_eq!(
            self.value(bias).shape(),
            (1, cols),
            "add_bias: bias must be 1 x cols"
        );
        let mut out = pooled_copy(&mut self.pool, &self.nodes[x.0].value);
        out.add_row_broadcast_assign(&self.nodes[bias.0].value);
        self.push(out, Op::AddBias { x, bias })
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Scaled exponential linear unit (RouteNet's readout activation).
    pub fn selu(&mut self, x: Var) -> Var {
        self.fwd_start = crate::trace::forward_start();
        let (rows, cols) = self.value(x).shape();
        let mut pool = std::mem::take(&mut self.pool);
        let mut out = pool_matrix_scratch(&mut pool, rows, cols);
        vact::selu_map(self.value(x).as_slice(), out.as_mut_slice());
        self.pool = pool;
        self.push(out, Op::Selu(x))
    }

    /// Element-wise square.
    pub fn square(&mut self, x: Var) -> Var {
        self.fwd_start = crate::trace::forward_start();
        let v = pooled_map(&mut self.pool, &self.nodes[x.0].value, |t| t * t);
        self.push(v, Op::Square(x))
    }

    // ------------------------------------------------------------------
    // Structure
    // ------------------------------------------------------------------

    /// Gather rows: `out[i] = x[ids[i]]`. Indices may repeat; the adjoint
    /// scatter-adds into the repeated rows. Output comes from the buffer
    /// pool; a [`SharedIndices`] view is recorded by refcount, a plain slice
    /// is copied (see [`IndexInput`]).
    pub fn gather_rows<'a>(&mut self, x: Var, ids: impl Into<IndexInput<'a>>) -> Var {
        self.fwd_start = crate::trace::forward_start();
        let ids = ids.into();
        let xv = &self.nodes[x.0].value;
        let mut out = pool_matrix_scratch(&mut self.pool, ids.as_slice().len(), xv.cols());
        xv.gather_rows_into(ids.as_slice(), &mut out);
        let indices = intern_indices(&mut self.idx_pool, &mut self.idx_copied, &ids);
        self.push(out, Op::GatherRows { x, indices })
    }

    /// [`Graph::gather_rows`] under the name and arity the out-of-workspace
    /// `benchmark/` package still calls (`benchmark/src/workloads/train.rs`;
    /// a PR may not edit that package together with library code). The third
    /// argument was the shard layout and can only be `None`. Goes with the
    /// next `benchmark` PR.
    #[doc(hidden)]
    pub fn gather_rows_sharded(
        &mut self,
        x: Var,
        ids: IndexInput<'_>,
        _: Option<std::convert::Infallible>,
    ) -> Var {
        self.gather_rows(x, ids)
    }

    /// Multiply each row of `x` by the matching entry of the constant `n x 1`
    /// mask matrix (used to zero padded sequence positions).
    pub fn mask_rows(&mut self, x: Var, mask: &Matrix) -> Var {
        self.fwd_start = crate::trace::forward_start();
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
    /// One tape node folds per-position messages into the per-entity
    /// accumulator, and only the active `rows` are visited: an inactive row
    /// is not masked to zero and still touched. With RouteNet's path-length
    /// distribution most positions are inactive in late steps, so this trims
    /// both the forward scatter and the backward gather to the live set.
    /// Every row must be one of `x`'s and every segment one of `acc`'s.
    ///
    /// `acc` is consumed like [`Graph::gru_step_rows`]' state: when the tape
    /// owns its buffer and no recorded adjoint reads it, the op takes the
    /// buffer and scatter-adds in place, in training as in inference, and
    /// the `Var` passed as `acc` reads as empty afterwards. `x` is only read.
    pub fn segment_acc_rows<'a>(
        &mut self,
        acc: Var,
        x: Var,
        rows: impl Into<IndexInput<'a>>,
        segments: impl Into<IndexInput<'a>>,
    ) -> Var {
        self.fwd_start = crate::trace::forward_start();
        let mut pool = std::mem::take(&mut self.pool);
        let (num_segments, cols) = self.value(acc).shape();
        let (rows_in, segments_in) = (rows.into(), segments.into());
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
        let x_rows = self.value(x).rows();
        for (&row, &s) in rows.iter().zip(segments) {
            assert!(
                row < x_rows,
                "segment_acc_rows: row {row} out of range {x_rows}"
            );
            assert!(
                s < num_segments,
                "segment_acc_rows: segment id {s} out of range"
            );
        }

        let mut out = if self.spendable(acc) {
            self.take_value(acc)
        } else {
            pooled_copy(&mut pool, self.value(acc))
        };
        {
            let x_slice = self.value(x).as_slice();
            let out_slice = out.as_mut_slice();
            for (&row, &seg) in rows.iter().zip(segments) {
                let src = &x_slice[row * cols..(row + 1) * cols];
                let dst = &mut out_slice[seg * cols..(seg + 1) * cols];
                for (d, &v) in dst.iter_mut().zip(src) {
                    *d += v;
                }
            }
        }
        self.pool = pool;
        let rows = intern_indices(&mut self.idx_pool, &mut self.idx_copied, &rows_in);
        let segments = intern_indices(&mut self.idx_pool, &mut self.idx_copied, &segments_in);
        self.push(
            out,
            Op::SegmentAccRows {
                acc,
                x,
                x_rows,
                rows,
                segments,
            },
        )
    }

    /// Column-concatenate the rows `row_lo..row_hi` of every part:
    /// `out = [p0[lo..hi] | p1[lo..hi] | …]`. The adjoint adds each column
    /// block of the gradient back into those rows of its part. This is how a
    /// layer regroups its parameters by operand at bind time
    /// ([`Graph::gru_pack`]) while gradients still arrive per parameter.
    pub fn pack_cols(&mut self, parts: &[Var], row_lo: usize, row_hi: usize) -> Var {
        self.fwd_start = crate::trace::forward_start();
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
    /// where active row `rows[k]` reads row `ids[k]` of `table`, the input
    /// projection `x·W_x` (`3·hidden` wide, see [`GruVars`]) the caller
    /// computed once per distinct `x` — an entity's projection, however
    /// many paths cross the entity. Only `rows` advance; every other row of
    /// `h` passes through bitwise untouched, so the products and
    /// transcendentals cover the active set alone — the biggest single win
    /// on RouteNet's tail steps, where only a handful of long paths remain
    /// active. The step runs [`kernels::gru_step`]: one pass over tiles of
    /// the active rows, reading the table rows through the ids, so no
    /// gathered copy of them exists. Every row and id is checked once per
    /// step. The adjoint scatter-adds the projected rows' gradient into the
    /// table's, in list order, as the adjoint of a [`Graph::gather_rows`]
    /// would.
    ///
    /// The step consumes what no adjoint needs, in training as in inference
    /// (the rule is in the module docs). When the tape owns `h`'s buffer and
    /// no recorded adjoint reads `h`, the step takes that buffer and
    /// advances the active rows in place instead of copying all `n` rows —
    /// the path state of a sweep, whose other reader
    /// ([`Graph::segment_acc_rows`]) records the shape it needs. A state an
    /// adjoint reads, such as an entity state the projection's `MatMul`
    /// keeps, is copied and stays intact. The table is never consumed: the
    /// steps of every position read it. A consumed `Var` reads as empty
    /// afterwards. Output bits are identical either way.
    ///
    /// In training the node keeps `h`'s active rows, both gates and the
    /// candidate for its adjoint; in inference mode it keeps nothing.
    pub fn gru_step_rows<'a>(
        &mut self,
        vars: &GruVars,
        h: Var,
        table: Var,
        rows: impl Into<IndexInput<'a>>,
        ids: impl Into<IndexInput<'a>>,
    ) -> Var {
        self.fwd_start = crate::trace::forward_start();
        self.gru_step(vars, h, table, rows.into(), Some(ids.into()))
    }

    /// [`Graph::gru_step_rows`] over **every** row — the link / node / queue
    /// entity updates; `px` holds one projected row per row of `h`, and
    /// active row `k` reads row `k`. The rows recorded are a shared
    /// identity prefix, so the one fused step serves the dense use as it
    /// serves the path sweep. `px` has no other reader: it is returned to
    /// the pool once read, under the consume rule.
    pub fn gru_step_dense(&mut self, vars: &GruVars, h: Var, px: Var) -> Var {
        self.fwd_start = crate::trace::forward_start();
        // Record the shared identity prefix by refcount instead of
        // materializing (and then copying) a 0..n row list.
        let n = self.value(h).rows();
        assert_eq!(
            self.value(px).rows(),
            n,
            "gru_step_dense: px must hold one projected row per state row"
        );
        let rows = self.identity_rows(n);
        self.gru_step(vars, h, px, rows.into(), None)
    }

    /// The step both forms record; `ids` is `None` for the dense form.
    fn gru_step(
        &mut self,
        vars: &GruVars,
        h: Var,
        px: Var,
        rows_in: IndexInput<'_>,
        ids_in: Option<IndexInput<'_>>,
    ) -> Var {
        let mut pool = std::mem::take(&mut self.pool);
        let hidden = self.value(h).cols();
        let (px_rows, px_cols) = self.value(px).shape();
        let rows = rows_in.as_slice();
        let ids = ids_in.as_ref().map_or(rows, IndexInput::as_slice);
        let a = rows.len();
        assert_eq!(
            px_cols,
            3 * hidden,
            "gru_step_rows: px must be 3·hidden wide"
        );
        assert_eq!(ids.len(), a, "gru_step_rows: one table row per active row");
        assert_eq!(
            self.value(vars.w_h_zr).shape(),
            (hidden, 2 * hidden),
            "gru_step_rows: W_h,zr shape"
        );

        // Advance `h` in its own buffer when it is spent; otherwise in a
        // copy.
        let mut out = if self.spendable(h) {
            self.take_value(h)
        } else {
            pooled_copy(&mut pool, self.value(h))
        };
        let mut saved = (!self.inference_mode).then(|| GruSaved {
            h: pool_matrix_scratch(&mut pool, a, hidden),
            zr: pool_matrix_scratch(&mut pool, a, 2 * hidden),
            c: pool_matrix_scratch(&mut pool, a, hidden),
        });
        let mut scratch = pool_matrix_scratch(&mut pool, 1, kernels::gru_scratch_len(hidden));
        kernels::gru_step(
            &kernels::GruOperands {
                hidden,
                w_h_zr: self.value(vars.w_h_zr).as_slice(),
                w_h_c: self.value(vars.w_h_c).as_slice(),
                b: self.value(vars.b).as_slice(),
                table: self.value(px).as_slice(),
                rows,
                ids,
            },
            out.as_mut_slice(),
            saved.as_mut().map(|s| kernels::GruActivations {
                h: s.h.as_mut_slice(),
                zr: s.zr.as_mut_slice(),
                c: s.c.as_mut_slice(),
            }),
            scratch.as_mut_slice(),
        );
        pool_recycle(&mut pool, scratch);
        if ids_in.is_none() && self.spendable(px) {
            let spent = self.take_value(px);
            pool_recycle(&mut pool, spent);
        }
        self.pool = pool;
        let rows = intern_indices(&mut self.idx_pool, &mut self.idx_copied, &rows_in);
        let ids = ids_in.map(|ids| intern_indices(&mut self.idx_pool, &mut self.idx_copied, &ids));
        self.push(
            out,
            Op::GruStep {
                vars: *vars,
                h,
                px,
                px_rows,
                rows,
                ids,
                saved: saved.map(Box::new),
            },
        )
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements, as a `1 x 1` matrix.
    pub fn sum(&mut self, x: Var) -> Var {
        self.fwd_start = crate::trace::forward_start();
        let total = self.value(x).sum();
        let v = pooled_filled(&mut self.pool, 1, 1, total);
        self.push(v, Op::Sum(x))
    }

    /// Mean of all elements, as a `1 x 1` matrix.
    pub fn mean(&mut self, x: Var) -> Var {
        self.fwd_start = crate::trace::forward_start();
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
            let Some(mut g) = grads[id].take() else {
                continue;
            };
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
                &Op::Sub(a, b) => {
                    accumulate_ref(&mut grads, &mut pool, a, &g);
                    let gb = pooled_map(&mut pool, &g, |v| -v);
                    accumulate_pooled(&mut grads, &mut pool, b, gb);
                }
                &Op::MatMul { a, b } => {
                    let bt = transposed(&mut transposes, &mut pool, b, &self.nodes);
                    let mut ga = pool_matrix_scratch(&mut pool, g.rows(), self.value(b).rows());
                    g.matmul_into(&transposes[bt].1, &mut ga);
                    let mut gb = pool_matrix_scratch(&mut pool, self.value(a).cols(), g.cols());
                    self.value(a).matmul_tn_into(&g, &mut gb);
                    accumulate_pooled(&mut grads, &mut pool, a, ga);
                    accumulate_pooled(&mut grads, &mut pool, b, gb);
                }
                &Op::AddBias { x, bias } => {
                    let mut gb = pool_matrix(&mut pool, 1, g.cols());
                    add_col_sums(&mut gb, &g);
                    accumulate_pooled(&mut grads, &mut pool, bias, gb);
                    accumulate_ref(&mut grads, &mut pool, x, &g);
                }
                &Op::Selu(x) => {
                    let (rows, cols) = g.shape();
                    let mut gx = pool_matrix_scratch(&mut pool, rows, cols);
                    vact::selu_deriv_mul(g.as_slice(), self.value(x).as_slice(), gx.as_mut_slice());
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                &Op::Square(x) => {
                    let gx = pooled_zip(&mut pool, &g, self.value(x), |gi, xi| gi * 2.0 * xi);
                    accumulate_pooled(&mut grads, &mut pool, x, gx);
                }
                Op::GatherRows { x, indices } => {
                    // Adjoint of gather = scatter-add back to the source
                    // rows, in list order within every target row.
                    let (x_rows, cols) = self.value(*x).shape();
                    let mut gx = pool_matrix(&mut pool, x_rows, cols);
                    g.segment_sum_into(indices, &mut gx);
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
                    x_rows,
                    rows,
                    segments,
                } => {
                    // out = acc + scatter(x[rows]): g_x[rows[k]] +=
                    // g[segments[k]], and g itself is acc's gradient.
                    let cols = g.cols();
                    let mut gx = pool_matrix(&mut pool, *x_rows, cols);
                    let (g_slice, gx_slice) = (g.as_slice(), gx.as_mut_slice());
                    for (&row, &seg) in rows.iter().zip(segments.iter()) {
                        let dst = &mut gx_slice[row * cols..(row + 1) * cols];
                        for (d, &v) in dst.iter_mut().zip(&g_slice[seg * cols..(seg + 1) * cols]) {
                            *d += v;
                        }
                    }
                    accumulate_pooled(&mut grads, &mut pool, *x, gx);
                    accumulate_pooled(&mut grads, &mut pool, *acc, g);
                    continue;
                }
                Op::GruStep {
                    vars,
                    h,
                    px,
                    px_rows,
                    rows,
                    ids,
                    saved,
                } => {
                    // Row-disjoint gradients are written in place: the
                    // state's into the incoming gradient, which then moves
                    // on to `h`, the projected rows' into fresh scratch.
                    // The step's parameter gradients are formed as partials
                    // in scratch and added into the slots below.
                    let (vars, h, px) = (*vars, *h, *px);
                    let s: &GruSaved = saved
                        .as_deref()
                        .expect("backward: node was recorded in inference mode");
                    let hidden = g.cols();
                    let a = rows.len();
                    let zr_t = transposed(&mut transposes, &mut pool, vars.w_h_zr, &self.nodes);
                    let c_t = transposed(&mut transposes, &mut pool, vars.w_h_c, &self.nodes);

                    let mut gpx = pool_matrix_scratch(&mut pool, a, 3 * hidden);
                    let mut scratch = GruBwdScratch::take(&mut pool, a, hidden);
                    gru_backward(
                        Tier::detected(),
                        &GruBwdCtx {
                            rows,
                            saved: s,
                            w_h_zr_t: transposes[zr_t].1.as_slice(),
                            w_h_c_t: transposes[c_t].1.as_slice(),
                            hidden,
                        },
                        g.as_mut_slice(),
                        gpx.as_mut_slice(),
                        &mut scratch,
                    );
                    for (var, partial) in vars.partial_targets().into_iter().zip(scratch.partials())
                    {
                        let (rows_, cols_) = partial.shape();
                        grad_slot(&mut grads, var, rows_, cols_, &mut pool).add_assign(partial);
                    }
                    scratch.recycle(&mut pool);
                    accumulate_pooled(&mut grads, &mut pool, h, g);
                    match ids {
                        None => accumulate_pooled(&mut grads, &mut pool, px, gpx),
                        Some(ids) => {
                            // The table rows were read through the ids:
                            // scatter-add back to them, in list order
                            // within every table row.
                            let mut gt = pool_matrix(&mut pool, *px_rows, 3 * hidden);
                            gpx.segment_sum_into(ids, &mut gt);
                            pool_recycle(&mut pool, gpx);
                            accumulate_pooled(&mut grads, &mut pool, px, gt);
                        }
                    }
                    continue;
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
            // of staying resident until `reset` (the arms that hand it on
            // whole `continue` past this).
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

/// Accumulate `delta` into the pending gradient of node `v`, recycling its
/// buffer when it is folded into an existing gradient instead of stored.
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
        // loss = mean((x·[3] + [1])^2), x = [1; 2]
        let mut g = Graph::new();
        let x = g.param(Matrix::column_vector(&[1.0, 2.0]));
        let w = g.constant(Matrix::filled(1, 1, 3.0));
        let b = g.constant(Matrix::filled(1, 1, 1.0));
        let xw = g.matmul(x, w);
        let y = g.add_bias(xw, b); // [4; 7]
        let sq = g.square(y); // [16; 49]
        let loss = g.mean(sq); // 32.5
        assert!((g.value(loss).get(0, 0) - 32.5).abs() < 1e-5);
        g.backward(loss);
        // d/dx = 2*(3x+1)*3 / 2 = 3*(3x+1) -> [12; 21]
        let gx = g.grad(x).unwrap();
        assert!(gx.approx_eq(&Matrix::column_vector(&[12.0, 21.0]), 1e-4));
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
    fn grad_flows_through_gather_and_sum() {
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
    fn segment_acc_rows_grad_is_gather() {
        // 4 rows scattered into 2 segments; loss weights segment 0 by 10.
        let mut g = Graph::new();
        let x = g.param(Matrix::ones(4, 1));
        let acc = g.constant(Matrix::zeros(2, 1));
        let s = g.segment_acc_rows(acc, x, &[0, 1, 2, 3], &[0, 1, 0, 1]);
        let w = g.constant(Matrix::row_vector(&[10.0, 1.0]));
        let weighted = g.matmul(w, s);
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
    fn fan_out_accumulates() {
        // y = x · x  =>  dy/dx = 2x: both operands' adjoints reach x
        let mut g = Graph::new();
        let x = g.param(Matrix::filled(1, 1, 3.0));
        let y = g.matmul(x, x);
        let loss = g.sum(y);
        g.backward(loss);
        assert!((g.grad(x).unwrap().get(0, 0) - 6.0).abs() < 1e-6);
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
        /// The fused step over `rows`, active row `k` reading entity
        /// `ids[k]` of `x` through the entities' projection.
        fn step_rows(&self, g: &mut Graph, h: Var, x: Var, rows: &[usize], ids: &[usize]) -> Var {
            let table = g.matmul(x, self.vars.w_x);
            g.gru_step_rows(&self.vars, h, table, rows, ids)
        }

        /// The fused step over every row.
        fn step(&self, g: &mut Graph, h: Var, x: Var) -> Var {
            let px = g.matmul(x, self.vars.w_x);
            g.gru_step_dense(&self.vars, h, px)
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

    /// What the op-by-op chains these tests once ran beside the fused ops
    /// computed, recorded in `tests/fixtures/reference_values.json` at the
    /// workspace root before the primitive ops they were built from were
    /// deleted: each output value and each leaf gradient, row-major.
    #[derive(serde::Deserialize)]
    struct RecordedOp {
        name: String,
        values: Vec<Vec<f64>>,
        grads: Vec<Vec<f64>>,
    }

    #[derive(serde::Deserialize)]
    struct ReferenceValues {
        ops: Vec<RecordedOp>,
    }

    /// The recorded answer of the chain `name`; a missing file or case fails.
    fn recorded_op(name: &str) -> RecordedOp {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/fixtures/reference_values.json"
        );
        let text = std::fs::read_to_string(path).expect("read reference_values.json");
        let values: ReferenceValues = serde_json::from_str(&text).expect("parse the fixture");
        values
            .ops
            .into_iter()
            .find(|op| op.name == name)
            .unwrap_or_else(|| panic!("no recorded chain `{name}`"))
    }

    /// `got` is within `tol` of the recorded `want`, element for element.
    fn assert_near(got: &Matrix, want: &[f64], tol: f32, what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: element count");
        for (i, (&a, &b)) in got.as_slice().iter().zip(want).enumerate() {
            assert!(
                (a - b as f32).abs() <= tol,
                "{what}[{i}]: {a} vs recorded {b}"
            );
        }
    }

    #[test]
    fn segment_acc_rows_matches_recorded_chain() {
        // The recorded chain masked row 2, summed all four rows into their
        // segments and added the accumulator.
        let active_rows = [0usize, 1, 3];
        let active_segments = [1usize, 0, 1];
        let want = recorded_op("segment_acc_rows");

        let mut ga = Graph::new();
        let acc_a = ga.param(det_matrix(2, 3, 1));
        let xa = ga.param(det_matrix(4, 3, 2));
        let out_a = ga.segment_acc_rows(acc_a, xa, &active_rows, &active_segments);
        let wa = ga.constant(det_matrix(2, 3, 3));
        let d_a = ga.sub(out_a, wa);
        let sq_a = ga.square(d_a);
        let la = ga.sum(sq_a);
        ga.backward(la);

        assert_near(ga.value(out_a), &want.values[0], 1e-6, "out");
        assert_near(ga.grad(xa).unwrap(), &want.grads[0], 1e-6, "grad x");
        assert_near(ga.grad(acc_a).unwrap(), &want.grads[1], 1e-6, "grad acc");
    }

    #[test]
    #[should_panic(expected = "segment_acc_rows: row 4 out of range 4")]
    fn segment_acc_rows_rejects_a_row_past_x() {
        let mut g = Graph::new();
        let acc = g.constant(Matrix::zeros(2, 3));
        let x = g.constant(det_matrix(4, 3, 2));
        g.segment_acc_rows(acc, x, &[1, 4], &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "segment_acc_rows: row 4 out of range 4")]
    fn segment_acc_rows_rejects_a_row_past_x_without_columns() {
        // With no columns the scatter reads nothing: only the check can
        // tell that the row is not one of `x`'s.
        let mut g = Graph::new();
        let acc = g.constant(Matrix::zeros(2, 0));
        let x = g.constant(Matrix::zeros(4, 0));
        g.segment_acc_rows(acc, x, &[4], &[0]);
    }

    #[test]
    fn gru_step_forward_matches_recorded_unfused() {
        let mut ga = Graph::new();
        let va = toy_gru(&mut ga, 5, 3, 42);
        let ha = ga.constant(det_matrix(4, 5, 10));
        let xa = ga.constant(det_matrix(4, 3, 11));
        let fused = va.step(&mut ga, ha, xa);
        let want = recorded_op("gru_step_forward");
        assert_near(ga.value(fused), &want.values[0], 1e-6, "fused forward");
    }

    #[test]
    fn gru_step_gradients_match_recorded_unfused() {
        let mut ga = Graph::new();
        let va = toy_gru(&mut ga, 5, 3, 9);
        let ha = ga.param(det_matrix(4, 5, 20));
        let xa = ga.param(det_matrix(4, 3, 21));
        let fused = va.step(&mut ga, ha, xa);
        let sq_a = ga.square(fused);
        let la = ga.mean(sq_a);
        ga.backward(la);
        let want = recorded_op("gru_step_gradients");

        let leaves = va.params.into_iter().chain([ha, xa]);
        assert_eq!(want.grads.len(), 8);
        for (i, (v, w)) in leaves.zip(&want.grads).enumerate() {
            assert_near(
                ga.grad(v).expect("fused grad"),
                w,
                2e-5,
                &format!("grad {i}"),
            );
        }
    }

    #[test]
    fn gru_step_rows_matches_recorded_masked_chain() {
        // Active rows {0, 2, 3} of 4; the compact ops must agree with the
        // recorded masked chain — which gathered a full-width id list (0 for
        // the inactive row), masked it, stepped every row, masked the
        // messages and summed them into segments — on values and on every
        // gradient.
        let rows = [0usize, 2, 3];
        let ids = [1usize, 0, 2]; // entity per active row
        let want = recorded_op("gru_step_rows");

        let mut ga = Graph::new();
        let va = toy_gru(&mut ga, 5, 4, 9);
        let states_a = ga.param(det_matrix(3, 4, 33));
        let ha = ga.param(det_matrix(4, 5, 20));
        let fused = va.step_rows(&mut ga, ha, states_a, &rows, &ids);
        let acc_a = ga.constant(Matrix::zeros(3, 5));
        let out_a = ga.segment_acc_rows(acc_a, fused, &rows, &ids);
        let sq_a = ga.square(out_a);
        let la = ga.mean(sq_a);
        ga.backward(la);

        assert_near(ga.value(fused), &want.values[0], 1e-6, "stepped state");
        assert_near(ga.value(out_a), &want.values[1], 1e-6, "message sums");
        let leaves = va.params.into_iter().chain([ha, states_a]);
        assert_eq!(want.grads.len(), 8);
        for (i, (v, w)) in leaves.zip(&want.grads).enumerate() {
            assert_near(
                ga.grad(v).expect("compact grad"),
                w,
                2e-5,
                &format!("grad {i}"),
            );
        }
    }

    #[test]
    fn gru_bodies_are_bitwise_identical_at_every_tier() {
        // Forward and adjoint at every tier this host runs: stepped state,
        // saved activations, the state gradient, gpx and the three
        // partials. Widths: 2 (the smallest a model takes), 4 and 8 (a
        // candidate row of half a register on AVX2 / AVX-512, two rows per
        // register there), 12 (masked tails), 16 and 32 (whole registers),
        // 48 (two column blocks of the gate product on AVX-512). Row counts
        // sit on both sides of every tile height (16, 8, 4, 2): R − 1,
        // R + 1 and 2R + 3. The active rows skip state rows and read a
        // 5-row table through ids that repeat and never reach its row 4; the
        // dense identity runs beside them.
        let tiers: Vec<Tier> = Tier::supported().collect();
        println!("gru tiers run: {tiers:?}");
        for hidden in [2, 4, 8, 12, 16, 32, 48] {
            for a in [1, 3, 5, 7, 9, 11, 15, 17, 19, 35] {
                let n = 2 * a + 3;
                let subset: Vec<usize> = (0..a).map(|k| 2 * k + 1 + k % 2).collect();
                let repeated: Vec<usize> = (0..a).map(|k| (k * 3) % 4).collect();
                let dense: Vec<usize> = (0..n).collect();
                for (rows, ids, table_rows) in [(&subset, &repeated, 5), (&dense, &dense, n)] {
                    let a = rows.len();
                    let h = det_matrix(n, hidden, 1);
                    let table = det_matrix(table_rows, 3 * hidden, 2);
                    let w_h_zr = det_matrix(hidden, 2 * hidden, 3).scale(0.3);
                    let w_h_c = det_matrix(hidden, hidden, 4).scale(0.3);
                    let (w_h_zr_t, w_h_c_t) = (w_h_zr.transpose(), w_h_c.transpose());
                    let b = det_matrix(1, 3 * hidden, 5);
                    let g = det_matrix(n, hidden, 6);
                    let run = |tier: Tier| {
                        let mut pool = BufPool::new();
                        let mut saved = GruSaved {
                            h: Matrix::zeros(a, hidden),
                            zr: Matrix::zeros(a, 2 * hidden),
                            c: Matrix::zeros(a, hidden),
                        };
                        let mut out = h.as_slice().to_vec();
                        let mut scratch = vec![0.0; kernels::gru_scratch_len(hidden)];
                        let op = kernels::GruOperands {
                            hidden,
                            w_h_zr: w_h_zr.as_slice(),
                            w_h_c: w_h_c.as_slice(),
                            b: b.as_slice(),
                            table: table.as_slice(),
                            rows,
                            ids,
                        };
                        let acts = kernels::GruActivations {
                            h: saved.h.as_mut_slice(),
                            zr: saved.zr.as_mut_slice(),
                            c: saved.c.as_mut_slice(),
                        };
                        kernels::gru_step_at(tier, &op, &mut out, Some(acts), &mut scratch);
                        let mut inferred = h.as_slice().to_vec();
                        kernels::gru_step_at(tier, &op, &mut inferred, None, &mut scratch);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&out), bits(&inferred), "inference, {tier:?}");
                        let (mut gh, mut gpx) = (g.as_slice().to_vec(), vec![0.0; a * 3 * hidden]);
                        let mut sc = GruBwdScratch::take(&mut pool, a, hidden);
                        let bwd = GruBwdCtx {
                            rows,
                            saved: &saved,
                            w_h_zr_t: w_h_zr_t.as_slice(),
                            w_h_c_t: w_h_c_t.as_slice(),
                            hidden,
                        };
                        gru_backward(tier, &bwd, &mut gh, &mut gpx, &mut sc);
                        let [pw_h_zr, pw_h_c, pb] = sc.partials();
                        [
                            &out[..],
                            saved.h.as_slice(),
                            saved.zr.as_slice(),
                            saved.c.as_slice(),
                            &gh,
                            &gpx,
                            pw_h_zr.as_slice(),
                            pw_h_c.as_slice(),
                            pb.as_slice(),
                        ]
                        .map(|s| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                    };
                    let baseline = run(Tier::Baseline);
                    for &tier in &tiers {
                        let got = run(tier);
                        for (i, (want, got)) in baseline.iter().zip(&got).enumerate() {
                            assert_eq!(
                                want, got,
                                "output {i}, {tier:?}, hidden {hidden}, {a} rows"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Run one fused forward+backward and return (loss, all grads).
    fn run_fused_case(g: &mut Graph) -> (f32, Vec<Matrix>) {
        let vars = toy_gru(g, 4, 4, 3);
        let h0 = g.constant(det_matrix(5, 4, 30));
        let x0 = g.constant(det_matrix(5, 4, 31));
        // Row 2 is padding.
        let rows = [0usize, 1, 3, 4];
        let h1 = vars.step_rows(g, h0, x0, &rows, &[0, 2, 4, 3]);
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

    /// A two-position sweep as the models record it, on one toy cell: a
    /// pooled path state advanced over rows of an entity projection read
    /// through the entity ids, its messages folded into a pooled
    /// accumulator, the entity state stepped on their sum, and the path
    /// advanced again.
    /// `pin_path` records a `sum` of the first stepped path state that no
    /// loss reaches: its adjoint reads the state's shape, so the second step
    /// has to copy that state instead of consuming it.
    struct Sweep {
        g: Graph,
        gru: ToyGru,
        path: [Var; 3],
        entity: [Var; 2],
        acc: Var,
        table: Var,
        loss: Var,
    }

    fn record_sweep(inference: bool, pin_path: bool) -> Sweep {
        let mut g = Graph::new();
        g.set_inference_mode(inference);
        let gru = toy_gru(&mut g, 4, 4, 3);
        let rows = [0usize, 1, 3, 4];
        let ids = [2usize, 0, 1, 2];
        let p0 = g.constant_copy(&det_matrix(5, 4, 30));
        let e0 = g.constant_copy(&det_matrix(3, 4, 31));
        let pe0 = g.matmul(e0, gru.vars.w_x);
        let p1 = g.gru_step_rows(&gru.vars, p0, pe0, &rows, &ids);
        if pin_path {
            g.sum(p1);
        }
        let acc = g.constant_with(3, 4, |_| {});
        let msgs = g.segment_acc_rows(acc, p1, &rows, &ids);
        let e1 = gru.step(&mut g, e0, msgs);
        let pe1 = g.matmul(e1, gru.vars.w_x);
        let p2 = g.gru_step_rows(&gru.vars, p1, pe1, &rows, &ids);
        let sq = g.square(p2);
        let loss = g.mean(sq);
        Sweep {
            g,
            gru,
            path: [p0, p1, p2],
            entity: [e0, e1],
            acc,
            table: pe0,
            loss,
        }
    }

    #[test]
    fn inference_mode_is_bit_identical_and_discards_gru_scratch() {
        let train = record_sweep(false, false);
        let infer = record_sweep(true, false);
        let saved = |g: &Graph| {
            g.ops()
                .filter(|op| matches!(op, Op::GruStep { saved: Some(_), .. }))
                .count()
        };
        assert_eq!(
            saved(&train.g),
            3,
            "training keeps every step's activations"
        );
        assert_eq!(saved(&infer.g), 0, "inference keeps none");
        for (t, i) in [
            (train.path[2], infer.path[2]),
            (train.entity[1], infer.entity[1]),
        ] {
            assert!(
                train.g.value(t).approx_eq(infer.g.value(i), 0.0),
                "inference mode must not change forward bits"
            );
        }
        // With no adjoint to serve, the entity state the projection read is
        // spent by its own step, as the path state is.
        assert_eq!(infer.g.value(infer.entity[0]).shape(), (0, 0));
        assert_eq!(infer.g.value(infer.path[1]).shape(), (0, 0));
    }

    #[test]
    fn steps_consume_the_states_no_adjoint_reads() {
        let mut train = record_sweep(false, false);
        let mut pinned = record_sweep(false, true);
        let t = &train.g;
        for (v, what) in [
            (train.path[0], "initial path state"),
            (train.path[1], "stepped path state"),
            (train.acc, "message accumulator"),
        ] {
            assert_eq!(t.value(v).shape(), (0, 0), "{what} spent in training");
        }
        let infer = record_sweep(true, false);
        for (g, table) in [(t, train.table), (&infer.g, infer.table)] {
            assert_eq!(
                g.value(table).shape(),
                (3, 12),
                "a table read through ids is never spent"
            );
        }
        assert_eq!(
            t.value(train.entity[0]).shape(),
            (3, 4),
            "the projection's adjoint reads the entity state: it stays"
        );
        assert_eq!(
            pinned.g.value(pinned.path[1]).shape(),
            (5, 4),
            "a read state stays"
        );
        assert!(t
            .value(train.path[2])
            .approx_eq(pinned.g.value(pinned.path[2]), 0.0));

        // Consumed or copied, every gradient bit is the same.
        train.g.backward(train.loss);
        pinned.g.backward(pinned.loss);
        for (&a, &b) in train.gru.params.iter().zip(&pinned.gru.params) {
            let bits = |g: &Graph, v: Var| -> Vec<u32> {
                g.grad(v)
                    .unwrap()
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            };
            assert_eq!(bits(&train.g, a), bits(&pinned.g, b));
        }

        // A matrix the caller handed over stays the caller's, in both modes.
        for inference in [false, true] {
            let mut g = Graph::new();
            g.set_inference_mode(inference);
            let gru = toy_gru(&mut g, 4, 4, 3);
            let h = g.constant(det_matrix(5, 4, 30));
            let acc = g.param(Matrix::zeros(3, 4));
            let x = g.constant(det_matrix(5, 4, 31));
            let h1 = gru.step(&mut g, h, x);
            g.segment_acc_rows(acc, h1, &[0, 2], &[1, 2]);
            assert_eq!(g.value(h).shape(), (5, 4));
            assert_eq!(g.value(acc).shape(), (3, 4));
        }
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
                g.gather_rows(x, SharedIndices::full(shared.clone()))
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
