//! Criterion bench: one training step (forward + backward + gradient
//! extraction) at paper-scale configuration, before and after the fused
//! hot path.
//!
//! Three variants process the same batch of NSFNET samples:
//!
//! - `before/legacy_per_sample` — the pre-refactor path: a fresh tape per
//!   sample, unfused op-by-op forward (`forward_unfused`).
//! - `after/fused_tape_reuse` — fused row-compacted ops (`gather_rows`/
//!   `gru_step_rows`/`segment_acc_rows`) with one pooled tape reused across
//!   the batch.
//! - `after/megabatch` — the production default: the whole batch packed into
//!   one block-diagonal megabatch, one bind, one fused forward/backward.
//!
//! A fourth family, `parallel_backward/shards_N`, runs the same megabatch
//! step with the intra-batch shard gang at N workers (the block-diagonal
//! plan's per-sample shards fan out across threads; gradients are reduced in
//! canonical per-shard order, so every N produces identical bits — pinned by
//! `tests/sharded_determinism.rs`). Two backward-only families separate the
//! two sharding generations: `backward/shards_N` runs with the dense row
//! partitions stripped (per-sample message-passing shards only — the dense
//! link/node GRU updates and the readout MLP stay sequential, the PR-3
//! layout), while `backward_dense/shards_N` runs the fully-parallel backward
//! (dense work row-blocked across the same gang). Their gap at high N is the
//! sequential dense tail the dense sharding removes — reported as
//! `dense_sequential_fraction` (≈0 on a 1-core host; multi-core CI is where
//! it is meaningful). `after/megabatch_unsharded` strips the shard layout
//! entirely to measure the canonical reduction's single-thread overhead.
//!
//! The composition-layer family measures the batch scheduler's steady state:
//!
//! - `compose/fresh_build` — one `build_megabatch` (what the pre-scheduler
//!   trainer paid EVERY step, and what a serving worker pays on a
//!   composition-cache miss);
//! - `compose/cached_refill` — rewriting the features of a cached
//!   composition (the cache-hit path);
//! - `after/megabatch_fresh_compose` — compose + step: the epoch-1 /
//!   pre-composition-layer per-step cost;
//! - `after/megabatch_precomposed` — the same step on the same tape with a
//!   pre-composed megabatch: the epoch≥2 steady state, per-step structure
//!   work eliminated. The two are measured back to back on one tape so the
//!   derived `epoch2_step_speedup_vs_fresh_compose` isolates exactly the
//!   planning cost (at paper scale the kernels dominate, so expect a small
//!   but honest ratio; `epoch2_structure_ns_eliminated_per_step` records
//!   the absolute planning time the scheduler removes from every step).
//!
//! One more family covers the bulk activation kernels:
//!
//! - `activation_map/{scalar,avx2}` — one bulk tanh map over a ~1M-element
//!   buffer through the scalar reference loop vs the runtime-dispatched
//!   slice kernel (AVX2 on hosts that have it, bitwise identical either
//!   way). The derived `activation_speedup` is recorded only when the host
//!   actually dispatches AVX2; otherwise an
//!   `activation_speedup_suppressed_no_avx2` marker is written so "not
//!   measured" cannot be misread as "no speedup".
//!
//! - `kernel/matmul_{nn,tn}_KxMxN` — the two matmul kernels on the same flops
//!   at the GRU step's own shapes: `nn` is the forward product
//!   `(K x M)·(M x N)`, `tn` the weight-gradient product `(K x M)ᵀ·(K x N)`,
//!   at paper scale (728 active rows, the state `h` 32 wide, the two gates
//!   `[gz|gr]` 64 columns) and at the small model's (1 456 x 8, 16). The
//!   derived `matmul_tn_over_nn` (`_small`) is tn throughput over nn
//!   throughput: 1.0 means the adjoint's kernel runs at the forward
//!   kernel's rate.
//!
//! The criterion stand-in writes `BENCH_training_step.json` with ns/op and
//! throughput per variant plus derived speedups (including the per-shard
//! backward scaling and the epoch≥2 step-time improvement), so ratios are
//! tracked across PRs. Note: shard speedups only materialize on multi-core
//! runners; a 1-core container records ~1x.

use criterion::{criterion_group, criterion_main, Criterion, Measurement};
use rn_autograd::{Graph, WorkerPool};
use rn_dataset::{generate_sample, Dataset, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_nn::Layer;
use rn_tensor::kernels;
use rn_tensor::simd::activations as vact;
use routenet::compose::ComposedMegabatch;
use routenet::entities::{build_megabatch, MegabatchPlan, SamplePlan};
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig, TrainConfig};
use std::sync::Arc;

const BATCH: usize = 8;

/// The golden 1/2/4/8 ladder plus whatever CI injects through the one
/// centralized `RN_BACKWARD_SHARDS` helper (same source as the trainer and
/// the determinism suite, so the knob cannot drift).
fn shard_workers() -> Vec<usize> {
    let mut workers = vec![1, 2, 4, 8];
    if let Some(extra) = TrainConfig::env_backward_shards() {
        if !workers.contains(&extra) {
            workers.push(extra);
        }
    }
    workers
}

/// Paper-scale (state_dim=32, T=8) and small-scale (state_dim=8, T=2)
/// models + plans over the same NSFNET scenario batch. The small pair
/// exists for the composition rows: at paper scale the kernels dwarf
/// planning, so the steady-state win of eliminating `build_megabatch` is
/// also measured in a regime where planning is a visible step fraction.
#[allow(clippy::type_complexity)]
fn paper_scale_setup() -> (
    ExtendedRouteNet,
    Vec<SamplePlan>,
    ExtendedRouteNet,
    Vec<SamplePlan>,
) {
    let gen = GeneratorConfig {
        sim: SimConfig {
            duration_s: 60.0,
            warmup_s: 10.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    let topo = topologies::nsfnet_default();
    let samples: Vec<_> = (0..BATCH as u64)
        .map(|i| generate_sample(&topo, &gen, 5, i))
        .collect();
    let ds = Dataset {
        topology: topo,
        samples,
    };
    // Paper-scale model: state_dim=32, T=8 message-passing iterations.
    let model_cfg = ModelConfig {
        state_dim: 32,
        mp_iterations: 8,
        readout_hidden: 64,
        ..ModelConfig::default()
    };
    let mut model = ExtendedRouteNet::new(model_cfg);
    model.fit_preprocessing(&ds, 5);
    let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let mut small_model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 8,
        mp_iterations: 2,
        readout_hidden: 16,
        ..ModelConfig::default()
    });
    small_model.fit_preprocessing(&ds, 5);
    let small_plans: Vec<SamplePlan> = ds.samples.iter().map(|s| small_model.plan(s)).collect();
    (model, plans, small_model, small_plans)
}

/// Pre-refactor training step, reproduced faithfully: a fresh tape per
/// sample, unfused op-by-op forward, and the tape's reference mode (the
/// seed's naive matmul kernels and libm transcendentals).
fn legacy_step(model: &ExtendedRouteNet, plans: &[SamplePlan]) -> usize {
    let mut total = 0;
    for plan in plans {
        let mut g = Graph::new();
        g.set_reference_mode(true);
        let bound = model.bind(&mut g);
        let pred = model.forward_unfused(&mut g, &bound, plan);
        let reliable = g.gather_rows(pred, &plan.reliable_idx);
        let target = g.constant(plan.reliable_targets_norm());
        let loss = g.mse(reliable, target);
        g.backward(loss);
        total += model.grads(&g, &bound).len();
    }
    total
}

/// Fused ops + one pooled tape reused across the whole batch.
fn fused_pooled_step(model: &ExtendedRouteNet, plans: &[SamplePlan], g: &mut Graph) -> usize {
    let mut total = 0;
    for plan in plans {
        g.reset();
        let bound = model.bind(g);
        let pred = model.forward(g, &bound, plan);
        let reliable = g.gather_rows(pred, &plan.reliable_idx);
        let target = g.constant(plan.reliable_targets_norm());
        let loss = g.mse(reliable, target);
        g.backward(loss);
        total += model.grads(g, &bound).len();
    }
    total
}

/// The production default: one fused block-diagonal pass for the batch.
/// Returns the backward-only nanoseconds (the sharded lever's target).
fn megabatch_step(model: &ExtendedRouteNet, mb: &MegabatchPlan, g: &mut Graph) -> f64 {
    g.reset();
    let bound = model.bind(g);
    let pred = model.forward(g, &bound, &mb.plan);
    let reliable = g.gather_rows(pred, &mb.plan.reliable_idx);
    let target = g.constant(mb.plan.reliable_targets_norm());
    let loss = g.mse(reliable, target);
    let t = std::time::Instant::now();
    g.backward(loss);
    let backward_ns = t.elapsed().as_nanos() as f64;
    std::hint::black_box(model.grads(g, &bound).len());
    backward_ns
}

/// `(K, M, N)` of the `kernel/matmul_*` rows: the GRU step's gate product
/// `h·W_h,zr` and its weight gradient `hᵀ·[gz|gr]`, at paper scale and at
/// small scale.
const KERNEL_SHAPES: [(usize, usize, usize); 2] = [(728, 32, 64), (1456, 8, 16)];

/// Operands for one `kernel/matmul_*` pair: `a` is `K x M`, `w` is `M x N`
/// (the `nn` right-hand side), `d` is `K x N` (the `tn` right-hand side).
struct KernelPair {
    shape: (usize, usize, usize),
    a: Vec<f32>,
    w: Vec<f32>,
    d: Vec<f32>,
    out_nn: Vec<f32>,
    out_tn: Vec<f32>,
}

impl KernelPair {
    /// Kernel calls per timed sample (one call is tens of microseconds).
    const CALLS: usize = 32;

    fn new(shape: (usize, usize, usize)) -> Self {
        let (k, m, n) = shape;
        let mut rng = rn_tensor::Prng::new((k * m * n) as u64);
        Self {
            shape,
            a: rng.uniform_matrix(k, m, -1.0, 1.0).into_vec(),
            w: rng.uniform_matrix(m, n, -1.0, 1.0).into_vec(),
            d: rng.uniform_matrix(k, n, -1.0, 1.0).into_vec(),
            out_nn: vec![0.0; k * n],
            out_tn: vec![0.0; m * n],
        }
    }

    /// Nanoseconds per `(K x M)·(M x N)` call.
    fn time_nn(&mut self) -> f64 {
        let (k, m, n) = self.shape;
        let (a, w, out) = (&self.a, &self.w, &mut self.out_nn);
        Self::per_call_ns(out, |out| kernels::matmul_acc(a, w, k, m, n, out))
    }

    /// Nanoseconds per `(K x M)ᵀ·(K x N)` call.
    fn time_tn(&mut self) -> f64 {
        let (k, m, n) = self.shape;
        let (a, d, out) = (&self.a, &self.d, &mut self.out_tn);
        Self::per_call_ns(out, |out| kernels::matmul_tn_acc(a, d, k, m, n, out))
    }

    /// Zero `out`, accumulate into it [`Self::CALLS`] times, return the
    /// mean nanoseconds per call.
    fn per_call_ns(out: &mut [f32], mut call: impl FnMut(&mut [f32])) -> f64 {
        out.fill(0.0);
        let t = std::time::Instant::now();
        for _ in 0..Self::CALLS {
            call(out);
        }
        std::hint::black_box(out[0]);
        t.elapsed().as_nanos() as f64 / Self::CALLS as f64
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// Interleaved measurement: one legacy + one fused + one megabatch step per
/// round, medians across rounds. Sequential per-variant timing would let
/// slow machine-load drift (thermal throttling, noisy neighbors) bias the
/// before/after ratio; round-robin keeps every variant exposed to the same
/// conditions.
fn bench_training_step(_c: &mut Criterion) {
    let (model, plans, small_model, small_plans) = paper_scale_setup();
    const ROUNDS: usize = 13;
    let shard_workers = shard_workers();

    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let small_parts: Vec<&SamplePlan> = small_plans.iter().collect();
    // The production megabatch (shard layout precompiled) plus a stripped
    // copy that runs the unsharded kernels — the honest baseline for the
    // canonical reduction's single-thread overhead. Without `shards` the
    // sweep hands the ops no split, so the schedule's per-step shard bounds
    // go unread.
    let mb = build_megabatch(&parts);
    let mut mb_unsharded = build_megabatch(&parts);
    mb_unsharded.plan.shards = None;
    // Per-sample shards only (dense row partitions stripped): the dense
    // link/node GRU updates and the readout MLP run sequentially, as they
    // did before the fully-parallel backward. The gap to `mb` at high
    // worker counts is the dense sequential tail.
    let mut mb_dense_seq = build_megabatch(&parts);
    if let Some(shards) = mb_dense_seq.plan.shards.as_mut() {
        shards.dense_path_bounds = Arc::default();
        shards.dense_link_bounds = Arc::default();
        shards.dense_node_bounds = Arc::default();
    }
    // The cached composition whose features get refilled every round — the
    // composition-cache-hit / epoch≥2 structure-reuse path.
    let mut cached_composition = ComposedMegabatch::compose(&parts).expect("compose");
    let mb_small = build_megabatch(&small_parts);

    let mut pooled_tape = Graph::new();
    let mut unsharded_tape = Graph::new();
    let mut fresh_compose_tape = Graph::new();
    let mut small_tape = Graph::new();
    // One tape per shard-worker configuration so pooled buffers never mix.
    let mk_shard_tapes = || -> Vec<(usize, Graph)> {
        shard_workers
            .iter()
            .map(|&w| {
                let mut g = Graph::new();
                // shards_1 is the sequential canonical path: no pool at all.
                if w > 1 {
                    g.set_worker_pool(Some(Arc::new(WorkerPool::new(w))));
                }
                (w, g)
            })
            .collect()
    };
    let mut shard_tapes = mk_shard_tapes();
    let mut dense_seq_tapes = mk_shard_tapes();
    // Dedicated tapes for the canonical-overhead pair: the unsharded-legacy
    // and sharded-sequential backwards are measured back to back (order
    // alternating per round) so second-scale machine drift cancels out of
    // the single_shard_overhead_pct ratio — the same methodology the
    // fresh-compose/precomposed pair uses. The slower drift across a whole
    // round otherwise dominates a ≤5% criterion on a shared runner.
    let mut ov_unsharded_tape = Graph::new();
    let mut ov_dense_tape = Graph::new();
    // Bulk activation map input: ~1M elements (well past L2) spanning the
    // interesting tanh range, so the row measures streaming kernel
    // throughput, not cache residency.
    let act_src: Vec<f32> = (0..1usize << 20)
        .map(|i| ((i % 977) as f32) * 0.01 - 4.8)
        .collect();
    let mut act_dst = vec![0.0f32; act_src.len()];
    let mut kernel_pairs = KERNEL_SHAPES.map(KernelPair::new);

    // Warmup: touch every path once (fills tape pools, faults in pages).
    std::hint::black_box(legacy_step(&model, &plans));
    std::hint::black_box(fused_pooled_step(&model, &plans, &mut pooled_tape));
    std::hint::black_box(megabatch_step(&model, &mb_unsharded, &mut unsharded_tape));
    std::hint::black_box(megabatch_step(&model, &mb, &mut fresh_compose_tape));
    std::hint::black_box(megabatch_step(&small_model, &mb_small, &mut small_tape));
    for (_, tape) in shard_tapes.iter_mut() {
        std::hint::black_box(megabatch_step(&model, &mb, tape));
    }
    for (_, tape) in dense_seq_tapes.iter_mut() {
        std::hint::black_box(megabatch_step(&model, &mb_dense_seq, tape));
    }
    std::hint::black_box(megabatch_step(
        &model,
        &mb_unsharded,
        &mut ov_unsharded_tape,
    ));
    std::hint::black_box(megabatch_step(&model, &mb, &mut ov_dense_tape));
    vact::tanh_map(&act_src, &mut act_dst);
    vact::tanh_map_scalar(&act_src, &mut act_dst);
    std::hint::black_box(act_dst[0]);
    for pair in &mut kernel_pairs {
        std::hint::black_box(pair.time_nn() + pair.time_tn());
    }

    let mut t_legacy = Vec::with_capacity(ROUNDS);
    let mut t_fused = Vec::with_capacity(ROUNDS);
    let mut t_unsharded = Vec::with_capacity(ROUNDS);
    let mut t_unsharded_bwd = Vec::with_capacity(ROUNDS);
    let mut t_compose_fresh = Vec::with_capacity(ROUNDS);
    let mut t_compose_refill = Vec::with_capacity(ROUNDS);
    let mut t_fresh_compose_step = Vec::with_capacity(ROUNDS);
    let mut t_precomposed_step = Vec::with_capacity(ROUNDS);
    let mut t_small_fresh = Vec::with_capacity(ROUNDS);
    let mut t_small_pre = Vec::with_capacity(ROUNDS);
    let mut t_shard_step: Vec<Vec<f64>> = shard_workers.iter().map(|_| Vec::new()).collect();
    let mut t_shard_bwd: Vec<Vec<f64>> = shard_workers.iter().map(|_| Vec::new()).collect();
    let mut t_dense_seq_bwd: Vec<Vec<f64>> = shard_workers.iter().map(|_| Vec::new()).collect();
    let mut t_ov_unsharded = Vec::with_capacity(ROUNDS);
    let mut t_ov_dense = Vec::with_capacity(ROUNDS);
    let mut t_act_scalar = Vec::with_capacity(ROUNDS);
    let mut t_act_simd = Vec::with_capacity(ROUNDS);
    let mut t_kernel_nn = KERNEL_SHAPES.map(|_| Vec::with_capacity(ROUNDS));
    let mut t_kernel_tn = KERNEL_SHAPES.map(|_| Vec::with_capacity(ROUNDS));
    for round in 0..ROUNDS {
        let t = std::time::Instant::now();
        std::hint::black_box(legacy_step(&model, &plans));
        t_legacy.push(t.elapsed().as_nanos() as f64);

        let t = std::time::Instant::now();
        std::hint::black_box(fused_pooled_step(&model, &plans, &mut pooled_tape));
        t_fused.push(t.elapsed().as_nanos() as f64);

        let t = std::time::Instant::now();
        let unsharded_bwd = megabatch_step(&model, &mb_unsharded, &mut unsharded_tape);
        t_unsharded.push(t.elapsed().as_nanos() as f64);
        t_unsharded_bwd.push(unsharded_bwd);

        // Composition layer: fresh structure build vs cached-structure
        // feature refill over the same parts.
        let t = std::time::Instant::now();
        std::hint::black_box(build_megabatch(&parts));
        t_compose_fresh.push(t.elapsed().as_nanos() as f64);

        let t = std::time::Instant::now();
        cached_composition.refill_features(&parts);
        std::hint::black_box(cached_composition.plan().n_paths);
        t_compose_refill.push(t.elapsed().as_nanos() as f64);

        // Epoch-1 / pre-scheduler behavior: compose + step, paired with the
        // epoch>=2 steady state (pre-composed, same tape). The two run back
        // to back with the order alternating per round, so slow machine
        // drift within a round cancels out of the median ratio.
        let time_fresh = |tape: &mut Graph| {
            let t = std::time::Instant::now();
            let mb_fresh = build_megabatch(&parts);
            std::hint::black_box(megabatch_step(&model, &mb_fresh, tape));
            t.elapsed().as_nanos() as f64
        };
        let time_pre = |tape: &mut Graph| {
            let t = std::time::Instant::now();
            std::hint::black_box(megabatch_step(&model, &mb, tape));
            t.elapsed().as_nanos() as f64
        };
        if round % 2 == 0 {
            t_fresh_compose_step.push(time_fresh(&mut fresh_compose_tape));
            t_precomposed_step.push(time_pre(&mut fresh_compose_tape));
        } else {
            t_precomposed_step.push(time_pre(&mut fresh_compose_tape));
            t_fresh_compose_step.push(time_fresh(&mut fresh_compose_tape));
        }

        // The same pair at small scale (state_dim=8, T=2), where planning
        // is a visible fraction of the step.
        let time_small_fresh = |tape: &mut Graph| {
            let t = std::time::Instant::now();
            let mb_fresh = build_megabatch(&small_parts);
            std::hint::black_box(megabatch_step(&small_model, &mb_fresh, tape));
            t.elapsed().as_nanos() as f64
        };
        let time_small_pre = |tape: &mut Graph| {
            let t = std::time::Instant::now();
            std::hint::black_box(megabatch_step(&small_model, &mb_small, tape));
            t.elapsed().as_nanos() as f64
        };
        if round % 2 == 0 {
            t_small_fresh.push(time_small_fresh(&mut small_tape));
            t_small_pre.push(time_small_pre(&mut small_tape));
        } else {
            t_small_pre.push(time_small_pre(&mut small_tape));
            t_small_fresh.push(time_small_fresh(&mut small_tape));
        }

        for (i, (_, tape)) in shard_tapes.iter_mut().enumerate() {
            let t = std::time::Instant::now();
            let backward_ns = megabatch_step(&model, &mb, tape);
            t_shard_step[i].push(t.elapsed().as_nanos() as f64);
            t_shard_bwd[i].push(backward_ns);
        }
        for (i, (_, tape)) in dense_seq_tapes.iter_mut().enumerate() {
            t_dense_seq_bwd[i].push(megabatch_step(&model, &mb_dense_seq, tape));
        }

        // Bulk activation map: dispatched kernel vs scalar reference loop,
        // alternating order per round.
        let time_act = |kernel: fn(&[f32], &mut [f32]), dst: &mut Vec<f32>| {
            let t = std::time::Instant::now();
            kernel(&act_src, dst);
            std::hint::black_box(dst[dst.len() / 2]);
            t.elapsed().as_nanos() as f64
        };
        if round % 2 == 0 {
            t_act_simd.push(time_act(vact::tanh_map, &mut act_dst));
            t_act_scalar.push(time_act(vact::tanh_map_scalar, &mut act_dst));
        } else {
            t_act_scalar.push(time_act(vact::tanh_map_scalar, &mut act_dst));
            t_act_simd.push(time_act(vact::tanh_map, &mut act_dst));
        }

        // The matmul kernel pair at each adjoint shape, alternating order.
        for (i, pair) in kernel_pairs.iter_mut().enumerate() {
            if round % 2 == 0 {
                t_kernel_nn[i].push(pair.time_nn());
                t_kernel_tn[i].push(pair.time_tn());
            } else {
                t_kernel_tn[i].push(pair.time_tn());
                t_kernel_nn[i].push(pair.time_nn());
            }
        }

        // The adjacent overhead pair (see the tape definitions above).
        if round % 2 == 0 {
            t_ov_unsharded.push(megabatch_step(
                &model,
                &mb_unsharded,
                &mut ov_unsharded_tape,
            ));
            t_ov_dense.push(megabatch_step(&model, &mb, &mut ov_dense_tape));
        } else {
            t_ov_dense.push(megabatch_step(&model, &mb, &mut ov_dense_tape));
            t_ov_unsharded.push(megabatch_step(
                &model,
                &mb_unsharded,
                &mut ov_unsharded_tape,
            ));
        }
    }

    // Extra samples for the overhead pair alone: it feeds a ≤5% acceptance
    // criterion, so its minima need the best odds of catching an
    // uncontended run; each pair is only ~2 backward passes, far cheaper
    // than a full round.
    for round in 0..2 * ROUNDS {
        if round % 2 == 0 {
            t_ov_unsharded.push(megabatch_step(
                &model,
                &mb_unsharded,
                &mut ov_unsharded_tape,
            ));
            t_ov_dense.push(megabatch_step(&model, &mb, &mut ov_dense_tape));
        } else {
            t_ov_dense.push(megabatch_step(&model, &mb, &mut ov_dense_tape));
            t_ov_unsharded.push(megabatch_step(
                &model,
                &mb_unsharded,
                &mut ov_unsharded_tape,
            ));
        }
    }

    let (legacy, fused, unsharded) = (median(t_legacy), median(t_fused), median(t_unsharded));
    let unsharded_bwd = median(t_unsharded_bwd);
    let compose_fresh = median(t_compose_fresh);
    let compose_refill = median(t_compose_refill);
    let fresh_compose_step = median(t_fresh_compose_step);
    let precomposed_step = median(t_precomposed_step);
    let small_fresh = median(t_small_fresh);
    let small_pre = median(t_small_pre);
    let shard_step: Vec<f64> = t_shard_step.into_iter().map(median).collect();
    let shard_bwd: Vec<f64> = t_shard_bwd.into_iter().map(median).collect();
    let dense_seq_bwd: Vec<f64> = t_dense_seq_bwd.into_iter().map(median).collect();
    let act_scalar = median(t_act_scalar);
    let act_simd = median(t_act_simd);
    let kernel_nn = t_kernel_nn.map(median);
    let kernel_tn = t_kernel_tn.map(median);

    let mut rows: Vec<(String, f64)> = vec![
        ("before/legacy_per_sample".into(), legacy),
        ("after/fused_tape_reuse".into(), fused),
        ("after/megabatch_unsharded".into(), unsharded),
        ("backward/unsharded".into(), unsharded_bwd),
        ("compose/fresh_build".into(), compose_fresh),
        ("compose/cached_refill".into(), compose_refill),
        // Epoch-1 behavior: per-step compose + step, paired with the
        // epoch>=2 steady state (same tape, pre-composed megabatch, zero
        // per-step structure work) — at paper scale and at small scale.
        ("after/megabatch_fresh_compose".into(), fresh_compose_step),
        ("after/megabatch_precomposed".into(), precomposed_step),
        ("small/megabatch_fresh_compose".into(), small_fresh),
        ("small/megabatch_precomposed".into(), small_pre),
        ("after/megabatch".into(), shard_step[0]),
        // The bulk activation map pair (the "avx2" row falls back to the
        // scalar kernel on hosts without AVX2 — the derived key below flags
        // that).
        ("activation_map/scalar".into(), act_scalar),
        ("activation_map/avx2".into(), act_simd),
    ];
    for (i, (k, m, n)) in KERNEL_SHAPES.into_iter().enumerate() {
        rows.push((format!("kernel/matmul_nn_{k}x{m}x{n}"), kernel_nn[i]));
        rows.push((format!("kernel/matmul_tn_{k}x{m}x{n}"), kernel_tn[i]));
    }
    for (i, &w) in shard_workers.iter().enumerate() {
        rows.push((format!("parallel_backward/shards_{w}"), shard_step[i]));
        // backward/shards_N: per-sample shards only, dense work sequential
        // (the PR-3 layout, kept for cross-PR comparability);
        // backward_dense/shards_N: the fully-parallel backward with the
        // dense GRU/readout work row-blocked across the same gang.
        rows.push((format!("backward/shards_{w}"), dense_seq_bwd[i]));
        rows.push((format!("backward_dense/shards_{w}"), shard_bwd[i]));
    }
    let results: Vec<Measurement> = rows
        .iter()
        .map(|(id, ns)| Measurement {
            id: id.clone(),
            ns_per_op: *ns,
            ops_per_sec: 1.0e9 / ns,
        })
        .collect();
    for m in &results {
        eprintln!(
            "bench training_step/{:<34} {:>14.0} ns/op {:>10.2} ops/s",
            m.id, m.ns_per_op, m.ops_per_sec
        );
    }
    let speedup_mega = legacy / shard_step[0];
    let speedup_fused = legacy / fused;
    // backward_speedup_* keeps its historical family (backward/shards_N =
    // per-sample shards only, dense sequential — what the rows measured in
    // earlier PRs); the fully-parallel layout's scaling gets its own
    // backward_dense_speedup_* keys.
    let backward_speedup_2 = dense_seq_bwd[0] / dense_seq_bwd[1];
    let backward_speedup_4 = dense_seq_bwd[0] / dense_seq_bwd[2];
    let backward_speedup_8 = dense_seq_bwd[0] / dense_seq_bwd[3];
    let backward_dense_speedup_2 = shard_bwd[0] / shard_bwd[1];
    let backward_dense_speedup_4 = shard_bwd[0] / shard_bwd[2];
    let backward_dense_speedup_8 = shard_bwd[0] / shard_bwd[3];
    let step_speedup_4 = shard_step[0] / shard_step[2];
    // Canonical sharded reduction (now including the dense GRU/readout row
    // blocking) vs the legacy kernels on one thread, backward to backward
    // (the step-level ratio folds in forward noise): positive percentage =
    // overhead (acceptance: <= 5%). Computed from the ADJACENT
    // alternating-order pair, and as a ratio of MINIMA rather than
    // medians: on this shared runner, scheduler interference adds 10-25%
    // to individual ~100 ms measurements often enough to swamp a 5%
    // criterion in either direction, while the per-variant minimum
    // approaches the true uncontended cost (interference only ever adds
    // time — the `timeit`/hyperfine argument).
    let best = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let single_shard_overhead_pct = (best(&t_ov_dense) / best(&t_ov_unsharded) - 1.0) * 100.0;
    let single_shard_step_overhead_pct = (shard_step[0] / unsharded - 1.0) * 100.0;
    // The dense sequential tail: at the top of the worker ladder the
    // per-sample-sharded backward still runs the dense link/node GRU
    // updates and the readout MLP on one thread; the fully-parallel
    // backward row-blocks them. Their relative gap is the Amdahl fraction
    // the dense sharding removes (≈0 — pure noise — on a 1-core host;
    // multi-core CI is where this number is meaningful).
    let top = shard_workers.len() - 1;
    let dense_sequential_fraction = (dense_seq_bwd[top] - shard_bwd[top]) / dense_seq_bwd[top];
    // Composition-layer ratios. Cached refill vs fresh build is measured
    // directly (both are sub-ms and stable). The paper-scale epoch>=2 step
    // speedup is assembled from the component medians — compose cost is
    // ~0.3% of a paper-scale step, far below what the difference of two
    // ~150ms timings resolves on a shared/throttled runner — while the
    // small-scale pair (planning a visible step fraction) is a direct
    // median-of-alternating-pairs measurement.
    let compose_refill_speedup = compose_fresh / compose_refill;
    let epoch2_step_speedup = (precomposed_step + compose_fresh) / precomposed_step;
    let small_epoch2_step_speedup = small_fresh / small_pre;
    let compose_pct_of_step = compose_fresh / precomposed_step * 100.0;
    let compose_pct_of_small_step = compose_fresh / small_pre * 100.0;
    eprintln!(
        "speedup legacy->megabatch: {speedup_mega:.2}x; backward shards 1->4: \
         {backward_speedup_4:.2}x (2: {backward_speedup_2:.2}x, 8: {backward_speedup_8:.2}x; \
         fully-parallel dense 4: {backward_dense_speedup_4:.2}x); \
         single-shard overhead {single_shard_overhead_pct:+.1}%; \
         dense sequential fraction {dense_sequential_fraction:+.3}; \
         compose fresh->refill {compose_refill_speedup:.1}x, epoch>=2 step \
         {epoch2_step_speedup:.4}x (small-scale {small_epoch2_step_speedup:.3}x, \
         compose = {compose_pct_of_small_step:.1}% of the small step) \
         [{} cores available]",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let bench_host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut derived: Vec<(&str, f64)> = vec![
        ("speedup_megabatch_vs_legacy", speedup_mega),
        ("speedup_fused_tape_reuse_vs_legacy", speedup_fused),
    ];
    if bench_host_cores > 1 {
        // The shard-scaling ratios only mean something when the gang can
        // actually run in parallel; on a 1-core host every "speedup" is a
        // ratio of two serialized timings — pure scheduler noise that has
        // been misread as a regression before. Omit them and leave a
        // marker instead so downstream tooling can tell "not measured"
        // from "measured at 1.0x".
        derived.extend([
            ("backward_speedup_2_shards_vs_1", backward_speedup_2),
            ("backward_speedup_4_shards_vs_1", backward_speedup_4),
            ("backward_speedup_8_shards_vs_1", backward_speedup_8),
            (
                "backward_dense_speedup_2_shards_vs_1",
                backward_dense_speedup_2,
            ),
            (
                "backward_dense_speedup_4_shards_vs_1",
                backward_dense_speedup_4,
            ),
            (
                "backward_dense_speedup_8_shards_vs_1",
                backward_dense_speedup_8,
            ),
            ("step_speedup_4_shards_vs_1", step_speedup_4),
            ("dense_sequential_fraction", dense_sequential_fraction),
        ]);
    } else {
        derived.push(("speedups_suppressed_single_core", 1.0));
    }
    derived.extend([
        // Overhead percentages stay unconditional: they compare the sharded
        // machinery against the legacy kernels on the SAME single thread,
        // which a 1-core host measures fine.
        ("single_shard_overhead_pct", single_shard_overhead_pct),
        (
            "single_shard_step_overhead_pct",
            single_shard_step_overhead_pct,
        ),
        ("compose_refill_speedup_vs_fresh", compose_refill_speedup),
        ("epoch2_step_speedup_vs_fresh_compose", epoch2_step_speedup),
        (
            "small_epoch2_step_speedup_vs_fresh_compose",
            small_epoch2_step_speedup,
        ),
        ("epoch2_structure_ns_eliminated_per_step", compose_fresh),
        ("compose_fresh_pct_of_step", compose_pct_of_step),
        ("compose_fresh_pct_of_small_step", compose_pct_of_small_step),
        ("bench_host_cores", bench_host_cores as f64),
        // Same flops on both sides, so the time ratio is the rate ratio.
        ("matmul_tn_over_nn", kernel_nn[0] / kernel_tn[0]),
        ("matmul_tn_over_nn_small", kernel_nn[1] / kernel_tn[1]),
    ]);
    if rn_tensor::simd::have_avx2() {
        derived.push(("activation_speedup", act_scalar / act_simd));
    } else {
        // Without AVX2 the dispatched kernel IS the scalar loop; a ~1.0x
        // "speedup" there would be noise masquerading as a regression.
        derived.push(("activation_speedup_suppressed_no_avx2", 1.0));
    }
    criterion::write_report_with_derived("training_step", &results, &derived);
}

criterion_group!(benches, bench_training_step);
criterion_main!(benches);
