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
//! `backward/megabatch` is the reverse sweep's share of `after/megabatch`.
//!
//! One pair goes through the trainer itself:
//!
//! - `train_step/two_compositions` — one step of `train_on_plans` at the
//!   default `TrainConfig` (batch 8 as two compositions of 4, each on a tape
//!   of its own over the trainer's `par_iter`, then clip and Adam);
//! - `train_step/two_compositions_one_tape` — two compositions of 4 stepped
//!   one after the other on one tape: the same work without a second CPU
//!   (less clip and Adam, under half a percent of it).
//!
//! The derived `tape_per_composition_speedup` is the second over the first:
//! what the trainer's one axis of parallelism buys on this host. (Not
//! `after/megabatch` over it: one 8-sample megabatch costs more per sample
//! than two of 4, so that ratio reads above the core count.) It is the row
//! the shard gang was measured against before it was deleted
//! (`docs/ARCHITECTURE.md`, "Why there is no shard gang"); the `baseline` of
//! the committed file keeps the gang's last rows.
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
//!   slice kernel (the widest SIMD tier the host has — AVX-512 or AVX2 —
//!   bitwise identical either way; the row keeps its `avx2` name). The
//!   derived `activation_speedup` is recorded only when the host actually
//!   dispatches a vector tier; otherwise an
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
//! throughput per variant plus derived speedups (including the epoch≥2
//! step-time improvement), so ratios are tracked across PRs. Note: the
//! parallel speedup only materializes on multi-core runners; a 1-core
//! container leaves a marker in its place.

use criterion::{criterion_group, criterion_main, Criterion, Measurement};
use rn_autograd::Graph;
use rn_dataset::{generate_sample, Dataset, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_nn::Layer;
use rn_tensor::kernels;
use rn_tensor::simd::activations as vact;
use routenet::compose::ComposedMegabatch;
use routenet::entities::{build_megabatch, MegabatchPlan, SamplePlan};
use routenet::model::PathPredictor;
use routenet::trainer::train_on_plans;
use routenet::{ExtendedRouteNet, ModelConfig, TrainConfig};

const BATCH: usize = 8;

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
/// Returns the backward-only nanoseconds.
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

/// Steps per timed `train_on_plans` call. The call builds its own tape pool,
/// so its first step allocates every buffer; eight steps keep that to an
/// eighth of one step's allocation in the per-step figure.
const TRAINER_STEPS: usize = 8;

/// Nanoseconds per optimizer step of the trainer at its defaults: the eight
/// plans are one batch, two compositions of four.
fn trainer_step_ns(model: &ExtendedRouteNet, plans: &[SamplePlan]) -> f64 {
    let mut model = model.clone();
    let config = TrainConfig {
        epochs: TRAINER_STEPS,
        ..TrainConfig::default()
    };
    assert_eq!((config.batch_size, config.megabatch_size), (BATCH, 4));
    let t = std::time::Instant::now();
    std::hint::black_box(train_on_plans(&mut model, plans, &config).final_train_loss());
    t.elapsed().as_nanos() as f64 / TRAINER_STEPS as f64
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

    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let small_parts: Vec<&SamplePlan> = small_plans.iter().collect();
    let mb = build_megabatch(&parts);
    // The batch as the trainer's defaults pack it: two compositions of four.
    let halves: Vec<MegabatchPlan> = plans
        .chunks(TrainConfig::default().megabatch_size)
        .map(|chunk| build_megabatch(&chunk.iter().collect::<Vec<_>>()))
        .collect();
    // The cached composition whose features get refilled every round — the
    // composition-cache-hit / epoch≥2 structure-reuse path.
    let mut cached_composition = ComposedMegabatch::compose(&parts).expect("compose");
    let mb_small = build_megabatch(&small_parts);

    let mut pooled_tape = Graph::new();
    let mut megabatch_tape = Graph::new();
    let mut halves_tape = Graph::new();
    let mut fresh_compose_tape = Graph::new();
    let mut small_tape = Graph::new();
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
    std::hint::black_box(megabatch_step(&model, &mb, &mut megabatch_tape));
    std::hint::black_box(megabatch_step(&model, &mb, &mut fresh_compose_tape));
    std::hint::black_box(megabatch_step(&small_model, &mb_small, &mut small_tape));
    for half in &halves {
        std::hint::black_box(megabatch_step(&model, half, &mut halves_tape));
    }
    std::hint::black_box(trainer_step_ns(&model, &plans));
    vact::tanh_map(&act_src, &mut act_dst);
    vact::tanh_map_scalar(&act_src, &mut act_dst);
    std::hint::black_box(act_dst[0]);
    for pair in &mut kernel_pairs {
        std::hint::black_box(pair.time_nn() + pair.time_tn());
    }

    let mut t_legacy = Vec::with_capacity(ROUNDS);
    let mut t_fused = Vec::with_capacity(ROUNDS);
    let mut t_megabatch = Vec::with_capacity(ROUNDS);
    let mut t_megabatch_bwd = Vec::with_capacity(ROUNDS);
    let mut t_trainer_step = Vec::with_capacity(ROUNDS);
    let mut t_halves = Vec::with_capacity(ROUNDS);
    let mut t_compose_fresh = Vec::with_capacity(ROUNDS);
    let mut t_compose_refill = Vec::with_capacity(ROUNDS);
    let mut t_fresh_compose_step = Vec::with_capacity(ROUNDS);
    let mut t_precomposed_step = Vec::with_capacity(ROUNDS);
    let mut t_small_fresh = Vec::with_capacity(ROUNDS);
    let mut t_small_pre = Vec::with_capacity(ROUNDS);
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
        let backward_ns = megabatch_step(&model, &mb, &mut megabatch_tape);
        t_megabatch.push(t.elapsed().as_nanos() as f64);
        t_megabatch_bwd.push(backward_ns);

        // The trainer's step and the same two compositions on one tape,
        // back to back and in alternating order, so drift within a round
        // cancels out of their ratio.
        let mut time_halves = || {
            let t = std::time::Instant::now();
            for half in &halves {
                std::hint::black_box(megabatch_step(&model, half, &mut halves_tape));
            }
            t.elapsed().as_nanos() as f64
        };
        if round % 2 == 0 {
            t_trainer_step.push(trainer_step_ns(&model, &plans));
            t_halves.push(time_halves());
        } else {
            t_halves.push(time_halves());
            t_trainer_step.push(trainer_step_ns(&model, &plans));
        }

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
    }

    let (legacy, fused, megabatch) = (median(t_legacy), median(t_fused), median(t_megabatch));
    let megabatch_bwd = median(t_megabatch_bwd);
    let trainer_step = median(t_trainer_step);
    let halves_one_tape = median(t_halves);
    let compose_fresh = median(t_compose_fresh);
    let compose_refill = median(t_compose_refill);
    let fresh_compose_step = median(t_fresh_compose_step);
    let precomposed_step = median(t_precomposed_step);
    let small_fresh = median(t_small_fresh);
    let small_pre = median(t_small_pre);
    let act_scalar = median(t_act_scalar);
    let act_simd = median(t_act_simd);
    let kernel_nn = t_kernel_nn.map(median);
    let kernel_tn = t_kernel_tn.map(median);

    let mut rows: Vec<(String, f64)> = vec![
        ("before/legacy_per_sample".into(), legacy),
        ("after/fused_tape_reuse".into(), fused),
        ("after/megabatch".into(), megabatch),
        ("backward/megabatch".into(), megabatch_bwd),
        ("train_step/two_compositions".into(), trainer_step),
        (
            "train_step/two_compositions_one_tape".into(),
            halves_one_tape,
        ),
        ("compose/fresh_build".into(), compose_fresh),
        ("compose/cached_refill".into(), compose_refill),
        // Epoch-1 behavior: per-step compose + step, paired with the
        // epoch>=2 steady state (same tape, pre-composed megabatch, zero
        // per-step structure work) — at paper scale and at small scale.
        ("after/megabatch_fresh_compose".into(), fresh_compose_step),
        ("after/megabatch_precomposed".into(), precomposed_step),
        ("small/megabatch_fresh_compose".into(), small_fresh),
        ("small/megabatch_precomposed".into(), small_pre),
        // The bulk activation map pair (the "avx2" row is the dispatched
        // tier, and falls back to the scalar kernel on hosts without a
        // vector tier — the derived key below flags that).
        ("activation_map/scalar".into(), act_scalar),
        ("activation_map/avx2".into(), act_simd),
    ];
    for (i, (k, m, n)) in KERNEL_SHAPES.into_iter().enumerate() {
        rows.push((format!("kernel/matmul_nn_{k}x{m}x{n}"), kernel_nn[i]));
        rows.push((format!("kernel/matmul_tn_{k}x{m}x{n}"), kernel_tn[i]));
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
    let speedup_mega = legacy / megabatch;
    let speedup_fused = legacy / fused;
    // Two compositions on one tape and one thread, over the trainer's step:
    // two compositions, a tape and a worker each.
    let tape_per_composition_speedup = halves_one_tape / trainer_step;
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
    let bench_host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "speedup legacy->megabatch: {speedup_mega:.2}x; tape per composition \
         {tape_per_composition_speedup:.2}x; compose fresh->refill \
         {compose_refill_speedup:.1}x, epoch>=2 step {epoch2_step_speedup:.4}x (small-scale \
         {small_epoch2_step_speedup:.3}x, compose = {compose_pct_of_small_step:.1}% of the small \
         step) [{bench_host_cores} cores available]"
    );
    let mut derived: Vec<(&str, f64)> = vec![
        ("speedup_megabatch_vs_legacy", speedup_mega),
        ("speedup_fused_tape_reuse_vs_legacy", speedup_fused),
    ];
    if bench_host_cores > 1 {
        derived.push(("tape_per_composition_speedup", tape_per_composition_speedup));
    } else {
        // With one core the two compositions run one after the other and
        // the ratio is two serialized timings — scheduler noise that has
        // been misread as a regression before. Leave a marker instead, so
        // downstream tooling can tell "not measured" from "measured at
        // 1.0x".
        derived.push(("speedups_suppressed_single_core", 1.0));
    }
    derived.extend([
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
    if rn_tensor::simd::Tier::detected() > rn_tensor::simd::Tier::Baseline {
        derived.push(("activation_speedup", act_scalar / act_simd));
    } else {
        // Without a vector tier the dispatched kernel IS the scalar loop; a ~1.0x
        // "speedup" there would be noise masquerading as a regression.
        derived.push(("activation_speedup_suppressed_no_avx2", 1.0));
    }
    criterion::write_report_with_derived("training_step", &results, &derived);
}

criterion_group!(benches, bench_training_step);
criterion_main!(benches);
