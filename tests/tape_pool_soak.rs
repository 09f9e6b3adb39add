//! Soak regression for the tape's buffer pool: a reused tape must reach a
//! fixed footprint and stop allocating — and, on the same counting
//! allocator, the JSON of a serving request or a model file builds no tree.
//!
//! The pool under every [`Graph`] is size-classed and bounded (see
//! `rn_autograd::bufpool`): after one pass over the shapes of a workload,
//! `pooled_buffers()` / `pooled_bytes()` stop moving and `pool_misses()`
//! stays flat — in inference, in training, and inside a serving worker. The
//! LIFO free list this replaced parked ~250 more buffers (and ~600 KB) on
//! every `predict_with` call; each test here fails on it.
//!
//! CI runs this suite in release mode next to the serving stress tests
//! (under 5 s there). Debug builds — the plain `cargo test` pass — soak for
//! fewer iterations past the same warm-up mark, since an unoptimised forward
//! is ~30x slower.

use rn_autograd::Graph;
use rn_dataset::{generate, Dataset, GeneratorConfig, Sample};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_nn::loss::Loss;
use rn_nn::Layer;
use rn_serve::{ServeConfig, Service};
use routenet::compose::ComposedMegabatch;
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig, SamplePlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

// ---------------------------------------------------------------------------
// Per-thread allocation counter
// ---------------------------------------------------------------------------

thread_local! {
    /// Bytes this thread has requested from the allocator.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// Blocks this thread has requested (allocations and reallocations).
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Largest single block this thread has requested.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting per thread so tests running in parallel in
/// this binary do not see each other's traffic.
struct Counting;

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are being
    // torn down.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + size as u64));
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch only const-initialised, destructor-free
// thread locals, which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(bytes, largest block)` this thread allocated while running `f`.
fn allocations_of(f: impl FnOnce()) -> (u64, usize) {
    let before = ALLOCATED.with(Cell::get);
    LARGEST.with(|l| l.set(0));
    f();
    (ALLOCATED.with(Cell::get) - before, LARGEST.with(Cell::get))
}

/// Allocator calls this thread made while running `f`.
fn allocation_calls_of(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

fn dataset(topo: &rn_netgraph::Topology, n: usize, seed: u64) -> Dataset {
    let config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    generate(topo, &config, seed, n)
}

/// The serving benchmark's model (16 / 4 / 32) on four NSFNET scenarios.
/// Routing is randomised per sample, so the four plans differ in how many
/// paths are active at each sequence position — four different sets of
/// buffer shapes.
fn nsfnet_setup() -> (ExtendedRouteNet, Vec<SamplePlan>) {
    nsfnet_setup_at(ModelConfig {
        state_dim: 16,
        mp_iterations: 4,
        readout_hidden: 32,
        seed: 7,
        ..ModelConfig::default()
    })
}

/// [`nsfnet_setup`]'s four scenarios under a model of any size.
fn nsfnet_setup_at(config: ModelConfig) -> (ExtendedRouteNet, Vec<SamplePlan>) {
    let ds = dataset(&topologies::nsfnet_default(), 4, 20_260_928);
    let mut model = ExtendedRouteNet::new(config);
    model.fit_preprocessing(&ds, 5);
    let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let shape = |p: &SamplePlan| p.schedule.active_offsets.clone();
    assert!(
        plans.iter().any(|p| shape(p) != shape(&plans[0])),
        "the four plans must not all share one shape"
    );
    (model, plans)
}

/// `release` iterations in an optimised build, `debug` in an unoptimised one.
fn soak_len(release: usize, debug: usize) -> usize {
    if cfg!(debug_assertions) {
        debug
    } else {
        release
    }
}

/// One training cycle on a reset tape: bind, forward, MSE over the reliable
/// rows, backward.
fn train_cycle(g: &mut Graph, model: &ExtendedRouteNet, plan: &SamplePlan) {
    g.reset();
    let bound = model.bind(g);
    let pred = model.forward(g, &bound, plan);
    let reliable = g.gather_rows(pred, &plan.reliable_idx);
    let target = g.constant_with(plan.reliable_idx.len(), 1, |m| {
        for (t, &row) in m.as_mut_slice().iter_mut().zip(&plan.reliable_idx) {
            *t = plan.targets_norm.get(row, 0);
        }
    });
    let loss = Loss::Mse.apply(g, reliable, target);
    g.backward(loss);
    let grads = model.grads(g, &bound);
    assert!(grads.iter().all(|m| !m.has_non_finite()));
}

/// The three pool gauges of a tape, read together.
fn gauges(g: &Graph) -> (usize, usize, u64) {
    (g.pooled_buffers(), g.pooled_bytes(), g.pool_misses())
}

#[test]
fn inference_on_one_tape_reaches_a_fixed_footprint() {
    let (model, plans) = nsfnet_setup();
    let mut g = Graph::new();
    let mut warm = None;
    for call in 1..=soak_len(2_000, 300) {
        model.predict_with(&mut g, &plans[call % plans.len()]);
        if call == 50 {
            // Read on a reset tape, so the whole footprint is parked.
            g.reset();
            warm = Some(gauges(&g));
        }
    }
    g.reset();
    let (buffers, bytes, misses) = gauges(&g);
    assert!(buffers > 0 && bytes > 0, "a warm tape keeps its buffers");
    assert_eq!(
        warm,
        Some((buffers, bytes, misses)),
        "pool (buffers, bytes, misses) after call 50 vs after the last call"
    );
}

#[test]
fn training_cycles_on_one_tape_reach_a_fixed_footprint() {
    let (model, plans) = nsfnet_setup();
    // Single-sample plans and one 4-sample megabatch, interleaved: the tape
    // alternates between a large and four small working sets.
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let composed = ComposedMegabatch::compose(&parts).expect("uniform-width plans");
    let mut shapes: Vec<&SamplePlan> = plans.iter().collect();
    shapes.push(&composed.megabatch().plan);

    let mut g = Graph::new();
    let mut warm = None;
    for cycle in 1..=soak_len(200, 60) {
        train_cycle(&mut g, &model, shapes[cycle % shapes.len()]);
        if cycle == 50 {
            g.reset();
            warm = Some(gauges(&g));
        }
    }
    g.reset();
    let (buffers, bytes, misses) = gauges(&g);
    assert!(buffers > 0 && bytes > 0, "a warm tape keeps its buffers");
    assert_eq!(
        warm,
        Some((buffers, bytes, misses)),
        "pool (buffers, bytes, misses) after cycle 50 vs after the last cycle"
    );
}

#[test]
fn a_warm_training_tape_keeps_only_what_its_adjoints_read() {
    // The four scenarios as one megabatch under the paper-scale model
    // (32 / 8 / 64). The tape parks the saved GRU activations, the entity
    // states and projections the adjoints read, and the gradients; the path
    // state advances in place and each step reads its projection rows
    // through the entity ids (when it read a gathered copy, that copy went
    // back to the pool after the step: the same bytes parked). When it also
    // kept a copy of the path state and the gathered rows per sequence
    // position, it parked 58 184 204 bytes.
    const MEASURED_BYTES: usize = 27_767_308;
    let (model, plans) = nsfnet_setup_at(ModelConfig {
        seed: 7,
        ..ModelConfig::paper_scale()
    });
    let parts: Vec<&SamplePlan> = plans.iter().collect();
    let composed = ComposedMegabatch::compose(&parts).expect("uniform-width plans");
    let mut g = Graph::new();
    for _ in 0..2 {
        train_cycle(&mut g, &model, &composed.megabatch().plan);
    }
    g.reset();
    let bytes = g.pooled_bytes();
    assert!(
        bytes <= MEASURED_BYTES * 11 / 10,
        "{bytes} bytes parked in {} buffers, measured {MEASURED_BYTES}",
        g.pooled_buffers()
    );
}

#[test]
fn warm_predict_allocates_only_its_result_and_bookkeeping() {
    let (model, plans) = nsfnet_setup();
    let mut g = Graph::new();
    for call in 0..3 * plans.len() {
        model.predict_with(&mut g, &plans[call % plans.len()]);
    }
    for plan in &plans {
        let mut delays = Vec::new();
        let (bytes, largest) = allocations_of(|| delays = model.predict_with(&mut g, plan));
        assert_eq!(delays.len(), plan.n_paths);
        // The returned Vec<f64> plus per-op bookkeeping (the binding's
        // handle vectors). Every matrix comes from the pool.
        assert!(
            bytes < 8 * 1024,
            "warm predict_with allocated {bytes} bytes (largest block {largest})"
        );
        assert!(
            largest < 4 * 1024,
            "warm predict_with allocated a {largest}-byte block"
        );
    }
}

#[test]
fn serving_worker_tapes_reach_a_fixed_footprint() {
    let ds = dataset(&topologies::toy5(), 4, 20_260_929);
    let mut model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 8,
        mp_iterations: 2,
        readout_hidden: 8,
        seed: 3,
        ..ModelConfig::default()
    });
    model.fit_preprocessing(&ds, 5);
    let service = Service::start(
        model,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    let fingerprints: Vec<u64> = ds
        .samples
        .iter()
        .map(|s| handle.predict_sample(s).expect("register").1)
        .collect();
    let mut warm = None;
    for request in 1..=5_000 {
        let fp = fingerprints[request % fingerprints.len()];
        handle.predict_cached(fp).expect("cached predict");
        if request == 100 {
            let m = handle.metrics();
            warm = Some((m.tape_pool_bytes, m.tape_pool_misses));
        }
    }
    let m = handle.metrics();
    assert_eq!(m.errors + m.worker_panics + m.rejected, 0);
    assert!(m.tape_pool_bytes > 0, "the worker tape keeps its buffers");
    assert_eq!(
        warm,
        Some((m.tape_pool_bytes, m.tape_pool_misses)),
        "tape pool (bytes, misses) after request 100 vs after request 5000"
    );
    service.shutdown();
}

/// `from_str` reads a sample straight into its vectors and `to_string`
/// appends to one `String`: no `Value` node, key `String` or per-number
/// `String` in between. On this 32 KB sample the direct forms make 396
/// and 13 allocator calls; through the tree they made 3 379 (9.1x a
/// clone's 370) and 5 125. The model file `model_extended.json` (27 692
/// bytes) goes the same way and re-serialises to its own bytes: reading it
/// makes 90 allocator calls and writing it 13, a clone 25; when its layers
/// read and wrote through the tree, 349 and 202.
#[test]
fn json_reads_and_writes_a_sample_without_a_tree() {
    let ds = dataset(&topologies::nsfnet_default(), 1, 20_260_928);
    let sample = &ds.samples[0];
    let text = serde_json::to_string(sample).expect("a sample serializes");
    let clone = allocation_calls_of(|| drop(black_box(sample.clone())));
    let parse = allocation_calls_of(|| {
        let back: Sample = serde_json::from_str(black_box(&text)).expect("it parses back");
        drop(black_box(back));
    });
    let write = allocation_calls_of(|| {
        drop(black_box(
            serde_json::to_string(black_box(sample)).expect("infallible"),
        ));
    });
    assert!(
        parse <= 3 * clone,
        "from_str made {parse} allocator calls, a clone {clone} ({} bytes of text)",
        text.len()
    );
    assert!(write <= 32, "to_string made {write} allocator calls");

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/model_extended.json"
    );
    let text = std::fs::read_to_string(path).expect("read model_extended.json");
    let model: ExtendedRouteNet = serde_json::from_str(&text).expect("the model file parses");
    let clone = allocation_calls_of(|| drop(black_box(model.clone())));
    let parse = allocation_calls_of(|| {
        let back: ExtendedRouteNet = serde_json::from_str(black_box(&text)).expect("it parses");
        drop(black_box(back));
    });
    let write = allocation_calls_of(|| {
        drop(black_box(
            serde_json::to_string(black_box(&model)).expect("infallible"),
        ));
    });
    assert!(
        parse <= 4 * clone,
        "model file: from_str made {parse} allocator calls, a clone {clone}"
    );
    assert!(
        write <= 32,
        "model file: to_string made {write} allocator calls"
    );
    assert!(
        serde_json::to_string(&model).expect("infallible") == text,
        "the model file re-serialises to other bytes"
    );
}
