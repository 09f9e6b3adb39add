//! Tracing-off overhead smoke test: with `RN_TRACE` unset every span in
//! the hot path costs one relaxed atomic load and an `Option` branch —
//! no clock read, no allocation. This pins that claim end-to-end: the
//! measured unit cost of a disabled span, multiplied by a bound on spans
//! per training step far above what the trainer and tape actually place,
//! must stay under 2% of a measured training-step time.
//!
//! The per-unit formulation is deliberate: differencing two full step
//! timings (traced-off vs untraced build) cannot resolve a sub-percent
//! effect on a shared runner, while the unit cost × generous count is a
//! strict upper bound on the same quantity and is stable.
//!
//! Both timings are the minimum over five rounds, each round one span loop
//! then one step, so a burst of load on the host lands on both or on one
//! round of either. Contention only ever inflates a timing, so the minimum
//! is the closest reading of the cost itself, and taking it for numerator
//! and denominator alike keeps the ratio honest.

use rn_autograd::Graph;
use rn_dataset::{generate, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_nn::Layer;
use routenet::entities::build_megabatch;
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig};
use std::hint::black_box;
use std::time::Instant;

/// Slack multiplier on the measured spans-per-step count: the trainer
/// places five stage spans per step, and each tape node one forward span
/// (its recording method) and at most one backward `OpSpan`, so
/// `2 · tape_len + 5` is already an upper bound — 8x covers any future
/// instrumentation and then some.
const SPAN_COUNT_SLACK: f64 = 8.0;

#[test]
fn disabled_tracing_overhead_is_under_two_percent_of_a_training_step() {
    if cfg!(debug_assertions) {
        eprintln!("trace_overhead: skipped in debug builds (release-only smoke test)");
        return;
    }
    rn_trace::set_enabled(false);

    // A real training step at the test suite's toy scale: fused megabatch
    // forward + backward.
    let ds = generate(
        &topologies::nsfnet_default(),
        &GeneratorConfig {
            sim: SimConfig {
                duration_s: 30.0,
                warmup_s: 5.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        },
        20_260_808,
        4,
    );
    let mut model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 16,
        mp_iterations: 3,
        readout_hidden: 16,
        seed: 3,
        ..ModelConfig::default()
    });
    model.fit_preprocessing(&ds, 5);
    let plans: Vec<_> = ds.samples.iter().map(|s| model.plan(s)).collect();
    let plan_refs: Vec<_> = plans.iter().collect();
    let mb = build_megabatch(&plan_refs);
    let recorder = rn_trace::StageRecorder::new(&["probe"]);
    let (mut unit_ns, mut step_ns, mut tape_len) = (f64::INFINITY, f64::INFINITY, 0);
    for round in 0..5 {
        // Unit cost of a disabled span: one tight loop.
        const N: u32 = 1_000_000;
        let t = Instant::now();
        for _ in 0..N {
            black_box(recorder.span(black_box(0)));
        }
        let span_ns = t.elapsed().as_secs_f64() * 1e9 / f64::from(N);

        let t = Instant::now();
        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        let pred = model.forward(&mut g, &bound, &mb.plan);
        let reliable = g.gather_rows(pred, &mb.plan.reliable_idx);
        let target = g.constant(mb.plan.reliable_targets_norm());
        let loss = g.mse(reliable, target);
        g.backward(loss);
        black_box(g.value(loss));
        let run_ns = t.elapsed().as_secs_f64() * 1e9;
        tape_len = g.len();

        eprintln!(
            "trace_overhead: round {round}: disabled span {span_ns:.2} ns, step {:.3} ms",
            run_ns / 1e6
        );
        unit_ns = unit_ns.min(span_ns);
        step_ns = step_ns.min(run_ns);
    }

    // One forward span and one backward OpSpan per tape node, five trainer
    // stage spans per step, times the slack factor.
    let spans_per_step = (2.0 * tape_len as f64 + 5.0) * SPAN_COUNT_SLACK;
    let overhead_pct = unit_ns * spans_per_step / step_ns * 100.0;
    eprintln!(
        "trace_overhead: min disabled span {unit_ns:.2} ns, min step {:.2} ms \
         ({tape_len} tape nodes), bounded overhead {overhead_pct:.3}% (limit 2%)",
        step_ns / 1e6
    );
    assert!(
        overhead_pct < 2.0,
        "disabled-tracing overhead bound {overhead_pct:.3}% exceeds 2% \
         (span {unit_ns:.2} ns x {spans_per_step} spans vs step {step_ns:.0} ns)"
    );
}
