//! Criterion bench: RouteNet forward-pass latency per sample graph.
//!
//! The paper's pitch is that RouteNet matches simulator accuracy "with a very
//! low computational cost"; this bench quantifies that cost for both model
//! variants and both evaluation topologies, plus the fused megabatch path
//! that serves batched inference in production. The criterion stand-in
//! writes `BENCH_inference.json` (ns/op + throughput per variant, and under
//! `derived` the host's cores, the process's `peak_rss_mb` and what each
//! megabatch tape holds parked, `tape_pool_bytes/<topology>`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rn_dataset::{generate_sample, Dataset, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use routenet::entities::SamplePlan;
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig, OriginalRouteNet};

fn quick_gen() -> GeneratorConfig {
    GeneratorConfig {
        sim: SimConfig {
            duration_s: 60.0,
            warmup_s: 10.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    }
}

fn small_model() -> ModelConfig {
    ModelConfig {
        state_dim: 16,
        mp_iterations: 4,
        readout_hidden: 32,
        ..ModelConfig::default()
    }
}

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference");
    group.sample_size(10);
    // Bytes the megabatch tape of each topology keeps parked once reset.
    let mut tape_pool_bytes = Vec::new();
    for (name, topo) in [
        ("nsfnet", topologies::nsfnet_default()),
        ("geant2", topologies::geant2_default()),
    ] {
        let sample = generate_sample(&topo, &quick_gen(), 3, 0);
        let ds = Dataset {
            topology: topo.clone(),
            samples: vec![sample],
        };

        let mut ext = ExtendedRouteNet::new(small_model());
        ext.fit_preprocessing(&ds, 5);
        let plan_e = ext.plan(&ds.samples[0]);
        group.bench_with_input(BenchmarkId::new("extended", name), &plan_e, |b, plan| {
            b.iter(|| ext.predict(plan))
        });

        // Batched inference: 8 copies of the sample through one fused
        // block-diagonal pass on a pooled tape, as the evaluation path runs
        // it (per-sample cost is ns/op divided by 8).
        let batch: Vec<&SamplePlan> = vec![&plan_e; 8];
        let mut batch_tape = rn_autograd::Graph::new();
        group.bench_with_input(
            BenchmarkId::new("extended_megabatch8", name),
            &batch,
            |b, batch| b.iter(|| ext.predict_batch_with(&mut batch_tape, batch)),
        );

        batch_tape.reset();
        tape_pool_bytes.push((format!("tape_pool_bytes/{name}"), batch_tape.pooled_bytes()));

        let mut orig = OriginalRouteNet::new(small_model());
        orig.fit_preprocessing(&ds, 5);
        let plan_o = orig.plan(&ds.samples[0]);
        group.bench_with_input(BenchmarkId::new("original", name), &plan_o, |b, plan| {
            b.iter(|| orig.predict(plan))
        });
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut derived = vec![
        ("host_cores", cores as f64),
        ("peak_rss_mb", rn_bench::peak_rss_mb()),
    ];
    derived.extend(tape_pool_bytes.iter().map(|(k, v)| (k.as_str(), *v as f64)));
    group.finish_with_derived(&derived);
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
