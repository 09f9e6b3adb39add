//! Serving benchmark: the load generator driven against the TCP frontend on
//! paper-scale topologies, three ways:
//!
//! 1. **direct predict loop** — in-process, pre-planned, one `predict` per
//!    request on one thread: the raw inference floor, no service anywhere.
//! 2. **naive single-request loop** — the pre-serving usage pattern over the
//!    wire: one connection, one request in flight, the full scenario JSON
//!    serialized, shipped, parsed and planned per query.
//! 3. **concurrent cached serving** — the intended pattern: clients register
//!    scenarios once, then stream fingerprint queries that hit the plan
//!    cache and ride shared dynamic batches.
//! 4. **overload at 2× queue capacity** — a deliberately starved service
//!    (one slowed worker, tiny admission queue) under twice its capacity in
//!    closed-loop clients: records the measured reject rate, retry rate and
//!    client-observed p99 while load shedding, plus the server's `rejected`
//!    counter — overload behavior as data, not as an assumption.
//!
//! Writes `BENCH_serving.json` (req/s for the first three, exact
//! client-side latency percentiles, batch occupancy, cache hit rate, the
//! overload row, the server's own metrics snapshot, `host_cores`, the bench
//! process's `peak_rss_mb` and a worker tape's `tape_pool_bytes`) alongside
//! the other BENCH artifacts.
//!
//! Knobs: `RN_SERVE_TOPOLOGY` (nsfnet|geant2), `RN_SERVE_SCENARIOS`,
//! `RN_SERVE_CLIENTS`, `RN_SERVE_REQUESTS` (per client),
//! `RN_SERVE_NAIVE_REQUESTS`, `RN_SERVE_OVERLOAD_QUEUE_CAPACITY`,
//! `RN_STATE_DIM`, `RN_MP_ITERS`, `RN_SERVE_SIM_DURATION_S`,
//! `BENCH_OUT_DIR`.

use rn_bench::{env_f64, env_usize};
use rn_dataset::Dataset;
use rn_serve::loadgen::demo_scenarios;
use rn_serve::{
    run_loadgen, ChaosPlan, LoadMode, LoadgenConfig, LoadgenReport, MetricsSnapshot, ServeConfig,
    Service, TcpServer,
};
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig, SamplePlan};
use serde::{Deserialize, Serialize};
use std::time::Instant;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchConfig {
    topology: String,
    scenarios: usize,
    clients: usize,
    requests_per_client: usize,
    naive_requests: usize,
    state_dim: usize,
    mp_iterations: usize,
    workers: usize,
    max_batch: usize,
    overload_queue_capacity: usize,
}

/// The overload phase's results: load shedding measured at 2× queue
/// capacity in offered closed-loop clients.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct OverloadReport {
    /// Clients offered (2× the overload service's queue capacity).
    offered_clients: usize,
    /// The overload service's admission-queue capacity.
    queue_capacity: usize,
    /// Fraction of wire attempts answered `Overloaded`.
    reject_rate: f64,
    /// Backoff retries per wire attempt.
    retry_rate: f64,
    /// Fraction of wire attempts answered `DeadlineExceeded`.
    timeout_rate: f64,
    /// Client-observed p99 (ms) under overload, backoff waits included.
    p99_ms: f64,
    /// Requests that ultimately succeeded (within the retry budget).
    requests: u64,
    /// Requests abandoned after exhausting retries.
    gave_up: u64,
    /// The overload server's `rejected` counter at the end of the phase.
    server_rejected: u64,
    /// The overload server's `deadline_expired` counter.
    server_deadline_expired: u64,
    /// Full client-side report for the phase.
    loadgen: LoadgenReport,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct ServingBenchReport {
    group: String,
    config: BenchConfig,
    /// In-process single-thread predict loop over pre-built plans (req/s).
    direct_predict_loop_rps: f64,
    /// TCP, 1 client, full scenario JSON per request.
    naive_single_request_loop: LoadgenReport,
    /// TCP, N clients, fingerprint queries through the plan cache.
    concurrent_cached: LoadgenReport,
    /// `concurrent_cached.rps / naive_single_request_loop.rps`.
    speedup_vs_naive_loop: f64,
    /// `concurrent_cached.rps / direct_predict_loop_rps`.
    speedup_vs_direct_loop: f64,
    /// Mean requests per dynamic batch during the concurrent phase only.
    serving_batch_occupancy: f64,
    /// Plan-cache hit rate over the whole run.
    cache_hit_rate: f64,
    /// Composition-cache hit rate: multi-request batches that reused a
    /// cached block-diagonal structure (feature refill only) instead of a
    /// fresh `build_megabatch`.
    compose_hit_rate: f64,
    /// Distinct multi-request batch shapes the run produced.
    distinct_batch_shapes: usize,
    /// Load-shedding behavior at 2× queue capacity (separate starved
    /// service instance; does not perturb the throughput phases above).
    overload_2x_capacity: OverloadReport,
    /// Cores the host offered the run (throughput scales with workers).
    host_cores: usize,
    /// High-water resident set of the whole bench process (MB): both
    /// services, the loadgen clients and the direct loop.
    peak_rss_mb: f64,
    /// `server_metrics.tape_pool_bytes`: what one worker tape holds parked.
    tape_pool_bytes: u64,
    /// The server's own counters at the end of the run.
    server_metrics: MetricsSnapshot,
}

/// Run a loadgen phase `n` times and keep the highest-throughput run —
/// both phases get the same treatment, damping scheduler noise on shared
/// build machines the way criterion's median-of-samples does.
fn best_of(n: usize, mut run: impl FnMut() -> LoadgenReport) -> LoadgenReport {
    let mut best: Option<LoadgenReport> = None;
    for _ in 0..n.max(1) {
        let r = run();
        if best.as_ref().map(|b| r.rps > b.rps).unwrap_or(true) {
            best = Some(r);
        }
    }
    best.expect("at least one run")
}

fn main() {
    let config = BenchConfig {
        topology: std::env::var("RN_SERVE_TOPOLOGY").unwrap_or_else(|_| "nsfnet".into()),
        scenarios: env_usize("RN_SERVE_SCENARIOS", 4),
        // Enough concurrency to keep batches >1 deep; more clients than
        // cores only adds scheduler churn to the measurement.
        clients: env_usize(
            "RN_SERVE_CLIENTS",
            2 * std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        ),
        requests_per_client: env_usize("RN_SERVE_REQUESTS", 48),
        naive_requests: env_usize("RN_SERVE_NAIVE_REQUESTS", 48),
        state_dim: env_usize("RN_STATE_DIM", 16),
        mp_iterations: env_usize("RN_MP_ITERS", 4),
        workers: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        max_batch: env_usize("RN_SERVE_MAX_BATCH", 8),
        overload_queue_capacity: env_usize("RN_SERVE_OVERLOAD_QUEUE_CAPACITY", 8),
    };
    let sim_s = env_f64("RN_SERVE_SIM_DURATION_S", 60.0);

    eprintln!(
        "[serving] generating {} {} scenarios ...",
        config.scenarios, config.topology
    );
    let (topology, samples) =
        demo_scenarios(&config.topology, config.scenarios, sim_s, 2019).expect("scenarios");
    let ds = Dataset {
        topology,
        samples: samples.clone(),
    };
    let mut model = ExtendedRouteNet::new(ModelConfig {
        state_dim: config.state_dim,
        mp_iterations: config.mp_iterations,
        readout_hidden: 2 * config.state_dim,
        ..ModelConfig::default()
    });
    model.fit_preprocessing(&ds, 5);

    // ---- 1. direct in-process predict loop --------------------------------
    let plans: Vec<SamplePlan> = samples.iter().map(|s| model.plan(s)).collect();
    let direct_requests = config.clients * config.requests_per_client;
    // Warm up kernels and the allocator before timing.
    for p in &plans {
        std::hint::black_box(model.predict(p));
    }
    let t0 = Instant::now();
    for i in 0..direct_requests {
        std::hint::black_box(model.predict(&plans[i % plans.len()]));
    }
    let direct_predict_loop_rps = direct_requests as f64 / t0.elapsed().as_secs_f64();
    eprintln!("[serving] direct predict loop: {direct_predict_loop_rps:.1} req/s");

    // ---- service under test ----------------------------------------------
    let overload_model = model.clone();
    let service = Service::start(
        model,
        ServeConfig {
            workers: config.workers,
            max_batch: config.max_batch,
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    let server = TcpServer::bind(service.handle(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    // ---- 2. naive single-request loop -------------------------------------
    eprintln!(
        "[serving] naive single-request loop ({} requests) ...",
        config.naive_requests
    );
    let naive = best_of(env_usize("RN_SERVE_RUNS", 2), || {
        run_loadgen(
            &LoadgenConfig {
                clients: 1,
                requests_per_client: config.naive_requests,
                mode: LoadMode::Naive,
                ..LoadgenConfig::new(addr.clone())
            },
            &samples,
        )
        .expect("naive loadgen")
    });
    eprintln!(
        "[serving] naive: {:.1} req/s, p50 {:.2} ms",
        naive.rps, naive.latency.p50_ms
    );
    let after_naive = handle.metrics();

    // ---- 3. concurrent cached serving --------------------------------------
    eprintln!(
        "[serving] concurrent cached ({} clients x {} requests) ...",
        config.clients, config.requests_per_client
    );
    let cached = best_of(env_usize("RN_SERVE_RUNS", 2), || {
        run_loadgen(
            &LoadgenConfig {
                clients: config.clients,
                requests_per_client: config.requests_per_client,
                mode: LoadMode::Cached,
                ..LoadgenConfig::new(addr.clone())
            },
            &samples,
        )
        .expect("cached loadgen")
    });
    eprintln!(
        "[serving] cached: {:.1} req/s, p50 {:.2} ms, p99 {:.2} ms",
        cached.rps, cached.latency.p50_ms, cached.latency.p99_ms
    );
    let server_metrics = handle.metrics();

    // Occupancy of the concurrent phase alone (deltas against the naive
    // phase, whose one-in-flight client pins occupancy to ~1).
    let d_completed = server_metrics
        .completed
        .saturating_sub(after_naive.completed);
    let d_batches = server_metrics.batches.saturating_sub(after_naive.batches);
    let serving_batch_occupancy = if d_batches > 0 {
        d_completed as f64 / d_batches as f64
    } else {
        0.0
    };

    // ---- 4. overload at 2x queue capacity ----------------------------------
    // A separate, deliberately starved instance: one worker slowed by an
    // injected ~1.5 ms batch delay and a tiny admission queue, offered twice
    // its queue capacity in closed-loop clients. This guarantees real load
    // shedding so the reject/retry/p99 numbers measure the backpressure
    // path, not an idle queue.
    let overload_capacity = config.overload_queue_capacity.max(1);
    let overload_clients = 2 * overload_capacity;
    eprintln!(
        "[serving] overload: {} clients against queue capacity {} ...",
        overload_clients, overload_capacity
    );
    let overload_service = Service::start(
        overload_model,
        ServeConfig {
            workers: 1,
            max_batch: 2,
            queue_capacity: overload_capacity,
            chaos: ChaosPlan::none()
                .with_batch_delay(std::time::Duration::from_micros(1_500))
                .with_seed(2019),
            ..ServeConfig::default()
        },
    );
    let overload_handle = overload_service.handle();
    let overload_server =
        TcpServer::bind(overload_service.handle(), "127.0.0.1:0").expect("bind overload");
    let overload_loadgen = run_loadgen(
        &LoadgenConfig {
            clients: overload_clients,
            requests_per_client: env_usize("RN_SERVE_OVERLOAD_REQUESTS", 32),
            mode: LoadMode::Cached,
            max_retries: 4,
            backoff_base_ms: 2,
            ..LoadgenConfig::new(overload_server.local_addr().to_string())
        },
        &samples,
    )
    .expect("overload loadgen");
    let overload_server_metrics = overload_handle.metrics();
    overload_server.stop();
    overload_service.shutdown();
    eprintln!(
        "[serving] overload: reject rate {:.3}, retry rate {:.3}, p99 {:.2} ms, \
         {} server-side rejects",
        overload_loadgen.reject_rate,
        overload_loadgen.retry_rate,
        overload_loadgen.latency.p99_ms,
        overload_server_metrics.rejected
    );
    let overload_2x_capacity = OverloadReport {
        offered_clients: overload_clients,
        queue_capacity: overload_capacity,
        reject_rate: overload_loadgen.reject_rate,
        retry_rate: overload_loadgen.retry_rate,
        timeout_rate: overload_loadgen.timeout_rate,
        p99_ms: overload_loadgen.latency.p99_ms,
        requests: overload_loadgen.requests,
        gave_up: overload_loadgen.gave_up,
        server_rejected: overload_server_metrics.rejected,
        server_deadline_expired: overload_server_metrics.deadline_expired,
        loadgen: overload_loadgen,
    };

    let report = ServingBenchReport {
        group: "serving".into(),
        speedup_vs_naive_loop: if naive.rps > 0.0 {
            cached.rps / naive.rps
        } else {
            0.0
        },
        speedup_vs_direct_loop: if direct_predict_loop_rps > 0.0 {
            cached.rps / direct_predict_loop_rps
        } else {
            0.0
        },
        serving_batch_occupancy,
        cache_hit_rate: server_metrics.cache_hit_rate,
        compose_hit_rate: server_metrics.compose_hit_rate,
        distinct_batch_shapes: server_metrics.batch_shapes.len(),
        overload_2x_capacity,
        config,
        direct_predict_loop_rps,
        naive_single_request_loop: naive,
        concurrent_cached: cached,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        peak_rss_mb: rn_bench::peak_rss_mb(),
        tape_pool_bytes: server_metrics.tape_pool_bytes,
        server_metrics,
    };

    server.stop();
    service.shutdown();

    let out_dir = std::env::var("BENCH_OUT_DIR")
        .unwrap_or_else(|_| format!("{}/../..", env!("CARGO_MANIFEST_DIR")));
    let path = std::path::Path::new(&out_dir).join("BENCH_serving.json");
    std::fs::write(&path, serde_json::to_string(&report).expect("serialize"))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!(
        "[serving] speedup vs naive loop: {:.2}x (occupancy {:.2}, plan cache hit rate {:.2}, \
         composition hit rate {:.2} over {} shapes) -> {}",
        report.speedup_vs_naive_loop,
        report.serving_batch_occupancy,
        report.cache_hit_rate,
        report.compose_hit_rate,
        report.distinct_batch_shapes,
        path.display()
    );
}
