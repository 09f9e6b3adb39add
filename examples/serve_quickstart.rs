//! Serving quickstart: stand up the concurrent inference service, drive it
//! in-process and over TCP, hot-swap the model, read the metrics.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```

use rn_serve::loadgen::{demo_scenarios, Client};
use rn_serve::{Request, Response, ServeConfig, Service, TcpServer};
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig};

fn main() {
    // 1. A model. Real deployments load one trained with `train_extended`
    //    via `routenet::persist::load_model`; the demo fits preprocessing on
    //    freshly generated scenarios and serves random weights.
    let (topology, samples) = demo_scenarios("nsfnet", 3, 60.0, 7).expect("scenarios");
    let ds = rn_dataset::Dataset { topology, samples };
    let mut model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 16,
        mp_iterations: 4,
        readout_hidden: 32,
        ..ModelConfig::default()
    });
    model.fit_preprocessing(&ds, 5);
    let swap_in = {
        let mut m = ExtendedRouteNet::new(ModelConfig {
            state_dim: 16,
            mp_iterations: 4,
            readout_hidden: 32,
            seed: 99,
            ..ModelConfig::default()
        });
        m.fit_preprocessing(&ds, 5);
        m
    };

    // 2. Start the service: admission queue, dynamic batcher, worker pool.
    let service = Service::start(model, ServeConfig::default());
    let handle = service.handle();

    // 3. In-process predictions: each sample is planned and its plan kept
    //    in the shared plan cache under the plan's fingerprint; requests
    //    flow through the dynamic batcher.
    let (delays, fingerprint) = handle.predict_sample(&ds.samples[0]).expect("predict");
    println!(
        "in-process: {} paths predicted, first delay {:.6}s, fingerprint {fingerprint:#018x}",
        delays.len(),
        delays[0]
    );
    let again = handle.predict_cached(fingerprint).expect("cached predict");
    assert_eq!(delays, again, "cache hit returns identical predictions");

    // 4. The same service over TCP (JSONL): register once, query by
    //    fingerprint from then on.
    let server = TcpServer::bind(service.handle(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    println!("tcp: listening on {addr}");
    let mut client = Client::connect(&addr).expect("connect");
    let plan_ref = client.register(&ds.samples[1]).expect("register");
    match client
        .round_trip(&Request::Cached {
            plan: plan_ref,
            deadline_ms: None,
        })
        .expect("cached request")
    {
        Response::Delays { delays_s, .. } => {
            println!("tcp: {} delays, first {:.6}s", delays_s.len(), delays_s[0])
        }
        other => panic!("unexpected response {other:?}"),
    }

    // 5. Hot-swap the model under load; in-flight batches finish on the old
    //    version, later requests see the new one.
    let version = handle.swap_model(swap_in);
    println!("hot-swapped to model version {version}");

    // 6. Service metrics: throughput, latency percentiles, batch occupancy,
    //    cache hit rate — plus worker count / version / uptime for
    //    dashboards that only speak the Metrics reply.
    let m = handle.metrics();
    println!(
        "metrics: {} completed, p50 {:.2}ms, occupancy {:.2}, cache hit rate {:.2}",
        m.completed, m.latency_p50_ms, m.mean_batch_occupancy, m.cache_hit_rate
    );
    println!(
        "server: {} workers, model v{}, up {:.1}s",
        m.workers, m.model_version, m.uptime_s
    );

    // 7. With RN_TRACE=1 the snapshot also carries the request-lifecycle
    //    stage breakdown (queue_wait / batch_assembly / compose / forward /
    //    reply); print it and mirror the full snapshot to one JSON line in
    //    serve_metrics.jsonl for dashboards and CI artifacts.
    for s in &m.stage_latency {
        println!(
            "stage {:>14}: n {:>4}  p50 {:.3}ms  p95 {:.3}ms  p99 {:.3}ms  total {:.3}ms",
            s.name, s.count, s.p50_ms, s.p95_ms, s.p99_ms, s.total_ms
        );
    }
    if rn_trace::enabled() {
        let path = "serve_metrics.jsonl";
        let line = serde_json::to_string(&m).expect("snapshot serializes");
        std::fs::write(path, line + "\n").expect("write metrics jsonl");
        println!("traced metrics snapshot written to {path}");
    }

    server.stop();
    service.shutdown();
}
