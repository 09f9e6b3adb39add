//! Fault-tolerance suite: the service must keep answering — with
//! bitwise-identical predictions for surviving requests — through injected
//! worker panics, worker kills, queue overload, expired deadlines, dropped
//! connections and malformed frames.
//!
//! The invariant every test enforces: **zero lost replies**. Every
//! submitted request is answered, either with its exact prediction or with
//! a structured error — never silence, never a process abort. Every test
//! builds its `ChaosPlan` in code; CI also runs the suite in release mode.

use rn_dataset::{generate, Dataset, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_serve::loadgen::{run_loadgen, Client, LoadMode, LoadgenConfig};
use rn_serve::{ChaosPlan, Request, Response, ServeConfig, ServeError, Service, TcpServer};
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig, SamplePlan};
use std::sync::Arc;
use std::time::Duration;

fn toy_dataset(n: usize, seed: u64) -> Dataset {
    let config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 60.0,
            warmup_s: 10.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    generate(&topologies::toy5(), &config, seed, n)
}

fn fitted_model(ds: &Dataset, weight_seed: u64) -> ExtendedRouteNet {
    let mut model = ExtendedRouteNet::new(ModelConfig {
        state_dim: 8,
        mp_iterations: 2,
        readout_hidden: 8,
        seed: weight_seed,
        ..ModelConfig::default()
    });
    model.fit_preprocessing(ds, 5);
    model
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Every request is answered (zero lost replies), the answered predictions
/// are bitwise identical to the direct references, and panicking batches
/// surface as `WorkerPanic` errors — through injected every-3rd-batch
/// panics.
#[test]
fn injected_batch_panics_become_error_replies_not_aborts() {
    let ds = toy_dataset(2, 51);
    let model = fitted_model(&ds, 1);
    let plans: Vec<Arc<SamplePlan>> = ds.samples.iter().map(|s| Arc::new(model.plan(s))).collect();
    let reference: Vec<Vec<u64>> = plans.iter().map(|p| bits(&model.predict(p))).collect();

    let service = Service::start(
        model,
        ServeConfig {
            workers: 2,
            max_batch: 2,
            chaos: ChaosPlan::none().with_panic_every(3),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();

    const CLIENTS: usize = 3;
    const REQUESTS: usize = 20;
    let (oks, panics) = std::thread::scope(|s| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = handle.clone();
                let plans = &plans;
                let reference = &reference;
                s.spawn(move || {
                    let (mut oks, mut panics) = (0u64, 0u64);
                    for i in 0..REQUESTS {
                        let pick = (c + i) % plans.len();
                        // Every submission must get SOME reply; recv inside
                        // predict_plan would hang forever on a lost one.
                        match handle.predict_plan(Arc::clone(&plans[pick])) {
                            Ok(got) => {
                                assert_eq!(
                                    bits(&got),
                                    reference[pick],
                                    "surviving request {i} of client {c} changed bits"
                                );
                                oks += 1;
                            }
                            Err(ServeError::WorkerPanic) => panics += 1,
                            Err(other) => panic!("unexpected error: {other:?}"),
                        }
                    }
                    (oks, panics)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client"))
            .fold((0u64, 0u64), |(a, b), (c, d)| (a + c, b + d))
    });

    assert_eq!(oks + panics, (CLIENTS * REQUESTS) as u64, "lost replies");
    assert!(panics > 0, "every-3rd-batch chaos must have fired");
    assert!(oks > 0, "some requests must survive between injections");
    let m = handle.metrics();
    assert!(m.worker_panics > 0, "panics must be counted");
    assert_eq!(m.errors, panics, "each panicked request counts one error");
    assert_eq!(m.completed, oks);
    // The service is still fully operational after all that.
    let after = handle
        .predict_plan(Arc::clone(&plans[0]))
        .or_else(|_| handle.predict_plan(Arc::clone(&plans[0])))
        .or_else(|_| handle.predict_plan(Arc::clone(&plans[0])))
        .expect("service must keep serving after injected panics");
    assert_eq!(bits(&after), reference[0]);
    service.shutdown();
}

/// Worker kills fire between batches (no request held), so every request
/// succeeds with exact bits while the supervisor respawns the loop — zero
/// lost replies AND zero errors.
#[test]
fn injected_worker_kills_respawn_without_losing_requests() {
    let ds = toy_dataset(2, 53);
    let model = fitted_model(&ds, 1);
    let plans: Vec<Arc<SamplePlan>> = ds.samples.iter().map(|s| Arc::new(model.plan(s))).collect();
    let reference: Vec<Vec<u64>> = plans.iter().map(|p| bits(&model.predict(p))).collect();

    let service = Service::start(
        model,
        ServeConfig {
            workers: 2,
            max_batch: 2,
            chaos: ChaosPlan::none().with_kill_every(4),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();

    const REQUESTS: usize = 60;
    for i in 0..REQUESTS {
        let pick = i % plans.len();
        let got = handle
            .predict_plan(Arc::clone(&plans[pick]))
            .expect("kills must never fail a request");
        assert_eq!(bits(&got), reference[pick], "request {i} changed bits");
    }
    let m = handle.metrics();
    assert_eq!(m.completed, REQUESTS as u64);
    assert_eq!(m.errors, 0, "between-batch kills must not error requests");
    assert!(
        m.worker_restarts > 0,
        "every-4th-iteration kills must have respawned workers"
    );
    service.shutdown();
}

/// Satellite: fill the admission queue past capacity → `Overloaded` replies
/// with a usable hint and a nonzero `rejected` counter; once the queue
/// drains, acceptance recovers to 100%.
#[test]
fn load_shedding_rejects_past_capacity_and_recovers_fully() {
    let ds = toy_dataset(1, 57);
    let model = fitted_model(&ds, 1);
    let plan = Arc::new(model.plan(&ds.samples[0]));
    let reference = bits(&model.predict(&plan));

    // One worker slowed hard by chaos delay + a tiny queue: hammering it
    // concurrently guarantees the queue fills past capacity.
    let service = Service::start(
        model,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_capacity: 2,
            chaos: ChaosPlan::none().with_batch_delay(Duration::from_millis(5)),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();

    const CLIENTS: usize = 8;
    const REQUESTS: usize = 6;
    let (oks, sheds) = std::thread::scope(|s| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let handle = handle.clone();
                let plan = Arc::clone(&plan);
                let reference = &reference;
                s.spawn(move || {
                    let (mut oks, mut sheds) = (0u64, 0u64);
                    for _ in 0..REQUESTS {
                        match handle.predict_plan(Arc::clone(&plan)) {
                            Ok(got) => {
                                assert_eq!(&bits(&got), reference);
                                oks += 1;
                            }
                            Err(ServeError::Overloaded { retry_after_ms }) => {
                                assert!(
                                    (1..=1000).contains(&retry_after_ms),
                                    "hint must be usable: {retry_after_ms}"
                                );
                                sheds += 1;
                            }
                            Err(other) => panic!("unexpected error: {other:?}"),
                        }
                    }
                    (oks, sheds)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client"))
            .fold((0u64, 0u64), |(a, b), (c, d)| (a + c, b + d))
    });
    assert_eq!(oks + sheds, (CLIENTS * REQUESTS) as u64, "lost replies");
    assert!(sheds > 0, "8 clients against capacity 2 must shed load");
    let m = handle.metrics();
    assert_eq!(m.rejected, sheds, "rejected counter must match the replies");
    assert_eq!(m.completed, oks);

    // Recovery: with the stampede over and the queue drained, sequential
    // submissions are accepted 100% again.
    for _ in 0..10 {
        let got = handle
            .predict_plan(Arc::clone(&plan))
            .expect("acceptance must fully recover after the queue drains");
        assert_eq!(bits(&got), reference);
    }
    assert_eq!(
        handle.metrics().rejected,
        sheds,
        "no rejects after recovery"
    );
    service.shutdown();
}

/// An already-expired deadline is answered `DeadlineExceeded` before any
/// forward work; requests without deadlines are untouched.
#[test]
fn expired_deadlines_are_shed_before_forward_work() {
    let ds = toy_dataset(1, 59);
    let model = fitted_model(&ds, 1);
    let plan = Arc::new(model.plan(&ds.samples[0]));
    let reference = bits(&model.predict(&plan));
    let service = Service::start(
        model,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();

    // A zero budget expires by the time the batcher looks at it.
    match handle.predict_plan_with_deadline(Arc::clone(&plan), Some(Duration::ZERO)) {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // A generous budget and no budget both succeed with exact bits.
    let got = handle
        .predict_plan_with_deadline(Arc::clone(&plan), Some(Duration::from_secs(30)))
        .expect("generous deadline");
    assert_eq!(bits(&got), reference);
    let got = handle.predict_plan(Arc::clone(&plan)).expect("no deadline");
    assert_eq!(bits(&got), reference);
    let m = handle.metrics();
    assert_eq!(m.deadline_expired, 1);
    assert_eq!(m.completed, 2);
    service.shutdown();
}

/// A client disconnecting mid-flight neither aborts the service nor
/// perturbs other clients' bits.
#[test]
fn client_disconnect_mid_flight_leaves_other_clients_exact() {
    let ds = toy_dataset(2, 61);
    let model = fitted_model(&ds, 1);
    let reference: Vec<Vec<u64>> = ds
        .samples
        .iter()
        .map(|s| bits(&model.predict(&model.plan(s))))
        .collect();
    let service = Service::start(
        model,
        ServeConfig {
            workers: 2,
            flush_deadline: Duration::from_millis(2),
            ..ServeConfig::default()
        },
    );
    let server = TcpServer::bind(service.handle(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    // Rude clients: send a request, slam the connection without reading.
    for _ in 0..5 {
        let mut rude = Client::connect(&addr).expect("connect");
        let line = serde_json::to_string(&Request::Predict {
            sample: ds.samples[0].clone(),
            deadline_ms: None,
        })
        .unwrap();
        // Fire-and-forget; drop closes the socket mid-flight.
        let _ = rude.round_trip_line_fire_and_forget(&line);
        drop(rude);
    }
    // A polite client gets exact answers throughout.
    let mut polite = Client::connect(&addr).expect("connect");
    for (i, sample) in ds.samples.iter().enumerate() {
        match polite
            .round_trip(&Request::Predict {
                sample: sample.clone(),
                deadline_ms: None,
            })
            .expect("polite client")
        {
            Response::Delays { delays_s, .. } => assert_eq!(bits(&delays_s), reference[i]),
            other => panic!("expected Delays, got {other:?}"),
        }
    }
    server.stop();
    service.shutdown();
}

/// Chaos connection drops are counted and survivable: the loadgen's
/// reconnect-and-retry layer rides through every-2nd-connection drops and
/// still lands exact predictions.
#[test]
fn injected_connection_drops_are_counted_and_retried_through() {
    let ds = toy_dataset(1, 63);
    let model = fitted_model(&ds, 1);
    let service = Service::start(
        model,
        ServeConfig {
            workers: 1,
            chaos: ChaosPlan::none().with_drop_conn_every(5),
            ..ServeConfig::default()
        },
    );
    let server = TcpServer::bind(service.handle(), "127.0.0.1:0").expect("bind");
    let handle = service.handle();
    let report = run_loadgen(
        &LoadgenConfig {
            clients: 2,
            requests_per_client: 12,
            mode: LoadMode::Naive,
            max_retries: 6,
            ..LoadgenConfig::new(server.local_addr().to_string())
        },
        &ds.samples,
    )
    .expect("loadgen through connection drops");
    assert!(
        report.requests > 0,
        "requests must succeed between injected drops"
    );
    assert!(report.retries > 0, "drops must have forced retries");
    assert!(
        handle.metrics().conn_drops > 0,
        "injected drops must be counted"
    );
    server.stop();
    service.shutdown();
}

/// Hot-swap during chaos: every successful reply is bitwise one of the two
/// model versions, never a blend, even while batches panic around it.
#[test]
fn hot_swap_under_chaos_keeps_replies_bitwise_one_version() {
    let ds = toy_dataset(2, 67);
    let model_a = fitted_model(&ds, 1);
    let model_b = fitted_model(&ds, 2);
    let plans: Vec<Arc<SamplePlan>> = ds
        .samples
        .iter()
        .map(|s| Arc::new(model_a.plan(s)))
        .collect();
    let expected_a: Vec<Vec<u64>> = plans.iter().map(|p| bits(&model_a.predict(p))).collect();
    let expected_b: Vec<Vec<u64>> = plans.iter().map(|p| bits(&model_b.predict(p))).collect();

    let service = Service::start(
        model_a,
        ServeConfig {
            workers: 2,
            max_batch: 2,
            flush_deadline: Duration::from_millis(1),
            chaos: ChaosPlan::none().with_panic_every(5),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    std::thread::scope(|s| {
        for c in 0..3usize {
            let handle = handle.clone();
            let plans = &plans;
            let (expected_a, expected_b) = (&expected_a, &expected_b);
            s.spawn(move || {
                for i in 0..20 {
                    let pick = (c + i) % plans.len();
                    match handle.predict_plan(Arc::clone(&plans[pick])) {
                        Ok(got) => {
                            let got = bits(&got);
                            assert!(
                                got == expected_a[pick] || got == expected_b[pick],
                                "client {c} request {i}: bits match neither version"
                            );
                        }
                        Err(ServeError::WorkerPanic) => {}
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(3));
        let swapper = handle.clone();
        s.spawn(move || swapper.swap_model(model_b));
    });
    assert_eq!(handle.model_version(), 2);
    service.shutdown();
}

/// Satellite: malformed JSON, binary garbage (invalid UTF-8) and unknown
/// request shapes each get a structured error line and the connection
/// keeps working.
#[test]
fn malformed_frames_get_structured_errors_and_the_connection_survives() {
    let ds = toy_dataset(1, 71);
    let model = fitted_model(&ds, 1);
    let reference = bits(&model.predict(&model.plan(&ds.samples[0])));
    let service = Service::start(model, ServeConfig::default());
    let server = TcpServer::bind(service.handle(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    // Malformed JSON.
    match client.round_trip_line("{not json").expect("reply") {
        Response::Error { message } => assert!(message.contains("bad request"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // Unknown request shape.
    match client
        .round_trip_line("{\"Reboot\": {\"now\": true}}")
        .expect("reply")
    {
        Response::Error { .. } => {}
        other => panic!("expected Error, got {other:?}"),
    }
    // Binary garbage — invalid UTF-8 must be *answered*, not dropped.
    match client
        .round_trip_bytes(&[0xff, 0xfe, 0x80, b'\n'])
        .expect("reply to binary garbage")
    {
        Response::Error { message } => assert!(message.contains("UTF-8"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    // The same connection still serves real requests, bit-exactly.
    match client
        .round_trip(&Request::Predict {
            sample: ds.samples[0].clone(),
            deadline_ms: None,
        })
        .expect("predict after garbage")
    {
        Response::Delays { delays_s, .. } => assert_eq!(bits(&delays_s), reference),
        other => panic!("expected Delays, got {other:?}"),
    }
    server.stop();
    service.shutdown();
}

/// Overload over TCP: the structured `Overloaded {retry_after_ms}` reply
/// reaches the wire, the loadgen's backoff retries through it, and the
/// report records the reject and retry rates.
#[test]
fn tcp_overload_yields_structured_backpressure_and_retry_success() {
    let ds = toy_dataset(1, 73);
    let model = fitted_model(&ds, 1);
    let service = Service::start(
        model,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_capacity: 2,
            chaos: ChaosPlan::none().with_batch_delay(Duration::from_millis(2)),
            ..ServeConfig::default()
        },
    );
    let server = TcpServer::bind(service.handle(), "127.0.0.1:0").expect("bind");
    let handle = service.handle();
    let report = run_loadgen(
        &LoadgenConfig {
            clients: 8,
            requests_per_client: 8,
            mode: LoadMode::Cached,
            max_retries: 8,
            backoff_base_ms: 1,
            ..LoadgenConfig::new(server.local_addr().to_string())
        },
        &ds.samples,
    )
    .expect("overload loadgen");
    assert!(report.rejected > 0, "8 clients vs capacity 2 must shed");
    assert!(report.retries > 0, "shed requests must retry");
    assert!(report.reject_rate > 0.0 && report.reject_rate < 1.0);
    assert!(report.requests > 0, "retries must eventually land requests");
    assert!(handle.metrics().rejected > 0, "server must count rejects");
    server.stop();
    service.shutdown();
}

/// Satellite: an unreachable server is a clean `Err` from `run_loadgen`
/// (the binary maps it to a nonzero exit), never a panic.
#[test]
fn loadgen_against_unreachable_server_errors_cleanly() {
    // Bind-then-drop: the port existed a moment ago and now refuses.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        l.local_addr().expect("addr").port()
    };
    let ds = toy_dataset(1, 79);
    let config = LoadgenConfig {
        clients: 2,
        requests_per_client: 1,
        ..LoadgenConfig::new(format!("127.0.0.1:{port}"))
    };
    let err = run_loadgen(&config, &ds.samples).expect_err("must fail cleanly");
    assert!(err.contains("connect"), "readable cause, got: {err}");
}

/// Full-stack chaos soak: panics + kills + delays + connection drops all at
/// once over TCP, loadgen riding through with retries — the service must
/// end the run alive, having answered every surviving request exactly.
#[test]
fn combined_chaos_soak_keeps_the_service_answering() {
    let ds = toy_dataset(2, 83);
    let model = fitted_model(&ds, 1);
    let service = Service::start(
        model,
        ServeConfig {
            workers: 2,
            max_batch: 2,
            flush_deadline: Duration::from_micros(500),
            chaos: ChaosPlan::none()
                .with_panic_every(7)
                .with_kill_every(11)
                .with_batch_delay(Duration::from_micros(200))
                .with_drop_conn_every(9)
                .with_seed(2019),
            ..ServeConfig::default()
        },
    );
    let server = TcpServer::bind(service.handle(), "127.0.0.1:0").expect("bind");
    let handle = service.handle();
    let report = run_loadgen(
        &LoadgenConfig {
            clients: 4,
            requests_per_client: 24,
            // Naive mode: no registration round-trips, so an injected
            // connection drop during setup can't fail a client before the
            // retry loop even starts.
            mode: LoadMode::Naive,
            max_retries: 10,
            backoff_base_ms: 1,
            ..LoadgenConfig::new(server.local_addr().to_string())
        },
        &ds.samples,
    )
    .expect("loadgen under combined chaos");
    assert!(
        report.requests > 0,
        "the service must keep answering under combined chaos"
    );
    // Liveness after the storm: a fresh client gets a clean prediction.
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    let mut alive = false;
    for _ in 0..5 {
        match client.round_trip(&Request::Predict {
            sample: ds.samples[0].clone(),
            deadline_ms: None,
        }) {
            Ok(Response::Delays { .. }) => {
                alive = true;
                break;
            }
            // A chaos drop or injected panic on this very attempt: reconnect
            // and try again.
            _ => client = Client::connect(&server.local_addr().to_string()).expect("reconnect"),
        }
    }
    assert!(alive, "service must still answer after the chaos soak");
    let m = handle.metrics();
    assert!(
        m.worker_panics + m.worker_restarts > 0,
        "the soak must actually have injected failures"
    );
    server.stop();
    service.shutdown();
}
