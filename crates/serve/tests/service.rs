//! Integration tests for the serving subsystem: bitwise equivalence under
//! concurrency, plan-cache behavior, hot-swap under load, and the TCP
//! protocol.

use rn_dataset::{generate, Dataset, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_nn::Layer;
use rn_serve::loadgen::Client;
use rn_serve::server::MAX_REQUEST_LINE_BYTES;
use rn_serve::{Request, Response, ServeConfig, ServeError, Service, TcpServer};
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig, SamplePlan};
use std::env;
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

#[test]
fn serving_is_bitwise_identical_to_predict_batch_under_concurrency() {
    let ds = toy_dataset(3, 11);
    let model = fitted_model(&ds, 1);
    let plans: Vec<Arc<SamplePlan>> = ds.samples.iter().map(|s| Arc::new(model.plan(s))).collect();
    // The reference: direct single-threaded predict_batch, one plan at a
    // time AND all plans together — both must agree with the served result.
    let singly: Vec<Vec<u64>> = plans
        .iter()
        .map(|p| bits(&model.predict_batch(std::slice::from_ref(p.as_ref()))[0]))
        .collect();
    let owned: Vec<SamplePlan> = plans.iter().map(|p| (**p).clone()).collect();
    let together = model.predict_batch(&owned);
    for (one, all) in singly.iter().zip(&together) {
        assert_eq!(one, &bits(all), "megabatch grouping must not perturb bits");
    }

    let service = Service::start(
        model,
        ServeConfig {
            workers: 2,
            max_batch: 4,
            // A generous deadline forces real multi-request batches to form
            // while clients hammer the queue.
            flush_deadline: Duration::from_millis(10),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 16;
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let handle = handle.clone();
            let plans = &plans;
            let singly = &singly;
            s.spawn(move || {
                for i in 0..REQUESTS {
                    let pick = (c + i) % plans.len();
                    let got = handle
                        .predict_plan(Arc::clone(&plans[pick]))
                        .expect("serve predict");
                    assert_eq!(
                        bits(&got),
                        singly[pick],
                        "client {c} request {i}: served bits diverged"
                    );
                }
            });
        }
    });

    let m = handle.metrics();
    assert_eq!(m.completed, (CLIENTS * REQUESTS) as u64);
    assert_eq!(m.errors, 0);
    assert!(
        m.batches < m.completed,
        "dynamic batching must have grouped requests: {} batches for {} requests",
        m.batches,
        m.completed
    );
    assert!(m.mean_batch_occupancy > 1.0, "{}", m.mean_batch_occupancy);
    service.shutdown();
}

#[test]
fn deadline_batches_coincident_requests_together() {
    let ds = toy_dataset(1, 13);
    let model_a = fitted_model(&ds, 1);
    let model_b = fitted_model(&ds, 2);
    let plan = Arc::new(model_a.plan(&ds.samples[0]));
    // After the swap, the one two-request batch must carry model B's bits.
    let pair = [(*plan).clone(), (*plan).clone()];
    let expected_b: Vec<Vec<u64>> = model_b
        .predict_batch(&pair)
        .iter()
        .map(|v| bits(v))
        .collect();
    let service = Service::start(
        model_a,
        ServeConfig {
            workers: 1,
            max_batch: 2,
            flush_deadline: Duration::from_millis(250),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    handle.swap_model(model_b);
    std::thread::scope(|s| {
        let joins: Vec<_> = (0..2)
            .map(|_| {
                let handle = handle.clone();
                let plan = Arc::clone(&plan);
                s.spawn(move || handle.predict_plan(plan).expect("predict"))
            })
            .collect();
        for (b, join) in joins.into_iter().enumerate() {
            assert_eq!(
                bits(&join.join().expect("client thread")),
                expected_b[b],
                "post-swap request {b} must carry model B bits"
            );
        }
    });
    let m = handle.metrics();
    assert_eq!(m.completed, 2);
    assert_eq!(m.batches, 1, "both requests must ride one batch");
    assert_eq!(m.mean_batch_occupancy, 2.0);
    service.shutdown();
}

#[test]
fn plan_cache_serves_hits_and_evicts_lru() {
    let ds = toy_dataset(3, 17);
    let model = fitted_model(&ds, 1);
    let service = Service::start(
        model,
        ServeConfig {
            workers: 1,
            plan_cache_capacity: 2,
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();

    let (first, fp0) = handle.predict_sample(&ds.samples[0]).expect("predict");
    assert!(!first.is_empty());
    let (_, fp0_again) = handle.predict_sample(&ds.samples[0]).expect("predict");
    assert_eq!(fp0, fp0_again);
    // `Predict` plans and inserts without a lookup: the repeat replaces the
    // one entry and counts neither a hit nor a miss.
    let m = handle.metrics();
    assert_eq!((m.cache_hits, m.cache_misses, m.cache_len), (0, 0, 1));

    // Fingerprint-only requests hit the cached plan.
    let by_ref = handle.predict_cached(fp0).expect("cached predict");
    assert_eq!(bits(&first), bits(&by_ref));
    assert_eq!(handle.metrics().cache_hits, 1);

    // Unknown fingerprints are a clean error.
    match handle.predict_cached(0xdead_beef) {
        Err(ServeError::UnknownPlan(fp)) => assert_eq!(fp, 0xdead_beef),
        other => panic!("expected UnknownPlan, got {other:?}"),
    }

    // Capacity 2: planning scenarios 1 and 2 evicts scenario 0 (the LRU).
    handle.predict_sample(&ds.samples[1]).expect("predict");
    handle.predict_sample(&ds.samples[2]).expect("predict");
    match handle.predict_cached(fp0) {
        Err(ServeError::UnknownPlan(_)) => {}
        other => panic!("expected eviction of the LRU plan, got {other:?}"),
    }
    // Three scenarios through a capacity-2 cache: the snapshot says one
    // plan was pushed out.
    let m = handle.metrics();
    assert_eq!((m.cache_len, m.plan_evictions), (2, 1));
    service.shutdown();
}

#[test]
fn hot_swap_under_load_never_tears_a_batch() {
    let ds = toy_dataset(2, 19);
    let model_a = fitted_model(&ds, 1);
    let model_b = fitted_model(&ds, 2);
    let plans: Vec<Arc<SamplePlan>> = ds
        .samples
        .iter()
        .map(|s| Arc::new(model_a.plan(s)))
        .collect();
    let expected_a: Vec<Vec<u64>> = plans.iter().map(|p| bits(&model_a.predict(p))).collect();
    let expected_b: Vec<Vec<u64>> = plans.iter().map(|p| bits(&model_b.predict(p))).collect();
    for (a, b) in expected_a.iter().zip(&expected_b) {
        assert_ne!(a, b, "differently seeded models must disagree");
    }

    let service = Service::start(
        model_a,
        ServeConfig {
            workers: 2,
            max_batch: 4,
            flush_deadline: Duration::from_millis(2),
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    assert_eq!(handle.model_version(), 1);

    const REQUESTS: usize = 24;
    std::thread::scope(|s| {
        for c in 0..3usize {
            let handle = handle.clone();
            let plans = &plans;
            let (expected_a, expected_b) = (&expected_a, &expected_b);
            s.spawn(move || {
                for i in 0..REQUESTS {
                    let pick = (c + i) % plans.len();
                    let got = bits(
                        &handle
                            .predict_plan(Arc::clone(&plans[pick]))
                            .expect("predict during swap"),
                    );
                    assert!(
                        got == expected_a[pick] || got == expected_b[pick],
                        "response matched neither model version (client {c}, request {i})"
                    );
                }
            });
        }
        // Swap while the clients are mid-flight.
        std::thread::sleep(Duration::from_millis(5));
        let swapper = handle.clone();
        s.spawn(move || {
            assert_eq!(swapper.swap_model(model_b), 2);
        });
    });

    // After the swap settles, every response comes from model B.
    let settled = bits(&handle.predict_plan(Arc::clone(&plans[0])).expect("predict"));
    assert_eq!(settled, expected_b[0]);
    let m = handle.metrics();
    assert_eq!(m.model_version, 2);
    assert_eq!(m.model_swaps, 1);
    assert_eq!(m.errors, 0);
    service.shutdown();
}

#[test]
fn hot_swap_flushes_stale_plans_and_rejects_incompatible_ones() {
    let ds = toy_dataset(1, 37);
    let model_small = fitted_model(&ds, 1);
    let mut model_wide = ExtendedRouteNet::new(ModelConfig {
        state_dim: 16,
        mp_iterations: 2,
        readout_hidden: 16,
        seed: 2,
        ..ModelConfig::default()
    });
    model_wide.fit_preprocessing(&ds, 5);
    let stale_plan = Arc::new(model_small.plan(&ds.samples[0]));

    let service = Service::start(model_small, ServeConfig::default());
    let handle = service.handle();
    let (_, fp) = handle.predict_sample(&ds.samples[0]).expect("predict");

    // Swap to a model with a different state width. By-fingerprint lookups
    // must miss (the cache was flushed), not serve v1 features to v2.
    handle.swap_model(model_wide);
    match handle.predict_cached(fp) {
        Err(ServeError::UnknownPlan(_)) => {}
        other => panic!("expected flushed cache, got {other:?}"),
    }

    // A stale pre-swap plan handle gets a clean error, and the worker
    // survives to serve freshly planned requests.
    match handle.predict_plan(Arc::clone(&stale_plan)) {
        Err(ServeError::IncompatiblePlan {
            expected: 16,
            found: 8,
        }) => {}
        other => panic!("expected IncompatiblePlan, got {other:?}"),
    }
    let (delays, _) = handle
        .predict_sample(&ds.samples[0])
        .expect("service must survive incompatible plans");
    assert!(!delays.is_empty());
    let m = handle.metrics();
    assert!(m.errors >= 1, "incompatible plan must count as an error");
    service.shutdown();
}

#[test]
fn malformed_model_files_are_rejected_and_the_old_model_keeps_serving() {
    // A model file is input from outside the program: one whose numbers do
    // not hold together must fail to load — not load, get swapped in and
    // panic in the first worker that binds it.
    let ds = toy_dataset(1, 41);
    let model = fitted_model(&ds, 1);
    let expected = bits(&model.predict(&model.plan(&ds.samples[0])));
    let json = serde_json::to_string(&model).unwrap();
    let kernel = "\"w_z\":{\"rows\":16,\"cols\":8,\"data\":[";
    let (start, first_comma) = {
        let start = json.find(kernel).expect("the path GRU's first kernel") + kernel.len();
        (start, start + json[start..].find(',').expect("128 values"))
    };
    // The file with the number after the first `"key":` replaced by `value`.
    let with_number = |key: &str, value: &str| {
        let key = format!("\"{key}\":");
        let at = json.find(&key).expect("the key") + key.len();
        let end = at + json[at..].find([',', '}']).expect("the number's end");
        format!("{}{value}{}", &json[..at], &json[end..])
    };
    let malformed = [
        (
            "short data",
            format!("{}{}", &json[..start], &json[first_comma + 1..]),
            "16 x 8 matrix holding 127 values",
        ),
        (
            "wrong kernel rows",
            {
                let end = start + json[start..].find(']').expect("end of data");
                let nine_by_eight = vec!["0.25"; 72].join(",");
                json[..start].replacen("\"rows\":16", "\"rows\":9", 1)
                    + &nine_by_eight
                    + &json[end..]
            },
            "kernel `w_z` is 9 x 8",
        ),
        (
            "state_dim disagreeing with the kernels",
            json.replacen("\"state_dim\":8", "\"state_dim\":16", 1),
            "in a model of state_dim 16",
        ),
        // Numbers that load into a model whose every answer is wrong.
        (
            "infinite normalizer std",
            with_number("std", "1e999"),
            "std inf",
        ),
        (
            "kernel weight past f32::MAX",
            format!("{}1e39{}", &json[..start], &json[first_comma..]),
            "16 x 8 matrix holding inf at index 0",
        ),
        (
            "zero capacity scale",
            with_number("capacity_scale", "0.0"),
            "feature scale `capacity_scale` of 0",
        ),
    ];

    let service = Service::start(model, ServeConfig::default());
    let handle = service.handle();
    let (_, fp) = handle.predict_sample(&ds.samples[0]).expect("predict");
    let version = handle.model_version();
    let dir = env::temp_dir();
    for (what, text, complaint) in &malformed {
        assert_ne!(text, &json, "{what}: the edit must change the file");
        let path = dir.join(format!(
            "rn_serve_malformed_{}_{}.json",
            std::process::id(),
            what.len()
        ));
        std::fs::write(&path, text).unwrap();
        let loaded = routenet::persist::load_model::<ExtendedRouteNet>(&path);
        let swapped = handle.load_and_swap(&path);
        std::fs::remove_file(&path).ok();
        for err in [loaded.err(), swapped.err()] {
            let err = err.unwrap_or_else(|| panic!("{what}: the file must not load"));
            assert!(
                err.contains("parse") && err.contains(complaint),
                "{what}: {err}"
            );
        }
        assert_eq!(handle.model_version(), version, "{what}: no swap happened");
        // The cached plan survived too: the old model answers, bit for bit.
        let delays = handle
            .predict_cached(fp)
            .expect("the old model keeps serving");
        assert_eq!(bits(&delays), expected, "{what}");
    }
    let m = handle.metrics();
    assert_eq!((m.model_swaps, m.worker_panics, m.errors), (0, 0, 0));
    service.shutdown();
}

#[test]
fn admission_control_rejects_when_queue_is_full() {
    let ds = toy_dataset(1, 23);
    let model = fitted_model(&ds, 1);
    let plan = Arc::new(model.plan(&ds.samples[0]));
    let service = Service::start(
        model,
        ServeConfig {
            workers: 1,
            queue_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let handle = service.handle();
    match handle.predict_plan(Arc::clone(&plan)) {
        Err(ServeError::Overloaded { retry_after_ms }) => {
            assert!(retry_after_ms >= 1, "hint must be a usable backoff")
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(handle.metrics().rejected, 1);
    service.shutdown();
}

#[test]
fn shutdown_fails_pending_and_future_requests_cleanly() {
    let ds = toy_dataset(1, 29);
    let model = fitted_model(&ds, 1);
    let plan = Arc::new(model.plan(&ds.samples[0]));
    let service = Service::start(model, ServeConfig::default());
    let handle = service.handle();
    handle.predict_plan(Arc::clone(&plan)).expect("predict");
    service.shutdown();
    match handle.predict_plan(plan) {
        Err(ServeError::Shutdown) => {}
        other => panic!("expected Shutdown, got {other:?}"),
    }
}

#[test]
fn tcp_protocol_round_trips_and_matches_direct_predictions() {
    let ds = toy_dataset(2, 31);
    let model = fitted_model(&ds, 1);
    let expected: Vec<Vec<u64>> = ds
        .samples
        .iter()
        .map(|s| bits(&model.predict(&model.plan(s))))
        .collect();

    let service = Service::start(model, ServeConfig::default());
    let server = TcpServer::bind(service.handle(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).expect("connect");
    match client.round_trip(&Request::Ping).expect("ping") {
        Response::Pong => {}
        other => panic!("expected Pong, got {other:?}"),
    }

    // Register, then predict by fingerprint.
    let fp = client.register(&ds.samples[0]).expect("register");
    match client
        .round_trip(&Request::Cached {
            plan: fp.clone(),
            deadline_ms: None,
        })
        .expect("cached")
    {
        Response::Delays { delays_s, plan } => {
            assert_eq!(plan, fp);
            assert_eq!(bits(&delays_s), expected[0]);
        }
        other => panic!("expected Delays, got {other:?}"),
    }

    // Full-sample predict matches too.
    match client
        .round_trip(&Request::Predict {
            sample: ds.samples[1].clone(),
            deadline_ms: None,
        })
        .expect("predict")
    {
        Response::Delays { delays_s, .. } => assert_eq!(bits(&delays_s), expected[1]),
        other => panic!("expected Delays, got {other:?}"),
    }

    // Unknown fingerprints and garbage lines keep the connection usable.
    match client
        .round_trip(&Request::Cached {
            plan: "00000000000000ff".into(),
            deadline_ms: None,
        })
        .expect("unknown plan")
    {
        Response::Error { message } => assert!(message.contains("Register"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }
    match client.round_trip_line("this is not json").expect("garbage") {
        Response::Error { message } => assert!(message.contains("bad request"), "{message}"),
        other => panic!("expected Error, got {other:?}"),
    }

    // Metrics reflect the traffic this test generated.
    match client.round_trip(&Request::Metrics).expect("metrics") {
        Response::Metrics { snapshot } => {
            assert!(snapshot.completed >= 2, "{}", snapshot.completed);
            assert!(snapshot.cache_hits >= 1);
            assert_eq!(snapshot.model_version, 1);
        }
        other => panic!("expected Metrics, got {other:?}"),
    }

    drop(client);
    server.stop();
    service.shutdown();
}

/// A scenario from the wire is indexed with its own ids by the fingerprint
/// and the planner; one whose ids do not hold together must be refused at
/// the door, on a connection that stays usable.
#[test]
fn tcp_malformed_samples_get_error_lines_and_the_connection_survives() {
    let ds = toy_dataset(1, 37);
    let good = &ds.samples[0];
    let model = fitted_model(&ds, 1);
    let service = Service::start(model, ServeConfig::default());
    let server = TcpServer::bind(service.handle(), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");

    let two_classes = |path_classes: Vec<u8>| rn_dataset::SampleQos {
        policy: rn_netsim::SchedulingPolicy::StrictPriority,
        class_profiles: vec![rn_netsim::TrafficProfile::Poisson; 2],
        class_targets: rn_netsim::ClassStats::from_accumulators(
            &vec![Default::default(); path_classes.len()],
            &vec![0; path_classes.len()],
            2,
        ),
        path_classes,
    };
    let edited = |edit: &dyn Fn(&mut rn_dataset::Sample)| {
        let mut sample = good.clone();
        edit(&mut sample);
        serde_json::to_string(&sample).expect("serialize")
    };
    // A policy that does not fit the classes: planning reads one share per
    // class from it.
    let wfq = |weights: &[f64]| {
        edited(&|s| {
            let mut qos = two_classes((0..s.targets.len()).map(|i| (i % 2) as u8).collect());
            qos.policy = rn_netsim::SchedulingPolicy::Wfq {
                weights: weights.to_vec(),
            };
            s.qos = Some(qos);
        })
    };
    let good_json = serde_json::to_string(good).expect("serialize");
    let first_path = serde_json::to_string(good.routing.iter_paths().next().expect("a path").2);
    let first_path = first_path.expect("serialize");
    assert!(good_json.contains(&first_path) && good_json.contains(r#""num_nodes":5"#));
    // Deeper than any parser frame budget: a stack overflow is an abort no
    // supervisor sees, so the wire must refuse the nesting itself.
    let deep = "[".repeat(100_000) + &"]".repeat(100_000);
    let deep_unknown_key = good_json.replacen('{', &format!(r#"{{"unknown":{deep},"#), 1);
    // The first rate is the 0 -> 0 diagonal. A NaN is written `null`, which
    // no rate reads; `1e999` reads as infinity.
    let rates = r#""rates_bps":[0.0"#;
    assert!(good_json.contains(rates));
    let first_rate = |rate: &str| good_json.replacen(rates, &format!(r#""rates_bps":[{rate}"#), 1);
    let malformed: [(&str, String); 18] = [
        ("link id", edited(&|s| s.link_capacities.truncate(3))),
        ("node id", edited(&|s| s.queue_capacities.truncate(2))),
        (
            "targets",
            edited(&|s| {
                s.targets.pop();
            }),
        ),
        (
            "path classes",
            edited(&|s| s.qos = Some(two_classes(vec![0; s.targets.len() - 1]))),
        ),
        (
            "path class 7",
            edited(&|s| s.qos = Some(two_classes(vec![7; s.targets.len()]))),
        ),
        ("WFQ has 1 weights for 2 classes", wfq(&[1.0])),
        ("WFQ weights must be positive", wfq(&[0.0, 0.0])),
        (
            "nodes but",
            good_json.replacen(&first_path, r#"{"nodes":[0],"links":[0,1]}"#, 1),
        ),
        (
            "crosses no link",
            good_json.replacen(&first_path, r#"{"nodes":[0],"links":[]}"#, 1),
        ),
        (
            "has endpoints 3->4",
            good_json.replacen(&first_path, r#"{"nodes":[3,4],"links":[0]}"#, 1),
        ),
        (
            "routing table",
            good_json.replacen(r#""num_nodes":5"#, r#""num_nodes":0"#, 1),
        ),
        (
            "traffic matrix",
            edited(&|s| s.traffic = rn_netgraph::TrafficMatrix::zeros(4)),
        ),
        ("expected number, found null", first_rate("null")),
        ("traffic rate inf", first_rate("1e999")),
        ("traffic rate -1", first_rate("-1.0")),
        (
            "link capacity 0 on link 0",
            edited(&|s| s.link_capacities[0] = 0.0),
        ),
        ("nesting deeper", deep.clone()),
        ("nesting deeper", deep_unknown_key),
    ];
    let mut lines: Vec<(&str, String)> = Vec::new();
    for (what, sample) in &malformed {
        lines.push((what, format!(r#"{{"Register":{{"sample":{sample}}}}}"#)));
        let predict = format!(r#"{{"Predict":{{"sample":{sample},"deadline_ms":null}}}}"#);
        lines.push((what, predict));
    }
    // A rate `check_inputs` accepts but the model's f32 features cannot
    // hold: the plan is refused once built, before `Register` caches it or
    // `Predict` runs a forward over it.
    let (src, dst, _) = good.routing.iter_paths().next().expect("a routed pair");
    let huge = edited(&|s| s.traffic.set(src, dst, 1e300));
    let not_finite = "the scenario's path features are not finite";
    lines.push((not_finite, format!(r#"{{"Register":{{"sample":{huge}}}}}"#)));
    let predict_huge = format!(r#"{{"Predict":{{"sample":{huge},"deadline_ms":null}}}}"#);
    lines.push((not_finite, predict_huge));
    lines.push(("nesting deeper", format!(r#"{{"Register":{deep}}}"#)));
    lines.push(("nesting deeper", deep));
    // One byte past the cap: answered, and the rest of the line is read
    // past without being kept.
    lines.push((
        "request line longer than",
        "x".repeat(MAX_REQUEST_LINE_BYTES + 1),
    ));
    for (what, line) in &lines {
        match client
            .round_trip_line(line)
            .expect("an answer, not a hang-up")
        {
            Response::Error { message } => assert!(
                message.starts_with("bad request: ") && message.contains(what),
                "{what}: {message}"
            ),
            other => panic!("{what}: expected Error, got {other:?}"),
        }
        match client.round_trip(&Request::Ping).expect("same connection") {
            Response::Pong => {}
            other => panic!("{what}: expected Pong, got {other:?}"),
        }
    }
    assert_eq!(
        service.handle().metrics().cache_len,
        0,
        "nothing was cached"
    );
    // Finite features can still overflow through huge (finite) weights: a
    // readout bias of 1e6 denormalizes to an infinite delay, and the worker
    // answers an error instead of a `null` delay.
    let mut overflowing = fitted_model(&ds, 1);
    let bias = overflowing
        .params_mut()
        .pop()
        .expect("the readout's output bias");
    bias.as_mut_slice().fill(1e6);
    service.handle().swap_model(overflowing);
    let predict_good = format!(r#"{{"Predict":{{"sample":{good_json},"deadline_ms":null}}}}"#);
    match client.round_trip_line(&predict_good).expect("an answer") {
        Response::Error { message } => assert!(
            message.starts_with("bad request: the model predicts a delay of inf s for path 0"),
            "{message}"
        ),
        other => panic!("expected Error, got {other:?}"),
    }
    // The well-formed scenario is still served, and nothing panicked.
    client.register(good).expect("register");
    match client.round_trip(&Request::Metrics).expect("metrics") {
        Response::Metrics { snapshot } => {
            // The non-finite prediction is the one error a worker counted;
            // the rest were refused before a forward ran.
            assert_eq!(snapshot.errors, 1);
            assert_eq!(snapshot.worker_panics, 0);
            assert_eq!(snapshot.worker_restarts, 0);
        }
        other => panic!("expected Metrics, got {other:?}"),
    }
    drop(client);
    server.stop();
    service.shutdown();
}

/// A `max_batch` of 0 still answers: every dynamic batch takes at least one
/// request, so the worker neither spins on empty batches nor leaves the
/// caller waiting, and the reply is bitwise the direct prediction.
#[test]
fn zero_max_batch_still_answers() {
    let ds = toy_dataset(1, 17);
    let model = fitted_model(&ds, 3);
    let want = bits(&model.predict(&model.plan(&ds.samples[0])));
    let config = ServeConfig {
        workers: 1,
        max_batch: 0,
        ..ServeConfig::default()
    };
    let service = Service::start(model, config);
    let (handle, sample) = (service.handle(), ds.samples[0].clone());
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(handle.predict_sample(&sample).map(|(d, _)| bits(&d))));
    let got = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a max_batch of 0 must not hang a request");
    assert_eq!(got.expect("served"), want);
    service.shutdown();
}
