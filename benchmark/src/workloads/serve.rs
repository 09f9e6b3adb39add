//! `serve_cached` and `serve_predict`: an in-process `Service` behind a
//! `TcpServer` on an ephemeral loopback port, driven over the wire by this
//! file's own load generator — a closed phase (each connection sends its
//! next request when the last reply arrived) and an open phase (seeded
//! Poisson arrivals, each request timed from when it was due).

use super::{
    generator, probe_direct_predict, probe_inputs, probe_kernels, probe_planning, stream_seed,
    Stream, Traced, Workload,
};
use crate::metrics::Values;
use crate::spans::Recorder;
use crate::stats::{median, percentile_sorted};
use rn_dataset::{generate, Dataset, GeneratorConfig};
use rn_netgraph::topologies;
use rn_serve::loadgen::Client;
use rn_serve::{MetricsSnapshot, Request, Response, ServeConfig, Service, TcpServer};
use rn_tensor::Prng;
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig, SamplePlan};
use std::borrow::Cow;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What distinguishes the two serving workloads.
pub trait ServeSpec {
    /// Distinct NSFNET scenarios requests draw from.
    const SCENARIOS: usize;
    /// Requests name a registered plan (`Cached`) instead of carrying the
    /// whole scenario (`Predict`).
    const BY_FINGERPRINT: bool;
    /// Closed phase: requests per connection.
    const CLOSED_REQUESTS: usize;
    /// Open phase: arrivals per second over all connections.
    const OPEN_RPS: f64;
    /// Scenarios draw their routing at random. Off, every scenario routes by
    /// minimum hops and they differ in traffic and queues only — the what-if
    /// loop over one network — so a request costs the same whatever the seed
    /// and every batch shape recurs.
    const RANDOM_ROUTING: bool;
    /// Untimed requests before the phases, split over the connections; for
    /// `Predict` lines they walk the scenarios in order, which fills the
    /// plan cache.
    const WARM_REQUESTS: usize;
}

/// Four registered scenarios: every request hits the plan cache.
pub struct Cached;

impl ServeSpec for Cached {
    const SCENARIOS: usize = 4;
    const RANDOM_ROUTING: bool = false;
    const BY_FINGERPRINT: bool = true;
    const CLOSED_REQUESTS: usize = 500;
    const OPEN_RPS: f64 = 250.0;
    const WARM_REQUESTS: usize = 50;
}

/// 384 scenarios against the 256-entry plan cache: a third of the requests
/// parse, fingerprint, plan, insert and evict.
pub struct Predict;

impl ServeSpec for Predict {
    const SCENARIOS: usize = 384;
    const RANDOM_ROUTING: bool = true;
    const BY_FINGERPRINT: bool = false;
    const CLOSED_REQUESTS: usize = 200;
    const OPEN_RPS: f64 = 100.0;
    const WARM_REQUESTS: usize = 256;
}

/// Open phase length per rep, seconds.
const OPEN_SECONDS: f64 = 1.0;
/// A send this far behind its due time counts as late.
const LATE_S: f64 = 1e-3;
const SIM_DURATION_S: f64 = 60.0;

/// How a serving workload's scenarios are generated.
fn scenario_generator<S: ServeSpec>() -> GeneratorConfig {
    GeneratorConfig {
        randomize_routing: S::RANDOM_ROUTING,
        ..generator(SIM_DURATION_S, false)
    }
}

/// Generator connections: one per core, two at most.
fn connections() -> usize {
    crate::proc::host_cores().clamp(1, 2)
}

/// One request a connection sends: which line, and when it is due (seconds
/// from the phase start; `None` = as soon as the previous reply arrived).
#[derive(Clone, Copy)]
struct Send {
    line: usize,
    due_s: Option<f64>,
}

/// What one phase observed, all connections pooled.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    latencies_ms: Vec<f64>,
    correct: u64,
    failed: u64,
    late: u64,
    max_lag_s: f64,
}

impl Phase {
    fn sent(&self) -> u64 {
        self.correct + self.failed
    }
}

/// Send each connection's plan over its own TCP connection with blocking
/// round trips and check every reply bit for bit. Scheduled sends wait for
/// their due time and are timed from it, so a stalled connection's delay to
/// its later sends is counted; how late the generator ran is reported.
fn drive(addr: &str, lines: &[String], expected: &[Vec<u64>], plans: &[Vec<Send>]) -> Phase {
    let barrier = Barrier::new(plans.len() + 1);
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = plans
            .iter()
            .map(|plan| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).ok();
                    barrier.wait();
                    let start = Instant::now();
                    let mut seen = Phase::default();
                    for send in plan {
                        let due = send.due_s.map(Duration::from_secs_f64);
                        // Wait by yielding, not by sleeping: with the service
                        // idle between arrivals a sleep halts the CPU, and
                        // what a halted vCPU's wake-up costs depends on the
                        // host's load — the open-phase median then moved by
                        // 40 % between quiet and busy phases of the host.
                        while due.is_some_and(|d| start.elapsed() < d) {
                            std::thread::yield_now();
                        }
                        let sent_at = start.elapsed();
                        let from = due.unwrap_or(sent_at);
                        let lag_s = (sent_at - from).as_secs_f64();
                        seen.max_lag_s = seen.max_lag_s.max(lag_s);
                        seen.late += u64::from(lag_s > LATE_S);
                        let reply = match client.as_mut() {
                            Some(c) => c.round_trip_line(&lines[send.line]),
                            None => Err("no connection".to_string()),
                        };
                        seen.latencies_ms
                            .push((start.elapsed() - from).as_secs_f64() * 1e3);
                        let right = matches!(&reply, Ok(Response::Delays { delays_s, .. })
                            if delays_s.iter().map(|d| d.to_bits()).eq(expected[send.line].iter().copied()));
                        if right {
                            seen.correct += 1;
                        } else {
                            seen.failed += 1;
                        }
                    }
                    seen
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        for worker in workers {
            let seen = worker.join().expect("a generator thread panicked");
            phase.latencies_ms.extend(seen.latencies_ms);
            phase.correct += seen.correct;
            phase.failed += seen.failed;
            phase.late += seen.late;
            phase.max_lag_s = phase.max_lag_s.max(seen.max_lag_s);
        }
        phase.wall_s = start.elapsed().as_secs_f64();
    });
    phase
}

/// What one rep (one fresh `Service`) observed.
struct Served {
    warm: Phase,
    closed: Phase,
    open: Phase,
    register_rtt_s: Vec<f64>,
    snapshot: MetricsSnapshot,
}

impl Served {
    fn attempted(&self) -> u64 {
        self.warm.sent() + self.closed.sent() + self.open.sent()
    }

    fn failed(&self) -> u64 {
        self.warm.failed + self.closed.failed + self.open.failed
    }
}

/// A serving workload's inputs.
pub struct Serve<S: ServeSpec> {
    seed: u64,
    model: ExtendedRouteNet,
    dataset: Dataset,
    /// `Predict` request lines, one per scenario, encoded once.
    predict_lines: Vec<String>,
    /// Bits of a direct `model.predict` per scenario: what every served
    /// reply must equal.
    expected: Vec<Vec<u64>>,
    plans: Vec<SamplePlan>,
    /// Reps run so far; keeps request order and arrivals distinct per rep.
    reps: u64,
    spec: PhantomData<S>,
}

/// A running service with its TCP frontend.
struct Running {
    service: Service<ExtendedRouteNet>,
    server: TcpServer,
    addr: String,
}

impl Running {
    fn stop(self) -> MetricsSnapshot {
        let snapshot = self.service.handle().metrics();
        self.server.stop();
        self.service.shutdown();
        snapshot
    }
}

impl<S: ServeSpec> Serve<S> {
    fn start(&self) -> Running {
        let service = Service::start(self.model.clone(), ServeConfig::default());
        let server = TcpServer::bind(service.handle(), "127.0.0.1:0")
            .expect("an ephemeral loopback port is free");
        let addr = server.local_addr().to_string();
        Running {
            service,
            server,
            addr,
        }
    }

    /// The request line per scenario on this service: for `Cached`, each
    /// scenario is registered first (round trips timed) and named by the
    /// fingerprint the server answered.
    fn request_lines(&self, addr: &str, register_rtt_s: &mut Vec<f64>) -> Cow<'_, [String]> {
        if !S::BY_FINGERPRINT {
            return Cow::Borrowed(&self.predict_lines);
        }
        let mut client = Client::connect(addr).expect("the server just bound this address");
        let lines = self
            .dataset
            .samples
            .iter()
            .map(|sample| {
                let t = Instant::now();
                let plan = client
                    .register(sample)
                    .expect("a generated scenario registers");
                register_rtt_s.push(t.elapsed().as_secs_f64());
                serde_json::to_string(&Request::Cached {
                    plan,
                    deadline_ms: None,
                })
                .expect("infallible writer")
            })
            .collect();
        Cow::Owned(lines)
    }

    /// Seeded per-connection send plans: uniform scenario picks; with a rate,
    /// exponential inter-arrival gaps until `OPEN_SECONDS`.
    fn plans(rng: &Prng, per_connection: usize, open_rps: Option<f64>) -> Vec<Vec<Send>> {
        let conns = connections();
        (0..conns)
            .map(|c| {
                let mut rng = rng.split(c as u64);
                let mut due = 0.0f64;
                let mut plan = Vec::new();
                loop {
                    let due_s = open_rps.map(|rps| {
                        due += rng.exponential(rps / conns as f64);
                        due
                    });
                    let done = match due_s {
                        Some(d) => d > OPEN_SECONDS,
                        None => plan.len() == per_connection,
                    };
                    if done {
                        break plan;
                    }
                    plan.push(Send {
                        line: rng.index(S::SCENARIOS),
                        due_s,
                    });
                }
            })
            .collect()
    }

    /// A fresh service, untimed warm-up, then the closed and the open phase.
    /// `scale` divides the phase sizes (the set-up's warm-up rep runs small).
    fn serve_once(&mut self, scale: usize) -> Served {
        // A fresh service starts on a trimmed heap. Left alone, the
        // allocator keeps the last service's ~400 MB mapped on one rep in
        // five or so, and that rep takes 8 000 page faults where the others
        // take 90 000 and serves `Predict` lines 15–25 % faster: the fast
        // decile over reps then flips between the two kinds from run to run.
        crate::proc::trim_heap();
        self.reps += 1;
        let rng = Prng::new(stream_seed(self.seed, Stream::Requests)).split(self.reps);
        let running = self.start();
        let mut register_rtt_s = Vec::new();
        let lines = self.request_lines(&running.addr, &mut register_rtt_s);
        let warm_each = S::WARM_REQUESTS / scale / connections();
        let warm: Vec<Vec<Send>> = (0..connections())
            .map(|c| {
                (0..warm_each)
                    .map(|i| Send {
                        line: (c * warm_each + i) % S::SCENARIOS,
                        due_s: None,
                    })
                    .collect()
            })
            .collect();
        let warm = drive(&running.addr, &lines, &self.expected, &warm);
        let closed_plans = Self::plans(&rng.split(1), S::CLOSED_REQUESTS / scale, None);
        let closed = drive(&running.addr, &lines, &self.expected, &closed_plans);
        let open_plans: Vec<Vec<Send>> = Self::plans(&rng.split(2), 0, Some(S::OPEN_RPS))
            .into_iter()
            .map(|p| {
                let keep = p.len() / scale;
                p.into_iter().take(keep).collect()
            })
            .collect();
        let open = drive(&running.addr, &lines, &self.expected, &open_plans);
        Served {
            warm,
            closed,
            open,
            register_rtt_s,
            snapshot: running.stop(),
        }
    }
}

impl<S: ServeSpec> Workload for Serve<S> {
    fn setup(seed: u64, _scratch: &Path) -> Self {
        let dataset = generate(
            &topologies::nsfnet_default(),
            &scenario_generator::<S>(),
            stream_seed(seed, Stream::Scenarios),
            S::SCENARIOS,
        );
        let mut model = ExtendedRouteNet::new(ModelConfig {
            state_dim: 16,
            mp_iterations: 4,
            readout_hidden: 32,
            seed: stream_seed(seed, Stream::ModelInit),
            ..ModelConfig::default()
        });
        model.fit_preprocessing(&dataset, 10);
        let plans: Vec<SamplePlan> = dataset.samples.iter().map(|s| model.plan(s)).collect();
        let expected = plans
            .iter()
            .map(|p| model.predict(p).iter().map(|d| d.to_bits()).collect())
            .collect();
        let predict_lines = if S::BY_FINGERPRINT {
            Vec::new()
        } else {
            dataset
                .samples
                .iter()
                .map(|sample| {
                    serde_json::to_string(&Request::Predict {
                        sample: sample.clone(),
                        deadline_ms: None,
                    })
                    .expect("infallible writer")
                })
                .collect()
        };
        let mut workload = Self {
            seed,
            model,
            dataset,
            predict_lines,
            expected,
            plans,
            reps: 0,
            spec: PhantomData,
        };
        workload.serve_once(4);
        workload
    }

    fn rep(&mut self, violations: &mut Vec<String>) -> super::Rep {
        let served = self.serve_once(1);
        check_counters(&served.snapshot, violations);
        super::Rep {
            throughput: served.closed.correct as f64 / served.closed.wall_s,
            attempted: served.attempted(),
            failed: served.failed(),
            latency_p50_ms: median(&served.open.latencies_ms),
        }
    }

    fn trace(&mut self, seconds: f64, rec: &Recorder, layers: &mut Values) -> Traced {
        let mut traced = Traced::default();

        // The real thing over the wire, tracing off and on by turns.
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for _ in 0..2 {
            off.push(self.serve_once(1));
            rn_trace::set_enabled(true);
            on.push(self.serve_once(1));
            rn_trace::set_enabled(false);
        }
        for served in off.iter().chain(&on) {
            traced.attempted += served.attempted();
            traced.failed += served.failed();
            check_counters(&served.snapshot, &mut traced.violations);
        }
        let closed_wall =
            |passes: &[Served]| median(&passes.iter().map(|s| s.closed.wall_s).collect::<Vec<_>>());
        layers.set(
            "trace_overhead_pct",
            (closed_wall(&on) / closed_wall(&off) - 1.0) * 100.0,
        );
        let (untraced, with_trace) = (&off[0], &on[0]);
        layers.set("serve.closed_p50_ms", median(&untraced.closed.latencies_ms));
        let mut open_sorted = untraced.open.latencies_ms.clone();
        open_sorted.sort_by(f64::total_cmp);
        layers.set("serve.open_p99_ms", percentile_sorted(&open_sorted, 99.0));
        layers.set(
            "loadgen.late_share",
            untraced.open.late as f64 / untraced.open.sent() as f64,
        );
        layers.set("loadgen.max_lag_ms", untraced.open.max_lag_s * 1e3);
        layers.set(
            "loadgen.achieved_rps",
            untraced.open.sent() as f64 / untraced.open.wall_s,
        );
        if !untraced.register_rtt_s.is_empty() {
            layers.set(
                "serve.register_rtt_ms",
                median(&untraced.register_rtt_s) * 1e3,
            );
        }
        set_service_counters(layers, &untraced.snapshot);
        set_stage_latency(layers, &with_trace.snapshot, &mut traced.violations);

        // Layer floors under one request, each call in a span: the wire
        // alone (Ping), the service without the wire, the forward alone.
        let calls = ((seconds * 25.0) as usize).clamp(50, 400);
        let running = self.start();
        let mut registered = Vec::new();
        let lines = self.request_lines(&running.addr, &mut registered);
        let handle = running.service.handle();
        let fingerprints: Vec<u64> = if S::BY_FINGERPRINT {
            self.dataset
                .samples
                .iter()
                .map(|s| handle.fingerprint_sample(s))
                .collect()
        } else {
            Vec::new()
        };
        rec.scope("serve.replica", None, 0, |root| {
            let mut client = Client::connect(&running.addr).expect("the server is listening");
            for i in 0..calls {
                let op = i as u64;
                let scenario = i % S::SCENARIOS;
                let pong = rec.leaf("serve.ping", Some(root), op, || {
                    client.round_trip_line("\"Ping\"")
                });
                let direct = rec.leaf("serve.inproc", Some(root), op, || {
                    if S::BY_FINGERPRINT {
                        handle.predict_cached(fingerprints[scenario])
                    } else {
                        handle
                            .predict_sample(&self.dataset.samples[scenario])
                            .map(|(delays, _)| delays)
                    }
                });
                let wire = rec.leaf("serve.round_trip", Some(root), op, || {
                    client.round_trip_line(&lines[scenario])
                });
                traced.attempted += 3;
                let want = &self.expected[scenario];
                let same =
                    |delays: &[f64]| delays.iter().map(|d| d.to_bits()).eq(want.iter().copied());
                let right = matches!(pong, Ok(Response::Pong))
                    && matches!(&direct, Ok(d) if same(d))
                    && matches!(&wire, Ok(Response::Delays { delays_s, .. }) if same(delays_s));
                traced.failed += u64::from(!right);
            }
        });
        running.stop();
        let inproc_s = rec.median_s("serve.inproc");
        layers.set("serve.ping_rtt_us", rec.median_s("serve.ping") * 1e6);
        layers.set("serve.inproc_us", inproc_s * 1e6);
        layers.set(
            "serve.wire_overhead_us",
            (rec.median_s("serve.round_trip") - inproc_s) * 1e6,
        );

        // Probes at this workload's shapes, and of the layers set-up crossed.
        let budget = (seconds / 8.0).max(0.2);
        let singles: Vec<&SamplePlan> = self.plans.iter().collect();
        probe_direct_predict(layers, &self.model, &singles, budget);
        let predict_us = layers.get("core.predict_us").unwrap_or(0.0);
        layers.set("serve.service_overhead_us", inproc_s * 1e6 - predict_us);
        let mut g = rn_autograd::Graph::new();
        self.model.predict_with(&mut g, singles[0]);
        layers.set("autograd.tape_nodes", g.len() as f64);
        probe_kernels(
            layers,
            singles[0].n_paths,
            self.model.config().state_dim,
            budget,
        );
        probe_planning(layers, &self.model, &self.dataset.samples, budget);
        let line = serde_json::to_string(&Request::Predict {
            sample: self.dataset.samples[0].clone(),
            deadline_ms: None,
        })
        .expect("infallible writer");
        traced.violations.extend(probe_inputs::<Request>(
            rec,
            layers,
            &self.dataset.topology,
            &scenario_generator::<S>(),
            stream_seed(self.seed, Stream::Scenarios),
            &line,
            budget,
        ));
        traced
    }
}

/// No request may be shed, expire or crash a worker on these workloads.
fn check_counters(snapshot: &MetricsSnapshot, violations: &mut Vec<String>) {
    if snapshot.rejected + snapshot.deadline_expired + snapshot.worker_panics + snapshot.errors > 0
    {
        violations.push(format!(
            "service counted rejected {}, deadline_expired {}, worker_panics {}, errors {}",
            snapshot.rejected, snapshot.deadline_expired, snapshot.worker_panics, snapshot.errors
        ));
    }
}

fn set_service_counters(layers: &mut Values, snapshot: &MetricsSnapshot) {
    layers.set("serve.batch_occupancy", snapshot.mean_batch_occupancy);
    layers.set("serve.plan_cache_hit_ratio", snapshot.cache_hit_rate);
    layers.set("serve.compose_cache_hit_ratio", snapshot.compose_hit_rate);
    layers.set("serve.batch_shapes", snapshot.batch_shapes.len() as f64);
    layers.set("serve.rejected", snapshot.rejected as f64);
    layers.set("serve.deadline_expired", snapshot.deadline_expired as f64);
    layers.set("serve.worker_panics", snapshot.worker_panics as f64);
}

/// The five request-lifecycle stages the service times under `RN_TRACE`
/// (mean per request); together they must make up the server-side mean.
fn set_stage_latency(
    layers: &mut Values,
    snapshot: &MetricsSnapshot,
    violations: &mut Vec<String>,
) {
    const STAGES: [(&str, &str); 5] = [
        ("queue_wait", "serve.stage_queue_wait_us"),
        ("batch_assembly", "serve.stage_batch_assembly_us"),
        ("compose", "serve.stage_compose_us"),
        ("forward", "serve.stage_forward_us"),
        ("reply", "serve.stage_reply_us"),
    ];
    let mut sum_ms = 0.0;
    for (stage, metric) in STAGES {
        match snapshot.stage_latency.iter().find(|s| s.name == stage) {
            Some(s) => {
                sum_ms += s.mean_ms;
                layers.set(metric, s.mean_ms * 1e3);
            }
            None => violations.push(format!("no `{stage}` stage in the traced snapshot")),
        }
    }
    layers.set(
        "serve.stage_sum_error_pct",
        (sum_ms / snapshot.latency_mean_ms - 1.0).abs() * 100.0,
    );
}
