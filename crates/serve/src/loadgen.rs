//! Load generator: drives a running TCP frontend and measures end-to-end
//! throughput and latency from the client side (exact percentiles, unlike
//! the server's bucketed histogram).
//!
//! Two client behaviors bracket the serving design space:
//!
//! - [`LoadMode::Naive`] — the pre-serving usage pattern: one connection,
//!   one request in flight, the **full scenario JSON** serialized, shipped,
//!   re-parsed and re-planned on every query.
//! - [`LoadMode::Cached`] — the intended pattern: each client registers its
//!   scenarios once, then streams tiny fingerprint queries that hit the
//!   server's plan cache and ride shared dynamic batches.
//!
//! Clients are overload-aware: a structured `Overloaded {retry_after_ms}`
//! reply triggers a bounded retry with jittered exponential backoff (never
//! less than the server's hint), and the report separates *rejections*
//! (admission backpressure), *retries* (backoff attempts), *give-ups*
//! (retry budget exhausted) and *deadline timeouts* from hard errors — so
//! a run says how the service behaves past saturation, not just below it.

use crate::fault::splitmix64;
use crate::server::{fingerprint_to_hex, Request, Response};
use rn_dataset::{generate, GeneratorConfig, Sample};
use rn_netgraph::{topologies, Topology};
use rn_netsim::SimConfig;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Client behavior (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Full scenario JSON per request, no registration.
    Naive,
    /// Register once, then query by fingerprint.
    Cached,
}

impl LoadMode {
    /// Parse from a CLI flag value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "naive" => Ok(Self::Naive),
            "cached" => Ok(Self::Cached),
            other => Err(format!("unknown mode `{other}` (naive|cached)")),
        }
    }
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:9977`.
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Client behavior.
    pub mode: LoadMode,
    /// Per-request deadline (milliseconds) sent with every prediction;
    /// `None` sends none (the server's default applies).
    pub deadline_ms: Option<u64>,
    /// Retries per request after an `Overloaded`/`DeadlineExceeded` reply or
    /// a transport error (0 = shed requests fail immediately).
    pub max_retries: u32,
    /// Base backoff before the first retry (milliseconds); doubles per
    /// attempt, is never less than the server's `retry_after_ms` hint, and
    /// carries ±50% deterministic jitter so synchronized clients do not
    /// re-stampede the queue in lockstep.
    pub backoff_base_ms: u64,
    /// Seed of the backoff jitter (per-client streams are derived from it).
    pub seed: u64,
}

impl LoadgenConfig {
    /// Baseline parameters against `addr`: 4 closed-loop cached-mode
    /// clients, 64 requests each, 3 retries on a 5 ms backoff base, no
    /// deadline.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            clients: 4,
            requests_per_client: 64,
            mode: LoadMode::Cached,
            deadline_ms: None,
            max_retries: 3,
            backoff_base_ms: 5,
            seed: 0xC0DE_2019,
        }
    }
}

/// Exact client-side latency summary (milliseconds).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Median.
    pub p50_ms: f64,
    /// 90th percentile.
    pub p90_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Mean.
    pub mean_ms: f64,
    /// Maximum.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Exact percentiles over the recorded samples (zeros when empty).
    pub fn of(latencies: &mut [Duration]) -> Self {
        if latencies.is_empty() {
            return Self {
                p50_ms: 0.0,
                p90_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                mean_ms: 0.0,
                max_ms: 0.0,
            };
        }
        latencies.sort();
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let at = |p: f64| {
            let idx = rn_trace::nearest_rank(latencies.len(), p).expect("non-empty");
            ms(latencies[idx])
        };
        let sum: f64 = latencies.iter().map(|&d| ms(d)).sum();
        Self {
            p50_ms: at(50.0),
            p90_ms: at(90.0),
            p95_ms: at(95.0),
            p99_ms: at(99.0),
            mean_ms: sum / latencies.len() as f64,
            max_ms: ms(*latencies.last().expect("non-empty")),
        }
    }
}

/// One load-generation run's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Successful requests.
    pub requests: u64,
    /// Failed requests (protocol errors / server errors / retry budgets
    /// exhausted).
    pub errors: u64,
    /// Wire attempts, including retries (`attempts - retries` = distinct
    /// requests that reached the wire at least once).
    pub attempts: u64,
    /// `Overloaded` replies received (admission-queue backpressure).
    pub rejected: u64,
    /// Backoff retries performed after a reject/timeout/transport error.
    pub retries: u64,
    /// Requests abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// `DeadlineExceeded` replies received.
    pub deadline_exceeded: u64,
    /// `Overloaded` replies per wire attempt.
    pub reject_rate: f64,
    /// Retries per wire attempt.
    pub retry_rate: f64,
    /// `DeadlineExceeded` replies per wire attempt.
    pub timeout_rate: f64,
    /// Wall-clock seconds for the whole run.
    pub wall_s: f64,
    /// Successful requests per wall-clock second.
    pub rps: f64,
    /// Exact client-side latency percentiles. Under overload these include
    /// backoff waits — the latency a *client* observes, not the server-side
    /// queue-to-reply time.
    pub latency: LatencySummary,
}

/// Generate `count` scenarios on a canonical topology — the shared workload
/// of the loadgen binary, the daemon's demo model and the examples (same seed
/// → same scenarios on both sides of a socket).
pub fn demo_scenarios(
    topology: &str,
    count: usize,
    sim_duration_s: f64,
    seed: u64,
) -> Result<(Topology, Vec<Sample>), String> {
    let topo = match topology {
        "nsfnet" => topologies::nsfnet_default(),
        "geant2" => topologies::geant2_default(),
        "toy5" => topologies::toy5(),
        other => return Err(format!("unknown topology `{other}` (nsfnet|geant2|toy5)")),
    };
    let config = GeneratorConfig {
        sim: SimConfig {
            duration_s: sim_duration_s,
            warmup_s: sim_duration_s * 0.1,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    let ds = generate(&topo, &config, seed, count);
    Ok((ds.topology, ds.samples))
}

/// A connected protocol client: line-delimited JSON over one TCP stream.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a serving frontend.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    /// Send one pre-rendered request line and read the response line.
    pub fn round_trip_line(&mut self, line: &str) -> Result<Response, String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("flush: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("recv: {e}"))?;
        if response.is_empty() {
            return Err("server closed the connection".into());
        }
        serde_json::from_str(&response).map_err(|e| format!("bad response: {e}"))
    }

    /// Send raw bytes as-is (caller includes the trailing newline) and read
    /// the response line. Lets fault tests push non-UTF-8 garbage at the
    /// frontend and assert it still answers.
    pub fn round_trip_bytes(&mut self, bytes: &[u8]) -> Result<Response, String> {
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("flush: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("recv: {e}"))?;
        if response.is_empty() {
            return Err("server closed the connection".into());
        }
        serde_json::from_str(&response).map_err(|e| format!("bad response: {e}"))
    }

    /// Send one request line without waiting for the reply. Fault tests use
    /// this to model a client that disconnects mid-flight.
    pub fn round_trip_line_fire_and_forget(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("flush: {e}"))
    }

    /// Serialize and send one request.
    pub fn round_trip(&mut self, request: &Request) -> Result<Response, String> {
        let line = serde_json::to_string(request).map_err(|e| format!("serialize: {e}"))?;
        self.round_trip_line(&line)
    }

    /// Register a scenario; returns its fingerprint (hex).
    pub fn register(&mut self, sample: &Sample) -> Result<String, String> {
        match self.round_trip(&Request::Register {
            sample: sample.clone(),
        })? {
            Response::Registered { plan, .. } => Ok(plan),
            other => Err(format!("unexpected response: {other:?}")),
        }
    }
}

/// What one client thread observed.
#[derive(Debug, Default)]
struct ClientStats {
    latencies: Vec<Duration>,
    errors: u64,
    attempts: u64,
    rejected: u64,
    retries: u64,
    gave_up: u64,
    deadline_exceeded: u64,
}

/// Deterministically jittered backoff before retry `attempt` (0-based):
/// `base * 2^attempt`, never below the server's `retry_after_ms` hint,
/// scaled by a ±50% factor drawn from the client's seed stream, capped at
/// 2 s so a pathological hint cannot park a client forever.
fn backoff_delay(base_ms: u64, attempt: u32, retry_after_ms: u64, jitter_key: u64) -> Duration {
    let exp = base_ms.saturating_mul(1u64 << attempt.min(10));
    let wait_ms = exp.max(retry_after_ms).max(1);
    let u = splitmix64(jitter_key) as f64 / (u64::MAX as f64 + 1.0);
    Duration::from_secs_f64((wait_ms as f64 * (0.5 + u) / 1_000.0).min(2.0))
}

/// Per-client work loop. Transport errors reconnect (plan fingerprints live
/// in the server-side shared cache, so a fresh connection keeps using them);
/// `Overloaded`/`DeadlineExceeded` replies back off and retry within the
/// configured budget.
fn run_client(
    config: &LoadgenConfig,
    scenarios: &[Sample],
    client_idx: usize,
) -> Result<ClientStats, String> {
    let mut client = Client::connect(&config.addr).map_err(|e| format!("connect: {e}"))?;
    // Pre-render the request lines. Naive clients still pay full-sample
    // serialization *per request* below — that is the cost being measured —
    // while cached clients register once and reuse a ~40-byte line.
    let naive_requests: Vec<Request> = scenarios
        .iter()
        .map(|s| Request::Predict {
            sample: s.clone(),
            deadline_ms: config.deadline_ms,
        })
        .collect();
    let cached_lines: Vec<String> = if config.mode == LoadMode::Cached {
        scenarios
            .iter()
            .map(|s| {
                let fp = client.register(s)?;
                serde_json::to_string(&Request::Cached {
                    plan: fp,
                    deadline_ms: config.deadline_ms,
                })
                .map_err(|e| format!("serialize: {e}"))
            })
            .collect::<Result<_, String>>()?
    } else {
        Vec::new()
    };

    let mut stats = ClientStats {
        latencies: Vec::with_capacity(config.requests_per_client),
        ..ClientStats::default()
    };
    let jitter_base = splitmix64(config.seed ^ ((client_idx as u64) << 32));
    for i in 0..config.requests_per_client {
        let pick = (client_idx + i) % scenarios.len();
        let line = match config.mode {
            LoadMode::Naive => serde_json::to_string(&naive_requests[pick])
                .map_err(|e| format!("serialize: {e}"))?,
            LoadMode::Cached => cached_lines[pick].clone(),
        };
        let t0 = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            stats.attempts += 1;
            // A reply we must back off from (or a transport failure) yields
            // `Some(hint)`; everything else settles the request.
            let retry_hint: Option<u64> = match client.round_trip_line(&line) {
                Ok(Response::Delays { delays_s, .. }) if !delays_s.is_empty() => {
                    stats.latencies.push(t0.elapsed());
                    break;
                }
                Ok(Response::Overloaded { retry_after_ms }) => {
                    stats.rejected += 1;
                    Some(retry_after_ms)
                }
                Ok(Response::DeadlineExceeded) => {
                    stats.deadline_exceeded += 1;
                    Some(0)
                }
                Ok(_) => {
                    stats.errors += 1;
                    break;
                }
                Err(_) => {
                    // Transport failure (server dropped the connection —
                    // chaos does this on purpose): reconnect and treat the
                    // attempt like a shed request. Reconnect failure ends
                    // the client with a clean error, not a panic.
                    client =
                        Client::connect(&config.addr).map_err(|e| format!("reconnect: {e}"))?;
                    Some(0)
                }
            };
            let Some(hint) = retry_hint else { break };
            if attempt >= config.max_retries {
                stats.gave_up += 1;
                stats.errors += 1;
                break;
            }
            stats.retries += 1;
            std::thread::sleep(backoff_delay(
                config.backoff_base_ms,
                attempt,
                hint,
                jitter_base ^ ((i as u64) << 8) ^ attempt as u64,
            ));
            attempt += 1;
        }
    }
    Ok(stats)
}

/// Run the workload against a serving frontend. Errors (unreachable server,
/// a failed client thread) come back as `Err`, never a panic — the loadgen
/// binary turns them into a nonzero exit with a readable summary.
pub fn run_loadgen(config: &LoadgenConfig, scenarios: &[Sample]) -> Result<LoadgenReport, String> {
    if scenarios.is_empty() {
        return Err("loadgen needs at least one scenario".into());
    }
    let clients = config.clients.max(1);
    let t0 = Instant::now();
    let results: Vec<Result<ClientStats, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|idx| s.spawn(move || run_client(config, scenarios, idx)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("loadgen client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut all_latencies: Vec<Duration> = Vec::new();
    let mut total = ClientStats::default();
    for r in results {
        let stats = r?;
        all_latencies.extend(stats.latencies);
        total.errors += stats.errors;
        total.attempts += stats.attempts;
        total.rejected += stats.rejected;
        total.retries += stats.retries;
        total.gave_up += stats.gave_up;
        total.deadline_exceeded += stats.deadline_exceeded;
    }
    let requests = all_latencies.len() as u64;
    let per_attempt = |n: u64| {
        if total.attempts > 0 {
            n as f64 / total.attempts as f64
        } else {
            0.0
        }
    };
    Ok(LoadgenReport {
        requests,
        errors: total.errors,
        attempts: total.attempts,
        rejected: total.rejected,
        retries: total.retries,
        gave_up: total.gave_up,
        deadline_exceeded: total.deadline_exceeded,
        reject_rate: per_attempt(total.rejected),
        retry_rate: per_attempt(total.retries),
        timeout_rate: per_attempt(total.deadline_exceeded),
        wall_s,
        rps: if wall_s > 0.0 {
            requests as f64 / wall_s
        } else {
            0.0
        },
        latency: LatencySummary::of(&mut all_latencies),
    })
}

/// Render a fingerprint the way `Cached` requests expect it — re-exported
/// here so binaries depending only on `loadgen` don't reach into `server`.
pub fn plan_ref(fp: u64) -> String {
    fingerprint_to_hex(fp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles_are_exact() {
        let mut lats: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let s = LatencySummary::of(&mut lats);
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p90_ms, 90.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_honors_the_server_hint() {
        let a = backoff_delay(5, 0, 0, 42);
        let b = backoff_delay(5, 0, 0, 42);
        assert_eq!(a, b, "same jitter key, same delay");
        // ±50% band around the exponential base.
        assert!(a >= Duration::from_secs_f64(0.0025) && a <= Duration::from_millis(10));
        // The server's hint is a floor...
        assert!(backoff_delay(5, 0, 100, 42) >= Duration::from_millis(50));
        // ...and everything caps at 2 s, even absurd hints or attempts.
        assert!(backoff_delay(5, 30, u64::MAX, 42) <= Duration::from_secs(2));
        // Zero-base config still waits a nonzero beat.
        assert!(backoff_delay(0, 0, 0, 42) > Duration::ZERO);
    }

    #[test]
    fn degenerate_loadgen_inputs_error_instead_of_panicking() {
        // No scenarios: a clean Err (the binary turns this into exit 1).
        // The unreachable-server path is covered in tests/serve_faults.rs
        // against a loopback port that refuses immediately.
        let config = LoadgenConfig::new("127.0.0.1:1");
        assert!(run_loadgen(&config, &[]).is_err());
    }

    #[test]
    fn demo_scenarios_are_seed_deterministic() {
        let (_, a) = demo_scenarios("toy5", 2, 30.0, 9).unwrap();
        let (_, b) = demo_scenarios("toy5", 2, 30.0, 9).unwrap();
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.targets, y.targets);
        }
        assert!(demo_scenarios("nope", 1, 30.0, 9).is_err());
    }
}
