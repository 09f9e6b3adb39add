//! JSONL-over-TCP frontend.
//!
//! One request per line, one response per line — `std::net` only, so any
//! language with a socket and a JSON library is a client. Requests are
//! externally tagged:
//!
//! ```text
//! {"Register": {"sample": {…}}}   → {"Registered": {"plan": "<hex>", "paths": N}}
//! {"Predict":  {"sample": {…}}}   → {"Delays": {"plan": "<hex>", "delays_s": […]}}
//! {"Cached":   {"plan": "<hex>"}} → {"Delays": …} | {"Error": …}
//! "Metrics"                        → {"Metrics": {"snapshot": {…}}}
//! "Ping"                           → "Pong"
//! ```
//!
//! `Predict` and `Cached` optionally carry `"deadline_ms": N` — a request
//! that expires in queue is answered `"DeadlineExceeded"` without forward
//! work. A request shed at admission gets `{"Overloaded": {"retry_after_ms":
//! N}}`; clients should back off at least that long before retrying.
//!
//! **Every** request line gets exactly one response line as long as the
//! connection lives: malformed JSON, invalid UTF-8, lines longer than
//! [`MAX_REQUEST_LINE_BYTES`], unknown request shapes and scenarios that
//! are not self-consistent (an id out of range, labels misaligned with the
//! routing, a scheduling policy that does not fit the classes) are answered
//! with a structured
//! `{"Error": {"message": "bad request: …"}}` line and the connection stays
//! usable — a buggy (or adversarial) client wedges only
//! itself.
//!
//! `Register` compiles a scenario into the shared plan cache and returns its
//! fingerprint; `Cached` predicts by fingerprint alone — the steady-state
//! what-if loop sends a ~40-byte line instead of re-shipping (and the server
//! re-parsing and re-planning) a multi-hundred-kilobyte scenario on every
//! query. Fingerprints travel as fixed-width hex strings because JSON
//! numbers cannot carry a full `u64` exactly.
//!
//! The frontend is unauthenticated and meant to run inside a trust
//! boundary: clients share one plan cache keyed by a non-cryptographic
//! fingerprint (see `routenet::plan_cache`'s trust-model notes), so put an
//! authenticating proxy in front before exposing it to untrusted networks.

use crate::service::{ServeError, ServeHandle};
use crate::MetricsSnapshot;
use rn_dataset::Sample;
use routenet::model::PathPredictor;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A client request line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Compile a scenario into the plan cache; answer its plan's
    /// fingerprint.
    Register {
        /// The scenario (topology-shaped routing/traffic/queue state).
        sample: Sample,
    },
    /// Plan and predict a full scenario. The plan is inserted into the cache
    /// under its fingerprint (answered with the delays) but never looked
    /// up: only `Cached` reads the cache.
    Predict {
        /// The scenario to predict.
        sample: Sample,
        /// Optional deadline budget in milliseconds, measured from
        /// admission; omitted (or `null`) falls back to the server's
        /// configured default.
        deadline_ms: Option<u64>,
    },
    /// Predict a scenario previously registered, by fingerprint.
    Cached {
        /// Hex fingerprint from `Registered`/`Delays`.
        plan: String,
        /// Optional deadline budget in milliseconds (see
        /// [`Request::Predict`]).
        deadline_ms: Option<u64>,
    },
    /// Fetch the service metrics snapshot.
    Metrics,
    /// Liveness probe.
    Ping,
}

/// A server response line.
// `Metrics` dwarfs the other variants, but responses are built, serialized
// and dropped one at a time — boxing the snapshot would only complicate the
// wire type for a short-lived value.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Scenario compiled and cached.
    Registered {
        /// Hex fingerprint to use with `Cached`.
        plan: String,
        /// Paths (= delays per prediction) in the scenario.
        paths: usize,
    },
    /// Per-path delay predictions in seconds.
    Delays {
        /// Hex fingerprint of the scenario that was predicted.
        plan: String,
        /// One mean-delay prediction per path, in path order.
        delays_s: Vec<f64>,
    },
    /// Service metrics.
    Metrics {
        /// The point-in-time snapshot.
        snapshot: MetricsSnapshot,
    },
    /// Liveness answer.
    Pong,
    /// Load shed at admission: the queue is full. Back off at least
    /// `retry_after_ms` (plus jitter) before retrying.
    Overloaded {
        /// Server-estimated queue drain time in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline passed while it queued; it was answered
    /// without spending forward-pass work and may be retried with a larger
    /// budget.
    DeadlineExceeded,
    /// The request failed; the connection stays usable.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// Render a fingerprint as the wire format (fixed-width hex).
pub fn fingerprint_to_hex(fp: u64) -> String {
    format!("{fp:016x}")
}

/// Parse the wire format back into a fingerprint.
pub fn fingerprint_from_hex(s: &str) -> Result<u64, String> {
    u64::from_str_radix(s.trim(), 16).map_err(|e| format!("bad plan fingerprint `{s}`: {e}"))
}

/// Compute the response for one request line. Exposed so tests (and exotic
/// frontends) can drive the protocol without a socket.
pub fn respond_line<M: PathPredictor>(handle: &ServeHandle<M>, line: &str) -> Response {
    let request: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            return Response::Error {
                message: format!("bad request: {e}"),
            }
        }
    };
    match request {
        Request::Ping => Response::Pong,
        Request::Metrics => Response::Metrics {
            snapshot: handle.metrics(),
        },
        Request::Register { sample } => match handle.plan_sample(&sample) {
            Ok((plan, fp)) => Response::Registered {
                plan: fingerprint_to_hex(fp),
                paths: plan.n_paths,
            },
            Err(e) => error_response(e),
        },
        Request::Predict {
            sample,
            deadline_ms,
        } => {
            let budget = deadline_ms.map(std::time::Duration::from_millis);
            match handle.predict_sample_with_deadline(&sample, budget) {
                Ok((delays_s, fp)) => Response::Delays {
                    plan: fingerprint_to_hex(fp),
                    delays_s,
                },
                Err(e) => error_response(e),
            }
        }
        Request::Cached { plan, deadline_ms } => match fingerprint_from_hex(&plan) {
            Err(message) => Response::Error { message },
            Ok(fp) => {
                let budget = deadline_ms.map(std::time::Duration::from_millis);
                match handle.predict_cached_with_deadline(fp, budget) {
                    Ok(delays_s) => Response::Delays {
                        plan: fingerprint_to_hex(fp),
                        delays_s,
                    },
                    Err(e @ ServeError::UnknownPlan(_)) => Response::Error {
                        message: format!("{e}; re-send the scenario with Register"),
                    },
                    Err(e) => error_response(e),
                }
            }
        },
    }
}

/// Map a [`ServeError`] to its wire shape: backpressure and deadline
/// outcomes get structured variants clients can branch on; everything else
/// is a generic `Error` line.
fn error_response(e: ServeError) -> Response {
    match e {
        ServeError::Overloaded { retry_after_ms } => Response::Overloaded { retry_after_ms },
        ServeError::DeadlineExceeded => Response::DeadlineExceeded,
        other => Response::Error {
            message: other.to_string(),
        },
    }
}

/// A listening TCP frontend bound to a [`ServeHandle`].
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting connections, one thread per connection.
    pub fn bind<M, A>(handle: ServeHandle<M>, addr: A) -> std::io::Result<Self>
    where
        M: PathPredictor + 'static,
        A: ToSocketAddrs,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("rn-serve-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_accept.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let handle = handle.clone();
                    // Connection threads live as long as their client keeps
                    // the socket open; they end on EOF or write failure.
                    std::thread::Builder::new()
                        .name("rn-serve-conn".into())
                        .spawn(move || serve_connection(handle, stream))
                        .ok();
                }
            })
            .expect("spawn accept thread");
        Ok(Self {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting new connections and join the accept thread. Existing
    /// connections drain naturally when their clients hang up.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        TcpStream::connect(self.addr).ok();
        // An accept thread found dead is tolerated, not propagated — the
        // frontend is being torn down either way.
        if let Some(t) = self.accept_thread.take() {
            t.join().ok();
        }
    }
}

/// The most bytes one request line may hold, its `\n` included; a
/// connection never buffers more. The longest line the repo's generators
/// produce is a `Request::Predict` of a 2 000-node `isp_tiered` sparse
/// sample, whose dense traffic matrix and routing table hold 4 M entries
/// each: measured at 36.1 MB with 256 active pairs and 36.9 MB with 4 096.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 << 20;

/// Serve one client connection: read request lines, write response lines.
///
/// The read loop is byte-oriented (`read_until`), not `lines()`: a frame
/// that is not valid UTF-8 must be *answered* with a structured error, not
/// treated as a connection-fatal I/O error — only EOF and real transport
/// errors end the connection. A line longer than
/// [`MAX_REQUEST_LINE_BYTES`] is answered the same way, its rest read past
/// without being kept. Chaos connection-drop injection (when configured)
/// severs the connection right before a reply is written, the worst
/// client-visible moment.
fn serve_connection<M: PathPredictor>(handle: ServeHandle<M>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut raw = Vec::new();
    loop {
        raw.clear();
        let limit = MAX_REQUEST_LINE_BYTES as u64;
        match (&mut reader).take(limit).read_until(b'\n', &mut raw) {
            Ok(0) | Err(_) => break, // EOF or transport error
            Ok(_) => {}
        }
        let response = if raw.len() == MAX_REQUEST_LINE_BYTES && raw.last() != Some(&b'\n') {
            if reader.skip_until(b'\n').is_err() {
                break;
            }
            Response::Error {
                message: format!(
                    "bad request: request line longer than {MAX_REQUEST_LINE_BYTES} bytes"
                ),
            }
        } else {
            match std::str::from_utf8(&raw) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => respond_line(&handle, line),
                Err(e) => Response::Error {
                    message: format!("bad request: invalid UTF-8 in request line: {e}"),
                },
            }
        };
        if let Some(chaos) = handle.chaos() {
            if chaos.should_drop_connection() {
                handle
                    .raw_metrics()
                    .conn_drops
                    .fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        let json = match serde_json::to_string(&response) {
            Ok(j) => j,
            Err(_) => "{\"Error\":{\"message\":\"response serialization failed\"}}".to_string(),
        };
        if writeln!(writer, "{json}")
            .and_then(|_| writer.flush())
            .is_err()
        {
            break;
        }
    }
}
