//! Load generator CLI: drive a running `rn_serve` frontend and print a
//! throughput/latency report as JSON.
//!
//! ```sh
//! rn_loadgen --addr 127.0.0.1:9977 --topology nsfnet \
//!            --clients 4 --requests 64 --mode cached \
//!            --deadline-ms 250 --retries 3 --backoff-ms 5
//! ```
//!
//! `--mode naive` re-sends the full scenario JSON on every request (the
//! pre-serving usage pattern); `--mode cached` registers scenarios once and
//! then queries by fingerprint. Scenario generation is seed-deterministic,
//! so pointing this at a server started on the same topology works without
//! shipping files around. With `RN_TRACE=1` the server's final metrics
//! snapshot is written as one JSON line to `--metrics-out PATH` (default
//! `serve_metrics.jsonl`).
//!
//! An unreachable server, a flag whose value does not parse, an argument
//! that is no flag of this binary, or a failed client thread exits nonzero
//! with a one-line summary on stderr — never a panic/backtrace — so shell
//! pipelines and the examples' quickstart can branch on `$?`.

use rn_serve::cli::Flags;
use rn_serve::loadgen::{demo_scenarios, run_loadgen, Client, LoadMode, LoadgenConfig};
use rn_serve::{Request, Response};
use std::env;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[loadgen] error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let flags = Flags::new(env::args());
    let defaults = LoadgenConfig::new(flags.get_or("--addr", "127.0.0.1:9977".to_string())?);
    let config = LoadgenConfig {
        clients: flags.get_or("--clients", 4)?,
        requests_per_client: flags.get_or("--requests", 32)?,
        mode: LoadMode::parse(&flags.get_or("--mode", "cached".to_string())?)?,
        deadline_ms: flags.get("--deadline-ms")?.filter(|&ms: &u64| ms > 0),
        max_retries: flags.get_or("--retries", defaults.max_retries)?,
        backoff_base_ms: flags.get_or("--backoff-ms", defaults.backoff_base_ms)?,
        ..defaults
    };
    let topology = flags.get_or("--topology", "nsfnet".to_string())?;
    let scenarios = flags.get_or("--scenarios", 4usize)?;
    let sim_s = flags.get_or("--sim-duration", 60.0)?;
    let seed = flags.get_or("--seed", 2019u64)?;
    let metrics_out = flags.get_or("--metrics-out", "serve_metrics.jsonl".to_string())?;
    flags.finish()?;

    eprintln!("[loadgen] generating {scenarios} {topology} scenarios ...");
    let (_, samples) = demo_scenarios(&topology, scenarios, sim_s, seed)?;
    eprintln!(
        "[loadgen] {} clients x {} requests ({:?}) against {}",
        config.clients, config.requests_per_client, config.mode, config.addr
    );
    let report = run_loadgen(&config, &samples)
        .map_err(|e| format!("{e} (is rn_serve running at {}?)", config.addr))?;
    println!(
        "{}",
        serde_json::to_string(&report).map_err(|e| format!("serialize report: {e}"))?
    );
    if report.rejected > 0 || report.retries > 0 || report.gave_up > 0 {
        eprintln!(
            "[loadgen] overload: {} rejects ({:.1}% of attempts), {} retries, \
             {} gave up, {} deadline-expired",
            report.rejected,
            report.reject_rate * 100.0,
            report.retries,
            report.gave_up,
            report.deadline_exceeded,
        );
    }

    // End-of-run server-side cache summary: how many `Cached` requests
    // found their plan resident (`Register` and `Predict` plan and insert
    // without a lookup, so only `Cached` counts).
    match Client::connect(&config.addr).and_then(|mut c| {
        c.round_trip(&Request::Metrics)
            .map_err(std::io::Error::other)
    }) {
        Ok(Response::Metrics { snapshot }) => {
            eprintln!(
                "[loadgen] server plan cache: `Cached` hit rate {:.3} ({}/{} lookups), \
                 {} plans resident, {} evicted",
                snapshot.cache_hit_rate,
                snapshot.cache_hits,
                snapshot.cache_hits + snapshot.cache_misses,
                snapshot.cache_len,
                snapshot.plan_evictions,
            );
            eprintln!(
                "[loadgen] server: {} workers, model v{}, up {:.1}s",
                snapshot.workers, snapshot.model_version, snapshot.uptime_s
            );
            eprintln!(
                "[loadgen] server tapes: {:.1} KiB parked per worker tape (high-water), \
                 {} pool misses",
                snapshot.tape_pool_bytes as f64 / 1024.0,
                snapshot.tape_pool_misses
            );
            // Request-lifecycle breakdown, present when the server runs
            // with RN_TRACE=1: where a request's latency actually goes.
            for s in &snapshot.stage_latency {
                eprintln!(
                    "[loadgen] stage {:>14}: n {:>6}  p50 {:>8.3}ms  p95 {:>8.3}ms  \
                     p99 {:>8.3}ms  mean {:>8.3}ms  total {:>10.1}ms",
                    s.name, s.count, s.p50_ms, s.p95_ms, s.p99_ms, s.mean_ms, s.total_ms
                );
            }
            // And mirror the snapshot to `--metrics-out` for dashboards/CI
            // artifacts when this side runs traced too.
            if rn_trace::enabled() {
                match serde_json::to_string(&snapshot) {
                    Ok(line) => match std::fs::write(&metrics_out, line + "\n") {
                        Ok(()) => eprintln!("[loadgen] metrics snapshot written to {metrics_out}"),
                        Err(e) => eprintln!("[loadgen] cannot write {metrics_out}: {e}"),
                    },
                    Err(e) => eprintln!("[loadgen] serialize snapshot: {e}"),
                }
            }
        }
        Ok(other) => eprintln!("[loadgen] unexpected metrics response: {other:?}"),
        Err(e) => eprintln!("[loadgen] metrics fetch failed: {e}"),
    }
    // A run where every request failed is a failed run, even though the
    // report printed — quickstart scripts branch on the exit code.
    if report.requests == 0 {
        return Err("no request succeeded".into());
    }
    Ok(())
}
