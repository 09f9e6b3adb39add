//! The repo's benchmark: six workloads over train / eval / datagen / serve,
//! end-to-end metrics with tracing off and per-layer metrics from a traced
//! pass. See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, result as the last stdout line
//! benchmark run [--seed N] [--workload W] [--seconds S] [--runs K]
//! benchmark compare A.json B.json
//! benchmark manifest                                        BENCHMARK.json from the metric tables
//! ```

mod metrics;
mod proc;
mod report;
mod spans;
mod stats;
mod workloads;

use metrics::{Json, Outcome, Values, WORKLOADS};
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::datagen::Datagen;
use workloads::eval::Eval;
use workloads::serve::{Cached, Predict, Serve};
use workloads::train::{Nsfnet, QosSmall, Train};
use workloads::Workload;

/// Set-ups per run: `SETUP_MIN`, and up to `SETUP_MAX` while another one
/// still fits in `SETUP_BUDGET_S`; `setup_s` is their median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 7;
const SETUP_BUDGET_S: f64 = 2.0;

/// Where between its slowest rep (0) and its fastest (1) a pass reads its
/// throughput and latency: the fast decile. The rest of a shared host only
/// ever slows a rep, so the fast end repeats from run to run and the median
/// does not (README, "Why the fast decile").
const FAST_SIDE: f64 = 0.9;

/// Where results, traces and scratch files go: `benchmark/` in the cargo
/// target directory this executable was built into.
fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("cargo puts executables two levels below the target directory");
    target.join("benchmark")
}

/// The value following `flag` among `args`.
fn flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("bad value `{raw}` for {name}")),
    }
}

/// One run of one workload: set up several times, then either the
/// untraced timed reps (end-to-end metrics) or the traced pass (per-layer).
fn run_workload<W: Workload>(seed: u64, seconds: f64, trace: bool, trace_file: &Path) -> Outcome {
    let scratch = output_dir().join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("the target directory is writable");
    let mut setup_walls = Vec::new();
    let mut workload: Option<W> = None;
    let another_fits = |walls: &[f64]| {
        walls.len() < SETUP_MAX
            && walls.iter().sum::<f64>() + walls[walls.len() - 1] < SETUP_BUDGET_S
    };
    while setup_walls.len() < SETUP_MIN || another_fits(&setup_walls) {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(W::setup(seed, &scratch));
        setup_walls.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUP_MIN is positive");
    let after_setup = proc::sample();
    let started = Instant::now();

    let outcome = if trace {
        let recorder = Recorder::new();
        let mut layers = Values::per_layer_zeroed();
        let traced = workload.trace(seconds, &recorder, &mut layers);
        let end = proc::sample();
        layers.set(
            "proc.minor_faults",
            end.minor_faults - after_setup.minor_faults,
        );
        layers.set("proc.cpu_user_s", end.cpu_user_s - after_setup.cpu_user_s);
        layers.set("proc.cpu_sys_s", end.cpu_sys_s - after_setup.cpu_sys_s);
        layers.set("proc.rss_growth_mb", end.rss_mb - after_setup.rss_mb);
        layers.set("trace.span_coverage", recorder.min_root_coverage());
        if let Err(e) = recorder.write_jsonl(trace_file) {
            eprintln!("could not write {}: {e}", trace_file.display());
        }
        Outcome {
            attempted: traced.attempted,
            failed: traced.failed,
            violations: traced.violations,
            metrics: layers,
        }
    } else {
        let (mut throughputs, mut latencies, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
        let (mut attempted, mut failed) = (0, 0);
        let mut violations = Vec::new();
        while started.elapsed().as_secs_f64() < seconds {
            // Per-rep high-water marks. Allocator noise only ever adds to a
            // rep's peak (memory freed by one rep's threads is not always
            // reusable by the next rep's), so the smallest is the steady one.
            proc::reset_peak_rss();
            let rep = workload.rep(&mut violations);
            peaks.push(proc::sample().peak_rss_mb);
            throughputs.push(rep.throughput);
            latencies.push(rep.latency_p50_ms);
            attempted += rep.attempted;
            failed += rep.failed;
        }
        println!("throughput_per_s per rep: {throughputs:.1?}");
        println!("latency_p50_ms per rep: {latencies:.3?}");
        for (name, values) in [
            ("throughput_per_s", &throughputs),
            ("latency_p50_ms", &latencies),
        ] {
            let (lo, hi) = stats::min_max(values);
            println!(
                "{name} over {} reps: min {lo:.3} p10 {:.3} p25 {:.3} median {:.3} p75 {:.3} p90 {:.3} max {hi:.3}",
                values.len(),
                stats::quantile(values, 0.1),
                stats::quantile(values, 0.25),
                stats::median(values),
                stats::quantile(values, 0.75),
                stats::quantile(values, 0.9),
            );
        }
        let (lo, hi) = stats::min_max(&peaks);
        println!("peak_rss_mb per rep: min {lo:.1} max {hi:.1}");
        let mut metrics = Values::default();
        metrics.set("throughput_per_s", stats::quantile(&throughputs, FAST_SIDE));
        metrics.set(
            "latency_p50_ms",
            stats::quantile(&latencies, 1.0 - FAST_SIDE),
        );
        metrics.set("peak_rss_mb", lo);
        metrics.set("setup_s", stats::median(&setup_walls));
        Outcome {
            attempted,
            failed,
            violations,
            metrics,
        }
    };
    println!(
        "set-up {:?} s, pass {:.2} s, {} cores",
        setup_walls,
        started.elapsed().as_secs_f64(),
        proc::host_cores()
    );
    drop(workload);
    std::fs::remove_dir_all(&scratch).ok();
    outcome
}

/// The contract entry: one workload, one pass, the result object as the last
/// line of standard output.
fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("--workload is required")?;
    let seed: u64 = parsed(args, "--seed", 1)?;
    let seconds: f64 = parsed(args, "--seconds", metrics::RUN_SECONDS as f64)?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad value `{other}` for --trace")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    match proc::pin_to_one_cpu() {
        Some((allowed, cpu)) => println!("pinned to CPU {cpu}, one of {allowed} allowed"),
        None => println!("could not pin to one CPU: this run uses every core"),
    }
    let out = output_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let trace_file = out.join(format!("trace-{name}-seed{seed}.jsonl"));
    let outcome = match name {
        "train_nsfnet" => run_workload::<Train<Nsfnet>>(seed, seconds, trace, &trace_file),
        "train_qos_small" => run_workload::<Train<QosSmall>>(seed, seconds, trace, &trace_file),
        "eval_isp250" => run_workload::<Eval>(seed, seconds, trace, &trace_file),
        "datagen_geant2" => run_workload::<Datagen>(seed, seconds, trace, &trace_file),
        "serve_cached" => run_workload::<Serve<Cached>>(seed, seconds, trace, &trace_file),
        "serve_predict" => run_workload::<Serve<Predict>>(seed, seconds, trace, &trace_file),
        other => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!("unknown workload `{other}` (one of {known:?})"));
        }
    };
    for violation in &outcome.violations {
        println!("GATE FAILED: {violation}");
    }
    println!(
        "{}",
        serde_json::to_string(&Json(outcome.to_json())).expect("infallible writer")
    );
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => report::run_all(&args[1..]),
        Some("compare") => report::compare(&args[1..]),
        Some("manifest") => {
            println!("{}", report::pretty(&metrics::manifest(), 0));
            Ok(ExitCode::SUCCESS)
        }
        _ => run_one(&args),
    };
    result.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}
