//! The human-facing commands: `run` (every workload, untraced and traced,
//! in a child process each so peak memory and fault counts are per
//! workload), `compare` (two result files against the bounds), and the JSON
//! pretty-printer `manifest` uses.

use crate::metrics::{object, Json, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::{median, min_max, spread};
use serde::value::Value;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn text(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// The value of `metric` in one result entry.
fn metric_value(entry: &Value, metric: &str) -> Option<f64> {
    get(get(get(entry, "metrics")?, metric)?, "value").and_then(number)
}

/// Indented rendering of a JSON tree (the vendored writer prints one line).
pub fn pretty(v: &Value, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    let scalar_items = |items: &[Value]| {
        items
            .iter()
            .all(|i| !matches!(i, Value::Array(_) | Value::Object(_)))
    };
    match v {
        Value::Array(items) if !items.is_empty() && !scalar_items(items) => {
            let body: Vec<String> = items
                .iter()
                .map(|i| format!("{pad}{}", pretty(i, depth + 1)))
                .collect();
            format!("[\n{}\n{close}]", body.join(",\n"))
        }
        Value::Object(fields) if depth == 0 => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, f)| format!("{pad}\"{k}\": {}", pretty(f, depth + 1)))
                .collect();
            format!("{{\n{}\n{close}}}", body.join(",\n"))
        }
        other => serde_json::to_string(&Json(other.clone())).expect("infallible writer"),
    }
}

/// Run this executable once in contract mode; returns the result entry
/// (the child's last stdout line, tagged with workload and trace flag).
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output (status {})", output.status))?;
    for line in lines {
        println!("    {line}");
    }
    let Json(result) =
        serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let Value::Object(mut fields) = result else {
        return Err(format!("{workload}: result line is not an object"));
    };
    fields.insert(
        0,
        ("workload".to_string(), Value::Str(workload.to_string())),
    );
    fields.insert(1, ("trace".to_string(), Value::Bool(trace)));
    Ok(Value::Object(fields))
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `benchmark run`: every workload (or one), `--runs` untraced runs and one
/// traced run each; prints every metric by name with its unit and writes the
/// result file. Fails when any run reports an incorrect output.
pub fn run_all(args: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = crate::parsed(args, "--seed", 1)?;
    let seconds: f64 = crate::parsed(args, "--seconds", RUN_SECONDS as f64)?;
    let runs: usize = crate::parsed(args, "--runs", 1)?;
    let only = crate::flag(args, "--workload");
    if let Some(name) = only {
        if !WORKLOADS.iter().any(|w| w.0 == name) {
            return Err(format!("unknown workload `{name}`"));
        }
    }
    let mut entries = Vec::new();
    let mut correct = true;
    for (workload, why) in WORKLOADS.iter().filter(|w| only.is_none_or(|o| o == w.0)) {
        println!("== {workload}: {why}");
        let first = entries.len();
        for _ in 0..runs.max(1) {
            entries.push(child(workload, seed, seconds, false)?);
        }
        entries.push(child(workload, seed, seconds, true)?);
        let (untraced, traced) = entries[first..].split_at(runs.max(1));
        for m in END_TO_END {
            let values: Vec<f64> = untraced
                .iter()
                .filter_map(|e| metric_value(e, m.name))
                .collect();
            let (lo, hi) = min_max(&values);
            println!(
                "  {:<34} {:>14.4} {:<8} (min {lo:.4}, max {hi:.4}, {} runs, {} is better)",
                m.name,
                median(&values),
                m.unit,
                values.len(),
                m.better
            );
        }
        for (name, unit, _) in PER_LAYER {
            let value = metric_value(&traced[0], name).unwrap_or(f64::NAN);
            println!("  {name:<34} {value:>14.4} {unit}");
        }
        for entry in &entries[first..] {
            let count = |key| get(entry, key).and_then(number).unwrap_or(0.0);
            let ok = matches!(get(entry, "correct"), Some(Value::Bool(true)));
            println!(
                "  operations attempted {} failed {}{}",
                count("attempted"),
                count("failed"),
                if ok { "" } else { "  <-- INCORRECT" }
            );
            correct &= ok;
        }
    }
    let results = object(vec![
        ("commit", Value::Str(git_commit())),
        ("seed", Value::U64(seed)),
        ("seconds", Value::F64(seconds)),
        ("host_cores", Value::U64(crate::proc::host_cores() as u64)),
        ("results", Value::Array(entries)),
    ]);
    let out = crate::output_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let file = out.join(format!("results-seed{seed}-{}.json", std::process::id()));
    std::fs::write(&file, pretty(&results, 0)).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("results written to {}", file.display());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn load_results(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let Json(root) = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    match get(&root, "results") {
        Some(Value::Array(entries)) => Ok(entries.clone()),
        _ => Err(format!("{path}: no `results` array")),
    }
}

/// Untraced values of `metric` on `workload`.
fn values_of(entries: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    entries
        .iter()
        .filter(|e| {
            get(e, "workload").and_then(text) == Some(workload)
                && matches!(get(e, "trace"), Some(Value::Bool(false)))
        })
        .filter_map(|e| metric_value(e, metric))
        .collect()
}

/// `benchmark compare A.json B.json`: per (metric, workload) both medians,
/// the bound, and a verdict — `worse` when B's median is worse than A's by
/// more than the bound; `unresolved` when the runs of either side spread
/// wider than the bound (unless every run of B beats every run of A);
/// `ok` otherwise. Fails when any pair is worse.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: benchmark compare A.json B.json".to_string());
    };
    let (a, b) = (load_results(a_path)?, load_results(b_path)?);
    let mut any_worse = false;
    println!(
        "{:<16} {:<18} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "spread"
    );
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            let (va, vb) = (
                values_of(&a, workload, m.name),
                values_of(&b, workload, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let higher = m.better == "higher";
            let worse_by = if higher {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            // Quartiles of fewer than four runs say nothing.
            let widest = [&va, &vb]
                .iter()
                .filter(|v| v.len() >= 4)
                .map(|v| spread(v))
                .fold(0.0f64, f64::max);
            let (a_lo, a_hi) = min_max(&va);
            let (b_lo, b_hi) = min_max(&vb);
            let all_better = if higher { b_lo > a_hi } else { b_hi < a_lo };
            let verdict = if worse_by > m.bound {
                any_worse = true;
                "worse"
            } else if widest > m.bound && !all_better {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{workload:<16} {:<18} {ma:>12.4} {mb:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {verdict}",
                m.name,
                (mb - ma) / ma * 100.0,
                m.bound * 100.0,
                widest * 100.0
            );
        }
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
