//! The scenario wire, frozen. `tests/fixtures/scenario_wire.jsonl` holds
//! sample lines as dataset files and `Predict` requests carry them, each
//! with what reading it gave when `Routing` and `TrafficMatrix` still kept
//! dense `n²` tables: the bytes it re-serialises to, or the reader's error.
//! The types now keep only the routed pairs and the nonzero rates, while
//! the wire keeps its dense form; these lines pin that it did so byte for
//! byte and that the readers accept and refuse what they did.
//!
//! - Three generated samples (dense NSFNET, a two-class QoS scenario, a
//!   sparse 16-pair `isp_tiered(40)`) must read, re-serialise to their own
//!   bytes and still equal what the generator makes at the recorded seed,
//!   so old dataset caches keep loading.
//! - Edited lines: a routing table and a traffic table one entry short
//!   (each reads, then `Sample::check_inputs` refuses it with the table's
//!   message), `num_nodes` after the tables, duplicated and unknown keys
//!   (the first occurrence wins, the rest is skipped unread), and a missing
//!   `rates_bps` or `num_nodes` (an error).
//!
//! Every line goes through `from_str::<Sample>`, every accepted sample
//! through `to_string`. Rewrite the fixture only from a commit whose wire
//! is the reference, with
//! `RN_REGEN_GOLDEN=1 cargo test --release --test scenario_wire`.

use rn_dataset::{generate_sample, generate_sparse_sample, GeneratorConfig, QosGenConfig, Sample};
use rn_netgraph::generators::{isp_tiered, TierConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use rn_tensor::Prng;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

const SEED: u64 = 20_191_209;

/// One fixture line.
#[derive(Serialize, Deserialize)]
struct Case {
    case: String,
    /// The generator seed of an unedited sample; `None` for an edited line.
    seed: Option<u64>,
    /// The sample line as the wire carries it.
    line: String,
    /// What the line re-serialises to, when that is not the line itself.
    written: Option<String>,
    /// The reader's error, for a line that reads to no sample.
    error: Option<String>,
    /// `Sample::check_inputs`'s refusal of a sample that reads.
    check: Option<String>,
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/scenario_wire.jsonl")
}

fn config(qos: bool) -> GeneratorConfig {
    GeneratorConfig {
        sim: SimConfig {
            duration_s: 20.0,
            warmup_s: 4.0,
            ..SimConfig::default()
        },
        qos: qos.then(QosGenConfig::two_class_mix),
        ..GeneratorConfig::default()
    }
}

/// The generated sample a case names, at `seed`.
fn generated(case: &str, seed: u64) -> Sample {
    match case {
        "nsfnet_dense" => generate_sample(&topologies::nsfnet_default(), &config(false), seed, 0),
        "toy5_two_class_qos" => generate_sample(&topologies::toy5(), &config(true), seed, 0),
        "isp40_sparse_16_pairs" => {
            let topo =
                isp_tiered(40, &TierConfig::default(), &mut Prng::new(40)).expect("isp_tiered(40)");
            generate_sparse_sample(&topo, &config(false), 16, seed, 0)
        }
        other => panic!("no generator for case {other}"),
    }
}

/// The line read, and the bytes it re-serialises to; or the reader's error.
fn read(line: &str) -> Result<(Sample, String), String> {
    let sample = serde_json::from_str::<Sample>(line).map_err(|e| e.to_string())?;
    let written = serde_json::to_string(&sample).expect("infallible");
    Ok((sample, written))
}

/// `line` with `from` replaced by `to` exactly once.
fn edit(line: &str, from: &str, to: &str) -> String {
    assert_eq!(line.matches(from).count(), 1, "`{from}` occurs once");
    line.replacen(from, to, 1)
}

/// The lines to freeze: three generated samples, then edits of the sparse
/// one (its tables hold `null`s and zeros, the entries a sparse form drops).
fn lines() -> Vec<(String, Option<u64>, String)> {
    let mut lines: Vec<(String, Option<u64>, String)> = [
        "nsfnet_dense",
        "toy5_two_class_qos",
        "isp40_sparse_16_pairs",
    ]
    .into_iter()
    .map(|case| {
        let line = serde_json::to_string(&generated(case, SEED)).expect("infallible");
        (case.to_string(), Some(SEED), line)
    })
    .collect();
    let sparse = lines[2].2.clone();
    let (routing_head, traffic_head) = (
        r#""routing":{"num_nodes":40,"#,
        r#""traffic":{"num_nodes":40,"#,
    );
    let (routing_tail, traffic_tail) = (r#"]},"traffic":"#, r#"]},"queue_profiles":"#);
    let rates = {
        let start = sparse.find(r#","rates_bps":["#).expect("rates_bps");
        let end = start
            + sparse[start..]
                .find(traffic_tail)
                .expect("end of rates_bps")
            + 1;
        &sparse[start..end]
    };
    let mut edited = |case: &str, line: String| lines.push((case.to_string(), None, line));
    edited(
        "routing_table_one_entry_short",
        edit(&sparse, &format!(",null{routing_tail}"), routing_tail),
    );
    edited(
        "traffic_table_one_entry_short",
        edit(&sparse, &format!(",0.0{traffic_tail}"), traffic_tail),
    );
    let late = edit(&sparse, routing_head, r#""routing":{"#);
    let late = edit(&late, traffic_head, r#""traffic":{"#);
    let late = edit(&late, routing_tail, r#"],"num_nodes":40},"traffic":"#);
    edited(
        "num_nodes_after_the_tables",
        edit(
            &late,
            traffic_tail,
            r#"],"num_nodes":40},"queue_profiles":"#,
        ),
    );
    let doubled = edit(
        &sparse,
        routing_tail,
        r#"],"paths":[1,"x",{}],"extra":{"a":[null]},"num_nodes":"x"},"traffic":"#,
    );
    edited(
        "keys_duplicated_and_unknown",
        edit(
            &doubled,
            traffic_tail,
            r#"],"rates_bps":[null],"num_nodes":-1,"more":0},"queue_profiles":"#,
        ),
    );
    edited("rates_bps_missing", edit(&sparse, rates, ""));
    edited(
        "num_nodes_missing",
        edit(&sparse, routing_head, r#""routing":{"#),
    );
    lines
}

fn regenerate() {
    let mut out = String::new();
    for (case, seed, line) in lines() {
        let (written, error, check) = match read(&line) {
            Ok((sample, written)) => (
                (written != line).then_some(written),
                None,
                sample.check_inputs().err(),
            ),
            Err(e) => (None, Some(e), None),
        };
        let case = Case {
            case,
            seed,
            line,
            written,
            error,
            check,
        };
        out.push_str(&serde_json::to_string(&case).expect("infallible"));
        out.push('\n');
    }
    std::fs::write(fixture_path(), out).expect("write the fixture");
    eprintln!("regenerated {}", fixture_path().display());
}

#[test]
fn scenario_lines_read_and_write_as_recorded() {
    if std::env::var("RN_REGEN_GOLDEN").is_ok() {
        regenerate();
        return;
    }
    let text = std::fs::read_to_string(fixture_path()).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with RN_REGEN_GOLDEN=1",
            fixture_path().display()
        )
    });
    let mut cases = 0;
    for fixture in text.lines() {
        let c: Case = serde_json::from_str(fixture).expect("fixture line");
        cases += 1;
        match (read(&c.line), &c.error) {
            (Ok((sample, written)), None) => {
                let want = c.written.as_deref().unwrap_or(&c.line);
                assert!(written == want, "{}: re-serialised to other bytes", c.case);
                assert_eq!(sample.check_inputs().err(), c.check, "{}", c.case);
                if let Some(seed) = c.seed {
                    let fresh = serde_json::to_string(&generated(&c.case, seed)).unwrap();
                    assert!(fresh == c.line, "{}: the generator moved", c.case);
                }
            }
            (Err(got), Some(want)) => assert_eq!(&got, want, "{}", c.case),
            (got, want) => panic!(
                "{}: read {:?}, recorded error {want:?}",
                c.case,
                got.map(drop)
            ),
        }
    }
    assert_eq!(cases, 9, "fixture lines");
}
