//! The wire's JSON, read two ways under mutation. Every request, reply and
//! dataset line the system exchanges is broken the ways a faulty or hostile
//! client breaks text — truncated, a byte swapped, a number or a string
//! replaced, a key duplicated, dropped or added 200 deep — and read by the
//! direct reader (`from_str::<T>`) and by the value tree it replaced
//! (`T::deserialize_value` over `from_str::<Value>`). The property: nothing
//! panics, both refuse the text or both accept it as the same value, and an
//! accepted value is written the same by the direct writer and the tree
//! writer.

use proptest::TestRng;
use rn_dataset::{generate, GeneratorConfig, QosGenConfig, Sample};
use rn_netgraph::topologies;
use rn_netsim::{FaultPlan, SimConfig};
use rn_serve::metrics::{stage, CacheStats, ServeMetrics};
use rn_serve::{Request, Response};
use serde::de::DeserializeOwned;
use serde::value::Value;
use serde::Serialize;

const CASES: usize = 2_000;

/// Whether `text` reads as a `T`, after checking that the direct and the
/// tree path agree on it.
fn agree<T: Serialize + DeserializeOwned>(text: &str) -> bool {
    let direct = serde_json::from_str::<T>(text);
    let tree = serde_json::from_str::<Value>(text)
        .map_err(|e| e.to_string())
        .and_then(|v| T::deserialize_value(&v).map_err(|e| e.to_string()));
    match (direct, tree) {
        (Ok(d), Ok(t)) => {
            let written = serde_json::to_string(&d).expect("infallible");
            let tree_written = serde_json::to_string(&t).expect("infallible");
            assert_eq!(written, tree_written, "read differently: {text:.300}");
            let through_tree = serde_json::to_string(&d.serialize_value()).expect("infallible");
            assert_eq!(written, through_tree, "written differently: {text:.300}");
            true
        }
        (Err(_), Err(_)) => false,
        (d, t) => panic!(
            "direct {:?} vs tree {:?} on {text:.300}",
            d.map(drop).map_err(|e| e.to_string()),
            t.map(drop)
        ),
    }
}

/// Where the tokens of a valid JSON text are, for the mutations to aim at.
#[derive(Default)]
struct Spans {
    /// `(key start, value start, value end)` of every object member.
    members: Vec<(usize, usize, usize)>,
    /// Every number token.
    numbers: Vec<(usize, usize)>,
    /// Every string token, quotes included.
    strings: Vec<(usize, usize)>,
    /// The byte after every `{`.
    objects: Vec<usize>,
}

impl Spans {
    fn of(text: &str) -> Self {
        let mut spans = Self::default();
        let end = spans.value(text.as_bytes(), 0);
        assert_eq!(
            end,
            text.len(),
            "seeds are single documents without whitespace"
        );
        spans
    }

    /// Record the value at `i`; returns the byte after it.
    fn value(&mut self, b: &[u8], mut i: usize) -> usize {
        match b[i] {
            b'{' => {
                self.objects.push(i + 1);
                i += 1;
                if b[i] == b'}' {
                    return i + 1;
                }
                loop {
                    let key = i;
                    i = self.value(b, i) + 1; // the key, then its `:`
                    let start = i;
                    i = self.value(b, i);
                    self.members.push((key, start, i));
                    i += 1;
                    if b[i - 1] == b'}' {
                        return i;
                    }
                }
            }
            b'[' => {
                i += 1;
                if b[i] == b']' {
                    return i + 1;
                }
                loop {
                    i = self.value(b, i) + 1;
                    if b[i - 1] == b']' {
                        return i;
                    }
                }
            }
            b'"' => {
                let mut j = i + 1;
                while b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                self.strings.push((i, j + 1));
                j + 1
            }
            b'n' | b't' => i + 4,
            b'f' => i + 5,
            _ => {
                let start = i;
                while i < b.len() && b"-+.eE0123456789".contains(&b[i]) {
                    i += 1;
                }
                self.numbers.push((start, i));
                i
            }
        }
    }
}

/// One line the system exchanges, and the type it is read as.
struct Seed {
    text: String,
    spans: Spans,
    agree: fn(&str) -> bool,
}

fn seed<T: Serialize + DeserializeOwned>(value: &T) -> Seed {
    let text = serde_json::to_string(value).expect("infallible");
    assert!(agree::<T>(&text), "the seed itself reads back: {text:.300}");
    Seed {
        spans: Spans::of(&text),
        text,
        agree: agree::<T>,
    }
}

fn short_sim() -> SimConfig {
    SimConfig {
        duration_s: 20.0,
        warmup_s: 2.0,
        ..SimConfig::default()
    }
}

/// Every `Request` and `Response` variant, over a generated NSFNET FIFO
/// sample and a GEANT2 QoS sample with faults, and a dataset's topology line.
fn seeds() -> Vec<Seed> {
    let fifo_config = GeneratorConfig {
        sim: short_sim(),
        ..GeneratorConfig::default()
    };
    let nsfnet = generate(&topologies::nsfnet_default(), &fifo_config, 3, 1);
    let qos_config = GeneratorConfig {
        sim: short_sim(),
        qos: Some(QosGenConfig::two_class_mix()),
        faults: Some(FaultPlan::with_drop_chance(0.01).with_outage(0, 5.0, 8.0)),
        ..GeneratorConfig::default()
    };
    let geant2 = generate(&topologies::geant2_default(), &qos_config, 5, 1);
    let fifo: &Sample = &nsfnet.samples[0];
    let qos: &Sample = &geant2.samples[0];
    assert!(qos.qos.is_some() && qos.faults.is_some());

    let metrics = ServeMetrics::new(8);
    rn_trace::set_enabled(true);
    metrics
        .stages
        .record(stage::QUEUE_WAIT, std::time::Duration::from_micros(80));
    metrics.note_completion();
    let caches = CacheStats {
        plan_hits: 5,
        plan_misses: 1,
        plan_evictions: u64::MAX,
        ..CacheStats::default()
    };
    let snapshot = metrics.snapshot(caches, 2, 1, 2);
    rn_trace::set_enabled(false);
    assert!(!snapshot.stage_latency.is_empty());

    let plan = "00000000deadbeef".to_string();
    let delays_s: Vec<f64> = qos.targets.iter().map(|t| t.mean_delay_s).collect();
    vec![
        seed(&Request::Register {
            sample: fifo.clone(),
        }),
        seed(&Request::Predict {
            sample: qos.clone(),
            deadline_ms: Some(250),
        }),
        seed(&Request::Predict {
            sample: fifo.clone(),
            deadline_ms: None,
        }),
        seed(&Request::Cached {
            plan: plan.clone(),
            deadline_ms: Some(5),
        }),
        seed(&Request::Metrics),
        seed(&Request::Ping),
        seed(&Response::Registered {
            plan: plan.clone(),
            paths: fifo.num_paths(),
        }),
        seed(&Response::Delays { plan, delays_s }),
        seed(&Response::Metrics { snapshot }),
        seed(&Response::Pong),
        seed(&Response::Overloaded { retry_after_ms: 25 }),
        seed(&Response::DeadlineExceeded),
        seed(&Response::Error {
            message: "bad request: \"quoted\"\n\tcontrol \u{1} and non-ASCII é".into(),
        }),
        seed(&geant2.topology),
    ]
}

/// A JSON `\u` escape of `code`.
fn u_escape(code: u32) -> String {
    format!("{}u{code:04x}", '\\')
}

/// `at`, moved down to the nearest char boundary of `text`.
fn boundary(text: &str, mut at: usize) -> usize {
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

fn pick<'a, T>(rng: &mut TestRng, items: &'a [T]) -> Option<&'a T> {
    (!items.is_empty()).then(|| &items[rng.below(items.len() as u64) as usize])
}

/// `text` with `range` replaced by `with`.
fn splice(text: &str, range: std::ops::Range<usize>, with: &str) -> String {
    format!("{}{with}{}", &text[..range.start], &text[range.end..])
}

/// One mutation of a seed, chosen by `rng`; the seed itself when the chosen
/// kind has nothing to aim at.
fn mutate(seed: &Seed, rng: &mut TestRng) -> String {
    let text = seed.text.as_str();
    let spans = &seed.spans;
    let at = |rng: &mut TestRng| boundary(text, rng.below(text.len() as u64 + 1) as usize);
    match rng.below(7) {
        0 => text[..at(rng)].to_string(),
        1 => {
            let i = boundary(text, rng.below(text.len() as u64) as usize);
            let width = text[i..].chars().next().map_or(0, char::len_utf8);
            let byte = *pick(rng, b"{}[]:,\"\\-+.eE09ntf ").expect("not empty");
            splice(text, i..i + width, &(byte as char).to_string())
        }
        2 => match pick(rng, &spans.numbers) {
            Some(&(start, end)) => {
                let numbers = ["-0", "1e999", "-1e999", "1.0", "-1", "18446744073709551616"];
                splice(text, start..end, pick(rng, &numbers).expect("not empty"))
            }
            None => text.to_string(),
        },
        3 => match pick(rng, &spans.strings) {
            Some(&(start, end)) => {
                let body = start + 1..end - 1;
                let i = boundary(text, body.start + rng.below(body.len() as u64 + 1) as usize);
                match rng.below(4) {
                    // The same string, one ASCII character spelled as an escape.
                    0 if i < body.end && text.as_bytes()[i].is_ascii_alphanumeric() => {
                        splice(text, i..i + 1, &u_escape(text.as_bytes()[i] as u32))
                    }
                    0 | 1 => splice(text, i..i, &u_escape(0xe9)),
                    2 => splice(text, i..i, &u_escape(0xd800)),
                    _ => splice(text, i..i, &(u_escape(0xd83d) + &u_escape(0xde00))),
                }
            }
            None => text.to_string(),
        },
        4 => match pick(rng, &spans.members) {
            Some(&(key, start, end)) => {
                let values = [&text[start..end], "\"wrong\"", "null", "[1,2]"];
                let copy = format!(
                    "{}{}",
                    &text[key..start],
                    pick(rng, &values).expect("not empty")
                );
                if rng.below(2) == 0 {
                    splice(text, key..key, &format!("{copy},"))
                } else {
                    splice(text, end..end, &format!(",{copy}"))
                }
            }
            None => text.to_string(),
        },
        5 => match pick(rng, &spans.members) {
            Some(&(key, _, end)) => {
                let bytes = text.as_bytes();
                if bytes[end] == b',' {
                    splice(text, key..end + 1, "")
                } else if bytes[key - 1] == b',' {
                    splice(text, key - 1..end, "")
                } else {
                    splice(text, key..end, "")
                }
            }
            None => text.to_string(),
        },
        _ => match pick(rng, &spans.objects) {
            Some(&open) => {
                let value = if rng.below(2) == 0 {
                    "[".repeat(200) + &"]".repeat(200)
                } else {
                    r#"{"a":[1,2.5,"x",null,true,{}]}"#.to_string()
                };
                let comma = if text.as_bytes()[open] == b'}' {
                    ""
                } else {
                    ","
                };
                splice(text, open..open, &format!(r#""unknown":{value}{comma}"#))
            }
            None => text.to_string(),
        },
    }
}

#[test]
fn wire_lines_read_the_same_both_ways_under_mutation() {
    let seeds = seeds();
    let mut rng = TestRng::for_test("wire_lines_read_the_same_both_ways_under_mutation");
    let (mut accepted, mut refused) = (0, 0);
    for _ in 0..CASES {
        let seed = pick(&mut rng, &seeds).expect("seeds");
        let text = mutate(seed, &mut rng);
        if (seed.agree)(&text) {
            accepted += 1;
        } else {
            refused += 1;
        }
    }
    // Both branches of the property ran, not only one.
    assert!(
        accepted >= CASES / 10 && refused >= CASES / 10,
        "{accepted} accepted, {refused} refused"
    );
}
