//! The benchmark's vocabulary: workload names, end-to-end metrics with
//! their bounds, per-layer metrics, and the result line a run prints.
//! `BENCHMARK.json` is `benchmark manifest`'s rendering of these tables.

use serde::value::Value;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 16;

/// `(name, why it exists)` — one line each, final.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "train_nsfnet",
        "paper-scale ExtendedRouteNet on NSFNET: tensor/GRU/tape kernels are >90% of a step, so kernel and megabatch changes must win here",
    ),
    (
        "train_qos_small",
        "same trainer, tiny QosRouteNet: compose, bind, tape bookkeeping, grads, clip and Adam dominate; only end-to-end cover of the queue entity",
    ),
    (
        "eval_isp250",
        "inference over 250-node ISP graphs larger than cache, distinct shapes per sample, planning inside the call: where the 100-to-250 cliff lives",
    ),
    (
        "datagen_geant2",
        "no tape work: both simulator loops, routing, label extraction and the hand-written JSON on multi-MB dataset files",
    ),
    (
        "serve_cached",
        "every request hits the plan cache, so queue, batcher, worker, reply and the wire are the cost and forward is the floor",
    ),
    (
        "serve_predict",
        "full-scenario requests over 1.5x the plan cache: JSON parse, fingerprint, build_plan and evictions on a third of requests",
    ),
];

/// An end-to-end metric: what a user of the system sees, with the share of
/// the parent's median it may worsen by before a change is a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these (tracing off).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "throughput_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// `(name, unit, better)` of the per-layer metrics, grouped by layer. Every
/// workload's traced run reports all of them; a layer the workload's path
/// does not cross reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // rn_tensor: kernels at the workload's own path-GRU shape.
    ("tensor.matmul_gflops", "GFLOP/s", "higher"),
    ("tensor.matmul_tn_gflops", "GFLOP/s", "higher"),
    ("tensor.tanh_melem_per_s", "Melem/s", "higher"),
    ("tensor.matmul_bytes_per_call", "B", "lower"),
    // rn_nn
    ("nn.gru_step_us", "us", "lower"),
    ("nn.clip_us", "us", "lower"),
    ("nn.adam_us", "us", "lower"),
    // rn_autograd
    ("autograd.bind_us", "us", "lower"),
    ("autograd.backward_ms", "ms", "lower"),
    ("autograd.tape_nodes", "count", "lower"),
    ("autograd.index_words_copied", "count", "lower"),
    ("autograd.pooled_buffers", "count", "lower"),
    ("autograd.bwd_gather_share", "ratio", "lower"),
    ("autograd.bwd_gru_share", "ratio", "lower"),
    ("autograd.bwd_segment_share", "ratio", "lower"),
    ("autograd.bwd_matmul_share", "ratio", "lower"),
    ("autograd.bwd_other_share", "ratio", "lower"),
    // rn_core
    ("core.fit_preprocessing_ms", "ms", "lower"),
    ("core.plan_us", "us", "lower"),
    ("core.fingerprint_us", "us", "lower"),
    ("core.compose_us", "us", "lower"),
    ("core.refill_us", "us", "lower"),
    ("core.forward_ms", "ms", "lower"),
    ("core.grads_us", "us", "lower"),
    ("core.predict_us", "us", "lower"),
    ("core.direct_predict_rps", "1/s", "higher"),
    ("core.report_us", "us", "lower"),
    ("core.replica_ratio", "ratio", "higher"),
    ("core.trainer_compose_wait_share", "ratio", "lower"),
    // rn_netgraph
    ("netgraph.routing_us", "us", "lower"),
    ("netgraph.isp_tiered_ms", "ms", "lower"),
    // rn_netsim
    ("netsim.fifo_sim_ms", "ms", "lower"),
    ("netsim.qos_sim_ms", "ms", "lower"),
    ("netsim.fifo_pkts_per_s", "1/s", "higher"),
    ("netsim.qos_pkts_per_s", "1/s", "higher"),
    // rn_dataset + vendor/serde_json
    ("dataset.generate_sample_ms", "ms", "lower"),
    ("dataset.self_share", "ratio", "lower"),
    ("dataset.fifo_samples_per_s", "1/s", "higher"),
    ("dataset.qos_samples_per_s", "1/s", "higher"),
    ("dataset.roundtrip_mb_per_s", "MB/s", "higher"),
    ("dataset.save_mb_per_s", "MB/s", "higher"),
    ("dataset.load_mb_per_s", "MB/s", "higher"),
    ("dataset.bytes_per_sample", "B", "lower"),
    ("serde_json.from_str_mb_per_s", "MB/s", "higher"),
    ("serde_json.to_string_mb_per_s", "MB/s", "higher"),
    // rn_serve
    ("serve.closed_p50_ms", "ms", "lower"),
    ("serve.open_p99_ms", "ms", "lower"),
    ("serve.ping_rtt_us", "us", "lower"),
    ("serve.register_rtt_ms", "ms", "lower"),
    ("serve.inproc_us", "us", "lower"),
    ("serve.wire_overhead_us", "us", "lower"),
    ("serve.service_overhead_us", "us", "lower"),
    ("serve.batch_occupancy", "count", "higher"),
    ("serve.plan_cache_hit_ratio", "ratio", "higher"),
    ("serve.compose_cache_hit_ratio", "ratio", "higher"),
    ("serve.batch_shapes", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.deadline_expired", "count", "lower"),
    ("serve.worker_panics", "count", "lower"),
    ("serve.stage_queue_wait_us", "us", "lower"),
    ("serve.stage_batch_assembly_us", "us", "lower"),
    ("serve.stage_compose_us", "us", "lower"),
    ("serve.stage_forward_us", "us", "lower"),
    ("serve.stage_reply_us", "us", "lower"),
    ("serve.stage_sum_error_pct", "%", "lower"),
    // load generator and process
    ("loadgen.late_share", "ratio", "lower"),
    ("loadgen.max_lag_ms", "ms", "lower"),
    ("loadgen.achieved_rps", "1/s", "higher"),
    ("proc.minor_faults", "count", "lower"),
    ("proc.cpu_user_s", "s", "lower"),
    ("proc.cpu_sys_s", "s", "lower"),
    ("proc.rss_growth_mb", "MB", "lower"),
    // the tracing itself
    ("trace.span_coverage", "ratio", "higher"),
    ("trace_overhead_pct", "%", "lower"),
];

/// Unit of the metric called `name`, from whichever table lists it.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or_else(|| panic!("`{name}` is in neither metric table"))
}

/// Named values of one run, in report order.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Every per-layer metric at 0: the traced pass overwrites the rows of
    /// the layers it crosses.
    pub fn per_layer_zeroed() -> Self {
        Self(PER_LAYER.iter().map(|m| (m.0, 0.0)).collect())
    }

    /// Set `name`; it must be listed in a metric table.
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The values in report order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }
}

/// What one run of one workload found.
pub struct Outcome {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed or returned a wrong output.
    pub failed: u64,
    /// Correctness gates that did not hold (empty = correct).
    pub violations: Vec<String>,
    /// The metrics of this pass.
    pub metrics: Values,
}

/// A JSON tree the vendored `serde_json` can print.
pub struct Json(pub Value);

impl serde::Serialize for Json {
    fn serialize_value(&self) -> Value {
        self.0.clone()
    }
}

impl<'de> serde::Deserialize<'de> for Json {
    fn deserialize_value(v: &Value) -> Result<Self, serde::value::DeError> {
        Ok(Self(v.clone()))
    }
}

/// Shorthand for an object value.
pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Outcome {
    /// True when no gate was violated and no operation failed.
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                (
                    name.to_string(),
                    object(vec![
                        ("value", Value::F64(value)),
                        ("unit", Value::Str(unit_of(name).to_string())),
                    ]),
                )
            })
            .collect();
        object(vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::U64(self.attempted.max(1))),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Object(metrics)),
        ])
    }
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Value {
    let s = |v: &str| Value::Str(v.to_string());
    object(vec![
        (
            "command",
            Value::Array(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|a| s(a))
                .collect(),
            ),
        ),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| object(vec![("name", s(name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better)),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        object(vec![
                            ("name", s(name)),
                            ("unit", s(unit)),
                            ("better", s(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
