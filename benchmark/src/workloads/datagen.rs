//! `datagen_geant2`: `rn_dataset::generate` on GEANT2 through both simulator
//! loops, then each dataset saved as JSONL and loaded back.

use super::{generator, probe_generation, probe_json, stream_seed, Rep, Stream, Traced, Workload};
use crate::metrics::Values;
use crate::spans::Recorder;
use rn_dataset::io::{load_jsonl, save_jsonl};
use rn_dataset::{generate, Dataset, Sample};
use rn_netgraph::{topologies, Topology};
use rn_tensor::Prng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Samples per flavour (FIFO, QoS) per rep.
const SAMPLES: usize = 32;
/// Samples per flavour in the warm-up rep.
const WARMUP_SAMPLES: usize = 8;
const SIM_DURATION_S: f64 = 1200.0;

/// The generation workload's inputs.
pub struct Datagen {
    seed: u64,
    topo: Topology,
    scratch: PathBuf,
    /// The two files of the first full rep: later reps must write the same
    /// bytes.
    reference_files: Option<[Vec<u8>; 2]>,
}

/// Wall seconds of one rep's parts.
#[derive(Default, Clone, Copy)]
struct RepWalls {
    generate_fifo: f64,
    generate_qos: f64,
    save: f64,
    load: f64,
    file_bytes: f64,
}

impl RepWalls {
    fn total(&self) -> f64 {
        self.generate_fifo + self.generate_qos + self.save + self.load
    }
}

impl Datagen {
    /// Generate, save and load both flavours; the byte checks run outside
    /// the timed parts.
    fn generate_all(&mut self, samples: usize, violations: &mut Vec<String>) -> RepWalls {
        let mut walls = RepWalls::default();
        let mut files: [Vec<u8>; 2] = [Vec::new(), Vec::new()];
        for (slot, qos) in [false, true].into_iter().enumerate() {
            let t = Instant::now();
            // The two flavours draw their scenarios apart: how much traffic
            // a set of 32 holds moves its cost by ~5 % from seed to seed, and
            // one draw for both would move the whole rep by that much.
            let scenarios = Prng::new(stream_seed(self.seed, Stream::Scenarios)).split(slot as u64);
            let dataset = generate(
                &self.topo,
                &generator(SIM_DURATION_S, qos),
                scenarios.seed(),
                samples,
            );
            let generate_s = t.elapsed().as_secs_f64();
            if qos {
                walls.generate_qos = generate_s;
            } else {
                walls.generate_fifo = generate_s;
            }
            let path = self.scratch.join(format!("dataset_{slot}.jsonl"));
            let t = Instant::now();
            let saved = save_jsonl(&dataset, &path);
            walls.save += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let loaded = load_jsonl(&path);
            walls.load += t.elapsed().as_secs_f64();
            match (saved, loaded) {
                (Ok(()), Ok(loaded)) => {
                    files[slot] = std::fs::read(&path).unwrap_or_default();
                    walls.file_bytes += files[slot].len() as f64;
                    self.check_roundtrip(&loaded, &files[slot], qos, violations);
                }
                (saved, loaded) => violations.push(format!(
                    "dataset round trip failed: save {:?}, load {:?}",
                    saved.err(),
                    loaded.err()
                )),
            }
        }
        if samples == SAMPLES {
            match &self.reference_files {
                None => self.reference_files = Some(files),
                Some(reference) if *reference != files => violations
                    .push("generate() wrote different bytes in two reps of one seed".to_string()),
                Some(_) => {}
            }
        }
        walls
    }

    /// `load_jsonl(save_jsonl(ds))` must serialise back to the same bytes.
    fn check_roundtrip(
        &self,
        loaded: &Dataset,
        written: &[u8],
        qos: bool,
        violations: &mut Vec<String>,
    ) {
        let again = self.scratch.join("dataset_again.jsonl");
        let same = save_jsonl(loaded, &again).is_ok()
            && std::fs::read(&again).is_ok_and(|bytes| bytes == written);
        if !same {
            violations.push(format!(
                "the loaded dataset (qos={qos}) does not serialise back to the bytes it was read from"
            ));
        }
        if let Err(e) = loaded.validate() {
            violations.push(format!("the loaded dataset (qos={qos}) is invalid: {e}"));
        }
    }
}

impl Workload for Datagen {
    fn setup(seed: u64, scratch: &Path) -> Self {
        let mut workload = Self {
            seed,
            topo: topologies::geant2_default(),
            scratch: scratch.to_path_buf(),
            reference_files: None,
        };
        workload.generate_all(WARMUP_SAMPLES, &mut Vec::new());
        workload
    }

    fn rep(&mut self, violations: &mut Vec<String>) -> Rep {
        let wall = self.generate_all(SAMPLES, violations).total();
        Rep {
            throughput: 2.0 * SAMPLES as f64 / wall,
            latency_p50_ms: wall * 1e3,
            attempted: 1,
            failed: 0,
        }
    }

    fn trace(&mut self, seconds: f64, rec: &Recorder, layers: &mut Values) -> Traced {
        let mut traced = Traced::default();

        // The real entry points, tracing off then on (generation has no
        // RN_TRACE hooks of its own; the pair shows the switch is free).
        let untraced = self.generate_all(SAMPLES, &mut traced.violations);
        rn_trace::set_enabled(true);
        let with_trace = self.generate_all(SAMPLES, &mut traced.violations);
        rn_trace::set_enabled(false);
        traced.attempted += 2;
        layers.set(
            "trace_overhead_pct",
            (with_trace.total() / untraced.total() - 1.0) * 100.0,
        );
        let mb = untraced.file_bytes / 1e6;
        layers.set(
            "dataset.fifo_samples_per_s",
            SAMPLES as f64 / untraced.generate_fifo,
        );
        layers.set(
            "dataset.qos_samples_per_s",
            SAMPLES as f64 / untraced.generate_qos,
        );
        layers.set(
            "dataset.roundtrip_mb_per_s",
            mb / (untraced.save + untraced.load),
        );
        layers.set("dataset.save_mb_per_s", mb / untraced.save);
        layers.set("dataset.load_mb_per_s", mb / untraced.load);
        layers.set(
            "dataset.bytes_per_sample",
            untraced.file_bytes / (2 * SAMPLES) as f64,
        );

        // Sample by sample under spans: routing and simulator re-run on the
        // inputs each sample records, FIFO loop and QoS loop apart.
        let per_flavour = ((seconds / 2.0) as u64).clamp(2, 8);
        for qos in [false, true] {
            traced.violations.extend(probe_generation(
                rec,
                layers,
                &self.topo,
                &generator(SIM_DURATION_S, qos),
                stream_seed(self.seed, Stream::Scenarios),
                per_flavour,
            ));
        }
        let reference = self.reference_files.as_ref().expect("a full rep ran above");
        let text = String::from_utf8_lossy(&reference[1]);
        let line = text
            .lines()
            .nth(1)
            .expect("a dataset file has a sample line");
        probe_json::<Sample>(layers, line, (seconds / 8.0).max(0.2));
        traced
    }
}
