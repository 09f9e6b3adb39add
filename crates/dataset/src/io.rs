//! Dataset persistence.
//!
//! Datasets serialize to JSON-lines: the topology on the first line, then
//! one sample per line (diffable, inspectable with standard tooling, and
//! written without rendering the whole set into one string). The experiment
//! binaries cache generated datasets on disk so reruns skip simulation. The
//! loader validates every sample before returning it: a file is outside
//! input.
//!
//! The writer is **atomic** (temp file + rename in the target directory):
//! a crashed run, or two experiment processes racing on the same cache path,
//! never leaves a torn dataset behind — the cache either has the old file,
//! the new file, or nothing.

use crate::schema::{Dataset, Sample};
use rn_netgraph::Topology;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// A temporary sibling of `path` (same directory, so the final rename never
/// crosses a filesystem boundary). pid + per-process counter keep
/// concurrent writers — other processes or other threads of this one — on
/// separate scratch files.
fn tmp_sibling(path: &Path) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}.{seq}", std::process::id()));
    path.with_file_name(name)
}

/// Write via `fill`, then atomically rename into place. The temp file is
/// fsynced before the rename, so even across an OS crash the final path
/// holds either the old content or the complete new content — never a torn
/// file. Cleans up the temp file on any failure.
///
/// Shared by every JSON artifact writer in the workspace (datasets here,
/// models in `rn_core::persist`) so the crash-safety rules live in one
/// place.
pub fn atomic_write(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> Result<(), String>,
) -> Result<(), String> {
    let tmp = tmp_sibling(path);
    let write = (|| {
        let file = File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
        let mut w = BufWriter::new(file);
        fill(&mut w)?;
        w.flush()
            .map_err(|e| format!("flush {}: {e}", tmp.display()))?;
        // Data must be durable before the rename's metadata: otherwise a
        // crash can journal the new directory entry ahead of the blocks,
        // leaving a truncated file at the final path.
        w.get_ref()
            .sync_all()
            .map_err(|e| format!("fsync {}: {e}", tmp.display()))
    })();
    if let Err(e) = write {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        std::fs::remove_file(&tmp).ok();
        format!("rename {} -> {}: {e}", tmp.display(), path.display())
    })
}

/// Save as JSON-lines: line 1 is the topology, each further line one sample.
/// Atomic: the lines land in a temp file renamed into place only once every
/// sample has been written.
pub fn save_jsonl(dataset: &Dataset, path: &Path) -> Result<(), String> {
    atomic_write(path, |w| {
        let topo_line = serde_json::to_string(&dataset.topology)
            .map_err(|e| format!("serialize topology: {e}"))?;
        writeln!(w, "{topo_line}").map_err(|e| format!("write {}: {e}", path.display()))?;
        for (i, sample) in dataset.samples.iter().enumerate() {
            let line =
                serde_json::to_string(sample).map_err(|e| format!("serialize sample {i}: {e}"))?;
            writeln!(w, "{line}").map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        Ok(())
    })
}

/// Load a JSON-lines dataset saved by [`save_jsonl`]. A dataset file is
/// outside input: every sample is checked against the topology
/// ([`Dataset::validate`]) before a consumer indexes with its ids.
pub fn load_jsonl(path: &Path) -> Result<Dataset, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let mut lines = BufReader::new(file).lines();
    let topo_line = lines
        .next()
        .ok_or_else(|| format!("{}: empty file", path.display()))?
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let topology: Topology =
        serde_json::from_str(&topo_line).map_err(|e| format!("parse topology: {e}"))?;
    let mut samples = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line.map_err(|e| format!("read {}: {e}", path.display()))?;
        if line.trim().is_empty() {
            continue;
        }
        let sample: Sample =
            serde_json::from_str(&line).map_err(|e| format!("parse sample {i}: {e}"))?;
        samples.push(sample);
    }
    let dataset = Dataset { topology, samples };
    dataset
        .validate()
        .map_err(|e| format!("invalid {}: {e}", path.display()))?;
    Ok(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorConfig};
    use rn_netgraph::topologies;
    use rn_netsim::SimConfig;

    fn small_dataset() -> Dataset {
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 30.0,
                warmup_s: 5.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        };
        generate(&topologies::toy5(), &config, 5, 3)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rn_dataset_io_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn jsonl_round_trip() {
        let ds = small_dataset();
        let path = tmp("ds.jsonl");
        save_jsonl(&ds, &path).unwrap();
        let back = load_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), ds.len());
        for (a, b) in ds.samples.iter().zip(&back.samples) {
            assert_eq!(a.targets, b.targets);
            assert_eq!(a.seed, b.seed);
        }
    }

    #[test]
    fn qos_dimension_round_trips() {
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 30.0,
                warmup_s: 5.0,
                ..SimConfig::default()
            },
            qos: Some(crate::generate::QosGenConfig::two_class_mix()),
            faults: Some(rn_netsim::FaultPlan::with_drop_chance(0.01)),
            ..GeneratorConfig::default()
        };
        let ds = generate(&topologies::toy5(), &config, 11, 2);
        let path = tmp("ds_qos.jsonl");
        save_jsonl(&ds, &path).unwrap();
        let back = load_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for (a, b) in ds.samples.iter().zip(&back.samples) {
            assert_eq!(a.qos, b.qos, "QoS dimension must survive the round trip");
            assert_eq!(a.faults, b.faults);
        }
    }

    #[test]
    fn legacy_files_without_qos_fields_still_load() {
        // A sample serialized before the QoS/fault fields existed has no
        // `qos`/`faults` keys; the loader must default both to None.
        let ds = small_dataset();
        let path = tmp("ds_legacy.jsonl");
        save_jsonl(&ds, &path).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Strip the new keys to reconstruct the legacy wire format.
        text = text
            .replace("\"qos\":null,", "")
            .replace("\"faults\":null,", "");
        text = text
            .replace(",\"qos\":null", "")
            .replace(",\"faults\":null", "");
        assert!(!text.contains("\"qos\"") && !text.contains("\"faults\""));
        std::fs::write(&path, &text).unwrap();
        let back = load_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), ds.len());
        for s in &back.samples {
            assert!(s.qos.is_none() && s.faults.is_none());
        }
    }

    #[test]
    fn jsonl_round_trip_is_atomic_and_overwrites_cleanly() {
        let ds = small_dataset();
        let path = tmp("atomic.jsonl");
        // Two consecutive saves (fresh + overwrite) both go through the
        // temp-and-rename path; neither leaves scratch files behind.
        save_jsonl(&ds, &path).unwrap();
        save_jsonl(&ds, &path).unwrap();
        let stem = path.file_name().unwrap().to_string_lossy().into_owned();
        let leftovers: Vec<String> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(&stem) && n.contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let back = load_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), ds.len());
        assert_eq!(back.topology.name, ds.topology.name);
        for (a, b) in ds.samples.iter().zip(&back.samples) {
            assert_eq!(a.targets, b.targets);
            assert_eq!(a.queue_capacities, b.queue_capacities);
            assert_eq!(a.link_capacities, b.link_capacities);
        }
    }

    #[test]
    fn save_into_missing_directory_errors_cleanly() {
        let ds = small_dataset();
        let err = save_jsonl(&ds, Path::new("/no/such/dir/ds.jsonl")).unwrap_err();
        assert!(err.contains("create"), "{err}");
    }

    #[test]
    fn load_missing_file_errors_cleanly() {
        let err = load_jsonl(Path::new("/nonexistent/nope.jsonl")).unwrap_err();
        assert!(err.contains("open"), "{err}");
    }

    #[test]
    fn loaders_reject_out_of_range_link_ids_without_panicking() {
        // The first sample's first path ends on link id = link count: parsed
        // alone it is well-formed, and `build_plan` would index past the end.
        let ds = small_dataset();
        let links = ds.topology.num_links();
        let path = ds.samples[0].routing.iter_paths().next().unwrap().2;
        let mut bad = path.clone();
        *bad.links.last_mut().unwrap() = links;
        let good = serde_json::to_string(path).unwrap();
        let bad = serde_json::to_string(&bad).unwrap();
        let file = tmp("bad_ids.jsonl");
        save_jsonl(&ds, &file).unwrap();
        let text = std::fs::read_to_string(&file).unwrap();
        assert!(text.contains(&good));
        std::fs::write(&file, text.replacen(&good, &bad, 1)).unwrap();
        let err = load_jsonl(&file).unwrap_err();
        std::fs::remove_file(&file).ok();
        assert!(
            err.contains("bad_ids.jsonl") && err.contains("sample 0"),
            "{err}"
        );
        assert!(
            err.contains(&format!("link id {links} out of range")),
            "{err}"
        );
    }

    #[test]
    fn jsonl_rejects_empty_file() {
        let path = tmp("empty.jsonl");
        std::fs::write(&path, "").unwrap();
        let err = load_jsonl(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("empty"), "{err}");
    }
}
