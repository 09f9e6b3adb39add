//! Model persistence: trained models round-trip through JSON, carrying their
//! hyper-parameters, weights, feature scales and target normalizer.
//!
//! Saves are **atomic** (see [`rn_dataset::io::atomic_write`]): the document
//! is written to a temporary sibling file, fsynced, and renamed into place,
//! so a crash mid-write — or a reader racing a hot-swap writer — never
//! observes a torn file. The serving layer's model registry relies on this
//! to reload safely while requests are in flight.

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// Save any serializable model (or experiment artifact) as JSON, atomically:
/// written to a temp file in the target directory, fsynced, then renamed
/// into place.
pub fn save_model<T: Serialize>(value: &T, path: &Path) -> Result<(), String> {
    rn_dataset::io::atomic_write(path, |w| {
        serde_json::to_writer(w, value).map_err(|e| format!("serialize {}: {e}", path.display()))
    })
}

/// Load a model saved by [`save_model`].
pub fn load_model<T: DeserializeOwned>(path: &Path) -> Result<T, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    serde_json::from_reader(BufReader::new(file))
        .map_err(|e| format!("parse {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::model::{ExtendedRouteNet, OriginalRouteNet, PathPredictor};
    use rn_dataset::{generate, GeneratorConfig};
    use rn_netgraph::topologies;
    use rn_netsim::SimConfig;
    use std::env;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = env::temp_dir();
        p.push(format!("rn_persist_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn trained_model_round_trips_with_preprocessing() {
        let gen_config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 60.0,
                warmup_s: 10.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        };
        let ds = generate(&topologies::toy5(), &gen_config, 61, 2);
        let mut model = ExtendedRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 1,
            readout_hidden: 8,
            ..ModelConfig::default()
        });
        model.fit_preprocessing(&ds, 5);
        let plan = model.plan(&ds.samples[0]);
        let before = model.predict(&plan);

        let path = tmp("extended.json");
        save_model(&model, &path).unwrap();
        let loaded: ExtendedRouteNet = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // The loaded model re-plans with its own (persisted) preprocessing.
        let plan2 = loaded.plan(&ds.samples[0]);
        assert_eq!(loaded.predict(&plan2), before);
    }

    #[test]
    fn original_model_round_trips() {
        let model = OriginalRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 1,
            readout_hidden: 8,
            ..ModelConfig::default()
        });
        let path = tmp("original.json");
        save_model(&model, &path).unwrap();
        let loaded: OriginalRouteNet = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.config(), model.config());
    }

    #[test]
    fn save_leaves_no_temp_file_behind() {
        let model = OriginalRouteNet::new(ModelConfig {
            state_dim: 8,
            mp_iterations: 1,
            readout_hidden: 8,
            ..ModelConfig::default()
        });
        let path = tmp("atomic.json");
        save_model(&model, &path).unwrap();
        // Overwriting an existing file goes through the same atomic path.
        save_model(&model, &path).unwrap();
        let _: OriginalRouteNet = load_model(&path).unwrap();
        // No scratch files left next to the target.
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
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_into_missing_directory_errors_cleanly() {
        let model = ModelConfig::default();
        let err = save_model(&model, Path::new("/no/such/dir/model.json")).unwrap_err();
        assert!(err.contains("create"), "{err}");
    }

    #[test]
    fn load_errors_are_descriptive() {
        let err = load_model::<ModelConfig>(Path::new("/no/such/file.json")).unwrap_err();
        assert!(err.contains("open"), "{err}");
        let path = tmp("garbage.json");
        std::fs::write(&path, "not json").unwrap();
        let err = load_model::<ModelConfig>(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("parse"), "{err}");
    }
}
