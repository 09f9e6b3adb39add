//! Standalone serving daemon: start the JSONL-over-TCP frontend on a model.
//!
//! ```sh
//! # Demo model (random weights, preprocessing fitted on generated data):
//! rn_serve --listen 127.0.0.1:9977 --topology nsfnet
//!
//! # A trained model saved with routenet::persist::save_model:
//! rn_serve --listen 127.0.0.1:9977 --topology nsfnet --model extended.json
//! ```
//!
//! Prints one JSON line with the bound address, then serves until killed.
//! See `rn_loadgen` for a measurement client and README's "Serving" section
//! for the protocol and every flag; a flag whose value does not parse is an
//! error exit naming it.

use rn_serve::cli::Flags;
use rn_serve::loadgen::demo_scenarios;
use rn_serve::{ServeConfig, Service, TcpServer};
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig};
use std::env;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[serve] error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let flags = Flags::new(env::args());
    let listen = flags.get_or("--listen", "127.0.0.1:9977".to_string())?;
    let topology = flags.get_or("--topology", "nsfnet".to_string())?;
    let fit_samples = flags.get_or("--samples", 4usize)?;
    let state_dim = flags.get_or("--state-dim", 16usize)?;
    let mp_iters = flags.get_or("--mp-iters", 4usize)?;
    let model_path = flags.get::<String>("--model")?;

    // The four serving flags; every other `ServeConfig` field keeps its
    // default (set it in code when embedding the service).
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: flags.get_or("--workers", defaults.workers)?,
        max_batch: flags.get_or("--max-batch", defaults.max_batch)?,
        flush_deadline: flags
            .get("--deadline-us")?
            .map_or(defaults.flush_deadline, Duration::from_micros),
        default_deadline: match flags.get::<u64>("--request-deadline-ms")? {
            Some(ms) => (ms > 0).then(|| Duration::from_millis(ms)),
            None => defaults.default_deadline,
        },
        ..defaults
    };

    let model: ExtendedRouteNet = match model_path {
        Some(path) => routenet::persist::load_model(std::path::Path::new(&path))
            .map_err(|e| format!("load --model {path}: {e}"))?,
        None => {
            // Demo mode: random weights, real preprocessing. Predictions are
            // untrained — this exists to exercise the serving path.
            eprintln!(
                "[serve] no --model given; fitting a demo model on generated {topology} data"
            );
            let (_, samples) = demo_scenarios(&topology, fit_samples, 60.0, 2019)?;
            let ds = rn_dataset::Dataset {
                topology: match topology.as_str() {
                    "geant2" => rn_netgraph::topologies::geant2_default(),
                    "toy5" => rn_netgraph::topologies::toy5(),
                    _ => rn_netgraph::topologies::nsfnet_default(),
                },
                samples,
            };
            let mut m = ExtendedRouteNet::new(ModelConfig {
                state_dim,
                mp_iterations: mp_iters,
                readout_hidden: 2 * state_dim,
                ..ModelConfig::default()
            });
            m.fit_preprocessing(&ds, 5);
            m
        }
    };

    let service = Service::start(model, config);
    let server = TcpServer::bind(service.handle(), listen.as_str())
        .map_err(|e| format!("bind {listen}: {e}"))?;
    println!(
        "{{\"listening\":\"{}\",\"model\":\"extended\"}}",
        server.local_addr()
    );
    // Serve forever; the daemon is stopped by killing the process.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
