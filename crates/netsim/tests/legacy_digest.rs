//! Frozen reference for `simulate()`: a digest over every `f64` bit pattern
//! and counter of the `SimResult`, recorded at commit 89057f9 while the
//! single-FIFO event loop still existed beside the scheduled-port one. The
//! one event loop that replaced both must keep every bit.
//!
//! After an *intentional* change to the simulator's numerics, print fresh
//! constants with `RN_REGEN_GOLDEN=1 cargo test -p rn_netsim --test
//! legacy_digest -- --nocapture`.

use rn_netgraph::{topologies, Routing, Topology, TrafficMatrix};
use rn_netsim::{simulate, FaultPlan, SimConfig, SimResult};
use rn_tensor::Prng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h = (*h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over every field of the result, in declaration order.
fn digest(r: &SimResult) -> u64 {
    let mut h = FNV_OFFSET;
    mix(&mut h, r.flows.len() as u64);
    for f in &r.flows {
        mix(&mut h, f.delivered);
        mix(&mut h, f.dropped);
        mix(&mut h, f.mean_delay_s.to_bits());
        mix(&mut h, f.jitter_s.to_bits());
        mix(&mut h, f.loss_ratio.to_bits());
    }
    for &(s, d) in &r.flow_pairs {
        mix(&mut h, s as u64);
        mix(&mut h, d as u64);
    }
    mix(&mut h, r.flow_classes.len() as u64);
    mix(&mut h, r.classes.len() as u64);
    mix(&mut h, r.links.len() as u64);
    for l in &r.links {
        mix(&mut h, l.bits_sent.to_bits());
        mix(&mut h, l.drops);
        mix(&mut h, l.utilization.to_bits());
    }
    mix(&mut h, r.total_created);
    mix(&mut h, r.total_delivered);
    mix(&mut h, r.total_dropped);
    mix(&mut h, r.total_in_flight);
    mix(&mut h, r.duration_s.to_bits());
    h
}

fn line3(rate: f64, caps: &[usize], seed: u64) -> SimResult {
    let topo = Topology::from_undirected_edges("line", 3, &[(0, 1), (1, 2)], 10_000.0, 0.0);
    let routing = Routing::shortest_paths(&topo);
    let mut tm = TrafficMatrix::zeros(3);
    tm.set(0, 2, rate);
    tm.set(1, 2, rate / 4.0);
    let config = SimConfig {
        duration_s: 500.0,
        warmup_s: 50.0,
        seed,
        ..SimConfig::default()
    };
    simulate(&topo, &routing, &tm, caps, &config, &FaultPlan::none()).unwrap()
}

fn nsfnet(prop_delay_s: f64, faulty: bool) -> SimResult {
    let topo = topologies::nsfnet(10_000.0, prop_delay_s);
    let routing = Routing::shortest_paths(&topo);
    let mut rng = Prng::new(9);
    let tm = TrafficMatrix::with_target_utilization(&topo, &routing, &mut rng, 0.7);
    let config = SimConfig {
        duration_s: 120.0,
        warmup_s: 12.0,
        seed: 9,
        ..SimConfig::default()
    };
    let caps: Vec<usize> = (0..topo.num_nodes())
        .map(|n| if n % 3 == 0 { 2 } else { 32 })
        .collect();
    let faults = if faulty {
        FaultPlan::with_drop_chance(0.02).with_outage(3, 30.0, 60.0)
    } else {
        FaultPlan::none()
    };
    simulate(&topo, &routing, &tm, &caps, &config, &faults).unwrap()
}

#[test]
fn simulate_reproduces_the_recorded_digests() {
    let scenarios: [(&str, u64, SimResult); 4] = [
        (
            "line3_light",
            0x45ea_0a75_440f_37db,
            line3(2_000.0, &[32, 32, 32], 1),
        ),
        (
            "line3_overload_tiny_queues",
            0xd5e6_82f8_b994_70cc,
            line3(15_000.0, &[1, 1, 1], 3),
        ),
        (
            "nsfnet_full_mesh_prop_delay",
            0x6f31_291b_4908_8b6f,
            nsfnet(0.004, false),
        ),
        (
            "nsfnet_drop_chance_and_outage",
            0x6835_770e_14a2_43b0,
            nsfnet(0.0, true),
        ),
    ];
    let got: Vec<(&str, u64, u64)> = scenarios
        .iter()
        .map(|(name, want, r)| {
            assert!(r.conservation_holds(), "{name}: conservation");
            assert!(r.total_created > 1_000, "{name}: scenario too quiet");
            assert!(r.flow_classes.is_empty() && r.classes.is_empty(), "{name}");
            (*name, *want, digest(r))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, want, h)| format!("  {name}: recorded {want:#018x}, got {h:#018x}\n"))
        .collect();
    if std::env::var("RN_REGEN_GOLDEN").is_ok() {
        eprintln!("legacy_digest scenarios:\n{table}");
        return;
    }
    assert!(
        got.iter().all(|(_, want, h)| want == h),
        "simulate() moved bits against the frozen single-FIFO reference:\n{table}"
    );
}
