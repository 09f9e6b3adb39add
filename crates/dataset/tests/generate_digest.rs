//! Frozen reference for `generate_sample` and `generate_sparse_sample`: a
//! digest over every field of the generated `Sample`s, recorded at commit
//! 0fd495a while the two generators each carried their own copy of the
//! capacity re-draw and of everything after the traffic matrix. Sharing
//! those pieces must keep every RNG draw in its place, hence every bit.
//!
//! After an *intentional* change to what the generator draws, print fresh
//! constants with `RN_REGEN_GOLDEN=1 cargo test -p rn_dataset --test
//! generate_digest -- --nocapture`.

use rn_dataset::{
    generate_sample, generate_sparse_sample, GeneratorConfig, QosGenConfig, Sample, TrafficModel,
};
use rn_netgraph::generators::{isp_tiered, TierConfig};
use rn_netgraph::{topologies, Topology};
use rn_netsim::{QueueProfile, SimConfig};
use rn_tensor::Prng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix_bytes(h: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *h = (*h ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
}

fn mix(h: &mut u64, word: u64) {
    mix_bytes(h, &word.to_le_bytes());
}

/// Enum payloads (policies, traffic profiles, fault plans) go in through
/// their `Debug` text, which prints `f64`s round-trip exactly.
fn mix_debug(h: &mut u64, value: &impl std::fmt::Debug) {
    mix_bytes(h, format!("{value:?}").as_bytes());
}

/// FNV-1a over every field of the sample, in declaration order.
fn mix_sample(h: &mut u64, s: &Sample) {
    let n = s.routing.num_nodes();
    mix(h, n as u64);
    mix(h, s.routing.num_paths() as u64);
    for (src, dst, path) in s.routing.iter_paths() {
        mix(h, src as u64);
        mix(h, dst as u64);
        mix(h, path.nodes.len() as u64);
        for &node in &path.nodes {
            mix(h, node as u64);
        }
        for &link in &path.links {
            mix(h, link as u64);
        }
    }
    for src in 0..n {
        for dst in 0..n {
            mix(h, s.traffic.rate(src, dst).to_bits());
        }
    }
    for &profile in &s.queue_profiles {
        mix(h, u64::from(profile == QueueProfile::Tiny));
    }
    for &cap in &s.queue_capacities {
        mix(h, cap as u64);
    }
    mix(h, s.link_capacities.len() as u64);
    for &cap in &s.link_capacities {
        mix(h, cap.to_bits());
    }
    mix(h, s.targets.len() as u64);
    for t in &s.targets {
        mix(h, t.src as u64);
        mix(h, t.dst as u64);
        mix(h, t.mean_delay_s.to_bits());
        mix(h, t.jitter_s.to_bits());
        mix(h, t.loss_ratio.to_bits());
        mix(h, t.delivered);
    }
    mix(h, s.seed);
    mix(h, u64::from(s.qos.is_some()));
    if let Some(qos) = &s.qos {
        mix_debug(h, &qos.policy);
        mix_debug(h, &qos.class_profiles);
        mix_bytes(h, &qos.path_classes);
        for c in &qos.class_targets {
            mix(h, u64::from(c.class));
            mix(h, c.num_flows as u64);
            mix(h, c.delivered);
            mix(h, c.dropped);
            mix(h, c.mean_delay_s.to_bits());
            mix(h, c.jitter_s.to_bits());
            mix(h, c.loss_ratio.to_bits());
        }
    }
    mix_debug(h, &s.faults);
}

fn digest(samples: &[Sample]) -> u64 {
    let mut h = FNV_OFFSET;
    for s in samples {
        mix_sample(&mut h, s);
    }
    h
}

fn config(randomize_routing: bool) -> GeneratorConfig {
    GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        randomize_routing,
        ..GeneratorConfig::default()
    }
}

/// The capacity re-draw is the head both generators share: switch it on.
fn with_capacity_menu(mut config: GeneratorConfig) -> GeneratorConfig {
    config.capacity_choices_bps = vec![10_000.0, 20_000.0, 40_000.0];
    config
}

fn with_absolute_rates(mut config: GeneratorConfig) -> GeneratorConfig {
    config.traffic_model = TrafficModel::AbsoluteRates {
        rate_range_bps: (40.0, 200.0),
        intensity_range: (0.5, 1.5),
    };
    config
}

fn dense(topo: &Topology, config: &GeneratorConfig) -> u64 {
    let samples: Vec<Sample> = (0..2)
        .map(|i| generate_sample(topo, config, 20_260_928, i))
        .collect();
    digest(&samples)
}

fn sparse(topo: &Topology, config: &GeneratorConfig) -> u64 {
    let samples: Vec<Sample> = (0..2)
        .map(|i| generate_sparse_sample(topo, config, 40, 20_260_928, i))
        .collect();
    digest(&samples)
}

#[test]
fn generators_reproduce_the_recorded_digests() {
    let nsfnet = topologies::nsfnet_default();
    let isp = isp_tiered(60, &TierConfig::default(), &mut Prng::new(60)).expect("isp_tiered(60)");
    let two_class = GeneratorConfig {
        qos: Some(QosGenConfig::two_class_mix()),
        ..with_capacity_menu(config(true))
    };
    let scenarios: [(&str, u64, u64); 8] = [
        (
            "dense_nsfnet_random_routing",
            0xd739_b2f1_2ae8_a44c,
            dense(&nsfnet, &config(true)),
        ),
        (
            "dense_nsfnet_min_hop_capacity_menu",
            0xf13a_5d75_512a_79be,
            dense(&nsfnet, &with_capacity_menu(config(false))),
        ),
        (
            "dense_nsfnet_absolute_rates",
            0x8254_625d_d948_5b42,
            dense(&nsfnet, &with_absolute_rates(config(true))),
        ),
        (
            "dense_nsfnet_two_class_mix",
            0x119a_14f2_970c_a1c6,
            dense(&nsfnet, &two_class),
        ),
        (
            "sparse_isp_random_routing_absolute_rates",
            0x270e_f2ab_6ce4_1087,
            sparse(&isp, &with_absolute_rates(config(true))),
        ),
        (
            "sparse_isp_min_hop_capacity_menu",
            0xe924_63f3_c40e_090a,
            sparse(&isp, &with_capacity_menu(config(false))),
        ),
        (
            "sparse_isp_random_routing_target_utilization",
            0x9ed0_6983_dfd8_f759,
            sparse(&isp, &with_capacity_menu(config(true))),
        ),
        (
            "sparse_isp_two_class_mix",
            0x896d_f7d1_431e_46ab,
            sparse(&isp, &two_class),
        ),
    ];
    let table: String = scenarios
        .iter()
        .map(|(name, want, got)| {
            format!("  {name}:\n    recorded {want:#018x}\n    got      {got:#018x}\n")
        })
        .collect();
    if std::env::var("RN_REGEN_GOLDEN").is_ok() {
        eprintln!("generate_digest scenarios:\n{table}");
        return;
    }
    assert!(
        scenarios.iter().all(|(_, want, got)| want == got),
        "a generator moved bits against the frozen reference:\n{table}"
    );
}
