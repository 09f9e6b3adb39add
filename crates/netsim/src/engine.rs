//! The simulation engine: event loop, flow sources, hop-by-hop forwarding.

use crate::config::SimConfig;
use crate::event::{EventKind, EventQueue};
use crate::fault::FaultPlan;
use crate::metrics::{ClassStats, FlowAccumulator, LinkStats, SimResult};
use crate::port::{Offer, Packet, SchedPort};
use crate::qos::{QosSpec, TrafficProfile};
use rn_netgraph::{Routing, Topology, TrafficMatrix};
use rn_tensor::Prng;

/// One traffic source: an ordered pair with positive demand and a routed path.
#[derive(Debug, Clone)]
struct Flow {
    src: usize,
    dst: usize,
    /// Packet arrival rate in packets per second.
    lambda: f64,
}

/// Mutable per-flow source state.
#[derive(Debug, Clone)]
struct SourceState {
    /// The flow's ToS class.
    class: u8,
    /// Arrival-*event* rate while the source is active (boosted for on-off
    /// sources, scaled down for batched sources so the mean packet rate
    /// always matches the flow's configured rate).
    lambda_event: f64,
    /// End of the current ON period (on-off sources only).
    phase_end: f64,
}

/// A fully specified simulation, ready to run.
///
/// Prefer the [`simulate`] convenience function; construct `Simulation`
/// directly when you need access to the flow table before running.
pub struct Simulation<'a> {
    topo: &'a Topology,
    routing: &'a Routing,
    config: &'a SimConfig,
    faults: &'a FaultPlan,
    qos: Option<&'a QosSpec>,
    flows: Vec<Flow>,
}

impl<'a> Simulation<'a> {
    /// Validate inputs and build the flow table.
    ///
    /// `queue_capacity_pkts` holds one waiting-room size per *node*; every
    /// output port of a node inherits the node's capacity (queue size is a
    /// node property — the feature the extended RouteNet models).
    pub fn new(
        topo: &'a Topology,
        routing: &'a Routing,
        traffic: &'a TrafficMatrix,
        config: &'a SimConfig,
        faults: &'a FaultPlan,
    ) -> Result<Self, String> {
        config.validate()?;
        if traffic.num_nodes() != topo.num_nodes() {
            return Err(format!(
                "traffic matrix covers {} nodes, topology has {}",
                traffic.num_nodes(),
                topo.num_nodes()
            ));
        }
        if routing.num_nodes() != topo.num_nodes() {
            return Err(format!(
                "routing covers {} nodes, topology has {}",
                routing.num_nodes(),
                topo.num_nodes()
            ));
        }
        let mut flows = Vec::new();
        for (s, d, _path) in routing.iter_paths() {
            let rate = traffic.rate(s, d);
            if rate > 0.0 {
                flows.push(Flow {
                    src: s,
                    dst: d,
                    lambda: rate / config.mean_packet_bits,
                });
            }
        }
        Ok(Self {
            topo,
            routing,
            config,
            faults,
            qos: None,
            flows,
        })
    }

    /// Like [`Simulation::new`], with a QoS scenario attached: multi-queue
    /// scheduled ports, per-flow ToS classes and per-class traffic models.
    ///
    /// `spec.flow_classes` must classify exactly the flows this simulation
    /// builds (positive-rate pairs in routing iteration order — see
    /// [`Simulation::flow_pairs`]).
    pub fn with_qos(
        topo: &'a Topology,
        routing: &'a Routing,
        traffic: &'a TrafficMatrix,
        config: &'a SimConfig,
        faults: &'a FaultPlan,
        qos: &'a QosSpec,
    ) -> Result<Self, String> {
        let mut sim = Self::new(topo, routing, traffic, config, faults)?;
        qos.validate(sim.flows.len())?;
        sim.qos = Some(qos);
        Ok(sim)
    }

    /// `(src, dst)` of every flow, in simulation order.
    pub fn flow_pairs(&self) -> Vec<(usize, usize)> {
        self.flows.iter().map(|f| (f.src, f.dst)).collect()
    }

    /// Run to the configured horizon.
    ///
    /// `queue_capacity_pkts[n]` is the waiting-packet capacity at node `n`;
    /// a list that is not one entry per node is an `Err`.
    ///
    /// One event loop over [`SchedPort`]s. Every flow's RNG stream is
    /// consumed in a fixed per-event order ([batch size,] sizes, next
    /// arrival). Without a QoS spec the run uses one class scheduled FIFO
    /// with Poisson sources — the paper's model — and reports no per-class
    /// statistics.
    pub fn run(&self, queue_capacity_pkts: &[usize]) -> Result<SimResult, String> {
        let (capacities, nodes) = (queue_capacity_pkts.len(), self.topo.num_nodes());
        if capacities != nodes {
            return Err(format!("{capacities} queue capacities for {nodes} nodes"));
        }
        let plain;
        let spec = match self.qos {
            Some(spec) => spec,
            None => {
                plain = QosSpec::fifo(self.flows.len());
                &plain
            }
        };
        let num_classes = spec.num_classes();
        let master = Prng::new(self.config.seed);
        let mut flow_rngs: Vec<Prng> = (0..self.flows.len())
            .map(|i| master.split(i as u64))
            .collect();
        let mut fault_rng = master.split(u64::MAX / 2);

        let mut ports: Vec<SchedPort> = self
            .topo
            .links()
            .iter()
            .map(|link| SchedPort::new(num_classes, queue_capacity_pkts[link.src], &spec.policy))
            .collect();
        let mut accs: Vec<FlowAccumulator> = vec![FlowAccumulator::default(); self.flows.len()];
        let mut events = EventQueue::new();
        let mut in_flight: Vec<Option<Packet>> = Vec::new();
        let mut free_slots: Vec<usize> = Vec::new();

        let flow_paths: Vec<&rn_netgraph::Path> = self
            .flows
            .iter()
            .map(|f| {
                self.routing
                    .path(f.src, f.dst)
                    .expect("flow implies routed path")
            })
            .collect();

        let mut sources: Vec<SourceState> = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let class = spec.flow_classes[i];
                let profile = &spec.class_profiles[class as usize];
                // Packets per second under this profile's size model; the
                // bit rate always matches the traffic matrix.
                let rate_bps = f.lambda * self.config.mean_packet_bits;
                let pkt_rate = rate_bps / profile.mean_packet_bits(self.config.mean_packet_bits);
                let lambda_event = match profile {
                    TrafficProfile::OnOff {
                        on_mean_s,
                        off_mean_s,
                    } => pkt_rate * (on_mean_s + off_mean_s) / on_mean_s,
                    TrafficProfile::Bursty { batch_mean } => pkt_rate / batch_mean,
                    _ => pkt_rate,
                };
                SourceState {
                    class,
                    lambda_event,
                    phase_end: 0.0,
                }
            })
            .collect();

        // Prime each flow's first arrival (on-off sources first draw their
        // initial ON period).
        for i in 0..self.flows.len() {
            let profile = &spec.class_profiles[sources[i].class as usize];
            if let TrafficProfile::OnOff { on_mean_s, .. } = profile {
                sources[i].phase_end = flow_rngs[i].exponential(1.0 / on_mean_s);
            }
            let t = draw_next_arrival(profile, &mut flow_rngs[i], 0.0, &mut sources[i]);
            if t < self.config.duration_s {
                events.schedule(t, EventKind::FlowArrival { flow: i });
            }
        }

        let mut size_buf: Vec<f64> = Vec::new();
        while let Some(ev) = events.pop() {
            if ev.time > self.config.duration_s {
                break;
            }
            match ev.kind {
                EventKind::FlowArrival { flow } => {
                    let profile = &spec.class_profiles[sources[flow].class as usize];
                    // Fixed per-event draw order: batch count (bursty
                    // only), then sizes, then the next arrival.
                    let batch = match profile {
                        TrafficProfile::Bursty { batch_mean } => {
                            draw_batch(&mut flow_rngs[flow], *batch_mean)
                        }
                        _ => 1,
                    };
                    size_buf.clear();
                    for _ in 0..batch {
                        size_buf.push(draw_size(profile, &mut flow_rngs[flow], self.config));
                    }
                    let next = draw_next_arrival(
                        profile,
                        &mut flow_rngs[flow],
                        ev.time,
                        &mut sources[flow],
                    );
                    if next < self.config.duration_s {
                        events.schedule(next, EventKind::FlowArrival { flow });
                    }

                    for &size in &size_buf {
                        accs[flow].created += 1;
                        let pkt = Packet {
                            flow,
                            class: sources[flow].class,
                            size_bits: size,
                            created_at: ev.time,
                            hop: 0,
                        };
                        self.launch_on_next_hop(
                            pkt,
                            ev.time,
                            flow_paths[flow],
                            &mut ports,
                            &mut events,
                            &mut accs,
                        );
                    }
                }
                EventKind::Departure { link } => {
                    let (departed, next_in_service) = ports[link].complete_service();
                    if let Some(next) = next_in_service {
                        let cap = self.topo.link(link).capacity_bps;
                        events.schedule(
                            ev.time + next.size_bits / cap,
                            EventKind::Departure { link },
                        );
                    }

                    if self.faults.drop_chance > 0.0 && fault_rng.bernoulli(self.faults.drop_chance)
                    {
                        accs[departed.flow].dropped += 1;
                        continue;
                    }

                    let prop = self.topo.link(link).prop_delay_s;
                    if prop > 0.0 {
                        let slot = match free_slots.pop() {
                            Some(s) => {
                                in_flight[s] = Some(departed);
                                s
                            }
                            None => {
                                in_flight.push(Some(departed));
                                in_flight.len() - 1
                            }
                        };
                        events
                            .schedule(ev.time + prop, EventKind::HopArrival { link, packet: slot });
                    } else {
                        self.complete_hop(
                            departed,
                            ev.time,
                            &mut ports,
                            &mut events,
                            &mut accs,
                            &flow_paths,
                        );
                    }
                }
                EventKind::HopArrival { link: _, packet } => {
                    let pkt = in_flight[packet]
                        .take()
                        .expect("hop arrival for missing packet");
                    free_slots.push(packet);
                    self.complete_hop(
                        pkt,
                        ev.time,
                        &mut ports,
                        &mut events,
                        &mut accs,
                        &flow_paths,
                    );
                }
            }
        }

        let mut total_created = 0;
        let mut total_delivered = 0;
        let mut total_dropped = 0;
        for acc in &accs {
            total_created += acc.created;
            total_delivered += acc.delivered + acc.delivered_warmup;
            total_dropped += acc.dropped;
        }
        let links = ports
            .iter()
            .enumerate()
            .map(|(l, port)| LinkStats {
                bits_sent: port.bits_sent,
                drops: port.drops,
                utilization: port.bits_sent
                    / (self.topo.link(l).capacity_bps * self.config.duration_s),
            })
            .collect();
        let (flow_classes, classes) = match self.qos {
            Some(spec) => (
                spec.flow_classes.clone(),
                ClassStats::from_accumulators(&accs, &spec.flow_classes, num_classes),
            ),
            None => (Vec::new(), Vec::new()),
        };
        Ok(SimResult {
            flows: accs.iter().map(FlowAccumulator::stats).collect(),
            flow_pairs: self.flow_pairs(),
            flow_classes,
            classes,
            links,
            total_created,
            total_delivered,
            total_dropped,
            total_in_flight: total_created - total_delivered - total_dropped,
            duration_s: self.config.duration_s,
        })
    }

    /// A packet has fully arrived at the node at the end of `hop - 1`.
    /// Deliver it or queue it on the next hop.
    fn complete_hop(
        &self,
        mut pkt: Packet,
        now: f64,
        ports: &mut [SchedPort],
        events: &mut EventQueue,
        accs: &mut [FlowAccumulator],
        flow_paths: &[&rn_netgraph::Path],
    ) {
        pkt.hop += 1;
        let path = flow_paths[pkt.flow];
        if pkt.hop == path.links.len() {
            // Reached the destination node.
            if now >= self.config.warmup_s {
                accs[pkt.flow].record_delivery(now - pkt.created_at);
            } else {
                accs[pkt.flow].delivered_warmup += 1;
            }
        } else {
            self.launch_on_next_hop(pkt, now, path, ports, events, accs);
        }
    }

    /// Offer `pkt` to the output port of its next hop link.
    fn launch_on_next_hop(
        &self,
        pkt: Packet,
        now: f64,
        path: &rn_netgraph::Path,
        ports: &mut [SchedPort],
        events: &mut EventQueue,
        accs: &mut [FlowAccumulator],
    ) {
        let link = path.links[pkt.hop];
        if self.faults.link_down(link, now) {
            accs[pkt.flow].dropped += 1;
            return;
        }
        match ports[link].offer(pkt) {
            Offer::StartService => {
                let cap = self.topo.link(link).capacity_bps;
                events.schedule(now + pkt.size_bits / cap, EventKind::Departure { link });
            }
            Offer::Queued => {}
            Offer::Dropped => accs[pkt.flow].dropped += 1,
        }
    }
}

/// One packet size under `profile`, clamped to `[1, max_packet_bits]`.
fn draw_size(profile: &TrafficProfile, rng: &mut Prng, config: &SimConfig) -> f64 {
    match profile {
        TrafficProfile::MultimodalSizes { modes } => {
            let wsum: f64 = modes.iter().map(|(_, w)| w).sum();
            let mut u = rng.uniform_pos_f64() * wsum;
            let mut size = modes[modes.len() - 1].0;
            for (s, w) in modes {
                if u <= *w {
                    size = *s;
                    break;
                }
                u -= w;
            }
            size.min(config.max_packet_bits).max(1.0)
        }
        // Truncated exponential (identical draw for Poisson, on-off and
        // bursty sources).
        _ => rng
            .exponential(1.0 / config.mean_packet_bits)
            .min(config.max_packet_bits)
            .max(1.0),
    }
}

/// Geometric batch size with mean `batch_mean` on {1, 2, …} by inversion.
fn draw_batch(rng: &mut Prng, batch_mean: f64) -> usize {
    if batch_mean <= 1.0 {
        return 1;
    }
    let p = 1.0 / batch_mean;
    let u = rng.uniform_pos_f64();
    ((u.ln() / (1.0 - p).ln()).ceil() as usize).clamp(1, 10_000)
}

/// Next arrival-event time for one source. Poisson/bursty/multimodal
/// sources draw one exponential gap; on-off sources additionally skip OFF
/// periods (an interrupted Poisson process: a gap crossing the end of the
/// current ON period is pushed past one or more exponential OFF periods,
/// extending the phase schedule as it goes).
fn draw_next_arrival(
    profile: &TrafficProfile,
    rng: &mut Prng,
    now: f64,
    src: &mut SourceState,
) -> f64 {
    let mut t = now + rng.exponential(src.lambda_event);
    if let TrafficProfile::OnOff {
        on_mean_s,
        off_mean_s,
    } = profile
    {
        while t > src.phase_end {
            let off = rng.exponential(1.0 / off_mean_s);
            let on = rng.exponential(1.0 / on_mean_s);
            t += off;
            src.phase_end += off + on;
        }
    }
    t
}

/// Run one simulation: the main entry point of this crate.
///
/// `queue_capacity_pkts[n]` is the waiting-packet capacity of every output
/// port at node `n`. See the crate docs for the full model.
pub fn simulate(
    topo: &Topology,
    routing: &Routing,
    traffic: &TrafficMatrix,
    queue_capacity_pkts: &[usize],
    config: &SimConfig,
    faults: &FaultPlan,
) -> Result<SimResult, String> {
    Simulation::new(topo, routing, traffic, config, faults)?.run(queue_capacity_pkts)
}

/// Run one QoS simulation: multi-queue scheduled ports, ToS classes and
/// per-class traffic models per `qos`. Results carry per-class statistics
/// ([`SimResult::classes`]) on top of the per-flow labels.
pub fn simulate_qos(
    topo: &Topology,
    routing: &Routing,
    traffic: &TrafficMatrix,
    queue_capacity_pkts: &[usize],
    config: &SimConfig,
    faults: &FaultPlan,
    qos: &QosSpec,
) -> Result<SimResult, String> {
    Simulation::with_qos(topo, routing, traffic, config, faults, qos)?.run(queue_capacity_pkts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_netgraph::topologies;

    fn line3() -> (Topology, Routing) {
        let topo = Topology::from_undirected_edges("line", 3, &[(0, 1), (1, 2)], 10_000.0, 0.0);
        let routing = Routing::shortest_paths(&topo);
        (topo, routing)
    }

    fn run_line3(rate: f64, caps: &[usize], seed: u64) -> SimResult {
        let (topo, routing) = line3();
        let mut tm = TrafficMatrix::zeros(3);
        tm.set(0, 2, rate);
        let config = SimConfig {
            duration_s: 500.0,
            warmup_s: 50.0,
            seed,
            ..SimConfig::default()
        };
        simulate(&topo, &routing, &tm, caps, &config, &FaultPlan::none()).unwrap()
    }

    #[test]
    fn packets_flow_end_to_end() {
        let r = run_line3(2_000.0, &[32, 32, 32], 1);
        let f = r.flow(0, 2).expect("flow exists");
        assert!(f.delivered > 100, "delivered {}", f.delivered);
        assert!(f.mean_delay_s > 0.0);
        assert!(r.conservation_holds());
    }

    #[test]
    fn delay_includes_both_hops() {
        // At low load delay ≈ 2 transmissions: 2 * size/capacity. The rate is
        // high enough (~200+ packets) that the sample mean of the exponential
        // packet sizes concentrates, keeping the test robust to RNG streams.
        let r = run_line3(500.0, &[32, 32, 32], 2);
        let f = r.flow(0, 2).unwrap();
        // mean size 1000 bits at 10kbps -> 0.1s per hop -> ~0.2s total
        assert!(
            (f.mean_delay_s - 0.2).abs() < 0.05,
            "mean delay {}",
            f.mean_delay_s
        );
        assert!(f.loss_ratio < 1e-3);
    }

    #[test]
    fn overload_causes_loss_with_tiny_queues() {
        // Offered 1.5x capacity with tiny buffers: heavy loss.
        let r = run_line3(15_000.0, &[1, 1, 1], 3);
        let f = r.flow(0, 2).unwrap();
        assert!(f.loss_ratio > 0.2, "loss {}", f.loss_ratio);
        assert!(r.conservation_holds());
    }

    #[test]
    fn bigger_queues_mean_fewer_drops_but_more_delay() {
        let tiny = run_line3(9_000.0, &[1, 1, 1], 4);
        let big = run_line3(9_000.0, &[64, 64, 64], 4);
        let ft = tiny.flow(0, 2).unwrap();
        let fb = big.flow(0, 2).unwrap();
        assert!(
            ft.loss_ratio > fb.loss_ratio,
            "tiny {} vs big {}",
            ft.loss_ratio,
            fb.loss_ratio
        );
        assert!(
            fb.mean_delay_s > ft.mean_delay_s,
            "big buffers queue longer"
        );
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let a = run_line3(8_000.0, &[4, 4, 4], 42);
        let b = run_line3(8_000.0, &[4, 4, 4], 42);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.total_created, b.total_created);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_line3(8_000.0, &[4, 4, 4], 1);
        let b = run_line3(8_000.0, &[4, 4, 4], 2);
        assert_ne!(a.total_created, b.total_created);
    }

    #[test]
    fn full_mesh_on_nsfnet_runs_clean() {
        let topo = topologies::nsfnet_default();
        let routing = Routing::shortest_paths(&topo);
        let mut rng = Prng::new(9);
        let tm = TrafficMatrix::with_target_utilization(&topo, &routing, &mut rng, 0.5);
        let config = SimConfig {
            duration_s: 200.0,
            warmup_s: 20.0,
            seed: 9,
            ..SimConfig::default()
        };
        let caps = vec![32; topo.num_nodes()];
        let r = simulate(&topo, &routing, &tm, &caps, &config, &FaultPlan::none()).unwrap();
        assert!(r.conservation_holds());
        assert_eq!(r.flows.len(), 14 * 13);
        assert!(r.mean_delay_s() > 0.0);
        // Utilization must stay physical.
        for l in &r.links {
            assert!(
                l.utilization >= 0.0 && l.utilization <= 1.0 + 1e-9,
                "util {}",
                l.utilization
            );
        }
    }

    #[test]
    fn propagation_delay_adds_to_latency() {
        let topo_fast = Topology::from_undirected_edges("fast", 2, &[(0, 1)], 10_000.0, 0.0);
        let topo_slow = Topology::from_undirected_edges("slow", 2, &[(0, 1)], 10_000.0, 0.25);
        let mut results = Vec::new();
        for topo in [&topo_fast, &topo_slow] {
            let routing = Routing::shortest_paths(topo);
            let mut tm = TrafficMatrix::zeros(2);
            tm.set(0, 1, 100.0);
            let config = SimConfig {
                duration_s: 300.0,
                warmup_s: 30.0,
                seed: 5,
                ..SimConfig::default()
            };
            let r = simulate(topo, &routing, &tm, &[32, 32], &config, &FaultPlan::none()).unwrap();
            results.push(r.flow(0, 1).unwrap().mean_delay_s);
        }
        let extra = results[1] - results[0];
        assert!((extra - 0.25).abs() < 0.02, "propagation delta {extra}");
    }

    #[test]
    fn drop_chance_causes_loss() {
        let (topo, routing) = line3();
        let mut tm = TrafficMatrix::zeros(3);
        tm.set(0, 2, 2_000.0);
        let config = SimConfig {
            duration_s: 300.0,
            warmup_s: 30.0,
            seed: 6,
            ..SimConfig::default()
        };
        let faults = FaultPlan::with_drop_chance(0.1);
        let r = simulate(&topo, &routing, &tm, &[32, 32, 32], &config, &faults).unwrap();
        let f = r.flow(0, 2).unwrap();
        // two hops, 10% per hop -> ~19% loss
        assert!((f.loss_ratio - 0.19).abs() < 0.05, "loss {}", f.loss_ratio);
        assert!(r.conservation_holds());
    }

    #[test]
    fn outage_kills_traffic_during_window() {
        let (topo, routing) = line3();
        let l01 = topo.find_link(0, 1).unwrap();
        let mut tm = TrafficMatrix::zeros(3);
        tm.set(0, 2, 2_000.0);
        let config = SimConfig {
            duration_s: 200.0,
            warmup_s: 0.0,
            seed: 7,
            ..SimConfig::default()
        };
        // Link down for the whole run: everything drops at the first hop.
        let faults = FaultPlan::none().with_outage(l01, 0.0, 1_000.0);
        let r = simulate(&topo, &routing, &tm, &[32, 32, 32], &config, &faults).unwrap();
        let f = r.flow(0, 2).unwrap();
        assert_eq!(f.delivered, 0);
        assert!(f.loss_ratio > 0.999);
    }

    #[test]
    fn zero_traffic_is_a_quiet_network() {
        let (topo, routing) = line3();
        let tm = TrafficMatrix::zeros(3);
        let config = SimConfig::default();
        let r = simulate(
            &topo,
            &routing,
            &tm,
            &[32, 32, 32],
            &config,
            &FaultPlan::none(),
        )
        .unwrap();
        assert_eq!(r.total_created, 0);
        assert!(r.flows.is_empty());
        assert!(r.conservation_holds());
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let (topo, routing) = line3();
        let tm = TrafficMatrix::zeros(5); // wrong size
        let config = SimConfig::default();
        assert!(simulate(
            &topo,
            &routing,
            &tm,
            &[32, 32, 32],
            &config,
            &FaultPlan::none()
        )
        .is_err());
        // One queue capacity per node, or an error rather than a panic.
        let tm = TrafficMatrix::zeros(3);
        let err = simulate(&topo, &routing, &tm, &[32, 32], &config, &FaultPlan::none());
        assert_eq!(err.unwrap_err(), "2 queue capacities for 3 nodes");
        let spec = QosSpec::fifo(0);
        let err = simulate_qos(
            &topo,
            &routing,
            &tm,
            &[32; 4],
            &config,
            &FaultPlan::none(),
            &spec,
        );
        assert_eq!(err.unwrap_err(), "4 queue capacities for 3 nodes");
    }

    // ---------------------------------------------------------------- QoS

    use crate::qos::{QosSpec, SchedulingPolicy, TrafficProfile};

    /// Two flows sharing the 1→2 bottleneck on the 3-node line, with the
    /// shared link near saturation so scheduling order is visible.
    fn qos_line3(
        policy: SchedulingPolicy,
        profiles: Vec<TrafficProfile>,
        flow_classes: Vec<u8>,
        seed: u64,
    ) -> SimResult {
        let (topo, routing) = line3();
        let mut tm = TrafficMatrix::zeros(3);
        tm.set(0, 2, 4_000.0);
        tm.set(1, 2, 5_000.0);
        let config = SimConfig {
            duration_s: 600.0,
            warmup_s: 60.0,
            seed,
            ..SimConfig::default()
        };
        let spec = QosSpec {
            policy,
            class_profiles: profiles,
            flow_classes,
        };
        simulate_qos(
            &topo,
            &routing,
            &tm,
            &[32, 32, 32],
            &config,
            &FaultPlan::none(),
            &spec,
        )
        .unwrap()
    }

    #[test]
    fn strict_priority_protects_the_high_class() {
        let poisson2 = vec![TrafficProfile::Poisson, TrafficProfile::Poisson];
        // Flow (1,2) prioritized vs deprioritized; its bottleneck delay
        // must drop when it owns class 0.
        let prio = qos_line3(
            SchedulingPolicy::StrictPriority,
            poisson2.clone(),
            vec![1, 0],
            11,
        );
        let deprio = qos_line3(SchedulingPolicy::StrictPriority, poisson2, vec![0, 1], 11);
        let d_prio = prio.flow(1, 2).unwrap().mean_delay_s;
        let d_deprio = deprio.flow(1, 2).unwrap().mean_delay_s;
        assert!(
            d_prio < d_deprio * 0.8,
            "priority should cut flow (1,2) delay: {d_prio} vs {d_deprio}"
        );
        assert!(prio.conservation_holds() && deprio.conservation_holds());
        // Per-class stats mirror the per-flow ones (class 0 = flow (1,2)).
        assert_eq!(prio.classes[0].num_flows, 1);
        assert!((prio.classes[0].mean_delay_s - d_prio).abs() < 1e-12);
    }

    #[test]
    fn wfq_weights_shift_delay_between_classes() {
        let poisson2 = vec![TrafficProfile::Poisson, TrafficProfile::Poisson];
        let favored = qos_line3(
            SchedulingPolicy::Wfq {
                weights: vec![8.0, 1.0],
            },
            poisson2.clone(),
            vec![1, 0],
            13,
        );
        let even = qos_line3(
            SchedulingPolicy::Wfq {
                weights: vec![1.0, 1.0],
            },
            poisson2,
            vec![1, 0],
            13,
        );
        assert!(
            favored.classes[0].mean_delay_s < even.classes[0].mean_delay_s,
            "an 8:1 weight should beat 1:1 for class 0: {} vs {}",
            favored.classes[0].mean_delay_s,
            even.classes[0].mean_delay_s
        );
        assert!(favored.conservation_holds());
    }

    #[test]
    fn drr_quanta_shift_delay_between_classes() {
        let poisson2 = vec![TrafficProfile::Poisson, TrafficProfile::Poisson];
        let favored = qos_line3(
            SchedulingPolicy::Drr {
                quanta_bits: vec![8_000.0, 1_000.0],
            },
            poisson2.clone(),
            vec![1, 0],
            17,
        );
        let even = qos_line3(
            SchedulingPolicy::Drr {
                quanta_bits: vec![1_000.0, 1_000.0],
            },
            poisson2,
            vec![1, 0],
            17,
        );
        assert!(
            favored.classes[0].mean_delay_s < even.classes[0].mean_delay_s,
            "an 8:1 quantum should beat 1:1 for class 0: {} vs {}",
            favored.classes[0].mean_delay_s,
            even.classes[0].mean_delay_s
        );
        assert!(favored.conservation_holds());
    }

    #[test]
    fn on_off_traffic_is_burstier_than_poisson_at_equal_rate() {
        let onoff = qos_line3(
            SchedulingPolicy::Fifo,
            vec![
                TrafficProfile::OnOff {
                    on_mean_s: 1.0,
                    off_mean_s: 1.0,
                },
                TrafficProfile::Poisson,
            ],
            vec![0, 1],
            23,
        );
        let poisson = qos_line3(
            SchedulingPolicy::Fifo,
            vec![TrafficProfile::Poisson, TrafficProfile::Poisson],
            vec![0, 1],
            23,
        );
        // Same mean rate (created counts within 15%)…
        let (c_on, c_po) = (onoff.total_created as f64, poisson.total_created as f64);
        assert!(
            (c_on / c_po - 1.0).abs() < 0.15,
            "on-off keeps the mean rate: {c_on} vs {c_po}"
        );
        // …but the on-off class sees strictly worse queueing (it transmits
        // at double rate during ON periods against a near-saturated link).
        assert!(
            onoff.classes[0].mean_delay_s > poisson.classes[0].mean_delay_s,
            "on-off should queue longer: {} vs {}",
            onoff.classes[0].mean_delay_s,
            poisson.classes[0].mean_delay_s
        );
        assert!(onoff.conservation_holds());
    }

    #[test]
    fn bursty_batches_keep_rate_and_raise_jitter() {
        let bursty = qos_line3(
            SchedulingPolicy::Fifo,
            vec![
                TrafficProfile::Bursty { batch_mean: 6.0 },
                TrafficProfile::Poisson,
            ],
            vec![0, 1],
            29,
        );
        let poisson = qos_line3(
            SchedulingPolicy::Fifo,
            vec![TrafficProfile::Poisson, TrafficProfile::Poisson],
            vec![0, 1],
            29,
        );
        let (c_b, c_p) = (bursty.total_created as f64, poisson.total_created as f64);
        assert!(
            (c_b / c_p - 1.0).abs() < 0.2,
            "batching keeps the mean packet rate: {c_b} vs {c_p}"
        );
        assert!(
            bursty.classes[0].jitter_s > poisson.classes[0].jitter_s,
            "batch arrivals should raise delay variance: {} vs {}",
            bursty.classes[0].jitter_s,
            poisson.classes[0].jitter_s
        );
        assert!(bursty.conservation_holds());
    }

    #[test]
    fn multimodal_sizes_respect_the_configured_bit_rate() {
        // 90% small (500 bit) / 10% jumbo (6000 bit) packets: mean 1050
        // bits, so the packet rate rises to keep bits/s fixed.
        let mm = qos_line3(
            SchedulingPolicy::Fifo,
            vec![
                TrafficProfile::MultimodalSizes {
                    modes: vec![(500.0, 9.0), (6_000.0, 1.0)],
                },
                TrafficProfile::Poisson,
            ],
            vec![0, 1],
            31,
        );
        assert!(mm.conservation_holds());
        // The shared bottleneck still runs near its configured utilization.
        let util = mm.links[topo_bottleneck_index()].utilization;
        assert!(
            (0.7..=1.0).contains(&util),
            "bit rate preserved under multimodal sizes, util {util}"
        );
    }

    /// Index of the 1→2 link on the line3 topology.
    fn topo_bottleneck_index() -> usize {
        let (topo, _) = line3();
        topo.find_link(1, 2).unwrap()
    }

    #[test]
    fn qos_same_seed_is_bit_identical() {
        let spec_runs: Vec<SimResult> = (0..2)
            .map(|_| {
                qos_line3(
                    SchedulingPolicy::Wfq {
                        weights: vec![3.0, 1.0],
                    },
                    vec![
                        TrafficProfile::OnOff {
                            on_mean_s: 0.5,
                            off_mean_s: 0.5,
                        },
                        TrafficProfile::Bursty { batch_mean: 4.0 },
                    ],
                    vec![0, 1],
                    77,
                )
            })
            .collect();
        assert_eq!(spec_runs[0].flows, spec_runs[1].flows);
        assert_eq!(spec_runs[0].classes, spec_runs[1].classes);
        assert_eq!(spec_runs[0].total_created, spec_runs[1].total_created);
    }

    #[test]
    fn qos_rejects_bad_specs() {
        let (topo, routing) = line3();
        let mut tm = TrafficMatrix::zeros(3);
        tm.set(0, 2, 1_000.0);
        let config = SimConfig::default();
        // Wrong flow count.
        let spec = QosSpec::fifo(5);
        assert!(
            Simulation::with_qos(&topo, &routing, &tm, &config, &FaultPlan::none(), &spec).is_err()
        );
        // Class out of range.
        let spec = QosSpec {
            policy: SchedulingPolicy::StrictPriority,
            class_profiles: vec![TrafficProfile::Poisson],
            flow_classes: vec![3],
        };
        assert!(
            Simulation::with_qos(&topo, &routing, &tm, &config, &FaultPlan::none(), &spec).is_err()
        );
    }
}
