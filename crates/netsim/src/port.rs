//! The output port: one server per directed link, a shared drop-tail
//! waiting room and a [`SchedulingPolicy`] choosing what to serve next
//! ([`SchedPort`]). One class scheduled FIFO is the paper's plain port.

use crate::qos::SchedulingPolicy;
use std::collections::VecDeque;

/// A packet traversing the network.
#[derive(Debug, Clone, Copy)]
pub struct Packet {
    /// Index into the simulation's flow table.
    pub flow: usize,
    /// ToS class (0 = highest priority; always 0 without a QoS spec).
    pub class: u8,
    /// Size in bits.
    pub size_bits: f64,
    /// Simulated creation time (entry into the first output queue).
    pub created_at: f64,
    /// Next index into the flow's link path (0 = first hop about to be
    /// crossed). Incremented as the packet is launched on each hop.
    pub hop: usize,
}

/// Outcome of offering a packet to a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The port was idle; the packet went straight into service and a
    /// departure must be scheduled.
    StartService,
    /// The packet joined the waiting queue.
    Queued,
    /// The queue was full; the packet was dropped.
    Dropped,
}

/// Per-port scheduler state for one [`SchedulingPolicy`].
#[derive(Debug)]
enum SchedState {
    /// One arrival-order queue shared by all classes (`queues[0]`; classes
    /// only label packets).
    Fifo,
    /// Strict priority needs no state: lowest non-empty class wins.
    Strict,
    /// SCFQ bookkeeping: the virtual time (finish tag of the in-service
    /// packet) and each class's last-assigned finish tag. Tags of waiting
    /// packets are stored in `SchedPort::tags`, parallel to the queues.
    Wfq {
        virtual_time: f64,
        last_finish: Vec<f64>,
    },
    /// DRR bookkeeping: per-class deficit counters, the round-robin cursor
    /// and whether the cursor's class is still owed its quantum this visit.
    Drr {
        deficits: Vec<f64>,
        cursor: usize,
        owed_quantum: bool,
    },
}

/// The transmission side of one directed link: a single server, one waiting
/// queue per traffic class (one for all classes under FIFO), a shared
/// drop-tail admission budget counted in *waiting* packets — the in-service
/// packet occupies the server, not a slot, and buffering stays a node
/// property — and a [`SchedulingPolicy`] arbitrating which head-of-line
/// packet enters service next.
#[derive(Debug)]
pub struct SchedPort {
    /// One waiting queue per class; a single arrival-order queue under FIFO.
    queues: Vec<VecDeque<Packet>>,
    /// SCFQ finish tags, parallel to `queues` (unused by other policies).
    tags: Vec<VecDeque<f64>>,
    /// Packet currently being transmitted, if any.
    in_service: Option<Packet>,
    /// Max *total* waiting packets across all classes.
    capacity: usize,
    /// Total waiting packets (cached sum of queue lengths).
    waiting: usize,
    /// WFQ weights / DRR quanta copied out of the policy.
    weights: Vec<f64>,
    state: SchedState,
    /// Packets dropped at this port (shared waiting room full).
    pub drops: u64,
    /// Total bits whose transmission *completed* (for utilization stats).
    /// Counting at completion — not at service start — keeps
    /// `bits_sent / (capacity * horizon)` bounded by 1 even when the run
    /// ends mid-transmission.
    pub bits_sent: f64,
    /// Per-class admitted packets (queued or immediately served).
    pub class_admitted: Vec<u64>,
    /// Per-class drop-tail drops.
    pub class_dropped: Vec<u64>,
    /// Per-class completed transmissions.
    pub class_sent_pkts: Vec<u64>,
    /// Per-class completed bits.
    pub class_sent_bits: Vec<f64>,
}

impl SchedPort {
    /// A scheduled port with `num_classes` queues sharing `capacity`
    /// waiting slots, arbitrated by `policy`.
    pub fn new(num_classes: usize, capacity: usize, policy: &SchedulingPolicy) -> Self {
        assert!(num_classes > 0, "need at least one class");
        let (state, weights) = match policy {
            SchedulingPolicy::Fifo => (SchedState::Fifo, vec![1.0; num_classes]),
            SchedulingPolicy::StrictPriority => (SchedState::Strict, vec![1.0; num_classes]),
            SchedulingPolicy::Wfq { weights } => {
                assert_eq!(weights.len(), num_classes, "one WFQ weight per class");
                (
                    SchedState::Wfq {
                        virtual_time: 0.0,
                        last_finish: vec![0.0; num_classes],
                    },
                    weights.clone(),
                )
            }
            SchedulingPolicy::Drr { quanta_bits } => {
                assert_eq!(quanta_bits.len(), num_classes, "one DRR quantum per class");
                (
                    SchedState::Drr {
                        deficits: vec![0.0; num_classes],
                        cursor: 0,
                        owed_quantum: true,
                    },
                    quanta_bits.clone(),
                )
            }
        };
        let queue_count = match state {
            SchedState::Fifo => 1,
            _ => num_classes,
        };
        Self {
            queues: vec![VecDeque::new(); queue_count],
            tags: vec![VecDeque::new(); num_classes],
            in_service: None,
            capacity,
            waiting: 0,
            weights,
            state,
            drops: 0,
            bits_sent: 0.0,
            class_admitted: vec![0; num_classes],
            class_dropped: vec![0; num_classes],
            class_sent_pkts: vec![0; num_classes],
            class_sent_bits: vec![0.0; num_classes],
        }
    }

    /// Offer a packet: straight to service when idle, else drop-tail
    /// admission against the *shared* waiting budget.
    pub fn offer(&mut self, pkt: Packet) -> Offer {
        let c = pkt.class as usize;
        debug_assert!(c < self.num_classes(), "class out of range");
        if self.in_service.is_none() {
            debug_assert_eq!(self.waiting, 0, "idle server with waiting packets");
            // An empty system resets the SCFQ virtual clock (standard SCFQ:
            // tags only order packets within a busy period).
            if let SchedState::Wfq {
                virtual_time,
                last_finish,
            } = &mut self.state
            {
                *virtual_time = pkt.size_bits / self.weights[c];
                last_finish.fill(0.0);
                last_finish[c] = *virtual_time;
            }
            self.class_admitted[c] += 1;
            self.in_service = Some(pkt);
            return Offer::StartService;
        }
        if self.waiting < self.capacity {
            if let SchedState::Wfq {
                virtual_time,
                last_finish,
            } = &mut self.state
            {
                let f = virtual_time.max(last_finish[c]) + pkt.size_bits / self.weights[c];
                last_finish[c] = f;
                self.tags[c].push_back(f);
            }
            let q = match self.state {
                SchedState::Fifo => 0,
                _ => c,
            };
            self.queues[q].push_back(pkt);
            self.waiting += 1;
            self.class_admitted[c] += 1;
            Offer::Queued
        } else {
            self.drops += 1;
            self.class_dropped[c] += 1;
            Offer::Dropped
        }
    }

    /// Complete the in-service transmission: returns the departed packet
    /// and, if any packet was waiting, the one the scheduler picked to enter
    /// service next (whose departure the engine must schedule).
    pub fn complete_service(&mut self) -> (Packet, Option<Packet>) {
        let departed = self
            .in_service
            .take()
            .expect("complete_service on idle port");
        self.bits_sent += departed.size_bits;
        let c = departed.class as usize;
        self.class_sent_pkts[c] += 1;
        self.class_sent_bits[c] += departed.size_bits;
        if let Some(next) = self.dequeue_next() {
            self.in_service = Some(next);
        }
        (departed, self.in_service)
    }

    /// Pick the next packet per the scheduling policy. `None` iff all
    /// queues are empty — the port never idles with work waiting (work
    /// conservation, pinned by the proptest suite).
    fn dequeue_next(&mut self) -> Option<Packet> {
        if self.waiting == 0 {
            return None;
        }
        self.waiting -= 1;
        match &mut self.state {
            // Arrival order at *this* port — not creation order at the
            // source, which differs on every hop after the first.
            SchedState::Fifo => self.queues[0].pop_front(),
            SchedState::Strict => {
                let c = (0..self.queues.len())
                    .find(|&c| !self.queues[c].is_empty())
                    .expect("waiting > 0 implies a non-empty queue");
                self.queues[c].pop_front()
            }
            SchedState::Wfq { virtual_time, .. } => {
                let c = (0..self.queues.len())
                    .filter(|&c| !self.queues[c].is_empty())
                    .min_by(|&a, &b| {
                        let fa = self.tags[a].front().unwrap();
                        let fb = self.tags[b].front().unwrap();
                        fa.partial_cmp(fb).unwrap().then(a.cmp(&b))
                    })
                    .expect("waiting > 0 implies a non-empty queue");
                let tag = self.tags[c].pop_front().expect("tag parallel to queue");
                *virtual_time = tag;
                self.queues[c].pop_front()
            }
            SchedState::Drr {
                deficits,
                cursor,
                owed_quantum,
            } => {
                let n = self.queues.len();
                loop {
                    let c = *cursor;
                    if self.queues[c].is_empty() {
                        // A class that empties forfeits its residual credit
                        // (standard DRR: deficits only persist while
                        // backlogged).
                        deficits[c] = 0.0;
                        *cursor = (c + 1) % n;
                        *owed_quantum = true;
                        continue;
                    }
                    if *owed_quantum {
                        deficits[c] += self.weights[c];
                        *owed_quantum = false;
                    }
                    let head = self.queues[c].front().unwrap().size_bits;
                    if deficits[c] >= head {
                        deficits[c] -= head;
                        return self.queues[c].pop_front();
                    }
                    *cursor = (c + 1) % n;
                    *owed_quantum = true;
                }
            }
        }
    }

    /// Number of waiting packets across all classes.
    pub fn backlog(&self) -> usize {
        self.waiting
    }

    /// Waiting packets of one class.
    pub fn class_backlog(&self, class: usize) -> usize {
        let waiting = self.queues.iter().flatten();
        waiting.filter(|p| p.class as usize == class).count()
    }

    /// True when a packet is in transmission.
    pub fn busy(&self) -> bool {
        self.in_service.is_some()
    }

    /// Class of the packet currently in service, if any.
    pub fn in_service_class(&self) -> Option<u8> {
        self.in_service.map(|p| p.class)
    }

    /// Number of traffic classes.
    pub fn num_classes(&self) -> usize {
        self.class_admitted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(flow: usize) -> Packet {
        Packet {
            flow,
            class: 0,
            size_bits: 1000.0,
            created_at: 0.0,
            hop: 0,
        }
    }

    /// The paper's plain port: one class scheduled FIFO.
    fn fifo_port(capacity: usize) -> SchedPort {
        SchedPort::new(1, capacity, &SchedulingPolicy::Fifo)
    }

    fn cpkt(class: u8, size_bits: f64) -> Packet {
        Packet {
            flow: 0,
            class,
            size_bits,
            created_at: 0.0,
            hop: 0,
        }
    }

    #[test]
    fn idle_port_starts_service_immediately() {
        let mut port = fifo_port(2);
        assert_eq!(port.offer(pkt(0)), Offer::StartService);
        assert!(port.busy());
        assert_eq!(port.backlog(), 0);
    }

    #[test]
    fn busy_port_queues_up_to_capacity_then_drops() {
        let mut port = fifo_port(2);
        assert_eq!(port.offer(pkt(0)), Offer::StartService);
        assert_eq!(port.offer(pkt(1)), Offer::Queued);
        assert_eq!(port.offer(pkt(2)), Offer::Queued);
        assert_eq!(port.offer(pkt(3)), Offer::Dropped);
        assert_eq!(port.drops, 1);
        assert_eq!(port.backlog(), 2);
        assert!(port.busy());
    }

    #[test]
    fn tiny_queue_holds_one_waiting_packet() {
        let mut port = fifo_port(1);
        assert_eq!(port.offer(pkt(0)), Offer::StartService);
        assert_eq!(port.offer(pkt(1)), Offer::Queued);
        assert_eq!(port.offer(pkt(2)), Offer::Dropped);
    }

    #[test]
    fn completion_promotes_fifo_order() {
        let mut port = fifo_port(4);
        port.offer(pkt(0));
        port.offer(pkt(1));
        port.offer(pkt(2));
        let (out0, next) = port.complete_service();
        assert_eq!(out0.flow, 0);
        assert_eq!(next.unwrap().flow, 1, "FIFO: flow 1 enters service next");
        let (out1, next) = port.complete_service();
        assert_eq!(out1.flow, 1);
        assert_eq!(next.unwrap().flow, 2);
        let (out2, next) = port.complete_service();
        assert_eq!(out2.flow, 2);
        assert!(next.is_none());
        assert!(!port.busy());
    }

    #[test]
    fn bits_sent_counts_completed_transmissions_only() {
        let mut port = fifo_port(0); // no waiting room at all
        port.offer(pkt(0));
        port.offer(pkt(1)); // dropped
        assert_eq!(port.bits_sent, 0.0, "in-flight bits are not counted yet");
        assert_eq!(port.drops, 1);
        port.complete_service();
        assert_eq!(port.bits_sent, 1000.0);
    }

    #[test]
    #[should_panic(expected = "complete_service on idle port")]
    fn completing_idle_port_is_a_bug() {
        fifo_port(1).complete_service();
    }

    #[test]
    fn strict_priority_serves_highest_class_first() {
        let mut port = SchedPort::new(2, 8, &SchedulingPolicy::StrictPriority);
        assert_eq!(port.offer(cpkt(1, 1000.0)), Offer::StartService);
        port.offer(cpkt(1, 1000.0));
        port.offer(cpkt(0, 1000.0)); // arrives last but outranks class 1
        let (_, next) = port.complete_service();
        assert_eq!(next.unwrap().class, 0, "class 0 jumps the class-1 queue");
        let (_, next) = port.complete_service();
        assert_eq!(next.unwrap().class, 1);
    }

    #[test]
    fn sched_port_shares_one_waiting_budget() {
        let mut port = SchedPort::new(2, 2, &SchedulingPolicy::StrictPriority);
        port.offer(cpkt(1, 1000.0)); // in service
        assert_eq!(port.offer(cpkt(1, 1000.0)), Offer::Queued);
        assert_eq!(port.offer(cpkt(0, 1000.0)), Offer::Queued);
        assert_eq!(port.offer(cpkt(0, 1000.0)), Offer::Dropped);
        assert_eq!(port.class_dropped, vec![1, 0]);
        assert_eq!(port.backlog(), 2);
    }

    #[test]
    fn wfq_interleaves_by_weight() {
        // Equal weights, equal sizes: finish tags alternate classes even
        // though all class-0 packets arrived first.
        let mut port = SchedPort::new(
            2,
            16,
            &SchedulingPolicy::Wfq {
                weights: vec![1.0, 1.0],
            },
        );
        port.offer(cpkt(0, 1000.0)); // in service
        for _ in 0..3 {
            port.offer(cpkt(0, 1000.0));
        }
        for _ in 0..3 {
            port.offer(cpkt(1, 1000.0));
        }
        let mut order = Vec::new();
        for _ in 0..6 {
            let (_, next) = port.complete_service();
            order.push(next.unwrap().class);
        }
        assert_eq!(
            order,
            vec![0, 1, 0, 1, 0, 1],
            "SCFQ alternates equal weights"
        );
    }

    #[test]
    fn wfq_heavier_weight_gets_more_service() {
        let mut port = SchedPort::new(
            2,
            64,
            &SchedulingPolicy::Wfq {
                weights: vec![3.0, 1.0],
            },
        );
        port.offer(cpkt(0, 1000.0));
        for _ in 0..30 {
            port.offer(cpkt(0, 1000.0));
            port.offer(cpkt(1, 1000.0));
        }
        let mut served = [0u32; 2];
        for _ in 0..20 {
            let (_, next) = port.complete_service();
            served[next.unwrap().class as usize] += 1;
        }
        assert!(
            served[0] >= 3 * served[1] - 2,
            "3:1 weights should serve ~3x class 0: {served:?}"
        );
    }

    #[test]
    fn drr_respects_quanta_ratio() {
        let mut port = SchedPort::new(
            2,
            64,
            &SchedulingPolicy::Drr {
                quanta_bits: vec![2000.0, 1000.0],
            },
        );
        port.offer(cpkt(0, 1000.0));
        for _ in 0..30 {
            port.offer(cpkt(0, 1000.0));
            port.offer(cpkt(1, 1000.0));
        }
        let mut bits = [0.0f64; 2];
        for _ in 0..30 {
            let (departed, _) = port.complete_service();
            bits[departed.class as usize] += departed.size_bits;
        }
        let ratio = bits[0] / bits[1];
        assert!(
            (ratio - 2.0).abs() < 0.35,
            "2:1 quanta should send ~2:1 bits, got {ratio}"
        );
    }

    #[test]
    fn multi_class_fifo_serves_in_port_arrival_order_not_creation_order() {
        // A two-hop line 0 -> 1 -> 2. Packet A (class 0) is created at node 0
        // at t = 0.0 and spends 0.1 s on the first link; packet B (class 1)
        // is created at node 1 at t = 0.05. Both find the 1 -> 2 port busy
        // until t = 0.2, and B got there first.
        let at = |class: u8, created_at: f64, flow: usize| Packet {
            flow,
            class,
            size_bits: 1000.0,
            created_at,
            hop: 0,
        };
        let mut port01 = SchedPort::new(2, 8, &SchedulingPolicy::Fifo);
        let mut port12 = SchedPort::new(2, 8, &SchedulingPolicy::Fifo);
        assert_eq!(port12.offer(at(1, -0.1, 9)), Offer::StartService);
        assert_eq!(port01.offer(at(0, 0.0, 0)), Offer::StartService);
        assert_eq!(port12.offer(at(1, 0.05, 1)), Offer::Queued);
        let (mut a, _) = port01.complete_service(); // t = 0.1
        a.hop += 1;
        assert_eq!(port12.offer(a), Offer::Queued);
        assert_eq!(port12.class_backlog(0), 1);
        assert_eq!(port12.class_backlog(1), 1);
        let (_, next) = port12.complete_service(); // t = 0.2
        assert_eq!(
            next.unwrap().flow,
            1,
            "B reached the port first and must leave it first"
        );
        let (_, next) = port12.complete_service();
        assert_eq!(next.unwrap().flow, 0);
    }
}
