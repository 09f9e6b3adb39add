//! QoS scenario dimensions: per-flow ToS classes, multi-queue scheduling
//! policies and heterogeneous traffic models.
//!
//! The plain simulator models every output port as one FIFO queue and every
//! flow as a Poisson source with exponential packet sizes. A [`QosSpec`]
//! widens that in three orthogonal directions:
//!
//! - **Classes** — every flow carries a ToS class `0..num_classes`; every
//!   output port keeps one waiting queue per class (shared drop-tail
//!   admission budget, so total buffering stays a node property exactly as
//!   in the FIFO model).
//! - **Scheduling** — a [`SchedulingPolicy`] arbitrates between the
//!   per-class queues: Strict Priority, WFQ (implemented as self-clocked
//!   fair queueing) or DRR (deficit round robin).
//! - **Traffic models** — each class draws its packets from a
//!   [`TrafficProfile`]: the legacy Poisson process, an interrupted-Poisson
//!   on-off source, compound-Poisson bursts, or a multimodal packet-size
//!   mixture (the bimodal small-ACK / full-MTU shape of real traces).
//!
//! A spec with one class, the [`SchedulingPolicy::Fifo`] policy and
//! [`TrafficProfile::Poisson`] everywhere is the plain model, and is what
//! the engine runs when no spec is given.

use serde::{Deserialize, Serialize};

/// How a multi-queue output port arbitrates between its per-class queues.
///
/// Class `0` is the highest-priority class throughout (DSCP-style: lower
/// numeric class index = more important traffic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedulingPolicy {
    /// One shared FIFO queue; classes only label packets. With a single
    /// class this is exactly the legacy port model.
    Fifo,
    /// Non-preemptive strict priority: the server always picks the
    /// lowest-indexed non-empty class; an in-service packet finishes.
    StrictPriority,
    /// Weighted fair queueing, realized as self-clocked fair queueing
    /// (SCFQ): packets get finish tags `F = max(V, F_prev_class) +
    /// size/weight` and the server picks the smallest tag.
    Wfq {
        /// One positive weight per class; only ratios matter.
        weights: Vec<f64>,
    },
    /// Deficit round robin: each class accrues `quantum` bits of sending
    /// credit per round and sends head-of-line packets while credit lasts.
    Drr {
        /// One positive quantum (bits per round) per class.
        quanta_bits: Vec<f64>,
    },
}

impl SchedulingPolicy {
    /// Check arity and positivity against the class count.
    pub fn validate(&self, num_classes: usize) -> Result<(), String> {
        match self {
            SchedulingPolicy::Fifo | SchedulingPolicy::StrictPriority => Ok(()),
            SchedulingPolicy::Wfq { weights } => {
                if weights.len() != num_classes {
                    return Err(format!(
                        "WFQ has {} weights for {num_classes} classes",
                        weights.len()
                    ));
                }
                if weights.iter().any(|w| !w.is_finite() || *w <= 0.0) {
                    return Err("WFQ weights must be positive and finite".into());
                }
                Ok(())
            }
            SchedulingPolicy::Drr { quanta_bits } => {
                if quanta_bits.len() != num_classes {
                    return Err(format!(
                        "DRR has {} quanta for {num_classes} classes",
                        quanta_bits.len()
                    ));
                }
                if quanta_bits.iter().any(|q| !q.is_finite() || *q <= 0.0) {
                    return Err("DRR quanta must be positive and finite".into());
                }
                Ok(())
            }
        }
    }

    /// The long-run bandwidth share this policy nominally grants `class`
    /// when all classes are backlogged. Strict priority is modeled as a
    /// rank-proportional share (it has no fixed share; the rank ordering is
    /// what the GNN's queue features need). Shares sum to 1 across classes.
    pub fn class_share(&self, class: usize, num_classes: usize) -> f64 {
        debug_assert!(class < num_classes);
        let n = num_classes as f64;
        match self {
            SchedulingPolicy::Fifo => 1.0 / n,
            SchedulingPolicy::StrictPriority => {
                // Rank weight n, n-1, …, 1 normalized: class 0 largest.
                let rank = (num_classes - class) as f64;
                rank / (n * (n + 1.0) / 2.0)
            }
            SchedulingPolicy::Wfq { weights } => weights[class] / weights.iter().sum::<f64>(),
            SchedulingPolicy::Drr { quanta_bits } => {
                quanta_bits[class] / quanta_bits.iter().sum::<f64>()
            }
        }
    }
}

/// The packet-arrival and packet-size model of one traffic class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TrafficProfile {
    /// The legacy model: Poisson arrivals, truncated-exponential sizes.
    Poisson,
    /// Interrupted Poisson: exponential ON periods emitting at a boosted
    /// rate, silent exponential OFF periods. The mean rate over ON+OFF
    /// equals the flow's configured rate.
    OnOff {
        /// Mean ON-period length in seconds.
        on_mean_s: f64,
        /// Mean OFF-period length in seconds.
        off_mean_s: f64,
    },
    /// Compound Poisson: arrival events carry geometric batches of packets
    /// (mean `batch_mean` per event); the event rate is scaled down so the
    /// mean packet rate still matches the flow's configured rate.
    Bursty {
        /// Mean packets per batch (≥ 1).
        batch_mean: f64,
    },
    /// Poisson arrivals with packet sizes drawn from a discrete mixture —
    /// e.g. the classic bimodal 64-byte / 1500-byte internet mix.
    MultimodalSizes {
        /// `(size_bits, weight)` mixture components; weights need not be
        /// normalized.
        modes: Vec<(f64, f64)>,
    },
}

impl TrafficProfile {
    /// Check the profile's parameters.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            TrafficProfile::Poisson => Ok(()),
            TrafficProfile::OnOff {
                on_mean_s,
                off_mean_s,
            } => {
                let on_ok = on_mean_s.is_finite() && *on_mean_s > 0.0;
                let off_ok = off_mean_s.is_finite() && *off_mean_s >= 0.0;
                if !(on_ok && off_ok) {
                    return Err("on-off periods must be positive/non-negative".into());
                }
                Ok(())
            }
            TrafficProfile::Bursty { batch_mean } => {
                if !(batch_mean.is_finite() && *batch_mean >= 1.0) {
                    return Err("bursty batch mean must be >= 1".into());
                }
                Ok(())
            }
            TrafficProfile::MultimodalSizes { modes } => {
                if modes.is_empty() {
                    return Err("multimodal size mixture needs at least one mode".into());
                }
                if !modes
                    .iter()
                    .all(|(s, w)| s.is_finite() && *s >= 1.0 && w.is_finite() && *w > 0.0)
                {
                    return Err("multimodal modes need size >= 1 bit and positive weight".into());
                }
                Ok(())
            }
        }
    }

    /// Mean packet size in bits under this profile, given the simulation's
    /// baseline mean (used so rate→lambda conversion stays consistent).
    pub fn mean_packet_bits(&self, baseline_mean_bits: f64) -> f64 {
        match self {
            TrafficProfile::MultimodalSizes { modes } => {
                let wsum: f64 = modes.iter().map(|(_, w)| w).sum();
                modes.iter().map(|(s, w)| s * w).sum::<f64>() / wsum
            }
            _ => baseline_mean_bits,
        }
    }
}

/// A complete QoS scenario description, attached to one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosSpec {
    /// The scheduling policy applied at every output port.
    pub policy: SchedulingPolicy,
    /// One traffic profile per class (`class_profiles.len()` is the class
    /// count).
    pub class_profiles: Vec<TrafficProfile>,
    /// ToS class of every flow, aligned with the simulation's flow table
    /// (positive-rate pairs in routing iteration order).
    pub flow_classes: Vec<u8>,
}

impl QosSpec {
    /// A single-class FIFO/Poisson spec for `num_flows` flows — the legacy
    /// model expressed as a `QosSpec`.
    pub fn fifo(num_flows: usize) -> Self {
        Self {
            policy: SchedulingPolicy::Fifo,
            class_profiles: vec![TrafficProfile::Poisson],
            flow_classes: vec![0; num_flows],
        }
    }

    /// Number of traffic classes.
    pub fn num_classes(&self) -> usize {
        self.class_profiles.len()
    }

    /// True when this spec is semantically the legacy FIFO model: one class
    /// scheduled FIFO. (Traffic profiles may still differ from Poisson —
    /// they change arrivals, not the queueing structure.)
    pub fn is_single_class_fifo(&self) -> bool {
        self.num_classes() == 1 && self.policy == SchedulingPolicy::Fifo
    }

    /// Check internal consistency against the flow-table length.
    pub fn validate(&self, num_flows: usize) -> Result<(), String> {
        if self.class_profiles.is_empty() {
            return Err("QoS spec needs at least one class".into());
        }
        if self.num_classes() > u8::MAX as usize {
            return Err("at most 255 traffic classes".into());
        }
        self.policy.validate(self.num_classes())?;
        for profile in &self.class_profiles {
            profile.validate()?;
        }
        if self.flow_classes.len() != num_flows {
            return Err(format!(
                "QoS spec classifies {} flows, simulation has {num_flows}",
                self.flow_classes.len()
            ));
        }
        if let Some(c) = self
            .flow_classes
            .iter()
            .find(|&&c| c as usize >= self.num_classes())
        {
            return Err(format!(
                "flow class {c} out of range (num_classes = {})",
                self.num_classes()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let n = 3;
        for policy in [
            SchedulingPolicy::Fifo,
            SchedulingPolicy::StrictPriority,
            SchedulingPolicy::Wfq {
                weights: vec![4.0, 2.0, 1.0],
            },
            SchedulingPolicy::Drr {
                quanta_bits: vec![3000.0, 2000.0, 1000.0],
            },
        ] {
            let total: f64 = (0..n).map(|c| policy.class_share(c, n)).sum();
            assert!((total - 1.0).abs() < 1e-12, "{policy:?} -> {total}");
        }
    }

    #[test]
    fn strict_priority_share_is_rank_monotone() {
        let p = SchedulingPolicy::StrictPriority;
        assert!(p.class_share(0, 3) > p.class_share(1, 3));
        assert!(p.class_share(1, 3) > p.class_share(2, 3));
    }

    #[test]
    fn validate_catches_arity_mismatches() {
        let spec = QosSpec {
            policy: SchedulingPolicy::Wfq {
                weights: vec![1.0, 2.0],
            },
            class_profiles: vec![TrafficProfile::Poisson; 3],
            flow_classes: vec![0, 1, 2],
        };
        assert!(spec.validate(3).is_err(), "2 weights for 3 classes");

        let spec = QosSpec {
            policy: SchedulingPolicy::StrictPriority,
            class_profiles: vec![TrafficProfile::Poisson; 2],
            flow_classes: vec![0, 2],
        };
        assert!(spec.validate(2).is_err(), "class 2 out of range");
    }

    #[test]
    fn multimodal_mean_is_the_mixture_mean() {
        let p = TrafficProfile::MultimodalSizes {
            modes: vec![(512.0, 3.0), (12000.0, 1.0)],
        };
        let mean = p.mean_packet_bits(1000.0);
        assert!((mean - (512.0 * 3.0 + 12000.0) / 4.0).abs() < 1e-9);
        assert_eq!(TrafficProfile::Poisson.mean_packet_bits(1000.0), 1000.0);
    }
}
