//! Weighted-share delay approximation for WFQ/DRR-scheduled M/M/1 ports.
//!
//! Exact per-class delays under weighted fair queueing have no closed form;
//! the standard engineering approximation treats class `c` as its own M/M/1
//! whose server runs at an *effective rate*: the class's guaranteed share of
//! the link plus its share of whatever capacity the other classes leave
//! unused (GPS with work-conserving spare redistribution):
//!
//! ```text
//! mu_c = w_c * mu + (1 - w_c) * (mu - lambda_total)
//!      = mu - (1 - w_c) * lambda_total
//! T_c  = 1 / (mu_c - lambda_c)
//! ```
//!
//! with `w_c` the class's *normalized* weight. Two exact boundary anchors
//! (pinned by the unit tests):
//!
//! - a single class (`w = 1`) recovers the plain M/M/1 sojourn
//!   `1/(mu - lambda)`;
//! - weights equal to the classes' load shares (so the normalized weights
//!   sum to 1 across classes by construction and each class is provisioned
//!   exactly its load fraction) give *every* class the pooled FIFO sojourn
//!   `1/(mu - lambda_total)` — weighted fairness with load-proportional
//!   weights is FIFO in the mean.
//!
//! DRR maps onto the same approximation with weights proportional to the
//! per-class quanta.

/// Per-class delay approximation for one WFQ (or DRR) scheduled port.
#[derive(Debug, Clone)]
pub struct WfqApprox {
    lambdas: Vec<f64>,
    mu: f64,
    /// Normalized weights (sum 1).
    shares: Vec<f64>,
}

impl WfqApprox {
    /// A WFQ-scheduled M/M/1 port: per-class Poisson arrival rates
    /// `lambdas`, service rate `mu` (packets/second), and positive per-class
    /// `weights` (any scale — only ratios matter; DRR quanta work directly).
    pub fn new(lambdas: Vec<f64>, mu: f64, weights: &[f64]) -> Self {
        assert!(!lambdas.is_empty(), "need at least one class");
        assert_eq!(lambdas.len(), weights.len(), "one weight per class");
        assert!(
            lambdas.iter().all(|l| l.is_finite() && *l >= 0.0),
            "arrival rates must be non-negative"
        );
        assert!(mu.is_finite() && mu > 0.0, "service rate must be positive");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be positive"
        );
        let wsum: f64 = weights.iter().sum();
        let shares = weights.iter().map(|w| w / wsum).collect();
        Self {
            lambdas,
            mu,
            shares,
        }
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.lambdas.len()
    }

    /// Class `c`'s normalized weight share.
    pub fn share(&self, c: usize) -> f64 {
        self.shares[c]
    }

    /// The effective service rate class `c` experiences: its guaranteed
    /// share plus its share of the capacity other classes leave spare.
    pub fn effective_rate(&self, c: usize) -> f64 {
        let lambda_total: f64 = self.lambdas.iter().sum();
        self.mu - (1.0 - self.shares[c]) * lambda_total
    }

    /// True when class `c`'s effective server outpaces its arrivals.
    pub fn is_stable(&self, c: usize) -> bool {
        self.effective_rate(c) > self.lambdas[c]
    }

    /// Approximate mean sojourn of class `c` in seconds; infinite when the
    /// class is (approximately) unstable at its weight.
    pub fn mean_sojourn_s(&self, c: usize) -> f64 {
        let rate = self.effective_rate(c);
        if rate <= self.lambdas[c] {
            return f64::INFINITY;
        }
        1.0 / (rate - self.lambdas[c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm1::Mm1;

    const MU: f64 = 10.0;

    #[test]
    fn single_class_is_exact_mm1() {
        // Satellite boundary case: one class with weight 1.
        for lambda in [0.1, 4.0, 9.0] {
            let w = WfqApprox::new(vec![lambda], MU, &[1.0]);
            let mm1 = Mm1::new(lambda, MU).mean_sojourn_s();
            assert!(
                (w.mean_sojourn_s(0) - mm1).abs() < 1e-12,
                "{} vs {}",
                w.mean_sojourn_s(0),
                mm1
            );
        }
    }

    #[test]
    fn load_proportional_weights_recover_fifo_for_every_class() {
        // Satellite boundary case: weights equal to the load shares (they
        // sum to 1) give each class the pooled FIFO M/M/1 sojourn.
        let lambdas = vec![1.0, 3.0, 4.0];
        let total: f64 = lambdas.iter().sum();
        let weights: Vec<f64> = lambdas.iter().map(|l| l / total).collect();
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let w = WfqApprox::new(lambdas, MU, &weights);
        let fifo = Mm1::new(total, MU).mean_sojourn_s();
        for c in 0..3 {
            assert!(
                (w.mean_sojourn_s(c) - fifo).abs() < 1e-12,
                "class {c}: {} vs FIFO {fifo}",
                w.mean_sojourn_s(c)
            );
        }
    }

    #[test]
    fn light_traffic_limit_is_pure_service_time() {
        // rho -> 0: sojourn tends to 1/mu regardless of weights.
        let w = WfqApprox::new(vec![1e-9, 1e-9], MU, &[5.0, 1.0]);
        for c in 0..2 {
            assert!((w.mean_sojourn_s(c) - 1.0 / MU).abs() < 1e-9);
        }
    }

    #[test]
    fn heavy_traffic_starves_the_underweighted_class() {
        // rho -> 1 with a 9:1 weight split and symmetric load: the light
        // class diverges long before the heavy one.
        let lam = 4.9; // total rho 0.98
        let w = WfqApprox::new(vec![lam, lam], MU, &[9.0, 1.0]);
        assert!(w.mean_sojourn_s(0).is_finite());
        assert!(
            !w.is_stable(1) || w.mean_sojourn_s(1) > 10.0 * w.mean_sojourn_s(0),
            "underweighted class must be (near-)starved: {} vs {}",
            w.mean_sojourn_s(1),
            w.mean_sojourn_s(0)
        );
    }

    #[test]
    fn heavier_weight_means_lower_delay() {
        let w = WfqApprox::new(vec![3.0, 3.0], MU, &[3.0, 1.0]);
        assert!(w.mean_sojourn_s(0) < w.mean_sojourn_s(1));
        // And both bracket the FIFO pooled delay.
        let fifo = Mm1::new(6.0, MU).mean_sojourn_s();
        assert!(w.mean_sojourn_s(0) < fifo && fifo < w.mean_sojourn_s(1));
    }

    #[test]
    fn weight_scale_invariance() {
        // Only ratios matter: [2,1] and [200,100] are the same policy.
        let a = WfqApprox::new(vec![2.0, 4.0], MU, &[2.0, 1.0]);
        let b = WfqApprox::new(vec![2.0, 4.0], MU, &[200.0, 100.0]);
        for c in 0..2 {
            assert!((a.mean_sojourn_s(c) - b.mean_sojourn_s(c)).abs() < 1e-12);
        }
    }
}
