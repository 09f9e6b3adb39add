//! Chaos injection for the serving stack, modeled on
//! [`rn_netsim::fault::FaultPlan`]: the *simulated* network has had
//! first-class fault injection since the seed — this module gives the
//! *serving* system the same treatment, so the fault-tolerance claims in
//! `tests/serve_faults.rs` are proven against injected failures instead of
//! assumed.
//!
//! A [`ChaosPlan`] describes which faults to inject and how often; a
//! [`FaultInjector`] executes the plan with atomic tick counters, so the
//! injection points are **deterministic in the sequence of events** (every
//! Nth batch panics, every Nth connection drops) and the artificial-latency
//! jitter is a pure function of `seed` and the tick — two runs that process
//! the same event sequence inject the same faults.
//!
//! Injection points (all inert when the plan is [`ChaosPlan::none`] — the
//! service holds no injector at all, so the hot path pays a single `Option`
//! check):
//!
//! - **batch panic** (`panic_every`): the worker panics *inside* its
//!   supervised batch region, exactly like a real bug in kernel/model code
//!   would. Supervision must convert it into per-request error replies.
//! - **worker kill** (`kill_every`): the worker panics *between* batches,
//!   escaping the batch region — the supervisor must respawn the worker
//!   loop without losing a queued request.
//! - **batch delay** (`batch_delay`): artificial pre-forward latency with
//!   seeded ±50% jitter — backs up the admission queue so overload and
//!   deadline behavior can be exercised on a fast model.
//! - **connection drop** (`drop_conn_every`): the TCP frontend closes a
//!   client connection right before replying — the worst client-visible
//!   moment.
//!
//! A plan reaches the service only as [`crate::ServeConfig::chaos`], set in
//! code (the fault-tolerance tests do); the `rn_serve` daemon never injects.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which serving faults to inject and how often. All-zero (the default) is
/// "no chaos"; [`FaultInjector::from_plan`] returns `None` for it so the
/// service carries no injector at all.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Panic inside every Nth dynamic-batch execution (0 disables). The
    /// panic is raised inside the worker's supervised batch region, like a
    /// real model/kernel bug.
    pub panic_every: u64,
    /// Kill the worker loop on every Nth iteration (0 disables). The panic
    /// escapes the batch region — recovery relies on worker respawn, not
    /// batch-level catching. Fired only between batches, so no in-flight
    /// request is held when it goes off.
    pub kill_every: u64,
    /// Artificial latency injected before every batch's forward pass
    /// (`Duration::ZERO` disables). Jittered ±50% deterministically from
    /// `seed` and the batch tick.
    pub batch_delay: Duration,
    /// Drop every Nth TCP connection right before a reply is written
    /// (0 disables).
    pub drop_conn_every: u64,
    /// Seed for the deterministic delay jitter.
    pub seed: u64,
}

impl ChaosPlan {
    /// A plan that injects nothing (the production default).
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects no faults at all (`seed` alone does not
    /// make a plan active).
    pub fn is_none(&self) -> bool {
        self.panic_every == 0
            && self.kill_every == 0
            && self.batch_delay == Duration::ZERO
            && self.drop_conn_every == 0
    }

    /// Panic inside every `n`th batch execution.
    pub fn with_panic_every(mut self, n: u64) -> Self {
        self.panic_every = n;
        self
    }

    /// Kill the worker loop on every `n`th iteration.
    pub fn with_kill_every(mut self, n: u64) -> Self {
        self.kill_every = n;
        self
    }

    /// Inject `delay` (±50% seeded jitter) before every batch forward.
    pub fn with_batch_delay(mut self, delay: Duration) -> Self {
        self.batch_delay = delay;
        self
    }

    /// Drop every `n`th TCP connection before a reply.
    pub fn with_drop_conn_every(mut self, n: u64) -> Self {
        self.drop_conn_every = n;
        self
    }

    /// Seed the delay jitter.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// SplitMix64 — the same small deterministic mixer the vendored rand crate
/// seeds with; used here so jitter is a pure function of (seed, tick) and
/// the loadgen's backoff jitter is a pure function of (seed, attempt).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Executes a [`ChaosPlan`] with atomic tick counters. One injector is
/// shared by every worker and connection thread of a service, so "every
/// Nth" is counted service-wide in arrival order.
pub struct FaultInjector {
    plan: ChaosPlan,
    batch_ticks: AtomicU64,
    loop_ticks: AtomicU64,
    conn_ticks: AtomicU64,
}

/// Panic payload used by injected batch panics, recognizable in test logs.
pub const CHAOS_BATCH_PANIC: &str = "chaos: injected batch panic";
/// Panic payload used by injected worker kills.
pub const CHAOS_WORKER_KILL: &str = "chaos: injected worker kill";

impl FaultInjector {
    /// An injector for `plan`, or `None` when the plan injects nothing —
    /// the no-chaos hot path carries no injector state at all.
    pub fn from_plan(plan: &ChaosPlan) -> Option<Arc<Self>> {
        if plan.is_none() {
            return None;
        }
        Some(Arc::new(Self {
            plan: plan.clone(),
            batch_ticks: AtomicU64::new(0),
            loop_ticks: AtomicU64::new(0),
            conn_ticks: AtomicU64::new(0),
        }))
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    /// Batch-execution injection point: sleep the configured (jittered)
    /// artificial latency, then panic if this is an every-Nth batch.
    /// Called *inside* the worker's supervised batch region.
    pub fn before_batch(&self) {
        let tick = self.batch_ticks.fetch_add(1, Ordering::Relaxed);
        if self.plan.batch_delay > Duration::ZERO {
            // Deterministic ±50% jitter: delay * (0.5 + u) with u in [0, 1).
            let u = splitmix64(self.plan.seed ^ tick) as f64 / (u64::MAX as f64 + 1.0);
            std::thread::sleep(self.plan.batch_delay.mul_f64(0.5 + u));
        }
        if self.plan.panic_every > 0 && (tick + 1).is_multiple_of(self.plan.panic_every) {
            panic!("{CHAOS_BATCH_PANIC}");
        }
    }

    /// Worker-loop injection point: true on every `kill_every`th call.
    /// The caller panics with [`CHAOS_WORKER_KILL`] while holding no batch
    /// and no lock, so recovery exercises worker respawn alone.
    pub fn should_kill_worker(&self) -> bool {
        if self.plan.kill_every == 0 {
            return false;
        }
        let tick = self.loop_ticks.fetch_add(1, Ordering::Relaxed);
        (tick + 1).is_multiple_of(self.plan.kill_every)
    }

    /// Connection injection point: true when the frontend should drop the
    /// current connection instead of writing its next reply.
    pub fn should_drop_connection(&self) -> bool {
        if self.plan.drop_conn_every == 0 {
            return false;
        }
        let tick = self.conn_ticks.fetch_add(1, Ordering::Relaxed);
        (tick + 1).is_multiple_of(self.plan.drop_conn_every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_builds_no_injector() {
        assert!(ChaosPlan::none().is_none());
        assert!(FaultInjector::from_plan(&ChaosPlan::none()).is_none());
        // Seed alone is not a fault.
        assert!(ChaosPlan::none().with_seed(7).is_none());
        assert!(FaultInjector::from_plan(&ChaosPlan::none().with_seed(7)).is_none());
    }

    #[test]
    fn panic_cadence_is_every_nth_batch() {
        let inj = FaultInjector::from_plan(&ChaosPlan::none().with_panic_every(3)).unwrap();
        let mut outcomes = Vec::new();
        for _ in 0..9 {
            outcomes.push(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                || inj.before_batch(),
            )));
        }
        let pattern: Vec<bool> = outcomes.iter().map(|o| o.is_err()).collect();
        assert_eq!(
            pattern,
            [false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn kill_and_drop_cadences_are_deterministic() {
        let inj =
            FaultInjector::from_plan(&ChaosPlan::none().with_kill_every(2).with_drop_conn_every(4))
                .unwrap();
        let kills: Vec<bool> = (0..6).map(|_| inj.should_kill_worker()).collect();
        assert_eq!(kills, [false, true, false, true, false, true]);
        let drops: Vec<bool> = (0..8).map(|_| inj.should_drop_connection()).collect();
        assert_eq!(
            drops,
            [false, false, false, true, false, false, false, true]
        );
    }

    #[test]
    fn jitter_is_a_pure_function_of_seed_and_tick() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
    }
}
