//! Service observability: lock-free counters, a geometric latency histogram
//! ([`rn_trace::GeoHistogram`]) and a batch-occupancy histogram, snapshotted
//! into one serializable record.
//!
//! Everything on the request hot path is an atomic increment; the only lock
//! is taken by [`ServeMetrics::snapshot`], which readers call at human
//! frequency.

use routenet::train_trace::StageLine;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Histogram of dynamic-batch sizes (occupancy), bucket per exact size.
pub struct BatchHistogram {
    counts: Vec<AtomicU64>,
    batches: AtomicU64,
    requests: AtomicU64,
    path_rows: AtomicU64,
}

impl BatchHistogram {
    /// Histogram for batches of up to `max_batch` requests.
    pub fn new(max_batch: usize) -> Self {
        Self {
            counts: (0..max_batch.max(1)).map(|_| AtomicU64::new(0)).collect(),
            batches: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            path_rows: AtomicU64::new(0),
        }
    }

    /// Record one flushed batch of `size` requests covering `paths` rows.
    pub fn record(&self, size: usize, paths: usize) {
        let idx = size.clamp(1, self.counts.len()) - 1;
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.requests.fetch_add(size as u64, Ordering::Relaxed);
        self.path_rows.fetch_add(paths as u64, Ordering::Relaxed);
    }

    /// Flushed batches.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Mean requests per batch (the occupancy the dynamic batcher achieved).
    pub fn mean_occupancy(&self) -> f64 {
        let b = self.batches();
        if b == 0 {
            return 0.0;
        }
        self.requests.load(Ordering::Relaxed) as f64 / b as f64
    }

    /// Mean path rows per batch.
    pub fn mean_paths(&self) -> f64 {
        let b = self.batches();
        if b == 0 {
            return 0.0;
        }
        self.path_rows.load(Ordering::Relaxed) as f64 / b as f64
    }

    /// Counts per batch size, `[0] == batches of one request`.
    pub fn counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// Request-lifecycle stage names and indices for the serve-side
/// [`rn_trace::StageRecorder`]. The five stages are an **exact
/// decomposition** of the end-to-end latency histogram: for every
/// completed request, `queue_wait + batch_assembly + compose + forward +
/// reply` equals the `enqueue → response recorded` duration to the
/// nanosecond (each boundary instant closes one stage and opens the
/// next), so stage sums reconcile against `latency` totals with no gap
/// term. Pinned by `crates/serve/tests/trace.rs`.
pub mod stage {
    /// Stage names, recording-index order.
    pub const NAMES: &[&str] = &[
        "queue_wait",
        "batch_assembly",
        "compose",
        "forward",
        "reply",
    ];
    /// Enqueue → the dynamic batcher drains the request into a batch.
    pub const QUEUE_WAIT: usize = 0;
    /// Drain → composition starts: deadline partitioning, model snapshot,
    /// plan-ref assembly, tape checkout (and any chaos delay injected
    /// before the batch region).
    pub const BATCH_ASSEMBLY: usize = 1;
    /// The block-diagonal compose of a multi-request batch (zero-length for
    /// singleton batches, which skip composition).
    pub const COMPOSE: usize = 2;
    /// The model forward pass over the (mega)batch.
    pub const FORWARD: usize = 3;
    /// Forward done → per-request latency recorded (result splitting and
    /// bookkeeping; the actual channel send is after the clock stops,
    /// matching what the end-to-end histogram measures).
    pub const REPLY: usize = 4;
}

/// Slots in the recent-completion ring. With [`RECENT_SLOT_S`]-second slots
/// the sliding window spans `RECENT_SLOTS * RECENT_SLOT_S` = 16 seconds —
/// long enough to smooth batch-sized completion bursts, short enough that a
/// throughput collapse moves the backoff hint within seconds instead of
/// being averaged away by hours of uptime.
const RECENT_SLOTS: usize = 8;
/// Seconds covered by one recent-completion slot.
const RECENT_SLOT_S: u64 = 2;

/// Lock-free sliding-window event counter: a ring of atomic slots, each
/// packing `(slot epoch << 32) | count`. Recording CASes the slot for the
/// current epoch — bumping the count on an epoch match, claiming the slot
/// with count 1 when a stale epoch is found — so a slot left over from a
/// previous ring lap can never leak old counts into the current window.
/// Reads sum every slot whose epoch is still inside the window.
///
/// All methods take the current time explicitly (seconds since service
/// start), which keeps the arithmetic pure and unit-testable: tests drive a
/// synthetic clock instead of sleeping through real slot boundaries.
struct RecentRate {
    slots: [AtomicU64; RECENT_SLOTS],
}

impl RecentRate {
    fn new() -> Self {
        Self {
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn epoch_of(now_s: f64) -> u64 {
        (now_s.max(0.0) as u64) / RECENT_SLOT_S
    }

    /// Count one event at time `now_s`.
    fn note(&self, now_s: f64) {
        let epoch = Self::epoch_of(now_s);
        let slot = &self.slots[(epoch as usize) % RECENT_SLOTS];
        let tagged = epoch << 32;
        let mut current = slot.load(Ordering::Relaxed);
        loop {
            let next = if current >> 32 == epoch {
                // Same epoch: bump the packed count (the low half cannot
                // realistically saturate — 2^32 events in 2 seconds).
                current + 1
            } else {
                // Stale epoch from a previous lap: claim the slot afresh.
                tagged | 1
            };
            match slot.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Events inside the window ending at `now_s`.
    fn window_count(&self, now_s: f64) -> u64 {
        let epoch = Self::epoch_of(now_s);
        let oldest = epoch.saturating_sub(RECENT_SLOTS as u64 - 1);
        self.slots
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .filter(|packed| (oldest..=epoch).contains(&(packed >> 32)))
            .map(|packed| packed & 0xffff_ffff)
            .sum()
    }

    /// Events per second over the window ending at `now_s`. The divisor is
    /// the real span covered: the full ring once the service has been up
    /// that long, the (shorter) uptime before that — a cold service is not
    /// penalized for the empty slots it has not lived through yet.
    fn rate(&self, now_s: f64) -> f64 {
        let span = (RECENT_SLOTS as u64 * RECENT_SLOT_S) as f64;
        let window_s = now_s.clamp(RECENT_SLOT_S as f64, span);
        self.window_count(now_s) as f64 / window_s
    }
}

/// All service counters, owned by the service and shared with every worker
/// and frontend.
pub struct ServeMetrics {
    /// Requests admitted to the queue.
    pub submitted: AtomicU64,
    /// Requests answered (successfully predicted).
    pub completed: AtomicU64,
    /// Requests refused at admission (queue full / shutting down).
    pub rejected: AtomicU64,
    /// Requests that failed inside the worker.
    pub errors: AtomicU64,
    /// Batches that panicked inside a worker's supervised region (each one
    /// answered its requests with `WorkerPanic` errors — no reply lost).
    pub worker_panics: AtomicU64,
    /// Worker-loop respawns: panics that escaped the batch region and were
    /// caught by the thread's supervisor wrapper.
    pub worker_restarts: AtomicU64,
    /// Requests dropped because their deadline expired while they queued
    /// (answered `DeadlineExceeded` before any forward-pass work).
    pub deadline_expired: AtomicU64,
    /// TCP connections dropped by chaos injection (frontend-side).
    pub conn_drops: AtomicU64,
    /// Model hot-swaps performed.
    pub swaps: AtomicU64,
    /// Largest footprint any one worker tape has parked in its buffer pools
    /// (bytes, read after a batch once the tape is reset). A tape's pool is
    /// bounded by the largest batch it has run, so this settles after warm-up;
    /// the process holds at most `workers` such tapes.
    pub tape_pool_bytes: AtomicU64,
    /// Fresh allocations the worker tapes' pools have made (cumulative over
    /// all tapes) — flat once every batch shape has been seen.
    pub tape_pool_misses: AtomicU64,
    /// End-to-end request latency (enqueue → response ready). Percentiles
    /// read back as the upper bound of the bucket holding the requested
    /// rank: an over-estimate by at most one growth factor (50%).
    /// Benchmarks that need exact percentiles record client-side samples.
    pub latency: rn_trace::GeoHistogram,
    /// Dynamic-batch occupancy.
    pub batches: BatchHistogram,
    /// Per-stage request-lifecycle timing (see [`stage`]). Only populated
    /// while `RN_TRACE=1` — recording is a no-op behind a relaxed atomic
    /// load otherwise.
    pub stages: rn_trace::StageRecorder,
    /// Completions inside the last [`RECENT_SLOTS`]·[`RECENT_SLOT_S`]
    /// seconds — the drain-rate source for [`Self::retry_after_ms_hint`].
    /// Fed by [`Self::note_completion`] alongside `completed`.
    recent: RecentRate,
    started: Instant,
}

impl ServeMetrics {
    /// Fresh metrics for a service with the given batch ceiling.
    pub fn new(max_batch: usize) -> Self {
        Self {
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            conn_drops: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            tape_pool_bytes: AtomicU64::new(0),
            tape_pool_misses: AtomicU64::new(0),
            latency: rn_trace::GeoHistogram::new(),
            batches: BatchHistogram::new(max_batch),
            stages: rn_trace::StageRecorder::new(stage::NAMES),
            recent: RecentRate::new(),
            started: Instant::now(),
        }
    }

    /// Count one answered request: the lifetime `completed` total plus the
    /// sliding recent-rate window behind the overload backoff hint. Workers
    /// call this instead of bumping `completed` directly so the two counters
    /// cannot drift.
    pub fn note_completion(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.recent.note(self.uptime_s());
    }

    /// Seconds since the service started.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Backoff hint handed to shed clients in `Overloaded {retry_after_ms}`:
    /// the time a full queue of `queue_depth` requests needs to drain at the
    /// service's **recent** completion rate (a 16-second sliding window, not
    /// the lifetime average — hours of fast uptime must not talk clients
    /// into hammering a service that collapsed seconds ago), floored at 1 ms
    /// (a retry-storm hint of 0 would defeat the point) and capped at 1 s
    /// (the estimate is coarse; holding clients off longer than a second on
    /// its authority would be overconfident). Before any request has ever
    /// completed there is no rate to extrapolate — a flat 25 ms covers
    /// warmup. A service that *has* completed requests but finished none in
    /// the recent window is not draining at all: shed clients get the full
    /// 1 s cap.
    pub fn retry_after_ms_hint(&self, queue_depth: usize) -> u64 {
        self.retry_after_ms_hint_at(queue_depth, self.uptime_s())
    }

    /// [`Self::retry_after_ms_hint`] at an explicit uptime — the pure,
    /// clock-free form the unit tests drive with a synthetic timeline.
    pub fn retry_after_ms_hint_at(&self, queue_depth: usize, now_s: f64) -> u64 {
        if self.completed.load(Ordering::Relaxed) == 0 {
            return 25;
        }
        let rate = self.recent.rate(now_s);
        if rate <= 0.0 {
            // Lifetime completions but a dead recent window: nothing is
            // draining, so claim the whole cap.
            return 1_000;
        }
        let drain_s = queue_depth as f64 / rate;
        (drain_s * 1_000.0).ceil().clamp(1.0, 1_000.0) as u64
    }

    /// Snapshot every counter into a serializable record. Cache statistics,
    /// the model version, and the worker count are injected by the service,
    /// which owns them.
    pub fn snapshot(
        &self,
        caches: CacheStats,
        model_version: u64,
        queue_depth: usize,
        workers: usize,
    ) -> MetricsSnapshot {
        let CacheStats {
            plan_hits: cache_hits,
            plan_misses: cache_misses,
            plan_len: cache_len,
            plan_evictions,
        } = caches;
        let completed = self.completed.load(Ordering::Relaxed);
        let uptime = self.uptime_s();
        let lookups = cache_hits + cache_misses;
        MetricsSnapshot {
            uptime_s: uptime,
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            worker_restarts: self.worker_restarts.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            conn_drops: self.conn_drops.load(Ordering::Relaxed),
            throughput_rps: if uptime > 0.0 {
                completed as f64 / uptime
            } else {
                0.0
            },
            latency_p50_ms: self.latency.percentile_ms(50.0),
            latency_p95_ms: self.latency.percentile_ms(95.0),
            latency_p99_ms: self.latency.percentile_ms(99.0),
            latency_mean_ms: self.latency.mean_ms(),
            latency_max_ms: self.latency.max_ms(),
            batches: self.batches.batches(),
            mean_batch_occupancy: self.batches.mean_occupancy(),
            mean_batch_paths: self.batches.mean_paths(),
            batch_size_counts: self.batches.counts(),
            cache_hits,
            cache_misses,
            cache_hit_rate: if lookups > 0 {
                cache_hits as f64 / lookups as f64
            } else {
                0.0
            },
            cache_len: cache_len as u64,
            plan_evictions,
            compose_hit_rate: 0.0,
            batch_shapes: Vec::new(),
            model_version,
            model_swaps: self.swaps.load(Ordering::Relaxed),
            tape_pool_bytes: self.tape_pool_bytes.load(Ordering::Relaxed),
            tape_pool_misses: self.tape_pool_misses.load(Ordering::Relaxed),
            queue_depth: queue_depth as u64,
            workers: workers as u64,
            stage_latency: if rn_trace::enabled() {
                self.stages
                    .snapshot()
                    .into_iter()
                    .map(StageLine::from)
                    .collect()
            } else {
                Vec::new()
            },
        }
    }
}

/// Plan-cache statistics (plan fingerprint → compiled plan) the service
/// injects into a [`MetricsSnapshot`].
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Plans resident.
    pub plan_len: usize,
    /// Plans pushed out of the full plan cache by a newer scenario.
    pub plan_evictions: u64,
}

/// A point-in-time copy of the service metrics (JSON-serializable; returned
/// by the in-process API and the TCP `Metrics` request).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Seconds since service start.
    pub uptime_s: f64,
    /// Requests admitted.
    pub submitted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Requests refused at admission.
    pub rejected: u64,
    /// Requests failed in workers.
    pub errors: u64,
    /// Batches that panicked inside a worker's supervised region (their
    /// requests were answered with `WorkerPanic` errors, never dropped).
    pub worker_panics: u64,
    /// Worker-loop respawns performed by the per-thread supervisor.
    pub worker_restarts: u64,
    /// Requests answered `DeadlineExceeded` because they expired in queue.
    pub deadline_expired: u64,
    /// TCP connections dropped by chaos injection.
    pub conn_drops: u64,
    /// Completed requests per second of uptime.
    pub throughput_rps: f64,
    /// Median end-to-end latency (ms). Percentiles use the **inclusive
    /// nearest-rank** convention of [`rn_trace::nearest_rank`] — p50 of an
    /// even count is the lower median, p0 would be the minimum and p100 the
    /// maximum, never an interpolated value — and report the upper bound of the
    /// [`rn_trace::GeoHistogram`] bucket holding that rank, on the grid
    /// 250 ns · 1.5^i: an over-estimate by at most one growth factor.
    pub latency_p50_ms: f64,
    /// 95th-percentile latency (ms, bucket upper bound of the inclusive
    /// nearest rank — see [`MetricsSnapshot::latency_p50_ms`]).
    pub latency_p95_ms: f64,
    /// 99th-percentile latency (ms, bucket upper bound of the inclusive
    /// nearest rank — see [`MetricsSnapshot::latency_p50_ms`]).
    pub latency_p99_ms: f64,
    /// Mean latency (ms, exact: the histogram's exact sum over its count,
    /// no bucket error).
    pub latency_mean_ms: f64,
    /// Worst latency (ms, exact).
    pub latency_max_ms: f64,
    /// Dynamic batches flushed.
    pub batches: u64,
    /// Mean requests per batch.
    pub mean_batch_occupancy: f64,
    /// Mean path rows per batch.
    pub mean_batch_paths: f64,
    /// Batches by exact size (`[0]` = singleton batches).
    pub batch_size_counts: Vec<u64>,
    /// Plan-cache hits. Only `Cached` requests look a plan up; `Register`
    /// and `Predict` plan and insert.
    pub cache_hits: u64,
    /// Plan-cache misses (`Cached` requests for a plan not resident).
    pub cache_misses: u64,
    /// Hits over lookups (0 when there were none).
    pub cache_hit_rate: f64,
    /// Plans resident in the cache.
    pub cache_len: u64,
    /// Plans the full cache evicted to admit a new scenario — each one a
    /// `build_plan` some later request for the evicted scenario pays again.
    pub plan_evictions: u64,
    /// Always `0.0`: the service keeps no compositions between batches. Kept
    /// only because the benchmark package reads it
    /// (`serve.compose_cache_hit_ratio`); goes with that metric.
    pub compose_hit_rate: f64,
    /// Always empty: the service tracks no batch shapes. Kept only because
    /// the benchmark package reads its length (`serve.batch_shapes`); goes
    /// with that metric.
    pub batch_shapes: Vec<u64>,
    /// Version of the model serving right now (bumps on hot-swap).
    pub model_version: u64,
    /// Hot-swaps performed.
    pub model_swaps: u64,
    /// Largest footprint (bytes) any one worker tape has parked in its
    /// buffer pools — the tape-memory high-water gauge. Settles once every
    /// batch shape has been served; the process holds at most `workers`
    /// tapes of this size.
    pub tape_pool_bytes: u64,
    /// Fresh allocations made by the worker tapes' buffer pools, cumulative.
    /// Flat in steady state; growth means new batch shapes are arriving.
    pub tape_pool_misses: u64,
    /// Requests waiting in the queue at snapshot time.
    pub queue_depth: u64,
    /// Worker threads the service was configured with.
    pub workers: u64,
    /// Per-stage request-lifecycle latency breakdown (see [`stage`] for
    /// the decomposition): one span per request per stage, batch-level work
    /// attributed to each request that rode the batch. Empty unless tracing
    /// is on (`RN_TRACE=1`).
    pub stage_latency: Vec<StageLine>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_trace::GeoHistogram;
    use std::time::Duration;

    #[test]
    fn latency_percentiles_are_ordered_and_bracket_samples() {
        let h = GeoHistogram::new();
        for ms in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 100] {
            h.record(Duration::from_millis(ms));
        }
        let p50 = h.percentile_ms(50.0);
        let p95 = h.percentile_ms(95.0);
        let p99 = h.percentile_ms(99.0);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(
            (5.0..=9.0).contains(&p50),
            "median of 1..9,100 ms ≈ 5ms: {p50}"
        );
        assert!(p99 >= 100.0, "tail must reach the outlier: {p99}");
        assert!((h.mean_ms() - 14.5).abs() < 0.5, "{}", h.mean_ms());
        assert_eq!(h.count(), 10);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = GeoHistogram::new();
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile_ms(p), 0.0, "p{p} of nothing must be 0");
        }
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.max_ms(), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let h = GeoHistogram::new();
        h.record(Duration::from_millis(3));
        let p50 = h.percentile_ms(50.0);
        for p in [0.0, 1.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile_ms(p), p50, "one sample answers every p");
        }
        // Bucket upper bound: an over-estimate of at most one growth step.
        assert!((3.0..=4.6).contains(&p50), "{p50}");
    }

    #[test]
    fn nearest_rank_boundary_convention_through_the_consumers() {
        use crate::loadgen::LatencySummary;
        // Two exact client-side samples: the shared helper's lower-median
        // and maximum conventions must surface unchanged.
        let mut two = [Duration::from_millis(2), Duration::from_millis(10)];
        let s = LatencySummary::of(&mut two);
        assert_eq!(s.p50_ms, 2.0, "p50 of two samples is the LOWER median");
        assert_eq!(s.max_ms, 10.0);
        // The histogram consumer: p100's bucket is the maximum's bucket,
        // p0's the minimum's (upper bounds, so compare bucket ordering).
        let h = GeoHistogram::new();
        h.record(Duration::from_millis(2));
        h.record(Duration::from_millis(10));
        assert!(h.percentile_ms(0.0) <= h.percentile_ms(100.0));
        assert_eq!(h.percentile_ms(50.0), h.percentile_ms(0.0), "lower median");
        assert!(h.percentile_ms(100.0) >= 10.0);
    }

    #[test]
    fn loadgen_summary_uses_the_shared_helper_for_degenerates() {
        use crate::loadgen::LatencySummary;
        let empty = LatencySummary::of(&mut []);
        assert_eq!(
            (empty.p50_ms, empty.p99_ms, empty.max_ms),
            (0.0, 0.0, 0.0),
            "no samples: all zeros"
        );
        let mut one = [Duration::from_millis(7)];
        let s = LatencySummary::of(&mut one);
        assert_eq!(s.p50_ms, 7.0);
        assert_eq!(s.p90_ms, 7.0);
        assert_eq!(s.p95_ms, 7.0);
        assert_eq!(s.p99_ms, 7.0);
        assert_eq!(s.mean_ms, 7.0);
        assert_eq!(s.max_ms, 7.0);
    }

    #[test]
    fn batch_histogram_tracks_occupancy() {
        let b = BatchHistogram::new(4);
        b.record(1, 20);
        b.record(4, 80);
        b.record(3, 60);
        assert_eq!(b.batches(), 3);
        assert!((b.mean_occupancy() - 8.0 / 3.0).abs() < 1e-9);
        assert!((b.mean_paths() - 160.0 / 3.0).abs() < 1e-9);
        assert_eq!(b.counts(), vec![1, 0, 1, 1]);
        // Oversized batches clamp into the top bucket instead of panicking.
        b.record(9, 10);
        assert_eq!(b.counts()[3], 2);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let m = ServeMetrics::new(8);
        m.submitted.fetch_add(3, Ordering::Relaxed);
        m.completed.fetch_add(3, Ordering::Relaxed);
        m.latency.record(Duration::from_micros(250));
        m.batches.record(3, 42);
        let snap = m.snapshot(
            CacheStats {
                plan_hits: 5,
                plan_misses: 1,
                plan_len: 2,
                plan_evictions: 4,
            },
            7,
            0,
            2,
        );
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.model_version, 7);
        assert!((snap.cache_hit_rate - 5.0 / 6.0).abs() < 1e-12);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.completed, snap.completed);
        assert_eq!(back.batch_size_counts, snap.batch_size_counts);
        assert_eq!(back.plan_evictions, 4);
    }

    #[test]
    fn retry_after_hint_is_bounded_and_rate_based() {
        let m = ServeMetrics::new(4);
        // No completions yet: flat warmup hint.
        assert_eq!(m.retry_after_ms_hint_at(100, 0.5), 25);

        // 100 completions noted at t=100s: the window spans the full ring
        // (16 s), so the recent rate is 100/16 = 6.25/s. Two queued requests
        // drain in 320 ms.
        for _ in 0..100 {
            m.completed.fetch_add(1, Ordering::Relaxed);
            m.recent.note(100.0);
        }
        assert_eq!(m.retry_after_ms_hint_at(2, 100.0), 320);
        // A single queued request stays above the 1 ms floor, and a huge
        // queue caps at one second.
        assert!(m.retry_after_ms_hint_at(1, 100.0) >= 1);
        assert_eq!(m.retry_after_ms_hint_at(usize::MAX / 2, 100.0), 1000);

        // Long after the burst the ring has lapped: lifetime completions
        // exist but the recent window is empty, so the hint claims the full
        // cap instead of extrapolating a stale lifetime average.
        let later = 100.0 + (RECENT_SLOTS as u64 * RECENT_SLOT_S) as f64 + 1.0;
        assert_eq!(m.retry_after_ms_hint_at(5, later), 1000);

        // Fresh completions revive the rate immediately: 40 in the window is
        // 2.5/s, so one queued request drains in 400 ms.
        for _ in 0..40 {
            m.recent.note(later);
        }
        assert_eq!(m.retry_after_ms_hint_at(1, later), 400);
    }

    #[test]
    fn recent_rate_window_tracks_only_fresh_slots() {
        let r = RecentRate::new();
        assert_eq!(r.window_count(10.0), 0);
        // Three completions spread over two adjacent slots.
        r.note(10.0);
        r.note(10.5);
        r.note(12.1);
        assert_eq!(r.window_count(12.1), 3);
        // Still inside the 16 s window from the other end.
        assert_eq!(r.window_count(10.0 + 15.9), 3);
        // Outside the window: slots are stale and excluded even though the
        // ring cells still physically hold the old packed counts.
        assert_eq!(r.window_count(10.0 + 40.0), 0);
        // Writing into a lapped slot resets its count instead of
        // accumulating onto the stale value.
        r.note(10.0 + 40.0);
        assert_eq!(r.window_count(10.0 + 40.0), 1);
        // Rate divides by the full ring span once uptime exceeds it.
        let span = (RECENT_SLOTS as u64 * RECENT_SLOT_S) as f64;
        let rate = r.rate(10.0 + 40.0);
        assert!((rate - 1.0 / span).abs() < 1e-12, "{rate}");
        // A cold service divides by its (shorter) uptime instead, floored at
        // one slot so a t=0 note cannot divide by zero.
        let cold = RecentRate::new();
        cold.note(1.0);
        assert!((cold.rate(1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_carries_fault_counters() {
        let m = ServeMetrics::new(4);
        m.worker_panics.fetch_add(2, Ordering::Relaxed);
        m.worker_restarts.fetch_add(1, Ordering::Relaxed);
        m.deadline_expired.fetch_add(3, Ordering::Relaxed);
        m.conn_drops.fetch_add(4, Ordering::Relaxed);
        let snap = m.snapshot(CacheStats::default(), 1, 0, 1);
        assert_eq!(
            (
                snap.worker_panics,
                snap.worker_restarts,
                snap.deadline_expired,
                snap.conn_drops
            ),
            (2, 1, 3, 4)
        );
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.worker_panics, 2);
        assert_eq!(back.conn_drops, 4);
    }

    #[test]
    fn snapshot_carries_workers_and_gated_stage_latency() {
        let m = ServeMetrics::new(4);
        rn_trace::set_enabled(true);
        m.stages
            .record(stage::QUEUE_WAIT, Duration::from_micros(80));
        m.stages.record(stage::FORWARD, Duration::from_micros(900));
        let snap = m.snapshot(CacheStats::default(), 1, 0, 3);
        rn_trace::set_enabled(false);
        assert_eq!(snap.workers, 3);
        assert_eq!(snap.stage_latency.len(), stage::NAMES.len());
        assert_eq!(snap.stage_latency[stage::QUEUE_WAIT].name, "queue_wait");
        assert_eq!(snap.stage_latency[stage::QUEUE_WAIT].count, 1);
        assert_eq!(snap.stage_latency[stage::FORWARD].count, 1);
        assert!((snap.stage_latency[stage::FORWARD].total_ms - 0.9).abs() < 1e-9);
        // Round-trips through the JSONL wire format.
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.workers, 3);
        assert_eq!(back.stage_latency.len(), stage::NAMES.len());
        assert_eq!(back.stage_latency[stage::FORWARD].count, 1);
        // With tracing off the breakdown is suppressed entirely.
        let off = m.snapshot(CacheStats::default(), 1, 0, 3);
        assert!(off.stage_latency.is_empty());
    }

    #[test]
    fn empty_cache_stats_read_zero_rates() {
        let m = ServeMetrics::new(4);
        let snap = m.snapshot(CacheStats::default(), 1, 0, 1);
        assert_eq!(snap.cache_hit_rate, 0.0);
        assert_eq!(snap.compose_hit_rate, 0.0);
        assert!(snap.batch_shapes.is_empty());
    }
}
