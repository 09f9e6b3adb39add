//! The concurrent inference service: admission queue, dynamic batcher,
//! worker pool — with worker supervision, per-request deadlines and
//! measured (not assumed) overload behavior.
//!
//! ## Request path
//!
//! 1. A caller submits a compiled plan (usually an `Arc` out of the shared
//!    [`PlanCache`]) through a [`ServeHandle`]; admission control rejects
//!    when the queue is at capacity with a structured
//!    [`ServeError::Overloaded`] carrying a drain-time `retry_after_ms`
//!    hint. A request may carry a **deadline**; one that expires while
//!    queued is answered [`ServeError::DeadlineExceeded`] *before* any
//!    forward-pass work is spent on it.
//! 2. Workers assemble **dynamic batches**: a batch flushes when it reaches
//!    [`ServeConfig::max_batch`] requests (or would exceed
//!    `MAX_BATCH_PATHS` (512) path rows — megabatches that outgrow the CPU
//!    cache cost more than they save), when the oldest queued request
//!    has waited [`ServeConfig::flush_deadline`], or at shutdown — whichever
//!    comes first. A zero deadline means "flush as soon as a worker is
//!    free", which batches exactly the backlog that accumulated while
//!    workers were busy (occupancy rises with load, idle latency stays
//!    minimal).
//! 3. Each worker owns a pooled tape from a shared [`TapePool`] for the
//!    duration of a batch and runs one fused block-diagonal forward
//!    ([`PathPredictor::predict_megabatch_with`] over the batch composed
//!    fresh; a lone request runs [`PathPredictor::predict_with`]). The
//!    tape's buffer pool is bounded by the largest batch it has run, so a
//!    worker's footprint is flat once every batch shape has been seen
//!    ([`MetricsSnapshot::tape_pool_bytes`] / `tape_pool_misses`). Results
//!    are split per request and delivered through per-request channels.
//!
//! ## Supervision
//!
//! Partial failure is the normal case for a long-running service, so a
//! worker panic is an *event*, never an abort:
//!
//! - batch execution runs under `catch_unwind`; a panicking batch (a model
//!   bug, a poisoned kernel, injected chaos) is converted into per-request
//!   [`ServeError::WorkerPanic`] replies and counted in
//!   [`ServeMetrics::worker_panics`] — no reply is ever lost;
//! - a panic that escapes the batch region kills only one worker-loop
//!   iteration: the supervisor wrapper around every worker thread catches
//!   it, bumps [`ServeMetrics::worker_restarts`] and re-enters the loop, so
//!   the pool heals itself;
//! - queue/registry locks are acquired with poison *recovery*
//!   (`PoisonError::into_inner`), never poison propagation — a panic while
//!   holding a lock degrades one request instead of cascading into every
//!   thread that touches the lock afterwards.
//!
//! The [`crate::fault`] module injects exactly these failures on demand
//! ([`ServeConfig::chaos`]); `tests/serve_faults.rs` proves the service
//! keeps answering — bitwise identically for surviving requests — through
//! panics, kills, overload and disconnects.
//!
//! Predictions are **bitwise identical** to calling
//! [`PathPredictor::predict_batch`] directly: the fused kernels accumulate
//! every output element in the same order regardless of where a sample's
//! rows land inside a megabatch, so batch composition cannot perturb
//! results. The stress tests pin this down.

use crate::fault::{ChaosPlan, FaultInjector, CHAOS_WORKER_KILL};
use crate::metrics::{stage, CacheStats, MetricsSnapshot, ServeMetrics};
use crate::registry::ModelRegistry;
use crate::sync::{lock_recover, wait_recover, wait_timeout_recover};
use rn_autograd::TapePool;
use rn_dataset::Sample;
use routenet::compose::ComposedMegabatch;
use routenet::model::PathPredictor;
use routenet::plan_cache::PlanCache;
use routenet::SamplePlan;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Path-row budget per dynamic batch: packing stops before exceeding it
/// (the same cache-residency reasoning as evaluation's chunking). A lone
/// request larger than the budget still rides a batch of its own.
const MAX_BATCH_PATHS: usize = 512;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each running fused batches on its own pooled tape.
    pub workers: usize,
    /// Requests per dynamic batch, at most (a batch also stops short of 512
    /// path rows).
    pub max_batch: usize,
    /// How long the oldest queued request may wait for co-batchers before
    /// the batch flushes anyway. `Duration::ZERO` flushes whenever a worker
    /// is free.
    pub flush_deadline: Duration,
    /// Admission-queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Compiled plans kept in the shared [`PlanCache`].
    pub plan_cache_capacity: usize,
    /// Default per-request deadline applied to submissions that do not
    /// carry their own (`None` = requests wait as long as they must). A
    /// request whose deadline passes while it queues is answered
    /// [`ServeError::DeadlineExceeded`] without spending forward-pass work.
    pub default_deadline: Option<Duration>,
    /// Chaos-injection plan (see [`crate::fault`]); empty in production.
    pub chaos: ChaosPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            max_batch: 8,
            flush_deadline: Duration::ZERO,
            queue_capacity: 1024,
            plan_cache_capacity: 256,
            default_deadline: None,
            chaos: ChaosPlan::none(),
        }
    }
}

/// Why a request was not answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Admission queue at capacity — shed load. `retry_after_ms` is the
    /// server's estimate of when the queue will have drained enough to
    /// accept again; clients should back off at least that long (plus
    /// jitter) before retrying.
    Overloaded {
        /// Suggested client backoff before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline passed while it waited in the queue; no
    /// forward-pass work was spent on it.
    DeadlineExceeded,
    /// The batch this request rode panicked inside a worker. The worker
    /// survived (or was respawned) and the service keeps serving; the
    /// request itself was not computed and may be retried.
    WorkerPanic,
    /// The service is shutting (or has shut) down.
    Shutdown,
    /// A referenced plan fingerprint is not resident in the cache.
    UnknownPlan(u64),
    /// The submitted scenario is not self-consistent (an id out of range,
    /// labels misaligned with the routing, a non-finite rate, a capacity
    /// that is not positive, a scheduling policy that does not fit the
    /// classes, …) and was not planned, carrying what
    /// [`Sample::check_inputs`] found; or it was, and the model predicts a
    /// delay for it that is not finite.
    BadRequest(String),
    /// The submitted plan's state width does not match the model serving
    /// right now (`expected`, `found`) — it was compiled for a different
    /// model generation. Rebuild the plan (e.g. re-`Register` the scenario).
    IncompatiblePlan {
        /// State width of the serving model.
        expected: usize,
        /// State width the plan was compiled with.
        found: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overloaded { retry_after_ms } => {
                write!(f, "admission queue full; retry after {retry_after_ms} ms")
            }
            Self::DeadlineExceeded => write!(f, "request deadline exceeded while queued"),
            Self::WorkerPanic => write!(
                f,
                "worker panicked while executing this request's batch; \
                 the service recovered and the request may be retried"
            ),
            Self::Shutdown => write!(f, "service is shut down"),
            Self::UnknownPlan(fp) => write!(f, "unknown plan fingerprint {fp:#018x}"),
            Self::BadRequest(why) => write!(f, "bad request: {why}"),
            Self::IncompatiblePlan { expected, found } => write!(
                f,
                "plan state width {found} does not match the serving model \
                 ({expected}); rebuild the plan for the current model"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// One queued prediction request.
struct Job {
    plan: Arc<SamplePlan>,
    respond: mpsc::SyncSender<Result<Vec<f64>, ServeError>>,
    enqueued: Instant,
    /// Absolute point after which the request is not worth answering.
    deadline: Option<Instant>,
}

/// Queue state under the batcher mutex.
struct QueueState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// State shared between handles and workers.
struct Inner<M> {
    state: Mutex<QueueState>,
    ready: Condvar,
    config: ServeConfig,
    registry: ModelRegistry<M>,
    metrics: ServeMetrics,
    plans: PlanCache,
    tapes: TapePool,
    /// Chaos injector ([`ServeConfig::chaos`]); `None` in production, so
    /// the no-chaos hot path pays one `Option` check per injection point.
    chaos: Option<Arc<FaultInjector>>,
}

/// Cloneable client handle to a running [`Service`]. Dropping handles does
/// not stop the service; [`Service::shutdown`] does.
pub struct ServeHandle<M> {
    inner: Arc<Inner<M>>,
}

impl<M> Clone for ServeHandle<M> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// A running inference service: owns the worker threads.
pub struct Service<M> {
    inner: Arc<Inner<M>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<M: PathPredictor + 'static> Service<M> {
    /// Start `config.workers` worker threads serving `model`. Each thread
    /// runs the worker loop under a supervisor: a panic that escapes one
    /// loop iteration is caught, counted in
    /// [`MetricsSnapshot::worker_restarts`] and the loop re-entered — the
    /// pool heals itself instead of shrinking until the service starves.
    pub fn start(model: M, config: ServeConfig) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
            metrics: ServeMetrics::new(config.max_batch),
            registry: ModelRegistry::new(model),
            plans: PlanCache::new(config.plan_cache_capacity),
            tapes: TapePool::new(),
            chaos: FaultInjector::from_plan(&config.chaos),
            config,
        });
        let workers = (0..inner.config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("rn-serve-worker-{i}"))
                    .spawn(move || supervised_worker(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ServeHandle<M> {
        ServeHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Stop accepting requests, fail whatever is still queued, and join the
    /// workers. A worker found dead at join time (it panicked at the exact
    /// moment of shutdown) is tolerated, not propagated.
    pub fn shutdown(mut self) {
        {
            let mut st = lock_recover(&self.inner.state);
            st.shutdown = true;
            for job in st.queue.drain(..) {
                self.inner.metrics.errors.fetch_add(1, Ordering::Relaxed);
                job.respond.try_send(Err(ServeError::Shutdown)).ok();
            }
        }
        self.inner.ready.notify_all();
        for w in self.workers.drain(..) {
            w.join().ok();
        }
    }
}

impl<M: PathPredictor> ServeHandle<M> {
    /// Submit a compiled plan and block until its predictions arrive.
    /// Returns one denormalized delay per path, bitwise identical to
    /// `model.predict_batch(&[plan])`. The config's
    /// [`ServeConfig::default_deadline`] applies, if any.
    pub fn predict_plan(&self, plan: Arc<SamplePlan>) -> Result<Vec<f64>, ServeError> {
        self.predict_plan_with_deadline(plan, None)
    }

    /// [`ServeHandle::predict_plan`] with an explicit deadline budget
    /// measured from submission (`None` falls back to the config default).
    /// If the budget expires while the request queues, the batcher answers
    /// [`ServeError::DeadlineExceeded`] without spending forward-pass work.
    pub fn predict_plan_with_deadline(
        &self,
        plan: Arc<SamplePlan>,
        deadline: Option<Duration>,
    ) -> Result<Vec<f64>, ServeError> {
        let rx = self.submit(plan, deadline)?;
        rx.recv().map_err(|_| ServeError::Shutdown)?
    }

    /// Plan a raw sample and insert the plan into the shared plan cache
    /// (see [`ServeHandle::plan_sample`]), then predict. Returns `(delays,
    /// fingerprint)` so callers can re-query the scenario by fingerprint
    /// alone.
    pub fn predict_sample(&self, sample: &Sample) -> Result<(Vec<f64>, u64), ServeError> {
        self.predict_sample_with_deadline(sample, None)
    }

    /// [`ServeHandle::predict_sample`] with an explicit deadline budget
    /// (`None` falls back to the config default).
    pub fn predict_sample_with_deadline(
        &self,
        sample: &Sample,
        deadline: Option<Duration>,
    ) -> Result<(Vec<f64>, u64), ServeError> {
        let (plan, fp) = self.plan_sample(sample)?;
        Ok((self.predict_plan_with_deadline(plan, deadline)?, fp))
    }

    /// Predict a scenario already resident in the plan cache.
    pub fn predict_cached(&self, fingerprint: u64) -> Result<Vec<f64>, ServeError> {
        self.predict_cached_with_deadline(fingerprint, None)
    }

    /// [`ServeHandle::predict_cached`] with an explicit deadline budget
    /// (`None` falls back to the config default).
    pub fn predict_cached_with_deadline(
        &self,
        fingerprint: u64,
        deadline: Option<Duration>,
    ) -> Result<Vec<f64>, ServeError> {
        let plan = self
            .inner
            .plans
            .get(fingerprint)
            .ok_or(ServeError::UnknownPlan(fingerprint))?;
        self.predict_plan_with_deadline(plan, deadline)
    }

    /// Compile the plan for `sample` under the **current** model's
    /// preprocessing, key it by [`SamplePlan::fingerprint`] and insert it
    /// into the plan cache for later [`ServeHandle::predict_cached`] calls.
    /// No lookup: the key is a hash of the built plan. Features compiled
    /// under other preprocessing hash differently (and hot-swaps flush the
    /// cache besides), so a plan can never be served under a model whose
    /// features it was not compiled for.
    ///
    /// This is where a scenario from the wire enters: planning indexes it
    /// with its own ids, so it is checked first and a malformed one is a
    /// [`ServeError::BadRequest`], not a panic.
    pub fn plan_sample(&self, sample: &Sample) -> Result<(Arc<SamplePlan>, u64), ServeError> {
        sample.check_inputs().map_err(ServeError::BadRequest)?;
        let plan = self.inner.registry.snapshot().0.plan(sample);
        let key = plan.fingerprint();
        Ok((self.inner.plans.insert(key, plan), key))
    }

    /// The fingerprint [`ServeHandle::plan_sample`] would key `sample` by
    /// under the current model: plans it and hashes the plan, caching
    /// nothing.
    pub fn fingerprint_sample(&self, sample: &Sample) -> u64 {
        self.inner.registry.snapshot().0.plan(sample).fingerprint()
    }

    /// Atomically hot-swap the served model; in-flight batches finish on the
    /// version they started with. Returns the new version.
    ///
    /// The plan cache is flushed: resident plans were compiled under the old
    /// model's preprocessing, and `Cached`-by-fingerprint requests would
    /// otherwise keep serving them under the new weights. Clients holding
    /// fingerprints get `UnknownPlan` and re-register (re-keying under the
    /// new preprocessing); in-flight `Arc`s stay valid for their batch.
    pub fn swap_model(&self, model: M) -> u64 {
        let version = self.inner.registry.swap(model);
        self.inner.plans.clear();
        self.inner.metrics.swaps.fetch_add(1, Ordering::Relaxed);
        version
    }

    /// Currently served model version.
    pub fn model_version(&self) -> u64 {
        self.inner.registry.version()
    }

    /// Point-in-time service metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        let queue_depth = lock_recover(&self.inner.state).queue.len();
        self.inner.metrics.snapshot(
            CacheStats {
                plan_hits: self.inner.plans.hits(),
                plan_misses: self.inner.plans.misses(),
                plan_len: self.inner.plans.len(),
                plan_evictions: self.inner.plans.evictions(),
            },
            self.inner.registry.version(),
            queue_depth,
            self.inner.config.workers.max(1),
        )
    }

    /// The service's chaos injector, if one is configured (the TCP frontend
    /// uses it for connection-drop injection).
    pub(crate) fn chaos(&self) -> Option<&Arc<FaultInjector>> {
        self.inner.chaos.as_ref()
    }

    /// The raw shared counters (the TCP frontend counts injected
    /// connection drops here).
    pub(crate) fn raw_metrics(&self) -> &ServeMetrics {
        &self.inner.metrics
    }

    /// Enqueue without waiting for the result; the receiver yields it.
    fn submit(
        &self,
        plan: Arc<SamplePlan>,
        deadline: Option<Duration>,
    ) -> Result<mpsc::Receiver<Result<Vec<f64>, ServeError>>, ServeError> {
        let (tx, rx) = mpsc::sync_channel(1);
        {
            let mut st = lock_recover(&self.inner.state);
            if st.shutdown {
                return Err(ServeError::Shutdown);
            }
            if st.queue.len() >= self.inner.config.queue_capacity {
                self.inner.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    retry_after_ms: self.inner.metrics.retry_after_ms_hint(st.queue.len()),
                });
            }
            let enqueued = Instant::now();
            let budget = deadline.or(self.inner.config.default_deadline);
            st.queue.push_back(Job {
                plan,
                respond: tx,
                enqueued,
                deadline: budget.map(|d| enqueued + d),
            });
        }
        self.inner.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.ready.notify_one();
        Ok(rx)
    }
}

impl<M: PathPredictor> ServeHandle<M> {
    /// Swap in a model loaded from disk (atomic save makes the read safe
    /// against concurrent writers). Flushes the plan cache like
    /// [`ServeHandle::swap_model`]. Returns the new version.
    pub fn load_and_swap(&self, path: &std::path::Path) -> Result<u64, String>
    where
        M: serde::de::DeserializeOwned,
    {
        let version = self.inner.registry.load_and_swap(path)?;
        self.inner.plans.clear();
        self.inner.metrics.swaps.fetch_add(1, Ordering::Relaxed);
        Ok(version)
    }
}

/// Pop the next dynamic batch off the queue. Caller holds the lock and has
/// verified the queue is non-empty, so the batch is never empty.
fn drain_batch(st: &mut QueueState, config: &ServeConfig) -> Vec<Job> {
    let mut batch = Vec::with_capacity(config.max_batch.min(st.queue.len()));
    let mut paths = 0usize;
    while let Some(front) = st.queue.front() {
        let next_paths = front.plan.n_paths;
        // Every batch takes at least one request, whatever its size and
        // whatever the limits (a `max_batch` of 0 included).
        if !batch.is_empty()
            && (batch.len() >= config.max_batch || paths + next_paths > MAX_BATCH_PATHS)
        {
            break;
        }
        paths += next_paths;
        batch.push(st.queue.pop_front().expect("front checked"));
    }
    batch
}

/// The supervisor wrapper every worker thread runs: re-enter the worker
/// loop after a panic escapes it (a chaos kill, a bug outside the
/// batch-level `catch_unwind`), counting the restart. Only a clean
/// shutdown-driven return ends the thread.
fn supervised_worker<M: PathPredictor>(inner: &Inner<M>) {
    loop {
        match std::panic::catch_unwind(AssertUnwindSafe(|| worker_loop(inner))) {
            Ok(()) => return, // clean shutdown
            Err(_) => {
                inner
                    .metrics
                    .worker_restarts
                    .fetch_add(1, Ordering::Relaxed);
                if lock_recover(&inner.state).shutdown {
                    return;
                }
                // Respawn: re-enter the loop on this thread. Any lock the
                // panicking iteration held is poisoned, and every
                // acquisition in this crate recovers from poison, so the
                // reborn worker picks the queue back up where it stood.
            }
        }
    }
}

/// Worker: wait for a flush condition, drain a batch, run one fused forward
/// on a pooled tape, deliver per-request results. Batch execution runs
/// under `catch_unwind`: a panic answers every request in the batch with
/// [`ServeError::WorkerPanic`] instead of killing the worker.
fn worker_loop<M: PathPredictor>(inner: &Inner<M>) {
    loop {
        // Chaos worker-kill injection point: fires *between* batches, while
        // no job and no lock is held, so a kill can never lose a reply —
        // recovery is the supervisor's respawn alone.
        if let Some(chaos) = &inner.chaos {
            if chaos.should_kill_worker() {
                panic!("{CHAOS_WORKER_KILL}");
            }
        }
        let batch = {
            let mut st = lock_recover(&inner.state);
            loop {
                if st.queue.is_empty() {
                    if st.shutdown {
                        return;
                    }
                    st = wait_recover(&inner.ready, st);
                    continue;
                }
                let full = st.queue.len() >= inner.config.max_batch;
                let deadline = st.queue[0].enqueued + inner.config.flush_deadline;
                let now = Instant::now();
                if full || st.shutdown || now >= deadline {
                    break drain_batch(&mut st, &inner.config);
                }
                let (next, _timeout) = wait_timeout_recover(&inner.ready, st, deadline - now);
                st = next;
            }
        };

        // Requests whose deadline passed while they queued are answered
        // (and counted) *before* any forward-pass work is spent on them.
        let now = Instant::now();
        let (batch, expired): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|job| job.deadline.is_none_or(|d| now < d));
        for job in expired {
            inner
                .metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            job.respond.try_send(Err(ServeError::DeadlineExceeded)).ok();
        }
        if batch.is_empty() {
            continue;
        }

        // One model snapshot per flush: hot-swaps never tear a batch.
        let (model, _version) = inner.registry.snapshot();

        // A plan compiled for a different model generation (its state width
        // differs — e.g. it straddled a hot-swap to a resized model) can
        // neither share the block-diagonal forward nor run under this
        // model's weights. Answer those with a clean error instead of
        // letting shape asserts kill the worker.
        let expected = model.config().state_dim;
        let (group, stale): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|job| job.plan.path_init.cols() == expected);
        for job in stale {
            inner.metrics.errors.fetch_add(1, Ordering::Relaxed);
            job.respond
                .try_send(Err(ServeError::IncompatiblePlan {
                    expected,
                    found: job.plan.path_init.cols(),
                }))
                .ok();
        }
        if group.is_empty() {
            continue;
        }

        // The batch region: everything that can panic on a model/kernel bug
        // (or injected chaos) runs under `catch_unwind`, borrowing `group`
        // so the jobs stay answerable afterwards. No lock is held here, and
        // the pooled tape is acquired and released inside the region — a
        // panic mid-batch drops that tape during unwind (the pool simply
        // re-allocates later) instead of recycling torn scratch state.
        let total_paths: usize = group.iter().map(|j| j.plan.n_paths).sum();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(chaos) = &inner.chaos {
                chaos.before_batch();
            }
            let refs: Vec<&SamplePlan> = group.iter().map(|j| j.plan.as_ref()).collect();
            let mut tape = inner.tapes.acquire();
            let misses_before = tape.pool_misses();
            // Stage-boundary instants (`compose starts` / `forward starts` /
            // `forward done`) ride out of the region so completed requests
            // can be attributed per stage — three clock reads per batch,
            // recorded only while `RN_TRACE=1`.
            let t_compose = Instant::now();
            let (results, t_forward, t_forward_end) = if refs.len() > 1 {
                // A multi-request batch is composed into one block-diagonal
                // megabatch, bitwise identical to `predict_batch_with`.
                let composed = ComposedMegabatch::compose(&refs)
                    .expect("worker batch is non-empty and width-checked");
                let t_forward = Instant::now();
                let out = model.predict_megabatch_with(&mut tape, composed.megabatch());
                (out, t_forward, Instant::now())
            } else {
                // A lone request needs no composition: it runs as the
                // single plan it is, exactly as `predict_batch_with`
                // special-cases it.
                let t_forward = Instant::now();
                let out = vec![model.predict_with(&mut tape, refs[0])];
                (out, t_forward, Instant::now())
            };
            let m = &inner.metrics;
            m.tape_pool_misses
                .fetch_add(tape.pool_misses() - misses_before, Ordering::Relaxed);
            // `release` resets the tape, so what it reports is the tape's
            // whole footprint, batch buffers included.
            let parked_bytes = inner.tapes.release(tape);
            m.tape_pool_bytes
                .fetch_max(parked_bytes as u64, Ordering::Relaxed);
            (results, t_compose, t_forward, t_forward_end)
        }));

        match outcome {
            Ok((results, t_compose, t_forward, t_forward_end)) => {
                inner.metrics.batches.record(group.len(), total_paths);
                let done = Instant::now();
                let stages = &inner.metrics.stages;
                for (job, delays) in group.into_iter().zip(results) {
                    // A scenario can pass `check_inputs` and still lie past
                    // what the model's scales represent (a rate of 1e300
                    // bps overflows its f32 feature): the reply would carry
                    // a non-finite delay, which the wire writes as `null`.
                    if let Some((path, delay)) =
                        delays.iter().enumerate().find(|(_, d)| !d.is_finite())
                    {
                        inner.metrics.errors.fetch_add(1, Ordering::Relaxed);
                        let why = format!(
                            "the model predicts a delay of {delay} s for path {path}: \
                             the scenario is outside the range its features represent"
                        );
                        job.respond.try_send(Err(ServeError::BadRequest(why))).ok();
                        continue;
                    }
                    inner.metrics.latency.record(done - job.enqueued);
                    // The five stages decompose `done - enqueued` exactly:
                    // adjacent stages share their boundary instant (`now` is
                    // the drain instant captured for deadline partitioning),
                    // so the per-request stage sum telescopes to the same
                    // duration the end-to-end histogram records. No-ops
                    // while tracing is off.
                    stages.record(stage::QUEUE_WAIT, now - job.enqueued);
                    stages.record(stage::BATCH_ASSEMBLY, t_compose - now);
                    stages.record(stage::COMPOSE, t_forward - t_compose);
                    stages.record(stage::FORWARD, t_forward_end - t_forward);
                    stages.record(stage::REPLY, done - t_forward_end);
                    inner.metrics.note_completion();
                    // A caller that gave up (dropped the receiver) is not an
                    // error.
                    job.respond.try_send(Ok(delays)).ok();
                }
            }
            Err(_) => {
                // The batch died, the worker did not: every rider gets a
                // clean WorkerPanic reply and the loop keeps serving.
                inner.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                inner
                    .metrics
                    .errors
                    .fetch_add(group.len() as u64, Ordering::Relaxed);
                for job in group {
                    job.respond.try_send(Err(ServeError::WorkerPanic)).ok();
                }
            }
        }
    }
}
