//! The original and extended RouteNet models.

use crate::config::{ModelConfig, NodeUpdate};
use crate::entities::{
    build_megabatch, build_plan, CompiledSteps, EntityKind, MegabatchPlan, PlanConfig, PlanShards,
    SamplePlan, StepPlan, TargetKind,
};
use crate::features::FeatureScales;
use rn_autograd::{Graph, IndexInput, ShardSplit, Var};
use rn_dataset::{Dataset, Normalizer, Sample};
use rn_nn::{Activation, BoundGruCell, BoundMlp, GruCell, Layer, Mlp};
use rn_tensor::{Matrix, Prng};
use serde::{Deserialize, Serialize};

thread_local! {
    /// The tape behind the tape-less `predict*` forms, one per thread.
    static THREAD_TAPE: std::cell::RefCell<Graph> = std::cell::RefCell::new(Graph::new());
}

/// Run `f` on this thread's inference tape, so a loop of tape-less `predict*`
/// calls runs on a warm buffer pool exactly as a `predict_with` loop does. A
/// nested call (a `forward` that itself predicts) finds the tape busy and
/// gets a fresh one.
fn with_thread_tape<R>(f: impl FnOnce(&mut Graph) -> R) -> R {
    THREAD_TAPE.with(|tape| match tape.try_borrow_mut() {
        Ok(mut g) => f(&mut g),
        Err(_) => f(&mut Graph::new()),
    })
}

/// Common interface of both RouteNet variants: bindable layers plus a
/// plan-driven forward pass producing one normalized prediction per path.
pub trait PathPredictor: Layer + Clone + Send + Sync {
    /// Short identifier used in reports ("original" / "extended").
    fn name(&self) -> &'static str;

    /// The hyper-parameters.
    fn config(&self) -> &ModelConfig;

    /// The preprocessing state (feature scales + target normalizer).
    fn preprocessing(&self) -> (&FeatureScales, &Normalizer);

    /// Fit feature scales and the target normalizer on the training set.
    /// Must be called before training; stored with the model thereafter.
    fn fit_preprocessing(&mut self, train: &Dataset, min_packets: u64);

    /// Replace the target normalizer (used when training on a different
    /// target, e.g. jitter, after `fit_preprocessing` fitted delay).
    fn set_normalizer(&mut self, normalizer: Normalizer);

    /// Forward pass on the tape: returns the `n_paths x 1` normalized
    /// prediction node. Uses the fused hot-path ops; accepts single-sample
    /// plans and block-diagonal megabatch plans alike.
    fn forward(&self, g: &mut Graph, bound: &Self::Bound, plan: &SamplePlan) -> Var;

    /// The pre-fusion op-by-op forward pass. Numerically equivalent to
    /// [`PathPredictor::forward`] (the golden-equivalence tests pin this
    /// down); kept as the reference implementation and for the
    /// before/after benchmark.
    fn forward_unfused(&self, g: &mut Graph, bound: &Self::Bound, plan: &SamplePlan) -> Var;

    /// Build the message-passing plan for one sample using this model's
    /// preprocessing state.
    fn plan(&self, sample: &Sample) -> SamplePlan {
        let (scales, normalizer) = self.preprocessing();
        let cfg = PlanConfig::new(self.config(), scales, normalizer);
        build_plan(sample, &cfg)
    }

    /// Plan with an explicit target kind (delay or jitter).
    fn plan_for_target(&self, sample: &Sample, target: TargetKind) -> SamplePlan {
        let (scales, normalizer) = self.preprocessing();
        let mut cfg = PlanConfig::new(self.config(), scales, normalizer);
        cfg.target = target;
        build_plan(sample, &cfg)
    }

    /// Inference: predicted raw (denormalized) targets for every path.
    ///
    /// Runs [`PathPredictor::predict_with`] on a tape that stays with the
    /// calling thread (as do `predict_batch` / `predict_batch_refs`), which
    /// therefore keeps the working set of the largest plan it has predicted;
    /// a caller that wants to own that memory holds a tape and calls
    /// `predict_with` itself. Bits do not depend on what the tape ran before.
    fn predict(&self, plan: &SamplePlan) -> Vec<f64> {
        with_thread_tape(|g| self.predict_with(g, plan))
    }

    /// Inference on a caller-provided (pooled) tape. The tape is reset
    /// first, so a worker can reuse one tape across a stream of samples:
    /// every matrix of the bind and the forward comes from the tape's
    /// size-classed, bounded buffer pool, and once the tape has seen a
    /// plan's shapes a call allocates only its result vector and a few KB
    /// of per-op bookkeeping — [`Graph::pool_misses`] stays flat and
    /// [`Graph::pooled_bytes`] stops growing (`tests/tape_pool_soak.rs`).
    /// Runs in the tape's inference mode: GRU activations are recycled as
    /// soon as each step's value exists, so the working set stays
    /// cache-sized even for megabatches (values are bitwise identical to a
    /// training-mode forward).
    fn predict_with(&self, g: &mut Graph, plan: &SamplePlan) -> Vec<f64> {
        g.reset();
        g.set_inference_mode(true);
        let bound = self.bind(g);
        let pred = self.forward(g, &bound, plan);
        let (_, normalizer) = self.preprocessing();
        let out = g
            .value(pred)
            .as_slice()
            .iter()
            .map(|&v| normalizer.denormalize(v as f64))
            .collect();
        g.set_inference_mode(false);
        out
    }

    /// Batched inference: packs `plans` into one block-diagonal megabatch,
    /// runs a single forward pass (one parameter bind amortized over the
    /// batch, B-fold taller matmuls), and splits the predictions back per
    /// sample. Output `[i]` equals `self.predict(&plans[i])` to f32
    /// round-off.
    fn predict_batch(&self, plans: &[SamplePlan]) -> Vec<Vec<f64>> {
        with_thread_tape(|g| self.predict_batch_with(g, plans))
    }

    /// Batched inference on a caller-provided (pooled) tape. Megabatch
    /// buffers are large enough that allocator reuse matters: a worker
    /// holding one tape across a stream of batches takes them all from the
    /// tape's pool (see [`PathPredictor::predict_with`]).
    fn predict_batch_with(&self, g: &mut Graph, plans: &[SamplePlan]) -> Vec<Vec<f64>> {
        let parts: Vec<&SamplePlan> = plans.iter().collect();
        self.predict_batch_refs_with(g, &parts)
    }

    /// Batched inference over borrowed plans. The serving layer holds plans
    /// behind `Arc`s in a shared cache, so batches are assembled as slices
    /// of references rather than contiguous owned plans; results are
    /// identical to [`PathPredictor::predict_batch`] element for element.
    fn predict_batch_refs(&self, plans: &[&SamplePlan]) -> Vec<Vec<f64>> {
        with_thread_tape(|g| self.predict_batch_refs_with(g, plans))
    }

    /// [`PathPredictor::predict_batch_refs`] on a caller-provided (pooled)
    /// tape — the steady-state serving hot path: one bind per batch, fused
    /// block-diagonal forward. The tape's pool is bounded by the largest
    /// batch it has run and a batch shape it has seen before costs no pool
    /// miss; what a call still allocates is the megabatch composition
    /// (`build_megabatch`, for more than one plan) and the result vectors.
    fn predict_batch_refs_with(&self, g: &mut Graph, plans: &[&SamplePlan]) -> Vec<Vec<f64>> {
        if plans.is_empty() {
            return Vec::new();
        }
        if plans.len() == 1 {
            return vec![self.predict_with(g, plans[0])];
        }
        let mb = build_megabatch(plans);
        self.predict_megabatch_with(g, &mb)
    }

    /// Batched inference over an **already composed** megabatch — the entry
    /// point the composition layer (`crate::compose`) feeds: a serving
    /// worker that checked a cached [`crate::compose::ComposedMegabatch`]
    /// out of the composition cache and refilled its features runs this
    /// instead of re-planning, with bitwise-identical results to
    /// [`PathPredictor::predict_batch_refs_with`] over the same parts.
    fn predict_megabatch_with(&self, g: &mut Graph, mb: &MegabatchPlan) -> Vec<Vec<f64>> {
        g.reset();
        g.set_inference_mode(true);
        let bound = self.bind(g);
        let pred = self.forward(g, &bound, &mb.plan);
        let (_, normalizer) = self.preprocessing();
        let values = g.value(pred).as_slice();
        let out = mb
            .path_ranges
            .iter()
            .map(|&(start, end)| {
                values[start..end]
                    .iter()
                    .map(|&v| normalizer.denormalize(v as f64))
                    .collect()
            })
            .collect();
        g.set_inference_mode(false);
        out
    }
}

// ---------------------------------------------------------------------------
// Shared message-passing machinery
// ---------------------------------------------------------------------------

/// Run one fused path-RNN sweep over precompiled CSR steps, accumulating
/// per-entity message sums.
///
/// Three tape nodes per sequence position (`gather_rows`, `gru_step_rows`,
/// `segment_acc_rows`) instead of the ~20 the unfused sweep records — this is the
/// training hot path. Returns `(final_path_state, link_message_sum,
/// node_message_sum, queue_message_sum)`; the node accumulator is `None`
/// when `collect_node_messages` is false (original model, or the
/// FinalPathStateSum ablation), and the queue accumulator is `None` unless
/// `queue_state` is supplied (QoS plans only — legacy sweeps record exactly
/// the same tape ops as before the queue entity existed).
#[allow(clippy::too_many_arguments)]
fn path_sweep(
    g: &mut Graph,
    gru_path: &BoundGruCell,
    csr: &CompiledSteps,
    mut path_state: Var,
    link_state: Var,
    node_state: Option<Var>,
    queue_state: Option<Var>,
    num_links: usize,
    num_nodes: usize,
    num_queues: usize,
    collect_node_messages: bool,
    shards: Option<&PlanShards>,
) -> (Var, Var, Option<Var>, Option<Var>) {
    let state_dim = g.value(link_state).cols();
    let mut link_acc = g.constant_with(num_links, state_dim, |_| {});
    let mut node_acc = if collect_node_messages {
        Some(g.constant_with(num_nodes, state_dim, |_| {}))
    } else {
        None
    };
    let mut queue_acc = if queue_state.is_some() {
        Some(g.constant_with(num_queues, state_dim, |_| {}))
    } else {
        None
    };
    let gru_vars = gru_path.vars();
    // Zero-copy mode: every step binds Arc-backed views of the compiled CSR
    // buffers instead of pooled copies, so per-step index traffic collapses
    // to refcount bumps. The copying branch is the legacy bitwise path.
    let zero_copy = g.zero_copy();
    for s in 0..csr.len() {
        if csr.active[s] == 0 {
            continue;
        }
        // Row compaction: gather states for the *active* rows only, advance
        // only those rows through the GRU, and scatter only their messages.
        // Padded rows never touch a kernel.
        let (rows, ids): (IndexInput<'_>, IndexInput<'_>) = if zero_copy {
            (
                csr.shared_active_rows(s).into(),
                csr.shared_active_ids(s).into(),
            )
        } else {
            (csr.active_rows(s).into(), csr.active_ids(s).into())
        };
        let states = match csr.kinds[s] {
            EntityKind::Link => link_state,
            EntityKind::Node => node_state.expect("node step requires node states"),
            EntityKind::Queue => queue_state.expect("queue step requires queue states"),
        };
        // Megabatch plans carry per-sample shard bounds: the fused ops then
        // record shard descriptors, so this step's work can fan out across
        // a worker pool (forward and backward) with bitwise-identical
        // results, and the backward reduces parameter gradients in the
        // canonical per-shard order.
        let split = shards.map(|sh| {
            if zero_copy {
                ShardSplit {
                    active: csr.shared_step_shard_bounds(s).into(),
                    dense: sh.shared_path_bounds().into(),
                    entity: sh.shared_entity_bounds(csr.kinds[s]).into(),
                }
            } else {
                ShardSplit::borrowed(
                    csr.step_shard_bounds(s),
                    &sh.path_bounds,
                    sh.entity_bounds(csr.kinds[s]),
                )
            }
        });
        let x = g.gather_rows_sharded(states, ids.clone(), split.clone());
        path_state = g.gru_step_rows_sharded(&gru_vars, path_state, x, rows.clone(), split.clone());
        // The post-step hidden state is the message to this position's entity.
        match csr.kinds[s] {
            EntityKind::Link => {
                link_acc = g.segment_acc_rows_sharded(link_acc, path_state, rows, ids, split)
            }
            EntityKind::Node => {
                if let Some(acc) = node_acc {
                    node_acc = Some(g.segment_acc_rows_sharded(acc, path_state, rows, ids, split));
                }
            }
            EntityKind::Queue => {
                if let Some(acc) = queue_acc {
                    queue_acc = Some(g.segment_acc_rows_sharded(acc, path_state, rows, ids, split));
                }
            }
        }
    }
    (path_state, link_acc, node_acc, queue_acc)
}

/// The pre-fusion sweep, op by op — the numerical reference for
/// [`path_sweep`] and the "before" side of the training-step benchmark.
#[allow(clippy::too_many_arguments)]
fn path_sweep_unfused(
    g: &mut Graph,
    gru_path: &BoundGruCell,
    steps: &[StepPlan],
    mut path_state: Var,
    link_state: Var,
    node_state: Option<Var>,
    queue_state: Option<Var>,
    num_links: usize,
    num_nodes: usize,
    num_queues: usize,
    collect_node_messages: bool,
) -> (Var, Var, Option<Var>, Option<Var>) {
    let mut link_acc = g.constant(Matrix::zeros(num_links, g.value(link_state).cols()));
    let mut node_acc = if collect_node_messages {
        Some(g.constant(Matrix::zeros(num_nodes, g.value(link_state).cols())))
    } else {
        None
    };
    let mut queue_acc = queue_state
        .is_some()
        .then(|| g.constant(Matrix::zeros(num_queues, g.value(link_state).cols())));
    for step in steps {
        if step.active == 0 {
            continue;
        }
        let states = match step.kind {
            EntityKind::Link => link_state,
            EntityKind::Node => node_state.expect("node step requires node states"),
            EntityKind::Queue => queue_state.expect("queue step requires queue states"),
        };
        let x_raw = g.gather_rows(states, &step.ids);
        let x = g.mask_rows(x_raw, &step.mask);
        path_state = gru_path.step_masked(g, path_state, x, &step.mask);
        // The post-step hidden state is the message to this position's entity.
        let msg = g.mask_rows(path_state, &step.mask);
        match step.kind {
            EntityKind::Link => {
                let contribution = g.segment_sum(msg, &step.ids, num_links);
                link_acc = g.add(link_acc, contribution);
            }
            EntityKind::Node => {
                if let Some(acc) = node_acc {
                    let contribution = g.segment_sum(msg, &step.ids, num_nodes);
                    node_acc = Some(g.add(acc, contribution));
                }
            }
            EntityKind::Queue => {
                if let Some(acc) = queue_acc {
                    let contribution = g.segment_sum(msg, &step.ids, num_queues);
                    queue_acc = Some(g.add(acc, contribution));
                }
            }
        }
    }
    (path_state, link_acc, node_acc, queue_acc)
}

// ---------------------------------------------------------------------------
// Original RouteNet
// ---------------------------------------------------------------------------

/// The original RouteNet: link and path entities only. Node features (queue
/// sizes) are invisible to this model — exactly the limitation the paper
/// demonstrates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OriginalRouteNet {
    config: ModelConfig,
    scales: FeatureScales,
    normalizer: Normalizer,
    gru_path: GruCell,
    gru_link: GruCell,
    readout: Mlp,
}

/// Tape bindings for [`OriginalRouteNet`].
#[derive(Debug, Clone)]
pub struct BoundOriginal {
    gru_path: BoundGruCell,
    gru_link: BoundGruCell,
    readout: BoundMlp,
}

impl OriginalRouteNet {
    /// Fresh model with Xavier-initialized weights.
    pub fn new(config: ModelConfig) -> Self {
        config.validate().expect("invalid model config");
        let d = config.state_dim;
        let h = config.readout_hidden;
        let mut rng = Prng::new(config.seed);
        Self {
            gru_path: GruCell::new(&mut rng, d, d),
            gru_link: GruCell::new(&mut rng, d, d),
            readout: Mlp::new(
                &mut rng,
                &[d, h, h, 1],
                Activation::Selu,
                Activation::Identity,
            ),
            config,
            scales: FeatureScales::unit(),
            normalizer: Normalizer::identity(),
        }
    }
}

impl Layer for OriginalRouteNet {
    type Bound = BoundOriginal;

    fn bind(&self, g: &mut Graph) -> BoundOriginal {
        BoundOriginal {
            gru_path: self.gru_path.bind(g),
            gru_link: self.gru_link.bind(g),
            readout: self.readout.bind(g),
        }
    }

    fn params(&self) -> Vec<&Matrix> {
        let mut p = self.gru_path.params();
        p.extend(self.gru_link.params());
        p.extend(self.readout.params());
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut p = self.gru_path.params_mut();
        p.extend(self.gru_link.params_mut());
        p.extend(self.readout.params_mut());
        p
    }

    fn bound_vars(bound: &BoundOriginal) -> Vec<Var> {
        let mut v = GruCell::bound_vars(&bound.gru_path);
        v.extend(GruCell::bound_vars(&bound.gru_link));
        v.extend(Mlp::bound_vars(&bound.readout));
        v
    }
}

impl PathPredictor for OriginalRouteNet {
    fn name(&self) -> &'static str {
        "original"
    }

    fn config(&self) -> &ModelConfig {
        &self.config
    }

    fn preprocessing(&self) -> (&FeatureScales, &Normalizer) {
        (&self.scales, &self.normalizer)
    }

    fn fit_preprocessing(&mut self, train: &Dataset, min_packets: u64) {
        self.scales = FeatureScales::fit(train);
        let delays = train.all_delays(min_packets);
        let positive: Vec<f64> = delays.into_iter().filter(|&d| d > 0.0).collect();
        assert!(
            !positive.is_empty(),
            "training set has no positive delay labels"
        );
        self.normalizer = Normalizer::fit(&positive, true);
    }

    fn set_normalizer(&mut self, normalizer: Normalizer) {
        self.normalizer = normalizer;
    }

    fn forward(&self, g: &mut Graph, bound: &BoundOriginal, plan: &SamplePlan) -> Var {
        // Pooled copies: the plan may be a cached composition shared behind
        // an Arc, so the tape takes its own (recycled) buffers; bits match
        // `constant(clone())` exactly.
        let mut path_state = g.constant_copy(&plan.path_init);
        let mut link_state = g.constant_copy(&plan.link_init);
        // Dense row partitions for the per-entity GRU update and the
        // readout: the work the per-sample shards leave sequential fans
        // across the same worker gang (None on single-sample plans, which
        // stay on the legacy bitwise path).
        let zero_copy = g.zero_copy();
        let dense_link: Option<IndexInput<'_>> = plan.shards.as_ref().and_then(|s| {
            if zero_copy {
                s.shared_dense_link().map(IndexInput::from)
            } else {
                s.dense_link().map(IndexInput::from)
            }
        });
        let dense_path: Option<IndexInput<'_>> = plan.shards.as_ref().and_then(|s| {
            if zero_copy {
                s.shared_dense_path().map(IndexInput::from)
            } else {
                s.dense_path().map(IndexInput::from)
            }
        });
        for _ in 0..self.config.mp_iterations {
            let (new_path, link_acc, _, _) = path_sweep(
                g,
                &bound.gru_path,
                &plan.original_csr,
                path_state,
                link_state,
                None,
                None,
                plan.num_links,
                plan.num_nodes,
                0,
                false,
                plan.shards.as_ref(),
            );
            path_state = new_path;
            link_state =
                bound
                    .gru_link
                    .step_fused_sharded(g, link_state, link_acc, dense_link.clone());
        }
        bound.readout.forward_sharded(g, path_state, dense_path)
    }

    fn forward_unfused(&self, g: &mut Graph, bound: &BoundOriginal, plan: &SamplePlan) -> Var {
        let mut path_state = g.constant(plan.path_init.clone());
        let mut link_state = g.constant(plan.link_init.clone());
        for _ in 0..self.config.mp_iterations {
            let (new_path, link_acc, _, _) = path_sweep_unfused(
                g,
                &bound.gru_path,
                &plan.original_steps,
                path_state,
                link_state,
                None,
                None,
                plan.num_links,
                plan.num_nodes,
                0,
                false,
            );
            path_state = new_path;
            link_state = bound.gru_link.step(g, link_state, link_acc);
        }
        bound.readout.forward(g, path_state)
    }
}

// ---------------------------------------------------------------------------
// Extended RouteNet
// ---------------------------------------------------------------------------

/// The extended RouteNet of the paper: adds the node entity (`RNN_N`) and
/// interleaves node states into the path sequences.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExtendedRouteNet {
    config: ModelConfig,
    scales: FeatureScales,
    normalizer: Normalizer,
    gru_path: GruCell,
    gru_link: GruCell,
    gru_node: GruCell,
    readout: Mlp,
}

/// Tape bindings for [`ExtendedRouteNet`].
#[derive(Debug, Clone)]
pub struct BoundExtended {
    gru_path: BoundGruCell,
    gru_link: BoundGruCell,
    gru_node: BoundGruCell,
    readout: BoundMlp,
}

impl ExtendedRouteNet {
    /// Fresh model with Xavier-initialized weights.
    pub fn new(config: ModelConfig) -> Self {
        config.validate().expect("invalid model config");
        let d = config.state_dim;
        let h = config.readout_hidden;
        let mut rng = Prng::new(config.seed);
        Self {
            gru_path: GruCell::new(&mut rng, d, d),
            gru_link: GruCell::new(&mut rng, d, d),
            gru_node: GruCell::new(&mut rng, d, d),
            readout: Mlp::new(
                &mut rng,
                &[d, h, h, 1],
                Activation::Selu,
                Activation::Identity,
            ),
            config,
            scales: FeatureScales::unit(),
            normalizer: Normalizer::identity(),
        }
    }
}

impl Layer for ExtendedRouteNet {
    type Bound = BoundExtended;

    fn bind(&self, g: &mut Graph) -> BoundExtended {
        BoundExtended {
            gru_path: self.gru_path.bind(g),
            gru_link: self.gru_link.bind(g),
            gru_node: self.gru_node.bind(g),
            readout: self.readout.bind(g),
        }
    }

    fn params(&self) -> Vec<&Matrix> {
        let mut p = self.gru_path.params();
        p.extend(self.gru_link.params());
        p.extend(self.gru_node.params());
        p.extend(self.readout.params());
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut p = self.gru_path.params_mut();
        p.extend(self.gru_link.params_mut());
        p.extend(self.gru_node.params_mut());
        p.extend(self.readout.params_mut());
        p
    }

    fn bound_vars(bound: &BoundExtended) -> Vec<Var> {
        let mut v = GruCell::bound_vars(&bound.gru_path);
        v.extend(GruCell::bound_vars(&bound.gru_link));
        v.extend(GruCell::bound_vars(&bound.gru_node));
        v.extend(Mlp::bound_vars(&bound.readout));
        v
    }
}

impl PathPredictor for ExtendedRouteNet {
    fn name(&self) -> &'static str {
        "extended"
    }

    fn config(&self) -> &ModelConfig {
        &self.config
    }

    fn preprocessing(&self) -> (&FeatureScales, &Normalizer) {
        (&self.scales, &self.normalizer)
    }

    fn fit_preprocessing(&mut self, train: &Dataset, min_packets: u64) {
        self.scales = FeatureScales::fit(train);
        let delays = train.all_delays(min_packets);
        let positive: Vec<f64> = delays.into_iter().filter(|&d| d > 0.0).collect();
        assert!(
            !positive.is_empty(),
            "training set has no positive delay labels"
        );
        self.normalizer = Normalizer::fit(&positive, true);
    }

    fn set_normalizer(&mut self, normalizer: Normalizer) {
        self.normalizer = normalizer;
    }

    fn forward(&self, g: &mut Graph, bound: &BoundExtended, plan: &SamplePlan) -> Var {
        // Pooled copies — see `OriginalRouteNet::forward`.
        let mut path_state = g.constant_copy(&plan.path_init);
        let mut link_state = g.constant_copy(&plan.link_init);
        let mut node_state = g.constant_copy(&plan.node_init);
        let positional = self.config.node_update == NodeUpdate::PositionalMessages;
        // Dense row partitions — see `OriginalRouteNet::forward`.
        let zero_copy = g.zero_copy();
        let dense_link: Option<IndexInput<'_>> = plan.shards.as_ref().and_then(|s| {
            if zero_copy {
                s.shared_dense_link().map(IndexInput::from)
            } else {
                s.dense_link().map(IndexInput::from)
            }
        });
        let dense_node: Option<IndexInput<'_>> = plan.shards.as_ref().and_then(|s| {
            if zero_copy {
                s.shared_dense_node().map(IndexInput::from)
            } else {
                s.dense_node().map(IndexInput::from)
            }
        });
        let dense_path: Option<IndexInput<'_>> = plan.shards.as_ref().and_then(|s| {
            if zero_copy {
                s.shared_dense_path().map(IndexInput::from)
            } else {
                s.dense_path().map(IndexInput::from)
            }
        });
        for _ in 0..self.config.mp_iterations {
            let (new_path, link_acc, node_acc, _) = path_sweep(
                g,
                &bound.gru_path,
                &plan.extended_csr,
                path_state,
                link_state,
                Some(node_state),
                None,
                plan.num_links,
                plan.num_nodes,
                0,
                positional,
                plan.shards.as_ref(),
            );
            path_state = new_path;
            let node_input = if positional {
                node_acc.expect("positional sweep collects node messages")
            } else {
                // Paper wording: element-wise sum of the (final) path states
                // of all paths traversing the node.
                let gathered = g.gather_rows(path_state, &plan.node_incidence_paths);
                g.segment_sum(gathered, &plan.node_incidence_nodes, plan.num_nodes)
            };
            link_state =
                bound
                    .gru_link
                    .step_fused_sharded(g, link_state, link_acc, dense_link.clone());
            node_state =
                bound
                    .gru_node
                    .step_fused_sharded(g, node_state, node_input, dense_node.clone());
        }
        bound.readout.forward_sharded(g, path_state, dense_path)
    }

    fn forward_unfused(&self, g: &mut Graph, bound: &BoundExtended, plan: &SamplePlan) -> Var {
        let mut path_state = g.constant(plan.path_init.clone());
        let mut link_state = g.constant(plan.link_init.clone());
        let mut node_state = g.constant(plan.node_init.clone());
        let positional = self.config.node_update == NodeUpdate::PositionalMessages;
        for _ in 0..self.config.mp_iterations {
            let (new_path, link_acc, node_acc, _) = path_sweep_unfused(
                g,
                &bound.gru_path,
                &plan.extended_steps,
                path_state,
                link_state,
                Some(node_state),
                None,
                plan.num_links,
                plan.num_nodes,
                0,
                positional,
            );
            path_state = new_path;
            let node_input = if positional {
                node_acc.expect("positional sweep collects node messages")
            } else {
                let gathered = g.gather_rows(path_state, &plan.node_incidence_paths);
                g.segment_sum(gathered, &plan.node_incidence_nodes, plan.num_nodes)
            };
            link_state = bound.gru_link.step(g, link_state, link_acc);
            node_state = bound.gru_node.step(g, node_state, node_input);
        }
        bound.readout.forward(g, path_state)
    }
}

// ---------------------------------------------------------------------------
// QoS RouteNet (queue entity)
// ---------------------------------------------------------------------------

/// The QoS-aware RouteNet: adds a per-(link, class) **queue entity**
/// (`RNN_Q`) on top of the extended model, so the message passing sees the
/// scheduler configuration (policy shares, class ranks) of every output
/// port. On QoS plans the path sequence is 3-periodic (node, queue, link per
/// hop); on legacy and single-class-FIFO plans `num_queues == 0`, no queue
/// op is recorded, and the forward/backward tapes are **bitwise identical**
/// to [`ExtendedRouteNet`] at the same seed — the shared parameters are
/// drawn in the same `Prng` order and the queue GRU only afterwards.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QosRouteNet {
    config: ModelConfig,
    scales: FeatureScales,
    normalizer: Normalizer,
    gru_path: GruCell,
    gru_link: GruCell,
    gru_node: GruCell,
    readout: Mlp,
    gru_queue: GruCell,
}

/// Tape bindings for [`QosRouteNet`].
#[derive(Debug, Clone)]
pub struct BoundQos {
    gru_path: BoundGruCell,
    gru_link: BoundGruCell,
    gru_node: BoundGruCell,
    readout: BoundMlp,
    gru_queue: BoundGruCell,
}

impl QosRouteNet {
    /// Fresh model with Xavier-initialized weights. The path/link/node GRUs
    /// and the readout consume the seed stream in exactly
    /// [`ExtendedRouteNet::new`]'s order, then the queue GRU draws from
    /// whatever is left: at equal seed the shared parameters are bitwise
    /// equal, which is what makes the FIFO golden-equivalence tests exact.
    pub fn new(config: ModelConfig) -> Self {
        config.validate().expect("invalid model config");
        let d = config.state_dim;
        let h = config.readout_hidden;
        let mut rng = Prng::new(config.seed);
        Self {
            gru_path: GruCell::new(&mut rng, d, d),
            gru_link: GruCell::new(&mut rng, d, d),
            gru_node: GruCell::new(&mut rng, d, d),
            readout: Mlp::new(
                &mut rng,
                &[d, h, h, 1],
                Activation::Selu,
                Activation::Identity,
            ),
            gru_queue: GruCell::new(&mut rng, d, d),
            config,
            scales: FeatureScales::unit(),
            normalizer: Normalizer::identity(),
        }
    }
}

impl Layer for QosRouteNet {
    type Bound = BoundQos;

    fn bind(&self, g: &mut Graph) -> BoundQos {
        // Queue GRU bound last: on FIFO plans the tape prefix (params and
        // compute ops alike) matches ExtendedRouteNet node for node.
        BoundQos {
            gru_path: self.gru_path.bind(g),
            gru_link: self.gru_link.bind(g),
            gru_node: self.gru_node.bind(g),
            readout: self.readout.bind(g),
            gru_queue: self.gru_queue.bind(g),
        }
    }

    fn params(&self) -> Vec<&Matrix> {
        let mut p = self.gru_path.params();
        p.extend(self.gru_link.params());
        p.extend(self.gru_node.params());
        p.extend(self.readout.params());
        p.extend(self.gru_queue.params());
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut p = self.gru_path.params_mut();
        p.extend(self.gru_link.params_mut());
        p.extend(self.gru_node.params_mut());
        p.extend(self.readout.params_mut());
        p.extend(self.gru_queue.params_mut());
        p
    }

    fn bound_vars(bound: &BoundQos) -> Vec<Var> {
        let mut v = GruCell::bound_vars(&bound.gru_path);
        v.extend(GruCell::bound_vars(&bound.gru_link));
        v.extend(GruCell::bound_vars(&bound.gru_node));
        v.extend(Mlp::bound_vars(&bound.readout));
        v.extend(GruCell::bound_vars(&bound.gru_queue));
        v
    }
}

impl PathPredictor for QosRouteNet {
    fn name(&self) -> &'static str {
        "qos"
    }

    fn config(&self) -> &ModelConfig {
        &self.config
    }

    fn preprocessing(&self) -> (&FeatureScales, &Normalizer) {
        (&self.scales, &self.normalizer)
    }

    fn fit_preprocessing(&mut self, train: &Dataset, min_packets: u64) {
        self.scales = FeatureScales::fit(train);
        let delays = train.all_delays(min_packets);
        let positive: Vec<f64> = delays.into_iter().filter(|&d| d > 0.0).collect();
        assert!(
            !positive.is_empty(),
            "training set has no positive delay labels"
        );
        self.normalizer = Normalizer::fit(&positive, true);
    }

    fn set_normalizer(&mut self, normalizer: Normalizer) {
        self.normalizer = normalizer;
    }

    fn forward(&self, g: &mut Graph, bound: &BoundQos, plan: &SamplePlan) -> Var {
        // Pooled copies — see `OriginalRouteNet::forward`.
        let mut path_state = g.constant_copy(&plan.path_init);
        let mut link_state = g.constant_copy(&plan.link_init);
        let mut node_state = g.constant_copy(&plan.node_init);
        // Queue states exist only on QoS plans: when `num_queues == 0` no
        // queue op of any kind is recorded, keeping the tape bitwise equal
        // to the extended model's.
        let mut queue_state = (plan.num_queues > 0).then(|| g.constant_copy(&plan.queue_init));
        let positional = self.config.node_update == NodeUpdate::PositionalMessages;
        // Dense row partitions — see `OriginalRouteNet::forward`.
        let zero_copy = g.zero_copy();
        let dense_link: Option<IndexInput<'_>> = plan.shards.as_ref().and_then(|s| {
            if zero_copy {
                s.shared_dense_link().map(IndexInput::from)
            } else {
                s.dense_link().map(IndexInput::from)
            }
        });
        let dense_node: Option<IndexInput<'_>> = plan.shards.as_ref().and_then(|s| {
            if zero_copy {
                s.shared_dense_node().map(IndexInput::from)
            } else {
                s.dense_node().map(IndexInput::from)
            }
        });
        let dense_queue: Option<IndexInput<'_>> = plan.shards.as_ref().and_then(|s| {
            if zero_copy {
                s.shared_dense_queue().map(IndexInput::from)
            } else {
                s.dense_queue().map(IndexInput::from)
            }
        });
        let dense_path: Option<IndexInput<'_>> = plan.shards.as_ref().and_then(|s| {
            if zero_copy {
                s.shared_dense_path().map(IndexInput::from)
            } else {
                s.dense_path().map(IndexInput::from)
            }
        });
        for _ in 0..self.config.mp_iterations {
            let (new_path, link_acc, node_acc, queue_acc) = path_sweep(
                g,
                &bound.gru_path,
                &plan.extended_csr,
                path_state,
                link_state,
                Some(node_state),
                queue_state,
                plan.num_links,
                plan.num_nodes,
                plan.num_queues,
                positional,
                plan.shards.as_ref(),
            );
            path_state = new_path;
            let node_input = if positional {
                node_acc.expect("positional sweep collects node messages")
            } else {
                let gathered = g.gather_rows(path_state, &plan.node_incidence_paths);
                g.segment_sum(gathered, &plan.node_incidence_nodes, plan.num_nodes)
            };
            link_state =
                bound
                    .gru_link
                    .step_fused_sharded(g, link_state, link_acc, dense_link.clone());
            node_state =
                bound
                    .gru_node
                    .step_fused_sharded(g, node_state, node_input, dense_node.clone());
            if let (Some(qs), Some(qa)) = (queue_state, queue_acc) {
                queue_state = Some(bound.gru_queue.step_fused_sharded(
                    g,
                    qs,
                    qa,
                    dense_queue.clone(),
                ));
            }
        }
        bound.readout.forward_sharded(g, path_state, dense_path)
    }

    fn forward_unfused(&self, g: &mut Graph, bound: &BoundQos, plan: &SamplePlan) -> Var {
        let mut path_state = g.constant(plan.path_init.clone());
        let mut link_state = g.constant(plan.link_init.clone());
        let mut node_state = g.constant(plan.node_init.clone());
        let mut queue_state = (plan.num_queues > 0).then(|| g.constant(plan.queue_init.clone()));
        let positional = self.config.node_update == NodeUpdate::PositionalMessages;
        for _ in 0..self.config.mp_iterations {
            let (new_path, link_acc, node_acc, queue_acc) = path_sweep_unfused(
                g,
                &bound.gru_path,
                &plan.extended_steps,
                path_state,
                link_state,
                Some(node_state),
                queue_state,
                plan.num_links,
                plan.num_nodes,
                plan.num_queues,
                positional,
            );
            path_state = new_path;
            let node_input = if positional {
                node_acc.expect("positional sweep collects node messages")
            } else {
                let gathered = g.gather_rows(path_state, &plan.node_incidence_paths);
                g.segment_sum(gathered, &plan.node_incidence_nodes, plan.num_nodes)
            };
            link_state = bound.gru_link.step(g, link_state, link_acc);
            node_state = bound.gru_node.step(g, node_state, node_input);
            if let (Some(qs), Some(qa)) = (queue_state, queue_acc) {
                queue_state = Some(bound.gru_queue.step(g, qs, qa));
            }
        }
        bound.readout.forward(g, path_state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_dataset::{generate, GeneratorConfig};
    use rn_netgraph::topologies;
    use rn_netsim::SimConfig;

    fn toy_dataset(n: usize) -> Dataset {
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 60.0,
                warmup_s: 10.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        };
        generate(&topologies::toy5(), &config, 41, n)
    }

    fn small_config() -> ModelConfig {
        ModelConfig {
            state_dim: 8,
            mp_iterations: 2,
            readout_hidden: 8,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn both_models_produce_one_prediction_per_path() {
        let ds = toy_dataset(1);
        let mut original = OriginalRouteNet::new(small_config());
        let mut extended = ExtendedRouteNet::new(small_config());
        original.fit_preprocessing(&ds, 5);
        extended.fit_preprocessing(&ds, 5);

        let plan_o = original.plan(&ds.samples[0]);
        let plan_e = extended.plan(&ds.samples[0]);
        assert_eq!(original.predict(&plan_o).len(), 20);
        assert_eq!(extended.predict(&plan_e).len(), 20);
    }

    #[test]
    fn predictions_are_finite_and_positive() {
        let ds = toy_dataset(1);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan = model.plan(&ds.samples[0]);
        for p in model.predict(&plan) {
            assert!(p.is_finite() && p > 0.0, "prediction {p}");
        }
    }

    #[test]
    fn extended_model_reacts_to_queue_sizes_original_does_not() {
        // Flip every node's queue profile; the extended model's output must
        // change, the original's must not (it cannot see node features).
        let ds = toy_dataset(1);
        let mut sample_b = ds.samples[0].clone();
        sample_b.queue_capacities = vec![1; 5];

        let mut original = OriginalRouteNet::new(small_config());
        let mut extended = ExtendedRouteNet::new(small_config());
        original.fit_preprocessing(&ds, 5);
        extended.fit_preprocessing(&ds, 5);

        let o_a = original.predict(&original.plan(&ds.samples[0]));
        let o_b = original.predict(&original.plan(&sample_b));
        let e_a = extended.predict(&extended.plan(&ds.samples[0]));
        let e_b = extended.predict(&extended.plan(&sample_b));

        let diff = |a: &[f64], b: &[f64]| -> f64 {
            a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
        };
        assert!(
            diff(&o_a, &o_b) < 1e-9,
            "original model must ignore queue sizes"
        );
        assert!(
            diff(&e_a, &e_b) > 1e-6,
            "extended model must react to queue sizes"
        );
    }

    #[test]
    fn node_update_variants_differ() {
        let ds = toy_dataset(1);
        let mut positional = ExtendedRouteNet::new(small_config());
        let mut final_sum = ExtendedRouteNet::new(ModelConfig {
            node_update: NodeUpdate::FinalPathStateSum,
            ..small_config()
        });
        positional.fit_preprocessing(&ds, 5);
        final_sum.fit_preprocessing(&ds, 5);
        let pp = positional.predict(&positional.plan(&ds.samples[0]));
        let pf = final_sum.predict(&final_sum.plan(&ds.samples[0]));
        let total_diff: f64 = pp.iter().zip(&pf).map(|(a, b)| (a - b).abs()).sum();
        assert!(total_diff > 1e-9, "ablation variants should not coincide");
    }

    #[test]
    fn forward_gradients_reach_every_parameter_extended() {
        let ds = toy_dataset(1);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan = model.plan(&ds.samples[0]);
        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        let pred = model.forward(&mut g, &bound, &plan);
        let reliable = g.gather_rows(pred, &plan.reliable_idx);
        let target = g.constant(plan.reliable_targets_norm());
        let loss = g.mse(reliable, target);
        g.backward(loss);
        let grads = model.grads(&g, &bound);
        let nonzero = grads.iter().filter(|m| m.max_abs() > 0.0).count();
        // All kernels should receive gradient; some biases may be zero by
        // symmetry but the vast majority must be live.
        assert!(
            nonzero >= grads.len() - 2,
            "only {nonzero}/{} parameter tensors received gradient",
            grads.len()
        );
    }

    #[test]
    fn forward_gradients_reach_every_parameter_original() {
        let ds = toy_dataset(1);
        let mut model = OriginalRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan = model.plan(&ds.samples[0]);
        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        let pred = model.forward(&mut g, &bound, &plan);
        let reliable = g.gather_rows(pred, &plan.reliable_idx);
        let target = g.constant(plan.reliable_targets_norm());
        let loss = g.mse(reliable, target);
        g.backward(loss);
        let grads = model.grads(&g, &bound);
        let nonzero = grads.iter().filter(|m| m.max_abs() > 0.0).count();
        assert!(
            nonzero >= grads.len() - 2,
            "only {nonzero}/{} live grads",
            grads.len()
        );
    }

    #[test]
    fn fused_forward_matches_unfused_reference() {
        let ds = toy_dataset(1);
        for node_update in [
            NodeUpdate::PositionalMessages,
            NodeUpdate::FinalPathStateSum,
        ] {
            let mut model = ExtendedRouteNet::new(ModelConfig {
                node_update,
                ..small_config()
            });
            model.fit_preprocessing(&ds, 5);
            let plan = model.plan(&ds.samples[0]);
            let mut g = Graph::new();
            let bound = model.bind(&mut g);
            let fused = model.forward(&mut g, &bound, &plan);
            let unfused = model.forward_unfused(&mut g, &bound, &plan);
            assert!(
                g.value(fused).approx_eq(g.value(unfused), 1e-5),
                "fused/unfused diverged for {node_update:?}"
            );
        }
        let mut orig = OriginalRouteNet::new(small_config());
        orig.fit_preprocessing(&ds, 5);
        let plan = orig.plan(&ds.samples[0]);
        let mut g = Graph::new();
        let bound = orig.bind(&mut g);
        let fused = orig.forward(&mut g, &bound, &plan);
        let unfused = orig.forward_unfused(&mut g, &bound, &plan);
        assert!(g.value(fused).approx_eq(g.value(unfused), 1e-5));
    }

    #[test]
    fn predict_batch_matches_per_sample_predict() {
        let ds = toy_dataset(3);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
        let batched = model.predict_batch(&plans);
        assert_eq!(batched.len(), plans.len());
        for (b, plan) in plans.iter().enumerate() {
            let single = model.predict(plan);
            assert_eq!(batched[b].len(), single.len());
            for (x, y) in batched[b].iter().zip(&single) {
                let denom = y.abs().max(1e-12);
                assert!(
                    ((x - y).abs() / denom) < 1e-5,
                    "sample {b}: batched {x} vs single {y}"
                );
            }
        }
    }

    #[test]
    fn predict_batch_of_nothing_returns_nothing() {
        let ds = toy_dataset(1);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        assert!(model.predict_batch(&[]).is_empty());
        assert!(model.predict_batch_refs(&[]).is_empty());
    }

    #[test]
    fn predict_with_reuses_one_tape_across_samples() {
        let ds = toy_dataset(2);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan_a = model.plan(&ds.samples[0]);
        let plan_b = model.plan(&ds.samples[1]);
        let mut g = Graph::new();
        let first = model.predict_with(&mut g, &plan_a);
        let second = model.predict_with(&mut g, &plan_b);
        assert_eq!(
            first,
            model.predict(&plan_a),
            "pooled tape must not change results"
        );
        assert_eq!(second, model.predict(&plan_b));
    }

    #[test]
    fn tape_less_predict_matches_a_fresh_tape_and_tolerates_nesting() {
        let ds = toy_dataset(2);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan = model.plan(&ds.samples[1]);
        let fresh = model.predict_with(&mut Graph::new(), &plan);
        // Warm the thread's tape on another shape first.
        model.predict(&model.plan(&ds.samples[0]));
        assert_eq!(model.predict(&plan), fresh);
        // While the thread's tape is busy a nested call gets its own.
        let nested = with_thread_tape(|_| model.predict(&plan));
        assert_eq!(nested, fresh);
    }

    #[test]
    fn forward_is_deterministic() {
        let ds = toy_dataset(1);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan = model.plan(&ds.samples[0]);
        let a = model.predict(&plan);
        let b = model.predict(&plan);
        assert_eq!(a, b);
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let ds = toy_dataset(1);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan = model.plan(&ds.samples[0]);
        let json = serde_json::to_string(&model).unwrap();
        let back: ExtendedRouteNet = serde_json::from_str(&json).unwrap();
        assert_eq!(model.predict(&plan), back.predict(&plan));
    }

    #[test]
    fn jitter_target_plans_use_jitter_labels() {
        use crate::entities::TargetKind;
        let ds = toy_dataset(1);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let delay_plan = model.plan_for_target(&ds.samples[0], TargetKind::Delay);
        let jitter_plan = model.plan_for_target(&ds.samples[0], TargetKind::Jitter);
        for (row, t) in ds.samples[0].targets.iter().enumerate() {
            assert_eq!(delay_plan.targets_raw[row], t.mean_delay_s);
            assert_eq!(jitter_plan.targets_raw[row], t.jitter_s);
        }
        // The model still produces one prediction per path on jitter plans.
        assert_eq!(model.predict(&jitter_plan).len(), jitter_plan.n_paths);
    }

    #[test]
    fn param_counts_scale_with_config() {
        let small = ExtendedRouteNet::new(small_config());
        let big = ExtendedRouteNet::new(ModelConfig {
            state_dim: 16,
            ..small_config()
        });
        assert!(big.param_count() > small.param_count());
        // Extended has one more GRU than original at equal config.
        let orig = OriginalRouteNet::new(small_config());
        assert!(small.param_count() > orig.param_count());
        // And QoS one more than extended (the queue GRU).
        let qos = QosRouteNet::new(small_config());
        assert!(qos.param_count() > small.param_count());
    }

    fn qos_dataset(n: usize) -> Dataset {
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 30.0,
                warmup_s: 5.0,
                ..SimConfig::default()
            },
            qos: Some(rn_dataset::QosGenConfig::two_class_mix()),
            ..GeneratorConfig::default()
        };
        generate(&topologies::toy5(), &config, 43, n)
    }

    #[test]
    fn qos_model_predicts_one_value_per_path_on_qos_plans() {
        let ds = qos_dataset(1);
        let mut model = QosRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan = model.plan(&ds.samples[0]);
        assert!(
            plan.num_queues > 0,
            "QoS sample must produce queue entities"
        );
        let preds = model.predict(&plan);
        assert_eq!(preds.len(), plan.n_paths);
        for p in preds {
            assert!(p.is_finite() && p > 0.0, "prediction {p}");
        }
    }

    #[test]
    fn qos_model_fused_forward_matches_unfused_reference() {
        let ds = qos_dataset(1);
        let mut model = QosRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan = model.plan(&ds.samples[0]);
        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        let fused = model.forward(&mut g, &bound, &plan);
        let unfused = model.forward_unfused(&mut g, &bound, &plan);
        assert!(
            g.value(fused).approx_eq(g.value(unfused), 1e-5),
            "fused/unfused diverged on a QoS plan"
        );
    }

    #[test]
    fn qos_model_reacts_to_scheduling_policy() {
        // Same traffic, same routing — only the scheduler changes. The queue
        // entity is the only channel through which the model can see that.
        let ds = qos_dataset(1);
        let mut sample_b = ds.samples[0].clone();
        let qos = sample_b.qos.as_mut().expect("QoS sample");
        let n = qos.num_classes();
        qos.policy = rn_netsim::SchedulingPolicy::Wfq {
            weights: (0..n).map(|c| 1.0 + 9.0 * c as f64).collect(),
        };

        let mut model = QosRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let a = model.predict(&model.plan(&ds.samples[0]));
        let b = model.predict(&model.plan(&sample_b));
        let diff: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-9, "QoS model must react to the scheduling policy");
    }

    #[test]
    fn qos_model_gradients_reach_the_queue_gru() {
        let ds = qos_dataset(1);
        let mut model = QosRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan = model.plan(&ds.samples[0]);
        let mut g = Graph::new();
        let bound = model.bind(&mut g);
        let pred = model.forward(&mut g, &bound, &plan);
        let reliable = g.gather_rows(pred, &plan.reliable_idx);
        let target = g.constant(plan.reliable_targets_norm());
        let loss = g.mse(reliable, target);
        g.backward(loss);
        let grads = model.grads(&g, &bound);
        let nonzero = grads.iter().filter(|m| m.max_abs() > 0.0).count();
        assert!(
            nonzero >= grads.len() - 2,
            "only {nonzero}/{} parameter tensors received gradient",
            grads.len()
        );
        // The queue GRU specifically (the last 6 tensors) must be live.
        let queue_grads = &grads[grads.len() - 6..];
        assert!(
            queue_grads.iter().any(|m| m.max_abs() > 0.0),
            "queue GRU received no gradient on a QoS plan"
        );
    }

    #[test]
    fn qos_model_is_bitwise_extended_on_legacy_plans() {
        // Same seed => shared parameters are drawn identically; a legacy
        // plan records no queue ops => predictions are bitwise equal.
        let ds = toy_dataset(1);
        let mut qos = QosRouteNet::new(small_config());
        let mut ext = ExtendedRouteNet::new(small_config());
        qos.fit_preprocessing(&ds, 5);
        ext.fit_preprocessing(&ds, 5);
        let plan_q = qos.plan(&ds.samples[0]);
        let plan_e = ext.plan(&ds.samples[0]);
        assert_eq!(plan_q.num_queues, 0);
        assert_eq!(qos.predict(&plan_q), ext.predict(&plan_e));
    }

    #[test]
    fn qos_model_serde_round_trip_preserves_predictions() {
        let ds = qos_dataset(1);
        let mut model = QosRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plan = model.plan(&ds.samples[0]);
        let json = serde_json::to_string(&model).unwrap();
        let back: QosRouteNet = serde_json::from_str(&json).unwrap();
        assert_eq!(model.predict(&plan), back.predict(&plan));
    }

    #[test]
    fn qos_predict_batch_matches_per_sample_predict() {
        let ds = qos_dataset(3);
        let mut model = QosRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| model.plan(s)).collect();
        let batched = model.predict_batch(&plans);
        assert_eq!(batched.len(), plans.len());
        for (b, plan) in plans.iter().enumerate() {
            let single = model.predict(plan);
            assert_eq!(batched[b].len(), single.len());
            for (x, y) in batched[b].iter().zip(&single) {
                let denom = y.abs().max(1e-12);
                assert!(
                    ((x - y).abs() / denom) < 1e-5,
                    "sample {b}: batched {x} vs single {y}"
                );
            }
        }
    }
}
