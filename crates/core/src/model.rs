//! RouteNet: one message-passing loop over paths and the entity kinds a
//! model owns a GRU for — `[Link]` (the original RouteNet), `[Node, Link]`
//! (the paper's extension) or `[Node, Queue, Link]` (QoS).

use crate::config::ModelConfig;
use crate::entities::{
    build_megabatch, build_plan, EntityKind, MegabatchPlan, PlanConfig, SamplePlan, TargetKind,
};
use crate::features::FeatureScales;
use rn_autograd::{Graph, Var};
use rn_dataset::{Dataset, Normalizer, Sample};
use rn_nn::{Activation, BoundGruCell, BoundMlp, GruCell, Layer, Mlp};
use rn_tensor::{Matrix, Prng};
use serde::json::Reader;
use serde::value::DeError;
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

/// The interface the trainer, evaluation and serving are generic over:
/// bindable layers plus a plan-driven forward pass producing one normalized
/// prediction per path.
pub trait PathPredictor: Layer + Clone + Send + Sync {
    /// Short identifier used in reports ("original" / "extended" / "qos").
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
    /// calling thread (as does `predict_batch`), which therefore keeps the
    /// working set of the largest plan it has predicted;
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
        let parts: Vec<&SamplePlan> = plans.iter().collect();
        with_thread_tape(|g| self.predict_batch_with(g, &parts))
    }

    /// Batched inference over borrowed plans on a caller-provided (pooled)
    /// tape: one bind per batch, fused block-diagonal forward. Plans are
    /// taken by reference because callers hold them in different owners
    /// (a `Vec`, `Arc`s out of a shared cache). Megabatch buffers are large
    /// enough that allocator reuse matters: the tape's pool is bounded by
    /// the largest batch it has run and a batch shape it has seen before
    /// costs no pool miss (see [`PathPredictor::predict_with`]); what a
    /// call still allocates is the megabatch composition
    /// (`build_megabatch`, for more than one plan) and the result vectors.
    fn predict_batch_with(&self, g: &mut Graph, plans: &[&SamplePlan]) -> Vec<Vec<f64>> {
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
    /// worker composes its batch into a
    /// [`crate::compose::ComposedMegabatch`] (timing the composition apart
    /// from the forward) and runs this, with bitwise-identical results to
    /// [`PathPredictor::predict_batch_with`] over the same parts.
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
// The one message-passing loop
// ---------------------------------------------------------------------------

/// The entity kinds a model can own a GRU for, in parameter order. A model
/// with `ENTITIES = n` owns the first `n`. Per-kind state arrays are indexed
/// by `kind as usize`, which the assertion below ties to this order.
const ENTITY_KINDS: [EntityKind; 3] = [EntityKind::Link, EntityKind::Node, EntityKind::Queue];
const _: () = {
    let mut i = 0;
    while i < ENTITY_KINDS.len() {
        assert!(ENTITY_KINDS[i] as usize == i);
        i += 1;
    }
};

/// RouteNet: a path GRU that reads one entity state per sequence position
/// and sends its hidden state back as that entity's message, one GRU per
/// entity kind that folds the messages into the entity states, `T`
/// iterations of that, and a readout MLP over the final path states.
///
/// `ENTITIES` says how many of `[Link, Node, Queue]` the model owns a GRU
/// for; the sweep visits the schedule positions of those kinds and skips the
/// rest. Parameters are drawn from the seed stream — and listed — in the
/// order path, link, \[node\], readout, \[queue\], so at equal seed every
/// model shares the parameter bits of the smaller ones.
#[derive(Debug, Clone)]
pub struct RouteNet<const ENTITIES: usize> {
    config: ModelConfig,
    scales: FeatureScales,
    normalizer: Normalizer,
    gru_path: GruCell,
    gru_link: GruCell,
    gru_node: Option<GruCell>,
    readout: Mlp,
    gru_queue: Option<GruCell>,
}

/// The original RouteNet: link and path entities only (`[Link]`). Node
/// features (queue sizes) are invisible to this model — exactly the
/// limitation the paper demonstrates.
pub type OriginalRouteNet = RouteNet<1>;

/// The extended RouteNet of the paper (`[Node, Link]`): adds the node entity
/// (`RNN_N`) and interleaves node states into the path sequences.
pub type ExtendedRouteNet = RouteNet<2>;

/// The QoS-aware RouteNet (`[Node, Queue, Link]`): adds a per-(link, class)
/// **queue entity** (`RNN_Q`), so the message passing sees the scheduler
/// configuration (policy shares, class ranks) of every output port. On plans
/// without queues (`num_queues == 0`) no queue op is recorded and the
/// forward/backward tapes are **bitwise identical** to [`ExtendedRouteNet`]
/// at the same seed.
pub type QosRouteNet = RouteNet<3>;

/// Tape bindings for a [`RouteNet`].
#[derive(Debug, Clone)]
pub struct Bound {
    gru_path: BoundGruCell,
    gru_link: BoundGruCell,
    gru_node: Option<BoundGruCell>,
    readout: BoundMlp,
    gru_queue: Option<BoundGruCell>,
}

impl Bound {
    /// The GRU that updates the states of `kind`, if the model owns one.
    fn entity_gru(&self, kind: EntityKind) -> Option<&BoundGruCell> {
        match kind {
            EntityKind::Link => Some(&self.gru_link),
            EntityKind::Node => self.gru_node.as_ref(),
            EntityKind::Queue => self.gru_queue.as_ref(),
        }
    }
}

/// The plan's initial states and row count for one entity kind.
fn entity_init(plan: &SamplePlan, kind: EntityKind) -> (&Matrix, usize) {
    match kind {
        EntityKind::Link => (&plan.link_init, plan.num_links),
        EntityKind::Node => (&plan.node_init, plan.num_nodes),
        EntityKind::Queue => (&plan.queue_init, plan.num_queues),
    }
}

impl<const ENTITIES: usize> RouteNet<ENTITIES> {
    /// Fresh model with Xavier-initialized weights.
    pub fn new(config: ModelConfig) -> Self {
        assert!(
            (1..=3).contains(&ENTITIES),
            "RouteNet owns 1 to 3 entity GRUs"
        );
        config.validate().expect("invalid model config");
        let d = config.state_dim;
        let h = config.readout_hidden;
        let mut rng = Prng::new(config.seed);
        Self {
            gru_path: GruCell::new(&mut rng, d, d),
            gru_link: GruCell::new(&mut rng, d, d),
            gru_node: (ENTITIES >= 2).then(|| GruCell::new(&mut rng, d, d)),
            readout: Mlp::new(
                &mut rng,
                &[d, h, h, 1],
                Activation::Selu,
                Activation::Identity,
            ),
            gru_queue: (ENTITIES >= 3).then(|| GruCell::new(&mut rng, d, d)),
            config,
            scales: FeatureScales::unit(),
            normalizer: Normalizer::identity(),
        }
    }
}

/// A [`RouteNet`]'s fields as a model file holds them, before they are
/// checked; the writer appends the same eight in the same order.
#[derive(Deserialize)]
struct RouteNetFields {
    config: ModelConfig,
    scales: FeatureScales,
    normalizer: Normalizer,
    gru_path: GruCell,
    gru_link: GruCell,
    gru_node: Option<GruCell>,
    readout: Mlp,
    gru_queue: Option<GruCell>,
}

impl<const ENTITIES: usize> Serialize for RouteNet<ENTITIES> {
    fn serialize_json(&self, out: &mut String) {
        let fields: [(&str, &dyn Serialize); 8] = [
            ("config", &self.config),
            ("scales", &self.scales),
            ("normalizer", &self.normalizer),
            ("gru_path", &self.gru_path),
            ("gru_link", &self.gru_link),
            ("gru_node", &self.gru_node),
            ("readout", &self.readout),
            ("gru_queue", &self.gru_queue),
        ];
        let mut sep = '{';
        for (name, value) in fields {
            out.push(sep);
            out.push('"');
            out.push_str(name);
            out.push_str("\":");
            value.serialize_json(out);
            sep = ',';
        }
        out.push('}');
    }
}

impl<'de, const ENTITIES: usize> Deserialize<'de> for RouteNet<ENTITIES> {
    fn deserialize_json(r: &mut Reader<'_>) -> Result<Self, DeError> {
        let f = RouteNetFields::deserialize_json(r)?;
        let model = Self {
            config: f.config,
            scales: f.scales,
            normalizer: f.normalizer,
            gru_path: f.gru_path,
            gru_link: f.gru_link,
            gru_node: f.gru_node,
            readout: f.readout,
            gru_queue: f.gru_queue,
        };
        let owned =
            1 + usize::from(model.gru_node.is_some()) + usize::from(model.gru_queue.is_some());
        if owned != ENTITIES || (model.gru_queue.is_some() && model.gru_node.is_none()) {
            return Err(DeError::new(format!(
                "model file holds {owned} entity GRUs, a `{}` model owns {ENTITIES}",
                ["original", "extended", "qos"][ENTITIES - 1]
            )));
        }
        // The layers checked themselves; what is left is that they are as
        // wide as `config` says, which every plan is built from.
        model.config.validate().map_err(DeError::new)?;
        let d = model.config.state_dim;
        let grus = [
            Some(&model.gru_path),
            Some(&model.gru_link),
            model.gru_node.as_ref(),
            model.gru_queue.as_ref(),
        ];
        for gru in grus.into_iter().flatten() {
            if (gru.input_dim(), gru.hidden_dim()) != (d, d) {
                return Err(DeError::new(format!(
                    "a GRU of input {} and hidden {} in a model of state_dim {d}",
                    gru.input_dim(),
                    gru.hidden_dim()
                )));
            }
        }
        if (model.readout.in_dim(), model.readout.out_dim()) != (d, 1) {
            return Err(DeError::new(format!(
                "a readout from {} to {} in a model of state_dim {d}: it reads path states \
                 and predicts one value per path",
                model.readout.in_dim(),
                model.readout.out_dim()
            )));
        }
        // Every feature is divided by a scale and every prediction passes
        // through the normalizer: an infinite, zero or negative one loads
        // into a model whose every answer is wrong (a `std` of `inf`
        // predicts 0.0 for every path).
        let FeatureScales {
            rate_scale,
            capacity_scale,
            queue_scale,
        } = model.scales;
        for (name, scale) in [
            ("rate_scale", rate_scale),
            ("capacity_scale", capacity_scale),
            ("queue_scale", queue_scale),
        ] {
            if !(scale.is_finite() && scale > 0.0) {
                return Err(DeError::new(format!(
                    "feature scale `{name}` of {scale}: a divisor must be finite and positive"
                )));
            }
        }
        let Normalizer { mean, std, .. } = model.normalizer;
        if !(mean.is_finite() && std.is_finite() && std > 0.0) {
            return Err(DeError::new(format!(
                "normalizer mean {mean}, std {std}: the mean must be finite and the std \
                 finite and positive"
            )));
        }
        Ok(model)
    }
}

impl<const ENTITIES: usize> Layer for RouteNet<ENTITIES> {
    type Bound = Bound;

    fn bind(&self, g: &mut Graph) -> Bound {
        // Queue GRU bound last: on plans without queues the tape prefix
        // (params and compute ops alike) matches the smaller model's node
        // for node.
        Bound {
            gru_path: self.gru_path.bind(g),
            gru_link: self.gru_link.bind(g),
            gru_node: self.gru_node.as_ref().map(|cell| cell.bind(g)),
            readout: self.readout.bind(g),
            gru_queue: self.gru_queue.as_ref().map(|cell| cell.bind(g)),
        }
    }

    fn params(&self) -> Vec<&Matrix> {
        let mut p = self.gru_path.params();
        p.extend(self.gru_link.params());
        p.extend(self.gru_node.iter().flat_map(Layer::params));
        p.extend(self.readout.params());
        p.extend(self.gru_queue.iter().flat_map(Layer::params));
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut p = self.gru_path.params_mut();
        p.extend(self.gru_link.params_mut());
        p.extend(self.gru_node.iter_mut().flat_map(Layer::params_mut));
        p.extend(self.readout.params_mut());
        p.extend(self.gru_queue.iter_mut().flat_map(Layer::params_mut));
        p
    }

    fn bound_vars(bound: &Bound) -> Vec<Var> {
        let mut v = GruCell::bound_vars(&bound.gru_path);
        v.extend(GruCell::bound_vars(&bound.gru_link));
        v.extend(bound.gru_node.iter().flat_map(GruCell::bound_vars));
        v.extend(Mlp::bound_vars(&bound.readout));
        v.extend(bound.gru_queue.iter().flat_map(GruCell::bound_vars));
        v
    }
}

impl<const ENTITIES: usize> PathPredictor for RouteNet<ENTITIES> {
    fn name(&self) -> &'static str {
        ["original", "extended", "qos"][ENTITIES - 1]
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

    /// Project per entity, then recur: within one iteration an entity's
    /// state is the same at every hop of every path that crosses it, so the
    /// input half of the path GRU's gate products (`state·W_x`, see
    /// `rn_nn::gru`) is computed once per entity kind and iteration, over
    /// the entity rows, and each sweep step reads the rows of that
    /// projection through the entity ids of its active paths. The fused
    /// sweep then records two tape nodes per visited sequence position
    /// (`gru_step_rows`, `segment_acc_rows`; one in the last iteration,
    /// which sends no messages) instead of the ~20 of the op-by-op forward
    /// it replaced, whose answers `tests/fixtures/reference_values.json`
    /// keeps — this is the training hot path.
    /// Every index list it hands the tape is a refcounted view of the plan's
    /// buffers, so recording a step copies no index word.
    ///
    /// In training as in inference, each path step advances the path state
    /// in the previous step's buffer: no adjoint reads it
    /// (`Graph::gru_step_rows`). The entity states, which the projections'
    /// adjoints read, are kept, and so are the projections.
    fn forward(&self, g: &mut Graph, bound: &Bound, plan: &SamplePlan) -> Var {
        let schedule = &plan.schedule;
        let gru_path = bound.gru_path.vars();
        // Pooled copies: the plan may be a kept composition or a plan shared
        // behind an Arc, so the tape takes its own (recycled) buffers, which
        // the steps may then consume; bits match `constant(clone())` exactly.
        let mut path_state = g.constant_copy(&plan.path_init);
        // One state per entity kind the model owns a GRU for and the plan has
        // rows of: a plan without queues records no queue op of any kind, so
        // its tape is bitwise the smaller model's.
        let mut states = ENTITY_KINDS.map(|kind| {
            let (init, rows) = entity_init(plan, kind);
            let owned = bound.entity_gru(kind).is_some() && rows > 0;
            owned.then(|| g.constant_copy(init))
        });
        for iteration in 0..self.config.mp_iterations {
            // The readout reads path states only, so the entity states the
            // last iteration would produce reach nothing: its sweep advances
            // the paths and sends no message.
            let sends = iteration + 1 < self.config.mp_iterations;
            // Per-entity message sums.
            let mut sums = ENTITY_KINDS.map(|kind| {
                let state = states[kind as usize].filter(|_| sends)?;
                let (rows, cols) = g.value(state).shape();
                Some(g.constant_with(rows, cols, |_| {}))
            });
            let projected = ENTITY_KINDS.map(|kind| {
                let state = states[kind as usize]?;
                Some(bound.gru_path.project(g, state))
            });
            for s in 0..schedule.len() {
                let kind = schedule.kinds[s];
                let Some(entity_px) = projected[kind as usize] else {
                    continue;
                };
                if schedule.active(s) == 0 {
                    continue;
                }
                // Row compaction: advance only the *active* rows, each
                // reading its entity's projection row, and scatter only
                // their messages. Padded rows never touch a kernel.
                let rows = schedule.shared_active_rows(s);
                let ids = schedule.shared_active_ids(s);
                path_state = g.gru_step_rows(&gru_path, path_state, entity_px, &rows, &ids);
                // The post-step hidden state is the message to this
                // position's entity.
                if let Some(sum) = sums[kind as usize] {
                    sums[kind as usize] = Some(g.segment_acc_rows(sum, path_state, rows, ids));
                }
            }
            for kind in ENTITY_KINDS {
                let (Some(state), Some(sum)) = (states[kind as usize], sums[kind as usize]) else {
                    continue;
                };
                let gru = bound.entity_gru(kind).expect("state implies an owned GRU");
                states[kind as usize] = Some(gru.step_fused(g, state, sum));
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
        assert!(model.predict_batch_with(&mut Graph::new(), &[]).is_empty());
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
    fn extended_model_skips_queue_steps_of_a_qos_plan() {
        // A three-periodic QoS plan carries queue positions the extended
        // model owns no GRU for: it visits the node and link positions only,
        // which are exactly the positions of the same sample planned without
        // its QoS block.
        let ds = qos_dataset(1);
        let mut model = ExtendedRouteNet::new(small_config());
        model.fit_preprocessing(&ds, 5);
        let qos_plan = model.plan(&ds.samples[0]);
        assert!(qos_plan.num_queues > 0);
        assert!(qos_plan.schedule.kinds.contains(&EntityKind::Queue));
        let mut stripped = ds.samples[0].clone();
        stripped.qos = None;
        let plain_plan = model.plan(&stripped);
        assert_eq!(plain_plan.num_queues, 0);
        assert_eq!(model.predict(&qos_plan), model.predict(&plain_plan));
        // The original model likewise reads only the link positions.
        let mut original = OriginalRouteNet::new(small_config());
        original.fit_preprocessing(&ds, 5);
        assert_eq!(original.predict(&qos_plan), original.predict(&plain_plan));
    }

    #[test]
    fn a_saved_model_loads_only_as_the_kind_it_was_saved_as() {
        let json = serde_json::to_string(&ExtendedRouteNet::new(small_config())).unwrap();
        assert!(serde_json::from_str::<ExtendedRouteNet>(&json).is_ok());
        for err in [
            serde_json::from_str::<OriginalRouteNet>(&json).err(),
            serde_json::from_str::<QosRouteNet>(&json).err(),
        ] {
            let msg = err.expect("entity lists differ").to_string();
            assert!(msg.contains("2 entity GRUs"), "{msg}");
        }
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
