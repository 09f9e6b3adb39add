//! From dataset samples to message-passing plans.
//!
//! A [`SamplePlan`] is everything a forward pass needs, precomputed once per
//! sample and reused across epochs:
//!
//! - initial entity states (features zero-padded to `state_dim`), one row per
//!   entity **some routed path crosses** — a link, node or queue no path uses
//!   would receive no message and its state would reach no readout, so it
//!   gets no row (see "Active subgraph" below),
//! - one row-compacted message-passing schedule ([`CompiledSteps`]): per
//!   sequence position, the path rows that have the position and the entity
//!   each of them reads and writes,
//! - normalized regression targets and the indices of paths whose labels are
//!   statistically reliable.
//!
//! ## Sequence convention
//!
//! For a path `v₀ → v₁ → … → v_k` over links `l₁ … l_k`, the sequence is
//! `v₀, l₁, v₁, l₂, …, v_{k-1}, l_k` (length `2k`): each link is preceded by
//! the node whose output queue feeds it, so the source node is included and
//! the destination node (which performs no forwarding) is not. Even positions
//! are therefore always nodes and odd positions always links — a uniform
//! alternation that lets a whole batch of paths advance through one GRU step
//! per position. A model visits the positions whose entity kind it owns a
//! GRU for: the original RouteNet's links-only sequence `l₁ … l_k` is exactly
//! the `Link` positions of this one.
//!
//! ## Active subgraph
//!
//! State rows are the entities on some routed path, in ascending topology
//! id: the links some path crosses, the nodes some path forwards through
//! (`path.nodes[..hop_count]`) and, in QoS plans, the (link, class) queues
//! some path of that class crosses. The schedule addresses those rows, so
//! the cost of a forward pass follows the traffic, not the topology. A
//! routing that uses every entity (any full mesh) keeps every row under its
//! topology id.
//!
//! ## QoS sequence convention
//!
//! Samples carrying a QoS dimension (a scheduling policy with more than one
//! ToS class — see `rn_dataset::schema::SampleQos`) grow a third entity: one
//! **queue** per (directed link, class) pair, in topology order `link *
//! num_classes + class`. The sequence becomes 3-periodic per hop — `v₀, q₁,
//! l₁, v₁, q₂, l₂, …` (length `3k`): the forwarding node, then the per-class
//! queue the path's packets wait in at that port, then the link that drains
//! it. Samples
//! without a QoS block and single-class FIFO QoS samples build the exact
//! 2-periodic structure above with `num_queues == 0`, so plans — and
//! everything downstream of them — are bitwise identical to the two-entity
//! model.

use crate::config::ModelConfig;
use crate::features::FeatureScales;
use rn_autograd::SharedIndices;
use rn_dataset::{Normalizer, Sample};
use rn_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, OnceLock};

/// Which entity type a sequence position refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntityKind {
    /// A directed link.
    Link,
    /// A forwarding device.
    Node,
    /// A per-(link, class) scheduler queue — present only in QoS plans.
    Queue,
}

/// What the regression target is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TargetKind {
    /// Per-path mean delay (the paper's experiment).
    Delay,
    /// Per-path jitter (delay standard deviation) — supported as an
    /// extension; RouteNet predicts it with the same architecture.
    Jitter,
}

/// The message-passing schedule, row-compacted into flat CSR-style buffers.
///
/// Step `s` is one sequence position across all paths: the path rows that
/// have the position (ascending) and, aligned with them, the id of the
/// entity of kind `kinds[s]` (its state row) each row gathers from and
/// scatter-adds into.
/// Rows past a path's length simply do not appear, so they never touch a
/// kernel. The index buffers are `Arc<[usize]>` from birth: the tape records
/// per-step windows of them by refcount ([`SharedIndices`]) instead of
/// copying. One build per sample, reused every epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompiledSteps {
    /// Entity type per step.
    pub kinds: Vec<EntityKind>,
    /// CSR index pointer: step `s` covers entries
    /// `active_offsets[s]..active_offsets[s+1]` of the two flat buffers.
    pub active_offsets: Vec<usize>,
    /// Path rows active at each step, step-major.
    pub active_rows_flat: Arc<[usize]>,
    /// Entity id per active row, aligned with `active_rows_flat`.
    pub active_ids_flat: Arc<[usize]>,
}

impl CompiledSteps {
    /// Assemble a schedule from its CSR parts.
    pub fn new(
        kinds: Vec<EntityKind>,
        active_offsets: Vec<usize>,
        active_rows_flat: Vec<usize>,
        active_ids_flat: Vec<usize>,
    ) -> Self {
        assert_eq!(active_offsets.len(), kinds.len() + 1, "CSR pointer length");
        assert_eq!(active_rows_flat.len(), active_ids_flat.len());
        debug_assert!(active_offsets.windows(2).all(|w| {
            active_rows_flat[w[0]..w[1]]
                .windows(2)
                .all(|rows| rows[0] < rows[1])
        }));
        Self {
            kinds,
            active_offsets,
            active_rows_flat: active_rows_flat.into(),
            active_ids_flat: active_ids_flat.into(),
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when there are no steps.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Number of active path rows at step `s` (steps with 0 are skipped).
    pub fn active(&self, s: usize) -> usize {
        self.active_offsets[s + 1] - self.active_offsets[s]
    }

    /// The active path rows of step `s`.
    pub fn active_rows(&self, s: usize) -> &[usize] {
        &self.active_rows_flat[self.active_offsets[s]..self.active_offsets[s + 1]]
    }

    /// The entity ids of the active rows of step `s`.
    pub fn active_ids(&self, s: usize) -> &[usize] {
        &self.active_ids_flat[self.active_offsets[s]..self.active_offsets[s + 1]]
    }

    /// [`CompiledSteps::active_rows`] as a refcounted window the tape stores
    /// without copying the indices.
    pub fn shared_active_rows(&self, s: usize) -> SharedIndices {
        SharedIndices::new(
            self.active_rows_flat.clone(),
            self.active_offsets[s],
            self.active_offsets[s + 1],
        )
    }

    /// [`CompiledSteps::active_ids`] as a refcounted window.
    pub fn shared_active_ids(&self, s: usize) -> SharedIndices {
        SharedIndices::new(
            self.active_ids_flat.clone(),
            self.active_offsets[s],
            self.active_offsets[s + 1],
        )
    }
}

/// Precomputed forward-pass inputs for one sample.
#[derive(Debug, Clone)]
pub struct SamplePlan {
    /// Number of paths (rows of `path_init` and of the prediction).
    pub n_paths: usize,
    /// Link state rows: the directed links on some routed path, in
    /// ascending topology id.
    pub num_links: usize,
    /// Node state rows: the nodes some routed path forwards through, in
    /// ascending topology id.
    pub num_nodes: usize,
    /// Queue state rows: the (link, class) queues some routed path of that
    /// class crosses, in ascending `link * num_classes + class` (0 for plain
    /// and single-class-FIFO plans — see the module docs).
    pub num_queues: usize,
    /// `(src, dst)` per path, aligned with rows.
    pub pairs: Vec<(usize, usize)>,
    /// Initial path states: `n_paths x state_dim` (traffic feature in col 0).
    pub path_init: Matrix,
    /// Initial link states: `num_links x state_dim` (capacity in col 0).
    pub link_init: Matrix,
    /// Initial node states: `num_nodes x state_dim` (queue size in col 0,
    /// tiny-queue indicator in col 1).
    pub node_init: Matrix,
    /// Initial queue states: `num_queues x state_dim` (scheduler share of
    /// the queue's class in col 0, priority rank in col 1). `0 x state_dim`
    /// for plans without queue entities.
    pub queue_init: Matrix,
    /// The message-passing schedule over the interleaved sequence (see the
    /// module docs); every model sweeps this one, visiting the entity kinds
    /// it owns a GRU for.
    pub schedule: CompiledSteps,
    /// Normalized regression targets, `n_paths x 1` (0.0 for unreliable rows).
    pub targets_norm: Matrix,
    /// Raw (denormalized) targets in seconds, aligned with rows.
    pub targets_raw: Vec<f64>,
    /// Rows whose labels are reliable enough to train/evaluate on.
    pub reliable_idx: Vec<usize>,
    /// Memoized structure fingerprint (see
    /// [`SamplePlan::structure_fingerprint`]): computed on first use, shared
    /// by clones. Covers only the shape-dependent parts of the plan, so it
    /// stays valid when features (targets, reliability) are edited in place.
    pub(crate) structure_fp: OnceLock<u64>,
    /// Lazily built `Arc` mirror of `reliable_idx` for the loss gather (the
    /// one index list that is a *feature*, rewritten by refill). Must be
    /// invalidated (reset to an empty cell) wherever `reliable_idx` is
    /// rewritten in place — feature refill, eval re-thresholding.
    pub(crate) reliable_shared: OnceLock<Arc<[usize]>>,
}

/// Options controlling plan construction.
///
/// Borrows the preprocessing state instead of owning it: plans are built once
/// per sample (often for hundreds of thousands of samples), and cloning the
/// fitted `FeatureScales`/`Normalizer` per sample was measurable overhead in
/// the planning pass.
#[derive(Debug, Clone)]
pub struct PlanConfig<'a> {
    /// Feature scaling (fitted on the training set).
    pub scales: &'a FeatureScales,
    /// Target normalizer (fitted on the training set).
    pub normalizer: &'a Normalizer,
    /// Entity state width.
    pub state_dim: usize,
    /// Minimum delivered packets for a label to count as reliable.
    pub min_packets: u64,
    /// Which label to regress.
    pub target: TargetKind,
}

impl<'a> PlanConfig<'a> {
    /// Plan options from a model configuration plus preprocessing state.
    pub fn new(
        config: &ModelConfig,
        scales: &'a FeatureScales,
        normalizer: &'a Normalizer,
    ) -> Self {
        Self {
            scales,
            normalizer,
            state_dim: config.state_dim,
            min_packets: 10,
            target: TargetKind::Delay,
        }
    }
}

/// State rows for the marked entities of one kind: `rows[id]` counts the
/// marked entities below `id`, which for a marked `id` is its row when the
/// marked ones are numbered densely in ascending id. Also returns how many
/// are marked.
fn rows_of(used: &[bool]) -> (Vec<usize>, usize) {
    let mut count = 0;
    let rows = used
        .iter()
        .map(|&u| {
            let row = count;
            count += usize::from(u);
            row
        })
        .collect();
    (rows, count)
}

/// Build the message-passing plan for one sample.
///
/// Entity ids in the sample are trusted to be in range; a sample from
/// outside the program goes through [`Sample::check_inputs`] first.
///
/// Panics if `state_dim < 2` (features need two leading columns).
pub fn build_plan(sample: &Sample, config: &PlanConfig) -> SamplePlan {
    assert!(config.state_dim >= 2, "state_dim must be at least 2");
    let d = config.state_dim;

    let paths: Vec<(usize, usize, &rn_netgraph::Path)> = sample.routing.iter_paths().collect();
    let n_paths = paths.len();
    assert_eq!(
        n_paths,
        sample.targets.len(),
        "targets misaligned with routing"
    );

    // One queue per (directed link, class); single-class FIFO degenerates to
    // the two-entity plan so those scenarios stay bitwise identical.
    let qos = sample.qos.as_ref().filter(|q| !q.is_single_class_fifo());
    let num_classes = qos.map_or(1, |q| q.num_classes());
    let queue_of = |row: usize, link: usize| {
        link * num_classes + qos.map_or(0, |q| q.path_classes[row] as usize)
    };

    // ---- Active subgraph -----------------------------------------------------
    // Mark what the routed paths cross and number it, so that the schedule
    // below is written once, with state rows for ids. A path forwards through
    // all its nodes but the destination: `zip` stops at the last link.
    let mut link_used = vec![false; sample.link_capacities.len()];
    let mut node_used = vec![false; sample.queue_capacities.len()];
    let mut queue_used = vec![false; qos.map_or(0, |_| link_used.len() * num_classes)];
    let mut max_hops = 0;
    for (row, (_, _, path)) in paths.iter().enumerate() {
        max_hops = max_hops.max(path.hop_count());
        for (&link, &node) in path.links.iter().zip(&path.nodes) {
            link_used[link] = true;
            node_used[node] = true;
            if qos.is_some() {
                queue_used[queue_of(row, link)] = true;
            }
        }
    }
    let (link_rows, num_links) = rows_of(&link_used);
    let (node_rows, num_nodes) = rows_of(&node_used);
    let (queue_rows, num_queues) = rows_of(&queue_used);

    // ---- Entity features -> initial states -------------------------------
    let mut path_init = Matrix::zeros(n_paths, d);
    for (row, &(s, dst, _)) in paths.iter().enumerate() {
        path_init.set(row, 0, config.scales.rate(sample.traffic.rate(s, dst)));
    }
    let mut link_init = Matrix::zeros(num_links, d);
    for (l, &cap) in sample.link_capacities.iter().enumerate() {
        if link_used[l] {
            link_init.set(link_rows[l], 0, config.scales.capacity(cap));
        }
    }
    let mut node_init = Matrix::zeros(num_nodes, d);
    for (n, &q) in sample.queue_capacities.iter().enumerate() {
        if node_used[n] {
            node_init.set(node_rows[n], 0, config.scales.queue(q));
            // Binary tiny-queue indicator: gives the model the same
            // categorical signal the scenario generator used.
            let is_tiny = if q <= 1 { 1.0 } else { 0.0 };
            node_init.set(node_rows[n], 1, is_tiny);
        }
    }
    let mut queue_init = Matrix::zeros(num_queues, d);
    if let Some(q) = qos {
        for (queue, &row) in queue_rows.iter().enumerate() {
            if queue_used[queue] {
                let class = queue % num_classes;
                // Col 0: the scheduler's long-run share of the link this
                // class is configured for (exact for WFQ/DRR, a rank proxy
                // for strict priority). Col 1: priority rank in (0, 1],
                // highest class first — disambiguates strict priority from
                // equal-share policies.
                queue_init.set(row, 0, q.policy.class_share(class, num_classes) as f32);
                queue_init.set(row, 1, 1.0 - class as f32 / num_classes as f32);
            }
        }
    }

    // ---- Sequence -----------------------------------------------------------
    // v0, l1, v1, l2, ..., v_{k-1}, l_k  (length 2k);
    // QoS plans: v0, q1, l1, v1, q2, l2, ...  (length 3k).
    let period = if qos.is_some() { 3 } else { 2 };
    let mut kinds = Vec::with_capacity(period * max_hops);
    let mut active_offsets = vec![0];
    let mut active_rows = Vec::new();
    let mut active_ids = Vec::new();
    for pos in 0..(period * max_hops) {
        let kind = match (pos % period, period) {
            (0, _) => EntityKind::Node,
            (1, 3) => EntityKind::Queue,
            _ => EntityKind::Link,
        };
        let hop = pos / period;
        for (row, (_, _, path)) in paths.iter().enumerate() {
            if hop < path.hop_count() {
                active_rows.push(row);
                active_ids.push(match kind {
                    EntityKind::Node => node_rows[path.nodes[hop]],
                    EntityKind::Link => link_rows[path.links[hop]],
                    EntityKind::Queue => queue_rows[queue_of(row, path.links[hop])],
                });
            }
        }
        kinds.push(kind);
        active_offsets.push(active_rows.len());
    }

    // ---- Targets -----------------------------------------------------------
    let mut targets_norm = Matrix::zeros(n_paths, 1);
    let mut targets_raw = vec![0.0; n_paths];
    let mut reliable_idx = Vec::new();
    for (row, t) in sample.targets.iter().enumerate() {
        let raw = match config.target {
            TargetKind::Delay => t.mean_delay_s,
            TargetKind::Jitter => t.jitter_s,
        };
        targets_raw[row] = raw;
        let positive_enough = !config.normalizer.log_space || raw > 0.0;
        if t.is_reliable(config.min_packets) && positive_enough {
            targets_norm.set(row, 0, config.normalizer.normalize(raw) as f32);
            reliable_idx.push(row);
        }
    }

    SamplePlan {
        n_paths,
        num_links,
        num_nodes,
        num_queues,
        pairs: paths.iter().map(|&(s, d2, _)| (s, d2)).collect(),
        path_init,
        link_init,
        node_init,
        queue_init,
        schedule: CompiledSteps::new(kinds, active_offsets, active_rows, active_ids),
        targets_norm,
        targets_raw,
        reliable_idx,
        structure_fp: OnceLock::new(),
        reliable_shared: OnceLock::new(),
    }
}

// ---------------------------------------------------------------------------
// Megabatching
// ---------------------------------------------------------------------------

/// `B` sample plans packed into one block-diagonal plan.
///
/// Entity ids of sample `b` are shifted by that sample's path/link/node
/// offsets, so the union plan runs through the *same* forward code as a
/// single sample: gathers and scatter-adds never cross sample boundaries,
/// matmuls grow `B`-fold taller (better kernel utilization), and one
/// parameter `bind()` is amortized over the whole pack. Positions past a
/// sample's sequence length have no active rows of that sample, so
/// predictions are identical to running each sample alone.
#[derive(Debug, Clone)]
pub struct MegabatchPlan {
    /// The fused plan; feed it to `forward` like any single-sample plan.
    pub plan: SamplePlan,
    /// Per-sample path row ranges `[start, end)` in the fused plan.
    pub path_ranges: Vec<(usize, usize)>,
    /// Per reliable row (aligned with `plan.reliable_idx`): `1 / r_s` where
    /// `r_s` is its sample's reliable-row count. Scaling these by
    /// `1 / num_reliable_samples` reproduces mean-of-per-sample-means loss.
    pub sample_mean_weights: Vec<f32>,
    /// Samples contributing at least one reliable row.
    pub reliable_samples: usize,
}

/// Why a megabatch could not be assembled. All variants are caller bugs in
/// a batch-training context, but a serving layer that admission-queues
/// arbitrary requests needs to reject them without tearing the process down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MegabatchError {
    /// The part list was empty: there is nothing to pack.
    EmptyBatch,
    /// Two parts were planned with different `state_dim`s and cannot share
    /// one forward pass. Carries `(expected, found)`.
    StateDimMismatch(usize, usize),
    /// Parts with incompatible sequence schedules — a two-entity part
    /// packed with a QoS queue-entity part — would need two different
    /// entity kinds at the carried sequence position. Batch QoS and plain
    /// samples separately.
    ScheduleMismatch(usize),
}

impl std::fmt::Display for MegabatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::EmptyBatch => write!(f, "build_megabatch: empty batch"),
            Self::StateDimMismatch(expected, found) => write!(
                f,
                "build_megabatch: state_dim mismatch (expected {expected}, found {found})"
            ),
            Self::ScheduleMismatch(pos) => write!(
                f,
                "build_megabatch: mixed legacy/QoS sequence schedules (entity kind \
                 conflict at position {pos})"
            ),
        }
    }
}

impl std::error::Error for MegabatchError {}

/// Pack `parts` into one block-diagonal [`MegabatchPlan`].
///
/// This *is* [`ComposedMegabatch::compose`](crate::compose::ComposedMegabatch::compose),
/// which is what makes a kept composition with refilled features
/// **bitwise identical** to it by construction rather than by test alone.
/// Panics where `compose` returns a [`MegabatchError`]; call that where an
/// empty or mixed batch is a runtime condition (e.g. a serving queue)
/// rather than a caller bug.
///
/// # Example
///
/// Plan two simulated scenarios and pack them into one megabatch whose
/// entity spaces are the samples stacked block-diagonally:
///
/// ```
/// use rn_dataset::{generate, GeneratorConfig, Normalizer};
/// use rn_netsim::SimConfig;
/// use routenet::entities::{build_megabatch, build_plan, PlanConfig, TargetKind};
/// use routenet::FeatureScales;
///
/// let gen = GeneratorConfig {
///     sim: SimConfig { duration_s: 30.0, warmup_s: 5.0, ..SimConfig::default() },
///     ..GeneratorConfig::default()
/// };
/// let ds = generate(&rn_netgraph::topologies::toy5(), &gen, 7, 2);
/// let (scales, normalizer) = (FeatureScales::unit(), Normalizer::identity());
/// let cfg = PlanConfig {
///     scales: &scales,
///     normalizer: &normalizer,
///     state_dim: 8,
///     min_packets: 1,
///     target: TargetKind::Delay,
/// };
/// let plans: Vec<_> = ds.samples.iter().map(|s| build_plan(s, &cfg)).collect();
/// let parts: Vec<_> = plans.iter().collect();
///
/// let mb = build_megabatch(&parts);
/// assert_eq!(mb.plan.n_paths, plans[0].n_paths + plans[1].n_paths);
/// assert_eq!(mb.path_ranges.len(), 2);
/// ```
pub fn build_megabatch(parts: &[&SamplePlan]) -> MegabatchPlan {
    match crate::compose::ComposedMegabatch::compose(parts) {
        Ok(composed) => composed.into_plan(),
        Err(e) => panic!("{e}"),
    }
}

/// Copy all of `src`'s rows into `dst` starting at row `at`.
pub(crate) fn copy_rows(dst: &mut Matrix, at: usize, src: &Matrix) {
    for r in 0..src.rows() {
        dst.row_mut(at + r).copy_from_slice(src.row(r));
    }
}

impl SamplePlan {
    /// Refcounted view of [`SamplePlan::reliable_idx`] — what the loss
    /// gather hands the tape instead of a slice to copy.
    pub fn reliable_idx_shared(&self) -> SharedIndices {
        SharedIndices::full(
            self.reliable_shared
                .get_or_init(|| self.reliable_idx.as_slice().into())
                .clone(),
        )
    }

    /// Normalized targets restricted to reliable rows, as a column matrix.
    pub fn reliable_targets_norm(&self) -> Matrix {
        self.targets_norm.gather_rows(&self.reliable_idx)
    }

    /// A human-readable trace of the message-passing schedule for the first
    /// `max_paths` paths — the machine-checkable counterpart of the paper's
    /// Figure 1.
    pub fn schedule_trace(&self, max_paths: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "extended message passing: {} paths, {} links, {} nodes, {} sequence steps\n",
            self.n_paths,
            self.num_links,
            self.num_nodes,
            self.schedule.len()
        ));
        for (row, &(s, d)) in self.pairs.iter().take(max_paths).enumerate() {
            out.push_str(&format!("path {row} ({s} -> {d}): "));
            let mut parts = Vec::new();
            for step in 0..self.schedule.len() {
                if let Ok(k) = self.schedule.active_rows(step).binary_search(&row) {
                    let id = self.schedule.active_ids(step)[k];
                    parts.push(match self.schedule.kinds[step] {
                        EntityKind::Node => format!("RNN_P<-node{id}"),
                        EntityKind::Link => format!("RNN_P<-link{id}"),
                        EntityKind::Queue => format!("RNN_P<-queue{id}"),
                    });
                }
            }
            out.push_str(&parts.join(" "));
            out.push('\n');
        }
        out.push_str("aggregation: msg(path,pos)->link via RNN_L; msg(path,pos)->node via RNN_N\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_dataset::{generate, GeneratorConfig, Normalizer};
    use rn_netgraph::topologies;
    use rn_netsim::SimConfig;

    fn toy_sample() -> (rn_netgraph::Topology, Sample) {
        let topo = topologies::toy5();
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 60.0,
                warmup_s: 10.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        };
        let mut ds = generate(&topo, &config, 31, 1);
        (topo, ds.samples.pop().unwrap())
    }

    /// Owned preprocessing state the borrowed `PlanConfig` points into.
    fn preprocessing(ds_delays: &[f64]) -> (FeatureScales, Normalizer) {
        (FeatureScales::unit(), Normalizer::fit(ds_delays, true))
    }

    /// The entity id path `row` reads at schedule step `step`, if the path
    /// has that position.
    fn id_at(plan: &SamplePlan, step: usize, row: usize) -> Option<usize> {
        let k = plan.schedule.active_rows(step).binary_search(&row).ok()?;
        Some(plan.schedule.active_ids(step)[k])
    }

    /// The schedule steps of one entity kind, in order.
    fn steps_of(plan: &SamplePlan, kind: EntityKind) -> Vec<usize> {
        (0..plan.schedule.len())
            .filter(|&s| plan.schedule.kinds[s] == kind)
            .collect()
    }

    fn plan_config<'a>(prep: &'a (FeatureScales, Normalizer)) -> PlanConfig<'a> {
        PlanConfig {
            scales: &prep.0,
            normalizer: &prep.1,
            state_dim: 8,
            min_packets: 5,
            target: TargetKind::Delay,
        }
    }

    #[test]
    fn plan_shapes_are_consistent() {
        let (topo, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        assert_eq!(plan.n_paths, 20);
        assert_eq!(plan.num_links, topo.num_links());
        assert_eq!(plan.num_nodes, 5);
        assert_eq!(plan.path_init.shape(), (20, 8));
        assert_eq!(plan.link_init.shape(), (topo.num_links(), 8));
        assert_eq!(plan.node_init.shape(), (5, 8));
        assert_eq!(plan.targets_norm.shape(), (20, 1));
    }

    #[test]
    fn extended_sequence_alternates_node_link() {
        let (_, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        for (i, &kind) in plan.schedule.kinds.iter().enumerate() {
            let expected = if i % 2 == 0 {
                EntityKind::Node
            } else {
                EntityKind::Link
            };
            assert_eq!(kind, expected, "position {i}");
        }
        let max_hops = sample.routing.iter_paths().map(|(_, _, p)| p.hop_count());
        assert_eq!(plan.schedule.len(), 2 * max_hops.max().unwrap());
    }

    #[test]
    fn sequences_match_paths() {
        let (_, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        let link_steps = steps_of(&plan, EntityKind::Link);
        for (row, (s, d, path)) in sample.routing.iter_paths().enumerate() {
            assert_eq!(plan.pairs[row], (s, d));
            // Node at even 2*h, the traversed link at odd 2*h+1.
            for (h, &l) in path.links.iter().enumerate() {
                assert_eq!(id_at(&plan, 2 * h, row), Some(path.nodes[h]));
                assert_eq!(id_at(&plan, 2 * h + 1, row), Some(l));
                // The links-only sequence is the Link steps: link at hop h.
                assert_eq!(id_at(&plan, link_steps[h], row), Some(l));
            }
            // Positions past the path length carry no row of this path.
            for pos in (2 * path.hop_count())..plan.schedule.len() {
                assert_eq!(id_at(&plan, pos, row), None);
            }
        }
        // Active counts: the paths long enough to have the position; the
        // first position involves every path (every path has >= 1 hop).
        for pos in 0..plan.schedule.len() {
            let long_enough = sample.routing.iter_paths();
            let expected = long_enough.filter(|(_, _, p)| pos / 2 < p.hop_count());
            assert_eq!(plan.schedule.active(pos), expected.count());
        }
        assert_eq!(plan.schedule.active(0), plan.n_paths);
    }

    fn toy_qos_sample() -> (rn_netgraph::Topology, Sample) {
        let topo = topologies::toy5();
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 30.0,
                warmup_s: 5.0,
                ..SimConfig::default()
            },
            qos: Some(rn_dataset::QosGenConfig::two_class_mix()),
            ..GeneratorConfig::default()
        };
        let mut ds = generate(&topo, &config, 41, 1);
        (topo, ds.samples.pop().unwrap())
    }

    #[test]
    fn qos_plan_builds_three_entity_sequence() {
        let (topo, sample) = toy_qos_sample();
        let qos = sample.qos.clone().unwrap();
        let n = qos.num_classes();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));

        // One queue row per (link, class) pair some path of that class
        // crosses — on a full mesh every link is crossed, not every pair.
        let mut crossed: Vec<usize> = sample
            .routing
            .iter_paths()
            .enumerate()
            .flat_map(|(row, (_, _, path))| {
                let class = qos.path_classes[row] as usize;
                path.links.iter().map(move |&l| l * n + class)
            })
            .collect();
        crossed.sort_unstable();
        crossed.dedup();
        assert_eq!(plan.num_links, topo.num_links());
        assert_eq!(plan.num_queues, crossed.len());
        assert!(plan.num_queues <= topo.num_links() * n);
        assert_eq!(plan.queue_init.shape(), (plan.num_queues, 8));
        assert_eq!(
            plan.schedule.len(),
            3 * steps_of(&plan, EntityKind::Link).len()
        );
        for (i, &kind) in plan.schedule.kinds.iter().enumerate() {
            let expected = match i % 3 {
                0 => EntityKind::Node,
                1 => EntityKind::Queue,
                _ => EntityKind::Link,
            };
            assert_eq!(kind, expected, "position {i}");
        }
        // Queue ids address the row of each hop's (link, class) queue: its
        // rank among the crossed pairs. Its features are the class's
        // scheduler share and priority rank.
        for (row, (_, _, path)) in sample.routing.iter_paths().enumerate() {
            let class = qos.path_classes[row] as usize;
            for (h, &l) in path.links.iter().enumerate() {
                let queue = id_at(&plan, 3 * h + 1, row).expect("path has the hop");
                assert_eq!(
                    Ok(queue),
                    crossed.binary_search(&(l * n + class)),
                    "row {row} hop {h}"
                );
                assert_eq!(
                    plan.queue_init.get(queue, 0),
                    qos.policy.class_share(class, n) as f32
                );
                assert_eq!(plan.queue_init.get(queue, 1), 1.0 - class as f32 / n as f32);
                assert_eq!(id_at(&plan, 3 * h, row), Some(path.nodes[h]));
                assert_eq!(id_at(&plan, 3 * h + 2, row), Some(l));
            }
        }
        // Scheduler shares over the classes sum to 1, ranks descend.
        let share: f64 = (0..n).map(|c| qos.policy.class_share(c, n)).sum();
        assert!((share - 1.0).abs() < 1e-5, "share sum {share}");
    }

    #[test]
    fn single_class_fifo_qos_plan_matches_plain_plan_exactly() {
        let (_, sample) = toy_sample();
        let mut fifo = sample.clone();
        fifo.qos = Some(rn_dataset::SampleQos {
            policy: rn_netsim::SchedulingPolicy::Fifo,
            class_profiles: vec![rn_netsim::TrafficProfile::Poisson],
            path_classes: vec![0; sample.targets.len()],
            class_targets: rn_netsim::ClassStats::from_accumulators(
                &vec![Default::default(); sample.targets.len()],
                &vec![0; sample.targets.len()],
                1,
            ),
        });
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let cfg = plan_config(&prep);
        let legacy = build_plan(&sample, &cfg);
        let degenerate = build_plan(&fifo, &cfg);

        assert_eq!(degenerate.num_queues, 0);
        assert_eq!(degenerate.queue_init.shape(), (0, 8));
        assert_eq!(degenerate.schedule, legacy.schedule);
        assert!(legacy.path_init.approx_eq(&degenerate.path_init, 0.0));
        assert!(legacy.link_init.approx_eq(&degenerate.link_init, 0.0));
        assert!(legacy.node_init.approx_eq(&degenerate.node_init, 0.0));
    }

    #[test]
    fn node_positions_exclude_destination() {
        let (_, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        let schedule = &plan.schedule;
        for (row, (_, dst, path)) in sample.routing.iter_paths().enumerate() {
            let visited: Vec<usize> = (0..schedule.len())
                .filter(|&s| schedule.kinds[s] == EntityKind::Node)
                .flat_map(|s| schedule.active_rows(s).iter().zip(schedule.active_ids(s)))
                .filter(|&(&p, _)| p == row)
                .map(|(_, &n)| n)
                .collect();
            assert_eq!(visited.len(), path.hop_count());
            assert!(!visited.contains(&dst), "destination must not forward");
            assert_eq!(visited[0], path.src());
        }
    }

    #[test]
    fn node_features_encode_queue_size() {
        let (_, mut sample) = toy_sample();
        sample.queue_capacities = vec![32, 1, 32, 1, 32];
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        assert_eq!(plan.node_init.get(0, 0), 32.0);
        assert_eq!(plan.node_init.get(0, 1), 0.0);
        assert_eq!(plan.node_init.get(1, 0), 1.0);
        assert_eq!(plan.node_init.get(1, 1), 1.0, "tiny flag set");
    }

    #[test]
    fn unreliable_paths_are_excluded() {
        let (_, mut sample) = toy_sample();
        sample.targets[3].delivered = 0;
        sample.targets[3].mean_delay_s = 0.0;
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .filter(|t| t.mean_delay_s > 0.0)
            .map(|t| t.mean_delay_s)
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        assert!(!plan.reliable_idx.contains(&3));
        assert_eq!(plan.targets_norm.get(3, 0), 0.0);
    }

    #[test]
    fn normalized_targets_round_trip() {
        let (_, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let cfg = plan_config(&prep);
        let plan = build_plan(&sample, &cfg);
        for &i in &plan.reliable_idx {
            let raw_back = cfg
                .normalizer
                .denormalize(plan.targets_norm.get(i, 0) as f64);
            let rel = (raw_back - plan.targets_raw[i]).abs() / plan.targets_raw[i];
            assert!(rel < 1e-5, "row {i}: {raw_back} vs {}", plan.targets_raw[i]);
        }
    }

    #[test]
    fn megabatch_is_block_diagonal() {
        let topo = topologies::toy5();
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 60.0,
                warmup_s: 10.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        };
        let ds = generate(&topo, &config, 33, 3);
        let delays: Vec<f64> = ds
            .samples
            .iter()
            .flat_map(|s| s.targets.iter().map(|t| t.mean_delay_s.max(1e-6)))
            .collect();
        let prep = preprocessing(&delays);
        let cfg = plan_config(&prep);
        let plans: Vec<SamplePlan> = ds.samples.iter().map(|s| build_plan(s, &cfg)).collect();
        let parts: Vec<&SamplePlan> = plans.iter().collect();
        let mb = build_megabatch(&parts);

        assert_eq!(mb.plan.n_paths, 3 * plans[0].n_paths);
        assert_eq!(mb.plan.num_links, 3 * plans[0].num_links);
        assert_eq!(mb.plan.num_nodes, 15);
        assert_eq!(mb.path_ranges.len(), 3);
        assert_eq!(mb.sample_mean_weights.len(), mb.plan.reliable_idx.len());

        // Ids stay inside each sample's entity block (block-diagonality).
        for (b, p) in plans.iter().enumerate() {
            let link_base: usize = plans[..b].iter().map(|q| q.num_links).sum();
            let node_base: usize = plans[..b].iter().map(|q| q.num_nodes).sum();
            let queue_base: usize = plans[..b].iter().map(|q| q.num_queues).sum();
            let (row_lo, row_hi) = mb.path_ranges[b];
            for pos in 0..mb.plan.schedule.len() {
                let base = match mb.plan.schedule.kinds[pos] {
                    EntityKind::Link => link_base,
                    EntityKind::Node => node_base,
                    EntityKind::Queue => queue_base,
                };
                for row in row_lo..row_hi {
                    let local = (pos < p.schedule.len())
                        .then(|| id_at(p, pos, row - row_lo))
                        .flatten();
                    assert_eq!(
                        id_at(&mb.plan, pos, row),
                        local.map(|id| base + id),
                        "step {pos} row {row}"
                    );
                }
            }
            // Targets and reliability line up with offsets.
            for &i in &p.reliable_idx {
                assert!(mb.plan.reliable_idx.contains(&(row_lo + i)));
            }
            for row in 0..p.n_paths {
                assert_eq!(mb.plan.targets_raw[row_lo + row], p.targets_raw[row]);
            }
        }

        // Weights of each sample's rows sum to 1 (per-sample mean semantics).
        for (b, p) in plans.iter().enumerate() {
            if p.reliable_idx.is_empty() {
                continue;
            }
            let (row_lo, row_hi) = mb.path_ranges[b];
            let sum: f32 = mb
                .plan
                .reliable_idx
                .iter()
                .zip(&mb.sample_mean_weights)
                .filter(|(&i, _)| i >= row_lo && i < row_hi)
                .map(|(_, &w)| w)
                .sum();
            assert!((sum - 1.0).abs() < 1e-5, "sample {b} weight sum {sum}");
        }
    }

    #[test]
    fn empty_megabatch_is_an_error_not_a_panic() {
        assert_eq!(
            crate::compose::ComposedMegabatch::compose(&[]).unwrap_err(),
            MegabatchError::EmptyBatch
        );
        let msg = MegabatchError::EmptyBatch.to_string();
        assert!(msg.contains("empty batch"), "{msg}");
    }

    #[test]
    fn megabatch_state_dim_mismatch_is_an_error() {
        let (_, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let mut cfg = plan_config(&prep);
        let plan_a = build_plan(&sample, &cfg);
        cfg.state_dim = 16;
        let plan_b = build_plan(&sample, &cfg);
        assert_eq!(
            crate::compose::ComposedMegabatch::compose(&[&plan_a, &plan_b]).unwrap_err(),
            MegabatchError::StateDimMismatch(8, 16)
        );
    }

    #[test]
    fn schedule_trace_mentions_all_rnns() {
        let (_, sample) = toy_sample();
        let delays: Vec<f64> = sample
            .targets
            .iter()
            .map(|t| t.mean_delay_s.max(1e-6))
            .collect();
        let prep = preprocessing(&delays);
        let plan = build_plan(&sample, &plan_config(&prep));
        let trace = plan.schedule_trace(3);
        assert!(trace.contains("RNN_P<-node"));
        assert!(trace.contains("RNN_P<-link"));
        assert!(trace.contains("RNN_L"));
        assert!(trace.contains("RNN_N"));
    }
}
