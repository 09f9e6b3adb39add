//! The megabatch **composition layer**: packing `B` sample plans into one
//! block-diagonal plan, rewriting a composition's features in place, and the
//! LRU cache of compositions the serving workers share.
//!
//! A batch of independent sample graphs is itself a sample graph whose path,
//! link, node and queue sets are the disjoint unions of the parts', which is
//! why the forward pass takes a [`SamplePlan`] either way. What a
//! composition holds falls into two kinds of field:
//!
//! - **shape-dependent** — the merged block-diagonal schedule (per-step
//!   compaction lists), pairs, incidences and per-part path ranges, every
//!   id shifted into the union spaces. The expensive part, and a pure
//!   function of the parts' ordered [structure
//!   fingerprints](crate::entities::SamplePlan::structure_fingerprint).
//! - **per-batch** — the stacked initial state matrices, targets,
//!   reliability indices and loss weights: O(rows × state_dim) copies.
//!
//! [`ComposedMegabatch::compose`] builds the shape-dependent fields into a
//! [`MegabatchPlan`] and fills the per-batch ones through the one feature
//! writer; [`ComposedMegabatch::refill_features`] calls that same writer on
//! a kept composition, for a new batch with the same ordered structure. A
//! refilled composition is therefore bitwise identical to a fresh
//! [`build_megabatch`](crate::entities::build_megabatch) (which *is*
//! `compose`) by construction; `tests/composed_equivalence.rs` pins this
//! down, across model hot-swaps too.
//!
//! The trainer composes each batch once and keeps it (membership is fixed
//! for the run), so it never refills. [`CompositionCache`] has one user,
//! `rn_serve`: keyed by the ordered tuple of per-sample structure
//! fingerprints, entries are **checked out** (removed) for exclusive refill
//! and use, and published back afterwards, so concurrent workers never
//! contend on a shared composition's buffers.

use crate::entities::{
    copy_rows, CompiledSteps, EntityKind, MegabatchError, MegabatchPlan, SamplePlan,
};
use crate::lru::Lru;
use crate::plan_cache::Fingerprint;
use rn_tensor::Matrix;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};

// ---------------------------------------------------------------------------
// Composition + refill
// ---------------------------------------------------------------------------

/// One part's `(n_paths, num_links, num_nodes, num_queues)`.
type PartDims = (usize, usize, usize, usize);

/// Prefix sums over the parts' entity counts: entry `b` is where part `b`'s
/// path / link / node / queue rows start in the union spaces, and the entry
/// past the last part is the union's totals.
fn part_offsets(part_dims: &[PartDims]) -> Vec<PartDims> {
    let mut at = (0, 0, 0, 0);
    let mut offsets = vec![at];
    for dims in part_dims {
        at = (at.0 + dims.0, at.1 + dims.1, at.2 + dims.2, at.3 + dims.3);
        offsets.push(at);
    }
    offsets
}

/// Write every per-batch field of `mb` from `parts`, fully overwriting the
/// matrices (every row belongs to exactly one part, so no stale value
/// survives) and rebuilding the per-row vectors. The one feature writer:
/// fresh composition and in-place refill both end here, so the two cannot
/// drift apart (this is what makes a refilled composition bitwise identical
/// to a fresh build).
fn write_features(mb: &mut MegabatchPlan, part_dims: &[PartDims], parts: &[&SamplePlan]) {
    let plan = &mut mb.plan;
    // `reliable_idx` is rewritten in place under any previously built
    // shared mirror; drop the stale cell.
    plan.reliable_shared = OnceLock::new();
    plan.targets_raw.clear();
    plan.reliable_idx.clear();
    mb.sample_mean_weights.clear();
    mb.reliable_samples = 0;
    for (p, (path_at, link_at, node_at, queue_at)) in parts.iter().zip(part_offsets(part_dims)) {
        copy_rows(&mut plan.path_init, path_at, &p.path_init);
        copy_rows(&mut plan.link_init, link_at, &p.link_init);
        copy_rows(&mut plan.node_init, node_at, &p.node_init);
        copy_rows(&mut plan.queue_init, queue_at, &p.queue_init);
        copy_rows(&mut plan.targets_norm, path_at, &p.targets_norm);
        plan.targets_raw.extend_from_slice(&p.targets_raw);
        let r_s = p.reliable_idx.len();
        if r_s > 0 {
            mb.reliable_samples += 1;
        }
        for &i in &p.reliable_idx {
            plan.reliable_idx.push(path_at + i);
            mb.sample_mean_weights.push(1.0 / r_s as f32);
        }
    }
}

/// `B` sample plans composed into the [`MegabatchPlan`] the fused
/// forward/backward consumes, with what
/// [`refill_features`](ComposedMegabatch::refill_features) checks a new
/// batch against before rewriting the feature fields in place.
#[derive(Debug)]
pub struct ComposedMegabatch {
    /// Ordered per-part structure fingerprints (the cache key).
    part_fps: Vec<u64>,
    /// Per-part entity counts: the cheap release-mode sanity check refill
    /// runs before trusting a fingerprint match, and where its rows start.
    part_dims: Vec<PartDims>,
    /// The composed plan. Shape-dependent fields are immutable after
    /// composition; feature fields are rewritten by
    /// [`ComposedMegabatch::refill_features`].
    mb: MegabatchPlan,
}

impl ComposedMegabatch {
    /// Compose `parts` into one block-diagonal megabatch — what a fresh
    /// [`build_megabatch`](crate::entities::build_megabatch) does (that
    /// function is implemented as this call).
    pub fn compose(parts: &[&SamplePlan]) -> Result<Self, MegabatchError> {
        if parts.is_empty() {
            return Err(MegabatchError::EmptyBatch);
        }
        let state_dim = parts[0].path_init.cols();
        if let Some(p) = parts.iter().find(|p| p.path_init.cols() != state_dim) {
            let found = p.path_init.cols();
            return Err(MegabatchError::StateDimMismatch(state_dim, found));
        }
        let part_dims: Vec<PartDims> = parts
            .iter()
            .map(|p| (p.n_paths, p.num_links, p.num_nodes, p.num_queues))
            .collect();
        let offsets = part_offsets(&part_dims);
        let (n_paths, num_links, num_nodes, num_queues) = offsets[parts.len()];

        // Steps run to the longest sequence in the pack; rows and ids are
        // shifted into the union spaces and appended part by part, which
        // keeps every step's active rows ascending. The entity kind at each
        // position is whatever the parts carrying the position agree on —
        // two-entity parts alternate node/link, QoS parts cycle
        // node/queue/link — and a disagreement (mixed parts) is unbatchable:
        // the merged step would need two kinds.
        let max_len = parts.iter().map(|p| p.schedule.len()).max().unwrap_or(0);
        let mut kinds = Vec::with_capacity(max_len);
        let mut active_offsets = Vec::with_capacity(max_len + 1);
        let mut active_rows = Vec::new();
        let mut active_ids = Vec::new();
        active_offsets.push(0);
        for pos in 0..max_len {
            let mut carried = parts.iter().filter_map(|p| p.schedule.kinds.get(pos));
            let kind = *carried.next().expect("pos < max_len");
            if carried.any(|&k| k != kind) {
                return Err(MegabatchError::ScheduleMismatch(pos));
            }
            for (p, &(path_at, link_at, node_at, queue_at)) in parts.iter().zip(&offsets) {
                if pos >= p.schedule.len() {
                    continue;
                }
                let id_at = match kind {
                    EntityKind::Link => link_at,
                    EntityKind::Node => node_at,
                    EntityKind::Queue => queue_at,
                };
                active_rows.extend(p.schedule.active_rows(pos).iter().map(|r| path_at + r));
                active_ids.extend(p.schedule.active_ids(pos).iter().map(|id| id_at + id));
            }
            kinds.push(kind);
            active_offsets.push(active_rows.len());
        }

        // Pairs, incidences and row ranges live in the union id space.
        let mut node_incidence_paths = Vec::new();
        let mut node_incidence_nodes = Vec::new();
        let mut pairs = Vec::with_capacity(n_paths);
        let mut path_ranges = Vec::with_capacity(parts.len());
        for (p, &(path_at, _, node_at, _)) in parts.iter().zip(&offsets) {
            for (&pi, &ni) in p.node_incidence_paths.iter().zip(&p.node_incidence_nodes) {
                node_incidence_paths.push(path_at + pi);
                node_incidence_nodes.push(node_at + ni);
            }
            for &(s, d) in &p.pairs {
                pairs.push((node_at + s, node_at + d));
            }
            path_ranges.push((path_at, path_at + p.n_paths));
        }

        // Feature fields start zeroed and empty; the writer fills them.
        let mut composed = Self {
            part_fps: parts.iter().map(|p| p.structure_fingerprint()).collect(),
            part_dims,
            mb: MegabatchPlan {
                plan: SamplePlan {
                    n_paths,
                    num_links,
                    num_nodes,
                    num_queues,
                    pairs,
                    path_init: Matrix::zeros(n_paths, state_dim),
                    link_init: Matrix::zeros(num_links, state_dim),
                    node_init: Matrix::zeros(num_nodes, state_dim),
                    queue_init: Matrix::zeros(num_queues, state_dim),
                    schedule: CompiledSteps::new(kinds, active_offsets, active_rows, active_ids),
                    node_incidence_paths,
                    node_incidence_nodes,
                    targets_norm: Matrix::zeros(n_paths, 1),
                    targets_raw: Vec::with_capacity(n_paths),
                    reliable_idx: Vec::new(),
                    structure_fp: OnceLock::new(),
                    reliable_shared: OnceLock::new(),
                },
                path_ranges,
                sample_mean_weights: Vec::new(),
                reliable_samples: 0,
            },
        };
        write_features(&mut composed.mb, &composed.part_dims, parts);
        Ok(composed)
    }

    /// Rewrite the feature fields in place for a new batch with the **same
    /// ordered structure** (fingerprints are checked; a mismatch is a caller
    /// bug and panics). The rewritten plan is bitwise identical to a fresh
    /// `build_megabatch` over `parts`: the writer is the same function
    /// `compose` runs, the structure was compiled by the same code, and
    /// matrices are fully overwritten row by row.
    ///
    /// # Example
    ///
    /// A feature-only change (here: scaled link capacities) keeps the
    /// structure fingerprint, so a cached composition refills in place and
    /// reproduces a fresh build bit for bit:
    ///
    /// ```
    /// use rn_dataset::{generate, GeneratorConfig, Normalizer};
    /// use rn_netsim::SimConfig;
    /// use routenet::compose::ComposedMegabatch;
    /// use routenet::entities::{build_megabatch, build_plan, PlanConfig, TargetKind};
    /// use routenet::FeatureScales;
    ///
    /// let gen = GeneratorConfig {
    ///     sim: SimConfig { duration_s: 30.0, warmup_s: 5.0, ..SimConfig::default() },
    ///     ..GeneratorConfig::default()
    /// };
    /// let ds = generate(&rn_netgraph::topologies::toy5(), &gen, 9, 2);
    /// let (scales, normalizer) = (FeatureScales::unit(), Normalizer::identity());
    /// let cfg = PlanConfig {
    ///     scales: &scales,
    ///     normalizer: &normalizer,
    ///     state_dim: 8,
    ///     min_packets: 1,
    ///     target: TargetKind::Delay,
    /// };
    /// let plans_a: Vec<_> = ds.samples.iter().map(|s| build_plan(s, &cfg)).collect();
    /// // Same topology/routing/queues, different features: structure match.
    /// let perturbed: Vec<_> = ds
    ///     .samples
    ///     .iter()
    ///     .map(|s| {
    ///         let mut s = s.clone();
    ///         for c in &mut s.link_capacities {
    ///             *c *= 1.25;
    ///         }
    ///         s
    ///     })
    ///     .collect();
    /// let plans_b: Vec<_> = perturbed.iter().map(|s| build_plan(s, &cfg)).collect();
    /// let parts_a: Vec<_> = plans_a.iter().collect();
    /// let parts_b: Vec<_> = plans_b.iter().collect();
    ///
    /// let mut composed = ComposedMegabatch::compose(&parts_a).unwrap();
    /// composed.refill_features(&parts_b);
    /// let fresh = build_megabatch(&parts_b);
    /// // Bitwise identical to building from scratch (0.0 tolerance).
    /// assert!(composed.plan().link_init.approx_eq(&fresh.plan.link_init, 0.0));
    /// assert!(composed.plan().targets_norm.approx_eq(&fresh.plan.targets_norm, 0.0));
    /// ```
    pub fn refill_features(&mut self, parts: &[&SamplePlan]) {
        assert_eq!(
            parts.len(),
            self.part_fps.len(),
            "refill_features: part count changed"
        );
        let state_dim = self.mb.plan.path_init.cols();
        for (b, p) in parts.iter().enumerate() {
            assert_eq!(
                (p.n_paths, p.num_links, p.num_nodes, p.num_queues),
                self.part_dims[b],
                "refill_features: part {b} entity counts diverge from the cached structure"
            );
            assert_eq!(
                p.path_init.cols(),
                state_dim,
                "refill_features: part {b} state width diverges"
            );
            assert_eq!(
                p.structure_fingerprint(),
                self.part_fps[b],
                "refill_features: part {b} structure fingerprint diverges"
            );
        }
        write_features(&mut self.mb, &self.part_dims, parts);
    }

    /// The composed megabatch, ready for the fused forward/backward.
    pub fn megabatch(&self) -> &MegabatchPlan {
        &self.mb
    }

    /// The fused plan (shorthand for `megabatch().plan`).
    pub fn plan(&self) -> &SamplePlan {
        &self.mb.plan
    }

    /// The ordered per-part structure fingerprints (the cache key).
    pub fn key(&self) -> &[u64] {
        &self.part_fps
    }

    /// Unwrap into the plain [`MegabatchPlan`] (drops the refill metadata).
    pub fn into_plan(self) -> MegabatchPlan {
        self.mb
    }
}

// ---------------------------------------------------------------------------
// Composition cache
// ---------------------------------------------------------------------------

/// Cap on distinct shapes tracked for the batch-shape histogram; beyond it
/// new shapes fold into an overflow bucket so a pathological workload cannot
/// grow the stats map without bound.
const MAX_TRACKED_SHAPES: usize = 128;

/// One batch-shape histogram row: how many batches were requested with the
/// shape whose composition-key hash is `shape`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ShapeCount {
    /// FNV hash of the ordered structure-fingerprint tuple (0 = the
    /// overflow bucket for shapes beyond the tracking cap).
    pub shape: u64,
    /// Batches requested with this shape.
    pub batches: u64,
}

/// What one checkout updates together, under one lock.
struct CacheInner {
    lru: Lru<Vec<u64>, ComposedMegabatch>,
    /// Batch-shape histogram: key hash → times requested (hit or miss).
    shape_uses: HashMap<u64, u64>,
}

/// Thread-safe LRU cache of [`ComposedMegabatch`]es keyed by the ordered
/// tuple of per-sample structure fingerprints.
///
/// Entries are **checked out** — removed — on a hit, refilled and used by
/// exactly one worker, then published back. Two workers racing on the same
/// shape simply compose twice and the later publish wins; correctness never
/// depends on the cache, only steady-state cost does. Keys are exact
/// (`Vec<u64>` equality), so a cache hit can only pair plans whose
/// *individual* structure fingerprints collide — and refill re-checks entity
/// counts besides.
pub struct CompositionCache {
    inner: Mutex<CacheInner>,
}

impl CompositionCache {
    /// Cache holding at most `capacity` compositions (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                lru: Lru::new(capacity),
                shape_uses: HashMap::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().expect("composition cache poisoned")
    }

    /// The cache key for an ordered batch of plans.
    pub fn key_of(parts: &[&SamplePlan]) -> Vec<u64> {
        parts.iter().map(|p| p.structure_fingerprint()).collect()
    }

    /// Hash a composition key into the single `u64` the shape histogram
    /// reports (FNV over the ordered fingerprints).
    fn shape_hash(key: &[u64]) -> u64 {
        let mut fp = Fingerprint::new();
        fp.usize(key.len());
        for &k in key {
            fp.u64(k);
        }
        fp.finish()
    }

    /// Take the composition for `key` out of the cache (exclusive use);
    /// `None` on a miss. Either way the request is counted in the hit/miss
    /// totals and the shape histogram.
    pub fn checkout(&self, key: &[u64]) -> Option<ComposedMegabatch> {
        let mut inner = self.lock();
        let shape = Self::shape_hash(key);
        let tracked = inner.shape_uses.len();
        let slot = if inner.shape_uses.contains_key(&shape) || tracked < MAX_TRACKED_SHAPES {
            shape
        } else {
            0 // overflow bucket
        };
        *inner.shape_uses.entry(slot).or_insert(0) += 1;
        inner.lru.take(key)
    }

    /// Put a composition (back) into the cache under its own key, evicting
    /// the least-recently-used entry when full.
    pub fn publish(&self, composed: ComposedMegabatch) {
        let key = composed.key().to_vec();
        self.lock().lru.insert(key, composed);
    }

    /// Compositions currently resident.
    pub fn len(&self) -> usize {
        self.lock().lru.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every resident composition (counters keep their totals).
    pub fn clear(&self) {
        self.lock().lru.clear();
    }

    /// Drop every resident composition whose entity state width differs
    /// from `state_dim` — the model hot-swap hygiene hook. Same-width
    /// compositions survive a swap usefully (structure is
    /// preprocessing-independent and features are refilled per batch), but
    /// a resized model orphans old-width entries: their keys embed the old
    /// width's fingerprints and can never be checked out again, so without
    /// this purge they would squat in the cache until capacity pressure
    /// happens to evict them.
    pub fn retain_width(&self, state_dim: usize) {
        self.lock()
            .lru
            .retain(|composed| composed.plan().path_init.cols() == state_dim);
    }

    /// Checkout hits so far.
    pub fn hits(&self) -> u64 {
        self.lock().lru.hits
    }

    /// Checkout misses so far.
    pub fn misses(&self) -> u64 {
        self.lock().lru.misses
    }

    /// Evictions so far.
    pub fn evictions(&self) -> u64 {
        self.lock().lru.evictions
    }

    /// The batch-shape histogram, most-requested shapes first.
    pub fn shape_counts(&self) -> Vec<ShapeCount> {
        let inner = self.lock();
        let mut counts: Vec<ShapeCount> = inner
            .shape_uses
            .iter()
            .map(|(&shape, &batches)| ShapeCount { shape, batches })
            .collect();
        counts.sort_by(|a, b| b.batches.cmp(&a.batches).then(a.shape.cmp(&b.shape)));
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entities::{build_megabatch, build_plan, PlanConfig, TargetKind};
    use crate::features::FeatureScales;
    use rn_dataset::{generate, generate_sparse_sample, GeneratorConfig, Normalizer, Sample};
    use rn_netgraph::topologies;
    use rn_netsim::SimConfig;

    fn gen_config(qos: bool) -> GeneratorConfig {
        GeneratorConfig {
            sim: SimConfig {
                duration_s: 60.0,
                warmup_s: 10.0,
                ..SimConfig::default()
            },
            qos: qos.then(rn_dataset::QosGenConfig::two_class_mix),
            ..GeneratorConfig::default()
        }
    }

    fn toy_samples(n: usize, seed: u64) -> Vec<Sample> {
        generate(&topologies::toy5(), &gen_config(false), seed, n).samples
    }

    fn prep() -> (FeatureScales, Normalizer) {
        (FeatureScales::unit(), Normalizer::fit(&[1e-3, 2e-3], true))
    }

    fn config<'a>(prep: &'a (FeatureScales, Normalizer)) -> PlanConfig<'a> {
        PlanConfig {
            scales: &prep.0,
            normalizer: &prep.1,
            state_dim: 8,
            min_packets: 5,
            target: TargetKind::Delay,
        }
    }

    /// Feature-only mutation: same topology, routing and queue layout, so
    /// the structure fingerprint must not move.
    fn perturb_features(sample: &Sample) -> Sample {
        let mut out = sample.clone();
        for c in &mut out.link_capacities {
            *c *= 1.25;
        }
        for t in &mut out.targets {
            t.mean_delay_s *= 1.5;
        }
        out
    }

    fn assert_plans_bitwise_equal(a: &MegabatchPlan, b: &MegabatchPlan) {
        assert!(a.plan.path_init.approx_eq(&b.plan.path_init, 0.0));
        assert!(a.plan.link_init.approx_eq(&b.plan.link_init, 0.0));
        assert!(a.plan.node_init.approx_eq(&b.plan.node_init, 0.0));
        assert!(a.plan.queue_init.approx_eq(&b.plan.queue_init, 0.0));
        assert!(a.plan.targets_norm.approx_eq(&b.plan.targets_norm, 0.0));
        assert_eq!(
            a.plan
                .targets_raw
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.plan
                .targets_raw
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        assert_eq!(a.plan.reliable_idx, b.plan.reliable_idx);
        assert_eq!(
            a.sample_mean_weights
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.sample_mean_weights
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        assert_eq!(a.reliable_samples, b.reliable_samples);
        assert_eq!(a.path_ranges, b.path_ranges);
        assert_eq!(a.plan.schedule, b.plan.schedule);
        assert_eq!(a.plan.pairs, b.plan.pairs);
        assert_eq!(a.plan.node_incidence_paths, b.plan.node_incidence_paths);
        assert_eq!(a.plan.node_incidence_nodes, b.plan.node_incidence_nodes);
    }

    #[test]
    fn compose_equals_fresh_build_megabatch() {
        let samples = toy_samples(3, 91);
        let p = prep();
        let cfg = config(&p);
        let plans: Vec<_> = samples.iter().map(|s| build_plan(s, &cfg)).collect();
        let parts: Vec<&SamplePlan> = plans.iter().collect();
        let fresh = build_megabatch(&parts);
        let composed = ComposedMegabatch::compose(&parts).unwrap();
        assert_plans_bitwise_equal(&fresh, composed.megabatch());
        assert_eq!(composed.key().len(), 3);
        assert_eq!(composed.key(), CompositionCache::key_of(&parts).as_slice());
    }

    /// Parts of different sizes (two topologies, sparse and full traffic),
    /// the middle one with no reliable label; with `qos`, every part carries
    /// queues and the first one the fewest.
    fn ragged_samples(qos: bool) -> Vec<Sample> {
        let config = gen_config(qos);
        let nsfnet = topologies::nsfnet_default();
        let mut unlabeled = generate_sparse_sample(&nsfnet, &config, 30, 94, 1);
        for t in &mut unlabeled.targets {
            t.delivered = 0;
        }
        vec![
            generate_sparse_sample(&nsfnet, &config, 4, 94, 0),
            unlabeled,
            generate(&topologies::toy5(), &config, 94, 1)
                .samples
                .remove(0),
        ]
    }

    /// Every part's rows sit in the union matrices where the parts before
    /// it end — offsets computed here from the plans, not by the composer.
    fn assert_parts_sit_at_their_offsets(parts: &[&SamplePlan], mb: &MegabatchPlan) {
        let assert_rows = |union: &Matrix, at: usize, part: &Matrix| {
            let cols = union.cols();
            let rows = &union.as_slice()[at * cols..(at + part.rows()) * cols];
            assert_eq!(rows, part.as_slice());
        };
        let (mut paths, mut links, mut nodes, mut queues) = (0, 0, 0, 0);
        let mut reliable = Vec::new();
        for p in parts {
            assert_rows(&mb.plan.path_init, paths, &p.path_init);
            assert_rows(&mb.plan.targets_norm, paths, &p.targets_norm);
            assert_rows(&mb.plan.link_init, links, &p.link_init);
            assert_rows(&mb.plan.node_init, nodes, &p.node_init);
            assert_rows(&mb.plan.queue_init, queues, &p.queue_init);
            assert_eq!(mb.plan.targets_raw[paths..paths + p.n_paths], p.targets_raw);
            reliable.extend(p.reliable_idx.iter().map(|&i| paths + i));
            paths += p.n_paths;
            links += p.num_links;
            nodes += p.num_nodes;
            queues += p.num_queues;
        }
        assert_eq!(mb.plan.reliable_idx, reliable);
        let plan = &mb.plan;
        assert_eq!(
            (paths, links, nodes, queues),
            (
                plan.n_paths,
                plan.num_links,
                plan.num_nodes,
                plan.num_queues
            )
        );
    }

    #[test]
    fn refill_matches_fresh_build_for_new_features() {
        let p = prep();
        let cfg = config(&p);
        for ragged_qos in [None, Some(false), Some(true)] {
            let samples = ragged_qos.map_or_else(|| toy_samples(2, 92), ragged_samples);
            let plans_a: Vec<_> = samples.iter().map(|s| build_plan(s, &cfg)).collect();
            if let Some(qos) = ragged_qos {
                let [first, unlabeled, last] = &plans_a[..] else {
                    panic!("three ragged parts");
                };
                assert!(first.n_paths < last.n_paths && last.n_paths < unlabeled.n_paths);
                assert!(unlabeled.reliable_idx.is_empty() && !first.reliable_idx.is_empty());
                assert_eq!(first.num_queues > 0, qos);
                assert!(!qos || first.num_queues < unlabeled.num_queues.min(last.num_queues));
            }
            let perturbed: Vec<Sample> = samples.iter().map(perturb_features).collect();
            let plans_b: Vec<_> = perturbed.iter().map(|s| build_plan(s, &cfg)).collect();
            let parts_a: Vec<&SamplePlan> = plans_a.iter().collect();
            let parts_b: Vec<&SamplePlan> = plans_b.iter().collect();
            assert_eq!(
                CompositionCache::key_of(&parts_a),
                CompositionCache::key_of(&parts_b),
                "feature-only mutation must keep the structure key"
            );

            let mut composed = ComposedMegabatch::compose(&parts_a).unwrap();
            assert_parts_sit_at_their_offsets(&parts_a, composed.megabatch());
            composed.refill_features(&parts_b);
            let fresh_b = build_megabatch(&parts_b);
            assert_plans_bitwise_equal(&fresh_b, composed.megabatch());
            assert_parts_sit_at_their_offsets(&parts_b, composed.megabatch());
            // And refilling back reproduces the original batch too.
            composed.refill_features(&parts_a);
            assert_plans_bitwise_equal(&build_megabatch(&parts_a), composed.megabatch());
        }
    }

    #[test]
    #[should_panic(expected = "entity counts diverge")]
    fn refill_rejects_structure_mismatch() {
        let samples = toy_samples(2, 93);
        let p = prep();
        let cfg = config(&p);
        let plans: Vec<_> = samples.iter().map(|s| build_plan(s, &cfg)).collect();
        let parts: Vec<&SamplePlan> = plans.iter().collect();
        let mut composed = ComposedMegabatch::compose(&parts).unwrap();
        // A part whose entity counts diverge from the cached structure.
        let mut bad_plan = plans[0].clone();
        bad_plan.num_nodes += 1;
        composed.refill_features(&[&bad_plan, &plans[1]]);
    }

    #[test]
    fn structure_fingerprint_tracks_structure_not_features() {
        let samples = toy_samples(2, 95);
        let p = prep();
        let cfg = config(&p);
        let plan = build_plan(&samples[0], &cfg);
        let same = build_plan(&samples[0], &cfg);
        assert_eq!(plan.structure_fingerprint(), same.structure_fingerprint());
        // Feature-only change: fingerprint unchanged.
        let perturbed = build_plan(&perturb_features(&samples[0]), &cfg);
        assert_eq!(
            plan.structure_fingerprint(),
            perturbed.structure_fingerprint()
        );
        // The features themselves did move...
        assert!(!plan.link_init.approx_eq(&perturbed.link_init, 0.0));
        // ...and a state-width change moves the structure fingerprint.
        let mut wide_cfg = config(&p);
        wide_cfg.state_dim = 16;
        let wide = build_plan(&samples[0], &wide_cfg);
        assert_ne!(plan.structure_fingerprint(), wide.structure_fingerprint());
        // Clones share the memoized value.
        let cloned = plan.clone();
        assert_eq!(plan.structure_fingerprint(), cloned.structure_fingerprint());
    }

    #[test]
    fn cache_checkout_publish_counts_and_evicts() {
        let samples = toy_samples(2, 96);
        let p = prep();
        let cfg = config(&p);
        let plans: Vec<_> = samples.iter().map(|s| build_plan(s, &cfg)).collect();
        let parts: Vec<&SamplePlan> = plans.iter().collect();
        let cache = CompositionCache::new(2);
        let key = CompositionCache::key_of(&parts);

        assert!(cache.checkout(&key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.publish(ComposedMegabatch::compose(&parts).unwrap());
        assert_eq!(cache.len(), 1);

        let composed = cache.checkout(&key).expect("resident composition");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 0, "checkout removes the entry");
        cache.publish(composed);
        assert_eq!(cache.len(), 1);

        // Distinct shapes key separately; LRU eviction kicks in at capacity.
        // (Same-topology toy5 samples share routing and therefore structure,
        // so a genuinely different shape needs a different state width.)
        let mut wide_cfg = config(&p);
        wide_cfg.state_dim = 16;
        let wide = build_plan(&samples[0], &wide_cfg);
        let single: Vec<&SamplePlan> = vec![&plans[0]];
        let single_wide: Vec<&SamplePlan> = vec![&wide];
        cache.publish(ComposedMegabatch::compose(&single).unwrap());
        cache.publish(ComposedMegabatch::compose(&single_wide).unwrap());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1, "capacity-2 cache evicts the LRU");

        // Shape histogram saw both requested shapes.
        let shapes = cache.shape_counts();
        assert!(!shapes.is_empty());
        assert_eq!(shapes.iter().map(|s| s.batches).sum::<u64>(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 1, "clear keeps counter totals");
    }

    #[test]
    fn retain_width_purges_only_other_widths() {
        let samples = toy_samples(1, 98);
        let p = prep();
        let cfg = config(&p);
        let mut wide_cfg = config(&p);
        wide_cfg.state_dim = 16;
        let narrow = build_plan(&samples[0], &cfg);
        let wide = build_plan(&samples[0], &wide_cfg);
        let cache = CompositionCache::new(4);
        cache.publish(ComposedMegabatch::compose(&[&narrow]).unwrap());
        cache.publish(ComposedMegabatch::compose(&[&wide]).unwrap());
        assert_eq!(cache.len(), 2);

        // The hot-swap hygiene hook: only the matching width survives.
        cache.retain_width(16);
        assert_eq!(cache.len(), 1);
        let wide_key = CompositionCache::key_of(&[&wide]);
        let narrow_key = CompositionCache::key_of(&[&narrow]);
        assert!(cache.checkout(&wide_key).is_some(), "survivor is keyable");
        assert!(cache.checkout(&narrow_key).is_none(), "stale width purged");
    }
}
