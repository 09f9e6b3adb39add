//! The megabatch **composition layer**: structure/feature split, cached
//! composition, and the LRU composition cache shared by the trainer and the
//! serving workers.
//!
//! The workload this system serves is many scenarios over a *fixed small set
//! of graph shapes*: what changes between samples is traffic, capacities and
//! queue profiles, not the CSR structure message passing runs over. Yet a
//! fresh [`build_megabatch`](crate::entities::build_megabatch) redoes all of
//! the shape-dependent work — merging the schedules, shifting every id into
//! the union spaces — for every batch, even when the batch has exactly the
//! ordered sample shapes of the previous one.
//!
//! This module splits megabatch assembly into:
//!
//! - [`MegabatchStructure`] — everything **shape-dependent**: the merged
//!   block-diagonal schedule (per-step compaction lists), entity offsets,
//!   pairs and incidences. Expensive to build, reusable for any batch
//!   whose ordered per-sample [structure
//!   fingerprints](crate::entities::SamplePlan::structure_fingerprint) match.
//! - [`MegabatchFeatures`] — everything **per-batch**: the stacked initial
//!   state matrices, targets, reliability indices and loss weights. Cheap to
//!   (re)write: O(rows × state_dim) copies.
//! - [`ComposedMegabatch`] — structure and features assembled into the
//!   [`MegabatchPlan`] the fused forward/backward consumes, plus the layout
//!   metadata needed to [`refill_features`](ComposedMegabatch::refill_features)
//!   in place for the next batch with the same shapes.
//!
//! A fresh `build_megabatch` **is** `compose structure → extract features →
//! assemble`, and `refill_features` rewrites exactly the fields feature
//! extraction writes, through the same code path — so a cached composition
//! with refilled features is bitwise identical to a fresh build by
//! construction. The golden suite (`tests/composed_equivalence.rs`) pins
//! this down, across model hot-swaps too.
//!
//! [`CompositionCache`] is the LRU that makes recurring batch shapes free:
//! keyed by the ordered tuple of per-sample structure fingerprints, entries
//! are **checked out** (removed) for exclusive refill + use and published
//! back afterwards, so concurrent workers never contend on a shared
//! composition's buffers.

use crate::entities::{
    copy_rows, CompiledSteps, EntityKind, MegabatchError, MegabatchPlan, SamplePlan,
};
use crate::plan_cache::Fingerprint;
use rn_tensor::Matrix;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Structure
// ---------------------------------------------------------------------------

/// The shape-dependent half of a composed megabatch (see the module docs).
///
/// Everything in here is a pure function of the parts' *structure* — entity
/// counts, routing, sequence schedules — and is therefore reusable across
/// batches whose ordered structure fingerprints match, no matter how their
/// traffic, capacities, queue profiles or labels differ.
#[derive(Debug)]
pub struct MegabatchStructure {
    /// Entity state width every part was planned with.
    pub state_dim: usize,
    /// Total path rows.
    pub n_paths: usize,
    /// Total directed links.
    pub num_links: usize,
    /// Total nodes.
    pub num_nodes: usize,
    /// Total scheduler queues (0 for packs of two-entity parts).
    pub num_queues: usize,
    /// Per-part path row offsets (len `B`).
    pub path_off: Vec<usize>,
    /// Per-part link row offsets (len `B`).
    pub link_off: Vec<usize>,
    /// Per-part node row offsets (len `B`).
    pub node_off: Vec<usize>,
    /// Per-part queue row offsets (len `B`; all zero without queues).
    pub queue_off: Vec<usize>,
    /// Ordered per-part structure fingerprints — the composition cache key.
    pub part_fps: Vec<u64>,
    /// Merged `(src, dst)` pairs in the union node id space.
    pub pairs: Vec<(usize, usize)>,
    /// The merged schedule (rows and ids shifted into the union spaces).
    pub schedule: CompiledSteps,
    /// Merged path→node incidence rows.
    pub node_incidence_paths: Vec<usize>,
    /// Merged path→node incidence node ids.
    pub node_incidence_nodes: Vec<usize>,
    /// Per-part path row ranges `[start, end)`.
    pub path_ranges: Vec<(usize, usize)>,
}

impl MegabatchStructure {
    /// Compose the shape-dependent state of a block-diagonal megabatch from
    /// `parts` — the expensive half of `build_megabatch`.
    pub fn compose(parts: &[&SamplePlan]) -> Result<Self, MegabatchError> {
        if parts.is_empty() {
            return Err(MegabatchError::EmptyBatch);
        }
        let state_dim = parts[0].path_init.cols();
        let n_paths: usize = parts.iter().map(|p| p.n_paths).sum();
        let num_links: usize = parts.iter().map(|p| p.num_links).sum();
        let num_nodes: usize = parts.iter().map(|p| p.num_nodes).sum();
        let num_queues: usize = parts.iter().map(|p| p.num_queues).sum();

        // Entity offsets per part.
        let mut path_off = Vec::with_capacity(parts.len());
        let mut link_off = Vec::with_capacity(parts.len());
        let mut node_off = Vec::with_capacity(parts.len());
        let mut queue_off = Vec::with_capacity(parts.len());
        let (mut po, mut lo, mut no, mut qo) = (0usize, 0usize, 0usize, 0usize);
        for p in parts {
            if p.path_init.cols() != state_dim {
                return Err(MegabatchError::StateDimMismatch(
                    state_dim,
                    p.path_init.cols(),
                ));
            }
            path_off.push(po);
            link_off.push(lo);
            node_off.push(no);
            queue_off.push(qo);
            po += p.n_paths;
            lo += p.num_links;
            no += p.num_nodes;
            qo += p.num_queues;
        }

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
            for (b, p) in parts.iter().enumerate() {
                if pos >= p.schedule.len() {
                    continue;
                }
                let offset = match kind {
                    EntityKind::Link => link_off[b],
                    EntityKind::Node => node_off[b],
                    EntityKind::Queue => queue_off[b],
                };
                active_rows.extend(p.schedule.active_rows(pos).iter().map(|r| path_off[b] + r));
                active_ids.extend(p.schedule.active_ids(pos).iter().map(|id| offset + id));
            }
            kinds.push(kind);
            active_offsets.push(active_rows.len());
        }

        // Pairs, incidences and row ranges live in the union id space.
        let mut node_incidence_paths = Vec::new();
        let mut node_incidence_nodes = Vec::new();
        let mut pairs = Vec::with_capacity(n_paths);
        let mut path_ranges = Vec::with_capacity(parts.len());
        for (b, p) in parts.iter().enumerate() {
            for (&pi, &ni) in p.node_incidence_paths.iter().zip(&p.node_incidence_nodes) {
                node_incidence_paths.push(path_off[b] + pi);
                node_incidence_nodes.push(node_off[b] + ni);
            }
            for &(s, d) in &p.pairs {
                pairs.push((node_off[b] + s, node_off[b] + d));
            }
            path_ranges.push((path_off[b], path_off[b] + p.n_paths));
        }

        let schedule = CompiledSteps::new(kinds, active_offsets, active_rows, active_ids);
        let part_fps = parts.iter().map(|p| p.structure_fingerprint()).collect();
        Ok(Self {
            state_dim,
            n_paths,
            num_links,
            num_nodes,
            num_queues,
            path_off,
            link_off,
            node_off,
            queue_off,
            part_fps,
            pairs,
            schedule,
            node_incidence_paths,
            node_incidence_nodes,
            path_ranges,
        })
    }

    /// The ordered per-part structure fingerprints — the cache key.
    pub fn key(&self) -> &[u64] {
        &self.part_fps
    }
}

// ---------------------------------------------------------------------------
// Features
// ---------------------------------------------------------------------------

/// The per-batch half of a composed megabatch: stacked feature rows,
/// targets, reliability and loss weights. Everything here is rewritten by
/// [`ComposedMegabatch::refill_features`]; nothing here influences the
/// compiled structure.
#[derive(Debug)]
pub struct MegabatchFeatures {
    /// Stacked initial path states.
    pub path_init: Matrix,
    /// Stacked initial link states.
    pub link_init: Matrix,
    /// Stacked initial node states.
    pub node_init: Matrix,
    /// Stacked initial queue states (`0 x state_dim` without queues).
    pub queue_init: Matrix,
    /// Stacked normalized targets (`n_paths x 1`).
    pub targets_norm: Matrix,
    /// Stacked raw targets.
    pub targets_raw: Vec<f64>,
    /// Reliable rows in the union row space.
    pub reliable_idx: Vec<usize>,
    /// Per reliable row: `1 / r_s` of its sample (mean-of-means weights).
    pub sample_mean_weights: Vec<f32>,
    /// Samples contributing at least one reliable row.
    pub reliable_samples: usize,
}

/// Mutable slots the feature writer fills — one definition shared by fresh
/// extraction and in-place refill, so the two cannot drift apart (this is
/// what makes cached-composition output bitwise identical to a fresh build).
struct FeatureSlots<'a> {
    path_init: &'a mut Matrix,
    link_init: &'a mut Matrix,
    node_init: &'a mut Matrix,
    queue_init: &'a mut Matrix,
    targets_norm: &'a mut Matrix,
    targets_raw: &'a mut Vec<f64>,
    reliable_idx: &'a mut Vec<usize>,
    sample_mean_weights: &'a mut Vec<f32>,
}

/// Write every feature field from `parts`, fully overwriting the matrices
/// (every row belongs to exactly one part, so no stale value survives) and
/// rebuilding the per-row vectors. Returns the reliable-sample count.
fn write_features(
    parts: &[&SamplePlan],
    path_off: &[usize],
    link_off: &[usize],
    node_off: &[usize],
    queue_off: &[usize],
    slots: FeatureSlots<'_>,
) -> usize {
    for (b, p) in parts.iter().enumerate() {
        copy_rows(slots.path_init, path_off[b], &p.path_init);
        copy_rows(slots.link_init, link_off[b], &p.link_init);
        copy_rows(slots.node_init, node_off[b], &p.node_init);
        copy_rows(slots.queue_init, queue_off[b], &p.queue_init);
    }
    slots.targets_raw.clear();
    slots.reliable_idx.clear();
    slots.sample_mean_weights.clear();
    let mut reliable_samples = 0usize;
    for (b, p) in parts.iter().enumerate() {
        for row in 0..p.n_paths {
            slots
                .targets_norm
                .set(path_off[b] + row, 0, p.targets_norm.get(row, 0));
        }
        slots.targets_raw.extend_from_slice(&p.targets_raw);
        let r_s = p.reliable_idx.len();
        if r_s > 0 {
            reliable_samples += 1;
        }
        for &i in &p.reliable_idx {
            slots.reliable_idx.push(path_off[b] + i);
            slots.sample_mean_weights.push(1.0 / r_s as f32);
        }
    }
    reliable_samples
}

impl MegabatchFeatures {
    /// Fresh feature extraction for a composed structure.
    pub fn extract(structure: &MegabatchStructure, parts: &[&SamplePlan]) -> Self {
        let mut features = Self {
            path_init: Matrix::zeros(structure.n_paths, structure.state_dim),
            link_init: Matrix::zeros(structure.num_links, structure.state_dim),
            node_init: Matrix::zeros(structure.num_nodes, structure.state_dim),
            queue_init: Matrix::zeros(structure.num_queues, structure.state_dim),
            targets_norm: Matrix::zeros(structure.n_paths, 1),
            targets_raw: Vec::with_capacity(structure.n_paths),
            reliable_idx: Vec::new(),
            sample_mean_weights: Vec::new(),
            reliable_samples: 0,
        };
        features.reliable_samples = write_features(
            parts,
            &structure.path_off,
            &structure.link_off,
            &structure.node_off,
            &structure.queue_off,
            FeatureSlots {
                path_init: &mut features.path_init,
                link_init: &mut features.link_init,
                node_init: &mut features.node_init,
                queue_init: &mut features.queue_init,
                targets_norm: &mut features.targets_norm,
                targets_raw: &mut features.targets_raw,
                reliable_idx: &mut features.reliable_idx,
                sample_mean_weights: &mut features.sample_mean_weights,
            },
        );
        features
    }
}

// ---------------------------------------------------------------------------
// Assembly + refill
// ---------------------------------------------------------------------------

/// A structure + features pair assembled into the [`MegabatchPlan`] the
/// fused forward/backward consumes, retaining the layout metadata needed to
/// rewrite the feature fields in place for the next same-shaped batch.
#[derive(Debug)]
pub struct ComposedMegabatch {
    /// Ordered per-part structure fingerprints (the cache key).
    part_fps: Vec<u64>,
    /// Per-part row offsets, kept for refill.
    path_off: Vec<usize>,
    link_off: Vec<usize>,
    node_off: Vec<usize>,
    queue_off: Vec<usize>,
    /// Per-part `(n_paths, num_links, num_nodes, num_queues)` — the cheap
    /// release-mode sanity check refill runs before trusting a fingerprint
    /// match.
    part_dims: Vec<(usize, usize, usize, usize)>,
    /// Entity state width.
    state_dim: usize,
    /// The assembled plan. Structural fields are immutable after assembly;
    /// feature fields are rewritten by [`ComposedMegabatch::refill_features`].
    mb: MegabatchPlan,
}

impl ComposedMegabatch {
    /// Compose structure, extract features and assemble — exactly what a
    /// fresh [`build_megabatch`](crate::entities::build_megabatch) does
    /// (that function is implemented as this call).
    pub fn compose(parts: &[&SamplePlan]) -> Result<Self, MegabatchError> {
        let structure = MegabatchStructure::compose(parts)?;
        let features = MegabatchFeatures::extract(&structure, parts);
        Ok(Self::assemble(structure, features, parts))
    }

    /// Move a structure and a matching feature set into the runnable plan.
    fn assemble(
        structure: MegabatchStructure,
        features: MegabatchFeatures,
        parts: &[&SamplePlan],
    ) -> Self {
        let part_dims = parts
            .iter()
            .map(|p| (p.n_paths, p.num_links, p.num_nodes, p.num_queues))
            .collect();
        Self {
            part_fps: structure.part_fps,
            path_off: structure.path_off,
            link_off: structure.link_off,
            node_off: structure.node_off,
            queue_off: structure.queue_off,
            part_dims,
            state_dim: structure.state_dim,
            mb: MegabatchPlan {
                plan: SamplePlan {
                    n_paths: structure.n_paths,
                    num_links: structure.num_links,
                    num_nodes: structure.num_nodes,
                    num_queues: structure.num_queues,
                    pairs: structure.pairs,
                    path_init: features.path_init,
                    link_init: features.link_init,
                    node_init: features.node_init,
                    queue_init: features.queue_init,
                    schedule: structure.schedule,
                    node_incidence_paths: structure.node_incidence_paths,
                    node_incidence_nodes: structure.node_incidence_nodes,
                    targets_norm: features.targets_norm,
                    targets_raw: features.targets_raw,
                    reliable_idx: features.reliable_idx,
                    structure_fp: OnceLock::new(),
                    reliable_shared: OnceLock::new(),
                },
                path_ranges: structure.path_ranges,
                sample_mean_weights: features.sample_mean_weights,
                reliable_samples: features.reliable_samples,
            },
        }
    }

    /// Rewrite the feature fields in place for a new batch with the **same
    /// ordered structure** (fingerprints are checked; a mismatch is a caller
    /// bug and panics). The rewritten plan is bitwise identical to a fresh
    /// `build_megabatch` over `parts`: the writer is the same function fresh
    /// extraction runs, the structure was compiled by the same code, and
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
        for (b, p) in parts.iter().enumerate() {
            assert_eq!(
                (p.n_paths, p.num_links, p.num_nodes, p.num_queues),
                self.part_dims[b],
                "refill_features: part {b} entity counts diverge from the cached structure"
            );
            assert_eq!(
                p.path_init.cols(),
                self.state_dim,
                "refill_features: part {b} state width diverges"
            );
            assert_eq!(
                p.structure_fingerprint(),
                self.part_fps[b],
                "refill_features: part {b} structure fingerprint diverges"
            );
        }
        let mb = &mut self.mb;
        // `reliable_idx` is about to be rewritten in place under any
        // previously built shared mirror; drop the stale cell.
        mb.plan.reliable_shared = OnceLock::new();
        mb.reliable_samples = write_features(
            parts,
            &self.path_off,
            &self.link_off,
            &self.node_off,
            &self.queue_off,
            FeatureSlots {
                path_init: &mut mb.plan.path_init,
                link_init: &mut mb.plan.link_init,
                node_init: &mut mb.plan.node_init,
                queue_init: &mut mb.plan.queue_init,
                targets_norm: &mut mb.plan.targets_norm,
                targets_raw: &mut mb.plan.targets_raw,
                reliable_idx: &mut mb.plan.reliable_idx,
                sample_mean_weights: &mut mb.sample_mean_weights,
            },
        );
    }

    /// The assembled megabatch, ready for the fused forward/backward.
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

    /// Number of samples packed into this composition.
    pub fn parts(&self) -> usize {
        self.part_fps.len()
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

/// One cache slot: the composed megabatch plus its LRU stamp.
struct Entry {
    composed: ComposedMegabatch,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<Vec<u64>, Entry>,
    clock: u64,
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
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl CompositionCache {
    /// Cache holding at most `capacity` compositions (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                clock: 0,
                shape_uses: HashMap::new(),
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The cache key for an ordered batch of plans.
    pub fn key_of(parts: &[&SamplePlan]) -> Vec<u64> {
        parts.iter().map(|p| p.structure_fingerprint()).collect()
    }

    /// Hash a composition key into the single `u64` the shape histogram
    /// reports (FNV over the ordered fingerprints).
    pub fn shape_hash(key: &[u64]) -> u64 {
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
        let mut inner = self.inner.lock().expect("composition cache poisoned");
        let shape = Self::shape_hash(key);
        let tracked = inner.shape_uses.len();
        let slot = if inner.shape_uses.contains_key(&shape) || tracked < MAX_TRACKED_SHAPES {
            shape
        } else {
            0 // overflow bucket
        };
        *inner.shape_uses.entry(slot).or_insert(0) += 1;
        match inner.map.remove(key) {
            Some(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.composed)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Put a composition (back) into the cache under its own key, evicting
    /// the least-recently-used entry when full.
    pub fn publish(&self, composed: ComposedMegabatch) {
        let key = composed.key().to_vec();
        let mut inner = self.inner.lock().expect("composition cache poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.map.contains_key(&key) && inner.map.len() >= self.capacity {
            // O(n) LRU scan: capacities are small (tens of shapes) and
            // publish runs once per served batch, off the kernel hot path.
            if let Some(victim) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(
            key,
            Entry {
                composed,
                last_used: clock,
            },
        );
    }

    /// Compositions currently resident.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .expect("composition cache poisoned")
            .map
            .len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every resident composition (counters keep their totals).
    pub fn clear(&self) {
        self.inner
            .lock()
            .expect("composition cache poisoned")
            .map
            .clear();
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
        self.inner
            .lock()
            .expect("composition cache poisoned")
            .map
            .retain(|_, e| e.composed.state_dim == state_dim);
    }

    /// Checkout hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Checkout misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Maximum resident compositions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The batch-shape histogram, most-requested shapes first.
    pub fn shape_counts(&self) -> Vec<ShapeCount> {
        let inner = self.inner.lock().expect("composition cache poisoned");
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
    use rn_dataset::{generate, GeneratorConfig, Normalizer, Sample};
    use rn_netgraph::topologies;
    use rn_netsim::SimConfig;

    fn toy_samples(n: usize, seed: u64) -> Vec<Sample> {
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 60.0,
                warmup_s: 10.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        };
        generate(&topologies::toy5(), &config, seed, n).samples
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
        assert_eq!(composed.parts(), 3);
        assert_eq!(composed.key(), CompositionCache::key_of(&parts).as_slice());
    }

    #[test]
    fn refill_matches_fresh_build_for_new_features() {
        let samples = toy_samples(2, 92);
        let p = prep();
        let cfg = config(&p);
        let plans_a: Vec<_> = samples.iter().map(|s| build_plan(s, &cfg)).collect();
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
        composed.refill_features(&parts_b);
        let fresh_b = build_megabatch(&parts_b);
        assert_plans_bitwise_equal(&fresh_b, composed.megabatch());
        // And refilling back reproduces the original batch too.
        composed.refill_features(&parts_a);
        assert_plans_bitwise_equal(&build_megabatch(&parts_a), composed.megabatch());
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
        // The full (content) fingerprint does move with the features...
        assert_ne!(plan.fingerprint(), perturbed.fingerprint());
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
