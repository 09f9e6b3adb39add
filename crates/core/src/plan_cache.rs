//! Scenario fingerprints and the compiled-plan cache.
//!
//! Planning a sample — feature extraction, step construction, CSR
//! compilation — costs real time per request, and an inference service sees
//! the *same* scenarios over and over (what-if analysis re-queries a handful
//! of topologies under varying assumptions). The [`PlanCache`] memoizes
//! compiled [`SamplePlan`]s behind a cheap content fingerprint so repeated
//! scenarios skip feature extraction and step compilation entirely.
//!
//! ## What a fingerprint covers
//!
//! A fingerprint identifies the scenario **as the forward pass sees it**:
//! topology size, routing (the exact node/link sequence of every path),
//! traffic rates, link capacities, queue configuration, and the
//! preprocessing state (feature scales, normalizer, state width). It
//! deliberately **excludes the ground-truth labels**: two samples that
//! differ only in simulated targets produce identical predictions, so they
//! share one cache entry. Consequently the `targets_*`/`reliable_idx`
//! fields of a cached plan belong to whichever sample populated the entry —
//! fine for serving, wrong for evaluation. Evaluation code keeps building
//! its own plans.
//!
//! ## Trust model
//!
//! FNV-1a is fast and stable but **not collision-resistant**: an adversary
//! who can submit arbitrary scenarios could craft a key collision and
//! poison another client's cache entry (hits are served by key alone, with
//! no content re-check). Accidental collisions are a non-issue at cache
//! scale (~n²/2⁶⁴), so this is safe inside a trust boundary — which is how
//! the TCP frontend is deployed (unauthenticated, trusted clients). Put an
//! authenticating proxy in front before exposing it further.

use crate::entities::{build_plan, PlanConfig, SamplePlan, TargetKind};
use crate::lru::Lru;
use rn_dataset::Sample;
use std::sync::{Arc, Mutex, MutexGuard};

/// Incremental FNV-1a (64-bit): tiny, dependency-free, stable across runs
/// and platforms — cache keys may be exchanged over the wire by serving
/// clients, so a process-seeded hasher (`DefaultHasher`) would not do.
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Fingerprint {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Fold raw bytes into the state.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Fold one `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold one `usize`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Fold an `f64` by bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Fold a slice of `f32`s by bit pattern.
    pub fn f32s(&mut self, vs: &[f32]) -> &mut Self {
        for v in vs {
            self.bytes(&v.to_bits().to_le_bytes());
        }
        self
    }

    /// Fold a slice of indices.
    pub fn usizes(&mut self, vs: &[usize]) -> &mut Self {
        for &v in vs {
            self.u64(v as u64);
        }
        self
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// Fingerprint of a raw [`Sample`] under a given plan configuration —
/// computable without building the plan, which is the whole point: the cache
/// key costs one pass over the sample's routing and features.
pub fn sample_fingerprint(sample: &Sample, config: &PlanConfig) -> u64 {
    let mut fp = Fingerprint::new();
    // Preprocessing state: a model with different scales/normalizer/width
    // compiles a different plan from the same sample.
    fp.usize(config.state_dim)
        .u64(config.min_packets)
        .u64(match config.target {
            TargetKind::Delay => 0,
            TargetKind::Jitter => 1,
        })
        .f64(config.scales.rate_scale)
        .f64(config.scales.capacity_scale)
        .f64(config.scales.queue_scale)
        .u64(config.normalizer.log_space as u64)
        .f64(config.normalizer.mean)
        .f64(config.normalizer.std);
    // Topology-scale features.
    fp.usize(sample.queue_capacities.len())
        .usizes(&sample.queue_capacities)
        .usize(sample.link_capacities.len());
    for &c in &sample.link_capacities {
        fp.f64(c);
    }
    // Routing and traffic, in path order (the row order of the plan).
    for (src, dst, path) in sample.routing.iter_paths() {
        fp.usize(src)
            .usize(dst)
            .usizes(&path.nodes)
            .usizes(&path.links)
            .f64(sample.traffic.rate(src, dst));
    }
    // QoS dimension: the scheduling policy, class profiles and per-path
    // classes change the compiled plan (queue entities, the 3-periodic
    // schedule, queue features) and must re-key it. Legacy samples fold
    // nothing here, so their fingerprints are exactly what they were before
    // the QoS dimension existed. Serialization is the canonical encoding —
    // derive-ordered fields, shortest-round-trip floats — so equal specs
    // fold equal bytes.
    if let Some(qos) = &sample.qos {
        let encoded = serde_json::to_string(qos).expect("QoS spec serializes");
        fp.usize(encoded.len()).bytes(encoded.as_bytes());
    }
    fp.finish()
}

impl SamplePlan {
    /// Fingerprint of the plan's **structure** alone: entity counts, state
    /// width, routing pairs, the full compiled step schedule and the
    /// path↔node incidences — everything that determines the shape-dependent
    /// half of a megabatch composition (`crate::compose`), and nothing that
    /// doesn't. Feature values (initial-state matrices), targets and
    /// reliability are deliberately excluded: two plans that differ only in
    /// traffic/capacity/queue features or labels share one composed
    /// structure. Memoized on first use; clones share the cached value.
    pub fn structure_fingerprint(&self) -> u64 {
        *self.structure_fp.get_or_init(|| {
            let mut fp = Fingerprint::new();
            fp.usize(self.path_init.cols()) // state width shapes every buffer
                .usize(self.n_paths)
                .usize(self.num_links)
                .usize(self.num_nodes)
                .usize(self.num_queues);
            for &(s, d) in &self.pairs {
                fp.usize(s).usize(d);
            }
            fp.usize(self.schedule.len())
                .usizes(&self.schedule.active_offsets)
                .usizes(&self.schedule.active_rows_flat)
                .usizes(&self.schedule.active_ids_flat);
            for &kind in &self.schedule.kinds {
                fp.u64(match kind {
                    crate::entities::EntityKind::Link => 0,
                    crate::entities::EntityKind::Node => 1,
                    crate::entities::EntityKind::Queue => 2,
                });
            }
            fp.usizes(&self.node_incidence_paths)
                .usizes(&self.node_incidence_nodes);
            fp.finish()
        })
    }
}

/// Thread-safe LRU cache of compiled plans keyed by scenario fingerprint.
///
/// Shared by every serving worker: plans come out as `Arc`s, so a cached
/// plan can sit in several in-flight megabatches while being evicted
/// concurrently. Hit/miss/eviction counters feed the service metrics.
/// Lookups are short; planning happens outside the lock.
pub struct PlanCache {
    lru: Mutex<Lru<u64, Arc<SamplePlan>>>,
}

impl PlanCache {
    /// Cache holding at most `capacity` plans (at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            lru: Mutex::new(Lru::new(capacity)),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru<u64, Arc<SamplePlan>>> {
        self.lru.lock().expect("plan cache poisoned")
    }

    /// Look up a plan by fingerprint, refreshing its LRU stamp.
    pub fn get(&self, key: u64) -> Option<Arc<SamplePlan>> {
        self.lock().get(&key).cloned()
    }

    /// Insert (or replace) a plan under `key`, evicting the least-recently
    /// used entry when full. Returns the shared handle.
    pub fn insert(&self, key: u64, plan: SamplePlan) -> Arc<SamplePlan> {
        let plan = Arc::new(plan);
        self.lock().insert(key, Arc::clone(&plan));
        plan
    }

    /// Fingerprint `sample`, returning the cached plan on a hit or building,
    /// inserting and returning it on a miss. Returns `(plan, fingerprint)`.
    ///
    /// Concurrent misses on the same key may both build; the later insert
    /// wins. Plans are deterministic functions of `(sample, config)`, so the
    /// race is benign.
    pub fn get_or_build(&self, sample: &Sample, config: &PlanConfig) -> (Arc<SamplePlan>, u64) {
        let key = sample_fingerprint(sample, config);
        if let Some(plan) = self.get(key) {
            return (plan, key);
        }
        let plan = self.insert(key, build_plan(sample, config));
        (plan, key)
    }

    /// Drop every resident plan (counters keep their totals). The serving
    /// layer calls this on model hot-swap: resident plans were compiled
    /// under the old model's preprocessing and must not answer
    /// by-fingerprint queries under the new one. Outstanding `Arc`s stay
    /// valid for whatever batch already holds them.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Cached plans currently resident.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Evictions so far.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureScales;
    use rn_dataset::{generate, GeneratorConfig, Normalizer};
    use rn_netgraph::topologies;
    use rn_netsim::SimConfig;

    fn toy_samples(n: usize) -> Vec<Sample> {
        let config = GeneratorConfig {
            sim: SimConfig {
                duration_s: 60.0,
                warmup_s: 10.0,
                ..SimConfig::default()
            },
            ..GeneratorConfig::default()
        };
        generate(&topologies::toy5(), &config, 77, n).samples
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

    #[test]
    fn sample_fingerprint_is_stable_and_content_sensitive() {
        let samples = toy_samples(2);
        let p = prep();
        let cfg = config(&p);
        let a = sample_fingerprint(&samples[0], &cfg);
        assert_eq!(a, sample_fingerprint(&samples[0], &cfg), "deterministic");
        assert_ne!(
            a,
            sample_fingerprint(&samples[1], &cfg),
            "different traffic must fingerprint differently"
        );
        // Config changes re-key the scenario too.
        let mut wide = config(&p);
        wide.state_dim = 16;
        assert_ne!(a, sample_fingerprint(&samples[0], &wide));
        // Targets do NOT participate: a label-only change keeps the key.
        let mut relabeled = samples[0].clone();
        for t in &mut relabeled.targets {
            t.mean_delay_s *= 2.0;
        }
        assert_eq!(a, sample_fingerprint(&relabeled, &cfg));
    }

    #[test]
    fn plan_fingerprint_matches_scenario_identity() {
        let samples = toy_samples(2);
        let p = prep();
        let cfg = config(&p);
        let plan_a1 = build_plan(&samples[0], &cfg);
        let plan_a2 = build_plan(&samples[0], &cfg);
        let plan_b = build_plan(&samples[1], &cfg);
        // One sample plans to the same feature bits twice; the sample that
        // keys differently differs in what the forward reads.
        assert!(plan_a1.path_init.approx_eq(&plan_a2.path_init, 0.0));
        assert!(!plan_a1.path_init.approx_eq(&plan_b.path_init, 0.0));
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let samples = toy_samples(2);
        let p = prep();
        let cfg = config(&p);
        let cache = PlanCache::new(8);
        let (plan_first, key) = cache.get_or_build(&samples[0], &cfg);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let (plan_again, key_again) = cache.get_or_build(&samples[0], &cfg);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(key, key_again);
        assert!(
            Arc::ptr_eq(&plan_first, &plan_again),
            "hit must return the cached plan"
        );
        cache.get_or_build(&samples[1], &cfg);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let samples = toy_samples(3);
        let p = prep();
        let cfg = config(&p);
        let cache = PlanCache::new(2);
        let (_, k0) = cache.get_or_build(&samples[0], &cfg);
        let (_, k1) = cache.get_or_build(&samples[1], &cfg);
        // Touch k0 so k1 becomes the LRU victim.
        assert!(cache.get(k0).is_some());
        cache.get_or_build(&samples[2], &cfg);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(k0).is_some(), "recently used entry survives");
        assert!(cache.get(k1).is_none(), "LRU entry evicted");
    }

    #[test]
    fn lru_order_survives_interleaved_hits_misses_and_flushes() {
        // Synthetic keys over one toy plan: the cache's LRU bookkeeping is
        // key-based, so plan content is irrelevant here.
        let samples = toy_samples(1);
        let p = prep();
        let cfg = config(&p);
        let plan = build_plan(&samples[0], &cfg);
        let cache = PlanCache::new(3);

        // Fill: 1, 2, 3 (LRU order: 1 oldest).
        for key in [1u64, 2, 3] {
            cache.insert(key, plan.clone());
        }
        // Interleave hits to rotate the LRU order to: 2 oldest, then 1, 3.
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert!(cache.get(9).is_none(), "unknown key must miss");
        // Insert over capacity: 2 (the LRU victim) must go.
        cache.insert(4, plan.clone());
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(2).is_none(), "LRU entry 2 must be evicted");
        assert!(cache.get(1).is_some() && cache.get(3).is_some());
        assert!(cache.get(4).is_some());

        // Re-inserting a resident key refreshes it without eviction.
        cache.insert(1, plan.clone());
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 1, "replacement must not evict");
        // Now 3 is oldest (1 and 4 were touched more recently).
        cache.insert(5, plan.clone());
        assert!(cache.get(3).is_none(), "entry 3 was the LRU victim");
        assert_eq!(cache.evictions(), 2);

        // Swap-flush (model hot-swap): everything goes, counters persist.
        let (hits_before, misses_before) = (cache.hits(), cache.misses());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), hits_before, "clear must keep hit totals");
        assert_eq!(cache.misses(), misses_before);
        assert!(cache.get(1).is_none(), "flushed entries miss");
        assert_eq!(cache.misses(), misses_before + 1);

        // The LRU clock survives the flush: refill and evict again.
        for key in [6u64, 7, 8] {
            cache.insert(key, plan.clone());
        }
        assert!(cache.get(6).is_some());
        cache.insert(9, plan.clone());
        assert!(cache.get(7).is_none(), "post-flush LRU order must hold");
        assert!(cache.get(6).is_some() && cache.get(8).is_some());
    }

    #[test]
    fn hit_miss_counters_are_exact_over_mixed_sequences() {
        let samples = toy_samples(2);
        let p = prep();
        let cfg = config(&p);
        let cache = PlanCache::new(2);
        let plan = build_plan(&samples[0], &cfg);

        // 3 misses via get, 2 inserts, then a deterministic hit/miss mix.
        assert!(cache.get(100).is_none());
        assert!(cache.get(101).is_none());
        assert!(cache.get(102).is_none());
        cache.insert(100, plan.clone());
        cache.insert(101, plan.clone());
        for _ in 0..4 {
            assert!(cache.get(100).is_some());
        }
        assert!(cache.get(101).is_some());
        assert!(cache.get(200).is_none());
        assert_eq!(cache.hits(), 5);
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.evictions(), 0);

        // get_or_build counts exactly one miss then pure hits.
        let (_, key) = cache.get_or_build(&samples[1], &cfg);
        assert_eq!(cache.misses(), 5, "first get_or_build misses once");
        assert_eq!(cache.evictions(), 1, "capacity-2 cache evicts the LRU");
        let (_, key_again) = cache.get_or_build(&samples[1], &cfg);
        assert_eq!(key, key_again);
        assert_eq!(cache.hits(), 6);
        assert_eq!(cache.misses(), 5);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let samples = toy_samples(2);
        let p = prep();
        let cfg = config(&p);
        let cache = PlanCache::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for sample in &samples {
                        let (plan, _) = cache.get_or_build(sample, &cfg);
                        assert_eq!(plan.n_paths, sample.num_paths());
                    }
                });
            }
        });
        assert_eq!(cache.len(), 2);
        assert!(cache.hits() + cache.misses() == 8);
        assert!(cache.misses() >= 2, "each distinct scenario misses once");
    }
}
