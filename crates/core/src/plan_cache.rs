//! Plan fingerprints and the compiled-plan cache.
//!
//! A serving `Register` or `Predict` plans its sample — feature extraction,
//! step construction, CSR compilation — and keys the plan by
//! [`SamplePlan::fingerprint`], a hash of exactly what the forward pass
//! reads. The [`PlanCache`] keeps recent plans under that key, so a later
//! `Cached` request names its scenario by fingerprint alone and skips both
//! the JSON parse and the planning. A `Predict` never looks the cache up: the
//! key is computed from the plan, so by the time it is known the plan is
//! built and a hit would save nothing.
//!
//! ## What a fingerprint covers
//!
//! A plan's fingerprint is its memoized
//! [`SamplePlan::structure_fingerprint`] (state width, entity counts, routing
//! pairs, the compiled step schedule) folded with the bits of its four
//! initial-state matrices. That is the forward's whole input, so everything
//! the plan was compiled from counts through what it became: routing,
//! traffic, capacities, queue sizes, the QoS policy and classes, the feature
//! scales and the state width. A new plan input is a feature column or a
//! schedule entry, so it is keyed with no change here.
//!
//! Labels are not forward input and stay out: `targets_*`, `reliable_idx`
//! and the normalizer that produces them. Two samples that differ only in
//! simulated targets (per path or per QoS class) share one entry, and so do
//! a legacy sample and its single-class FIFO twin, whose plans are equal.
//! Consequently the `targets_*`/`reliable_idx` fields of a cached plan
//! belong to whichever sample populated the entry — fine for serving, wrong
//! for evaluation. Evaluation code keeps building its own plans.
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

use crate::entities::{build_plan, PlanConfig, SamplePlan};
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

    /// Fold one 64-bit word with a single xor and multiply, where
    /// [`Fingerprint::u64`] spends eight. Plan keys hash thousands of words
    /// per request, so they use this fold; the byte-wise methods above stay
    /// as they are because recorded digests are made of them.
    fn word(&mut self, v: u64) -> &mut Self {
        self.0 = (self.0 ^ v).wrapping_mul(Self::PRIME);
        self
    }

    /// [`Fingerprint::word`] over a slice of indices.
    fn words(&mut self, vs: &[usize]) -> &mut Self {
        for &v in vs {
            self.word(v as u64);
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

/// The cache key `sample` plans to under `config`: the
/// [`SamplePlan::fingerprint`] of [`build_plan`]'s plan. It costs a full
/// planning pass, so a caller that keeps the plan fingerprints that instead.
pub fn sample_fingerprint(sample: &Sample, config: &PlanConfig) -> u64 {
    build_plan(sample, config).fingerprint()
}

impl SamplePlan {
    /// Fingerprint of the plan's **structure** alone: entity counts, state
    /// width, routing pairs and the full compiled step schedule — everything that determines the shape-dependent
    /// half of a megabatch composition (`crate::compose`), and nothing that
    /// doesn't. Feature values (initial-state matrices), targets and
    /// reliability are deliberately excluded: two plans that differ only in
    /// traffic/capacity/queue features or labels share one composed
    /// structure. Memoized on first use; clones share the cached value.
    pub fn structure_fingerprint(&self) -> u64 {
        *self.structure_fp.get_or_init(|| {
            let mut fp = Fingerprint::new();
            fp.words(&[
                self.path_init.cols(), // state width shapes every buffer
                self.n_paths,
                self.num_links,
                self.num_nodes,
                self.num_queues,
            ]);
            for &(s, d) in &self.pairs {
                fp.word(s as u64).word(d as u64);
            }
            fp.word(self.schedule.len() as u64)
                .words(&self.schedule.active_offsets)
                .words(&self.schedule.active_rows_flat)
                .words(&self.schedule.active_ids_flat);
            for &kind in &self.schedule.kinds {
                fp.word(match kind {
                    crate::entities::EntityKind::Link => 0,
                    crate::entities::EntityKind::Node => 1,
                    crate::entities::EntityKind::Queue => 2,
                });
            }
            fp.finish()
        })
    }

    /// The plan's content key in the [`PlanCache`]: the
    /// [`SamplePlan::structure_fingerprint`] folded with the bits of
    /// `path_init`, `link_init`, `node_init` and `queue_init` — everything
    /// the forward pass reads, and nothing else (see the module docs). Not
    /// memoized: feature refill rewrites those matrices in place.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint(self.structure_fingerprint());
        for init in [
            &self.path_init,
            &self.link_init,
            &self.node_init,
            &self.queue_init,
        ] {
            for &x in init.as_slice() {
                fp.word(u64::from(x.to_bits()));
            }
        }
        fp.finish()
    }
}

/// Thread-safe LRU cache of compiled plans keyed by
/// [`SamplePlan::fingerprint`].
///
/// Shared by every serving worker: plans come out as `Arc`s, so a cached
/// plan can sit in several in-flight megabatches while being evicted
/// concurrently. Hit/miss/eviction counters feed the service metrics; only
/// [`PlanCache::get`] counts hits and misses. Planning happens outside the
/// lock.
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
    use rn_dataset::{generate, GeneratorConfig, Normalizer, QosGenConfig, SampleQos};
    use rn_netgraph::topologies;
    use rn_netsim::{SchedulingPolicy, SimConfig, TrafficProfile};

    fn gen_config(qos: Option<QosGenConfig>) -> GeneratorConfig {
        GeneratorConfig {
            sim: SimConfig {
                duration_s: 60.0,
                warmup_s: 10.0,
                ..SimConfig::default()
            },
            qos,
            ..GeneratorConfig::default()
        }
    }

    fn toy_samples(n: usize) -> Vec<Sample> {
        generate(&topologies::toy5(), &gen_config(None), 77, n).samples
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
            target: crate::entities::TargetKind::Delay,
        }
    }

    /// Plan `sample`, key it and insert it, as a serving `Predict` does.
    fn plan_into(cache: &PlanCache, sample: &Sample, cfg: &PlanConfig) -> (Arc<SamplePlan>, u64) {
        let plan = build_plan(sample, cfg);
        let key = plan.fingerprint();
        (cache.insert(key, plan), key)
    }

    #[test]
    fn sample_fingerprint_is_stable_and_content_sensitive() {
        let samples = toy_samples(2);
        let p = prep();
        let cfg = config(&p);
        let a = sample_fingerprint(&samples[0], &cfg);
        assert_eq!(a, sample_fingerprint(&samples[0], &cfg), "deterministic");
        assert_eq!(a, build_plan(&samples[0], &cfg).fingerprint());
        assert_ne!(
            a,
            sample_fingerprint(&samples[1], &cfg),
            "different traffic must fingerprint differently"
        );
        // Config changes re-key the scenario too: the state width through
        // the structure, the feature scales through the feature bits.
        let mut wide = config(&p);
        wide.state_dim = 16;
        assert_ne!(a, sample_fingerprint(&samples[0], &wide));
        let scaled = FeatureScales {
            rate_scale: 2.0,
            ..FeatureScales::unit()
        };
        let mut rescaled = config(&p);
        rescaled.scales = &scaled;
        assert_ne!(a, sample_fingerprint(&samples[0], &rescaled));
        // One changed capacity changes one feature bit pattern.
        let mut slower = samples[0].clone();
        slower.link_capacities[0] *= 0.5;
        assert_ne!(a, sample_fingerprint(&slower, &cfg));
    }

    #[test]
    fn label_only_edits_keep_the_key() {
        let p = prep();
        let cfg = config(&p);
        let qos = gen_config(Some(QosGenConfig::two_class_mix()));
        let sample = generate(&topologies::toy5(), &qos, 78, 1).samples.remove(0);
        let key = sample_fingerprint(&sample, &cfg);
        let mut relabeled = sample.clone();
        for t in &mut relabeled.targets {
            t.mean_delay_s *= 2.0;
            t.jitter_s += 1e-3;
            t.delivered += 1;
        }
        let class_targets = &mut relabeled.qos.as_mut().expect("a QoS sample").class_targets;
        for c in class_targets {
            c.mean_delay_s *= 3.0;
            c.delivered += 7;
        }
        assert_eq!(key, sample_fingerprint(&relabeled, &cfg));
        // The normalizer only shapes the labels, so it keys nothing either.
        let refit = Normalizer::fit(&[5e-3, 9e-3], false);
        let mut renormalized = config(&p);
        renormalized.normalizer = &refit;
        assert_eq!(key, sample_fingerprint(&sample, &renormalized));
    }

    #[test]
    fn a_legacy_sample_and_its_single_class_fifo_twin_share_one_key() {
        let samples = toy_samples(1);
        let p = prep();
        let cfg = config(&p);
        let legacy = &samples[0];
        let mut twin = legacy.clone();
        twin.qos = Some(SampleQos {
            policy: SchedulingPolicy::Fifo,
            class_profiles: vec![TrafficProfile::Poisson],
            path_classes: vec![0; legacy.num_paths()],
            class_targets: Vec::new(),
        });
        let (a, b) = (build_plan(legacy, &cfg), build_plan(&twin, &cfg));
        assert_eq!(b.num_queues, 0, "a single-class FIFO plan has no queues");
        assert!(a.path_init.approx_eq(&b.path_init, 0.0));
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            sample_fingerprint(legacy, &cfg),
            sample_fingerprint(&twin, &cfg)
        );
    }

    #[test]
    fn cache_counts_only_lookups() {
        let samples = toy_samples(2);
        let p = prep();
        let cfg = config(&p);
        let cache = PlanCache::new(8);
        let (plan_first, key) = plan_into(&cache, &samples[0], &cfg);
        assert_eq!(
            (cache.hits(), cache.misses()),
            (0, 0),
            "inserts count nothing"
        );
        let plan_again = cache.get(key).expect("resident");
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
        assert!(
            Arc::ptr_eq(&plan_first, &plan_again),
            "hit must return the cached plan"
        );
        // Planning the same sample again keys it the same and replaces the
        // entry without growing the cache.
        let (_, key_again) = plan_into(&cache, &samples[0], &cfg);
        assert_eq!(key, key_again);
        plan_into(&cache, &samples[1], &cfg);
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (1, 0, 0));
        assert!(cache.get(!key).is_none());
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let samples = toy_samples(3);
        let p = prep();
        let cfg = config(&p);
        let cache = PlanCache::new(2);
        let (_, k0) = plan_into(&cache, &samples[0], &cfg);
        let (_, k1) = plan_into(&cache, &samples[1], &cfg);
        // Touch k0 so k1 becomes the LRU victim.
        assert!(cache.get(k0).is_some());
        plan_into(&cache, &samples[2], &cfg);
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

        // A planned insert into the full cache evicts the LRU and counts no
        // lookup; its key then hits.
        let (_, key) = plan_into(&cache, &samples[1], &cfg);
        assert_eq!(cache.evictions(), 1, "capacity-2 cache evicts the LRU");
        assert_eq!((cache.hits(), cache.misses()), (5, 4));
        assert!(cache.get(key).is_some());
        assert_eq!(cache.hits(), 6);
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
                        let (_, key) = plan_into(&cache, sample, &cfg);
                        let plan = cache.get(key).expect("a just-inserted key stays resident");
                        assert_eq!(plan.n_paths, sample.num_paths());
                    }
                });
            }
        });
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (8, 0));
    }
}
