//! Property-based invariants of the RouteNet models: structural soundness of
//! plans and predictions on random networks, scenarios and configurations.

use proptest::prelude::*;
use rn_dataset::{generate_sample, Dataset, GeneratorConfig, Normalizer, Sample};
use rn_netgraph::generators;
use rn_netsim::SimConfig;
use rn_tensor::Prng;
use routenet::entities::{build_plan, PlanConfig};
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, FeatureScales, ModelConfig, OriginalRouteNet};
use std::sync::OnceLock;

fn quick_gen() -> GeneratorConfig {
    GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        ..GeneratorConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn plans_are_structurally_sound_on_random_networks(
        seed in any::<u64>(),
        n in 3usize..8,
    ) {
        let mut rng = Prng::new(seed);
        let topo = generators::erdos_renyi_connected(n, 0.3, 1e4, &mut rng).unwrap();
        let sample = generate_sample(&topo, &quick_gen(), seed, 0);
        let scales = FeatureScales::unit();
        let normalizer = Normalizer::identity();
        let config = PlanConfig {
            scales: &scales,
            normalizer: &normalizer,
            state_dim: 6,
            min_packets: 1,
            target: routenet::entities::TargetKind::Delay,
        };
        let plan = build_plan(&sample, &config);
        prop_assert_eq!(plan.n_paths, n * (n - 1));
        // Every active position's entity id is in range for its kind.
        for s in 0..plan.schedule.len() {
            for (&row, &id) in plan.schedule.active_rows(s).iter().zip(plan.schedule.active_ids(s)) {
                prop_assert!(row < plan.n_paths);
                match plan.schedule.kinds[s] {
                    routenet::EntityKind::Link => prop_assert!(id < plan.num_links),
                    routenet::EntityKind::Node => prop_assert!(id < plan.num_nodes),
                    routenet::EntityKind::Queue => prop_assert!(id < plan.num_queues),
                }
            }
        }
    }

    #[test]
    fn predictions_are_finite_positive_for_any_config(
        seed in any::<u64>(),
        state_dim in 2usize..12,
        mp_iterations in 1usize..4,
    ) {
        let mut rng = Prng::new(seed);
        let topo = generators::erdos_renyi_connected(5, 0.3, 1e4, &mut rng).unwrap();
        let sample = generate_sample(&topo, &quick_gen(), seed, 1);
        let ds = Dataset { topology: topo, samples: vec![sample] };

        let config = ModelConfig {
            state_dim,
            mp_iterations,
            readout_hidden: 2 * state_dim,
            seed,
            ..ModelConfig::default()
        };
        let mut model = ExtendedRouteNet::new(config);
        model.fit_preprocessing(&ds, 1);
        let plan = model.plan(&ds.samples[0]);
        for p in model.predict(&plan) {
            prop_assert!(p.is_finite() && p > 0.0, "prediction {p}");
        }
    }

    #[test]
    fn original_model_is_node_feature_invariant(
        seed in any::<u64>(),
        new_cap in 1usize..64,
    ) {
        let mut rng = Prng::new(seed);
        let topo = generators::erdos_renyi_connected(5, 0.3, 1e4, &mut rng).unwrap();
        let sample = generate_sample(&topo, &quick_gen(), seed, 2);
        let ds = Dataset { topology: topo, samples: vec![sample.clone()] };
        let mut model = OriginalRouteNet::new(ModelConfig {
            state_dim: 6,
            mp_iterations: 2,
            readout_hidden: 8,
            seed,
            ..ModelConfig::default()
        });
        model.fit_preprocessing(&ds, 1);
        let base = model.predict(&model.plan(&sample));
        let mut mutated = sample;
        mutated.queue_capacities = vec![new_cap; mutated.queue_capacities.len()];
        let after = model.predict(&model.plan(&mutated));
        prop_assert_eq!(base, after, "original RouteNet must ignore queue capacities");
    }

    #[test]
    fn untrained_models_are_weight_seed_sensitive(seed in 0u64..100) {
        // Different weight seeds must give different functions (sanity check
        // that seeding actually reaches the initializers).
        let mut rng = Prng::new(seed);
        let topo = generators::erdos_renyi_connected(4, 0.4, 1e4, &mut rng).unwrap();
        let sample = generate_sample(&topo, &quick_gen(), seed, 3);
        let ds = Dataset { topology: topo, samples: vec![sample] };
        let mk = |weight_seed: u64| {
            let mut m = ExtendedRouteNet::new(ModelConfig {
                state_dim: 6,
                mp_iterations: 1,
                readout_hidden: 8,
                seed: weight_seed,
                ..ModelConfig::default()
            });
            m.fit_preprocessing(&ds, 1);
            m.predict(&m.plan(&ds.samples[0]))
        };
        let a = mk(seed);
        let b = mk(seed + 1);
        prop_assert_ne!(a, b);
    }

    #[test]
    fn megabatch_steps_are_block_diagonal_on_arbitrary_batches(
        seed in any::<u64>(),
        sizes in proptest::collection::vec(3usize..7, 1..5),
    ) {
        // Ragged batches: every sample comes from a *different* random
        // topology, so path counts, sequence lengths and entity counts all
        // differ (short samples are absent from late steps).
        let scales = FeatureScales::unit();
        let normalizer = Normalizer::identity();
        let config = PlanConfig {
            scales: &scales,
            normalizer: &normalizer,
            state_dim: 6,
            min_packets: 1,
            target: routenet::entities::TargetKind::Delay,
        };
        let plans: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let mut rng = Prng::new(seed.wrapping_add(i as u64));
                let topo = generators::erdos_renyi_connected(n, 0.4, 1e4, &mut rng).unwrap();
                let sample = generate_sample(&topo, &quick_gen(), seed.wrapping_add(i as u64), 0);
                routenet::entities::build_plan(&sample, &config)
            })
            .collect();
        let parts: Vec<&routenet::SamplePlan> = plans.iter().collect();
        let mb = routenet::entities::build_megabatch(&parts);

        // Each sample's block of every entity space.
        let mut path_bounds = vec![0usize];
        let mut link_bounds = vec![0usize];
        let mut node_bounds = vec![0usize];
        let mut queue_bounds = vec![0usize];
        for p in &plans {
            path_bounds.push(path_bounds.last().unwrap() + p.n_paths);
            link_bounds.push(link_bounds.last().unwrap() + p.num_links);
            node_bounds.push(node_bounds.last().unwrap() + p.num_nodes);
            queue_bounds.push(queue_bounds.last().unwrap() + p.num_queues);
        }
        let ranges: Vec<(usize, usize)> = path_bounds.windows(2).map(|w| (w[0], w[1])).collect();
        prop_assert_eq!(&mb.path_ranges, &ranges);
        prop_assert_eq!(mb.plan.num_links, *link_bounds.last().unwrap());
        prop_assert_eq!(mb.plan.num_nodes, *node_bounds.last().unwrap());

        let csr = &mb.plan.schedule;
        for s in 0..csr.len() {
            let active = csr.active_rows(s);
            prop_assert!(active.windows(2).all(|w| w[0] < w[1]), "rows ascend");
            let entity = match csr.kinds[s] {
                routenet::EntityKind::Link => &link_bounds,
                routenet::EntityKind::Node => &node_bounds,
                routenet::EntityKind::Queue => &queue_bounds,
            };
            // Sample boundaries respected: a row of sample b gathers from
            // and scatters into b's block of the (kind-dependent) entity
            // space, and no other.
            for (&row, &id) in active.iter().zip(csr.active_ids(s)) {
                let b = path_bounds.partition_point(|&bound| bound <= row) - 1;
                prop_assert!(b < parts.len());
                prop_assert!(id >= entity[b] && id < entity[b + 1]);
            }
        }
    }

    #[test]
    fn structure_fingerprint_collisions_imply_identical_compiled_structure(
        seed in any::<u64>(),
        n in 3usize..7,
        rate_scale in 1.01f64..3.0,
    ) {
        // A refill trusts equal structure fingerprints to mean equal
        // compiled structure. Build a family of plans — same sample,
        // a feature-perturbed twin, a second sample on the same topology
        // and one from a different topology — and check the implication on
        // every pair. The feature twin also pins the non-vacuous direction:
        // its fingerprint MUST collide with the original's.
        let scales = FeatureScales::unit();
        let normalizer = Normalizer::identity();
        let config = PlanConfig {
            scales: &scales,
            normalizer: &normalizer,
            state_dim: 6,
            min_packets: 1,
            target: routenet::entities::TargetKind::Delay,
        };
        let mut rng = Prng::new(seed);
        let topo = generators::erdos_renyi_connected(n, 0.35, 1e4, &mut rng).unwrap();
        let sample = generate_sample(&topo, &quick_gen(), seed, 0);
        let mut feature_twin = sample.clone();
        for c in &mut feature_twin.link_capacities {
            *c *= rate_scale;
        }
        for t in &mut feature_twin.targets {
            t.mean_delay_s *= rate_scale;
        }
        let sibling = generate_sample(&topo, &quick_gen(), seed.wrapping_add(9), 1);
        let mut rng2 = Prng::new(seed.wrapping_add(1));
        let other_topo = generators::erdos_renyi_connected(n + 1, 0.35, 1e4, &mut rng2).unwrap();
        let foreign = generate_sample(&other_topo, &quick_gen(), seed, 2);

        let plans: Vec<routenet::SamplePlan> = [&sample, &feature_twin, &sibling, &foreign]
            .into_iter()
            .map(|s| build_plan(s, &config))
            .collect();
        prop_assert_eq!(
            plans[0].structure_fingerprint(),
            plans[1].structure_fingerprint(),
            "feature-only twins must share a structure fingerprint"
        );
        for (i, a) in plans.iter().enumerate() {
            for b in plans.iter().skip(i + 1) {
                if a.structure_fingerprint() != b.structure_fingerprint() {
                    continue;
                }
                // Collision => every structural field is identical.
                prop_assert_eq!(a.n_paths, b.n_paths);
                prop_assert_eq!(a.num_links, b.num_links);
                prop_assert_eq!(a.num_nodes, b.num_nodes);
                prop_assert_eq!(&a.pairs, &b.pairs);
                prop_assert_eq!(&a.schedule, &b.schedule);
                // And composing from either yields one identical structure
                // (rows and ids included).
                let mb_a = routenet::entities::build_megabatch(&[a, a]);
                let mb_b = routenet::entities::build_megabatch(&[b, b]);
                prop_assert_eq!(&mb_a.plan.schedule, &mb_b.plan.schedule);
            }
        }
    }

    #[test]
    fn megabatch_forward_matches_per_sample_prediction(
        seed in any::<u64>(),
        batch in 2usize..5,
    ) {
        // The fused forward over a block-diagonal plan must agree with
        // per-sample prediction (and be deterministic under reuse).
        let mut rng = Prng::new(seed);
        let topo = generators::erdos_renyi_connected(5, 0.4, 1e4, &mut rng).unwrap();
        let samples: Vec<_> = (0..batch as u64)
            .map(|i| generate_sample(&topo, &quick_gen(), seed.wrapping_add(i), i))
            .collect();
        let ds = Dataset { topology: topo, samples };
        let mut model = ExtendedRouteNet::new(ModelConfig {
            state_dim: 6,
            mp_iterations: 2,
            readout_hidden: 8,
            seed: 1,
            ..ModelConfig::default()
        });
        model.fit_preprocessing(&ds, 1);
        let plans: Vec<_> = ds.samples.iter().map(|s| model.plan(s)).collect();
        let batched = model.predict_batch(&plans);
        for (b, plan) in plans.iter().enumerate() {
            let single = model.predict(plan);
            prop_assert_eq!(batched[b].len(), single.len());
            for (x, y) in batched[b].iter().zip(&single) {
                let denom = y.abs().max(1e-12);
                prop_assert!(((x - y).abs() / denom) < 1e-5,
                    "sample {}: batched {} vs single {}", b, x, y);
            }
        }
    }
}

/// The reference the plan cache is checked against: keys in a `Vec`, least
/// recently used first.
struct ModelLru {
    capacity: usize,
    keys: Vec<u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ModelLru {
    fn get(&mut self, key: u64) -> bool {
        match self.keys.iter().position(|&k| k == key) {
            Some(at) => {
                self.keys.remove(at);
                self.keys.push(key);
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    fn insert(&mut self, key: u64) {
        match self.keys.iter().position(|&k| k == key) {
            Some(at) => {
                self.keys.remove(at);
            }
            None if self.keys.len() == self.capacity => {
                self.keys.remove(0);
                self.evictions += 1;
            }
            None => {}
        }
        self.keys.push(key);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plan_cache_behaves_like_a_reference_lru(
        capacity in 0usize..5,
        ops in proptest::collection::vec((0usize..4, 0usize..6), 1..80usize),
    ) {
        // Six scenarios are the key space; `insert` uses their fingerprints
        // so that all four operations meet on the same keys.
        static SCENARIOS: OnceLock<Vec<Sample>> = OnceLock::new();
        let samples = SCENARIOS.get_or_init(|| {
            let topo = rn_netgraph::topologies::toy5();
            (0..6).map(|i| generate_sample(&topo, &quick_gen(), 5, i)).collect()
        });
        let (scales, normalizer) = (FeatureScales::unit(), Normalizer::identity());
        let config = PlanConfig {
            scales: &scales,
            normalizer: &normalizer,
            state_dim: 4,
            min_packets: 1,
            target: routenet::entities::TargetKind::Delay,
        };
        let keys: Vec<u64> = samples
            .iter()
            .map(|s| routenet::sample_fingerprint(s, &config))
            .collect();

        let cache = routenet::PlanCache::new(capacity);
        // A capacity of 0 is floored to 1.
        let mut model = ModelLru {
            capacity: capacity.max(1),
            keys: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        for (op, k) in ops {
            match op {
                0 => prop_assert_eq!(cache.get(keys[k]).is_some(), model.get(keys[k])),
                1 => {
                    cache.insert(keys[k], build_plan(&samples[k], &config));
                    model.insert(keys[k]);
                }
                2 => {
                    let (plan, key) = cache.get_or_build(&samples[k], &config);
                    prop_assert_eq!((key, plan.n_paths), (keys[k], samples[k].num_paths()));
                    if !model.get(key) {
                        model.insert(key);
                    }
                }
                _ => {
                    cache.clear();
                    model.keys.clear();
                }
            }
            prop_assert_eq!(
                (cache.len(), cache.hits(), cache.misses(), cache.evictions()),
                (model.keys.len(), model.hits, model.misses, model.evictions)
            );
        }
        // The same keys are resident (a lookup is the only probe there is,
        // so this comes last: it restamps what it finds).
        for &key in &keys {
            prop_assert_eq!(cache.get(key).is_some(), model.keys.contains(&key));
        }
    }
}
