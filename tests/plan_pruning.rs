//! A plan holds state rows only for the entities some routed path crosses,
//! and the fused forward sends no message nothing reads.
//!
//! - An entity on no path is invisible: changing its features changes no
//!   field of the plan and no prediction bit.
//! - State rows are exactly the distinct links, forwarding nodes and
//!   (link, class) queues on the routed paths, numbered densely in ascending
//!   topology id.
//! - The last message-passing iteration advances the paths only: the tape
//!   holds one iteration less of message sums and entity updates, and the
//!   predictions are those of the op-by-op reference forward, which still
//!   ran them (to 1e-5 relative, against its predictions recorded in
//!   `tests/fixtures/reference_values.json` before it was deleted; that no
//!   bit moved against the previous fused forward is what the prediction
//!   digests of `tests/model_digest.rs` pin).
//! - A sweep step reads its entities' projection rows through their ids:
//!   no gather node sits between the projection and the step.

use rn_autograd::trace::{KIND_GATHER, KIND_GRU, KIND_SEGMENT};
use rn_autograd::Graph;
use rn_dataset::{generate_sparse, Dataset, GeneratorConfig, QosGenConfig, Sample};
use rn_netgraph::generators::{isp_tiered, TierConfig};
use rn_netsim::SimConfig;
use rn_tensor::Prng;
use routenet::entities::EntityKind;
use routenet::model::PathPredictor;
use routenet::{ExtendedRouteNet, ModelConfig, OriginalRouteNet, QosRouteNet, SamplePlan};
use std::collections::BTreeSet;

/// `samples` sparse scenarios of `pairs` routed pairs on a seeded ISP graph.
fn sparse_isp(nodes: usize, pairs: usize, samples: usize, qos: bool) -> Dataset {
    let topo = isp_tiered(nodes, &TierConfig::default(), &mut Prng::new(nodes as u64))
        .expect("valid generator input");
    let config = GeneratorConfig {
        sim: SimConfig {
            duration_s: 30.0,
            warmup_s: 5.0,
            ..SimConfig::default()
        },
        qos: qos.then(QosGenConfig::two_class_mix),
        ..GeneratorConfig::default()
    };
    generate_sparse(&topo, &config, pairs, 20_260_928, samples)
}

fn config() -> ModelConfig {
    ModelConfig {
        state_dim: 8,
        mp_iterations: 3,
        readout_hidden: 8,
        seed: 16,
        ..ModelConfig::default()
    }
}

/// What the routed paths of a sample cross, in ascending topology id.
struct Crossed {
    links: Vec<usize>,
    /// Nodes some path forwards through: all of a path's nodes but the last.
    nodes: Vec<usize>,
    /// `link * num_classes + class` for every link a path of `class` crosses.
    queues: Vec<usize>,
    hops: usize,
}

fn crossed(sample: &Sample) -> Crossed {
    let (mut links, mut nodes, mut queues) = (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    let mut hops = 0;
    let classes = sample.qos.as_ref().map_or(1, |q| q.num_classes());
    for (row, (_, _, path)) in sample.routing.iter_paths().enumerate() {
        let class = sample
            .qos
            .as_ref()
            .map_or(0, |q| q.path_classes[row] as usize);
        hops += path.hop_count();
        for (&link, &node) in path.links.iter().zip(&path.nodes) {
            links.insert(link);
            nodes.insert(node);
            queues.insert(link * classes + class);
        }
    }
    Crossed {
        links: links.into_iter().collect(),
        nodes: nodes.into_iter().collect(),
        queues: queues.into_iter().collect(),
        hops,
    }
}

/// The entity id path `row` reads at schedule step `step`.
fn id_at(plan: &SamplePlan, step: usize, row: usize) -> usize {
    let k = plan.schedule.active_rows(step).binary_search(&row);
    plan.schedule.active_ids(step)[k.expect("the path has the position")]
}

fn assert_plans_equal(a: &SamplePlan, b: &SamplePlan) {
    assert_eq!(
        (a.n_paths, a.num_links, a.num_nodes, a.num_queues),
        (b.n_paths, b.num_links, b.num_nodes, b.num_queues)
    );
    assert_eq!(a.pairs, b.pairs);
    assert_eq!(a.path_init.as_slice(), b.path_init.as_slice());
    assert_eq!(a.link_init.as_slice(), b.link_init.as_slice());
    assert_eq!(a.node_init.as_slice(), b.node_init.as_slice());
    assert_eq!(a.queue_init.as_slice(), b.queue_init.as_slice());
    assert_eq!(a.schedule, b.schedule);
    assert_eq!(a.structure_fingerprint(), b.structure_fingerprint());
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// What the op-by-op reference forward, which still ran the last
/// iteration's entity updates, predicted on
/// [`the_last_iteration_sends_no_message_and_keeps_the_predictions`]'s plan,
/// per model: recorded in `tests/fixtures/reference_values.json` before it
/// was deleted.
fn recorded_reference(model: &str) -> Vec<f64> {
    #[derive(serde::Deserialize)]
    struct NamedPredictions {
        name: String,
        predictions: Vec<f64>,
    }
    #[derive(serde::Deserialize)]
    struct ReferenceValues {
        plan_pruning: Vec<NamedPredictions>,
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/reference_values.json"
    );
    let text = std::fs::read_to_string(path).expect("read reference_values.json");
    let values: ReferenceValues = serde_json::from_str(&text).expect("parse reference_values.json");
    let recorded = values.plan_pruning.into_iter().find(|r| r.name == model);
    recorded
        .unwrap_or_else(|| panic!("no recorded predictions for `{model}`"))
        .predictions
}

/// The fused forward's predictions against the reference forward's.
fn assert_matches_unfused<M: PathPredictor>(model: &M, plan: &SamplePlan) {
    let recorded = recorded_reference(model.name());
    let fused = model.predict(plan);
    assert_eq!(fused.len(), recorded.len());
    for (row, (fused, unfused)) in fused.into_iter().zip(recorded).enumerate() {
        assert!(
            (fused - unfused).abs() <= 1e-5 * unfused.abs(),
            "{} row {row}: fused {fused:e} vs unfused {unfused:e}",
            model.name()
        );
    }
}

#[test]
fn an_entity_on_no_path_is_invisible_to_the_plan_and_the_predictions() {
    let ds = sparse_isp(60, 12, 1, false);
    let sample = &ds.samples[0];
    let on_path = crossed(sample);
    let idle_link = (0..sample.link_capacities.len())
        .find(|l| on_path.links.binary_search(l).is_err())
        .expect("12 paths leave a link idle");
    let idle_node = (0..sample.queue_capacities.len())
        .find(|n| on_path.nodes.binary_search(n).is_err())
        .expect("12 paths leave a node idle");
    let mut edited = sample.clone();
    edited.link_capacities[idle_link] *= 7.0;
    edited.queue_capacities[idle_node] = 1;

    fn check<M: PathPredictor>(mut model: M, ds: &Dataset, edited: &Sample) {
        model.fit_preprocessing(ds, 5);
        let (plan, plan_edited) = (model.plan(&ds.samples[0]), model.plan(edited));
        assert_plans_equal(&plan, &plan_edited);
        assert_eq!(
            bits(&model.predict(&plan)),
            bits(&model.predict(&plan_edited)),
            "{}",
            model.name()
        );
    }
    check(OriginalRouteNet::new(config()), &ds, &edited);
    check(ExtendedRouteNet::new(config()), &ds, &edited);
    check(QosRouteNet::new(config()), &ds, &edited);

    // An entity that is on a path still counts.
    let mut model = ExtendedRouteNet::new(config());
    model.fit_preprocessing(&ds, 5);
    let mut busier = sample.clone();
    busier.link_capacities[on_path.links[0]] *= 7.0;
    assert_ne!(
        bits(&model.predict(&model.plan(sample))),
        bits(&model.predict(&model.plan(&busier)))
    );
}

#[test]
fn state_rows_are_the_crossed_entities_in_ascending_topology_id() {
    let ds = sparse_isp(500, 64, 1, false);
    let sample = &ds.samples[0];
    let mut model = ExtendedRouteNet::new(config());
    model.fit_preprocessing(&ds, 5);
    let plan = model.plan(sample);
    let on_path = crossed(sample);
    let (scales, _) = model.preprocessing();

    assert_eq!(plan.n_paths, 64);
    assert_eq!(plan.num_links, on_path.links.len());
    assert_eq!(plan.num_nodes, on_path.nodes.len());
    assert_eq!(plan.num_queues, 0);
    assert!(plan.num_links <= on_path.hops && plan.num_nodes <= on_path.hops);
    assert!(
        plan.num_links < sample.link_capacities.len() / 2,
        "64 paths cross {} of {} links",
        plan.num_links,
        sample.link_capacities.len()
    );
    assert_eq!(plan.link_init.shape(), (plan.num_links, 8));
    assert_eq!(plan.node_init.shape(), (plan.num_nodes, 8));

    // Row r holds the features of the r-th crossed entity.
    for (row, &link) in on_path.links.iter().enumerate() {
        let capacity = scales.capacity(sample.link_capacities[link]);
        assert_eq!(plan.link_init.get(row, 0), capacity, "link row {row}");
    }
    for (row, &node) in on_path.nodes.iter().enumerate() {
        let queue = scales.queue(sample.queue_capacities[node]);
        assert_eq!(plan.node_init.get(row, 0), queue, "node row {row}");
    }
    // The schedule addresses those rows.
    for (row, (_, _, path)) in sample.routing.iter_paths().enumerate() {
        for (hop, (link, node)) in path.links.iter().zip(&path.nodes).enumerate() {
            let node_row = on_path.nodes.binary_search(node).expect("forwarding node");
            assert_eq!(id_at(&plan, 2 * hop, row), node_row);
            assert_eq!(
                Ok(id_at(&plan, 2 * hop + 1, row)),
                on_path.links.binary_search(link)
            );
        }
    }
    // Dense: every row is addressed by some step.
    for (kind, rows) in [
        (EntityKind::Link, plan.num_links),
        (EntityKind::Node, plan.num_nodes),
    ] {
        let addressed: BTreeSet<usize> = (0..plan.schedule.len())
            .filter(|&s| plan.schedule.kinds[s] == kind)
            .flat_map(|s| plan.schedule.active_ids(s).iter().copied())
            .collect();
        assert!(addressed.into_iter().eq(0..rows), "{kind:?} rows");
    }
}

#[test]
fn queue_rows_are_the_crossed_link_class_pairs() {
    let ds = sparse_isp(60, 12, 1, true);
    let sample = &ds.samples[0];
    let qos = sample.qos.as_ref().expect("two-class sample");
    let mut model = QosRouteNet::new(config());
    model.fit_preprocessing(&ds, 5);
    let plan = model.plan(sample);
    let on_path = crossed(sample);
    let n = qos.num_classes();

    assert_eq!(plan.num_queues, on_path.queues.len());
    assert!(plan.num_queues <= on_path.hops);
    assert!(plan.num_queues < sample.link_capacities.len() * n);
    for (row, (_, _, path)) in sample.routing.iter_paths().enumerate() {
        let class = qos.path_classes[row] as usize;
        for (hop, &link) in path.links.iter().enumerate() {
            let queue = id_at(&plan, 3 * hop + 1, row);
            assert_eq!(Ok(queue), on_path.queues.binary_search(&(link * n + class)));
            assert_eq!(
                plan.queue_init.get(queue, 0),
                qos.policy.class_share(class, n) as f32
            );
            assert_eq!(
                Ok(id_at(&plan, 3 * hop + 2, row)),
                on_path.links.binary_search(&link)
            );
        }
    }
}

/// `(gru, segment)` nodes the fused forward records for `plan`.
fn gru_and_segment_nodes<M: PathPredictor>(model: &M, plan: &SamplePlan) -> (usize, usize) {
    let mut g = Graph::new();
    let bound = model.bind(&mut g);
    model.forward(&mut g, &bound, plan);
    let counts = g.op_kind_counts();
    (counts[KIND_GRU], counts[KIND_SEGMENT])
}

#[test]
fn the_last_iteration_sends_no_message_and_keeps_the_predictions() {
    let ds = sparse_isp(60, 12, 1, true);
    let steps_of = |plan: &SamplePlan, kinds: &[EntityKind]| {
        (0..plan.schedule.len())
            .filter(|&s| kinds.contains(&plan.schedule.kinds[s]) && plan.schedule.active(s) > 0)
            .count()
    };
    // T iterations: T sweeps of the path GRU, T - 1 rounds of messages and
    // entity updates.
    let t = config().mp_iterations;
    use EntityKind::{Link, Node, Queue};

    let mut original = OriginalRouteNet::new(config());
    original.fit_preprocessing(&ds, 5);
    let plan = original.plan(&ds.samples[0]);
    let links = steps_of(&plan, &[Link]);
    assert_eq!(
        gru_and_segment_nodes(&original, &plan),
        (t * links + (t - 1), (t - 1) * links)
    );
    assert_matches_unfused(&original, &plan);

    let mut qos = QosRouteNet::new(config());
    qos.fit_preprocessing(&ds, 5);
    let plan = qos.plan(&ds.samples[0]);
    let all = steps_of(&plan, &[Link, Node, Queue]);
    assert_eq!(
        gru_and_segment_nodes(&qos, &plan),
        (t * all + 3 * (t - 1), (t - 1) * all)
    );
    assert_matches_unfused(&qos, &plan);

    let mut extended = ExtendedRouteNet::new(config());
    extended.fit_preprocessing(&ds, 5);
    let plan = extended.plan(&ds.samples[0]);
    let visited = steps_of(&plan, &[Link, Node]);
    assert_eq!(
        gru_and_segment_nodes(&extended, &plan),
        (t * visited + 2 * (t - 1), (t - 1) * visited)
    );
    assert_matches_unfused(&extended, &plan);
}

/// The op-kind counts of `model`'s forward on `plan`, and then of the same
/// tape after the loss's selection of the reliable rows.
fn forward_kind_counts<M: PathPredictor>(
    model: &M,
    plan: &SamplePlan,
    inference: bool,
) -> [Vec<usize>; 2] {
    let mut g = Graph::new();
    g.set_inference_mode(inference);
    let bound = model.bind(&mut g);
    let pred = model.forward(&mut g, &bound, plan);
    let forward = g.op_kind_counts();
    g.gather_rows(pred, &plan.reliable_idx);
    [forward, g.op_kind_counts()]
}

#[test]
fn a_sweep_reads_the_projections_through_the_ids_without_a_gather() {
    let ds = sparse_isp(60, 12, 1, false);
    let mut extended = ExtendedRouteNet::new(config());
    extended.fit_preprocessing(&ds, 5);
    let plan = extended.plan(&ds.samples[0]);
    for inference in [false, true] {
        let [forward, with_loss] = forward_kind_counts(&extended, &plan, inference);
        assert_eq!(
            forward[KIND_GATHER], 0,
            "inference {inference}: {forward:?}"
        );
        assert!(forward[KIND_GRU] > 0 && forward[KIND_SEGMENT] > 0);
        // The loss's selection of the reliable rows is the tape's one gather.
        assert_eq!(with_loss[KIND_GATHER], 1);
    }
}
