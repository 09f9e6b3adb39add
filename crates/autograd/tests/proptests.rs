//! Property-based validation of the tape: random composite functions must
//! always agree with finite differences, and structural ops must preserve
//! linearity invariants.

use proptest::prelude::*;
use rn_autograd::check::check_gradients;
use rn_autograd::{BufPool, Graph};
use rn_tensor::{Matrix, Prng};

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f32..1.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// One cycle of a shape-changing sequence: a fused chain (gather + compact
/// GRU + scatter, then a loss and a backward sweep unless `inference`) whose
/// every buffer size follows `paths`, `entities` and `hidden`.
#[derive(Debug, Clone)]
struct Cycle {
    /// Path-state rows; 0 records empty matrices, 1 with `hidden == 1` a 1x1.
    paths: usize,
    entities: usize,
    hidden: usize,
    inference: bool,
    seed: u64,
}

fn cycle_strategy() -> impl Strategy<Value = Cycle> {
    (
        (0usize..5, 1usize..5, 0usize..3),
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|((size, entities, width), inference, seed)| Cycle {
            paths: [0, 1, 3, 40, 300][size],
            entities,
            hidden: [1, 4, 16][width],
            inference,
            seed,
        })
}

/// A GRU cell's six parameters `[W_z, b_z, W_r, b_r, W_c, b_c]` at width `d`
/// (input as wide as the state), drawn from `rng` in that order.
fn gru_params(g: &mut Graph, rng: &mut Prng, d: usize) -> [rn_autograd::Var; 6] {
    [
        (2 * d, 0.5),
        (1, 0.1),
        (2 * d, 0.5),
        (1, 0.1),
        (2 * d, 0.5),
        (1, 0.1),
    ]
    .map(|(rows, span)| g.param(rng.uniform_matrix(rows, d, -span, span)))
}

/// Record `c` on `g` (already reset) and return the bits of everything it
/// computed: the output state, then — in training mode — the loss and every
/// gradient.
fn run_cycle(g: &mut Graph, c: &Cycle) -> Vec<u32> {
    let mut rng = Prng::new(c.seed);
    let (n, d) = (c.paths, c.hidden);
    g.set_inference_mode(c.inference);
    let params = gru_params(g, &mut rng, d);
    let vars = g.gru_pack(params);
    let states = g.param(rng.uniform_matrix(c.entities, d, -1.0, 1.0));
    let h = g.param_copy(&rng.uniform_matrix(n, d, -1.0, 1.0));
    // Every other path is active; each reads (and reports to) some entity.
    let rows: Vec<usize> = (0..n).step_by(2).collect();
    let ids: Vec<usize> = rows.iter().map(|r| r % c.entities).collect();
    let projected = g.matmul(states, vars.w_x);
    let h2 = g.gru_step_rows(&vars, h, projected, &rows, &ids);
    let acc = g.constant_with(c.entities, d, |_| {});
    let out = g.segment_acc_rows(acc, h2, &rows, &ids);
    let mut bits: Vec<u32> = g
        .value(out)
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    if !c.inference {
        let sq = g.square(out);
        let loss = g.mean(sq);
        g.backward(loss);
        bits.push(g.value(loss).get(0, 0).to_bits());
        for v in params.into_iter().chain([states, h]) {
            // A chain with no active path leaves some leaves untouched.
            let grad = g.grad(v).map(|m| m.as_slice().to_vec()).unwrap_or_default();
            bits.extend(grad.iter().map(|v| v.to_bits()));
        }
    }
    g.set_inference_mode(false);
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn shape_changing_reuse_is_bit_identical_and_bounded(
        cycles in proptest::collection::vec(cycle_strategy(), 2..7),
    ) {
        // One tape runs the whole sequence — large, small and empty shapes,
        // inference and training cycles in any order — three times over.
        // Every cycle must match a fresh tape bit for bit, and from the
        // second pass on the pool must neither grow nor allocate.
        let mut reused = Graph::new();
        let mut settled = None;
        for pass in 0..3 {
            for c in &cycles {
                reused.reset();
                let got = run_cycle(&mut reused, c);
                let want = run_cycle(&mut Graph::new(), c);
                prop_assert_eq!(got, want, "pass {} cycle {:?}", pass, c);
            }
            reused.reset();
            // Buffer and miss counts, not bytes: the leaves above are
            // caller-allocated matrices, adopted at reset with whatever
            // capacity (within their class) the caller's allocation had.
            let now = (reused.pooled_buffers(), reused.pool_misses());
            if pass > 0 {
                prop_assert_eq!(settled, Some(now), "pool moved in pass {}", pass);
            }
            settled = Some(now);
        }
    }

    #[test]
    fn buf_pool_hands_out_fitting_buffers_and_parks_within_its_bound(
        ops in proptest::collection::vec((0usize..4, 0usize..2000, any::<bool>()), 1..200),
    ) {
        // A random schedule of takes, returns of taken buffers, adoptions of
        // foreign ones and cycle ends, checked against a model of the
        // contract: a taken buffer fits its request, a class never parks more
        // than its high-water mark of live buffers, and that mark — which a
        // foreign buffer arriving mid-cycle must not lower — is what the
        // pool reports as its limit.
        let mut pool = BufPool::<f32>::new();
        let class_of = |len: usize| len.next_power_of_two().trailing_zeros() as usize;
        let mut held: Vec<Vec<f32>> = Vec::new();
        let (mut live, mut limit) = (vec![0usize; 16], vec![0usize; 16]);
        for (kind, len, foreign) in ops {
            match kind {
                0 | 1 => {
                    let buf = pool.take(len);
                    prop_assert!(buf.capacity() >= len, "take({}) got {}", len, buf.capacity());
                    if len > 0 {
                        let k = class_of(len);
                        live[k] += 1;
                        limit[k] = limit[k].max(live[k]);
                        held.push(buf);
                    }
                }
                2 => {
                    if foreign {
                        pool.adopt(Vec::with_capacity(len));
                    } else if let Some(buf) = held.pop() {
                        let k = buf.capacity().ilog2() as usize;
                        live[k] = live[k].saturating_sub(1);
                        pool.put(buf);
                    }
                }
                _ => {
                    pool.end_cycle();
                    live.iter_mut().for_each(|l| *l = 0);
                }
            }
            let mut parked = 0;
            for (k, c) in pool.classes().enumerate() {
                prop_assert_eq!(c.capacity, 1usize << k);
                prop_assert_eq!(c.limit, limit[k], "class {} limit", k);
                prop_assert!(c.parked <= c.limit, "class {} parks {} > {}", k, c.parked, c.limit);
                parked += c.parked;
            }
            prop_assert_eq!(parked, pool.parked());
        }
    }

    #[test]
    fn random_dense_chain_passes_gradient_check(
        x in matrix_strategy(3, 4),
        w in matrix_strategy(4, 3),
        b in matrix_strategy(1, 3),
    ) {
        let report = check_gradients(
            move |g, vars| {
                let h = g.matmul(vars[0], vars[1]);
                let hb = g.add_bias(h, vars[2]);
                let a = g.selu(hb);
                let sq = g.square(a);
                g.mean(sq)
            },
            &[x, w, b],
            1e-2,
        );
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn gather_scatter_chain_passes_gradient_check(
        x in matrix_strategy(5, 3),
        raw_idx in proptest::collection::vec(0usize..5, 1..8),
    ) {
        let idx = raw_idx.clone();
        let rows: Vec<usize> = (0..idx.len()).collect();
        let segs: Vec<usize> = rows.iter().map(|i| i % 3).collect();
        let report = check_gradients(
            move |g, vars| {
                let gathered = g.gather_rows(vars[0], &idx);
                let acc = g.constant(Matrix::zeros(3, 3));
                let summed = g.segment_acc_rows(acc, gathered, &rows, &segs);
                let t = g.selu(summed);
                g.mean(t)
            },
            &[x],
            1e-2,
        );
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn backward_of_linear_function_is_input_independent(
        x in matrix_strategy(3, 3),
        y in matrix_strategy(3, 3),
    ) {
        // For loss = sum(a - b), gradients are ±1 regardless of values.
        let mut g = Graph::new();
        let a = g.param(x);
        let b = g.param(y);
        let s = g.sub(a, b);
        let loss = g.sum(s);
        g.backward(loss);
        prop_assert!(g.grad(a).unwrap().approx_eq(&Matrix::ones(3, 3), 1e-6));
        prop_assert!(g.grad(b).unwrap().approx_eq(&Matrix::filled(3, 3, -1.0), 1e-6));
    }

    #[test]
    fn gradient_scales_linearly_with_loss_scale(seed in any::<u64>(), k in 1.0f32..5.0) {
        let mut rng = Prng::new(seed);
        let x0 = rng.uniform_matrix(2, 3, -1.0, 1.0);

        let run = |scale: f32, x: Matrix| -> Matrix {
            let mut g = Graph::new();
            let v = g.param(x);
            let t = g.selu(v);
            let m = g.mean(t);
            let s = g.constant(Matrix::filled(1, 1, scale));
            let loss = g.matmul(m, s);
            g.backward(loss);
            g.grad(v).unwrap().clone()
        };
        let g1 = run(1.0, x0.clone());
        let gk = run(k, x0);
        prop_assert!(gk.approx_eq(&g1.scale(k), 1e-4));
    }

    #[test]
    fn value_of_segment_acc_rows_preserves_mass(
        x in matrix_strategy(6, 2),
        nseg in 1usize..4,
    ) {
        let rows: Vec<usize> = (0..6).collect();
        let segs: Vec<usize> = rows.iter().map(|i| i % nseg).collect();
        let mut g = Graph::new();
        let v = g.param(x.clone());
        let acc = g.constant(Matrix::zeros(nseg, 2));
        let s = g.segment_acc_rows(acc, v, &rows, &segs);
        prop_assert!((g.value(s).sum() - x.sum()).abs() < 1e-4);
    }

    #[test]
    fn reset_reuse_is_bit_identical_to_fresh_tape(
        seed in any::<u64>(),
        warm_runs in 1usize..4,
    ) {
        // A random fused chain (projection + compact GRU + scatter + loss) run
        // on a fresh tape must produce bitwise-identical values and
        // gradients to the same chain on a tape that has already been
        // through `warm_runs` forward/backward/reset cycles.
        let run = |g: &mut Graph, seed: u64| -> (f32, Vec<Matrix>) {
            let mut rng = Prng::new(seed);
            let params = gru_params(g, &mut rng, 4);
            let vars = g.gru_pack(params);
            let states = g.param(rng.uniform_matrix(3, 4, -1.0, 1.0));
            let h = g.param(rng.uniform_matrix(5, 4, -1.0, 1.0));
            let rows = [0usize, 2, 4];
            let ids = [1usize, 0, 2];
            let projected = g.matmul(states, vars.w_x);
            let h2 = g.gru_step_rows(&vars, h, projected, &rows, &ids);
            let acc = g.constant(Matrix::zeros(3, 4));
            let out = g.segment_acc_rows(acc, h2, &rows, &ids);
            let sq = g.square(out);
            let loss = g.mean(sq);
            g.backward(loss);
            let grads = params
                .into_iter()
                .chain([states, h])
                .map(|v| g.grad(v).unwrap().clone())
                .collect();
            (g.value(loss).get(0, 0), grads)
        };

        let mut fresh = Graph::new();
        let (loss_fresh, grads_fresh) = run(&mut fresh, seed);

        let mut reused = Graph::new();
        for warm in 0..warm_runs {
            let _ = run(&mut reused, seed.wrapping_add(warm as u64 + 1));
            reused.reset();
        }
        prop_assert!(reused.pooled_buffers() > 0, "reset must park buffers");
        let (loss_reused, grads_reused) = run(&mut reused, seed);

        prop_assert_eq!(loss_fresh.to_bits(), loss_reused.to_bits());
        for (a, b) in grads_fresh.iter().zip(&grads_reused) {
            prop_assert!(a.approx_eq(b, 0.0), "gradients must be bit-identical");
        }
    }
}
