//! Property-based validation of the layer stack: every randomly configured
//! layer must pass a finite-difference gradient check, and optimizers must
//! make progress on random convex problems.

use proptest::prelude::*;
use rn_autograd::check::check_gradients;
use rn_nn::{Activation, Adam, GruCell, Layer, Mlp, Optimizer, Sgd};
use rn_tensor::{Matrix, Prng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_linear_layers_pass_gradient_check(
        seed in any::<u64>(),
        in_dim in 1usize..6,
        out_dim in 1usize..6,
        batch in 1usize..5,
    ) {
        let mut rng = Prng::new(seed);
        let x = rng.uniform_matrix(batch, in_dim, -1.0, 1.0);
        let w = rng.uniform_matrix(in_dim, out_dim, -0.7, 0.7);
        let b = rng.uniform_matrix(1, out_dim, -0.2, 0.2);
        let report = check_gradients(
            move |g, vars| {
                let xv = g.constant(x.clone());
                let h = g.matmul(xv, vars[0]);
                let hb = g.add_bias(h, vars[1]);
                let a = g.selu(hb);
                let sq = g.square(a);
                g.mean(sq)
            },
            &[w, b],
            1e-2,
        );
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn gru_state_is_bounded_for_any_input_scale(
        seed in any::<u64>(),
        input_scale in 0.1f32..10.0,
        steps in 1usize..20,
    ) {
        let mut rng = Prng::new(seed);
        let cell = GruCell::new(&mut rng, 3, 4);
        let mut h = Matrix::zeros(2, 4);
        for _ in 0..steps {
            let x = rng.uniform_matrix(2, 3, -input_scale, input_scale);
            h = cell.step_inference(&h, &x);
        }
        prop_assert!(h.max_abs() <= 1.0 + 1e-5, "GRU state escaped [-1,1]: {}", h.max_abs());
        prop_assert!(!h.has_non_finite());
    }

    #[test]
    fn mlp_inference_matches_tape_for_random_shapes(
        seed in any::<u64>(),
        hidden in 1usize..8,
        batch in 1usize..6,
    ) {
        let mut rng = Prng::new(seed);
        let mlp = Mlp::new(&mut rng, &[3, hidden, 2], Activation::Selu, Activation::Identity);
        let x = rng.uniform_matrix(batch, 3, -2.0, 2.0);
        let mut g = rn_autograd::Graph::new();
        let bound = mlp.bind(&mut g);
        let xv = g.constant(x.clone());
        let y = bound.forward(&mut g, xv);
        prop_assert!(g.value(y).approx_eq(&mlp.forward_inference(&x), 1e-4));
    }

    #[test]
    fn optimizers_descend_random_quadratics(
        seed in any::<u64>(),
        dim in 1usize..6,
        use_adam in any::<bool>(),
    ) {
        let mut rng = Prng::new(seed);
        let target = rng.uniform_matrix(1, dim, -3.0, 3.0);
        let mut p = Matrix::zeros(1, dim);
        let initial_dist = target.frobenius_norm();

        let mut adam = Adam::new(0.05);
        let mut sgd = Sgd::with_momentum(0.05, 0.5);
        for _ in 0..300 {
            let grad = p.sub(&target);
            if use_adam {
                adam.step(&mut [&mut p], &[grad]);
            } else {
                sgd.step(&mut [&mut p], &[grad]);
            }
        }
        let final_dist = p.sub(&target).frobenius_norm();
        prop_assert!(final_dist < initial_dist * 0.2 + 1e-3,
            "optimizer failed to descend: {initial_dist} -> {final_dist}");
    }

    #[test]
    fn gradient_extraction_aligns_with_params(
        seed in any::<u64>(),
        hidden in 2usize..6,
    ) {
        let mut rng = Prng::new(seed);
        let cell = GruCell::new(&mut rng, 2, hidden);
        let mut g = rn_autograd::Graph::new();
        let bound = cell.bind(&mut g);
        let h = g.constant(rng.uniform_matrix(3, hidden, -0.5, 0.5));
        let x = g.constant(rng.uniform_matrix(3, 2, -0.5, 0.5));
        let h2 = bound.step_fused(&mut g, h, x);
        let sq = g.square(h2);
        let loss = g.mean(sq);
        g.backward(loss);
        let grads = cell.grads(&g, &bound);
        let params = cell.params();
        prop_assert_eq!(grads.len(), params.len());
        for (gr, p) in grads.iter().zip(params) {
            prop_assert_eq!(gr.shape(), p.shape());
            prop_assert!(!gr.has_non_finite());
        }
    }
}
