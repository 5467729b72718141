//! Property-based tests of the ML substrate: losses, optimizers, vectors.

use proptest::collection::vec;
use proptest::prelude::*;
use sketchml_ml::{
    AdaGrad, Adam, AdamConfig, GlmLoss, Momentum, OptimizerState, Sgd, SparseVector,
};

proptest! {
    /// Losses are non-negative and finite over reasonable score ranges.
    #[test]
    fn losses_are_nonnegative_and_finite(
        score in -100.0f64..100.0,
        label in prop_oneof![Just(-1.0f64), Just(1.0f64)],
    ) {
        for loss in GlmLoss::all() {
            let l = loss.loss(score, label);
            prop_assert!(l >= 0.0, "{loss:?}: loss {l} < 0");
            prop_assert!(l.is_finite());
            prop_assert!(loss.dloss(score, label).is_finite());
        }
    }

    /// Numeric gradient check for logistic and squared at random points.
    #[test]
    fn smooth_losses_match_numeric_derivative(
        score in -10.0f64..10.0,
        label in -2.0f64..2.0,
    ) {
        let h = 1e-6;
        for loss in [GlmLoss::Logistic, GlmLoss::Squared] {
            let numeric = (loss.loss(score + h, label) - loss.loss(score - h, label)) / (2.0 * h);
            let analytic = loss.dloss(score, label);
            prop_assert!((numeric - analytic).abs() < 1e-4,
                "{loss:?}: numeric {numeric} vs analytic {analytic}");
        }
    }

    /// A gradient step along the true gradient direction cannot increase a
    /// convex per-instance loss (for a small enough step).
    #[test]
    fn gradient_step_decreases_loss(
        score in -5.0f64..5.0,
        label in prop_oneof![Just(-1.0f64), Just(1.0f64)],
    ) {
        for loss in GlmLoss::all() {
            let g = loss.dloss(score, label);
            if g == 0.0 { continue; }
            let before = loss.loss(score, label);
            let after = loss.loss(score - 1e-4 * g, label);
            prop_assert!(after <= before + 1e-12,
                "{loss:?}: step increased loss {before} -> {after}");
        }
    }

    /// Every optimizer moves weights opposite to the gradient sign on the
    /// first step and never touches untouched dimensions.
    #[test]
    fn optimizers_step_against_gradient(
        g in prop_oneof![-10.0f64..-1e-6, 1e-6..10.0],
        dim in 2usize..16,
    ) {
        let optimizers: [OptimizerState; 4] = [
            Sgd::new(0.1).unwrap().into(),
            Momentum::new(16, 0.1, 0.9).unwrap().into(),
            AdaGrad::new(16, 0.1).unwrap().into(),
            Adam::new(16, AdamConfig::with_lr(0.1)).unwrap().into(),
        ];
        for mut opt in optimizers {
            let mut w = vec![0.0; 16];
            opt.step(&mut w, &[(dim - 1) as u64], &[g]);
            prop_assert!(w[dim - 1] * g < 0.0, "step must oppose gradient");
            for (i, &wi) in w.iter().enumerate() {
                if i != dim - 1 {
                    prop_assert_eq!(wi, 0.0, "untouched dim {} moved", i);
                }
            }
        }
    }

    /// Sparse dot products match the dense equivalent.
    #[test]
    fn sparse_dot_matches_dense(
        pairs in vec((0u32..64, -5.0f64..5.0), 0..32),
        dense in vec(-3.0f64..3.0, 64),
    ) {
        let mut sorted: Vec<(u32, f64)> = pairs;
        sorted.sort_by_key(|&(i, _)| i);
        sorted.dedup_by_key(|&mut (i, _)| i);
        let x = SparseVector::from_pairs(&sorted).unwrap();
        let reference: f64 = sorted.iter().map(|&(i, v)| v * dense[i as usize]).sum();
        prop_assert!((x.dot(&dense) - reference).abs() < 1e-9);
        // scatter_add is the adjoint: dense' = dense + s*x.
        let mut target = dense.clone();
        x.scatter_add(&mut target, 2.0);
        for &(i, v) in &sorted {
            prop_assert!((target[i as usize] - dense[i as usize] - 2.0 * v).abs() < 1e-12);
        }
    }
}
