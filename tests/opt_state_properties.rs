//! Property tests for the sketched optimizer-state family: at small `d`
//! with a generously sized table, sketched updates must track their dense
//! counterparts within tolerance, and every kind × mode must survive a
//! checkpoint round-trip bit-exactly — including mid-run.

use proptest::collection::vec;
use proptest::prelude::*;
use sketchml::ml::OptimizerKind;
use sketchml::{AdamConfig, Checkpoint, GlmLoss, GlmModel, OptStateMode, OptimizerState};

const DIM: usize = 32;

/// A short training trace: each step touches a sparse subset of the keys.
fn arb_trace() -> impl Strategy<Value = Vec<Vec<(u64, f64)>>> {
    vec(vec((0u64..DIM as u64, -1.0f64..1.0), 1..8usize), 1..16usize)
}

fn all_kinds() -> [OptimizerKind; 4] {
    [
        OptimizerKind::Sgd(0.05),
        OptimizerKind::Momentum(0.05, 0.9),
        OptimizerKind::AdaGrad(0.05, 1e-8),
        OptimizerKind::Adam(AdamConfig::with_lr(0.05)),
    ]
}

fn apply(opt: &mut OptimizerState, weights: &mut [f64], step: &[(u64, f64)]) {
    // Dedup keys within a step: dense optimizers read each slot once per
    // call, so duplicate keys in one batch are out of contract.
    let mut keys = Vec::new();
    let mut vals = Vec::new();
    for &(k, v) in step {
        if !keys.contains(&k) {
            keys.push(k);
            vals.push(v);
        }
    }
    opt.step(weights, &keys, &vals);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With a table far larger than `d`, the count-sketch estimate is
    /// essentially collision-free and sketched training must land within
    /// tolerance of dense training on every coordinate.
    #[test]
    fn sketched_tracks_dense_at_small_dim(trace in arb_trace()) {
        for kind in all_kinds() {
            let mut dense = OptimizerState::build(kind, OptStateMode::Dense, DIM).unwrap();
            let mut sketched =
                OptimizerState::build(kind, OptStateMode::sketched(5, 8192), DIM).unwrap();
            let mut wd = vec![0.0f64; DIM];
            let mut ws = vec![0.0f64; DIM];
            for step in &trace {
                apply(&mut dense, &mut wd, step);
                apply(&mut sketched, &mut ws, step);
            }
            for (i, (a, b)) in wd.iter().zip(&ws).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-4,
                    "{kind:?} w[{i}]: dense {a} vs sketched {b}"
                );
            }
        }
    }

    /// Checkpointing mid-run is invisible: save → load → keep training must
    /// be bit-identical to never having checkpointed, for every optimizer
    /// kind under both dense and sketched state.
    #[test]
    fn checkpoint_roundtrip_is_bit_exact_mid_run(trace in arb_trace()) {
        for kind in all_kinds() {
            for mode in [OptStateMode::Dense, OptStateMode::sketched(3, 512)] {
                let mut opt = OptimizerState::build(kind, mode, DIM).unwrap();
                let mut w = vec![0.0f64; DIM];
                let (head, tail) = trace.split_at(trace.len() / 2);
                for step in head {
                    apply(&mut opt, &mut w, step);
                }

                let mut model = GlmModel::new(DIM, GlmLoss::Logistic, 0.01).unwrap();
                model.weights.copy_from_slice(&w);
                let mut bytes = Vec::new();
                Checkpoint::write_parts(&model, &opt, head.len(), &mut bytes);
                prop_assert_eq!(bytes.len(), Checkpoint::encoded_len(&model, &opt));
                prop_assert!(Checkpoint::validate(&bytes).is_ok());
                let restored = Checkpoint::load(bytes.as_slice()).unwrap();
                // Every stored bit survives: the reload encodes to the
                // frame it was loaded from.
                prop_assert_eq!(restored.to_bytes().unwrap(), bytes);
                prop_assert_eq!(restored.epochs_done, head.len());
                let mut w2 = restored.model.weights.clone();
                let mut opt2 = restored.optimizer;

                for step in tail {
                    apply(&mut opt, &mut w, step);
                    apply(&mut opt2, &mut w2, step);
                }
                for (i, (a, b)) in w.iter().zip(&w2).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{:?}/{:?} w[{}]: {} vs {}",
                        kind, mode, i, a, b
                    );
                }
            }
        }
    }
}
