//! The `Predict` batch on the wire: its bytes are pinned, and the scores the
//! server takes straight from them equal `GlmModel::score` bit for bit.

use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use sketchml::net::{PredictBatch, PredictInstance, Request};
use sketchml::{GlmLoss, GlmModel, Instance, SparseVector};

/// Writes `instances` as a `Predict` frame, reads it back, and returns the
/// batch the server would score.
fn through_the_wire(instances: &[PredictInstance]) -> PredictBatch {
    let mut frame = Vec::new();
    Request::Predict {
        batch: PredictBatch::new(instances).unwrap(),
    }
    .write_to(&mut frame)
    .unwrap();
    match Request::read_from(&mut frame.as_slice()).unwrap() {
        Request::Predict { batch } => batch,
        other => panic!("read back {other:?}"),
    }
}

fn reference_scores(model: &GlmModel, instances: &[PredictInstance]) -> Vec<u64> {
    instances
        .iter()
        .map(|inst| {
            let features = SparseVector::new(inst.indices.clone(), inst.values.clone()).unwrap();
            model.score(&Instance::new(features, 0.0)).to_bits()
        })
        .collect()
}

/// A batch of `n` random instances over `dim` features: sorted distinct
/// indices, values of mixed sign and magnitude. The first is empty and the
/// second, when there is one, holds index `dim − 1`.
fn random_batch(rng: &mut StdRng, dim: usize, n: usize) -> Vec<PredictInstance> {
    (0..n)
        .map(|k| {
            let nnz = if k == 0 {
                0
            } else {
                rng.gen_range(1..=dim.min(48))
            };
            let mut indices: Vec<u32> = (0..dim as u32).collect();
            indices.shuffle(rng);
            indices.truncate(nnz);
            if k == 1 && !indices.contains(&(dim as u32 - 1)) {
                indices[0] = dim as u32 - 1;
            }
            indices.sort_unstable();
            let values = indices
                .iter()
                .map(|_| rng.gen_range(-4.0..4.0) * 10f64.powi(rng.gen_range(-12..6)))
                .collect();
            PredictInstance { indices, values }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every score the batch takes from the frame bytes is `GlmModel::score`
    /// on the same instance, to the bit, whatever the batch holds.
    #[test]
    fn scores_off_the_wire_equal_glm_score_bit_for_bit(
        dim in 1usize..400,
        n in 0usize..24,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = GlmModel::new(dim, GlmLoss::Logistic, 0.01).unwrap();
        for w in &mut model.weights {
            *w = rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-8..3));
        }
        let instances = random_batch(&mut rng, dim, n);
        let batch = through_the_wire(&instances);
        prop_assert_eq!(batch.len(), n);
        let scores: Vec<u64> = batch.scores(&model).unwrap().iter().map(|s| s.to_bits()).collect();
        prop_assert_eq!(scores, reference_scores(&model, &instances));
    }
}

#[test]
fn a_zero_instance_batch_scores_to_nothing() {
    let model = GlmModel::new(8, GlmLoss::Logistic, 0.01).unwrap();
    let batch = through_the_wire(&[]);
    assert!(batch.is_empty());
    assert_eq!(batch.scores(&model).unwrap(), Vec::<f64>::new());
}

/// The frame the field-by-field encoder wrote for this batch, before the
/// batch was packed in one pass: the bytes must not move.
const PINNED_PREDICT_FRAME: &str = "a70940000000030000000300000000000000000000000000f83f07000000000000000000d0bfffff000059f3f8c21f6ea5010000000001000000ffffffff0000000000000080";

#[test]
fn a_predict_frame_keeps_its_bytes() {
    let instances = [
        PredictInstance {
            indices: vec![0, 7, 65_535],
            values: vec![1.5, -0.25, 1e-300],
        },
        PredictInstance {
            indices: vec![],
            values: vec![],
        },
        PredictInstance {
            indices: vec![u32::MAX],
            values: vec![-0.0],
        },
    ];
    let req = Request::Predict {
        batch: PredictBatch::new(&instances).unwrap(),
    };
    let mut frame = Vec::new();
    req.write_to(&mut frame).unwrap();
    let hex: String = frame.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, PINNED_PREDICT_FRAME);
    assert_eq!(Request::read_from(&mut frame.as_slice()).unwrap(), req);
}

#[test]
fn an_instance_whose_indices_and_values_differ_in_length_is_not_packed() {
    let err = PredictBatch::new(&[PredictInstance {
        indices: vec![1, 2],
        values: vec![0.5],
    }])
    .unwrap_err();
    assert!(err.to_string().contains("2 indices but 1 values"), "{err}");
}
