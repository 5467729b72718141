//! Serde round-trips of every persistable type: sketches, configs, models,
//! and reports must survive JSON (the experiment harness dumps them and the
//! simulator checkpoints would rely on this).

use sketchml::ml::metrics::LossPoint;
use sketchml::sketches::quantile::{MergingQuantileSketch, QuantileSketch};
use sketchml::sketches::{CountMinSketch, MinMaxSketch};
use sketchml::{AdamConfig, GlmLoss, GlmModel, SketchMlConfig, SparseGradient, SparseVector};

fn json_roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn merging_sketch_survives_json() {
    let mut s = MergingQuantileSketch::new(64).unwrap();
    for i in 0..10_000 {
        s.insert((i as f64).sin());
    }
    let back: MergingQuantileSketch = json_roundtrip(&s);
    assert_eq!(back.count(), s.count());
    assert_eq!(back.query(0.5).unwrap(), s.query(0.5).unwrap());
    assert_eq!(back.splits(16).unwrap(), s.splits(16).unwrap());
}

#[test]
fn frequency_sketches_survive_json() {
    let mut cm = CountMinSketch::new(2, 64, 7).unwrap();
    let mut mm = MinMaxSketch::new(2, 64, 7).unwrap();
    for k in 0..500u64 {
        cm.insert(k);
        mm.insert(k, (k % 100) as u16);
    }
    let cm2: CountMinSketch = json_roundtrip(&cm);
    let mm2: MinMaxSketch = json_roundtrip(&mm);
    for k in 0..500u64 {
        assert_eq!(cm2.query(k), cm.query(k));
        assert_eq!(mm2.query(k), mm.query(k));
    }
}

#[test]
fn configs_and_gradients_survive_json() {
    let cfg = SketchMlConfig::default();
    assert_eq!(json_roundtrip(&cfg), cfg);
    let adam = AdamConfig::with_lr(0.005);
    assert_eq!(json_roundtrip(&adam), adam);
    let grad = SparseGradient::new(100, vec![1, 7, 50], vec![0.5, -1.0, 2.0]).unwrap();
    assert_eq!(json_roundtrip(&grad), grad);
    let v = SparseVector::new(vec![3, 9], vec![1.0, -2.0]).unwrap();
    assert_eq!(json_roundtrip(&v), v);
    let p = LossPoint {
        seconds: 1.5,
        epoch: 3,
        loss: 0.25,
    };
    assert_eq!(json_roundtrip(&p), p);
}

#[test]
fn trained_model_survives_json() {
    let mut model = GlmModel::new(16, GlmLoss::Logistic, 0.01).unwrap();
    model.weights[3] = 1.25;
    model.weights[9] = -0.5;
    let back: GlmModel = json_roundtrip(&model);
    assert_eq!(back.weights, model.weights);
    assert_eq!(back.loss, model.loss);
    assert_eq!(back.l2, model.l2);
}
