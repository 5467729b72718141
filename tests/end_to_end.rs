//! Cross-crate integration tests: data generation → distributed training →
//! compression → convergence, exercising the full public API the way the
//! paper's evaluation does.

use sketchml::{
    train_distributed, ClusterConfig, GlmLoss, GradientCompressor, KeyCompressor, QuantCompressor,
    RawCompressor, SketchMlCompressor, SparseDatasetSpec, TrainSpec, TruncationCompressor,
    ZipMlCompressor,
};

fn dataset() -> (Vec<sketchml::Instance>, Vec<sketchml::Instance>, usize) {
    let spec = SparseDatasetSpec {
        name: "it".into(),
        instances: 2_400,
        features: 60_000,
        avg_nnz: 25,
        skew: 1.1,
        label_noise: 0.02,
        task: sketchml::data::Task::Classification,
        seed: 1234,
    };
    let (train, test) = spec.generate_split();
    (train, test, 60_000)
}

#[test]
fn every_compressor_trains_every_model() {
    let (train, test, dim) = dataset();
    let cluster = ClusterConfig::cluster1(4);
    let compressors: Vec<Box<dyn GradientCompressor>> = vec![
        Box::new(SketchMlCompressor::default()),
        Box::new(QuantCompressor::default()),
        Box::new(KeyCompressor),
        Box::new(RawCompressor::default()),
        Box::new(ZipMlCompressor::paper_default()),
    ];
    for loss in GlmLoss::all() {
        let spec = TrainSpec::paper(loss, 0.03, 3);
        for c in &compressors {
            let report = train_distributed(&train, &test, dim, &spec, &cluster, c.as_ref())
                .unwrap_or_else(|e| panic!("{} on {:?} failed: {e}", c.name(), loss));
            assert_eq!(report.epochs.len(), 3);
            assert!(report.epochs.iter().all(|e| e.test_loss.is_finite()));
            assert!(report.avg_epoch_seconds() > 0.0);
        }
    }
}

#[test]
fn sketchml_matches_adam_quality_on_classification() {
    let (train, test, dim) = dataset();
    let cluster = ClusterConfig::cluster1(4);
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 10);
    let adam = train_distributed(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &RawCompressor::default(),
    )
    .expect("adam run");
    let sk = train_distributed(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &SketchMlCompressor::default(),
    )
    .expect("sketchml run");
    // Table 2's property: almost the same model quality...
    assert!(
        sk.best_test_loss() < adam.best_test_loss() * 1.25,
        "SketchML {} vs Adam {}",
        sk.best_test_loss(),
        adam.best_test_loss()
    );
    assert!(
        sk.best_test_loss() < 2f64.ln() * 0.95,
        "beats the zero model"
    );
    // ...at a fraction of the (simulated) time per epoch.
    assert!(sk.avg_epoch_seconds() < adam.avg_epoch_seconds() * 0.75);
    // And accuracy is comparable.
    let (a, s) = (adam.accuracy.unwrap(), sk.accuracy.unwrap());
    assert!(s > a - 0.08, "accuracy gap too wide: {s} vs {a}");
}

#[test]
fn method_ordering_matches_figure9() {
    let (train, test, dim) = dataset();
    let cluster = ClusterConfig::cluster2(8);
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 2);
    let time = |c: &dyn GradientCompressor| {
        train_distributed(&train, &test, dim, &spec, &cluster, c)
            .expect("run")
            .avg_epoch_seconds()
    };
    let sketchml = time(&SketchMlCompressor::default());
    let zipml = time(&ZipMlCompressor::paper_default());
    let adam = time(&RawCompressor::default());
    assert!(
        sketchml < zipml && zipml < adam,
        "expected SketchML < ZipML < Adam, got {sketchml} / {zipml} / {adam}"
    );
}

#[test]
fn truncation_converges_worse_than_sketchml() {
    // §1.1: threshold truncation is "too aggressive" — at an equal epoch
    // count it loses information SketchML keeps.
    let (train, test, dim) = dataset();
    let cluster = ClusterConfig::cluster1(4);
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 8);
    let sk = train_distributed(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &SketchMlCompressor::default(),
    )
    .expect("sketchml");
    let trunc = train_distributed(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &TruncationCompressor { keep_ratio: 0.02 },
    )
    .expect("truncation");
    assert!(
        sk.best_test_loss() < trunc.best_test_loss(),
        "SketchML {} should beat 2% truncation {}",
        sk.best_test_loss(),
        trunc.best_test_loss()
    );
}

#[test]
fn convergence_detection_reports_epoch_and_time() {
    let (train, test, dim) = dataset();
    let cluster = ClusterConfig::cluster1(4);
    let mut spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 40);
    spec.stop_on_convergence = true;
    let report = train_distributed(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &SketchMlCompressor::default(),
    )
    .expect("run");
    if let Some(epoch) = report.converged_epoch {
        assert!(epoch <= report.epochs.len());
        assert!(report.converged_sim_seconds().expect("time") > 0.0);
    }
    // Either converged and stopped early, or ran the full budget.
    assert!(report.epochs.len() <= 40);
}

#[test]
fn message_bytes_are_consistent_across_stats() {
    let (train, test, dim) = dataset();
    let cluster = ClusterConfig::cluster1(3);
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 2);
    let report = train_distributed(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &SketchMlCompressor::default(),
    )
    .expect("run");
    for e in &report.epochs {
        assert!(e.uplink_bytes > 0);
        assert!(e.downlink_bytes > 0);
        assert!(e.raw_bytes > e.uplink_bytes, "SketchML must compress");
        assert_eq!(e.raw_bytes, 12 * e.pairs);
    }
    assert!(report.compression_rate() > 2.0);
}
