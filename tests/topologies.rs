//! Cross-crate integration tests for the driver star against the
//! alternative training topology, stale-synchronous parallelism, driven
//! through the facade crate.

use sketchml::cluster::ssp::SspConfig;
use sketchml::{
    train_distributed, train_ssp, ClusterConfig, GlmLoss, GradientCompressor, RawCompressor,
    SketchMlCompressor, SparseDatasetSpec, TrainSpec,
};

fn dataset() -> (Vec<sketchml::Instance>, Vec<sketchml::Instance>, usize) {
    let spec = SparseDatasetSpec {
        name: "topo".into(),
        instances: 1_600,
        features: 40_000,
        avg_nnz: 22,
        skew: 1.1,
        label_noise: 0.02,
        task: sketchml::data::Task::Classification,
        seed: 321,
    };
    let (tr, te) = spec.generate_split();
    (tr, te, 40_000)
}

#[test]
fn three_topologies_reach_comparable_quality() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 6);
    let cluster = ClusterConfig::cluster1(4);
    let c = SketchMlCompressor::default();

    let driver = train_distributed(&train, &test, dim, &spec, &cluster, &c).unwrap();
    let ssp = train_ssp(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &SspConfig::ssp(2, 0.5),
        &c,
    )
    .unwrap();

    let baseline = (2f64).ln(); // zero model's logistic loss
    for (name, loss) in [
        ("driver", driver.best_test_loss()),
        ("ssp", ssp.best_test_loss()),
    ] {
        assert!(
            loss < baseline * 0.95,
            "{name}: loss {loss} did not beat the zero model"
        );
    }
}

#[test]
fn compression_wins_in_every_topology() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 2);
    let cluster = ClusterConfig::cluster1(4);
    let sk = SketchMlCompressor::default();
    let raw = RawCompressor::default();

    let t_driver = |c: &dyn GradientCompressor| {
        train_distributed(&train, &test, dim, &spec, &cluster, c)
            .unwrap()
            .avg_epoch_seconds()
    };
    let t_ssp = |c: &dyn GradientCompressor| {
        train_ssp(
            &train,
            &test,
            dim,
            &spec,
            &cluster,
            &SspConfig::ssp(1, 0.5),
            c,
        )
        .unwrap()
        .total_sim_seconds()
    };
    assert!(t_driver(&sk) < t_driver(&raw), "driver");
    assert!(t_ssp(&sk) < t_ssp(&raw), "ssp");
}
