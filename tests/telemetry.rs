//! Telemetry integration tests: the snapshot contract end to end.
//!
//! The registry carries the codec's insides only — the pipeline and
//! sharded-engine sections. What a run measures beyond them (rounds, bytes,
//! faults, recoveries) is on its own report and trace, and asserted there.
//!
//! Every test that records wraps its run in a [`TelemetrySession`], which
//! holds the registry's session lock — sessions in this binary therefore
//! never overlap, and each test reads back exactly the counters its own run
//! produced. The runs under a plan ship the checksummed frame
//! ([`common::checksummed`]).

mod common;

use common::checksummed;
use sketchml::telemetry::{self, TelemetrySession};
use sketchml::{
    train_distributed, train_glm, Aggregation, ClusterConfig, FaultPlan, GlmLoss, GlmTask,
    Instance, ShardedCompressor, SketchMlCompressor, SparseDatasetSpec, TrainSpec,
};

fn dataset() -> (Vec<Instance>, Vec<Instance>, usize) {
    let spec = SparseDatasetSpec {
        name: "telemetry".into(),
        instances: 1_200,
        features: 30_000,
        avg_nnz: 20,
        skew: 1.1,
        label_noise: 0.02,
        task: sketchml::data::Task::Classification,
        seed: 99,
    };
    let (tr, te) = spec.generate_split();
    (tr, te, 30_000)
}

fn stormy_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_drops(0.10)
        .with_corruption(0.05, 3)
        .with_duplicates(0.05)
        .with_stragglers(vec![1.0, 1.5])
        .with_crash(1, 4, 3)
}

#[test]
fn instrumented_training_round_fills_every_section() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
    let cluster = ClusterConfig::cluster1(4);
    let session = TelemetrySession::begin();
    train_distributed(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &ShardedCompressor::new(SketchMlCompressor::default(), 2).unwrap(),
    )
    .unwrap();
    let snap = session.finish();
    snap.validate().unwrap();

    // Pipeline: every worker message was encoded and decoded.
    assert!(snap.pipeline.encodes > 0);
    assert!(snap.pipeline.decodes > 0);
    assert!(snap.pipeline.input_pairs > 0);
    assert!(snap.pipeline.payload_bytes > 0);
    assert!(snap.pipeline.compression_ratio() > 1.0);
    assert!(snap.pipeline.quantile_build.count > 0);
    assert!(snap.pipeline.bucketize.count > 0);
    assert!(snap.pipeline.sketch_encode.count > 0);
    assert!(snap.pipeline.key_encode.count > 0);
    assert!(snap.pipeline.decode.count > 0);
    assert!(snap.pipeline.bucket_index_error.count > 0);
    assert!(snap.pipeline.sketch_inserts > 0);
    let occupancy = snap.pipeline.sketch_occupancy();
    assert!(occupancy > 0.0 && occupancy <= 1.0, "occupancy {occupancy}");

    // Sharded engine: `sketchml@2` frames every message.
    assert!(snap.sharded.messages > 0);
    assert!(snap.sharded.shard_encodes >= 2 * snap.sharded.messages);
    assert!(snap.sharded.imbalance_permille.count > 0);
}

#[test]
fn chaos_run_records_fault_costs() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
    let cluster = ClusterConfig::cluster1(4);
    let plan = stormy_plan(3);
    let session = TelemetrySession::begin();
    let outcome = train_glm(
        &GlmTask::new(&train, &test, dim),
        &spec,
        &cluster,
        Aggregation::Driver(&checksummed(SketchMlCompressor::default(), 1)),
        &plan,
        None,
    )
    .unwrap();
    let snap = session.finish();
    snap.validate().unwrap();

    // The fault costs are the run's trace; the registry keeps the codec work
    // that went on beside them, in the checksummed one-shard frame.
    let t = &outcome.trace;
    assert!(t.retransmits > 0 || t.drops > 0, "{t:?}");
    assert!(t.crashes > 0 && t.recoveries > 0 && t.recovery_seconds > 0.0);
    assert!(snap.pipeline.encodes > 0 && snap.pipeline.decodes > 0);
    assert!(snap.sharded.messages > 0);
}

#[test]
fn seeded_chaos_snapshot_is_deterministic() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
    let cluster = ClusterConfig::cluster1(4);
    let plan = stormy_plan(5);
    let run = || {
        let session = TelemetrySession::begin();
        train_glm(
            &GlmTask::new(&train, &test, dim),
            &spec,
            &cluster,
            Aggregation::Driver(&checksummed(SketchMlCompressor::default(), 2)),
            &plan,
            None,
        )
        .unwrap();
        session.finish()
    };
    let a = run();
    let b = run();
    // Counter totals are exactly reproducible; only wall-clock stage
    // timings may differ between repetitions.
    assert_eq!(a.without_timings(), b.without_timings());
    assert!(a.pipeline.encodes > 0, "the comparison must not be vacuous");
}

#[test]
fn disabled_telemetry_records_nothing() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 1);
    // Recording switched off inside the session: the run must not touch
    // the registry.
    let cluster = ClusterConfig::cluster1(2);
    let session = TelemetrySession::begin();
    telemetry::set_enabled(false);
    train_distributed(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &SketchMlCompressor::default(),
    )
    .unwrap();
    let snap = session.finish();
    assert_eq!(snap.pipeline.encodes, 0);
    assert_eq!(snap.pipeline.decodes, 0);
    assert_eq!(snap.pipeline.input_pairs, 0);
    assert_eq!(snap.pipeline.payload_bytes, 0);
    assert_eq!(snap.pipeline.quantile_build.count, 0);
    assert_eq!(snap.pipeline.bucket_index_error.count, 0);
    assert_eq!(snap.pipeline.sketch_inserts, 0);
    assert_eq!(snap.sharded.messages, 0);
    assert_eq!(snap.sharded.shard_encodes, 0);
}

#[test]
fn snapshot_serializes_and_round_trips() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 1);
    let cluster = ClusterConfig::cluster1(2);
    let session = TelemetrySession::begin();
    train_distributed(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &SketchMlCompressor::default(),
    )
    .unwrap();
    let snap = session.finish();
    let json = serde_json::to_string(&snap).unwrap();
    let back: sketchml::telemetry::TelemetrySnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(back, snap);
    back.validate().unwrap();
}
