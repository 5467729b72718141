//! Telemetry snapshot harness: one fully instrumented training run and its
//! machine-readable counters.
//!
//! Runs a seeded chaos training round (driver topology, SketchML compressor,
//! drops + corruption + duplicates + a worker crash) inside a
//! [`sketchml_telemetry::TelemetrySession`], validates the resulting
//! snapshot against the schema, and writes it to `BENCH_telemetry.json`
//! together with the run's headline report numbers. The run is
//! deterministic: the same seed produces an identical
//! `snapshot.without_timings()`, which the harness asserts by running twice.
//!
//! `--quick` shrinks the dataset and epoch count (CI smoke).

use serde::Serialize;
use sketchml_cluster::{
    train_glm, Aggregation, ClusterConfig, FaultPlan, GlmTask, TrainOutcome, TrainSpec,
};
use sketchml_core::SketchMlCompressor;
use sketchml_data::{SparseDatasetSpec, Task};
use sketchml_ml::{GlmLoss, Instance};
use sketchml_telemetry::{TelemetrySession, TelemetrySnapshot};

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    quick: bool,
    /// Compressor under instrumentation.
    method: String,
    /// Epochs trained.
    epochs: usize,
    /// Final test loss of the instrumented run.
    final_test_loss: f64,
    /// End-to-end pipeline compression ratio (input bytes / payload bytes).
    compression_ratio: f64,
    /// Fraction of sketch cells occupied after encoding.
    sketch_occupancy: f64,
    /// Mean absolute bucket-index error per encoded key.
    mean_bucket_index_error: f64,
    /// The full validated snapshot (wall-clock timings included).
    snapshot: TelemetrySnapshot,
}

fn dataset(quick: bool) -> (Vec<Instance>, Vec<Instance>, usize) {
    let spec = SparseDatasetSpec {
        name: "telemetry".into(),
        instances: if quick { 800 } else { 2_000 },
        features: 30_000,
        avg_nnz: 20,
        skew: 1.1,
        label_noise: 0.02,
        task: Task::Classification,
        seed: 99,
    };
    let (tr, te) = spec.generate_split();
    (tr, te, 30_000)
}

fn instrumented_run(
    train: &[Instance],
    test: &[Instance],
    dim: usize,
    epochs: usize,
) -> (TrainOutcome, TelemetrySnapshot) {
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, epochs);
    let cluster = ClusterConfig::cluster1(4)
        .with_compress_threads(2)
        .with_telemetry(true);
    let plan = FaultPlan::seeded(7)
        .with_drops(0.10)
        .with_corruption(0.05, 3)
        .with_duplicates(0.05)
        .with_stragglers(vec![1.0, 1.5])
        .with_crash(1, 4, 3);
    let session = TelemetrySession::begin();
    let outcome = train_glm(
        &GlmTask::new(train, test, dim),
        &spec,
        &cluster,
        Aggregation::Driver(&SketchMlCompressor::default()),
        &plan,
        None,
    )
    .expect("chaos run");
    (outcome, session.finish())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let epochs = if quick { 1 } else { 3 };
    let (train, test, dim) = dataset(quick);

    let (outcome, snapshot) = instrumented_run(&train, &test, dim, epochs);
    snapshot.validate().expect("snapshot schema");

    // The acceptance gate: a seeded run's counters are deterministic (only
    // wall-clock stage timings may differ between repetitions).
    let (_, second) = instrumented_run(&train, &test, dim, epochs);
    assert_eq!(
        snapshot.without_timings(),
        second.without_timings(),
        "same seed must produce an identical telemetry snapshot"
    );

    let final_test_loss = outcome
        .report
        .epochs
        .last()
        .map(|e| e.test_loss)
        .unwrap_or(f64::NAN);
    println!(
        "instrumented chaos run: {} epochs, final test loss {:.4}",
        epochs, final_test_loss
    );
    println!(
        "pipeline: {} encodes, ratio {:.2}x, occupancy {:.3}, \
         mean bucket-index error {:.3}",
        snapshot.pipeline.encodes,
        snapshot.pipeline.compression_ratio(),
        snapshot.pipeline.sketch_occupancy(),
        snapshot.pipeline.bucket_index_error.mean(),
    );
    println!(
        "cluster: {} rounds, {} up / {} down bytes, {} retransmits, \
         {} crashes / {} recoveries",
        snapshot.cluster.rounds,
        snapshot.cluster.uplink_bytes,
        snapshot.cluster.downlink_bytes,
        snapshot.cluster.retransmits,
        snapshot.cluster.crashes,
        snapshot.cluster.recoveries,
    );

    let report = Report {
        bench: "telemetry",
        quick,
        method: outcome.report.method.clone(),
        epochs,
        final_test_loss,
        compression_ratio: snapshot.pipeline.compression_ratio(),
        sketch_occupancy: snapshot.pipeline.sketch_occupancy(),
        mean_bucket_index_error: snapshot.pipeline.bucket_index_error.mean(),
        snapshot,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    let path = "BENCH_telemetry.json";
    std::fs::write(path, json + "\n").expect("write BENCH_telemetry.json");
    println!("\n[results written to {path}]");
}
