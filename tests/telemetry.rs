//! Telemetry integration tests: the snapshot contract end to end.
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
    train_allreduce, train_distributed, train_glm, Aggregation, ClusterConfig, FaultPlan, GlmLoss,
    GlmTask, Instance, MergePolicy, ShardedCompressor, SketchMlCompressor, SparseDatasetSpec,
    Topology, TrainSpec,
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
    let report = train_distributed(
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

    // Cluster accounting matches the report's own books exactly.
    assert!(snap.cluster.rounds > 0);
    assert_eq!(
        snap.cluster.uplink_bytes,
        report.epochs.iter().map(|e| e.uplink_bytes).sum::<u64>()
    );
    assert_eq!(
        snap.cluster.downlink_bytes,
        report.epochs.iter().map(|e| e.downlink_bytes).sum::<u64>()
    );
    // Fault-free run: the failure counters stay zero.
    assert_eq!(snap.cluster.retransmits, 0);
    assert_eq!(snap.cluster.drops, 0);
    assert_eq!(snap.cluster.crashes, 0);
    assert_eq!(snap.cluster.backoff_seconds, 0.0);
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

    // The snapshot's failure counters mirror the fault trace one-for-one.
    assert_eq!(snap.cluster.retransmits, outcome.trace.retransmits);
    assert_eq!(snap.cluster.drops, outcome.trace.drops);
    assert_eq!(
        snap.cluster.corruptions_detected,
        outcome.trace.corruptions_detected
    );
    assert_eq!(snap.cluster.duplicates, outcome.trace.duplicates);
    assert_eq!(snap.cluster.lost_messages, outcome.trace.lost_messages);
    assert_eq!(snap.cluster.crashes, outcome.trace.crashes);
    assert_eq!(snap.cluster.recoveries, outcome.trace.recoveries);
    assert_eq!(snap.cluster.backoff_seconds, outcome.trace.retry_seconds);
    assert_eq!(
        snap.cluster.recovery_seconds,
        outcome.trace.recovery_seconds
    );
    // A stormy plan injects real faults and straggler skew.
    assert!(snap.cluster.retransmits > 0 || snap.cluster.drops > 0);
    assert!(snap.cluster.straggler_wait_seconds > 0.0);
    // Chaos runs checkpoint each epoch for crash recovery.
    assert!(snap.cluster.checkpoint_saves > 0);
}

/// Bugfix: the driver loop used to serialize a restore point at every epoch
/// end under *any* plan. Only a plan that schedules a crash can make a
/// worker rejoin, so a drop-only run writes none.
#[test]
fn a_plan_without_crashes_writes_no_restore_point() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
    let cluster = ClusterConfig::cluster1(4);
    let plan = FaultPlan::seeded(3).with_drops(0.10);
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
    assert!(outcome.trace.drops > 0, "the plan must have been active");
    assert_eq!(snap.cluster.checkpoint_saves, 0);
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
    assert!(a.cluster.rounds > 0, "the comparison must not be vacuous");
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
    assert_eq!(snap.cluster.rounds, 0);
    assert_eq!(snap.cluster.uplink_bytes, 0);
    assert_eq!(snap.cluster.downlink_bytes, 0);
    assert_eq!(snap.cluster.straggler_wait_seconds, 0.0);
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

// The collective and elastic-membership counter tests live in this binary,
// not beside the other collective tests: a test that reads the process-global
// registry is only safe where every test that trains holds the session lock.

fn collectives_dataset() -> (Vec<Instance>, Vec<Instance>, usize) {
    let spec = SparseDatasetSpec {
        name: "collectives".into(),
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

/// Acceptance criterion: telemetry counters account every hop. One ring
/// round of n workers is n(n-1) reduce-scatter hops plus n(n-1) allgather
/// hops, each hop is one merge on the reduce half, and every hop byte shows
/// up in the cluster uplink/downlink books.
#[test]
fn telemetry_accounts_every_collective_hop() {
    let (train, test, dim) = collectives_dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 2);
    let n = 4usize;
    let cluster = ClusterConfig::cluster1(n).with_topology(Topology::Ring);
    let session = TelemetrySession::begin();
    let report = train_allreduce(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &SketchMlCompressor::default(),
    )
    .unwrap();
    let snap = session.finish();
    snap.validate().unwrap();

    let rounds = snap.cluster.rounds;
    assert!(rounds > 0);
    let hops_per_round = 2 * n as u64 * (n as u64 - 1);
    let merges_per_round = n as u64 * (n as u64 - 1);
    assert_eq!(snap.collectives.hops, rounds * hops_per_round);
    assert_eq!(snap.collectives.merges, rounds * merges_per_round);
    assert_eq!(snap.collectives.lost_hops, 0);
    assert!(snap.collectives.merge.count > 0);
    // Every byte that crossed a link is booked exactly once: hop bytes are
    // counted at the sender, the cluster books split the same stream into
    // reduce (uplink) and distribute (downlink) phases.
    assert_eq!(
        snap.collectives.hop_bytes,
        snap.cluster.uplink_bytes + snap.cluster.downlink_bytes
    );
    let report_bytes: u64 = report
        .epochs
        .iter()
        .map(|e| e.uplink_bytes + e.downlink_bytes)
        .sum();
    assert_eq!(snap.collectives.hop_bytes, report_bytes);
}

fn elastic_dataset() -> (Vec<Instance>, Vec<Instance>, usize) {
    let spec = SparseDatasetSpec {
        name: "elastic".into(),
        instances: 1_600,
        features: 30_000,
        avg_nnz: 20,
        skew: 1.1,
        label_noise: 0.02,
        task: sketchml::data::Task::Classification,
        seed: 4242,
    };
    let (tr, te) = spec.generate_split();
    (tr, te, 30_000)
}

/// The membership telemetry section mirrors the trace totals of a chaos run.
#[test]
fn membership_telemetry_section_mirrors_the_trace() {
    let (train, test, dim) = elastic_dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 2);
    let cluster = ClusterConfig::cluster1(4).with_topology(Topology::Ring);
    let c = checksummed(SketchMlCompressor::default(), 1);
    let plan = FaultPlan::seeded(21).with_drops(0.05).with_crash(3, 8, 10);

    let session = TelemetrySession::begin();
    let outcome = train_glm(
        &GlmTask::new(&train, &test, dim),
        &spec,
        &cluster,
        Aggregation::Collective {
            policy: MergePolicy::Exact,
            compressor: &c,
        },
        &plan,
        None,
    )
    .unwrap();
    let snap = session.finish();
    snap.validate().expect("snapshot must validate");

    let t = &outcome.trace;
    assert_eq!(snap.membership.suspicions, t.suspicions);
    assert_eq!(snap.membership.false_suspicions, t.false_suspicions);
    assert_eq!(snap.membership.evictions, t.evictions);
    assert_eq!(snap.membership.joins, t.joins);
    assert_eq!(snap.membership.reconfigurations, t.reconfigurations);
    assert_eq!(snap.membership.degraded_rounds, t.degraded_rounds);
    assert!((snap.membership.join_seconds - t.join_seconds).abs() < 1e-12);
    assert!(t.suspicions >= 1, "the crash must be noticed");
}

/// The socket server records into the same snapshot as the simulator, and
/// what it records is what `GetStats` reports: a two-worker run with an
/// inference client beside it validates, counts its pushes and predicts,
/// and agrees with the server's own counters key for key.
#[test]
fn live_server_fills_the_serving_section() {
    use sketchml::net::{run_worker, Client, PredictInstance, ServeSetup, Server};

    let dataset = SparseDatasetSpec {
        name: "telemetry-serving".into(),
        instances: 600,
        features: 2_048,
        avg_nnz: 16,
        skew: 1.1,
        label_noise: 0.05,
        task: sketchml::data::Task::Classification,
        seed: 0x5E12,
    };
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
    let mut setup = ServeSetup::new(dataset, spec, 2);
    setup.idle_timeout_ms = 60_000;

    let session = TelemetrySession::begin();
    let server = Server::bind_tcp(setup, "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let batch = vec![PredictInstance {
        indices: vec![3, 64, 2_047],
        values: vec![1.0, -0.5, 2.0],
    }];
    const PREDICTS: u64 = 5;
    for _ in 0..PREDICTS {
        assert_eq!(client.predict(batch.clone()).unwrap().len(), 1);
    }
    let workers: Vec<_> = (0..2u32)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || run_worker(&addr, w))
        })
        .collect();
    let summary = server.wait_trained();
    for w in workers {
        w.join().unwrap().unwrap();
    }
    let stats: serde::Value = serde_json::from_str(&server.stats_json()).unwrap();
    server.shutdown();
    server.join();
    let snap = session.finish();
    snap.validate().unwrap();
    assert!(!summary.aborted, "{summary:?}");

    let s = &snap.serving;
    assert_eq!(s.predicts, PREDICTS);
    assert!(s.pushes > 0 && s.coalesced_rounds > 0, "{s:?}");
    assert_eq!(
        (s.pulls_dense, s.pulls_state),
        (0, 0),
        "workers step replicas from the rounds' frames: {s:?}"
    );
    assert!(s.pulls_round > 0 && s.pulls == s.pulls_round, "{s:?}");
    assert!(s.checkpoint_bytes > 0 && s.epoch_end_ms_max > 0.0, "{s:?}");
    let stat = |key: &str| {
        serde::field(stats.as_obj().unwrap(), key)
            .unwrap_or_else(|_| panic!("stats has no {key}"))
            .as_u64()
            .unwrap_or_else(|| panic!("{key} is not a count"))
    };
    for (key, recorded) in [
        ("predicts", s.predicts),
        ("pushes", s.pushes),
        ("pulls_dense", s.pulls_dense),
        ("pulls_round", s.pulls_round),
        ("pulls_state", s.pulls_state),
        ("bytes_up", s.bytes_up),
        ("bytes_down", s.bytes_down),
        ("rejected_pushes", s.rejected_pushes),
        ("checkpoint_bytes", s.checkpoint_bytes),
    ] {
        assert_eq!(recorded, stat(key), "{key}");
    }
}
