//! Worker loss on the collective: a permanent crash, a small group left
//! with fewer workers than its topology's floor, a finite outage that ends
//! in a restore — all deterministic per seed and all within a bounded loss
//! penalty of the fault-free run. A crashed worker sits its rounds out and
//! the ring or tree runs over the workers that are up, the one crash rule
//! of every exchange (`sketchml::cluster::engine`). The runs under a plan
//! ship the checksummed frame ([`common::checksummed`]).

mod common;

use common::checksummed;
use sketchml::{
    train_allreduce, train_glm, Aggregation, ClusterConfig, FaultPlan, GlmLoss, GlmTask, Instance,
    MergePolicy, SketchMlCompressor, SparseDatasetSpec, Topology, TrainSpec,
};

fn dataset() -> (Vec<Instance>, Vec<Instance>, usize) {
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

/// The headline acceptance criterion: losing 1 of 8 ring workers for good
/// mid-training converges within 5% of the fault-free loss, and the same
/// seed replays a bit-identical fault trace across three runs.
#[test]
fn permanent_worker_loss_trains_within_five_percent_and_replays_bitwise() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 4);
    let cluster = ClusterConfig::cluster1(8).with_topology(Topology::Ring);
    let c = SketchMlCompressor::default();

    let clean = train_allreduce(&train, &test, dim, &spec, &cluster, &c).unwrap();
    let clean_loss = clean.epochs.last().unwrap().test_loss;

    // Worker 5 dies for good in the middle of epoch 2 of 4 (10 rounds per
    // epoch at the default batch ratio).
    let plan = FaultPlan::seeded(77).with_permanent_crash(5, 15);
    let wire = checksummed(&c, 1);
    let run = || {
        train_glm(
            &GlmTask::new(&train, &test, dim),
            &spec,
            &cluster,
            Aggregation::Collective {
                policy: MergePolicy::Exact,
                compressor: &wire,
            },
            &plan,
            None,
        )
        .unwrap()
    };
    let o1 = run();
    let o2 = run();
    let o3 = run();

    assert_eq!(o1.trace, o2.trace, "same seed must replay bit-for-bit");
    assert_eq!(o2.trace, o3.trace, "same seed must replay bit-for-bit");
    assert_eq!(o1.trace.crashes, 1, "{}", o1.trace.summary());
    assert_eq!(
        o1.trace.recoveries,
        0,
        "a permanent crash never restores: {}",
        o1.trace.summary()
    );

    let lost_loss = o1.report.epochs.last().unwrap().test_loss;
    assert!(
        (lost_loss - clean_loss).abs() <= 0.05 * clean_loss,
        "loss with a lost worker {lost_loss} strayed more than 5% from fault-free {clean_loss}"
    );
}

/// The smallest group: a 3-worker ring and tree lose one worker for good
/// and run over the 2 survivors without panicking, and the survivors still
/// train.
#[test]
fn three_workers_shrink_to_two_cleanly() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 2);
    let plan = FaultPlan::seeded(5).with_permanent_crash(1, 10);
    for topology in [Topology::Ring, Topology::Tree] {
        let cluster = ClusterConfig::cluster1(3).with_topology(topology);
        let c = checksummed(SketchMlCompressor::default(), 1);
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
        assert_eq!(outcome.trace.crashes, 1, "{topology:?}");
        assert_eq!(outcome.trace.recoveries, 0, "{topology:?}");
        let loss = outcome.report.epochs.last().unwrap().test_loss;
        assert!(
            loss < (2f64).ln(),
            "{topology:?} survivors' loss {loss} should beat the zero model"
        );
    }
}

/// A finite outage window: the worker sits its rounds out, its process
/// comes back, and it restores from the restore point — one charged
/// recovery in the trace.
#[test]
fn finite_outage_restores_with_charged_recovery() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 3);
    let cluster = ClusterConfig::cluster1(6).with_topology(Topology::Ring);
    let c = checksummed(SketchMlCompressor::default(), 1);
    let plan = FaultPlan::seeded(13).with_crash(2, 8, 10);

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
    let t = &outcome.trace;
    assert_eq!(t.crashes, 1, "{}", t.summary());
    assert_eq!(t.recoveries, 1, "the worker must restore: {}", t.summary());
    assert!(
        t.recovery_seconds > 0.0,
        "the restore must cost simulated time"
    );
    let loss = outcome.report.epochs.last().unwrap().test_loss;
    assert!(loss < (2f64).ln(), "loss {loss} should beat the zero model");
}
