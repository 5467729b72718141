//! Fault-injection integration tests: deterministic chaos runs across the
//! driver, parameter-server, SSP, and MLP topologies.
//!
//! The invariants here are the PR's acceptance criteria: same seed → same
//! fault trace and bit-identical final loss; training under 10% drops plus
//! a worker crash converges within 5% of the fault-free loss; crashed
//! workers restore from checkpoints; invalid plans are rejected with typed
//! errors, never panics. A run ships exactly the compressor it is given, so
//! the runs under a plan pass the checksummed frame their receivers verify
//! ([`common::checksummed`]); over a frame without a CRC a corruption that
//! still decodes is delivered silently.

mod common;

use common::checksummed;
use sketchml::cluster::MlpTrainSpec;
use sketchml::core::registry;
use sketchml::data::Task;
use sketchml::ml::MlpConfig;
use sketchml::{
    train_distributed, train_glm, train_mlp_distributed, train_mlp_with_plan,
    train_parameter_server, train_ssp, train_ssp_with_plan, Aggregation, ClusterConfig,
    CompressError, FaultPlan, GlmLoss, GlmTask, Instance, SketchMlCompressor, SparseDatasetSpec,
    SspConfig, TrainOutcome, TrainSpec,
};

fn dataset() -> (Vec<Instance>, Vec<Instance>, usize) {
    let spec = SparseDatasetSpec {
        name: "chaos".into(),
        instances: 1_200,
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

fn stormy_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_drops(0.10)
        .with_corruption(0.05, 3)
        .with_duplicates(0.05)
        .with_stragglers(vec![1.0, 1.5])
        .with_crash(1, 4, 3)
}

#[test]
fn same_seed_reproduces_trace_and_final_loss() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
    let cluster = ClusterConfig::cluster1(4);
    for seed in [1u64, 2, 3] {
        let plan = stormy_plan(seed);
        let run = || {
            train_glm(
                &GlmTask::new(&train, &test, dim),
                &spec,
                &cluster,
                Aggregation::Driver(&checksummed(SketchMlCompressor::default(), 1)),
                &plan,
                None,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.trace, b.trace, "seed {seed}: fault traces diverged");
        let la = a.report.epochs.last().unwrap().test_loss;
        let lb = b.report.epochs.last().unwrap().test_loss;
        assert_eq!(
            la.to_bits(),
            lb.to_bits(),
            "seed {seed}: final losses diverged: {la} vs {lb}"
        );
        assert!(
            !a.trace.events.is_empty(),
            "seed {seed}: a stormy plan should inject faults"
        );
    }
}

#[test]
fn different_seeds_produce_different_traces() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 1);
    let cluster = ClusterConfig::cluster1(4);
    let run = |seed| {
        train_glm(
            &GlmTask::new(&train, &test, dim),
            &spec,
            &cluster,
            Aggregation::Driver(&checksummed(SketchMlCompressor::default(), 1)),
            &stormy_plan(seed),
            None,
        )
        .unwrap()
        .trace
    };
    assert_ne!(run(7), run(8), "distinct seeds should perturb differently");
}

#[test]
fn drops_and_a_crash_stay_within_five_percent_of_fault_free() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 4);
    let cluster = ClusterConfig::cluster1(4);
    let compressor = SketchMlCompressor::default();
    let clean = train_distributed(&train, &test, dim, &spec, &cluster, &compressor).unwrap();
    let plan = FaultPlan::seeded(0xC0FFEE)
        .with_drops(0.10)
        .with_crash(2, 6, 4);
    let chaotic = train_glm(
        &GlmTask::new(&train, &test, dim),
        &spec,
        &cluster,
        Aggregation::Driver(&checksummed(&compressor, 1)),
        &plan,
        None,
    )
    .unwrap();

    let clean_loss = clean.epochs.last().unwrap().test_loss;
    let chaos_loss = chaotic.report.epochs.last().unwrap().test_loss;
    assert!(
        (chaos_loss - clean_loss).abs() / clean_loss < 0.05,
        "chaotic loss {chaos_loss} strayed more than 5% from fault-free {clean_loss}"
    );
    let t = &chaotic.trace;
    assert!(t.drops > 0, "10% drop probability should drop something");
    assert!(t.retransmits > 0, "drops must trigger retransmissions");
    assert_eq!(t.crashes, 1, "exactly one scheduled crash");
    assert_eq!(t.recoveries, 1, "the crashed worker must recover");
    assert!(t.retry_seconds > 0.0, "retries must be charged to sim time");
    // The faulty run cannot be faster than the clean one: every injected
    // fault costs simulated time, never state.
    let clean_time: f64 = clean.epochs.iter().map(|e| e.sim_seconds).sum();
    let chaos_time: f64 = chaotic.report.epochs.iter().map(|e| e.sim_seconds).sum();
    assert!(
        chaos_time > clean_time,
        "faults must cost time: chaotic {chaos_time} vs clean {clean_time}"
    );
}

/// Satellite: kill a worker mid-run, restore from the checkpoint, and the
/// resumed run must land on exactly the same final loss as an uninterrupted
/// run with the same seed (the checkpoint + batcher replay round-trip is
/// bit-exact).
#[test]
fn checkpoint_resume_matches_uninterrupted_run_exactly() {
    let (train, test, dim) = dataset();
    let cluster = ClusterConfig::cluster1(4);
    let compressor = SketchMlCompressor::default();
    let full_spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 4);

    // Uninterrupted reference run.
    let reference = train_distributed(&train, &test, dim, &full_spec, &cluster, &compressor)
        .unwrap()
        .epochs
        .last()
        .unwrap()
        .test_loss;

    // "Crash" after epoch 2: take the checkpoint a 2-epoch run produced...
    let half_spec = TrainSpec {
        max_epochs: 2,
        ..full_spec
    };
    let halted = train_glm(
        &GlmTask::new(&train, &test, dim),
        &half_spec,
        &cluster,
        Aggregation::Driver(&compressor),
        &FaultPlan::none(),
        None,
    )
    .unwrap();
    let checkpoint = halted.checkpoint.expect("Adam runs produce checkpoints");
    assert_eq!(checkpoint.epochs_done, 2);

    // ...and restart from it with the full-run spec.
    let resumed = train_glm(
        &GlmTask::new(&train, &test, dim),
        &full_spec,
        &cluster,
        Aggregation::Driver(&compressor),
        &FaultPlan::none(),
        Some(checkpoint),
    )
    .unwrap();
    assert_eq!(resumed.report.epochs.len(), 2, "resume runs epochs 3..=4");
    let resumed_loss = resumed.report.epochs.last().unwrap().test_loss;
    assert_eq!(
        resumed_loss.to_bits(),
        reference.to_bits(),
        "resumed {resumed_loss} != uninterrupted {reference}"
    );
}

/// Bugfix regression: non-Adam optimizers used to hit `OptState::Other(_) =>
/// None` and silently lose their checkpoints. Every kind must now checkpoint,
/// and a resumed run must be bit-identical to an uninterrupted one.
#[test]
fn non_adam_checkpoint_resume_is_bit_exact() {
    use sketchml::ml::OptimizerKind;
    let (train, test, dim) = dataset();
    let cluster = ClusterConfig::cluster1(4);
    let compressor = SketchMlCompressor::default();
    for kind in [
        OptimizerKind::Sgd(0.05),
        OptimizerKind::Momentum(0.05, 0.9),
        OptimizerKind::AdaGrad(0.05, 1e-8),
    ] {
        let full_spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 4).with_optimizer(kind);
        let reference = train_distributed(&train, &test, dim, &full_spec, &cluster, &compressor)
            .unwrap()
            .epochs
            .last()
            .unwrap()
            .test_loss;

        let half_spec = TrainSpec {
            max_epochs: 2,
            ..full_spec
        };
        let halted = train_glm(
            &GlmTask::new(&train, &test, dim),
            &half_spec,
            &cluster,
            Aggregation::Driver(&compressor),
            &FaultPlan::none(),
            None,
        )
        .unwrap();
        let checkpoint = halted
            .checkpoint
            .unwrap_or_else(|| panic!("{kind:?} must produce a checkpoint"));
        assert_eq!(checkpoint.epochs_done, 2);

        let resumed = train_glm(
            &GlmTask::new(&train, &test, dim),
            &full_spec,
            &cluster,
            Aggregation::Driver(&compressor),
            &FaultPlan::none(),
            Some(checkpoint),
        )
        .unwrap();
        let resumed_loss = resumed.report.epochs.last().unwrap().test_loss;
        assert_eq!(
            resumed_loss.to_bits(),
            reference.to_bits(),
            "{kind:?}: resumed {resumed_loss} != uninterrupted {reference}"
        );
    }
}

/// Acceptance: a chaos run that crashes a worker under Momentum and AdaGrad
/// restores from the checkpoint and stays deterministic — same seed, same
/// fault trace, bit-identical final loss.
#[test]
fn momentum_and_adagrad_crash_recovery_is_deterministic() {
    use sketchml::ml::OptimizerKind;
    let (train, test, dim) = dataset();
    let cluster = ClusterConfig::cluster1(4);
    let compressor = SketchMlCompressor::default();
    for kind in [
        OptimizerKind::Momentum(0.05, 0.9),
        OptimizerKind::AdaGrad(0.05, 1e-8),
    ] {
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 3).with_optimizer(kind);
        let plan = FaultPlan::seeded(0xBADC0DE).with_crash(1, 3, 2);
        let run = || {
            train_glm(
                &GlmTask::new(&train, &test, dim),
                &spec,
                &cluster,
                Aggregation::Driver(&checksummed(&compressor, 1)),
                &plan,
                None,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.trace.crashes, 1, "{kind:?}: scheduled crash must fire");
        assert_eq!(
            a.trace.recoveries, 1,
            "{kind:?}: crashed worker must recover"
        );
        assert_eq!(a.trace, b.trace, "{kind:?}: post-resume traces diverged");
        let la = a.report.epochs.last().unwrap().test_loss;
        let lb = b.report.epochs.last().unwrap().test_loss;
        assert_eq!(
            la.to_bits(),
            lb.to_bits(),
            "{kind:?}: post-resume losses diverged: {la} vs {lb}"
        );
    }
}

/// Sketched optimizer state rides through the same checkpoint machinery:
/// resume under `OptStateMode::Sketched` is bit-exact, and the checkpoint
/// payload stays small regardless of the model dimension.
#[test]
fn sketched_opt_state_checkpoint_resume_is_bit_exact() {
    use sketchml::ml::OptStateMode;
    let (train, test, dim) = dataset();
    let cluster = ClusterConfig::cluster1(4);
    let compressor = SketchMlCompressor::default();
    let full_spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 4)
        .with_opt_state(OptStateMode::sketched(3, 4096));

    let reference = train_distributed(&train, &test, dim, &full_spec, &cluster, &compressor)
        .unwrap()
        .epochs
        .last()
        .unwrap()
        .test_loss;

    let half_spec = TrainSpec {
        max_epochs: 2,
        ..full_spec
    };
    let halted = train_glm(
        &GlmTask::new(&train, &test, dim),
        &half_spec,
        &cluster,
        Aggregation::Driver(&compressor),
        &FaultPlan::none(),
        None,
    )
    .unwrap();
    let checkpoint = halted
        .checkpoint
        .expect("sketched runs produce checkpoints");
    assert!(
        checkpoint.optimizer.is_sketched(),
        "checkpoint must carry the sketched state"
    );

    let resumed = train_glm(
        &GlmTask::new(&train, &test, dim),
        &full_spec,
        &cluster,
        Aggregation::Driver(&compressor),
        &FaultPlan::none(),
        Some(checkpoint),
    )
    .unwrap();
    let resumed_loss = resumed.report.epochs.last().unwrap().test_loss;
    assert_eq!(
        resumed_loss.to_bits(),
        reference.to_bits(),
        "sketched resume {resumed_loss} != uninterrupted {reference}"
    );
}

#[test]
fn resume_rejects_mismatched_or_exhausted_checkpoints() {
    let (train, test, dim) = dataset();
    let cluster = ClusterConfig::cluster1(2);
    let compressor = SketchMlCompressor::default();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
    let outcome = train_glm(
        &GlmTask::new(&train, &test, dim),
        &spec,
        &cluster,
        Aggregation::Driver(&compressor),
        &FaultPlan::none(),
        None,
    )
    .unwrap();
    let ck = outcome.checkpoint.unwrap();
    // Same checkpoint, but the run it would resume is already finished.
    let err = train_glm(
        &GlmTask::new(&train, &test, dim),
        &spec,
        &cluster,
        Aggregation::Driver(&compressor),
        &FaultPlan::none(),
        Some(ck),
    )
    .unwrap_err();
    assert!(matches!(err, CompressError::InvalidConfig(_)), "{err:?}");
}

#[test]
fn parameter_server_chaos_smoke() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
    let cluster = ClusterConfig::cluster1(4);
    let plan = FaultPlan::seeded(41).with_drops(0.15).with_crash(0, 3, 2);
    let TrainOutcome { report, trace, .. } = train_glm(
        &GlmTask::new(&train, &test, dim),
        &spec,
        &cluster,
        Aggregation::ParameterServer {
            servers: 4,
            compressor: &checksummed(SketchMlCompressor::default(), 1),
        },
        &plan,
        None,
    )
    .unwrap();
    assert!(trace.retransmits > 0, "PS shard pushes should hit drops");
    assert_eq!(trace.crashes, 1);
    let clean = train_parameter_server(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        4,
        &SketchMlCompressor::default(),
    )
    .unwrap();
    let faulty_loss = report.epochs.last().unwrap().test_loss;
    let clean_loss = clean.epochs.last().unwrap().test_loss;
    assert!(
        (faulty_loss - clean_loss).abs() / clean_loss < 0.10,
        "PS chaos loss {faulty_loss} strayed from {clean_loss}"
    );
}

#[test]
fn ssp_chaos_absorbs_stragglers_and_crashes() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
    let cluster = ClusterConfig::cluster1(4);
    let ssp = SspConfig::ssp(3, 0.0);
    let plan = FaultPlan::seeded(17)
        .with_drops(0.05)
        .with_stragglers(vec![1.0, 1.0, 4.0, 1.0])
        .with_crash(1, 10, 5);
    let (report, trace) = train_ssp_with_plan(
        &GlmTask::new(&train, &test, dim),
        &spec,
        &cluster,
        &ssp,
        &checksummed(SketchMlCompressor::default(), 1),
        &plan,
    )
    .unwrap();
    assert_eq!(trace.crashes, 1);
    assert_eq!(trace.recoveries, 1);
    let last = report.epochs.last().unwrap().test_loss;
    assert!(last.is_finite() && last > 0.0);
    // Determinism holds under SSP too.
    let (_, trace2) = train_ssp_with_plan(
        &GlmTask::new(&train, &test, dim),
        &spec,
        &cluster,
        &ssp,
        &checksummed(SketchMlCompressor::default(), 1),
        &plan,
    )
    .unwrap();
    assert_eq!(trace, trace2);
    // And the fault-free entry point still works unchanged.
    let clean = train_ssp(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &ssp,
        &SketchMlCompressor::default(),
    )
    .unwrap();
    assert!(clean.epochs.last().unwrap().test_loss.is_finite());
}

#[test]
fn mlp_chaos_smoke() {
    let spec = sketchml::MnistLikeSpec::small();
    let (train, test) = spec.generate_split();
    let net = MlpConfig::small(spec.pixels(), 8, spec.classes);
    let tspec = MlpTrainSpec {
        batch_ratio: 0.2,
        epochs: 2,
        ..MlpTrainSpec::paper(2)
    };
    let cluster = ClusterConfig::cluster1(3);
    let plan = FaultPlan::seeded(23).with_drops(0.10).with_crash(2, 2, 1);
    let run = || {
        train_mlp_with_plan(
            &train,
            &test,
            &net,
            &tspec,
            &cluster,
            &checksummed(SketchMlCompressor::default(), 1),
            &plan,
        )
        .unwrap()
    };
    let (report, trace) = run();
    assert_eq!(trace.crashes, 1);
    assert!(report.epochs.last().unwrap().test_loss.is_finite());
    let (_, trace2) = run();
    assert_eq!(trace, trace2, "MLP chaos must be deterministic");
    // Fault-free MLP entry point unchanged.
    let clean = train_mlp_distributed(
        &train,
        &test,
        &net,
        &tspec,
        &cluster,
        &SketchMlCompressor::default(),
    )
    .unwrap();
    assert!(clean.epochs.last().unwrap().test_loss.is_finite());
}

/// The silent-failure baseline: the same seeded corrupting plan over a
/// frame without a CRC lets some corrupted pushes decode into wrong
/// gradients, while over `sketchml@1c` every corruption is caught (and
/// retransmitted) by the receiver's CRC check.
#[test]
fn corruption_is_silent_only_without_a_checksummed_frame() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
    let cluster = ClusterConfig::cluster1(4);
    let plan = FaultPlan::seeded(0x5113).with_corruption(0.2, 1);
    let run = |name: &str| {
        let compressor = registry::by_name(name).unwrap();
        train_glm(
            &GlmTask::new(&train, &test, dim),
            &spec,
            &cluster,
            Aggregation::Driver(compressor.as_ref()),
            &plan,
            None,
        )
        .unwrap()
        .trace
    };
    let native = run("sketchml");
    assert!(
        native.corruptions_silent > 0,
        "a CRC-less frame must let some corruption through: {}",
        native.summary()
    );
    let framed = run("sketchml@1c");
    assert_eq!(framed.corruptions_silent, 0, "{}", framed.summary());
    assert!(framed.corruptions_detected > 0, "{}", framed.summary());
}

#[test]
fn invalid_plans_and_configs_are_typed_errors() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 1);
    let cluster = ClusterConfig::cluster1(2);
    let run = |plan: &FaultPlan| {
        train_glm(
            &GlmTask::new(&train, &test, dim),
            &spec,
            &cluster,
            Aggregation::Driver(&SketchMlCompressor::default()),
            plan,
            None,
        )
    };
    for bad in [
        FaultPlan::seeded(1).with_drops(1.5),
        FaultPlan::seeded(1).with_corruption(f64::NAN, 1),
        FaultPlan::seeded(1).with_retries(0, 1e-3),
        FaultPlan::seeded(1).with_crash(9, 0, 1), // worker out of range
        FaultPlan::seeded(1).with_stragglers(vec![1.0, 0.0, 1.0]),
    ] {
        let err = run(&bad).unwrap_err();
        assert!(matches!(err, CompressError::InvalidConfig(_)), "{err:?}");
    }
    // Cluster config validation is independent of the plan.
    let mut broken = ClusterConfig::cluster1(2);
    broken.workers = 0;
    let err = train_distributed(
        &train,
        &test,
        dim,
        &spec,
        &broken,
        &SketchMlCompressor::default(),
    )
    .unwrap_err();
    assert!(matches!(err, CompressError::InvalidConfig(_)), "{err:?}");
}
