//! Integration tests for the collectives crate wired through the cluster
//! simulator: ring/tree allreduce training must match the star trainer
//! under the exact merge policy and seeded fault plans must reproduce
//! bit-identically. (The hop-accounting telemetry test lives in
//! `tests/telemetry.rs`, where every test holds the session lock.) The
//! runs under a plan ship the checksummed frame ([`common::checksummed`]).

mod common;

use common::checksummed;
use sketchml::{
    train_allreduce, train_allreduce_with_policy, train_distributed, train_glm, Aggregation,
    ClusterConfig, CompressError, CountSketchCompressor, CountSketchConfig, FastSgdCompressor,
    FaultPlan, GlmLoss, GlmTask, GradientCompressor, Instance, MergePolicy, MergeableCompressor,
    RawCompressor, SketchMlCompressor, SparseDatasetSpec, SparseGradient, Topology, TrainSpec,
};

fn dataset() -> (Vec<Instance>, Vec<Instance>, usize) {
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

/// Acceptance criterion: `train_allreduce` (ring, n = 8) under the exact
/// merge policy lands within 1e-9 of `train_distributed` on the same seed.
/// The two runs feed identical worker payloads into different aggregation
/// orders, so the only divergence is floating-point reassociation.
#[test]
fn ring_allreduce_matches_the_star_trainer_to_1e9() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 6);
    let star_cluster = ClusterConfig::cluster1(8);
    let ring_cluster = ClusterConfig::cluster1(8).with_topology(Topology::Ring);

    let sk = SketchMlCompressor::default();
    let raw = RawCompressor::default();
    let cases: [(&str, &dyn MergeableCompressor, &dyn GradientCompressor); 2] =
        [("sketchml", &sk, &sk), ("raw", &raw, &raw)];
    for (name, merge_comp, grad_comp) in cases {
        let star = train_distributed(&train, &test, dim, &spec, &star_cluster, grad_comp).unwrap();
        let ring = train_allreduce(&train, &test, dim, &spec, &ring_cluster, merge_comp).unwrap();
        for (s, r) in star.epochs.iter().zip(ring.epochs.iter()) {
            assert!(
                (s.test_loss - r.test_loss).abs() < 1e-9,
                "{name} epoch {}: star {} vs ring {}",
                s.epoch,
                s.test_loss,
                r.test_loss
            );
        }
        assert_eq!(star.epochs.len(), ring.epochs.len());
    }
}

/// Tree and star topologies through the allreduce entry point agree with the
/// ring (all are exact-policy sums of the same payloads) and beat the zero
/// model.
#[test]
fn every_topology_trains_to_the_same_place() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 4);
    let c = SketchMlCompressor::default();
    let run = |t: Topology| {
        let cluster = ClusterConfig::cluster1(4).with_topology(t);
        train_allreduce(&train, &test, dim, &spec, &cluster, &c).unwrap()
    };
    let ring = run(Topology::Ring);
    let tree = run(Topology::Tree);
    let star = run(Topology::Star);

    let baseline = (2f64).ln(); // zero model's logistic loss
    for (name, r) in [("ring", &ring), ("tree", &tree), ("star", &star)] {
        let loss = r.best_test_loss();
        assert!(
            loss < baseline * 0.95,
            "{name}: loss {loss} did not beat the zero model"
        );
    }
    let lr = ring.epochs.last().unwrap().test_loss;
    let lt = tree.epochs.last().unwrap().test_loss;
    let ls = star.epochs.last().unwrap().test_loss;
    assert!((lr - lt).abs() < 1e-9, "ring {lr} vs tree {lt}");
    assert!((lr - ls).abs() < 1e-9, "ring {lr} vs star {ls}");
}

/// The resketch policy keeps every hop sketch-compressed: links shrink
/// relative to the exact policy's full-precision partial sums, and the run
/// still converges.
#[test]
fn resketch_policy_shrinks_links_and_still_converges() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 4);
    let cluster = ClusterConfig::cluster1(4).with_topology(Topology::Ring);
    let c = SketchMlCompressor::default();
    let exact =
        train_allreduce_with_policy(&train, &test, dim, &spec, &cluster, &c, MergePolicy::Exact)
            .unwrap();
    let resketch = train_allreduce_with_policy(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &c,
        MergePolicy::Resketch,
    )
    .unwrap();

    let bytes = |r: &sketchml::TrainReport| {
        r.epochs
            .iter()
            .map(|e| e.uplink_bytes + e.downlink_bytes)
            .sum::<u64>()
    };
    assert!(
        bytes(&resketch) < bytes(&exact),
        "resketch {} bytes should undercut exact {} bytes",
        bytes(&resketch),
        bytes(&exact)
    );
    let baseline = (2f64).ln();
    assert!(
        resketch.best_test_loss() < baseline * 0.95,
        "resketch loss {} did not beat the zero model",
        resketch.best_test_loss()
    );
}

/// Satellite: a seeded plan with 10% per-link drops on the ring converges
/// within 5% of the fault-free loss. Retries are capped low enough that
/// some hops are really lost for good, so the test exercises the
/// drop-a-contribution path rather than just the retry loop.
#[test]
fn ring_survives_ten_percent_drops() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 4);
    let cluster = ClusterConfig::cluster1(4).with_topology(Topology::Ring);
    let c = SketchMlCompressor::default();

    let clean = train_allreduce(&train, &test, dim, &spec, &cluster, &c).unwrap();
    let plan = FaultPlan::seeded(0xD2075)
        .with_drops(0.10)
        .with_retries(2, 0.01);
    let stormy = train_glm(
        &GlmTask::new(&train, &test, dim),
        &spec,
        &cluster,
        Aggregation::Collective {
            policy: MergePolicy::Exact,
            compressor: &checksummed(&c, 1),
        },
        &plan,
        None,
    )
    .unwrap();

    assert!(
        !stormy.trace.events.is_empty(),
        "a 10% drop plan should inject faults"
    );
    let lf = clean.epochs.last().unwrap().test_loss;
    let lc = stormy.report.epochs.last().unwrap().test_loss;
    assert!(
        (lc - lf).abs() <= 0.05 * lf,
        "chaos loss {lc} strayed more than 5% from fault-free loss {lf}"
    );
}

/// Satellite: the same plan and data always reproduce the identical fault
/// trace and a bit-identical final loss.
#[test]
fn chaos_allreduce_is_bit_reproducible() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 2);
    let cluster = ClusterConfig::cluster1(4).with_topology(Topology::Ring);
    let c = checksummed(SketchMlCompressor::default(), 1);
    let plan = FaultPlan::seeded(42).with_drops(0.10).with_retries(2, 0.01);
    let run = || {
        train_glm(
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
        .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.trace, b.trace, "fault traces diverged");
    let la = a.report.epochs.last().unwrap().test_loss;
    let lb = b.report.epochs.last().unwrap().test_loss;
    assert_eq!(
        la.to_bits(),
        lb.to_bits(),
        "final losses diverged: {la} vs {lb}"
    );
}

/// Acceptance criterion: an 8-worker ring under [`MergePolicy::Linear`]
/// recovers *bit-identical* top-k to a single node that sketches the summed
/// gradient directly. The inputs are dyadic rationals and the weights are
/// 1/8, so every f64 addition along every merge order is exact — linearity
/// of the Count-Sketch makes the 14-hop ring indistinguishable from the
/// one-shot sketch.
#[test]
fn linear_ring_recovers_the_single_node_sketch_of_sum_bit_for_bit() {
    use sketchml::collectives::{allreduce, Contribution, PerfectTransport};

    let c = CountSketchCompressor::new(CountSketchConfig::default()).unwrap();
    let dim = 40_000u64;
    let n = 8usize;
    let grads: Vec<SparseGradient> = (0..n as u64)
        .map(|w| {
            let mut keys: Vec<u64> = (0..120).map(|j| (j * 331 + w * 7919) % dim).collect();
            keys.sort_unstable();
            keys.dedup();
            let values: Vec<f64> = keys
                .iter()
                .enumerate()
                .map(|(j, _)| (j as f64 - 60.0) / 128.0)
                .collect();
            SparseGradient::new(dim, keys, values).unwrap()
        })
        .collect();
    let payloads: Vec<Vec<u8>> = grads
        .iter()
        .map(|g| c.compress(g).unwrap().payload.to_vec())
        .collect();
    let contribs: Vec<Contribution> = payloads
        .iter()
        .map(|p| Contribution {
            payload: p,
            weight: 1.0 / 8.0,
        })
        .collect();

    // Single-node reference: sum the weighted gradients, sketch once,
    // extract once.
    let mut weighted = grads.clone();
    for g in &mut weighted {
        g.scale(1.0 / 8.0);
    }
    let sum = SparseGradient::aggregate(&weighted).unwrap();
    let want = c.decompress(&c.compress(&sum).unwrap().payload).unwrap();

    let got = allreduce(
        Topology::Ring,
        MergePolicy::Linear,
        &c,
        dim,
        &contribs,
        &mut PerfectTransport,
    )
    .unwrap();
    assert_eq!(got.lost_hops, 0);
    assert_eq!(got.gradient.keys(), want.keys(), "key sets diverged");
    let got_bits: Vec<u64> = got.gradient.values().iter().map(|v| v.to_bits()).collect();
    let want_bits: Vec<u64> = want.values().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got_bits, want_bits, "values are not bit-identical");
}

/// Acceptance criterion: Count-Sketch compressed allreduce training stays
/// within 5% of dense-SGD loss on the fig10-style workload — the linear
/// merge policy never compounds error across hops, so the only loss source
/// is the one top-k extraction per round.
#[test]
fn countsketch_allreduce_tracks_dense_sgd_within_five_percent() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 6);
    let cluster = ClusterConfig::cluster1(8).with_topology(Topology::Ring);

    let dense = train_allreduce_with_policy(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &RawCompressor::default(),
        MergePolicy::Exact,
    )
    .unwrap();
    let sketched = train_allreduce_with_policy(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &CountSketchCompressor::new(CountSketchConfig::default()).unwrap(),
        MergePolicy::Linear,
    )
    .unwrap();

    let ld = dense.epochs.last().unwrap().test_loss;
    let ls = sketched.epochs.last().unwrap().test_loss;
    assert!(
        (ls - ld).abs() <= 0.05 * ld,
        "countsketch loss {ls} strayed more than 5% from dense loss {ld}"
    );
    // And it beats the zero model outright.
    assert!(ls < (2f64).ln() * 0.95, "loss {ls} did not beat zero model");
}

/// Acceptance criterion: FastSGD exponent-only log quantization trains
/// allreduce within 5% of dense-SGD loss on the same workload — the
/// quantizer never flips a sign and stays within one octave of every value,
/// so per-coordinate it acts like a bounded learning-rate perturbation.
#[test]
fn fastsgd_allreduce_tracks_dense_sgd_within_five_percent() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 6);
    let cluster = ClusterConfig::cluster1(8).with_topology(Topology::Ring);

    let dense = train_allreduce(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &RawCompressor::default(),
    )
    .unwrap();
    let quantized = train_allreduce(
        &train,
        &test,
        dim,
        &spec,
        &cluster,
        &FastSgdCompressor::default(),
    )
    .unwrap();

    let ld = dense.epochs.last().unwrap().test_loss;
    let lq = quantized.epochs.last().unwrap().test_loss;
    assert!(
        (lq - ld).abs() <= 0.05 * ld,
        "fastsgd loss {lq} strayed more than 5% from dense loss {ld}"
    );
    assert!(lq < (2f64).ln() * 0.95, "loss {lq} did not beat zero model");
}

/// Crash-bearing plans are no longer rejected: the elastic membership layer
/// detects the outage, evicts the worker, and lets it rejoin from a
/// checkpoint pull — the run trains to completion with the transitions in
/// the trace. A topology without enough configured workers stays a typed
/// error.
#[test]
fn invalid_configurations_are_typed_errors() {
    let (train, test, dim) = dataset();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, 1);
    let c = SketchMlCompressor::default();

    let cluster = ClusterConfig::cluster1(4).with_topology(Topology::Ring);
    let crashy = FaultPlan::seeded(1).with_drops(0.10).with_crash(1, 2, 2);
    let outcome = train_glm(
        &GlmTask::new(&train, &test, dim),
        &spec,
        &cluster,
        Aggregation::Collective {
            policy: MergePolicy::Exact,
            compressor: &checksummed(&c, 1),
        },
        &crashy,
        None,
    )
    .unwrap();
    assert_eq!(outcome.trace.crashes, 1, "the crash window must fire");
    assert!(
        outcome.trace.suspicions >= 1,
        "the detector must notice the outage: {}",
        outcome.trace.summary()
    );
    let loss = outcome.report.epochs.last().unwrap().test_loss;
    assert!(loss < (2f64).ln(), "loss {loss} should beat the zero model");

    let lonely = ClusterConfig::cluster1(1).with_topology(Topology::Ring);
    match train_allreduce(&train, &test, dim, &spec, &lonely, &c) {
        Err(CompressError::InvalidConfig(msg)) => {
            assert!(msg.contains("worker"), "unexpected message: {msg}")
        }
        other => panic!("one-worker ring should be rejected, got {other:?}"),
    }
}
