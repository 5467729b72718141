//! Elastic-membership resilience: training through permanent worker loss
//! and crash-then-rejoin churn.
//!
//! Runs an 8-worker ring allreduce under three scenarios — no faults, one
//! permanent crash, one crash that heals with a mid-training join — and
//! records final loss, epochs to reach the fault-free loss (+5%),
//! reconfiguration stall time, and the membership transitions. Every figure
//! is a simulated quantity: same seeds, same table.
//!
//! The run aborts unless (a) the permanent-crash run converges within 5%
//! of the fault-free loss and (b) the healing run records at least one
//! eviction and one join.
//!
//! `--quick` shrinks the dataset and epoch count (CI smoke).

use serde::Serialize;
use sketchml_bench::output::{print_table, write_json, ExperimentOutput};
use sketchml_cluster::{
    train_allreduce, train_glm, Aggregation, ClusterConfig, FaultPlan, GlmTask, TrainSpec,
};
use sketchml_collectives::{MergePolicy, Topology};
use sketchml_core::SketchMlCompressor;
use sketchml_data::{SparseDatasetSpec, Task};
use sketchml_ml::{GlmLoss, Instance};

const WORKERS: usize = 8;

#[derive(Serialize)]
struct Row {
    scenario: &'static str,
    final_loss: f64,
    /// First epoch whose test loss is within 5% of the fault-free final
    /// loss (0 = never reached).
    epochs_to_target: usize,
    sim_seconds: f64,
    /// Simulated seconds stalled on reconfiguration: crash recoveries plus
    /// checkpoint-pull joins.
    stall_seconds: f64,
    evictions: u64,
    joins: u64,
    reconfigurations: u64,
    degraded_rounds: u64,
}

#[derive(Serialize)]
struct Report {
    quick: bool,
    workers: usize,
    epochs: usize,
    /// The convergence target: fault-free final loss x 1.05.
    target_loss: f64,
    rows: Vec<Row>,
}

fn dataset(quick: bool) -> (Vec<Instance>, Vec<Instance>, usize) {
    let spec = SparseDatasetSpec {
        name: "elastic".into(),
        instances: if quick { 1_200 } else { 4_000 },
        features: 30_000,
        avg_nnz: 20,
        skew: 1.1,
        label_noise: 0.02,
        task: Task::Classification,
        seed: 606,
    };
    let (tr, te) = spec.generate_split();
    (tr, te, 30_000)
}

fn epochs_to_target(curve: &[(usize, f64)], target: f64) -> usize {
    curve
        .iter()
        .find(|(_, loss)| *loss <= target)
        .map(|(e, _)| *e)
        .unwrap_or(0)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let epochs = if quick { 2 } else { 6 };
    let (train, test, dim) = dataset(quick);
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.03, epochs);
    let cluster = ClusterConfig::cluster1(WORKERS)
        .with_topology(Topology::Ring)
        .with_suspicion_threshold(2);
    let compressor = SketchMlCompressor::default();
    // 10 rounds per epoch at the default batch ratio: fail mid-run.
    let mid = (epochs as u64 * 10) / 2;

    let clean =
        train_allreduce(&train, &test, dim, &spec, &cluster, &compressor).expect("fault-free run");
    let clean_loss = clean.epochs.last().expect("epochs").test_loss;
    let target_loss = clean_loss * 1.05;
    let clean_curve: Vec<(usize, f64)> = clean
        .epochs
        .iter()
        .map(|e| (e.epoch, e.test_loss))
        .collect();

    let mut rows = vec![Row {
        scenario: "no-fault",
        final_loss: clean_loss,
        epochs_to_target: epochs_to_target(&clean_curve, target_loss),
        sim_seconds: clean.epochs.iter().map(|e| e.sim_seconds).sum(),
        stall_seconds: 0.0,
        evictions: 0,
        joins: 0,
        reconfigurations: 0,
        degraded_rounds: 0,
    }];

    for (scenario, plan) in [
        (
            "permanent-crash",
            FaultPlan::seeded(77).with_permanent_crash(5, mid),
        ),
        (
            "crash-then-join",
            FaultPlan::seeded(78).with_crash(5, mid.saturating_sub(4), 6),
        ),
    ] {
        let outcome = train_glm(
            &GlmTask::new(&train, &test, dim),
            &spec,
            &cluster,
            Aggregation::Collective {
                policy: MergePolicy::Exact,
                compressor: &compressor,
            },
            &plan,
            None,
        )
        .expect(scenario);
        let curve: Vec<(usize, f64)> = outcome
            .report
            .epochs
            .iter()
            .map(|e| (e.epoch, e.test_loss))
            .collect();
        let t = &outcome.trace;
        rows.push(Row {
            scenario,
            final_loss: outcome.report.epochs.last().expect("epochs").test_loss,
            epochs_to_target: epochs_to_target(&curve, target_loss),
            sim_seconds: outcome.report.epochs.iter().map(|e| e.sim_seconds).sum(),
            stall_seconds: t.recovery_seconds + t.join_seconds,
            evictions: t.evictions,
            joins: t.joins,
            reconfigurations: t.reconfigurations,
            degraded_rounds: t.degraded_rounds,
        });
    }

    let row = |s: &str| rows.iter().find(|r| r.scenario == s).expect("scenario row");
    let crash = row("permanent-crash");
    assert!(
        (crash.final_loss - clean_loss).abs() <= 0.05 * clean_loss,
        "permanent-crash loss {} strayed more than 5% from fault-free {clean_loss}",
        crash.final_loss
    );
    assert!(crash.evictions >= 1, "the dead worker must be evicted");
    let heal = row("crash-then-join");
    assert!(
        heal.evictions >= 1 && heal.joins >= 1,
        "the healing run must evict then rejoin (evictions {}, joins {})",
        heal.evictions,
        heal.joins
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                format!("{:.4}", r.final_loss),
                r.epochs_to_target.to_string(),
                format!("{:.3}", r.sim_seconds),
                format!("{:.3}", r.stall_seconds),
                format!("{}/{}/{}", r.evictions, r.joins, r.reconfigurations),
                r.degraded_rounds.to_string(),
            ]
        })
        .collect();
    print_table(
        "Elastic membership: training through failures (ring, n=8)",
        &[
            "scenario",
            "final loss",
            "ep→target",
            "sim s",
            "stall s",
            "evict/join/reconf",
            "degraded",
        ],
        &table,
    );
    println!("\nfault-free loss {clean_loss:.4}, target {target_loss:.4}");

    write_json(&ExperimentOutput {
        id: "fig_elastic".into(),
        paper_ref: "extension (elastic membership: eviction, rejoin)".into(),
        results: Report {
            quick,
            workers: WORKERS,
            epochs,
            target_loss,
            rows,
        },
    });
}
