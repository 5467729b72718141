//! Big-model training with sketched optimizer state: how far `d` can grow
//! when Adam's moment vectors live in fixed-size count-sketch tables
//! instead of dense `O(d)` arrays.
//!
//! Three parts:
//!
//! 1. **Capacity table** — optimizer-state bytes for dense vs sketched Adam
//!    at d = 1M / 10M / 100M. Dense grows as `2 × 8d`; the sketch stays at
//!    its configured table size regardless of `d`.
//! 2. **Loss parity at matched d** — dense vs sketched Adam on the same
//!    30k-feature dataset and spec; the sketched run must land within 5%
//!    of the dense final loss.
//! 3. **Big-model run** — a real distributed training run at d ≥ 10M with
//!    sketched state; the run's optimizer state (`OptimizerState::state_bytes`)
//!    must stay within the 16 MB/worker budget while dense Adam would have
//!    needed 160 MB.
//!
//! Aborts unless the parity and budget gates hold.
//!
//! `--quick` shrinks the dataset, dimensions, and epoch count (CI smoke).

use serde::Serialize;
use sketchml_bench::output::{print_table, write_json, ExperimentOutput};
use sketchml_cluster::{train_distributed, ClusterConfig, TrainSpec};
use sketchml_core::SketchMlCompressor;
use sketchml_data::{SparseDatasetSpec, Task};
use sketchml_ml::{AdamConfig, GlmLoss, Instance, OptStateMode, OptimizerKind, OptimizerState};

/// The acceptance budget: sketched optimizer state per worker.
const BUDGET_BYTES: u64 = 16 * 1024 * 1024;

#[derive(Serialize)]
struct CapacityRow {
    dim: usize,
    /// Actual bytes of a sketched-Adam state built at this dimension.
    sketched_bytes: u64,
    /// Dense Adam's two `f64` moment vectors at this dimension.
    dense_bytes: u64,
    ratio: f64,
}

#[derive(Serialize)]
struct ParityRow {
    mode: &'static str,
    final_loss: f64,
    opt_state_bytes: u64,
}

#[derive(Serialize)]
struct Report {
    quick: bool,
    capacity: Vec<CapacityRow>,
    parity: Vec<ParityRow>,
    /// Relative gap between sketched and dense final loss at matched d.
    parity_gap: f64,
    big_dim: usize,
    big_epochs: usize,
    big_first_loss: f64,
    big_final_loss: f64,
    /// Bytes of the big run's optimizer state, as `OptimizerState::state_bytes`.
    big_opt_state_bytes: u64,
    /// What dense Adam would have allocated at `big_dim`.
    big_dense_bytes: u64,
    budget_bytes: u64,
}

fn parity_dataset(quick: bool) -> (Vec<Instance>, Vec<Instance>, usize) {
    let spec = SparseDatasetSpec {
        name: "bigmodel-parity".into(),
        instances: if quick { 1_200 } else { 4_000 },
        features: 30_000,
        avg_nnz: 20,
        skew: 1.1,
        label_noise: 0.02,
        task: Task::Classification,
        seed: 909,
    };
    let (tr, te) = spec.generate_split();
    (tr, te, 30_000)
}

fn big_dataset(quick: bool) -> (Vec<Instance>, Vec<Instance>, usize) {
    let features: u32 = if quick { 1_000_000 } else { 10_000_000 };
    let spec = SparseDatasetSpec {
        name: "bigmodel".into(),
        instances: if quick { 800 } else { 2_000 },
        features,
        avg_nnz: 20,
        skew: 1.2,
        label_noise: 0.02,
        task: Task::Classification,
        seed: 910,
    };
    let (tr, te) = spec.generate_split();
    (tr, te, features as usize)
}

fn dense_adam_bytes(dim: usize) -> u64 {
    2 * 8 * dim as u64
}

/// Bytes of the optimizer state a run of `spec` at `dim` trains with.
fn opt_state_bytes(spec: &TrainSpec, dim: usize) -> u64 {
    OptimizerState::build(spec.optimizer, spec.opt_state, dim)
        .expect("optimizer state")
        .state_bytes() as u64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let adam = OptimizerKind::Adam(AdamConfig::with_lr(0.05));
    // 3 rows × 256k cols × 8 B × two tables ≈ 12.6 MB — under the budget,
    // and unchanged whether d is 1M or 100M.
    let big_mode = OptStateMode::sketched(3, 262_144);

    // Part 1: capacity. Only the sketched state is actually built — dense
    // Adam at 100M dims would be the 1.6 GB allocation this PR avoids.
    let capacity: Vec<CapacityRow> = [1_000_000usize, 10_000_000, 100_000_000]
        .iter()
        .map(|&dim| {
            let state = OptimizerState::build(adam, big_mode, dim).expect("sketched state");
            CapacityRow {
                dim,
                sketched_bytes: state.state_bytes() as u64,
                dense_bytes: dense_adam_bytes(dim),
                ratio: dense_adam_bytes(dim) as f64 / state.state_bytes() as f64,
            }
        })
        .collect();
    assert!(
        capacity
            .windows(2)
            .all(|w| w[0].sketched_bytes == w[1].sketched_bytes),
        "sketched state bytes must be dimension-independent"
    );
    assert!(
        capacity.iter().all(|r| r.sketched_bytes <= BUDGET_BYTES),
        "sketched state must fit the {BUDGET_BYTES}-byte budget"
    );

    // Part 2: loss parity at matched d.
    let (train, test, dim) = parity_dataset(quick);
    let epochs = if quick { 2 } else { 4 };
    let cluster = ClusterConfig::cluster1(4);
    let compressor = SketchMlCompressor::default();
    let mut parity = Vec::new();
    for (label, mode) in [
        ("dense", OptStateMode::Dense),
        ("sketched", OptStateMode::sketched(5, 131_072)),
    ] {
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, epochs).with_opt_state(mode);
        let report =
            train_distributed(&train, &test, dim, &spec, &cluster, &compressor).expect(label);
        parity.push(ParityRow {
            mode: label,
            final_loss: report.epochs.last().expect("epochs").test_loss,
            opt_state_bytes: opt_state_bytes(&spec, dim),
        });
    }
    let dense_loss = parity[0].final_loss;
    let sketched_loss = parity[1].final_loss;
    let parity_gap = (sketched_loss - dense_loss).abs() / dense_loss;
    assert!(
        parity_gap <= 0.05,
        "sketched loss {sketched_loss} strayed more than 5% from dense {dense_loss}"
    );

    // Part 3: the big-model run.
    let (btrain, btest, bdim) = big_dataset(quick);
    let big_epochs = if quick { 1 } else { 2 };
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, big_epochs).with_opt_state(big_mode);
    let report =
        train_distributed(&btrain, &btest, bdim, &spec, &cluster, &compressor).expect("big run");
    let big_first_loss = report.epochs.first().expect("epochs").test_loss;
    let big_final_loss = report.epochs.last().expect("epochs").test_loss;
    let big_opt_state_bytes = opt_state_bytes(&spec, bdim);
    assert!(
        big_opt_state_bytes > 0 && big_opt_state_bytes <= BUDGET_BYTES,
        "big-run optimizer state {big_opt_state_bytes} B must be within (0, {BUDGET_BYTES}] B"
    );
    assert!(
        big_final_loss.is_finite() && big_final_loss < GlmLoss::Logistic.loss(0.0, 1.0),
        "big-model run must improve on the zero-weights loss (got {big_final_loss})"
    );
    if !quick {
        assert!(bdim >= 10_000_000, "full run must train at d >= 10M");
    }

    let table: Vec<Vec<String>> = capacity
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.dim),
                format!("{:.1} MB", r.sketched_bytes as f64 / 1048576.0),
                format!("{:.1} MB", r.dense_bytes as f64 / 1048576.0),
                format!("{:.0}x", r.ratio),
            ]
        })
        .collect();
    print_table(
        "Optimizer-state bytes: sketched (3x256k) vs dense Adam",
        &["d", "sketched", "dense", "dense/sketched"],
        &table,
    );
    println!(
        "\nparity at d={dim}: dense {dense_loss:.4} vs sketched {sketched_loss:.4} \
         (gap {:.2}%)",
        parity_gap * 100.0
    );
    println!(
        "big model: d={bdim}, {big_epochs} epoch(s), loss {big_first_loss:.4} -> \
         {big_final_loss:.4}, optimizer state {:.1} MB (dense would need {:.0} MB)",
        big_opt_state_bytes as f64 / 1048576.0,
        dense_adam_bytes(bdim) as f64 / 1048576.0
    );

    write_json(&ExperimentOutput {
        id: "fig_bigmodel".into(),
        paper_ref: "extension (sketched optimizer state, arXiv:1902.00179)".into(),
        results: Report {
            quick,
            capacity,
            parity,
            parity_gap,
            big_dim: bdim,
            big_epochs,
            big_first_loss,
            big_final_loss,
            big_opt_state_bytes,
            big_dense_bytes: dense_adam_bytes(bdim),
            budget_bytes: BUDGET_BYTES,
        },
    });
}
