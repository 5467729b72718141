//! Extension experiment — stale-synchronous parallelism (SSP, Ho et al.,
//! the paper's ref \[19\]) with compressed gradients: wall time to a fixed
//! epoch budget under a straggling worker, sweeping the staleness bound,
//! for SketchML and the raw baseline.
//!
//! Expected shape: BSP (staleness 0) pays the full straggler penalty every
//! round; a small staleness bound hides most of it; compression and
//! staleness compose (SketchML-SSP is the fastest cell).

use serde::Serialize;
use sketchml_bench::output::{fmt_secs, print_table, write_json, ExperimentOutput};
use sketchml_bench::scaled;
use sketchml_cluster::ssp::{train_ssp, SspConfig};
use sketchml_cluster::{ClusterConfig, TrainSpec};
use sketchml_core::{GradientCompressor, RawCompressor, SketchMlCompressor};
use sketchml_data::SparseDatasetSpec;
use sketchml_ml::GlmLoss;

#[derive(Serialize)]
struct Row {
    method: String,
    staleness: usize,
    total_seconds: f64,
    best_loss: f64,
}

fn main() {
    let spec = scaled(SparseDatasetSpec::kdd10_like()).scaled(0.4);
    let (train, test) = spec.generate_split();
    let cluster = ClusterConfig::cluster1(8);
    let tspec = TrainSpec::paper(GlmLoss::Logistic, 0.02, 4);
    let straggle = 2.0; // slowest worker is 3x the fastest

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (label, compressor) in [
        (
            "SketchML",
            &SketchMlCompressor::default() as &dyn GradientCompressor,
        ),
        ("Adam", &RawCompressor::default()),
    ] {
        for staleness in [0usize, 1, 3, 8] {
            let report = train_ssp(
                &train,
                &test,
                spec.features as usize,
                &tspec,
                &cluster,
                &SspConfig::ssp(staleness, straggle),
                compressor,
            )
            .expect("ssp run");
            rows.push(vec![
                label.to_string(),
                if staleness == 0 {
                    "0 (BSP)".into()
                } else {
                    staleness.to_string()
                },
                fmt_secs(report.total_sim_seconds()),
                format!("{:.5}", report.best_test_loss()),
            ]);
            json.push(Row {
                method: label.into(),
                staleness,
                total_seconds: report.total_sim_seconds(),
                best_loss: report.best_test_loss(),
            });
        }
    }
    print_table(
        "Extension: SSP staleness sweep under a 3x straggler (kdd10-like, LR, W=8)",
        &["Method", "Staleness", "total sec", "best loss"],
        &rows,
    );
    println!(
        "\nBSP pays the straggler every round; bounded staleness hides it; \
         compression composes — SketchML with SSP is the fastest cell."
    );
    write_json(&ExperimentOutput {
        id: "ext_ssp_staleness".into(),
        paper_ref: "ref [19] (SSP) + production Angel context".into(),
        results: json,
    });
}
