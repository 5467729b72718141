//! Figure 13 + Table 3 (Appendix B.2) — sensitivity to SketchML's
//! hyper-parameters on KDD12-like Linear Regression.
//!
//! Paper: quantile size 256 slightly improves convergence at unchanged
//! epoch time (360 → 353 s); 4 sketch rows *slow* convergence (more bytes:
//! 360 → 420 s/epoch); d/2 columns cost a bit of speed (383 s) but converge
//! better.
//!
//! The shipped codec sketches one row (DESIGN.md §2); the paper's §4.1
//! default is two. The row sweep reports rows 1 (the default), 2 and 4, so
//! Table 3's 2 → 4 comparison is still here.

use serde::Serialize;
use sketchml_bench::harness::sketchml_with;
use sketchml_bench::output::{fmt_secs, print_table, write_json, ExperimentOutput};
use sketchml_bench::scaled;
use sketchml_cluster::{train_distributed, ClusterConfig, TrainSpec};
use sketchml_core::SketchMlCompressor;
use sketchml_data::SparseDatasetSpec;
use sketchml_ml::GlmLoss;

#[derive(Serialize)]
struct Row {
    variant: String,
    seconds_per_epoch: f64,
    best_loss: f64,
}

fn main() {
    let epochs: usize = std::env::var("SKETCHML_EPOCHS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    let spec = scaled(SparseDatasetSpec::kdd12_like()).as_regression();
    let (train, test) = spec.generate_split();
    let cluster = ClusterConfig::cluster2(10);
    let tspec = TrainSpec::paper(GlmLoss::Squared, 0.02, epochs);

    let variants: Vec<(String, SketchMlCompressor)> = vec![
        (
            "default (m=128, rows=1, cols=d/5)".into(),
            SketchMlCompressor::default(),
        ),
        (
            "row_2 (paper default)".into(),
            sketchml_with(|c| c.rows = 2),
        ),
        (
            "quan_256 (m=256, q=256/sign, cap d/8)".into(),
            sketchml_with(|c| {
                c.quantile_sketch_capacity = 256;
                c.buckets_per_sign = 256;
                c.bucket_cap_divisor = 8;
            }),
        ),
        ("row_4".into(), sketchml_with(|c| c.rows = 4)),
        ("col_d/2".into(), sketchml_with(|c| c.col_ratio = 0.5)),
    ];

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (label, compressor) in variants {
        let report = train_distributed(
            &train,
            &test,
            spec.features as usize,
            &tspec,
            &cluster,
            &compressor,
        )
        .expect("training run");
        rows.push(vec![
            label.clone(),
            fmt_secs(report.avg_epoch_seconds()),
            format!("{:.5}", report.best_test_loss()),
        ]);
        json.push(Row {
            variant: label,
            seconds_per_epoch: report.avg_epoch_seconds(),
            best_loss: report.best_test_loss(),
        });
    }
    print_table(
        "Figure 13 / Table 3: Sensitivity (kdd12-like, Linear)",
        &["Variant", "sec/epoch", "best loss"],
        &rows,
    );
    println!(
        "\nPaper shape: larger quantile size ≈ same time, better loss; \
         4 rows cost time over 2 (more sketch bytes); d/2 columns cost a \
         little time but improve accuracy."
    );
    write_json(&ExperimentOutput {
        id: "fig13_table3".into(),
        paper_ref: "Figure 13 + Table 3 (B.2)".into(),
        results: json,
    });
}
