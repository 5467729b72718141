//! Figure 14 (Appendix B.3) — performance on neural nets.
//!
//! Paper: an MLP (20×20 input, two hidden layers, 10 outputs) on MNIST,
//! batch 0.1%, lr 0.005. Short term (14(a)): SketchML and ZipML both beat
//! Adam. Long term (14(b)): SketchML attains the fastest convergence and
//! the smallest loss, Adam second, ZipML stalls (uniform quantization
//! zeroes the shrinking gradients). The MLP gradients are dense, so the
//! gap is smaller than on the sparse GLMs (§4.6).

use serde::Serialize;
use sketchml_bench::harness::competitor_compressors;
use sketchml_bench::output::{print_table, write_json, ExperimentOutput};
use sketchml_cluster::mlp_trainer::{train_mlp_distributed, MlpTrainSpec};
use sketchml_cluster::ClusterConfig;
use sketchml_data::MnistLikeSpec;
use sketchml_ml::{AdamConfig, MlpConfig};

#[derive(Serialize)]
struct Series {
    method: String,
    points: Vec<(f64, f64)>,
    final_accuracy: f64,
}

fn main() {
    let epochs: usize = std::env::var("SKETCHML_EPOCHS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10);
    // Scaled-down network: 12x12 input, one 64-unit hidden layer, 10 classes
    // (the paper's 400-600-600-10 at laptop scale).
    let data_spec = MnistLikeSpec {
        side: 12,
        classes: 10,
        instances: 3_500,
        noise: 0.5,
        seed: 0xB31,
    };
    let (train, test) = data_spec.generate_split();
    let net = MlpConfig {
        layer_sizes: vec![data_spec.pixels(), 64, 10],
        seed: 7,
    };
    let tspec = MlpTrainSpec {
        adam: AdamConfig::with_lr(0.005),
        opt_state: Default::default(),
        epochs,
        seed: 0xB32,
    };
    let cluster = ClusterConfig::cluster1(5).with_batch_ratio(0.02);

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for method in competitor_compressors() {
        let report = train_mlp_distributed(
            &train,
            &test,
            &net,
            &tspec,
            &cluster,
            method.compressor.as_ref(),
        )
        .expect("MLP run");
        for p in &report.curve {
            rows.push(vec![
                method.label.to_string(),
                format!("{:.2}", p.seconds),
                format!("{:.4}", p.loss),
            ]);
        }
        json.push(Series {
            method: method.label.into(),
            points: report.curve.iter().map(|p| (p.seconds, p.loss)).collect(),
            final_accuracy: report.accuracy.expect("an MLP run reports accuracy"),
        });
    }
    print_table(
        "Figure 14: Neural Net (MLP on mnist-like) — loss vs simulated seconds",
        &["Method", "seconds", "test loss"],
        &rows,
    );
    let acc: Vec<String> = json
        .iter()
        .map(|s| format!("{}: {:.1}%", s.method, s.final_accuracy * 100.0))
        .collect();
    println!("\nFinal accuracy — {}", acc.join(", "));
    println!(
        "Paper shape: SketchML converges fastest and lowest; ZipML stalls in \
         the long run; dense gradients shrink the overall gap (§4.6)."
    );
    write_json(&ExperimentOutput {
        id: "fig14".into(),
        paper_ref: "Figure 14 (B.3)".into(),
        results: json,
    });
}
