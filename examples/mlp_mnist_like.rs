//! Neural-network example (paper Appendix B.3): train a multilayer
//! perceptron on synthetic MNIST-like images with compressed gradient
//! exchange, demonstrating that the sketch mechanism applies beyond linear
//! models — with the §4.6 caveat that dense gradients blunt key
//! compression.
//!
//! Run with: `cargo run --release --example mlp_mnist_like`

use sketchml::cluster::mlp_trainer::{train_mlp_distributed, MlpTrainSpec};
use sketchml::ml::MlpConfig;
use sketchml::{
    AdamConfig, ClusterConfig, GradientCompressor, MnistLikeSpec, RawCompressor, SketchMlCompressor,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data = MnistLikeSpec {
        side: 10,
        classes: 10,
        instances: 2_000,
        noise: 0.4,
        seed: 99,
    };
    let (train, test) = data.generate_split();
    let net = MlpConfig {
        layer_sizes: vec![data.pixels(), 48, 10],
        seed: 3,
    };
    println!(
        "MLP {}-48-10 ({} params) on {} synthetic images",
        data.pixels(),
        48 * data.pixels() + 48 + 48 * 10 + 10,
        data.instances
    );
    let spec = MlpTrainSpec {
        adam: AdamConfig::with_lr(0.01),
        opt_state: Default::default(),
        epochs: 6,
        seed: 5,
    };
    let cluster = ClusterConfig::cluster1(4).with_batch_ratio(0.05);

    for compressor in [
        &SketchMlCompressor::default() as &dyn GradientCompressor,
        &RawCompressor::default(),
    ] {
        let report = train_mlp_distributed(&train, &test, &net, &spec, &cluster, compressor)?;
        println!("\n== {} ==", report.method);
        for e in &report.epochs {
            println!(
                "  epoch {:>2}: {:>7.3} sim s, {:>8} uplink bytes, test loss {:.4}",
                e.epoch, e.sim_seconds, e.uplink_bytes, e.test_loss
            );
        }
        if let Some(accuracy) = report.accuracy {
            println!("  final accuracy: {:.1}%", accuracy * 100.0);
        }
    }
    println!(
        "\nDense MLP gradients still benefit from value compression, but the \
         gap vs raw is smaller than for sparse GLMs (§4.6 / Appendix B.3)."
    );
    Ok(())
}
