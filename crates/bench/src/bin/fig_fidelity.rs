//! Codec fidelity on the gradients the system ships: where `sketchml`'s
//! error lives, by gradient magnitude.
//!
//! The gradients are the benchmark's `codec_roundtrip` traffic, regenerated
//! in-tree with the same recipe: d = 2^20, 100 000 instances (avg-nnz 64,
//! skew 1.1, label noise 0.05, dataset seed `seed ^ 0xDA7A`), logistic
//! regression under `TrainSpec::paper(Logistic, 0.05, …)`, batch ratio 0.05,
//! two workers, trained through `sketchml`; the first 16 worker-slice
//! gradients are kept. At seed 7 the overall rel-L2 of (i) below is the
//! benchmark's `codec_roundtrip` `test_error`.
//!
//! Every pair of the 16 gradients is ranked by |v| and the error is reported
//! overall, per |v| decile and for the top 1 %, each band with its share of
//! ‖g‖² and of the squared error, for
//!
//! - (i) the full codec (compress, decompress), and
//! - (ii) per-sign quantization alone: `quantify::quantize` at the codec's
//!   buckets per sign, sketch capacity and cap divisor, every value replaced
//!   by its exact bucket's mean.
//!
//! The gap between (i) and (ii) is the MinMaxSketch's index decay (§3.3);
//! (ii) is what the equi-depth buckets cost on their own (§3.2).
//!
//! Aborts unless keys survive and every value (i) decodes is its exact
//! bucket's mean from (ii) or one closer to zero on the same side: the
//! sketch can only decay an index, never amplify one (§3.3).
//!
//! `--quick` runs one seed at the benchmark's smoke size (CI smoke).

use serde::Serialize;
use sketchml_bench::output::{print_table, write_json, ExperimentOutput};
use sketchml_cluster::worker::partition;
use sketchml_cluster::TrainSpec;
use sketchml_core::quantify::quantize;
use sketchml_core::{GradientCompressor, SketchMlCompressor, SketchMlConfig, SparseGradient};
use sketchml_data::{Batcher, SparseDatasetSpec, Task};
use sketchml_ml::{GlmLoss, GlmModel, OptimizerState};

/// Worker gradients a harvest keeps: 8 rounds of the 2-worker task.
const HARVEST: usize = 16;
const WORKERS: usize = 2;
const BATCH_RATIO: f64 = 0.05;

#[derive(Serialize)]
struct Band {
    band: String,
    pairs: usize,
    /// This band's share of ‖g‖².
    norm_share: f64,
    /// (i) the full codec.
    codec_rel_l2: f64,
    codec_err_share: f64,
    /// (ii) per-sign quantization alone.
    quant_rel_l2: f64,
    quant_err_share: f64,
}

#[derive(Serialize)]
struct SeedReport {
    seed: u64,
    pairs: usize,
    bytes_per_pair: f64,
    codec_rel_l2: f64,
    quant_rel_l2: f64,
    bands: Vec<Band>,
}

/// One pair of the harvest: its value and the two reconstructions.
struct Pair {
    v: f64,
    codec: f64,
    quant: f64,
}

/// The benchmark's dataset recipe at `instances` × `features`.
fn dataset(instances: usize, features: u32, seed: u64) -> SparseDatasetSpec {
    SparseDatasetSpec {
        name: "serve".into(),
        instances,
        features,
        avg_nnz: 64,
        skew: 1.1,
        label_noise: 0.05,
        task: Task::Classification,
        seed: seed ^ 0xDA7A,
    }
}

/// Trains the task through `codec` until [`HARVEST`] worker-slice gradients
/// have been computed, and returns them as the workers would send them.
fn harvest(spec: &SparseDatasetSpec, seed: u64, codec: &SketchMlCompressor) -> Vec<SparseGradient> {
    let (train, _test) = spec.generate_split();
    let mut tspec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
    tspec.seed = seed;
    let dim = spec.features as usize;
    let mut model = GlmModel::new(dim, tspec.loss, tspec.l2).expect("model");
    let mut opt = OptimizerState::build(tspec.optimizer, tspec.opt_state, dim).expect("optimizer");
    let mut batcher = Batcher::new(train.len(), BATCH_RATIO, tspec.seed);
    let mut grads = Vec::with_capacity(HARVEST);
    loop {
        for batch in batcher.epoch() {
            let mut parts = Vec::with_capacity(WORKERS);
            for part in partition(&batch, WORKERS) {
                let g = model.batch_gradient(&Batcher::gather(&train, &part));
                let grad = SparseGradient::new(dim as u64, g.keys, g.values).expect("gradient");
                grads.push(grad.clone());
                if grads.len() == HARVEST {
                    return grads;
                }
                let payload = codec.compress(&grad).expect("compress").payload;
                let mut arrived = codec.decompress(&payload).expect("decompress");
                arrived.scale(part.len() as f64 / batch.len() as f64);
                parts.push(arrived);
            }
            let agg = SparseGradient::aggregate(&parts).expect("aggregate");
            model.apply_gradient(&mut opt, agg.keys(), agg.values());
        }
    }
}

/// Every value replaced by the mean of its exact bucket, sides quantized
/// apart as the codec does (anything not `< 0.0` is positive).
fn quantized(grad: &SparseGradient, c: &SketchMlConfig) -> Vec<f64> {
    let mut out = vec![0.0; grad.nnz()];
    for negative in [false, true] {
        let (at, values): (Vec<usize>, Vec<f64>) = grad
            .values()
            .iter()
            .enumerate()
            .filter(|(_, v)| (**v < 0.0) == negative)
            .map(|(i, &v)| (i, v))
            .unzip();
        if values.is_empty() {
            continue;
        }
        let quant = quantize(
            &values,
            c.buckets_per_sign,
            c.quantile_sketch_capacity,
            c.bucket_cap_divisor,
        )
        .expect("non-empty side quantizes");
        for (&i, &b) in at.iter().zip(&quant.indexes) {
            out[i] = quant.means[b as usize];
        }
    }
    out
}

/// Squared norm, codec squared error and quantization squared error of `pairs`.
fn sums(pairs: &[Pair]) -> (f64, f64, f64) {
    pairs.iter().fold((0.0, 0.0, 0.0), |(n, c, q), p| {
        (
            n + p.v * p.v,
            c + (p.v - p.codec) * (p.v - p.codec),
            q + (p.v - p.quant) * (p.v - p.quant),
        )
    })
}

fn measure(spec: &SparseDatasetSpec, seed: u64) -> SeedReport {
    let codec = SketchMlCompressor::default();
    let grads = harvest(spec, seed, &codec);
    let mut pairs = Vec::new();
    let mut bytes = 0usize;
    for grad in &grads {
        let payload = codec.compress(grad).expect("compress").payload;
        bytes += payload.len();
        let decoded = codec.decompress(&payload).expect("decompress");
        assert_eq!(decoded.keys(), grad.keys(), "seed {seed}: keys changed");
        let quant = quantized(grad, &codec.config);
        for ((&v, &d), &q) in grad.values().iter().zip(decoded.values()).zip(&quant) {
            assert!(
                (d == 0.0 || d.signum() == v.signum()) && d.abs() <= q.abs(),
                "seed {seed}: {v} decoded as {d}, its exact bucket's mean is {q}"
            );
            pairs.push(Pair {
                v,
                codec: d,
                quant: q,
            });
        }
    }
    pairs.sort_by(|a, b| a.v.abs().total_cmp(&b.v.abs()));
    let n = pairs.len();
    let (norm, codec_err, quant_err) = sums(&pairs);
    let band = |name: String, slice: &[Pair]| {
        let (bn, bc, bq) = sums(slice);
        Band {
            band: name,
            pairs: slice.len(),
            norm_share: bn / norm,
            codec_rel_l2: (bc / bn).sqrt(),
            codec_err_share: bc / codec_err,
            quant_rel_l2: (bq / bn).sqrt(),
            quant_err_share: bq / quant_err,
        }
    };
    let mut bands = vec![band("all".into(), &pairs)];
    for d in 0..10 {
        bands.push(band(
            format!("d{}", d + 1),
            &pairs[d * n / 10..(d + 1) * n / 10],
        ));
    }
    bands.push(band("top 1%".into(), &pairs[n * 99 / 100..]));
    SeedReport {
        seed,
        pairs: n,
        bytes_per_pair: bytes as f64 / n as f64,
        codec_rel_l2: (codec_err / norm).sqrt(),
        quant_rel_l2: (quant_err / norm).sqrt(),
        bands,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (instances, features, seeds): (usize, u32, &[u64]) = if quick {
        (4_000, 1 << 14, &[7])
    } else {
        (100_000, 1 << 20, &[7, 8, 9])
    };
    let mut reports = Vec::new();
    for &seed in seeds {
        let r = measure(&dataset(instances, features, seed), seed);
        let pct = |x: f64| format!("{:.1}", 100.0 * x);
        let rows: Vec<Vec<String>> = r
            .bands
            .iter()
            .map(|b| {
                vec![
                    b.band.clone(),
                    b.pairs.to_string(),
                    pct(b.norm_share),
                    format!("{:.4}", b.codec_rel_l2),
                    pct(b.codec_err_share),
                    format!("{:.4}", b.quant_rel_l2),
                    pct(b.quant_err_share),
                ]
            })
            .collect();
        print_table(
            &format!(
                "seed {seed}: {} pairs, {:.3} B/pair — (i) codec vs (ii) quantization alone",
                r.pairs, r.bytes_per_pair
            ),
            &[
                "|v| band",
                "pairs",
                "% ‖g‖²",
                "(i) rel-L2",
                "(i) % err²",
                "(ii) rel-L2",
                "(ii) % err²",
            ],
            &rows,
        );
        reports.push(r);
    }
    write_json(&ExperimentOutput {
        id: "fig_fidelity".into(),
        paper_ref: "§3.2–§3.3 error attribution on the benchmark's codec_roundtrip gradients"
            .into(),
        results: reports,
    });
}
