//! Codec fidelity on the gradients the system ships: where `sketchml`'s
//! error lives, by gradient magnitude, and what each byte of the frame buys.
//!
//! The gradients are the benchmark's `codec_roundtrip` traffic, regenerated
//! in-tree with the same recipe: d = 2^20, 100 000 instances (avg-nnz 64,
//! skew 1.1, label noise 0.05, dataset seed `seed ^ 0xDA7A`), logistic
//! regression under `TrainSpec::paper(Logistic, 0.05, …)`, batch ratio 0.05,
//! two workers, trained through `sketchml`; the first 16 worker-slice
//! gradients are kept. At seed 7 the overall rel-L2 of (i) below is the
//! benchmark's `codec_roundtrip` `test_error`.
//!
//! The codec ships the ⌊n/64⌋ pairs of largest |v| of an n-pair gradient
//! exact and sketches the rest in one MinMaxSketch row of d/5 columns.
//! Every pair of the 16 gradients is ranked by |v| and the error is
//! reported overall, per |v| decile and for the top 1 %, each band with its
//! share of ‖g‖² and of the squared error, for
//!
//! - (i₀) the paper's pipeline alone: no exact pairs, 2 rows × d/5 (§4.1),
//! - (i) the codec as shipped, and
//! - (ii) per-sign quantization alone: the exact pairs as they are, every
//!   other value replaced by its exact bucket's mean (`quantify::quantize`
//!   over the sketched pairs at the codec's buckets per sign, sketch
//!   capacity and cap divisor).
//!
//! The gap between (i) and (ii) is the MinMaxSketch's index decay (§3.3);
//! (ii) is what the equi-depth buckets cost on their own (§3.2). A second
//! table prices the frame's bytes: a grid of sketch shapes (rows × column
//! ratio) and exact-pair rules, each cell encoded through
//! `SketchMlCompressor::compress_exact_into` under a config that differs
//! from the default in `rows` and `col_ratio` only. It holds the frame
//! before this rule (2 × 0.2, ⌊n/512⌋), the shipped cell (1 × 0.2, ⌊n/64⌋)
//! and the rule ladder at the shipped shape (k = 0, ⌊n/128⌋, ⌊n/64⌋,
//! ⌊n/32⌋).
//!
//! Aborts unless, in every cell, keys survive, every exact pair decodes to
//! its value bit for bit, and every other value decodes to its exact
//! bucket's mean from (ii) or one closer to zero on the same side: the
//! sketch can only decay an index, never amplify one (§3.3). Aborts too
//! unless the shipped cell is `compress`'s frame byte for byte and has lower
//! rel-L2 than the frame before it on no more bytes per pair.
//!
//! `--quick` runs one seed at the benchmark's smoke size (CI smoke).

use serde::Serialize;
use sketchml_bench::output::{print_table, write_json, ExperimentOutput};
use sketchml_cluster::worker::partition;
use sketchml_cluster::TrainSpec;
use sketchml_core::quantify::quantize;
use sketchml_core::{
    CompressScratch, GradientCompressor, SketchMlCompressor, SketchMlConfig, SparseGradient,
};
use sketchml_data::{Batcher, SparseDatasetSpec, Task};
use sketchml_ml::{GlmLoss, GlmModel, OptimizerState};

/// The grid, one cell a line: MinMaxSketch rows, total columns as a
/// fraction of the pairs, and pairs per exact pair (`None`: no exact
/// pairs). The [`BEFORE`] cell is the frame before the ⌊n/64⌋ rule, the
/// [`SHIPPED`] cell is `compress`'s and the [`PAPER`] cell is (i₀).
const GRID: [(usize, f64, Option<usize>); 12] = [
    (2, 0.2, Some(512)),
    (1, 0.4, Some(512)),
    (2, 0.2, Some(64)),
    (1, 0.4, Some(64)),
    (1, 0.2, Some(64)),
    (1, 0.2, Some(128)),
    (1, 0.1, Some(64)),
    (1, 0.1, Some(32)),
    (1, 0.05, Some(32)),
    (1, 0.2, None),
    (1, 0.2, Some(32)),
    (2, 0.2, None),
];
const BEFORE: usize = 0;
const SHIPPED: usize = 4;
const PAPER: usize = 11;

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
    /// (i₀) the paper's pipeline alone.
    sketch_only_rel_l2: f64,
    /// (i) the codec as shipped.
    codec_rel_l2: f64,
    codec_err_share: f64,
    /// (ii) per-sign quantization alone.
    quant_rel_l2: f64,
    quant_err_share: f64,
}

/// One cell of the grid over the whole harvest.
#[derive(Serialize)]
struct Cell {
    rows: usize,
    col_ratio: f64,
    rule: String,
    exact_pairs: usize,
    bytes_per_pair: f64,
    rel_l2: f64,
    top1_rel_l2: f64,
}

#[derive(Serialize)]
struct SeedReport {
    seed: u64,
    pairs: usize,
    bytes_per_pair: f64,
    codec_rel_l2: f64,
    quant_rel_l2: f64,
    bands: Vec<Band>,
    grid: Vec<Cell>,
}

/// One pair of the harvest: its value and its reconstructions, the codec's
/// per cell of [`GRID`].
struct Pair {
    v: f64,
    codec: [f64; GRID.len()],
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

/// Which pairs a rung ships exact: the `k` largest |v|, ties to the smaller
/// key, as the codec picks them.
fn exact_mask(grad: &SparseGradient, k: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..grad.nnz()).collect();
    let v = grad.values();
    order.sort_by(|&a, &b| v[b].abs().total_cmp(&v[a].abs()).then(a.cmp(&b)));
    let mut mask = vec![false; grad.nnz()];
    for &i in &order[..k] {
        mask[i] = true;
    }
    mask
}

/// The exact pairs as they are and every other value replaced by the mean
/// of its exact bucket, the sketched pairs' sides quantized apart as the
/// codec does (anything not `< 0.0` is positive).
fn quantized(grad: &SparseGradient, exact: &[bool], c: &SketchMlConfig) -> Vec<f64> {
    let mut out = grad.values().to_vec();
    for negative in [false, true] {
        let (at, values): (Vec<usize>, Vec<f64>) = grad
            .values()
            .iter()
            .enumerate()
            .filter(|&(i, v)| !exact[i] && (*v < 0.0) == negative)
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

/// Squared norm of `pairs` and the squared error of `recon`.
fn sums(pairs: &[Pair], recon: impl Fn(&Pair) -> f64) -> (f64, f64) {
    pairs.iter().fold((0.0, 0.0), |(n, e), p| {
        let d = p.v - recon(p);
        (n + p.v * p.v, e + d * d)
    })
}

fn rule_name(rule: Option<usize>) -> String {
    match rule {
        None => "k = 0".into(),
        Some(share) => format!("⌊n/{share}⌋"),
    }
}

fn measure(spec: &SparseDatasetSpec, seed: u64) -> SeedReport {
    let codec = SketchMlCompressor::default();
    let codecs: Vec<SketchMlCompressor> = GRID
        .iter()
        .map(|&(rows, col_ratio, _)| {
            SketchMlCompressor::new(SketchMlConfig {
                rows,
                col_ratio,
                ..codec.config
            })
            .expect("grid config")
        })
        .collect();
    let grads = harvest(spec, seed, &codec);
    let mut pairs = Vec::new();
    let (mut bytes, mut exact_pairs) = ([0usize; GRID.len()], [0usize; GRID.len()]);
    let mut scratch = CompressScratch::new();
    let mut wire = Default::default(); // the codec's `BytesMut`
    for grad in &grads {
        let first = pairs.len();
        for (r, (cell, &(rows, col_ratio, rule))) in codecs.iter().zip(&GRID).enumerate() {
            let k = rule.map_or(0, |share| grad.nnz() / share);
            cell.compress_exact_into(grad, k, &mut scratch, &mut wire)
                .expect("compress");
            if r == SHIPPED {
                let shipped = codec.compress(grad).expect("compress").payload;
                assert_eq!(
                    &shipped[..],
                    &wire[..],
                    "seed {seed}: the codec's rule moved"
                );
            }
            bytes[r] += wire.len();
            exact_pairs[r] += k;
            let decoded = codec.decompress(&wire).expect("decompress");
            assert_eq!(decoded.keys(), grad.keys(), "seed {seed}: keys changed");
            let exact = exact_mask(grad, k);
            let quant = quantized(grad, &exact, &codec.config);
            for (i, (&v, &d)) in grad.values().iter().zip(decoded.values()).enumerate() {
                let q = quant[i];
                if exact[i] {
                    assert_eq!(
                        d.to_bits(),
                        v.to_bits(),
                        "seed {seed}: exact {v} decoded as {d}"
                    );
                } else {
                    assert!(
                        (d == 0.0 || d.signum() == v.signum()) && d.abs() <= q.abs(),
                        "seed {seed}, {rows} × {col_ratio}, {}: {v} decoded as {d}, its exact bucket's mean is {q}",
                        rule_name(rule)
                    );
                }
                if r == 0 {
                    pairs.push(Pair {
                        v,
                        codec: [0.0; GRID.len()],
                        quant: 0.0,
                    });
                }
                let pair = &mut pairs[first + i];
                pair.codec[r] = d;
                if r == SHIPPED {
                    pair.quant = q;
                }
            }
        }
    }
    pairs.sort_by(|a, b| a.v.abs().total_cmp(&b.v.abs()));
    let n = pairs.len();
    let shipped = |p: &Pair| p.codec[SHIPPED];
    let (norm, codec_err) = sums(&pairs, shipped);
    let (_, quant_err) = sums(&pairs, |p| p.quant);
    let band = |name: String, slice: &[Pair]| {
        let (bn, bc) = sums(slice, shipped);
        let (_, b0) = sums(slice, |p| p.codec[PAPER]);
        let (_, bq) = sums(slice, |p| p.quant);
        Band {
            band: name,
            pairs: slice.len(),
            norm_share: bn / norm,
            sketch_only_rel_l2: (b0 / bn).sqrt(),
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
    let top1 = &pairs[n * 99 / 100..];
    bands.push(band("top 1%".into(), top1));
    let grid: Vec<Cell> = GRID
        .iter()
        .enumerate()
        .map(|(r, &(rows, col_ratio, rule))| {
            let (all_n, all_e) = sums(&pairs, |p| p.codec[r]);
            let (top_n, top_e) = sums(top1, |p| p.codec[r]);
            Cell {
                rows,
                col_ratio,
                rule: rule_name(rule),
                exact_pairs: exact_pairs[r],
                bytes_per_pair: bytes[r] as f64 / n as f64,
                rel_l2: (all_e / all_n).sqrt(),
                top1_rel_l2: (top_e / top_n).sqrt(),
            }
        })
        .collect();
    let (before, now) = (&grid[BEFORE], &grid[SHIPPED]);
    assert!(
        now.rel_l2 < before.rel_l2 && now.bytes_per_pair <= before.bytes_per_pair,
        "seed {seed}: the shipped cell ({:.4} rel-L2, {:.4} B/pair) does not beat the frame before it ({:.4}, {:.4})",
        now.rel_l2,
        now.bytes_per_pair,
        before.rel_l2,
        before.bytes_per_pair
    );
    SeedReport {
        seed,
        pairs: n,
        bytes_per_pair: bytes[SHIPPED] as f64 / n as f64,
        codec_rel_l2: (codec_err / norm).sqrt(),
        quant_rel_l2: (quant_err / norm).sqrt(),
        bands,
        grid,
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
                    format!("{:.4}", b.sketch_only_rel_l2),
                    format!("{:.4}", b.codec_rel_l2),
                    pct(b.codec_err_share),
                    format!("{:.4}", b.quant_rel_l2),
                    pct(b.quant_err_share),
                ]
            })
            .collect();
        print_table(
            &format!(
                "seed {seed}: {} pairs, {:.3} B/pair — (i₀) paper's pipeline, (i) codec, (ii) quantization alone",
                r.pairs, r.bytes_per_pair
            ),
            &[
                "|v| band",
                "pairs",
                "% ‖g‖²",
                "(i₀) rel-L2",
                "(i) rel-L2",
                "(i) % err²",
                "(ii) rel-L2",
                "(ii) % err²",
            ],
            &rows,
        );
        let rows: Vec<Vec<String>> = r
            .grid
            .iter()
            .enumerate()
            .map(|(c, g)| {
                let mark = match c {
                    BEFORE => " (before)",
                    SHIPPED => " (shipped)",
                    _ => "",
                };
                vec![
                    format!("{} × {}{mark}", g.rows, g.col_ratio),
                    g.rule.clone(),
                    g.exact_pairs.to_string(),
                    format!("{:.4}", g.bytes_per_pair),
                    format!("{:.4}", g.rel_l2),
                    format!("{:.4}", g.top1_rel_l2),
                ]
            })
            .collect();
        print_table(
            &format!("seed {seed}: sketch shape × exact-pair rule (1 × 0.2, ⌊n/64⌋ ships)"),
            &[
                "rows × col_ratio",
                "k exact",
                "exact pairs",
                "B/pair",
                "rel-L2",
                "top 1% rel-L2",
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
