//! Implementing your own `GradientCompressor`: a Top-K + SketchML hybrid.
//!
//! The trait is the library's extension point — anything that can turn a
//! `SparseGradient` into self-describing bytes plugs into the round engine
//! (GLM or MLP) and error feedback. An implementor writes
//! `name`, `compress_into` and `decompress_into`; the owning `compress` /
//! `decompress` conveniences are provided on top. This example builds
//! a hybrid: keep the top `K%` of pairs by magnitude (they carry most of
//! the L2 mass) and run *only those* through SketchML — smaller messages
//! than either technique alone, at a quality cost error feedback can repay.
//!
//! Run with: `cargo run --release --example custom_compressor`

use bytes::BytesMut;
use sketchml::core::{roundtrip_error, CompressScratch};
use sketchml::encoding::stats::SizeReport;
use sketchml::{
    CompressError, ErrorFeedback, GradientCompressor, SketchMlCompressor, SparseGradient,
};

/// Top-K selection followed by SketchML compression of the survivors.
struct TopKSketchMl {
    keep_ratio: f64,
    inner: SketchMlCompressor,
}

impl TopKSketchMl {
    fn new(keep_ratio: f64) -> Self {
        TopKSketchMl {
            keep_ratio,
            inner: SketchMlCompressor::default(),
        }
    }
}

impl GradientCompressor for TopKSketchMl {
    fn name(&self) -> &'static str {
        "TopK+SketchML"
    }

    // The two required methods; `compress` / `decompress` come for free as
    // wrappers that run these on a fresh scratch.
    fn compress_into(
        &self,
        grad: &SparseGradient,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        let keep = ((grad.nnz() as f64 * self.keep_ratio).ceil() as usize).max(1);
        let mut mags: Vec<f64> = grad.values().iter().map(|v| v.abs()).collect();
        mags.sort_by(f64::total_cmp);
        let threshold = mags[mags.len().saturating_sub(keep)];
        let mut keys = Vec::with_capacity(keep);
        let mut values = Vec::with_capacity(keep);
        for (k, v) in grad.iter() {
            if v.abs() >= threshold && keys.len() < keep {
                keys.push(k);
                values.push(v);
            }
        }
        let survivors = SparseGradient::new(grad.dim(), keys, values)?;
        // The inner codec's scratch is the caller's: pass it straight down.
        self.inner.compress_into(&survivors, scratch, out)
    }

    fn decompress_into(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
        out: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        self.inner.decompress_into(payload, scratch, out)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let mut cur = 0u64;
    let keys: Vec<u64> = (0..40_000)
        .map(|_| {
            cur += rng.gen_range(1..120);
            cur
        })
        .collect();
    let values: Vec<f64> = keys
        .iter()
        .map(|_| {
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            sign * rng.gen::<f64>().powi(6) * 0.35 + 1e-12
        })
        .collect();
    let grad = SparseGradient::new(8_000_000, keys, values)?;

    println!(
        "{:<26} {:>9} {:>8} {:>12} {:>10}",
        "compressor", "bytes", "rate", "rel l2 err", "pairs out"
    );
    let plain = SketchMlCompressor::default();
    let hybrid = TopKSketchMl::new(0.25);
    let hybrid_ef = ErrorFeedback::new(TopKSketchMl::new(0.25));
    for c in [&plain as &dyn GradientCompressor, &hybrid, &hybrid_ef] {
        let stats = roundtrip_error(c, &grad)?;
        println!(
            "{:<26} {:>9} {:>7.2}x {:>12.4} {:>10}",
            c.name(),
            stats.compressed_bytes,
            (12 * grad.nnz()) as f64 / stats.compressed_bytes as f64,
            stats.squared_error.sqrt() / grad.l2_norm(),
            stats.pairs_out
        );
    }
    println!(
        "\nTop-K keeps the heavy hitters (most of the L2 mass), SketchML \
         shrinks what remains, and ErrorFeedback re-sends the dropped tail \
         over later rounds — all through one trait."
    );
    Ok(())
}
