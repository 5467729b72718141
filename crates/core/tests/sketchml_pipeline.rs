//! Integration tests of the full SketchML pipeline (paper §3, Figure 2):
//! encode → wire bytes → decode, checking every correctness property the
//! paper claims.

use bytes::BytesMut;
use rand::prelude::*;
use rand::rngs::StdRng;
use sketchml_core::{
    roundtrip_error, CompressScratch, CountSketchCompressor, CountSketchConfig, FastSgdCompressor,
    GradientCompressor, KeyCompressor, QuantCompressor, ShardedCompressor, SketchMlCompressor,
    SketchMlConfig, SparseGradient,
};

/// A gradient shaped like Figure 4: sparse keys over a large model, values
/// concentrated near zero with both signs.
fn paperlike_gradient(nnz: usize, dim: u64, seed: u64) -> SparseGradient {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys: Vec<u64> = Vec::with_capacity(nnz * 2);
    while keys.len() < nnz * 2 {
        keys.push(rng.gen_range(0..dim));
    }
    keys.sort_unstable();
    keys.dedup();
    keys.truncate(nnz);
    let values: Vec<f64> = keys
        .iter()
        .map(|_| {
            let sign = if rng.gen_bool(0.45) { -1.0 } else { 1.0 };
            sign * rng.gen::<f64>().powi(6) * 0.35 + 1e-9
        })
        .collect();
    SparseGradient::new(dim, keys, values).unwrap()
}

#[test]
fn keys_are_lossless() {
    let grad = paperlike_gradient(5_000, 1_000_000, 1);
    let c = SketchMlCompressor::default();
    let msg = c.compress(&grad).unwrap();
    let decoded = c.decompress(&msg.payload).unwrap();
    assert_eq!(
        decoded.keys(),
        grad.keys(),
        "§3.4: keys must decode exactly"
    );
    assert_eq!(decoded.dim(), grad.dim());
    assert_eq!(decoded.nnz(), grad.nnz());
}

#[test]
fn no_sign_reversal_and_no_magnitude_amplification_beyond_bucket() {
    // §3.3 Solution 1: the decoded value must have the original's sign;
    // the min/max protocol may only *decay* the index, so the decoded
    // magnitude is at most the original bucket's mean magnitude, which is
    // bounded by the side's maximum |value|.
    let grad = paperlike_gradient(8_000, 500_000, 2);
    let c = SketchMlCompressor::default();
    let decoded = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
    let max_mag = grad.values().iter().fold(0f64, |acc, v| acc.max(v.abs()));
    for ((_, orig), (_, dec)) in grad.iter().zip(decoded.iter()) {
        assert!(
            orig.signum() == dec.signum() || dec == 0.0,
            "sign reversed: {orig} -> {dec}"
        );
        assert!(
            dec.abs() <= max_mag + 1e-12,
            "decoded magnitude {dec} exceeds max original {max_mag}"
        );
    }
}

#[test]
fn decoded_magnitude_is_underestimated_relative_to_bucket_mean() {
    // The MinMaxSketch can only decrease the normalized index, so the
    // decoded |value| never exceeds the mean of the *true* bucket by more
    // than the quantization step. We check the aggregate: mean decoded
    // magnitude <= mean original magnitude + small quantization slack.
    let grad = paperlike_gradient(10_000, 500_000, 3);
    let c = SketchMlCompressor::default();
    let decoded = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
    let mean_in: f64 = grad.values().iter().map(|v| v.abs()).sum::<f64>() / grad.nnz() as f64;
    let mean_out: f64 =
        decoded.values().iter().map(|v| v.abs()).sum::<f64>() / decoded.nnz() as f64;
    assert!(
        mean_out <= mean_in * 1.1,
        "vanishing-gradient direction violated: out {mean_out} vs in {mean_in}"
    );
}

#[test]
fn compression_rate_matches_paper_ballpark() {
    // Figure 8(b): SketchML compresses LR gradients ~7x vs raw 12d.
    let grad = paperlike_gradient(30_000, 2_000_000, 4);
    let c = SketchMlCompressor::default();
    let msg = c.compress(&grad).unwrap();
    let rate = msg.report.compression_rate();
    assert!(
        rate > 4.0,
        "compression rate {rate} below the paper's 5.4-7.2x band"
    );
    assert!(
        rate < 20.0,
        "rate {rate} suspiciously high — check accounting"
    );
}

#[test]
fn bytes_per_key_near_paper_figure() {
    // Figure 8(d): ~1.25-1.27 bytes per key for sparse gradients.
    let grad = paperlike_gradient(50_000, 2_000_000, 5);
    let c = SketchMlCompressor::default();
    let msg = c.compress(&grad).unwrap();
    let bpk = msg.report.bytes_per_key();
    assert!(
        (1.0..=2.0).contains(&bpk),
        "bytes/key {bpk} outside the paper's ~1.27 regime"
    );
}

#[test]
fn roundtrip_error_is_bounded_and_small() {
    let grad = paperlike_gradient(10_000, 1_000_000, 6);
    let c = SketchMlCompressor::default();
    let stats = roundtrip_error(&c, &grad).unwrap();
    assert_eq!(stats.sign_flips, 0, "§3.3: no reversed gradients");
    assert_eq!(stats.pairs_in, stats.pairs_out);
    // Relative L2 error should be < 1 (decayed, not destroyed).
    let rel = stats.squared_error.sqrt() / grad.l2_norm();
    assert!(rel < 1.0, "relative decode error {rel}");
}

#[test]
fn all_positive_and_all_negative_gradients() {
    let mut rng = StdRng::seed_from_u64(7);
    for sign in [1.0f64, -1.0] {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 17).collect();
        let values: Vec<f64> = keys
            .iter()
            .map(|_| sign * rng.gen::<f64>().max(1e-6))
            .collect();
        let grad = SparseGradient::new(100_000, keys, values).unwrap();
        let c = SketchMlCompressor::default();
        let decoded = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
        assert_eq!(decoded.keys(), grad.keys());
        for (_, v) in decoded.iter() {
            assert_eq!(v.signum(), sign, "one-sided gradient must keep its sign");
        }
    }
}

#[test]
fn tiny_gradients() {
    let c = SketchMlCompressor::default();
    for n in [1usize, 2, 3, 7] {
        let keys: Vec<u64> = (0..n as u64).map(|i| i * 1000 + 5).collect();
        let values: Vec<f64> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    0.1 * (i + 1) as f64
                } else {
                    -0.05 * i as f64
                }
            })
            .collect();
        let grad = SparseGradient::new(100_000, keys, values).unwrap();
        let decoded = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
        assert_eq!(decoded.keys(), grad.keys(), "n={n}");
    }
}

#[test]
fn empty_gradient() {
    let c = SketchMlCompressor::default();
    let msg = c.compress(&SparseGradient::empty(123)).unwrap();
    let decoded = c.decompress(&msg.payload).unwrap();
    assert!(decoded.is_empty());
    assert_eq!(decoded.dim(), 123);
}

#[test]
fn deterministic_given_seed() {
    let grad = paperlike_gradient(2_000, 100_000, 8);
    let c = SketchMlCompressor::default();
    let a = c.compress(&grad).unwrap();
    let b = c.compress(&grad).unwrap();
    assert_eq!(a.payload, b.payload, "compression must be deterministic");
}

#[test]
fn config_validation() {
    let bad = |f: fn(&mut SketchMlConfig)| {
        let mut cfg = SketchMlConfig::default();
        f(&mut cfg);
        SketchMlCompressor::new(cfg)
    };
    assert!(bad(|c| c.quantile_sketch_capacity = 1).is_err());
    assert!(bad(|c| c.buckets_per_sign = 0).is_err());
    assert!(bad(|c| c.buckets_per_sign = u16::MAX).is_err());
    assert!(bad(|c| c.rows = 0).is_err());
    assert!(bad(|c| c.col_ratio = 0.0).is_err());
    assert!(bad(|c| c.col_ratio = -1.0).is_err());
    assert!(bad(|c| c.min_cols_per_group = 0).is_err());
    assert!(bad(|c| c.groups = 0).is_err());
    assert!(SketchMlCompressor::new(SketchMlConfig::default()).is_ok());
}

#[test]
fn corrupt_and_truncated_messages_error_not_panic() {
    let grad = paperlike_gradient(300, 50_000, 9);
    let c = SketchMlCompressor::default();
    let msg = c.compress(&grad).unwrap();
    assert!(c.decompress(&[]).is_err());
    assert!(c.decompress(&[0x00; 16]).is_err());
    for cut in 0..msg.payload.len() {
        let _ = c.decompress(&msg.payload[..cut]);
    }
    // Bit flips in the body must never panic (may or may not error).
    let mut flipped = msg.payload.to_vec();
    for i in (0..flipped.len()).step_by(7) {
        flipped[i] ^= 0xFF;
        let _ = c.decompress(&flipped);
        flipped[i] ^= 0xFF;
    }
}

#[test]
fn grouping_improves_decode_accuracy() {
    // §3.3 Solution 2: with undersized sketches, r=8 must beat r=1.
    let grad = paperlike_gradient(20_000, 1_000_000, 10);
    let err_for = |groups: usize| {
        let cfg = SketchMlConfig {
            groups,
            col_ratio: 0.05, // deliberately tight to force collisions
            ..SketchMlConfig::default()
        };
        let c = SketchMlCompressor::new(cfg).unwrap();
        roundtrip_error(&c, &grad).unwrap().squared_error
    };
    let e1 = err_for(1);
    let e8 = err_for(8);
    assert!(
        e8 < e1,
        "grouping should reduce decode error: r=8 {e8} !< r=1 {e1}"
    );
}

#[test]
fn wider_sketch_improves_decode_accuracy() {
    // §B.2 "Column of MinMaxSketch": d/2 columns beat d/5.
    let grad = paperlike_gradient(20_000, 1_000_000, 11);
    let err_for = |ratio: f64| {
        let cfg = SketchMlConfig {
            col_ratio: ratio,
            ..SketchMlConfig::default()
        };
        let c = SketchMlCompressor::new(cfg).unwrap();
        roundtrip_error(&c, &grad).unwrap().squared_error
    };
    let narrow = err_for(0.05);
    let wide = err_for(0.5);
    assert!(
        wide < narrow,
        "more columns should reduce error: {wide} !< {narrow}"
    );
}

#[test]
fn more_buckets_improve_value_fidelity() {
    let grad = paperlike_gradient(10_000, 500_000, 12);
    let err_for = |q: u16| {
        let cfg = SketchMlConfig {
            buckets_per_sign: q,
            col_ratio: 1.0, // wide sketch isolates quantization error
            ..SketchMlConfig::default()
        };
        let c = SketchMlCompressor::new(cfg).unwrap();
        roundtrip_error(&c, &grad).unwrap().squared_error
    };
    let coarse = err_for(16);
    let fine = err_for(256);
    assert!(fine < coarse, "q=256 {fine} !< q=16 {coarse}");
}

#[test]
fn duplicate_values_compress_fine() {
    let keys: Vec<u64> = (0..500u64).map(|i| i * 3).collect();
    let values = vec![0.25f64; 500];
    let grad = SparseGradient::new(10_000, keys, values).unwrap();
    let c = SketchMlCompressor::default();
    let decoded = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
    assert_eq!(decoded.keys(), grad.keys());
    for (_, v) in decoded.iter() {
        assert!(
            (v - 0.25).abs() < 0.05,
            "constant values should survive: {v}"
        );
    }
}

#[test]
fn scratch_path_is_byte_identical_across_reuse() {
    // A scratch carries capacity, never meaning: one warm scratch, output
    // buffer and output gradient carried across gradients and configs —
    // with a *different* compressor run through the same three
    // between every two SketchML calls — must yield exactly the bytes and
    // the gradient a fresh scratch (`compress` / `decompress`) yields.
    let mut scratch = CompressScratch::new();
    let mut out = BytesMut::new();
    let mut decoded = SparseGradient::empty(0);
    let configs = [
        SketchMlConfig::default(),
        SketchMlConfig {
            groups: 1,
            ..SketchMlConfig::default()
        },
        SketchMlConfig {
            buckets_per_sign: 16,
            quantile_sketch_capacity: 32,
            ..SketchMlConfig::default()
        },
        SketchMlConfig {
            col_ratio: 0.05,
            ..SketchMlConfig::default()
        },
    ];
    let grads = [
        paperlike_gradient(3_000, 400_000, 21),
        paperlike_gradient(37, 1_000, 22),
        SparseGradient::empty(123),
        SparseGradient::new(100, vec![0, 7, 9], vec![0.5, 0.25, 0.125]).unwrap(),
        SparseGradient::new(100, vec![3, 5], vec![-0.5, -0.25]).unwrap(),
    ];
    let others: Vec<Box<dyn GradientCompressor>> = vec![
        Box::new(QuantCompressor::default()),
        Box::new(ShardedCompressor::new(SketchMlCompressor::default(), 3).unwrap()),
        Box::new(FastSgdCompressor::default()),
        Box::new(CountSketchCompressor::new(CountSketchConfig::default()).unwrap()),
        Box::new(KeyCompressor),
    ];
    let other_grad = paperlike_gradient(500, 30_000, 23);
    let mut step = 0usize;
    for cfg in configs {
        let c = SketchMlCompressor::new(cfg).unwrap();
        for grad in &grads {
            let other = &others[step % others.len()];
            step += 1;
            other
                .compress_into(&other_grad, &mut scratch, &mut out)
                .unwrap();
            other
                .decompress_into(&out, &mut scratch, &mut decoded)
                .unwrap();

            let fresh = c.compress(grad).unwrap();
            let report = c.compress_into(grad, &mut scratch, &mut out).unwrap();
            assert_eq!(&out[..], &fresh.payload[..], "warm payload differs");
            assert_eq!(report, fresh.report);
            c.decompress_into(&out, &mut scratch, &mut decoded).unwrap();
            assert_eq!(decoded, c.decompress(&fresh.payload).unwrap());
        }
    }
}
