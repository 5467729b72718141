//! Differential property tests: the vectorized lanes must be externally
//! invisible. Every registered compressor — including `@N` sharded variants
//! — must produce *byte-identical* payloads and *bit-identical* decodes
//! whether the lanes run or the always-compiled scalar reference runs.
//!
//! The lanes are part of every x86-64 build and are picked by CPU detection,
//! so on an AVX2 host tier-1 runs them here against the scalar bodies that
//! [`sketchml::core::simd::force_scalar`] pins across the whole stack
//! (hashing, sorting, sign partition, delta-binary packing). Each case runs
//! twin compressor instances over the same gradient sequence — one with
//! lanes active, one forced scalar — so stateful wrappers (error-feedback
//! residuals) evolve in lockstep.
//! Each twin keeps one [`CompressScratch`], wire buffer and output gradient
//! across its whole sequence: steady-state reuse is what production runs, so
//! that is what the lanes are compared under. On a CPU without AVX2 both
//! twins run scalar code and the comparison is vacuous; the smoke test
//! prints which lanes the host has so such a run is visible in the log.

mod common;

use bytes::BytesMut;
use common::LaneGuard;
use proptest::collection::btree_map;
use proptest::prelude::*;
use sketchml::core::registry::KNOWN_COMPRESSORS;
use sketchml::core::simd;
use sketchml::core::CompressScratch;
use sketchml::{
    compressor_by_name, ErrorFeedback, FastSgdCompressor, GradientCompressor, SketchMlCompressor,
    SparseGradient,
};

/// Sparse gradients with up to 400 pairs over a `dim`-key model.
fn arb_gradient_over(dim: u64) -> impl Strategy<Value = SparseGradient> {
    btree_map(0u64..dim, -1.0f64..1.0, 1..400).prop_map(move |m| {
        let keys: Vec<u64> = m.keys().copied().collect();
        let values: Vec<f64> = m
            .values()
            .map(|&v| if v == 0.0 { 1e-9 } else { v })
            .collect();
        SparseGradient::new(dim, keys, values).expect("ascending keys")
    })
}

fn arb_gradient() -> impl Strategy<Value = SparseGradient> {
    arb_gradient_over(2_000_000)
}

/// Gradients for the `countsketch*` names. Their decode scans the frame's
/// whole key window for heavy hitters (~1 s per call over 2 M keys in a debug
/// build), while their lane code — `fill_bins`, sign hashing — is per key,
/// not per range: a 64 k window exercises the same lanes in milliseconds.
fn arb_narrow_gradient() -> impl Strategy<Value = SparseGradient> {
    arb_gradient_over(1 << 16)
}

/// First index where the two payloads disagree, for a readable failure.
fn first_diff(a: &[u8], b: &[u8]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x != y)
}

fn assert_payloads_identical(name: &str, step: usize, lanes: &[u8], scalar: &[u8]) {
    if let Some(i) = first_diff(lanes, scalar) {
        panic!(
            "`{name}` step {step}: simd payload ({} B) != scalar payload ({} B), \
             first divergence at byte {i}",
            lanes.len(),
            scalar.len(),
        );
    }
}

fn assert_decodes_identical(
    name: &str,
    step: usize,
    lanes: &SparseGradient,
    scalar: &SparseGradient,
) {
    assert_eq!(lanes.dim(), scalar.dim(), "`{name}` step {step}: dim");
    assert_eq!(lanes.keys(), scalar.keys(), "`{name}` step {step}: keys");
    for (i, (x, y)) in lanes.values().iter().zip(scalar.values()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "`{name}` step {step}: value #{i} diverged ({x} vs {y})"
        );
    }
}

/// One side of a lane/scalar pair: a compressor plus the scratch, wire
/// buffer and output gradient it keeps for its whole gradient sequence.
struct Twin<C> {
    codec: C,
    scratch: CompressScratch,
    wire: BytesMut,
    decoded: SparseGradient,
}

impl<C: GradientCompressor> Twin<C> {
    fn new(codec: C) -> Self {
        Twin {
            codec,
            scratch: CompressScratch::new(),
            wire: BytesMut::new(),
            decoded: SparseGradient::empty(0),
        }
    }

    fn encode(&mut self, grad: &SparseGradient, name: &str) {
        self.codec
            .compress_into(grad, &mut self.scratch, &mut self.wire)
            .expect(name);
    }

    fn decode(&mut self, name: &str) {
        self.codec
            .decompress_into(&self.wire, &mut self.scratch, &mut self.decoded)
            .expect(name);
    }
}

/// Encodes and decodes `grad` on both twins — `lanes` with the lanes active,
/// `scalar` forced scalar — asserting identical payloads and decodes.
fn step_twins<C: GradientCompressor>(
    name: &str,
    step: usize,
    grad: &SparseGradient,
    lanes: &mut Twin<C>,
    scalar: &mut Twin<C>,
) {
    simd::force_scalar(false);
    lanes.encode(grad, name);
    simd::force_scalar(true);
    scalar.encode(grad, name);
    assert_payloads_identical(name, step, &lanes.wire, &scalar.wire);
    scalar.decode(name);
    simd::force_scalar(false);
    lanes.decode(name);
    assert_decodes_identical(name, step, &lanes.decoded, &scalar.decoded);
}

/// Residual maps of an error-feedback twin pair must stay bit-identical, or
/// divergence would compound silently over training even with matching
/// payloads.
fn assert_residuals_identical<C: GradientCompressor>(
    step: usize,
    lanes: &ErrorFeedback<C>,
    scalar: &ErrorFeedback<C>,
) {
    let (ra, rb) = (lanes.residual_entries(), scalar.residual_entries());
    assert_eq!(ra.len(), rb.len(), "residual map size at step {step}");
    for ((ka, va), (kb, vb)) in ra.iter().zip(&rb) {
        assert_eq!(ka, kb, "residual key at step {step}");
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "residual value for key {ka} at step {step}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every registered compressor, fed a 3-gradient sequence: payloads and
    /// decodes are identical between the lane path and the scalar reference.
    #[test]
    fn all_registered_compressors_are_lane_invariant(
        seq in proptest::collection::vec(arb_gradient(), 3),
        narrow_seq in proptest::collection::vec(arb_narrow_gradient(), 3),
    ) {
        let _guard = LaneGuard::acquire();
        for &name in KNOWN_COMPRESSORS {
            let mut lanes = Twin::new(compressor_by_name(name).expect(name));
            let mut scalar = Twin::new(compressor_by_name(name).expect(name));
            let seq = if name.starts_with("countsketch") { &narrow_seq } else { &seq };
            for (step, grad) in seq.iter().enumerate() {
                step_twins(name, step, grad, &mut lanes, &mut scalar);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Error feedback accumulates residuals across rounds; the residual map
    /// itself must stay bit-identical between the two paths.
    #[test]
    fn error_feedback_residual_maps_are_lane_invariant(
        seq in proptest::collection::vec(arb_gradient(), 4),
    ) {
        let _guard = LaneGuard::acquire();
        let mut lanes = Twin::new(ErrorFeedback::new(SketchMlCompressor::default()));
        let mut scalar = Twin::new(ErrorFeedback::new(SketchMlCompressor::default()));
        for (step, grad) in seq.iter().enumerate() {
            step_twins("ef:sketchml", step, grad, &mut lanes, &mut scalar);
            assert_residuals_identical(step, &lanes.codec, &scalar.codec);
        }
    }

    /// FastSGD with error feedback: the exponent-code hot path plus its
    /// built-in residual compensation, checked over a multi-round sequence.
    #[test]
    fn fastsgd_error_feedback_is_lane_invariant(
        seq in proptest::collection::vec(arb_gradient(), 4),
        bits in 4u8..=8,
    ) {
        let _guard = LaneGuard::acquire();
        let mut lanes = Twin::new(ErrorFeedback::new(FastSgdCompressor::new(bits).expect("bits")));
        let mut scalar = Twin::new(ErrorFeedback::new(FastSgdCompressor::new(bits).expect("bits")));
        for (step, grad) in seq.iter().enumerate() {
            step_twins("ef:fastsgd", step, grad, &mut lanes, &mut scalar);
            assert_residuals_identical(step, &lanes.codec, &scalar.codec);
        }
    }
}

/// Deterministic smoke version of the sweep, so a plain `cargo test` run
/// exercises every name even when proptest shrinks or is filtered out.
#[test]
fn registered_compressors_lane_invariant_smoke() {
    let _guard = LaneGuard::acquire();
    println!(
        "lanes: avx2={} avx512f={}",
        sketchml::sketches::simd::lanes_active(),
        sketchml::sketches::simd::lanes512_active()
    );
    let keys: Vec<u64> = (0..512u64).map(|i| i * 17 + 3).collect();
    let values: Vec<f64> = (0..512)
        .map(|i| ((i as f64) - 256.0) * 0.00371 + 0.0005)
        .collect();
    let grad = SparseGradient::new(100_000, keys, values).expect("gradient");
    for &name in KNOWN_COMPRESSORS {
        let mut lanes = Twin::new(compressor_by_name(name).expect(name));
        let mut scalar = Twin::new(compressor_by_name(name).expect(name));
        step_twins(name, 0, &grad, &mut lanes, &mut scalar);
    }
}
