//! FastSGD-style exponent-only log quantization (Yang et al., "FastSGD: A
//! Fast Compressed SGD Framework", arXiv:2112.04291) — a value codec that
//! keeps **only the sign and the binary exponent** of each gradient value.
//!
//! Every value `v` is snapped to the nearest power of two in log space:
//! `v ≈ ±2^e` with `e` read straight out of the `f64` bit pattern (the
//! 11-bit biased exponent, rounded up when the mantissa exceeds √2, the
//! geometric midpoint of the octave). The codes shipped per value are then
//! mantissa-free: a sign bit plus the small non-negative *offset*
//! `d = e_max − e` from the message's largest exponent. Gradient magnitudes
//! cluster within a few octaves of their maximum, so the offsets are small
//! and geometrically distributed — the encoder picks per message between
//! fixed-width bit packing ([`sketchml_encoding::bitpack`]) and Golomb–Rice
//! coding ([`sketchml_encoding::rice`]), whichever is smaller. Keys travel
//! losslessly via the same delta-binary codec SketchML uses (§3.4).
//!
//! The quantizer is deterministic and biased toward zero (relative error is
//! at most `√2 − 1 ≈ 41%`, never a sign flip); wrapping it in
//! [`crate::ErrorFeedback`] carries the dropped mantissa mass forward, which
//! is how the FastSGD paper closes the convergence gap. Values whose offset
//! exceeds the code range clamp to the smallest representable level, and
//! exact zeros (plus subnormals, far below any gradient scale) take a
//! reserved all-ones code.

use crate::compressor::GradientCompressor;
use crate::error::CompressError;
use crate::gradient::SparseGradient;
use crate::scratch::CompressScratch;
use bytes::{Buf, BufMut, BytesMut};
use sketchml_encoding::stats::SizeReport;
use sketchml_encoding::{bitpack, delta_binary, rice, varint};

/// Wire magic of the FastSGD frame (distinct from every other codec's).
const MAGIC: u8 = 0xF5;

/// Exponent offset of the wire's `e_max` field: `e_max ∈ [-1022, 1023]` is
/// stored as `e_max + OFFSET`, keeping varint 0 free as the all-zero
/// sentinel.
const E_OFFSET: i32 = 1100;

/// Mantissa bits of √2 — the geometric midpoint of an octave. A value whose
/// mantissa exceeds this rounds its exponent up.
const SQRT2_MANT: u64 = 0x6_A09E_667F_3BCD;

/// Sentinel exponent marking a value that quantizes to exactly zero.
const EXP_ZERO: i32 = i32::MIN;

/// Code-stream encodings selectable per message.
const MODE_BITPACK: u8 = 0;
const MODE_RICE: u8 = 1;

/// Exponent-only log quantizer: each value costs one sign bit plus a
/// `bits`-wide (or Rice-coded) exponent offset; keys are delta-binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastSgdCompressor {
    /// Width of the exponent-offset codes in bits (`2..=16`). The all-ones
    /// code is reserved for zero, leaving `2^bits − 1` exponent levels, i.e.
    /// a dynamic range of `2^bits − 2` octaves below the largest magnitude.
    pub bits: u8,
}

impl Default for FastSgdCompressor {
    fn default() -> Self {
        FastSgdCompressor {
            bits: Self::DEFAULT_BITS,
        }
    }
}

impl FastSgdCompressor {
    /// Default code width: 6 bits = 62 octaves of dynamic range, ~1.9× the
    /// f32 exponent span, at under a byte per value before Rice coding.
    pub const DEFAULT_BITS: u8 = 6;

    /// Creates a quantizer with `bits ∈ 2..=16`.
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] for widths outside that range.
    pub fn new(bits: u8) -> Result<Self, CompressError> {
        if !(2..=16).contains(&bits) {
            return Err(CompressError::InvalidConfig(format!(
                "FastSGD code width must be in 2..=16 bits, got {bits}"
            )));
        }
        Ok(FastSgdCompressor { bits })
    }

    /// The rounded binary exponent of `v`, or [`EXP_ZERO`] when `v` flushes
    /// to zero (exact zeros and subnormals). `v` must be finite
    /// ([`SparseGradient`] guarantees it).
    #[inline]
    fn exponent_of(v: f64) -> i32 {
        let b = v.to_bits();
        let biased = ((b >> 52) & 0x7FF) as i32;
        if biased == 0 {
            return EXP_ZERO;
        }
        debug_assert!(biased != 0x7FF, "gradients are validated finite");
        // Round up past the geometric midpoint, capping at f64's top octave.
        let up = ((b & ((1u64 << 52) - 1)) > SQRT2_MANT) as i32;
        (biased - 1023 + up).min(1023)
    }
}

impl GradientCompressor for FastSgdCompressor {
    fn name(&self) -> &'static str {
        "FastSGD"
    }

    fn compress_into(
        &self,
        grad: &SparseGradient,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        out.clear();
        out.put_u8(MAGIC);
        out.put_u8(self.bits);
        varint::write_u64(out, grad.dim());
        let nnz = grad.nnz();
        varint::write_u64(out, nnz as u64);
        let mut report = SizeReport {
            pairs: nnz,
            ..SizeReport::default()
        };
        report.header_bytes = out.len();
        if grad.is_empty() {
            return Ok(report);
        }

        report.key_bytes = delta_binary::encode_keys_into(grad.keys(), out)?;

        // Pass 1: rounded exponents and their maximum.
        let values = grad.values();
        scratch.fs_exps.clear();
        scratch.fs_exps.reserve(nnz);
        let mut e_max = EXP_ZERO;
        for &v in values {
            let e = Self::exponent_of(v);
            e_max = e_max.max(e);
            scratch.fs_exps.push(e);
        }
        let value_start = out.len();
        varint::write_u64(
            out,
            if e_max == EXP_ZERO {
                0 // every value flushed to zero
            } else {
                (e_max + E_OFFSET) as u64
            },
        );

        // Sign bitmap, LSB-first (zero-flushed values carry sign 0 so the
        // payload is a pure function of the quantized gradient).
        let zero_code = (1u32 << self.bits) - 1;
        for chunk in values.chunks(8) {
            let mut byte = 0u8;
            for (j, &v) in chunk.iter().enumerate() {
                let flushed = Self::exponent_of(v) == EXP_ZERO;
                byte |= (((v.to_bits() >> 63) as u8) & !(flushed as u8)) << j;
            }
            out.put_u8(byte);
        }

        // Pass 2: exponent-offset codes. Offsets past the code range clamp
        // to the deepest level that still decodes to a normal f64.
        let d_max = (zero_code - 1).min((e_max + 1022).max(0) as u32);
        scratch.fs_codes.clear();
        scratch.fs_codes.reserve(nnz);
        scratch.fs_codes32.clear();
        scratch.fs_codes32.reserve(nnz);
        for &e in &scratch.fs_exps {
            let code = if e == EXP_ZERO {
                zero_code
            } else {
                ((e_max - e) as u32).min(d_max)
            };
            scratch.fs_codes.push(code as u16);
            scratch.fs_codes32.push(code);
        }

        // Ship whichever code stream is smaller; ties go to bit packing
        // (cheaper decode). Rice is self-delimiting only from the front, so
        // it must stay the final field of the frame.
        let packed = bitpack::packed_len(nnz, self.bits as u32);
        let riced = rice::encoded_len_rice(&scratch.fs_codes32);
        if riced < packed {
            out.put_u8(MODE_RICE);
            rice::encode_rice_into(&scratch.fs_codes32, out);
        } else {
            out.put_u8(MODE_BITPACK);
            bitpack::pack_u16_into(&scratch.fs_codes, self.bits as u32, out)?;
        }
        report.value_bytes = out.len() - value_start;
        Ok(report)
    }

    fn decompress_into(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
        out: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        let mut buf = payload;
        if buf.remaining() < 2 || buf.get_u8() != MAGIC {
            return Err(CompressError::Corrupt("bad FastSGD magic".into()));
        }
        let bits = buf.get_u8();
        if !(2..=16).contains(&bits) {
            return Err(CompressError::Corrupt(format!(
                "bad FastSGD code width {bits}"
            )));
        }
        let dim = varint::read_u64(&mut buf)?;
        let nnz = varint::read_u64(&mut buf)? as usize;
        if nnz == 0 {
            return out.assign(dim, &[], &[]);
        }
        delta_binary::decode_keys_into(&mut buf, &mut scratch.dec_keys)?;
        if scratch.dec_keys.len() != nnz {
            return Err(CompressError::Corrupt(format!(
                "FastSGD key stream holds {} keys, header says {nnz}",
                scratch.dec_keys.len()
            )));
        }
        let e_max_off = varint::read_u64(&mut buf)?;
        let e_max = match e_max_off {
            0 => None,
            off @ 78..=2123 => Some(off as i32 - E_OFFSET),
            off => {
                return Err(CompressError::Corrupt(format!(
                    "FastSGD max exponent field {off} out of range"
                )))
            }
        };
        let sign_bytes = nnz.div_ceil(8);
        if buf.remaining() < sign_bytes + 1 {
            return Err(CompressError::Corrupt("truncated FastSGD body".into()));
        }
        // `buf` is a plain byte slice here, so the sign bitmap can stay
        // borrowed in place while the tail decodes.
        let (signs, rest) = buf.split_at(sign_bytes);
        let mut buf = rest;
        let mode = buf.get_u8();
        let zero_code = (1u32 << bits) - 1;
        match mode {
            MODE_BITPACK => {
                bitpack::unpack_u16_into(&mut buf, nnz, bits as u32, &mut scratch.dec_idx)?;
                scratch.fs_codes32.clear();
                scratch.fs_codes32.reserve(nnz);
                scratch
                    .fs_codes32
                    .extend(scratch.dec_idx.iter().map(|&c| c as u32));
            }
            MODE_RICE => {
                rice::decode_rice_into(&mut buf, &mut scratch.fs_codes32)?;
                if scratch.fs_codes32.len() != nnz {
                    return Err(CompressError::Corrupt(format!(
                        "FastSGD code stream holds {} codes, header says {nnz}",
                        scratch.fs_codes32.len()
                    )));
                }
            }
            other => {
                return Err(CompressError::Corrupt(format!(
                    "unknown FastSGD code mode {other}"
                )))
            }
        }
        scratch.dec_vals.clear();
        scratch.dec_vals.reserve(nnz);
        for (i, &code) in scratch.fs_codes32.iter().enumerate() {
            let v = if code == zero_code {
                0.0
            } else {
                let e_max = e_max.ok_or_else(|| {
                    CompressError::Corrupt("FastSGD nonzero code in all-zero message".into())
                })?;
                let e = e_max - code as i32;
                if !(-1022..=1023).contains(&e) || code > zero_code {
                    return Err(CompressError::Corrupt(format!(
                        "FastSGD code {code} decodes past the exponent range"
                    )));
                }
                let sign = ((signs[i / 8] >> (i % 8)) & 1) as u64;
                f64::from_bits((sign << 63) | (((e + 1023) as u64) << 52))
            };
            scratch.dec_vals.push(v);
        }
        out.assign(dim, &scratch.dec_keys, &scratch.dec_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::roundtrip_error;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample(n: usize, dim: u64, seed: u64) -> SparseGradient {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys: Vec<u64> = (0..n as u64 * 2).map(|_| rng.gen_range(0..dim)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.truncate(n);
        let values: Vec<f64> = keys
            .iter()
            .map(|_| {
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                sign * rng.gen::<f64>().powi(4) * 0.3
            })
            .collect();
        SparseGradient::new(dim, keys, values).unwrap()
    }

    #[test]
    fn roundtrip_keeps_keys_and_bounds_relative_error() {
        let c = FastSgdCompressor::default();
        let grad = sample(2000, 100_000, 41);
        let msg = c.compress(&grad).unwrap();
        let decoded = c.decompress(&msg.payload).unwrap();
        assert_eq!(decoded.keys(), grad.keys());
        for ((_, v), (_, d)) in grad.iter().zip(decoded.iter()) {
            assert_eq!(v.signum(), d.signum(), "sign flipped: {v} -> {d}");
            // Nearest power of two in log space: d/v ∈ [1/√2, √2].
            let ratio = (d / v).abs();
            assert!(
                (0.7..=1.42).contains(&ratio),
                "|{d}/{v}| = {ratio} outside the octave bound"
            );
        }
    }

    #[test]
    fn quantized_levels_are_powers_of_two() {
        let c = FastSgdCompressor::default();
        let grad = sample(500, 10_000, 7);
        let decoded = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
        for (_, v) in decoded.iter() {
            if v != 0.0 {
                let m = v.abs().to_bits() & ((1u64 << 52) - 1);
                assert_eq!(m, 0, "decoded value {v} is not a power of two");
            }
        }
    }

    #[test]
    fn exact_powers_of_two_roundtrip_exactly() {
        let keys: Vec<u64> = (0..20).collect();
        let values: Vec<f64> = (0..20)
            .map(|i| {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                sign * (2.0f64).powi(i - 10)
            })
            .collect();
        let grad = SparseGradient::new(100, keys, values.clone()).unwrap();
        let c = FastSgdCompressor::default();
        let decoded = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
        assert_eq!(decoded.values(), &values[..]);
    }

    #[test]
    fn zeros_and_tiny_values_take_the_reserved_code() {
        let grad = SparseGradient::new(
            100,
            vec![1, 2, 3, 4],
            vec![0.0, 1.0, 1e-300, f64::MIN_POSITIVE / 4.0],
        )
        .unwrap();
        let c = FastSgdCompressor::new(4).unwrap();
        let decoded = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
        assert_eq!(decoded.values()[0], 0.0);
        assert_eq!(decoded.values()[1], 1.0);
        // 1e-300 is ~996 octaves below 1.0 — far past 4-bit range, so it
        // clamps to the deepest level rather than flipping sign or dying.
        assert!(decoded.values()[2] > 0.0);
        // A subnormal flushes to zero.
        assert_eq!(decoded.values()[3], 0.0);
    }

    #[test]
    fn all_zero_gradient_roundtrips() {
        let grad = SparseGradient::new(50, vec![3, 9], vec![0.0, 0.0]).unwrap();
        let c = FastSgdCompressor::default();
        let decoded = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
        assert_eq!(decoded.values(), &[0.0, 0.0]);
        let empty = c
            .decompress(&c.compress(&SparseGradient::empty(42)).unwrap().payload)
            .unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.dim(), 42);
    }

    #[test]
    fn scratch_path_is_byte_identical() {
        let c = FastSgdCompressor::default();
        let mut scratch = CompressScratch::new();
        let mut out = BytesMut::new();
        for seed in 0..5u64 {
            let grad = sample(300, 20_000, seed);
            let msg = c.compress(&grad).unwrap();
            let report = c.compress_into(&grad, &mut scratch, &mut out).unwrap();
            assert_eq!(&out[..], &msg.payload[..]);
            assert_eq!(report.key_bytes, msg.report.key_bytes);
            assert_eq!(report.value_bytes, msg.report.value_bytes);
            let mut dec = SparseGradient::empty(0);
            c.decompress_into(&msg.payload, &mut scratch, &mut dec)
                .unwrap();
            assert_eq!(dec, c.decompress(&msg.payload).unwrap());
        }
    }

    #[test]
    fn wide_exponent_spread_selects_bitpack_and_narrow_selects_rice() {
        // Narrow spread: every magnitude in one octave → tiny Rice codes.
        let keys: Vec<u64> = (0..512).collect();
        let narrow: Vec<f64> = (0..512).map(|i| 0.5 + (i as f64) * 1e-4).collect();
        let g_narrow = SparseGradient::new(1000, keys.clone(), narrow).unwrap();
        let c = FastSgdCompressor::new(12).unwrap();
        let msg = c.compress(&g_narrow).unwrap();
        // 512 near-zero offsets Rice-code to ~1 bit each, far under 12-bit
        // packing; mode byte sits right after the sign bitmap.
        let decoded = c.decompress(&msg.payload).unwrap();
        assert_eq!(decoded.keys(), g_narrow.keys());
        let wide: Vec<f64> = (0..512)
            .map(|i: i32| (2.0f64).powi(-(i % 40)) * if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let g_wide = SparseGradient::new(1000, keys, wide).unwrap();
        let msg_w = c.compress(&g_wide).unwrap();
        let dec_w = c.decompress(&msg_w.payload).unwrap();
        for ((_, v), (_, d)) in g_wide.iter().zip(dec_w.iter()) {
            assert_eq!(v, d, "powers of two must round-trip exactly");
        }
        // Both messages decode through both paths; the narrow one is smaller
        // per pair on the value side.
        assert!(msg.report.value_bytes < msg_w.report.value_bytes);
    }

    #[test]
    fn code_width_trades_size_for_range() {
        let grad = sample(2000, 100_000, 17);
        let small = FastSgdCompressor::new(3).unwrap();
        let large = FastSgdCompressor::new(10).unwrap();
        let s = roundtrip_error(&small, &grad).unwrap();
        let l = roundtrip_error(&large, &grad).unwrap();
        assert!(s.compressed_bytes <= l.compressed_bytes);
        // The wider code never clamps here, so its error is no worse.
        assert!(l.squared_error <= s.squared_error + 1e-12);
        assert_eq!(s.sign_flips, 0);
        assert_eq!(l.sign_flips, 0);
    }

    #[test]
    fn invalid_configs_and_corrupt_buffers() {
        assert!(FastSgdCompressor::new(1).is_err());
        assert!(FastSgdCompressor::new(17).is_err());
        let c = FastSgdCompressor::default();
        assert!(c.decompress(&[]).is_err());
        assert!(c.decompress(&[0x00]).is_err());
        let grad = sample(100, 1000, 3);
        let msg = c.compress(&grad).unwrap();
        for cut in 0..msg.payload.len() {
            let _ = c.decompress(&msg.payload[..cut]); // must not panic
        }
        let mut bad = msg.payload.to_vec();
        bad[1] = 40; // absurd code width
        assert!(c.decompress(&bad).is_err());
    }

    #[test]
    fn error_feedback_recovers_dropped_mantissa() {
        use crate::feedback::ErrorFeedback;
        let c = ErrorFeedback::new(FastSgdCompressor::default());
        let grad = SparseGradient::new(10, vec![1], vec![0.3]).unwrap();
        // 0.3 quantizes to 0.25; the 0.05 residual must carry forward and
        // push a later round's estimate up an octave.
        let msg = c.compress(&grad).unwrap();
        assert_eq!(c.decompress(&msg.payload).unwrap().values()[0], 0.25);
        assert!(c.residual_l1() > 0.049);
        // Round 2 compensates to 0.35 — still under the √2·0.25 ≈ 0.3536
        // boundary, so the level holds and the residual grows to 0.1.
        let msg2 = c.compress(&grad).unwrap();
        assert_eq!(c.decompress(&msg2.payload).unwrap().values()[0], 0.25);
        // Round 3's compensated 0.4 crosses the boundary: the carried
        // residual changed the quantization level.
        let msg3 = c.compress(&grad).unwrap();
        assert_eq!(c.decompress(&msg3.payload).unwrap().values()[0], 0.5);
    }
}
