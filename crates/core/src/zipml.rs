//! ZipML-style uniform fixed-point quantification (paper §4.1 baseline;
//! Zhang et al., "ZipML: An End-to-end Bitwise Framework").
//!
//! The value range `[min, max]` is divided into `2^bits - 1` **equal-width**
//! intervals and every value is mapped to its nearest level (the paper's
//! observed behaviour: "methods such as ZipML quantify [near-zero
//! gradients] to zero. Therefore, many gradient values are ignored, causing
//! slower convergence").
//!
//! Keys are shipped as raw 4-byte integers — §4.3.1: "ZipML is unable to
//! compress the gradient keys."

use crate::compressor::GradientCompressor;
use crate::error::CompressError;
use crate::gradient::SparseGradient;
use crate::scratch::CompressScratch;
use bytes::{Buf, BufMut, BytesMut};
use sketchml_encoding::stats::SizeReport;
use sketchml_encoding::varint;

/// Uniform fixed-point quantizer with 8- or 16-bit levels (Table 4 compares
/// `ZipML-8bit` and `ZipML-16bit`).
#[derive(Debug, Clone)]
pub struct ZipMlCompressor {
    /// Bits per value: 8 or 16.
    pub bits: u8,
}

impl ZipMlCompressor {
    /// Creates a quantizer with `bits ∈ {8, 16}`.
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] for other widths.
    pub fn new(bits: u8) -> Result<Self, CompressError> {
        if bits != 8 && bits != 16 {
            return Err(CompressError::InvalidConfig(format!(
                "ZipML supports 8 or 16 bits, got {bits}"
            )));
        }
        Ok(ZipMlCompressor { bits })
    }

    /// The paper's evaluated configuration: 16 bits ("we set it to be two
    /// bytes via fine tuning", §4.1).
    pub fn paper_default() -> Self {
        Self::new(16).expect("16 bits is valid")
    }

    fn levels(&self) -> u32 {
        (1u32 << self.bits) - 1
    }
}

const MAGIC: u8 = 0x21;

impl GradientCompressor for ZipMlCompressor {
    fn name(&self) -> &'static str {
        match self.bits {
            8 => "ZipML-8bit",
            _ => "ZipML",
        }
    }

    fn compress_into(
        &self,
        grad: &SparseGradient,
        _scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        out.clear();
        out.put_u8(MAGIC);
        out.put_u8(self.bits);
        varint::write_u64(out, grad.dim());
        varint::write_u64(out, grad.nnz() as u64);
        let mut report = SizeReport {
            pairs: grad.nnz(),
            ..SizeReport::default()
        };
        if grad.is_empty() {
            report.header_bytes = out.len();
            return Ok(report);
        }
        let header = out.len();

        // Raw 4-byte keys: ZipML does not compress keys.
        for &k in grad.keys() {
            let k32 = u32::try_from(k)
                .map_err(|_| CompressError::InvalidGradient(format!("key {k} exceeds u32")))?;
            out.put_u32_le(k32);
        }
        report.key_bytes = 4 * grad.nnz();

        let values = grad.values();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        out.put_f64_le(min);
        out.put_f64_le(max);
        let span = (max - min).max(f64::MIN_POSITIVE);
        let levels = self.levels() as f64;
        for &v in values {
            let level = ((v - min) / span * levels).round().clamp(0.0, levels);
            match self.bits {
                8 => out.put_u8(level as u8),
                _ => out.put_u16_le(level as u16),
            }
        }
        report.value_bytes = 16 + grad.nnz() * (self.bits as usize / 8);
        report.header_bytes = header;
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
            return Err(CompressError::Corrupt("bad ZipML magic".into()));
        }
        let bits = buf.get_u8();
        if bits != 8 && bits != 16 {
            return Err(CompressError::Corrupt(format!("bad ZipML width {bits}")));
        }
        let dim = varint::read_u64(&mut buf)?;
        let nnz = varint::read_u64(&mut buf)? as usize;
        if nnz == 0 {
            return out.assign(dim, &[], &[]);
        }
        // Checked arithmetic: a wire-controlled nnz must not wrap past the
        // remaining-bytes test.
        let need = nnz
            .checked_mul(4 + bits as usize / 8)
            .and_then(|b| b.checked_add(16))
            .ok_or_else(|| CompressError::Corrupt(format!("ZipML nnz {nnz} overflows")))?;
        if buf.remaining() < need {
            return Err(CompressError::Corrupt("truncated ZipML body".into()));
        }
        scratch.dec_keys.clear();
        scratch.dec_keys.reserve(nnz);
        for _ in 0..nnz {
            scratch.dec_keys.push(buf.get_u32_le() as u64);
        }
        let min = buf.get_f64_le();
        let max = buf.get_f64_le();
        if !min.is_finite() || !max.is_finite() || min > max {
            return Err(CompressError::Corrupt("bad ZipML value range".into()));
        }
        let span = (max - min).max(f64::MIN_POSITIVE);
        let levels = ((1u32 << bits) - 1) as f64;
        scratch.dec_vals.clear();
        scratch.dec_vals.reserve(nnz);
        for _ in 0..nnz {
            let level = match bits {
                8 => buf.get_u8() as f64,
                _ => buf.get_u16_le() as f64,
            };
            scratch.dec_vals.push(min + level / levels * span);
        }
        out.assign(dim, &scratch.dec_keys, &scratch.dec_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn skewed_gradient(n: usize, dim: u64, seed: u64) -> SparseGradient {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys: Vec<u64> = (0..n as u64 * 2).map(|_| rng.gen_range(0..dim)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.truncate(n);
        let values: Vec<f64> = keys
            .iter()
            .map(|_| {
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                sign * rng.gen::<f64>().powi(6) * 0.35
            })
            .collect();
        SparseGradient::new(dim, keys, values).unwrap()
    }

    #[test]
    fn roundtrip_bounds_error_by_level_width() {
        for bits in [8u8, 16] {
            let c = ZipMlCompressor::new(bits).unwrap();
            let grad = skewed_gradient(1000, 50_000, 71);
            let msg = c.compress(&grad).unwrap();
            let decoded = c.decompress(&msg.payload).unwrap();
            assert_eq!(decoded.keys(), grad.keys());
            let span = 0.7; // value range ~[-0.35, 0.35]
            let level_width = span / ((1u32 << bits) - 1) as f64;
            for ((_, v), (_, d)) in grad.iter().zip(decoded.iter()) {
                assert!(
                    (v - d).abs() <= level_width,
                    "bits={bits}: |{v} - {d}| > level width {level_width}"
                );
            }
        }
    }

    #[test]
    fn uniform_levels_zero_small_gradients() {
        // The §3.2/§4.3 critique: most values sit near zero; with 8-bit
        // uniform levels over a wide range they all collapse onto the same
        // level, i.e. the information is lost.
        let mut keys = Vec::new();
        let mut values = Vec::new();
        for i in 0..1000u64 {
            keys.push(i);
            values.push(if i == 0 {
                -1.0 // one big outlier stretches the range
            } else if i == 1 {
                1.0
            } else {
                1e-4 * ((i % 7) as f64 - 3.0) // tiny near-zero mass
            });
        }
        let grad = SparseGradient::new(2000, keys, values).unwrap();
        let c = ZipMlCompressor::new(8).unwrap();
        let decoded = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
        // The 7 distinct tiny input values collapse onto at most 2 levels —
        // the near-zero structure is destroyed.
        let mut decoded_small: Vec<f64> = decoded.values()[2..].to_vec();
        decoded_small.sort_by(f64::total_cmp);
        decoded_small.dedup();
        assert!(
            decoded_small.len() <= 2,
            "expected near-zero collapse, got {} distinct levels",
            decoded_small.len()
        );
    }

    #[test]
    fn key_bytes_are_uncompressed() {
        let grad = skewed_gradient(5000, 100_000, 72);
        let c = ZipMlCompressor::paper_default();
        let msg = c.compress(&grad).unwrap();
        assert_eq!(msg.report.key_bytes, 4 * grad.nnz());
        // 16-bit: 4 key + 2 value bytes per pair → rate = 12/6 ≈ 2 (minus headers).
        let rate = msg.report.compression_rate();
        assert!((1.8..=2.1).contains(&rate), "rate {rate}");
    }

    #[test]
    fn empty_gradient_roundtrip() {
        let c = ZipMlCompressor::paper_default();
        let msg = c.compress(&SparseGradient::empty(42)).unwrap();
        let d = c.decompress(&msg.payload).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.dim(), 42);
    }

    #[test]
    fn invalid_configs_and_corrupt_buffers() {
        assert!(ZipMlCompressor::new(4).is_err());
        assert!(ZipMlCompressor::new(32).is_err());
        let c = ZipMlCompressor::paper_default();
        assert!(c.decompress(&[]).is_err());
        assert!(c.decompress(&[0x00]).is_err());
        let grad = skewed_gradient(100, 1000, 73);
        let msg = c.compress(&grad).unwrap();
        for cut in 0..msg.payload.len() {
            let _ = c.decompress(&msg.payload[..cut]); // must not panic
        }
    }

    #[test]
    fn constant_values_roundtrip() {
        let grad = SparseGradient::new(10, vec![1, 3, 5], vec![0.5, 0.5, 0.5]).unwrap();
        let c = ZipMlCompressor::paper_default();
        let d = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
        for (_, v) in d.iter() {
            assert!((v - 0.5).abs() < 1e-9);
        }
    }
}
