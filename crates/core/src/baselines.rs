//! Non-sketch baselines of the evaluation: uncompressed Adam messages
//! (double and float weight types, Table 4), the `Adam+Key` ablation stage
//! (Figure 8), and threshold truncation (the "too aggressive" lossy method
//! of §1.1/§5, after Seide et al.'s 1-bit SGD).

use crate::compressor::GradientCompressor;
use crate::error::CompressError;
use crate::gradient::SparseGradient;
use crate::scratch::CompressScratch;
use bytes::{Buf, BufMut, BytesMut};
use sketchml_encoding::stats::SizeReport;
use sketchml_encoding::{delta_binary, varint};

/// Floating-point width for raw value transfer (Table 4's weight types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueWidth {
    /// 4-byte `f32` ("Adam-float").
    F32,
    /// 8-byte `f64` ("Adam-double", the default Adam baseline).
    F64,
}

impl ValueWidth {
    fn bytes(self) -> usize {
        match self {
            ValueWidth::F32 => 4,
            ValueWidth::F64 => 8,
        }
    }
}

/// The uncompressed baseline ("Adam" in every figure): raw 4-byte keys and
/// raw floating-point values — the `12d` bytes reference point of §3.5.
#[derive(Debug, Clone, Copy)]
pub struct RawCompressor {
    /// Value precision.
    pub width: ValueWidth,
}

impl Default for RawCompressor {
    fn default() -> Self {
        RawCompressor {
            width: ValueWidth::F64,
        }
    }
}

const RAW_MAGIC: u8 = 0x0D;

impl GradientCompressor for RawCompressor {
    fn name(&self) -> &'static str {
        match self.width {
            ValueWidth::F32 => "Adam-float",
            ValueWidth::F64 => "Adam",
        }
    }

    fn compress_into(
        &self,
        grad: &SparseGradient,
        _scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        out.clear();
        out.put_u8(RAW_MAGIC);
        out.put_u8(self.width.bytes() as u8);
        varint::write_u64(out, grad.dim());
        varint::write_u64(out, grad.nnz() as u64);
        let header = out.len();
        for &k in grad.keys() {
            let k32 = u32::try_from(k)
                .map_err(|_| CompressError::InvalidGradient(format!("key {k} exceeds u32")))?;
            out.put_u32_le(k32);
        }
        for &v in grad.values() {
            match self.width {
                ValueWidth::F32 => out.put_f32_le(v as f32),
                ValueWidth::F64 => out.put_f64_le(v),
            }
        }
        Ok(SizeReport {
            key_bytes: 4 * grad.nnz(),
            value_bytes: self.width.bytes() * grad.nnz(),
            header_bytes: header,
            pairs: grad.nnz(),
        })
    }

    fn decompress_into(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
        out: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        let mut buf = payload;
        if buf.remaining() < 2 || buf.get_u8() != RAW_MAGIC {
            return Err(CompressError::Corrupt("bad raw magic".into()));
        }
        let width = buf.get_u8() as usize;
        if width != 4 && width != 8 {
            return Err(CompressError::Corrupt(format!("bad value width {width}")));
        }
        let dim = varint::read_u64(&mut buf)?;
        let nnz = varint::read_u64(&mut buf)? as usize;
        let need = nnz
            .checked_mul(4 + width)
            .ok_or_else(|| CompressError::Corrupt(format!("raw nnz {nnz} overflows")))?;
        if buf.remaining() < need {
            return Err(CompressError::Corrupt("truncated raw body".into()));
        }
        scratch.dec_keys.clear();
        scratch
            .dec_keys
            .extend((0..nnz).map(|_| buf.get_u32_le() as u64));
        scratch.dec_vals.clear();
        scratch.dec_vals.extend((0..nnz).map(|_| {
            if width == 4 {
                buf.get_f32_le() as f64
            } else {
                buf.get_f64_le()
            }
        }));
        out.assign(dim, &scratch.dec_keys, &scratch.dec_vals)
    }
}

/// The `Adam+Key` ablation stage (Figure 8): delta-binary keys, raw `f64`
/// values — isolates the benefit of key compression alone.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeyCompressor;

const KEY_MAGIC: u8 = 0x0E;

impl GradientCompressor for KeyCompressor {
    fn name(&self) -> &'static str {
        "Adam+Key"
    }

    fn compress_into(
        &self,
        grad: &SparseGradient,
        _scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        out.clear();
        out.put_u8(KEY_MAGIC);
        varint::write_u64(out, grad.dim());
        varint::write_u64(out, grad.nnz() as u64);
        let header = out.len();
        let key_bytes = delta_binary::encode_keys_into(grad.keys(), out)?;
        for &v in grad.values() {
            out.put_f64_le(v);
        }
        Ok(SizeReport {
            key_bytes,
            value_bytes: 8 * grad.nnz(),
            header_bytes: header,
            pairs: grad.nnz(),
        })
    }

    fn decompress_into(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
        out: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        let mut buf = payload;
        if !buf.has_remaining() || buf.get_u8() != KEY_MAGIC {
            return Err(CompressError::Corrupt("bad Adam+Key magic".into()));
        }
        let dim = varint::read_u64(&mut buf)?;
        let nnz = varint::read_u64(&mut buf)? as usize;
        delta_binary::decode_keys_into(&mut buf, &mut scratch.dec_keys)?;
        if scratch.dec_keys.len() != nnz {
            return Err(CompressError::Corrupt("key count mismatch".into()));
        }
        if buf.remaining() < 8 * nnz {
            return Err(CompressError::Corrupt("truncated values".into()));
        }
        scratch.dec_vals.clear();
        scratch.dec_vals.extend((0..nnz).map(|_| buf.get_f64_le()));
        out.assign(dim, &scratch.dec_keys, &scratch.dec_vals)
    }
}

/// Threshold-based truncation (§1.1: "too aggressive to make ML algorithm
/// converged"; §5 after Seide et al.): only the `keep_ratio` fraction of
/// pairs with the largest magnitudes survive; they ship as delta-binary keys
/// plus `f32` values.
#[derive(Debug, Clone, Copy)]
pub struct TruncationCompressor {
    /// Fraction of pairs to keep, in `(0, 1]`.
    pub keep_ratio: f64,
}

impl Default for TruncationCompressor {
    fn default() -> Self {
        TruncationCompressor { keep_ratio: 0.1 }
    }
}

const TRUNC_MAGIC: u8 = 0x0F;

impl GradientCompressor for TruncationCompressor {
    fn name(&self) -> &'static str {
        "Truncation"
    }

    fn compress_into(
        &self,
        grad: &SparseGradient,
        _scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        if !(self.keep_ratio > 0.0 && self.keep_ratio <= 1.0) {
            return Err(CompressError::InvalidConfig(format!(
                "keep_ratio must be in (0, 1], got {}",
                self.keep_ratio
            )));
        }
        let keep = ((grad.nnz() as f64 * self.keep_ratio).ceil() as usize).min(grad.nnz());
        // Select the magnitude threshold, then keep pairs (ascending keys).
        let mut mags: Vec<f64> = grad.values().iter().map(|v| v.abs()).collect();
        mags.sort_by(f64::total_cmp);
        let threshold = if keep == 0 {
            f64::INFINITY
        } else {
            mags[mags.len() - keep]
        };
        let mut keys = Vec::with_capacity(keep);
        let mut values = Vec::with_capacity(keep);
        for (k, v) in grad.iter() {
            if v.abs() >= threshold && keys.len() < keep {
                keys.push(k);
                values.push(v);
            }
        }

        out.clear();
        out.put_u8(TRUNC_MAGIC);
        varint::write_u64(out, grad.dim());
        varint::write_u64(out, keys.len() as u64);
        let header = out.len();
        let key_bytes = delta_binary::encode_keys_into(&keys, out)?;
        for &v in &values {
            out.put_f32_le(v as f32);
        }
        Ok(SizeReport {
            key_bytes,
            value_bytes: 4 * values.len(),
            header_bytes: header,
            pairs: grad.nnz(),
        })
    }

    fn decompress_into(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
        out: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        let mut buf = payload;
        if !buf.has_remaining() || buf.get_u8() != TRUNC_MAGIC {
            return Err(CompressError::Corrupt("bad truncation magic".into()));
        }
        let dim = varint::read_u64(&mut buf)?;
        let kept = varint::read_u64(&mut buf)? as usize;
        delta_binary::decode_keys_into(&mut buf, &mut scratch.dec_keys)?;
        if scratch.dec_keys.len() != kept {
            return Err(CompressError::Corrupt("kept count mismatch".into()));
        }
        if buf.remaining() < 4 * kept {
            return Err(CompressError::Corrupt("truncated values".into()));
        }
        scratch.dec_vals.clear();
        scratch
            .dec_vals
            .extend((0..kept).map(|_| buf.get_f32_le() as f64));
        out.assign(dim, &scratch.dec_keys, &scratch.dec_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn gradient(n: usize, dim: u64, seed: u64) -> SparseGradient {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys: Vec<u64> = (0..n as u64 * 2).map(|_| rng.gen_range(0..dim)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.truncate(n);
        let values: Vec<f64> = keys.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
        SparseGradient::new(dim, keys, values).unwrap()
    }

    #[test]
    fn raw_f64_is_lossless_and_costs_12d() {
        let g = gradient(1000, 100_000, 81);
        let c = RawCompressor::default();
        let msg = c.compress(&g).unwrap();
        assert_eq!(c.decompress(&msg.payload).unwrap(), g);
        assert_eq!(msg.report.key_bytes + msg.report.value_bytes, 12 * g.nnz());
        assert!((msg.report.compression_rate() - 1.0).abs() < 0.01);
    }

    #[test]
    fn raw_f32_loses_only_float_precision() {
        let g = gradient(500, 10_000, 82);
        let c = RawCompressor {
            width: ValueWidth::F32,
        };
        let d = c.decompress(&c.compress(&g).unwrap().payload).unwrap();
        assert_eq!(d.keys(), g.keys());
        for ((_, v), (_, w)) in g.iter().zip(d.iter()) {
            assert!((v - w).abs() < 1e-6);
        }
    }

    #[test]
    fn key_compressor_lossless_with_smaller_keys() {
        let g = gradient(5000, 200_000, 83);
        let c = KeyCompressor;
        let msg = c.compress(&g).unwrap();
        assert_eq!(c.decompress(&msg.payload).unwrap(), g);
        assert!(
            msg.report.key_bytes < 2 * g.nnz(),
            "delta keys should be < 2 B/key, got {}",
            msg.report.key_bytes as f64 / g.nnz() as f64
        );
        // §4.2: key compression alone gives a material rate (~1.3x).
        assert!(msg.report.compression_rate() > 1.2);
    }

    #[test]
    fn truncation_keeps_largest_magnitudes() {
        let g = SparseGradient::new(100, vec![1, 2, 3, 4, 5], vec![0.01, -0.9, 0.05, 0.8, -0.02])
            .unwrap();
        let c = TruncationCompressor { keep_ratio: 0.4 };
        let d = c.decompress(&c.compress(&g).unwrap().payload).unwrap();
        assert_eq!(d.keys(), &[2, 4]);
        assert!(d.values()[0] < -0.89 && d.values()[1] > 0.79);
    }

    #[test]
    fn truncation_drops_information() {
        // The §1.1 critique, measurable: most of the l2 mass can survive but
        // most *pairs* are gone.
        let g = gradient(1000, 50_000, 84);
        let c = TruncationCompressor { keep_ratio: 0.1 };
        let d = c.decompress(&c.compress(&g).unwrap().payload).unwrap();
        assert_eq!(d.nnz(), 100);
    }

    #[test]
    fn truncation_validates_ratio() {
        let g = gradient(10, 100, 85);
        assert!(TruncationCompressor { keep_ratio: 0.0 }
            .compress(&g)
            .is_err());
        assert!(TruncationCompressor { keep_ratio: 1.5 }
            .compress(&g)
            .is_err());
        let all = TruncationCompressor { keep_ratio: 1.0 };
        let d = all.decompress(&all.compress(&g).unwrap().payload).unwrap();
        assert_eq!(d.nnz(), g.nnz());
    }

    #[test]
    fn corrupt_buffers_rejected_across_baselines() {
        let g = gradient(50, 1000, 86);
        let compressors: Vec<Box<dyn GradientCompressor>> = vec![
            Box::new(RawCompressor::default()),
            Box::new(KeyCompressor),
            Box::new(TruncationCompressor::default()),
        ];
        for c in &compressors {
            assert!(c.decompress(&[]).is_err(), "{} accepted empty", c.name());
            let msg = c.compress(&g).unwrap();
            for cut in 0..msg.payload.len() {
                let _ = c.decompress(&msg.payload[..cut]); // no panics
            }
            // Wrong magic routed to the wrong decoder must error.
            assert!(c.decompress(&[0x7F, 0, 0, 0]).is_err());
        }
    }

    #[test]
    fn empty_gradient_roundtrips() {
        let empty = SparseGradient::empty(7);
        for c in [
            &RawCompressor::default() as &dyn GradientCompressor,
            &KeyCompressor,
            &TruncationCompressor::default(),
        ] {
            let d = c.decompress(&c.compress(&empty).unwrap().payload).unwrap();
            assert!(d.is_empty(), "{}", c.name());
            assert_eq!(d.dim(), 7);
        }
    }
}
