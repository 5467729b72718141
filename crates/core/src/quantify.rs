//! Quantile-bucket quantification (paper §3.2, Figure 3).
//!
//! Uniform quantification "equally divides the range of gradient values"
//! and therefore snaps the near-zero mass of a skewed gradient (Figure 4)
//! to zero. Quantile-bucket quantification instead **equally divides the
//! values by count**: a quantile sketch supplies `q + 1` equi-depth split
//! points, every value is bucket-sorted between two splits, each bucket is
//! represented by the mean of its two splits, and values are shipped as
//! small bucket *indexes*.
//!
//! This module implements the quantization math and the `Adam+Key+Quan`
//! ablation compressor of Figure 8 (delta-binary keys + bit-packed exact
//! bucket indexes, no MinMaxSketch).

use crate::compressor::GradientCompressor;
use crate::error::CompressError;
use crate::gradient::SparseGradient;
use crate::scratch::CompressScratch;
use bytes::{Buf, BufMut, BytesMut};
use serde::{Deserialize, Serialize};
use sketchml_encoding::stats::SizeReport;
use sketchml_encoding::{bitpack, delta_binary, varint};
use sketchml_sketches::quantile::{MergingQuantileSketch, QuantileSketch};
use sketchml_telemetry as telemetry;

/// Result of quantile-bucket quantification over one value array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Quantization {
    /// `q + 1` monotone split points (§3.2 Step 1).
    pub splits: Vec<f64>,
    /// `q` bucket means, `means[i] = (splits[i] + splits[i+1]) / 2`
    /// (§3.2 Step 2).
    pub means: Vec<f64>,
    /// Per-input bucket index in `[0, q)`, ascending-value order
    /// (§3.2 Step 3).
    pub indexes: Vec<u16>,
}

impl Quantization {
    /// Number of buckets `q`.
    pub fn q(&self) -> u16 {
        self.means.len() as u16
    }

    /// Decodes index `i` back to its bucket mean (§3.1 Decode step 4).
    pub fn decode(&self, index: u16) -> Option<f64> {
        self.means.get(index as usize).copied()
    }
}

/// Assigns `value` to a bucket given `q + 1` splits: bucket `i` covers
/// `[splits[i], splits[i+1])`, the last bucket closed above.
#[inline]
pub fn bucket_of(splits: &[f64], value: f64) -> u16 {
    debug_assert!(splits.len() >= 2);
    let q = splits.len() - 1;
    // Interior splits are splits[1..q]; count how many are <= value.
    let idx = splits[1..q].partition_point(|&s| s <= value);
    idx as u16
}

/// Maps a finite f64 to a u64 whose unsigned order matches f64 `<=` order.
/// `v + 0.0` first canonicalizes `-0.0` to `+0.0`, so the two zero bit
/// patterns (equal under `<=` but 2^63 apart as raw bits) share one key.
#[inline]
fn order_key(v: f64) -> u64 {
    let b = (v + 0.0).to_bits();
    // Branchless sign transform: an arithmetic shift smears the sign bit
    // into `s` (all-ones for negatives, zero otherwise), so the xor below
    // is `!b` for negatives and `b | MSB` for positives — value signs are
    // data-dependent, so a conditional here would mispredict.
    let s = ((b as i64) >> 63) as u64;
    b ^ (s | (1 << 63))
}

/// Flat lookup table replacing [`bucket_of`]'s per-value binary search on
/// the hot path. Built once per quantization: interior splits are mapped to
/// monotone `order_key`s, and a slot table over the key range stores, per
/// slot, how many interior splits precede it. A lookup is then one key
/// transform, one shift, one table load, and a short linear fixup — no
/// branch mispredictions from a log₂ q search per value.
///
/// In debug builds every lookup asserts agreement with the binary-search
/// slow path.
#[derive(Debug, Default)]
pub struct BucketTable {
    base: u64,
    shift: u32,
    /// `order_key` of each interior split, ascending, followed by
    /// [`INTERIOR_PAD`] `u64::MAX` sentinels so the batch fixup can read a
    /// fixed-width window without bounds checks (no finite f64 maps to
    /// `u64::MAX` — that would be a NaN bit pattern).
    interior: Vec<u64>,
    /// Number of real (non-sentinel) interior keys.
    m: usize,
    /// `slots[i]` = number of interior keys mapping to a slot `< i`.
    slots: Vec<u16>,
}

/// Sentinel entries appended to [`BucketTable::interior`]; also the width of
/// the branch-free fixup window in [`BucketTable::resolve`].
const INTERIOR_PAD: usize = 4;

impl BucketTable {
    /// Rebuilds the table for a monotone `q + 1` split array, reusing the
    /// existing buffers.
    pub fn rebuild(&mut self, splits: &[f64]) {
        debug_assert!(splits.len() >= 2);
        let q = splits.len() - 1;
        self.interior.clear();
        self.slots.clear();
        self.interior
            .extend(splits[1..q].iter().map(|&s| order_key(s)));
        self.m = self.interior.len();
        let (Some(&first), Some(&last)) = (self.interior.first(), self.interior.last()) else {
            return; // q == 1: everything is bucket 0.
        };
        debug_assert!(self.interior.windows(2).all(|w| w[0] <= w[1]));
        self.interior.extend([u64::MAX; INTERIOR_PAD]);
        let span = last - first;
        // ~4 slots per split keeps the linear fixup under one step on
        // average; the cap bounds rebuild cost for adversarial ranges.
        let cap = (4 * self.interior.len())
            .next_power_of_two()
            .clamp(64, 4096) as u64;
        let mut shift = 0u32;
        while (span >> shift) + 1 > cap {
            shift += 1;
        }
        self.base = first;
        self.shift = shift;
        let nslots = ((span >> shift) + 1) as usize;
        self.slots.resize(nslots + 1, 0);
        for &k in &self.interior[..self.m] {
            self.slots[((k - first) >> shift) as usize + 1] += 1;
        }
        for i in 1..self.slots.len() {
            self.slots[i] += self.slots[i - 1];
        }
    }

    /// Bucket of `value`; identical to `bucket_of(splits, value)` for the
    /// `splits` this table was rebuilt from (debug-asserted).
    #[inline]
    pub fn lookup(&self, splits: &[f64], value: f64) -> u16 {
        let got = self.lookup_fast(value);
        debug_assert_eq!(
            got,
            bucket_of(splits, value),
            "bucket table fast path disagrees with binary search for {value}"
        );
        got
    }

    #[inline]
    fn lookup_fast(&self, value: f64) -> u16 {
        if self.m == 0 {
            return 0;
        }
        let k = order_key(value);
        if k < self.base {
            return 0;
        }
        let slot = (((k - self.base) >> self.shift) as usize).min(self.slots.len() - 2);
        self.resolve(self.slots[slot] as usize, k)
    }

    /// Walks `interior` forward from the slot-table starting point `idx` to
    /// the number of interior keys `<= k`. The first [`INTERIOR_PAD`] steps
    /// are a branch-free window of predicated adds (the slot table keeps the
    /// true distance under one step on average, but *which* values need a
    /// step is a coin flip the branchy loop mispredicts on); the sentinel
    /// padding makes the window reads in-bounds for every `idx <= m`. Only
    /// when the window saturates — rare, well-predicted — does the open
    /// loop run.
    #[inline]
    fn resolve(&self, mut idx: usize, k: u64) -> u16 {
        debug_assert!(k < u64::MAX, "u64::MAX order key is a NaN bit pattern");
        let w = &self.interior[idx..idx + INTERIOR_PAD];
        let c = (w[0] <= k) as usize
            + (w[1] <= k) as usize
            + (w[2] <= k) as usize
            + (w[3] <= k) as usize;
        idx += c;
        if c == INTERIOR_PAD {
            while idx < self.m && self.interior[idx] <= k {
                idx += 1;
            }
        }
        idx as u16
    }

    /// Batch counterpart of [`Self::lookup`]: clears `out` and fills it with
    /// the bucket of every value (`BENCHMARK.json` row
    /// `core.bucket_lookup_mitems_per_s`). Same transform as
    /// `Self::lookup_fast` but with the below-range early-out replaced by
    /// a mask (out-of-range keys wrap on subtract, but the clamped slot stays
    /// in bounds and the masked start index is 0, which `Self::resolve`
    /// leaves untouched because `k < interior[0]`). Scalar on every CPU: the
    /// slot-table load and the window fixup have no vector form (no u16
    /// gather), and an AVX2 order-key/slot prologue in front of them does
    /// not win the row.
    pub fn lookup_into(&self, splits: &[f64], values: &[f64], out: &mut Vec<u16>) {
        out.clear();
        out.resize(values.len(), 0);
        if self.m == 0 {
            debug_assert!(values.iter().all(|&v| bucket_of(splits, v) == 0));
            return;
        }
        let maxslot = self.slots.len() - 2;
        for (o, &v) in out.iter_mut().zip(values) {
            let k = order_key(v);
            let mask = ((k >= self.base) as usize).wrapping_neg();
            let slot = ((k.wrapping_sub(self.base) >> self.shift) as usize).min(maxslot);
            let idx = self.slots[slot] as usize & mask;
            *o = self.resolve(idx, k);
        }
        debug_assert!(out
            .iter()
            .zip(values)
            .all(|(&got, &v)| got == bucket_of(splits, v)));
    }
}

/// Runs quantile-bucket quantification over `values` with (at most) `q`
/// buckets using a quantile sketch of `sketch_capacity` (§3.2 Steps 1–3):
/// [`quantize_into`] on a fresh [`QuantScratch`], its buffers handed out.
///
/// The effective bucket count is capped at `max(8, n / cap_divisor)` (and
/// never above `n`): the paper's `q = 256` assumes gradients with millions
/// of pairs, where the `8q`-byte means table is negligible (§3.5, "q << d
/// in most cases"). A scaled-down gradient keeps the same *relative*
/// overhead by scaling `q` down with it; accuracy is unaffected in practice
/// because a gradient with few values needs few equi-depth buckets to
/// describe. `cap_divisor = 32` reproduces the paper's overhead regime;
/// smaller divisors trade bytes for finer buckets (the Figure 13
/// sensitivity axis).
///
/// # Errors
/// [`CompressError::InvalidConfig`] if `q == 0` or `cap_divisor == 0`;
/// [`CompressError::InvalidGradient`] if `values` is empty.
pub fn quantize(
    values: &[f64],
    q: u16,
    sketch_capacity: usize,
    cap_divisor: usize,
) -> Result<Quantization, CompressError> {
    let mut qs = QuantScratch::default();
    quantize_into(values, q, sketch_capacity, cap_divisor, &mut qs)?;
    Ok(Quantization {
        splits: qs.splits,
        means: qs.means,
        indexes: qs.indexes,
    })
}

/// Pooled buffers for [`quantize_into`]: the quantile sketch, its weighted-
/// item scratch, and the split/mean/index outputs, all reused across calls.
#[derive(Debug, Default)]
pub struct QuantScratch {
    sketch: Option<MergingQuantileSketch>,
    items: Vec<(f64, u64)>,
    pub(crate) splits: Vec<f64>,
    pub(crate) means: Vec<f64>,
    pub(crate) indexes: Vec<u16>,
    table: BucketTable,
}

/// Quantile-bucket quantification into pooled buffers: fills `qs.splits` /
/// `qs.means` / `qs.indexes`, performing zero heap allocations in steady
/// state. A warm `qs` yields *exactly* what a fresh one does (the reused
/// sketch is [`MergingQuantileSketch::reset`] so its compaction parity
/// replays identically). Bucket indexes are
/// assigned through a [`BucketTable`], debug-asserted against the per-value
/// binary search [`bucket_of`].
///
/// # Errors
/// Same contract as [`quantize`].
pub fn quantize_into(
    values: &[f64],
    q: u16,
    sketch_capacity: usize,
    cap_divisor: usize,
    qs: &mut QuantScratch,
) -> Result<(), CompressError> {
    if q == 0 {
        return Err(CompressError::InvalidConfig("q must be positive".into()));
    }
    if cap_divisor == 0 {
        return Err(CompressError::InvalidConfig(
            "cap_divisor must be positive".into(),
        ));
    }
    if values.is_empty() {
        return Err(CompressError::InvalidGradient(
            "cannot quantize an empty value array".into(),
        ));
    }
    let q_eff = (q as usize)
        .min((values.len() / cap_divisor).max(8))
        .min(values.len()) as u16;
    {
        let _t = telemetry::time(telemetry::Stage::QuantileBuild);
        let cap = sketch_capacity.max(2);
        let sketch = match &mut qs.sketch {
            Some(s) if s.capacity() == cap => {
                s.reset();
                s
            }
            slot => slot.insert(MergingQuantileSketch::new(cap)?),
        };
        sketch.extend_from_slice(values);
        sketch.splits_into(q_eff as usize, &mut qs.items, &mut qs.splits)?;
    }
    let _t = telemetry::time(telemetry::Stage::Bucketize);
    qs.means.clear();
    qs.means
        .extend(qs.splits.windows(2).map(|w| (w[0] + w[1]) / 2.0));
    qs.table.rebuild(&qs.splits);
    qs.table.lookup_into(&qs.splits, values, &mut qs.indexes);
    Ok(())
}

/// Appendix A.1 variance bound: `E‖g − ĝ‖² <= d/(4q) · (φ²min + φ²max)`.
pub fn variance_bound(d: usize, q: u16, phi_min: f64, phi_max: f64) -> f64 {
    d as f64 / (4.0 * q as f64) * (phi_min * phi_min + phi_max * phi_max)
}

/// Empirical quantification variance `Σ (v_i − mean(bucket(v_i)))²`.
pub fn empirical_variance(values: &[f64], quant: &Quantization) -> f64 {
    values
        .iter()
        .zip(&quant.indexes)
        .map(|(&v, &b)| {
            let m = quant.means[b as usize];
            (v - m) * (v - m)
        })
        .sum()
}

/// The `Adam+Key+Quan` ablation compressor (Figure 8): delta-binary keys +
/// quantile-bucket quantification with **exact** bit-packed indexes (the
/// MinMaxSketch stage is bypassed).
///
/// Unlike the full pipeline, this variant quantifies positive and negative
/// values together, exactly as Figure 3 depicts — which is what exposes the
/// "reversed gradient, Case 1" hazard that §3.3's Solution 1 later fixes.
#[derive(Debug, Clone)]
pub struct QuantCompressor {
    /// Maximum bucket count `q` (default 256).
    pub buckets: u16,
    /// Quantile sketch capacity `m` (default 128).
    pub sketch_capacity: usize,
}

impl Default for QuantCompressor {
    fn default() -> Self {
        QuantCompressor {
            buckets: 256,
            sketch_capacity: 128,
        }
    }
}

const QUANT_MAGIC: u8 = 0xA5;

impl GradientCompressor for QuantCompressor {
    fn name(&self) -> &'static str {
        "Adam+Key+Quan"
    }

    fn compress_into(
        &self,
        grad: &SparseGradient,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        if self.buckets == 0 {
            return Err(CompressError::InvalidConfig(
                "buckets must be positive".into(),
            ));
        }
        out.clear();
        out.put_u8(QUANT_MAGIC);
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
        let header_so_far = out.len();
        let key_bytes = delta_binary::encode_keys_into(grad.keys(), out)?;

        quantize_into(
            grad.values(),
            self.buckets,
            self.sketch_capacity,
            32,
            &mut scratch.quant,
        )?;
        let q = scratch.quant.means.len() as u16;
        let before_values = out.len();
        varint::write_u64(out, q as u64);
        for &m in &scratch.quant.means {
            out.put_f64_le(m);
        }
        let bits = bitpack::bits_for(q.saturating_sub(1));
        out.put_u8(bits as u8);
        bitpack::pack_u16_into(&scratch.quant.indexes, bits, out)?;

        report.key_bytes = key_bytes;
        report.value_bytes = out.len() - before_values;
        report.header_bytes = header_so_far;
        Ok(report)
    }

    fn decompress_into(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
        out: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        let mut buf = payload;
        if !buf.has_remaining() || buf.get_u8() != QUANT_MAGIC {
            return Err(CompressError::Corrupt("bad Adam+Key+Quan magic".into()));
        }
        let dim = varint::read_u64(&mut buf)?;
        let nnz = varint::read_u64(&mut buf)? as usize;
        if nnz == 0 {
            return out.assign(dim, &[], &[]);
        }
        delta_binary::decode_keys_into(&mut buf, &mut scratch.dec_keys)?;
        if scratch.dec_keys.len() != nnz {
            return Err(CompressError::Corrupt(format!(
                "declared {nnz} pairs but decoded {} keys",
                scratch.dec_keys.len()
            )));
        }
        let q = varint::read_u64(&mut buf)? as usize;
        // Checked multiply: a wire-controlled q must not wrap past the
        // remaining-bytes test (each mean costs 8 bytes + 1 bit-width byte).
        let means_need = q
            .checked_mul(8)
            .and_then(|b| b.checked_add(1))
            .ok_or_else(|| CompressError::Corrupt(format!("bucket count {q} overflows")))?;
        if q == 0 || buf.remaining() < means_need {
            return Err(CompressError::Corrupt("truncated bucket means".into()));
        }
        scratch.dec_means.clear();
        scratch.dec_means.reserve(q);
        for _ in 0..q {
            scratch.dec_means.push(buf.get_f64_le());
        }
        let bits = buf.get_u8() as u32;
        bitpack::unpack_u16_into(&mut buf, nnz, bits, &mut scratch.dec_idx)?;
        scratch.dec_vals.clear();
        scratch.dec_vals.reserve(nnz);
        for &i in &scratch.dec_idx {
            let m = scratch.dec_means.get(i as usize).copied().ok_or_else(|| {
                CompressError::Corrupt(format!("bucket index {i} out of range {q}"))
            })?;
            scratch.dec_vals.push(m);
        }
        out.assign(dim, &scratch.dec_keys, &scratch.dec_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn skewed_values(n: usize, seed: u64) -> Vec<f64> {
        // Figure 4-like distribution: dense near zero, thin tails.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                sign * rng.gen::<f64>().powi(6) * 0.35
            })
            .collect()
    }

    #[test]
    fn bucket_of_respects_split_boundaries() {
        let splits = [0.0, 1.0, 2.0, 3.0];
        assert_eq!(bucket_of(&splits, -0.5), 0);
        assert_eq!(bucket_of(&splits, 0.0), 0);
        assert_eq!(bucket_of(&splits, 0.99), 0);
        assert_eq!(bucket_of(&splits, 1.0), 1);
        assert_eq!(bucket_of(&splits, 2.5), 2);
        assert_eq!(bucket_of(&splits, 3.0), 2);
        assert_eq!(bucket_of(&splits, 99.0), 2);
    }

    #[test]
    fn bucket_table_agrees_with_binary_search() {
        let mut rng = StdRng::seed_from_u64(71);
        let mut table = BucketTable::default();
        for _ in 0..50 {
            let n = rng.gen_range(2..40usize);
            let mut splits: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
            splits.sort_by(f64::total_cmp);
            // Inject duplicate splits (clamped-monotone outputs have them).
            if n > 4 {
                splits[2] = splits[1];
            }
            table.rebuild(&splits);
            for _ in 0..500 {
                let v = rng.gen::<f64>() * 6.0 - 3.0;
                assert_eq!(table.lookup(&splits, v), bucket_of(&splits, v), "v={v}");
            }
            for &s in &splits {
                assert_eq!(table.lookup(&splits, s), bucket_of(&splits, s));
                let lo = f64::from_bits(s.to_bits().wrapping_sub(1));
                let hi = f64::from_bits(s.to_bits().wrapping_add(1));
                for probe in [lo, hi] {
                    if probe.is_finite() {
                        assert_eq!(table.lookup(&splits, probe), bucket_of(&splits, probe));
                    }
                }
            }
        }
    }

    #[test]
    fn bucket_table_handles_signed_zero_and_degenerate_splits() {
        let mut table = BucketTable::default();
        // -0.0 and 0.0 compare equal under f64 <= but have distant bit
        // patterns; the order-key canonicalization must agree with bucket_of.
        let splits = [-1.0, -0.0, 1.0];
        table.rebuild(&splits);
        for v in [-2.0, -0.5, -0.0, 0.0, 0.5, 2.0, -1.0, 1.0] {
            assert_eq!(table.lookup(&splits, v), bucket_of(&splits, v), "v={v}");
        }
        let splits = [0.0, -0.0, 5.0]; // interior split is -0.0 itself
        table.rebuild(&splits);
        for v in [-0.0, 0.0, 1.0, -1.0] {
            assert_eq!(table.lookup(&splits, v), bucket_of(&splits, v), "v={v}");
        }
        // q = 1: no interior splits, everything is bucket 0.
        let splits = [3.0, 7.0];
        table.rebuild(&splits);
        assert_eq!(table.lookup(&splits, 100.0), 0);
        // All splits identical (constant gradient side).
        let splits = [2.0, 2.0, 2.0, 2.0];
        table.rebuild(&splits);
        for v in [1.0, 2.0, 3.0] {
            assert_eq!(table.lookup(&splits, v), bucket_of(&splits, v), "v={v}");
        }
    }

    #[test]
    fn quantize_into_matches_quantize_bitwise_across_reuse() {
        // One warm scratch carried across sizes and capacities (so the
        // pooled sketch, item buffer and bucket table all shrink, grow and
        // get replaced) must produce exactly what a fresh scratch —
        // `quantize` — does, including right after an error.
        let mut qs = QuantScratch::default();
        let rounds = [
            (500usize, 128usize),
            (3_000, 128),
            (120, 64),
            (9_000, 128),
            (7, 128),
            (2_000, 32),
            (9_000, 128),
        ];
        for (i, &(n, cap)) in rounds.iter().enumerate() {
            let values = skewed_values(n, 80 + i as u64);
            let fresh = quantize(&values, 256, cap, 32).unwrap();
            quantize_into(&values, 256, cap, 32, &mut qs).unwrap();
            assert_eq!(qs.splits, fresh.splits, "round {i}: splits diverged");
            assert_eq!(qs.means, fresh.means, "round {i}: means diverged");
            assert_eq!(qs.indexes, fresh.indexes, "round {i}: indexes diverged");
            for (&v, &b) in values.iter().zip(&qs.indexes) {
                assert_eq!(b, bucket_of(&qs.splits, v), "round {i}: bucket of {v}");
            }
            assert!(quantize_into(&[], 8, cap, 32, &mut qs).is_err());
        }
        assert!(quantize_into(&[1.0], 0, 128, 32, &mut qs).is_err());
        assert!(quantize_into(&[1.0], 8, 128, 0, &mut qs).is_err());
    }

    #[test]
    fn quantize_produces_consistent_shapes() {
        let values = skewed_values(5_000, 61);
        let q = quantize(&values, 64, 128, 32).unwrap();
        assert_eq!(q.q(), 64);
        assert_eq!(q.splits.len(), 65);
        assert_eq!(q.means.len(), 64);
        assert_eq!(q.indexes.len(), values.len());
        for w in q.splits.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for (i, &m) in q.means.iter().enumerate() {
            assert!(m >= q.splits[i] && m <= q.splits[i + 1]);
        }
    }

    #[test]
    fn quantize_caps_buckets_at_value_count() {
        let q = quantize(&[1.0, 2.0, 3.0], 256, 128, 32).unwrap();
        assert_eq!(q.q(), 3);
        assert_eq!(quantize(&[5.0], 256, 128, 32).unwrap().q(), 1);
    }

    #[test]
    fn quantize_rejects_bad_inputs() {
        assert!(quantize(&[], 8, 128, 32).is_err());
        assert!(quantize(&[1.0], 0, 128, 32).is_err());
        assert!(quantize(&[1.0], 8, 128, 0).is_err());
    }

    #[test]
    fn buckets_are_equi_depth_on_skewed_data() {
        // The whole point vs uniform quantification: each bucket holds
        // roughly n/q values even when the distribution is skewed.
        let values = skewed_values(20_000, 62);
        let q = quantize(&values, 16, 256, 32).unwrap();
        let mut counts = [0usize; 16];
        for &i in &q.indexes {
            counts[i as usize] += 1;
        }
        let expect = values.len() / 16;
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect as f64).abs() < expect as f64 * 0.5,
                "bucket {b}: {c} vs ~{expect}"
            );
        }
    }

    #[test]
    fn variance_within_appendix_a1_bound() {
        let values = skewed_values(10_000, 63);
        for q in [16u16, 64, 256] {
            let quant = quantize(&values, q, 256, 32).unwrap();
            let observed = empirical_variance(&values, &quant);
            let phi_min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let phi_max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let bound = variance_bound(values.len(), quant.q(), phi_min, phi_max);
            assert!(
                observed <= bound,
                "q={q}: observed variance {observed} exceeds A.1 bound {bound}"
            );
        }
    }

    #[test]
    fn more_buckets_reduce_variance() {
        let values = skewed_values(10_000, 64);
        let v16 = empirical_variance(&values, &quantize(&values, 16, 256, 32).unwrap());
        let v256 = empirical_variance(&values, &quantize(&values, 256, 256, 32).unwrap());
        assert!(v256 < v16, "q=256 variance {v256} !< q=16 variance {v16}");
    }

    #[test]
    fn quant_compressor_roundtrip_preserves_keys_exactly() {
        let mut rng = StdRng::seed_from_u64(65);
        let dim = 100_000u64;
        let mut keys: Vec<u64> = (0..2_000u64).map(|_| rng.gen_range(0..dim)).collect();
        keys.sort_unstable();
        keys.dedup();
        let values = skewed_values(keys.len(), 66);
        let grad = SparseGradient::new(dim, keys.clone(), values).unwrap();

        let c = QuantCompressor::default();
        let msg = c.compress(&grad).unwrap();
        let decoded = c.decompress(&msg.payload).unwrap();
        assert_eq!(decoded.keys(), grad.keys(), "keys must be lossless");
        assert_eq!(decoded.dim(), dim);
        // Values land on bucket means: bounded error.
        for ((_, v), (_, d)) in grad.iter().zip(decoded.iter()) {
            assert!((v - d).abs() < 0.35, "error too large: {v} vs {d}");
        }
    }

    #[test]
    fn quant_compressor_compresses_well() {
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 13).collect();
        let values = skewed_values(keys.len(), 67);
        let grad = SparseGradient::new(200_000, keys, values).unwrap();
        let msg = QuantCompressor::default().compress(&grad).unwrap();
        // 12 bytes/pair raw → expect > 4x compression.
        assert!(
            msg.report.compression_rate() > 4.0,
            "rate {}",
            msg.report.compression_rate()
        );
    }

    #[test]
    fn quant_compressor_empty_gradient() {
        let g = SparseGradient::empty(1000);
        let c = QuantCompressor::default();
        let msg = c.compress(&g).unwrap();
        let decoded = c.decompress(&msg.payload).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(decoded.dim(), 1000);
    }

    #[test]
    fn quant_compressor_rejects_garbage() {
        let c = QuantCompressor::default();
        assert!(c.decompress(&[]).is_err());
        assert!(c.decompress(&[0xFF, 1, 2, 3]).is_err());
        // Truncations of a valid message must error, never panic.
        let grad = SparseGradient::new(100, vec![1, 5, 9], vec![0.1, -0.2, 0.3]).unwrap();
        let msg = c.compress(&grad).unwrap();
        for cut in 0..msg.payload.len() {
            let _ = c.decompress(&msg.payload[..cut]);
        }
    }

    #[test]
    fn quantization_decode_maps_indexes_to_means() {
        let values = skewed_values(1_000, 99);
        let q = quantize(&values, 16, 128, 32).unwrap();
        for (i, &m) in q.means.iter().enumerate() {
            assert_eq!(q.decode(i as u16), Some(m));
        }
        assert_eq!(q.decode(q.q()), None);
    }
}
