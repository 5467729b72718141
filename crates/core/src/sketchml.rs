//! The full SketchML compressor (paper §3, Figure 2).
//!
//! Encode phase, exactly as §3.1 lists it — with the §3.3 refinements:
//!
//! 1. Values are split by sign and each side is summarized by its own
//!    quantile sketch (§3.3 Solution 1: "Separation of Positive/Negative
//!    Gradients"), producing equi-depth buckets whose splits never straddle
//!    zero.
//! 2. Bucket indexes are *normalized by magnitude*: index 0 is the bucket
//!    closest to zero on either side. The MinMaxSketch's insert-min rule
//!    then decays gradient **magnitude**, which implements "choose the
//!    bucket index closest to the minimum bucket" and eliminates both
//!    reversed-gradient cases of Figure 6.
//! 3. Indexes are inserted into a **grouped** MinMaxSketch (§3.3 Solution 2,
//!    `r` groups) keyed by the gradient keys: one row of d/5 columns by
//!    default, where §4.1 sizes it 2 × d/5 (see [`SketchMlConfig::rows`]).
//! 4. Keys are partitioned into `(sign, group)` sections and each section is
//!    delta-binary encoded (§3.4; Appendix A.3's `d/r` keys-per-group and
//!    `rD/d` expected-gap analysis describes precisely this sectioning). The
//!    section a key sits in tells the decoder which group's sketch to query.
//!
//! Decode phase (§3.1): restore keys per section, query the section's
//! MinMaxSketch for the (underestimated) bucket index, and map it to the
//! bucket mean.
//!
//! One step ahead of the paper's pipeline: the ⌊n/64⌋ pairs of largest |v|
//! skip it and ship exact, as one delta-binary key section with f64 values
//! (frame version 2). The MinMaxSketch can only lower an index, so a side's
//! top bucket decodes near half its magnitude, and the top 1 % of |v| hold
//! most of ‖g‖²: sending those exactly is SketchSGD's recipe (second round
//! of bagua's `sketch.py`), and the quantile sketch of the rest no longer
//! sees the tail. §3.3's guarantee is kept: sketched values only decay, exact
//! ones are the values sent. DESIGN.md §2 has the frame layout.

use crate::compressor::GradientCompressor;
use crate::error::CompressError;
use crate::gradient::SparseGradient;
use crate::quantify::quantize_into;
use crate::scratch::CompressScratch;
use bytes::{Buf, BufMut, BytesMut};
use serde::{Deserialize, Serialize};
use sketchml_encoding::stats::SizeReport;
use sketchml_encoding::{bitpack, delta_binary, varint};
use sketchml_sketches::hash::push_row_seeds;
use sketchml_sketches::minmax::{group_seed, insert_batch_raw, query_batch_raw, EMPTY_CELL};
use sketchml_telemetry as telemetry;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The four sign-partition buffers of [`partition_signs`], positives first.
type Sides<'a> = (
    &'a mut Vec<u64>,
    &'a mut Vec<f64>,
    &'a mut Vec<u64>,
    &'a mut Vec<f64>,
);

/// Branchless stable sign partition (§3.3 Solution 1), appending to the
/// sides. Gradient signs are ~50/50 and uncorrelated, so the obvious
/// `if v < 0.0` loop mispredicts on every other pair; instead each pair is
/// written to *both* sides' spare capacity and only the matching cursor
/// advances (a predicated add the compiler keeps branch-free). Output order
/// and the NaN/-0.0 placement are exactly those of the branchy loop:
/// anything not `< 0.0` goes positive.
fn partition_signs(keys: &[u64], values: &[f64], sides: Sides<'_>) {
    let (pos_keys, pos_vals, neg_keys, neg_vals) = sides;
    let n = keys.len();
    debug_assert_eq!(values.len(), n);
    #[cfg(debug_assertions)]
    let (p0, m0) = (pos_keys.len(), neg_keys.len());
    pos_keys.reserve(n);
    pos_vals.reserve(n);
    neg_keys.reserve(n);
    neg_vals.reserve(n);
    let (mut p, mut m) = (0usize, 0usize);
    // SAFETY: both sides reserved `n` slots past their length and
    // `p + m == i <= n` at every step, so all writes land in spare capacity
    // (the AVX2 block stores 4 slots at cursor `p <= i <= n - 4`, still
    // within the reserved `n`); `set_len` only exposes slots that were
    // written (every slot below the final cursor was the "matching" write of
    // some iteration). u64/f64 are Copy with no drop.
    unsafe {
        let pk = pos_keys.as_mut_ptr().add(pos_keys.len());
        let pv = pos_vals.as_mut_ptr().add(pos_vals.len());
        let nk = neg_keys.as_mut_ptr().add(neg_keys.len());
        let nv = neg_vals.as_mut_ptr().add(neg_vals.len());
        let mut i = 0usize;
        #[cfg(target_arch = "x86_64")]
        if sketchml_sketches::simd::lanes_active() {
            (p, m, i) = partition_avx2(keys, values, pk, pv, nk, nv);
        }
        while i < n {
            let k = *keys.get_unchecked(i);
            let v = *values.get_unchecked(i);
            let is_neg = (v < 0.0) as usize;
            *pk.add(p) = k;
            *pv.add(p) = v;
            *nk.add(m) = k;
            *nv.add(m) = v;
            p += 1 - is_neg;
            m += is_neg;
            i += 1;
        }
        pos_keys.set_len(pos_keys.len() + p);
        pos_vals.set_len(pos_vals.len() + p);
        neg_keys.set_len(neg_keys.len() + m);
        neg_vals.set_len(neg_vals.len() + m);
    }
    #[cfg(debug_assertions)]
    {
        let (mut ep, mut em) = (p0, m0);
        for (&k, &v) in keys.iter().zip(values) {
            if v < 0.0 {
                assert!(neg_keys[em] == k && neg_vals[em].to_bits() == v.to_bits());
                em += 1;
            } else {
                assert!(pos_keys[ep] == k && pos_vals[ep].to_bits() == v.to_bits());
                ep += 1;
            }
        }
        assert!(ep == pos_keys.len() && em == neg_keys.len());
    }
}

/// |v| as ordered bits: non-negative floats order as their bit patterns.
fn magnitude_bits(v: f64) -> u64 {
    v.to_bits() & !(1 << 63)
}

/// Pairs per block of the exact split's scan: a block whose largest |v|
/// is below the bar is passed over with one compare.
const SCAN_BLOCK: usize = 16;

/// Largest [`magnitude_bits`] of a block.
fn block_max(block: &[f64]) -> u64 {
    block.iter().fold(0, |m, &v| m.max(magnitude_bits(v)))
}

/// Splits a gradient for the encoder: the `exact` pairs of largest |v|
/// onto `scratch.exact_keys`/`exact_vals` in key order, every other pair
/// sign-partitioned onto `sides` (cleared first) as [`partition_signs`]
/// would have partitioned them alone. Pairs at the threshold go to the
/// smallest keys, so the split depends on the gradient alone.
///
/// One pass over [`SCAN_BLOCK`]s keeps a min-heap of the `exact` largest
/// |v| seen so far; a block whose largest |v| is below the heap's least is
/// passed over, and the threshold only rises, so no pair of a passed block
/// is shipped exact. The few blocks left (`scratch.blocks`) are walked
/// again against the final threshold, and the pairs between two exact ones
/// are partitioned straight from the gradient.
fn split_exact(
    keys: &[u64],
    values: &[f64],
    exact: usize,
    scratch: &mut CompressScratch,
    sides: Sides<'_>,
) {
    let (pos_keys, pos_vals, neg_keys, neg_vals) = sides;
    pos_keys.clear();
    pos_vals.clear();
    neg_keys.clear();
    neg_vals.clear();
    scratch.exact_keys.clear();
    scratch.exact_vals.clear();
    scratch.blocks.clear();
    let mut from = 0;
    if exact > 0 {
        let mut top = std::mem::take(&mut scratch.top);
        top.clear();
        top.reserve(exact);
        let mut top = BinaryHeap::from(top);
        // The heap's least |v| once it is full; 0 lets every pair in before.
        let mut threshold = 0;
        for (b, block) in values.chunks(SCAN_BLOCK).enumerate() {
            if top.len() == exact && block_max(block) < threshold {
                continue;
            }
            scratch.blocks.push(b);
            for &v in block {
                let bits = magnitude_bits(v);
                if top.len() < exact {
                    top.push(Reverse(bits));
                } else if bits > threshold {
                    if let Some(mut least) = top.peek_mut() {
                        *least = Reverse(bits);
                    }
                }
                if top.len() == exact {
                    threshold = top.peek().map_or(0, |m| m.0);
                }
            }
        }
        let mut ties = exact - top.iter().filter(|m| m.0 > threshold).count();
        scratch.top = top.into_vec();
        for &b in &scratch.blocks {
            let start = b * SCAN_BLOCK;
            let block = &values[start..values.len().min(start + SCAN_BLOCK)];
            for (i, &v) in (start..).zip(block) {
                let bits = magnitude_bits(v);
                if bits > threshold || (bits == threshold && ties > 0) {
                    ties -= usize::from(bits == threshold);
                    partition_signs(
                        &keys[from..i],
                        &values[from..i],
                        (pos_keys, pos_vals, neg_keys, neg_vals),
                    );
                    scratch.exact_keys.push(keys[i]);
                    scratch.exact_vals.push(v);
                    from = i + 1;
                }
            }
        }
    }
    partition_signs(
        &keys[from..],
        &values[from..],
        (pos_keys, pos_vals, neg_keys, neg_vals),
    );
    debug_assert_eq!(scratch.exact_keys.len(), exact.min(values.len()));
}

/// AVX2 body of [`partition_signs`]: four pairs per iteration. The sign
/// mask (`v < 0.0`, so NaN and -0.0 land positive exactly like the scalar
/// compare) indexes two compaction LUTs of `vpermd` lane patterns — one
/// packing the positive pairs front-first, one the negatives — and each
/// side gets one full-vector store at its cursor, of which only the packed
/// prefix is later exposed. Returns `(p, m, i)` cursors for the scalar tail.
///
/// # Safety
/// Caller must have verified AVX2 support, reserved `keys.len()` slots
/// behind each output pointer, and `values.len() == keys.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn partition_avx2(
    keys: &[u64],
    values: &[f64],
    pk: *mut u64,
    pv: *mut f64,
    nk: *mut u64,
    nv: *mut f64,
) -> (usize, usize, usize) {
    use core::arch::x86_64::*;
    // `PACK[m][side]` = epi32 lane indices moving the u64 lanes whose mask
    // bit is clear (side 0) / set (side 1) to the front, in order.
    const PACK: [[[u32; 8]; 2]; 16] = {
        let mut luts = [[[0u32; 8]; 2]; 16];
        let mut msk = 0usize;
        while msk < 16 {
            let mut cur = [0usize; 2];
            let mut lane = 0u32;
            while lane < 4 {
                let side = (msk >> lane) & 1;
                luts[msk][side][2 * cur[side]] = 2 * lane;
                luts[msk][side][2 * cur[side] + 1] = 2 * lane + 1;
                cur[side] += 1;
                lane += 1;
            }
            msk += 1;
        }
        luts
    };
    let n = keys.len();
    let zero = _mm256_setzero_pd();
    let (mut p, mut m) = (0usize, 0usize);
    let mut i = 0usize;
    while i + 4 <= n {
        let kv = _mm256_loadu_si256(keys.as_ptr().add(i).cast());
        let vv = _mm256_loadu_pd(values.as_ptr().add(i));
        let msk = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(vv, zero)) as usize;
        let pos_idx = _mm256_loadu_si256(PACK[msk][0].as_ptr().cast());
        let neg_idx = _mm256_loadu_si256(PACK[msk][1].as_ptr().cast());
        _mm256_storeu_si256(pk.add(p).cast(), _mm256_permutevar8x32_epi32(kv, pos_idx));
        _mm256_storeu_pd(
            pv.add(p),
            _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(vv), pos_idx)),
        );
        _mm256_storeu_si256(nk.add(m).cast(), _mm256_permutevar8x32_epi32(kv, neg_idx));
        _mm256_storeu_pd(
            nv.add(m),
            _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(vv), neg_idx)),
        );
        let neg = msk.count_ones() as usize;
        p += 4 - neg;
        m += neg;
        i += 4;
    }
    (p, m, i)
}

/// Hyper-parameters of the SketchML pipeline (defaults follow §4.1/§B.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SketchMlConfig {
    /// Quantile sketch size `m` (default 128 — §4.1 "The size of quantile
    /// sketch is 128 by default").
    pub quantile_sketch_capacity: usize,
    /// Buckets per sign; both sides together give the paper's `q = 256`
    /// ("we find that q = 256 is often enough", §3.2).
    pub buckets_per_sign: u16,
    /// MinMaxSketch rows `s` (default 1). §4.1 sizes the sketch `2 × d/5`
    /// and §B.2 shows rows = 4 converging *slower* on its extra bytes. At
    /// the same cells one row decays an index less than two: its cells hold
    /// half as many keys, and for the large indexes that carry the norm one
    /// lightly loaded cell is likelier to hold no smaller index than either
    /// of two heavily loaded ones. The default then spends half the cells of
    /// `2 × d/5` on exact pairs instead (DESIGN.md §2, `fig_fidelity`). One
    /// row is also one hash a key. Frames carry their rows, so a frame of
    /// any row count decodes.
    pub rows: usize,
    /// Total MinMaxSketch columns as a fraction of `d` (default 1/5 — the
    /// §4.1 "column of MinMaxSketch (default d/5)").
    pub col_ratio: f64,
    /// Lower bound on columns per group so tiny gradients stay decodable.
    pub min_cols_per_group: usize,
    /// Bucket groups `r` **per sign**. The default of 4 gives 8 key
    /// sections overall (4 groups × 2 signs), matching the paper's `r = 8`
    /// on `q = 256` total buckets exactly: the decoded-index error bound is
    /// `q_sign / groups = 128 / 4 = 32 = q / r`, and the Appendix A.3 key
    /// sectioning has the same `d / 8` keys (gap `8D/d`) per section.
    pub groups: usize,
    /// Divisor of the adaptive bucket cap `q_eff <= max(8, d_side /
    /// bucket_cap_divisor)` (default 32 — keeps the `8q` means table at the
    /// same relative overhead as the paper's full-scale gradients).
    pub bucket_cap_divisor: usize,
    /// Hash seed; recorded in the message so decoding is self-contained.
    pub seed: u64,
}

impl Default for SketchMlConfig {
    fn default() -> Self {
        SketchMlConfig {
            quantile_sketch_capacity: 128,
            buckets_per_sign: 128,
            rows: 1,
            col_ratio: 0.2,
            min_cols_per_group: 4,
            groups: 4,
            bucket_cap_divisor: 32,
            seed: 0x5EED_0001,
        }
    }
}

impl SketchMlConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] with the offending parameter.
    pub fn validate(&self) -> Result<(), CompressError> {
        if self.quantile_sketch_capacity < 2 {
            return Err(CompressError::InvalidConfig(
                "quantile_sketch_capacity must be >= 2".into(),
            ));
        }
        if self.buckets_per_sign == 0 || self.buckets_per_sign == EMPTY_CELL {
            return Err(CompressError::InvalidConfig(format!(
                "buckets_per_sign must be in 1..{EMPTY_CELL}"
            )));
        }
        if self.rows == 0 {
            return Err(CompressError::InvalidConfig("rows must be positive".into()));
        }
        if self.col_ratio <= 0.0 || !self.col_ratio.is_finite() {
            return Err(CompressError::InvalidConfig(
                "col_ratio must be positive".into(),
            ));
        }
        if self.min_cols_per_group == 0 {
            return Err(CompressError::InvalidConfig(
                "min_cols_per_group must be positive".into(),
            ));
        }
        if self.groups == 0 {
            return Err(CompressError::InvalidConfig(
                "groups must be positive".into(),
            ));
        }
        if self.bucket_cap_divisor == 0 {
            return Err(CompressError::InvalidConfig(
                "bucket_cap_divisor must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// The full SketchML pipeline: quantile-bucket quantification +
/// grouped/sign-separated MinMaxSketch + sectioned delta-binary keys.
#[derive(Debug, Clone, Default)]
pub struct SketchMlCompressor {
    /// Pipeline hyper-parameters.
    pub config: SketchMlConfig,
}

impl SketchMlCompressor {
    /// Creates a compressor after validating `config`.
    ///
    /// # Errors
    /// See [`SketchMlConfig::validate`].
    pub fn new(config: SketchMlConfig) -> Result<Self, CompressError> {
        config.validate()?;
        Ok(SketchMlCompressor { config })
    }
}

const MAGIC: u8 = 0xA7;
/// The frame version written. Version 2 added the exact section after the
/// header; a version 1 frame is one without it and decodes through the same
/// path, with no exact pairs.
const VERSION: u8 = 2;
/// One pair in this many ships exact: the ⌊n/64⌋ largest |v| of an n-pair
/// gradient, none below 64 pairs. On the benchmark's gradients these pairs
/// hold over 95 % of ‖g‖². The rule and the one-row sketch were chosen
/// together on `fig_fidelity`'s grid of rules and sketch shapes
/// (EXPERIMENTS.md): of the cells with at least d/5 columns, the lowest
/// rel-L2 at no more bytes than two rows and ⌊n/512⌋.
const EXACT_SHARE: usize = 64;
/// Bytes of an exact value (f64, little-endian).
const EXACT_WIDTH: usize = 8;
/// Bytes per bucket mean, declared in each side's header; the decoder
/// refuses a frame that declares any other width.
const MEAN_WIDTH: u8 = 8;
/// Salt separating the negative side's hash seed from the positive side's.
const NEG_SALT: u64 = 0x4E45_4741_5449_5645; // "NEGATIVE"

/// Message-level pipeline counters (input vs. payload bytes; a sparse pair
/// costs 12 raw bytes, matching [`SizeReport`]'s accounting).
fn record_encode(pairs: usize, payload_bytes: usize) {
    if telemetry::enabled() {
        telemetry::inc(telemetry::Counter::PipelineEncodes);
        telemetry::add(telemetry::Counter::PipelineInputPairs, pairs as u64);
        telemetry::add(telemetry::Counter::PipelineInputBytes, 12 * pairs as u64);
        telemetry::add(
            telemetry::Counter::PipelinePayloadBytes,
            payload_bytes as u64,
        );
    }
}

impl SketchMlCompressor {
    /// [`GradientCompressor::compress_into`] with the `exact` largest |v|
    /// shipped exact (capped at the gradient's pairs) instead of the
    /// codec's ⌊n/64⌋: the rule ladder `fig_fidelity` measures. The frame
    /// is an ordinary one and decodes through
    /// [`GradientCompressor::decompress_into`]; `exact = 0` is the paper's
    /// pipeline alone.
    ///
    /// # Errors
    /// Same contract as [`GradientCompressor::compress_into`].
    pub fn compress_exact_into(
        &self,
        grad: &SparseGradient,
        exact: usize,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        self.config.validate()?;
        let exact = exact.min(grad.nnz());
        out.clear();
        out.put_u8(MAGIC);
        out.put_u8(VERSION);
        out.put_u64_le(self.config.seed);
        varint::write_u64(out, grad.dim());
        varint::write_u64(out, grad.nnz() as u64);
        varint::write_u64(out, self.config.rows as u64);
        varint::write_u64(out, exact as u64);

        let mut report = SizeReport {
            pairs: grad.nnz(),
            ..SizeReport::default()
        };
        if grad.is_empty() {
            varint::write_u64(out, 0); // pos side
            varint::write_u64(out, 0); // neg side
            report.header_bytes = out.len();
            record_encode(0, out.len());
            return Ok(report);
        }
        // §3.3 Solution 1: independent quantile sketches per sign, over the
        // pairs the exact section leaves. The partitions are taken out of the
        // scratch so it can be re-borrowed mutably by `encode_side_into`, and
        // restored before any `?`.
        let mut pos_keys = std::mem::take(&mut scratch.pos_keys);
        let mut pos_vals = std::mem::take(&mut scratch.pos_vals);
        let mut neg_keys = std::mem::take(&mut scratch.neg_keys);
        let mut neg_vals = std::mem::take(&mut scratch.neg_vals);
        split_exact(
            grad.keys(),
            grad.values(),
            exact,
            scratch,
            (&mut pos_keys, &mut pos_vals, &mut neg_keys, &mut neg_vals),
        );
        let sections: Result<(usize, usize), CompressError> = (|| {
            let mut key_bytes = 0;
            if exact > 0 {
                key_bytes += {
                    let _t = telemetry::time(telemetry::Stage::KeyEncode);
                    delta_binary::encode_keys_into(&scratch.exact_keys, out)
                }?;
                for &v in &scratch.exact_vals {
                    out.put_f64_le(v);
                }
            }
            let (kb_pos, vb_pos) =
                self.encode_side_into(&pos_keys, &pos_vals, false, self.config.seed, scratch, out)?;
            let (kb_neg, vb_neg) = self.encode_side_into(
                &neg_keys,
                &neg_vals,
                true,
                self.config.seed ^ NEG_SALT,
                scratch,
                out,
            )?;
            Ok((
                key_bytes + kb_pos + kb_neg,
                EXACT_WIDTH * exact + vb_pos + vb_neg,
            ))
        })();
        scratch.pos_keys = pos_keys;
        scratch.pos_vals = pos_vals;
        scratch.neg_keys = neg_keys;
        scratch.neg_vals = neg_vals;
        let (key_bytes, value_bytes) = sections?;

        report.key_bytes = key_bytes;
        report.value_bytes = value_bytes;
        report.header_bytes = out.len() - report.key_bytes - report.value_bytes;
        record_encode(grad.nnz(), out.len());
        Ok(report)
    }

    /// Serializes one sign's pairs into `out`, returning `(key_bytes,
    /// value_bytes)`: quantizes through the pooled
    /// [`crate::quantify::QuantScratch`], normalizes indexes by magnitude in
    /// place, sections keys per group with a stable counting sort,
    /// min-inserts each section into a flat pooled cell table, and streams
    /// keys/cells straight into `out`.
    fn encode_side_into(
        &self,
        keys: &[u64],
        values: &[f64],
        negative: bool,
        side_seed: u64,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<(usize, usize), CompressError> {
        let n = keys.len();
        varint::write_u64(out, n as u64);
        if n == 0 {
            return Ok((0, 0));
        }
        quantize_into(
            values,
            self.config.buckets_per_sign,
            self.config.quantile_sketch_capacity,
            self.config.bucket_cap_divisor,
            &mut scratch.quant,
        )?;
        let q = scratch.quant.means.len() as u16;
        if negative {
            // Normalize by magnitude: index 0 becomes the bucket closest to
            // zero (the means are written reversed below to match).
            for idx in &mut scratch.quant.indexes {
                *idx = q - 1 - *idx;
            }
        }
        let r_eff = self.config.groups.min(q as usize);
        let total_cols = ((n as f64 * self.config.col_ratio) / r_eff as f64).ceil() as usize;
        let cols = total_cols.max(self.config.min_cols_per_group);
        let group_width = (q as usize).div_ceil(r_eff) as u16;
        let rows = self.config.rows;

        // Stable counting sort of (key, index) pairs into per-group
        // sections, so each section keeps ascending key order (what the
        // delta-binary key codec requires). The bucket→group map is a
        // q-entry LUT so the two hot passes avoid a per-element integer
        // division.
        {
            scratch.group_lut.clear();
            for idx in 0..q {
                scratch.group_lut.push(idx / group_width);
            }
            let group_lut = &scratch.group_lut[..q as usize];
            scratch.counts.clear();
            scratch.counts.resize(r_eff, 0);
            for &idx in &scratch.quant.indexes {
                scratch.counts[group_lut[idx as usize] as usize] += 1;
            }
            scratch.cursor.clear();
            let mut at = 0usize;
            for &c in &scratch.counts {
                scratch.cursor.push(at);
                at += c;
            }
            scratch.sec_keys.clear();
            scratch.sec_keys.resize(n, 0);
            scratch.sec_idx.clear();
            scratch.sec_idx.resize(n, 0);
            let sec_keys = &mut scratch.sec_keys[..n];
            let sec_idx = &mut scratch.sec_idx[..n];
            let cursor = &mut scratch.cursor[..r_eff];
            for (&k, &idx) in keys.iter().zip(&scratch.quant.indexes) {
                let g = group_lut[idx as usize] as usize;
                let p = cursor[g];
                // SAFETY: `p` is group `g`'s cursor, which the counting
                // pass bounds by the group's section end `<= n`.
                unsafe {
                    *sec_keys.get_unchecked_mut(p) = k;
                    *sec_idx.get_unchecked_mut(p) = idx;
                }
                cursor[g] = p + 1;
            }
        }

        // Flat `r_eff × rows × cols` cell table plus per-group row seeds:
        // §3.3's grouped MinMaxSketch, one table per group hashed under
        // `group_seed` (seeds share the derivation in `push_row_seeds`).
        let table = rows * cols;
        scratch.seeds.clear();
        for g in 0..r_eff {
            push_row_seeds(rows, group_seed(side_seed, g), &mut scratch.seeds);
        }
        scratch.cells.clear();
        scratch.cells.resize(r_eff * table, EMPTY_CELL);

        varint::write_u64(out, q as u64);
        out.put_u8(MEAN_WIDTH);
        if negative {
            for &m in scratch.quant.means.iter().rev() {
                out.put_f64_le(m);
            }
        } else {
            for &m in &scratch.quant.means {
                out.put_f64_le(m);
            }
        }
        let mut value_bytes = MEAN_WIDTH as usize * scratch.quant.means.len();
        varint::write_u64(out, r_eff as u64);
        varint::write_u64(out, cols as u64);
        let bits = bitpack::bits_for(q.saturating_sub(1));
        out.put_u8(bits as u8);

        let mut key_bytes = 0usize;
        let mut begin = 0usize;
        // Query buffer for the bucket-index-error histogram; only allocated
        // when telemetry is enabled (the zero-alloc contract covers the
        // disabled state).
        let mut probe: Vec<u16> = Vec::new();
        for g in 0..r_eff {
            let end = begin + scratch.counts[g];
            varint::write_u64(out, (end - begin) as u64);
            if begin == end {
                continue;
            }
            let g_keys = &scratch.sec_keys[begin..end];
            let cells = &mut scratch.cells[g * table..(g + 1) * table];
            {
                let _t = telemetry::time(telemetry::Stage::SketchEncode);
                insert_batch_raw(
                    cells,
                    &scratch.seeds[g * rows..(g + 1) * rows],
                    cols,
                    g_keys,
                    &scratch.sec_idx[begin..end],
                );
            }
            if telemetry::enabled() {
                let occupied = cells.iter().filter(|&&c| c != EMPTY_CELL).count() as u64;
                let inserts = (g_keys.len() * rows) as u64;
                telemetry::add(telemetry::Counter::SketchInserts, inserts);
                telemetry::add(telemetry::Counter::SketchCells, table as u64);
                telemetry::add(telemetry::Counter::SketchCellsOccupied, occupied);
                telemetry::add(
                    telemetry::Counter::SketchCollisions,
                    inserts.saturating_sub(occupied),
                );
                // Bucket-index error (Appendix A.2's underestimation):
                // re-query every inserted key before EMPTY cells are zeroed.
                if query_batch_raw(
                    cells,
                    &scratch.seeds[g * rows..(g + 1) * rows],
                    cols,
                    g_keys,
                    &mut probe,
                ) {
                    for (&idx, &decoded) in scratch.sec_idx[begin..end].iter().zip(&probe) {
                        telemetry::observe(
                            telemetry::Hist::BucketIndexError,
                            (idx as i64 - decoded as i64).unsigned_abs(),
                        );
                    }
                }
            }
            key_bytes += {
                let _t = telemetry::time(telemetry::Stage::KeyEncode);
                delta_binary::encode_keys_into(g_keys, out)
            }?;
            value_bytes += {
                let _t = telemetry::time(telemetry::Stage::SketchEncode);
                // EMPTY cells are never consulted for keys of this section
                // (their own insert wrote all their cells), so they can ship
                // as 0 to stay within `bits`.
                for c in cells.iter_mut() {
                    if *c == EMPTY_CELL {
                        *c = 0;
                    }
                }
                bitpack::pack_u16_into(cells, bits, out)
            }?;
            begin = end;
        }
        Ok((key_bytes, value_bytes))
    }

    /// Decodes one side onto `scratch.runs`, one ascending run per key
    /// section that holds pairs: the section's keys as written, each with
    /// the slot of its bucket mean in `scratch.dec_means` (which this side's
    /// means are appended to), found by querying the keys in batch against
    /// the section's unpacked cell table.
    fn decode_side_into(
        &self,
        buf: &mut &[u8],
        side_seed: u64,
        rows: usize,
        scratch: &mut CompressScratch,
    ) -> Result<(), CompressError> {
        let n = varint::read_u64(buf)? as usize;
        if n == 0 {
            return Ok(());
        }
        let q = varint::read_u64(buf)? as usize;
        if q == 0 || q >= EMPTY_CELL as usize {
            return Err(CompressError::Corrupt(format!(
                "bucket count {q} out of range"
            )));
        }
        if !buf.has_remaining() {
            return Err(CompressError::Corrupt("missing mean precision".into()));
        }
        let mean_width = buf.get_u8();
        if mean_width != MEAN_WIDTH {
            return Err(CompressError::Corrupt(format!(
                "bad mean precision {mean_width}"
            )));
        }
        if buf.remaining() < q * MEAN_WIDTH as usize {
            return Err(CompressError::Corrupt("truncated bucket means".into()));
        }
        let first_slot = scratch.dec_means.len() as u32;
        scratch.dec_means.reserve(q);
        for _ in 0..q {
            scratch.dec_means.push(buf.get_f64_le());
        }
        let r_eff = varint::read_u64(buf)? as usize;
        let cols = varint::read_u64(buf)? as usize;
        if r_eff == 0 || cols == 0 {
            return Err(CompressError::Corrupt("zero sketch shape".into()));
        }
        if !buf.has_remaining() {
            return Err(CompressError::Corrupt("missing bit width".into()));
        }
        let bits = buf.get_u8() as u32;
        if bits == 0 || bits > 16 {
            return Err(CompressError::Corrupt(format!("bad bit width {bits}")));
        }

        let mut decoded = 0usize;
        for g in 0..r_eff {
            let n_g = varint::read_u64(buf)? as usize;
            if n_g == 0 {
                continue;
            }
            delta_binary::decode_keys_into(buf, &mut scratch.dec_keys)?;
            if scratch.dec_keys.len() != n_g {
                return Err(CompressError::Corrupt(format!(
                    "group {g}: declared {n_g} keys, decoded {}",
                    scratch.dec_keys.len()
                )));
            }
            let cells_len = rows.checked_mul(cols).ok_or_else(|| {
                CompressError::Corrupt(format!("sketch shape {rows}x{cols} overflows"))
            })?;
            bitpack::unpack_u16_into(buf, cells_len, bits, &mut scratch.dec_cells)?;
            scratch.seeds.clear();
            push_row_seeds(rows, group_seed(side_seed, g), &mut scratch.seeds);
            if !query_batch_raw(
                &scratch.dec_cells,
                &scratch.seeds,
                cols,
                &scratch.dec_keys,
                &mut scratch.dec_idx,
            ) {
                return Err(CompressError::Corrupt(
                    "sketch cell empty for a section key".into(),
                ));
            }
            if let Some(idx) = scratch.dec_idx.iter().find(|&&idx| idx as usize >= q) {
                return Err(CompressError::Corrupt(format!(
                    "index {idx} out of {q} buckets"
                )));
            }
            let slots = scratch
                .dec_idx
                .iter()
                .map(|&idx| first_slot + u32::from(idx));
            scratch.runs.push_run(&scratch.dec_keys, slots);
            decoded += n_g;
        }
        if decoded != n {
            return Err(CompressError::Corrupt(format!(
                "side declared {n} pairs, decoded {decoded}"
            )));
        }
        Ok(())
    }

    /// Reads the exact section onto `scratch.exact_keys`/`exact_vals`,
    /// refusing, as [`CompressError::Corrupt`], a count the rest of the
    /// payload cannot hold, a key count that disagrees with it, a key at or
    /// past `dim`, keys that do not strictly ascend, and a non-finite value.
    fn decode_exact_into(
        buf: &mut &[u8],
        dim: u64,
        scratch: &mut CompressScratch,
    ) -> Result<(), CompressError> {
        let k = varint::read_u64(buf)?;
        if k == 0 {
            return Ok(());
        }
        // An exact pair costs at least one key byte and its value.
        if k > (buf.remaining() / (1 + EXACT_WIDTH)) as u64 {
            return Err(CompressError::Corrupt(format!(
                "exact section declares {k} pairs beyond the payload"
            )));
        }
        let k = k as usize;
        delta_binary::decode_keys_into(buf, &mut scratch.exact_keys)?;
        if scratch.exact_keys.len() != k {
            return Err(CompressError::Corrupt(format!(
                "exact section declared {k} keys, decoded {}",
                scratch.exact_keys.len()
            )));
        }
        if buf.remaining() < k * EXACT_WIDTH {
            return Err(CompressError::Corrupt("truncated exact values".into()));
        }
        scratch.exact_vals.reserve(k);
        let mut floor = 0u64;
        for (pos, &key) in scratch.exact_keys.iter().enumerate() {
            let v = buf.get_f64_le();
            if key >= dim {
                return Err(CompressError::Corrupt(format!(
                    "exact key {key} out of range for dimension {dim}"
                )));
            }
            if key < floor {
                return Err(CompressError::Corrupt(format!(
                    "exact keys not strictly ascending (position {pos})"
                )));
            }
            if !v.is_finite() {
                return Err(CompressError::Corrupt(format!(
                    "non-finite exact value {v} at position {pos}"
                )));
            }
            floor = key + 1;
            scratch.exact_vals.push(v);
        }
        Ok(())
    }

    /// Parses the header, the exact section and both sides of `payload`,
    /// leaving the exact pairs on `scratch.exact_keys`/`exact_vals`, every
    /// key section on `scratch.runs` and the bucket means on
    /// `scratch.dec_means`. Returns the gradient's dimension.
    fn decode_runs(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
    ) -> Result<u64, CompressError> {
        let mut buf = payload;
        if buf.remaining() < 10 {
            return Err(CompressError::Corrupt("message shorter than header".into()));
        }
        if buf.get_u8() != MAGIC {
            return Err(CompressError::Corrupt("bad SketchML magic".into()));
        }
        let version = buf.get_u8();
        if version != 1 && version != VERSION {
            return Err(CompressError::Corrupt(
                "unsupported SketchML version".into(),
            ));
        }
        let seed = buf.get_u64_le();
        let dim = varint::read_u64(&mut buf)?;
        let nnz = varint::read_u64(&mut buf)? as usize;
        let rows = varint::read_u64(&mut buf)? as usize;
        if rows == 0 || rows > 64 {
            return Err(CompressError::Corrupt(format!(
                "row count {rows} out of range"
            )));
        }

        // Early refusal: delta-binary keys cost ≥ 1 byte per pair, so a
        // declared nnz beyond the whole payload cannot decode.
        if nnz > payload.len() {
            return Err(CompressError::Corrupt(format!(
                "declared {nnz} pairs exceeds the {}-byte payload",
                payload.len()
            )));
        }
        scratch.runs.clear();
        scratch.dec_means.clear();
        scratch.exact_keys.clear();
        scratch.exact_vals.clear();
        if version == VERSION {
            Self::decode_exact_into(&mut buf, dim, scratch)?;
        }
        self.decode_side_into(&mut buf, seed, rows, scratch)?;
        self.decode_side_into(&mut buf, seed ^ NEG_SALT, rows, scratch)?;
        let decoded = scratch.exact_keys.len() + scratch.runs.keys.len();
        if decoded != nnz {
            return Err(CompressError::Corrupt(format!(
                "declared {nnz} pairs, decoded {decoded}"
            )));
        }
        Ok(dim)
    }
}

impl GradientCompressor for SketchMlCompressor {
    fn name(&self) -> &'static str {
        "SketchML"
    }

    fn compress_into(
        &self,
        grad: &SparseGradient,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        self.compress_exact_into(grad, grad.nnz() / EXACT_SHARE, scratch, out)
    }

    fn decompress_into(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
        out: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        let _t = telemetry::time(telemetry::Stage::Decode);
        telemetry::inc(telemetry::Counter::PipelineDecodes);
        let dim = self.decode_runs(payload, scratch)?;
        // Bottom-up two-way merge of the section runs; the last merge writes
        // `out` and validates it (see `crate::runs`).
        let (mut src, mut dst) = (&mut scratch.runs, &mut scratch.merged);
        while src.ends.len() > 2 {
            src.merge_pairs_into(dst);
            std::mem::swap(&mut src, &mut dst);
        }
        let means = &scratch.dec_means;
        let exact = (&scratch.exact_keys[..], &scratch.exact_vals[..]);
        out.assign_merged(dim, src.run(0), src.run(1), exact, |slot| {
            means[slot as usize]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::btree_map;
    use proptest::prelude::*;

    /// The decoder this file had before the runs were merged, kept as the
    /// reference: every section's pairs on one vector, a comparison sort by
    /// key, then the gradient's own validation.
    fn decompress_by_sorting(
        codec: &SketchMlCompressor,
        payload: &[u8],
    ) -> Result<SparseGradient, CompressError> {
        let mut scratch = CompressScratch::new();
        let dim = codec.decode_runs(payload, &mut scratch)?;
        let runs = &scratch.runs;
        let mut pairs: Vec<(u64, f64)> = runs
            .keys
            .iter()
            .zip(&runs.slots)
            .map(|(&k, &slot)| (k, scratch.dec_means[slot as usize]))
            .chain(
                scratch
                    .exact_keys
                    .iter()
                    .copied()
                    .zip(scratch.exact_vals.iter().copied()),
            )
            .collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        let (keys, values) = pairs.into_iter().unzip();
        SparseGradient::new(dim, keys, values)
    }

    fn bits(g: &SparseGradient) -> (u64, Vec<u64>, Vec<u64>) {
        let values = g.values().iter().map(|v| v.to_bits()).collect();
        (g.dim(), g.keys().to_vec(), values)
    }

    proptest! {
        /// Merged runs against the sort, bit for bit: zero to 300 pairs (so
        /// fewer pairs than groups, one pair, none), mixed or one-signed,
        /// magnitudes either spread out or taken from three values (most
        /// buckets, hence whole sections between full ones, stay empty),
        /// 1–8 groups per sign, 1–4 sketch rows, 0–39 exact pairs (up to all
        /// of them) — on a scratch and an output still holding a larger
        /// decode, twice.
        #[test]
        fn merged_runs_decode_what_the_sort_decoded(
            pairs in btree_map(0u64..50_000, (0.001f64..2.0, 0usize..3, any::<bool>()), 0..300),
            signs in 0usize..3,
            few_values in any::<bool>(),
            groups in 1usize..=8,
            rows in 1usize..=4,
            exact in 0usize..40,
        ) {
            let keys: Vec<u64> = pairs.keys().copied().collect();
            let values: Vec<f64> = pairs
                .values()
                .map(|&(spread, pick, negative)| {
                    let magnitude = if few_values { [0.004, 0.3, 17.0][pick] } else { spread };
                    match signs {
                        0 if negative => -magnitude,
                        2 => -magnitude,
                        _ => magnitude,
                    }
                })
                .collect();
            let grad = SparseGradient::new(50_000, keys, values).unwrap();
            let codec = SketchMlCompressor::new(SketchMlConfig {
                groups,
                rows,
                ..SketchMlConfig::default()
            })
            .unwrap();
            let mut payload = BytesMut::new();
            codec
                .compress_exact_into(&grad, exact, &mut CompressScratch::new(), &mut payload)
                .unwrap();
            let reference = decompress_by_sorting(&codec, &payload).unwrap();
            prop_assert_eq!(reference.keys(), grad.keys());

            // A larger gradient first, so the run and merge buffers are longer
            // than this decode needs and hold another decode's pairs.
            let mut scratch = CompressScratch::new();
            let mut out = SparseGradient::empty(0);
            let wide: Vec<u64> = (0..400).map(|i| i * 7).collect();
            let alternating = wide.iter().map(|&k| if k % 2 == 0 { 0.5 } else { -0.25 });
            let wide = SparseGradient::new(50_000, wide.clone(), alternating.collect()).unwrap();
            let warm = codec.compress(&wide).unwrap().payload;
            codec.decompress_into(&warm, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(out.keys(), wide.keys());
            for _ in 0..2 {
                codec.decompress_into(&payload, &mut scratch, &mut out).unwrap();
                prop_assert_eq!(bits(&out), bits(&reference));
            }
        }

        /// The encoder's split against a sort: the `exact` largest |v|
        /// (ties to the smaller key, -0.0 as 0.0) in key order, and every
        /// other pair partitioned by sign as `partition_signs` alone would —
        /// across block edges, with magnitudes from a handful of values so
        /// ties straddle the threshold, and on a scratch that split a larger
        /// gradient before.
        #[test]
        fn split_exact_takes_the_largest_magnitudes(
            pairs in btree_map(0u64..5_000, (0usize..4, any::<bool>()), 1..200),
            exact in 0usize..220,
        ) {
            let keys: Vec<u64> = pairs.keys().copied().collect();
            let values: Vec<f64> = pairs
                .values()
                .map(|&(pick, negative)| {
                    let magnitude = [0.0, 0.25, 0.5, 3.0][pick];
                    if negative { -magnitude } else { magnitude }
                })
                .collect();
            let n = keys.len();
            let exact = exact.min(n);
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| values[b].abs().total_cmp(&values[a].abs()).then(a.cmp(&b)));
            let mut chosen = order[..exact].to_vec();
            chosen.sort_unstable();
            let rest: Vec<usize> = (0..n).filter(|i| !chosen.contains(i)).collect();
            let pick = |at: &[usize]| -> (Vec<u64>, Vec<u64>) {
                (at.iter().map(|&i| keys[i]).collect(), at.iter().map(|&i| values[i].to_bits()).collect())
            };
            let (rest_keys, rest_vals): (Vec<u64>, Vec<f64>) =
                rest.iter().map(|&i| (keys[i], values[i])).unzip();
            let mut want = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            partition_signs(&rest_keys, &rest_vals, (&mut want.0, &mut want.1, &mut want.2, &mut want.3));

            let mut scratch = CompressScratch::new();
            let mut got = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            let wide: Vec<u64> = (0..300).collect();
            let wide_vals: Vec<f64> = wide.iter().map(|&k| k as f64 - 150.5).collect();
            split_exact(&wide, &wide_vals, 40, &mut scratch, (&mut got.0, &mut got.1, &mut got.2, &mut got.3));
            split_exact(&keys, &values, exact, &mut scratch, (&mut got.0, &mut got.1, &mut got.2, &mut got.3));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                (scratch.exact_keys.clone(), bits(&scratch.exact_vals)),
                pick(&chosen)
            );
            prop_assert_eq!((&got.0, bits(&got.1)), (&want.0, bits(&want.1)));
            prop_assert_eq!((&got.2, bits(&got.3)), (&want.2, bits(&want.3)));
        }
    }
}
