//! Count-Sketch gradient compressor: linear payloads.
//!
//! Where [`crate::sketchml::SketchMlCompressor`] ships lossless keys plus
//! quantized values, [`CountSketchCompressor`] ships the raw cell table of a
//! [`CountSketch`] (the CSK frame, [`sketchml_encoding::csk`]) and recovers
//! the top-`k` heavy hitters on decode. The payload is *linear*: tables add
//! element-wise, so the collectives layer can merge hop payloads without
//! decoding them ([`MergePolicy::Linear`]) and extract once at the end —
//! sketch-of-sum equals sum-of-sketches, bit-for-bit when the inputs are
//! dyadic.
//!
//! The compressor is stateless: a frame is a function of the gradient and
//! the configuration alone, which the exactness tests and the sharded
//! engine rely on. Residual compensation wraps it from outside, like any
//! codec ([`crate::feedback::ErrorFeedback`]).

use crate::compressor::GradientCompressor;
use crate::error::CompressError;
use crate::gradient::SparseGradient;
use crate::merge::{MergeAcc, MergeableCompressor};
use crate::scratch::CompressScratch;
use bytes::BytesMut;
use sketchml_encoding::csk::{self, CskHeader};
use sketchml_encoding::stats::SizeReport;
use sketchml_sketches::count_sketch::{push_sign_seeds, sign_for, CountSketch};
use sketchml_sketches::hash::{push_row_seeds, HashFamily};

/// Shape of a [`CountSketchCompressor`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CountSketchConfig {
    /// Sketch rows (independent hash/sign pairs); at most 64.
    pub rows: u32,
    /// Sketch columns (bins per row).
    pub cols: u32,
    /// Heavy hitters extracted on decode.
    pub k: u32,
    /// Seed for both hash families; sender and receiver must agree.
    pub seed: u64,
}

impl Default for CountSketchConfig {
    fn default() -> Self {
        CountSketchConfig {
            rows: 5,
            cols: 2048,
            k: 512,
            seed: 0xC5C5_0001,
        }
    }
}

impl CountSketchConfig {
    /// Validates shape bounds.
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] describing the violated constraint.
    pub fn validate(&self) -> Result<(), CompressError> {
        if self.rows == 0 || self.rows > 64 {
            return Err(CompressError::InvalidConfig(format!(
                "countsketch rows must be in 1..=64, got {}",
                self.rows
            )));
        }
        if self.cols == 0 {
            return Err(CompressError::InvalidConfig(
                "countsketch cols must be >= 1".into(),
            ));
        }
        if u64::from(self.rows) * u64::from(self.cols) > u64::from(u32::MAX) {
            return Err(CompressError::InvalidConfig(format!(
                "countsketch table {}x{} exceeds u32::MAX cells",
                self.rows, self.cols
            )));
        }
        if self.k == 0 {
            return Err(CompressError::InvalidConfig(
                "countsketch k must be >= 1".into(),
            ));
        }
        Ok(())
    }

    fn table_len(&self) -> usize {
        self.rows as usize * self.cols as usize
    }

    fn header(&self, dim: u64, nnz: u64, key_range: (u64, u64)) -> CskHeader {
        CskHeader {
            dim,
            rows: self.rows,
            cols: self.cols,
            k: self.k,
            seed: self.seed,
            nnz,
            key_lo: key_range.0,
            key_end: key_range.1,
            cell_start: 0,
            cell_count: self.table_len() as u64,
        }
    }
}

/// `[first, last + 1)`, or `(0, 0)` for an empty gradient — the frame's
/// heavy-hitter scan bound, which also keeps a key-range shard's decode from
/// surfacing ghosts outside the shard.
fn key_range(grad: &SparseGradient) -> (u64, u64) {
    match (grad.keys().first(), grad.keys().last()) {
        (Some(&lo), Some(&hi)) => (lo, hi + 1),
        _ => (0, 0),
    }
}

/// The Count-Sketch compressor. See the module docs for the scheme.
///
/// ```
/// use sketchml_core::{CountSketchCompressor, CountSketchConfig, GradientCompressor, SparseGradient};
///
/// let c = CountSketchCompressor::new(CountSketchConfig::default())?;
/// let grad = SparseGradient::new(10_000, vec![7, 90, 900], vec![0.5, -0.25, 0.125])?;
/// let msg = c.compress(&grad)?;
/// let decoded = c.decompress(&msg.payload)?;
/// assert_eq!(decoded.keys(), grad.keys());
/// assert_eq!(decoded.values(), grad.values()); // nnz « table: exact
/// # Ok::<(), sketchml_core::CompressError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CountSketchCompressor {
    config: CountSketchConfig,
}

impl CountSketchCompressor {
    /// Creates a compressor after validating `config`.
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] from [`CountSketchConfig::validate`].
    pub fn new(config: CountSketchConfig) -> Result<Self, CompressError> {
        config.validate()?;
        Ok(CountSketchCompressor { config })
    }

    /// The configuration this compressor was built with.
    pub fn config(&self) -> &CountSketchConfig {
        &self.config
    }

    /// Checks a parsed frame against this compressor's configuration.
    fn check_frame(&self, h: &CskHeader) -> Result<(), CompressError> {
        let c = &self.config;
        if h.rows != c.rows || h.cols != c.cols || h.seed != c.seed {
            return Err(CompressError::Corrupt(format!(
                "CSK frame {}x{} seed={} does not match configured {}x{} seed={}",
                h.rows, h.cols, h.seed, c.rows, c.cols, c.seed
            )));
        }
        if h.k != c.k {
            return Err(CompressError::Corrupt(format!(
                "CSK frame k={} does not match configured k={}",
                h.k, c.k
            )));
        }
        if !h.is_full() {
            return Err(CompressError::Corrupt(format!(
                "point decode needs a full table, got window [{}, {})",
                h.cell_start,
                h.cell_start + h.cell_count
            )));
        }
        Ok(())
    }

    /// Minimum fraction of the domain a contiguous key run must cover to
    /// take the dense encode path. Dense gradients (converted embeddings,
    /// `to_dense` round-trips) arrive as one run over `0..d`; short runs
    /// gain nothing from skipping the key scan.
    const DENSE_THRESHOLD_NUM: u64 = 1;
    const DENSE_THRESHOLD_DEN: u64 = 2;

    /// True when the gradient's keys are exactly the contiguous range
    /// `[first, first + nnz)` *and* that run covers at least the density
    /// threshold of the domain — the keys are then implied by position.
    fn is_contiguous_dense(grad: &SparseGradient) -> bool {
        let n = grad.nnz() as u64;
        let keys = grad.keys();
        n > 0
            && keys[keys.len() - 1] - keys[0] + 1 == n
            && n * Self::DENSE_THRESHOLD_DEN >= grad.dim().max(1) * Self::DENSE_THRESHOLD_NUM
    }

    /// Stateless encode into `scratch.csk_cells` (row-major flat loop, no
    /// sketch struct, no allocation once warm). Dense gradients whose keys
    /// are one contiguous run skip the key scan entirely: chunked range
    /// counters feed the batch hash primitives ([`fill_bins`], four keys per
    /// iteration on an AVX2 CPU, and [`fill_sign_flips`]). The scalar per-key
    /// loop remains the reference; debug builds assert the fast path
    /// produces a bit-identical table.
    ///
    /// [`fill_bins`]: sketchml_sketches::hash::fill_bins
    /// [`fill_sign_flips`]: sketchml_sketches::hash::fill_sign_flips
    fn sketch_into_scratch(&self, grad: &SparseGradient, scratch: &mut CompressScratch) {
        let c = &self.config;
        let (rows, cols) = (c.rows as usize, c.cols as usize);
        scratch.seeds.clear();
        push_row_seeds(rows, c.seed, &mut scratch.seeds);
        scratch.csk_signs.clear();
        push_sign_seeds(rows, c.seed, &mut scratch.csk_signs);
        scratch.csk_cells.clear();
        scratch.csk_cells.resize(rows * cols, 0.0);
        if Self::is_contiguous_dense(grad) {
            Self::sketch_rows_dense(grad, scratch, rows, cols);
            #[cfg(debug_assertions)]
            {
                let mut reference = vec![0.0f64; rows * cols];
                Self::sketch_rows_scalar(grad, scratch, &mut reference, rows, cols);
                debug_assert!(
                    scratch
                        .csk_cells
                        .iter()
                        .zip(&reference)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "dense Count-Sketch path diverged from scalar reference"
                );
            }
            return;
        }
        let mut cells = std::mem::take(&mut scratch.csk_cells);
        Self::sketch_rows_scalar(grad, scratch, &mut cells, rows, cols);
        scratch.csk_cells = cells;
    }

    /// Scalar reference sketch loop over explicit keys.
    fn sketch_rows_scalar(
        grad: &SparseGradient,
        scratch: &CompressScratch,
        cells: &mut [f64],
        rows: usize,
        cols: usize,
    ) {
        for r in 0..rows {
            let bin_seed = scratch.seeds[r];
            let sign_seed = scratch.csk_signs[r];
            let row = &mut cells[r * cols..(r + 1) * cols];
            for (&k, &v) in grad.keys().iter().zip(grad.values()) {
                row[HashFamily::bin_for(bin_seed, cols, k)] += sign_for(sign_seed, k) * v;
            }
        }
    }

    /// Contiguous-range sketch loop: keys come from a chunked counter, not
    /// the key array, and bins/signs are hashed through the batch
    /// primitives. Bit-identical to [`Self::sketch_rows_scalar`]: the
    /// scatter visits pairs in the same order and XOR-ing the sign-flip mask
    /// equals `±1.0 · v` exactly.
    fn sketch_rows_dense(
        grad: &SparseGradient,
        scratch: &mut CompressScratch,
        rows: usize,
        cols: usize,
    ) {
        use sketchml_sketches::hash::{fill_bins, fill_sign_flips};
        const CHUNK: usize = 256;
        let mut kbuf = [0u64; CHUNK];
        let mut bins = [0u32; CHUNK];
        let mut flips = [0u64; CHUNK];
        let first = grad.keys()[0];
        for r in 0..rows {
            let bin_seed = scratch.seeds[r];
            let sign_seed = scratch.csk_signs[r];
            let row = &mut scratch.csk_cells[r * cols..(r + 1) * cols];
            let mut base = first;
            for vc in grad.values().chunks(CHUNK) {
                let m = vc.len();
                for (j, k) in kbuf[..m].iter_mut().enumerate() {
                    *k = base + j as u64;
                }
                fill_bins(bin_seed, cols, &kbuf[..m], &mut bins[..m]);
                fill_sign_flips(sign_seed, &kbuf[..m], &mut flips[..m]);
                for ((&bin, &flip), &v) in bins[..m].iter().zip(&flips[..m]).zip(vc) {
                    row[bin as usize] += f64::from_bits(v.to_bits() ^ flip);
                }
                base += m as u64;
            }
        }
    }

    fn report(&self, header_bytes: usize, nnz: usize) -> SizeReport {
        SizeReport {
            key_bytes: 0,
            value_bytes: self.config.table_len() * 8,
            header_bytes,
            pairs: nnz,
        }
    }
}

impl GradientCompressor for CountSketchCompressor {
    fn name(&self) -> &'static str {
        "CountSketch"
    }

    fn compress_into(
        &self,
        grad: &SparseGradient,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        out.clear();
        self.sketch_into_scratch(grad, scratch);
        let header = self
            .config
            .header(grad.dim(), grad.nnz() as u64, key_range(grad));
        let header_bytes =
            csk::write_frame(&header, &scratch.csk_cells, out).map_err(CompressError::Encoding)?;
        Ok(self.report(header_bytes, grad.nnz()))
    }

    fn decompress_into(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
        out: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        let header = csk::read_frame(payload, &mut scratch.csk_cells)
            .map_err(|e| CompressError::Corrupt(format!("CSK frame: {e}")))?;
        self.check_frame(&header)?;
        let cells = std::mem::take(&mut scratch.csk_cells);
        let sketch = CountSketch::from_cells(
            header.rows as usize,
            header.cols as usize,
            header.seed,
            Some(cells),
        )
        .map_err(|e| CompressError::Corrupt(format!("CSK table: {e}")))?;
        sketch.top_k_range_into(
            header.k as usize,
            header.key_lo..header.key_end,
            &mut scratch.dec_keys,
            &mut scratch.dec_vals,
        );
        let result = out.assign(header.dim, &scratch.dec_keys, &scratch.dec_vals);
        scratch.csk_cells = sketch.into_cells();
        result.map_err(|e| CompressError::Corrupt(format!("recovered top-k invalid: {e}")))
    }
}

impl MergeableCompressor for CountSketchCompressor {
    fn supports_linear(&self) -> bool {
        true
    }

    fn finish(&self, acc: &MergeAcc) -> Result<SparseGradient, CompressError> {
        let Some(table) = acc.linear() else {
            return acc.to_gradient();
        };
        let c = &self.config;
        if table.rows() != c.rows || table.cols() != c.cols || table.seed() != c.seed {
            return Err(CompressError::Corrupt(format!(
                "accumulated table {}x{} seed={} does not match configured {}x{} seed={}",
                table.rows(),
                table.cols(),
                table.seed(),
                c.rows,
                c.cols,
                c.seed
            )));
        }
        let sketch = CountSketch::from_cells(
            table.rows() as usize,
            table.cols() as usize,
            table.seed(),
            Some(table.cells().to_vec()),
        )
        .map_err(|e| CompressError::Corrupt(format!("accumulated table: {e}")))?;
        let mut keys = Vec::new();
        let mut vals = Vec::new();
        let (lo, end) = table.key_range();
        sketch.top_k_range_into(table.k() as usize, lo..end, &mut keys, &mut vals);
        SparseGradient::new(table.dim(), keys, vals)
            .map_err(|e| CompressError::Corrupt(format!("recovered top-k invalid: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::MergePolicy;

    fn grad(dim: u64, pairs: &[(u64, f64)]) -> SparseGradient {
        SparseGradient::new(
            dim,
            pairs.iter().map(|&(k, _)| k).collect(),
            pairs.iter().map(|&(_, v)| v).collect(),
        )
        .unwrap()
    }

    fn compressor() -> CountSketchCompressor {
        CountSketchCompressor::new(CountSketchConfig::default()).unwrap()
    }

    #[test]
    fn config_bounds_enforced() {
        for bad in [
            CountSketchConfig {
                rows: 0,
                ..Default::default()
            },
            CountSketchConfig {
                rows: 65,
                ..Default::default()
            },
            CountSketchConfig {
                cols: 0,
                ..Default::default()
            },
            CountSketchConfig {
                k: 0,
                ..Default::default()
            },
            CountSketchConfig {
                rows: 64,
                cols: u32::MAX / 2,
                ..Default::default()
            },
        ] {
            assert!(CountSketchCompressor::new(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn sparse_roundtrip_is_exact_below_k() {
        let c = compressor();
        let g = grad(40_000, &[(7, 0.5), (90, -0.25), (900, 0.125)]);
        let msg = c.compress(&g).unwrap();
        let d = c.decompress(&msg.payload).unwrap();
        assert_eq!(d.keys(), g.keys());
        assert_eq!(d.values(), g.values());
        assert_eq!(d.dim(), g.dim());
        assert_eq!(msg.report.total(), msg.payload.len());
        assert_eq!(msg.report.pairs, 3);
    }

    #[test]
    fn payload_size_is_shape_not_nnz() {
        let c = compressor();
        // Same key range (the header encodes it) and varint-width-equal nnz
        // (2 vs 100), so only the pair count differs — frames must match.
        let small = c
            .compress(&grad(40_000, &[(0, 1.0), (99 * 17, 0.5)]))
            .unwrap();
        let pairs: Vec<(u64, f64)> = (0..100).map(|i| (i * 17, 0.001 * i as f64)).collect();
        let big = c.compress(&grad(40_000, &pairs)).unwrap();
        assert_eq!(small.payload.len(), big.payload.len());
    }

    #[test]
    fn sharded_decode_stays_within_each_shards_key_range() {
        // Regression: per-shard top-k used to scan the full domain, so a
        // shard's decode could surface ghost keys outside its key range and
        // the merged shards were no longer ascending. The frame's key window
        // confines each shard's scan.
        let c = crate::ShardedCompressor::new(compressor(), 4).unwrap();
        let pairs: Vec<(u64, f64)> = (0..3_000)
            .map(|i| (i * 13 + 5, ((i % 257) as f64 - 128.0) / 64.0))
            .collect();
        let g = grad(50_000, &pairs);
        let msg = c.compress(&g).unwrap();
        let d = c.decompress(&msg.payload).unwrap();
        assert_eq!(d.dim(), g.dim());
        // Decode is lossy (nnz >> k per shard) but every key must come from
        // the input's range, in strictly ascending order (SparseGradient::new
        // inside decompress already enforces ascending; check the bounds).
        assert!(d.nnz() > 0);
        assert!(*d.keys().first().unwrap() >= 5);
        assert!(*d.keys().last().unwrap() <= 2_999 * 13 + 5);
    }

    #[test]
    fn scratch_path_is_byte_identical() {
        let c = compressor();
        let pairs: Vec<(u64, f64)> = (0..500)
            .map(|i| (i * 31, (i as f64 - 250.0) / 64.0))
            .collect();
        let g = grad(40_000, &pairs);
        let msg = c.compress(&g).unwrap();
        let mut scratch = CompressScratch::new();
        let mut out = BytesMut::new();
        let report = c.compress_into(&g, &mut scratch, &mut out).unwrap();
        assert_eq!(&out[..], &msg.payload[..]);
        assert_eq!(report.total(), msg.report.total());
        let mut decoded = SparseGradient::empty(0);
        c.decompress_into(&out, &mut scratch, &mut decoded).unwrap();
        let reference = c.decompress(&msg.payload).unwrap();
        assert_eq!(decoded.keys(), reference.keys());
        assert_eq!(decoded.values(), reference.values());
    }

    #[test]
    fn dense_fast_path_matches_scalar_reference() {
        let c = compressor();
        // One contiguous key run covering > half the domain: dense path.
        let pairs: Vec<(u64, f64)> = (0..4096u64)
            .map(|i| (i + 7, ((i % 97) as f64 - 48.0) / 16.0))
            .collect();
        let g = grad(5_000, &pairs);
        assert!(CountSketchCompressor::is_contiguous_dense(&g));
        let mut scratch = CompressScratch::new();
        let mut out = BytesMut::new();
        c.compress_into(&g, &mut scratch, &mut out).unwrap();
        let (rows, cols) = (c.config.rows as usize, c.config.cols as usize);
        let mut reference = vec![0.0f64; rows * cols];
        CountSketchCompressor::sketch_rows_scalar(&g, &scratch, &mut reference, rows, cols);
        assert!(
            scratch
                .csk_cells
                .iter()
                .zip(&reference)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "dense path cell table must be bit-identical to the scalar scan"
        );
        // And a fresh scratch writes the same frame.
        assert_eq!(&out[..], &c.compress(&g).unwrap().payload[..]);
        // Non-contiguous keys never take the fast path.
        let sparse = grad(5_000, &[(0, 1.0), (4_999, -1.0)]);
        assert!(!CountSketchCompressor::is_contiguous_dense(&sparse));
        // Contiguous but below the density threshold: keep the key scan.
        let short: Vec<(u64, f64)> = (0..100u64).map(|i| (i, 1.0)).collect();
        assert!(!CountSketchCompressor::is_contiguous_dense(&grad(
            5_000, &short
        )));
    }

    #[test]
    fn empty_gradient_roundtrips() {
        let c = compressor();
        let g = SparseGradient::empty(1_000);
        let msg = c.compress(&g).unwrap();
        let d = c.decompress(&msg.payload).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.dim(), 1_000);
    }

    #[test]
    fn frame_mismatch_is_typed() {
        let c = compressor();
        let other = CountSketchCompressor::new(CountSketchConfig {
            seed: 999,
            ..CountSketchConfig::default()
        })
        .unwrap();
        let msg = other.compress(&grad(100, &[(1, 1.0)])).unwrap();
        assert!(matches!(
            c.decompress(&msg.payload),
            Err(CompressError::Corrupt(_))
        ));
        // Same table, another heavy-hitter count: refused, not reinterpreted.
        let other_k = CountSketchCompressor::new(CountSketchConfig {
            k: 256,
            ..CountSketchConfig::default()
        })
        .unwrap();
        let msg = other_k.compress(&grad(100, &[(1, 1.0)])).unwrap();
        assert!(matches!(
            c.decompress(&msg.payload),
            Err(CompressError::Corrupt(m)) if m.contains("k=256")
        ));
        assert!(c.decompress(&[]).is_err());
        assert!(c.decompress(&[0xC5]).is_err());
    }

    #[test]
    fn linear_merge_matches_sketch_of_sum_bit_for_bit() {
        let c = compressor();
        // Dyadic values: every f64 addition below is exact.
        let a = grad(4_096, &[(1, 0.5), (100, -0.25), (900, 1.5)]);
        let b = grad(4_096, &[(100, 0.75), (500, -2.0)]);
        let pa = c.compress(&a).unwrap();
        let pb = c.compress(&b).unwrap();

        let mut scratch = CompressScratch::new();
        let mut acc = MergeAcc::new();
        acc.reset(4_096);
        c.accumulate_hop(
            &mut acc,
            &pa.payload,
            1.0,
            MergePolicy::Linear,
            &mut scratch,
        )
        .unwrap();
        c.accumulate_hop(
            &mut acc,
            &pb.payload,
            1.0,
            MergePolicy::Linear,
            &mut scratch,
        )
        .unwrap();
        let merged = c.finish(&acc).unwrap();

        let sum = SparseGradient::aggregate(&[a, b]).unwrap();
        let reference = c.decompress(&c.compress(&sum).unwrap().payload).unwrap();
        assert_eq!(merged.keys(), reference.keys());
        assert_eq!(merged.values(), reference.values());
    }

    #[test]
    fn linear_hop_payload_is_a_csk_frame() {
        let c = compressor();
        let g = grad(4_096, &[(1, 0.5), (9, -0.25)]);
        let p = c.compress(&g).unwrap();
        let mut scratch = CompressScratch::new();
        let mut acc = MergeAcc::new();
        acc.reset(4_096);
        c.accumulate_hop(&mut acc, &p.payload, 1.0, MergePolicy::Linear, &mut scratch)
            .unwrap();
        let mut hop = BytesMut::new();
        c.emit_hop(&acc, MergePolicy::Linear, &mut scratch, &mut hop)
            .unwrap();
        assert_eq!(hop[0], csk::CSK_MAGIC);
        // The re-emitted frame folds back losslessly.
        let mut acc2 = MergeAcc::new();
        acc2.reset(4_096);
        c.accumulate_hop(&mut acc2, &hop, 1.0, MergePolicy::Linear, &mut scratch)
            .unwrap();
        let d = c.finish(&acc2).unwrap();
        assert_eq!(d.keys(), g.keys());
        assert_eq!(d.values(), g.values());
    }

    #[test]
    fn non_linear_policies_still_work() {
        let c = compressor();
        let g = grad(4_096, &[(1, 0.5), (9, -0.25)]);
        let p = c.compress(&g).unwrap();
        let mut scratch = CompressScratch::new();
        let mut acc = MergeAcc::new();
        acc.reset(4_096);
        // Exact policy decodes the payload to pairs (extraction per hop).
        c.accumulate_hop(&mut acc, &p.payload, 1.0, MergePolicy::Exact, &mut scratch)
            .unwrap();
        assert!(acc.linear().is_none());
        assert_eq!(acc.keys(), g.keys());
        let d = c.finish(&acc).unwrap();
        assert_eq!(d.values(), g.values());
    }

    #[test]
    fn default_mergeables_reject_linear_tables() {
        use crate::baselines::RawCompressor;
        let cs = compressor();
        let raw = RawCompressor::default();
        let g = grad(4_096, &[(1, 0.5)]);
        let p = cs.compress(&g).unwrap();
        let mut scratch = CompressScratch::new();
        let mut acc = MergeAcc::new();
        acc.reset(4_096);
        cs.accumulate_hop(&mut acc, &p.payload, 1.0, MergePolicy::Linear, &mut scratch)
            .unwrap();
        assert!(!raw.supports_linear());
        assert!(matches!(
            raw.finish(&acc),
            Err(CompressError::InvalidConfig(_))
        ));
    }
}
