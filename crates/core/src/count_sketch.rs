//! Count-Sketch gradient compressor: linear payloads with sketched momentum.
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
//! Momentum and error feedback fold *into* the sketch instead of wrapping
//! around the compressor like [`crate::feedback::ErrorFeedback`]: with
//! `momentum = Some(ρ)` the compressor keeps a state sketch `S` and each
//! step computes `S ← ρ·S + S(g_t)`, ships `S`, then subtracts the sketch of
//! the extracted top-`k` — the un-extracted mass *is* the residual, carried
//! in sketch space (SketchSGD, arXiv:1903.04488). With `momentum = None`
//! compression is pure and deterministic, which the exactness tests and the
//! sharded engine rely on.

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
use std::sync::{Mutex, MutexGuard};

/// Shape and behaviour of a [`CountSketchCompressor`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct CountSketchConfig {
    /// Sketch rows (independent hash/sign pairs); at most 64.
    pub rows: u32,
    /// Sketch columns (bins per row).
    pub cols: u32,
    /// Heavy hitters extracted on decode (ignored when `auto_k` is set).
    pub k: u32,
    /// Seed for both hash families; sender and receiver must agree.
    pub seed: u64,
    /// `Some(ρ)` enables sketched momentum + error feedback in sketch
    /// space (stateful); `None` is pure deterministic compression.
    pub momentum: Option<f64>,
    /// Adaptive heavy-hitter count (registry `k=auto`): each frame's `k`
    /// is derived from the round's observed nnz instead of the fixed `k`
    /// above — sparse rounds stop extracting ghosts past their own pair
    /// count, dense rounds are clamped to the table's resolving power
    /// (`cols / 4`). The chosen `k` travels in the frame header, so the
    /// decoder follows the encoder round by round.
    pub auto_k: bool,
}

impl Default for CountSketchConfig {
    fn default() -> Self {
        CountSketchConfig {
            rows: 5,
            cols: 2048,
            k: 512,
            seed: 0xC5C5_0001,
            momentum: None,
            auto_k: false,
        }
    }
}

// Hand-written so configs serialized before `auto_k` existed still parse
// (they default to the fixed-k mode) — same pattern as `TrainSpec`.
impl serde::Deserialize for CountSketchConfig {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_obj()
            .ok_or_else(|| serde::Error::custom("CountSketchConfig: expected an object"))?;
        Ok(CountSketchConfig {
            rows: serde::Deserialize::from_value(serde::field(obj, "rows")?)?,
            cols: serde::Deserialize::from_value(serde::field(obj, "cols")?)?,
            k: serde::Deserialize::from_value(serde::field(obj, "k")?)?,
            seed: serde::Deserialize::from_value(serde::field(obj, "seed")?)?,
            momentum: serde::Deserialize::from_value(serde::field(obj, "momentum")?)?,
            auto_k: match serde::field(obj, "auto_k") {
                Ok(val) => serde::Deserialize::from_value(val)?,
                Err(_) => false,
            },
        })
    }
}

impl CountSketchConfig {
    /// Validates shape bounds and the momentum range.
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
        if let Some(m) = self.momentum {
            if !(0.0..1.0).contains(&m) {
                return Err(CompressError::InvalidConfig(format!(
                    "countsketch momentum must be in [0, 1), got {m}"
                )));
            }
        }
        Ok(())
    }

    fn table_len(&self) -> usize {
        self.rows as usize * self.cols as usize
    }

    /// Ceiling for an adaptive `k`: extracting more than `cols / 4` heavy
    /// hitters from a row of `cols` counters mostly surfaces collision
    /// noise, so auto mode never asks for more.
    fn auto_k_cap(&self) -> u32 {
        (self.cols / 4).max(1)
    }

    /// The heavy-hitter count stamped into a frame for a gradient with
    /// `nnz` pairs: the fixed `k`, or — in auto mode — the observed nnz
    /// clamped to `[1, cols / 4]`.
    pub fn effective_k(&self, nnz: u64) -> u32 {
        if !self.auto_k {
            return self.k;
        }
        nnz.clamp(1, u64::from(self.auto_k_cap())) as u32
    }

    fn header(&self, dim: u64, nnz: u64, key_range: (u64, u64)) -> CskHeader {
        CskHeader {
            dim,
            rows: self.rows,
            cols: self.cols,
            k: self.effective_k(nnz),
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

/// Momentum-mode state: the running sketch `S` after residual subtraction,
/// plus the union of every key range folded in (the residual can live at any
/// key a past round touched).
#[derive(Debug, Default)]
struct CsState {
    sketch: Option<CountSketch>,
    dim: u64,
    key_lo: u64,
    key_end: u64,
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
#[derive(Debug)]
pub struct CountSketchCompressor {
    config: CountSketchConfig,
    state: Mutex<CsState>,
}

impl CountSketchCompressor {
    /// Creates a compressor after validating `config`.
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] from [`CountSketchConfig::validate`].
    pub fn new(config: CountSketchConfig) -> Result<Self, CompressError> {
        config.validate()?;
        Ok(CountSketchCompressor {
            config,
            state: Mutex::new(CsState::default()),
        })
    }

    /// The configuration this compressor was built with.
    pub fn config(&self) -> &CountSketchConfig {
        &self.config
    }

    /// Recovers from a poisoned lock: the state sketch is plain data, valid
    /// under any interleaving (same idiom as `ErrorFeedback`).
    fn lock_state(&self) -> MutexGuard<'_, CsState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Checks a parsed frame against this compressor's configuration. In
    /// auto-`k` mode the frame's `k` is the encoder's per-round choice, so
    /// only its bounds are checked, not equality.
    fn check_frame(&self, h: &CskHeader) -> Result<(), CompressError> {
        let c = &self.config;
        if h.rows != c.rows || h.cols != c.cols || h.seed != c.seed {
            return Err(CompressError::Corrupt(format!(
                "CSK frame {}x{} seed={} does not match configured {}x{} seed={}",
                h.rows, h.cols, h.seed, c.rows, c.cols, c.seed
            )));
        }
        if c.auto_k {
            if h.k == 0 || h.k > c.auto_k_cap() {
                return Err(CompressError::Corrupt(format!(
                    "CSK frame k={} outside auto-k bounds 1..={}",
                    h.k,
                    c.auto_k_cap()
                )));
            }
        } else if h.k != c.k {
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

    /// Momentum-mode encode: `S ← ρ·S + S(g)`, ship `S`, subtract the
    /// extracted top-`k` from `S` (the residual stays in sketch space).
    fn momentum_frame(
        &self,
        rho: f64,
        grad: &SparseGradient,
        out: &mut BytesMut,
    ) -> Result<usize, CompressError> {
        let c = &self.config;
        let mut state = self.lock_state();
        if state.dim != grad.dim() || state.sketch.is_none() {
            state.sketch = Some(
                CountSketch::new(c.rows as usize, c.cols as usize, c.seed)
                    .map_err(|e| CompressError::InvalidConfig(format!("countsketch state: {e}")))?,
            );
            state.dim = grad.dim();
            state.key_lo = 0;
            state.key_end = 0;
        }
        let (lo, end) = key_range(grad);
        if lo != end {
            if state.key_lo == state.key_end {
                (state.key_lo, state.key_end) = (lo, end);
            } else {
                state.key_lo = state.key_lo.min(lo);
                state.key_end = state.key_end.max(end);
            }
        }
        let dim = state.dim;
        let range = (state.key_lo, state.key_end);
        let sketch = state.sketch.as_mut().expect("state sketch just ensured");
        sketch.scale(rho);
        sketch.insert_batch(grad.keys(), grad.values());
        let header = c.header(dim, grad.nnz() as u64, range);
        let frame_k = header.k;
        let header_bytes =
            csk::write_frame(&header, sketch.cells(), out).map_err(CompressError::Encoding)?;
        // Extract what the receiver will extract (the frame's own k, which
        // auto mode adapts per round), and subtract it: the remaining table
        // is exactly the quantization residual.
        let mut keys = Vec::new();
        let mut vals = Vec::new();
        sketch.top_k_range_into(frame_k as usize, range.0..range.1, &mut keys, &mut vals);
        for v in &mut vals {
            *v = -*v;
        }
        sketch.insert_batch(&keys, &vals);
        Ok(header_bytes)
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
        let header_bytes = match self.config.momentum {
            Some(rho) => self.momentum_frame(rho, grad, out)?,
            None => {
                self.sketch_into_scratch(grad, scratch);
                csk::write_frame(
                    &self
                        .config
                        .header(grad.dim(), grad.nnz() as u64, key_range(grad)),
                    &scratch.csk_cells,
                    out,
                )
                .map_err(CompressError::Encoding)?
            }
        };
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
        // Auto-k hops each stamp a per-round count; the merged gradient's
        // support is bounded by the *total* folded nnz, not any single hop's
        // request, so extraction widens to that (still capped at cols/4).
        // Zero-estimate keys are filtered, so a generous bound stays exact.
        let k = if c.auto_k {
            self.config.effective_k(table.nnz()) as usize
        } else {
            table.k() as usize
        };
        sketch.top_k_range_into(k, lo..end, &mut keys, &mut vals);
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
                momentum: Some(1.0),
                ..Default::default()
            },
            CountSketchConfig {
                momentum: Some(-0.1),
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
        assert!(c.decompress(&[]).is_err());
        assert!(c.decompress(&[0xC5]).is_err());
    }

    #[test]
    fn auto_k_tracks_observed_nnz_per_round() {
        let c = CountSketchCompressor::new(CountSketchConfig {
            auto_k: true,
            k: 1, // ignored in auto mode
            ..CountSketchConfig::default()
        })
        .unwrap();
        // Round 1: 3 pairs → the frame asks for exactly 3 heavy hitters and
        // the sparse round decodes exactly (k=1 would have dropped two).
        let g = grad(40_000, &[(7, 0.5), (90, -0.25), (900, 0.125)]);
        let d = c.decompress(&c.compress(&g).unwrap().payload).unwrap();
        assert_eq!(d.keys(), g.keys());
        assert_eq!(d.values(), g.values());
        // Round 2 (same compressor, denser): k is clamped to cols/4.
        let cap = (CountSketchConfig::default().cols / 4) as usize;
        let pairs: Vec<(u64, f64)> = (0..2 * cap as u64)
            .map(|i| (i * 7, 1.0 + i as f64))
            .collect();
        let dense = c
            .decompress(&c.compress(&grad(40_000, &pairs)).unwrap().payload)
            .unwrap();
        assert!(dense.nnz() <= cap, "{} extracted, cap {cap}", dense.nnz());
    }

    #[test]
    fn auto_k_decoder_rejects_out_of_bounds_frame_k() {
        let auto = CountSketchCompressor::new(CountSketchConfig {
            auto_k: true,
            ..CountSketchConfig::default()
        })
        .unwrap();
        // A fixed-k peer stamps k=1024, which exceeds the auto cap
        // (cols / 4 = 512) and must be rejected as a typed error, not
        // silently honoured.
        let fixed = CountSketchCompressor::new(CountSketchConfig {
            k: 1024,
            ..CountSketchConfig::default()
        })
        .unwrap();
        let msg = fixed.compress(&grad(100, &[(1, 1.0)])).unwrap();
        assert!(matches!(
            auto.decompress(&msg.payload),
            Err(CompressError::Corrupt(_))
        ));
        // The other direction: a fixed-k decoder rejects an auto frame whose
        // per-round k differs from its configured k.
        let auto_msg = auto.compress(&grad(100, &[(1, 1.0), (2, 2.0)])).unwrap();
        assert!(matches!(
            fixed.decompress(&auto_msg.payload),
            Err(CompressError::Corrupt(_))
        ));
    }

    #[test]
    fn auto_k_linear_merge_takes_max_frame_k() {
        let c = CountSketchCompressor::new(CountSketchConfig {
            auto_k: true,
            ..CountSketchConfig::default()
        })
        .unwrap();
        // Two hops with different per-round k (2 pairs vs 3 pairs): the
        // accumulated table extracts with the max, recovering every key.
        let a = grad(4_096, &[(1, 0.5), (100, -0.25)]);
        let b = grad(4_096, &[(100, 0.75), (500, -2.0), (900, 1.5)]);
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
        assert_eq!(acc.linear().unwrap().k(), 3);
        let merged = c.finish(&acc).unwrap();
        let sum = SparseGradient::aggregate(&[a, b]).unwrap();
        assert_eq!(merged.keys(), sum.keys());
        assert_eq!(merged.values(), sum.values());
    }

    #[test]
    fn momentum_accumulates_and_keeps_residual() {
        let rho = 0.5;
        let c = CountSketchCompressor::new(CountSketchConfig {
            momentum: Some(rho),
            ..CountSketchConfig::default()
        })
        .unwrap();
        let g = grad(10_000, &[(3, 1.0)]);
        // Step 1: S = S(g); extract recovers exactly 1.0 and subtracts it.
        let d1 = c.decompress(&c.compress(&g).unwrap().payload).unwrap();
        assert_eq!(d1.keys(), &[3]);
        assert_eq!(d1.values(), &[1.0]);
        // Step 2: S = ρ·0 + S(g) again — full extraction last step means no
        // residual carries, so the decoded value is 1.0 again, not 1.5.
        let d2 = c.decompress(&c.compress(&g).unwrap().payload).unwrap();
        assert_eq!(d2.values(), &[1.0]);
    }

    #[test]
    fn momentum_rho_carries_unextracted_mass() {
        // k=1 forces partial extraction: with two heavy keys only the
        // heavier ships each round; the other decays by ρ but compounds
        // with the fresh contribution (all dyadic → exact arithmetic).
        let c = CountSketchCompressor::new(CountSketchConfig {
            k: 1,
            momentum: Some(0.5),
            ..CountSketchConfig::default()
        })
        .unwrap();
        let g = grad(10_000, &[(3, 1.0), (70, 0.75)]);
        let d1 = c.decompress(&c.compress(&g).unwrap().payload).unwrap();
        assert_eq!(d1.keys(), &[3]); // the heavier key ships first
                                     // Round 2: S = ρ·{70: 0.75} + {3: 1.0, 70: 0.75} → 1.125 beats 1.0.
        let d2 = c.decompress(&c.compress(&g).unwrap().payload).unwrap();
        assert_eq!(d2.keys(), &[70]);
        assert_eq!(d2.values(), &[1.125]);
    }

    #[test]
    fn momentum_state_resets_on_dim_change() {
        let c = CountSketchCompressor::new(CountSketchConfig {
            momentum: Some(0.9),
            ..CountSketchConfig::default()
        })
        .unwrap();
        c.compress(&grad(100, &[(1, 1.0)])).unwrap();
        let d = c
            .decompress(&c.compress(&grad(200, &[(5, 2.0)])).unwrap().payload)
            .unwrap();
        assert_eq!(d.keys(), &[5]);
        assert_eq!(d.values(), &[2.0]);
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
