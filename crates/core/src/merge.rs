//! Mergeable compression: the wire-level operations collective aggregation
//! (ring / tree allreduce) performs on *compressed* gradient payloads
//! instead of decompressing everything at a central driver.
//!
//! Three hop-payload policies are supported, because exactness and per-link
//! bytes pull in opposite directions:
//!
//! * [`MergePolicy::Exact`] — intermediate hops carry **AGG frames**: the
//!   delta-binary key union plus full-precision `f64` partial sums. The
//!   final aggregate is numerically the driver's instance-weighted mean
//!   (modulo floating-point reassociation from the hop order), so training
//!   trajectories match the star topology to ~1e-12 per round. Partial sums
//!   cannot be compressed below ~8 bytes/key without losing exactness, so
//!   hop frames are larger than native SketchML payloads.
//! * [`MergePolicy::Resketch`] — every hop decodes, accumulates, and
//!   **re-compresses** the running partial aggregate with the native
//!   compressor, so each link carries a genuinely sketch-compressed payload
//!   (~2 bytes/key for SketchML). Quantization error compounds once per
//!   merge hop, but the MinMaxSketch underestimate-only rule keeps every
//!   hop's error conservative: magnitudes decay, signs never flip.
//! * [`MergePolicy::Linear`] — hops carry raw **Count-Sketch cell tables**
//!   (CSK frames, [`sketchml_encoding::csk`]) merged element-wise: no key
//!   union, no resketch, and heavy-hitter extraction is deferred to the
//!   final hop. Because the sketch is linear, the merged table is
//!   *bit-identical* to the single-node sketch of the summed gradient
//!   (modulo f64 reassociation, which vanishes for dyadic inputs). Only
//!   compressors whose payloads are linear opt in via
//!   [`MergeableCompressor::supports_linear`].
//!
//! [`MergeAcc`] is the accumulator all policies share; the
//! [`MergeableCompressor`] trait plugs any [`GradientCompressor`] into it.

use crate::compressor::GradientCompressor;
use crate::error::CompressError;
use crate::gradient::SparseGradient;
use crate::scratch::CompressScratch;
use bytes::BytesMut;
use sketchml_encoding::csk::{self, CskHeader};
use sketchml_encoding::{delta_binary, varint};

/// Lead byte of an AGG (exact partial-aggregate) frame. Distinct from every
/// native compressor magic (`0x0D`/`0x0E`/`0x0F` baselines, `0xA5` Quan,
/// `0xA7` SketchML, `0x21` ZipML) and from the sharded framing's `0x00` v2
/// sentinel, so [`MergeableCompressor::accumulate`] can sniff frame kinds.
pub const AGG_MAGIC: u8 = 0xAC;

/// Version byte of the AGG frame format.
pub const AGG_VERSION: u8 = 1;

/// How intermediate hops of a collective represent partial aggregates.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum MergePolicy {
    /// Hops carry exact `f64` partial sums in AGG frames: bit-faithful to
    /// driver aggregation modulo summation order, at ~9 bytes/key per hop.
    #[default]
    Exact,
    /// Hops re-compress the partial aggregate with the native compressor:
    /// sketch-sized links, conservatively lossy (one quantization per hop).
    Resketch,
    /// Hops merge raw Count-Sketch cell tables element-wise (CSK frames),
    /// deferring heavy-hitter extraction to the final hop. Requires a
    /// compressor with [`MergeableCompressor::supports_linear`].
    Linear,
}

impl MergePolicy {
    /// Short name used in benches and config files.
    pub fn name(self) -> &'static str {
        match self {
            MergePolicy::Exact => "exact",
            MergePolicy::Resketch => "resketch",
            MergePolicy::Linear => "linear",
        }
    }
}

/// The linear-merge state of a [`MergeAcc`]: a full Count-Sketch cell table
/// plus the window of cells this accumulator is responsible for emitting.
/// The table always allocates `rows · cols` cells — cells outside every
/// folded window stay exactly `0.0`, so additions commute bit-exactly — and
/// the emit window is the union of all folded windows.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearTable {
    dim: u64,
    rows: u32,
    cols: u32,
    k: u32,
    seed: u64,
    nnz: u64,
    key_lo: u64,
    key_end: u64,
    win_start: u64,
    win_end: u64,
    cells: Vec<f64>,
}

impl LinearTable {
    /// Gradient dimension the table summarizes.
    pub fn dim(&self) -> u64 {
        self.dim
    }

    /// Sketch rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Sketch columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Heavy hitters to extract at the final hop: the `k` every folded
    /// frame carries.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Hash-family seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total pair count folded in so far (reporting only).
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// `[lo, end)` union of every folded frame's key range — the bound for
    /// the final heavy-hitter extraction.
    pub fn key_range(&self) -> (u64, u64) {
        (self.key_lo, self.key_end)
    }

    /// Total cells of the full table.
    pub fn table_len(&self) -> u64 {
        u64::from(self.rows) * u64::from(self.cols)
    }

    /// The full cell table (row-major, `rows · cols` long).
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }

    /// The `[start, end)` cell window this accumulator emits.
    pub fn window(&self) -> (u64, u64) {
        (self.win_start, self.win_end)
    }

    fn header(&self) -> CskHeader {
        CskHeader {
            dim: self.dim,
            rows: self.rows,
            cols: self.cols,
            k: self.k,
            seed: self.seed,
            nnz: self.nnz,
            key_lo: self.key_lo,
            key_end: self.key_end,
            cell_start: self.win_start,
            cell_count: self.win_end - self.win_start,
        }
    }

    fn check_compatible(&self, h: &CskHeader) -> Result<(), CompressError> {
        if self.dim != h.dim
            || self.rows != h.rows
            || self.cols != h.cols
            || self.k != h.k
            || self.seed != h.seed
        {
            return Err(CompressError::Corrupt(format!(
                "CSK frame shape {}x{} k={} seed={} dim={} does not match \
                 accumulated table {}x{} k={} seed={} dim={}",
                h.rows,
                h.cols,
                h.k,
                h.seed,
                h.dim,
                self.rows,
                self.cols,
                self.k,
                self.seed,
                self.dim
            )));
        }
        Ok(())
    }
}

/// Accumulator for partial gradient aggregates: a sorted key-union with one
/// running `f64` sum per key. Buffers persist across [`reset`](Self::reset)
/// calls so steady-state accumulation does not allocate.
#[derive(Debug, Clone)]
pub struct MergeAcc {
    dim: u64,
    keys: Vec<u64>,
    sums: Vec<f64>,
    // Union scratch, swapped with the live buffers each accumulate.
    tmp_keys: Vec<u64>,
    tmp_sums: Vec<f64>,
    decode: SparseGradient,
    // Linear-policy state: present once a CSK frame has been folded.
    linear: Option<LinearTable>,
}

impl Default for MergeAcc {
    fn default() -> Self {
        Self::new()
    }
}

impl MergeAcc {
    /// Creates an empty accumulator over a zero-dimensional space; call
    /// [`reset`](Self::reset) before use.
    pub fn new() -> Self {
        Self {
            dim: 0,
            keys: Vec::new(),
            sums: Vec::new(),
            tmp_keys: Vec::new(),
            tmp_sums: Vec::new(),
            decode: SparseGradient::empty(0),
            linear: None,
        }
    }

    /// Clears the accumulator for a new aggregation over `dim` keys.
    pub fn reset(&mut self, dim: u64) {
        self.dim = dim;
        self.keys.clear();
        self.sums.clear();
        self.linear = None;
    }

    /// The linear-merge cell table, if any CSK frame has been folded since
    /// the last [`reset`](Self::reset).
    pub fn linear(&self) -> Option<&LinearTable> {
        self.linear.as_ref()
    }

    /// True when nothing — neither pairs nor a linear table — has been
    /// accumulated.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty() && self.linear.is_none()
    }

    /// Gradient dimension this accumulator aggregates over.
    pub fn dim(&self) -> u64 {
        self.dim
    }

    /// Number of distinct keys accumulated so far.
    pub fn nnz(&self) -> usize {
        self.keys.len()
    }

    /// Sorted distinct keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Running per-key sums, parallel to [`keys`](Self::keys).
    pub fn sums(&self) -> &[f64] {
        &self.sums
    }

    /// Folds `scale * values` into the running sums by sorted key-union.
    ///
    /// # Errors
    /// [`CompressError::InvalidGradient`] on unsorted/duplicate keys, a
    /// length mismatch, or a key at or beyond the accumulator's dimension —
    /// the signatures of a corrupt upstream payload.
    pub fn accumulate_pairs(
        &mut self,
        keys: &[u64],
        values: &[f64],
        scale: f64,
    ) -> Result<(), CompressError> {
        if keys.len() != values.len() {
            return Err(CompressError::InvalidGradient(format!(
                "{} keys vs {} values",
                keys.len(),
                values.len()
            )));
        }
        if let Some(&last) = keys.last() {
            if last >= self.dim {
                return Err(CompressError::InvalidGradient(format!(
                    "key {last} outside dimension {}",
                    self.dim
                )));
            }
        }
        for w in keys.windows(2) {
            if w[1] <= w[0] {
                return Err(CompressError::InvalidGradient(format!(
                    "keys must be strictly ascending: {} then {}",
                    w[0], w[1]
                )));
            }
        }
        self.tmp_keys.clear();
        self.tmp_sums.clear();
        self.tmp_keys.reserve(self.keys.len() + keys.len());
        self.tmp_sums.reserve(self.keys.len() + keys.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.keys.len() && j < keys.len() {
            match self.keys[i].cmp(&keys[j]) {
                std::cmp::Ordering::Less => {
                    self.tmp_keys.push(self.keys[i]);
                    self.tmp_sums.push(self.sums[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    self.tmp_keys.push(keys[j]);
                    self.tmp_sums.push(scale * values[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    self.tmp_keys.push(self.keys[i]);
                    self.tmp_sums.push(self.sums[i] + scale * values[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
        while i < self.keys.len() {
            self.tmp_keys.push(self.keys[i]);
            self.tmp_sums.push(self.sums[i]);
            i += 1;
        }
        while j < keys.len() {
            self.tmp_keys.push(keys[j]);
            self.tmp_sums.push(scale * values[j]);
            j += 1;
        }
        std::mem::swap(&mut self.keys, &mut self.tmp_keys);
        std::mem::swap(&mut self.sums, &mut self.tmp_sums);
        Ok(())
    }

    /// [`accumulate_pairs`](Self::accumulate_pairs) from a decoded gradient.
    ///
    /// # Errors
    /// As [`accumulate_pairs`](Self::accumulate_pairs), plus a dimension
    /// mismatch against the accumulator.
    pub fn accumulate_gradient(
        &mut self,
        grad: &SparseGradient,
        scale: f64,
    ) -> Result<(), CompressError> {
        if grad.dim() != self.dim {
            return Err(CompressError::InvalidGradient(format!(
                "gradient dimension {} does not match accumulator {}",
                grad.dim(),
                self.dim
            )));
        }
        self.accumulate_pairs(grad.keys(), grad.values(), scale)
    }

    /// Materializes the aggregate as a gradient, dropping keys whose sum is
    /// exactly zero — the same canonical form [`SparseGradient::aggregate`]
    /// produces, so collective and driver aggregation agree on key sets.
    ///
    /// # Errors
    /// Propagates gradient validation (non-finite sums).
    pub fn to_gradient(&self) -> Result<SparseGradient, CompressError> {
        let mut keys = Vec::with_capacity(self.keys.len());
        let mut values = Vec::with_capacity(self.sums.len());
        for (&k, &s) in self.keys.iter().zip(&self.sums) {
            if s != 0.0 {
                keys.push(k);
                values.push(s);
            }
        }
        SparseGradient::new(self.dim, keys, values)
    }

    /// Serializes the accumulator as an AGG frame:
    ///
    /// ```text
    /// 0xAC | version | varint dim | varint nnz | delta-binary keys | nnz f64 LE sums
    /// ```
    ///
    /// `out` is cleared first. Returns the frame length in bytes.
    ///
    /// # Errors
    /// Propagates key-encoding failures ([`CompressError::Encoding`]).
    pub fn write_agg(&self, out: &mut BytesMut) -> Result<usize, CompressError> {
        out.clear();
        out.extend_from_slice(&[AGG_MAGIC, AGG_VERSION]);
        varint::write_u64(out, self.dim);
        varint::write_u64(out, self.keys.len() as u64);
        delta_binary::encode_keys_into(&self.keys, out)?;
        for &s in &self.sums {
            out.extend_from_slice(&s.to_le_bytes());
        }
        Ok(out.len())
    }

    /// Folds a serialized AGG frame into the accumulator with weight
    /// `scale` (hop payloads already carry their scales, so relays pass 1.0).
    /// Returns the number of key-value pairs the frame carried.
    ///
    /// # Errors
    /// [`CompressError::Corrupt`] on a malformed frame; accumulation errors
    /// as [`accumulate_pairs`](Self::accumulate_pairs).
    pub fn read_agg(&mut self, payload: &[u8], scale: f64) -> Result<usize, CompressError> {
        let mut buf = payload;
        if buf.len() < 2 || buf[0] != AGG_MAGIC {
            return Err(CompressError::Corrupt("AGG frame: bad magic".into()));
        }
        if buf[1] != AGG_VERSION {
            return Err(CompressError::Corrupt(format!(
                "AGG frame: unsupported version {}",
                buf[1]
            )));
        }
        buf = &buf[2..];
        let dim = varint::read_u64(&mut buf).map_err(CompressError::Encoding)?;
        if dim != self.dim {
            return Err(CompressError::Corrupt(format!(
                "AGG frame: dimension {dim} does not match accumulator {}",
                self.dim
            )));
        }
        let nnz = varint::read_u64(&mut buf).map_err(CompressError::Encoding)? as usize;
        if nnz > payload.len() {
            // Every key costs at least one byte on the wire.
            return Err(CompressError::Corrupt(format!(
                "AGG frame: {nnz} keys exceed the {} payload bytes",
                payload.len()
            )));
        }
        let mut keys = std::mem::take(&mut self.tmp_keys);
        let result = (|| {
            delta_binary::decode_keys_into(&mut buf, &mut keys).map_err(CompressError::Encoding)?;
            if keys.len() != nnz {
                return Err(CompressError::Corrupt(format!(
                    "AGG frame: key section holds {} keys, header says {nnz}",
                    keys.len()
                )));
            }
            if buf.len() != 8 * nnz {
                return Err(CompressError::Corrupt(format!(
                    "AGG frame: {} sum bytes left for {nnz} keys",
                    buf.len()
                )));
            }
            let mut sums = std::mem::take(&mut self.tmp_sums);
            sums.clear();
            for chunk in buf.chunks_exact(8) {
                sums.push(f64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
            }
            let r = self.accumulate_pairs(&keys, &sums, scale).map(|()| nnz);
            // `accumulate_pairs` used (and swapped) tmp_sums via the union;
            // hand the decode buffer back regardless of outcome.
            self.tmp_sums = sums;
            self.tmp_sums.clear();
            r
        })();
        keys.clear();
        self.tmp_keys = keys;
        result
    }

    /// Folds `scale · cells` (a window `[h.cell_start, h.cell_start +
    /// h.cell_count)` of a Count-Sketch table described by `h`) into the
    /// linear table, creating it on first fold. The emit window grows to the
    /// union of all folded windows.
    ///
    /// # Errors
    /// [`CompressError::Corrupt`] if `h` disagrees with the accumulator's
    /// dimension, an already-folded table's shape/seed, or `cells`' length.
    pub fn fold_linear(
        &mut self,
        h: &CskHeader,
        cells: &[f64],
        scale: f64,
    ) -> Result<(), CompressError> {
        if h.dim != self.dim {
            return Err(CompressError::Corrupt(format!(
                "CSK frame dimension {} does not match accumulator {}",
                h.dim, self.dim
            )));
        }
        if cells.len() as u64 != h.cell_count {
            return Err(CompressError::Corrupt(format!(
                "CSK frame declares {} cells but {} were supplied",
                h.cell_count,
                cells.len()
            )));
        }
        let table = match &mut self.linear {
            Some(t) => {
                t.check_compatible(h)?;
                t
            }
            None => {
                let len = usize::try_from(h.table_len())
                    .ok()
                    .filter(|&n| n <= u32::MAX as usize)
                    .ok_or_else(|| {
                        CompressError::Corrupt("CSK table exceeds u32::MAX cells".into())
                    })?;
                self.linear.insert(LinearTable {
                    dim: h.dim,
                    rows: h.rows,
                    cols: h.cols,
                    k: h.k,
                    seed: h.seed,
                    nnz: 0,
                    key_lo: h.key_lo,
                    key_end: h.key_end,
                    win_start: h.cell_start,
                    win_end: h.cell_start + h.cell_count,
                    cells: vec![0.0; len],
                })
            }
        };
        let start = h.cell_start as usize;
        for (dst, &src) in table.cells[start..start + cells.len()]
            .iter_mut()
            .zip(cells)
        {
            *dst += scale * src;
        }
        table.nnz = table.nnz.saturating_add(h.nnz);
        // Union the key ranges; an empty range ([lo, lo)) is the identity.
        if h.key_lo != h.key_end {
            if table.key_lo == table.key_end {
                (table.key_lo, table.key_end) = (h.key_lo, h.key_end);
            } else {
                table.key_lo = table.key_lo.min(h.key_lo);
                table.key_end = table.key_end.max(h.key_end);
            }
        }
        table.win_start = table.win_start.min(h.cell_start);
        table.win_end = table.win_end.max(h.cell_start + h.cell_count);
        Ok(())
    }

    /// Parses a CSK frame and [`fold_linear`](Self::fold_linear)s it in.
    /// Returns the pair count the frame declared.
    ///
    /// # Errors
    /// [`CompressError::Corrupt`] on a malformed frame or an incompatible
    /// table.
    pub fn read_csk(&mut self, payload: &[u8], scale: f64) -> Result<u64, CompressError> {
        let mut cells = std::mem::take(&mut self.tmp_sums);
        let result = csk::read_frame(payload, &mut cells)
            .map_err(|e| CompressError::Corrupt(format!("CSK frame: {e}")))
            .and_then(|h| self.fold_linear(&h, &cells, scale).map(|()| h.nnz));
        cells.clear();
        self.tmp_sums = cells;
        result
    }

    /// Serializes the linear table's emit window as a CSK frame (`out` is
    /// cleared first). Returns the frame length.
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] if no linear table is present.
    pub fn write_csk(&self, out: &mut BytesMut) -> Result<usize, CompressError> {
        let t = self.linear.as_ref().ok_or_else(|| {
            CompressError::InvalidConfig("no linear table accumulated to emit".into())
        })?;
        out.clear();
        let (start, end) = (t.win_start as usize, t.win_end as usize);
        csk::write_frame(&t.header(), &t.cells[start..end], out)
            .map_err(CompressError::Encoding)?;
        Ok(out.len())
    }

    /// Copies the cell window `[start, start + len)` of `src` into this
    /// accumulator as its own emit window — the reduce-scatter split: each
    /// ring chunk gets a per-chunk accumulator covering a disjoint cell
    /// range of the same table.
    ///
    /// # Errors
    /// [`CompressError::Corrupt`] if the window is out of range or conflicts
    /// with an existing fold.
    pub fn fold_linear_slice(
        &mut self,
        src: &LinearTable,
        start: u64,
        len: u64,
    ) -> Result<(), CompressError> {
        if start + len > src.table_len() || len == 0 {
            return Err(CompressError::Corrupt(format!(
                "cell window [{start}, {}) outside table of {} cells",
                start + len,
                src.table_len()
            )));
        }
        let h = CskHeader {
            cell_start: start,
            cell_count: len,
            ..src.header()
        };
        let range = start as usize..(start + len) as usize;
        self.fold_linear(&h, &src.cells[range], 1.0)
    }
}

/// A compressor whose payloads can be merged hop-by-hop inside a collective.
///
/// The default methods implement both policies on top of the
/// [`GradientCompressor`] contract, so `impl MergeableCompressor for X {}`
/// suffices for any compressor; the trait exists as an explicit capability
/// marker (and extension point) for the collective executor, which only
/// accepts compressors that opted in.
pub trait MergeableCompressor: GradientCompressor {
    /// True when this compressor's native payloads are CSK frames that can
    /// be merged element-wise under [`MergePolicy::Linear`]. The collective
    /// executor rejects `Linear` for compressors that return `false`.
    fn supports_linear(&self) -> bool {
        false
    }

    /// Folds a hop payload into `acc` with weight `scale`, returning the
    /// number of key-value pairs the payload carried (the decode work done,
    /// which cost models charge for). AGG frames are recognized by their
    /// magic; anything else is decoded by the native compressor.
    ///
    /// # Errors
    /// Decode or accumulation failures ([`CompressError`]).
    fn accumulate(
        &self,
        acc: &mut MergeAcc,
        payload: &[u8],
        scale: f64,
        scratch: &mut CompressScratch,
    ) -> Result<u64, CompressError> {
        if payload.first() == Some(&AGG_MAGIC) {
            return acc.read_agg(payload, scale).map(|n| n as u64);
        }
        let mut decoded = std::mem::replace(&mut acc.decode, SparseGradient::empty(0));
        let result = self
            .decompress_into(payload, scratch, &mut decoded)
            .and_then(|()| acc.accumulate_gradient(&decoded, scale))
            .map(|()| decoded.nnz() as u64);
        acc.decode = decoded;
        result
    }

    /// Policy-aware [`accumulate`](Self::accumulate): under
    /// [`MergePolicy::Linear`], CSK frames fold element-wise into the
    /// accumulator's table instead of being decoded to top-k pairs — the
    /// lossless one-pass merge. Every other (payload, policy) combination
    /// defers to `accumulate`.
    ///
    /// # Errors
    /// Decode or accumulation failures ([`CompressError`]).
    fn accumulate_hop(
        &self,
        acc: &mut MergeAcc,
        payload: &[u8],
        scale: f64,
        policy: MergePolicy,
        scratch: &mut CompressScratch,
    ) -> Result<u64, CompressError> {
        if policy == MergePolicy::Linear && payload.first() == Some(&csk::CSK_MAGIC) {
            return acc.read_csk(payload, scale);
        }
        self.accumulate(acc, payload, scale, scratch)
    }

    /// Serializes the accumulator as the next hop's payload under `policy`:
    /// an AGG frame for [`MergePolicy::Exact`], a re-compressed native
    /// payload for [`MergePolicy::Resketch`], a raw cell-table CSK frame for
    /// [`MergePolicy::Linear`] (falling back to an AGG frame when nothing
    /// linear was folded, so empty contributions stay representable).
    /// `out` is cleared first.
    ///
    /// # Errors
    /// Encoding failures ([`CompressError`]).
    fn emit_hop(
        &self,
        acc: &MergeAcc,
        policy: MergePolicy,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<(), CompressError> {
        match policy {
            MergePolicy::Exact => {
                acc.write_agg(out)?;
            }
            MergePolicy::Resketch => {
                let grad = acc.to_gradient()?;
                self.compress_into(&grad, scratch, out)?;
            }
            MergePolicy::Linear => {
                if acc.linear().is_some() {
                    acc.write_csk(out)?;
                } else {
                    acc.write_agg(out)?;
                }
            }
        }
        Ok(())
    }

    /// Materializes the final aggregate. With a linear table present this is
    /// where heavy-hitter extraction happens (overridden by the Count-Sketch
    /// compressor); the default is the exact pair aggregate.
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] if a linear table was accumulated
    /// but this compressor cannot extract from it; gradient validation
    /// otherwise.
    fn finish(&self, acc: &MergeAcc) -> Result<SparseGradient, CompressError> {
        if acc.linear().is_some() {
            return Err(CompressError::InvalidConfig(format!(
                "{} cannot extract heavy hitters from a linear cell table",
                self.name()
            )));
        }
        acc.to_gradient()
    }
}

// Forward every method through references explicitly: a bare `impl {}`
// would hand `&T` the *default* bodies and silently drop any overrides
// (e.g. the Count-Sketch compressor's `supports_linear`/`finish`).
impl<T: MergeableCompressor + ?Sized> MergeableCompressor for &T {
    fn supports_linear(&self) -> bool {
        (**self).supports_linear()
    }

    fn accumulate(
        &self,
        acc: &mut MergeAcc,
        payload: &[u8],
        scale: f64,
        scratch: &mut CompressScratch,
    ) -> Result<u64, CompressError> {
        (**self).accumulate(acc, payload, scale, scratch)
    }

    fn accumulate_hop(
        &self,
        acc: &mut MergeAcc,
        payload: &[u8],
        scale: f64,
        policy: MergePolicy,
        scratch: &mut CompressScratch,
    ) -> Result<u64, CompressError> {
        (**self).accumulate_hop(acc, payload, scale, policy, scratch)
    }

    fn emit_hop(
        &self,
        acc: &MergeAcc,
        policy: MergePolicy,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<(), CompressError> {
        (**self).emit_hop(acc, policy, scratch, out)
    }

    fn finish(&self, acc: &MergeAcc) -> Result<SparseGradient, CompressError> {
        (**self).finish(acc)
    }
}

impl MergeableCompressor for crate::sketchml::SketchMlCompressor {}
impl MergeableCompressor for crate::baselines::RawCompressor {}
impl MergeableCompressor for crate::baselines::KeyCompressor {}
impl MergeableCompressor for crate::baselines::TruncationCompressor {}
impl MergeableCompressor for crate::quantify::QuantCompressor {}
impl MergeableCompressor for crate::zipml::ZipMlCompressor {}
impl MergeableCompressor for crate::fastsgd::FastSgdCompressor {}
impl<C: GradientCompressor> MergeableCompressor for crate::sharded::ShardedCompressor<C> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RawCompressor;
    use crate::sketchml::SketchMlCompressor;

    fn grad(dim: u64, pairs: &[(u64, f64)]) -> SparseGradient {
        SparseGradient::new(
            dim,
            pairs.iter().map(|&(k, _)| k).collect(),
            pairs.iter().map(|&(_, v)| v).collect(),
        )
        .unwrap()
    }

    #[test]
    fn accumulate_unions_and_sums() {
        let mut acc = MergeAcc::new();
        acc.reset(100);
        acc.accumulate_gradient(&grad(100, &[(1, 1.0), (5, 2.0)]), 1.0)
            .unwrap();
        acc.accumulate_gradient(&grad(100, &[(5, 3.0), (9, -1.0)]), 2.0)
            .unwrap();
        assert_eq!(acc.keys(), &[1, 5, 9]);
        assert_eq!(acc.sums(), &[1.0, 8.0, -2.0]);
        let g = acc.to_gradient().unwrap();
        assert_eq!(g.keys(), &[1, 5, 9]);
    }

    #[test]
    fn to_gradient_drops_exact_zero_sums() {
        let mut acc = MergeAcc::new();
        acc.reset(10);
        acc.accumulate_pairs(&[2, 4], &[1.5, 2.0], 1.0).unwrap();
        acc.accumulate_pairs(&[2], &[-1.5], 1.0).unwrap();
        let g = acc.to_gradient().unwrap();
        assert_eq!(g.keys(), &[4]);
    }

    #[test]
    fn accumulate_rejects_corrupt_inputs() {
        let mut acc = MergeAcc::new();
        acc.reset(10);
        assert!(acc.accumulate_pairs(&[3, 3], &[1.0, 1.0], 1.0).is_err());
        assert!(acc.accumulate_pairs(&[5, 2], &[1.0, 1.0], 1.0).is_err());
        assert!(acc.accumulate_pairs(&[11], &[1.0], 1.0).is_err());
        assert!(acc.accumulate_pairs(&[1], &[1.0, 2.0], 1.0).is_err());
        assert!(acc
            .accumulate_gradient(&grad(20, &[(1, 1.0)]), 1.0)
            .is_err());
    }

    #[test]
    fn empty_acc_emits_an_empty_agg_frame_under_every_policy() {
        let c = RawCompressor::default();
        let acc = MergeAcc::new();
        assert!(acc.is_empty());
        let mut scratch = CompressScratch::new();
        for policy in [MergePolicy::Exact, MergePolicy::Linear] {
            let mut out = BytesMut::new();
            c.emit_hop(&acc, policy, &mut scratch, &mut out).unwrap();
            assert_eq!(out[0], AGG_MAGIC, "{policy:?}");
            // The empty frame folds back into a still-empty accumulator.
            let mut back = MergeAcc::new();
            back.reset(0);
            c.accumulate_hop(&mut back, &out, 1.0, policy, &mut scratch)
                .unwrap();
            assert!(back.is_empty());
            assert_eq!(c.finish(&back).unwrap().nnz(), 0);
        }
    }

    #[test]
    fn single_key_accumulates_and_roundtrips() {
        let mut acc = MergeAcc::new();
        acc.reset(10);
        acc.accumulate_pairs(&[7], &[0.25], 4.0).unwrap();
        assert_eq!(acc.keys(), &[7]);
        assert_eq!(acc.sums(), &[1.0]);
        let mut frame = BytesMut::new();
        acc.write_agg(&mut frame).unwrap();
        let mut back = MergeAcc::new();
        back.reset(10);
        back.read_agg(&frame, 1.0).unwrap();
        let g = back.to_gradient().unwrap();
        assert_eq!(g.keys(), &[7]);
        assert_eq!(g.values(), &[1.0]);
    }

    #[test]
    fn duplicate_keys_are_a_typed_error() {
        let mut acc = MergeAcc::new();
        acc.reset(10);
        let err = acc.accumulate_pairs(&[3, 3], &[1.0, 1.0], 1.0).unwrap_err();
        assert!(matches!(err, CompressError::InvalidGradient(_)));
        assert!(err.to_string().contains('3'));
        // The failed fold must not have half-applied: the acc stays empty.
        assert!(acc.is_empty());
    }

    #[test]
    fn dim_mismatch_is_a_typed_error() {
        let mut acc = MergeAcc::new();
        acc.reset(10);
        let err = acc
            .accumulate_gradient(&grad(20, &[(1, 1.0)]), 1.0)
            .unwrap_err();
        assert!(matches!(err, CompressError::InvalidGradient(_)));
        // Key at/beyond the accumulator's own dimension is equally typed.
        let err = acc.accumulate_pairs(&[10], &[1.0], 1.0).unwrap_err();
        assert!(matches!(err, CompressError::InvalidGradient(_)));
    }

    #[test]
    fn linear_fold_rejects_incompatible_tables() {
        let header = |dim, rows, cols, seed| CskHeader {
            dim,
            rows,
            cols,
            k: 4,
            seed,
            nnz: 1,
            key_lo: 0,
            key_end: dim,
            cell_start: 0,
            cell_count: u64::from(rows) * u64::from(cols),
        };
        let mut acc = MergeAcc::new();
        acc.reset(100);
        acc.fold_linear(&header(100, 2, 4, 9), &[1.0; 8], 1.0)
            .unwrap();
        assert!(!acc.is_empty());
        assert!(acc.linear().is_some());
        // Dim, shape, k and seed mismatches are all typed errors.
        assert!(acc
            .fold_linear(&header(50, 2, 4, 9), &[1.0; 8], 1.0)
            .is_err());
        let other_k = CskHeader {
            k: 5,
            ..header(100, 2, 4, 9)
        };
        assert!(acc.fold_linear(&other_k, &[1.0; 8], 1.0).is_err());
        assert!(acc
            .fold_linear(&header(100, 4, 2, 9), &[1.0; 8], 1.0)
            .is_err());
        assert!(acc
            .fold_linear(&header(100, 2, 4, 8), &[1.0; 8], 1.0)
            .is_err());
        // Cell-count vs slice-length mismatch too.
        assert!(acc
            .fold_linear(&header(100, 2, 4, 9), &[1.0; 7], 1.0)
            .is_err());
        // `reset` clears the table so the acc is reusable.
        acc.reset(100);
        assert!(acc.linear().is_none());
        assert!(acc.is_empty());
    }

    #[test]
    fn agg_frame_roundtrips() {
        let mut acc = MergeAcc::new();
        acc.reset(1_000);
        acc.accumulate_pairs(&[7, 90, 900], &[0.5, -0.25, 1.75], 1.0)
            .unwrap();
        let mut frame = BytesMut::new();
        let len = acc.write_agg(&mut frame).unwrap();
        assert_eq!(len, frame.len());
        assert_eq!(frame[0], AGG_MAGIC);

        let mut back = MergeAcc::new();
        back.reset(1_000);
        back.read_agg(&frame, 1.0).unwrap();
        assert_eq!(back.keys(), acc.keys());
        assert_eq!(back.sums(), acc.sums());

        // Scaled read applies the weight.
        let mut scaled = MergeAcc::new();
        scaled.reset(1_000);
        scaled.read_agg(&frame, 2.0).unwrap();
        assert_eq!(scaled.sums(), &[1.0, -0.5, 3.5]);
    }

    #[test]
    fn agg_frame_rejects_corruption() {
        let mut acc = MergeAcc::new();
        acc.reset(50);
        acc.accumulate_pairs(&[3, 9], &[1.0, 2.0], 1.0).unwrap();
        let mut frame = BytesMut::new();
        acc.write_agg(&mut frame).unwrap();

        let mut back = MergeAcc::new();
        back.reset(50);
        assert!(back.read_agg(&[], 1.0).is_err());
        assert!(back.read_agg(&[0xFF, 1], 1.0).is_err());
        assert!(back.read_agg(&[AGG_MAGIC, 99], 1.0).is_err());
        for cut in 0..frame.len() {
            let _ = back.read_agg(&frame[..cut], 1.0); // must not panic
        }
        // Dimension mismatch is typed.
        let mut wrong = MergeAcc::new();
        wrong.reset(51);
        assert!(wrong.read_agg(&frame, 1.0).is_err());
    }

    #[test]
    fn exact_policy_matches_driver_style_aggregation() {
        let c = SketchMlCompressor::default();
        let dim = 4_096u64;
        let g1 = grad(dim, &[(3, 0.5), (700, -0.25), (900, 0.125)]);
        let g2 = grad(dim, &[(3, 0.25), (800, 1.0)]);
        let p1 = c.compress(&g1).unwrap();
        let p2 = c.compress(&g2).unwrap();

        // Driver-style: decode each, scale, aggregate.
        let mut d1 = c.decompress(&p1.payload).unwrap();
        let mut d2 = c.decompress(&p2.payload).unwrap();
        d1.scale(0.5);
        d2.scale(0.5);
        let reference = SparseGradient::aggregate(&[d1, d2]).unwrap();

        // Collective-style: accumulate both payloads, relay as AGG, finish.
        let mut scratch = CompressScratch::default();
        let mut acc = MergeAcc::new();
        acc.reset(dim);
        c.accumulate(&mut acc, &p1.payload, 0.5, &mut scratch)
            .unwrap();
        let mut hop = BytesMut::new();
        c.emit_hop(&acc, MergePolicy::Exact, &mut scratch, &mut hop)
            .unwrap();

        let mut acc2 = MergeAcc::new();
        acc2.reset(dim);
        c.accumulate(&mut acc2, &hop, 1.0, &mut scratch).unwrap();
        c.accumulate(&mut acc2, &p2.payload, 0.5, &mut scratch)
            .unwrap();
        let got = acc2.to_gradient().unwrap();
        assert_eq!(got.keys(), reference.keys());
        assert_eq!(got.values(), reference.values());
    }

    #[test]
    fn resketch_policy_emits_native_payloads() {
        let c = SketchMlCompressor::default();
        let dim = 4_096u64;
        let g = grad(dim, &[(3, 0.5), (700, -0.25), (900, 0.125)]);
        let p = c.compress(&g).unwrap();

        let mut scratch = CompressScratch::default();
        let mut acc = MergeAcc::new();
        acc.reset(dim);
        c.accumulate(&mut acc, &p.payload, 1.0, &mut scratch)
            .unwrap();
        let mut hop = BytesMut::new();
        c.emit_hop(&acc, MergePolicy::Resketch, &mut scratch, &mut hop)
            .unwrap();
        // The hop payload is a native SketchML message: decodable, keys are
        // lossless, and signs never flip versus the accumulated partial
        // (values land on bucket means, so magnitudes may wobble).
        let decoded = c.decompress(&hop).unwrap();
        assert_eq!(decoded.keys(), acc.keys());
        for (sum, dec) in acc.sums().iter().zip(decoded.values()) {
            assert!(sum.signum() == dec.signum() || *dec == 0.0);
        }
    }

    #[test]
    fn raw_compressor_is_mergeable_via_defaults() {
        let c = RawCompressor::default();
        let dim = 64u64;
        let g = grad(dim, &[(1, 1.0), (2, -2.0)]);
        let p = c.compress(&g).unwrap();
        let mut scratch = CompressScratch::default();
        let mut acc = MergeAcc::new();
        acc.reset(dim);
        c.accumulate(&mut acc, &p.payload, 1.0, &mut scratch)
            .unwrap();
        c.accumulate(&mut acc, &p.payload, 1.0, &mut scratch)
            .unwrap();
        assert_eq!(acc.sums(), &[2.0, -4.0]);
    }
}
