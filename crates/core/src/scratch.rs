//! Reusable scratch buffers for the compression pipelines.
//!
//! §3.5's premise is that compression must cost less CPU than the network
//! time it saves, so every compressor's one implementation
//! ([`GradientCompressor::compress_into`] / `decompress_into`) keeps its
//! intermediates — sign partitions, per-group key vectors, delta arrays,
//! bitpack buffers — in a caller-owned [`CompressScratch`]: once warm, a
//! steady-state training loop performs **zero** heap allocations per
//! compressed or decoded message (`tests/zero_alloc.rs` asserts this with a
//! counting allocator). The provided [`GradientCompressor::compress`] /
//! `decompress` run the same pipeline on a fresh scratch.
//!
//! A scratch carries capacity, never meaning: what it processed before must
//! not change the next payload or decode. The golden fixtures in
//! `tests/fixtures/` and the warm-vs-fresh reuse tests are the oracle.
//!
//! [`GradientCompressor::compress_into`]: crate::GradientCompressor::compress_into
//! [`GradientCompressor::compress`]: crate::GradientCompressor::compress

use crate::error::CompressError;
use crate::gradient::SparseGradient;
use crate::quantify::QuantScratch;
use crate::runs::KeyRuns;
use bytes::BytesMut;
use sketchml_encoding::stats::SizeReport;

/// Pooled intermediate buffers shared by every `*_into` compressor method.
///
/// One scratch serves any number of compressors and any mix of
/// `compress_into` / `decompress_into` calls; buffers grow to the high-water
/// mark of the gradients they process and are then reused. The type is
/// `Send`, so a long-lived worker thread can own one across iterations —
/// but it is deliberately not `Sync`: concurrent encoders each need their
/// own (see the per-shard pool used by the sharded engine).
#[derive(Debug, Default)]
pub struct CompressScratch {
    // --- encode: sign partition (§3.3 Solution 1) ---
    pub(crate) pos_keys: Vec<u64>,
    pub(crate) pos_vals: Vec<f64>,
    pub(crate) neg_keys: Vec<u64>,
    pub(crate) neg_vals: Vec<f64>,
    // --- encode: quantification (§3.2) ---
    pub(crate) quant: QuantScratch,
    // --- encode: per-group key sectioning (§3.4 / Appendix A.3) ---
    pub(crate) counts: Vec<usize>,
    pub(crate) cursor: Vec<usize>,
    pub(crate) group_lut: Vec<u16>,
    // --- sharded engine: per-shard CRC32 table of the v2 frame ---
    pub(crate) crcs: Vec<u32>,
    pub(crate) sec_keys: Vec<u64>,
    pub(crate) sec_idx: Vec<u16>,
    // --- encode/decode: flat MinMaxSketch cell tables + row seeds (§3.3) ---
    pub(crate) cells: Vec<u16>,
    pub(crate) seeds: Vec<u64>,
    // --- encode/decode: flat Count-Sketch cell table + sign seeds ---
    pub(crate) csk_cells: Vec<f64>,
    pub(crate) csk_signs: Vec<u64>,
    // --- encode/decode: FastSGD exponent codes ---
    pub(crate) fs_exps: Vec<i32>,
    pub(crate) fs_codes: Vec<u16>,
    pub(crate) fs_codes32: Vec<u32>,
    // --- decode ---
    pub(crate) dec_keys: Vec<u64>,
    pub(crate) dec_vals: Vec<f64>,
    pub(crate) dec_idx: Vec<u16>,
    pub(crate) dec_cells: Vec<u16>,
    pub(crate) dec_means: Vec<f64>,
    // --- decode: SketchML's key sections as ascending runs, and the buffers
    // their merge passes alternate with ---
    pub(crate) runs: KeyRuns,
    pub(crate) merged: KeyRuns,
    // --- sharded engine: one slot per shard, each with its own scratch.
    // The mutexes are uncontended by construction (each pool worker claims a
    // distinct slot index); they exist so the parallel region stays safe
    // code while the slots live in one reusable Vec.
    pub(crate) shards: Vec<std::sync::Mutex<ShardScratch>>,
}

impl CompressScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures at least `n` shard slots exist, each with its own inner
    /// scratch, reusable gradient, and output buffer. Slots live as long as
    /// the scratch, so callers bound `n` by their own configuration, never
    /// by a number read off the wire.
    pub(crate) fn ensure_shards(&mut self, n: usize) {
        while self.shards.len() < n {
            self.shards.push(std::sync::Mutex::new(ShardScratch::new()));
        }
    }
}

/// Per-shard state pooled inside a [`CompressScratch`] for the sharded
/// engine: worker threads borrow disjoint slots, so PR 1's parallelism
/// composes with zero-alloc (`Box` breaks the recursive type).
#[derive(Debug)]
pub(crate) struct ShardScratch {
    pub(crate) grad: SparseGradient,
    pub(crate) scratch: Box<CompressScratch>,
    pub(crate) out: BytesMut,
    pub(crate) result: Option<Result<SizeReport, CompressError>>,
}

impl ShardScratch {
    fn new() -> Self {
        ShardScratch {
            grad: SparseGradient::empty(0),
            scratch: Box::default(),
            out: BytesMut::new(),
            result: None,
        }
    }
}
