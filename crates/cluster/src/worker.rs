//! Worker-side (executor) logic: compute a partial gradient over the local
//! slice of the batch, compress it, and report costs (paper §4.1
//! "Implementation": "Each executor reads the subset, and calculates
//! gradients").

use crate::engine::Model;
use crate::network::CostModel;
use bytes::BytesMut;
use sketchml_core::{CompressError, CompressScratch, GradientCompressor, SparseGradient};
use sketchml_encoding::stats::SizeReport;
use sketchml_ml::{BatchGradient, GlmModel, GradScratch, Instance};
use std::time::Instant;

/// Pooled per-worker state, reused across every mini-batch a worker slot
/// processes: the gradient's dense accumulator and its output, the sparse
/// gradient handed to the codec, the codec's scratch and its output buffer.
/// Once warm, a worker step allocates nothing beyond the payload of the
/// outgoing [`WorkerMessage`] (`tests/zero_alloc.rs`).
#[derive(Debug)]
pub struct WorkerScratch {
    grad_scratch: GradScratch,
    grad: BatchGradient,
    sparse: SparseGradient,
    scratch: CompressScratch,
    out: BytesMut,
}

impl Default for WorkerScratch {
    fn default() -> Self {
        WorkerScratch {
            grad_scratch: GradScratch::default(),
            grad: BatchGradient::default(),
            sparse: SparseGradient::empty(0),
            scratch: CompressScratch::new(),
            out: BytesMut::new(),
        }
    }
}

impl WorkerScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A worker's compressed contribution for one mini-batch.
#[derive(Debug, Clone)]
pub struct WorkerMessage {
    /// Compressed gradient bytes (the real wire payload).
    pub payload: Vec<u8>,
    /// Size accounting of the payload.
    pub report: SizeReport,
    /// Sum of per-instance losses over the worker's slice.
    pub loss_sum: f64,
    /// Number of instances processed.
    pub instances: usize,
    /// Simulated compute seconds (modeled: feature ops × cost).
    pub sim_compute: f64,
    /// Simulated codec seconds (modeled: pairs × cost).
    pub sim_codec: f64,
    /// Measured wall-clock seconds spent compressing (Figure 8(c)).
    pub measured_codec: f64,
    /// Measured wall-clock seconds computing the gradient.
    pub measured_compute: f64,
}

/// Computes and compresses one worker's gradient over `batch` — instances
/// reached by reference, e.g. `part.iter().map(|&i| &train[i])` — reusing
/// `ws`'s pooled buffers across calls (the §3.5 CPU-overhead hot path).
///
/// # Errors
/// Propagates compressor failures.
pub fn process_glm_rows<'a>(
    model: &GlmModel,
    batch: impl Iterator<Item = &'a Instance> + Clone,
    compressor: &dyn GradientCompressor,
    cost: &CostModel,
    ws: &mut WorkerScratch,
) -> Result<WorkerMessage, CompressError> {
    process_rows(model, model.dim(), batch, compressor, cost, ws)
}

/// [`process_glm_rows`] for any round-engine [`Model`] of gradient
/// dimension `dim`: the one worker step.
pub(crate) fn process_rows<'a, M: Model>(
    model: &M,
    dim: usize,
    batch: impl Iterator<Item = &'a M::Instance> + Clone,
    compressor: &dyn GradientCompressor,
    cost: &CostModel,
    ws: &mut WorkerScratch,
) -> Result<WorkerMessage, CompressError>
where
    M::Instance: 'a,
{
    let t0 = Instant::now();
    let compute_units = model.gradient(batch, &mut ws.grad_scratch, &mut ws.grad);
    ws.sparse
        .assign(dim as u64, &ws.grad.keys, &ws.grad.values)?;
    let measured_compute = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let report = compressor.compress_into(&ws.sparse, &mut ws.scratch, &mut ws.out)?;
    let measured_codec = t1.elapsed().as_secs_f64();

    Ok(WorkerMessage {
        payload: ws.out[..].to_vec(),
        report,
        loss_sum: ws.grad.loss_sum,
        instances: ws.grad.instances,
        sim_compute: cost.compute_time(compute_units),
        sim_codec: cost.codec_time(ws.sparse.nnz()),
        measured_codec,
        measured_compute,
    })
}

/// [`process_glm_rows`] over a materialized slice.
///
/// # Errors
/// Propagates compressor failures.
pub fn process_glm_batch(
    model: &GlmModel,
    slice: &[Instance],
    compressor: &dyn GradientCompressor,
    cost: &CostModel,
    ws: &mut WorkerScratch,
) -> Result<WorkerMessage, CompressError> {
    process_glm_rows(model, slice.iter(), compressor, cost, ws)
}

/// Splits `indices` into `workers` contiguous, near-equal slices (the
/// data-parallel partitioning of §2.2).
pub fn partition(indices: &[usize], workers: usize) -> Vec<Vec<usize>> {
    let workers = workers.max(1);
    let n = indices.len();
    let base = n / workers;
    let extra = n % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        out.push(indices[start..start + len].to_vec());
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchml_core::RawCompressor;
    use sketchml_ml::{GlmLoss, SparseVector};

    fn instances() -> Vec<Instance> {
        (0..20)
            .map(|i| {
                Instance::new(
                    SparseVector::new(vec![i as u32, 50 + i as u32], vec![1.0, 0.5]).unwrap(),
                    if i % 2 == 0 { 1.0 } else { -1.0 },
                )
            })
            .collect()
    }

    #[test]
    fn partition_covers_all_indices() {
        let idx: Vec<usize> = (0..13).collect();
        let parts = partition(&idx, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(
            parts.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![4, 3, 3, 3]
        );
        let flat: Vec<usize> = parts.concat();
        assert_eq!(flat, idx);
        // More workers than items: some slices empty.
        let tiny = partition(&idx[..2], 5);
        assert_eq!(tiny.iter().map(Vec::len).sum::<usize>(), 2);
        assert_eq!(partition(&[], 3).len(), 3);
    }

    #[test]
    fn worker_message_contains_real_bytes() {
        let data = instances();
        let model = GlmModel::new(100, GlmLoss::Logistic, 0.01).unwrap();
        let cost = CostModel::cluster1();
        let mut ws = WorkerScratch::new();
        let msg =
            process_glm_batch(&model, &data, &RawCompressor::default(), &cost, &mut ws).unwrap();
        assert!(!msg.payload.is_empty());
        assert_eq!(msg.instances, 20);
        assert!(msg.sim_compute > 0.0);
        assert!(msg.loss_sum > 0.0);
        // Round-trips through the same compressor.
        let decoded = RawCompressor::default().decompress(&msg.payload).unwrap();
        assert!(decoded.nnz() > 0);
    }

    #[test]
    fn empty_slice_is_fine() {
        let model = GlmModel::new(10, GlmLoss::Logistic, 0.0).unwrap();
        let cost = CostModel::cluster1();
        let mut ws = WorkerScratch::new();
        let msg =
            process_glm_batch(&model, &[], &RawCompressor::default(), &cost, &mut ws).unwrap();
        assert_eq!(msg.instances, 0);
        assert_eq!(msg.sim_compute, 0.0);
    }
}
