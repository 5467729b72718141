//! Driver-side arithmetic (paper §4.1: "The driver aggregates gradients
//! from the executors, updates the trained model, and broadcasts the
//! updated model"): [`combine`], the one fold every trainer reaches a
//! round's gradient through — the socket server, its workers and the
//! simulated driver star, each by [`crate::Replica::apply`].
//!
//! [`aggregate`], with [`DriverScratch`] and [`AggregationResult`], is the
//! decode loop plus `combine` that the simulated star called before it
//! stepped the replica like the server. The benchmark harness
//! (`benchmark/src/replay.rs`) is now their only caller; ROADMAP item 0's
//! benchmark-only change retires them.

use crate::network::CostModel;
use crate::worker::WorkerMessage;
use bytes::BytesMut;
use sketchml_core::{CompressError, CompressScratch, GradientCompressor, SparseGradient};
use std::time::Instant;

/// Pooled driver-side decompression/aggregation state, reused across
/// aggregation rounds: per-worker decode targets and instance counts, codec
/// scratch, and the downlink encode buffer.
#[derive(Debug, Default)]
pub struct DriverScratch {
    scratch: CompressScratch,
    parts: Vec<SparseGradient>,
    instances: Vec<usize>,
    out: BytesMut,
}

impl DriverScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Result of one driver aggregation round.
#[derive(Debug, Clone)]
pub struct AggregationResult {
    /// Mean gradient across workers, ready for the optimizer.
    pub gradient: SparseGradient,
    /// Mean per-instance loss over the whole batch.
    pub batch_loss: f64,
    /// Bytes of the downlink (broadcast) message.
    pub downlink_bytes: usize,
    /// Simulated codec seconds at the driver (decode + re-encode).
    pub sim_codec: f64,
    /// Measured wall seconds in codecs at the driver.
    pub measured_codec: f64,
}

/// The instance-weighted mean of decoded worker gradients: each part (a
/// worker's per-instance average over its slice) is weighted by its share
/// of the round's instances, then the parts are summed in the order given.
/// The socket server, every worker's replica of it and the simulator reach
/// a round's gradient through this one fold
/// ([`SparseGradient::aggregate_into`]), so the same parts in the same
/// order give the same bits everywhere.
///
/// # Errors
/// [`CompressError::InvalidGradient`] if there are no parts, their
/// dimensions differ, the two slices differ in length, or the instance
/// counts overflow `usize` (a count is a peer's claim, not a measured slice).
pub fn combine(
    parts: &[SparseGradient],
    instances: &[usize],
) -> Result<SparseGradient, CompressError> {
    let mut sum = SparseGradient::empty(0);
    combine_into(parts, instances, &mut sum, &mut SparseGradient::empty(0))?;
    Ok(sum)
}

/// [`combine`] written over `sum`, with `spare` as the fold's second
/// buffer ([`SparseGradient::aggregate_into`]): a caller that keeps both
/// combines a warm round without allocating. Part `i`'s weight is
/// `instances[i] / total` — every part unweighted when the counts sum to 0.
///
/// # Errors
/// As [`combine`].
pub(crate) fn combine_into(
    parts: &[SparseGradient],
    instances: &[usize],
    sum: &mut SparseGradient,
    spare: &mut SparseGradient,
) -> Result<(), CompressError> {
    if parts.len() != instances.len() {
        return Err(CompressError::InvalidGradient(format!(
            "{} parts but {} instance counts",
            parts.len(),
            instances.len()
        )));
    }
    let total = instances
        .iter()
        .try_fold(0usize, |sum, &n| sum.checked_add(n))
        .ok_or_else(|| {
            CompressError::InvalidGradient(format!(
                "instance counts of {} messages overflow usize",
                instances.len()
            ))
        })?;
    // Weight by the worker's share of the batch.
    let weight = |i: usize| {
        if total > 0 {
            instances[i] as f64 / total as f64
        } else {
            1.0
        }
    };
    sum.aggregate_into(parts, weight, spare)
}

/// Decodes every worker message, averages the gradients, and sizes the
/// broadcast of the average: re-encoded when `encode_downlink`, else 12
/// bytes a pair.
///
/// The aggregate is the instance-weighted mean of the workers' (already
/// per-instance-averaged) gradients, matching a global batch average: a
/// decode loop, then [`combine`].
///
/// # Errors
/// Propagates decode failures ([`CompressError`]) and [`combine`]'s.
pub fn aggregate(
    messages: &[WorkerMessage],
    dim: u64,
    compressor: &dyn GradientCompressor,
    cost: &CostModel,
    encode_downlink: bool,
    ds: &mut DriverScratch,
) -> Result<AggregationResult, CompressError> {
    let t0 = Instant::now();
    ds.instances.clear();
    ds.instances.extend(messages.iter().map(|m| m.instances));
    while ds.parts.len() < messages.len() {
        ds.parts.push(SparseGradient::empty(0));
    }
    let mut pairs = 0usize;
    for (m, part) in messages.iter().zip(ds.parts.iter_mut()) {
        compressor.decompress_into(&m.payload, &mut ds.scratch, part)?;
        pairs += part.nnz();
    }
    let gradient = if messages.is_empty() {
        SparseGradient::empty(dim)
    } else {
        combine(&ds.parts[..messages.len()], &ds.instances)?
    };

    // Downlink: the driver ships the aggregated update to every worker.
    let downlink_bytes = if encode_downlink {
        compressor.compress_into(&gradient, &mut ds.scratch, &mut ds.out)?;
        pairs += gradient.nnz();
        ds.out.len()
    } else {
        // Uncompressed update: 4-byte key + 8-byte value.
        12 * gradient.nnz()
    };
    let measured_codec = t0.elapsed().as_secs_f64();

    let loss_sum: f64 = messages.iter().map(|m| m.loss_sum).sum();
    // `combine` held the sum to a `usize`.
    let total_instances: usize = ds.instances.iter().sum();
    let batch_loss = if total_instances == 0 {
        0.0
    } else {
        loss_sum / total_instances as f64
    };

    Ok(AggregationResult {
        gradient,
        batch_loss,
        downlink_bytes,
        sim_codec: cost.codec_time(pairs),
        measured_codec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::{process_glm_batch, WorkerScratch};
    use sketchml_core::RawCompressor;
    use sketchml_ml::{GlmLoss, GlmModel, Instance, SparseVector};

    fn data() -> Vec<Instance> {
        (0..30)
            .map(|i| {
                Instance::new(
                    SparseVector::new(vec![i as u32 % 10], vec![1.0]).unwrap(),
                    if i % 2 == 0 { 1.0 } else { -1.0 },
                )
            })
            .collect()
    }

    #[test]
    fn aggregate_equals_global_batch_gradient() {
        let all = data();
        let model = GlmModel::new(10, GlmLoss::Logistic, 0.0).unwrap();
        let cost = CostModel::cluster1();
        let c = RawCompressor::default();

        // Global (single-worker) reference.
        let reference = model.batch_gradient(&all);

        // Three workers on equal slices.
        let mut ws = WorkerScratch::new();
        let mut ds = DriverScratch::new();
        let msgs: Vec<_> = all
            .chunks(10)
            .map(|slice| process_glm_batch(&model, slice, &c, &cost, &mut ws).unwrap())
            .collect();
        let agg = aggregate(&msgs, 10, &c, &cost, false, &mut ds).unwrap();

        assert_eq!(agg.gradient.keys(), &reference.keys[..]);
        for (got, want) in agg.gradient.values().iter().zip(&reference.values) {
            assert!(
                (got - want).abs() < 1e-12,
                "aggregated {got} vs reference {want}"
            );
        }
        assert!((agg.batch_loss - reference.mean_loss()).abs() < 1e-12);
    }

    #[test]
    fn downlink_compression_reduces_bytes() {
        let all = data();
        let model = GlmModel::new(10, GlmLoss::Logistic, 0.0).unwrap();
        let cost = CostModel::cluster1();
        let c = RawCompressor::default();
        let mut ws = WorkerScratch::new();
        let mut ds = DriverScratch::new();
        let msgs: Vec<_> = all
            .chunks(15)
            .map(|slice| process_glm_batch(&model, slice, &c, &cost, &mut ws).unwrap())
            .collect();
        let raw = aggregate(&msgs, 10, &c, &cost, false, &mut ds).unwrap();
        assert_eq!(raw.downlink_bytes, 12 * raw.gradient.nnz());
    }

    #[test]
    fn empty_messages() {
        let cost = CostModel::cluster1();
        let c = RawCompressor::default();
        let agg = aggregate(&[], 10, &c, &cost, false, &mut DriverScratch::new()).unwrap();
        assert!(agg.gradient.is_empty());
        assert_eq!(agg.batch_loss, 0.0);
    }

    #[test]
    fn instance_counts_that_overflow_are_a_typed_error() {
        let all = data();
        let model = GlmModel::new(10, GlmLoss::Logistic, 0.0).unwrap();
        let cost = CostModel::cluster1();
        let c = RawCompressor::default();
        let mut ws = WorkerScratch::new();
        let mut msgs: Vec<_> = all
            .chunks(15)
            .map(|slice| process_glm_batch(&model, slice, &c, &cost, &mut ws).unwrap())
            .collect();
        msgs[1].instances = usize::MAX;
        let err = aggregate(&msgs, 10, &c, &cost, false, &mut DriverScratch::new()).unwrap_err();
        assert!(matches!(err, CompressError::InvalidGradient(_)), "{err}");
    }

    proptest::proptest! {
        /// `combine` is the instance-weighted sum it was before the fold:
        /// every part scaled in place by its share (left as it is when the
        /// counts sum to zero), then summed by `SparseGradient::aggregate`,
        /// whose fold `sketchml-core` holds to the k-way reference. Bit for
        /// bit, and the same again on warm `combine_into` buffers.
        #[test]
        fn combine_is_the_scaled_sum(
            parts in proptest::collection::vec(
                (
                    proptest::collection::btree_map(
                        0u64..16,
                        proptest::prop_oneof![
                            proptest::strategy::Just(0.5f64),
                            proptest::strategy::Just(-0.5f64),
                            proptest::strategy::Just(-0.0f64),
                            proptest::strategy::Just(3.0f64),
                            -2.0f64..2.0,
                        ],
                        0..12,
                    ),
                    0usize..4,
                ),
                1..6,
            )
        ) {
            let instances: Vec<usize> = parts.iter().map(|&(_, n)| n).collect();
            let grads: Vec<SparseGradient> = parts
                .into_iter()
                .map(|(m, _)| {
                    let (keys, values) = m.into_iter().unzip();
                    SparseGradient::new(16, keys, values).expect("btree keys ascend")
                })
                .collect();
            let total: usize = instances.iter().sum();
            let mut scaled = grads.clone();
            if total > 0 {
                for (part, &n) in scaled.iter_mut().zip(&instances) {
                    part.scale(n as f64 / total as f64);
                }
            }
            let want = SparseGradient::aggregate(&scaled).unwrap();
            let bits = |g: &SparseGradient| {
                let values: Vec<u64> = g.values().iter().map(|v| v.to_bits()).collect();
                (g.dim(), g.keys().to_vec(), values)
            };
            let got = combine(&grads, &instances).unwrap();
            proptest::prop_assert_eq!(bits(&got), bits(&want));
            let (mut sum, mut spare) = (got.clone(), got);
            combine_into(&grads, &instances, &mut sum, &mut spare).unwrap();
            proptest::prop_assert_eq!(bits(&sum), bits(&want));
        }
    }

    #[test]
    fn compressed_downlink_is_smaller_for_sketchml() {
        use sketchml_core::SketchMlCompressor;
        let all = data();
        let model = GlmModel::new(10, GlmLoss::Logistic, 0.0).unwrap();
        let cost = CostModel::cluster1();
        let c = SketchMlCompressor::default();
        let mut ws = WorkerScratch::new();
        let mut ds = DriverScratch::new();
        let msgs: Vec<_> = all
            .chunks(15)
            .map(|slice| process_glm_batch(&model, slice, &c, &cost, &mut ws).unwrap())
            .collect();
        let plain = aggregate(&msgs, 10, &c, &cost, false, &mut ds).unwrap();
        let compressed = aggregate(&msgs, 10, &c, &cost, true, &mut ds).unwrap();
        // Tiny gradients may not compress below raw, but the path must
        // produce a valid size and identical aggregated math.
        assert!(compressed.downlink_bytes > 0);
        assert_eq!(plain.gradient.keys(), compressed.gradient.keys());
        assert!((plain.batch_loss - compressed.batch_loss).abs() < 1e-12);
    }
}
