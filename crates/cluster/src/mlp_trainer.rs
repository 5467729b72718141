//! Distributed MLP training for the §B.3 neural-network experiment.
//!
//! The same driver/executor protocol as [`crate::trainer`], but the model is a
//! multilayer perceptron and the gradients are **dense** — the case where
//! §4.6/§B.3 note that "the value compression still works, but the key
//! compression is redundant", which is exactly what the `fig14_neural_net`
//! harness measures.

use crate::config::ClusterConfig;
use crate::engine::{crash_roster, fan_out, open_link, push, slowest};
use crate::faults::{FaultPlan, FaultTrace};
use bytes::BytesMut;
use serde::{Deserialize, Serialize};
use sketchml_core::{CompressError, CompressScratch, GradientCompressor, SparseGradient};
use sketchml_ml::metrics::LossPoint;
use sketchml_ml::mlp::MlpInstance;
use sketchml_ml::{AdamConfig, Mlp, MlpConfig, OptStateMode, OptimizerKind, OptimizerState};

/// Hyper-parameters of the MLP run (§B.3: batch 0.1%, lr 0.005).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MlpTrainSpec {
    /// Adam hyper-parameters.
    pub adam: AdamConfig,
    /// Optimizer-state layout (dense moments or count-sketch tables).
    pub opt_state: OptStateMode,
    /// Mini-batch size as a fraction of the training set.
    pub batch_ratio: f64,
    /// Number of epochs.
    pub epochs: usize,
    /// Shuffling seed.
    pub seed: u64,
}

impl MlpTrainSpec {
    /// §B.3's protocol.
    pub fn paper(epochs: usize) -> Self {
        MlpTrainSpec {
            adam: AdamConfig::with_lr(0.005),
            opt_state: OptStateMode::Dense,
            batch_ratio: 0.001,
            epochs,
            seed: 0xB3,
        }
    }

    /// The same protocol with a different optimizer-state layout.
    pub fn with_opt_state(mut self, opt_state: OptStateMode) -> Self {
        self.opt_state = opt_state;
        self
    }
}

/// Per-epoch stats of an MLP run (a reduced [`crate::EpochStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MlpEpochStats {
    /// 1-based epoch.
    pub epoch: usize,
    /// Simulated seconds.
    pub sim_seconds: f64,
    /// Uplink bytes (real compressed sizes).
    pub uplink_bytes: u64,
    /// Test cross-entropy after the epoch.
    pub test_loss: f64,
}

/// Output of a distributed MLP run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpTrainReport {
    /// Compressor name.
    pub method: String,
    /// Per-epoch stats.
    pub epochs: Vec<MlpEpochStats>,
    /// Loss-vs-time curve (Figure 14).
    pub curve: Vec<LossPoint>,
    /// Final test accuracy.
    pub accuracy: f64,
}

impl MlpTrainReport {
    /// Minimum test loss (Figure 14(b)'s long-term comparison).
    pub fn best_test_loss(&self) -> f64 {
        self.epochs
            .iter()
            .map(|e| e.test_loss)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Runs distributed MLP training with compressed gradient exchange,
/// fault-free: [`train_mlp_with_plan`] under [`FaultPlan::none`].
///
/// # Errors
/// As [`train_mlp_with_plan`].
pub fn train_mlp_distributed(
    train: &[MlpInstance],
    test: &[MlpInstance],
    net: &MlpConfig,
    spec: &MlpTrainSpec,
    cluster: &ClusterConfig,
    compressor: &dyn GradientCompressor,
) -> Result<MlpTrainReport, CompressError> {
    let none = FaultPlan::none();
    train_mlp_with_plan(train, test, net, spec, cluster, compressor, &none).map(|(r, _)| r)
}

/// Distributed MLP training under a deterministic fault plan: dense MLP
/// gradients ride the faulty uplink, crashed workers sit out batches and
/// rejoin with a charged parameter re-pull, and the surviving workers'
/// gradients are re-weighted by their delivered instance counts.
///
/// The driver loop of [`crate::engine`] with a different model, shuffle and
/// report — assembled from the engine's pieces rather than run through its
/// GLM round loop.
///
/// # Errors
/// [`CompressError::InvalidConfig`] on an empty training set, an invalid
/// plan or cluster config, or a worker thread that panicked; propagates
/// compressor failures.
pub fn train_mlp_with_plan(
    train: &[MlpInstance],
    test: &[MlpInstance],
    net: &MlpConfig,
    spec: &MlpTrainSpec,
    cluster: &ClusterConfig,
    compressor: &dyn GradientCompressor,
    faults: &FaultPlan,
) -> Result<(MlpTrainReport, FaultTrace), CompressError> {
    let mut link = open_link(train.len(), cluster, faults)?;
    let cost = &cluster.cost;
    let mut global_batch = 0u64;
    let mut mlp = Mlp::new(net).map_err(|e| CompressError::InvalidConfig(e.to_string()))?;
    let params = mlp.num_params();
    let mut opt = OptimizerState::build(OptimizerKind::Adam(spec.adam), spec.opt_state, params)
        .map_err(|e| CompressError::InvalidConfig(e.to_string()))?;

    let batch_size =
        ((train.len() as f64 * spec.batch_ratio).round() as usize).clamp(1, train.len());
    let mut order: Vec<usize> = (0..train.len()).collect();
    // Deterministic LCG shuffle (no rand dependency needed here).
    let mut state = spec.seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state
    };

    let mut epochs = Vec::with_capacity(spec.epochs);
    let mut curve = Vec::new();
    let mut clock = 0.0;
    // Pooled codec state, reused across every batch (driver loop is serial).
    let mut scratch = CompressScratch::new();
    let mut wire_buf = BytesMut::new();
    let mut dec_parts: Vec<SparseGradient> = Vec::new();
    for epoch in 1..=spec.epochs {
        // Fisher-Yates with the LCG.
        for i in (1..order.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut uplink_bytes = 0u64;
        let mut sim = 0.0f64;
        for batch_idx in order.chunks(batch_size) {
            // Dead workers sit out the batch; rejoining ones re-pull the
            // dense parameter vector (8 bytes/param).
            let roster = crash_roster(&mut link, global_batch, cluster.workers, &mut || {
                Ok(8 * params)
            })?;
            sim += roster.stall_seconds;
            let slices = crate::worker::partition(batch_idx, cluster.workers);
            let jobs = slices
                .iter()
                .zip(&roster.down)
                .map(|(part, &down)| (!down).then_some(part));
            let results = fan_out(jobs, |part| {
                let batch: Vec<MlpInstance> = part.iter().map(|&i| train[i].clone()).collect();
                let (flat, _loss) = mlp.batch_gradient(&batch);
                Ok((SparseGradient::from_dense(&flat, 0.0), batch.len()))
            })?;

            let costs = results.iter().enumerate().filter_map(|(w, r)| {
                let (_, n) = r.as_ref()?;
                Some((w, cost.compute_time(*n as u64 * params as u64)))
            });
            let compute = slowest(&link, costs);

            // Compress each worker's (dense) gradient — real bytes, pooled
            // buffers. Lost uplinks drop out and the survivors are
            // re-weighted by the instances that actually arrived.
            while dec_parts.len() < results.len() {
                dec_parts.push(SparseGradient::empty(0));
            }
            let mut delivered_inst: Vec<usize> = Vec::with_capacity(results.len());
            for (w, result) in results.iter().enumerate() {
                let Some((grad, n)) = result else { continue };
                compressor.compress_into(grad, &mut scratch, &mut wire_buf)?;
                let tx = push(&mut link, w, global_batch, &wire_buf, compressor, params);
                uplink_bytes += tx.bytes_on_wire;
                sim += tx.sim_seconds;
                if let Some(payload) = &tx.payload {
                    let part = &mut dec_parts[delivered_inst.len()];
                    compressor.decompress_into(payload, &mut scratch, part)?;
                    delivered_inst.push(*n);
                }
            }
            let delivered = delivered_inst.len();
            let total_inst: usize = delivered_inst.iter().sum();
            for (part, n) in dec_parts[..delivered].iter_mut().zip(&delivered_inst) {
                if total_inst > 0 {
                    part.scale(*n as f64 / total_inst as f64);
                }
            }
            sim += compute;
            global_batch += 1;
            if delivered == 0 {
                // Every uplink was lost (or every worker was down): the
                // round's time is charged but the model does not move.
                continue;
            }
            let agg = SparseGradient::aggregate(&dec_parts[..delivered])?;
            // Downlink: torrent-style broadcast of the aggregated update,
            // plus re-pulls for copies the fault plan rejects.
            compressor.compress_into(&agg, &mut scratch, &mut wire_buf)?;
            sim += cost.network.broadcast_time(wire_buf.len(), cluster.workers);
            sim += link.broadcast_penalty(global_batch - 1, wire_buf.len());
            sim += cost.codec_time(agg.nnz() * 2);

            mlp.apply_sparse_gradient(&mut opt, agg.keys(), agg.values());
        }
        let test_loss = mlp.mean_loss(test);
        clock += sim;
        curve.push(LossPoint {
            seconds: clock,
            epoch,
            loss: test_loss,
        });
        epochs.push(MlpEpochStats {
            epoch,
            sim_seconds: sim,
            uplink_bytes,
            test_loss,
        });
    }
    Ok((
        MlpTrainReport {
            method: compressor.name().to_string(),
            epochs,
            curve,
            accuracy: mlp.accuracy(test),
        },
        link.into_trace(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchml_core::{RawCompressor, SketchMlCompressor};
    use sketchml_data::MnistLikeSpec;

    #[test]
    fn mlp_trains_distributed_with_sketchml() {
        let spec = MnistLikeSpec::small();
        let (train, test) = spec.generate_split();
        let net = MlpConfig::small(spec.pixels(), 12, spec.classes);
        let tspec = MlpTrainSpec {
            opt_state: Default::default(),
            adam: AdamConfig::with_lr(0.02),
            batch_ratio: 0.1,
            epochs: 6,
            seed: 5,
        };
        let cluster = ClusterConfig::cluster1(3);
        let report = train_mlp_distributed(
            &train,
            &test,
            &net,
            &tspec,
            &cluster,
            &SketchMlCompressor::default(),
        )
        .unwrap();
        assert_eq!(report.epochs.len(), 6);
        let first = report.epochs[0].test_loss;
        let last = report.epochs[5].test_loss;
        assert!(last < first, "MLP loss should fall: {first} -> {last}");
        assert!(report.accuracy > 0.5, "accuracy {}", report.accuracy);
    }

    #[test]
    fn sketchml_messages_smaller_than_raw_even_dense() {
        let spec = MnistLikeSpec::small();
        let (train, test) = spec.generate_split();
        let net = MlpConfig::small(spec.pixels(), 8, spec.classes);
        let tspec = MlpTrainSpec {
            opt_state: Default::default(),
            adam: AdamConfig::with_lr(0.02),
            batch_ratio: 0.2,
            epochs: 2,
            seed: 6,
        };
        let cluster = ClusterConfig::cluster1(2);
        let run = |c: &dyn GradientCompressor| {
            train_mlp_distributed(&train, &test, &net, &tspec, &cluster, c)
                .unwrap()
                .epochs
                .iter()
                .map(|e| e.uplink_bytes)
                .sum::<u64>()
        };
        let raw = run(&RawCompressor::default());
        let sk = run(&SketchMlCompressor::default());
        // Dense gradients: value compression still pays (§B.3), though the
        // gap is smaller than in the sparse GLM case.
        assert!(
            sk < raw,
            "SketchML {sk} should ship fewer bytes than raw {raw}"
        );
    }
}
