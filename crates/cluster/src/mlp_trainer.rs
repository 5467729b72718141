//! Distributed MLP training for the §B.3 neural-network experiment.
//!
//! The same driver/executor protocol as [`crate::trainer`] — the MLP is a
//! round-engine [`Model`] and trains through [`crate::engine`]'s one loop
//! over the driver star — but the gradients are **dense**: the case where
//! §4.6/§B.3 note that "the value compression still works, but the key
//! compression is redundant", which is exactly what the `fig14_neural_net`
//! harness measures.

use crate::config::ClusterConfig;
use crate::engine::{open_link, run, Ctx, Model, Start};
use crate::faults::{FaultPlan, FaultTrace};
use crate::replica::{Replica, Schedule};
use crate::trainer::{DriverStar, TrainReport};
use serde::{Deserialize, Serialize};
use sketchml_core::{CompressError, GradientCompressor};
use sketchml_ml::mlp::MlpInstance;
use sketchml_ml::{
    AdamConfig, BatchGradient, Checkpoint, GradScratch, Mlp, MlpConfig, OptStateMode,
    OptimizerKind, OptimizerState,
};

/// Hyper-parameters of the MLP run (§B.3: lr 0.005). The mini-batch size is
/// the cluster's [`ClusterConfig::batch_ratio`] (§B.3: 0.1%).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MlpTrainSpec {
    /// Adam hyper-parameters.
    pub adam: AdamConfig,
    /// Optimizer-state layout (dense moments or count-sketch tables).
    pub opt_state: OptStateMode,
    /// Number of epochs.
    pub epochs: usize,
    /// Batch-shuffling seed.
    pub seed: u64,
}

impl MlpTrainSpec {
    /// §B.3's protocol; its batch of 0.1% is
    /// `ClusterConfig::with_batch_ratio(0.001)`.
    pub fn paper(epochs: usize) -> Self {
        MlpTrainSpec {
            adam: AdamConfig::with_lr(0.005),
            opt_state: OptStateMode::Dense,
            epochs,
            seed: 0xB3,
        }
    }
}

/// An MLP restores from its `8 · P` parameter bytes and keeps no checkpoint.
impl Model for Mlp {
    type Instance = MlpInstance;

    fn label(&self) -> &'static str {
        "MLP"
    }

    fn gradient<'a>(
        &self,
        batch: impl Iterator<Item = &'a MlpInstance> + Clone,
        _scratch: &mut GradScratch,
        out: &mut BatchGradient,
    ) -> u64 {
        // Dense: every parameter of every instance is visited, and the
        // gradient ships with its zeros dropped.
        let instances = batch.clone().count();
        let (dense, mean_loss) = self.batch_gradient(batch);
        let nonzero = || dense.iter().enumerate().filter(|(_, v)| v.abs() > 0.0);
        out.keys.clear();
        out.keys.extend(nonzero().map(|(k, _)| k as u64));
        out.values.clear();
        out.values.extend(nonzero().map(|(_, &v)| v));
        out.loss_sum = mean_loss * instances as f64;
        out.instances = instances;
        (instances * self.num_params()) as u64
    }

    fn apply(&mut self, opt: &mut OptimizerState, keys: &[u64], values: &[f64]) {
        self.apply_sparse_gradient(opt, keys, values);
    }

    fn test_loss(&self, test: &[MlpInstance]) -> f64 {
        self.mean_loss(test)
    }

    fn accuracy(&self, test: &[MlpInstance]) -> Option<f64> {
        Some(Mlp::accuracy(self, test))
    }

    fn restore_point(&self, _opt: &OptimizerState, _epochs_done: usize) -> Vec<u8> {
        self.params.iter().flat_map(|p| p.to_le_bytes()).collect()
    }

    fn checkpoint(self, _opt: OptimizerState, _epochs_done: usize) -> Option<Checkpoint> {
        None
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
) -> Result<TrainReport, CompressError> {
    let none = FaultPlan::none();
    train_mlp_with_plan(train, test, net, spec, cluster, compressor, &none).map(|(r, _)| r)
}

/// Distributed MLP training under a deterministic fault plan: the round
/// engine's loop over the driver star, so batches, pricing, faults and
/// restores follow the GLM runs' rules. Dense MLP gradients ride the faulty
/// uplink, crashed workers sit out batches and rejoin by restoring the
/// parameters, and the surviving workers' gradients are re-weighted by
/// their delivered instance counts.
///
/// # Errors
/// [`CompressError::InvalidConfig`] on an empty training set, an invalid
/// plan or cluster config (a batch ratio outside `(0, 1]` included), an
/// invalid network, or a worker thread that panicked; propagates
/// compressor failures.
pub fn train_mlp_with_plan(
    train: &[MlpInstance],
    test: &[MlpInstance],
    net: &MlpConfig,
    spec: &MlpTrainSpec,
    cluster: &ClusterConfig,
    compressor: &dyn GradientCompressor,
    faults: &FaultPlan,
) -> Result<(TrainReport, FaultTrace), CompressError> {
    let link = open_link(train.len(), cluster, faults)?;
    let model = Mlp::new(net).map_err(|e| CompressError::InvalidConfig(e.to_string()))?;
    let dim = model.num_params();
    let opt = OptimizerState::build(OptimizerKind::Adam(spec.adam), spec.opt_state, dim)
        .map_err(|e| CompressError::InvalidConfig(e.to_string()))?;
    let start = Start {
        replica: Replica::new(model, opt),
        schedule: Schedule::new(train.len(), cluster.batch_ratio, spec.seed),
        max_epochs: spec.epochs,
        stop_on_convergence: false,
    };
    let cx = Ctx {
        cluster,
        dim,
        compressor,
    };
    let outcome = run(train, test, start, cx, DriverStar::new(cx), link)?;
    Ok((outcome.report, outcome.trace))
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
            epochs: 6,
            seed: 5,
        };
        let cluster = ClusterConfig::cluster1(3).with_batch_ratio(0.1);
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
        let accuracy = report.accuracy.unwrap();
        assert!(accuracy > 0.5, "accuracy {accuracy}");
        assert_eq!(report.model, "MLP");
    }

    #[test]
    fn sketchml_messages_smaller_than_raw_even_dense() {
        let spec = MnistLikeSpec::small();
        let (train, test) = spec.generate_split();
        let net = MlpConfig::small(spec.pixels(), 8, spec.classes);
        let tspec = MlpTrainSpec {
            opt_state: Default::default(),
            adam: AdamConfig::with_lr(0.02),
            epochs: 2,
            seed: 6,
        };
        let cluster = ClusterConfig::cluster1(2).with_batch_ratio(0.2);
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
