//! The paper's distributed GLM training (§4.1 "Implementation" /
//! "Protocol"): the spec and report types every run shares, the GLM as a
//! round-engine [`Model`], and the driver star as the round engine's first
//! `Exchange`, for both models — running it with each of the six
//! compressors reproduces every line of Figures 8–11 and Tables 2/4.

use crate::config::ClusterConfig;
use crate::engine::{push, train_glm, Aggregation, Ctx, Exchange, GlmTask, Model, Round};
use crate::faults::{FaultPlan, FaultTrace};
use crate::replica::Replica;
use crate::worker::WorkerMessage;
use serde::{Deserialize, Serialize};
use sketchml_core::{CompressError, CompressScratch, GradientCompressor, SparseGradient};
use sketchml_ml::metrics::LossPoint;
use sketchml_ml::{
    AdamConfig, BatchGradient, Checkpoint, GlmLoss, GlmModel, GradScratch, Instance, OptStateMode,
    OptimizerKind, OptimizerState,
};
use std::borrow::Cow;
use std::time::Instant;

/// Training hyper-parameters (§4.1 "Protocol": λ = 0.01, Adam β₁ = 0.9,
/// β₂ = 0.999, ε = 1e-8, grid-searched η).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainSpec {
    /// Loss family (LR / SVM / Linear).
    pub loss: GlmLoss,
    /// ℓ2 coefficient λ.
    pub l2: f64,
    /// Optimizer (the paper applies Adam to every method "for the purpose
    /// of fairness"; plain SGD is kept for the §3.3 Solution-2 ablation).
    pub optimizer: OptimizerKind,
    /// How optimizer state is materialized: dense `O(d)` vectors or
    /// count-sketch tables of fixed size (the 100M+-dim mode).
    pub opt_state: OptStateMode,
    /// Maximum number of epochs.
    pub max_epochs: usize,
    /// Stop early once §4.4's convergence criterion holds.
    pub stop_on_convergence: bool,
    /// Batch-shuffling seed.
    pub seed: u64,
}

impl TrainSpec {
    /// The paper's protocol for a given loss and learning rate.
    pub fn paper(loss: GlmLoss, lr: f64, max_epochs: usize) -> Self {
        TrainSpec {
            loss,
            l2: 0.01,
            optimizer: OptimizerKind::Adam(AdamConfig::with_lr(lr)),
            opt_state: OptStateMode::Dense,
            max_epochs,
            stop_on_convergence: false,
            seed: 0x7EA1,
        }
    }

    /// The same protocol with a different optimizer (the §3.3 ablation).
    pub fn with_optimizer(mut self, optimizer: OptimizerKind) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// The same protocol with a different optimizer-state layout.
    pub fn with_opt_state(mut self, opt_state: OptStateMode) -> Self {
        self.opt_state = opt_state;
        self
    }
}

/// Per-epoch measurements — the quantities behind Figures 8–11.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// 1-based epoch index.
    pub epoch: usize,
    /// Simulated wall time of this epoch.
    pub sim_seconds: f64,
    /// Simulated gradient-computation component.
    pub compute_seconds: f64,
    /// Simulated network component (uplink + downlink).
    pub comm_seconds: f64,
    /// Simulated compression/decompression component.
    pub codec_seconds: f64,
    /// *Measured* wall seconds spent in codecs (Figure 8(c)).
    pub measured_codec_seconds: f64,
    /// Total uplink message bytes this epoch (real serialized sizes).
    pub uplink_bytes: u64,
    /// Total downlink bytes this epoch: on the driver star, the frames the
    /// up workers' replies carried (each its peers' frames that arrived).
    pub downlink_bytes: u64,
    /// Key-value pairs shipped uplink this epoch.
    pub pairs: u64,
    /// Bytes the same gradients would take uncompressed (12 bytes/pair).
    pub raw_bytes: u64,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f64,
    /// Test loss after the epoch.
    pub test_loss: f64,
}

/// Output of one simulated training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Compressor name ("SketchML", "Adam", "ZipML", …).
    pub method: String,
    /// Loss name ("LR", "SVM", "Linear").
    pub model: String,
    /// Worker count.
    pub workers: usize,
    /// Per-epoch stats.
    pub epochs: Vec<EpochStats>,
    /// Loss-vs-simulated-time curve (Figures 10/14).
    pub curve: Vec<LossPoint>,
    /// Epoch at which §4.4's criterion first held, if it did.
    pub converged_epoch: Option<usize>,
    /// Final classification accuracy on the test set, when applicable.
    pub accuracy: Option<f64>,
}

impl TrainReport {
    /// Mean simulated seconds per epoch — the Figure 8(a)/9 metric.
    pub fn avg_epoch_seconds(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(|e| e.sim_seconds).sum::<f64>() / self.epochs.len() as f64
    }

    /// Mean uplink message size per worker-batch in bytes (Figure 8(b)).
    pub fn avg_message_bytes(&self, batches_per_epoch: usize, workers: usize) -> f64 {
        let msgs = (self.epochs.len() * batches_per_epoch * workers) as f64;
        if msgs == 0.0 {
            return 0.0;
        }
        self.epochs
            .iter()
            .map(|e| e.uplink_bytes as f64)
            .sum::<f64>()
            / msgs
    }

    /// Overall compression rate vs. raw 12-byte pairs (Figure 8(b)).
    pub fn compression_rate(&self) -> f64 {
        let raw: u64 = self.epochs.iter().map(|e| e.raw_bytes).sum();
        let got: u64 = self.epochs.iter().map(|e| e.uplink_bytes).sum();
        if got == 0 {
            1.0
        } else {
            raw as f64 / got as f64
        }
    }

    /// Minimum test loss across epochs (Table 2's quality metric).
    pub fn best_test_loss(&self) -> f64 {
        self.epochs
            .iter()
            .map(|e| e.test_loss)
            .fold(f64::INFINITY, f64::min)
    }

    /// Total simulated training time.
    pub fn total_sim_seconds(&self) -> f64 {
        self.epochs.iter().map(|e| e.sim_seconds).sum()
    }

    /// Simulated time at which convergence was declared (Table 2).
    pub fn converged_sim_seconds(&self) -> Option<f64> {
        let at = self.converged_epoch?;
        Some(self.epochs.iter().take(at).map(|e| e.sim_seconds).sum())
    }
}

/// Result of a [`train_glm`] run: the regular report plus the fault trace
/// (empty under [`FaultPlan::none`]) and a checkpoint of the final state for
/// later resumption.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The per-epoch report, identical in shape to a fault-free run's.
    pub report: TrainReport,
    /// Ordered record of every injected fault and its recovery cost.
    pub trace: FaultTrace,
    /// Restartable final state. Present for every [`OptimizerKind`] since
    /// checkpoint v2 (v1 silently produced `None` for anything but Adam);
    /// an unserializable state surfaces as a typed
    /// [`CompressError::InvalidConfig`] from the run instead of a silent
    /// `None` here.
    pub checkpoint: Option<Checkpoint>,
}

/// Runs the full distributed training simulation with the paper's driver
/// aggregation, fault-free: [`train_glm`] under [`FaultPlan::none`].
///
/// # Errors
/// As [`train_glm`].
pub fn train_distributed(
    train: &[Instance],
    test: &[Instance],
    dim: usize,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    compressor: &dyn GradientCompressor,
) -> Result<TrainReport, CompressError> {
    let task = GlmTask::new(train, test, dim);
    let driver = Aggregation::Driver(compressor);
    train_glm(&task, spec, cluster, driver, &FaultPlan::none(), None).map(|o| o.report)
}

/// The paper's driver star as an [`Exchange`], priced as the socket
/// server runs it: workers compress on their own threads, uplinks land
/// serially at the driver's NIC, the driver decodes what arrived and steps
/// the run's replica through [`Replica::apply`] (the server's receive half,
/// without sockets), then forwards each up worker the frames its peers
/// pushed.
pub(crate) struct DriverStar<'a> {
    cx: Ctx<'a>,
    /// Codec state of the decodes.
    scratch: CompressScratch,
    /// A round's decoded parts and their instance counts, refilled in place
    /// every round as the server refills its own.
    parts: Vec<SparseGradient>,
    instances: Vec<usize>,
}

impl<'a> DriverStar<'a> {
    pub(crate) fn new(cx: Ctx<'a>) -> Self {
        DriverStar {
            cx,
            scratch: CompressScratch::new(),
            parts: Vec::new(),
            instances: Vec::new(),
        }
    }
}

/// A GLM restores from its v3 checkpoint: real serialized bytes, so crash
/// recovery ships (and is charged for) genuine bytes.
impl Model for GlmModel {
    type Instance = Instance;

    fn label(&self) -> &'static str {
        self.loss.name()
    }

    fn gradient<'a>(
        &self,
        batch: impl Iterator<Item = &'a Instance> + Clone,
        scratch: &mut GradScratch,
        out: &mut BatchGradient,
    ) -> u64 {
        let feature_ops = batch.clone().map(|i| i.features.nnz() as u64).sum();
        self.batch_gradient_into(batch, scratch, out);
        feature_ops
    }

    fn apply(&mut self, opt: &mut OptimizerState, keys: &[u64], values: &[f64]) {
        self.apply_gradient(opt, keys, values);
    }

    fn test_loss(&self, test: &[Instance]) -> f64 {
        self.mean_loss(test)
    }

    fn accuracy(&self, test: &[Instance]) -> Option<f64> {
        GlmModel::accuracy(self, test)
    }

    fn restore_point(&self, opt: &OptimizerState, epochs_done: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        Checkpoint::write_parts(self, opt, epochs_done, &mut buf);
        buf
    }

    fn check_restore_point(&self, bytes: &[u8]) -> Result<(), CompressError> {
        Checkpoint::validate(bytes)
            .map_err(|e| CompressError::InvalidConfig(format!("recovery checkpoint: {e}")))
    }

    fn checkpoint(self, opt: OptimizerState, epochs_done: usize) -> Option<Checkpoint> {
        Some(Checkpoint::new(self, opt, epochs_done))
    }
}

impl Exchange for DriverStar<'_> {
    fn step<M: Model>(
        &mut self,
        round: &mut Round<'_>,
        parts: Vec<Option<WorkerMessage>>,
        replica: &mut Replica<M>,
    ) -> Result<Option<f64>, CompressError> {
        let Ctx {
            cluster,
            dim,
            compressor,
        } = self.cx;
        let es = &mut *round.es;
        let worker_codec = parts
            .iter()
            .flatten()
            .map(|m| m.sim_codec)
            .fold(0.0f64, f64::max);

        // Uplink messages land serially at the driver's NIC. Lost ones
        // simply drop out: the driver combines the survivors (instance
        // weighting renormalizes automatically). `own[w]` is `None` for a
        // down slot, else the bytes of slot `w`'s frame that arrived.
        let mut messages: Vec<WorkerMessage> = Vec::with_capacity(parts.len());
        let mut own: Vec<Option<usize>> = vec![None; parts.len()];
        let mut uplink = 0.0f64;
        for (w, part) in parts.into_iter().enumerate() {
            let Some(mut m) = part else { continue };
            let tx = push(round.link, w, round.batch, &m.payload, compressor, dim);
            uplink += tx.sim_seconds;
            es.uplink_bytes += tx.bytes_on_wire;
            own[w] = Some(tx.payload.as_ref().map_or(0, |p| p.len()));
            match tx.payload {
                None => continue,
                Some(Cow::Owned(corrupted)) => m.payload = corrupted,
                Some(Cow::Borrowed(_)) => {}
            }
            messages.push(m);
        }
        es.codec_seconds += worker_codec;
        es.comm_seconds += uplink;
        es.pairs += messages.iter().map(|m| m.report.pairs as u64).sum::<u64>();
        es.raw_bytes += messages
            .iter()
            .map(|m| 12 * m.report.pairs as u64)
            .sum::<u64>();
        es.measured_codec_seconds += messages.iter().map(|m| m.measured_codec).sum::<f64>();

        // The server's receive half: decode what arrived into the pooled
        // parts, then one `Replica::apply` (no parts: no gradient).
        let wall = Instant::now();
        self.instances.clear();
        self.instances.extend(messages.iter().map(|m| m.instances));
        while self.parts.len() < messages.len() {
            self.parts.push(SparseGradient::empty(0));
        }
        let mut pairs = 0usize;
        for (m, part) in messages.iter().zip(&mut self.parts) {
            compressor.decompress_into(&m.payload, &mut self.scratch, part)?;
            pairs += part.nnz();
        }
        es.measured_codec_seconds += wall.elapsed().as_secs_f64();
        es.codec_seconds += cluster.cost.codec_time(pairs);
        replica.apply(&self.parts[..messages.len()], &self.instances)?;
        if messages.is_empty() {
            // Every contribution was lost or crashed: no round took place
            // (its time was still spent).
            return Ok(None);
        }
        let loss_sum: f64 = messages.iter().map(|m| m.loss_sum).sum();
        // `apply` held the counts' sum to a `usize`.
        let batch_loss = match self.instances.iter().sum::<usize>() {
            0 => 0.0,
            n => loss_sum / n as f64,
        };

        // Downlink: each up worker's reply carries the frames that arrived,
        // its own left out, as the server's round reply does. The replies
        // leave the driver's NIC one after another, plus re-sends of the
        // replies the fault plan rejects.
        let arrived: usize = own.iter().flatten().sum();
        let replies: Vec<usize> = own.iter().map(|o| o.map_or(0, |b| arrived - b)).collect();
        let net = &cluster.cost.network;
        let downlink: f64 = (own.iter().flatten())
            .map(|&b| net.transfer_time(arrived - b))
            .sum();
        let downlink_penalty = round.link.downlink_penalty(round.batch, &replies);
        es.comm_seconds += downlink + downlink_penalty;
        es.downlink_bytes += replies.iter().sum::<usize>() as u64;
        Ok(Some(batch_loss))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchml_core::{RawCompressor, ShardedCompressor, SketchMlCompressor, ZipMlCompressor};
    use sketchml_data::SparseDatasetSpec;

    fn tiny_dataset() -> (Vec<Instance>, Vec<Instance>, usize) {
        let spec = SparseDatasetSpec {
            name: "tiny".into(),
            instances: 2_000,
            features: 40_000,
            avg_nnz: 20,
            skew: 1.1,
            label_noise: 0.02,
            task: sketchml_data::Task::Classification,
            seed: 77,
        };
        let (train, test) = spec.generate_split();
        (train, test, 40_000)
    }

    #[test]
    fn training_converges_with_raw_compressor() {
        let (train, test, dim) = tiny_dataset();
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 8);
        let cluster = ClusterConfig::cluster1(4);
        let report = train_distributed(
            &train,
            &test,
            dim,
            &spec,
            &cluster,
            &RawCompressor::default(),
        )
        .unwrap();
        assert_eq!(report.epochs.len(), 8);
        // The zero model scores ln 2 on logistic loss; training must beat it.
        let last = report.epochs[7].test_loss;
        assert!(
            last < (2f64).ln() * 0.95,
            "loss should fall below the zero-model baseline: {last}"
        );
        assert!(report.avg_epoch_seconds() > 0.0);
        assert_eq!(report.curve.len(), 8);
        // Curve seconds are cumulative and increasing.
        for w in report.curve.windows(2) {
            assert!(w[1].seconds > w[0].seconds);
        }
    }

    #[test]
    fn sharding_does_not_change_training_math() {
        // With a lossless compressor the sharded engine decodes the exact
        // same gradients, so the whole trajectory must match bit-for-bit.
        let (train, test, dim) = tiny_dataset();
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 3);
        let cluster = ClusterConfig::cluster1(4);
        let run = |compressor: &dyn GradientCompressor| {
            train_distributed(&train, &test, dim, &spec, &cluster, compressor).unwrap()
        };
        let serial = run(&RawCompressor::default());
        let threaded = run(&ShardedCompressor::new(RawCompressor::default(), 4).unwrap());
        for (a, b) in serial.epochs.iter().zip(&threaded.epochs) {
            assert_eq!(a.test_loss, b.test_loss);
            assert_eq!(a.train_loss, b.train_loss);
            assert_eq!(a.pairs, b.pairs);
        }
        // The sharded frame costs a few header bytes per message.
        assert!(threaded.epochs[0].uplink_bytes >= serial.epochs[0].uplink_bytes);
    }

    #[test]
    fn sketchml_converges_close_to_raw() {
        let (train, test, dim) = tiny_dataset();
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 10);
        let cluster = ClusterConfig::cluster1(4);
        let raw = train_distributed(
            &train,
            &test,
            dim,
            &spec,
            &cluster,
            &RawCompressor::default(),
        )
        .unwrap();
        let sk = train_distributed(
            &train,
            &test,
            dim,
            &spec,
            &cluster,
            &SketchMlCompressor::default(),
        )
        .unwrap();
        let raw_loss = raw.best_test_loss();
        let sk_loss = sk.best_test_loss();
        assert!(
            sk_loss < raw_loss * 1.35,
            "SketchML quality {sk_loss} too far from Adam {raw_loss}"
        );
    }

    #[test]
    fn sketchml_epochs_are_faster_than_raw() {
        let (train, test, dim) = tiny_dataset();
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 3);
        let cluster = ClusterConfig::cluster1(8);
        let raw = train_distributed(
            &train,
            &test,
            dim,
            &spec,
            &cluster,
            &RawCompressor::default(),
        )
        .unwrap();
        let sk = train_distributed(
            &train,
            &test,
            dim,
            &spec,
            &cluster,
            &SketchMlCompressor::default(),
        )
        .unwrap();
        assert!(
            sk.avg_epoch_seconds() < raw.avg_epoch_seconds(),
            "SketchML {} should beat Adam {}",
            sk.avg_epoch_seconds(),
            raw.avg_epoch_seconds()
        );
        assert!(sk.compression_rate() > raw.compression_rate());
    }

    #[test]
    fn zipml_sits_between() {
        let (train, test, dim) = tiny_dataset();
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 3);
        let cluster = ClusterConfig::cluster1(8);
        let t = |c: &dyn GradientCompressor| {
            train_distributed(&train, &test, dim, &spec, &cluster, c)
                .unwrap()
                .avg_epoch_seconds()
        };
        let raw = t(&RawCompressor::default());
        let zip = t(&ZipMlCompressor::paper_default());
        let sk = t(&SketchMlCompressor::default());
        assert!(sk < zip, "SketchML {sk} should beat ZipML {zip}");
        assert!(zip < raw, "ZipML {zip} should beat Adam {raw}");
    }

    #[test]
    fn stats_are_consistent() {
        let (train, test, dim) = tiny_dataset();
        let spec = TrainSpec::paper(GlmLoss::Squared, 0.05, 2);
        let cluster = ClusterConfig::cluster1(3);
        let report = train_distributed(
            &train,
            &test,
            dim,
            &spec,
            &cluster,
            &SketchMlCompressor::default(),
        )
        .unwrap();
        for e in &report.epochs {
            assert!(e.uplink_bytes > 0);
            assert!(e.raw_bytes >= e.uplink_bytes, "SketchML must compress");
            assert!(
                (e.sim_seconds - (e.compute_seconds + e.comm_seconds + e.codec_seconds)).abs()
                    < 1e-9
            );
            assert!(e.test_loss.is_finite());
        }
        assert_eq!(report.method, "SketchML");
        assert_eq!(report.model, "Linear");
    }

    #[test]
    fn single_node_has_zero_comm() {
        let (train, test, dim) = tiny_dataset();
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
        let cluster = ClusterConfig::single_node();
        let report = train_distributed(
            &train,
            &test,
            dim,
            &spec,
            &cluster,
            &RawCompressor::default(),
        )
        .unwrap();
        for e in &report.epochs {
            assert_eq!(e.comm_seconds, 0.0);
        }
    }
}
