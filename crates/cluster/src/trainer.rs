//! The distributed GLM training loop (paper §4.1 "Implementation" /
//! "Protocol"), generic over the gradient compressor — running it with each
//! of the six compressors reproduces every line of Figures 8–11 and
//! Tables 2/4.

use crate::config::ClusterConfig;
use crate::driver::{aggregate, DriverScratch};
use crate::faults::{CrashPhase, FaultPlan, FaultTrace, FaultyLink};
use crate::obs;
use crate::worker::{partition, process_glm_batch, WorkerMessage, WorkerScratch};
use serde::{Deserialize, Serialize};
use sketchml_core::{CompressError, FrameVersion, GradientCompressor};
use sketchml_data::Batcher;
use sketchml_ml::metrics::{ConvergenceDetector, LossPoint};
use sketchml_ml::{
    AdamConfig, Checkpoint, GlmLoss, GlmModel, Instance, OptStateMode, OptimizerKind,
    OptimizerState,
};

/// Training hyper-parameters (§4.1 "Protocol": λ = 0.01, Adam β₁ = 0.9,
/// β₂ = 0.999, ε = 1e-8, grid-searched η).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
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

// Hand-written so specs serialized before `opt_state` existed still parse
// (they default to dense state) — same pattern as `ClusterConfig`.
impl serde::Deserialize for TrainSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_obj()
            .ok_or_else(|| serde::Error::custom("TrainSpec: expected an object"))?;
        Ok(TrainSpec {
            loss: serde::Deserialize::from_value(serde::field(obj, "loss")?)?,
            l2: serde::Deserialize::from_value(serde::field(obj, "l2")?)?,
            optimizer: serde::Deserialize::from_value(serde::field(obj, "optimizer")?)?,
            opt_state: match serde::field(obj, "opt_state") {
                Ok(val) => serde::Deserialize::from_value(val)?,
                Err(_) => OptStateMode::Dense,
            },
            max_epochs: serde::Deserialize::from_value(serde::field(obj, "max_epochs")?)?,
            stop_on_convergence: serde::Deserialize::from_value(serde::field(
                obj,
                "stop_on_convergence",
            )?)?,
            seed: serde::Deserialize::from_value(serde::field(obj, "seed")?)?,
        })
    }
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    /// Total downlink (broadcast) bytes this epoch.
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

impl EpochStats {
    /// An all-zero stats record for epoch 0 (builder for accumulation).
    pub fn zeroed() -> Self {
        EpochStats {
            epoch: 0,
            sim_seconds: 0.0,
            compute_seconds: 0.0,
            comm_seconds: 0.0,
            codec_seconds: 0.0,
            measured_codec_seconds: 0.0,
            uplink_bytes: 0,
            downlink_bytes: 0,
            pairs: 0,
            raw_bytes: 0,
            train_loss: 0.0,
            test_loss: 0.0,
        }
    }
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

/// Result of a chaos or resumable run: the regular report plus the fault
/// trace (empty for fault-free runs) and a checkpoint of the final state for
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

/// Builds the concrete, checkpointable optimizer state a spec asks for.
/// Shared with the allreduce/PS/SSP trainers.
pub(crate) fn build_opt_state(
    spec: &TrainSpec,
    dim: usize,
) -> Result<OptimizerState, CompressError> {
    OptimizerState::build(spec.optimizer, spec.opt_state, dim)
        .map_err(|e| CompressError::InvalidConfig(e.to_string()))
}

/// Serializes a restore point through the real checkpoint codec so crash
/// recovery ships (and is charged for) genuine bytes.
fn checkpoint_bytes(model: &GlmModel, opt: &OptimizerState, epochs_done: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    Checkpoint::write_parts(model, opt, epochs_done, &mut buf);
    buf
}

/// Runs the full distributed training simulation.
///
/// Workers are real threads computing real gradients on their slice of each
/// mini-batch; message bytes are real compressed payloads; time is the
/// declared [`crate::CostModel`].
///
/// # Errors
/// [`CompressError::InvalidConfig`] on an empty training set or invalid
/// cluster configuration; propagates compressor failures.
pub fn train_distributed(
    train: &[Instance],
    test: &[Instance],
    dim: usize,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    compressor: &dyn GradientCompressor,
) -> Result<TrainReport, CompressError> {
    run_train(train, test, dim, spec, cluster, compressor, None, None).map(|o| o.report)
}

/// [`train_distributed`] under a deterministic fault plan: messages are
/// dropped / corrupted / duplicated per the plan, crashed workers recover
/// from checkpoints, and every retry and restore is charged to the
/// simulated clock. The same plan and data always produce the identical
/// trace and final loss.
///
/// # Errors
/// [`CompressError::InvalidConfig`] on an invalid plan or cluster config;
/// propagates compressor failures.
pub fn train_distributed_chaos(
    train: &[Instance],
    test: &[Instance],
    dim: usize,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    compressor: &dyn GradientCompressor,
    faults: &FaultPlan,
) -> Result<TrainOutcome, CompressError> {
    run_train(
        train,
        test,
        dim,
        spec,
        cluster,
        compressor,
        Some(faults),
        None,
    )
}

/// The full-control entry point: optional fault plan, optional checkpoint
/// to resume from. A resumed run replays the batch shuffles of the
/// already-completed epochs, so it walks exactly the batches the
/// uninterrupted run would have — resumption is bit-exact for lossless
/// compressors.
///
/// # Errors
/// [`CompressError::InvalidConfig`] if the checkpoint's dimension does not
/// match `dim` or it already covers `max_epochs`; otherwise as
/// [`train_distributed_chaos`].
#[allow(clippy::too_many_arguments)]
pub fn train_distributed_resumable(
    train: &[Instance],
    test: &[Instance],
    dim: usize,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    compressor: &dyn GradientCompressor,
    faults: Option<&FaultPlan>,
    resume: Option<Checkpoint>,
) -> Result<TrainOutcome, CompressError> {
    run_train(train, test, dim, spec, cluster, compressor, faults, resume)
}

#[allow(clippy::too_many_arguments)]
fn run_train(
    train: &[Instance],
    test: &[Instance],
    dim: usize,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    compressor: &dyn GradientCompressor,
    faults: Option<&FaultPlan>,
    resume: Option<Checkpoint>,
) -> Result<TrainOutcome, CompressError> {
    if train.is_empty() {
        return Err(CompressError::InvalidConfig(
            "training set must be non-empty".into(),
        ));
    }
    cluster.validate()?;
    let _recording = obs::scope_for(cluster);
    if resume.is_some() {
        obs::resumed();
    }
    // Chaos runs with checksums ship every message in the CRC-carrying v2
    // frame so the receiver can actually detect injected corruption;
    // compress_threads > 1 engages the same sharded engine for parallelism.
    let frame = if faults.is_some_and(|p| p.checksum) {
        FrameVersion::V2
    } else {
        FrameVersion::V1
    };
    let wired = cluster.wire_compressor(compressor, frame)?;
    let compressor: &dyn GradientCompressor = match &wired {
        Some(engine) => engine,
        None => compressor,
    };

    let mut start_epoch = 0usize;
    let (mut model, mut opt) = match resume {
        Some(ck) => {
            if ck.model.weights.len() != dim {
                return Err(CompressError::InvalidConfig(format!(
                    "checkpoint dimension {} does not match requested {dim}",
                    ck.model.weights.len()
                )));
            }
            if ck.epochs_done >= spec.max_epochs {
                return Err(CompressError::InvalidConfig(format!(
                    "checkpoint already covers {} of {} epochs",
                    ck.epochs_done, spec.max_epochs
                )));
            }
            start_epoch = ck.epochs_done;
            (ck.model, ck.optimizer)
        }
        None => (
            GlmModel::new(dim, spec.loss, spec.l2)
                .map_err(|e| CompressError::InvalidConfig(e.to_string()))?,
            build_opt_state(spec, dim)?,
        ),
    };
    obs::opt_state_bytes(opt.state_bytes() as u64);
    let mut batcher = Batcher::new(train.len(), cluster.batch_ratio, spec.seed);
    // Replay the shuffles of completed epochs so the resumed run sees
    // exactly the batches the uninterrupted run would.
    for _ in 0..start_epoch {
        let _ = batcher.epoch();
    }
    let mut detector = ConvergenceDetector::default();
    let mut link = match faults {
        Some(plan) => Some(FaultyLink::new(
            plan,
            cluster.cost.network,
            cluster.workers,
        )?),
        None => None,
    };

    let mut epochs = Vec::with_capacity(spec.max_epochs);
    let mut curve = Vec::new();
    let mut converged_epoch = None;
    let mut clock = 0.0f64;
    let mut global_batch = 0u64;
    let mut epochs_completed = start_epoch;
    // The restore point a crashed worker receives; refreshed each epoch.
    let mut last_checkpoint: Option<Vec<u8>> = None;
    // Pooled codec state, persistent across every batch of every epoch: one
    // scratch per worker slot (threads borrow disjoint slots) plus the
    // driver's aggregation scratch.
    let mut worker_scratch: Vec<WorkerScratch> =
        (0..cluster.workers).map(|_| WorkerScratch::new()).collect();
    let mut driver_scratch = DriverScratch::new();

    for epoch in start_epoch + 1..=spec.max_epochs {
        let mut es = EpochStats {
            epoch,
            ..EpochStats::zeroed()
        };
        let batches = batcher.epoch();
        let mut loss_accum = 0.0;
        for batch in &batches {
            // Crash schedule: mark dead workers, restore rejoining ones.
            let mut alive = vec![true; cluster.workers];
            if let Some(l) = link.as_mut() {
                for (w, alive_w) in alive.iter_mut().enumerate() {
                    match l.crash_phase(w, global_batch) {
                        CrashPhase::Up => {}
                        CrashPhase::Down => *alive_w = false,
                        CrashPhase::Rejoin => {
                            // The rejoining worker restores from the last
                            // end-of-epoch checkpoint (real serialized
                            // bytes) — every optimizer kind has one since
                            // checkpoint v2.
                            let fresh;
                            let bytes = match &last_checkpoint {
                                Some(b) => b,
                                None => {
                                    fresh = checkpoint_bytes(&model, &opt, epochs_completed);
                                    &fresh
                                }
                            };
                            // Prove the restore path end to end: the
                            // shipped bytes must actually load.
                            Checkpoint::validate(bytes).map_err(|e| {
                                CompressError::InvalidConfig(format!("recovery checkpoint: {e}"))
                            })?;
                            es.comm_seconds += l.charge_recovery(w, global_batch, bytes.len());
                        }
                    }
                }
            }

            let parts = partition(batch, cluster.workers);
            // Real parallel gradient computation + compression; crashed
            // workers contribute nothing this batch.
            let computed: Vec<Option<WorkerMessage>> = crossbeam::thread::scope(|s| {
                let handles: Vec<_> = parts
                    .iter()
                    .zip(worker_scratch.iter_mut())
                    .enumerate()
                    .map(|(w, (part, ws))| {
                        if !alive[w] {
                            return None;
                        }
                        let model = &model;
                        let cost = &cluster.cost;
                        Some(s.spawn(move |_| {
                            let slice: Vec<Instance> =
                                part.iter().map(|&i| train[i].clone()).collect();
                            process_glm_batch(model, &slice, compressor, cost, ws)
                        }))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h {
                        Some(h) => h.join().expect("worker thread panicked").map(Some),
                        None => Ok(None),
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .expect("crossbeam scope")?;

            // --- simulated clock for this batch ---
            // Workers run in parallel: the slowest (straggler-adjusted)
            // alive worker gates the batch.
            let compute = computed
                .iter()
                .enumerate()
                .filter_map(|(w, m)| {
                    let factor = link.as_ref().map_or(1.0, |l| l.compute_factor(w));
                    m.as_ref().map(|m| m.sim_compute * factor)
                })
                .fold(0.0f64, f64::max);
            if sketchml_telemetry::enabled() {
                let unskewed = computed
                    .iter()
                    .flatten()
                    .map(|m| m.sim_compute)
                    .fold(0.0f64, f64::max);
                obs::straggler_wait(compute - unskewed);
            }
            let worker_codec = computed
                .iter()
                .flatten()
                .map(|m| m.sim_codec)
                .fold(0.0f64, f64::max);

            // Uplink messages land serially at the driver's NIC — through
            // the faulty link when a plan is active.
            let mut messages: Vec<WorkerMessage> = Vec::with_capacity(computed.len());
            let mut uplink = 0.0f64;
            match link.as_mut() {
                None => {
                    for m in computed.into_iter().flatten() {
                        uplink += cluster.cost.network.transfer_time(m.payload.len());
                        es.uplink_bytes += m.payload.len() as u64;
                        messages.push(m);
                    }
                }
                Some(l) => {
                    for (w, m) in computed.into_iter().enumerate() {
                        let Some(mut m) = m else { continue };
                        // The driver's integrity check: the payload must
                        // decode (v2 frames verify per-shard CRCs here) and
                        // announce the expected dimension.
                        let tx = l.transmit(w, global_batch, &m.payload, &mut |b| {
                            compressor
                                .decompress(b)
                                .map(|g| g.dim() == dim as u64)
                                .unwrap_or(false)
                        });
                        uplink += tx.sim_seconds;
                        es.uplink_bytes += tx.bytes_on_wire;
                        if let Some(payload) = tx.payload {
                            m.payload = payload;
                            messages.push(m);
                        }
                        // Lost messages simply drop out: the driver
                        // aggregates the survivors (instance weighting
                        // renormalizes automatically).
                    }
                }
            }

            es.compute_seconds += compute;
            es.codec_seconds += worker_codec;
            es.comm_seconds += uplink;
            es.pairs += messages.iter().map(|m| m.report.pairs as u64).sum::<u64>();
            es.raw_bytes += messages
                .iter()
                .map(|m| 12 * m.report.pairs as u64)
                .sum::<u64>();
            es.measured_codec_seconds += messages.iter().map(|m| m.measured_codec).sum::<f64>();
            global_batch += 1;

            if messages.is_empty() {
                // Every contribution was lost or crashed: no update this
                // batch (time was still spent).
                continue;
            }

            let agg = aggregate(
                &messages,
                dim as u64,
                compressor,
                &cluster.cost,
                cluster.compress_downlink,
                &mut driver_scratch,
            )?;
            // Downlink: torrent-style broadcast of the aggregated update,
            // plus re-pulls for copies the fault plan rejects.
            let downlink = cluster
                .cost
                .network
                .broadcast_time(agg.downlink_bytes, cluster.workers);
            let downlink_penalty = link.as_mut().map_or(0.0, |l| {
                l.broadcast_penalty(global_batch - 1, agg.downlink_bytes)
            });

            model.apply_gradient(&mut opt, agg.gradient.keys(), agg.gradient.values());

            es.codec_seconds += agg.sim_codec;
            es.comm_seconds += downlink + downlink_penalty;
            es.measured_codec_seconds += agg.measured_codec;
            es.downlink_bytes += (agg.downlink_bytes * cluster.workers) as u64;
            loss_accum += agg.batch_loss;
        }
        obs::rounds(batches.len() as u64, es.uplink_bytes, es.downlink_bytes);
        es.sim_seconds = es.compute_seconds + es.comm_seconds + es.codec_seconds;
        es.train_loss = loss_accum / batches.len() as f64;
        es.test_loss = model.mean_loss(test);
        clock += es.sim_seconds;
        curve.push(LossPoint {
            seconds: clock,
            epoch,
            loss: es.test_loss,
        });
        epochs_completed = epoch;
        // Refresh the restore point crashed workers recover from.
        if link.is_some() {
            last_checkpoint = Some(checkpoint_bytes(&model, &opt, epoch));
            obs::checkpoint_saved();
        }
        let converged = detector.push(es.test_loss);
        epochs.push(es);
        if converged && converged_epoch.is_none() {
            converged_epoch = Some(epoch);
            if spec.stop_on_convergence {
                break;
            }
        }
    }

    let accuracy = model.accuracy(test);
    let report = TrainReport {
        method: compressor.name().to_string(),
        model: spec.loss.name().to_string(),
        workers: cluster.workers,
        epochs,
        curve,
        converged_epoch,
        accuracy,
    };
    let trace = link.map(FaultyLink::into_trace).unwrap_or_default();
    obs::trace_totals(&trace);
    let checkpoint = Some(Checkpoint::new(model, opt, epochs_completed));
    Ok(TrainOutcome {
        report,
        trace,
        checkpoint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchml_core::{RawCompressor, SketchMlCompressor, ZipMlCompressor};
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
    fn compress_threads_do_not_change_training_math() {
        // With a lossless compressor the sharded engine decodes the exact
        // same gradients, so the whole trajectory must match bit-for-bit.
        let (train, test, dim) = tiny_dataset();
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 3);
        let run = |threads: usize| {
            let cluster = ClusterConfig::cluster1(4).with_compress_threads(threads);
            train_distributed(
                &train,
                &test,
                dim,
                &spec,
                &cluster,
                &RawCompressor::default(),
            )
            .unwrap()
        };
        let serial = run(1);
        let threaded = run(4);
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
