//! Stale-synchronous-parallel (SSP) training — the consistency model of the
//! parameter-server world the paper's protocol builds on (its batch-size
//! choice follows Ho et al.'s SSP paper, ref \[19\], and SketchML's production
//! home, Angel, is an SSP parameter server).
//!
//! Under SSP each worker advances at its own pace but may run at most
//! `staleness` iterations ahead of the slowest worker. With heterogeneous
//! worker speeds (stragglers), BSP (`staleness = 0`) forces everyone to wait
//! for the slowest every round, while SSP hides the skew — and gradient
//! compression shrinks each worker's per-iteration communication either way.
//!
//! The simulator is event-driven and deterministic: each worker has its own
//! clock; the next event is always the worker with the smallest clock that
//! is not blocked by the staleness bound; updates apply to the shared model
//! in event order.

use crate::config::ClusterConfig;
use crate::engine::{glm_state, open_link, push, GlmTask};
use crate::faults::{CrashPhase, FaultPlan, FaultTrace};
use crate::trainer::TrainSpec;
use crate::worker::WorkerScratch;
use serde::{Deserialize, Serialize};
use sketchml_core::{CompressError, CompressScratch, GradientCompressor, SparseGradient};
use sketchml_ml::metrics::LossPoint;
use sketchml_ml::Instance;

/// SSP-specific knobs. The per-worker mini-batch is the cluster's
/// [`ClusterConfig::batch_ratio`] of that worker's partition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SspConfig {
    /// Maximum allowed lead over the slowest worker (0 = BSP).
    pub staleness: usize,
    /// Relative compute-speed spread across workers: worker `w`'s compute
    /// cost is multiplied by `1 + straggle * w / (W - 1)` — worker 0 is the
    /// fastest, the last worker the straggler. 0.0 = homogeneous.
    pub straggle: f64,
}

impl SspConfig {
    /// BSP (fully synchronous) with the given straggler spread.
    pub fn bsp(straggle: f64) -> Self {
        SspConfig {
            staleness: 0,
            straggle,
        }
    }

    /// SSP with the given staleness bound and straggler spread.
    pub fn ssp(staleness: usize, straggle: f64) -> Self {
        SspConfig {
            staleness,
            straggle,
        }
    }

    /// Validates the SSP knobs.
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] for a negative or non-finite
    /// straggle spread.
    pub fn validate(&self) -> Result<(), CompressError> {
        if !self.straggle.is_finite() || self.straggle < 0.0 {
            return Err(CompressError::InvalidConfig(format!(
                "ssp: straggle {} must be finite and non-negative",
                self.straggle
            )));
        }
        Ok(())
    }
}

/// One sampled point of an SSP run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SspEpochStats {
    /// Epoch-equivalents completed (total instances / train size).
    pub epoch: usize,
    /// Simulated wall time when this epoch-equivalent completed.
    pub sim_seconds: f64,
    /// Test loss at that point.
    pub test_loss: f64,
    /// Total uplink bytes so far.
    pub uplink_bytes: u64,
}

/// Output of an SSP run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SspReport {
    /// Compressor name.
    pub method: String,
    /// Staleness bound used.
    pub staleness: usize,
    /// Per-epoch-equivalent samples.
    pub epochs: Vec<SspEpochStats>,
    /// Loss-vs-time curve.
    pub curve: Vec<LossPoint>,
}

impl SspReport {
    /// Simulated seconds to complete all requested epochs.
    pub fn total_sim_seconds(&self) -> f64 {
        self.epochs.last().map_or(0.0, |e| e.sim_seconds)
    }

    /// Best test loss reached.
    pub fn best_test_loss(&self) -> f64 {
        self.epochs
            .iter()
            .map(|e| e.test_loss)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Runs SSP training: heterogeneous workers, bounded staleness, compressed
/// push/pull — fault-free with a fixed bound: [`train_ssp_with_plan`] under
/// [`FaultPlan::none`].
///
/// # Errors
/// As [`train_ssp_with_plan`].
pub fn train_ssp(
    train: &[Instance],
    test: &[Instance],
    dim: usize,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    ssp: &SspConfig,
    compressor: &dyn GradientCompressor,
) -> Result<SspReport, CompressError> {
    let task = GlmTask::new(train, test, dim);
    train_ssp_with_plan(&task, spec, cluster, ssp, compressor, &FaultPlan::none())
        .map(|(report, _)| report)
}

/// SSP training under a deterministic fault plan: pushes suffer drops,
/// corruption, and duplication; crashed workers are excluded from the
/// staleness bound while down (no deadlock) and rejoin at the cohort's
/// pace after a charged state re-pull; plan stragglers stack with the
/// config's straggle spread — the scenario where SSP's bounded staleness
/// absorbs the slowdown that would stall BSP.
///
/// The scheduler is event-driven, so it is not a round of the engine's
/// barrier loop; it is assembled from the same pieces (the link, model
/// state, push).
///
/// # Errors
/// [`CompressError::InvalidConfig`] on an empty training set or an invalid
/// plan, cluster config or SSP config; propagates compressor
/// failures.
pub fn train_ssp_with_plan(
    task: &GlmTask<'_>,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    ssp: &SspConfig,
    compressor: &dyn GradientCompressor,
    faults: &FaultPlan,
) -> Result<(SspReport, FaultTrace), CompressError> {
    let GlmTask { train, test, dim } = *task;
    ssp.validate()?;
    let mut link = open_link(train.len(), cluster, faults)?;
    let workers = cluster.workers;
    let (mut model, mut opt, _) = glm_state(dim, spec, None)?;

    // Static data partitioning across workers (§2.2 data parallelism).
    let partitions: Vec<Vec<usize>> = {
        let idx: Vec<usize> = (0..train.len()).collect();
        crate::worker::partition(&idx, workers)
    };
    let batch_size: Vec<usize> = partitions
        .iter()
        .map(|p| ((p.len() as f64 * cluster.batch_ratio).round() as usize).clamp(1, p.len().max(1)))
        .collect();

    // Per-worker state.
    let mut clocks = vec![0.0f64; workers];
    let mut iters = vec![0u64; workers];
    let mut cursor = vec![0usize; workers]; // position within the partition
    let speed = |w: usize| 1.0 + ssp.straggle * (w as f64) / ((workers.max(2) - 1) as f64);

    let total_per_epoch: usize = batch_size.iter().sum::<usize>().max(1);
    let iters_per_epoch = (train.len() as f64 / total_per_epoch as f64).ceil() as u64;
    let target_iters = iters_per_epoch * spec.max_epochs as u64 * workers as u64;

    let mut epochs = Vec::new();
    let mut curve = Vec::new();
    // Pooled state, reused across every (serially simulated) push: the
    // workers' gradient and encode buffers, the server's decode scratch.
    let mut ws = WorkerScratch::new();
    let mut scratch = CompressScratch::new();
    let mut decoded = SparseGradient::empty(0);
    let mut uplink_bytes = 0u64;
    let mut instances_done = 0u64;
    let mut next_epoch_mark = train.len() as u64;
    let mut total_iters = 0u64;

    while total_iters < target_iters {
        // Crash schedule: downed workers leave the cohort — and the
        // staleness bound — until they rejoin, which costs a state re-pull
        // charged to their clock.
        let mut down = vec![false; workers];
        for (w, down_w) in down.iter_mut().enumerate() {
            match link.crash_phase(w, total_iters) {
                CrashPhase::Up => {}
                CrashPhase::Down => *down_w = true,
                CrashPhase::Rejoin => {
                    // Rejoin at the surviving cohort's pace so the
                    // staleness bound doesn't retroactively stall on
                    // iterations the worker never ran.
                    let cohort_min = (0..workers)
                        .filter(|&x| x != w)
                        .map(|x| iters[x])
                        .min()
                        .unwrap_or(iters[w]);
                    iters[w] = iters[w].max(cohort_min);
                    let now = clocks.iter().copied().fold(0.0f64, f64::max);
                    clocks[w] = clocks[w].max(now) + link.charge_recovery(w, total_iters, 8 * dim);
                }
            }
        }
        // The staleness bound: a worker may be at most `s` iterations ahead
        // of the slowest *alive* worker.
        let Some(min_iter) = (0..workers).filter(|&w| !down[w]).map(|w| iters[w]).min() else {
            // Every worker is down: burn an idle tick so the crash windows
            // (keyed on total_iters) eventually reopen.
            total_iters += 1;
            continue;
        };
        let Some(w) = (0..workers)
            .filter(|&w| !down[w] && iters[w] <= min_iter + ssp.staleness as u64)
            .min_by(|&a, &b| clocks[a].total_cmp(&clocks[b]))
        else {
            total_iters += 1;
            continue;
        };
        // A blocked worker waits until it becomes eligible: advance its
        // clock to the chosen worker's completion implicitly by processing
        // events in clock order among eligible workers.

        // Sample this worker's next local mini-batch (sequential scan).
        let part = &partitions[w];
        if part.is_empty() {
            iters[w] += 1;
            total_iters += 1;
            continue;
        }
        let (bs, at) = (batch_size[w], cursor[w]);
        let batch = (0..bs).map(|i| &train[part[(at + i) % part.len()]]);
        cursor[w] = (at + bs) % part.len();

        // Compute on the current (possibly stale relative to this worker's
        // last view — SSP's approximation) model.
        let g = ws.gradient(&model, batch)?;
        let (sparse, feature_ops) = (g.sparse, g.feature_ops);
        compressor.compress_into(sparse, g.scratch, g.out)?;
        let wire_buf = &*g.out;

        // Push through the link; a lost push means this iteration's update
        // never reaches the server.
        let tx = push(&mut link, w, total_iters, wire_buf, compressor, dim);
        uplink_bytes += tx.bytes_on_wire;
        if let Some(payload) = &tx.payload {
            compressor.decompress_into(payload, &mut scratch, &mut decoded)?;
            decoded.scale(1.0 / workers as f64); // same scaling as sync averaging
            model.apply_gradient(&mut opt, decoded.keys(), decoded.values());
        }

        // Advance this worker's clock: pull + compute + push. Plan-declared
        // stragglers stack multiplicatively on the config's speed spread.
        let nominal = cluster.cost.compute_time(feature_ops);
        let compute = nominal * speed(w) * link.compute_factor(w);
        // Pull bytes mirror the push (model delta ≈ gradient size).
        let pull = cluster.cost.network.transfer_time(wire_buf.len());
        let codec = cluster.cost.codec_time(sparse.nnz() * 2);
        clocks[w] += compute + tx.sim_seconds + pull + codec;

        // Under BSP the whole cohort waits for the slowest at each barrier:
        // emulate by snapping every alive worker to the max clock when a
        // round completes (all alive workers at the same iteration count).
        iters[w] += 1;
        total_iters += 1;
        if ssp.staleness == 0
            && (0..workers)
                .filter(|&x| !down[x])
                .all(|x| iters[x] == iters[w])
        {
            let barrier = (0..workers)
                .filter(|&x| !down[x])
                .map(|x| clocks[x])
                .fold(0.0f64, f64::max);
            for (x, c) in clocks.iter_mut().enumerate() {
                if !down[x] {
                    *c = barrier;
                }
            }
        }

        instances_done += bs as u64;
        if instances_done >= next_epoch_mark {
            let epoch = (instances_done / train.len() as u64) as usize;
            let now = clocks.iter().copied().fold(0.0f64, f64::max);
            let test_loss = model.mean_loss(test);
            epochs.push(SspEpochStats {
                epoch,
                sim_seconds: now,
                test_loss,
                uplink_bytes,
            });
            curve.push(LossPoint {
                seconds: now,
                epoch,
                loss: test_loss,
            });
            next_epoch_mark += train.len() as u64;
        }
    }

    Ok((
        SspReport {
            method: compressor.name().to_string(),
            staleness: ssp.staleness,
            epochs,
            curve,
        },
        link.into_trace(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::TrainSpec;
    use sketchml_core::{RawCompressor, SketchMlCompressor};
    use sketchml_data::SparseDatasetSpec;
    use sketchml_ml::GlmLoss;

    fn dataset() -> (Vec<Instance>, Vec<Instance>, usize) {
        let spec = SparseDatasetSpec {
            name: "ssp".into(),
            instances: 1_500,
            features: 30_000,
            avg_nnz: 20,
            skew: 1.1,
            label_noise: 0.02,
            task: sketchml_data::Task::Classification,
            seed: 909,
        };
        let (tr, te) = spec.generate_split();
        (tr, te, 30_000)
    }

    #[test]
    fn ssp_trains_and_reduces_loss() {
        let (train, test, dim) = dataset();
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 4);
        let cluster = ClusterConfig::cluster1(4);
        let report = train_ssp(
            &train,
            &test,
            dim,
            &spec,
            &cluster,
            &SspConfig::ssp(2, 1.0),
            &SketchMlCompressor::default(),
        )
        .unwrap();
        assert!(!report.epochs.is_empty());
        let last = report.epochs.last().unwrap().test_loss;
        assert!(last < (2f64).ln(), "loss {last} should beat the zero model");
        // Clock moves forward.
        for w in report.epochs.windows(2) {
            assert!(w[1].sim_seconds >= w[0].sim_seconds);
        }
    }

    #[test]
    fn ssp_beats_bsp_under_stragglers() {
        // With a 3x straggler and staleness 3, wall time to the same epoch
        // count must be lower than BSP's.
        let (train, test, dim) = dataset();
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 3);
        let cluster = ClusterConfig::cluster1(4);
        let run = |cfg: SspConfig| {
            train_ssp(
                &train,
                &test,
                dim,
                &spec,
                &cluster,
                &cfg,
                &RawCompressor::default(),
            )
            .unwrap()
            .total_sim_seconds()
        };
        let bsp = run(SspConfig::bsp(2.0));
        let ssp = run(SspConfig::ssp(3, 2.0));
        assert!(
            ssp < bsp,
            "SSP ({ssp}) should finish before BSP ({bsp}) under stragglers"
        );
    }

    #[test]
    fn staleness_bound_is_respected() {
        // Indirect check: with staleness 0 and homogeneous speeds, the run
        // must still complete and stay finite; with large staleness the
        // fast workers do not starve the slow one (total iterations fixed).
        let (train, test, dim) = dataset();
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
        let cluster = ClusterConfig::cluster1(3);
        for staleness in [0usize, 1, 8] {
            let report = train_ssp(
                &train,
                &test,
                dim,
                &spec,
                &cluster,
                &SspConfig::ssp(staleness, 1.5),
                &SketchMlCompressor::default(),
            )
            .unwrap();
            assert!(report.total_sim_seconds().is_finite());
            assert!(report.best_test_loss().is_finite());
        }
    }

    #[test]
    fn compression_still_pays_under_ssp() {
        let (train, test, dim) = dataset();
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
        let cluster = ClusterConfig::cluster1(4);
        let run = |c: &dyn GradientCompressor| {
            train_ssp(
                &train,
                &test,
                dim,
                &spec,
                &cluster,
                &SspConfig::ssp(2, 1.0),
                c,
            )
            .unwrap()
            .total_sim_seconds()
        };
        let sk = run(&SketchMlCompressor::default());
        let raw = run(&RawCompressor::default());
        assert!(sk < raw, "SketchML {sk} should beat raw {raw} under SSP");
    }
}
