//! The round engine: the one implementation of the paper's training protocol
//! (§4.1 — executors compute gradients, the driver aggregates, updates and
//! broadcasts) that every simulated run is built from.
//!
//! The engine is a handful of pieces, each written once:
//!
//! - [`open_link`] — the run preamble: validation and the [`FaultyLink`]
//!   every message rides;
//! - [`glm_state`] — model and optimizer, fresh or resumed from a checkpoint;
//! - [`crash_roster`] — the crash schedule's verdict on who works this round
//!   and what restoring the rejoiners costs;
//! - [`fan_out`] — the one scoped-thread fan-out (a panicking worker is a
//!   typed error, never an abort);
//! - [`slowest`] — the straggler clock;
//! - [`push`] — one gradient through the link, with the receiver's integrity
//!   check;
//! - [`run`] — the barrier-synchronous round loop and its epoch bookkeeping,
//!   generic over an [`Exchange`].
//!
//! A run ships exactly the compressor its caller passed: the plan never
//! picks the frame, and a receiver detects corruption only when that
//! compressor's frame carries a CRC (`sketchml@1c`). There is no fault-free
//! code path: a run without faults is a run under [`FaultPlan::none`],
//! whose link never drops, copies or decodes a payload — bit-identical to a
//! loop that never consulted a plan (`tests/round_engine.rs` pins this).
//!
//! An [`Exchange`] holds only what differs between the three GLM
//! aggregations: how the workers' results become one gradient and what that
//! costs on the simulated clock. SSP ([`crate::ssp`]) is an event scheduler
//! and the MLP loop ([`crate::mlp_trainer`]) has its own model and shuffle;
//! both are assembled from the same pieces rather than squeezed into
//! [`run`], which would have to branch on its caller.

use crate::allreduce::Collective;
use crate::config::ClusterConfig;
use crate::faults::{CrashPhase, FaultPlan, FaultyLink, Transmission};
use crate::membership::RoundPlan;
use crate::obs;
use crate::ps::ShardedServers;
use crate::trainer::{DriverStar, EpochStats, TrainOutcome, TrainReport, TrainSpec};
use crate::worker::{partition, WorkerScratch};
use sketchml_core::{
    CompressError, GradientCompressor, MergePolicy, MergeableCompressor, SparseGradient,
};
use sketchml_data::Batcher;
use sketchml_ml::metrics::{ConvergenceDetector, LossPoint};
use sketchml_ml::{Checkpoint, GlmModel, Instance, OptimizerState};
use sketchml_telemetry as telemetry;

/// A GLM training task: the data split and the model dimension.
#[derive(Debug, Clone, Copy)]
pub struct GlmTask<'a> {
    /// Training instances, partitioned over the workers batch by batch.
    pub train: &'a [Instance],
    /// Held-out instances scored after every epoch.
    pub test: &'a [Instance],
    /// Model dimension.
    pub dim: usize,
}

impl<'a> GlmTask<'a> {
    /// Bundles a data split with its model dimension.
    pub fn new(train: &'a [Instance], test: &'a [Instance], dim: usize) -> Self {
        GlmTask { train, test, dim }
    }
}

/// How a round's worker gradients become one aggregated gradient.
#[derive(Clone, Copy)]
pub enum Aggregation<'a> {
    /// The paper's driver star (§4.1): every worker pushes its compressed
    /// gradient to the driver, which decodes, averages and broadcasts.
    Driver(&'a dyn GradientCompressor),
    /// A parameter server range-sharded over `servers` nodes: one compressed
    /// message per worker per shard, ingested in parallel ([`crate::ps`]).
    ParameterServer {
        /// Number of server shards.
        servers: usize,
        /// Compressor applied to every shard message.
        compressor: &'a dyn GradientCompressor,
    },
    /// Peer-to-peer allreduce along `cluster.topology`, with elastic
    /// membership over the survivors ([`crate::allreduce`]).
    Collective {
        /// What a merge hop forwards (exact partial sums, re-sketched or
        /// linear payloads).
        policy: MergePolicy,
        /// Compressor whose payloads merge hop by hop.
        compressor: &'a dyn MergeableCompressor,
    },
}

/// Trains a GLM on the simulated cluster: one round engine, the chosen
/// [`Aggregation`], under a deterministic [`FaultPlan`] ([`FaultPlan::none`]
/// for a fault-free run), optionally resuming from a checkpoint.
///
/// Workers are real threads computing real gradients on their slice of each
/// mini-batch; message bytes are real compressed payloads; time is the
/// declared [`crate::CostModel`]. Messages are dropped, corrupted and
/// duplicated per the plan, crashed workers sit out and are restored (or, on
/// a collective, evicted and rejoined by the elastic membership layer), and
/// every retry and restore is charged to the simulated clock. The same plan
/// and data always produce the identical trace and final loss.
///
/// A resumed run replays the batch shuffles of the already-completed
/// epochs, so it walks exactly the batches the uninterrupted run would have
/// — resumption is bit-exact for lossless compressors.
///
/// # Errors
/// [`CompressError::InvalidConfig`] on an empty training set, an invalid
/// cluster configuration or plan, a checkpoint whose dimension does not
/// match `task.dim` or that already covers `spec.max_epochs`, or a worker
/// thread that panicked; propagates compressor failures.
pub fn train_glm(
    task: &GlmTask<'_>,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    aggregation: Aggregation<'_>,
    faults: &FaultPlan,
    resume: Option<Checkpoint>,
) -> Result<TrainOutcome, CompressError> {
    let compressor: &dyn GradientCompressor = match &aggregation {
        Aggregation::Driver(compressor) | Aggregation::ParameterServer { compressor, .. } => {
            *compressor
        }
        Aggregation::Collective { compressor, .. } => compressor,
    };
    let link = open_link(task.train.len(), cluster, faults)?;
    let cx = Ctx {
        cluster,
        dim: task.dim,
        compressor,
    };
    match aggregation {
        Aggregation::Driver(_) => {
            let exchange = DriverStar::new(cx, faults);
            run(task, spec, cx, exchange, link, resume)
        }
        Aggregation::ParameterServer { servers, .. } => {
            let exchange = ShardedServers::new(cx, servers);
            run(task, spec, cx, exchange, link, resume)
        }
        Aggregation::Collective { policy, compressor } => {
            let exchange = Collective::new(cx, policy, compressor, faults);
            run(task, spec, cx, exchange, link, resume)
        }
    }
}

/// What every run opens with: validates the inputs and builds the link from
/// the plan.
pub(crate) fn open_link(
    train_len: usize,
    cluster: &ClusterConfig,
    faults: &FaultPlan,
) -> Result<FaultyLink, CompressError> {
    if train_len == 0 {
        return Err(CompressError::InvalidConfig(
            "training set must be non-empty".into(),
        ));
    }
    cluster.validate()?;
    FaultyLink::new(faults, cluster.cost.network, cluster.workers)
}

/// What is fixed for a whole GLM run, shared by the loop and its exchange.
#[derive(Clone, Copy)]
pub(crate) struct Ctx<'a> {
    pub(crate) cluster: &'a ClusterConfig,
    pub(crate) dim: usize,
    /// The compressor every message of the run goes through.
    pub(crate) compressor: &'a dyn GradientCompressor,
}

/// Builds the GLM and its optimizer state, or takes both from `resume`;
/// returns them with the number of epochs already done.
pub(crate) fn glm_state(
    dim: usize,
    spec: &TrainSpec,
    resume: Option<Checkpoint>,
) -> Result<(GlmModel, OptimizerState, usize), CompressError> {
    let (model, opt, epochs_done) = match resume {
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
            obs::resumed();
            (ck.model, ck.optimizer, ck.epochs_done)
        }
        None => (
            GlmModel::new(dim, spec.loss, spec.l2)
                .map_err(|e| CompressError::InvalidConfig(e.to_string()))?,
            OptimizerState::build(spec.optimizer, spec.opt_state, dim)
                .map_err(|e| CompressError::InvalidConfig(e.to_string()))?,
            0,
        ),
    };
    obs::opt_state_bytes(opt.state_bytes() as u64);
    Ok((model, opt, epochs_done))
}

/// The crash schedule's verdict for round `batch` over a static group of
/// `workers`: crashed workers are flagged down, and each worker whose outage
/// just ended is restored from `restore_bytes()` bytes of state, charged to
/// the link's cost model.
pub(crate) fn crash_roster(
    link: &mut FaultyLink,
    batch: u64,
    workers: usize,
    restore_bytes: &mut dyn FnMut() -> Result<usize, CompressError>,
) -> Result<RoundPlan, CompressError> {
    let mut down = vec![false; workers];
    let mut stall_seconds = 0.0f64;
    for (w, down_w) in down.iter_mut().enumerate() {
        match link.crash_phase(w, batch) {
            CrashPhase::Up => {}
            CrashPhase::Down => *down_w = true,
            CrashPhase::Rejoin => {
                stall_seconds += link.charge_recovery(w, batch, restore_bytes()?);
            }
        }
    }
    Ok(RoundPlan {
        members: (0..workers).collect(),
        down,
        stall_seconds,
        changed: false,
    })
}

fn worker_panicked() -> CompressError {
    CompressError::InvalidConfig("worker thread panicked".into())
}

/// Runs `work` on one scoped thread per `Some` job and returns the results
/// in job order (`None` jobs — workers that are down — stay `None`). Every
/// thread is joined before the first failure is reported, so a panicking
/// worker closure (a user compressor, say) surfaces as a typed error.
pub(crate) fn fan_out<J: Send, T: Send>(
    jobs: impl IntoIterator<Item = Option<J>>,
    work: impl Fn(J) -> Result<T, CompressError> + Sync,
) -> Result<Vec<Option<T>>, CompressError> {
    let work = &work;
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| job.map(|j| s.spawn(move || work(j))))
            .collect();
        handles.into_iter().map(|h| h.map(|h| h.join())).collect()
    });
    joined
        .into_iter()
        .map(|joined| match joined {
            None => Ok(None),
            Some(Ok(done)) => done.map(Some),
            Some(Err(_)) => Err(worker_panicked()),
        })
        .collect()
}

/// The straggler clock: workers run in parallel, so the slowest
/// straggler-adjusted one gates the round. `costs` yields each working
/// worker's physical slot and nominal simulated compute seconds.
pub(crate) fn slowest(link: &FaultyLink, costs: impl Iterator<Item = (usize, f64)> + Clone) -> f64 {
    let compute = costs
        .clone()
        .map(|(slot, nominal)| nominal * link.compute_factor(slot))
        .fold(0.0f64, f64::max);
    if telemetry::enabled() {
        let unskewed = costs.map(|(_, nominal)| nominal).fold(0.0f64, f64::max);
        obs::straggler_wait(compute - unskewed);
    }
    compute
}

/// Pushes one compressed gradient from `worker` through the link. The
/// receiver's integrity check: the payload must decode (checksummed frames
/// verify their CRCs here) and announce the expected dimension.
pub(crate) fn push<'p>(
    link: &mut FaultyLink,
    worker: usize,
    batch: u64,
    payload: &'p [u8],
    compressor: &dyn GradientCompressor,
    dim: usize,
) -> Transmission<'p> {
    link.transmit(worker, batch, payload, &mut |received| {
        compressor
            .decompress(received)
            .map(|g| g.dim() == dim as u64)
            .unwrap_or(false)
    })
}

/// One round as an exchange sees it.
pub(crate) struct Round<'r> {
    /// The run's link; every message of the round goes through it.
    pub(crate) link: &'r mut FaultyLink,
    /// Global 0-based round index (the fault plan's batch clock).
    pub(crate) batch: u64,
    /// The state a rejoining worker would restore.
    pub(crate) model: &'r GlmModel,
    pub(crate) opt: &'r OptimizerState,
    pub(crate) epochs_done: usize,
    /// The epoch's books; the exchange charges its bytes and seconds here.
    pub(crate) es: &'r mut EpochStats,
}

/// One round's aggregated result.
pub(crate) struct Aggregate {
    /// The gradient to apply; `None` when nothing arrived (the round's time
    /// was still spent).
    pub(crate) gradient: Option<SparseGradient>,
    /// Mean per-instance training loss over the batch.
    pub(crate) batch_loss: f64,
}

/// What differs between the GLM aggregations: how worker results become one
/// aggregated gradient and what that costs on the simulated clock.
pub(crate) trait Exchange: Sync {
    /// What one worker thread hands back for its slice of the batch.
    type Part: Send;

    /// The report's method label.
    fn method(&self) -> String;

    /// Settles who takes part in the round — crashed workers sit out,
    /// rejoiners restore state, an elastic group evicts and re-admits —
    /// before the batch is partitioned over the members.
    fn roster(&mut self, round: &mut Round<'_>) -> Result<RoundPlan, CompressError>;

    /// One worker's share of the round — the `rows` of `train` — with its
    /// nominal simulated compute seconds for the straggler clock (runs on
    /// that worker's thread).
    fn work(
        &self,
        model: &GlmModel,
        train: &[Instance],
        rows: &[usize],
        ws: &mut WorkerScratch,
    ) -> Result<(Self::Part, f64), CompressError>;

    /// Moves the parts (in `members` order; `None` = down) through the link
    /// and reduces them to one gradient, charging `round.es`. `None` means
    /// no member was up, so no round took place.
    fn aggregate(
        &mut self,
        round: &mut Round<'_>,
        members: &[usize],
        parts: Vec<Option<Self::Part>>,
    ) -> Result<Option<Aggregate>, CompressError>;

    /// Called after each epoch's evaluation.
    fn end_epoch(&mut self, _model: &GlmModel, _opt: &OptimizerState, _epoch: usize) {}
}

/// The barrier-synchronous round loop shared by every GLM aggregation:
/// roster, partition, fan-out, straggler clock, exchange, update, and the
/// epoch bookkeeping that ends in a [`TrainOutcome`].
pub(crate) fn run<E: Exchange>(
    task: &GlmTask<'_>,
    spec: &TrainSpec,
    cx: Ctx<'_>,
    mut exchange: E,
    mut link: FaultyLink,
    resume: Option<Checkpoint>,
) -> Result<TrainOutcome, CompressError> {
    let (mut model, mut opt, mut epochs_done) = glm_state(task.dim, spec, resume)?;
    let mut batcher = Batcher::new(task.train.len(), cx.cluster.batch_ratio, spec.seed);
    // Replay the shuffles of completed epochs so the resumed run sees
    // exactly the batches the uninterrupted run would.
    for _ in 0..epochs_done {
        let _ = batcher.epoch();
    }
    let mut detector = ConvergenceDetector::default();
    let mut epochs = Vec::with_capacity(spec.max_epochs);
    let mut curve = Vec::new();
    let mut converged_epoch = None;
    let mut clock = 0.0f64;
    let mut global_batch = 0u64;
    // Pooled codec state, persistent across every batch of every epoch: one
    // scratch per worker slot (threads borrow disjoint slots).
    let mut worker_scratch: Vec<WorkerScratch> = Vec::new();
    worker_scratch.resize_with(cx.cluster.workers, WorkerScratch::new);

    for epoch in epochs_done + 1..=spec.max_epochs {
        let mut es = EpochStats {
            epoch,
            ..EpochStats::default()
        };
        let mut loss_accum = 0.0;
        let mut rounds_done = 0u64;
        for batch in &batcher.epoch() {
            let mut round = Round {
                link: &mut link,
                batch: global_batch,
                model: &model,
                opt: &opt,
                epochs_done,
                es: &mut es,
            };
            global_batch += 1;
            let plan = exchange.roster(&mut round)?;
            // Restores and reconfiguration stalls gate the whole group,
            // like any comm cost.
            round.es.comm_seconds += plan.stall_seconds;

            let slices = partition(batch, plan.members.len());
            let jobs = slices
                .iter()
                .zip(worker_scratch.iter_mut())
                .zip(&plan.down)
                .map(|(job, &down)| (!down).then_some(job));
            let done = fan_out(jobs, |(rows, ws)| {
                exchange.work(&model, task.train, rows, ws)
            })?;

            // Straggler factors are keyed by physical slot.
            let costs = done
                .iter()
                .zip(&plan.members)
                .filter_map(|(d, &slot)| d.as_ref().map(|(_, nominal)| (slot, *nominal)));
            round.es.compute_seconds += slowest(round.link, costs);

            let parts = done.into_iter().map(|d| d.map(|(part, _)| part)).collect();
            let Some(aggregate) = exchange.aggregate(&mut round, &plan.members, parts)? else {
                continue;
            };
            if let Some(g) = &aggregate.gradient {
                model.apply_gradient(&mut opt, g.keys(), g.values());
            }
            loss_accum += aggregate.batch_loss;
            rounds_done += 1;
        }
        obs::rounds(rounds_done, es.uplink_bytes, es.downlink_bytes);
        es.sim_seconds = es.compute_seconds + es.comm_seconds + es.codec_seconds;
        es.train_loss = loss_accum / rounds_done.max(1) as f64;
        es.test_loss = model.mean_loss(task.test);
        clock += es.sim_seconds;
        curve.push(LossPoint {
            seconds: clock,
            epoch,
            loss: es.test_loss,
        });
        epochs_done = epoch;
        exchange.end_epoch(&model, &opt, epoch);
        let converged = detector.push(es.test_loss);
        epochs.push(es);
        if converged && converged_epoch.is_none() {
            converged_epoch = Some(epoch);
            if spec.stop_on_convergence {
                break;
            }
        }
    }

    let report = TrainReport {
        method: exchange.method(),
        model: spec.loss.name().to_string(),
        workers: cx.cluster.workers,
        epochs,
        curve,
        converged_epoch,
        accuracy: model.accuracy(task.test),
    };
    let trace = link.into_trace();
    obs::trace_totals(&trace);
    Ok(TrainOutcome {
        report,
        trace,
        checkpoint: Some(Checkpoint::new(model, opt, epochs_done)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkModel;

    #[test]
    fn fan_out_keeps_job_order_and_skips_down_workers() {
        let jobs = vec![Some(1u32), None, Some(3)];
        let out = fan_out(jobs, |j| Ok(j * 10)).unwrap();
        assert_eq!(out, vec![Some(10), None, Some(30)]);
    }

    #[test]
    fn fan_out_turns_a_panicking_worker_into_a_typed_error() {
        // Every worker panics: all threads are joined before the error is
        // returned, so no panic escapes the scope.
        let err = fan_out(
            (0..3).map(Some),
            |w: usize| -> Result<usize, CompressError> { panic!("worker {w} blew up") },
        )
        .unwrap_err();
        assert!(matches!(err, CompressError::InvalidConfig(_)), "{err:?}");
        // A worker's own error wins over a later worker's panic, in order.
        let err = fan_out(
            (0..2).map(Some),
            |w: usize| -> Result<usize, CompressError> {
                if w == 0 {
                    Err(CompressError::Corrupt("first".into()))
                } else {
                    panic!("second")
                }
            },
        )
        .unwrap_err();
        assert!(matches!(err, CompressError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn crash_roster_flags_down_workers_and_charges_rejoiners() {
        let plan = FaultPlan::seeded(0).with_crash(1, 2, 2);
        let mut link = FaultyLink::new(&plan, NetworkModel::cluster1(), 3).unwrap();
        let mut restores = 0;
        let mut bytes = || {
            restores += 1;
            Ok(1024)
        };
        let up = crash_roster(&mut link, 1, 3, &mut bytes).unwrap();
        assert_eq!(up.members, vec![0, 1, 2]);
        assert_eq!(up.down, vec![false; 3]);
        assert_eq!(up.stall_seconds, 0.0);
        let down = crash_roster(&mut link, 2, 3, &mut bytes).unwrap();
        assert_eq!(down.down, vec![false, true, false]);
        crash_roster(&mut link, 3, 3, &mut bytes).unwrap();
        let back = crash_roster(&mut link, 4, 3, &mut bytes).unwrap();
        assert_eq!(back.down, vec![false; 3]);
        assert_eq!(
            back.stall_seconds,
            NetworkModel::cluster1().transfer_time(1024)
        );
        assert_eq!(restores, 1, "state is sized only when someone rejoins");
        assert_eq!(link.trace().recoveries, 1);
    }

    #[test]
    fn the_benign_link_neither_copies_nor_decodes() {
        let mut link = FaultyLink::new(&FaultPlan::none(), NetworkModel::cluster1(), 2).unwrap();
        let payload = [7u8; 64];
        let tx = link.transmit(0, 0, &payload, &mut |_| {
            panic!("a benign plan must not run the receiver's check")
        });
        match tx.payload {
            Some(std::borrow::Cow::Borrowed(seen)) => {
                assert!(std::ptr::eq(seen.as_ptr(), payload.as_ptr()))
            }
            other => panic!("expected the sender's own bytes, got {other:?}"),
        }
        assert_eq!(tx.bytes_on_wire, 64);
        assert_eq!(
            tx.sim_seconds,
            NetworkModel::cluster1().transfer_time(64),
            "one clean transfer, no backoff"
        );
        assert_eq!(link.broadcast_penalty(0, 4096), 0.0);
        assert!(link.into_trace().events.is_empty());
    }
}
