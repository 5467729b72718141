//! The round engine: the one implementation of the paper's training protocol
//! (§4.1 — executors compute gradients, the driver aggregates, updates and
//! broadcasts) that every simulated run is built from.
//!
//! The engine is a handful of pieces, each written once:
//!
//! - `open_link` — the run preamble: validation and the [`FaultyLink`]
//!   every message rides;
//! - `crash_roster` — the crash schedule's verdict on who works this round
//!   and what restoring the rejoiners costs;
//! - `fan_out` — the one scoped-thread fan-out (a panicking worker is a
//!   typed error, never an abort);
//! - `slowest` — the straggler clock;
//! - `push` — one gradient through the link, with the receiver's integrity
//!   check;
//! - `run` — the barrier-synchronous round loop and its epoch bookkeeping,
//!   generic over a [`Model`] and an `Exchange`; its workers step through
//!   `process_rows`, and every round steps the run's one [`Replica`] along
//!   the shared [`Schedule`].
//!
//! A run ships exactly the compressor its caller passed: the plan never
//! picks the frame, and a receiver detects corruption only when that
//! compressor's frame carries a CRC (`sketchml@1c`). There is no fault-free
//! code path: a run without faults is a run under [`FaultPlan::none`],
//! whose link never drops, copies or decodes a payload — bit-identical to a
//! loop that never consulted a plan (`tests/round_engine.rs` pins this).
//!
//! There is one crash rule, the one the socket server follows too: `run`
//! asks `crash_roster` at the start of every round, a crashed worker sits
//! the round out and its slice of the batch is lost, and a worker whose
//! outage just ended restores from the restore point `run` writes at each
//! epoch end (only under a plan that schedules a crash). Every exchange
//! aggregates whoever delivered, and a round in which nothing arrived is
//! no round: no step, no training loss.
//!
//! `run` is generic over two things. A [`Model`] is what the workers
//! step: a GLM ([`sketchml_ml::GlmModel`]) or the §B.3 MLP
//! ([`sketchml_ml::Mlp`]). An `Exchange` holds only what differs between
//! the aggregations: how the workers' results become one step of the
//! run's [`Replica`] and what that costs on the simulated clock. Every
//! simulated run, GLM or MLP, goes through `run`, with one shuffle
//! ([`Schedule`]), one price rule per exchange and one round rule: the
//! driver star steps the replica through [`Replica::apply`], the call the
//! socket server and its workers make too, and the collective steps it
//! with its reduced gradient. The MLP rides the driver star
//! ([`crate::mlp_trainer`]).

use crate::allreduce::Collective;
use crate::config::ClusterConfig;
use crate::faults::{CrashPhase, FaultPlan, FaultyLink, Transmission};
use crate::replica::{Replica, Schedule};
use crate::trainer::{DriverStar, EpochStats, TrainOutcome, TrainReport, TrainSpec};
use crate::worker::{partition, process_rows, WorkerMessage, WorkerScratch};
use sketchml_core::{CompressError, GradientCompressor, MergePolicy, MergeableCompressor};
use sketchml_ml::metrics::{ConvergenceDetector, LossPoint};
use sketchml_ml::{BatchGradient, Checkpoint, GradScratch, Instance, OptimizerState};
use std::borrow::Cow;

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
    /// gradient to the driver, which decodes the round's gradients, steps
    /// the replica with their combination and forwards each worker its
    /// peers' frames.
    Driver(&'a dyn GradientCompressor),
    /// Peer-to-peer allreduce along `cluster.topology` over the round's up
    /// workers ([`crate::allreduce`]).
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
/// duplicated per the plan, crashed workers sit out and are restored, and
/// every retry and restore is charged to the simulated clock. The same plan
/// and data always produce the identical trace and final loss.
///
/// A resumed run replays the batch shuffles of the already-completed
/// epochs, so it walks exactly the batches the uninterrupted run would have
/// — resumption is bit-exact for lossless compressors.
///
/// # Errors
/// [`CompressError::InvalidConfig`] on an empty training set, an invalid
/// cluster configuration or plan, a checkpoint that does not fit `spec` and
/// `task.dim` ([`Replica::restore`]) or that already covers
/// `spec.max_epochs`, or a worker thread that panicked; propagates
/// compressor failures.
pub fn train_glm(
    task: &GlmTask<'_>,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    aggregation: Aggregation<'_>,
    faults: &FaultPlan,
    resume: Option<Checkpoint>,
) -> Result<TrainOutcome, CompressError> {
    let compressor: &dyn GradientCompressor = match &aggregation {
        Aggregation::Driver(compressor) => *compressor,
        Aggregation::Collective { compressor, .. } => compressor,
    };
    let link = open_link(task.train.len(), cluster, faults)?;
    let cx = Ctx {
        cluster,
        dim: task.dim,
        compressor,
    };
    let schedule = Schedule::new(task.train.len(), cluster.batch_ratio, spec.seed);
    let mut replica = Replica::fresh(task.dim, spec)?;
    if let Some(ck) = resume {
        if ck.epochs_done >= spec.max_epochs {
            return Err(CompressError::InvalidConfig(format!(
                "checkpoint already covers {} of {} epochs",
                ck.epochs_done, spec.max_epochs
            )));
        }
        let rounds = ck.epochs_done as u64 * schedule.rounds_per_epoch;
        replica.restore(ck, rounds)?;
    }
    let start = Start {
        replica,
        schedule,
        max_epochs: spec.max_epochs,
        stop_on_convergence: spec.stop_on_convergence,
    };
    let (train, test) = (task.train, task.test);
    match aggregation {
        Aggregation::Driver(_) => {
            let exchange = DriverStar::new(cx);
            run(train, test, start, cx, exchange, link)
        }
        Aggregation::Collective { policy, compressor } => {
            let exchange = Collective::new(cx, policy, compressor);
            run(train, test, start, cx, exchange, link)
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

/// What is fixed for a whole run, shared by the loop and its exchange.
#[derive(Clone, Copy)]
pub(crate) struct Ctx<'a> {
    pub(crate) cluster: &'a ClusterConfig,
    /// The gradient dimension: a GLM's features, an MLP's parameters.
    pub(crate) dim: usize,
    /// The compressor every message of the run goes through.
    pub(crate) compressor: &'a dyn GradientCompressor,
}

/// What the round loop and a [`Replica`] need of a model.
/// [`sketchml_ml::GlmModel`] and [`sketchml_ml::Mlp`] implement it.
pub trait Model: Sync {
    /// One training or test row.
    type Instance: Sync;

    /// The report's model label ("LR", "SVM", "Linear", "MLP").
    fn label(&self) -> &'static str;

    /// The gradient of `batch` — rows reached by reference — into `out`,
    /// its nonzero entries in ascending key order beside the batch's loss
    /// sum and instance count (runs on the worker's thread); `scratch` is
    /// the worker's pooled accumulator. Returns the cost model's compute
    /// units.
    fn gradient<'a>(
        &self,
        batch: impl Iterator<Item = &'a Self::Instance> + Clone,
        scratch: &mut GradScratch,
        out: &mut BatchGradient,
    ) -> u64
    where
        Self::Instance: 'a;

    /// One optimizer step with the round's aggregated gradient.
    fn apply(&mut self, opt: &mut OptimizerState, keys: &[u64], values: &[f64]);

    /// Mean loss over `test`.
    fn test_loss(&self, test: &[Self::Instance]) -> f64;

    /// Accuracy over `test`, where the task has one.
    fn accuracy(&self, test: &[Self::Instance]) -> Option<f64>;

    /// The bytes a rejoining worker restores.
    fn restore_point(&self, opt: &OptimizerState, epochs_done: usize) -> Vec<u8>;

    /// Proves that restore-point `bytes` load. A model whose restore point
    /// has no frame to check accepts them.
    fn check_restore_point(&self, _bytes: &[u8]) -> Result<(), CompressError> {
        Ok(())
    }

    /// The run's final state as a resumable checkpoint, where the model has
    /// one.
    fn checkpoint(self, opt: OptimizerState, epochs_done: usize) -> Option<Checkpoint>;
}

/// Where a run starts and how long it goes.
pub(crate) struct Start<M> {
    /// The state the run steps; a resumed one has its epochs' rounds.
    pub(crate) replica: Replica<M>,
    pub(crate) schedule: Schedule,
    pub(crate) max_epochs: usize,
    /// Stop once §4.4's convergence criterion holds.
    pub(crate) stop_on_convergence: bool,
}

/// The crash schedule's verdict for one round.
pub(crate) struct RoundPlan {
    /// Per worker slot: whether its process is down this round (its slice
    /// of the batch is lost).
    pub(crate) down: Vec<bool>,
    /// Simulated seconds spent restoring the round's rejoiners.
    pub(crate) stall_seconds: f64,
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
        down,
        stall_seconds,
    })
}

/// The restore point written at the end of epoch `epochs_done` — only when
/// `plan` schedules a crash: nobody can rejoin a benign or drop-only run.
fn restore_point_at<M: Model>(
    plan: &FaultPlan,
    replica: &Replica<M>,
    epochs_done: usize,
) -> Option<Vec<u8>> {
    (!plan.crashes.is_empty()).then(|| {
        replica
            .model()
            .restore_point(replica.optimizer(), epochs_done)
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
pub(crate) fn slowest(link: &FaultyLink, costs: impl Iterator<Item = (usize, f64)>) -> f64 {
    costs
        .map(|(slot, nominal)| nominal * link.compute_factor(slot))
        .fold(0.0f64, f64::max)
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
    /// The epoch's books; the exchange charges its bytes and seconds here.
    pub(crate) es: &'r mut EpochStats,
}

/// What differs between the aggregations: how the workers' messages become
/// one step of the run's [`Replica`] and what that costs on the simulated
/// clock. Who works the round is [`run`]'s call ([`crash_roster`]), and the
/// worker step itself is the same for every exchange ([`process_rows`]).
pub(crate) trait Exchange {
    /// Moves the parts (indexed by worker slot; `None` = down) through the
    /// link, reduces whatever arrives to one gradient and steps `replica`
    /// across the round with it, charging `round.es`. Returns the round's
    /// mean per-instance training loss over the delivered slices; `None`
    /// means nothing arrived, so the replica stepped without a gradient and
    /// no round took place (its time was still spent).
    fn step<M: Model>(
        &mut self,
        round: &mut Round<'_>,
        parts: Vec<Option<WorkerMessage>>,
        replica: &mut Replica<M>,
    ) -> Result<Option<f64>, CompressError>;
}

/// The barrier-synchronous round loop shared by every model and
/// aggregation: roster, partition, fan-out, straggler clock, exchange,
/// update, and the epoch bookkeeping that ends in a [`TrainOutcome`].
pub(crate) fn run<M: Model, E: Exchange>(
    train: &[M::Instance],
    test: &[M::Instance],
    start: Start<M>,
    cx: Ctx<'_>,
    mut exchange: E,
    mut link: FaultyLink,
) -> Result<TrainOutcome, CompressError> {
    let (mut replica, mut schedule) = (start.replica, start.schedule);
    let workers = cx.cluster.workers;
    let mut epochs_done = (replica.rounds() / schedule.rounds_per_epoch) as usize;
    let mut detector = ConvergenceDetector::default();
    let mut epochs = Vec::with_capacity(start.max_epochs);
    let mut curve = Vec::new();
    let mut converged_epoch = None;
    let mut clock = 0.0f64;
    let mut global_batch = 0u64;
    // What a rejoining worker restores: the last epoch end's restore point,
    // or the state as it stands for a crash inside the first epoch.
    let mut restore_point: Option<Vec<u8>> = None;
    // Pooled codec state, persistent across every batch of every epoch: one
    // scratch per worker slot (threads borrow disjoint slots).
    let mut worker_scratch: Vec<WorkerScratch> = Vec::new();
    worker_scratch.resize_with(workers, WorkerScratch::new);

    for epoch in epochs_done + 1..=start.max_epochs {
        let mut es = EpochStats {
            epoch,
            ..EpochStats::default()
        };
        let mut loss_accum = 0.0;
        let mut rounds_done = 0u64;
        for _ in 0..schedule.rounds_per_epoch {
            let batch = schedule.batch_for(replica.rounds());
            let plan = crash_roster(&mut link, global_batch, workers, &mut || {
                let bytes = match &restore_point {
                    Some(bytes) => Cow::Borrowed(&bytes[..]),
                    None => Cow::Owned(
                        replica
                            .model()
                            .restore_point(replica.optimizer(), epochs_done),
                    ),
                };
                // Prove the restore path end to end: the shipped bytes must
                // actually load.
                replica.model().check_restore_point(&bytes)?;
                Ok(bytes.len())
            })?;
            // Restores gate the whole group, like any comm cost.
            es.comm_seconds += plan.stall_seconds;

            let slices = partition(batch, workers);
            let jobs = slices
                .iter()
                .zip(worker_scratch.iter_mut())
                .zip(&plan.down)
                .map(|(job, &down)| (!down).then_some(job));
            let model = replica.model();
            let parts = fan_out(jobs, |(rows, ws)| {
                let batch = rows.iter().map(|&i| &train[i]);
                process_rows(model, cx.dim, batch, cx.compressor, &cx.cluster.cost, ws)
            })?;

            // Straggler factors are keyed by worker slot.
            let costs = (parts.iter().enumerate())
                .filter_map(|(slot, m)| m.as_ref().map(|m| (slot, m.sim_compute)));
            es.compute_seconds += slowest(&link, costs);

            let mut round = Round {
                link: &mut link,
                batch: global_batch,
                es: &mut es,
            };
            global_batch += 1;
            if let Some(batch_loss) = exchange.step(&mut round, parts, &mut replica)? {
                loss_accum += batch_loss;
                rounds_done += 1;
            }
        }
        es.sim_seconds = es.compute_seconds + es.comm_seconds + es.codec_seconds;
        es.train_loss = loss_accum / rounds_done.max(1) as f64;
        es.test_loss = replica.model().test_loss(test);
        clock += es.sim_seconds;
        curve.push(LossPoint {
            seconds: clock,
            epoch,
            loss: es.test_loss,
        });
        epochs_done = epoch;
        restore_point = restore_point_at(link.plan(), &replica, epoch);
        let converged = detector.push(es.test_loss);
        epochs.push(es);
        if converged && converged_epoch.is_none() {
            converged_epoch = Some(epoch);
            if start.stop_on_convergence {
                break;
            }
        }
    }

    let (model, opt) = replica.into_parts();
    let report = TrainReport {
        method: cx.compressor.name().to_string(),
        model: model.label().to_string(),
        workers: cx.cluster.workers,
        epochs,
        curve,
        converged_epoch,
        accuracy: model.accuracy(test),
    };
    Ok(TrainOutcome {
        report,
        trace: link.into_trace(),
        checkpoint: model.checkpoint(opt, epochs_done),
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

    /// Only a plan that schedules a crash can make a worker rejoin, so a
    /// benign or drop-only run serializes no restore point at its epoch
    /// ends.
    #[test]
    fn only_a_crash_plan_writes_a_restore_point() {
        let spec = crate::TrainSpec::paper(sketchml_ml::GlmLoss::Logistic, 0.05, 2);
        let state = Replica::fresh(64, &spec).unwrap();
        let (model, opt) = (state.model(), state.optimizer());
        assert_eq!(restore_point_at(&FaultPlan::none(), &state, 1), None);
        let drops = FaultPlan::seeded(3).with_drops(0.10);
        assert_eq!(restore_point_at(&drops, &state, 1), None);
        let crash = FaultPlan::seeded(3).with_crash(1, 4, 3);
        let written = restore_point_at(&crash, &state, 1);
        assert_eq!(written, Some(model.restore_point(opt, 1)));
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
        assert_eq!(link.downlink_penalty(0, &[4096; 2]), 0.0);
        assert!(link.into_trace().events.is_empty());
    }
}
