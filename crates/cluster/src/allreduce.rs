//! Collective (allreduce) variants of the distributed GLM training loop:
//! the same workers, batches and cost model as [`crate::train_distributed`],
//! but gradients are aggregated peer-to-peer along the configured
//! [`Topology`] instead of being funneled through the driver.
//!
//! The loss term is computed driver-style in-process (workers report their
//! loss sums alongside their payloads), so only the gradient rides the
//! collective. Under [`MergePolicy::Exact`] the aggregate equals the star
//! trainer's instance-weighted mean up to floating-point reassociation from
//! the hop order, so training trajectories match `train_distributed` to
//! ~1e-12 per round; [`MergePolicy::Resketch`] trades that exactness for
//! sketch-sized links.
//!
//! Timing model: hops that share a schedule step run on disjoint links for
//! ring and tree, so a step costs its slowest hop; every star hop crosses
//! the driver's NIC and is serialized, exactly like the star trainer. Merge
//! codec work is charged at the topology's critical path (serial at the
//! star driver, spread across all workers on the ring, across the live
//! subtree width on the tree).
//!
//! Elasticity (DESIGN.md §2.8): chaos runs carry an
//! [`ElasticMembership`](crate::membership) layer. Each round a heartbeat
//! detector suspects and eventually evicts unresponsive members, evicted
//! workers whose process is back pull a checkpoint and rejoin, and the hop
//! schedule is recomputed over the surviving member set — mergeable
//! sketches make the aggregate independent of the member count, so the
//! topology can be rebuilt mid-training without changing the math. A round
//! in which a scheduled member goes dark falls back to a degraded star
//! among the survivors; the next round runs the rebuilt topology. All of it
//! is seeded: the same plan replays the identical membership trace.

use crate::config::ClusterConfig;
use crate::faults::{FaultEvent, FaultPlan, FaultyLink};
use crate::membership::ElasticMembership;
use crate::obs;
use crate::trainer::{build_opt_state, EpochStats, TrainOutcome, TrainReport, TrainSpec};
use crate::worker::{partition, process_glm_batch, WorkerMessage, WorkerScratch};
use sketchml_collectives::{allreduce, Contribution, Hop, RemappedTransport, Topology, Transport};
use sketchml_core::{
    CompressError, CompressScratch, FrameVersion, GradientCompressor, MergeAcc, MergePolicy,
    MergeableCompressor,
};
use sketchml_data::Batcher;
use sketchml_ml::metrics::{ConvergenceDetector, LossPoint};
use sketchml_ml::{Checkpoint, GlmModel, Instance};

/// Drives collective hops through the simulated network: payload bytes are
/// converted to seconds by the cost model (per-step max for ring/tree whose
/// step hops ride disjoint links, serial for the star driver's NIC), and an
/// optional [`FaultyLink`] injects the fault plan — link index stands in
/// for the worker slot, a global hop counter for the batch, so traces stay
/// deterministic and bit-reproducible.
struct SimTransport<'a> {
    topology: Topology,
    cluster: &'a ClusterConfig,
    link: Option<FaultyLink>,
    compressor: &'a dyn MergeableCompressor,
    policy: MergePolicy,
    dim: u64,
    verify_acc: MergeAcc,
    verify_scratch: CompressScratch,
    hop_counter: u64,
    cur_step: Option<u64>,
    step_seconds: f64,
    total_seconds: f64,
}

impl<'a> SimTransport<'a> {
    fn new(
        cluster: &'a ClusterConfig,
        compressor: &'a dyn MergeableCompressor,
        policy: MergePolicy,
        dim: u64,
        link: Option<FaultyLink>,
    ) -> Self {
        SimTransport {
            topology: cluster.topology,
            cluster,
            link,
            compressor,
            policy,
            dim,
            verify_acc: MergeAcc::new(),
            verify_scratch: CompressScratch::default(),
            hop_counter: 0,
            cur_step: None,
            step_seconds: 0.0,
            total_seconds: 0.0,
        }
    }

    fn fold_step(&mut self, step: u64) {
        if self.cur_step != Some(step) {
            self.total_seconds += self.step_seconds;
            self.step_seconds = 0.0;
            self.cur_step = Some(step);
        }
    }

    /// Drains the simulated seconds accumulated since the last call.
    fn take_seconds(&mut self) -> f64 {
        let total = self.total_seconds + self.step_seconds;
        self.total_seconds = 0.0;
        self.step_seconds = 0.0;
        self.cur_step = None;
        total
    }

    fn compute_factor(&self, worker: usize) -> f64 {
        self.link.as_ref().map_or(1.0, |l| l.compute_factor(worker))
    }
}

impl Transport for SimTransport<'_> {
    fn transmit(&mut self, hop: Hop, payload: &[u8]) -> Option<Vec<u8>> {
        self.fold_step(hop.step);
        let (seconds, delivered) = match self.link.as_mut() {
            None => {
                let net = &self.cluster.cost.network;
                (net.transfer_time(payload.len()), Some(payload.to_vec()))
            }
            Some(l) => {
                // The star driver (node index == workers) has no fault slot;
                // its downlinks are identified by the receiving worker.
                let slot = if hop.from < self.cluster.workers {
                    hop.from
                } else {
                    hop.to
                };
                let comp = self.compressor;
                let policy = self.policy;
                let dim = self.dim;
                let acc = &mut self.verify_acc;
                let scratch = &mut self.verify_scratch;
                let tx = l.transmit(slot, self.hop_counter, payload, &mut |b| {
                    // The receiver's integrity check: the hop payload must
                    // merge cleanly at the declared dimension (v2-framed
                    // native payloads verify per-shard CRCs here; AGG
                    // frames are structurally validated, and Linear-policy
                    // CSK frames carry their own CRC32).
                    acc.reset(dim);
                    comp.accumulate_hop(acc, b, 1.0, policy, scratch).is_ok()
                });
                (tx.sim_seconds, tx.payload)
            }
        };
        self.hop_counter += 1;
        match self.topology {
            Topology::Star => self.step_seconds += seconds,
            Topology::Ring | Topology::Tree => {
                self.step_seconds = self.step_seconds.max(seconds);
            }
        }
        delivered
    }
}

/// How many merges the topology performs concurrently, for charging merge
/// codec time at the critical path rather than as a serial sum.
fn merge_width(topology: Topology, workers: usize) -> f64 {
    match topology {
        Topology::Star => 1.0,
        Topology::Ring => workers.max(1) as f64,
        Topology::Tree => {
            let steps = (workers.max(2) as f64).log2().ceil().max(1.0);
            (workers.saturating_sub(1) as f64 / steps).max(1.0)
        }
    }
}

/// [`crate::train_distributed`] with gradient aggregation over
/// `cluster.topology` under [`MergePolicy::Exact`]: hop payloads carry
/// full-precision partial sums, so the final loss matches the star trainer
/// on the same seed to ~1e-12 per round.
///
/// # Errors
/// [`CompressError::InvalidConfig`] on an empty training set or a cluster
/// config invalid for the topology; propagates compressor failures.
pub fn train_allreduce(
    train: &[Instance],
    test: &[Instance],
    dim: usize,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    compressor: &dyn MergeableCompressor,
) -> Result<TrainReport, CompressError> {
    run_allreduce(
        train,
        test,
        dim,
        spec,
        cluster,
        compressor,
        MergePolicy::Exact,
        None,
    )
    .map(|o| o.report)
}

/// [`train_allreduce`] with an explicit hop-payload policy
/// ([`MergePolicy::Resketch`] keeps every link sketch-compressed at the
/// cost of one conservative re-quantization per merge hop).
///
/// # Errors
/// As [`train_allreduce`].
pub fn train_allreduce_with_policy(
    train: &[Instance],
    test: &[Instance],
    dim: usize,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    compressor: &dyn MergeableCompressor,
    policy: MergePolicy,
) -> Result<TrainReport, CompressError> {
    run_allreduce(train, test, dim, spec, cluster, compressor, policy, None).map(|o| o.report)
}

/// [`train_allreduce`] under a deterministic fault plan applied to every
/// collective hop: per-link drops, corruption and duplication, with retry
/// and backoff charged to the simulated clock. A reduce hop lost for good
/// drops the sender's partial from the aggregate (the round continues); a
/// distribute hop lost costs time only. The same plan and data always
/// produce the identical trace and final loss.
///
/// Crash events engage the elastic membership layer: a heartbeat detector
/// (tuned by [`ClusterConfig::elastic`]) suspects and evicts workers that
/// stop acking, the hop schedule is rebuilt over the survivors, and a
/// worker whose outage window ends pulls a checkpoint and rejoins the
/// group — pull retries, backoff and the checkpoint transfer are charged
/// to the simulated clock. A round caught mid-failure degrades to a star
/// among the survivors; a permanent crash ([`FaultPlan::with_permanent_crash`])
/// shrinks the group for good. Every transition is recorded as a typed
/// [`FaultEvent`] in the trace, so the same plan and data replay the
/// identical membership history bit for bit.
///
/// # Errors
/// [`CompressError::InvalidConfig`] on an invalid plan; otherwise as
/// [`train_allreduce`].
pub fn train_allreduce_chaos(
    train: &[Instance],
    test: &[Instance],
    dim: usize,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    compressor: &dyn MergeableCompressor,
    faults: &FaultPlan,
) -> Result<TrainOutcome, CompressError> {
    run_allreduce(
        train,
        test,
        dim,
        spec,
        cluster,
        compressor,
        MergePolicy::Exact,
        Some(faults),
    )
}

#[allow(clippy::too_many_arguments)]
fn run_allreduce(
    train: &[Instance],
    test: &[Instance],
    dim: usize,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    compressor: &dyn MergeableCompressor,
    policy: MergePolicy,
    faults: Option<&FaultPlan>,
) -> Result<TrainOutcome, CompressError> {
    if train.is_empty() {
        return Err(CompressError::InvalidConfig(
            "training set must be non-empty".into(),
        ));
    }
    cluster.validate()?;
    let _recording = obs::scope_for(cluster);
    // Chaos runs with checksums ship native payloads in the CRC-carrying v2
    // frame, as the star trainer does. AGG hop frames carry no CRC; their
    // structural validation still rejects most corruption.
    let frame = if faults.is_some_and(|p| p.checksum) {
        FrameVersion::V2
    } else {
        FrameVersion::V1
    };
    let as_grad: &dyn GradientCompressor = &compressor;
    let wired = cluster.wire_compressor(as_grad, frame)?;
    let (worker_comp, merge_comp): (&dyn GradientCompressor, &dyn MergeableCompressor) =
        match &wired {
            Some(engine) => (engine, engine),
            None => (as_grad, compressor),
        };

    let mut model = GlmModel::new(dim, spec.loss, spec.l2)
        .map_err(|e| CompressError::InvalidConfig(e.to_string()))?;
    let mut opt = build_opt_state(spec, dim)?;
    obs::opt_state_bytes(opt.state_bytes() as u64);

    let mut batcher = Batcher::new(train.len(), cluster.batch_ratio, spec.seed);
    let mut detector = ConvergenceDetector::default();
    let link = match faults {
        Some(plan) => Some(FaultyLink::new(
            plan,
            cluster.cost.network,
            cluster.workers,
        )?),
        None => None,
    };
    let mut transport = SimTransport::new(cluster, merge_comp, policy, dim as u64, link);
    // Fault plans activate the elastic membership layer; fault-free runs
    // keep the static full group (the detector has nothing to detect).
    let mut elastic =
        faults.map(|plan| ElasticMembership::new(cluster.workers, cluster.elastic, plan.seed));
    let mut global_batch: u64 = 0;

    let mut epochs = Vec::with_capacity(spec.max_epochs);
    let mut curve = Vec::new();
    let mut converged_epoch = None;
    let mut clock = 0.0f64;
    let mut worker_scratch: Vec<WorkerScratch> =
        (0..cluster.workers).map(|_| WorkerScratch::new()).collect();

    for epoch in 1..=spec.max_epochs {
        let mut es = EpochStats {
            epoch,
            ..EpochStats::zeroed()
        };
        let batches = batcher.epoch();
        let mut loss_accum = 0.0;
        let mut rounds_done: u64 = 0;
        for batch in &batches {
            // Membership round first: heartbeats, evictions and joins all
            // settle before the shard assignment, so the partition below is
            // always re-chunked over the current member set.
            let (members, down) = match (elastic.as_mut(), transport.link.as_mut()) {
                (Some(ms), Some(link)) => {
                    let mut ckpt_len = || Checkpoint::encoded_len(&model, &opt);
                    let rp = ms.step(link, global_batch, &mut ckpt_len);
                    // Reconfiguration stalls (checkpoint pulls, retry
                    // backoff) gate the whole group, like any comm cost.
                    es.comm_seconds += rp.stall_seconds;
                    (rp.members, rp.down)
                }
                _ => (
                    (0..cluster.workers).collect::<Vec<_>>(),
                    vec![false; cluster.workers],
                ),
            };

            let parts = partition(batch, members.len());
            let computed: Vec<Option<WorkerMessage>> = crossbeam::thread::scope(|s| {
                let handles: Vec<_> = parts
                    .iter()
                    .zip(worker_scratch.iter_mut())
                    .zip(down.iter())
                    .map(|((part, ws), &is_down)| {
                        if is_down {
                            // A dark member's shard is lost this round —
                            // the data cost of detection latency.
                            return None;
                        }
                        let model = &model;
                        let cost = &cluster.cost;
                        Some(s.spawn(move |_| {
                            let slice: Vec<Instance> =
                                part.iter().map(|&i| train[i].clone()).collect();
                            process_glm_batch(model, &slice, worker_comp, cost, ws)
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

            let survivors: Vec<usize> = computed
                .iter()
                .zip(&members)
                .filter_map(|(m, &slot)| m.as_ref().map(|_| slot))
                .collect();
            if survivors.is_empty() {
                // Every scheduled member is dark: nothing to aggregate.
                global_batch += 1;
                continue;
            }
            let alive: Vec<&WorkerMessage> = computed.iter().flatten().collect();

            // Workers run in parallel: the slowest straggler-adjusted worker
            // gates the batch, exactly as in the star trainer. Straggler
            // factors are keyed by physical slot.
            let compute = alive
                .iter()
                .zip(&survivors)
                .map(|(m, &slot)| m.sim_compute * transport.compute_factor(slot))
                .fold(0.0f64, f64::max);
            if sketchml_telemetry::enabled() {
                let unskewed = alive.iter().map(|m| m.sim_compute).fold(0.0f64, f64::max);
                obs::straggler_wait(compute - unskewed);
            }
            let worker_codec = alive.iter().map(|m| m.sim_codec).fold(0.0f64, f64::max);

            // A member that went dark mid-round degrades this round to a
            // star over the survivors; the rebuilt ring/tree runs next
            // round, once the detector has caught up.
            let round_topology = if survivors.len() < members.len() {
                if let Some(link) = transport.link.as_mut() {
                    link.record_membership(FaultEvent::DegradedRound {
                        batch: global_batch,
                        survivors: survivors.len(),
                    });
                }
                Topology::Star
            } else {
                cluster.topology
            };
            transport.topology = round_topology;

            let total_instances: usize = alive.iter().map(|m| m.instances).sum();
            let loss_sum: f64 = alive.iter().map(|m| m.loss_sum).sum();
            let contribs: Vec<Contribution> = alive
                .iter()
                .map(|m| Contribution {
                    payload: &m.payload,
                    weight: m.instances as f64 / total_instances.max(1) as f64,
                })
                .collect();

            let wall = std::time::Instant::now();
            // Schedules are computed over logical ranks 0..k; the remap
            // pins them to surviving physical slots so fault injection and
            // straggler skew stay keyed to the worker they were planned for.
            let round = {
                let mut remapped =
                    RemappedTransport::new(&mut transport, &survivors, cluster.workers);
                allreduce(
                    round_topology,
                    policy,
                    merge_comp,
                    dim as u64,
                    &contribs,
                    &mut remapped,
                )?
            };
            let merge_wall = wall.elapsed().as_secs_f64();
            let comm = transport.take_seconds();

            model.apply_gradient(&mut opt, round.gradient.keys(), round.gradient.values());

            es.compute_seconds += compute;
            es.codec_seconds += worker_codec
                + cluster.cost.codec_time(round.codec_pairs as usize)
                    / merge_width(round_topology, survivors.len());
            es.comm_seconds += comm;
            es.uplink_bytes += round.reduce_bytes;
            es.downlink_bytes += round.distribute_bytes;
            es.pairs += alive.iter().map(|m| m.report.pairs as u64).sum::<u64>();
            es.raw_bytes += alive
                .iter()
                .map(|m| 12 * m.report.pairs as u64)
                .sum::<u64>();
            es.measured_codec_seconds += alive.iter().map(|m| m.measured_codec).sum::<f64>();
            es.measured_codec_seconds += merge_wall;
            loss_accum += loss_sum / total_instances.max(1) as f64;
            rounds_done += 1;
            global_batch += 1;
        }
        obs::rounds(rounds_done, es.uplink_bytes, es.downlink_bytes);
        es.sim_seconds = es.compute_seconds + es.comm_seconds + es.codec_seconds;
        es.train_loss = loss_accum / rounds_done.max(1) as f64;
        es.test_loss = model.mean_loss(test);
        clock += es.sim_seconds;
        curve.push(LossPoint {
            seconds: clock,
            epoch,
            loss: es.test_loss,
        });
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
    let epochs_done = epochs.len();
    let report = TrainReport {
        method: worker_comp.name().to_string(),
        model: spec.loss.name().to_string(),
        workers: cluster.workers,
        epochs,
        curve,
        converged_epoch,
        accuracy,
    };
    let trace = transport
        .link
        .take()
        .map(FaultyLink::into_trace)
        .unwrap_or_default();
    obs::trace_totals(&trace);
    let checkpoint = Some(Checkpoint::new(model, opt, epochs_done));
    Ok(TrainOutcome {
        report,
        trace,
        checkpoint,
    })
}
