//! Collective (allreduce) aggregation for the round engine: the same
//! workers, batches and cost model as [`crate::train_distributed`], but
//! gradients are aggregated peer-to-peer along the configured [`Topology`]
//! instead of being funneled through the driver.
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
//! Crashes follow the engine's one rule ([`crate::engine`]): a crashed
//! worker sits the round out, and the topology runs over the workers that
//! are up, its logical ranks pinned to their physical slots by a
//! [`RemappedTransport`]. Mergeable sketches make the aggregate independent
//! of the member count, so a smaller group computes the same math.

use crate::config::ClusterConfig;
use crate::engine::{train_glm, Aggregation, Ctx, Exchange, GlmTask, Model, Round};
use crate::faults::{FaultPlan, FaultyLink};
use crate::replica::Replica;
use crate::trainer::{TrainReport, TrainSpec};
use crate::worker::WorkerMessage;
use sketchml_collectives::{allreduce, Contribution, Hop, RemappedTransport, Topology, Transport};
use sketchml_core::{CompressError, CompressScratch, MergeAcc, MergePolicy, MergeableCompressor};
use sketchml_ml::Instance;

/// The receiver-side state hops share across rounds: a global hop counter
/// standing in for the fault plan's batch clock (so traces stay
/// deterministic and bit-reproducible) and the pooled buffers of the
/// integrity check.
#[derive(Default)]
struct HopState {
    counter: u64,
    verify_acc: MergeAcc,
    verify_scratch: CompressScratch,
}

/// Drives one round's collective hops through the simulated network:
/// payload bytes are converted to seconds by the link's cost model (per-step
/// max for ring/tree whose step hops ride disjoint links, serial for the
/// star driver's NIC), and the [`FaultyLink`] injects the fault plan — link
/// index stands in for the worker slot.
struct SimTransport<'r> {
    topology: Topology,
    workers: usize,
    link: &'r mut FaultyLink,
    hops: &'r mut HopState,
    compressor: &'r dyn MergeableCompressor,
    policy: MergePolicy,
    dim: u64,
    cur_step: Option<u64>,
    step_seconds: f64,
    total_seconds: f64,
}

impl SimTransport<'_> {
    /// The simulated seconds the round's hops took.
    fn into_seconds(self) -> f64 {
        self.total_seconds + self.step_seconds
    }
}

impl Transport for SimTransport<'_> {
    fn transmit(&mut self, hop: Hop, payload: &[u8]) -> Option<Vec<u8>> {
        if self.cur_step != Some(hop.step) {
            self.total_seconds += self.step_seconds;
            self.step_seconds = 0.0;
            self.cur_step = Some(hop.step);
        }
        // The star driver (node index == workers) has no fault slot; its
        // downlinks are identified by the receiving worker.
        let slot = if hop.from < self.workers {
            hop.from
        } else {
            hop.to
        };
        let (comp, policy, dim) = (self.compressor, self.policy, self.dim);
        let HopState {
            counter,
            verify_acc: acc,
            verify_scratch: scratch,
        } = &mut *self.hops;
        let tx = self.link.transmit(slot, *counter, payload, &mut |b| {
            // The receiver's integrity check: the hop payload must merge
            // cleanly at the declared dimension (v2-framed native payloads
            // verify per-shard CRCs here; AGG frames are structurally
            // validated, and Linear-policy CSK frames carry their own
            // CRC32).
            acc.reset(dim);
            comp.accumulate_hop(acc, b, 1.0, policy, scratch).is_ok()
        });
        *counter += 1;
        match self.topology {
            Topology::Star => self.step_seconds += tx.sim_seconds,
            Topology::Ring | Topology::Tree => {
                self.step_seconds = self.step_seconds.max(tx.sim_seconds);
            }
        }
        tx.payload.map(std::borrow::Cow::into_owned)
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
/// As [`train_allreduce_with_policy`].
pub fn train_allreduce(
    train: &[Instance],
    test: &[Instance],
    dim: usize,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    compressor: &dyn MergeableCompressor,
) -> Result<TrainReport, CompressError> {
    train_allreduce_with_policy(
        train,
        test,
        dim,
        spec,
        cluster,
        compressor,
        MergePolicy::Exact,
    )
}

/// [`train_allreduce`] with an explicit hop-payload policy
/// ([`MergePolicy::Resketch`] keeps every link sketch-compressed at the
/// cost of one conservative re-quantization per merge hop), fault-free:
/// [`train_glm`] with [`Aggregation::Collective`] under [`FaultPlan::none`].
///
/// # Errors
/// As [`train_glm`]; a cluster with too few workers for the topology is an
/// invalid configuration.
pub fn train_allreduce_with_policy(
    train: &[Instance],
    test: &[Instance],
    dim: usize,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    compressor: &dyn MergeableCompressor,
    policy: MergePolicy,
) -> Result<TrainReport, CompressError> {
    let task = GlmTask::new(train, test, dim);
    let collective = Aggregation::Collective { policy, compressor };
    train_glm(&task, spec, cluster, collective, &FaultPlan::none(), None).map(|o| o.report)
}

/// Allreduce along `cluster.topology` as an [`Exchange`]. The fault plan
/// applies to every collective hop: per-link drops, corruption and
/// duplication, with retry and backoff charged to the simulated clock. A
/// reduce hop lost for good drops the sender's partial from the aggregate
/// (the round continues); a distribute hop lost costs time only. A crashed
/// worker sits the round out, and the topology runs over the others.
pub(crate) struct Collective<'a> {
    cx: Ctx<'a>,
    policy: MergePolicy,
    /// What merges hop payloads: the caller's compressor (AGG hop frames
    /// carry no CRC; their structural validation still rejects most
    /// corruption).
    merges: &'a dyn MergeableCompressor,
    hops: HopState,
}

impl<'a> Collective<'a> {
    pub(crate) fn new(
        cx: Ctx<'a>,
        policy: MergePolicy,
        merges: &'a dyn MergeableCompressor,
    ) -> Self {
        Collective {
            cx,
            policy,
            merges,
            hops: HopState::default(),
        }
    }
}

impl Exchange for Collective<'_> {
    fn step<M: Model>(
        &mut self,
        round: &mut Round<'_>,
        parts: Vec<Option<WorkerMessage>>,
        replica: &mut Replica<M>,
    ) -> Result<Option<f64>, CompressError> {
        let (cluster, dim) = (self.cx.cluster, self.cx.dim as u64);
        let (link, es) = (&mut *round.link, &mut *round.es);
        // The physical slots of the workers that are up; a crashed one's
        // slice is lost this round.
        let up: Vec<usize> = (parts.iter().enumerate())
            .filter_map(|(slot, m)| m.as_ref().map(|_| slot))
            .collect();
        if up.is_empty() {
            replica.step(None);
            return Ok(None);
        }
        let alive: Vec<&WorkerMessage> = parts.iter().flatten().collect();
        let worker_codec = alive.iter().map(|m| m.sim_codec).fold(0.0f64, f64::max);
        let topology = cluster.topology;

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
        let mut transport = SimTransport {
            topology,
            workers: cluster.workers,
            link,
            hops: &mut self.hops,
            compressor: self.merges,
            policy: self.policy,
            dim,
            cur_step: None,
            step_seconds: 0.0,
            total_seconds: 0.0,
        };
        // Schedules are computed over logical ranks 0..k; the remap pins
        // them to the up workers' physical slots so fault injection and
        // straggler skew stay keyed to the worker they were planned for.
        let reduced = allreduce(
            topology,
            self.policy,
            self.merges,
            dim,
            &contribs,
            &mut RemappedTransport::new(&mut transport, &up, cluster.workers),
        )?;
        let merge_wall = wall.elapsed().as_secs_f64();

        es.codec_seconds += worker_codec
            + cluster.cost.codec_time(reduced.codec_pairs as usize)
                / merge_width(topology, up.len());
        es.comm_seconds += transport.into_seconds();
        es.uplink_bytes += reduced.reduce_bytes;
        es.downlink_bytes += reduced.distribute_bytes;
        es.pairs += alive.iter().map(|m| m.report.pairs as u64).sum::<u64>();
        es.raw_bytes += alive
            .iter()
            .map(|m| 12 * m.report.pairs as u64)
            .sum::<u64>();
        es.measured_codec_seconds += alive.iter().map(|m| m.measured_codec).sum::<f64>();
        es.measured_codec_seconds += merge_wall;
        replica.step(Some(&reduced.gradient));
        Ok(Some(loss_sum / total_instances.max(1) as f64))
    }
}
