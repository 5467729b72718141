//! Parameter-server topology (the paper's industrial context: SketchML
//! ships inside Tencent's Angel parameter server [22, 24]; the §4
//! prototype uses Spark's driver aggregation instead).
//!
//! The model is **range-sharded** across `S` servers; each worker pushes
//! its gradient *split by shard* (one compressed message per server) and
//! the servers apply the optimizer to their shard independently. Compared
//! with driver aggregation:
//!
//! - there is no single-NIC bottleneck — uplink lands on `S` servers in
//!   parallel, so the slowest *server* gates each round;
//! - there is no broadcast — workers pull only the shards they need (we
//!   model a full pull, the worst case);
//! - each message is ~`1/S` of a worker's gradient, which stresses exactly
//!   the fixed-overhead regime SketchML's adaptive bucket cap addresses.
//!
//! The `ext_parameter_server` experiment compares the two topologies under
//! identical compressors and cost models.

use crate::config::ClusterConfig;
use crate::engine::{
    crash_roster, push, train_glm, Aggregate, Aggregation, Ctx, Exchange, GlmTask, Round,
};
use crate::faults::FaultPlan;
use crate::membership::RoundPlan;
use crate::trainer::{TrainReport, TrainSpec};
use crate::worker::WorkerScratch;
use bytes::BytesMut;
use serde::{Deserialize, Serialize};
use sketchml_core::{CompressError, CompressScratch, GradientCompressor, SparseGradient};
use sketchml_ml::{GlmModel, Instance};

/// How model dimensions map onto servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardStrategy {
    /// Contiguous key ranges. Simple, but power-law feature popularity
    /// concentrates the hot head keys on shard 0 — the classic hot-shard
    /// problem (measurable via [`ShardMap::split`] imbalance).
    Range,
    /// Hash-based placement (the balance fix every production parameter
    /// server applies to skewed feature spaces). Keys on a shard are no
    /// longer contiguous, so per-shard delta gaps grow ~S× — delta-binary
    /// absorbs this with at most one extra byte flag step.
    Hash,
}

/// Sharding of a `dim`-dimensional model across `servers` shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    dim: u64,
    servers: usize,
    strategy: ShardStrategy,
}

impl ShardMap {
    /// Creates a hash-sharded map (the default strategy); `servers` is
    /// clamped to at least 1.
    pub fn new(dim: u64, servers: usize) -> Self {
        Self::with_strategy(dim, servers, ShardStrategy::Hash)
    }

    /// Creates a map with an explicit strategy.
    pub fn with_strategy(dim: u64, servers: usize, strategy: ShardStrategy) -> Self {
        ShardMap {
            dim,
            servers: servers.max(1),
            strategy,
        }
    }

    /// Number of servers `S`.
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Shard owning dimension `key`.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        debug_assert!(key < self.dim);
        match self.strategy {
            ShardStrategy::Range => {
                let width = self.dim.div_ceil(self.servers as u64).max(1);
                ((key / width) as usize).min(self.servers - 1)
            }
            ShardStrategy::Hash => {
                (sketchml_sketches::hash::mix64(key) % self.servers as u64) as usize
            }
        }
    }

    /// Splits a gradient into per-shard gradients (keys stay global).
    ///
    /// # Errors
    /// [`CompressError::InvalidGradient`] if a per-shard slice violates the
    /// [`SparseGradient`] invariants — only reachable with a malformed input
    /// gradient (e.g. keys out of the declared dimension), which a live
    /// server must surface as a typed error rather than a panic.
    pub fn split(&self, grad: &SparseGradient) -> Result<Vec<SparseGradient>, CompressError> {
        let mut keys: Vec<Vec<u64>> = vec![Vec::new(); self.servers];
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); self.servers];
        for (k, v) in grad.iter() {
            let s = self.shard_of(k);
            keys[s].push(k);
            values[s].push(v);
        }
        keys.into_iter()
            .zip(values)
            .map(|(k, v)| {
                SparseGradient::new(grad.dim(), k, v)
                    .map_err(|e| CompressError::InvalidGradient(format!("shard split: {e}")))
            })
            .collect()
    }
}

/// Runs the distributed GLM training loop over a parameter-server topology,
/// fault-free: [`train_glm`] with [`Aggregation::ParameterServer`] under
/// [`FaultPlan::none`].
///
/// Identical math to [`crate::trainer::train_distributed`] (same batches,
/// same optimizer applied to the same aggregated gradient), different
/// communication pattern and therefore different simulated time.
///
/// # Errors
/// As [`train_glm`].
pub fn train_parameter_server(
    train: &[Instance],
    test: &[Instance],
    dim: usize,
    spec: &TrainSpec,
    cluster: &ClusterConfig,
    servers: usize,
    compressor: &dyn GradientCompressor,
) -> Result<TrainReport, CompressError> {
    let task = GlmTask::new(train, test, dim);
    let sharded = Aggregation::ParameterServer {
        servers,
        compressor,
    };
    train_glm(&task, spec, cluster, sharded, &FaultPlan::none(), None).map(|o| o.report)
}

/// A worker's push: one compressed message per non-empty shard of its
/// gradient, encoded on the worker's own thread.
pub(crate) struct ShardPush {
    /// `(server, payload, pairs)` in server order.
    messages: Vec<(usize, Vec<u8>, u64)>,
    loss_sum: f64,
    instances: usize,
}

/// The sharded parameter server as an [`Exchange`]: every worker→server
/// shard push rides the link (the many small messages make per-message drop
/// probabilities bite hardest here), crashed workers sit out whole batches
/// and rejoin with a charged re-pull of the model shards, and rejected pull
/// copies cost re-transfers.
pub(crate) struct ShardedServers<'a> {
    cx: Ctx<'a>,
    shards: ShardMap,
    // Pooled codec state, reused across every push/pull of every batch (the
    // push/pull loops run serially at the simulated servers).
    scratch: CompressScratch,
    wire: BytesMut,
}

impl<'a> ShardedServers<'a> {
    pub(crate) fn new(cx: Ctx<'a>, servers: usize) -> Self {
        ShardedServers {
            cx,
            shards: ShardMap::new(cx.dim as u64, servers),
            scratch: CompressScratch::new(),
            wire: BytesMut::new(),
        }
    }
}

impl Exchange for ShardedServers<'_> {
    type Part = ShardPush;

    fn method(&self) -> String {
        let servers = self.shards.servers();
        format!("{} (PS x{servers})", self.cx.compressor.name())
    }

    fn roster(&mut self, round: &mut Round<'_>) -> Result<RoundPlan, CompressError> {
        // Rejoining workers re-pull the model shards (8 bytes/weight).
        let (workers, restore) = (self.cx.cluster.workers, 8 * self.cx.dim);
        crash_roster(round.link, round.batch, workers, &mut || Ok(restore))
    }

    fn work(
        &self,
        model: &GlmModel,
        train: &[Instance],
        rows: &[usize],
        ws: &mut WorkerScratch,
    ) -> Result<(ShardPush, f64), CompressError> {
        let g = ws.gradient(model, rows.iter().map(|&i| &train[i]))?;
        let mut messages = Vec::with_capacity(self.shards.servers());
        for (s, shard_grad) in self.shards.split(g.sparse)?.iter().enumerate() {
            if shard_grad.is_empty() {
                continue;
            }
            let report = self
                .cx
                .compressor
                .compress_into(shard_grad, g.scratch, g.out)?;
            messages.push((s, g.out[..].to_vec(), report.pairs as u64));
        }
        let push = ShardPush {
            messages,
            loss_sum: g.loss_sum,
            instances: g.instances,
        };
        Ok((push, self.cx.cluster.cost.compute_time(g.feature_ops)))
    }

    fn aggregate(
        &mut self,
        round: &mut Round<'_>,
        _members: &[usize],
        parts: Vec<Option<ShardPush>>,
    ) -> Result<Option<Aggregate>, CompressError> {
        let Ctx {
            cluster,
            dim,
            compressor,
        } = self.cx;
        let (link, batch, es) = (&mut *round.link, round.batch, &mut *round.es);
        let cost = &cluster.cost;
        let workers = cluster.workers;

        let total_instances: usize = parts.iter().flatten().map(|p| p.instances).sum();

        // Push: each worker sends one compressed message per shard; the S
        // servers ingest in parallel, each serially over its W senders.
        let mut per_server_time = vec![0.0f64; self.shards.servers()];
        let mut shard_parts: Vec<Vec<SparseGradient>> = vec![Vec::new(); self.shards.servers()];
        let mut pairs_this_batch = 0u64;
        for (w, part) in parts.iter().enumerate() {
            let Some(part) = part else { continue };
            for &(s, ref sent, pairs) in &part.messages {
                es.pairs += pairs;
                es.raw_bytes += 12 * pairs;
                pairs_this_batch += pairs;
                let tx = push(link, w, batch, sent, compressor, dim);
                per_server_time[s] += tx.sim_seconds;
                es.uplink_bytes += tx.bytes_on_wire;
                // A lost shard message drops out; the server aggregates the
                // survivors.
                let Some(payload) = tx.payload else { continue };
                let mut g = SparseGradient::empty(0);
                compressor.decompress_into(&payload, &mut self.scratch, &mut g)?;
                if total_instances > 0 {
                    g.scale(part.instances as f64 / total_instances as f64);
                }
                shard_parts[s].push(g);
            }
        }
        es.comm_seconds += per_server_time.iter().copied().fold(0.0, f64::max);
        es.codec_seconds += cost.codec_time(pairs_this_batch as usize * 2);

        // Servers aggregate + update their shard; the engine applies through
        // the single optimizer for mathematical identity with the driver
        // topology (range-sharded state would behave identically).
        let all_parts: Vec<SparseGradient> = shard_parts.into_iter().flatten().collect();
        let aggregated = if all_parts.is_empty() {
            SparseGradient::empty(dim as u64)
        } else {
            SparseGradient::aggregate(&all_parts)?
        };
        let loss_sum: f64 = parts.iter().flatten().map(|p| p.loss_sum).sum();

        // Pull: each worker fetches the updated shards (compressed); the S
        // servers serve their slice to W workers in parallel.
        let mut pull_time = vec![0.0f64; self.shards.servers()];
        for (s, shard_grad) in self.shards.split(&aggregated)?.iter().enumerate() {
            if shard_grad.is_empty() {
                continue;
            }
            compressor.compress_into(shard_grad, &mut self.scratch, &mut self.wire)?;
            // Each of W workers pulls this shard, serialized per server;
            // rejected copies cost re-transfers (workers that exhaust
            // retries proceed on their stale shard copy).
            pull_time[s] += workers as f64 * cost.network.transfer_time(self.wire.len());
            es.downlink_bytes += (self.wire.len() * workers) as u64;
            pull_time[s] += link.broadcast_penalty(batch, self.wire.len());
        }
        es.comm_seconds += pull_time.iter().copied().fold(0.0, f64::max);

        Ok(Some(Aggregate {
            gradient: Some(aggregated),
            batch_loss: if total_instances == 0 {
                0.0
            } else {
                loss_sum / total_instances as f64
            },
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchml_core::{RawCompressor, SketchMlCompressor};
    use sketchml_data::SparseDatasetSpec;
    use sketchml_ml::GlmLoss;

    #[test]
    fn range_shard_map_partitions_key_space() {
        let m = ShardMap::with_strategy(100, 4, ShardStrategy::Range);
        assert_eq!(m.shard_of(0), 0);
        assert_eq!(m.shard_of(24), 0);
        assert_eq!(m.shard_of(25), 1);
        assert_eq!(m.shard_of(99), 3);
        // Degenerate: more servers than keys.
        let tiny = ShardMap::new(3, 8);
        for k in 0..3u64 {
            assert!(tiny.shard_of(k) < 8);
        }
    }

    #[test]
    fn split_preserves_gradient_under_both_strategies() {
        let g = SparseGradient::new(100, vec![1, 24, 25, 70, 99], vec![1.0, 2.0, 3.0, 4.0, 5.0])
            .unwrap();
        for strategy in [ShardStrategy::Range, ShardStrategy::Hash] {
            let m = ShardMap::with_strategy(100, 4, strategy);
            let split = m.split(&g).unwrap();
            assert_eq!(split.len(), 4);
            let non_empty: Vec<&SparseGradient> = split.iter().filter(|s| !s.is_empty()).collect();
            assert!(!non_empty.is_empty());
            let merged = SparseGradient::aggregate(&split).unwrap();
            assert_eq!(merged, g, "{strategy:?}");
        }
    }

    #[test]
    fn hash_sharding_balances_zipf_keys() {
        // Power-law keys: a dense head (0..100) plus a sparse tail — the
        // head all lands on shard 0 under range sharding.
        let keyset: Vec<u64> = (0..100u64)
            .chain((0..100u64).map(|i| 100 + i * 39))
            .collect();
        let values = vec![1.0; keyset.len()];
        let g = SparseGradient::new(4096, keyset, values).unwrap();
        let imbalance = |strategy: ShardStrategy| {
            let m = ShardMap::with_strategy(4096, 8, strategy);
            let sizes: Vec<usize> = m.split(&g).unwrap().iter().map(|s| s.nnz()).collect();
            let max = *sizes.iter().max().unwrap() as f64;
            let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
            max / mean
        };
        let (hash, range) = (
            imbalance(ShardStrategy::Hash),
            imbalance(ShardStrategy::Range),
        );
        assert!(
            hash < range,
            "hash sharding should balance the skewed head: hash {hash} vs range {range}"
        );
        assert!(hash < 2.0, "hash imbalance {hash} too high");
    }

    fn dataset() -> (Vec<Instance>, Vec<Instance>, usize) {
        let spec = SparseDatasetSpec {
            name: "ps".into(),
            instances: 1_200,
            features: 30_000,
            avg_nnz: 20,
            skew: 1.1,
            label_noise: 0.02,
            task: sketchml_data::Task::Classification,
            seed: 555,
        };
        let (tr, te) = spec.generate_split();
        (tr, te, 30_000)
    }

    #[test]
    fn ps_training_matches_driver_training_math() {
        // Same batches + same optimizer → identical loss trajectory; only
        // the simulated times differ.
        let (train, test, dim) = dataset();
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 3);
        let cluster = ClusterConfig::cluster1(4);
        let ps = train_parameter_server(
            &train,
            &test,
            dim,
            &spec,
            &cluster,
            4,
            &RawCompressor::default(),
        )
        .unwrap();
        let driver = crate::trainer::train_distributed(
            &train,
            &test,
            dim,
            &spec,
            &cluster,
            &RawCompressor::default(),
        )
        .unwrap();
        for (a, b) in ps.epochs.iter().zip(&driver.epochs) {
            assert!(
                (a.test_loss - b.test_loss).abs() < 1e-9,
                "epoch {}: PS {} vs driver {}",
                a.epoch,
                a.test_loss,
                b.test_loss
            );
        }
    }

    #[test]
    fn ps_parallel_ingest_beats_driver_for_raw() {
        // With servers ingesting in parallel, the uncompressed baseline's
        // comm time drops versus the single driver NIC.
        let (train, test, dim) = dataset();
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
        let cluster = ClusterConfig::cluster1(8);
        let ps = train_parameter_server(
            &train,
            &test,
            dim,
            &spec,
            &cluster,
            8,
            &RawCompressor::default(),
        )
        .unwrap();
        let driver = crate::trainer::train_distributed(
            &train,
            &test,
            dim,
            &spec,
            &cluster,
            &RawCompressor::default(),
        )
        .unwrap();
        let ps_comm: f64 = ps.epochs.iter().map(|e| e.comm_seconds).sum();
        let driver_comm: f64 = driver.epochs.iter().map(|e| e.comm_seconds).sum();
        assert!(
            ps_comm < driver_comm,
            "PS comm {ps_comm} should beat driver comm {driver_comm}"
        );
    }

    #[test]
    fn sketchml_still_wins_under_ps() {
        let (train, test, dim) = dataset();
        let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
        let cluster = ClusterConfig::cluster1(4);
        let t = |c: &dyn GradientCompressor| {
            train_parameter_server(&train, &test, dim, &spec, &cluster, 4, c)
                .unwrap()
                .avg_epoch_seconds()
        };
        let sk = t(&SketchMlCompressor::default());
        let raw = t(&RawCompressor::default());
        assert!(sk < raw, "SketchML {sk} should beat raw {raw} under PS too");
    }
}
