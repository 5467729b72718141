//! The two workloads that run inside the benchmark process: the codec round
//! trip over harvested worker gradients, and ring-allreduce training.

use crate::stats::median;
use crate::workloads::{Task, BATCH_RATIO};
use crate::Checks;
use bytes::BytesMut;
use sketchml_cluster::worker::partition;
use sketchml_cluster::{train_allreduce_with_policy, ClusterConfig, MergePolicy, Topology};
use sketchml_core::{
    compressor_by_name, CompressScratch, GradientCompressor, MergeableCompressor, RawCompressor,
    SketchMlCompressor, SparseGradient,
};
use sketchml_data::Batcher;
use sketchml_ml::{GlmModel, Instance, OptimizerState};
use std::time::Instant;

/// Worker gradients a run harvests: 8 rounds of a 2-worker task.
pub const HARVEST: usize = 16;

/// The codec of a workload as a mergeable compressor (the registry hands out
/// plain `GradientCompressor`s only).
pub fn mergeable(name: &str) -> Result<Box<dyn MergeableCompressor>, String> {
    match name {
        "sketchml" => Ok(Box::new(SketchMlCompressor::default())),
        "raw" => Ok(Box::new(RawCompressor::default())),
        other => Err(format!("no mergeable compressor called {other}")),
    }
}

/// The training loop of server and workers in one thread: same batch
/// schedule, same partition, each worker's slice gradient weighted by its
/// share of the batch, the weighted gradients summed and applied.
struct Trainer<'a> {
    task: &'a Task,
    train: &'a [Instance],
    model: GlmModel,
    opt: OptimizerState,
    batcher: Batcher,
    scratch: CompressScratch,
    wire: BytesMut,
}

impl<'a> Trainer<'a> {
    fn new(task: &'a Task, train: &'a [Instance]) -> Result<Self, String> {
        let spec = task.train_spec();
        let dim = task.features as usize;
        Ok(Trainer {
            task,
            train,
            model: GlmModel::new(dim, spec.loss, spec.l2).map_err(|e| e.to_string())?,
            opt: OptimizerState::build(spec.optimizer, spec.opt_state, dim)
                .map_err(|e| e.to_string())?,
            batcher: Batcher::new(train.len(), BATCH_RATIO, spec.seed),
            scratch: CompressScratch::new(),
            wire: BytesMut::new(),
        })
    }

    /// Trains one epoch. With a `codec` every slice gradient goes through it
    /// before the sum, as on the wire; without, the sum is exact. `sent` sees
    /// every slice gradient as the worker would send it and stops the epoch
    /// by returning `false`.
    fn epoch(
        &mut self,
        codec: Option<&dyn GradientCompressor>,
        mut sent: impl FnMut(&SparseGradient) -> bool,
    ) -> Result<(), String> {
        let dim = self.task.features as u64;
        for batch in self.batcher.epoch() {
            let mut parts = Vec::with_capacity(self.task.workers);
            for part in partition(&batch, self.task.workers) {
                let g = self
                    .model
                    .batch_gradient(&Batcher::gather(self.train, &part));
                let grad = SparseGradient::new(dim, g.keys, g.values).map_err(|e| e.to_string())?;
                if !sent(&grad) {
                    return Ok(());
                }
                let mut arrived = match codec {
                    Some(codec) => {
                        codec
                            .compress_into(&grad, &mut self.scratch, &mut self.wire)
                            .map_err(|e| e.to_string())?;
                        let mut back = SparseGradient::empty(0);
                        codec
                            .decompress_into(&self.wire, &mut self.scratch, &mut back)
                            .map_err(|e| e.to_string())?;
                        back
                    }
                    None => grad,
                };
                arrived.scale(part.len() as f64 / batch.len() as f64);
                parts.push(arrived);
            }
            let agg = SparseGradient::aggregate(&parts).map_err(|e| e.to_string())?;
            self.model
                .apply_gradient(&mut self.opt, agg.keys(), agg.values());
        }
        Ok(())
    }
}

/// Trains `task` for as many rounds as it takes to collect `want` worker
/// slice gradients and returns them: the traffic the system really ships,
/// not a synthetic distribution.
pub fn harvest_gradients(
    task: &Task,
    train: &[Instance],
    want: usize,
) -> Result<Vec<SparseGradient>, String> {
    let compressor = compressor_by_name(task.compressor).map_err(|e| e.to_string())?;
    let mut trainer = Trainer::new(task, train)?;
    let mut grads = Vec::with_capacity(want);
    while grads.len() < want {
        trainer.epoch(Some(compressor.as_ref()), |grad| {
            grads.push(grad.clone());
            grads.len() < want
        })?;
    }
    Ok(grads)
}

/// The lowest end-of-epoch test loss of `task` trained for `epochs` epochs on
/// exact gradients: what the same data, batch order and optimiser reach with
/// no codec in the way. A workload's own best test loss is reported as a
/// multiple of it, because the loss itself says more about the seed's
/// dataset than about the program (0.35 to 0.60 over forty seeds; three easy
/// seeds in ten put the quartiles of the raw loss 23 % apart).
pub fn exact_best_loss(
    task: &Task,
    epochs: usize,
    train: &[Instance],
    test: &[Instance],
) -> Result<f64, String> {
    let mut trainer = Trainer::new(task, train)?;
    let mut best = f64::INFINITY;
    for _ in 0..epochs {
        trainer.epoch(None, |_| true)?;
        best = best.min(trainer.model.mean_loss(test));
    }
    Ok(best)
}

/// What the codec workload measured.
#[derive(Debug, Default)]
pub struct CodecOutcome {
    /// Dataset generation plus gradient harvest, the median over this
    /// run's repetitions.
    pub setup_s: f64,
    /// Compress + decompress of one gradient.
    pub roundtrip_ms: Vec<f64>,
    /// Compress alone.
    pub encode_ms: Vec<f64>,
    /// Decompress alone.
    pub decode_ms: Vec<f64>,
    /// One pass over all harvested gradients.
    pub pass_s: Vec<f64>,
    /// Pairs per harvested gradient, averaged.
    pub pairs_per_gradient: f64,
    /// Compressed bytes per key-value pair.
    pub bytes_per_pair: f64,
    /// ‖decoded − original‖₂ ÷ ‖original‖₂ over all harvested gradients.
    pub rel_l2_err: f64,
}

/// Compresses and decompresses the harvested gradients, pass after pass, for
/// `seconds` seconds on one thread.
pub fn run_codec(
    task: &Task,
    seconds: f64,
    setup_samples: usize,
    checks: &mut Checks,
) -> Result<CodecOutcome, String> {
    // Set-up is the dataset and the harvest; every sample redoes both.
    let mut setups = Vec::with_capacity(setup_samples);
    let mut grads = Vec::new();
    for _ in 0..setup_samples.max(1) {
        let setup = Instant::now();
        let (train, _test) = task.dataset().generate_split();
        grads = harvest_gradients(task, &train, HARVEST)?;
        setups.push(setup.elapsed().as_secs_f64());
    }
    let compressor = compressor_by_name(task.compressor).map_err(|e| e.to_string())?;
    let mut scratch = CompressScratch::new();
    let mut wire = BytesMut::new();
    let mut decoded = SparseGradient::empty(0);
    let mut out = CodecOutcome::default();

    // One untimed pass warms the scratch buffers and carries the checks.
    let (mut bytes, mut pairs, mut err_sq, mut norm_sq) = (0usize, 0usize, 0.0f64, 0.0f64);
    for grad in &grads {
        compressor
            .compress_into(grad, &mut scratch, &mut wire)
            .map_err(|e| e.to_string())?;
        compressor
            .decompress_into(&wire, &mut scratch, &mut decoded)
            .map_err(|e| e.to_string())?;
        bytes += wire.len();
        pairs += grad.nnz();
        checks.check(
            "decoded keys equal the keys sent",
            decoded.keys() == grad.keys(),
        );
        let mut flips = 0u64;
        for (a, b) in grad.values().iter().zip(decoded.values()) {
            err_sq += (a - b) * (a - b);
            norm_sq += a * a;
            flips += u64::from(*b != 0.0 && a.signum() != b.signum());
        }
        checks.count("decoded values keep their sign", grad.nnz() as u64, flips);
    }
    out.pairs_per_gradient = pairs as f64 / grads.len() as f64;
    out.bytes_per_pair = bytes as f64 / pairs as f64;
    out.rel_l2_err = (err_sq / norm_sq).sqrt();
    out.setup_s = median(&setups);

    let window = Instant::now();
    while window.elapsed().as_secs_f64() < seconds || out.pass_s.len() < 3 {
        let pass = Instant::now();
        for grad in &grads {
            let t0 = Instant::now();
            compressor
                .compress_into(grad, &mut scratch, &mut wire)
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            compressor
                .decompress_into(&wire, &mut scratch, &mut decoded)
                .map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            std::hint::black_box(decoded.nnz());
            out.encode_ms.push((t1 - t0).as_secs_f64() * 1e3);
            out.decode_ms.push((t2 - t1).as_secs_f64() * 1e3);
            out.roundtrip_ms.push((t2 - t0).as_secs_f64() * 1e3);
        }
        out.pass_s.push(pass.elapsed().as_secs_f64());
    }
    Ok(out)
}

/// What the allreduce workload measured.
#[derive(Debug, Default)]
pub struct AllreduceOutcome {
    /// Dataset generation, the median over this run's repetitions.
    pub setup_s: f64,
    /// Wall time of each `train_allreduce_with_policy` call.
    pub call_s: Vec<f64>,
    /// Lowest test loss over the call's epochs (identical for every call).
    pub best_test_loss: f64,
    /// The same after training on exact gradients, see [`exact_best_loss`].
    pub exact_test_loss: f64,
    /// Hop payload bytes per round, reduce plus distribute.
    pub wire_bytes_per_round: f64,
}

/// Epochs per timed call: short calls give more samples per run.
pub const ALLREDUCE_EPOCHS: usize = 1;

/// Calls ring-allreduce training again and again for `seconds` seconds. Real
/// wall time is what counts; the cost model's simulated seconds are ignored.
pub fn run_allreduce(
    task: &Task,
    seconds: f64,
    setup_samples: usize,
    checks: &mut Checks,
) -> Result<AllreduceOutcome, String> {
    let mut setups = Vec::with_capacity(setup_samples);
    let (mut train, mut test) = (Vec::new(), Vec::new());
    for _ in 0..setup_samples.max(1) {
        let setup = Instant::now();
        (train, test) = task.dataset().generate_split();
        setups.push(setup.elapsed().as_secs_f64());
    }
    let compressor = mergeable(task.compressor)?;
    let mut spec = task.train_spec();
    spec.max_epochs = ALLREDUCE_EPOCHS;
    let cluster = ClusterConfig::cluster1(task.workers)
        .with_batch_ratio(BATCH_RATIO)
        .with_topology(Topology::Ring);
    let mut out = AllreduceOutcome {
        setup_s: median(&setups),
        ..AllreduceOutcome::default()
    };

    let window = Instant::now();
    let mut first_loss: Option<f64> = None;
    while window.elapsed().as_secs_f64() < seconds || out.call_s.len() < 3 {
        let t = Instant::now();
        let report = train_allreduce_with_policy(
            &train,
            &test,
            task.features as usize,
            &spec,
            &cluster,
            compressor.as_ref(),
            MergePolicy::Resketch,
        )
        .map_err(|e| e.to_string())?;
        out.call_s.push(t.elapsed().as_secs_f64());
        let loss = report
            .epochs
            .iter()
            .map(|e| e.test_loss)
            .reduce(f64::min)
            .ok_or("allreduce trained no epoch")?;
        checks.check(
            "allreduce loss repeats bit for bit",
            !matches!(first_loss, Some(l) if l.to_bits() != loss.to_bits()),
        );
        first_loss = Some(loss);
        let bytes: u64 = report
            .epochs
            .iter()
            .map(|e| e.uplink_bytes + e.downlink_bytes)
            .sum();
        let rounds = report.epochs.len() * crate::workloads::ROUNDS_PER_EPOCH;
        out.wire_bytes_per_round = bytes as f64 / rounds as f64;
        out.best_test_loss = loss;
    }
    out.exact_test_loss = exact_best_loss(task, ALLREDUCE_EPOCHS, &train, &test)?;
    Ok(out)
}
