//! Client side of the live parameter server: a typed request/response
//! handle plus [`run_worker`], the complete training-participant loop a
//! worker process runs (including checkpoint-based recovery after a crash).

use crate::error::{ErrorCode, NetError};
use crate::sock::Conn;
use crate::wire::{PredictInstance, PushStatus, Request, Response, PROTOCOL_VERSION};
use sketchml_cluster::network::CostModel;
use sketchml_cluster::worker::{partition, process_glm_batch, WorkerScratch};
use sketchml_core::compressor_by_name;
use sketchml_data::Batcher;
use sketchml_ml::{Checkpoint, GlmModel, Instance};
use std::io::{BufReader, BufWriter, Write};
use std::time::Duration;

use crate::server::ServeSetup;

/// A model state pulled from the server. A worker keeps one as its replica
/// and lets [`Client::pull_update`] advance it in place.
#[derive(Debug, Clone)]
pub struct ModelView {
    /// Rounds baked into the weights.
    pub round: u64,
    /// Epochs completed.
    pub epoch: u32,
    /// Training finished; no newer model will be published.
    pub done: bool,
    /// Dense weight vector.
    pub weights: Vec<f64>,
}

/// Which frame answered a [`Client::pull_update`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullKind {
    /// A `ModelDelta`: only the changed weights crossed the wire.
    Delta,
    /// The dense `Model`: the replica was replaced.
    Dense,
}

/// A connected, version-negotiated client.
pub struct Client {
    reader: BufReader<Conn>,
    writer: BufWriter<Conn>,
}

impl Client {
    /// Connects to `tcp://host:port` / `unix://path` and negotiates the
    /// protocol version.
    ///
    /// # Errors
    /// [`NetError::Io`] on connect failure, [`NetError::VersionMismatch`] /
    /// [`NetError::Remote`] if negotiation fails.
    pub fn connect(addr: &str) -> Result<Client, NetError> {
        let conn = Conn::connect(addr)?;
        let writer_conn = conn.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(conn),
            writer: BufWriter::new(writer_conn),
        };
        let resp = client.call(&Request::Hello {
            min_version: PROTOCOL_VERSION,
            max_version: PROTOCOL_VERSION,
        })?;
        match resp {
            Response::HelloAck { version } if version == PROTOCOL_VERSION => Ok(client),
            Response::HelloAck { version } => Err(NetError::VersionMismatch {
                min: version,
                max: version,
            }),
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// One request/response exchange. `Error` responses are surfaced as
    /// [`NetError::Remote`].
    ///
    /// # Errors
    /// Any wire-level or remote failure.
    pub fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        req.write_to(&mut self.writer)?;
        self.writer.flush()?;
        Response::read_from(&mut self.reader)?.into_result()
    }

    /// Fetches the serve session config (the server is the single source
    /// of truth; workers regenerate everything from this).
    ///
    /// # Errors
    /// Wire failures, or [`NetError::Protocol`] if the JSON does not parse.
    pub fn get_config(&mut self) -> Result<ServeSetup, NetError> {
        match self.call(&Request::GetConfig)? {
            Response::Config { json } => serde_json::from_str(&json)
                .map_err(|e| NetError::Protocol(format!("config does not parse: {e}"))),
            other => Err(unexpected("Config", &other)),
        }
    }

    /// Pulls the model; with `wait`, the server blocks (bounded) until its
    /// round reaches `round` or training finishes.
    ///
    /// # Errors
    /// Wire failures.
    pub fn pull_model(
        &mut self,
        worker: u32,
        round: u64,
        wait: bool,
    ) -> Result<ModelView, NetError> {
        match self.call(&Request::PullModel {
            worker,
            round,
            wait,
        })? {
            Response::Model {
                round,
                epoch,
                done,
                weights,
            } => Ok(ModelView {
                round,
                epoch,
                done,
                weights,
            }),
            other => Err(unexpected("Model", &other)),
        }
    }

    /// Advances `replica` — the model of round `replica.round`, from an
    /// earlier pull — to the server's current model, as
    /// [`pull_model`](Self::pull_model) would return it for `round`/`wait`.
    /// The server sends only the weights that changed when it can express
    /// its model as a change to `replica.round`'s; those are assigned in
    /// place (`weights[k] = v`, so the replica stays bit-identical to the
    /// server's model and a repeated delta is harmless). Otherwise, or if
    /// the delta does not start from `replica.round`, the dense model
    /// replaces the replica.
    ///
    /// # Errors
    /// Wire failures; [`NetError::Protocol`] for a delta that names a weight
    /// the replica does not have (the replica is left untouched).
    pub fn pull_update(
        &mut self,
        worker: u32,
        replica: &mut ModelView,
        round: u64,
        wait: bool,
    ) -> Result<PullKind, NetError> {
        let reply = self.call(&Request::PullDelta {
            worker,
            have_round: replica.round,
            round,
            wait,
        })?;
        match reply {
            Response::ModelDelta {
                base_round,
                round,
                epoch,
                done,
                keys,
                values,
            } if base_round == replica.round => {
                let dim = replica.weights.len() as u64;
                if let Some(k) = keys.iter().find(|&&k| k >= dim) {
                    return Err(NetError::Protocol(format!(
                        "delta key {k} is outside the replica's {dim} weights"
                    )));
                }
                for (&k, &v) in keys.iter().zip(&values) {
                    replica.weights[k as usize] = v;
                }
                replica.round = round;
                replica.epoch = epoch;
                replica.done = done;
                Ok(PullKind::Delta)
            }
            // A delta from some other round cannot be applied to this replica.
            Response::ModelDelta { .. } => {
                *replica = self.pull_model(worker, round, false)?;
                Ok(PullKind::Dense)
            }
            Response::Model {
                round,
                epoch,
                done,
                weights,
            } => {
                *replica = ModelView {
                    round,
                    epoch,
                    done,
                    weights,
                };
                Ok(PullKind::Dense)
            }
            other => Err(unexpected("ModelDelta or Model", &other)),
        }
    }

    /// Pushes one compressed gradient for `round`.
    ///
    /// # Errors
    /// Wire failures.
    pub fn push_gradient(
        &mut self,
        worker: u32,
        round: u64,
        loss_sum: f64,
        instances: u64,
        payload: Vec<u8>,
    ) -> Result<(PushStatus, u64), NetError> {
        match self.call(&Request::PushGradient {
            worker,
            round,
            loss_sum,
            instances,
            payload,
        })? {
            Response::PushAck { status, round } => Ok((status, round)),
            other => Err(unexpected("PushAck", &other)),
        }
    }

    /// Scores a batch of sparse instances against the live model.
    ///
    /// # Errors
    /// Wire failures.
    pub fn predict(&mut self, instances: Vec<PredictInstance>) -> Result<Vec<f64>, NetError> {
        match self.call(&Request::Predict { instances })? {
            Response::Prediction { scores } => Ok(scores),
            other => Err(unexpected("Prediction", &other)),
        }
    }

    /// Fetches the latest end-of-epoch checkpoint blob.
    ///
    /// # Errors
    /// Wire failures; `Remote{BadState}` before the first epoch completes.
    pub fn get_checkpoint(&mut self) -> Result<(u64, Vec<u8>), NetError> {
        match self.call(&Request::GetCheckpoint)? {
            Response::CheckpointBlob { epochs_done, bytes } => Ok((epochs_done, bytes)),
            other => Err(unexpected("CheckpointBlob", &other)),
        }
    }

    /// Fetches the server's live stats document (JSON).
    ///
    /// # Errors
    /// Wire failures.
    pub fn get_stats(&mut self) -> Result<String, NetError> {
        match self.call(&Request::GetStats)? {
            Response::Stats { json } => Ok(json),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    /// Wire failures.
    pub fn shutdown(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(unexpected("ShutdownAck", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> NetError {
    NetError::Protocol(format!("expected {wanted}, got {got:?}"))
}

/// What one worker process did, for logging and test assertions.
#[derive(Debug, Clone, Default)]
pub struct WorkerRunStats {
    /// Gradients accepted by the server.
    pub pushes_accepted: u64,
    /// Pushes answered `Stale` (we fast-forwarded past a missed round).
    pub pushes_stale: u64,
    /// Pushes answered `Backpressure` (retried after a short sleep).
    pub backpressure_retries: u64,
    /// True if this worker joined mid-training and validated the server's
    /// checkpoint before participating (the crash-recovery path).
    pub recovered_from_checkpoint: bool,
    /// Round the worker observed when training completed.
    pub final_round: u64,
    /// Pulls answered with the dense model (the first one always is).
    pub pulls_dense: u64,
    /// Pulls answered with a delta.
    pub pulls_delta: u64,
}

/// Replays the shared batch schedule so the worker knows which instance
/// indices belong to a given round. The server and every worker construct
/// the identical [`Batcher`] (same `n`, ratio, seed), so index slices line
/// up without shipping them over the wire.
struct Schedule {
    batcher: Batcher,
    rounds_per_epoch: u64,
    epochs_consumed: u64,
    current: Vec<Vec<usize>>,
}

impl Schedule {
    fn new(n: usize, batch_ratio: f64, seed: u64) -> Self {
        let batcher = Batcher::new(n, batch_ratio, seed);
        let rounds_per_epoch = batcher.batches_per_epoch() as u64;
        Schedule {
            batcher,
            rounds_per_epoch,
            epochs_consumed: 0,
            current: Vec::new(),
        }
    }

    /// The batch (instance indices) for global `round`, advancing the
    /// shared shuffle as needed. Rounds never go backwards.
    fn batch_for(&mut self, round: u64) -> &[usize] {
        let epoch = round / self.rounds_per_epoch;
        while self.epochs_consumed <= epoch {
            self.current = self.batcher.epoch();
            self.epochs_consumed += 1;
        }
        &self.current[(round % self.rounds_per_epoch) as usize]
    }
}

/// Runs the complete worker participant loop against a live server:
/// fetch config, regenerate the dataset, recover from the server's
/// checkpoint if joining mid-training, then pull→compute→push until done.
///
/// # Errors
/// Any wire, codec, or configuration failure.
pub fn run_worker(addr: &str, worker: u32) -> Result<WorkerRunStats, NetError> {
    let mut client = Client::connect(addr)?;
    let setup = client.get_config()?;
    setup.validate()?;
    if worker as usize >= setup.workers {
        return Err(NetError::InvalidConfig(format!(
            "worker id {worker} out of range for {} workers",
            setup.workers
        )));
    }
    let spec = setup.spec;
    let dim = setup.dataset.features as usize;
    let (train, _test) = setup.dataset.generate_split();
    let compressor = compressor_by_name(&setup.compressor)?;
    let cost = CostModel::cluster1();
    let mut ws = WorkerScratch::new();
    let mut schedule = Schedule::new(train.len(), setup.batch_ratio, spec.seed);
    let mut stats = WorkerRunStats::default();

    // The one dense pull: the replica every later pull advances in place.
    let mut replica = client.pull_model(worker, 0, false)?;
    stats.pulls_dense = 1;
    let mut round = replica.round;
    if replica.done {
        stats.final_round = round;
        return Ok(stats);
    }
    // Joining mid-training (e.g. respawned after a crash): prove the
    // server's checkpoint loads before participating, exactly what a
    // stateful worker would restore from.
    if round > 0 {
        match client.get_checkpoint() {
            Ok((_epochs, bytes)) => {
                Checkpoint::validate(&bytes)
                    .map_err(|e| NetError::InvalidConfig(format!("bad checkpoint: {e}")))?;
                stats.recovered_from_checkpoint = true;
            }
            // Joining before the first epoch finished: nothing to restore.
            Err(NetError::Remote {
                code: ErrorCode::BadState,
                ..
            }) => {}
            Err(e) => return Err(e),
        }
    }

    let mut model = GlmModel::new(dim, spec.loss, spec.l2)
        .map_err(|e| NetError::InvalidConfig(e.to_string()))?;
    loop {
        match client.pull_update(worker, &mut replica, round, true)? {
            PullKind::Delta => stats.pulls_delta += 1,
            PullKind::Dense => stats.pulls_dense += 1,
        }
        if replica.done {
            stats.final_round = replica.round;
            return Ok(stats);
        }
        if replica.round < round {
            // Bounded server-side wait expired before the round advanced
            // (stragglers); just pull again.
            continue;
        }
        // Past `round` if we lost rounds to the straggler timeout.
        round = replica.round;
        if replica.weights.len() != dim {
            return Err(NetError::Protocol(format!(
                "model has {} weights, expected {dim}",
                replica.weights.len()
            )));
        }

        let batch = schedule.batch_for(round);
        let part = partition(batch, setup.workers)
            .into_iter()
            .nth(worker as usize)
            .unwrap_or_default();
        let slice: Vec<Instance> = part.iter().map(|&i| train[i].clone()).collect();
        // The gradient is taken on the replica itself, lent to the model.
        std::mem::swap(&mut model.weights, &mut replica.weights);
        let msg = process_glm_batch(&model, &slice, compressor.as_ref(), &cost, &mut ws);
        std::mem::swap(&mut model.weights, &mut replica.weights);
        let msg = msg?;

        // Built once: a `Backpressure` retry resends the same request.
        let push = Request::PushGradient {
            worker,
            round,
            loss_sum: msg.loss_sum,
            instances: msg.instances as u64,
            payload: msg.payload,
        };
        loop {
            let (status, server_round) = match client.call(&push)? {
                Response::PushAck { status, round } => (status, round),
                other => return Err(unexpected("PushAck", &other)),
            };
            match status {
                PushStatus::Accepted => {
                    stats.pushes_accepted += 1;
                    round += 1;
                    break;
                }
                PushStatus::Stale => {
                    stats.pushes_stale += 1;
                    round = server_round;
                    break;
                }
                PushStatus::Backpressure => {
                    stats.backpressure_retries += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                PushStatus::Done => {
                    stats.final_round = server_round;
                    return Ok(stats);
                }
            }
        }
    }
}
