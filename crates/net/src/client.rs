//! Client side of the live parameter server: a typed request/response
//! handle, the [`Replica`] a worker keeps of the server's training state,
//! and [`run_worker`], the complete training-participant loop a worker
//! process runs.
//!
//! A worker never pulls weights. Its [`Replica`] wraps the same
//! [`sketchml_cluster::Replica`] the server's trainer steps — at round 0
//! both are `Replica::fresh` of the config — and after each push it asks
//! for the round that follows: the reply is the codec frames the *other*
//! workers pushed. This module holds the reply to the session (member ids,
//! counts, the worker's own frame) and decodes it; the state is stepped by
//! the cluster replica's `apply`, in the same member order, to the same
//! bits. A worker that is not exactly one round behind (respawned mid-run,
//! or two rounds late after straggler timeouts) is answered with the
//! server's live training state and restores from it through the cluster
//! replica's spec check.

use crate::error::NetError;
use crate::sock::Conn;
use crate::wire::{
    PredictBatch, PredictInstance, PushStatus, Request, Response, RoundMember, PROTOCOL_VERSION,
};
use sketchml_cluster::network::CostModel;
use sketchml_cluster::worker::{partition, process_glm_rows, WorkerScratch};
use sketchml_cluster::Schedule;
use sketchml_core::{compressor_by_name, CompressScratch, GradientCompressor, SparseGradient};
use sketchml_ml::{Checkpoint, GlmModel, OptimizerState};
use std::io::{BufReader, BufWriter, Write};

use crate::server::ServeSetup;

/// The published model as a dense pull returns it: what inference clients
/// and checks read. Lock-step workers hold a [`Replica`] instead.
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

/// What a [`Client::pull_round`] did to the replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pulled {
    /// Nothing has closed since the replica's round: the call did not wait,
    /// or the server's bounded wait ran out (or training is over — see
    /// [`Replica::done`]).
    Nothing,
    /// The replica advanced one round. `listed` says whether this worker's
    /// push was part of it; a round can close without it when the straggler
    /// timeout fires first.
    Round {
        /// This worker's push was one of the round's members.
        listed: bool,
    },
    /// The replica could not be stepped to the server's state and was
    /// replaced by it.
    State,
}

/// A worker's copy of the server's training state: the
/// [`sketchml_cluster::Replica`] the server steps, and the wire half around
/// it — the session's worker count and dataset size a reply is held to, the
/// codec, and the decode buffers of a round.
///
/// Every check on a reply happens before the first write: a reply that is
/// refused leaves weights and optimizer state untouched.
pub struct Replica {
    state: sketchml_cluster::Replica,
    done: bool,
    workers: usize,
    dataset_instances: u64,
    /// Decodes the round's frames, and encodes this worker's pushes.
    pub(crate) compressor: Box<dyn GradientCompressor>,
    scratch: CompressScratch,
    /// Decode targets, one per member of a round, reused across rounds.
    parts: Vec<SparseGradient>,
    /// This worker's own part of the round being pulled.
    own: SparseGradient,
    instances: Vec<usize>,
    /// Bytes of the peers' frames this replica has stepped from.
    peer_frame_bytes: u64,
}

impl Replica {
    /// The state every participant starts from: the zero model and the fresh
    /// optimizer of `setup`, no rounds applied. Nothing dense has to cross
    /// the link to start.
    ///
    /// # Errors
    /// [`NetError::InvalidConfig`] for a setup no model, optimizer or
    /// compressor can be built from.
    pub fn new(setup: &ServeSetup) -> Result<Self, NetError> {
        setup.validate()?;
        Ok(Replica {
            state: sketchml_cluster::Replica::fresh(setup.dataset.features as usize, &setup.spec)
                .map_err(|e| NetError::InvalidConfig(e.to_string()))?,
            done: false,
            workers: setup.workers,
            dataset_instances: setup.dataset.instances as u64,
            compressor: compressor_by_name(&setup.compressor)?,
            scratch: CompressScratch::new(),
            parts: Vec::new(),
            own: SparseGradient::empty(0),
            instances: Vec::new(),
            peer_frame_bytes: 0,
        })
    }

    /// The model after [`round`](Self::round) rounds.
    pub fn model(&self) -> &GlmModel {
        self.state.model()
    }

    /// The optimizer after [`round`](Self::round) rounds.
    pub fn optimizer(&self) -> &OptimizerState {
        self.state.optimizer()
    }

    /// Rounds applied.
    pub fn round(&self) -> u64 {
        self.state.rounds()
    }

    /// The server said no round follows.
    pub fn done(&self) -> bool {
        self.done
    }

    /// Bytes of the peers' codec frames the replica has been stepped from:
    /// what the server's round replies carried to this worker.
    pub fn peer_frame_bytes(&self) -> u64 {
        self.peer_frame_bytes
    }

    /// Applies a `Round` reply. `own` is `(frame, instances)` of the push
    /// this worker landed for the replica's round — already decoded into
    /// `self.own` — or `None` if it has none.
    fn step(
        &mut self,
        worker: u32,
        own: Option<(&[u8], u64)>,
        base_round: u64,
        round: u64,
        done: bool,
        members: &[RoundMember],
    ) -> Result<Pulled, NetError> {
        let bad = |m: String| Err(NetError::Protocol(m));
        if base_round != self.round() {
            return bad(format!(
                "round reply starts from round {base_round}, the replica is at {}",
                self.round()
            ));
        }
        if round == base_round {
            if !members.is_empty() {
                return bad(format!(
                    "{} members in a round that did not close",
                    members.len()
                ));
            }
            self.done = done;
            return Ok(Pulled::Nothing);
        }
        if base_round.checked_add(1) != Some(round) {
            return bad(format!(
                "round reply jumps from round {base_round} to {round}"
            ));
        }
        if members.len() > self.workers {
            return bad(format!(
                "{} members in a session of {} workers",
                members.len(),
                self.workers
            ));
        }
        let mut listed = false;
        for (i, m) in members.iter().enumerate() {
            if m.worker as usize >= self.workers || (i > 0 && members[i - 1].worker >= m.worker) {
                return bad(format!(
                    "member ids are not ascending ids of {} workers at {}",
                    self.workers, m.worker
                ));
            }
            if m.instances > self.dataset_instances {
                return bad(format!(
                    "member {} claims {} of {} instances",
                    m.worker, m.instances, self.dataset_instances
                ));
            }
            if m.worker != worker {
                if m.frame.is_none() {
                    return bad(format!("the frame of member {} is missing", m.worker));
                }
            } else if m.frame.is_some() || own.map(|(_, n)| n) != Some(m.instances) {
                return bad(format!(
                    "own member carries {} and {} instances, this worker pushed {:?}",
                    if m.frame.is_some() {
                        "a frame"
                    } else {
                        "no frame"
                    },
                    m.instances,
                    own.map(|(_, n)| n)
                ));
            } else {
                listed = true;
            }
        }
        // Decode every member, and take its weight, before the replica is
        // touched.
        while self.parts.len() < members.len() {
            self.parts.push(SparseGradient::empty(0));
        }
        self.instances.clear();
        let dim = self.model().dim() as u64;
        for (m, part) in members.iter().zip(&mut self.parts) {
            match &m.frame {
                Some(frame) => {
                    if let Err(e) = self
                        .compressor
                        .decompress_into(frame, &mut self.scratch, part)
                    {
                        return bad(format!(
                            "the frame of member {} does not decode: {e}",
                            m.worker
                        ));
                    }
                }
                None => std::mem::swap(part, &mut self.own),
            }
            if part.dim() != dim {
                return bad(format!(
                    "the frame of member {} holds a gradient of dimension {}, the model has {dim}",
                    m.worker,
                    part.dim()
                ));
            }
            // Held to the dataset's above, which is a `usize`.
            self.instances.push(m.instances as usize);
        }
        self.state
            .apply(&self.parts[..members.len()], &self.instances)
            .map_err(|e| NetError::Protocol(format!("round {round} does not combine: {e}")))?;
        self.peer_frame_bytes += (members.iter())
            .filter_map(|m| m.frame.as_ref().map(|f| f.len() as u64))
            .sum::<u64>();
        self.done = done;
        Ok(Pulled::Round { listed })
    }

    /// Replaces the replica by the server's live state after `round` rounds:
    /// a v3 checkpoint frame, held to the session's spec first.
    fn restore(&mut self, round: u64, bytes: &[u8]) -> Result<Pulled, NetError> {
        let bad = |m: String| NetError::Protocol(format!("state reply: {m}"));
        if round < self.round() {
            return Err(bad(format!(
                "round {round} is behind the replica's {}",
                self.round()
            )));
        }
        let state = Checkpoint::from_bytes(bytes).map_err(|e| bad(e.to_string()))?;
        self.state
            .restore(state, round)
            .map_err(|e| bad(e.to_string()))?;
        Ok(Pulled::State)
    }
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

    /// Asks for the round that follows `replica`'s and applies the reply:
    /// steps the replica from the round's frames, or — when the server says
    /// the replica cannot be stepped to its state — restores it from the
    /// live state. `own` is `(frame, instances)` of the push this worker
    /// landed for the replica's round, if it landed one: the server leaves
    /// that frame out of the reply. With `wait`, the server blocks (bounded)
    /// until the round has closed.
    ///
    /// # Errors
    /// Wire failures; [`NetError::Protocol`] for a reply that does not fit
    /// the replica or the session (the replica is left untouched).
    pub fn pull_round(
        &mut self,
        worker: u32,
        replica: &mut Replica,
        own: Option<(&[u8], u64)>,
        wait: bool,
    ) -> Result<Pulled, NetError> {
        Request::PullRound {
            worker,
            have_round: replica.round(),
            wait,
        }
        .write_to(&mut self.writer)?;
        // While the server waits for the round to close: this worker's own
        // part of it, from the bytes it pushed.
        let own_decoded = own.map(|(frame, _)| {
            replica
                .compressor
                .decompress_into(frame, &mut replica.scratch, &mut replica.own)
        });
        let reply = Response::read_from(&mut self.reader)?.into_result()?;
        if let Some(Err(e)) = own_decoded {
            return Err(NetError::Protocol(format!(
                "the frame this worker pushed does not decode: {e}"
            )));
        }
        match reply {
            Response::Round {
                base_round,
                round,
                epoch: _,
                done,
                members,
            } => replica.step(worker, own, base_round, round, done, &members),
            Response::State { round, bytes } => replica.restore(round, &bytes),
            other => Err(unexpected("Round or State", &other)),
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
    /// Wire failures; [`NetError::Protocol`] if an instance's indices and
    /// values differ in length; `Remote{Malformed}` if an instance's indices
    /// are not strictly ascending or inside the model, or a value is not
    /// finite.
    pub fn predict(&mut self, instances: Vec<PredictInstance>) -> Result<Vec<f64>, NetError> {
        let batch = PredictBatch::new(&instances)?;
        match self.call(&Request::Predict { batch })? {
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
    /// Pushes answered `Stale` (the round had closed without this worker).
    pub pushes_stale: u64,
    /// Accepted pushes whose round then closed without them. The server
    /// accepts a push and lists it in one step, so this stays zero: it is
    /// the worker's own check of that.
    pub pushes_dropped: u64,
    /// Rounds applied to the replica when training completed.
    pub final_round: u64,
    /// Pulls answered with a round (its frames, or none yet).
    pub pulls_round: u64,
    /// Pulls answered with the live training state: zero for a worker that
    /// started with the session and never lost two rounds, one for a worker
    /// respawned mid-run.
    pub pulls_state: u64,
    /// Bytes of the peers' codec frames the worker's replica stepped from
    /// ([`Replica::peer_frame_bytes`]).
    pub peer_frame_bytes: u64,
}

/// Runs the complete worker participant loop against a live server: fetch
/// config, regenerate the dataset, build the replica, then
/// compute→push→pull-the-round until done. A worker joining mid-training is
/// sent the live state on its first pull and carries on from there.
///
/// # Errors
/// Any wire, codec, or configuration failure.
pub fn run_worker(addr: &str, worker: u32) -> Result<WorkerRunStats, NetError> {
    let mut client = Client::connect(addr)?;
    let setup = client.get_config()?;
    let mut replica = Replica::new(&setup)?;
    if worker as usize >= setup.workers {
        return Err(NetError::InvalidConfig(format!(
            "worker id {worker} out of range for {} workers",
            setup.workers
        )));
    }
    let train = setup.dataset.generate_train();
    let cost = CostModel::cluster1();
    let mut ws = WorkerScratch::new();
    let mut schedule = Schedule::new(train.len(), setup.batch_ratio, setup.spec.seed);
    let mut stats = WorkerRunStats::default();
    // The push this worker landed for the replica's round: its frame is this
    // worker's part of that round.
    let mut pushed: Option<(Vec<u8>, u64)> = None;

    loop {
        // Level with the server first. After a push that waits for the round
        // to close; without one (at the start, after a stale push or a state
        // restore) it only asks whether something closed meanwhile.
        let own = pushed.as_ref().map(|(frame, n)| (frame.as_slice(), *n));
        match client.pull_round(worker, &mut replica, own, pushed.is_some())? {
            Pulled::Round { listed } => {
                stats.pulls_round += 1;
                if pushed.take().is_some() && !listed {
                    stats.pushes_dropped += 1;
                }
            }
            Pulled::State => {
                stats.pulls_state += 1;
                pushed = None;
                // A round may have closed since the state was taken.
                continue;
            }
            Pulled::Nothing => {
                stats.pulls_round += 1;
                if pushed.is_some() && !replica.done() {
                    // The server's bounded wait ran out (stragglers).
                    continue;
                }
            }
        }
        if replica.done() {
            stats.final_round = replica.round();
            stats.peer_frame_bytes = replica.peer_frame_bytes();
            return Ok(stats);
        }

        let round = replica.round();
        let part = partition(schedule.batch_for(round), setup.workers)
            .into_iter()
            .nth(worker as usize)
            .unwrap_or_default();
        let slice = part.iter().map(|&i| &train[i]);
        let msg = process_glm_rows(replica.model(), slice, &*replica.compressor, &cost, &mut ws)?;

        // Kept whole: the payload of an accepted push is this worker's part
        // of the round.
        let instances = msg.instances as u64;
        let push = Request::PushGradient {
            worker,
            round,
            loss_sum: msg.loss_sum,
            instances,
            payload: msg.payload,
        };
        let (status, server_round) = match client.call(&push)? {
            Response::PushAck { status, round } => (status, round),
            other => return Err(unexpected("PushAck", &other)),
        };
        match status {
            PushStatus::Accepted => {
                stats.pushes_accepted += 1;
                if let Request::PushGradient { payload, .. } = push {
                    pushed = Some((payload, instances));
                }
            }
            // The round closed without this worker: the pull at the top of
            // the loop brings the replica level again.
            PushStatus::Stale => stats.pushes_stale += 1,
            PushStatus::Done => {
                stats.final_round = server_round;
                stats.peer_frame_bytes = replica.peer_frame_bytes();
                return Ok(stats);
            }
        }
    }
}
