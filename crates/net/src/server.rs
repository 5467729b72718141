//! Threaded parameter-server runtime.
//!
//! Thread anatomy:
//!
//! ```text
//! accept loop ──▶ bounded conn queue ──▶ handler pool (N threads)
//!                                            │ Predict / PullModel ──▶ ModelStore (published snapshots)
//!                                            │ PushGradient: decode ──▶ bounded push queue
//!                                            │ PullRound ◀── round board        │
//!                                            │                  ▲               │
//!                                            trainer thread ────┘◀──────────────┘
//!                                            (coalesce per round → post → combine → apply → publish)
//! ```
//!
//! **The round is the W frames.** What a round changes is fully described by
//! the codec frames the workers pushed for it, so that is what the downlink
//! carries: the trainer posts a closed round's frames on the board *before*
//! it does any arithmetic, the handlers forward them (each worker gets the
//! others' frames; it kept its own), and every worker runs the decode →
//! [`combine`] → `apply_gradient` the trainer runs, on a replica of model and
//! optimizer that stays bit-identical to the server's. No weights cross the
//! wire in steady state. A replica that is not exactly one round behind — a
//! respawned worker, a straggler that lost two rounds — is sent the live
//! training state instead, serialised by the handler under the mutex the
//! trainer takes only to apply a round.
//!
//! Each handler decodes the push it accepts with its own scratch, so the W
//! decodes of a round run in parallel and overlap the wait for the slowest
//! worker; a frame that does not decode, or decodes to another dimension, is
//! refused at the door and never reaches the trainer.
//!
//! Backpressure is bounded-queue at both seams: a full connection queue
//! refuses the socket with a typed `Backpressure` error before any protocol
//! work, and a full push queue answers `PushAck{Backpressure}` so the worker
//! retries instead of piling unbounded memory onto the server.

use crate::error::{ErrorCode, NetError};
use crate::obs;
use crate::sock::{Conn, Listener};
use crate::store::{ModelSnapshot, ModelStore};
use crate::wire::{self, PredictInstance, PushStatus, Request, Response, PROTOCOL_VERSION};
use serde::{Deserialize, Serialize};
use sketchml_cluster::driver::combine;
use sketchml_cluster::TrainSpec;
use sketchml_core::{compressor_by_name, CompressScratch, GradientCompressor, SparseGradient};
use sketchml_data::{Batcher, SparseDatasetSpec};
use sketchml_ml::{Checkpoint, GlmModel, Instance, OptimizerState, SparseVector};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Everything a serve session needs; the server is the single config
/// authority, shipped to workers via `GetConfig` so a recovering worker
/// needs nothing but the address and its id.
#[derive(Debug, Clone, Serialize)]
pub struct ServeSetup {
    /// Synthetic dataset recipe; workers regenerate the identical split.
    pub dataset: SparseDatasetSpec,
    /// Training hyper-parameters (seed drives the shared batch shuffle).
    pub spec: TrainSpec,
    /// Number of training workers expected each round.
    pub workers: usize,
    /// Mini-batch fraction per round (matches `ClusterConfig::batch_ratio`).
    pub batch_ratio: f64,
    /// Registry name of the gradient compressor (e.g. `sketchml`, `adam`).
    pub compressor: String,
    /// After the first push of a round arrives, wait at most this long for
    /// the stragglers before aggregating a partial round.
    pub round_timeout_ms: u64,
    /// Abort training if no push at all arrives for this long.
    pub idle_timeout_ms: u64,
    /// Artificial delay after each round (lets tests widen kill windows).
    pub round_sleep_ms: u64,
}

// Hand-written (repo idiom): fields added later default instead of failing,
// so older clients keep parsing newer servers' configs.
impl serde::Deserialize for ServeSetup {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_obj()
            .ok_or_else(|| serde::Error::custom("ServeSetup: expected an object"))?;
        let opt_u64 = |name: &str, default: u64| -> Result<u64, serde::Error> {
            match serde::field(obj, name) {
                Ok(val) => serde::Deserialize::from_value(val),
                Err(_) => Ok(default),
            }
        };
        Ok(ServeSetup {
            dataset: serde::Deserialize::from_value(serde::field(obj, "dataset")?)?,
            spec: serde::Deserialize::from_value(serde::field(obj, "spec")?)?,
            workers: serde::Deserialize::from_value(serde::field(obj, "workers")?)?,
            batch_ratio: serde::Deserialize::from_value(serde::field(obj, "batch_ratio")?)?,
            compressor: serde::Deserialize::from_value(serde::field(obj, "compressor")?)?,
            round_timeout_ms: opt_u64("round_timeout_ms", 2_000)?,
            idle_timeout_ms: opt_u64("idle_timeout_ms", 30_000)?,
            round_sleep_ms: opt_u64("round_sleep_ms", 0)?,
        })
    }
}

impl ServeSetup {
    /// A setup with the paper's cluster1 defaults for `workers` workers.
    pub fn new(dataset: SparseDatasetSpec, spec: TrainSpec, workers: usize) -> Self {
        ServeSetup {
            dataset,
            spec,
            workers,
            batch_ratio: 0.1,
            compressor: "sketchml".into(),
            round_timeout_ms: 2_000,
            idle_timeout_ms: 30_000,
            round_sleep_ms: 0,
        }
    }

    /// Validates ranges that the trainer thread depends on.
    ///
    /// # Errors
    /// [`NetError::InvalidConfig`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), NetError> {
        if self.workers == 0 {
            return Err(NetError::InvalidConfig("workers must be positive".into()));
        }
        if !(self.batch_ratio > 0.0 && self.batch_ratio <= 1.0) {
            return Err(NetError::InvalidConfig(format!(
                "batch_ratio must be in (0, 1], got {}",
                self.batch_ratio
            )));
        }
        if self.dataset.instances == 0 {
            return Err(NetError::InvalidConfig("dataset is empty".into()));
        }
        Ok(())
    }

    /// The training state of round 0: the zero model and the fresh optimizer
    /// of this setup. The server's trainer and every worker's replica start
    /// from this one construction, which is why nothing dense has to cross
    /// the link to start.
    ///
    /// # Errors
    /// [`NetError::InvalidConfig`] if no model or optimizer can be built.
    pub fn fresh_state(&self) -> Result<(GlmModel, OptimizerState), NetError> {
        let dim = self.dataset.features as usize;
        let invalid = |e: sketchml_ml::MlError| NetError::InvalidConfig(e.to_string());
        Ok((
            GlmModel::new(dim, self.spec.loss, self.spec.l2).map_err(invalid)?,
            OptimizerState::build(self.spec.optimizer, self.spec.opt_state, dim)
                .map_err(invalid)?,
        ))
    }
}

/// Final figures of one serve session, also exposed via `GetStats` when
/// training completes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServeSummary {
    /// Global rounds aggregated.
    pub rounds: u64,
    /// Epochs completed.
    pub epochs_done: u64,
    /// Test loss after the final epoch.
    pub final_test_loss: f64,
    /// Best (lowest) per-epoch test loss.
    pub best_test_loss: f64,
    /// Final test accuracy (classification only).
    pub accuracy: Option<f64>,
    /// Rounds aggregated with every expected worker present.
    pub full_rounds: u64,
    /// Rounds aggregated after the straggler timeout with a partial set.
    pub partial_rounds: u64,
    /// True if the session was shut down before `max_epochs`.
    pub aborted: bool,
}

/// One accepted push, decoded by its handler and queued for the trainer.
struct PushEnvelope {
    worker: u32,
    round: u64,
    instances: u64,
    /// The codec frame as received: what the other workers are sent.
    frame: Arc<Vec<u8>>,
    /// What it decodes to: the trainer's part of the round.
    part: SparseGradient,
}

/// Bounded MPSC queue: handler threads push, the trainer pops.
struct PushQueue {
    inner: Mutex<VecDeque<PushEnvelope>>,
    cap: usize,
    nonempty: Condvar,
}

impl PushQueue {
    fn new(cap: usize) -> Self {
        PushQueue {
            inner: Mutex::new(VecDeque::new()),
            cap,
            nonempty: Condvar::new(),
        }
    }

    /// `false` if the queue is full (backpressure).
    fn try_push(&self, env: PushEnvelope) -> bool {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= self.cap {
            return false;
        }
        q.push_back(env);
        obs::queue_depth(q.len() as u64);
        self.nonempty.notify_one();
        true
    }

    fn pop_timeout(&self, timeout: Duration) -> Option<PushEnvelope> {
        let deadline = Instant::now() + timeout;
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(env) = q.pop_front() {
                return Some(env);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .nonempty
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
        }
    }
}

/// One closed round, as the handlers forward it.
struct ClosedRound {
    /// Rounds applied once this one is.
    round: u64,
    /// Epoch (0-based) it belongs to.
    epoch: u32,
    /// `(worker, instances, frame)` by ascending worker id.
    members: Vec<(u32, u64, Arc<Vec<u8>>)>,
}

/// Where the lock-step protocol stands.
#[derive(Clone, Default)]
struct Board {
    /// Rounds closed so far: the round a push must be for to count. Ahead of
    /// the published model's round while the trainer aggregates, evaluates
    /// or checkpoints.
    closed: u64,
    /// No round will close after `closed`.
    done: bool,
    /// Round `closed` itself; only the latest is kept — a worker further
    /// behind is sent the live state.
    last: Option<Arc<ClosedRound>>,
    /// Members of the final round that have not been sent it yet: the run
    /// is not over for them.
    unsent: Vec<u32>,
}

/// The board plus the condvar `PullRound` handlers wait on.
#[derive(Default)]
struct RoundBoard {
    state: Mutex<Board>,
    advanced: Condvar,
}

impl RoundBoard {
    fn now(&self) -> Board {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Posts a closed round (`done`: it is the last) and wakes every waiter.
    fn post(&self, round: ClosedRound, done: bool) {
        let mut b = self.state.lock().unwrap_or_else(|e| e.into_inner());
        b.closed = round.round;
        b.done |= done;
        if done {
            b.unsent = round.members.iter().map(|m| m.0).collect();
        }
        b.last = Some(Arc::new(round));
        self.advanced.notify_all();
    }

    /// `worker` has been sent the final round.
    fn sent_final(&self, worker: u32) {
        let mut b = self.state.lock().unwrap_or_else(|e| e.into_inner());
        b.unsent.retain(|&w| w != worker);
        self.advanced.notify_all();
    }

    /// Waits, up to `timeout`, until every member of the final round has
    /// been sent it.
    fn wait_final_sent(&self, timeout: Duration) {
        let b = self.state.lock().unwrap_or_else(|e| e.into_inner());
        drop(
            self.advanced
                .wait_timeout_while(b, timeout, |b| !b.unsent.is_empty())
                .unwrap_or_else(|e| e.into_inner()),
        );
    }

    /// Training is over (finished, aborted or shut down): nobody waits for
    /// a round, or for a worker to collect one, any more.
    fn finish(&self) {
        let mut b = self.state.lock().unwrap_or_else(|e| e.into_inner());
        b.done = true;
        b.unsent.clear();
        self.advanced.notify_all();
    }

    /// The board once round `have` is no longer the latest (or training is
    /// over), waiting up to `timeout` for that.
    fn wait_past(&self, have: u64, timeout: Duration) -> Board {
        let deadline = Instant::now() + timeout;
        let mut b = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let now = Instant::now();
            if b.closed != have || b.done || now >= deadline {
                return b.clone();
            }
            b = self
                .advanced
                .wait_timeout(b, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// The training state the trainer steps: what every worker's replica equals
/// once it has applied the same `rounds`.
struct Live {
    model: GlmModel,
    opt: OptimizerState,
    rounds: u64,
    epochs_done: usize,
}

/// Live server counters (also mirrored into the global telemetry registry
/// when a session is recording).
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    predicts: AtomicU64,
    predict_instances: AtomicU64,
    pushes: AtomicU64,
    pulls: AtomicU64,
    pulls_dense: AtomicU64,
    pulls_round: AtomicU64,
    pulls_state: AtomicU64,
    bytes_down: AtomicU64,
    bytes_up: AtomicU64,
    stale_pushes: AtomicU64,
    rejected_pushes: AtomicU64,
    backpressure: AtomicU64,
    refused_conns: AtomicU64,
    inflight: AtomicU64,
    /// Microseconds the trainer spent on the latest epoch end, from the
    /// last round's publish to the epoch's: evaluation, checkpoint, publish.
    epoch_end_us_last: AtomicU64,
    epoch_end_us_max: AtomicU64,
}

/// Shared state between the runtime threads and [`ServerHandle`].
struct Shared {
    setup: ServeSetup,
    setup_json: String,
    store: ModelStore,
    board: RoundBoard,
    /// Locked by the trainer to apply a round and to write the end-of-epoch
    /// checkpoint, by a handler to serialise the state for a worker that
    /// cannot be stepped to it.
    live: Mutex<Live>,
    /// Decodes pushes at the door (each handler with its own scratch).
    compressor: Box<dyn GradientCompressor>,
    queue: PushQueue,
    counters: Counters,
    shutdown: AtomicBool,
    /// Latest end-of-epoch checkpoint: `(epochs_done, serialized bytes)`,
    /// swapped whole so a reply never holds the lock while it writes.
    checkpoint: Mutex<Option<(u64, Arc<Vec<u8>>)>>,
    summary: Mutex<Option<ServeSummary>>,
    /// Live connections by id: shutdown closes them so handler threads
    /// blocked mid-read unblock instead of pinning `join()` forever.
    conns: Mutex<std::collections::HashMap<u64, Conn>>,
    conn_seq: AtomicU64,
    /// The bound address; shutdown self-connects to unblock `accept()`.
    addr: String,
}

impl Shared {
    fn register_conn(&self, conn: &Conn) -> Option<u64> {
        let handle = conn.try_clone().ok()?;
        let id = self.conn_seq.fetch_add(1, Ordering::Relaxed);
        self.conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(id, handle);
        Some(id)
    }

    fn unregister_conn(&self, id: Option<u64>) {
        if let Some(id) = id {
            self.conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&id);
        }
    }

    fn close_all_conns(&self) {
        for (_, conn) in self.conns.lock().unwrap_or_else(|e| e.into_inner()).drain() {
            conn.shutdown();
        }
    }
}

impl Shared {
    fn stats_json(&self) -> String {
        #[derive(Serialize)]
        struct Stats {
            round: u64,
            epoch: u32,
            done: bool,
            connections: u64,
            requests: u64,
            predicts: u64,
            predict_instances: u64,
            pushes: u64,
            pulls: u64,
            stale_pushes: u64,
            backpressure_rejects: u64,
            refused_connections: u64,
            summary: Option<ServeSummary>,
            /// Pulls answered with the dense `Model` frame.
            pulls_dense: u64,
            /// Pulls answered with a `Round` frame.
            pulls_round: u64,
            /// Pulls answered with a `State` frame.
            pulls_state: u64,
            /// Bytes of the `Model`, `Round` and `State` frames sent.
            bytes_down: u64,
            /// Bytes of the `PushGradient` frames received.
            bytes_up: u64,
            /// Pushes refused for a future round, an unknown worker id, an
            /// instance count above the dataset's, a non-finite loss sum, or
            /// a frame that does not decode to a gradient of the model's
            /// dimension.
            rejected_pushes: u64,
            /// Milliseconds the trainer spent on the latest epoch end.
            epoch_end_ms_last: f64,
            /// The longest epoch end so far, in milliseconds.
            epoch_end_ms_max: f64,
            /// Bytes of the checkpoint `GetCheckpoint` serves (0: none yet).
            checkpoint_bytes: u64,
        }
        let snap = self.store.snapshot();
        let summary = self
            .summary
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let checkpoint_bytes = self
            .checkpoint
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map_or(0, |(_, bytes)| bytes.len() as u64);
        let c = &self.counters;
        let stats = Stats {
            round: snap.round,
            epoch: snap.epoch,
            done: snap.done,
            connections: c.connections.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            predicts: c.predicts.load(Ordering::Relaxed),
            predict_instances: c.predict_instances.load(Ordering::Relaxed),
            pushes: c.pushes.load(Ordering::Relaxed),
            pulls: c.pulls.load(Ordering::Relaxed),
            stale_pushes: c.stale_pushes.load(Ordering::Relaxed),
            backpressure_rejects: c.backpressure.load(Ordering::Relaxed),
            refused_connections: c.refused_conns.load(Ordering::Relaxed),
            summary,
            pulls_dense: c.pulls_dense.load(Ordering::Relaxed),
            pulls_round: c.pulls_round.load(Ordering::Relaxed),
            pulls_state: c.pulls_state.load(Ordering::Relaxed),
            bytes_down: c.bytes_down.load(Ordering::Relaxed),
            bytes_up: c.bytes_up.load(Ordering::Relaxed),
            rejected_pushes: c.rejected_pushes.load(Ordering::Relaxed),
            epoch_end_ms_last: c.epoch_end_us_last.load(Ordering::Relaxed) as f64 / 1e3,
            epoch_end_ms_max: c.epoch_end_us_max.load(Ordering::Relaxed) as f64 / 1e3,
            checkpoint_bytes,
        };
        serde_json::to_string(&stats).unwrap_or_else(|_| "{}".into())
    }
}

/// A running server; dropping the handle does NOT stop it — call
/// [`shutdown`](Self::shutdown) then [`join`](Self::join).
pub struct Server {
    shared: Arc<Shared>,
    addr: String,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the full runtime (accept loop, handler pool, trainer thread)
    /// on an already-bound listener.
    ///
    /// # Errors
    /// [`NetError::InvalidConfig`] for a bad setup or unknown compressor.
    pub fn start(setup: ServeSetup, listener: Listener) -> Result<Server, NetError> {
        setup.validate()?;
        // Fail fast on an unknown compressor name (workers resolve it too).
        let compressor = compressor_by_name(&setup.compressor)?;
        let (model, opt) = setup.fresh_state()?;
        let setup_json = serde_json::to_string(&setup)
            .map_err(|e| NetError::InvalidConfig(format!("setup does not serialize: {e}")))?;
        let addr = listener.local_desc();
        let shared = Arc::new(Shared {
            queue: PushQueue::new(setup.workers.saturating_mul(4).max(8)),
            store: ModelStore::new(model.clone()),
            board: RoundBoard::default(),
            live: Mutex::new(Live {
                model,
                opt,
                rounds: 0,
                epochs_done: 0,
            }),
            compressor,
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            checkpoint: Mutex::new(None),
            summary: Mutex::new(None),
            conns: Mutex::new(std::collections::HashMap::new()),
            conn_seq: AtomicU64::new(0),
            addr: addr.clone(),
            setup_json,
            setup,
        });

        let mut threads = Vec::new();
        // Handler pool fed by a bounded connection queue.
        let pool_size = (shared.setup.workers + 4).min(16);
        let conn_queue: Arc<(Mutex<VecDeque<Conn>>, Condvar)> =
            Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));
        let conn_cap = pool_size * 4;
        for _ in 0..pool_size {
            let shared = Arc::clone(&shared);
            let cq = Arc::clone(&conn_queue);
            threads.push(std::thread::spawn(move || handler_loop(&shared, &cq)));
        }
        {
            let shared = Arc::clone(&shared);
            let cq = Arc::clone(&conn_queue);
            threads.push(std::thread::spawn(move || {
                accept_loop(&shared, &listener, &cq, conn_cap);
            }));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || trainer_loop(&shared)));
        }
        Ok(Server {
            shared,
            addr,
            threads,
        })
    }

    /// Convenience: bind a loopback TCP listener and start.
    ///
    /// # Errors
    /// [`NetError::Io`] on bind failure, plus everything [`Self::start`]
    /// can return.
    pub fn bind_tcp(setup: ServeSetup, addr: &str) -> Result<Server, NetError> {
        Server::start(setup, Listener::bind_tcp(addr)?)
    }

    /// The bound address (`tcp://ip:port` / `unix://path`), with the
    /// OS-resolved port when bound to port 0.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The live model store (for in-process benches and tests).
    pub fn store(&self) -> &ModelStore {
        &self.shared.store
    }

    /// Current counters as JSON (same document `GetStats` serves).
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// Signals every runtime thread to stop.
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Blocks until the trainer finished (or the server was shut down) and
    /// all threads exited; returns the training summary.
    pub fn join(mut self) -> ServeSummary {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.shared
            .summary
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .unwrap_or_default()
    }

    /// Blocks until training completes (without shutting the server down —
    /// it keeps serving `Predict`), returning the summary.
    pub fn wait_trained(&self) -> ServeSummary {
        loop {
            if let Some(s) = self
                .shared
                .summary
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone()
            {
                return s;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

fn begin_shutdown(shared: &Arc<Shared>) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // Unblock any handler parked in wait_for_round or on the round board,
    // and the trainer's pop_timeout (it polls the flag).
    shared.board.finish();
    shared.store.publish(ModelSnapshot {
        done: true,
        ..clone_snapshot(&shared.store.snapshot())
    });
    // Closing live connections unblocks handlers parked in a read; the
    // throwaway connect unblocks the accept loop itself.
    shared.close_all_conns();
    if let Ok(c) = Conn::connect(&shared.addr) {
        c.shutdown();
    }
}

fn clone_snapshot(s: &ModelSnapshot) -> ModelSnapshot {
    ModelSnapshot {
        round: s.round,
        epoch: s.epoch,
        done: s.done,
        model: s.model.clone(),
    }
}

// ---------------------------------------------------------------------------
// Accept loop + handler pool
// ---------------------------------------------------------------------------

fn accept_loop(
    shared: &Arc<Shared>,
    listener: &Listener,
    cq: &Arc<(Mutex<VecDeque<Conn>>, Condvar)>,
    cap: usize,
) {
    loop {
        let conn = match listener.accept() {
            Ok(c) => c,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        obs::connection();
        let (q, cv) = &**cq;
        let mut q = q.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= cap {
            // Bounded connection queue: refuse with a typed error before
            // doing any protocol work.
            drop(q);
            shared
                .counters
                .refused_conns
                .fetch_add(1, Ordering::Relaxed);
            let mut w = BufWriter::new(conn);
            let _ = Response::Error {
                code: ErrorCode::Backpressure,
                message: "connection queue full".into(),
            }
            .write_to(&mut w);
            continue;
        }
        q.push_back(conn);
        cv.notify_one();
    }
    // Wake every parked handler so the pool can exit.
    let (q, cv) = &**cq;
    drop(q.lock().unwrap_or_else(|e| e.into_inner()));
    cv.notify_all();
}

fn handler_loop(shared: &Arc<Shared>, cq: &Arc<(Mutex<VecDeque<Conn>>, Condvar)>) {
    loop {
        let conn = {
            let (q, cv) = &**cq;
            let mut q = q.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(c) = q.pop_front() {
                    break c;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _) = cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
        };
        // Errors on one connection only tear down that connection.
        let id = shared.register_conn(&conn);
        let _ = serve_connection(shared, conn);
        shared.unregister_conn(id);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Serves one connection until EOF, a protocol error, or shutdown.
fn serve_connection(shared: &Arc<Shared>, conn: Conn) -> Result<(), NetError> {
    let writer_conn = conn.try_clone()?;
    let mut reader = BufReader::new(conn);
    let mut writer = BufWriter::new(writer_conn);

    // Version negotiation first: anything else on a fresh connection is a
    // protocol error.
    match Request::read_from(&mut reader)? {
        Request::Hello {
            min_version,
            max_version,
        } => {
            if min_version > PROTOCOL_VERSION || max_version < PROTOCOL_VERSION {
                Response::Error {
                    code: ErrorCode::Version,
                    message: format!("server speaks only version {PROTOCOL_VERSION}"),
                }
                .write_to(&mut writer)?;
                return Err(NetError::VersionMismatch {
                    min: min_version,
                    max: max_version,
                });
            }
            Response::HelloAck {
                version: PROTOCOL_VERSION,
            }
            .write_to(&mut writer)?;
        }
        _ => {
            Response::Error {
                code: ErrorCode::Malformed,
                message: "expected Hello as the first request".into(),
            }
            .write_to(&mut writer)?;
            return Err(NetError::Protocol("no Hello".into()));
        }
    }

    // Per-connection snapshot cache for predict coalescing: consecutive
    // Predict frames already sitting in the read buffer score against one
    // snapshot clone instead of hitting the store per request.
    let mut cached: Option<Arc<ModelSnapshot>> = None;
    // This connection's codec scratch: its pushes are decoded on this thread.
    let mut scratch = CompressScratch::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let (req, frame_len) = match Request::read_sized(&mut reader) {
            Ok(r) => r,
            Err(NetError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Ok(()); // clean disconnect
            }
            Err(NetError::Protocol(m)) => {
                // Answer typed, then drop the connection: after a grammar
                // violation the stream offset can no longer be trusted.
                let _ = Response::Error {
                    code: ErrorCode::Malformed,
                    message: m.clone(),
                }
                .write_to(&mut writer);
                return Err(NetError::Protocol(m));
            }
            Err(e) => return Err(e),
        };
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        let inflight = shared.counters.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        obs::request(inflight);
        if matches!(req, Request::PushGradient { .. }) {
            shared
                .counters
                .bytes_up
                .fetch_add(frame_len as u64, Ordering::Relaxed);
            obs::push_bytes(frame_len as u64);
        }
        let result = handle_request(
            shared,
            req,
            &mut cached,
            &mut scratch,
            &mut reader,
            &mut writer,
        );
        shared.counters.inflight.fetch_sub(1, Ordering::Relaxed);
        match result {
            Ok(true) => {}
            Ok(false) => return Ok(()), // shutdown requested
            Err(e) => return Err(e),
        }
    }
}

/// Handles one decoded request; `Ok(false)` ends the connection.
fn handle_request(
    shared: &Arc<Shared>,
    req: Request,
    cached: &mut Option<Arc<ModelSnapshot>>,
    scratch: &mut CompressScratch,
    reader: &mut BufReader<Conn>,
    writer: &mut BufWriter<Conn>,
) -> Result<bool, NetError> {
    match req {
        Request::Hello { .. } => {
            Response::Error {
                code: ErrorCode::BadState,
                message: "session already negotiated".into(),
            }
            .write_to(writer)?;
        }
        Request::GetConfig => {
            Response::Config {
                json: shared.setup_json.clone(),
            }
            .write_to(writer)?;
        }
        Request::PullModel {
            worker: _,
            round,
            wait,
        } => reply_model(shared, round, wait, writer)?,
        Request::PullRound {
            worker,
            have_round,
            wait,
        } => reply_round(shared, worker, have_round, wait, writer)?,
        Request::PushGradient {
            worker,
            round,
            loss_sum,
            instances,
            payload,
        } => {
            // Against the rounds closed, not the published model's: workers
            // start the next round while the trainer is still aggregating,
            // evaluating or checkpointing this one.
            let board = shared.board.now();
            let dataset_instances = shared.setup.dataset.instances as u64;
            let dim = shared.setup.dataset.features as u64;
            let mut part = SparseGradient::empty(0);
            let refusal = if worker as usize >= shared.setup.workers
                || (round > board.closed && !board.done)
            {
                // The trainer would drop it unseen: say so, and keep the
                // bounded queue for pushes that can count.
                Some(format!(
                    "the session has {} workers and is at round {}",
                    shared.setup.workers, board.closed
                ))
            } else if instances > dataset_instances || !loss_sum.is_finite() {
                // The round weights every part by these two claims: no slice
                // is larger than the dataset, and one forged count or NaN loss
                // would overflow or poison the whole round.
                Some(format!(
                    "claims {instances} of {dataset_instances} instances, loss sum {loss_sum}"
                ))
            } else if board.done || round < board.closed {
                None
            } else {
                // The frame is forwarded to every other worker and summed
                // into the model: it has to decode, here, before it counts.
                match shared
                    .compressor
                    .decompress_into(&payload, scratch, &mut part)
                {
                    Err(e) => Some(format!("its frame does not decode: {e}")),
                    Ok(()) if part.dim() != dim => Some(format!(
                        "its frame holds a gradient of dimension {}, the model has {dim}",
                        part.dim()
                    )),
                    Ok(()) => None,
                }
            };
            if let Some(reason) = refusal {
                shared
                    .counters
                    .rejected_pushes
                    .fetch_add(1, Ordering::Relaxed);
                obs::rejected_push();
                Response::Error {
                    code: ErrorCode::BadState,
                    message: format!(
                        "push from worker {worker} for round {round} refused: {reason}"
                    ),
                }
                .write_to(writer)?;
                return Ok(true);
            }
            let status = if board.done {
                PushStatus::Done
            } else if round < board.closed {
                shared.counters.stale_pushes.fetch_add(1, Ordering::Relaxed);
                PushStatus::Stale
            } else if shared.queue.try_push(PushEnvelope {
                worker,
                round,
                instances,
                frame: Arc::new(payload),
                part,
            }) {
                shared.counters.pushes.fetch_add(1, Ordering::Relaxed);
                obs::push();
                PushStatus::Accepted
            } else {
                shared.counters.backpressure.fetch_add(1, Ordering::Relaxed);
                obs::backpressure();
                PushStatus::Backpressure
            };
            Response::PushAck {
                status,
                round: board.closed,
            }
            .write_to(writer)?;
        }
        Request::Predict { instances } => {
            // Coalescing: reuse the cached snapshot while more requests are
            // already buffered on this connection; refresh once the burst
            // drains so a long-lived client still observes training updates.
            let snap = cached.take().unwrap_or_else(|| shared.store.snapshot());
            let scores = score_batch(&snap.model, instances)?;
            shared.counters.predicts.fetch_add(1, Ordering::Relaxed);
            shared
                .counters
                .predict_instances
                .fetch_add(scores.len() as u64, Ordering::Relaxed);
            obs::predict(scores.len() as u64);
            Response::Prediction { scores }.write_to(writer)?;
            if !std::io::BufRead::fill_buf(reader)
                .map(|b| b.is_empty())
                .unwrap_or(true)
            {
                *cached = Some(snap);
            }
        }
        Request::GetCheckpoint => {
            // Clones the `Arc`, not the blob: the lock is gone before the
            // first byte is written.
            let ck = shared
                .checkpoint
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            match ck {
                Some((epochs_done, bytes)) => {
                    wire::write_checkpoint_blob(writer, epochs_done, &bytes)?;
                }
                None => {
                    Response::Error {
                        code: ErrorCode::BadState,
                        message: "no checkpoint captured yet".into(),
                    }
                    .write_to(writer)?;
                }
            }
        }
        Request::GetStats => {
            Response::Stats {
                json: shared.stats_json(),
            }
            .write_to(writer)?;
        }
        Request::Shutdown => {
            Response::ShutdownAck.write_to(writer)?;
            writer.flush().ok();
            begin_shutdown(shared);
            return Ok(false);
        }
    }
    Ok(true)
}

/// Answers a dense pull — an inference client's, or the benchmark's final
/// check — straight from the published snapshot.
fn reply_model(
    shared: &Shared,
    round: u64,
    wait: bool,
    writer: &mut BufWriter<Conn>,
) -> Result<(), NetError> {
    let snap = if wait {
        shared
            .store
            .wait_for_round(round, Duration::from_millis(10_000))
    } else {
        shared.store.snapshot()
    };
    let sent = wire::write_model(
        writer,
        snap.round,
        snap.epoch,
        snap.done,
        &snap.model.weights,
    )?;
    count_pull(shared, obs::Pull::Dense, sent);
    Ok(())
}

/// Answers a worker whose replica has `have_round` rounds applied. If the
/// latest closed round is the one that follows, its frames (the worker's own
/// left out: it kept the bytes it pushed); if nothing has closed since, or
/// training is over, an empty round; otherwise — a respawned worker, one
/// that lost two rounds to straggler timeouts — the live training state.
fn reply_round(
    shared: &Shared,
    worker: u32,
    have_round: u64,
    wait: bool,
    writer: &mut BufWriter<Conn>,
) -> Result<(), NetError> {
    let timeout = Duration::from_millis(if wait { 10_000 } else { 0 });
    let board = shared.board.wait_past(have_round, timeout);
    let next = board
        .last
        .as_ref()
        .filter(|last| have_round.checked_add(1) == Some(last.round));
    if let Some(last) = next {
        let members = last
            .members
            .iter()
            .map(|(w, n, frame)| (*w, *n, (*w != worker).then_some(frame.as_slice())));
        let sent = wire::write_round(
            writer, have_round, last.round, last.epoch, board.done, members,
        )?;
        count_pull(shared, obs::Pull::Round, sent);
        if board.done {
            shared.board.sent_final(worker);
        }
    } else if board.closed == have_round || board.done {
        let epoch = board.last.as_ref().map_or(0, |last| last.epoch);
        let sent = wire::write_round(
            writer,
            have_round,
            have_round,
            epoch,
            board.done,
            std::iter::empty(),
        )?;
        count_pull(shared, obs::Pull::Round, sent);
    } else {
        // Under the lock only for the copy: the trainer holds it only while
        // it applies a round, never while it waits for one.
        let mut bytes = Vec::new();
        let rounds = {
            let live = shared.live.lock().unwrap_or_else(|e| e.into_inner());
            Checkpoint::write_parts(&live.model, &live.opt, live.epochs_done, &mut bytes);
            live.rounds
        };
        let sent = wire::write_state(writer, rounds, &bytes)?;
        count_pull(shared, obs::Pull::State, sent);
    }
    Ok(())
}

fn count_pull(shared: &Shared, kind: obs::Pull, sent: usize) {
    let c = &shared.counters;
    match kind {
        obs::Pull::Dense => &c.pulls_dense,
        obs::Pull::Round => &c.pulls_round,
        obs::Pull::State => &c.pulls_state,
    }
    .fetch_add(1, Ordering::Relaxed);
    c.pulls.fetch_add(1, Ordering::Relaxed);
    c.bytes_down.fetch_add(sent as u64, Ordering::Relaxed);
    obs::pull(kind, sent as u64);
}

fn score_batch(model: &GlmModel, instances: Vec<PredictInstance>) -> Result<Vec<f64>, NetError> {
    let mut scores = Vec::with_capacity(instances.len());
    for inst in instances {
        let features = SparseVector::new(inst.indices, inst.values)
            .map_err(|e| NetError::Protocol(format!("predict instance: {e}")))?;
        scores.push(model.score(&Instance::new(features, 0.0)));
    }
    Ok(scores)
}

// ---------------------------------------------------------------------------
// Trainer thread
// ---------------------------------------------------------------------------

fn trainer_loop(shared: &Arc<Shared>) {
    let result = run_training(shared);
    let mut summary = match result {
        Ok(s) => s,
        Err(e) => {
            // Surface the abort through stats; tests read `aborted`.
            let snap = shared.store.snapshot();
            eprintln!("trainer aborted at round {}: {e}", snap.round);
            ServeSummary {
                rounds: snap.round,
                epochs_done: u64::from(snap.epoch),
                aborted: true,
                ..ServeSummary::default()
            }
        }
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        summary.aborted =
            summary.aborted || summary.epochs_done < shared.setup.spec.max_epochs as u64;
    }
    // Mark both planes done so blocked pulls drain.
    shared.board.finish();
    shared.store.publish(ModelSnapshot {
        done: true,
        ..clone_snapshot(&shared.store.snapshot())
    });
    *shared.summary.lock().unwrap_or_else(|e| e.into_inner()) = Some(summary);
}

fn run_training(shared: &Arc<Shared>) -> Result<ServeSummary, NetError> {
    let setup = &shared.setup;
    let spec = setup.spec;
    let (train, test) = setup.dataset.generate_split();
    let mut batcher = Batcher::new(train.len(), setup.batch_ratio, spec.seed);
    let mut summary = ServeSummary {
        best_test_loss: f64::INFINITY,
        ..ServeSummary::default()
    };
    let mut round = 0u64;

    'epochs: for epoch in 1..=spec.max_epochs {
        let batches = batcher.epoch();
        for batch in 1..=batches.len() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break 'epochs;
            }
            let pushes = collect_round(shared, round)?;
            if pushes.len() == setup.workers {
                summary.full_rounds += 1;
                obs::coalesced_round();
            } else {
                summary.partial_rounds += 1;
            }
            round += 1;
            summary.rounds = round;
            // The round is these frames. Posted before any arithmetic: the
            // handlers forward them and every worker steps its replica while
            // this thread steps the model, so nothing below — nor the epoch
            // end — is on the workers' path.
            shared.board.post(
                ClosedRound {
                    round,
                    epoch: (epoch - 1) as u32,
                    members: pushes
                        .iter()
                        .map(|p| (p.worker, p.instances, Arc::clone(&p.frame)))
                        .collect(),
                },
                epoch == spec.max_epochs && batch == batches.len(),
            );
            // The handlers held every count to the dataset's.
            let instances: Vec<usize> = pushes.iter().map(|p| p.instances as usize).collect();
            let mut parts: Vec<SparseGradient> = pushes.into_iter().map(|p| p.part).collect();
            let gradient = if parts.is_empty() {
                None
            } else {
                Some(combine(&mut parts, &instances)?)
            };
            let model = {
                let mut live = shared.live.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(g) = &gradient {
                    let Live { model, opt, .. } = &mut *live;
                    model.apply_gradient(opt, g.keys(), g.values());
                }
                live.rounds = round;
                live.model.clone()
            };
            if setup.round_sleep_ms > 0 {
                std::thread::sleep(Duration::from_millis(setup.round_sleep_ms));
            }
            shared.store.publish(ModelSnapshot {
                round,
                epoch: (epoch - 1) as u32,
                done: false,
                model,
            });
        }
        // Readers of the published model wait on the next publish for all
        // of this; the workers do not.
        let epoch_end = Instant::now();
        summary.epochs_done = epoch as u64;
        let published = shared.store.snapshot();
        let test_loss = published.model.mean_loss(&test);
        summary.final_test_loss = test_loss;
        summary.best_test_loss = summary.best_test_loss.min(test_loss);
        // End-of-epoch checkpoint, written from the live state and proven
        // loadable before it is served.
        let mut bytes = Vec::new();
        {
            let mut live = shared.live.lock().unwrap_or_else(|e| e.into_inner());
            live.epochs_done = epoch;
            Checkpoint::write_parts(&live.model, &live.opt, epoch, &mut bytes);
        }
        Checkpoint::validate(&bytes)
            .map_err(|e| NetError::InvalidConfig(format!("checkpoint: {e}")))?;
        let checkpoint_bytes = bytes.len() as u64;
        *shared.checkpoint.lock().unwrap_or_else(|e| e.into_inner()) =
            Some((epoch as u64, Arc::new(bytes)));
        // Re-publish with the completed-epoch count so pulls see progress.
        shared.store.publish(ModelSnapshot {
            round,
            epoch: epoch as u32,
            done: false,
            model: published.model.clone(),
        });
        let c = &shared.counters;
        let last = epoch_end.elapsed().as_micros() as u64;
        let max = c
            .epoch_end_us_max
            .fetch_max(last, Ordering::Relaxed)
            .max(last);
        c.epoch_end_us_last.store(last, Ordering::Relaxed);
        obs::epoch_end(last, max, checkpoint_bytes);
    }
    summary.accuracy = shared.store.snapshot().model.accuracy(&test);
    summary.aborted = summary.epochs_done < spec.max_epochs as u64;
    // The members of the last round are owed its frames. A server that stops
    // the moment training is done (`--linger-ms 0`) must not cut off a
    // worker that has not collected them yet; a worker that never does is
    // given the straggler's allowance.
    shared
        .board
        .wait_final_sent(Duration::from_millis(setup.round_timeout_ms.max(1)));
    Ok(summary)
}

/// Coalesces one round's pushes: waits for the first push (idle deadline),
/// then for the stragglers (round timeout), deduplicating by worker and
/// dropping pushes whose round closed while they were queued. Returns them
/// ordered by worker id — the order the in-process simulator aggregates in
/// and the order every replica is sent them in, so the float sums match.
fn collect_round(shared: &Arc<Shared>, round: u64) -> Result<Vec<PushEnvelope>, NetError> {
    let setup = &shared.setup;
    let mut slots: Vec<Option<PushEnvelope>> = (0..setup.workers).map(|_| None).collect();
    let mut got = 0usize;
    let idle = Duration::from_millis(setup.idle_timeout_ms.max(1));
    let straggler = Duration::from_millis(setup.round_timeout_ms.max(1));
    let mut first_at: Option<Instant> = None;
    let start = Instant::now();
    while got < setup.workers {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let deadline = match first_at {
            Some(t) => t + straggler,
            None => start + idle,
        };
        let now = Instant::now();
        if now >= deadline {
            if first_at.is_none() {
                return Err(NetError::InvalidConfig(format!(
                    "no push arrived for round {round} within {}ms",
                    setup.idle_timeout_ms
                )));
            }
            break; // close the round on the partial set
        }
        let Some(env) = shared
            .queue
            .pop_timeout((deadline - now).min(Duration::from_millis(100)))
        else {
            continue;
        };
        if env.round != round {
            // Stale: a slow worker's push was queued just before the
            // straggler timeout closed its round. (Worker ids and future
            // rounds were refused at the handler.)
            continue;
        }
        let slot = &mut slots[env.worker as usize];
        if slot.is_none() {
            *slot = Some(env);
            got += 1;
            if first_at.is_none() {
                first_at = Some(Instant::now());
            }
        }
    }
    Ok(slots.into_iter().flatten().collect())
}
