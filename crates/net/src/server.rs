//! Threaded parameter-server runtime.
//!
//! Thread anatomy:
//!
//! ```text
//! accept loop ──▶ bounded conn queue ──▶ handler pool (N threads)
//!                                            │ Predict / PullModel ──▶ ModelStore (epoch snapshots)
//!                                            │ PushGradient ──▶ bounded push queue
//!                                                                     │
//!                                            trainer thread ◀─────────┘
//!                                            (coalesce per round → aggregate → apply → publish)
//! ```
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
use sketchml_cluster::driver::{aggregate, DriverScratch};
use sketchml_cluster::network::CostModel;
use sketchml_cluster::worker::WorkerMessage;
use sketchml_cluster::TrainSpec;
use sketchml_core::compressor_by_name;
use sketchml_data::{Batcher, SparseDatasetSpec};
use sketchml_encoding::stats::SizeReport;
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

/// One accepted push, queued for the trainer thread.
struct PushEnvelope {
    worker: u32,
    round: u64,
    loss_sum: f64,
    instances: usize,
    payload: Vec<u8>,
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
    pulls_delta: AtomicU64,
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
    queue: PushQueue,
    counters: Counters,
    shutdown: AtomicBool,
    /// Latest end-of-epoch checkpoint: `(epochs_done, serialized bytes)`,
    /// swapped whole so a reply never holds the lock while it writes.
    checkpoint: Mutex<Option<(u64, Arc<Vec<u8>>)>>,
    summary: Mutex<Option<ServeSummary>>,
    cost: CostModel,
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
            /// Pulls answered with a `ModelDelta` frame.
            pulls_delta: u64,
            /// Bytes of the `Model` and `ModelDelta` frames sent.
            bytes_down: u64,
            /// Bytes of the `PushGradient` frames received.
            bytes_up: u64,
            /// Pushes refused for a future round, an unknown worker id, an
            /// instance count above the dataset's or a non-finite loss sum.
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
            pulls_delta: c.pulls_delta.load(Ordering::Relaxed),
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
        compressor_by_name(&setup.compressor)?;
        let dim = setup.dataset.features as usize;
        let model = GlmModel::new(dim, setup.spec.loss, setup.spec.l2)
            .map_err(|e| NetError::InvalidConfig(e.to_string()))?;
        let setup_json = serde_json::to_string(&setup)
            .map_err(|e| NetError::InvalidConfig(format!("setup does not serialize: {e}")))?;
        let addr = listener.local_desc();
        let shared = Arc::new(Shared {
            queue: PushQueue::new(setup.workers.saturating_mul(4).max(8)),
            store: ModelStore::new(model),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            checkpoint: Mutex::new(None),
            summary: Mutex::new(None),
            cost: CostModel::cluster1(),
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
    // Unblock any handler parked in wait_for_round and the trainer's
    // pop_timeout (they poll the flag); unblock the accept loop with a
    // throwaway connection.
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
        delta: s.delta.clone(),
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
        let result = handle_request(shared, req, &mut cached, &mut reader, &mut writer);
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
        } => reply_pull(shared, None, round, wait, writer)?,
        Request::PullDelta {
            worker: _,
            have_round,
            round,
            wait,
        } => reply_pull(shared, Some(have_round), round, wait, writer)?,
        Request::PushGradient {
            worker,
            round,
            loss_sum,
            instances,
            payload,
        } => {
            let snap = shared.store.snapshot();
            let dataset_instances = shared.setup.dataset.instances as u64;
            let refusal =
                if worker as usize >= shared.setup.workers || (round > snap.round && !snap.done) {
                    // The trainer would drop it unseen: say so, and keep the
                    // bounded queue for pushes that can count.
                    Some(format!(
                        "the session has {} workers and is at round {}",
                        shared.setup.workers, snap.round
                    ))
                } else if instances > dataset_instances || !loss_sum.is_finite() {
                    // The trainer weights every part of the round by these two
                    // claims: no slice is larger than the dataset, and one forged
                    // count or NaN loss would overflow or poison the whole round.
                    Some(format!(
                        "claims {instances} of {dataset_instances} instances, loss sum {loss_sum}"
                    ))
                } else {
                    None
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
            let (status, ack_round) = if snap.done {
                (PushStatus::Done, snap.round)
            } else if round < snap.round {
                shared.counters.stale_pushes.fetch_add(1, Ordering::Relaxed);
                (PushStatus::Stale, snap.round)
            } else if shared.queue.try_push(PushEnvelope {
                worker,
                round,
                loss_sum,
                instances: instances as usize,
                payload,
            }) {
                shared.counters.pushes.fetch_add(1, Ordering::Relaxed);
                obs::push();
                (PushStatus::Accepted, snap.round)
            } else {
                shared.counters.backpressure.fetch_add(1, Ordering::Relaxed);
                obs::backpressure();
                (PushStatus::Backpressure, snap.round)
            };
            Response::PushAck {
                status,
                round: ack_round,
            }
            .write_to(writer)?;
        }
        Request::Predict { instances } => {
            // Coalescing: reuse the cached snapshot while more requests are
            // already buffered on this connection; refresh once the burst
            // drains so a long-lived client still observes training updates.
            let snap = cached.take().unwrap_or_else(|| shared.store.snapshot());
            let scores = score_batch(&snap.model, &instances)?;
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
            // `addr` is not plumbed here; unblock accept via self-connect
            // from the shutdown initiator path instead.
            begin_shutdown(shared);
            return Ok(false);
        }
    }
    Ok(true)
}

/// Answers a pull. A worker that holds the model of `have_round` gets the
/// pairs that changed since: none if that is the current round, the retained
/// delta if it is the round before. Everyone else — a fresh or respawned
/// worker, a straggler that lost a round, an inference client — gets the
/// dense model, written straight from the snapshot.
fn reply_pull(
    shared: &Shared,
    have_round: Option<u64>,
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
    let delta = match (have_round, &snap.delta) {
        (Some(have), _) if have == snap.round => Some((have, wire::EMPTY_DELTA_SECTION)),
        (Some(have), Some(section)) if have.checked_add(1) == Some(snap.round) => {
            Some((have, section.as_slice()))
        }
        _ => None,
    };
    let c = &shared.counters;
    let sent = match delta {
        Some((have, section)) => {
            c.pulls_delta.fetch_add(1, Ordering::Relaxed);
            wire::write_model_delta(writer, have, snap.round, snap.epoch, snap.done, section)?
        }
        None => {
            c.pulls_dense.fetch_add(1, Ordering::Relaxed);
            wire::write_model(
                writer,
                snap.round,
                snap.epoch,
                snap.done,
                &snap.model.weights,
            )?
        }
    };
    c.pulls.fetch_add(1, Ordering::Relaxed);
    c.bytes_down.fetch_add(sent as u64, Ordering::Relaxed);
    obs::pull(delta.is_none(), sent as u64);
    Ok(())
}

fn score_batch(model: &GlmModel, instances: &[PredictInstance]) -> Result<Vec<f64>, NetError> {
    let mut scores = Vec::with_capacity(instances.len());
    for inst in instances {
        let features = SparseVector::new(inst.indices.clone(), inst.values.clone())
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
    // Final snapshot: mark done so blocked pulls drain.
    shared.store.publish(ModelSnapshot {
        done: true,
        ..clone_snapshot(&shared.store.snapshot())
    });
    *shared.summary.lock().unwrap_or_else(|e| e.into_inner()) = Some(summary);
}

fn run_training(shared: &Arc<Shared>) -> Result<ServeSummary, NetError> {
    let setup = &shared.setup;
    let spec = setup.spec;
    let dim = setup.dataset.features as usize;
    let (train, test) = setup.dataset.generate_split();
    let compressor = compressor_by_name(&setup.compressor)?;
    let mut model = shared.store.snapshot().model.clone();
    let mut opt = OptimizerState::build(spec.optimizer, spec.opt_state, dim)
        .map_err(|e| NetError::InvalidConfig(e.to_string()))?;
    let mut batcher = Batcher::new(train.len(), setup.batch_ratio, spec.seed);
    let mut ds = DriverScratch::new();
    let mut summary = ServeSummary {
        best_test_loss: f64::INFINITY,
        ..ServeSummary::default()
    };
    let mut round = 0u64;
    let mut delta = None;

    'epochs: for epoch in 1..=spec.max_epochs {
        let batches = batcher.epoch();
        for _batch in &batches {
            if shared.shutdown.load(Ordering::SeqCst) {
                break 'epochs;
            }
            let msgs = collect_round(shared, round)?;
            if msgs.len() == setup.workers {
                summary.full_rounds += 1;
                obs::coalesced_round();
            } else {
                summary.partial_rounds += 1;
            }
            // Every optimizer moves only the weights the aggregate names, so
            // those keys with their new values are the whole change of the
            // round: encoded here once, sent as is to every worker.
            let section = if msgs.is_empty() {
                wire::EMPTY_DELTA_SECTION.to_vec()
            } else {
                let agg = aggregate(
                    &msgs,
                    dim as u64,
                    compressor.as_ref(),
                    &shared.cost,
                    false,
                    &mut ds,
                )?;
                model.apply_gradient(&mut opt, agg.gradient.keys(), agg.gradient.values());
                wire::encode_delta_section(agg.gradient.keys(), &model.weights)?
            };
            delta = Some(Arc::new(section));
            round += 1;
            summary.rounds = round;
            if setup.round_sleep_ms > 0 {
                std::thread::sleep(Duration::from_millis(setup.round_sleep_ms));
            }
            shared.store.publish(ModelSnapshot {
                round,
                epoch: (epoch - 1) as u32,
                done: false,
                model: model.clone(),
                delta: delta.clone(),
            });
        }
        // Workers wait on the next publish for all of this.
        let epoch_end = Instant::now();
        summary.epochs_done = epoch as u64;
        let test_loss = model.mean_loss(&test);
        summary.final_test_loss = test_loss;
        summary.best_test_loss = summary.best_test_loss.min(test_loss);
        // End-of-epoch checkpoint: the bytes a kill -9'd worker pulls to
        // recover, written from the live state and proven loadable before
        // they are served.
        let mut bytes = Vec::new();
        Checkpoint::write_parts(&model, &opt, epoch, &mut bytes);
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
            model: model.clone(),
            delta: delta.clone(),
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
    summary.accuracy = model.accuracy(&test);
    summary.aborted = summary.epochs_done < spec.max_epochs as u64;
    Ok(summary)
}

/// Coalesces one round's pushes: waits for the first push (idle deadline),
/// then for the stragglers (round timeout), deduplicating by worker and
/// dropping pushes whose round closed while they were queued. Returns
/// messages ordered by worker id — the same order the in-process simulator
/// aggregates in, so the float sums match.
fn collect_round(shared: &Arc<Shared>, round: u64) -> Result<Vec<WorkerMessage>, NetError> {
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
            break; // aggregate the partial set
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
    Ok(slots
        .into_iter()
        .flatten()
        .map(|env| WorkerMessage {
            report: SizeReport {
                key_bytes: 0,
                value_bytes: 0,
                header_bytes: env.payload.len(),
                pairs: 0,
            },
            payload: env.payload,
            loss_sum: env.loss_sum,
            instances: env.instances,
            sim_compute: 0.0,
            sim_codec: 0.0,
            measured_codec: 0.0,
            measured_compute: 0.0,
        })
        .collect())
}
