//! Threaded parameter-server runtime.
//!
//! Thread anatomy:
//!
//! ```text
//! accept loop ──▶ bounded conn queue ──▶ handler pool (N threads)
//!                                            │ Predict / PullModel ──▶ ModelStore (published snapshots)
//!                                            │ PushGradient: decode ──▶ round table: slot[worker]
//!                                            │ PullRound ◀── round table: latest closed round
//!                                            trainer thread: table full | deadline ──▶ close + post
//!                                                            ──▶ cluster::Replica::apply ──▶ publish
//! ```
//!
//! **The round is the W frames.** What a round changes is fully described by
//! the codec frames the workers pushed for it, so that is what the downlink
//! carries, and the server keeps the same [`sketchml_cluster::Replica`] of
//! model and optimizer every worker's [`crate::Replica`] wraps. There is no
//! training loop here. The open round is a table of W slots under one mutex
//! and one condvar (`Rounds`). A handler decodes the push it is shown with
//! its own scratch — the W decodes of a round run in parallel and overlap the
//! wait for the slowest worker; a frame that does not decode to the model's
//! dimension is refused at the door — and then, under the lock, puts it in
//! its worker's slot or answers `Stale`/`Done`: accepting a push and listing
//! it in the round are one decision, and the table never holds more than W
//! parts. The trainer thread waits for the table to fill (or the straggler
//! window to run out), closes the round and posts its frames *before* any
//! arithmetic — the handlers forward them, each worker gets the others' —
//! then steps its replica through the `apply` every worker's step ends in,
//! and publishes; an epoch ends where `round % rounds_per_epoch == 0` (the
//! shared [`Schedule`]'s arithmetic: the server draws no shuffle). A replica
//! not exactly one round behind — a respawned worker, a straggler that lost
//! two rounds — is sent the live state instead, serialised by the handler
//! under the mutex the trainer takes only to apply a round. A full
//! connection queue refuses the socket with a typed `Backpressure` error;
//! nothing else is ever queued.

use crate::error::{ErrorCode, NetError};
use crate::sock::{Conn, Listener};
use crate::store::{ModelSnapshot, ModelStore};
use crate::wire::{self, PushStatus, Request, Response, PROTOCOL_VERSION};
use serde::{Deserialize, Serialize};
use sketchml_cluster::{Replica, Schedule, TrainSpec};
use sketchml_core::{compressor_by_name, CompressScratch, GradientCompressor, SparseGradient};
use sketchml_data::SparseDatasetSpec;
use sketchml_ml::{Checkpoint, Instance};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
        let data = &self.dataset;
        if data.instances == 0 {
            return Err(NetError::InvalidConfig("dataset is empty".into()));
        }
        // The server evaluates on the test split; an empty one would score
        // a perfect loss.
        if data.train_len() == data.instances {
            return Err(NetError::InvalidConfig(format!(
                "{} instances leave an empty test split",
                data.instances
            )));
        }
        if data.features == 0 || data.avg_nnz == 0 {
            return Err(NetError::InvalidConfig(format!(
                "dataset needs positive features and avg_nnz, got {} and {}",
                data.features, data.avg_nnz
            )));
        }
        if !(data.skew.is_finite() && data.skew > 0.0) {
            return Err(NetError::InvalidConfig(format!(
                "dataset skew must be finite and positive, got {}",
                data.skew
            )));
        }
        if !(data.label_noise.is_finite() && data.label_noise >= 0.0) {
            return Err(NetError::InvalidConfig(format!(
                "dataset label_noise must be finite and non-negative, got {}",
                data.label_noise
            )));
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

/// One member of the open round: a push its handler held to the session
/// and decoded.
struct Part {
    instances: u64,
    /// The codec frame as received: what the other workers are sent.
    frame: Arc<Vec<u8>>,
    /// What it decodes to: the trainer's part of the round.
    gradient: SparseGradient,
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
struct Table {
    /// Rounds closed so far: the round a push must be for to count. Ahead of
    /// the published model's round while the trainer steps, evaluates or
    /// checkpoints.
    closed: u64,
    /// No round will close after `closed`.
    done: bool,
    /// The open round: slot `w` is worker `w`'s part of it once pushed, so
    /// what is accepted is what the round will list, W parts at most.
    open: Vec<Option<Part>>,
    /// Round `closed` itself; only the latest is kept — a worker further
    /// behind is sent the live state.
    last: Option<Arc<ClosedRound>>,
    /// Members of the final round that have not been sent it yet: the run
    /// is not over for them.
    unsent: Vec<u32>,
}

impl Table {
    /// Parts the open round holds so far.
    fn filled(&self) -> usize {
        self.open.iter().flatten().count()
    }
}

/// The table and the one condvar everyone waits on: the trainer for parts,
/// `PullRound` handlers for a close, the end of a run for its last round to
/// be collected.
struct Rounds {
    table: Mutex<Table>,
    changed: Condvar,
}

impl Rounds {
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Gives `t` back once `parked` no longer holds, or after `timeout`.
    fn wait_while<'a>(
        &self,
        t: MutexGuard<'a, Table>,
        timeout: Duration,
        parked: impl FnMut(&mut Table) -> bool,
    ) -> MutexGuard<'a, Table> {
        self.changed
            .wait_timeout_while(t, timeout, parked)
            .unwrap_or_else(|e| e.into_inner())
            .0
    }

    /// `worker` has been sent the final round.
    fn sent_final(&self, worker: u32) {
        self.lock().unsent.retain(|&w| w != worker);
        self.changed.notify_all();
    }

    /// Training is over (finished, aborted or shut down): nobody waits for
    /// a round, or for a worker to collect one, any more.
    fn finish(&self) {
        let mut t = self.lock();
        t.done = true;
        t.unsent.clear();
        self.changed.notify_all();
    }
}

/// Live server counters, served as the `GetStats` document.
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
    refused_conns: AtomicU64,
    /// Microseconds the trainer spent on the latest epoch end, from the
    /// last round's publish to the epoch's: evaluation, checkpoint, publish.
    epoch_end_us_last: AtomicU64,
    epoch_end_us_max: AtomicU64,
    /// Nanoseconds the trainer spent stepping the latest round: the live
    /// replica's `apply` and the publish of its snapshot.
    round_step_ns_last: AtomicU64,
    round_step_ns_max: AtomicU64,
}

/// Shared state between the runtime threads and [`Server`].
struct Shared {
    setup: ServeSetup,
    setup_json: String,
    store: ModelStore,
    rounds: Rounds,
    /// The training state, stepped like every worker's copy of it. Locked
    /// by the trainer to apply a round and to write the end-of-epoch
    /// checkpoint, by a handler to serialise the state for a worker that
    /// cannot be stepped to it.
    live: Mutex<Replica>,
    /// Decodes pushes at the door (each handler with its own scratch).
    compressor: Box<dyn GradientCompressor>,
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
            /// Milliseconds the trainer spent stepping the latest round:
            /// combine and optimizer step on the live replica, then the
            /// snapshot publish.
            round_step_ms_last: f64,
            /// The longest round step so far, in milliseconds.
            round_step_ms_max: f64,
            /// Bytes of the checkpoint `GetCheckpoint` serves (0: none yet).
            checkpoint_bytes: u64,
        }
        // Read in this order: the trainer stores the summary, then publishes
        // `done`, so a document that says `done` carries the summary.
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
            round_step_ms_last: c.round_step_ns_last.load(Ordering::Relaxed) as f64 / 1e6,
            round_step_ms_max: c.round_step_ns_max.load(Ordering::Relaxed) as f64 / 1e6,
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
        // Validates the setup and fails fast on an unknown compressor name
        // (workers resolve it too).
        setup.validate()?;
        let live = Replica::fresh(setup.dataset.features as usize, &setup.spec)
            .map_err(|e| NetError::InvalidConfig(e.to_string()))?;
        let compressor = compressor_by_name(&setup.compressor)?;
        let setup_json = serde_json::to_string(&setup)
            .map_err(|e| NetError::InvalidConfig(format!("setup does not serialize: {e}")))?;
        let addr = listener.local_desc();
        let shared = Arc::new(Shared {
            store: ModelStore::new(live.model().clone()),
            rounds: Rounds {
                table: Mutex::new(Table {
                    closed: 0,
                    done: false,
                    open: (0..setup.workers).map(|_| None).collect(),
                    last: None,
                    unsent: Vec::new(),
                }),
                changed: Condvar::new(),
            },
            live: Mutex::new(live),
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
        self.summary()
    }

    /// Blocks until training completes (without shutting the server down —
    /// it keeps serving `Predict`), returning the summary.
    pub fn wait_trained(&self) -> ServeSummary {
        // `done` is published once the summary is stored.
        while !self
            .shared
            .store
            .wait_for_round(u64::MAX, Duration::from_secs(1))
            .done
        {}
        self.summary()
    }

    fn summary(&self) -> ServeSummary {
        self.shared
            .summary
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .unwrap_or_default()
    }
}

fn begin_shutdown(shared: &Arc<Shared>) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    // Wakes the trainer and every handler parked on the round table; the
    // trainer stores its summary and publishes `done`, which wakes the ones
    // parked in `wait_for_round`.
    shared.rounds.finish();
    // Closing live connections unblocks handlers parked in a read; the
    // throwaway connect unblocks the accept loop itself.
    shared.close_all_conns();
    if let Ok(c) = Conn::connect(&shared.addr) {
        c.shutdown();
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
        if matches!(req, Request::PushGradient { .. }) {
            shared
                .counters
                .bytes_up
                .fetch_add(frame_len as u64, Ordering::Relaxed);
        }
        match handle_request(shared, req, &mut scratch, &mut writer) {
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
    scratch: &mut CompressScratch,
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
            // start the next round while the trainer is still stepping,
            // evaluating or checkpointing this one.
            let (closed, done) = {
                let t = shared.rounds.lock();
                (t.closed, t.done)
            };
            let dataset_instances = shared.setup.dataset.instances as u64;
            let dim = shared.setup.dataset.features as u64;
            let mut gradient = SparseGradient::empty(0);
            let refusal = if worker as usize >= shared.setup.workers || (round > closed && !done) {
                Some(format!(
                    "the session has {} workers and is at round {closed}",
                    shared.setup.workers
                ))
            } else if instances > dataset_instances || !loss_sum.is_finite() {
                // The round weights every part by these two claims: no slice
                // is larger than the dataset, and one forged count or NaN loss
                // would overflow or poison the whole round.
                Some(format!(
                    "claims {instances} of {dataset_instances} instances, loss sum {loss_sum}"
                ))
            } else if done || round < closed {
                None
            } else {
                // The frame is forwarded to every other worker and summed
                // into the model: it has to decode, here, before it counts.
                match shared
                    .compressor
                    .decompress_into(&payload, scratch, &mut gradient)
                {
                    Err(e) => Some(format!("its frame does not decode: {e}")),
                    Ok(()) if gradient.dim() != dim => Some(format!(
                        "its frame holds a gradient of dimension {}, the model has {dim}",
                        gradient.dim()
                    )),
                    Ok(()) => None,
                }
            };
            if let Some(reason) = refusal {
                shared
                    .counters
                    .rejected_pushes
                    .fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    code: ErrorCode::BadState,
                    message: format!(
                        "push from worker {worker} for round {round} refused: {reason}"
                    ),
                }
                .write_to(writer)?;
                return Ok(true);
            }
            // Under the lock the answer and the membership are one decision:
            // the round may have closed while this push was being decoded.
            let mut t = shared.rounds.lock();
            let status = if t.done {
                PushStatus::Done
            } else if round < t.closed {
                shared.counters.stale_pushes.fetch_add(1, Ordering::Relaxed);
                PushStatus::Stale
            } else {
                // `round == t.closed`, as it was when the frame was decoded.
                // A repeat leaves the slot to the worker's first frame.
                let slot = &mut t.open[worker as usize];
                if slot.is_none() {
                    *slot = Some(Part {
                        instances,
                        frame: Arc::new(payload),
                        gradient,
                    });
                    shared.counters.pushes.fetch_add(1, Ordering::Relaxed);
                    shared.rounds.changed.notify_all();
                }
                PushStatus::Accepted
            };
            let round = t.closed;
            drop(t);
            Response::PushAck { status, round }.write_to(writer)?;
        }
        Request::Predict { batch } => {
            // Each request scores against the model published when it is
            // answered, so a long-lived client follows training.
            let snap = shared.store.snapshot();
            match batch.scores(&snap.model) {
                Ok(scores) => {
                    shared.counters.predicts.fetch_add(1, Ordering::Relaxed);
                    shared
                        .counters
                        .predict_instances
                        .fetch_add(scores.len() as u64, Ordering::Relaxed);
                    Response::Prediction { scores }.write_to(writer)?;
                }
                // The frame was read whole: the stream stays in step, so the
                // connection does too.
                Err(e) => Response::Error {
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                }
                .write_to(writer)?,
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
    count_pull(shared, &shared.counters.pulls_dense, sent);
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
    // Until round `have_round` is no longer the latest, or training is over.
    let timeout = Duration::from_millis(if wait { 10_000 } else { 0 });
    let (closed, done, last) = {
        let rounds = &shared.rounds;
        let t = rounds.wait_while(rounds.lock(), timeout, |t| {
            t.closed == have_round && !t.done
        });
        (t.closed, t.done, t.last.clone())
    };
    let next = last
        .as_ref()
        .filter(|last| have_round.checked_add(1) == Some(last.round));
    if let Some(last) = next {
        let members = last
            .members
            .iter()
            .map(|(w, n, frame)| (*w, *n, (*w != worker).then_some(frame.as_slice())));
        let sent = wire::write_round(writer, have_round, last.round, last.epoch, done, members)?;
        count_pull(shared, &shared.counters.pulls_round, sent);
        if done {
            shared.rounds.sent_final(worker);
        }
    } else if closed == have_round || done {
        let epoch = last.as_ref().map_or(0, |last| last.epoch);
        let sent = wire::write_round(
            writer,
            have_round,
            have_round,
            epoch,
            done,
            std::iter::empty(),
        )?;
        count_pull(shared, &shared.counters.pulls_round, sent);
    } else {
        // Under the lock only for the copy: the trainer holds it only while
        // it applies a round, never while it waits for one.
        let mut bytes = Vec::new();
        let epochs_done = shared.store.snapshot().epoch as usize;
        let rounds = {
            let live = shared.live.lock().unwrap_or_else(|e| e.into_inner());
            Checkpoint::write_parts(live.model(), live.optimizer(), epochs_done, &mut bytes);
            live.rounds()
        };
        let sent = wire::write_state(writer, rounds, &bytes)?;
        count_pull(shared, &shared.counters.pulls_state, sent);
    }
    Ok(())
}

/// Counts a pull answered with a `sent`-byte frame in `kind` (one of the
/// `pulls_dense`/`pulls_round`/`pulls_state` counters) and in the totals.
fn count_pull(shared: &Shared, kind: &AtomicU64, sent: usize) {
    let c = &shared.counters;
    kind.fetch_add(1, Ordering::Relaxed);
    c.pulls.fetch_add(1, Ordering::Relaxed);
    c.bytes_down.fetch_add(sent as u64, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Trainer thread
// ---------------------------------------------------------------------------

fn trainer_loop(shared: &Shared) {
    let mut summary = run_training(shared).unwrap_or_else(|e| {
        // Surface the abort through stats; tests read `aborted`.
        let snap = shared.store.snapshot();
        eprintln!("trainer aborted at round {}: {e}", snap.round);
        ServeSummary {
            rounds: snap.round,
            epochs_done: u64::from(snap.epoch),
            aborted: true,
            ..ServeSummary::default()
        }
    });
    if shared.shutdown.load(Ordering::SeqCst) {
        summary.aborted =
            summary.aborted || summary.epochs_done < shared.setup.spec.max_epochs as u64;
    }
    // The summary first: whoever reads `done` (`GetStats`, `wait_trained`)
    // finds it. Then both planes done, so blocked pulls drain.
    *shared.summary.lock().unwrap_or_else(|e| e.into_inner()) = Some(summary);
    shared.rounds.finish();
    let snap = shared.store.snapshot();
    shared.store.publish(ModelSnapshot {
        round: snap.round,
        epoch: snap.epoch,
        done: true,
        model: snap.model.clone(),
    });
}

/// Follows the rounds as they close: each is posted by [`close_round`], then
/// stepped into the live replica and published; an epoch ends with the round
/// that completes it.
fn run_training(shared: &Shared) -> Result<ServeSummary, NetError> {
    let setup = &shared.setup;
    // The server evaluates on the test split and never reads a train
    // instance: it holds only the test split, and the train split's length.
    let test = setup.dataset.generate_test();
    // The workers' own arithmetic for where a round falls in an epoch.
    let rounds_per_epoch = Schedule::new(
        setup.dataset.train_len(),
        setup.batch_ratio,
        setup.spec.seed,
    )
    .rounds_per_epoch;
    let last_round = rounds_per_epoch * setup.spec.max_epochs as u64;
    let mut summary = ServeSummary {
        best_test_loss: f64::INFINITY,
        ..ServeSummary::default()
    };
    // A round's instance counts and parts, refilled in place every round.
    let mut instances: Vec<usize> = Vec::with_capacity(setup.workers);
    let mut parts: Vec<SparseGradient> = Vec::with_capacity(setup.workers);
    while summary.rounds < last_round {
        let epoch = (summary.rounds / rounds_per_epoch) as u32;
        let last = summary.rounds + 1 == last_round;
        let Some(members) = close_round(shared, epoch, last)? else {
            break; // shut down
        };
        if members.len() == setup.workers {
            summary.full_rounds += 1;
        } else {
            summary.partial_rounds += 1;
        }
        summary.rounds += 1;
        let round = summary.rounds;
        // The handlers held every count to the dataset's.
        instances.clear();
        instances.extend(members.iter().map(|m| m.instances as usize));
        parts.clear();
        parts.extend(members.into_iter().map(|m| m.gradient));
        let step = Instant::now();
        let model = {
            let mut live = shared.live.lock().unwrap_or_else(|e| e.into_inner());
            live.apply(&parts, &instances)?;
            live.model().clone()
        };
        let mut step_time = step.elapsed();
        if setup.round_sleep_ms > 0 {
            std::thread::sleep(Duration::from_millis(setup.round_sleep_ms));
        }
        let publish = Instant::now();
        shared.store.publish(ModelSnapshot {
            round,
            epoch,
            done: false,
            model,
        });
        step_time += publish.elapsed();
        let c = &shared.counters;
        let ns = u64::try_from(step_time.as_nanos()).unwrap_or(u64::MAX);
        c.round_step_ns_max.fetch_max(ns, Ordering::Relaxed);
        c.round_step_ns_last.store(ns, Ordering::Relaxed);
        if round.is_multiple_of(rounds_per_epoch) {
            end_epoch(shared, &test, &mut summary)?;
        }
    }
    summary.accuracy = shared.store.snapshot().model.accuracy(&test);
    summary.aborted = summary.epochs_done < setup.spec.max_epochs as u64;
    // The members of the last round are owed its frames. A server that stops
    // the moment training is done (`--linger-ms 0`) must not cut off a
    // worker that has not collected them yet; a worker that never does is
    // given the straggler's allowance.
    let allowance = Duration::from_millis(setup.round_timeout_ms.max(1));
    let rounds = &shared.rounds;
    drop(rounds.wait_while(rounds.lock(), allowance, |t| !t.unsent.is_empty()));
    Ok(summary)
}

/// Waits for the first part of the open round (idle deadline), then for the
/// table to fill (straggler window), and closes the round on what it holds:
/// posts its frames for the handlers to forward — before any arithmetic, so
/// nothing the trainer does next is on the workers' path — and hands back
/// its members. They are in worker-id order: the order the
/// in-process simulator aggregates in and every replica is sent them in, so
/// the float sums match. `None`: training was shut down.
fn close_round(shared: &Shared, epoch: u32, last: bool) -> Result<Option<Vec<Part>>, NetError> {
    let (setup, rounds) = (&shared.setup, &shared.rounds);
    let idle = Duration::from_millis(setup.idle_timeout_ms.max(1));
    let t = rounds.wait_while(rounds.lock(), idle, |t| !t.done && t.filled() == 0);
    if !t.done && t.filled() == 0 {
        return Err(NetError::InvalidConfig(format!(
            "no push arrived for round {} within {}ms",
            t.closed, setup.idle_timeout_ms
        )));
    }
    let straggler = Duration::from_millis(setup.round_timeout_ms.max(1));
    let mut t = rounds.wait_while(t, straggler, |t| !t.done && t.filled() < t.open.len());
    if t.done {
        return Ok(None);
    }
    let mut listed = Vec::new();
    let mut members = Vec::new();
    for (worker, slot) in t.open.iter_mut().enumerate() {
        if let Some(part) = slot.take() {
            listed.push((worker as u32, part.instances, Arc::clone(&part.frame)));
            members.push(part);
        }
    }
    t.closed += 1;
    t.done = last;
    if last {
        t.unsent = listed.iter().map(|m| m.0).collect();
    }
    t.last = Some(Arc::new(ClosedRound {
        round: t.closed,
        epoch,
        members: listed,
    }));
    rounds.changed.notify_all();
    Ok(Some(members))
}

/// The epoch end, on the trainer thread. Readers of the published model wait
/// on the next publish for all of this; the workers do not.
fn end_epoch(
    shared: &Shared,
    test: &[Instance],
    summary: &mut ServeSummary,
) -> Result<(), NetError> {
    let epoch_end = Instant::now();
    summary.epochs_done += 1;
    let epoch = summary.epochs_done;
    let published = shared.store.snapshot();
    let test_loss = published.model.mean_loss(test);
    summary.final_test_loss = test_loss;
    summary.best_test_loss = summary.best_test_loss.min(test_loss);
    // End-of-epoch checkpoint, written from the live state and proven
    // loadable before it is served.
    let mut bytes = Vec::new();
    {
        let live = shared.live.lock().unwrap_or_else(|e| e.into_inner());
        Checkpoint::write_parts(live.model(), live.optimizer(), epoch as usize, &mut bytes);
    }
    Checkpoint::validate(&bytes)
        .map_err(|e| NetError::InvalidConfig(format!("checkpoint: {e}")))?;
    *shared.checkpoint.lock().unwrap_or_else(|e| e.into_inner()) = Some((epoch, Arc::new(bytes)));
    // Re-publish with the completed-epoch count so pulls see progress.
    shared.store.publish(ModelSnapshot {
        round: published.round,
        epoch: epoch as u32,
        done: false,
        model: published.model.clone(),
    });
    let c = &shared.counters;
    let last = epoch_end.elapsed().as_micros() as u64;
    c.epoch_end_us_max.fetch_max(last, Ordering::Relaxed);
    c.epoch_end_us_last.store(last, Ordering::Relaxed);
    Ok(())
}
