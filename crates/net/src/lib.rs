//! Live parameter server over real sockets.
//!
//! Everything before this crate runs SketchML's distributed training
//! inside one process (threads + simulated links). This crate puts the
//! same math on a real wire: a driver process runs [`server::Server`],
//! worker processes run [`client::run_worker`], and inference clients hit
//! the very same port with `Predict` while training is mutating weights.
//!
//! Layering:
//!
//! * [`wire`] — length-prefixed request/response frames with typed decode
//!   errors and protocol-version negotiation; gradient payloads are the
//!   existing v2/CSK CRC frames produced by the `GradientCompressor`
//!   registry, carried opaquely.
//! * [`sock`] — one connection type over TCP or Unix-domain sockets.
//! * [`store`] — epoch-snapshot model store: `Predict` readers and dense
//!   pulls clone an `Arc` and read lock-free while the trainer publishes new
//!   snapshots.
//! * [`server`] — accept loop, bounded connection queue, handler pool that
//!   decodes each push at the door and places it in its worker's slot of
//!   the open round (one mutex, one condvar, W slots: accepted is listed),
//!   and the trainer thread that closes a round when its table is full or
//!   the straggler window runs out, posts its frames for the handlers to
//!   forward, and steps a [`sketchml_cluster::Replica`] — no training loop.
//! * [`client`] — typed client, the worker's [`Replica`]: the wire checks
//!   and decode of each round's frames (no weights cross the wire in steady
//!   state) around the same cluster state the server steps, and the full
//!   worker participant loop, with a live-state restore for respawned or
//!   left-behind workers.
//!
//! This crate holds no training state and no arithmetic of its own: model,
//! optimizer, the round step, the spec check a restore goes through and the
//! batch schedule are `sketchml_cluster`'s [`sketchml_cluster::Replica`] and
//! [`sketchml_cluster::Schedule`], the ones the in-process simulator steps.
//!
//! Determinism: the server ships its [`server::ServeSetup`] to every
//! worker; workers build the same seeded schedule and dataset, so batch
//! index slices line up without ever crossing the wire, and a full-strength
//! run reproduces the in-process simulator's training state to the byte.

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod server;
pub mod sock;
pub mod store;
pub mod wire;

pub use client::{run_worker, Client, ModelView, Pulled, Replica, WorkerRunStats};
pub use error::{ErrorCode, NetError};
pub use server::{ServeSetup, ServeSummary, Server};
pub use sock::{Conn, Listener};
pub use store::{ModelSnapshot, ModelStore};
pub use wire::{
    PredictBatch, PredictInstance, PushStatus, Request, Response, RoundMember, PROTOCOL_VERSION,
};
