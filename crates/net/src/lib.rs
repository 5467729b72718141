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
//! * [`store`] — epoch-snapshot model store: `Predict` readers clone an
//!   `Arc` and score lock-free while the trainer publishes new snapshots,
//!   each carrying the pre-encoded delta from the round before it.
//! * [`server`] — accept loop, bounded connection queue, handler pool,
//!   bounded push queue (backpressure), and the trainer thread that
//!   coalesces worker pushes per round and replicates the in-simulator
//!   aggregation exactly (worker-id order, instance-weighted mean).
//! * [`client`] — typed client plus the full worker participant loop: one
//!   dense pull, then a replica advanced by sparse deltas, with
//!   checkpoint-validated recovery for respawned workers.
//!
//! Determinism: the server ships its [`server::ServeSetup`] to every
//! worker; both sides build the same seeded [`sketchml_data::Batcher`] and
//! dataset, so batch index slices line up without ever crossing the wire,
//! and a full-strength run reproduces the in-process simulator's loss
//! trajectory.

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod obs;
pub mod server;
pub mod sock;
pub mod store;
pub mod wire;

pub use client::{run_worker, Client, ModelView, PullKind, WorkerRunStats};
pub use error::{ErrorCode, NetError};
pub use server::{ServeSetup, ServeSummary, Server};
pub use sock::{Conn, Listener};
pub use store::{ModelSnapshot, ModelStore};
pub use wire::{PredictInstance, PushStatus, Request, Response, PROTOCOL_VERSION};
