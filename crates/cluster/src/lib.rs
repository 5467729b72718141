//! Distributed-SGD simulator for the SketchML reproduction (paper §4).
//!
//! The paper's prototype runs on Spark: "The training dataset is partitioned
//! over executors. Each executor reads the subset, and calculates gradients.
//! The driver aggregates gradients from the executors, updates the trained
//! model, and broadcasts the updated model to the executors."
//!
//! This crate reproduces that loop in-process, once: [`engine`] holds the
//! one round engine, and the driver star and the collective allreduce are
//! the two exchanges under it. The state the loop steps is a
//! [`replica::Replica`] along the shared [`replica::Schedule`] — the same
//! type the live parameter server (`sketchml-net`) and each of its workers
//! step, so the simulator and the sockets share one state, one round step
//! and one resume/restore check by construction.
//!
//! - **Workers are real**: OS threads compute real mini-batch gradients over
//!   real data partitions, and really serialize/compress their messages —
//!   the bytes on the "wire" are genuine compressed gradients.
//! - **The network is modeled**: a parametric cost model
//!   ([`network::NetworkModel`]) converts message bytes into simulated
//!   seconds (`latency + bytes/bandwidth`, serialized at the driver's NIC),
//!   with presets for the paper's two clusters. Compute time is modeled per
//!   feature-operation so simulated clocks are deterministic and
//!   reproducible; *measured* encode/decode wall time is recorded separately
//!   for the Figure 8(c) CPU-overhead experiment.
//!
//! This substitution (DESIGN.md) preserves everything §4 measures: message
//! sizes and compression rates are exact, convergence trajectories are real,
//! and the comm/compute trade-off — which method wins, where scaling
//! crossovers happen — follows directly from real bytes and the declared
//! cost model.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod allreduce;
pub mod config;
pub mod driver;
pub mod engine;
pub mod faults;
pub mod mlp_trainer;
pub mod network;
pub mod replica;
pub mod trainer;
pub mod worker;

pub use allreduce::{train_allreduce, train_allreduce_with_policy};
pub use config::ClusterConfig;
pub use engine::{train_glm, Aggregation, GlmTask};
pub use faults::{CrashEvent, CrashPhase, FaultEvent, FaultPlan, FaultTrace, FaultyLink};
pub use mlp_trainer::{train_mlp_distributed, train_mlp_with_plan, MlpTrainSpec};
pub use network::{CostModel, NetworkModel};
pub use replica::{Replica, Schedule};
pub use sketchml_collectives::{MergePolicy, Topology};
pub use sketchml_ml::{OptStateMode, OptimizerState};
pub use trainer::{train_distributed, EpochStats, TrainOutcome, TrainReport, TrainSpec};
