//! # sketchml
//!
//! A from-scratch Rust reproduction of **"SketchML: Accelerating Distributed
//! Machine Learning with Data Sketches"** (Jiang, Fu, Yang, Cui — SIGMOD
//! 2018): sketch-based compression for the sparse key-value gradients
//! exchanged by distributed SGD, together with every substrate the paper's
//! evaluation depends on.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! - [`sketches`] — the mergeable compactor quantile sketch, Count-Sketch,
//!   Count-Min, and the paper's novel **MinMaxSketch**;
//! - [`encoding`] — delta-binary key coding, bit packing, Golomb–Rice and
//!   the CRC-checked frames;
//! - [`core`] — the [`SketchMlCompressor`] pipeline and the Adam / ZipML /
//!   truncation baselines behind the [`GradientCompressor`] trait;
//! - [`ml`] — LR / SVM / Linear GLMs, Adam SGD, and an MLP;
//! - [`data`] — synthetic KDD10/KDD12/CTR-like datasets and libsvm IO;
//! - [`cluster`] — the distributed-training simulator: one round engine
//!   under a driver star or a collective;
//! - [`collectives`] — mergeable-sketch allreduce: ring / tree / star
//!   aggregation of compressed gradient payloads;
//! - [`net`] — the live parameter server: framed wire protocol over
//!   TCP/Unix sockets, threaded server runtime whose rounds close in a
//!   W-slot table, an epoch-snapshot model store serving inference during training, and
//!   the full worker participant loop with checkpoint recovery;
//! - [`telemetry`] — the codec's opt-in counters, histograms, and stage
//!   timers behind a single relaxed atomic gate.
//!
//! ## Quickstart
//!
//! ```
//! use sketchml::{GradientCompressor, SketchMlCompressor, SparseGradient};
//!
//! // A sparse gradient: ascending keys, skewed near-zero values (Fig. 3).
//! let grad = SparseGradient::new(
//!     1_000_000,
//!     vec![702, 735, 1244, 2516, 3536, 3786, 4187, 4195],
//!     vec![-0.01, 0.21, 0.08, -0.05, -0.12, 0.29, 0.02, -0.27],
//! )?;
//!
//! let compressor = SketchMlCompressor::default();
//! let message = compressor.compress(&grad)?;
//! let decoded = compressor.decompress(&message.payload)?;
//!
//! assert_eq!(decoded.keys(), grad.keys()); // keys decode exactly (§3.4)
//! for ((_, v), (_, d)) in grad.iter().zip(decoded.iter()) {
//!     assert_eq!(v.signum(), d.signum()); // no reversed gradients (§3.3)
//! }
//! # Ok::<(), sketchml::CompressError>(())
//! ```
//!
//! See `examples/` for end-to-end training runs and DESIGN.md for the full
//! experiment index.

#![warn(missing_docs)]

pub use sketchml_cluster as cluster;
pub use sketchml_collectives as collectives;
pub use sketchml_core as core;
pub use sketchml_data as data;
pub use sketchml_encoding as encoding;
pub use sketchml_ml as ml;
pub use sketchml_net as net;
pub use sketchml_sketches as sketches;
pub use sketchml_telemetry as telemetry;

pub use sketchml_cluster::{
    train_allreduce, train_allreduce_with_policy, train_distributed, train_glm,
    train_mlp_distributed, train_mlp_with_plan, Aggregation, ClusterConfig, FaultPlan, FaultTrace,
    FaultyLink, GlmTask, TrainOutcome, TrainReport, TrainSpec,
};
pub use sketchml_collectives::{MergePolicy, MergeableCompressor, Topology};
pub use sketchml_core::{
    compressor_by_name, CompressError, CompressedGradient, CountSketchCompressor,
    CountSketchConfig, ErrorFeedback, FastSgdCompressor, GradientCompressor, KeyCompressor,
    QuantCompressor, RawCompressor, ShardedCompressor, SketchMlCompressor, SketchMlConfig,
    SparseGradient, TruncationCompressor, ZipMlCompressor,
};
pub use sketchml_data::{MnistLikeSpec, SparseDatasetSpec};
pub use sketchml_ml::{
    AdaGrad, Adam, AdamConfig, Checkpoint, GlmLoss, GlmModel, Instance, Momentum, OptStateMode,
    OptimizerKind, OptimizerState, SparseVector,
};
