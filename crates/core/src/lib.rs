//! # SketchML gradient compression
//!
//! A from-scratch Rust implementation of **SketchML** (Jiang, Fu, Yang, Cui —
//! SIGMOD 2018): a compression framework for the sparse key-value gradients
//! exchanged by distributed SGD.
//!
//! The framework (paper Figure 2) composes three components:
//!
//! 1. **Quantile-bucket quantification** ([`quantify`]) — gradient *values*
//!    are sorted into `q` equi-depth buckets by a quantile sketch and
//!    represented by small bucket indexes (§3.2);
//! 2. **MinMaxSketch** ([`sketchml`], over
//!    [`sketchml_sketches::minmax`]) — the bucket indexes are further
//!    compressed into hash tables whose collision rules only ever *decay*
//!    gradients (§3.3);
//! 3. **Delta-binary encoding** ([`sketchml_encoding::delta_binary`]) —
//!    gradient *keys* are compressed losslessly as variable-width increments
//!    (§3.4).
//!
//! Every compression method the paper evaluates implements the
//! [`GradientCompressor`] trait:
//!
//! | Type | Paper name | Figures |
//! |---|---|---|
//! | [`SketchMlCompressor`] | SketchML (Adam+Key+Quan+MinMax) | 8–11, Tables 2/4 |
//! | [`QuantCompressor`] | Adam+Key+Quan | 8 |
//! | [`KeyCompressor`] | Adam+Key | 8 |
//! | [`RawCompressor`] | Adam (double/float) | 8–11, Table 4 |
//! | [`ZipMlCompressor`] | ZipML (8/16-bit) | 9–11, Tables 2/4 |
//! | [`TruncationCompressor`] | threshold truncation (§1.1) | ablations |
//! | [`ErrorFeedback`] | residual compensation (extension) | `ext_error_feedback` |
//!
//! ## Quick example
//!
//! ```
//! use sketchml_core::{GradientCompressor, SketchMlCompressor, SparseGradient};
//!
//! let grad = SparseGradient::new(
//!     1_000_000,
//!     vec![702, 735, 1244, 2516, 3536, 3786, 4187, 4195],
//!     vec![-0.01, 0.21, 0.08, -0.05, -0.12, 0.29, 0.02, -0.27],
//! )?;
//! let compressor = SketchMlCompressor::default();
//! let message = compressor.compress(&grad)?;
//! let decoded = compressor.decompress(&message.payload)?;
//! assert_eq!(decoded.keys(), grad.keys()); // keys are lossless
//! # Ok::<(), sketchml_core::CompressError>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod baselines;
pub mod compressor;
pub mod count_sketch;
pub mod error;
pub mod fastsgd;
pub mod feedback;
pub mod gradient;
pub mod gradient_io;
pub mod merge;
mod pool;
pub mod quantify;
pub mod registry;
mod runs;
pub mod scratch;
pub mod sharded;
pub mod simd;
pub mod sketchml;
pub mod zipml;

pub use baselines::{KeyCompressor, RawCompressor, TruncationCompressor, ValueWidth};
pub use compressor::{roundtrip_error, CompressedGradient, GradientCompressor, RoundtripStats};
pub use count_sketch::{CountSketchCompressor, CountSketchConfig};
pub use error::CompressError;
pub use fastsgd::FastSgdCompressor;
pub use feedback::ErrorFeedback;
pub use gradient::SparseGradient;
pub use merge::{MergeAcc, MergePolicy, MergeableCompressor};
pub use quantify::QuantCompressor;
pub use registry::by_name as compressor_by_name;
pub use scratch::CompressScratch;
pub use sharded::{split_gradient, ShardedCompressor};
pub use sketchml::{SketchMlCompressor, SketchMlConfig};
pub use sketchml_encoding::framing::FrameVersion;
pub use zipml::ZipMlCompressor;
