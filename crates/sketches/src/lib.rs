//! Probabilistic data structures ("sketches") used by the SketchML gradient
//! compression framework (Jiang et al., SIGMOD 2018).
//!
//! This crate implements, from scratch:
//!
//! - [`quantile::MergingQuantileSketch`] — a mergeable, compactor-based
//!   quantile sketch (paper §2.3) in the spirit of Yahoo DataSketches (the
//!   sketch the paper's prototype uses in §3.2 Step 1).
//! - [`count_sketch::CountSketch`] — the *linear* signed-sum sketch of
//!   Charikar et al., used for gradient compression by SketchSGD
//!   (arXiv:1903.04488): sum-of-sketches equals sketch-of-sum, enabling
//!   one-pass merges in the collectives layer.
//! - [`countmin::CountMinSketch`] — the classic additive frequency sketch
//!   (paper §2.4, Figure 1), kept both as the motivating baseline that
//!   *cannot* be used for bucket indexes (§3.3 "Motivation") and for tests
//!   contrasting its overestimation against MinMaxSketch's underestimation.
//! - [`minmax::MinMaxSketch`] — the paper's novel sketch (§3.3): `s` hash
//!   rows × `t` bins storing bucket indexes, with a **min** rule on insert
//!   and a **max** rule on query so that hash collisions can only *decay*
//!   the stored index, never amplify it. The §3.3 "Solution 2" refinement
//!   — `r` groups of buckets, an independent table per group, bounding the
//!   decoded index error by `q/r` — is the codec's: it fills one flat table
//!   per group through [`minmax::insert_batch_raw`] /
//!   [`minmax::query_batch_raw`] under [`minmax::group_seed`].
//! - [`theory`] — closed-form bounds from Appendix A.2 (correctness rate,
//!   over-estimation probability) used by the validation tests and the
//!   `appendix_a_bounds` experiment harness.
//!
//! All structures are deterministic given a seed, so experiments are
//! reproducible.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod count_sketch;
pub mod countmin;
pub mod error;
pub mod hash;
pub mod minmax;
pub mod quantile;
pub mod simd;
pub mod theory;

pub use count_sketch::{push_sign_seeds, sign_for, CountSketch};
pub use countmin::CountMinSketch;
pub use error::SketchError;
pub use hash::{fill_bins, fill_bins_scalar, push_row_seeds, HashFamily};
pub use minmax::{insert_batch_raw, query_batch_raw, MinMaxSketch};
pub use quantile::{MergingQuantileSketch, QuantileSketch};
