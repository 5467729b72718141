//! Dataset substrate for the SketchML reproduction (paper §4.1, Table 1).
//!
//! The paper evaluates on KDD10 (19M × 29M), KDD12 (149M × 54M) and a
//! proprietary Tencent CTR dataset (300M × 58M). None of those are shippable
//! here, so this crate provides **synthetic generators with matched shape
//! parameters** — power-law feature popularity (which produces the skewed,
//! near-zero gradient value distribution of Figure 4), controlled average
//! nonzeros per instance, and a planted ground-truth model — scaled to
//! laptop size. The named presets keep the *relationships* the paper's
//! analysis depends on (KDD12 sparser than CTR, CTR computation-heavier).
//!
//! Also included: a synthetic MNIST stand-in for the §B.3 MLP experiment,
//! libsvm-format IO for real datasets, and §4.1's 75/25 split plus
//! mini-batching by ratio.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod hashing;
pub mod libsvm;
pub mod mnist_like;
pub mod split;
pub mod synthetic;

pub use hashing::{hash_dataset, hash_features};
pub use mnist_like::MnistLikeSpec;
pub use split::Batcher;
pub use synthetic::{SparseDatasetSpec, Task};
