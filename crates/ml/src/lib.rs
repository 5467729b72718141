//! ML substrate for the SketchML reproduction (paper §2.2, §4.1, §B.3).
//!
//! The paper trains three ℓ2-regularized generalized linear models —
//! Logistic Regression, Support Vector Machine, and Linear Regression —
//! with mini-batch **Adam SGD**, plus a multilayer perceptron for the §B.3
//! neural-network experiment. This crate implements all of it from scratch:
//!
//! - [`vector`] — sparse feature vectors and labeled instances;
//! - [`loss`] — the three GLM losses of §4.1 and their gradients;
//! - [`optimizer`] — SGD, Momentum, AdaGrad and Adam (Kingma & Ba), each
//!   one update rule with lazy sparse state updates;
//! - [`opt_state`] — that state, dense or count-sketched, and
//!   [`OptimizerState`], the one optimizer a trainer steps;
//! - [`checkpoint`] — model + optimizer state as one checksummed frame;
//! - [`model`] — GLM training: mini-batch gradient computation, prediction,
//!   loss/accuracy evaluation;
//! - [`mlp`] — a sigmoid-hidden/softmax-output multilayer perceptron whose
//!   gradients flatten to key-value pairs so they flow through the same
//!   compression path (§B.3);
//! - [`metrics`] — evaluation helpers.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod checkpoint;
pub mod error;
pub mod loss;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod opt_state;
pub mod optimizer;
pub mod vector;

pub use checkpoint::Checkpoint;
pub use error::MlError;
pub use loss::GlmLoss;
pub use mlp::{Mlp, MlpConfig};
pub use model::{BatchGradient, GlmModel, GradScratch};
pub use opt_state::{OptStateMode, OptimizerState};
pub use optimizer::{AdaGrad, Adam, AdamConfig, Momentum, OptimizerKind, Sgd};
pub use vector::{dot_pairs, Instance, SparseVector};
