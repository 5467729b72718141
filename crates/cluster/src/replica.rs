//! The training state the paper's protocol steps (§4.1: the driver
//! "updates the trained model"): model, optimizer and the rounds applied to
//! them, and the one batch schedule every participant replays.
//!
//! Every trainer below the wire steps a [`Replica`]: the simulator's round
//! loop ([`crate::engine`]), the socket server, and every socket worker's
//! copy of the server's state (`sketchml-net`). They agree because they are
//! the same type stepped by the same [`Replica::apply`] (the collective
//! steps it with its reduced gradient), not because a test compares them —
//! and resuming from a [`Checkpoint`] and restoring from a
//! server's live state go through the same spec check,
//! [`Replica::restore`].

use crate::driver::combine_into;
use crate::engine::Model;
use crate::trainer::TrainSpec;
use sketchml_core::{CompressError, SparseGradient};
use sketchml_data::Batcher;
use sketchml_ml::{Checkpoint, GlmModel, MlError, OptimizerState};

/// Model, optimizer and the number of rounds applied to them.
pub struct Replica<M = GlmModel> {
    model: M,
    optimizer: OptimizerState,
    rounds: u64,
    /// The last combined round's gradient and the fold's second buffer,
    /// kept so that [`Replica::apply`] on a warm replica allocates nothing.
    sum: SparseGradient,
    spare: SparseGradient,
}

impl<M> Replica<M> {
    /// `model` and `optimizer` before any round.
    pub(crate) fn new(model: M, optimizer: OptimizerState) -> Self {
        Replica {
            model,
            optimizer,
            rounds: 0,
            sum: SparseGradient::empty(0),
            spare: SparseGradient::empty(0),
        }
    }

    /// The model after [`rounds`](Self::rounds) rounds.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The optimizer after [`rounds`](Self::rounds) rounds.
    pub fn optimizer(&self) -> &OptimizerState {
        &self.optimizer
    }

    /// Rounds applied, counted from the start of training (a restored
    /// replica counts the rounds its state had seen).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    pub(crate) fn into_parts(self) -> (M, OptimizerState) {
        (self.model, self.optimizer)
    }
}

impl<M: Model> Replica<M> {
    /// Steps the state across one round: one optimizer step with the
    /// round's aggregated `gradient`, none if nothing arrived.
    pub(crate) fn step(&mut self, gradient: Option<&SparseGradient>) {
        if let Some(g) = gradient {
            self.model.apply(&mut self.optimizer, g.keys(), g.values());
        }
        self.rounds += 1;
    }

    /// Steps the state across one closed round from its decoded `parts`
    /// (`instances[i]` is the weight of `parts[i]`; no parts: the round
    /// changed nothing): [`combine`](crate::driver::combine) into the
    /// replica's own buffers, then `step`. Once the replica
    /// has combined a round as large, this allocates nothing.
    ///
    /// # Errors
    /// [`combine`](crate::driver::combine)'s; model, optimizer and round
    /// count are untouched.
    pub fn apply(
        &mut self,
        parts: &[SparseGradient],
        instances: &[usize],
    ) -> Result<(), CompressError> {
        if parts.is_empty() {
            self.step(None);
            return Ok(());
        }
        combine_into(parts, instances, &mut self.sum, &mut self.spare)?;
        let sum = std::mem::replace(&mut self.sum, SparseGradient::empty(0));
        self.step(Some(&sum));
        self.sum = sum;
        Ok(())
    }
}

impl Replica {
    /// The zero GLM of dimension `dim` and the fresh optimizer of `spec`, no
    /// rounds applied: where every participant starts.
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] if `spec` builds no model or
    /// optimizer.
    pub fn fresh(dim: usize, spec: &TrainSpec) -> Result<Self, CompressError> {
        let invalid = |e: MlError| CompressError::InvalidConfig(e.to_string());
        Ok(Replica::new(
            GlmModel::new(dim, spec.loss, spec.l2).map_err(invalid)?,
            OptimizerState::build(spec.optimizer, spec.opt_state, dim).map_err(invalid)?,
        ))
    }

    /// Replaces model and optimizer by `state`, which has seen `rounds`
    /// rounds — once `state` is held to this replica's spec: dimension,
    /// loss, l2 and optimizer spec (rule, hyper-parameters and state layout
    /// with its table shape) must match.
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] for a mismatch; the replica is
    /// untouched.
    pub fn restore(&mut self, state: Checkpoint, rounds: u64) -> Result<(), CompressError> {
        let (have, got) = (&self.model, &state.model);
        let spec = |m: &GlmModel, o: &OptimizerState| {
            let (loss, dim, l2, opt, spec) = (m.loss, m.dim(), m.l2, o.name(), o.spec());
            format!("a {loss:?} model of dimension {dim} (l2 {l2}) with {opt} state {spec:?}")
        };
        if got.dim() != have.dim()
            || got.loss != have.loss
            || got.l2.to_bits() != have.l2.to_bits()
            || state.optimizer.spec() != self.optimizer.spec()
        {
            return Err(CompressError::InvalidConfig(format!(
                "{}, the run trains {}",
                spec(got, &state.optimizer),
                spec(have, &self.optimizer)
            )));
        }
        (self.model, self.optimizer, self.rounds) = (state.model, state.optimizer, rounds);
        Ok(())
    }
}

/// The shared batch schedule: every participant builds the identical
/// [`Batcher`] (same `n`, ratio, seed) and replays it, so the instance
/// indices of a round line up without crossing a wire.
pub struct Schedule {
    batcher: Batcher,
    /// Rounds (batches) in one epoch.
    pub rounds_per_epoch: u64,
    epochs_consumed: u64,
    current: Vec<Vec<usize>>,
}

impl Schedule {
    /// The schedule of `n` instances in batches of `batch_ratio · n`,
    /// shuffled from `seed`.
    ///
    /// # Panics
    /// As [`Batcher::new`]: `n == 0` or a ratio outside `(0, 1]`.
    pub fn new(n: usize, batch_ratio: f64, seed: u64) -> Self {
        let batcher = Batcher::new(n, batch_ratio, seed);
        Schedule {
            rounds_per_epoch: batcher.batches_per_epoch() as u64,
            batcher,
            epochs_consumed: 0,
            current: Vec::new(),
        }
    }

    /// The batch (instance indices) of global `round`, advancing the shared
    /// shuffle as needed — across whole epochs for a state restored or
    /// resumed from a later round. Rounds never go backwards.
    pub fn batch_for(&mut self, round: u64) -> &[usize] {
        let epoch = round / self.rounds_per_epoch;
        while self.epochs_consumed <= epoch {
            self.current = self.batcher.epoch();
            self.epochs_consumed += 1;
        }
        &self.current[(round % self.rounds_per_epoch) as usize]
    }
}
