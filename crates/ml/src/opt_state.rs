//! Optimizer state: one update rule per optimizer, its per-dimension
//! vectors dense or sketched (ROADMAP: "100M+ dimension models").
//!
//! Dense Adam pins `2·d` f64s of moments per worker — at d = 100M that is
//! 1.6 GB, dwarfing the KB-scale compressed gradients SketchML ships on the
//! wire. "Compressing Gradient Optimizers via Count-Sketches" (Spring et al.,
//! arXiv:1902.00179) shows that a count-sketched optimizer is the same
//! update rule with its auxiliary vectors read and written through a sketch:
//! a seeded `rows × cols` signed table answers an entry by a sign-corrected
//! median over rows, and takes every update as an *insert of the delta*, so
//! the table keeps tracking its own estimate. Each vector is a `Store` —
//! a dense `Vec<f64>` or a `CountSketch` — with two operations:
//!
//! ```text
//! update(k, f)   dense: x[k] = f(x[k])      sketch: est = S.query(k)
//!                                                   S.insert(k, f(est) - est)
//! add(k, d)      dense: x[k] += d           sketch: S.insert(k, d); S.query(k)
//! ```
//!
//! Momentum's velocity and Adam's moments go through `update`; AdaGrad's
//! accumulator is a plain running sum, which a count-sketch takes natively
//! as a linear `add`. A rule's `step` matches the layout once, then runs a
//! loop monomorphic in it (`with_layout!`), never dispatching per key.
//!
//! Sketched memory is `rows·cols·8` bytes per vector **regardless of d** —
//! a few MB bound optimizer state for arbitrarily wide models, at the price
//! of collision noise in the estimates (benign for Adam/AdaGrad, whose
//! per-dimension normalization absorbs small errors; see `fig_bigmodel`).
//!
//! [`OptimizerState`] is the one optimizer the system steps: SGD, Momentum,
//! AdaGrad or Adam, each over either layout, and what a `Checkpoint`
//! stores.

use crate::error::MlError;
use crate::optimizer::{AdaGrad, Adam, Momentum, OptimizerKind, Sgd};
use sketchml_sketches::CountSketch;

/// Seed salts for the moment tables, fixed so that two workers building the
/// same spec get hash-identical tables (required for bit-exact resume and
/// for restoring a worker from another's state); a checkpoint's table must
/// carry its role's.
pub(crate) const SEED_M: u64 = 0x5EED_0111;
pub(crate) const SEED_V: u64 = 0x5EED_0222;
pub(crate) const SEED_U: u64 = 0x5EED_0333;
pub(crate) const SEED_G: u64 = 0x5EED_0444;

/// How a trainer materializes optimizer state.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize, Default)]
pub enum OptStateMode {
    /// Exact per-dimension vectors (`O(d)` memory) — the classical layout.
    #[default]
    Dense,
    /// Count-sketch tables of `rows × cols` f64 cells per moment vector
    /// (`O(rows·cols)` memory, independent of d).
    Sketched {
        /// Hash rows per table (median-of-rows estimation; 3–5 typical).
        rows: usize,
        /// Buckets per row; the main memory/accuracy knob.
        cols: usize,
    },
}

impl OptStateMode {
    /// Convenience constructor for the sketched mode.
    pub fn sketched(rows: usize, cols: usize) -> Self {
        OptStateMode::Sketched { rows, cols }
    }

    /// Validates shape parameters: the one sketch-shape rule of this crate.
    ///
    /// # Errors
    /// [`MlError::InvalidConfig`] on a zero or oversized table.
    pub fn validate(&self) -> Result<(), MlError> {
        if let OptStateMode::Sketched { rows, cols } = *self {
            if rows == 0 || cols == 0 {
                return Err(MlError::InvalidConfig(
                    "sketched opt state needs rows > 0 and cols > 0".into(),
                ));
            }
            if rows > 64 {
                return Err(MlError::InvalidConfig(format!(
                    "sketched opt state supports at most 64 rows, got {rows}"
                )));
            }
            if rows.checked_mul(cols).is_none_or(|c| c > u32::MAX as usize) {
                return Err(MlError::InvalidConfig(
                    "sketched opt state table exceeds u32::MAX cells".into(),
                ));
            }
        }
        Ok(())
    }
}

/// One per-dimension vector of a rule: exact, or a count-sketch table.
#[derive(Debug, Clone)]
pub(crate) enum Store {
    Dense(Vec<f64>),
    Sketched(CountSketch),
}

impl Store {
    /// A zero vector for a `dim`-dimensional model in layout `mode`,
    /// hashed from `seed` if sketched.
    fn new(mode: OptStateMode, dim: usize, seed: u64) -> Result<Self, MlError> {
        Ok(match mode {
            OptStateMode::Dense => Store::Dense(vec![0.0; dim]),
            OptStateMode::Sketched { rows, cols } => Store::Sketched(
                CountSketch::new(rows, cols, seed)
                    .map_err(|e| MlError::InvalidConfig(format!("sketched opt state: {e}")))?,
            ),
        })
    }

    /// The layout, with the table shape.
    pub(crate) fn mode(&self) -> OptStateMode {
        match self {
            Store::Dense(_) => OptStateMode::Dense,
            Store::Sketched(t) => OptStateMode::sketched(t.rows(), t.cols()),
        }
    }

    fn bytes(&self) -> usize {
        8 * match self {
            Store::Dense(x) => x.len(),
            Store::Sketched(t) => t.rows() * t.cols(),
        }
    }
}

/// The two operations a rule reads and writes its state through, on one
/// concrete layout.
pub(crate) trait Cells {
    /// `x[k] ← f(x[k])`; returns the new value.
    fn update(&mut self, k: usize, f: impl FnOnce(f64) -> f64) -> f64;
    /// `x[k] ← x[k] + delta`; returns the value read back.
    fn add(&mut self, k: usize, delta: f64) -> f64;
}

impl Cells for [f64] {
    #[inline(always)]
    fn update(&mut self, k: usize, f: impl FnOnce(f64) -> f64) -> f64 {
        let x = &mut self[k];
        *x = f(*x);
        *x
    }

    #[inline(always)]
    fn add(&mut self, k: usize, delta: f64) -> f64 {
        let x = &mut self[k];
        *x += delta;
        *x
    }
}

impl Cells for CountSketch {
    #[inline]
    fn update(&mut self, k: usize, f: impl FnOnce(f64) -> f64) -> f64 {
        let est = self.query(k as u64);
        let new = f(est);
        self.insert(k as u64, new - est);
        new
    }

    #[inline]
    fn add(&mut self, k: usize, delta: f64) -> f64 {
        self.insert(k as u64, delta);
        self.query(k as u64)
    }
}

/// Runs `$body` with each named store bound to its concrete layout: one
/// match per call, and `$body` compiled once per layout. A rule's stores
/// always share one layout (every constructor and loader makes them so).
/// Dense stores are bound as slices, so the loop holds their pointer and
/// length in registers instead of reloading them from the `Vec` after
/// every write.
macro_rules! with_layout {
    ($($s:ident = $store:expr),+ => $body:expr) => {
        match ($($store,)+) {
            ($(Store::Dense($s),)+) => {
                $(let $s = $s.as_mut_slice();)+
                $body
            }
            ($(Store::Sketched($s),)+) => $body,
            #[allow(unreachable_patterns)]
            _ => unreachable!("a rule's stores share one layout"),
        }
    };
}
pub(crate) use with_layout;

/// The one optimizer the system steps: an update rule with its
/// hyper-parameters and its state, dense or sketched. Checkpoints store it;
/// trainers hold it directly, so any run can crash and resume bit-exact.
#[derive(Debug, Clone)]
pub enum OptimizerState {
    /// Stateless SGD (`lr` only — nothing to sketch).
    Sgd(Sgd),
    /// Momentum (a velocity vector).
    Momentum(Momentum),
    /// AdaGrad (a squared-gradient accumulator).
    AdaGrad(AdaGrad),
    /// Adam (two moment vectors; the paper's default).
    Adam(Adam),
}

impl OptimizerState {
    /// Instantiates the state for `kind` under `mode` for a `dim`-dimensional
    /// model. SGD is stateless, so `Sketched` mode degenerates to the same
    /// dense (zero-byte) representation.
    ///
    /// # Errors
    /// Propagates constructor validation errors.
    pub fn build(kind: OptimizerKind, mode: OptStateMode, dim: usize) -> Result<Self, MlError> {
        mode.validate()?;
        let store = |seed| Store::new(mode, dim, seed);
        Ok(match kind {
            OptimizerKind::Sgd(lr) => Sgd::new(lr)?.into(),
            OptimizerKind::Momentum(lr, gamma) => Momentum {
                velocity: store(SEED_U)?,
                ..Momentum::new(0, lr, gamma)?
            }
            .into(),
            OptimizerKind::AdaGrad(lr, epsilon) => AdaGrad {
                accum: store(SEED_G)?,
                ..AdaGrad::with_epsilon(0, lr, epsilon)?
            }
            .into(),
            OptimizerKind::Adam(config) => Adam {
                m: store(SEED_M)?,
                v: store(SEED_V)?,
                ..Adam::new(0, config)?
            }
            .into(),
        })
    }

    /// Applies one update step from a sparse gradient; keys past the end of
    /// `weights` are skipped.
    pub fn step(&mut self, weights: &mut [f64], keys: &[u64], values: &[f64]) {
        match self {
            OptimizerState::Sgd(o) => o.step(weights, keys, values),
            OptimizerState::Momentum(o) => o.step(weights, keys, values),
            OptimizerState::AdaGrad(o) => o.step(weights, keys, values),
            OptimizerState::Adam(o) => o.step(weights, keys, values),
        }
    }

    /// The rule with its hyper-parameters, and the state's layout with its
    /// table shape: what a resumed state must share with its run (the
    /// state's contents and step count aside).
    pub fn spec(&self) -> (OptimizerKind, OptStateMode) {
        let kind = match self {
            OptimizerState::Sgd(o) => OptimizerKind::Sgd(o.lr),
            OptimizerState::Momentum(o) => OptimizerKind::Momentum(o.lr, o.gamma),
            OptimizerState::AdaGrad(o) => OptimizerKind::AdaGrad(o.lr, o.epsilon),
            OptimizerState::Adam(o) => OptimizerKind::Adam(o.config),
        };
        let layout = self
            .stores()
            .next()
            .map_or(OptStateMode::Dense, Store::mode);
        (kind, layout)
    }

    /// The per-dimension vectors, in checkpoint order.
    pub(crate) fn stores(&self) -> impl Iterator<Item = &Store> {
        let (a, b) = match self {
            OptimizerState::Sgd(_) => (None, None),
            OptimizerState::Momentum(o) => (Some(&o.velocity), None),
            OptimizerState::AdaGrad(o) => (Some(&o.accum), None),
            OptimizerState::Adam(o) => (Some(&o.m), Some(&o.v)),
        };
        a.into_iter().chain(b)
    }

    /// The checkpoint's optimizer tag: the rule's (0 SGD, 1 Momentum,
    /// 2 AdaGrad, 3 Adam), plus 3 for sketched state.
    pub(crate) fn tag(&self) -> u8 {
        let rule = match self {
            OptimizerState::Sgd(_) => 0,
            OptimizerState::Momentum(_) => 1,
            OptimizerState::AdaGrad(_) => 2,
            OptimizerState::Adam(_) => 3,
        };
        rule + 3 * u8::from(self.is_sketched())
    }

    /// Display name for experiment tables, logs and error messages.
    pub fn name(&self) -> &'static str {
        const NAMES: [&str; 7] = [
            "SGD",
            "Momentum",
            "AdaGrad",
            "Adam",
            "SketchedMomentum",
            "SketchedAdaGrad",
            "SketchedAdam",
        ];
        NAMES[usize::from(self.tag())]
    }

    /// Whether the state lives in count-sketch tables.
    pub fn is_sketched(&self) -> bool {
        self.stores().any(|s| matches!(s, Store::Sketched(_)))
    }

    /// Bytes of auxiliary state (moment/velocity/accumulator storage).
    pub fn state_bytes(&self) -> usize {
        self.stores().map(Store::bytes).sum()
    }

    /// The Adam state, if this is Adam.
    pub fn as_adam(&self) -> Option<&Adam> {
        match self {
            OptimizerState::Adam(a) => Some(a),
            _ => None,
        }
    }
}

impl From<Sgd> for OptimizerState {
    fn from(o: Sgd) -> Self {
        OptimizerState::Sgd(o)
    }
}

impl From<Momentum> for OptimizerState {
    fn from(o: Momentum) -> Self {
        OptimizerState::Momentum(o)
    }
}

impl From<AdaGrad> for OptimizerState {
    fn from(o: AdaGrad) -> Self {
        OptimizerState::AdaGrad(o)
    }
}

impl From<Adam> for OptimizerState {
    fn from(o: Adam) -> Self {
        OptimizerState::Adam(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::AdamConfig;

    fn every_kind() -> [OptimizerKind; 4] {
        [
            OptimizerKind::Sgd(0.05),
            OptimizerKind::Momentum(0.05, 0.9),
            OptimizerKind::AdaGrad(0.1, 1e-8),
            OptimizerKind::Adam(AdamConfig::with_lr(0.05)),
        ]
    }

    #[test]
    fn mode_validation() {
        assert!(OptStateMode::Dense.validate().is_ok());
        assert!(OptStateMode::sketched(3, 1024).validate().is_ok());
        assert!(OptStateMode::sketched(0, 1024).validate().is_err());
        assert!(OptStateMode::sketched(3, 0).validate().is_err());
        assert!(OptStateMode::sketched(65, 1024).validate().is_err());
        assert!(OptStateMode::sketched(64, usize::MAX / 2)
            .validate()
            .is_err());
        assert_eq!(OptStateMode::default(), OptStateMode::Dense);
    }

    #[test]
    fn build_covers_every_kind_and_mode() {
        for kind in every_kind() {
            for mode in [OptStateMode::Dense, OptStateMode::sketched(3, 256)] {
                let mut st = OptimizerState::build(kind, mode, 16).unwrap();
                let mut w = vec![0.0; 16];
                st.step(&mut w, &[3, 16], &[1.0, 1.0]);
                assert_ne!(w[3], 0.0, "{} did not update", st.name());
                assert!(w.iter().enumerate().all(|(k, &x)| k == 3 || x == 0.0));
                // The spec a resume is held to is the one the state came from.
                let sgd = matches!(kind, OptimizerKind::Sgd(_));
                let layout = if sgd { OptStateMode::Dense } else { mode };
                assert_eq!(st.spec(), (kind, layout));
                assert_eq!(st.is_sketched(), !sgd && mode != OptStateMode::Dense);
            }
        }
        // SGD has no state to sketch — both modes yield the dense form.
        let st = OptimizerState::build(OptimizerKind::Sgd(0.1), OptStateMode::sketched(3, 256), 16)
            .unwrap();
        assert_eq!((st.name(), st.state_bytes()), ("SGD", 0));
    }

    #[test]
    fn sketched_memory_is_dimension_independent() {
        let adam = OptimizerKind::Adam(AdamConfig::default());
        let small = OptimizerState::build(adam, OptStateMode::sketched(3, 512), 1 << 20).unwrap();
        assert_eq!(small.state_bytes(), 8 * 3 * 512 * 2);
        // Dense Adam at d scales linearly; sketched is constant.
        let dense = OptimizerState::build(adam, OptStateMode::Dense, 1 << 20).unwrap();
        assert_eq!(dense.state_bytes(), 16 << 20);
    }

    #[test]
    fn sketched_rules_track_dense_when_collision_free() {
        // With far more columns than live dimensions the sketch is
        // essentially exact, so each sketched rule must track its dense form.
        for kind in every_kind() {
            let build = |mode| OptimizerState::build(kind, mode, 4).unwrap();
            let (mut dense, mut sk) = (
                build(OptStateMode::Dense),
                build(OptStateMode::sketched(3, 4096)),
            );
            let (mut wd, mut ws) = (vec![0.0; 4], vec![0.0; 4]);
            for step in 0..200 {
                let g = |w: &[f64]| [2.0 * (w[0] - 1.0), (step as f64 * 0.1).sin(), -0.3, 0.001];
                let (gd, gs) = (g(&wd), g(&ws));
                dense.step(&mut wd, &[0, 1, 2, 3], &gd);
                sk.step(&mut ws, &[0, 1, 2, 3], &gs);
            }
            for (a, b) in wd.iter().zip(&ws) {
                assert!(
                    (a - b).abs() < 1e-6,
                    "{}: dense {a} vs sketched {b}",
                    sk.name()
                );
            }
        }
    }

    #[test]
    fn sketched_rules_converge_on_quadratic() {
        for (kind, steps) in [
            (OptimizerKind::Momentum(0.02, 0.9), 500),
            (OptimizerKind::AdaGrad(0.5, 1e-8), 2000),
            (OptimizerKind::Adam(AdamConfig::with_lr(0.1)), 500),
        ] {
            let mut opt = OptimizerState::build(kind, OptStateMode::sketched(3, 1024), 1).unwrap();
            let mut w = vec![0.0];
            for _ in 0..steps {
                let g = 2.0 * (w[0] - 3.0);
                opt.step(&mut w, &[0], &[g]);
            }
            assert!((w[0] - 3.0).abs() < 0.1, "{} w = {}", opt.name(), w[0]);
        }
    }
}
