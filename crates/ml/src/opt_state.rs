//! Sketch-compressed optimizer state (ROADMAP: "100M+ dimension models").
//!
//! Dense Adam pins `2·d` f64s of moments per worker — at d = 100M that is
//! 1.6 GB, dwarfing the KB-scale compressed gradients SketchML ships on the
//! wire. "Compressing Gradient Optimizers via Count-Sketches" (Spring et al.,
//! arXiv:1902.00179) shows the auxiliary vectors tolerate the same
//! count-sketch treatment the paper applies to gradients: store each moment
//! vector in a seeded `rows × cols` signed table, estimate entries by a
//! sign-corrected median over rows, and fold every update back in as an
//! *insert of the delta* so the table keeps tracking its own estimate:
//!
//! ```text
//! est   = S.query(k)              // median-of-rows estimate of m_k
//! new   = β·est + (1-β)·g         // the usual moment recurrence
//! S.insert(k, new - est)          // table now answers ≈ new for k
//! ```
//!
//! AdaGrad's accumulator is a plain running sum (`G += g²`), which is exactly
//! the linear aggregation a count-sketch supports natively, so it inserts
//! `g²` directly with no query-before-update.
//!
//! Memory is `rows·cols·8` bytes per table **regardless of d** — a few MB
//! bounds optimizer state for arbitrarily wide models, at the price of
//! collision noise in the moment estimates (benign for Adam/AdaGrad, whose
//! per-dimension normalization absorbs small errors; see `fig_bigmodel`).
//!
//! [`OptimizerState`] is the serializable sum of every dense and sketched
//! optimizer this crate offers. It is what a `Checkpoint` stores (since v2),
//! closing the v1 hole where only Adam runs could checkpoint at all.

use crate::error::MlError;
use crate::optimizer::{AdaGrad, Adam, AdamConfig, Momentum, Optimizer, OptimizerKind, Sgd};
use serde::{Deserialize, Serialize};
use sketchml_sketches::CountSketch;

/// Seed salts for the moment tables, fixed so that two workers building the
/// same spec get hash-identical tables (required for bit-exact resume and
/// for restoring a worker from another's state).
const SEED_M: u64 = 0x5EED_0111;
const SEED_V: u64 = 0x5EED_0222;
const SEED_U: u64 = 0x5EED_0333;
const SEED_G: u64 = 0x5EED_0444;

/// How a trainer materializes optimizer state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
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

    /// Validates shape parameters.
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

fn table(rows: usize, cols: usize, seed: u64) -> Result<CountSketch, MlError> {
    CountSketch::new(rows, cols, seed)
        .map_err(|e| MlError::InvalidConfig(format!("sketched opt state: {e}")))
}

/// Adam whose moment vectors live in count-sketch tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SketchedAdam {
    pub(crate) config: AdamConfig,
    pub(crate) m: CountSketch,
    pub(crate) v: CountSketch,
    pub(crate) t: u64,
}

impl SketchedAdam {
    /// Creates a sketched Adam with `rows × cols` tables for each moment.
    ///
    /// # Errors
    /// [`MlError::InvalidConfig`] on bad hyper-parameters or table shape.
    pub fn new(config: AdamConfig, rows: usize, cols: usize) -> Result<Self, MlError> {
        Adam::new(0, config)?; // reuse the dense hyper-parameter validation
        Ok(SketchedAdam {
            config,
            m: table(rows, cols, SEED_M)?,
            v: table(rows, cols, SEED_V)?,
            t: 0,
        })
    }

    /// Step counter (number of `step` calls so far).
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Hyper-parameters in effect.
    pub fn config(&self) -> &AdamConfig {
        &self.config
    }

    /// Bytes held in moment tables (excludes the struct header).
    pub fn state_bytes(&self) -> usize {
        8 * (self.m.rows() * self.m.cols() + self.v.rows() * self.v.cols())
    }
}

impl Optimizer for SketchedAdam {
    fn step(&mut self, weights: &mut [f64], keys: &[u64], values: &[f64]) {
        self.t += 1;
        let AdamConfig {
            lr,
            beta1,
            beta2,
            epsilon,
        } = self.config;
        let bc1 = 1.0 - beta1.powf(self.t as f64);
        let bc2 = 1.0 - beta2.powf(self.t as f64);
        for (&key, &g) in keys.iter().zip(values) {
            if key as usize >= weights.len() {
                continue;
            }
            let m_est = self.m.query(key);
            let m_new = beta1 * m_est + (1.0 - beta1) * g;
            self.m.insert(key, m_new - m_est);
            // Collision noise can push the second-moment estimate negative;
            // clamp before using it (it is a sum of squares in expectation).
            let v_est = self.v.query(key);
            let v_new = beta2 * v_est.max(0.0) + (1.0 - beta2) * g * g;
            self.v.insert(key, v_new - v_est);
            let m_hat = m_new / bc1;
            let v_hat = (v_new / bc2).max(0.0);
            weights[key as usize] -= lr * m_hat / (v_hat.sqrt() + epsilon);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.config.lr
    }
}

/// Momentum SGD whose velocity vector lives in a count-sketch table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SketchedMomentum {
    /// Learning rate η.
    pub lr: f64,
    /// Momentum coefficient γ.
    pub gamma: f64,
    pub(crate) velocity: CountSketch,
}

impl SketchedMomentum {
    /// Creates a sketched momentum optimizer.
    ///
    /// # Errors
    /// [`MlError::InvalidConfig`] on bad hyper-parameters or table shape.
    pub fn new(lr: f64, gamma: f64, rows: usize, cols: usize) -> Result<Self, MlError> {
        Momentum::new(0, lr, gamma)?;
        Ok(SketchedMomentum {
            lr,
            gamma,
            velocity: table(rows, cols, SEED_U)?,
        })
    }

    /// Bytes held in the velocity table.
    pub fn state_bytes(&self) -> usize {
        8 * self.velocity.rows() * self.velocity.cols()
    }
}

impl Optimizer for SketchedMomentum {
    fn step(&mut self, weights: &mut [f64], keys: &[u64], values: &[f64]) {
        for (&key, &g) in keys.iter().zip(values) {
            if key as usize >= weights.len() {
                continue;
            }
            let u_est = self.velocity.query(key);
            let u_new = self.gamma * u_est + g;
            self.velocity.insert(key, u_new - u_est);
            weights[key as usize] -= self.lr * u_new;
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }
}

/// AdaGrad whose squared-gradient accumulator lives in a count-sketch table.
///
/// Accumulation is purely additive, so updates are plain linear inserts —
/// the one optimizer whose sketched form needs no query-before-update.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SketchedAdaGrad {
    /// Learning rate η.
    pub lr: f64,
    /// Stability term ε.
    pub epsilon: f64,
    pub(crate) accum: CountSketch,
}

impl SketchedAdaGrad {
    /// Creates a sketched AdaGrad optimizer.
    ///
    /// # Errors
    /// [`MlError::InvalidConfig`] on bad hyper-parameters or table shape.
    pub fn new(lr: f64, epsilon: f64, rows: usize, cols: usize) -> Result<Self, MlError> {
        AdaGrad::with_epsilon(0, lr, epsilon)?;
        Ok(SketchedAdaGrad {
            lr,
            epsilon,
            accum: table(rows, cols, SEED_G)?,
        })
    }

    /// Bytes held in the accumulator table.
    pub fn state_bytes(&self) -> usize {
        8 * self.accum.rows() * self.accum.cols()
    }
}

impl Optimizer for SketchedAdaGrad {
    fn step(&mut self, weights: &mut [f64], keys: &[u64], values: &[f64]) {
        for (&key, &g) in keys.iter().zip(values) {
            if key as usize >= weights.len() {
                continue;
            }
            self.accum.insert(key, g * g);
            let a = self.accum.query(key).max(0.0);
            weights[key as usize] -= self.lr * g / (a.sqrt() + self.epsilon);
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }
}

/// Every optimizer state this crate can checkpoint: the serializable sum of
/// dense and sketched variants. Checkpoints store this enum; trainers hold
/// it directly so any run — not just Adam — can crash and resume bit-exact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum OptimizerState {
    /// Stateless SGD (`lr` only — nothing to sketch).
    Sgd(Sgd),
    /// Dense momentum (velocity over the full dimension).
    Momentum(Momentum),
    /// Dense AdaGrad (accumulator over the full dimension).
    AdaGrad(AdaGrad),
    /// Dense Adam (the paper's default).
    Adam(Adam),
    /// Momentum with a sketched velocity table.
    SketchedMomentum(SketchedMomentum),
    /// AdaGrad with a sketched accumulator table.
    SketchedAdaGrad(SketchedAdaGrad),
    /// Adam with sketched moment tables.
    SketchedAdam(SketchedAdam),
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
        Ok(match (kind, mode) {
            (OptimizerKind::Sgd(lr), _) => OptimizerState::Sgd(Sgd::new(lr)?),
            (kind, OptStateMode::Dense) => match kind {
                OptimizerKind::Sgd(_) => unreachable!("handled above"),
                OptimizerKind::Momentum(lr, gamma) => {
                    OptimizerState::Momentum(Momentum::new(dim, lr, gamma)?)
                }
                OptimizerKind::AdaGrad(lr, epsilon) => {
                    OptimizerState::AdaGrad(AdaGrad::with_epsilon(dim, lr, epsilon)?)
                }
                OptimizerKind::Adam(cfg) => OptimizerState::Adam(Adam::new(dim, cfg)?),
            },
            (kind, OptStateMode::Sketched { rows, cols }) => match kind {
                OptimizerKind::Sgd(_) => unreachable!("handled above"),
                OptimizerKind::Momentum(lr, gamma) => {
                    OptimizerState::SketchedMomentum(SketchedMomentum::new(lr, gamma, rows, cols)?)
                }
                OptimizerKind::AdaGrad(lr, epsilon) => {
                    OptimizerState::SketchedAdaGrad(SketchedAdaGrad::new(lr, epsilon, rows, cols)?)
                }
                OptimizerKind::Adam(cfg) => {
                    OptimizerState::SketchedAdam(SketchedAdam::new(cfg, rows, cols)?)
                }
            },
        })
    }

    /// Display name for experiment tables and logs.
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerState::Sgd(_) => "SGD",
            OptimizerState::Momentum(_) => "Momentum",
            OptimizerState::AdaGrad(_) => "AdaGrad",
            OptimizerState::Adam(_) => "Adam",
            OptimizerState::SketchedMomentum(_) => "SketchedMomentum",
            OptimizerState::SketchedAdaGrad(_) => "SketchedAdaGrad",
            OptimizerState::SketchedAdam(_) => "SketchedAdam",
        }
    }

    /// Whether the state lives in count-sketch tables.
    pub fn is_sketched(&self) -> bool {
        matches!(
            self,
            OptimizerState::SketchedMomentum(_)
                | OptimizerState::SketchedAdaGrad(_)
                | OptimizerState::SketchedAdam(_)
        )
    }

    /// Bytes of auxiliary state (moment/velocity/accumulator storage).
    pub fn state_bytes(&self) -> usize {
        match self {
            OptimizerState::Sgd(_) => 0,
            OptimizerState::Momentum(m) => m.state_bytes(),
            OptimizerState::AdaGrad(a) => a.state_bytes(),
            OptimizerState::Adam(a) => a.state_bytes(),
            OptimizerState::SketchedMomentum(m) => m.state_bytes(),
            OptimizerState::SketchedAdaGrad(a) => a.state_bytes(),
            OptimizerState::SketchedAdam(a) => a.state_bytes(),
        }
    }

    /// The Adam state, if this is a dense Adam.
    pub fn as_adam(&self) -> Option<&Adam> {
        match self {
            OptimizerState::Adam(a) => Some(a),
            _ => None,
        }
    }
}

impl Optimizer for OptimizerState {
    fn step(&mut self, weights: &mut [f64], keys: &[u64], values: &[f64]) {
        match self {
            OptimizerState::Sgd(o) => o.step(weights, keys, values),
            OptimizerState::Momentum(o) => o.step(weights, keys, values),
            OptimizerState::AdaGrad(o) => o.step(weights, keys, values),
            OptimizerState::Adam(o) => o.step(weights, keys, values),
            OptimizerState::SketchedMomentum(o) => o.step(weights, keys, values),
            OptimizerState::SketchedAdaGrad(o) => o.step(weights, keys, values),
            OptimizerState::SketchedAdam(o) => o.step(weights, keys, values),
        }
    }

    fn learning_rate(&self) -> f64 {
        match self {
            OptimizerState::Sgd(o) => o.learning_rate(),
            OptimizerState::Momentum(o) => o.learning_rate(),
            OptimizerState::AdaGrad(o) => o.learning_rate(),
            OptimizerState::Adam(o) => o.learning_rate(),
            OptimizerState::SketchedMomentum(o) => o.learning_rate(),
            OptimizerState::SketchedAdaGrad(o) => o.learning_rate(),
            OptimizerState::SketchedAdam(o) => o.learning_rate(),
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

impl From<SketchedMomentum> for OptimizerState {
    fn from(o: SketchedMomentum) -> Self {
        OptimizerState::SketchedMomentum(o)
    }
}

impl From<SketchedAdaGrad> for OptimizerState {
    fn from(o: SketchedAdaGrad) -> Self {
        OptimizerState::SketchedAdaGrad(o)
    }
}

impl From<SketchedAdam> for OptimizerState {
    fn from(o: SketchedAdam) -> Self {
        OptimizerState::SketchedAdam(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
                st.step(&mut w, &[3], &[1.0]);
                assert_ne!(w[3], 0.0, "{} did not update", st.name());
                assert!(st.learning_rate() > 0.0);
            }
        }
        // SGD has no state to sketch — both modes yield the dense form.
        let st = OptimizerState::build(OptimizerKind::Sgd(0.1), OptStateMode::sketched(3, 256), 16)
            .unwrap();
        assert!(!st.is_sketched());
        assert_eq!(st.state_bytes(), 0);
    }

    #[test]
    fn sketched_memory_is_dimension_independent() {
        let cfg = AdamConfig::default();
        let small = SketchedAdam::new(cfg, 3, 512).unwrap();
        assert_eq!(small.state_bytes(), 8 * 3 * 512 * 2);
        // Dense Adam at d scales linearly; sketched is constant.
        let dense = Adam::new(1 << 20, cfg).unwrap();
        assert!(dense.state_bytes() > 100 * small.state_bytes());
    }

    #[test]
    fn sketched_adam_tracks_dense_when_collision_free() {
        // With far more columns than live dimensions the sketch is
        // essentially exact, so sketched Adam must track dense Adam tightly.
        let cfg = AdamConfig::with_lr(0.1);
        let mut dense = Adam::new(4, cfg).unwrap();
        let mut sk = SketchedAdam::new(cfg, 3, 4096).unwrap();
        let (mut wd, mut ws) = (vec![0.0; 4], vec![0.0; 4]);
        for step in 0..200 {
            let g = [2.0 * (wd[0] - 1.0), (step as f64 * 0.1).sin(), -0.3, 0.001];
            dense.step(&mut wd, &[0, 1, 2, 3], &g);
            let g = [2.0 * (ws[0] - 1.0), (step as f64 * 0.1).sin(), -0.3, 0.001];
            sk.step(&mut ws, &[0, 1, 2, 3], &g);
        }
        for (a, b) in wd.iter().zip(&ws) {
            assert!((a - b).abs() < 1e-6, "dense {a} vs sketched {b}");
        }
        assert_eq!(dense.steps(), sk.steps());
    }

    #[test]
    fn sketched_momentum_and_adagrad_converge_on_quadratic() {
        let mut mom = SketchedMomentum::new(0.02, 0.9, 3, 1024).unwrap();
        let mut w = vec![0.0];
        for _ in 0..500 {
            let g = 2.0 * (w[0] - 3.0);
            mom.step(&mut w, &[0], &[g]);
        }
        assert!((w[0] - 3.0).abs() < 0.1, "momentum w = {}", w[0]);

        let mut ada = SketchedAdaGrad::new(0.5, 1e-8, 3, 1024).unwrap();
        let mut w = vec![0.0];
        for _ in 0..2000 {
            let g = 2.0 * (w[0] - 3.0);
            ada.step(&mut w, &[0], &[g]);
        }
        assert!((w[0] - 3.0).abs() < 0.1, "adagrad w = {}", w[0]);
    }

    #[test]
    fn sketched_state_roundtrips_serde_bit_exact() {
        let mut sk = SketchedAdam::new(AdamConfig::with_lr(0.05), 3, 512).unwrap();
        let mut w = vec![0.0; 64];
        for i in 0..50u64 {
            sk.step(&mut w, &[i % 64, (i * 7) % 64], &[0.5, -0.25]);
        }
        let state = OptimizerState::SketchedAdam(sk);
        let json = serde_json::to_string(&state).unwrap();
        let back: OptimizerState = serde_json::from_str(&json).unwrap();
        let (mut a, mut b) = (state.clone(), back);
        let mut wa = vec![0.1; 64];
        let mut wb = vec![0.1; 64];
        for i in 0..20u64 {
            a.step(&mut wa, &[i], &[0.3]);
            b.step(&mut wb, &[i], &[0.3]);
        }
        assert_eq!(wa, wb, "resumed sketched state must step identically");
    }

    #[test]
    fn out_of_range_keys_are_ignored_by_sketched_variants() {
        let mut w = vec![0.0; 2];
        let mut sk = SketchedAdam::new(AdamConfig::default(), 2, 64).unwrap();
        sk.step(&mut w, &[99], &[1.0]);
        let mut mo = SketchedMomentum::new(0.1, 0.9, 2, 64).unwrap();
        mo.step(&mut w, &[99], &[1.0]);
        let mut ad = SketchedAdaGrad::new(0.1, 1e-8, 2, 64).unwrap();
        ad.step(&mut w, &[99], &[1.0]);
        assert_eq!(w, vec![0.0, 0.0]);
    }
}
