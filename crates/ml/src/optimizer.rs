//! First-order optimizers (paper §2.2, §4.1).
//!
//! SGD applies `θ ← θ - η·g`. Adam (Kingma & Ba, the paper's choice for all
//! baselines — "Note that the Adam strategy is applied to all the baselines
//! for the purpose of fairness") keeps exponential moving averages of the
//! gradient and its square:
//!
//! ```text
//! m_t = β₁ m_{t-1} + (1-β₁) g_t
//! v_t = β₂ v_{t-1} + (1-β₂) g_t²
//! θ_{t+1} = θ_t - η/(√v̂_t + ε) · m̂_t
//! ```
//!
//! Adam's per-dimension adaptive step is also §3.3's "Solution 2" for the
//! vanishing-gradient effect of MinMaxSketch decay: dimensions whose decoded
//! gradients shrink accumulate a smaller `v`, which *raises* their effective
//! learning rate.
//!
//! Moments are updated **lazily** — only on dimensions the sparse gradient
//! touches — the standard sparse-Adam treatment for high-dimensional models.
//!
//! Each rule is written once. Its per-dimension vectors are dense or
//! count-sketched ([`crate::opt_state`]); `step` matches that layout once,
//! then runs the rule's loop monomorphic in it.

use crate::error::MlError;
use crate::opt_state::{with_layout, Cells, Store};
use serde::{Deserialize, Serialize};

/// The key loop every rule shares: `weights[k] -= delta(k, g)` for each pair
/// whose key is inside the model; the rest are skipped.
#[inline(always)]
fn each_key(
    weights: &mut [f64],
    keys: &[u64],
    values: &[f64],
    mut delta: impl FnMut(usize, f64) -> f64,
) {
    for (&k, &g) in keys.iter().zip(values) {
        let k = k as usize;
        if k < weights.len() {
            weights[k] -= delta(k, g);
        }
    }
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate η.
    pub lr: f64,
}

impl Sgd {
    /// Creates SGD with learning rate `lr`.
    ///
    /// # Errors
    /// [`MlError::InvalidConfig`] unless `lr > 0`.
    pub fn new(lr: f64) -> Result<Self, MlError> {
        if lr <= 0.0 || !lr.is_finite() {
            return Err(MlError::InvalidConfig(format!(
                "lr must be positive, got {lr}"
            )));
        }
        Ok(Sgd { lr })
    }

    pub(crate) fn step(&mut self, weights: &mut [f64], keys: &[u64], values: &[f64]) {
        each_key(weights, keys, values, |_, g| self.lr * g);
    }
}

/// Adam hyper-parameters (§4.1 defaults: β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate η.
    pub lr: f64,
    /// First-moment decay β₁.
    pub beta1: f64,
    /// Second-moment decay β₂.
    pub beta2: f64,
    /// Numerical-stability term ε.
    pub epsilon: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
        }
    }
}

impl AdamConfig {
    /// Default parameters at a specific learning rate.
    pub fn with_lr(lr: f64) -> Self {
        AdamConfig {
            lr,
            ..AdamConfig::default()
        }
    }
}

/// Adam with lazily-updated sparse moments.
#[derive(Debug, Clone)]
pub struct Adam {
    pub(crate) config: AdamConfig,
    /// First moment `m`.
    pub(crate) m: Store,
    /// Second moment `v`, in `m`'s layout.
    pub(crate) v: Store,
    /// Global step counter `t` for bias correction.
    pub(crate) t: u64,
}

impl Adam {
    /// Creates an Adam optimizer with dense moments for a `dim`-dimensional
    /// model.
    ///
    /// # Errors
    /// [`MlError::InvalidConfig`] on out-of-range hyper-parameters.
    pub fn new(dim: usize, config: AdamConfig) -> Result<Self, MlError> {
        if config.lr <= 0.0 || !config.lr.is_finite() {
            return Err(MlError::InvalidConfig("lr must be positive".into()));
        }
        if !(0.0..1.0).contains(&config.beta1) || !(0.0..1.0).contains(&config.beta2) {
            return Err(MlError::InvalidConfig("betas must be in [0, 1)".into()));
        }
        if config.epsilon <= 0.0 || !config.epsilon.is_finite() {
            return Err(MlError::InvalidConfig("epsilon must be positive".into()));
        }
        Ok(Adam {
            config,
            m: Store::Dense(vec![0.0; dim]),
            v: Store::Dense(vec![0.0; dim]),
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

    pub(crate) fn step(&mut self, weights: &mut [f64], keys: &[u64], values: &[f64]) {
        self.t += 1;
        let AdamConfig {
            lr,
            beta1,
            beta2,
            epsilon,
        } = self.config;
        // powf, not powi: casting t to i32 wraps past i32::MAX, flipping the
        // exponent sign and with it the bias correction.
        let bc1 = 1.0 - beta1.powf(self.t as f64);
        let bc2 = 1.0 - beta2.powf(self.t as f64);
        // A sketched `v` can read negative from collision noise: it is a sum
        // of squares in expectation, so it is clamped where it is read. Dense
        // `v` is never below +0, where the clamps change nothing.
        with_layout!(m = &mut self.m, v = &mut self.v => each_key(weights, keys, values, |k, g| {
            let m = m.update(k, |m| beta1 * m + (1.0 - beta1) * g);
            let v = v.update(k, |v| beta2 * v.max(0.0) + (1.0 - beta2) * g * g);
            let m_hat = m / bc1;
            let v_hat = (v / bc2).max(0.0);
            lr * m_hat / (v_hat.sqrt() + epsilon)
        }))
    }
}

/// SGD with Polyak momentum (paper §4.1 cites momentum, refs 36/37, as one of
/// the two ingredients Adam combines): `u ← γ·u + g; θ ← θ − η·u`.
#[derive(Debug, Clone)]
pub struct Momentum {
    /// Learning rate η.
    pub lr: f64,
    /// Momentum coefficient γ (typically 0.9).
    pub gamma: f64,
    pub(crate) velocity: Store,
}

impl Momentum {
    /// Creates a momentum optimizer with a dense velocity for a
    /// `dim`-dimensional model.
    ///
    /// # Errors
    /// [`MlError::InvalidConfig`] on out-of-range hyper-parameters.
    pub fn new(dim: usize, lr: f64, gamma: f64) -> Result<Self, MlError> {
        if lr <= 0.0 || !lr.is_finite() {
            return Err(MlError::InvalidConfig("lr must be positive".into()));
        }
        if !(0.0..1.0).contains(&gamma) {
            return Err(MlError::InvalidConfig("gamma must be in [0, 1)".into()));
        }
        Ok(Momentum {
            lr,
            gamma,
            velocity: Store::Dense(vec![0.0; dim]),
        })
    }

    pub(crate) fn step(&mut self, weights: &mut [f64], keys: &[u64], values: &[f64]) {
        let (lr, gamma) = (self.lr, self.gamma);
        with_layout!(u = &mut self.velocity => each_key(weights, keys, values, |k, g| {
            lr * u.update(k, |u| gamma * u + g)
        }))
    }
}

/// AdaGrad (Duchi et al., the paper's reference 15 — the other Adam ingredient):
/// `G ← G + g²; θ ← θ − η/(√G + ε)·g`. Per-dimension adaptive steps, no
/// moment decay.
#[derive(Debug, Clone)]
pub struct AdaGrad {
    /// Learning rate η.
    pub lr: f64,
    /// Stability term ε.
    pub epsilon: f64,
    pub(crate) accum: Store,
}

impl AdaGrad {
    /// Default stability term when none is configured.
    pub const DEFAULT_EPSILON: f64 = 1e-8;

    /// Creates an AdaGrad optimizer for a `dim`-dimensional model with the
    /// default ε.
    ///
    /// # Errors
    /// [`MlError::InvalidConfig`] on out-of-range hyper-parameters.
    pub fn new(dim: usize, lr: f64) -> Result<Self, MlError> {
        Self::with_epsilon(dim, lr, Self::DEFAULT_EPSILON)
    }

    /// Creates an AdaGrad optimizer with a dense accumulator and an explicit
    /// stability term.
    ///
    /// # Errors
    /// [`MlError::InvalidConfig`] unless `lr > 0` and `epsilon > 0` (both
    /// finite) — the same validation [`AdamConfig`] gets.
    pub fn with_epsilon(dim: usize, lr: f64, epsilon: f64) -> Result<Self, MlError> {
        if lr <= 0.0 || !lr.is_finite() {
            return Err(MlError::InvalidConfig("lr must be positive".into()));
        }
        if epsilon <= 0.0 || !epsilon.is_finite() {
            return Err(MlError::InvalidConfig("epsilon must be positive".into()));
        }
        Ok(AdaGrad {
            lr,
            epsilon,
            accum: Store::Dense(vec![0.0; dim]),
        })
    }

    pub(crate) fn step(&mut self, weights: &mut [f64], keys: &[u64], values: &[f64]) {
        let (lr, epsilon) = (self.lr, self.epsilon);
        // The accumulator is a plain running sum, which a sketch takes as a
        // linear insert; its read-back is clamped like Adam's `v`.
        with_layout!(a = &mut self.accum => each_key(weights, keys, values, |k, g| {
            let a = a.add(k, g * g).max(0.0);
            lr * g / (a.sqrt() + epsilon)
        }))
    }
}

/// A serializable optimizer selector, used by the trainer configuration so
/// experiments can ablate the §3.3 "Adaptive Learning Rate" solution
/// (SketchML with plain SGD vs with Adam).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Plain SGD at the given learning rate.
    Sgd(f64),
    /// Momentum SGD `(lr, gamma)`.
    Momentum(f64, f64),
    /// AdaGrad `(lr, epsilon)`.
    AdaGrad(f64, f64),
    /// Adam with full hyper-parameters (the paper's default).
    Adam(AdamConfig),
}

impl OptimizerKind {
    /// Display name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            OptimizerKind::Sgd(_) => "SGD",
            OptimizerKind::Momentum(..) => "Momentum",
            OptimizerKind::AdaGrad(..) => "AdaGrad",
            OptimizerKind::Adam(_) => "Adam",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_step_math() {
        let mut sgd = Sgd::new(0.1).unwrap();
        let mut w = vec![1.0, 2.0, 3.0];
        sgd.step(&mut w, &[0, 2], &[10.0, -10.0]);
        assert_eq!(w, vec![0.0, 2.0, 4.0]);
        // Out-of-range keys are ignored.
        sgd.step(&mut w, &[99], &[1.0]);
        assert_eq!(w, vec![0.0, 2.0, 4.0]);
    }

    #[test]
    fn sgd_rejects_bad_lr() {
        assert!(Sgd::new(0.0).is_err());
        assert!(Sgd::new(-1.0).is_err());
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the very first Adam step is ≈ lr·sign(g).
        let mut adam = Adam::new(1, AdamConfig::with_lr(0.1)).unwrap();
        let mut w = vec![0.0];
        adam.step(&mut w, &[0], &[0.5]);
        assert!(
            (w[0] + 0.1).abs() < 1e-6,
            "first step should be ≈ -lr, got {}",
            w[0]
        );
    }

    #[test]
    fn adam_matches_reference_two_steps() {
        // Hand-computed reference for g = [1.0, 1.0] on one dimension.
        let cfg = AdamConfig {
            lr: 0.1,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
        };
        let mut adam = Adam::new(1, cfg).unwrap();
        let mut w = vec![0.0];
        adam.step(&mut w, &[0], &[1.0]);
        // t=1: m=0.1/bc1(0.1)=1, v=0.001/bc2(0.001)=1 → step = lr.
        let after1 = w[0];
        assert!((after1 + 0.1).abs() < 1e-6);
        adam.step(&mut w, &[0], &[1.0]);
        // t=2: m=0.19/0.19=1, v=0.0019.../0.001999=~1 → another ~lr step.
        assert!((w[0] + 0.2).abs() < 1e-4, "w after two steps: {}", w[0]);
    }

    #[test]
    fn adam_adapts_per_dimension() {
        // A dimension with persistently large gradients gets smaller
        // effective steps than one with small gradients (relative to
        // magnitude) — the §3.3 "convergence imbalance" fix.
        let mut adam = Adam::new(2, AdamConfig::with_lr(0.01)).unwrap();
        let mut w = vec![0.0, 0.0];
        for _ in 0..100 {
            adam.step(&mut w, &[0, 1], &[10.0, 0.1]);
        }
        // Both dims move ~lr per step despite 100x gradient difference.
        let ratio = w[0] / w[1];
        assert!(
            (0.5..2.0).contains(&ratio),
            "Adam should normalize step sizes, ratio {ratio}"
        );
    }

    #[test]
    fn adam_lazy_sparse_updates() {
        let mut adam = Adam::new(4, AdamConfig::default()).unwrap();
        let mut w = vec![1.0; 4];
        adam.step(&mut w, &[1], &[1.0]);
        assert_eq!(w[0], 1.0);
        assert_ne!(w[1], 1.0);
        assert_eq!(w[2], 1.0);
        assert_eq!(adam.steps(), 1);
    }

    #[test]
    fn adam_validates_config() {
        assert!(Adam::new(
            1,
            AdamConfig {
                lr: 0.0,
                ..AdamConfig::default()
            }
        )
        .is_err());
        assert!(Adam::new(
            1,
            AdamConfig {
                beta1: 1.0,
                ..AdamConfig::default()
            }
        )
        .is_err());
        assert!(Adam::new(
            1,
            AdamConfig {
                beta2: -0.1,
                ..AdamConfig::default()
            }
        )
        .is_err());
        assert!(Adam::new(
            1,
            AdamConfig {
                epsilon: 0.0,
                ..AdamConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(w) = (w - 3)²; gradient 2(w - 3).
        let mut adam = Adam::new(1, AdamConfig::with_lr(0.1)).unwrap();
        let mut w = vec![0.0];
        for _ in 0..500 {
            let g = 2.0 * (w[0] - 3.0);
            adam.step(&mut w, &[0], &[g]);
        }
        assert!((w[0] - 3.0).abs() < 0.05, "w = {}", w[0]);
    }

    #[test]
    fn adam_with_decayed_gradients_still_converges() {
        // §3.3: MinMaxSketch decays gradients; Adam compensates. Feed Adam
        // gradients scaled down 10x — it still reaches the optimum.
        let mut adam = Adam::new(1, AdamConfig::with_lr(0.1)).unwrap();
        let mut w = vec![0.0];
        for _ in 0..800 {
            let g = 2.0 * (w[0] - 3.0) * 0.1; // decayed
            adam.step(&mut w, &[0], &[g]);
        }
        assert!((w[0] - 3.0).abs() < 0.05, "w = {}", w[0]);
    }

    #[test]
    fn momentum_accelerates_consistent_gradients() {
        let mut plain = Sgd::new(0.01).unwrap();
        let mut mom = Momentum::new(1, 0.01, 0.9).unwrap();
        let (mut wp, mut wm) = (vec![0.0], vec![0.0]);
        for _ in 0..50 {
            plain.step(&mut wp, &[0], &[1.0]);
            mom.step(&mut wm, &[0], &[1.0]);
        }
        assert!(
            wm[0] < wp[0],
            "momentum should move farther: {} vs {}",
            wm[0],
            wp[0]
        );
    }

    #[test]
    fn momentum_validates() {
        assert!(Momentum::new(1, 0.0, 0.9).is_err());
        assert!(Momentum::new(1, 0.1, 1.0).is_err());
        assert!(Momentum::new(1, 0.1, 0.9).is_ok());
    }

    #[test]
    fn adagrad_normalizes_per_dimension() {
        let mut opt = AdaGrad::new(2, 0.1).unwrap();
        let mut w = vec![0.0, 0.0];
        for _ in 0..200 {
            opt.step(&mut w, &[0, 1], &[100.0, 0.01]);
        }
        // AdaGrad steps shrink as 1/sqrt(t) regardless of gradient scale.
        let ratio = w[0] / w[1];
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
        assert!(AdaGrad::new(1, 0.0).is_err());
    }

    #[test]
    fn adagrad_validates_epsilon() {
        assert!(AdaGrad::with_epsilon(1, 0.1, 0.0).is_err());
        assert!(AdaGrad::with_epsilon(1, 0.1, -1e-8).is_err());
        assert!(AdaGrad::with_epsilon(1, 0.1, f64::NAN).is_err());
        assert!(AdaGrad::with_epsilon(1, 0.1, f64::INFINITY).is_err());
        let ada = AdaGrad::with_epsilon(1, 0.1, 1e-6).unwrap();
        assert_eq!(ada.epsilon, 1e-6);
        assert_eq!(
            AdaGrad::new(1, 0.1).unwrap().epsilon,
            AdaGrad::DEFAULT_EPSILON
        );
    }

    #[test]
    fn adam_bias_correction_survives_huge_step_counts() {
        // Regression: `beta.powi(t as i32)` wrapped once t exceeded i32::MAX,
        // flipping the exponent sign so `1 - β^t` went negative and the step
        // reversed direction. powf saturates gracefully (β^t → 0, bc → 1).
        let mut adam = Adam::new(1, AdamConfig::with_lr(0.1)).unwrap();
        adam.t = i32::MAX as u64 + 17;
        let mut w = vec![0.0];
        adam.step(&mut w, &[0], &[1.0]);
        assert!(w[0].is_finite(), "step must stay finite, got {}", w[0]);
        assert!(
            w[0] < 0.0,
            "a positive gradient must still decrease the weight, got {}",
            w[0]
        );
    }

    #[test]
    fn optimizer_kind_json_is_the_derived_form() {
        for kind in [
            OptimizerKind::Sgd(0.02),
            OptimizerKind::Momentum(0.02, 0.9),
            OptimizerKind::AdaGrad(0.1, 1e-6),
            OptimizerKind::Adam(AdamConfig::default()),
        ] {
            let json = serde_json::to_string(&kind).unwrap();
            assert_eq!(serde_json::from_str::<OptimizerKind>(&json).unwrap(), kind);
        }
        // AdaGrad is a pair: the bare learning rate no writer emits is
        // refused, as is an unknown rule.
        for json in [r#"{"AdaGrad":0.05}"#, r#"{"Nadam":0.1}"#] {
            assert!(
                serde_json::from_str::<OptimizerKind>(json).is_err(),
                "{json}"
            );
        }
    }

    #[test]
    fn adagrad_converges_on_quadratic() {
        let mut opt = AdaGrad::new(1, 0.5).unwrap();
        let mut w = vec![0.0];
        for _ in 0..2000 {
            let g = 2.0 * (w[0] - 3.0);
            opt.step(&mut w, &[0], &[g]);
        }
        assert!((w[0] - 3.0).abs() < 0.1, "w = {}", w[0]);
    }

    #[test]
    fn optimizer_kind_names() {
        let names = [
            OptimizerKind::Sgd(0.1),
            OptimizerKind::Momentum(0.1, 0.9),
            OptimizerKind::AdaGrad(0.1, 1e-8),
            OptimizerKind::Adam(AdamConfig::default()),
        ]
        .map(OptimizerKind::name);
        assert_eq!(names, ["SGD", "Momentum", "AdaGrad", "Adam"]);
    }
}
