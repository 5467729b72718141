//! Generalized linear model training (paper §2.2's data model, §4.1's three
//! statistical models).
//!
//! A mini-batch gradient is computed as
//!
//! ```text
//! g = (1/B) Σ_{i∈batch} (∂l/∂s)(θᵀx_i, y_i) · x_i  +  λ · θ|_touched
//! ```
//!
//! The ℓ2 term is applied only on dimensions the batch touches — the
//! standard sparse treatment; a dense regularization gradient would destroy
//! the sparsity that SketchML's key compression exploits.

use crate::error::MlError;
use crate::loss::GlmLoss;
use crate::opt_state::OptimizerState;
use crate::vector::Instance;
use serde::{Deserialize, Serialize};

/// A mini-batch gradient in sparse key-value form, ready for compression.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchGradient {
    /// Ascending model dimensions with nonzero gradient.
    pub keys: Vec<u64>,
    /// Gradient values aligned with `keys`.
    pub values: Vec<f64>,
    /// Sum of per-instance losses over the batch (excluding regularization).
    pub loss_sum: f64,
    /// Number of instances in the batch.
    pub instances: usize,
}

impl BatchGradient {
    /// Number of nonzero gradient entries `d`.
    pub fn nnz(&self) -> usize {
        self.keys.len()
    }

    /// Mean per-instance loss of the batch.
    pub fn mean_loss(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.loss_sum / self.instances as f64
        }
    }
}

/// Accumulation state a caller keeps across batches so a gradient costs no
/// model-sized allocation: one dense cell and one bit per model dimension.
/// A batch sets the bit of every dimension it visits; emission walks the
/// bitmap word by word, which yields the keys in ascending order without a
/// sort, and zeroes each cell and word as it reads them — the scratch is
/// all-zero again when the gradient is out, whatever the batch was.
#[derive(Debug, Default)]
pub struct GradScratch {
    dense: Vec<f64>,
    touched: Vec<u64>,
}

impl GradScratch {
    /// Sizes the (all-zero) buffers for a `dim`-dimensional model.
    fn fit(&mut self, dim: usize) {
        self.dense.resize(dim, 0.0);
        self.touched.resize(dim.div_ceil(64), 0);
    }
}

/// Rows ahead of the one being scored whose `Instance` is prefetched. A
/// row of 64 features takes ≈0.8 µs to score and accumulate, several memory
/// latencies, so a short lead suffices; measured against 4/2, 8/4 and 16/8
/// at d = 2^18 on gathers of 1,875 rows with the caches evicted between
/// batches (EXPERIMENTS.md, "Prefetch distances").
const PREFETCH_INSTANCE_AHEAD: usize = 2;

/// Rows ahead whose index and value arrays are prefetched: closer than
/// [`PREFETCH_INSTANCE_AHEAD`], so the `Instance` that holds their
/// addresses has already been asked for.
const PREFETCH_ARRAYS_AHEAD: usize = 1;

/// Asks for the cache line holding `p`. A hint: it changes no value the
/// program reads and, on targets other than x86_64, compiles to nothing.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` only hints the cache. It reads nothing the
    // program observes and does not fault on any address; every caller
    // passes one in a cache line a live object or slice occupies besides.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// [`prefetch`] every cache line `s` spans, from the one its first byte is
/// in to the one its last byte is in.
#[inline(always)]
fn prefetch_slice<T>(s: &[T]) {
    if s.is_empty() {
        return;
    }
    let start = s.as_ptr().cast::<u8>();
    let lead = start.addr() % 64;
    let line = start.wrapping_sub(lead);
    for offset in (0..lead + std::mem::size_of_val(s)).step_by(64) {
        prefetch(line.wrapping_add(offset));
    }
}

/// An ℓ2-regularized generalized linear model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlmModel {
    /// Dense weight vector θ.
    pub weights: Vec<f64>,
    /// Loss family.
    pub loss: GlmLoss,
    /// Regularization coefficient λ (§4.1 sets 0.01).
    pub l2: f64,
}

impl GlmModel {
    /// Creates a zero-initialized model.
    ///
    /// # Errors
    /// [`MlError::InvalidConfig`] if `dim == 0` or `l2 < 0`.
    pub fn new(dim: usize, loss: GlmLoss, l2: f64) -> Result<Self, MlError> {
        if dim == 0 {
            return Err(MlError::InvalidConfig(
                "model dimension must be positive".into(),
            ));
        }
        if l2 < 0.0 {
            return Err(MlError::InvalidConfig("l2 must be non-negative".into()));
        }
        Ok(GlmModel {
            weights: vec![0.0; dim],
            loss,
            l2,
        })
    }

    /// Model dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// Raw score `θᵀx`.
    pub fn score(&self, instance: &Instance) -> f64 {
        instance.features.dot(&self.weights)
    }

    /// Computes the mini-batch gradient of `batch` into `out` (overwritten,
    /// its buffers reused). The instances are reached by reference, so a
    /// round's batch is `indices.iter().map(|&i| &train[i])`, not a copy;
    /// with a warm `scratch` and `out` nothing is allocated.
    ///
    /// # Panics
    /// If an instance has a feature index outside the model.
    pub fn batch_gradient_into<'a, I>(
        &self,
        batch: I,
        scratch: &mut GradScratch,
        out: &mut BatchGradient,
    ) where
        I: IntoIterator<Item = &'a Instance>,
        I::IntoIter: Clone,
    {
        scratch.fit(self.dim());
        let GradScratch { dense, touched } = scratch;
        out.keys.clear();
        out.values.clear();
        out.loss_sum = 0.0;
        out.instances = 0;
        // A round's batch is a shuffled gather, so each row costs three
        // dependent cache misses: its `Instance`, then its index and value
        // arrays. Two cursors run ahead of the row being scored and ask for
        // them early enough to arrive in time.
        let batch = batch.into_iter();
        let mut far = batch.clone().skip(PREFETCH_INSTANCE_AHEAD);
        let mut near = batch.clone().skip(PREFETCH_ARRAYS_AHEAD);
        for inst in batch {
            if let Some(ahead) = far.next() {
                prefetch(std::ptr::from_ref(ahead));
            }
            if let Some(ahead) = near.next() {
                prefetch_slice(ahead.features.indices());
                prefetch_slice(ahead.features.values());
            }
            out.instances += 1;
            let s = self.score(inst);
            out.loss_sum += self.loss.loss(s, inst.label);
            let d = self.loss.dloss(s, inst.label);
            if d == 0.0 {
                continue;
            }
            for (i, x) in inst.features.iter() {
                // Every visit marks its dimension, also one whose cell sums
                // to 0.0: it is still regularized below.
                touched[i as usize / 64] |= 1 << (i % 64);
                dense[i as usize] += d * x;
            }
        }

        let inv_b = if out.instances == 0 {
            0.0
        } else {
            1.0 / out.instances as f64
        };
        for (w, word) in touched.iter_mut().enumerate() {
            let mut marks = std::mem::take(word);
            while marks != 0 {
                let t = w * 64 + marks.trailing_zeros() as usize;
                marks &= marks - 1;
                let mut g = std::mem::take(&mut dense[t]) * inv_b;
                // Sparse ℓ2: only touched dimensions are regularized.
                g += self.l2 * self.weights[t];
                if g != 0.0 && g.is_finite() {
                    out.keys.push(t as u64);
                    out.values.push(g);
                }
            }
        }
    }

    /// [`Self::batch_gradient_into`] on fresh buffers, for one-off callers.
    pub fn batch_gradient(&self, batch: &[Instance]) -> BatchGradient {
        let mut out = BatchGradient::default();
        self.batch_gradient_into(batch, &mut GradScratch::default(), &mut out);
        out
    }

    /// Applies a (possibly decompressed) gradient through an optimizer.
    pub fn apply_gradient(&mut self, opt: &mut OptimizerState, keys: &[u64], values: &[f64]) {
        opt.step(&mut self.weights, keys, values);
    }

    /// Mean per-instance loss over `data` (the paper's test-loss metric,
    /// regularization excluded).
    pub fn mean_loss(&self, data: &[Instance]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let sum: f64 = data
            .iter()
            .map(|inst| self.loss.loss(self.score(inst), inst.label))
            .sum();
        sum / data.len() as f64
    }

    /// Classification accuracy (±1 labels); `None` for regression losses.
    pub fn accuracy(&self, data: &[Instance]) -> Option<f64> {
        if !self.loss.is_classification() || data.is_empty() {
            return None;
        }
        let correct = data
            .iter()
            .filter(|inst| (self.score(inst) >= 0.0) == (inst.label >= 0.0))
            .count();
        Some(correct as f64 / data.len() as f64)
    }

    /// Full objective including the ℓ2 term: mean loss + λ/2·‖θ‖².
    pub fn objective(&self, data: &[Instance]) -> f64 {
        let reg: f64 = self.weights.iter().map(|w| w * w).sum::<f64>() * self.l2 / 2.0;
        self.mean_loss(data) + reg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Adam, AdamConfig};
    use crate::vector::SparseVector;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn instance(pairs: &[(u32, f64)], label: f64) -> Instance {
        Instance::new(SparseVector::from_pairs(pairs).unwrap(), label)
    }

    /// A linearly separable 2-D toy problem.
    fn toy_classification(n: usize, seed: u64) -> Vec<Instance> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x0 = rng.gen_range(-1.0..1.0);
                let x1 = rng.gen_range(-1.0..1.0);
                let label = if x0 + 0.5 * x1 > 0.0 { 1.0 } else { -1.0 };
                instance(&[(0, x0), (1, x1)], label)
            })
            .collect()
    }

    #[test]
    fn gradient_matches_numeric_for_all_losses() {
        let data = vec![
            instance(&[(0, 1.0), (2, -0.5)], 1.0),
            instance(&[(1, 2.0)], -1.0),
            instance(&[(0, 0.3), (1, 0.7), (2, 0.2)], 1.0),
        ];
        for loss in GlmLoss::all() {
            let mut model = GlmModel::new(3, loss, 0.01).unwrap();
            model.weights = vec![0.2, -0.3, 0.15];
            let grad = model.batch_gradient(&data);
            // Numeric gradient of the *sampled* objective.
            let h = 1e-6;
            for (&k, &g) in grad.keys.iter().zip(&grad.values) {
                let k = k as usize;
                let mut up = model.clone();
                up.weights[k] += h;
                let mut dn = model.clone();
                dn.weights[k] -= h;
                let f = |m: &GlmModel| {
                    m.mean_loss(&data) + m.l2 / 2.0 * m.weights.iter().map(|w| w * w).sum::<f64>()
                };
                let numeric = (f(&up) - f(&dn)) / (2.0 * h);
                assert!(
                    (numeric - g).abs() < 1e-4,
                    "{:?} dim {k}: numeric {numeric} vs analytic {g}",
                    loss
                );
            }
        }
    }

    #[test]
    fn gradient_is_sparse() {
        let data = vec![instance(&[(5, 1.0)], 1.0)];
        let model = GlmModel::new(100, GlmLoss::Logistic, 0.0).unwrap();
        let grad = model.batch_gradient(&data);
        assert_eq!(grad.keys, vec![5]);
        assert_eq!(grad.instances, 1);
    }

    /// The gradient body before the bitmap, kept as the reference: a list
    /// of touched dimensions (pushed whenever a cell reads 0.0, so a cell
    /// that cancels and is touched again is listed twice), sorted and
    /// deduplicated before emission.
    fn batch_gradient_by_sorting(model: &GlmModel, batch: &[Instance]) -> BatchGradient {
        let mut dense = vec![0.0; model.dim()];
        let mut touched: Vec<u32> = Vec::new();
        let mut loss_sum = 0.0;
        for inst in batch {
            let s = model.score(inst);
            loss_sum += model.loss.loss(s, inst.label);
            let d = model.loss.dloss(s, inst.label);
            if d == 0.0 {
                continue;
            }
            for (i, x) in inst.features.iter() {
                let cell = &mut dense[i as usize];
                if *cell == 0.0 {
                    touched.push(i);
                }
                *cell += d * x;
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let inv_b = if batch.is_empty() {
            0.0
        } else {
            1.0 / batch.len() as f64
        };
        let mut keys = Vec::new();
        let mut values = Vec::new();
        for &t in &touched {
            let mut g = dense[t as usize] * inv_b;
            g += model.l2 * model.weights[t as usize];
            if g != 0.0 && g.is_finite() {
                keys.push(t as u64);
                values.push(g);
            }
        }
        BatchGradient {
            keys,
            values,
            loss_sum,
            instances: batch.len(),
        }
    }

    fn bits(g: &BatchGradient) -> (Vec<u64>, Vec<u64>, u64, usize) {
        let values = g.values.iter().map(|v| v.to_bits()).collect();
        (g.keys.clone(), values, g.loss_sum.to_bits(), g.instances)
    }

    #[test]
    fn bitmap_emission_matches_the_sorted_touched_list() {
        let mut rng = StdRng::seed_from_u64(22);
        // One scratch and one output across every case: each call must leave
        // the cells and the bitmap clean for the next, whatever its batch.
        let mut scratch = GradScratch::default();
        let mut out = BatchGradient::default();
        for case in 0..60 {
            // Dimensions on both sides of a word boundary, none a multiple
            // of 64 except the last.
            let dim = [1, 63, 65, 130, 1000, 4096][case % 6];
            let l2 = if case % 2 == 0 { 0.01 } else { 0.0 };
            let loss = GlmLoss::all()[case % 3];
            let mut model = GlmModel::new(dim, loss, l2).unwrap();
            for w in &mut model.weights {
                *w = rng.gen_range(-0.5..0.5);
            }
            let n = if case % 7 == 0 {
                0
            } else {
                rng.gen_range(1..40)
            };
            let mut batch: Vec<Instance> = (0..n)
                .map(|_| {
                    let mut pairs: Vec<(u32, f64)> = (0..rng.gen_range(1..12usize))
                        .map(|_| (rng.gen_range(0..dim as u32), rng.gen_range(-1.0..1.0)))
                        .collect();
                    pairs.sort_unstable_by_key(|&(i, _)| i);
                    pairs.dedup_by_key(|&mut (i, _)| i);
                    instance(&pairs, if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
                })
                .collect();
            if n > 0 && loss == GlmLoss::Squared {
                // The same row with the feature negated: at score 0 and equal
                // labels the two contributions cancel to exactly 0.0, then a
                // third row touches the coordinate again.
                model.weights[0] = 0.0;
                batch.insert(0, instance(&[(0, 0.75)], 1.0));
                batch.insert(1, instance(&[(0, -0.75)], 1.0));
                batch.insert(2, instance(&[(0, 0.5)], -1.0));
            }
            let reference = batch_gradient_by_sorting(&model, &batch);
            for _ in 0..2 {
                model.batch_gradient_into(batch.iter(), &mut scratch, &mut out);
                assert_eq!(bits(&out), bits(&reference), "case {case}, dim {dim}");
                assert!(scratch.dense.iter().all(|c| c.to_bits() == 0));
                assert!(scratch.touched.iter().all(|&w| w == 0));
            }
            assert_eq!(bits(&model.batch_gradient(&batch)), bits(&reference));
        }
    }

    /// The prefetching cursors run ahead of the row being scored, so the
    /// short batches and the last rows of the split are where they would
    /// read past a row: batches of 0 to 12 rows gathered by index, the last
    /// rows of `train` in order, then shuffled with the last row last, some
    /// rows without a feature.
    #[test]
    fn gathered_batches_up_to_the_last_row_match_the_sorted_reference() {
        let mut rng = StdRng::seed_from_u64(40);
        let dim = 300;
        let mut model = GlmModel::new(dim, GlmLoss::Logistic, 0.01).unwrap();
        for w in &mut model.weights {
            *w = rng.gen_range(-0.5..0.5);
        }
        let train: Vec<Instance> = (0..40)
            .map(|r| {
                let nnz = if r % 9 == 4 {
                    0
                } else {
                    rng.gen_range(1..40usize)
                };
                let mut pairs: Vec<(u32, f64)> = (0..nnz)
                    .map(|_| (rng.gen_range(0..dim as u32), rng.gen_range(-1.0..1.0)))
                    .collect();
                pairs.sort_unstable_by_key(|&(i, _)| i);
                pairs.dedup_by_key(|&mut (i, _)| i);
                instance(&pairs, if rng.gen_bool(0.5) { 1.0 } else { -1.0 })
            })
            .collect();
        let mut scratch = GradScratch::default();
        let mut out = BatchGradient::default();
        for n in 0..=12 {
            let tail: Vec<usize> = (train.len() - n..train.len()).collect();
            let mut shuffled: Vec<usize> = (0..train.len() - 1).collect();
            shuffled.shuffle(&mut rng);
            shuffled.truncate(n.saturating_sub(1));
            shuffled.extend((n > 0).then_some(train.len() - 1));
            for rows in [tail, shuffled] {
                let batch: Vec<Instance> = rows.iter().map(|&i| train[i].clone()).collect();
                let reference = batch_gradient_by_sorting(&model, &batch);
                model.batch_gradient_into(rows.iter().map(|&i| &train[i]), &mut scratch, &mut out);
                assert_eq!(bits(&out), bits(&reference), "rows {rows:?}");
            }
        }
    }

    #[test]
    fn a_cancelled_coordinate_is_still_regularized() {
        // Two rows whose contributions to dimension 3 cancel exactly: the
        // coordinate was visited, so its ℓ2 term is emitted.
        let mut model = GlmModel::new(70, GlmLoss::Squared, 0.5).unwrap();
        model.weights[3] = 0.0;
        model.weights[69] = 0.25;
        let batch = vec![
            instance(&[(3, 1.0), (69, 0.0)], 1.0),
            instance(&[(3, -1.0)], 1.0),
        ];
        let g = model.batch_gradient(&batch);
        assert_eq!(bits(&g), bits(&batch_gradient_by_sorting(&model, &batch)));
        assert_eq!(g.keys, vec![69]);
        assert_eq!(g.values, vec![0.5 * 0.25]);
    }

    #[test]
    fn training_reduces_loss_all_models() {
        for loss in GlmLoss::all() {
            let data = toy_classification(400, 2);
            let mut model = GlmModel::new(2, loss, 0.001).unwrap();
            let mut opt = Adam::new(2, AdamConfig::with_lr(0.05)).unwrap().into();
            let initial = model.mean_loss(&data);
            let (mut scratch, mut g) = (GradScratch::default(), BatchGradient::default());
            for _ in 0..200 {
                model.batch_gradient_into(&data, &mut scratch, &mut g);
                model.apply_gradient(&mut opt, &g.keys, &g.values);
            }
            let final_loss = model.mean_loss(&data);
            assert!(
                final_loss < initial * 0.8,
                "{:?}: loss {initial} -> {final_loss}",
                loss
            );
        }
    }

    #[test]
    fn classifier_reaches_high_accuracy() {
        let data = toy_classification(500, 3);
        let mut model = GlmModel::new(2, GlmLoss::Logistic, 0.0).unwrap();
        let mut opt = Adam::new(2, AdamConfig::with_lr(0.05)).unwrap().into();
        for _ in 0..300 {
            let g = model.batch_gradient(&data);
            model.apply_gradient(&mut opt, &g.keys, &g.values);
        }
        let acc = model.accuracy(&data).unwrap();
        assert!(acc > 0.95, "accuracy {acc}");
        // Regression has no accuracy.
        let reg = GlmModel::new(2, GlmLoss::Squared, 0.0).unwrap();
        assert!(reg.accuracy(&data).is_none());
    }

    #[test]
    fn empty_batch_yields_empty_gradient() {
        let model = GlmModel::new(4, GlmLoss::Logistic, 0.01).unwrap();
        let g = model.batch_gradient(&[]);
        assert_eq!(g.nnz(), 0);
        assert_eq!(g.mean_loss(), 0.0);
    }

    #[test]
    fn constructor_validates() {
        assert!(GlmModel::new(0, GlmLoss::Logistic, 0.0).is_err());
        assert!(GlmModel::new(4, GlmLoss::Logistic, -0.1).is_err());
    }
}
