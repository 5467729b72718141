//! Synthetic sparse datasets with power-law feature popularity.
//!
//! The substitution rule (DESIGN.md): what SketchML cares about in a dataset
//! is (a) instance sparsity — it drives gradient sparsity, the key-encoding
//! cost, and the comm/compute balance — and (b) feature-popularity skew,
//! which yields the nonuniform, near-zero-concentrated gradient values of
//! Figure 4. Power-law (Zipf) feature sampling with a planted linear model
//! reproduces both.

use rand::prelude::*;
use rand::rngs::StdRng;
use rand_distr::{Distribution, Zipf};
use serde::{Deserialize, Serialize};
use sketchml_ml::{Instance, SparseVector};
use std::ops::Range;

/// Learning task of a synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Task {
    /// ±1 labels from a planted separating hyperplane (LR/SVM).
    Classification,
    /// Real labels from a planted linear model plus noise (Linear).
    Regression,
}

/// Shape parameters of a synthetic sparse dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseDatasetSpec {
    /// Display name used in experiment tables.
    pub name: String,
    /// Number of instances `N`.
    pub instances: usize,
    /// Feature dimensionality `D`.
    pub features: u32,
    /// Average nonzeros per instance.
    pub avg_nnz: usize,
    /// Zipf exponent of feature popularity (> 0; larger = more skew).
    pub skew: f64,
    /// Label-flip probability (classification) or noise std (regression).
    pub label_noise: f64,
    /// Task type.
    pub task: Task,
    /// Generation seed.
    pub seed: u64,
}

impl SparseDatasetSpec {
    /// KDD10-like preset (paper Table 1: 19M × 29M, used on Cluster-1),
    /// scaled to laptop size while keeping `N/D` and sparsity ratios.
    pub fn kdd10_like() -> Self {
        SparseDatasetSpec {
            name: "kdd10-like".into(),
            instances: 16_000,
            features: 300_000,
            avg_nnz: 60,
            skew: 1.1,
            label_noise: 0.05,
            task: Task::Classification,
            seed: 0xDD10,
        }
    }

    /// KDD12-like preset (149M × 54M; sparser than CTR — §4.3.2 "KDD12 is
    /// sparser than CTR").
    pub fn kdd12_like() -> Self {
        SparseDatasetSpec {
            name: "kdd12-like".into(),
            instances: 20_000,
            features: 800_000,
            avg_nnz: 40,
            skew: 1.1,
            label_noise: 0.05,
            task: Task::Classification,
            seed: 0xDD12,
        }
    }

    /// CTR-like preset (proprietary 300M × 58M; denser per instance, so
    /// computation-heavier — §4.3.2 "each instance of CTR generates more
    /// nonzero gradient pairs").
    pub fn ctr_like() -> Self {
        SparseDatasetSpec {
            name: "ctr-like".into(),
            instances: 150_000,
            features: 15_000,
            avg_nnz: 320,
            skew: 1.6,
            label_noise: 0.1,
            task: Task::Classification,
            seed: 0xC70,
        }
    }

    /// Same shape, regression labels (for the Linear model runs).
    pub fn as_regression(mut self) -> Self {
        self.task = Task::Regression;
        self
    }

    /// Same shape, different seed (for multi-run averaging).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scales instance count by `factor` (fast CI runs).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.instances = ((self.instances as f64 * factor).ceil() as usize).max(10);
        self
    }

    /// Generates the dataset, in draw order.
    ///
    /// # Panics
    /// Panics if `features == 0` or `avg_nnz == 0` (programmer error in a
    /// preset).
    pub fn generate(&self) -> Vec<Instance> {
        self.materialize(None, 0..self.instances)
    }

    /// Generates and splits 75/25 (§4.1 "Protocol": "75% as the train
    /// dataset and 25% as the test dataset"): a seeded shuffle of the
    /// instances, the first [`train_len`](Self::train_len) of which train.
    pub fn generate_split(&self) -> (Vec<Instance>, Vec<Instance>) {
        let mut train = self.materialize(Some(&self.split_positions()), 0..self.instances);
        let test = train.split_off(self.train_len());
        (train, test)
    }

    /// The train half of [`generate_split`](Self::generate_split) alone;
    /// the test instances are drawn but never stored.
    pub fn generate_train(&self) -> Vec<Instance> {
        self.materialize(Some(&self.split_positions()), 0..self.train_len())
    }

    /// The test half of [`generate_split`](Self::generate_split) alone;
    /// the train instances are drawn but never stored.
    pub fn generate_test(&self) -> Vec<Instance> {
        let cut = self.train_len();
        self.materialize(Some(&self.split_positions()), cut..self.instances)
    }

    /// Instances in the train split: `round(0.75 · N)`.
    pub fn train_len(&self) -> usize {
        (self.instances as f64 * 0.75).round() as usize
    }

    /// Where each instance lands in the split: `positions[i]` is instance
    /// `i`'s index in train followed by test. The permutation is the one a
    /// seeded shuffle of the instances applies.
    fn split_positions(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.instances).collect();
        order.shuffle(&mut StdRng::seed_from_u64(self.seed ^ 0x5117));
        let mut positions = vec![0; self.instances];
        for (p, &i) in order.iter().enumerate() {
            positions[i] = p;
        }
        positions
    }

    /// Draws every instance in order into reused scratch — the RNG calls do
    /// not depend on which instances are kept — and stores, each at its own
    /// length, only those whose position (`positions[i]`, or `i` itself)
    /// falls in `keep`, at slot `position - keep.start`.
    fn materialize(&self, positions: Option<&[usize]>, keep: Range<usize>) -> Vec<Instance> {
        assert!(self.features > 0, "features must be positive");
        assert!(self.avg_nnz > 0, "avg_nnz must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let zipf = Zipf::new(self.features as u64, self.skew).expect("valid Zipf parameters");

        // Planted ground-truth model: popular features get stable weights.
        let truth: Vec<f64> = {
            let mut t_rng = StdRng::seed_from_u64(self.seed ^ 0x7247);
            (0..self.features)
                .map(|_| t_rng.sample::<f64, _>(rand_distr::StandardNormal))
                .collect()
        };

        let mut slots: Vec<Option<Instance>> = vec![None; keep.len()];
        let (mut idx, mut vals) = (Vec::<u32>::new(), Vec::<f64>::new());
        for drawn in 0..self.instances {
            // Draw ~avg_nnz distinct features, Zipf-weighted.
            let target = {
                let jitter = rng.gen_range(0.5..1.5);
                ((self.avg_nnz as f64 * jitter).round() as usize).max(1)
            };
            idx.clear();
            // Rejection-light loop: Zipf repeats head features often.
            // Real datasets cluster related dimensions into consecutive
            // keys (Appendix A.3: "dimensions with strong relationship
            // happen to appear in consecutive keys"), so each Zipf
            // anchor emits a short run of nearby features.
            while idx.len() < target {
                let f = zipf.sample(&mut rng) as u64 - 1; // Zipf is 1-based
                idx.push(f as u32);
                let run = rng.gen_range(0..3usize);
                let mut cur = f;
                for _ in 0..run {
                    if idx.len() >= target {
                        break;
                    }
                    cur += rng.gen_range(1..8u64);
                    if cur < self.features as u64 {
                        idx.push(cur as u32);
                    }
                }
            }
            idx.sort_unstable();
            idx.dedup();

            // Feature values: CTR-style mixture of binary indicators and
            // small reals.
            vals.clear();
            vals.extend(idx.iter().map(|_| {
                if rng.gen_bool(0.7) {
                    1.0
                } else {
                    rng.gen_range(0.1..2.0)
                }
            }));

            let score: f64 = idx
                .iter()
                .zip(&vals)
                .map(|(&i, v)| truth[i as usize] * v)
                .sum();
            let label = match self.task {
                Task::Classification => {
                    let mut y = if score > 0.0 { 1.0 } else { -1.0 };
                    if rng.gen_bool(self.label_noise.clamp(0.0, 1.0)) {
                        y = -y;
                    }
                    y
                }
                Task::Regression => {
                    score * 0.05
                        + rng.sample::<f64, _>(rand_distr::StandardNormal) * self.label_noise
                }
            };

            let position = positions.map_or(drawn, |p| p[drawn]);
            if keep.contains(&position) {
                let x =
                    SparseVector::new(idx.to_vec(), vals.to_vec()).expect("sorted deduped indices");
                slots[position - keep.start] = Some(Instance::new(x, label));
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every kept position is drawn once"))
            .collect()
    }

    /// Expected sparsity `avg_nnz / D` of one instance.
    pub fn instance_sparsity(&self) -> f64 {
        self.avg_nnz as f64 / self.features as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let spec = SparseDatasetSpec {
            name: "t".into(),
            instances: 500,
            features: 10_000,
            avg_nnz: 20,
            skew: 1.1,
            label_noise: 0.0,
            task: Task::Classification,
            seed: 1,
        };
        let data = spec.generate();
        assert_eq!(data.len(), 500);
        let mean_nnz: f64 = data.iter().map(|i| i.features.nnz() as f64).sum::<f64>() / 500.0;
        assert!(
            (10.0..=30.0).contains(&mean_nnz),
            "mean nnz {mean_nnz} far from requested 20"
        );
        for inst in &data {
            assert!(inst.label == 1.0 || inst.label == -1.0);
            assert!(inst.features.indices().iter().all(|&i| i < 10_000));
        }
    }

    #[test]
    fn feature_popularity_is_skewed() {
        let spec = SparseDatasetSpec::kdd10_like().scaled(0.2);
        let data = spec.generate();
        let mut counts = std::collections::HashMap::new();
        for inst in &data {
            for (i, _) in inst.features.iter() {
                *counts.entry(i).or_insert(0usize) += 1;
            }
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        // Power law: the top feature should be much more popular than the
        // median one.
        let top = freqs[0];
        let median = freqs[freqs.len() / 2];
        assert!(
            top > median * 10,
            "popularity not skewed: top {top}, median {median}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = SparseDatasetSpec::kdd12_like().scaled(0.05);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        let c = spec.clone().with_seed(99).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn labels_are_learnable() {
        // A linear model trained on the generated data must beat chance —
        // the planted hyperplane is real signal.
        use sketchml_ml::{Adam, AdamConfig, GlmLoss, GlmModel};
        let spec = SparseDatasetSpec {
            name: "learnable".into(),
            instances: 2_000,
            features: 2_000,
            avg_nnz: 15,
            skew: 1.1,
            label_noise: 0.02,
            task: Task::Classification,
            seed: 3,
        };
        let (train, test) = spec.generate_split();
        let mut model = GlmModel::new(2_000, GlmLoss::Logistic, 0.0001).unwrap();
        let mut opt = Adam::new(2_000, AdamConfig::with_lr(0.05)).unwrap().into();
        for _ in 0..60 {
            let g = model.batch_gradient(&train);
            model.apply_gradient(&mut opt, &g.keys, &g.values);
        }
        let acc = model.accuracy(&test).unwrap();
        assert!(acc > 0.75, "test accuracy {acc} barely above chance");
    }

    #[test]
    fn regression_labels_track_planted_model() {
        let spec = SparseDatasetSpec::kdd10_like().scaled(0.05).as_regression();
        let data = spec.generate();
        let var: f64 = {
            let mean: f64 = data.iter().map(|i| i.label).sum::<f64>() / data.len() as f64;
            data.iter()
                .map(|i| (i.label - mean) * (i.label - mean))
                .sum::<f64>()
                / data.len() as f64
        };
        assert!(var > 0.0, "regression labels must vary");
        assert!(data.iter().all(|i| i.label.is_finite()));
    }

    #[test]
    fn presets_have_paper_relationships() {
        let kdd12 = SparseDatasetSpec::kdd12_like();
        let ctr = SparseDatasetSpec::ctr_like();
        // §4.3.2: KDD12 sparser than CTR.
        assert!(kdd12.instance_sparsity() < ctr.instance_sparsity());
        // CTR denser per instance → more compute per instance.
        assert!(ctr.avg_nnz > kdd12.avg_nnz);
    }

    #[test]
    fn split_follows_protocol() {
        let spec = SparseDatasetSpec::kdd10_like().scaled(0.1);
        let (train, test) = spec.generate_split();
        let total = train.len() + test.len();
        assert_eq!(total, spec.instances);
        let ratio = train.len() as f64 / total as f64;
        assert!((ratio - 0.75).abs() < 0.01, "train ratio {ratio}");
    }
}
