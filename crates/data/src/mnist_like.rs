//! Synthetic MNIST stand-in for the §B.3 MLP experiment.
//!
//! The paper trains a 20×20-input MLP on MNIST (60k train / 10k test
//! images, 10 classes). We cannot ship MNIST, so we generate images from
//! ten fixed class prototypes — smooth pseudo-random intensity fields —
//! plus per-image Gaussian noise. The classes are separable but not
//! trivially so (prototypes overlap), which is all the §B.3 experiment
//! needs: a dense-gradient multiclass task that distinguishes the
//! convergence behaviour of SketchML, Adam, and ZipML.

use rand::prelude::*;
use rand::rngs::StdRng;
use rand_distr::StandardNormal;
use serde::{Deserialize, Serialize};
use sketchml_ml::mlp::MlpInstance;

/// Shape parameters of the synthetic image dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MnistLikeSpec {
    /// Image side length (paper: 20 → 400 pixels).
    pub side: usize,
    /// Number of classes (paper: 10).
    pub classes: usize,
    /// Number of images to generate.
    pub instances: usize,
    /// Per-pixel Gaussian noise standard deviation.
    pub noise: f64,
    /// Generation seed.
    pub seed: u64,
}

impl Default for MnistLikeSpec {
    fn default() -> Self {
        MnistLikeSpec {
            side: 20,
            classes: 10,
            instances: 2_000,
            noise: 0.25,
            seed: 0xB3,
        }
    }
}

impl MnistLikeSpec {
    /// A scaled-down spec for fast tests.
    pub fn small() -> Self {
        MnistLikeSpec {
            side: 8,
            classes: 4,
            instances: 400,
            ..MnistLikeSpec::default()
        }
    }

    /// Pixels per image.
    pub fn pixels(&self) -> usize {
        self.side * self.side
    }

    /// Generates the class prototypes (one smooth field per class).
    fn prototypes(&self) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x9670);
        (0..self.classes)
            .map(|_| {
                // Low-frequency field: sum of a few random sinusoids.
                let (fx, fy, phase): (f64, f64, f64) = (
                    rng.gen_range(0.5..2.5),
                    rng.gen_range(0.5..2.5),
                    rng.gen_range(0.0..std::f64::consts::TAU),
                );
                (0..self.pixels())
                    .map(|p| {
                        let x = (p % self.side) as f64 / self.side as f64;
                        let y = (p / self.side) as f64 / self.side as f64;
                        ((fx * x + fy * y) * std::f64::consts::TAU + phase).sin() * 0.5 + 0.5
                    })
                    .collect()
            })
            .collect()
    }

    /// Generates the dataset.
    ///
    /// # Panics
    /// Panics on a zero-sized spec (programmer error).
    pub fn generate(&self) -> Vec<MlpInstance> {
        assert!(self.side > 0 && self.classes > 0, "degenerate spec");
        let protos = self.prototypes();
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.instances)
            .map(|_| {
                let label = rng.gen_range(0..self.classes);
                let pixels: Vec<f64> = protos[label]
                    .iter()
                    .map(|&p| {
                        (p + rng.sample::<f64, _>(StandardNormal) * self.noise).clamp(0.0, 1.0)
                    })
                    .collect();
                MlpInstance { pixels, label }
            })
            .collect()
    }

    /// Generates and splits into `(train, test)` with 6:1 proportions
    /// (mirroring MNIST's 60k/10k).
    pub fn generate_split(&self) -> (Vec<MlpInstance>, Vec<MlpInstance>) {
        let mut all = self.generate();
        let cut = self.instances * 6 / 7;
        let test = all.split_off(cut);
        (all, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchml_ml::{Adam, AdamConfig, Mlp, MlpConfig};

    #[test]
    fn shapes_and_ranges() {
        let spec = MnistLikeSpec::small();
        let data = spec.generate();
        assert_eq!(data.len(), 400);
        for img in &data {
            assert_eq!(img.pixels.len(), 64);
            assert!(img.label < 4);
            assert!(img.pixels.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn deterministic() {
        let spec = MnistLikeSpec::small();
        assert_eq!(spec.generate(), spec.generate());
    }

    #[test]
    fn all_classes_present() {
        let data = MnistLikeSpec::small().generate();
        let mut seen = [false; 4];
        for img in &data {
            seen[img.label] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mlp_learns_the_classes() {
        let spec = MnistLikeSpec::small();
        let (train, test) = spec.generate_split();
        let mut mlp = Mlp::new(&MlpConfig::small(spec.pixels(), 16, spec.classes)).unwrap();
        let mut opt = Adam::new(mlp.num_params(), AdamConfig::with_lr(0.02))
            .unwrap()
            .into();
        for _ in 0..40 {
            let (g, _) = mlp.batch_gradient(&train);
            mlp.apply_dense_gradient(&mut opt, &g);
        }
        let acc = mlp.accuracy(&test);
        assert!(
            acc > 0.8,
            "test accuracy {acc} too low for separable classes"
        );
    }
}
