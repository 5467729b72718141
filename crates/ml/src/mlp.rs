//! Multilayer perceptron for the §B.3 neural-network experiment.
//!
//! The paper's network: "one input layer (size: 20 × 20), two fully
//! connected layers (size: 600), and one output layer (size: 10)" trained
//! on MNIST with softmax cross-entropy. Hidden activations are sigmoid.
//!
//! Parameters live in one flat `Vec<f64>` so a batch gradient is a flat
//! vector too — it flows through the same `SparseGradient`/compressor path
//! as the GLM gradients ("our Sketch mechanism can be applied on Neural
//! Network models … by transferring gradients with our compression
//! method"). NN gradients are dense, which is exactly the §B.3/§4.6
//! limitation the `fig14_neural_net` harness measures.

use crate::error::MlError;
use crate::opt_state::OptimizerState;
use serde::{Deserialize, Serialize};

/// A dense multiclass instance (synthetic MNIST stand-in).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpInstance {
    /// Pixel values, length = input layer size.
    pub pixels: Vec<f64>,
    /// Class in `[0, classes)`.
    pub label: usize,
}

/// Network shape and initialization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpConfig {
    /// Layer sizes, e.g. `[400, 600, 600, 10]` for the paper's network.
    pub layer_sizes: Vec<usize>,
    /// Weight-initialization seed.
    pub seed: u64,
}

impl MlpConfig {
    /// The paper's §B.3 network: 20×20 input, two 600-unit hidden layers,
    /// 10 outputs.
    pub fn paper_network() -> Self {
        MlpConfig {
            layer_sizes: vec![400, 600, 600, 10],
            seed: 42,
        }
    }

    /// A scaled-down network for fast tests and simulations.
    pub fn small(input: usize, hidden: usize, classes: usize) -> Self {
        MlpConfig {
            layer_sizes: vec![input, hidden, classes],
            seed: 42,
        }
    }
}

/// Offsets of one layer's weights and biases inside the flat parameter
/// vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct LayerSpec {
    inputs: usize,
    outputs: usize,
    /// Start of the `outputs × inputs` weight block.
    w_off: usize,
    /// Start of the `outputs` bias block.
    b_off: usize,
}

/// A feed-forward network: sigmoid hidden layers, softmax output,
/// cross-entropy loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<LayerSpec>,
    /// All weights and biases, flattened.
    pub params: Vec<f64>,
    classes: usize,
}

#[inline]
fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

impl Mlp {
    /// Builds a network with small deterministic random weights.
    ///
    /// # Errors
    /// [`MlError::InvalidConfig`] unless there are >= 2 layers of positive
    /// size.
    pub fn new(config: &MlpConfig) -> Result<Self, MlError> {
        if config.layer_sizes.len() < 2 {
            return Err(MlError::InvalidConfig(
                "need at least input and output layers".into(),
            ));
        }
        if config.layer_sizes.contains(&0) {
            return Err(MlError::InvalidConfig(
                "layer sizes must be positive".into(),
            ));
        }
        let mut layers = Vec::new();
        let mut off = 0usize;
        for w in config.layer_sizes.windows(2) {
            let (inputs, outputs) = (w[0], w[1]);
            layers.push(LayerSpec {
                inputs,
                outputs,
                w_off: off,
                b_off: off + inputs * outputs,
            });
            off += inputs * outputs + outputs;
        }
        // Xavier-ish init from a deterministic mixer.
        let mut state = config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut params = vec![0.0; off];
        for layer in &layers {
            let scale = (6.0 / (layer.inputs + layer.outputs) as f64).sqrt();
            for p in &mut params[layer.w_off..layer.w_off + layer.inputs * layer.outputs] {
                *p = next() * scale;
            }
            // Biases start at zero.
        }
        let classes = *config.layer_sizes.last().expect("checked non-empty");
        Ok(Mlp {
            layers,
            params,
            classes,
        })
    }

    /// Total number of parameters (the gradient's dimensionality).
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Input size expected by the first layer.
    pub fn input_size(&self) -> usize {
        self.layers[0].inputs
    }

    /// Forward pass returning every layer's activations (input included).
    fn forward(&self, pixels: &[f64]) -> Vec<Vec<f64>> {
        let mut acts: Vec<Vec<f64>> = Vec::with_capacity(self.layers.len() + 1);
        acts.push(pixels.to_vec());
        for (li, layer) in self.layers.iter().enumerate() {
            let prev = &acts[li];
            let mut out = vec![0.0; layer.outputs];
            for (o, slot) in out.iter_mut().enumerate() {
                let row = &self.params
                    [layer.w_off + o * layer.inputs..layer.w_off + (o + 1) * layer.inputs];
                let mut z = self.params[layer.b_off + o];
                for (w, a) in row.iter().zip(prev) {
                    z += w * a;
                }
                *slot = z;
            }
            let is_output = li == self.layers.len() - 1;
            if is_output {
                // Softmax, stabilized.
                let max = out.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mut sum = 0.0;
                for z in &mut out {
                    *z = (*z - max).exp();
                    sum += *z;
                }
                for z in &mut out {
                    *z /= sum;
                }
            } else {
                for z in &mut out {
                    *z = sigmoid(*z);
                }
            }
            acts.push(out);
        }
        acts
    }

    /// Class probabilities for one instance.
    pub fn predict(&self, pixels: &[f64]) -> Vec<f64> {
        self.forward(pixels)
            .pop()
            .expect("forward returns >= 2 layers")
    }

    /// Mini-batch gradient (flat, averaged) and the batch's mean
    /// cross-entropy loss. The instances are read by reference (a slice, or
    /// rows picked out of a training set).
    pub fn batch_gradient<'a>(
        &self,
        batch: impl IntoIterator<Item = &'a MlpInstance>,
    ) -> (Vec<f64>, f64) {
        let mut grad = vec![0.0; self.params.len()];
        let mut loss_sum = 0.0;
        let mut n = 0usize;
        for inst in batch {
            n += 1;
            debug_assert!(inst.label < self.classes);
            let acts = self.forward(&inst.pixels);
            let probs = acts.last().expect("output layer");
            loss_sum += -(probs[inst.label].max(1e-12)).ln();

            // delta at output: p - onehot(y).
            let mut delta: Vec<f64> = probs.clone();
            delta[inst.label] -= 1.0;

            for (li, layer) in self.layers.iter().enumerate().rev() {
                let prev = &acts[li];
                // Accumulate weight/bias gradients.
                for (o, &d) in delta.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    let row = &mut grad
                        [layer.w_off + o * layer.inputs..layer.w_off + (o + 1) * layer.inputs];
                    for (g, a) in row.iter_mut().zip(prev) {
                        *g += d * a;
                    }
                    grad[layer.b_off + o] += d;
                }
                if li == 0 {
                    break;
                }
                // Propagate: delta_prev = Wᵀ delta ⊙ σ'(a_prev).
                let mut prev_delta = vec![0.0; layer.inputs];
                for (o, &d) in delta.iter().enumerate() {
                    if d == 0.0 {
                        continue;
                    }
                    let row = &self.params
                        [layer.w_off + o * layer.inputs..layer.w_off + (o + 1) * layer.inputs];
                    for (pd, w) in prev_delta.iter_mut().zip(row) {
                        *pd += w * d;
                    }
                }
                for (pd, &a) in prev_delta.iter_mut().zip(prev) {
                    *pd *= a * (1.0 - a); // sigmoid'
                }
                delta = prev_delta;
            }
        }
        if n > 0 {
            let inv = 1.0 / n as f64;
            for g in &mut grad {
                *g *= inv;
            }
            loss_sum /= n as f64;
        }
        (grad, loss_sum)
    }

    /// Applies a flat gradient through an optimizer (keys = 0..P).
    pub fn apply_dense_gradient(&mut self, opt: &mut OptimizerState, grad: &[f64]) {
        debug_assert_eq!(grad.len(), self.params.len());
        let keys: Vec<u64> = (0..grad.len() as u64).collect();
        opt.step(&mut self.params, &keys, grad);
    }

    /// Applies a sparse (possibly decompressed) gradient.
    pub fn apply_sparse_gradient(
        &mut self,
        opt: &mut OptimizerState,
        keys: &[u64],
        values: &[f64],
    ) {
        opt.step(&mut self.params, keys, values);
    }

    /// Mean cross-entropy loss over `data`.
    pub fn mean_loss(&self, data: &[MlpInstance]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let sum: f64 = data
            .iter()
            .map(|inst| -(self.predict(&inst.pixels)[inst.label].max(1e-12)).ln())
            .sum();
        sum / data.len() as f64
    }

    /// Multiclass accuracy over `data`.
    pub fn accuracy(&self, data: &[MlpInstance]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .iter()
            .filter(|inst| {
                let p = self.predict(&inst.pixels);
                let argmax = p
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .expect("non-empty probabilities");
                argmax == inst.label
            })
            .count();
        correct as f64 / data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Adam, AdamConfig};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Two-class toy images: class determined by which half is brighter.
    fn toy_images(n: usize, pixels: usize, seed: u64) -> Vec<MlpInstance> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let label = rng.gen_range(0..2usize);
                let mut px = vec![0.0; pixels];
                for (i, p) in px.iter_mut().enumerate() {
                    let base = if (i < pixels / 2) == (label == 0) {
                        0.8
                    } else {
                        0.2
                    };
                    *p = (base + rng.gen_range(-0.1..0.1f64)).clamp(0.0, 1.0);
                }
                MlpInstance { pixels: px, label }
            })
            .collect()
    }

    #[test]
    fn construction_and_shapes() {
        let mlp = Mlp::new(&MlpConfig::small(16, 8, 3)).unwrap();
        assert_eq!(mlp.input_size(), 16);
        assert_eq!(mlp.classes(), 3);
        assert_eq!(mlp.num_params(), 16 * 8 + 8 + 8 * 3 + 3);
        assert!(Mlp::new(&MlpConfig {
            layer_sizes: vec![4],
            seed: 0
        })
        .is_err());
        assert!(Mlp::new(&MlpConfig {
            layer_sizes: vec![4, 0, 2],
            seed: 0
        })
        .is_err());
    }

    #[test]
    fn softmax_outputs_are_probabilities() {
        let mlp = Mlp::new(&MlpConfig::small(8, 4, 5)).unwrap();
        let p = mlp.predict(&[0.1; 8]);
        assert_eq!(p.len(), 5);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn gradient_matches_numeric() {
        let mlp = Mlp::new(&MlpConfig::small(4, 3, 2)).unwrap();
        let batch = vec![
            MlpInstance {
                pixels: vec![0.5, -0.2, 0.8, 0.1],
                label: 0,
            },
            MlpInstance {
                pixels: vec![-0.3, 0.9, 0.0, 0.4],
                label: 1,
            },
        ];
        let (grad, _) = mlp.batch_gradient(&batch);
        let h = 1e-6;
        // Spot-check a spread of parameters.
        for k in (0..mlp.num_params()).step_by(3) {
            let mut up = mlp.clone();
            up.params[k] += h;
            let mut dn = mlp.clone();
            dn.params[k] -= h;
            let numeric = (up.mean_loss(&batch) - dn.mean_loss(&batch)) / (2.0 * h);
            assert!(
                (numeric - grad[k]).abs() < 1e-4,
                "param {k}: numeric {numeric} vs analytic {}",
                grad[k]
            );
        }
    }

    #[test]
    fn training_learns_toy_task() {
        let data = toy_images(200, 16, 5);
        let mut mlp = Mlp::new(&MlpConfig::small(16, 8, 2)).unwrap();
        let mut opt = Adam::new(mlp.num_params(), AdamConfig::with_lr(0.02))
            .unwrap()
            .into();
        let initial = mlp.mean_loss(&data);
        for _ in 0..60 {
            let (g, _) = mlp.batch_gradient(&data);
            mlp.apply_dense_gradient(&mut opt, &g);
        }
        let final_loss = mlp.mean_loss(&data);
        assert!(final_loss < initial * 0.5, "{initial} -> {final_loss}");
        assert!(
            mlp.accuracy(&data) > 0.9,
            "accuracy {}",
            mlp.accuracy(&data)
        );
    }

    #[test]
    fn sparse_gradient_application_matches_dense() {
        let data = toy_images(20, 8, 6);
        let build = || {
            let m = Mlp::new(&MlpConfig::small(8, 4, 2)).unwrap();
            let o = OptimizerState::from(Adam::new(m.num_params(), AdamConfig::default()).unwrap());
            let (g, _) = m.batch_gradient(&data);
            (m, o, g)
        };
        let (mut dense_m, mut dense_o, g) = build();
        dense_m.apply_dense_gradient(&mut dense_o, &g);
        let (mut sparse_m, mut sparse_o, g2) = build();
        let keys: Vec<u64> = (0..g2.len() as u64).collect();
        sparse_m.apply_sparse_gradient(&mut sparse_o, &keys, &g2);
        assert_eq!(dense_m.params, sparse_m.params);
    }

    #[test]
    fn deterministic_initialization() {
        let a = Mlp::new(&MlpConfig::small(8, 4, 2)).unwrap();
        let b = Mlp::new(&MlpConfig::small(8, 4, 2)).unwrap();
        assert_eq!(a.params, b.params);
        let c = Mlp::new(&MlpConfig {
            layer_sizes: vec![8, 4, 2],
            seed: 99,
        })
        .unwrap();
        assert_ne!(a.params, c.params);
    }

    #[test]
    fn paper_network_shape() {
        let mlp = Mlp::new(&MlpConfig::paper_network()).unwrap();
        assert_eq!(mlp.input_size(), 400);
        assert_eq!(mlp.classes(), 10);
        assert_eq!(
            mlp.num_params(),
            400 * 600 + 600 + 600 * 600 + 600 + 600 * 10 + 10
        );
    }
}
