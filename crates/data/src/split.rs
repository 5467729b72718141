//! Mini-batching (paper §4.1 "Protocol"). The 75/25 train/test split is
//! drawn by the generator itself ([`crate::SparseDatasetSpec::generate_split`]).
//!
//! "The input dataset is partitioned into two subsets — 75% as the train
//! dataset and 25% as the test dataset. … we adopt a popular trick of SGD
//! that uses a batch of instances instead of only one instance. … we set
//! the batch size as 10% of the size of the train dataset."

use rand::prelude::*;
use rand::rngs::StdRng;
use sketchml_ml::Instance;

/// Deterministic epoch-wise mini-batcher: each epoch re-shuffles the index
/// permutation and yields `ceil(1 / batch_ratio)` batches covering the
/// whole training set.
#[derive(Debug, Clone)]
pub struct Batcher {
    batch_size: usize,
    order: Vec<usize>,
    rng: StdRng,
}

impl Batcher {
    /// Creates a batcher producing batches of `batch_ratio * n` instances.
    ///
    /// # Panics
    /// Panics if `batch_ratio` is not in `(0, 1]` or `n == 0`.
    pub fn new(n: usize, batch_ratio: f64, seed: u64) -> Self {
        assert!(n > 0, "cannot batch an empty dataset");
        assert!(
            batch_ratio > 0.0 && batch_ratio <= 1.0,
            "batch_ratio must be in (0, 1], got {batch_ratio}"
        );
        let batch_size = ((n as f64 * batch_ratio).round() as usize).clamp(1, n);
        Batcher {
            batch_size,
            order: (0..n).collect(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Instances per batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of batches per epoch.
    pub fn batches_per_epoch(&self) -> usize {
        self.order.len().div_ceil(self.batch_size)
    }

    /// Reshuffles and returns this epoch's batches as index slices.
    pub fn epoch(&mut self) -> Vec<Vec<usize>> {
        self.order.shuffle(&mut self.rng);
        self.order
            .chunks(self.batch_size)
            .map(<[usize]>::to_vec)
            .collect()
    }

    /// Materializes one batch of instances by cloning the indexed rows.
    pub fn gather(data: &[Instance], batch: &[usize]) -> Vec<Instance> {
        batch.iter().map(|&i| data[i].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sketchml_ml::SparseVector;

    fn dummy(n: usize) -> Vec<Instance> {
        (0..n)
            .map(|i| {
                Instance::new(
                    SparseVector::new(vec![i as u32], vec![1.0]).unwrap(),
                    if i % 2 == 0 { 1.0 } else { -1.0 },
                )
            })
            .collect()
    }

    #[test]
    fn batcher_covers_everything() {
        let mut b = Batcher::new(103, 0.1, 2);
        assert_eq!(b.batch_size(), 10);
        assert_eq!(b.batches_per_epoch(), 11);
        let batches = b.epoch();
        let mut seen: Vec<usize> = batches.concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn batcher_reshuffles_between_epochs() {
        let mut b = Batcher::new(50, 0.2, 3);
        let e1 = b.epoch();
        let e2 = b.epoch();
        assert_ne!(e1, e2, "epochs should be differently shuffled");
    }

    #[test]
    fn gather_clones_rows() {
        let data = dummy(5);
        let batch = Batcher::gather(&data, &[4, 0]);
        assert_eq!(batch[0], data[4]);
        assert_eq!(batch[1], data[0]);
    }

    #[test]
    #[should_panic(expected = "batch_ratio")]
    fn bad_ratio_panics() {
        let _ = Batcher::new(10, 0.0, 0);
    }

    #[test]
    fn full_batch_ratio() {
        let mut b = Batcher::new(10, 1.0, 0);
        assert_eq!(b.batch_size(), 10);
        assert_eq!(b.epoch().len(), 1);
    }
}
