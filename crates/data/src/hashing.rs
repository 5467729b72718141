//! The feature-hashing trick — fold a huge, sparse feature space into a
//! fixed-width one.
//!
//! CTR systems (the paper's third workload) routinely hash raw categorical
//! features into a model of fixed dimension `2^b`; collisions act as mild
//! regularization. This transform lets any dataset be re-targeted to a
//! smaller model — handy for quick experiments — while preserving the
//! sparse, skewed structure SketchML exploits.

use sketchml_ml::{Instance, MlError, SparseVector};
use sketchml_sketches::hash::mix64;

/// Hashes a sparse vector's indices into `[0, width)`, summing values on
/// collision, with a deterministic ±1 sign per index to keep the expected
/// inner product unbiased (Weinberger et al.'s signed hashing trick).
///
/// # Errors
/// [`MlError::InvalidConfig`] if `width == 0`.
pub fn hash_features(x: &SparseVector, width: u32, seed: u64) -> Result<SparseVector, MlError> {
    if width == 0 {
        return Err(MlError::InvalidConfig("hash width must be positive".into()));
    }
    let mut acc: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
    for (i, v) in x.iter() {
        let h = mix64(i as u64 ^ seed);
        let bucket = (h % width as u64) as u32;
        let sign = if h & (1 << 63) == 0 { 1.0 } else { -1.0 };
        *acc.entry(bucket).or_insert(0.0) += sign * v;
    }
    let pairs: Vec<(u32, f64)> = acc.into_iter().filter(|&(_, v)| v != 0.0).collect();
    SparseVector::from_pairs(&pairs)
}

/// Hashes every instance of a dataset into a `width`-dimensional space.
///
/// # Errors
/// See [`hash_features`].
pub fn hash_dataset(data: &[Instance], width: u32, seed: u64) -> Result<Vec<Instance>, MlError> {
    data.iter()
        .map(|inst| {
            Ok(Instance::new(
                hash_features(&inst.features, width, seed)?,
                inst.label,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SparseDatasetSpec;
    use sketchml_ml::{Adam, AdamConfig, GlmLoss, GlmModel};

    #[test]
    fn output_stays_in_range_and_is_deterministic() {
        let x = SparseVector::new(vec![5, 100, 2_000_000], vec![1.0, -2.0, 0.5]).unwrap();
        let a = hash_features(&x, 64, 7).unwrap();
        let b = hash_features(&x, 64, 7).unwrap();
        assert_eq!(a, b);
        assert!(a.indices().iter().all(|&i| i < 64));
        assert!(a.nnz() <= 3);
        let c = hash_features(&x, 64, 8).unwrap();
        assert_ne!(a, c, "different seeds hash differently");
    }

    #[test]
    fn signed_hashing_keeps_inner_products_roughly() {
        // <h(x), h(x)> ≈ <x, x> in expectation; with few collisions at a
        // wide width it is near-exact.
        let x = SparseVector::new(
            (0..50u32).map(|i| i * 97).collect(),
            (0..50).map(|i| (i as f64 * 0.1).sin()).collect(),
        )
        .unwrap();
        let norm2: f64 = x.values().iter().map(|v| v * v).sum();
        let h = hash_features(&x, 1 << 16, 3).unwrap();
        let hnorm2: f64 = h.values().iter().map(|v| v * v).sum();
        assert!(
            (norm2 - hnorm2).abs() / norm2 < 0.05,
            "norm {norm2} vs hashed {hnorm2}"
        );
    }

    #[test]
    fn zero_width_rejected() {
        let x = SparseVector::new(vec![1], vec![1.0]).unwrap();
        assert!(hash_features(&x, 0, 0).is_err());
    }

    #[test]
    fn hashed_dataset_is_still_learnable() {
        // Hash a 300k-dim dataset into 16k dims and verify a model still
        // beats chance — the CTR-style pipeline end to end.
        let spec = SparseDatasetSpec::kdd10_like().scaled(0.25);
        let (train, test) = spec.generate_split();
        let width = 16_384u32;
        let train_h = hash_dataset(&train, width, 11).unwrap();
        let test_h = hash_dataset(&test, width, 11).unwrap();
        let mut model = GlmModel::new(width as usize, GlmLoss::Logistic, 1e-4).unwrap();
        let mut opt = Adam::new(width as usize, AdamConfig::with_lr(0.05))
            .unwrap()
            .into();
        for _ in 0..60 {
            let g = model.batch_gradient(&train_h);
            model.apply_gradient(&mut opt, &g.keys, &g.values);
        }
        let acc = model.accuracy(&test_h).unwrap();
        assert!(
            acc > 0.65,
            "hashed-feature accuracy {acc} barely above chance"
        );
    }
}
