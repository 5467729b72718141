//! Sparse feature vectors and labeled training instances (paper §2.2:
//! "the training instance `x_i` is generally sparse").

use crate::error::MlError;
use serde::{Deserialize, Serialize};

/// A sparse feature vector with strictly ascending `u32` indices.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SparseVector {
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl SparseVector {
    /// Builds a vector from parallel index/value arrays.
    ///
    /// # Errors
    /// [`MlError::InvalidInput`] on length mismatch, unsorted/duplicate
    /// indices, or non-finite values.
    pub fn new(indices: Vec<u32>, values: Vec<f64>) -> Result<Self, MlError> {
        if indices.len() != values.len() {
            return Err(MlError::InvalidInput(format!(
                "{} indices but {} values",
                indices.len(),
                values.len()
            )));
        }
        for w in indices.windows(2) {
            if w[0] >= w[1] {
                return Err(MlError::InvalidInput(
                    "indices must be strictly ascending".into(),
                ));
            }
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(MlError::InvalidInput("non-finite feature value".into()));
        }
        Ok(SparseVector { indices, values })
    }

    /// Builds from `(index, value)` pairs that are already ascending.
    ///
    /// # Errors
    /// See [`SparseVector::new`].
    pub fn from_pairs(pairs: &[(u32, f64)]) -> Result<Self, MlError> {
        let indices = pairs.iter().map(|&(i, _)| i).collect();
        let values = pairs.iter().map(|&(_, v)| v).collect();
        Self::new(indices, values)
    }

    /// Number of nonzero features.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Whether the vector is all-zero.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Ascending feature indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Values aligned with [`Self::indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterator over `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Dot product against a dense weight vector; indices past the end of
    /// `dense` contribute zero (models may be narrower than the data).
    pub fn dot(&self, dense: &[f64]) -> f64 {
        match dot_pairs::<false>(self.iter(), dense) {
            Ok(acc) => acc,
            Err(_) => unreachable!("an unchecked pass has nothing to refuse"),
        }
    }

    /// `dense[i] += scale * self[i]` for every nonzero (gradient scatter).
    pub fn scatter_add(&self, dense: &mut [f64], scale: f64) {
        for (i, v) in self.iter() {
            if let Some(w) = dense.get_mut(i as usize) {
                *w += scale * v;
            }
        }
    }

    /// L2 norm of the values.
    pub fn l2_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// The one sparse · dense dot product: `Σ dense[i]·v` over `pairs`, in their
/// order, from `0.0`. [`SparseVector::dot`] — hence `GlmModel::score` — is
/// this loop, and so is every score taken straight from wire bytes, so the
/// two agree to the bit by construction.
///
/// With `CHECK` each pair is checked in the same pass: its index above the
/// previous pair's and inside `dense`, its value finite. Without, the pairs
/// are trusted (a [`SparseVector`] checked them when it was built) and an
/// index past the end of `dense` contributes zero.
///
/// # Errors
/// With `CHECK` only: [`MlError::InvalidInput`] naming the first pair that
/// fails.
#[inline]
pub fn dot_pairs<const CHECK: bool>(
    pairs: impl IntoIterator<Item = (u32, f64)>,
    dense: &[f64],
) -> Result<f64, MlError> {
    let mut acc = 0.0;
    // The lowest index the next pair may carry.
    let mut floor = 0u64;
    for (i, v) in pairs {
        match dense.get(i as usize) {
            Some(w) if !CHECK || (u64::from(i) >= floor && v.is_finite()) => acc += w * v,
            None if !CHECK => {}
            _ => return Err(refused_pair(i, v, floor, dense.len())),
        }
        floor = u64::from(i) + 1;
    }
    Ok(acc)
}

#[cold]
fn refused_pair(i: u32, v: f64, floor: u64, dim: usize) -> MlError {
    MlError::InvalidInput(if u64::from(i) < floor {
        format!(
            "index {i} after index {}: indices must be strictly ascending",
            floor - 1
        )
    } else if i as usize >= dim {
        format!("index {i} is outside the model's {dim} features")
    } else {
        format!("non-finite value {v} at index {i}")
    })
}

/// A labeled training instance. For the classifiers (LR/SVM) labels are
/// ±1; for linear regression the label is a real target.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Sparse feature vector `x_i`.
    pub features: SparseVector,
    /// Label `y_i`.
    pub label: f64,
}

impl Instance {
    /// Creates a labeled instance.
    pub fn new(features: SparseVector, label: f64) -> Self {
        Instance { features, label }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates() {
        assert!(SparseVector::new(vec![0, 2, 5], vec![1.0, 2.0, 3.0]).is_ok());
        assert!(SparseVector::new(vec![0, 2], vec![1.0]).is_err());
        assert!(SparseVector::new(vec![2, 0], vec![1.0, 2.0]).is_err());
        assert!(SparseVector::new(vec![2, 2], vec![1.0, 2.0]).is_err());
        assert!(SparseVector::new(vec![0], vec![f64::NAN]).is_err());
    }

    #[test]
    fn dot_product() {
        let v = SparseVector::new(vec![0, 3], vec![2.0, -1.0]).unwrap();
        let w = [1.0, 9.0, 9.0, 4.0];
        assert_eq!(v.dot(&w), 2.0 - 4.0);
        // Out-of-range indices contribute zero.
        let narrow = [1.0];
        assert_eq!(v.dot(&narrow), 2.0);
        assert_eq!(SparseVector::default().dot(&w), 0.0);
    }

    #[test]
    fn checked_pairs_are_refused_where_they_fail() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let checked = |pairs: &[(u32, f64)]| dot_pairs::<true>(pairs.iter().copied(), &w);
        assert_eq!(checked(&[(0, 2.0), (3, -1.0)]), Ok(2.0 - 4.0));
        assert_eq!(checked(&[]), Ok(0.0));
        for (pairs, needle) in [
            (&[(2, 1.0), (1, 1.0)][..], "strictly ascending"),
            (&[(2, 1.0), (2, 1.0)][..], "strictly ascending"),
            (&[(4, 1.0)][..], "outside the model's 4 features"),
            (&[(1, f64::NAN)][..], "non-finite"),
            (&[(1, f64::NEG_INFINITY)][..], "non-finite"),
        ] {
            let err = checked(pairs).unwrap_err();
            assert!(err.to_string().contains(needle), "{pairs:?}: {err}");
        }
        // Unchecked, the same pairs are summed as `dot` sums them.
        let v = SparseVector::new(vec![0, 3, 9], vec![2.0, -1.0, 5.0]).unwrap();
        assert_eq!(dot_pairs::<false>(v.iter(), &w), Ok(v.dot(&w)));
    }

    #[test]
    fn scatter_add() {
        let v = SparseVector::new(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let mut w = vec![0.0; 4];
        v.scatter_add(&mut w, 0.5);
        assert_eq!(w, vec![0.0, 0.5, 1.0, 0.0]);
    }

    #[test]
    fn from_pairs_and_iter() {
        let v = SparseVector::from_pairs(&[(3, 1.5), (7, -2.0)]).unwrap();
        let pairs: Vec<(u32, f64)> = v.iter().collect();
        assert_eq!(pairs, vec![(3, 1.5), (7, -2.0)]);
        assert_eq!(v.nnz(), 2);
        assert!((v.l2_norm() - (1.5f64 * 1.5 + 4.0).sqrt()).abs() < 1e-12);
    }
}
