//! Quantile sketches (paper §2.3).
//!
//! A quantile sketch summarizes a stream of comparable items in a small data
//! structure and answers rank queries `phi ∈ [0, 1]` approximately. SketchML
//! uses one to derive *equi-depth* bucket boundaries for gradient values
//! (§3.2 Step 1): `q` averaged quantiles `{0, 1/q, …, (q-1)/q}` plus the
//! maximum value become the `q + 1` split points of `q` buckets, each of
//! which holds (approximately) the same *number* of gradient values.
//!
//! The one implementation is [`MergingQuantileSketch`], a compactor-based
//! mergeable sketch in the style of Yahoo DataSketches (the library the
//! paper's prototype calls). Greenwald–Khanna and t-digest backends were
//! measured against it on the gradients the system ships (`fig_fidelity`)
//! and lost: the same error and bytes at several times the encode time.

mod merging;
#[cfg(target_arch = "x86_64")]
pub(crate) mod sort128;

pub use merging::MergingQuantileSketch;

use crate::error::SketchError;

/// Common interface of the quantile sketches.
pub trait QuantileSketch {
    /// Inserts one item into the sketch.
    fn insert(&mut self, value: f64);

    /// Total number of items inserted so far.
    fn count(&self) -> u64;

    /// Smallest item seen so far, or `None` if empty.
    fn min(&self) -> Option<f64>;

    /// Largest item seen so far, or `None` if empty.
    fn max(&self) -> Option<f64>;

    /// Approximate value whose rank is `phi * count()`, `phi ∈ [0, 1]`.
    ///
    /// `phi = 0` returns the minimum and `phi = 1` the maximum.
    fn query(&self, phi: f64) -> Result<f64, SketchError>;

    /// Equi-depth split points for `q` buckets: the values at quantiles
    /// `{0, 1/q, …, (q-1)/q, 1}` (paper §3.2 Step 1 (2)–(3)).
    ///
    /// The returned vector has `q + 1` monotonically non-decreasing entries;
    /// bucket `i` covers `[splits[i], splits[i + 1])` (the last bucket is
    /// closed on both sides).
    fn splits(&self, q: usize) -> Result<Vec<f64>, SketchError> {
        if q == 0 {
            return Err(SketchError::invalid("q", "need at least one bucket"));
        }
        if self.count() == 0 {
            return Err(SketchError::Empty);
        }
        let mut out = Vec::with_capacity(q + 1);
        for i in 0..=q {
            out.push(self.query(i as f64 / q as f64)?);
        }
        // Guard against tiny non-monotonicities from independent queries.
        for i in 1..out.len() {
            if out[i] < out[i - 1] {
                out[i] = out[i - 1];
            }
        }
        Ok(out)
    }

    /// Inserts every item of `values`.
    fn extend_from_slice(&mut self, values: &[f64]) {
        for &v in values {
            self.insert(v);
        }
    }
}

/// Exact rank of `value` within `data` (number of elements `<= value`).
/// Test helper of the sketch's unit tests.
#[cfg(test)]
pub(crate) fn exact_rank(data: &[f64], value: f64) -> usize {
    data.iter().filter(|&&x| x <= value).count()
}
