//! Sparse gradient representation (paper §2.2 data model).
//!
//! A gradient `g ∈ R^D` produced from sparse training data is itself sparse;
//! SketchML stores the nonzero elements as key-value pairs `{(k_j, v_j)}`
//! with keys in ascending order — the property the delta-binary key codec
//! exploits (§3.4).

use crate::error::CompressError;
use crate::runs::Run;
use serde::{Deserialize, Serialize};

/// A sparse gradient vector: ascending keys (model dimensions) and their
/// nonzero values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseGradient {
    dim: u64,
    keys: Vec<u64>,
    values: Vec<f64>,
}

impl SparseGradient {
    /// Builds a gradient from parallel key/value arrays.
    ///
    /// # Errors
    /// [`CompressError::InvalidGradient`] if lengths differ, keys are not
    /// strictly ascending, any key `>= dim`, or any value is non-finite.
    pub fn new(dim: u64, keys: Vec<u64>, values: Vec<f64>) -> Result<Self, CompressError> {
        if keys.len() != values.len() {
            return Err(CompressError::InvalidGradient(format!(
                "{} keys but {} values",
                keys.len(),
                values.len()
            )));
        }
        let mut prev: Option<u64> = None;
        for (i, &k) in keys.iter().enumerate() {
            if k >= dim {
                return Err(CompressError::InvalidGradient(format!(
                    "key {k} at position {i} out of range for dimension {dim}"
                )));
            }
            if let Some(p) = prev {
                if k <= p {
                    return Err(CompressError::InvalidGradient(format!(
                        "keys must be strictly ascending (position {i})"
                    )));
                }
            }
            prev = Some(k);
        }
        if let Some((i, v)) = values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(CompressError::InvalidGradient(format!(
                "non-finite value {v} at position {i}"
            )));
        }
        Ok(SparseGradient { dim, keys, values })
    }

    /// Overwrites this gradient in place from parallel key/value slices,
    /// reusing its existing buffer capacity — the allocation-free counterpart
    /// of [`Self::new`], with the identical validation contract.
    ///
    /// # Errors
    /// See [`Self::new`]. On error the gradient is left empty (dimension
    /// `dim`).
    pub fn assign(&mut self, dim: u64, keys: &[u64], values: &[f64]) -> Result<(), CompressError> {
        self.dim = dim;
        self.keys.clear();
        self.values.clear();
        if keys.len() != values.len() {
            return Err(CompressError::InvalidGradient(format!(
                "{} keys but {} values",
                keys.len(),
                values.len()
            )));
        }
        let mut prev: Option<u64> = None;
        for (i, &k) in keys.iter().enumerate() {
            if k >= dim {
                return Err(CompressError::InvalidGradient(format!(
                    "key {k} at position {i} out of range for dimension {dim}"
                )));
            }
            if let Some(p) = prev {
                if k <= p {
                    return Err(CompressError::InvalidGradient(format!(
                        "keys must be strictly ascending (position {i})"
                    )));
                }
            }
            prev = Some(k);
        }
        if let Some((i, v)) = values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(CompressError::InvalidGradient(format!(
                "non-finite value {v} at position {i}"
            )));
        }
        self.keys.extend_from_slice(keys);
        self.values.extend_from_slice(values);
        Ok(())
    }

    /// [`Self::assign`] from two key-ordered runs and a short list of exact
    /// pairs, merged as they are written: each run is non-decreasing keys
    /// with the slot of each key's value, `value_of(slot)`; `exact` is
    /// ascending keys with their values. The checks run pair by pair on the
    /// merged order, so a key both runs hold — or one run repeats — is the
    /// "strictly ascending" refusal. On equal keys `a`'s pair comes first.
    ///
    /// `exact` joins here rather than as a run of its own: it holds a few
    /// dozen pairs, and one more run would cost every pair one more merge
    /// pass. Each exact key's place is found by binary search in both runs,
    /// and the runs' pairs between two exact keys merge in the two-run loop
    /// as if there were none.
    ///
    /// # Errors
    /// See [`Self::assign`]; an `exact` key that a run also holds is
    /// [`CompressError::Corrupt`] (the encoder writes a pair to one section).
    pub(crate) fn assign_merged(
        &mut self,
        dim: u64,
        a: Run<'_>,
        b: Run<'_>,
        exact: (&[u64], &[f64]),
        value_of: impl Fn(u32) -> f64,
    ) -> Result<(), CompressError> {
        let ((ak, asl), (bk, bsl), (ek, ev)) = (a, b, exact);
        assert_eq!(ak.len(), asl.len());
        assert_eq!(bk.len(), bsl.len());
        assert_eq!(ek.len(), ev.len());
        let n = ak.len() + bk.len() + ek.len();
        self.dim = dim;
        self.keys.resize(n, 0);
        self.values.resize(n, 0.0);
        let mut merged = Merged {
            keys: &mut self.keys,
            values: &mut self.values,
            dim,
            floor: 0,
            pos: 0,
        };
        let result = (|| {
            let (mut i, mut j) = (0usize, 0usize);
            for (&key, &value) in ek.iter().zip(ev) {
                let a_end = i + ak[i..].partition_point(|&k| k < key);
                let b_end = j + bk[j..].partition_point(|&k| k < key);
                merged.runs(
                    (&ak[i..a_end], &asl[i..a_end]),
                    (&bk[j..b_end], &bsl[j..b_end]),
                    &value_of,
                )?;
                if ak.get(a_end) == Some(&key) || bk.get(b_end) == Some(&key) {
                    return Err(CompressError::Corrupt(format!(
                        "exact key {key} is also in a sketched section"
                    )));
                }
                merged.push(key, value)?;
                (i, j) = (a_end, b_end);
            }
            merged.runs((&ak[i..], &asl[i..]), (&bk[j..], &bsl[j..]), &value_of)
        })();
        if result.is_err() {
            self.keys.clear();
            self.values.clear();
        }
        result
    }

    /// Builds an empty gradient over `dim` dimensions.
    pub fn empty(dim: u64) -> Self {
        SparseGradient {
            dim,
            keys: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Model dimensionality `D`.
    pub fn dim(&self) -> u64 {
        self.dim
    }

    /// Number of nonzero entries `d`.
    pub fn nnz(&self) -> usize {
        self.keys.len()
    }

    /// Whether the gradient has no nonzero entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Ascending keys of the nonzero entries.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Values aligned with [`Self::keys`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Gradient sparsity `d / D` (the Figure 8(d) metric).
    pub fn sparsity(&self) -> f64 {
        if self.dim == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.dim as f64
        }
    }

    /// Iterator over `(key, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.keys.iter().copied().zip(self.values.iter().copied())
    }

    /// Euclidean norm of the values.
    pub fn l2_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Materializes the dense vector (test/diagnostic helper).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim as usize];
        for (k, v) in self.iter() {
            out[k as usize] = v;
        }
        out
    }

    /// Merges `others` into an element-wise **sum** (driver-side gradient
    /// aggregation over workers, §2.2: "we need to aggregate gradients
    /// proposed by W workers"). A key that several parts hold gets their
    /// values added in ascending part index; sums that cancel to exactly
    /// zero are dropped.
    ///
    /// # Errors
    /// [`CompressError::InvalidGradient`] if there are no parts or their
    /// dimensions differ.
    pub fn aggregate(parts: &[SparseGradient]) -> Result<SparseGradient, CompressError> {
        let mut sum = SparseGradient::empty(0);
        sum.aggregate_into(parts, |_| 1.0, &mut SparseGradient::empty(0))?;
        Ok(sum)
    }

    /// [`Self::aggregate`] of the parts scaled by `weight(i)` (part `i`'s
    /// every value times its weight, one product, as an in-place
    /// [`Self::scale`] would leave it), written over `self` with `spare` as
    /// the fold's second buffer. Both keep their capacity, so a caller that
    /// holds on to them sums every round of a run without allocating once
    /// they have seen its largest round.
    ///
    /// The sum is a left fold of two-way merges: parts 0 and 1, then the
    /// running sum and part 2, and so on. A running sum that cancels to
    /// exactly zero is dropped like a final one. That is the k-way sum, bit
    /// for bit: each key's values are still added in ascending part index
    /// starting from `0.0`, and a dropped running sum is the `+0.0` the
    /// k-way sum would have carried (starting from `+0.0`, an addition
    /// gives `-0.0` only from two negative zeros). The order is part of the
    /// contract: separately started processes that sum the same parts must
    /// land on the same bits, and from three parts on float addition does
    /// not commute into that by itself.
    ///
    /// # Errors
    /// As [`Self::aggregate`], and [`CompressError::InvalidGradient`] for a
    /// weight that is not finite; `self` is then left unspecified.
    pub fn aggregate_into(
        &mut self,
        parts: &[SparseGradient],
        weight: impl Fn(usize) -> f64,
        spare: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        let Some((first, rest)) = parts.split_first() else {
            return Err(CompressError::InvalidGradient(
                "cannot aggregate zero gradients".into(),
            ));
        };
        let dim = first.dim;
        if let Some(bad) = rest.iter().find(|g| g.dim != dim) {
            return Err(CompressError::InvalidGradient(format!(
                "dimension mismatch: {} vs {dim}",
                bad.dim
            )));
        }
        let none = SparseGradient::empty(dim);
        let (second, w1, rest) = match rest.split_first() {
            Some((second, rest)) => (second, weight(1), rest),
            None => (&none, 0.0, rest),
        };
        // Room for every pair up front, and no more: no merge reallocates
        // part-way, and a buffer kept across rounds grows to the largest
        // round it has summed, not to the next power of two past it.
        let total: usize = parts.iter().map(SparseGradient::nnz).sum();
        self.reserve_pairs(total);
        if !rest.is_empty() {
            spare.reserve_pairs(total);
        }
        merge_sum(first, finite(weight(0))?, second, finite(w1)?, self);
        for (i, part) in rest.iter().enumerate() {
            merge_sum(self, 1.0, part, finite(weight(i + 2))?, spare);
            std::mem::swap(self, spare);
        }
        self.dim = dim;
        Ok(())
    }

    /// Capacity for `n` pairs in all, reserved exactly.
    fn reserve_pairs(&mut self, n: usize) {
        self.keys.reserve_exact(n.saturating_sub(self.keys.len()));
        self.values
            .reserve_exact(n.saturating_sub(self.values.len()));
    }

    /// Scales all values by `factor` (e.g. `1/W` for averaging).
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.values {
            *v *= factor;
        }
    }
}

/// `w`, if it is a finite weight.
fn finite(w: f64) -> Result<f64, CompressError> {
    if w.is_finite() {
        Ok(w)
    } else {
        Err(CompressError::InvalidGradient(format!(
            "aggregation weight {w} is not finite"
        )))
    }
}

/// Overwrites `out` with `a·wa + b·wb`, both strictly ascending, dropping
/// every sum that is exactly zero. A key only one side holds is added to
/// `0.0·w`, a zero, which leaves any value but a zero as it is (`w` is
/// finite).
///
/// Which side holds the smaller key is a coin flip per pair, so the step is
/// branch-free: each side reads its head or a zero through a pointer picked
/// by a conditional move (a select between two floats compiles to a branch
/// on x86-64), the pair is written whatever its sum, and the output
/// advances only past a nonzero one.
fn merge_sum(a: &SparseGradient, wa: f64, b: &SparseGradient, wb: f64, out: &mut SparseGradient) {
    let (ak, bk) = (&a.keys[..], &b.keys[..]);
    // Sliced to the keys' lengths so the reads below need no bounds check,
    // which would be a branch inside the select.
    let (av, bv) = (&a.values[..ak.len()], &b.values[..bk.len()]);
    let len = ak.len() + bk.len();
    // Grown, never cleared: every slot below the final length is written.
    out.keys.resize(len, 0);
    out.values.resize(len, 0.0);
    let (keys, values) = (&mut out.keys[..], &mut out.values[..]);
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < ak.len() && j < bk.len() {
        let (x, y) = (ak[i], bk[j]);
        let (from_a, from_b) = (x <= y, y <= x);
        let va = if from_a { &av[i] } else { &0.0 };
        let vb = if from_b { &bv[j] } else { &0.0 };
        let sum = va * wa + vb * wb;
        keys[n] = x.min(y);
        values[n] = sum;
        n += usize::from(sum != 0.0);
        i += usize::from(from_a);
        j += usize::from(from_b);
    }
    let (tail_keys, tail_values, w) = if i < ak.len() {
        (&ak[i..], &av[i..], wa)
    } else {
        (&bk[j..], &bv[j..], wb)
    };
    for (&k, &v) in tail_keys.iter().zip(tail_values) {
        let v = v * w;
        keys[n] = k;
        values[n] = v;
        n += usize::from(v != 0.0);
    }
    out.keys.truncate(n);
    out.values.truncate(n);
}

/// The output of [`SparseGradient::assign_merged`], written front to back
/// and checked as it is written.
struct Merged<'a> {
    keys: &'a mut [u64],
    values: &'a mut [f64],
    dim: u64,
    /// Smallest key the next pair may carry.
    floor: u64,
    /// Pairs written.
    pos: usize,
}

impl Merged<'_> {
    /// Checks one pair and writes it.
    fn push(&mut self, k: u64, v: f64) -> Result<(), CompressError> {
        if let Some(why) = refusal(self.dim, self.floor, self.pos, k, v) {
            return Err(CompressError::InvalidGradient(why));
        }
        self.floor = k + 1; // k < dim, so no overflow
        self.keys[self.pos] = k;
        self.values[self.pos] = v;
        self.pos += 1;
        Ok(())
    }

    /// Merges two runs onto the output: the same branch-free step as
    /// `runs::merge_two`, then the checks, which a valid payload never fails.
    fn runs(
        &mut self,
        a: Run<'_>,
        b: Run<'_>,
        value_of: &impl Fn(u32) -> f64,
    ) -> Result<(), CompressError> {
        let ((ak, asl), (bk, bsl)) = (a, b);
        let (start, dim) = (self.pos, self.dim);
        let end = start + ak.len() + bk.len();
        let mut floor = self.floor;
        let (mut i, mut j) = (0usize, 0usize);
        let mut refused = None;
        let out = self.keys[start..end]
            .iter_mut()
            .zip(&mut self.values[start..end]);
        for (pos, (key, value)) in (start..).zip(out) {
            let (k, slot) = if i < ak.len() && j < bk.len() {
                let (x, y) = (ak[i], bk[j]);
                let (slot_x, slot_y) = (asl[i], bsl[j]);
                let from_b = y < x;
                j += usize::from(from_b);
                i += usize::from(!from_b);
                if from_b {
                    (y, slot_y)
                } else {
                    (x, slot_x)
                }
            } else if i < ak.len() {
                i += 1;
                (ak[i - 1], asl[i - 1])
            } else {
                j += 1;
                (bk[j - 1], bsl[j - 1])
            };
            let v = value_of(slot);
            refused = refusal(dim, floor, pos, k, v);
            if refused.is_some() {
                break;
            }
            floor = k + 1; // k < dim, so no overflow
            *key = k;
            *value = v;
        }
        self.floor = floor;
        self.pos = end;
        match refused {
            Some(why) => Err(CompressError::InvalidGradient(why)),
            None => Ok(()),
        }
    }
}

/// Why pair `(k, v)` cannot sit at `pos` of a gradient of dimension `dim`
/// after keys below `floor`, if it cannot: the checks of
/// [`SparseGradient::assign`], in its words.
fn refusal(dim: u64, floor: u64, pos: usize, k: u64, v: f64) -> Option<String> {
    if k >= dim {
        Some(format!(
            "key {k} at position {pos} out of range for dimension {dim}"
        ))
    } else if k < floor {
        Some(format!("keys must be strictly ascending (position {pos})"))
    } else if !v.is_finite() {
        Some(format!("non-finite value {v} at position {pos}"))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The k-way sum `aggregate` ran before the fold, kept as its
    /// reference: take the smallest key any part still has, add that key's
    /// values in ascending part index starting from `0.0`, drop a zero sum.
    fn aggregate_k_way(parts: &[SparseGradient]) -> SparseGradient {
        let total: usize = parts.iter().map(SparseGradient::nnz).sum();
        let mut keys = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        let mut at = vec![0usize; parts.len()];
        while let Some(key) = parts
            .iter()
            .zip(&at)
            .filter_map(|(part, &i)| part.keys.get(i).copied())
            .min()
        {
            let mut sum = 0.0;
            for (part, i) in parts.iter().zip(&mut at) {
                if part.keys.get(*i) == Some(&key) {
                    sum += part.values[*i];
                    *i += 1;
                }
            }
            if sum != 0.0 {
                keys.push(key);
                values.push(sum);
            }
        }
        SparseGradient {
            dim: parts[0].dim,
            keys,
            values,
        }
    }

    fn bits(g: &SparseGradient) -> (u64, Vec<u64>, Vec<u64>) {
        let values = g.values.iter().map(|v| v.to_bits()).collect();
        (g.dim, g.keys.clone(), values)
    }

    /// One to five parts over 16 keys, so most keys are shared; values from
    /// a few magnitudes of both signs (sums cancel to exactly zero, also
    /// part-way through a key's parts), signed zeros among them; and an
    /// instance count per part, all of them zero now and then.
    fn arb_round() -> impl Strategy<Value = Vec<(SparseGradient, usize)>> {
        let value = prop_oneof![
            Just(0.5f64),
            Just(-0.5f64),
            Just(0.25f64),
            Just(-0.25f64),
            Just(0.0f64),
            Just(-0.0f64),
            Just(3.0f64),
            Just(-3.0f64),
            Just(1e17f64),
            Just(-1e17f64),
            Just(0.1f64),
            -2.0f64..2.0,
        ];
        let part = (
            proptest::collection::btree_map(0u64..16, value, 0..12),
            0usize..4,
        );
        proptest::collection::vec(part, 1..6).prop_map(|parts| {
            parts
                .into_iter()
                .map(|(m, n)| {
                    let (keys, values) = m.into_iter().unzip();
                    let g = SparseGradient::new(16, keys, values).expect("btree keys ascend");
                    (g, n)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The fold is the k-way sum, bit for bit: unweighted, and weighted
        /// by instance share the way the driver's `combine` weighs a round
        /// (no weighting when the counts sum to zero) against the reference
        /// over parts scaled in place. The weighted fold runs on buffers
        /// still holding a larger earlier sum.
        #[test]
        fn the_fold_is_the_k_way_sum(round in arb_round()) {
            let parts: Vec<SparseGradient> = round.iter().map(|(g, _)| g.clone()).collect();
            let sum = SparseGradient::aggregate(&parts).unwrap();
            prop_assert_eq!(bits(&sum), bits(&aggregate_k_way(&parts)));
            prop_assert!(sum.values().iter().all(|&v| v != 0.0));

            let total: usize = round.iter().map(|&(_, n)| n).sum();
            let weight = |i: usize| {
                if total > 0 { round[i].1 as f64 / total as f64 } else { 1.0 }
            };
            let mut scaled = parts.clone();
            for (i, part) in scaled.iter_mut().enumerate() {
                part.scale(weight(i));
            }
            let wide: Vec<u64> = (0..64).collect();
            let mut out = SparseGradient::new(64, wide.clone(), vec![1.0; 64]).unwrap();
            let mut spare = SparseGradient::new(64, wide, vec![-1.0; 64]).unwrap();
            out.aggregate_into(&parts, weight, &mut spare).unwrap();
            prop_assert_eq!(bits(&out), bits(&aggregate_k_way(&scaled)));
        }
    }

    #[test]
    fn new_validates() {
        assert!(SparseGradient::new(10, vec![1, 2], vec![1.0, 2.0]).is_ok());
        assert!(SparseGradient::new(10, vec![1], vec![1.0, 2.0]).is_err());
        assert!(SparseGradient::new(10, vec![2, 1], vec![1.0, 2.0]).is_err());
        assert!(SparseGradient::new(10, vec![1, 1], vec![1.0, 2.0]).is_err());
        assert!(SparseGradient::new(2, vec![2], vec![1.0]).is_err());
        assert!(SparseGradient::new(10, vec![1], vec![f64::NAN]).is_err());
        assert!(SparseGradient::new(10, vec![1], vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn to_dense_places_every_pair() {
        let g = SparseGradient::new(5, vec![1, 3], vec![1.5, -2.5]).unwrap();
        assert_eq!(g.to_dense(), vec![0.0, 1.5, 0.0, -2.5, 0.0]);
    }

    #[test]
    fn sparsity_and_norm() {
        let g = SparseGradient::new(100, vec![0, 1], vec![3.0, 4.0]).unwrap();
        assert!((g.sparsity() - 0.02).abs() < 1e-12);
        assert!((g.l2_norm() - 5.0).abs() < 1e-12);
        assert_eq!(SparseGradient::empty(0).sparsity(), 0.0);
    }

    #[test]
    fn aggregate_merges_and_sums() {
        let a = SparseGradient::new(10, vec![1, 3, 5], vec![1.0, 1.0, 1.0]).unwrap();
        let b = SparseGradient::new(10, vec![3, 5, 7], vec![2.0, -1.0, 4.0]).unwrap();
        let sum = SparseGradient::aggregate(&[a, b]).unwrap();
        assert_eq!(sum.keys(), &[1, 3, 7]); // key 5 cancels to zero
        assert_eq!(sum.values(), &[1.0, 3.0, 4.0]);
    }

    #[test]
    fn aggregate_rejects_mismatch_and_empty() {
        let a = SparseGradient::empty(10);
        let b = SparseGradient::empty(20);
        assert!(SparseGradient::aggregate(&[a, b]).is_err());
        assert!(SparseGradient::aggregate(&[]).is_err());
    }

    #[test]
    fn scale_applies() {
        let mut g = SparseGradient::new(4, vec![0, 2], vec![2.0, -4.0]).unwrap();
        g.scale(0.5);
        assert_eq!(g.values(), &[1.0, -2.0]);
    }
}
