//! Count-Sketch: a *linear* frequency sketch of signed `f64` mass.
//!
//! Unlike the paper's MinMaxSketch (whose min/max update rule is not
//! linear), the Count-Sketch of Charikar–Chen–Farach-Colton — used for
//! gradient compression by SketchSGD (arXiv:1903.04488) — stores plain
//! signed sums: row `r` adds `s_r(k) · v` into cell `h_r(k)`. Because every
//! cell is a sum, the sketch of a sum of gradients equals the element-wise
//! sum of their sketches: `S(a + b) = S(a) + S(b)`. That identity is what
//! lets the collectives layer merge raw tables hop by hop (no key union, no
//! resketch) and defer heavy-hitter extraction to the final hop.
//!
//! Estimation (`query`) takes the median across rows of the sign-corrected
//! cell values; heavy-hitter recovery (`top_k_into`) is a second pass over
//! the candidate key range that keeps the `k` largest-magnitude estimates,
//! using an exact sort when the candidate set is small and a bounded
//! min-heap otherwise.

use crate::error::SketchError;
use crate::hash::{mix64, push_row_seeds, HashFamily};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Salt XORed into the user seed to derive the *sign* hash family, keeping
/// it independent from the bin family built from the same seed.
pub const SIGN_SALT: u64 = 0x5851_F42D_4C95_7F2D;

/// Appends the `rows` per-row **sign** seeds a [`CountSketch`] built from
/// `seed` would use. The derivation reuses [`push_row_seeds`] on a salted
/// seed, so flat scratch-buffer paths can reproduce signs without
/// constructing a sketch.
pub fn push_sign_seeds(rows: usize, seed: u64, out: &mut Vec<u64>) {
    push_row_seeds(rows, seed ^ SIGN_SALT, out);
}

/// The ±1 sign row `sign_seed` assigns to `key`. One avalanche of the
/// SplitMix64 mixer; the low bit picks the sign.
#[inline]
pub fn sign_for(sign_seed: u64, key: u64) -> f64 {
    if mix64(key ^ sign_seed) & 1 == 0 {
        1.0
    } else {
        -1.0
    }
}

/// A candidate ordered by estimate *strength*: larger magnitude wins, ties
/// broken toward the smaller key so selection is total and deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    abs: f64,
    key: u64,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.abs
            .total_cmp(&other.abs)
            .then_with(|| other.key.cmp(&self.key))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A `rows × cols` table of signed `f64` counters with independent per-row
/// bin and sign hash families (both derived from one seed via
/// [`crate::hash`]).
///
/// ```
/// use sketchml_sketches::CountSketch;
///
/// let mut s = CountSketch::new(5, 256, 42)?;
/// s.insert(7, 1.5);
/// s.insert(9, -0.25);
/// assert_eq!(s.query(7), 1.5);
/// let (mut keys, mut values) = (Vec::new(), Vec::new());
/// s.top_k_into(2, 1000, &mut keys, &mut values);
/// assert_eq!((keys, values), (vec![7, 9], vec![1.5, -0.25]));
/// # Ok::<(), sketchml_sketches::SketchError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CountSketch {
    seed: u64,
    hash: HashFamily,
    sign_seeds: Vec<u64>,
    cells: Vec<f64>,
}

impl CountSketch {
    /// Creates an empty `rows × cols` sketch derived from `seed`.
    ///
    /// # Errors
    /// [`SketchError::InvalidParameter`] if `rows` or `cols` is zero or the
    /// table would exceed `u32::MAX` cells.
    pub fn new(rows: usize, cols: usize, seed: u64) -> Result<Self, SketchError> {
        Self::from_cells(rows, cols, seed, None)
    }

    /// Rebuilds a sketch from a serialized cell table (row-major,
    /// `rows * cols` long). `None` starts from all zeros.
    ///
    /// # Errors
    /// [`SketchError::InvalidParameter`] on a zero/oversized shape;
    /// [`SketchError::Corrupt`] if `cells` has the wrong length.
    pub fn from_cells(
        rows: usize,
        cols: usize,
        seed: u64,
        cells: Option<Vec<f64>>,
    ) -> Result<Self, SketchError> {
        if rows == 0 {
            return Err(SketchError::invalid("rows", "must be positive"));
        }
        if cols == 0 {
            return Err(SketchError::invalid("cols", "must be positive"));
        }
        let len = rows
            .checked_mul(cols)
            .filter(|&n| n <= u32::MAX as usize)
            .ok_or_else(|| SketchError::invalid("rows*cols", "table exceeds u32::MAX cells"))?;
        let cells = match cells {
            Some(c) if c.len() != len => {
                return Err(SketchError::Corrupt(format!(
                    "cell table has {} entries, shape needs {len}",
                    c.len()
                )));
            }
            Some(c) => c,
            None => vec![0.0; len],
        };
        let mut sign_seeds = Vec::with_capacity(rows);
        push_sign_seeds(rows, seed, &mut sign_seeds);
        Ok(CountSketch {
            seed,
            hash: HashFamily::new(rows, cols, seed),
            sign_seeds,
            cells,
        })
    }

    /// Number of rows (independent hash/sign pairs).
    #[inline]
    pub fn rows(&self) -> usize {
        self.hash.rows()
    }

    /// Number of columns (bins per row).
    #[inline]
    pub fn cols(&self) -> usize {
        self.hash.cols()
    }

    /// The seed both hash families were derived from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The raw row-major cell table. This *is* the wire payload: two
    /// sketches with equal shape and seed merge by adding these slices
    /// element-wise.
    #[inline]
    pub fn cells(&self) -> &[f64] {
        &self.cells
    }

    /// Consumes the sketch, returning the cell buffer — lets pooled decode
    /// paths reclaim the allocation they lent to [`Self::from_cells`].
    pub fn into_cells(self) -> Vec<f64> {
        self.cells
    }

    /// Adds `value` under `key`: row `r` adds `sign_r(key) · value` into
    /// bin `h_r(key)`.
    #[inline]
    pub fn insert(&mut self, key: u64, value: f64) {
        let cols = self.cols();
        for (r, (&bin_seed, &sign_seed)) in
            self.hash.seeds().iter().zip(&self.sign_seeds).enumerate()
        {
            let bin = HashFamily::bin_for(bin_seed, cols, key);
            self.cells[r * cols + bin] += sign_for(sign_seed, key) * value;
        }
    }

    /// Inserts a batch of pairs, iterating row-major so each row's cells
    /// stay hot in cache. Scalar on every CPU: the scatter into `row`
    /// dominates, and hashing bins and signs four keys per AVX2 lane moves
    /// neither `core.encode_ns_per_pair.countsketch` nor
    /// `core.merge_hop_ms.linear` in `BENCHMARK.json`.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn insert_batch(&mut self, keys: &[u64], values: &[f64]) {
        assert_eq!(keys.len(), values.len(), "keys/values length mismatch");
        let cols = self.cols();
        for (r, (&bin_seed, &sign_seed)) in
            self.hash.seeds().iter().zip(&self.sign_seeds).enumerate()
        {
            let row = &mut self.cells[r * cols..(r + 1) * cols];
            for (&k, &v) in keys.iter().zip(values) {
                row[HashFamily::bin_for(bin_seed, cols, k)] += sign_for(sign_seed, k) * v;
            }
        }
    }

    /// Point estimate for `key`: the median across rows of the
    /// sign-corrected cell values (mean of the middle two when the row
    /// count is even).
    pub fn query(&self, key: u64) -> f64 {
        let mut est = [0.0f64; 64];
        let rows = self.rows().min(64);
        self.row_estimates(key, &mut est[..rows]);
        median(&mut est[..rows])
    }

    /// Appends the estimate for every key in `keys` to `out`.
    pub fn query_batch(&self, keys: &[u64], out: &mut Vec<f64>) {
        out.reserve(keys.len());
        for &k in keys {
            out.push(self.query(k));
        }
    }

    #[inline]
    fn row_estimates(&self, key: u64, out: &mut [f64]) {
        let cols = self.cols();
        for (r, (&bin_seed, &sign_seed)) in self
            .hash
            .seeds()
            .iter()
            .zip(&self.sign_seeds)
            .enumerate()
            .take(out.len())
        {
            let bin = HashFamily::bin_for(bin_seed, cols, key);
            out[r] = sign_for(sign_seed, key) * self.cells[r * cols + bin];
        }
    }

    /// Element-wise sum with `other` — the linearity that makes
    /// sketch-of-sum equal sum-of-sketches.
    ///
    /// # Errors
    /// [`SketchError::Corrupt`] when shapes or seeds differ (the hash
    /// families would disagree, so cell positions are not comparable).
    pub fn merge(&mut self, other: &Self) -> Result<(), SketchError> {
        if self.rows() != other.rows() || self.cols() != other.cols() || self.seed != other.seed {
            return Err(SketchError::Corrupt(format!(
                "cannot merge {}x{} seed {} with {}x{} seed {}",
                self.rows(),
                self.cols(),
                self.seed,
                other.rows(),
                other.cols(),
                other.seed
            )));
        }
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a += b;
        }
        Ok(())
    }

    /// Resets every cell to zero, keeping the hash families.
    pub fn clear(&mut self) {
        self.cells.fill(0.0);
    }

    /// True if every cell is exactly zero.
    pub fn is_empty(&self) -> bool {
        self.cells.iter().all(|&c| c == 0.0)
    }

    /// Recovers the `k` largest-magnitude estimates over keys `0..dim`,
    /// written key-ascending into `keys_out`/`vals_out` (cleared first).
    /// Exact-zero estimates are dropped, so the result can be shorter than
    /// `k`. Small candidate sets (`dim ≤ 2k`) take an exact collect-and-sort
    /// path; larger ones stream through a size-`k` min-heap. Both paths
    /// select the same set under the same deterministic order (magnitude
    /// descending, key ascending on ties).
    pub fn top_k_into(&self, k: usize, dim: u64, keys_out: &mut Vec<u64>, vals_out: &mut Vec<f64>) {
        self.top_k_range_into(k, 0..dim, keys_out, vals_out);
    }

    /// [`Self::top_k_into`] confined to candidate keys in `range` — the
    /// decode path for a sketch known to cover only a key-range shard, where
    /// scanning the full domain could surface ghost keys outside the shard.
    pub fn top_k_range_into(
        &self,
        k: usize,
        range: std::ops::Range<u64>,
        keys_out: &mut Vec<u64>,
        vals_out: &mut Vec<f64>,
    ) {
        keys_out.clear();
        vals_out.clear();
        if k == 0 || range.is_empty() {
            return;
        }
        let span = range.end - range.start;
        let mut picked: Vec<Candidate> = if span <= 2 * k as u64 {
            // Exact fallback: few candidates, sort them all.
            let mut all: Vec<Candidate> = range
                .map(|key| Candidate {
                    abs: self.query(key).abs(),
                    key,
                })
                .filter(|c| c.abs != 0.0)
                .collect();
            all.sort_by(|a, b| b.cmp(a));
            all.truncate(k);
            all
        } else {
            // Size-k min-heap of the strongest candidates seen so far.
            let mut heap: BinaryHeap<std::cmp::Reverse<Candidate>> = BinaryHeap::with_capacity(k);
            for key in range {
                let abs = self.query(key).abs();
                if abs == 0.0 {
                    continue;
                }
                let cand = Candidate { abs, key };
                if heap.len() < k {
                    heap.push(std::cmp::Reverse(cand));
                } else if let Some(weakest) = heap.peek() {
                    if cand > weakest.0 {
                        heap.pop();
                        heap.push(std::cmp::Reverse(cand));
                    }
                }
            }
            heap.into_iter().map(|r| r.0).collect()
        };
        picked.sort_by_key(|c| c.key);
        keys_out.reserve(picked.len());
        vals_out.reserve(picked.len());
        for c in picked {
            keys_out.push(c.key);
            vals_out.push(self.query(c.key));
        }
    }
}

/// Median under `f64` total order; even lengths average the middle two.
fn median(xs: &mut [f64]) -> f64 {
    debug_assert!(!xs.is_empty());
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn top_k(s: &CountSketch, k: usize, dim: u64) -> Vec<(u64, f64)> {
        let (mut keys, mut vals) = (vec![99], vec![9.0]);
        s.top_k_into(k, dim, &mut keys, &mut vals);
        keys.into_iter().zip(vals).collect()
    }

    fn sample() -> (Vec<u64>, Vec<f64>) {
        let keys: Vec<u64> = (0..200u64).map(|i| i * 37 % 10_000).collect();
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        let values: Vec<f64> = keys
            .iter()
            .map(|&k| ((k % 13) as f64 - 6.0) / 16.0)
            .collect();
        (keys, values)
    }

    #[test]
    fn shape_validation() {
        assert!(CountSketch::new(0, 10, 1).is_err());
        assert!(CountSketch::new(10, 0, 1).is_err());
        assert!(CountSketch::new(1 << 20, 1 << 20, 1).is_err());
        assert!(CountSketch::from_cells(2, 3, 1, Some(vec![0.0; 5])).is_err());
        assert!(CountSketch::from_cells(2, 3, 1, Some(vec![0.0; 6])).is_ok());
    }

    #[test]
    fn single_key_is_exact() {
        let mut s = CountSketch::new(3, 64, 9).unwrap();
        s.insert(1234, -0.75);
        assert_eq!(s.query(1234), -0.75);
    }

    #[test]
    fn linearity_sum_of_sketches_is_sketch_of_sum() {
        let (keys, values) = sample();
        let half = keys.len() / 2;
        let mut a = CountSketch::new(5, 512, 77).unwrap();
        a.insert_batch(&keys[..half], &values[..half]);
        let mut b = CountSketch::new(5, 512, 77).unwrap();
        b.insert_batch(&keys[half..], &values[half..]);
        let mut whole = CountSketch::new(5, 512, 77).unwrap();
        whole.insert_batch(&keys, &values);

        a.merge(&b).unwrap();
        // Dyadic-rational values make f64 addition exact, so the tables are
        // bit-identical, not merely close.
        assert_eq!(a.cells(), whole.cells());
    }

    #[test]
    fn merge_rejects_shape_and_seed_mismatch() {
        let mut a = CountSketch::new(3, 64, 1).unwrap();
        let b = CountSketch::new(3, 64, 2).unwrap();
        let c = CountSketch::new(4, 64, 1).unwrap();
        let d = CountSketch::new(3, 128, 1).unwrap();
        assert!(matches!(a.merge(&b), Err(SketchError::Corrupt(_))));
        assert!(matches!(a.merge(&c), Err(SketchError::Corrupt(_))));
        assert!(matches!(a.merge(&d), Err(SketchError::Corrupt(_))));
    }

    #[test]
    fn clear_empties_the_table() {
        let mut s = CountSketch::new(3, 64, 5).unwrap();
        s.insert(10, 0.5);
        assert_eq!(s.query(10), 0.5);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.query(10), 0.0);
    }

    #[test]
    fn top_k_recovers_heavy_hitters() {
        let mut s = CountSketch::new(7, 2048, 3).unwrap();
        // Three heavy keys among light background noise.
        let mut keys = vec![100u64, 2_000, 30_000];
        let mut values = vec![8.0, -6.0, 4.0];
        for i in 0..64u64 {
            keys.push(40_000 + i);
            values.push(if i % 2 == 0 { 0.0625 } else { -0.0625 });
        }
        s.insert_batch(&keys, &values);
        let top = top_k(&s, 3, 100_000);
        let top_keys: Vec<u64> = top.iter().map(|&(k, _)| k).collect();
        assert_eq!(top_keys, vec![100, 2_000, 30_000]);
        for (k, v) in top {
            let truth = match k {
                100 => 8.0,
                2_000 => -6.0,
                _ => 4.0,
            };
            assert!((v - truth).abs() < 0.5, "key {k}: {v} vs {truth}");
        }
    }

    #[test]
    fn heap_and_exact_paths_agree() {
        let mut s = CountSketch::new(5, 256, 11).unwrap();
        let keys: Vec<u64> = (0..40u64).collect();
        let values: Vec<f64> = (0..40).map(|i| (i as f64 - 20.0) / 8.0).collect();
        s.insert_batch(&keys, &values);
        // dim=40 with k=8 takes the heap path (40 > 16); k=30 takes the
        // exact path (40 <= 60). Compare k=8 against the exact top-8
        // computed by brute force.
        let top = top_k(&s, 8, 40);
        let mut brute: Vec<(u64, f64)> = (0..40u64).map(|k| (k, s.query(k))).collect();
        brute.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then_with(|| a.0.cmp(&b.0)));
        brute.truncate(8);
        brute.sort_by_key(|&(k, _)| k);
        assert_eq!(top, brute);
    }

    #[test]
    fn top_k_drops_exact_zeros_and_handles_edges() {
        let s = CountSketch::new(5, 512, 1).unwrap();
        assert!(top_k(&s, 5, 1000).is_empty());
        let mut s2 = CountSketch::new(5, 512, 1).unwrap();
        s2.insert(3, 1.0);
        assert!(top_k(&s2, 0, 1000).is_empty());
        assert!(top_k(&s2, 5, 0).is_empty());
        assert_eq!(top_k(&s2, 5, 1000), vec![(3, 1.0)]);
    }

    #[test]
    fn query_batch_matches_query() {
        let (keys, values) = sample();
        let mut s = CountSketch::new(5, 512, 21).unwrap();
        s.insert_batch(&keys, &values);
        let mut out = Vec::new();
        s.query_batch(&keys, &mut out);
        for (&k, &est) in keys.iter().zip(&out) {
            assert_eq!(est, s.query(k));
        }
    }

    #[test]
    fn from_cells_rebuild_is_identical() {
        let mut s = CountSketch::new(4, 128, 17).unwrap();
        s.insert(42, 0.5);
        let back = CountSketch::from_cells(4, 128, 17, Some(s.cells().to_vec())).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.query(42), 0.5);
    }

    #[test]
    fn insert_batch_matches_per_key_insert() {
        let (keys, values) = sample();
        let mut batched = CountSketch::new(5, 512, 33).unwrap();
        batched.insert_batch(&keys, &values);
        let mut single = CountSketch::new(5, 512, 33).unwrap();
        for (&k, &v) in keys.iter().zip(&values) {
            single.insert(k, v);
        }
        assert_eq!(batched.cells(), single.cells());
        // Unsorted keys with repeats exercise scatter-order sensitivity.
        let shuffled: Vec<u64> = keys.iter().rev().chain(keys.iter()).copied().collect();
        let vals2: Vec<f64> = values.iter().rev().chain(values.iter()).copied().collect();
        let mut batched2 = CountSketch::new(3, 64, 7).unwrap();
        batched2.insert_batch(&shuffled, &vals2);
        let mut single2 = CountSketch::new(3, 64, 7).unwrap();
        for (&k, &v) in shuffled.iter().zip(&vals2) {
            single2.insert(k, v);
        }
        assert_eq!(batched2.cells(), single2.cells());
    }

    #[test]
    fn sign_flips_agree_with_sign_for() {
        let mut seeds = Vec::new();
        push_sign_seeds(2, 123, &mut seeds);
        let keys: Vec<u64> = (0..100u64).map(|i| i * 977).collect();
        let mut flips = vec![0u64; keys.len()];
        crate::hash::fill_sign_flips(seeds[0], &keys, &mut flips);
        for (&k, &flip) in keys.iter().zip(&flips) {
            let via_flip = f64::from_bits(2.5f64.to_bits() ^ flip);
            assert_eq!(via_flip, sign_for(seeds[0], k) * 2.5);
        }
    }

    #[test]
    fn sign_family_is_independent_of_bins_and_balanced() {
        let mut seeds = Vec::new();
        push_sign_seeds(3, 99, &mut seeds);
        let mut bin_seeds = Vec::new();
        push_row_seeds(3, 99, &mut bin_seeds);
        assert_ne!(seeds, bin_seeds);
        let pos = (0..10_000u64)
            .filter(|&k| sign_for(seeds[0], k) > 0.0)
            .count();
        assert!((4_500..5_500).contains(&pos), "sign bias: {pos}/10000");
    }
}
