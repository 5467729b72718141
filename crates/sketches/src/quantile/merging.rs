//! A mergeable, compactor-based quantile sketch.
//!
//! This plays the role of Yahoo DataSketches in the paper's prototype (§3.2
//! Step 1 (1): "Here we choose Yahoo DataSketches, a state-of-the-art
//! quantile sketch"). The design follows the KLL/Manku-style compactor
//! hierarchy: level `l` holds items of weight `2^l`; when a level buffer
//! reaches capacity `k` it is sorted and *compacted* — every other item
//! (random parity) survives and is promoted to level `l + 1`, halving the
//! stored item count while preserving ranks in expectation.
//!
//! With capacity `k` per level the standard analysis gives rank error
//! `O(log(n/k) / k)·n`; `k = 256` comfortably exceeds the paper's "99%
//! correctness at m = 256" reference point for the sizes we process.

use crate::error::SketchError;
use crate::hash::mix64;
use crate::quantile::QuantileSketch;
use serde::{Deserialize, Serialize};

/// Default per-level buffer capacity (the paper's default sketch size
/// `m = 128`; see §4.1 "The size of quantile sketch is 128 by default").
pub const DEFAULT_CAPACITY: usize = 128;

/// Stack budget (in items) for the key-space sort below; level buffers at
/// the default capacities stay far under this, and larger buffers fall back
/// to the comparator sort.
const SORT_STACK: usize = 512;

/// Maps f64 bits to a u64 whose *unsigned* order equals [`f64::total_cmp`]
/// order. Bijective — see [`from_total_key`] — and equal keys correspond to
/// bitwise-identical floats, so sorting keys and mapping back is exactly
/// `sort_unstable_by(f64::total_cmp)`.
#[inline]
fn total_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`total_key`].
#[inline]
fn from_total_key(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// Sorts `buf` exactly as `buf.sort_unstable_by(f64::total_cmp)` would, but
/// through the integer key space: one u64 compare per comparison instead of
/// total_cmp's sign-magnitude transform on both operands every time. Level
/// buffers above level 0 are concatenations of the sorted halves emitted by
/// prior compactions, so the common case is detected and resolved with a
/// linear two-run merge instead of a full sort.
fn sort_total(buf: &mut [f64]) {
    let n = buf.len();
    if n > SORT_STACK {
        buf.sort_unstable_by(f64::total_cmp);
        return;
    }
    let mut key_buf = [0u64; SORT_STACK];
    let keys = &mut key_buf[..n];
    for (k, &v) in keys.iter_mut().zip(buf.iter()) {
        *k = total_key(v);
    }
    // Detect presorted runs: `split` = end of the first ascending run.
    let mut split = 1;
    while split < n && keys[split - 1] <= keys[split] {
        split += 1;
    }
    if split < n {
        let mut i = split + 1;
        while i < n && keys[i - 1] <= keys[i] {
            i += 1;
        }
        if i == n {
            // Exactly two sorted runs. Compactions emit sorted 64-chunks, so
            // full upper-level buffers are two 64-runs — the in-register
            // bitonic merge's exact shape.
            #[cfg(target_arch = "x86_64")]
            if n == 128 && split == 64 && crate::simd::lanes512_active() {
                // SAFETY: AVX-512F verified by `lanes512_active`.
                unsafe { super::sort128::merge_halves_128(keys) };
                for (v, &k) in buf.iter_mut().zip(keys.iter()) {
                    *v = from_total_key(k);
                }
                return;
            }
            // Linear merge through an aux buffer.
            let mut aux = [0u64; SORT_STACK];
            merge_runs(keys, &mut aux[..n], split);
            keys.copy_from_slice(&aux[..n]);
        } else {
            // Random contents: the level-0 case, almost always exactly the
            // compactor capacity of 128 — sorted branch-free in zmm
            // registers when AVX-512F is available.
            #[cfg(target_arch = "x86_64")]
            if n == 128 && crate::simd::lanes512_active() {
                // SAFETY: AVX-512F verified by `lanes512_active`.
                unsafe { super::sort128::sort_128(keys) };
                for (v, &k) in buf.iter_mut().zip(keys.iter()) {
                    *v = from_total_key(k);
                }
                return;
            }
            keys.sort_unstable();
        }
    }
    for (v, &k) in buf.iter_mut().zip(keys.iter()) {
        *v = from_total_key(k);
    }
}

/// Merges the two ascending runs `src[..half]` and `src[half..]` into `dst`
/// (`dst.len() == src.len()`), taking from the left run on ties. The select
/// is branch-free — random compactor contents make every comparison a coin
/// flip, so the classic `if a <= b` merge mispredicts on every other
/// element.
#[inline]
fn merge_runs(src: &[u64], dst: &mut [u64], half: usize) {
    let n = src.len();
    assert!(0 < half && half <= n && dst.len() == n);
    let (mut a, mut b) = (0usize, half);
    for d in dst.iter_mut() {
        // Clamped-index loads are always in bounds, so the exhaustion guard
        // is a register select (cmov) over an already-loaded value instead
        // of a branch around a load. An exhausted run presents `u64::MAX`,
        // which no real key equals: that would be the total-order key of an
        // f64 with all exponent bits set (a NaN), rejected at insert.
        // SAFETY: `a.min(half - 1) < half <= n` and `b.min(n - 1) < n`.
        let ka_raw = unsafe { *src.get_unchecked(a.min(half - 1)) };
        let kb_raw = unsafe { *src.get_unchecked(b.min(n - 1)) };
        let ka = if a < half { ka_raw } else { u64::MAX };
        let kb = if b < n { kb_raw } else { u64::MAX };
        let take_a = ka <= kb;
        *d = if take_a { ka } else { kb };
        a += take_a as usize;
        b += 1 - take_a as usize;
    }
}

/// Mergeable quantile sketch built from a hierarchy of compactor buffers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MergingQuantileSketch {
    capacity: usize,
    /// `levels[l]` holds items of weight `2^l`, unsorted.
    levels: Vec<Vec<f64>>,
    count: u64,
    min: f64,
    max: f64,
    /// Deterministic parity source so runs are reproducible.
    rng_state: u64,
}

impl MergingQuantileSketch {
    /// Creates a sketch whose per-level buffers hold `capacity` items.
    ///
    /// # Errors
    /// Returns [`SketchError::InvalidParameter`] if `capacity < 2`.
    pub fn new(capacity: usize) -> Result<Self, SketchError> {
        if capacity < 2 {
            return Err(SketchError::invalid(
                "capacity",
                format!("must be at least 2, got {capacity}"),
            ));
        }
        Ok(MergingQuantileSketch {
            capacity,
            levels: vec![Vec::with_capacity(capacity)],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            rng_state: 0x5EED_5EED_5EED_5EED,
        })
    }

    /// Creates a sketch with the paper's default size (`m = 128`).
    pub fn with_default_capacity() -> Self {
        Self::new(DEFAULT_CAPACITY).expect("default capacity is valid")
    }

    /// Per-level buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently retained across all levels (space cost).
    pub fn retained(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Deterministic pseudo-random bit for compaction parity.
    fn next_bit(&mut self) -> bool {
        self.rng_state = mix64(self.rng_state);
        self.rng_state & 1 == 1
    }

    /// Compacts level `l` into level `l + 1`.
    fn compact_level(&mut self, l: usize) {
        if self.levels.len() <= l + 1 {
            self.levels.push(Vec::with_capacity(self.capacity));
        }
        let mut buf = std::mem::take(&mut self.levels[l]);
        // Items equal under `total_cmp` are bitwise identical, so any
        // unstable reorder yields the same array (and the same survivors).
        sort_total(&mut buf);
        let offset = usize::from(self.next_bit());
        self.levels[l + 1].extend(buf.iter().skip(offset).step_by(2).copied());
        // Put the (cleared) buffer back so its capacity is reused.
        self.levels[l] = buf;
        self.levels[l].clear();
    }

    /// Cascades compactions until every level is within capacity.
    fn maybe_compact(&mut self) {
        let mut l = 0;
        while l < self.levels.len() {
            if self.levels[l].len() >= self.capacity {
                self.compact_level(l);
            }
            l += 1;
        }
    }

    /// Merges another sketch into this one. Error grows to the max of the
    /// two sketches' errors plus at most one extra compaction round.
    pub fn merge(&mut self, other: &MergingQuantileSketch) {
        for (l, buf) in other.levels.iter().enumerate() {
            if buf.is_empty() {
                continue;
            }
            while self.levels.len() <= l {
                self.levels.push(Vec::with_capacity(self.capacity));
            }
            self.levels[l].extend_from_slice(buf);
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.maybe_compact();
    }

    /// All retained `(value, weight)` pairs, sorted by value.
    fn weighted_items(&self) -> Vec<(f64, u64)> {
        let mut items: Vec<(f64, u64)> = Vec::new();
        self.weighted_items_into(&mut items);
        items
    }

    /// Fills `items` (cleared first) with the retained `(value, weight)`
    /// pairs, sorted by value. Reordering of equal-value items by the
    /// unstable sort is immaterial: the rank scans in `query`/`splits` only
    /// emit values, and any permutation of an equal-value run crosses each
    /// rank target at the same value with the same cumulative weight at the
    /// run's exit.
    ///
    /// `items` is sized for every level full, not for what this sketch
    /// retains: the retained count moves by a few items between inputs of
    /// one size, and a pooled `items` sized to the first of them would grow
    /// again on a later one.
    fn weighted_items_into(&self, items: &mut Vec<(f64, u64)>) {
        items.clear();
        items.reserve(self.levels.len() * self.capacity);
        for (l, buf) in self.levels.iter().enumerate() {
            let w = 1u64 << l;
            items.extend(buf.iter().map(|&v| (v, w)));
        }
        items.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    }

    /// Restores the sketch to its freshly-constructed state while keeping
    /// every level buffer's capacity. The parity source is re-seeded, so a
    /// reset sketch fed the same inserts produces *identical* splits to a
    /// brand-new sketch of the same capacity — the invariant the
    /// zero-allocation compression path relies on for byte-identical output.
    pub fn reset(&mut self) {
        for level in &mut self.levels {
            level.clear();
        }
        self.count = 0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
        self.rng_state = 0x5EED_5EED_5EED_5EED;
    }

    /// [`QuantileSketch::splits`] into reusable buffers: `items` is the
    /// weighted-item scratch, `out` receives the `q + 1` split points. Both
    /// are cleared first. Identical output to `splits`.
    ///
    /// # Errors
    /// Returns [`SketchError::InvalidParameter`] if `q == 0` and
    /// [`SketchError::Empty`] if nothing was inserted.
    pub fn splits_into(
        &self,
        q: usize,
        items: &mut Vec<(f64, u64)>,
        out: &mut Vec<f64>,
    ) -> Result<(), SketchError> {
        if q == 0 {
            return Err(SketchError::invalid("q", "need at least one bucket"));
        }
        if self.count == 0 {
            return Err(SketchError::Empty);
        }
        self.weighted_items_into(items);
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        out.clear();
        out.reserve(q + 1);
        out.push(self.min);
        let mut cum = 0u64;
        let mut iter = items.iter();
        let mut cur = iter.next();
        for i in 1..q {
            let target = ((i as f64 / q as f64) * total as f64).ceil().max(1.0) as u64;
            while let Some(&(v, w)) = cur {
                if cum + w >= target {
                    out.push(v.clamp(self.min, self.max));
                    break;
                }
                cum += w;
                cur = iter.next();
            }
            if out.len() < i + 1 {
                out.push(self.max);
            }
        }
        out.push(self.max);
        for i in 1..out.len() {
            if out[i] < out[i - 1] {
                out[i] = out[i - 1];
            }
        }
        Ok(())
    }
}

impl QuantileSketch for MergingQuantileSketch {
    fn insert(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "quantile sketch requires finite values");
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.levels[0].push(value);
        if self.levels[0].len() >= self.capacity {
            self.maybe_compact();
        }
    }

    fn count(&self) -> u64 {
        self.count
    }

    fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Bulk insertion that replays [`QuantileSketch::insert`] exactly —
    /// level-0 fills to the same boundaries, so compaction parity and the
    /// resulting splits are bit-identical — while amortizing the capacity
    /// check and min/max bookkeeping over whole chunks.
    fn extend_from_slice(&mut self, values: &[f64]) {
        let mut rest = values;
        while !rest.is_empty() {
            let room = (self.capacity - self.levels[0].len()).max(1);
            let (chunk, tail) = rest.split_at(room.min(rest.len()));
            for &v in chunk {
                debug_assert!(v.is_finite(), "quantile sketch requires finite values");
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }
            self.count += chunk.len() as u64;
            self.levels[0].extend_from_slice(chunk);
            if self.levels[0].len() >= self.capacity {
                self.maybe_compact();
            }
            rest = tail;
        }
    }

    fn query(&self, phi: f64) -> Result<f64, SketchError> {
        if self.count == 0 {
            return Err(SketchError::Empty);
        }
        let phi = phi.clamp(0.0, 1.0);
        if phi == 0.0 {
            return Ok(self.min);
        }
        if phi == 1.0 {
            return Ok(self.max);
        }
        let items = self.weighted_items();
        let total: u64 = items.iter().map(|&(_, w)| w).sum();
        let target = (phi * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for &(v, w) in &items {
            cum += w;
            if cum >= target {
                return Ok(v.clamp(self.min, self.max));
            }
        }
        Ok(self.max)
    }

    /// Splits computed from a single materialization of the weighted items,
    /// so the `q + 1` queries cost one sort instead of `q + 1`.
    fn splits(&self, q: usize) -> Result<Vec<f64>, SketchError> {
        let mut items = Vec::new();
        let mut out = Vec::new();
        self.splits_into(q, &mut items, &mut out)?;
        Ok(out)
    }
}

impl Default for MergingQuantileSketch {
    fn default() -> Self {
        Self::with_default_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::exact_rank;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn rank_error(data: &[f64], sketch: &MergingQuantileSketch, phi: f64) -> f64 {
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        let est = sketch.query(phi).unwrap();
        let rank = exact_rank(&sorted, est) as f64;
        (rank - phi * data.len() as f64).abs() / data.len() as f64
    }

    /// `sort_total` against the comparator sort it stands for, bit for bit,
    /// on every shape it dispatches on: random contents and two presorted
    /// runs, at the compactor capacity of 128 (the in-register AVX-512F
    /// kernels, where the CPU has them), around it, and past `SORT_STACK`.
    #[test]
    fn sort_total_matches_total_cmp_sort() {
        println!(
            "sort_total_matches_total_cmp_sort: avx512f lanes {}",
            crate::simd::lanes512_active()
        );
        let mut rng = StdRng::seed_from_u64(0x5027);
        for n in [0, 1, 2, 64, 127, 128, 129, 256, SORT_STACK, SORT_STACK + 1] {
            for split in [None, Some(n / 2), Some(n / 3)] {
                for _ in 0..20 {
                    let mut buf: Vec<f64> = (0..n)
                        .map(|i| match i % 7 {
                            0 => -0.0,
                            1 => 0.0,
                            2 => f64::from(rng.gen_range(-3i32..3)),
                            _ => rng.gen::<f64>() - 0.5,
                        })
                        .collect();
                    if let Some(at) = split {
                        buf[..at].sort_unstable_by(f64::total_cmp);
                        buf[at..].sort_unstable_by(f64::total_cmp);
                    }
                    let mut expect = buf.clone();
                    expect.sort_unstable_by(f64::total_cmp);
                    sort_total(&mut buf);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&buf), bits(&expect), "n={n} split={split:?}");
                }
            }
        }
    }

    #[test]
    fn small_input_is_exact() {
        let mut s = MergingQuantileSketch::new(64).unwrap();
        for v in [3.0, 1.0, 2.0] {
            s.insert(v);
        }
        assert_eq!(s.query(0.0).unwrap(), 1.0);
        assert_eq!(s.query(1.0).unwrap(), 3.0);
        assert_eq!(s.query(0.5).unwrap(), 2.0);
    }

    #[test]
    fn rank_error_bounded_uniform() {
        let mut rng = StdRng::seed_from_u64(11);
        let data: Vec<f64> = (0..50_000).map(|_| rng.gen::<f64>()).collect();
        let mut s = MergingQuantileSketch::new(256).unwrap();
        s.extend_from_slice(&data);
        for phi in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let err = rank_error(&data, &s, phi);
            assert!(err < 0.03, "phi={phi}: relative rank error {err}");
        }
    }

    #[test]
    fn rank_error_bounded_skewed() {
        let mut rng = StdRng::seed_from_u64(12);
        // Mimic Figure 4: values concentrated near zero, long negative tail.
        let data: Vec<f64> = (0..50_000)
            .map(|_| -(rng.gen::<f64>().powi(8) * 0.353) + 0.004 * rng.gen::<f64>())
            .collect();
        let mut s = MergingQuantileSketch::new(256).unwrap();
        s.extend_from_slice(&data);
        for phi in [0.05, 0.5, 0.95] {
            let err = rank_error(&data, &s, phi);
            assert!(err < 0.03, "phi={phi}: relative rank error {err}");
        }
    }

    #[test]
    fn retained_space_is_logarithmic() {
        let mut s = MergingQuantileSketch::new(128).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..1_000_000 {
            s.insert(rng.gen());
        }
        // ~capacity per level, ~log2(n/k) levels.
        assert!(
            s.retained() <= 128 * 24,
            "retained {} items for 1M inserts",
            s.retained()
        );
    }

    #[test]
    fn merge_matches_union_quantiles() {
        let mut rng = StdRng::seed_from_u64(14);
        let a_data: Vec<f64> = (0..30_000).map(|_| rng.gen::<f64>()).collect();
        let b_data: Vec<f64> = (0..30_000).map(|_| 1.0 + rng.gen::<f64>()).collect();
        let mut a = MergingQuantileSketch::new(256).unwrap();
        let mut b = MergingQuantileSketch::new(256).unwrap();
        a.extend_from_slice(&a_data);
        b.extend_from_slice(&b_data);
        a.merge(&b);
        assert_eq!(a.count(), 60_000);
        let mut all = a_data;
        all.extend_from_slice(&b_data);
        let err = rank_error(&all, &a, 0.5);
        assert!(err < 0.04, "post-merge median error {err}");
        // Union median sits at the boundary of the two populations.
        let med = a.query(0.5).unwrap();
        assert!((0.9..=1.1).contains(&med), "median {med}");
    }

    #[test]
    fn splits_partition_equally() {
        let mut rng = StdRng::seed_from_u64(15);
        let data: Vec<f64> = (0..40_000).map(|_| rng.gen::<f64>()).collect();
        let mut s = MergingQuantileSketch::new(256).unwrap();
        s.extend_from_slice(&data);
        let q = 8;
        let splits = s.splits(q).unwrap();
        assert_eq!(splits.len(), q + 1);
        assert_eq!(splits[0], s.min().unwrap());
        assert_eq!(splits[q], s.max().unwrap());
        for w in splits.windows(2) {
            let cnt = data.iter().filter(|&&x| x >= w[0] && x < w[1]).count();
            let expect = data.len() / q;
            assert!(
                (cnt as f64 - expect as f64).abs() < expect as f64 * 0.35,
                "bucket [{}, {}): {cnt} vs {expect}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let mut s = MergingQuantileSketch::new(64).unwrap();
            let mut rng = StdRng::seed_from_u64(16);
            for _ in 0..10_000 {
                s.insert(rng.gen());
            }
            s.query(0.5).unwrap()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn reset_sketch_reproduces_fresh_sketch_exactly() {
        let mut rng = StdRng::seed_from_u64(17);
        let data_a: Vec<f64> = (0..20_000).map(|_| rng.gen::<f64>()).collect();
        let data_b: Vec<f64> = (0..7_000).map(|_| rng.gen::<f64>() - 0.5).collect();

        let mut reused = MergingQuantileSketch::new(128).unwrap();
        reused.extend_from_slice(&data_a);
        let _ = reused.splits(64).unwrap();
        reused.reset();
        assert_eq!(reused.count(), 0);
        assert_eq!(reused.min(), None);
        reused.extend_from_slice(&data_b);

        let mut fresh = MergingQuantileSketch::new(128).unwrap();
        fresh.extend_from_slice(&data_b);

        // Bit-identical, not just approximately equal: the compression hot
        // path reuses one sketch across gradients and must produce the same
        // bytes a fresh sketch would.
        assert_eq!(reused.splits(64).unwrap(), fresh.splits(64).unwrap());
        assert_eq!(reused.query(0.5).unwrap(), fresh.query(0.5).unwrap());
    }

    #[test]
    fn splits_into_matches_splits() {
        let mut rng = StdRng::seed_from_u64(18);
        let data: Vec<f64> = (0..30_000).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect();
        let mut s = MergingQuantileSketch::new(256).unwrap();
        s.extend_from_slice(&data);
        let mut items = vec![(9.0, 9u64)]; // stale scratch must be cleared
        let mut out = vec![1.0, 2.0];
        for q in [1usize, 2, 7, 64, 256] {
            s.splits_into(q, &mut items, &mut out).unwrap();
            assert_eq!(out, s.splits(q).unwrap(), "q={q}");
        }
        assert!(s.splits_into(0, &mut items, &mut out).is_err());
        let empty = MergingQuantileSketch::new(64).unwrap();
        assert_eq!(
            empty.splits_into(4, &mut items, &mut out),
            Err(SketchError::Empty)
        );
    }

    #[test]
    fn empty_and_invalid() {
        let s = MergingQuantileSketch::new(64).unwrap();
        assert_eq!(s.query(0.5), Err(SketchError::Empty));
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert!(MergingQuantileSketch::new(1).is_err());
        assert!(s.splits(0).is_err());
    }

    #[test]
    fn single_item() {
        let mut s = MergingQuantileSketch::new(64).unwrap();
        s.insert(42.0);
        for phi in [0.0, 0.5, 1.0] {
            assert_eq!(s.query(phi).unwrap(), 42.0);
        }
        let splits = s.splits(4).unwrap();
        assert!(splits.iter().all(|&v| v == 42.0));
    }
}
