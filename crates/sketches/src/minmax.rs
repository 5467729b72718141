//! MinMaxSketch (paper §3.3) — the novel sketch SketchML introduces to
//! compress bucket indexes.
//!
//! Structure: `s` hash rows × `t` bins, like Count-Min, but the cells store
//! **bucket indexes**, not counters, and the collision rules differ:
//!
//! - **Insert (Min)**: for each row `i`, `H[i, h_i(k)] = min(H[i, h_i(k)], b)`.
//!   A collision can therefore only *lower* a cell, never raise it.
//! - **Query (Max)**: return `max_i H[i, h_i(k)]` — since every cell touched
//!   by key `k` holds a value `<= b(k)`, the maximum is the candidate closest
//!   to (and never above) the true index.
//!
//! The result is an **underestimate-only** error: decoded gradients are
//! decayed, never amplified, which keeps SGD on a correct (if slightly
//! slower) convergence trajectory — the property Appendix A.2 analyzes and
//! the `never_overestimates` test pins down.
//!
//! §3.3 "Solution 2" partitions the `q` bucket indexes into `r` contiguous
//! groups, each with its own table, so a collision can only confuse indexes
//! within the same group and the maximum index error drops from `q` to
//! `q/r`. The codec builds those groups itself: one flat cell table per
//! group, filled and read through [`insert_batch_raw`] / [`query_batch_raw`]
//! under the row seeds of [`group_seed`].
//!
//! Index normalization convention used across the workspace: *callers hand
//! this module indexes ordered by gradient magnitude* (index 0 = bucket
//! closest to zero). Insert-min therefore decays magnitude for positive and
//! negative gradients alike, which is exactly §3.3's "choose the bucket index
//! closest to the minimum bucket" rule after positive/negative separation.

use crate::error::SketchError;
use crate::hash::HashFamily;
use serde::{Deserialize, Serialize};

/// Sentinel marking a never-written cell. Stored cells must be `< EMPTY`.
pub const EMPTY_CELL: u16 = u16::MAX;

/// The min-insert / max-query sketch of §3.3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MinMaxSketch {
    hash: HashFamily,
    /// Row-major `rows × cols` cells; `EMPTY_CELL` means untouched.
    cells: Vec<u16>,
    inserted: u64,
}

impl MinMaxSketch {
    /// Creates a sketch with `rows` hash tables (`s`) of `cols` bins (`t`).
    ///
    /// # Errors
    /// Returns [`SketchError::InvalidParameter`] if either dimension is zero.
    pub fn new(rows: usize, cols: usize, seed: u64) -> Result<Self, SketchError> {
        if rows == 0 {
            return Err(SketchError::invalid("rows", "must be positive"));
        }
        if cols == 0 {
            return Err(SketchError::invalid("cols", "must be positive"));
        }
        Ok(MinMaxSketch {
            hash: HashFamily::new(rows, cols, seed),
            cells: vec![EMPTY_CELL; rows * cols],
            inserted: 0,
        })
    }

    /// Number of hash rows `s`.
    pub fn rows(&self) -> usize {
        self.hash.rows()
    }

    /// Number of bins per row `t`.
    pub fn cols(&self) -> usize {
        self.hash.cols()
    }

    /// Number of `insert` calls so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        row * self.hash.cols() + col
    }

    /// Inserts `(key, index)`: every touched cell keeps the **minimum** of
    /// its current value and `index` (§3.3 Insert Phase step 3).
    ///
    /// # Panics
    /// Debug-asserts `index != EMPTY_CELL` (reserved sentinel).
    pub fn insert(&mut self, key: u64, index: u16) {
        debug_assert!(
            index != EMPTY_CELL,
            "index {index} collides with the empty sentinel"
        );
        self.inserted += 1;
        for row in 0..self.hash.rows() {
            let i = self.idx(row, self.hash.bin(row, key));
            if self.cells[i] > index {
                self.cells[i] = index;
            }
        }
    }

    /// Queries the index for `key`: the **maximum** of the `s` candidate
    /// cells (§3.3 Query Phase step 2).
    ///
    /// Returns `None` if any candidate cell was never written — which proves
    /// `key` was never inserted (its own insert would have written all `s`
    /// cells). For any key that *was* inserted the result is `Some(b')` with
    /// `b' <= b(key)` (underestimate-only).
    pub fn query(&self, key: u64) -> Option<u16> {
        let mut best: u16 = 0;
        for row in 0..self.hash.rows() {
            let v = self.cells[self.idx(row, self.hash.bin(row, key))];
            if v == EMPTY_CELL {
                return None;
            }
            best = best.max(v);
        }
        Some(best)
    }

    /// Batch [`Self::insert`] over parallel `keys` / `indexes` slices, using
    /// per-row inner loops that hoist the seed and column loads.
    ///
    /// # Panics
    /// Panics if the slice lengths differ; debug-asserts every index is not
    /// the empty sentinel.
    pub fn insert_batch(&mut self, keys: &[u64], indexes: &[u16]) {
        assert_eq!(keys.len(), indexes.len(), "keys/indexes length mismatch");
        self.inserted += keys.len() as u64;
        insert_batch_raw(
            &mut self.cells,
            self.hash.seeds(),
            self.hash.cols(),
            keys,
            indexes,
        );
    }

    /// Batch [`Self::query`] into a reusable buffer (cleared first). Returns
    /// `false` — with `out` contents unspecified — if any probed cell was
    /// never written, i.e. some key was never inserted.
    pub fn query_batch(&self, keys: &[u64], out: &mut Vec<u16>) -> bool {
        query_batch_raw(&self.cells, self.hash.seeds(), self.hash.cols(), keys, out)
    }

    /// Raw cell table (row-major), for serialization by the wire format.
    pub fn cells(&self) -> &[u16] {
        &self.cells
    }

    /// Merges `other` into `self` by bin-wise **minimum** — the mergeable-
    /// sketch operation collective aggregation relies on.
    ///
    /// Because min is commutative, associative, and idempotent, and
    /// [`EMPTY_CELL`] (`u16::MAX`) is its identity, merging the sketches of
    /// two item sets yields cells *identical* to inserting both sets into a
    /// single sketch. The §3.3 underestimate-only guarantee is therefore
    /// preserved under merge: a query can only move toward zero, never above
    /// the smallest true index inserted for that key — decoded gradients
    /// decay, they never flip sign.
    ///
    /// # Errors
    /// Returns [`SketchError::InvalidParameter`] unless both sketches have
    /// identical shape *and* identical per-row hash seeds (bins are only
    /// comparable when the hash functions agree).
    pub fn merge(&mut self, other: &MinMaxSketch) -> Result<(), SketchError> {
        if self.rows() != other.rows() || self.cols() != other.cols() {
            return Err(SketchError::invalid(
                "shape",
                format!(
                    "cannot merge {}x{} into {}x{}",
                    other.rows(),
                    other.cols(),
                    self.rows(),
                    self.cols()
                ),
            ));
        }
        if self.hash.seeds() != other.hash.seeds() {
            return Err(SketchError::invalid(
                "seed",
                "cannot merge sketches with different hash seeds",
            ));
        }
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            if *theirs < *mine {
                *mine = *theirs;
            }
        }
        self.inserted += other.inserted;
        Ok(())
    }

    /// Rebuilds a sketch from its raw parts (deserialization path).
    ///
    /// # Errors
    /// Returns [`SketchError::Corrupt`] if `cells.len() != rows * cols`.
    pub fn from_cells(
        rows: usize,
        cols: usize,
        seed: u64,
        cells: Vec<u16>,
    ) -> Result<Self, SketchError> {
        if rows == 0 || cols == 0 {
            return Err(SketchError::invalid("rows/cols", "must be positive"));
        }
        if cells.len() != rows * cols {
            return Err(SketchError::Corrupt(format!(
                "cell buffer holds {} entries, expected {rows}x{cols}",
                cells.len()
            )));
        }
        Ok(MinMaxSketch {
            hash: HashFamily::new(rows, cols, seed),
            cells,
            inserted: 0,
        })
    }
}

/// Min-inserts `(keys[i], indexes[i])` pairs into a raw row-major
/// `row_seeds.len() × cols` cell table — the allocation-free backing of
/// [`MinMaxSketch::insert_batch`] for callers that pool their cell storage.
/// Per-row outer loops keep the seed and row base in registers; because
/// min-insert is order-independent, the result is identical to per-key
/// inserts.
///
/// # Panics
/// Panics if `cells.len() != row_seeds.len() * cols` or the pair slices
/// differ in length.
pub fn insert_batch_raw(
    cells: &mut [u16],
    row_seeds: &[u64],
    cols: usize,
    keys: &[u64],
    indexes: &[u16],
) {
    assert_eq!(cells.len(), row_seeds.len() * cols, "cell table shape");
    assert_eq!(keys.len(), indexes.len(), "keys/indexes length mismatch");
    if u32::try_from(cols).is_err() {
        // Shapes beyond the batched-hash contract: plain per-key loops.
        for (row, &seed) in row_seeds.iter().enumerate() {
            let row_cells = &mut cells[row * cols..(row + 1) * cols];
            for (&key, &index) in keys.iter().zip(indexes) {
                let cell = &mut row_cells[HashFamily::bin_for(seed, cols, key)];
                *cell = (*cell).min(index);
            }
        }
        return;
    }
    // Hash a stack-sized chunk of keys per row in one `fill_bins` batch (the
    // vectorized unit), then scatter the min-updates. Min-insert is
    // order-independent, so regrouping by chunk leaves the table identical
    // to per-key row-major inserts.
    let mut bins = [0u32; BIN_CHUNK];
    let mut at = 0;
    while at < keys.len() {
        let end = (at + BIN_CHUNK).min(keys.len());
        let key_chunk = &keys[at..end];
        let idx_chunk = &indexes[at..end];
        for (row, &seed) in row_seeds.iter().enumerate() {
            let row_cells = &mut cells[row * cols..(row + 1) * cols];
            let bins = &mut bins[..key_chunk.len()];
            crate::hash::fill_bins(seed, cols, key_chunk, bins);
            for (&bin, &index) in bins.iter().zip(idx_chunk) {
                debug_assert!(
                    index != EMPTY_CELL,
                    "index {index} collides with the empty sentinel"
                );
                // Unconditional min + store: the branchy form mispredicts on
                // ~half the collisions.
                let cell = &mut row_cells[bin as usize];
                *cell = (*cell).min(index);
            }
        }
        at = end;
    }
}

/// Keys hashed per [`crate::hash::fill_bins`] batch in the chunked
/// insert/query paths; sized to keep the bins buffer on the stack.
const BIN_CHUNK: usize = 256;

/// Max-queries every key against a raw cell table (see [`insert_batch_raw`]),
/// writing one index per key into `out` (cleared first). Returns `false` —
/// with `out` contents unspecified — if any probed cell was never written.
///
/// # Panics
/// Panics if `cells.len() != row_seeds.len() * cols`.
pub fn query_batch_raw(
    cells: &[u16],
    row_seeds: &[u64],
    cols: usize,
    keys: &[u64],
    out: &mut Vec<u16>,
) -> bool {
    assert_eq!(cells.len(), row_seeds.len() * cols, "cell table shape");
    out.clear();
    out.resize(keys.len(), 0);
    if u32::try_from(cols).is_err() {
        for (row, &seed) in row_seeds.iter().enumerate() {
            let row_cells = &cells[row * cols..(row + 1) * cols];
            for (&key, best) in keys.iter().zip(out.iter_mut()) {
                let v = row_cells[HashFamily::bin_for(seed, cols, key)];
                if v == EMPTY_CELL {
                    return false;
                }
                *best = (*best).max(v);
            }
        }
        return true;
    }
    // The max is taken unconditionally (which row holds a key's largest
    // cell is a coin flip, so a compare-and-branch mispredicts on about half
    // the probes), and an empty probe is looked for once per row of a chunk,
    // as an OR over the row's probes.
    let mut bins = [0u32; BIN_CHUNK];
    let mut at = 0;
    while at < keys.len() {
        let end = (at + BIN_CHUNK).min(keys.len());
        let key_chunk = &keys[at..end];
        let out_chunk = &mut out[at..end];
        for (row, &seed) in row_seeds.iter().enumerate() {
            let row_cells = &cells[row * cols..(row + 1) * cols];
            let bins = &mut bins[..key_chunk.len()];
            crate::hash::fill_bins(seed, cols, key_chunk, bins);
            let mut empty = false;
            for (&bin, best) in bins.iter().zip(out_chunk.iter_mut()) {
                let v = row_cells[bin as usize];
                empty |= v == EMPTY_CELL;
                *best = (*best).max(v);
            }
            if empty {
                return false;
            }
        }
        at = end;
    }
    true
}

/// Derives the hash seed of group `g` from a base seed, so the encoder and
/// the decoder of a grouped table hash every group identically.
#[inline]
pub fn group_seed(base: u64, g: usize) -> u64 {
    base.wrapping_add(g as u64 * 0x9E37)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use std::collections::HashMap;

    #[test]
    fn exact_without_collisions() {
        let mut mm = MinMaxSketch::new(3, 1 << 16, 1).unwrap();
        for key in 0..200u64 {
            mm.insert(key, (key % 256) as u16);
        }
        for key in 0..200u64 {
            assert_eq!(mm.query(key), Some((key % 256) as u16));
        }
    }

    #[test]
    fn never_overestimates() {
        // Cram 5000 keys into a 2x64 sketch; every queried index must be
        // <= the inserted index (the §3.3 underestimate-only guarantee).
        let mut mm = MinMaxSketch::new(2, 64, 2).unwrap();
        let mut truth: HashMap<u64, u16> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(21);
        for key in 0..5_000u64 {
            let idx = rng.gen_range(0..256u16);
            mm.insert(key, idx);
            truth.insert(key, idx);
        }
        for (&key, &idx) in &truth {
            let got = mm.query(key).expect("inserted key must be present");
            assert!(got <= idx, "key {key}: got {got} > inserted {idx}");
        }
    }

    #[test]
    fn uninserted_key_with_empty_cell_is_detected() {
        let mut mm = MinMaxSketch::new(4, 1 << 14, 3).unwrap();
        mm.insert(1, 5);
        // With 16384 bins and one insert, some probe of a fresh key will
        // almost surely hit an untouched cell.
        let misses = (1000..2000u64).filter(|&k| mm.query(k).is_none()).count();
        assert!(misses > 990, "only {misses} of 1000 foreign keys detected");
    }

    #[test]
    fn empty_sketch_answers_none() {
        let mm = MinMaxSketch::new(2, 16, 4).unwrap();
        assert_eq!(mm.query(42), None);
        assert_eq!(mm.inserted(), 0);
    }

    #[test]
    fn reinsert_keeps_minimum() {
        let mut mm = MinMaxSketch::new(2, 16, 5).unwrap();
        mm.insert(7, 10);
        mm.insert(7, 3);
        mm.insert(7, 200); // must not raise the stored value
        assert_eq!(mm.query(7), Some(3));
    }

    #[test]
    fn accuracy_improves_with_more_cols() {
        let run = |cols: usize| -> f64 {
            let mut mm = MinMaxSketch::new(2, cols, 6).unwrap();
            let mut rng = StdRng::seed_from_u64(22);
            let items: Vec<(u64, u16)> =
                (0..2_000).map(|k| (k, rng.gen_range(0..256u16))).collect();
            for &(k, b) in &items {
                mm.insert(k, b);
            }
            let err: f64 = items
                .iter()
                .map(|&(k, b)| (b - mm.query(k).unwrap()) as f64)
                .sum();
            err / items.len() as f64
        };
        let small = run(256);
        let large = run(4096);
        assert!(
            large < small,
            "mean index error should shrink with columns: {large} !< {small}"
        );
    }

    #[test]
    fn serialization_roundtrip_via_cells() {
        let mut mm = MinMaxSketch::new(2, 128, 7).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let items: Vec<(u64, u16)> = (0..500).map(|k| (k, rng.gen_range(0..64u16))).collect();
        for &(k, b) in &items {
            mm.insert(k, b);
        }
        let rebuilt = MinMaxSketch::from_cells(2, 128, 7, mm.cells().to_vec()).unwrap();
        for &(k, _) in &items {
            assert_eq!(mm.query(k), rebuilt.query(k));
        }
    }

    #[test]
    fn from_cells_validates_length() {
        assert!(MinMaxSketch::from_cells(2, 128, 0, vec![0; 7]).is_err());
        assert!(MinMaxSketch::from_cells(0, 128, 0, vec![]).is_err());
    }

    #[test]
    fn batch_insert_and_query_match_per_key_path() {
        let mut rng = StdRng::seed_from_u64(26);
        let items: Vec<(u64, u16)> = (0..3_000).map(|k| (k, rng.gen_range(0..200u16))).collect();
        let keys: Vec<u64> = items.iter().map(|&(k, _)| k).collect();
        let indexes: Vec<u16> = items.iter().map(|&(_, b)| b).collect();

        let mut reference = MinMaxSketch::new(2, 128, 12).unwrap();
        for &(k, b) in &items {
            reference.insert(k, b);
        }
        let mut batched = MinMaxSketch::new(2, 128, 12).unwrap();
        batched.insert_batch(&keys, &indexes);
        assert_eq!(batched.cells(), reference.cells());
        assert_eq!(batched.inserted(), reference.inserted());

        let mut got = Vec::new();
        assert!(batched.query_batch(&keys, &mut got));
        let expect: Vec<u16> = keys.iter().map(|&k| reference.query(k).unwrap()).collect();
        assert_eq!(got, expect);

        // The raw entry points see the identical flat table.
        let mut raw_cells = vec![EMPTY_CELL; 2 * 128];
        let mut seeds = Vec::new();
        crate::hash::push_row_seeds(2, 12, &mut seeds);
        insert_batch_raw(&mut raw_cells, &seeds, 128, &keys, &indexes);
        assert_eq!(&raw_cells[..], reference.cells());
        let mut raw_got = Vec::new();
        assert!(query_batch_raw(
            &raw_cells,
            &seeds,
            128,
            &keys,
            &mut raw_got
        ));
        assert_eq!(raw_got, expect);
    }

    proptest::proptest! {
        /// The batch query against a scalar max over the rows, on random
        /// tables of 1–4 rows with some cells never written: the same
        /// indices when every probe is written, `false` whenever any key has
        /// an empty probe in any row. Up to 600 keys, so chunks of the batch
        /// path end mid-batch.
        #[test]
        fn query_batch_raw_is_the_max_over_rows(
            rows in 1usize..5,
            cols in 1usize..300,
            seed in proptest::prelude::any::<u64>(),
            empty_per_mille in proptest::prop_oneof![proptest::strategy::Just(0u32), 0u32..30],
            keys in proptest::collection::vec(0u64..1_000_000, 0..600),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cells: Vec<u16> = (0..rows * cols)
                .map(|_| {
                    if rng.gen_range(0..1000) < empty_per_mille {
                        EMPTY_CELL
                    } else {
                        rng.gen_range(0..EMPTY_CELL)
                    }
                })
                .collect();
            let mut seeds = Vec::new();
            crate::hash::push_row_seeds(rows, seed, &mut seeds);
            let scalar: Option<Vec<u16>> = keys
                .iter()
                .map(|&key| {
                    seeds.iter().enumerate().try_fold(0u16, |best, (row, &s)| {
                        let v = cells[row * cols + HashFamily::bin_for(s, cols, key)];
                        (v != EMPTY_CELL).then_some(best.max(v))
                    })
                })
                .collect();
            let mut got = vec![7u16; 3];
            let complete = query_batch_raw(&cells, &seeds, cols, &keys, &mut got);
            proptest::prop_assert_eq!(complete, scalar.is_some());
            if let Some(want) = scalar {
                proptest::prop_assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn batch_query_detects_missing_key() {
        let mut mm = MinMaxSketch::new(4, 1 << 14, 13).unwrap();
        mm.insert_batch(&[1, 2, 3], &[5, 6, 7]);
        let mut out = Vec::new();
        assert!(!mm.query_batch(&[1, 999_999], &mut out));
        assert!(mm.query_batch(&[1, 2, 3], &mut out));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn merge_equals_single_sketch_over_union() {
        let mut rng = StdRng::seed_from_u64(27);
        let items: Vec<(u64, u16)> = (0..3_000).map(|k| (k, rng.gen_range(0..200u16))).collect();

        let mut all = MinMaxSketch::new(2, 128, 14).unwrap();
        for &(k, b) in &items {
            all.insert(k, b);
        }
        let mut merged = MinMaxSketch::new(2, 128, 14).unwrap();
        for part in items.chunks(700) {
            let mut s = MinMaxSketch::new(2, 128, 14).unwrap();
            for &(k, b) in part {
                s.insert(k, b);
            }
            merged.merge(&s).unwrap();
        }
        assert_eq!(merged.cells(), all.cells());
        assert_eq!(merged.inserted(), all.inserted());
    }

    #[test]
    fn merge_rejects_incompatible_layouts() {
        let mut a = MinMaxSketch::new(2, 128, 14).unwrap();
        assert!(a.merge(&MinMaxSketch::new(3, 128, 14).unwrap()).is_err());
        assert!(a.merge(&MinMaxSketch::new(2, 64, 14).unwrap()).is_err());
        assert!(a.merge(&MinMaxSketch::new(2, 128, 15).unwrap()).is_err());
        assert!(a.merge(&MinMaxSketch::new(2, 128, 14).unwrap()).is_ok());
    }
}
