//! Property-based tests for the sketch invariants the SketchML pipeline
//! relies on (paper §3.3, Appendix A).

use proptest::collection::vec;
use proptest::prelude::*;
use sketchml_sketches::hash::push_row_seeds;
use sketchml_sketches::minmax::{group_seed, EMPTY_CELL};
use sketchml_sketches::quantile::{MergingQuantileSketch, QuantileSketch};
use sketchml_sketches::{insert_batch_raw, query_batch_raw, CountMinSketch, MinMaxSketch};
use std::collections::BTreeMap;

/// §3.3 "Solution 2" as the codec builds it: bucket index `b` belongs to
/// group `b / ⌈q / r⌉`, each group's pairs go into its own flat
/// `rows × cols` table hashed under `group_seed(seed, g)`, and each key is
/// queried back from its group's table. Returns `(group, inserted, decoded)`
/// per key, with the group width.
fn grouped_roundtrip(
    pairs: &BTreeMap<u64, u16>,
    q: u16,
    r: usize,
    rows: usize,
    cols: usize,
    seed: u64,
) -> (Vec<(usize, u16, u16)>, u16) {
    let width = (q as usize).div_ceil(r) as u16;
    let mut out = Vec::with_capacity(pairs.len());
    let mut seeds = Vec::new();
    let mut decoded = Vec::new();
    for g in 0..r {
        let (keys, indexes): (Vec<u64>, Vec<u16>) = pairs
            .iter()
            .filter(|&(_, &b)| (b / width) as usize == g)
            .map(|(&k, &b)| (k, b))
            .unzip();
        let mut cells = vec![EMPTY_CELL; rows * cols];
        seeds.clear();
        push_row_seeds(rows, group_seed(seed, g), &mut seeds);
        insert_batch_raw(&mut cells, &seeds, cols, &keys, &indexes);
        assert!(query_batch_raw(&cells, &seeds, cols, &keys, &mut decoded));
        out.extend(indexes.iter().zip(&decoded).map(|(&b, &d)| (g, b, d)));
    }
    (out, width)
}

/// Grouping bounds the decoded index error by the group width and so
/// lowers it: at the same total cells (deliberately too few), 8 groups of
/// `cols / 8` beat one table of `cols` on mean index error.
#[test]
fn more_groups_of_the_same_cells_lower_the_index_error() {
    use rand::prelude::*;
    let q = 256u16;
    let total_cols = 64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(25);
    let pairs: BTreeMap<u64, u16> = (0..4_000).map(|k| (k, rng.gen_range(0..q))).collect();
    let mean_err = |r: usize| {
        let (decoded, _) = grouped_roundtrip(&pairs, q, r, 2, total_cols / r, 9);
        decoded.iter().map(|&(_, b, d)| (b - d) as f64).sum::<f64>() / decoded.len() as f64
    };
    let (e1, e8) = (mean_err(1), mean_err(8));
    assert!(
        e8 < e1,
        "grouping should reduce mean index error: grouped {e8} !< single {e1}"
    );
}

proptest! {
    /// The mergeable sketch returns values inside the observed range and is
    /// monotone in phi.
    #[test]
    fn merging_query_within_range_and_monotone(
        data in vec(-1e6f64..1e6, 1..3000),
    ) {
        let mut s = MergingQuantileSketch::new(32).unwrap();
        s.extend_from_slice(&data);
        let min = s.min().unwrap();
        let max = s.max().unwrap();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let v = s.query(i as f64 / 10.0).unwrap();
            prop_assert!(v >= min && v <= max);
            prop_assert!(v >= prev, "quantiles must be monotone in phi");
            prev = v;
        }
    }

    /// Splits are monotone, bracket the data, and have length q + 1.
    #[test]
    fn merging_splits_shape(
        data in vec(-10f64..10.0, 1..2000),
        q in 1usize..64,
    ) {
        let mut s = MergingQuantileSketch::new(64).unwrap();
        s.extend_from_slice(&data);
        let splits = s.splits(q).unwrap();
        prop_assert_eq!(splits.len(), q + 1);
        prop_assert_eq!(splits[0], s.min().unwrap());
        prop_assert_eq!(splits[q], s.max().unwrap());
        for w in splits.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// Count-Min never underestimates (§2.4: overestimated error only).
    #[test]
    fn countmin_never_underestimates(
        keys in vec(0u64..200, 1..2000),
        rows in 1usize..5,
        cols in 1usize..64,
    ) {
        let mut cm = CountMinSketch::new(rows, cols, 42).unwrap();
        let mut truth = std::collections::HashMap::new();
        for &k in &keys {
            cm.insert(k);
            *truth.entry(k).or_insert(0u64) += 1;
        }
        for (&k, &f) in &truth {
            prop_assert!(cm.query(k) >= f);
        }
    }

    /// MinMaxSketch never overestimates (§3.3: underestimated error only),
    /// regardless of shape, seed or workload.
    #[test]
    fn minmax_never_overestimates(
        items in vec((0u64..10_000, 0u16..1024), 1..2000),
        rows in 1usize..4,
        cols in 1usize..128,
        seed in any::<u64>(),
    ) {
        let mut mm = MinMaxSketch::new(rows, cols, seed).unwrap();
        // Last write wins in the truth map, but the sketch keeps the min
        // across duplicate inserts, so compare against the per-key minimum.
        let mut min_inserted = std::collections::HashMap::new();
        for &(k, b) in &items {
            mm.insert(k, b);
            min_inserted
                .entry(k)
                .and_modify(|m: &mut u16| *m = (*m).min(b))
                .or_insert(b);
        }
        for (&k, &m) in &min_inserted {
            let got = mm.query(k).expect("inserted key present");
            prop_assert!(got <= m, "key {k}: queried {got} > min inserted {m}");
        }
    }

    /// A key's decoded index stays inside its owning group, never above
    /// the index it was inserted with, for any group count and seed.
    #[test]
    fn grouped_tables_decode_inside_the_owning_group(
        items in vec((0u64..5_000, 0u16..256), 1..1000),
        r in 1usize..16,
        seed in any::<u64>(),
    ) {
        let q = 256u16;
        let pairs: BTreeMap<u64, u16> = items.into_iter().collect();
        let (decoded, width) = grouped_roundtrip(&pairs, q, r, 2, 16, seed);
        prop_assert_eq!(decoded.len(), pairs.len());
        for (g, b, got) in decoded {
            let lo = g as u16 * width;
            prop_assert!(got <= b, "decoded {} above inserted {}", got, b);
            prop_assert!(got >= lo && got < (lo + width).min(q), "{} outside group {}", got, g);
        }
    }

    /// Merging is value-safe: min/max of the merged sketch bracket both
    /// inputs and the count is the sum.
    #[test]
    fn merging_merge_counts_and_extremes(
        a in vec(-100f64..100.0, 1..500),
        b in vec(-100f64..100.0, 1..500),
    ) {
        let mut sa = MergingQuantileSketch::new(32).unwrap();
        let mut sb = MergingQuantileSketch::new(32).unwrap();
        sa.extend_from_slice(&a);
        sb.extend_from_slice(&b);
        let (amin, amax) = (sa.min().unwrap(), sa.max().unwrap());
        let (bmin, bmax) = (sb.min().unwrap(), sb.max().unwrap());
        sa.merge(&sb);
        prop_assert_eq!(sa.count(), (a.len() + b.len()) as u64);
        prop_assert_eq!(sa.min().unwrap(), amin.min(bmin));
        prop_assert_eq!(sa.max().unwrap(), amax.max(bmax));
    }
}
