//! Property-based tests for the sketch invariants the SketchML pipeline
//! relies on (paper §3.3, Appendix A).

use proptest::collection::vec;
use proptest::prelude::*;
use sketchml_sketches::quantile::{MergingQuantileSketch, QuantileSketch};
use sketchml_sketches::{CountMinSketch, GroupedMinMaxSketch, MinMaxSketch};

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

    /// Grouped sketch confines the decode error to the owning group.
    #[test]
    fn grouped_minmax_error_within_group(
        items in vec((0u64..5_000, 0u16..256), 1..1000),
        r in 1usize..16,
        seed in any::<u64>(),
    ) {
        let q = 256u16;
        let mut g = GroupedMinMaxSketch::new(q, r, 2, 16, seed).unwrap();
        let width = g.group_width();
        let mut per_key_group = std::collections::HashMap::new();
        for &(k, b) in &items {
            let gi = g.insert(k, b);
            prop_assert_eq!(gi, g.group_of(b));
            per_key_group.insert((k, gi), b);
        }
        for &(k, gi) in per_key_group.keys() {
            let got = g.query(gi, k).expect("inserted key present");
            // Result must lie inside group gi's index range.
            let lo = gi as u16 * width;
            prop_assert!(got >= lo && got < lo.saturating_add(width).max(q.min(lo + width)));
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
