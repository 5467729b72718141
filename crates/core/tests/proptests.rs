//! Property-based tests of the compressor invariants (paper §3.3/§3.4):
//! for *arbitrary* sparse gradients, keys decode exactly, signs never flip,
//! and the decode never panics on corrupted bytes.

use bytes::BytesMut;
use proptest::collection::btree_map;
use proptest::prelude::*;
use sketchml_core::{
    roundtrip_error, CompressScratch, FastSgdCompressor, GradientCompressor, KeyCompressor,
    QuantCompressor, RawCompressor, ShardedCompressor, SketchMlCompressor, SketchMlConfig,
    SparseGradient, TruncationCompressor, ZipMlCompressor,
};

/// Arbitrary sparse gradients: up to 300 pairs over a 100k-dim model with
/// values in a gradient-like range, never exactly zero.
fn arb_gradient() -> impl Strategy<Value = SparseGradient> {
    btree_map(0u64..100_000, -2.0f64..2.0, 1..300).prop_map(|m| {
        let keys: Vec<u64> = m.keys().copied().collect();
        let values: Vec<f64> = m
            .values()
            .map(|&v| if v == 0.0 { 1e-9 } else { v })
            .collect();
        SparseGradient::new(100_000, keys, values).expect("btree map keys are ascending")
    })
}

/// What `SparseGradient::aggregate` did before it became a k-way merge,
/// kept as the reference: flat collect, unstable sort by key, running sum,
/// zeros dropped.
fn aggregate_by_sorting(parts: &[SparseGradient]) -> (Vec<u64>, Vec<f64>) {
    let mut pairs: Vec<(u64, f64)> = parts.iter().flat_map(|g| g.iter()).collect();
    pairs.sort_unstable_by_key(|&(k, _)| k);
    let mut keys: Vec<u64> = Vec::new();
    let mut values: Vec<f64> = Vec::new();
    for (k, v) in pairs {
        if keys.last() == Some(&k) {
            *values.last_mut().unwrap() += v;
        } else {
            keys.push(k);
            values.push(v);
        }
    }
    keys.into_iter()
        .zip(values)
        .filter(|&(_, v)| v != 0.0)
        .unzip()
}

/// The sum written out by hand: every key's values added part after part.
fn aggregate_in_part_order(parts: &[SparseGradient]) -> (Vec<u64>, Vec<f64>) {
    let mut sums = std::collections::BTreeMap::new();
    for part in parts {
        for (k, v) in part.iter() {
            sums.entry(k).and_modify(|s| *s += v).or_insert(v);
        }
    }
    sums.into_iter().filter(|&(_, v)| v != 0.0).unzip()
}

/// One to eight parts over 24 keys, so most keys are shared; the values
/// include pairs that cancel exactly, explicit zeros, and magnitudes whose
/// sum depends on the order it is taken in.
fn arb_parts() -> impl Strategy<Value = Vec<SparseGradient>> {
    let value = prop_oneof![
        Just(0.5f64),
        Just(-0.5f64),
        Just(0.0f64),
        Just(0.1f64),
        Just(0.2f64),
        Just(-0.3f64),
        Just(1e17f64),
        Just(-1e17f64),
        -2.0f64..2.0,
    ];
    proptest::collection::vec(btree_map(0u64..24, value, 0..16), 1..9).prop_map(|parts| {
        parts
            .into_iter()
            .map(|m| {
                let (keys, values) = m.into_iter().unzip();
                SparseGradient::new(24, keys, values).expect("btree map keys are ascending")
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The merge sums equal keys in ascending part index. For one and two
    /// parts that is what the sort-based body computed, bit for bit (one
    /// addition commutes); from three parts on the old bits depended on what
    /// an unstable sort did with equal keys, the new ones are the hand sum.
    #[test]
    fn aggregate_merges_in_part_order(parts in arb_parts()) {
        let merged = SparseGradient::aggregate(&parts).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (keys, values) = aggregate_in_part_order(&parts);
        prop_assert_eq!(merged.keys(), &keys[..]);
        prop_assert_eq!(bits(merged.values()), bits(&values));
        prop_assert!(merged.values().iter().all(|&v| v != 0.0));
        prop_assert_eq!(merged.dim(), 24);
        if parts.len() <= 2 {
            let (sorted_keys, sorted_values) = aggregate_by_sorting(&parts);
            prop_assert_eq!(merged.keys(), &sorted_keys[..]);
            prop_assert_eq!(bits(merged.values()), bits(&sorted_values));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline §3.4 property: SketchML keys decode exactly, always.
    #[test]
    fn sketchml_keys_always_lossless(grad in arb_gradient(), seed in any::<u64>()) {
        let cfg = SketchMlConfig { seed, ..SketchMlConfig::default() };
        let c = SketchMlCompressor::new(cfg).unwrap();
        let decoded = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
        prop_assert_eq!(decoded.keys(), grad.keys());
        prop_assert_eq!(decoded.dim(), grad.dim());
    }

    /// §3.3 Solution 1: decoded values never reverse sign, and magnitudes
    /// never exceed the side's maximum (underestimate-only decay).
    #[test]
    fn sketchml_never_reverses_or_amplifies(grad in arb_gradient(), seed in any::<u64>()) {
        let cfg = SketchMlConfig { seed, ..SketchMlConfig::default() };
        let c = SketchMlCompressor::new(cfg).unwrap();
        let decoded = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
        let max_mag = grad.values().iter().fold(0f64, |a, v| a.max(v.abs()));
        for ((_, o), (_, d)) in grad.iter().zip(decoded.iter()) {
            prop_assert!(o.signum() == d.signum() || d == 0.0,
                "sign flip {o} -> {d}");
            prop_assert!(d.abs() <= max_mag + 1e-12,
                "amplified {o} -> {d} (max {max_mag})");
        }
    }

    /// Shrinking the sketch must degrade *accuracy*, never *correctness*:
    /// even a 1-column-per-group sketch decodes valid in-range values.
    #[test]
    fn sketchml_extreme_shapes_stay_valid(
        grad in arb_gradient(),
        rows in 1usize..4,
        groups in 1usize..12,
    ) {
        let cfg = SketchMlConfig {
            rows,
            groups,
            col_ratio: 1e-6, // force min_cols_per_group
            min_cols_per_group: 1,
            ..SketchMlConfig::default()
        };
        let c = SketchMlCompressor::new(cfg).unwrap();
        let decoded = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
        prop_assert_eq!(decoded.keys(), grad.keys());
        let max_mag = grad.values().iter().fold(0f64, |a, v| a.max(v.abs()));
        for (_, d) in decoded.iter() {
            prop_assert!(d.abs() <= max_mag + 1e-12);
        }
    }

    /// Every lossless compressor is exactly lossless (modulo f32 width).
    #[test]
    fn lossless_baselines_roundtrip(grad in arb_gradient()) {
        let raw = RawCompressor::default();
        let d = raw.decompress(&raw.compress(&grad).unwrap().payload).unwrap();
        prop_assert_eq!(&d, &grad);
        let key = KeyCompressor;
        let d = key.decompress(&key.compress(&grad).unwrap().payload).unwrap();
        prop_assert_eq!(&d, &grad);
    }

    /// ZipML error is bounded by one level width; keys exact.
    #[test]
    fn zipml_error_within_level(grad in arb_gradient()) {
        let c = ZipMlCompressor::paper_default();
        let d = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
        prop_assert_eq!(d.keys(), grad.keys());
        let min = grad.values().iter().copied().fold(f64::INFINITY, f64::min);
        let max = grad.values().iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let width = (max - min).max(f64::MIN_POSITIVE) / 65_535.0;
        for ((_, o), (_, v)) in grad.iter().zip(d.iter()) {
            prop_assert!((o - v).abs() <= width + 1e-12);
        }
    }

    /// Truncation keeps a subset of the original pairs with exact keys.
    #[test]
    fn truncation_keeps_subset(grad in arb_gradient(), ratio in 0.01f64..1.0) {
        let c = TruncationCompressor { keep_ratio: ratio };
        let d = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
        prop_assert!(d.nnz() <= grad.nnz());
        let orig: std::collections::HashMap<u64, f64> = grad.iter().collect();
        for (k, v) in d.iter() {
            let o = orig.get(&k);
            prop_assert!(o.is_some(), "key {k} not in original");
            prop_assert!((o.unwrap() - v).abs() < 1e-6);
        }
    }

    /// Quant compressor: keys exact, values within their bucket's span.
    #[test]
    fn quant_compressor_error_within_value_range(grad in arb_gradient()) {
        let c = QuantCompressor::default();
        let d = c.decompress(&c.compress(&grad).unwrap().payload).unwrap();
        prop_assert_eq!(d.keys(), grad.keys());
        let min = grad.values().iter().copied().fold(f64::INFINITY, f64::min);
        let max = grad.values().iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for (_, v) in d.iter() {
            prop_assert!(v >= min - 1e-12 && v <= max + 1e-12);
        }
    }

    /// The sharded engine is a pure transport: its decode equals decoding
    /// each serially-compressed shard and stitching them back together, for
    /// arbitrary gradients, shard counts, and thread counts.
    #[test]
    fn sharded_decode_equals_serial_per_shard(
        grad in arb_gradient(),
        seed in any::<u64>(),
        shards in 1usize..9,
        threads in 1usize..5,
    ) {
        let cfg = SketchMlConfig { seed, ..SketchMlConfig::default() };
        let inner = SketchMlCompressor::new(cfg).unwrap();
        let engine = ShardedCompressor::new(inner, shards)
            .unwrap()
            .with_threads(threads)
            .unwrap();

        // Reference: compress every shard serially, decode each, stitch.
        let mut ref_keys = Vec::new();
        let mut ref_values = Vec::new();
        for msg in engine.compress_shards_serial(&grad).unwrap() {
            let part = engine.inner().decompress(&msg.payload).unwrap();
            prop_assert_eq!(part.dim(), grad.dim());
            ref_keys.extend_from_slice(part.keys());
            ref_values.extend_from_slice(part.values());
        }

        let decoded = engine.decompress(&engine.compress(&grad).unwrap().payload).unwrap();
        prop_assert_eq!(decoded.keys(), &ref_keys[..]);
        prop_assert_eq!(decoded.values(), &ref_values[..]);
        prop_assert_eq!(decoded.keys(), grad.keys(), "keys stay lossless through shards");
    }

    /// Sharding preserves §3.3 Solution 1: no decoded value ever flips sign,
    /// whatever the shard/thread configuration.
    #[test]
    fn sharded_sketchml_never_flips_signs(
        grad in arb_gradient(),
        seed in any::<u64>(),
        shards in 1usize..9,
        threads in 1usize..5,
    ) {
        let cfg = SketchMlConfig { seed, ..SketchMlConfig::default() };
        let engine = ShardedCompressor::new(SketchMlCompressor::new(cfg).unwrap(), shards)
            .unwrap()
            .with_threads(threads)
            .unwrap();
        let stats = roundtrip_error(&engine, &grad).unwrap();
        prop_assert_eq!(stats.sign_flips, 0usize, "sharded SketchML flipped a sign");
        prop_assert_eq!(stats.pairs_out, grad.nnz());
    }

    /// A scratch carries capacity, never meaning: one scratch, output buffer
    /// and output gradient carried across every compressor in turn (so
    /// whatever the previous codec left in the pooled buffers is what the
    /// next one starts from) yield exactly the bytes, the report and the
    /// decoded gradient that a fresh scratch (`compress` / `decompress`)
    /// yields.
    #[test]
    fn compress_into_matches_compress_bytes(
        grad in arb_gradient(),
        prior in arb_gradient(),
        seed in any::<u64>(),
        shards in 1usize..6,
        threads in 1usize..4,
    ) {
        let cfg = SketchMlConfig { seed, ..SketchMlConfig::default() };
        let compressors: Vec<Box<dyn GradientCompressor>> = vec![
            Box::new(SketchMlCompressor::new(cfg).unwrap()),
            Box::new(QuantCompressor::default()),
            Box::new(ZipMlCompressor::paper_default()),
            Box::new(
                ShardedCompressor::new(SketchMlCompressor::new(cfg).unwrap(), shards)
                    .unwrap()
                    .with_threads(threads)
                    .unwrap(),
            ),
            Box::new(KeyCompressor),
            Box::new(FastSgdCompressor::default()),
            Box::new(FastSgdCompressor::new(8).unwrap()),
            Box::new(RawCompressor::default()),
            Box::new(TruncationCompressor::default()),
            Box::new(SketchMlCompressor::new(cfg).unwrap()),
        ];
        let mut scratch = CompressScratch::new();
        let mut out = BytesMut::new();
        let mut decoded = SparseGradient::empty(0);
        for (i, c) in compressors.iter().enumerate() {
            // Warm the pool on a gradient of another size first, through the
            // previous compressor, so both encode and decode state is stale.
            let warm = &compressors[i.saturating_sub(1)];
            warm.compress_into(&prior, &mut scratch, &mut out).unwrap();
            warm.decompress_into(&out, &mut scratch, &mut decoded).unwrap();

            let fresh = c.compress(&grad).unwrap();
            let report = c.compress_into(&grad, &mut scratch, &mut out).unwrap();
            prop_assert_eq!(&out[..], &fresh.payload[..], "{} bytes differ", c.name());
            prop_assert_eq!(report, fresh.report, "{} report differs", c.name());
            c.decompress_into(&out, &mut scratch, &mut decoded).unwrap();
            let reference = c.decompress(&fresh.payload).unwrap();
            prop_assert_eq!(&decoded, &reference, "{} warm decode differs", c.name());
        }
    }

    /// `decompress_into` with pooled scratch round-trips: keys lossless and
    /// zero sign flips, with the output gradient reused across calls.
    #[test]
    fn decompress_into_roundtrips_without_sign_flips(
        grad in arb_gradient(),
        seed in any::<u64>(),
        shards in 1usize..6,
    ) {
        let cfg = SketchMlConfig { seed, ..SketchMlConfig::default() };
        let compressors: Vec<Box<dyn GradientCompressor>> = vec![
            Box::new(SketchMlCompressor::new(cfg).unwrap()),
            Box::new(ZipMlCompressor::paper_default()),
            Box::new(ShardedCompressor::new(SketchMlCompressor::new(cfg).unwrap(), shards).unwrap()),
        ];
        let mut scratch = CompressScratch::new();
        let mut wire = BytesMut::new();
        let mut decoded = SparseGradient::empty(0);
        for c in &compressors {
            c.compress_into(&grad, &mut scratch, &mut wire).unwrap();
            c.decompress_into(&wire, &mut scratch, &mut decoded).unwrap();
            prop_assert_eq!(decoded.keys(), grad.keys(), "{} keys not lossless", c.name());
            // §3.3 Solution 1 is a SketchML guarantee; ZipML's nearest-level
            // rounding may legitimately cross zero.
            if !c.name().starts_with("ZipML") {
                for ((_, o), (_, d)) in grad.iter().zip(decoded.iter()) {
                    prop_assert!(
                        o.signum() == d.signum() || d == 0.0,
                        "{} flipped sign {} -> {}", c.name(), o, d
                    );
                }
            }
        }
    }

    /// No compressor panics on arbitrary garbage input.
    #[test]
    fn decoders_never_panic_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..400)) {
        let compressors: Vec<Box<dyn GradientCompressor>> = vec![
            Box::new(SketchMlCompressor::default()),
            Box::new(QuantCompressor::default()),
            Box::new(KeyCompressor),
            Box::new(RawCompressor::default()),
            Box::new(ZipMlCompressor::paper_default()),
            Box::new(TruncationCompressor::default()),
        ];
        for c in &compressors {
            let _ = c.decompress(&data);
        }
    }
}
