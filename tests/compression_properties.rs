//! Cross-crate property tests of the compression stack, driven through the
//! facade crate: losslessness of keys, §3.3 safety, failure injection.

use proptest::collection::btree_map;
use proptest::prelude::*;
use sketchml::core::registry::KNOWN_COMPRESSORS;
use sketchml::core::FrameVersion;
use sketchml::{
    compressor_by_name, CompressError, GradientCompressor, QuantCompressor, RawCompressor,
    ShardedCompressor, SketchMlCompressor, SparseGradient, ZipMlCompressor,
};

fn arb_gradient() -> impl Strategy<Value = SparseGradient> {
    btree_map(0u64..2_000_000, -1.0f64..1.0, 1..400).prop_map(|m| {
        let keys: Vec<u64> = m.keys().copied().collect();
        let values: Vec<f64> = m
            .values()
            .map(|&v| if v == 0.0 { 1e-9 } else { v })
            .collect();
        SparseGradient::new(2_000_000, keys, values).expect("ascending keys")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The paper's correctness contract, end to end through the facade.
    #[test]
    fn facade_sketchml_contract(grad in arb_gradient()) {
        let c = SketchMlCompressor::default();
        let msg = c.compress(&grad).expect("compress");
        let out = c.decompress(&msg.payload).expect("decompress");
        prop_assert_eq!(out.keys(), grad.keys());
        prop_assert_eq!(out.dim(), grad.dim());
        let max_mag = grad.values().iter().fold(0f64, |a, v| a.max(v.abs()));
        for ((_, i), (_, o)) in grad.iter().zip(out.iter()) {
            prop_assert!(i.signum() == o.signum() || o == 0.0);
            prop_assert!(o.abs() <= max_mag + 1e-12);
        }
    }

    /// Messages from one compressor are rejected (not mis-decoded) by the
    /// others — the magic bytes keep wire formats apart.
    #[test]
    fn wire_formats_are_distinguishable(grad in arb_gradient()) {
        let sk = SketchMlCompressor::default();
        let quan = QuantCompressor::default();
        let raw = RawCompressor::default();
        let zip = ZipMlCompressor::paper_default();
        let msg = sk.compress(&grad).expect("compress");
        prop_assert!(quan.decompress(&msg.payload).is_err());
        prop_assert!(raw.decompress(&msg.payload).is_err());
        prop_assert!(zip.decompress(&msg.payload).is_err());
    }

    /// Bit-flip fault injection: a corrupted SketchML message must never
    /// panic and must never decode to a *different key set silently* with a
    /// valid structure claiming the same nnz... (decoding may fail, or
    /// succeed with decayed values — but any success keeps keys within the
    /// declared dimension and values finite).
    #[test]
    fn corrupted_messages_fail_safely(
        grad in arb_gradient(),
        flip_at in any::<prop::sample::Index>(),
        flip_mask in 1u8..=255,
    ) {
        let c = SketchMlCompressor::default();
        let msg = c.compress(&grad).expect("compress");
        let mut bytes = msg.payload.to_vec();
        let i = flip_at.index(bytes.len());
        bytes[i] ^= flip_mask;
        if let Ok(decoded) = c.decompress(&bytes) {
            for (k, v) in decoded.iter() {
                prop_assert!(k < decoded.dim());
                prop_assert!(v.is_finite());
            }
        }
    }

    /// Truncating a multi-shard frame at *any* byte boundary yields
    /// [`CompressError::Corrupt`] — never a panic, never a silent partial
    /// decode. The frame header declares every shard length, so a short
    /// buffer is always detectable.
    #[test]
    fn truncated_shard_frames_are_corrupt(
        grad in arb_gradient(),
        shards in 2usize..9,
        cut_at in any::<prop::sample::Index>(),
    ) {
        let engine = ShardedCompressor::new(SketchMlCompressor::default(), shards)
            .expect("shard count in range");
        let payload = engine.compress(&grad).expect("compress").payload;
        let cut = cut_at.index(payload.len()); // 0..len, always a strict prefix
        match engine.decompress(&payload[..cut]) {
            Err(CompressError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "expected Corrupt, got {other:?}"),
            Ok(_) => prop_assert!(false, "truncated frame at {cut} decoded successfully"),
        }
        // Trailing garbage is rejected too: the header accounts for every byte.
        let mut extended = payload.to_vec();
        extended.push(0xA5);
        prop_assert!(matches!(
            engine.decompress(&extended),
            Err(CompressError::Corrupt(_))
        ));
    }

    /// Bit-flip fault injection on multi-shard frames: decoding either fails
    /// with a structured error or succeeds with in-range finite values —
    /// it never panics and never leaks an inner-compressor panic across the
    /// worker threads.
    #[test]
    fn bitflipped_shard_frames_fail_safely(
        grad in arb_gradient(),
        shards in 2usize..9,
        threads in 1usize..5,
        flip_at in any::<prop::sample::Index>(),
        flip_mask in 1u8..=255,
    ) {
        let engine = ShardedCompressor::new(SketchMlCompressor::default(), shards)
            .expect("shard count in range")
            .with_threads(threads)
            .expect("thread count in range");
        let mut bytes = engine.compress(&grad).expect("compress").payload.to_vec();
        let i = flip_at.index(bytes.len());
        bytes[i] ^= flip_mask;
        match engine.decompress(&bytes) {
            Err(CompressError::Corrupt(_)) => {}
            Err(other) => prop_assert!(false, "expected Corrupt, got {other:?}"),
            Ok(decoded) => {
                for (k, v) in decoded.iter() {
                    prop_assert!(k < decoded.dim());
                    prop_assert!(v.is_finite());
                }
            }
        }
    }

    /// Aggregating per-worker decompressed gradients equals decompressing
    /// and aggregating — the driver path is linear.
    #[test]
    fn aggregation_is_linear(a in arb_gradient(), b in arb_gradient()) {
        let raw = RawCompressor::default();
        let da = raw.decompress(&raw.compress(&a).expect("a").payload).expect("da");
        let db = raw.decompress(&raw.compress(&b).expect("b").payload).expect("db");
        let sum = SparseGradient::aggregate(&[da, db]).expect("sum");
        let direct = SparseGradient::aggregate(&[a, b]).expect("direct");
        prop_assert_eq!(sum, direct);
    }
}

proptest! {
    // Every registered compressor goes through the corruption gauntlet; each
    // case runs the whole registry, so fewer cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Truncation is detected for **every** registered compressor: a strict
    /// prefix of any wire message decodes to `Err`, never a panic and never
    /// a silent partial gradient.
    #[test]
    fn truncation_is_an_error_for_every_registered_compressor(
        grad in arb_gradient(),
        cut_at in any::<prop::sample::Index>(),
    ) {
        for &name in KNOWN_COMPRESSORS {
            let c = compressor_by_name(name).expect(name);
            let payload = c.compress(&grad).expect(name).payload;
            if payload.len() < 2 {
                continue;
            }
            let cut = cut_at.index(payload.len() - 1) + 1; // 1..len strict prefix
            prop_assert!(
                c.decompress(&payload[..cut]).is_err(),
                "{name}: truncation at {cut}/{} decoded successfully",
                payload.len()
            );
        }
    }

    /// Bit flips never panic any registered compressor, and any successful
    /// decode stays structurally sane (keys inside the declared dimension).
    #[test]
    fn bitflips_fail_safely_for_every_registered_compressor(
        grad in arb_gradient(),
        flip_at in any::<prop::sample::Index>(),
        flip_mask in 1u8..=255,
    ) {
        for &name in KNOWN_COMPRESSORS {
            let c = compressor_by_name(name).expect(name);
            let mut bytes = c.compress(&grad).expect(name).payload.to_vec();
            let i = flip_at.index(bytes.len());
            bytes[i] ^= flip_mask;
            if let Ok(decoded) = c.decompress(&bytes) {
                for (k, _) in decoded.iter() {
                    prop_assert!(k < decoded.dim(), "{name}: key {k} escaped dim");
                }
            }
        }
    }

    /// The v2 checksummed frame *detects* every injected single-byte
    /// corruption, for every registered compressor: the CRC32 covers each
    /// shard payload and the header is fully length-accounted, so any flip
    /// surfaces as [`CompressError::Corrupt`].
    #[test]
    fn v2_frames_detect_every_bitflip_for_every_registered_compressor(
        grad in arb_gradient(),
        shards in 1usize..5,
        flip_at in any::<prop::sample::Index>(),
        flip_mask in 1u8..=255,
    ) {
        for &name in KNOWN_COMPRESSORS {
            if name.contains('@') {
                continue; // already framed; the bare engines below cover v2
            }
            let inner = compressor_by_name(name).expect(name);
            let engine = ShardedCompressor::new(inner, shards)
                .expect("shard count in range")
                .with_frame(FrameVersion::V2);
            let mut bytes = engine.compress(&grad).expect(name).payload.to_vec();
            let i = flip_at.index(bytes.len());
            bytes[i] ^= flip_mask;
            match engine.decompress(&bytes) {
                Err(CompressError::Corrupt(_)) => {}
                Err(other) => prop_assert!(false, "{name}: expected Corrupt, got {other:?}"),
                Ok(_) => prop_assert!(
                    false,
                    "{name}: v2 frame decoded a corrupted byte at {i} silently"
                ),
            }
        }
    }
}

/// The v1 frame documents the silent-failure baseline the v2 CRC closes:
/// flipping value bytes in a v1-framed raw message can decode `Ok` with a
/// *different* gradient, while the identical corruption campaign against the
/// v2 frame is rejected every single time.
#[test]
fn v1_silently_corrupts_where_v2_detects() {
    let grad = SparseGradient::new(
        10_000,
        (0..100u64).map(|i| i * 97).collect(),
        (0..100).map(|i| 0.25 + i as f64 * 1e-3).collect(),
    )
    .expect("well-formed gradient");

    let v1 = ShardedCompressor::new(RawCompressor::default(), 2).expect("shards");
    let v2 = ShardedCompressor::new(RawCompressor::default(), 2)
        .expect("shards")
        .with_frame(FrameVersion::V2);

    let p1 = v1.compress(&grad).expect("v1").payload.to_vec();
    let p2 = v2.compress(&grad).expect("v2").payload.to_vec();
    let reference = v1.decompress(&p1).expect("clean v1 decodes");

    let mut silent = 0usize;
    for i in 0..p1.len() {
        let mut bytes = p1.clone();
        bytes[i] ^= 0x10; // middle-of-byte flip: hits f64 mantissas
        if let Ok(decoded) = v1.decompress(&bytes) {
            if decoded != reference {
                silent += 1;
            }
        }
    }
    assert!(
        silent > 0,
        "expected at least one silent v1 corruption in {} positions",
        p1.len()
    );

    for i in 0..p2.len() {
        let mut bytes = p2.clone();
        bytes[i] ^= 0x10;
        assert!(
            matches!(v2.decompress(&bytes), Err(CompressError::Corrupt(_))),
            "v2 let a flipped byte at {i} through"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// [`MinMaxSketch::merge`] of k partial sketches is *bin-wise identical*
    /// to inserting every item into a single sketch: min is commutative,
    /// associative and idempotent, with the empty sentinel as its identity.
    /// Queries against the merged sketch therefore keep the §3.3
    /// underestimate-only contract across the whole item set.
    #[test]
    fn minmax_merge_is_binwise_equal_to_single_sketch_insertion(
        rows in 1usize..4,
        cols in 8usize..96,
        seed in any::<u64>(),
        k in 2usize..5,
        items in proptest::collection::vec((any::<u64>(), 0u16..1_000), 1..300),
    ) {
        use sketchml::sketches::MinMaxSketch;

        let mut reference = MinMaxSketch::new(rows, cols, seed).expect("shape");
        for &(key, index) in &items {
            reference.insert(key, index);
        }

        let mut parts: Vec<MinMaxSketch> = (0..k)
            .map(|_| MinMaxSketch::new(rows, cols, seed).expect("shape"))
            .collect();
        for (i, &(key, index)) in items.iter().enumerate() {
            parts[i % k].insert(key, index);
        }
        let (merged, rest) = parts.split_first_mut().expect("k >= 2");
        for part in rest {
            merged.merge(part).expect("identical layout");
        }

        prop_assert_eq!(merged.cells(), reference.cells());
        prop_assert_eq!(merged.inserted(), reference.inserted());

        // Underestimate-only, per key: the merged query never exceeds the
        // smallest index inserted for that key anywhere.
        let mut min_index = std::collections::BTreeMap::new();
        for &(key, index) in &items {
            let e = min_index.entry(key).or_insert(index);
            if index < *e {
                *e = index;
            }
        }
        for (&key, &floor) in &min_index {
            let got = merged.query(key);
            prop_assert_eq!(got, reference.query(key));
            let got = got.expect("inserted keys always resolve");
            prop_assert!(got <= floor, "key {}: query {} > min inserted {}", key, got, floor);
        }
    }

    /// Merging compressed payloads and re-encoding the aggregate — the
    /// resketch hop a collective performs — never flips a gradient sign
    /// when the contributions agree on it: positive scalings of one payload
    /// accumulate to same-sign sums, and the SketchML re-encode preserves
    /// every sign (§3.3) while decoding the exact key set.
    #[test]
    fn merged_payload_redecode_never_flips_a_sign(
        grad in arb_gradient(),
        scales in proptest::collection::vec(0.1f64..2.0, 2..5),
    ) {
        use sketchml::core::{CompressScratch, MergeAcc};
        use sketchml::MergeableCompressor;

        let c = SketchMlCompressor::default();
        let payload = c.compress(&grad).expect("compress").payload;

        let mut acc = MergeAcc::new();
        acc.reset(grad.dim());
        let mut scratch = CompressScratch::new();
        for &scale in &scales {
            c.accumulate(&mut acc, &payload, scale, &mut scratch)
                .expect("merge hop accepts its own wire format");
        }

        // Keys survive the merge except where a decode landed on an exact
        // zero (allowed by the §3.3 contract: decay toward zero is fine).
        let merged = acc.to_gradient().expect("finite sums");
        let originals: std::collections::BTreeMap<u64, f64> =
            grad.iter().collect();
        for (k, _) in merged.iter() {
            prop_assert!(originals.contains_key(&k), "merge invented key {}", k);
        }
        prop_assume!(merged.nnz() > 0); // compressors reject empty gradients
        let rehop = c
            .decompress(&c.compress(&merged).expect("re-encode").payload)
            .expect("re-decode");
        prop_assert_eq!(rehop.keys(), merged.keys(), "re-encode is keys-lossless");
        for (k, out) in rehop.iter() {
            let orig = originals[&k];
            prop_assert!(
                orig.signum() == out.signum() || out == 0.0,
                "sign flip at key {}: contribution {} re-decoded as {}",
                k,
                orig,
                out
            );
        }
    }
}

/// Gradients whose values are dyadic rationals (multiples of 1/256 in a
/// bounded range): every f64 addition of any number of them is exact, so
/// Count-Sketch cell sums are bit-reproducible under any merge order.
fn arb_dyadic_gradient() -> impl Strategy<Value = SparseGradient> {
    btree_map(0u64..100_000, -512i32..512, 1..200).prop_map(|m| {
        let keys: Vec<u64> = m.keys().copied().collect();
        let values: Vec<f64> = m
            .values()
            .map(|&v| {
                if v == 0 {
                    1.0 / 256.0
                } else {
                    f64::from(v) / 256.0
                }
            })
            .collect();
        SparseGradient::new(100_000, keys, values).expect("ascending keys")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Count-Sketch payloads are *linear*: folding `sketch(a)` and
    /// `sketch(b)` element-wise and extracting once decodes bit-identically
    /// to compressing the summed gradient directly — the property the
    /// `MergePolicy::Linear` collective rests on.
    #[test]
    fn count_sketch_payloads_merge_linearly(
        a in arb_dyadic_gradient(),
        b in arb_dyadic_gradient(),
    ) {
        use sketchml::core::{CompressScratch, MergeAcc, MergePolicy};
        use sketchml::{CountSketchCompressor, CountSketchConfig, MergeableCompressor};

        let c = CountSketchCompressor::new(CountSketchConfig::default()).expect("config");
        let pa = c.compress(&a).expect("a").payload;
        let pb = c.compress(&b).expect("b").payload;

        let mut acc = MergeAcc::new();
        acc.reset(a.dim());
        let mut scratch = CompressScratch::new();
        c.accumulate_hop(&mut acc, &pa, 1.0, MergePolicy::Linear, &mut scratch)
            .expect("fold a");
        c.accumulate_hop(&mut acc, &pb, 1.0, MergePolicy::Linear, &mut scratch)
            .expect("fold b");
        let merged = c.finish(&acc).expect("extract");

        let sum = SparseGradient::aggregate(&[a, b]).expect("sum");
        let direct = c
            .decompress(&c.compress(&sum).expect("compress sum").payload)
            .expect("decode sum");
        prop_assert_eq!(merged.keys(), direct.keys());
        prop_assert_eq!(merged.values(), direct.values());
    }

    /// The sharded Count-Sketch engine is thread-count invariant: the
    /// `countsketch:...@N` frame bytes do not depend on how many worker
    /// threads encoded the shards.
    #[test]
    fn sharded_count_sketch_payloads_are_thread_invariant(
        grad in arb_dyadic_gradient(),
        shards in 2usize..6,
    ) {
        use sketchml::{CountSketchCompressor, CountSketchConfig};

        let engine = |threads: usize| {
            ShardedCompressor::new(
                CountSketchCompressor::new(CountSketchConfig::default()).expect("config"),
                shards,
            )
            .expect("shard count")
            .with_threads(threads)
            .expect("thread count")
        };
        let serial = engine(1).compress(&grad).expect("serial").payload;
        for threads in [2usize, 4] {
            let parallel = engine(threads).compress(&grad).expect("parallel").payload;
            prop_assert_eq!(&serial[..], &parallel[..], "threads = {}", threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Error feedback over the sharded engine is thread-count invariant:
    /// `ErrorFeedback<Sharded(sketchml @ 4 shards, 4 threads)>` must produce
    /// the same payload bytes *and* the same residual map, round after
    /// round, as the serial (1-thread) wrapper — the serial side on a fresh
    /// scratch every round, the threaded side on one scratch kept across
    /// rounds.
    #[test]
    fn error_feedback_over_sharded_is_thread_invariant(
        grad in arb_gradient(),
        rounds in 1usize..4,
    ) {
        use bytes::BytesMut;
        use sketchml::core::CompressScratch;
        use sketchml::ErrorFeedback;

        let serial = ErrorFeedback::new(
            ShardedCompressor::new(SketchMlCompressor::default(), 4).expect("4 shards"),
        );
        let threaded = ErrorFeedback::new(
            ShardedCompressor::new(SketchMlCompressor::default(), 4)
                .expect("4 shards")
                .with_threads(4)
                .expect("4 threads"),
        );
        let mut scratch = CompressScratch::new();
        let mut out = BytesMut::new();
        for _ in 0..rounds {
            let a = serial.compress(&grad).expect("serial EF").payload;
            threaded
                .compress_into(&grad, &mut scratch, &mut out)
                .expect("threaded EF scratch path");
            prop_assert_eq!(&a[..], &out[..]);
            prop_assert_eq!(serial.residual_entries(), threaded.residual_entries());
        }
    }
}
