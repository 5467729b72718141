//! Golden wire-format fixtures.
//!
//! Each fixture under `tests/fixtures/` is the hex dump of one compressed
//! payload produced from a *canonical* input (fixed seed, fixed config).
//! The tests decode the stored bytes and then re-encode the canonical input,
//! asserting the result is **byte-for-byte identical** to the fixture. Any
//! accidental change to a wire format — varint framing, byte flags, sketch
//! serialisation, shard headers — fails these tests instead of silently
//! breaking cross-version compatibility.
//!
//! To bless an *intentional* format change, regenerate the fixtures with
//! `REGEN_FIXTURES=1 cargo test --test wire_format` and review the diff.

mod common;

use bytes::BytesMut;
use common::LaneGuard;
use rand::prelude::*;
use rand::rngs::StdRng;
use sketchml::ml::MlError;
use sketchml::{
    AdamConfig, Checkpoint, GlmLoss, GlmModel, OptStateMode, OptimizerKind, OptimizerState,
};
use sketchml_core::{
    CompressError, CompressScratch, CountSketchCompressor, CountSketchConfig, ErrorFeedback,
    FastSgdCompressor, FrameVersion, GradientCompressor, QuantCompressor, ShardedCompressor,
    SketchMlCompressor, SketchMlConfig, SparseGradient, ZipMlCompressor,
};
use sketchml_encoding::delta_binary::{decode_keys_into, encode_keys_into};
use std::path::PathBuf;

const DIM: u64 = 4096;
const NNZ: usize = 256;
const SEED: u64 = 0x90_1D_F1;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn from_hex(hex: &str) -> Vec<u8> {
    let hex: String = hex.chars().filter(|c| !c.is_whitespace()).collect();
    assert!(
        hex.len().is_multiple_of(2),
        "hex fixture must have even length"
    );
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("valid hex digit pair"))
        .collect()
}

/// Loads a fixture, or (re)writes it when `REGEN_FIXTURES` is set.
///
/// Returns the fixture bytes. Panics when the fixture is missing and
/// regeneration was not requested, so CI never silently self-blesses.
fn load_or_regen(name: &str, current: &[u8]) -> Vec<u8> {
    let path = fixture_path(name);
    if std::env::var_os("REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixtures dir");
        std::fs::write(&path, format!("{}\n", to_hex(current))).expect("write fixture");
        return current.to_vec();
    }
    read_fixture(name)
}

/// Loads a fixture that no encoder writes any more: decode-only, never
/// regenerated.
fn read_fixture(name: &str) -> Vec<u8> {
    let path = fixture_path(name);
    let hex = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run REGEN_FIXTURES=1 cargo test --test wire_format",
            path.display()
        )
    });
    from_hex(&hex)
}

/// The canonical gradient every compressor fixture is built from: strictly
/// ascending keys with mixed 1/2-byte deltas and zero-mean values.
fn canonical_gradient() -> SparseGradient {
    canonical_gradient_for(SEED)
}

/// [`canonical_gradient`] with an explicit seed: the collective fixtures
/// build one gradient per worker from derived seeds.
fn canonical_gradient_for(seed: u64) -> SparseGradient {
    gradient_of(seed, NNZ, DIM)
}

/// The canonical recipe at 2,048 pairs: enough for `sketchml` to ship
/// ⌊2048/64⌋ = 32 of them exact.
fn wide_gradient() -> SparseGradient {
    gradient_of(SEED, 2048, 1 << 16)
}

fn gradient_of(seed: u64, nnz: usize, dim: u64) -> SparseGradient {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = Vec::with_capacity(nnz);
    let mut next = 0u64;
    for _ in 0..nnz {
        next += rng.gen_range(1..=31);
        keys.push(next.min(dim - 1));
    }
    keys.dedup();
    let values: Vec<f64> = keys.iter().map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
    SparseGradient::new(dim, keys, values).expect("canonical gradient is valid")
}

/// A scratch that has already served other codecs, sizes and shapes: a
/// wider sharded frame, the quantile/Count-Sketch/FastSGD pipelines, an
/// empty gradient and a negatives-only one. A scratch carries capacity,
/// never meaning, so the golden bytes must come out of this one exactly as
/// they come out of a fresh one.
fn used_scratch() -> CompressScratch {
    let mut scratch = CompressScratch::new();
    let mut out = BytesMut::new();
    let mut decoded = SparseGradient::empty(0);
    let other = canonical_gradient_for(SEED ^ 0xD1_27);
    let negatives = SparseGradient::new(DIM, vec![1, 2, 900], vec![-0.5, -0.25, -2.0])
        .expect("valid negatives-only gradient");
    let empty = SparseGradient::empty(DIM);
    let codecs: Vec<Box<dyn GradientCompressor>> = vec![
        Box::new(ShardedCompressor::new(SketchMlCompressor::default(), 7).expect("7 shards")),
        Box::new(QuantCompressor::default()),
        Box::new(CountSketchCompressor::new(CountSketchConfig::default()).expect("default")),
        Box::new(FastSgdCompressor::default()),
        Box::new(SketchMlCompressor::default()),
    ];
    for codec in &codecs {
        for grad in [&other, &empty, &negatives] {
            codec
                .compress_into(grad, &mut scratch, &mut out)
                .expect("warm-up encode");
            codec
                .decompress_into(&out, &mut scratch, &mut decoded)
                .expect("warm-up decode");
        }
    }
    scratch
}

/// [`assert_golden_bytes`] with the lanes the CPU has and again pinned to
/// the scalar bodies, so both paths are held to the committed bytes directly
/// (not only to each other, as `simd_scalar_equivalence.rs` holds them).
fn assert_golden(name: &str, compressor: &dyn GradientCompressor) {
    assert_golden_of(name, compressor, &canonical_gradient());
}

/// [`assert_golden`] of another input.
fn assert_golden_of(name: &str, compressor: &dyn GradientCompressor, grad: &SparseGradient) {
    let _guard = LaneGuard::acquire();
    assert_golden_bytes(name, compressor, grad);
    sketchml_core::simd::force_scalar(true);
    assert_golden_bytes(name, compressor, grad);
}

/// Encode → compare against golden bytes → decode golden bytes, once on a
/// fresh scratch (`compress` / `decompress`) and once on a used one.
fn assert_golden_bytes(name: &str, compressor: &dyn GradientCompressor, grad: &SparseGradient) {
    let encoded = compressor.compress(grad).expect("compress").payload;
    let golden = load_or_regen(name, &encoded);
    assert_eq!(
        to_hex(&golden),
        to_hex(&encoded),
        "{name}: re-encoding the canonical gradient changed the wire format"
    );
    let mut scratch = used_scratch();
    let mut out = BytesMut::new();
    compressor
        .compress_into(grad, &mut scratch, &mut out)
        .expect("compress_into");
    assert_eq!(
        to_hex(&golden),
        to_hex(&out),
        "{name}: a used scratch leaked state into the wire bytes"
    );
    // The stored bytes must still decode.
    let from_golden = compressor.decompress(&golden).expect("decode fixture");
    assert_eq!(from_golden.dim(), grad.dim());
    assert_eq!(
        from_golden.keys(),
        grad.keys(),
        "{name}: key compression is lossless, keys must survive exactly"
    );
    let mut pooled = SparseGradient::empty(0);
    compressor
        .decompress_into(&golden, &mut scratch, &mut pooled)
        .expect("decompress_into fixture");
    assert_eq!(
        &pooled, &from_golden,
        "{name}: a used scratch leaked state into the decoded gradient"
    );
}

/// The codec before its frame shipped one sketch row: two rows of d/5
/// columns, and the ⌊n/512⌋ largest |v| exact.
fn two_row_codec() -> SketchMlCompressor {
    SketchMlCompressor::new(SketchMlConfig {
        rows: 2,
        ..SketchMlConfig::default()
    })
    .expect("two rows are valid")
}

/// The indexes of `grad`'s `k` largest |v|.
fn largest(grad: &SparseGradient, k: usize) -> Vec<usize> {
    let mut by_size: Vec<usize> = (0..grad.nnz()).collect();
    by_size.sort_by(|&a, &b| grad.values()[b].abs().total_cmp(&grad.values()[a].abs()));
    by_size.truncate(k);
    by_size
}

/// Every one of `exact` decodes to its value bit for bit.
fn assert_exact(grad: &SparseGradient, decoded: &SparseGradient, exact: &[usize]) {
    for &i in exact {
        assert_eq!(
            decoded.values()[i].to_bits(),
            grad.values()[i].to_bits(),
            "key {} is one of the largest |v| and ships exact",
            grad.keys()[i]
        );
    }
}

/// The shipped v2 frame: one sketch row, and the 32 pairs of largest |v| of
/// the 2,048 come back bit for bit.
#[test]
fn sketchml_payload_matches_golden_fixture() {
    let codec = SketchMlCompressor::default();
    let grad = wide_gradient();
    assert_golden_of("sketchml_v2_1row_seed901df1.hex", &codec, &grad);
    let golden = read_fixture("sketchml_v2_1row_seed901df1.hex");
    assert_eq!(golden[1], 2, "frame version");
    let decoded = codec.decompress(&golden).expect("decode fixture");
    assert_exact(&grad, &decoded, &largest(&grad, grad.nnz() / 64));
}

/// The two-row v2 frame written before the codec moved to one row and
/// ⌊n/64⌋ exact pairs still decodes: the rows are in its header. The
/// committed bytes are read, never rewritten; they are still what the
/// two-row codec writes at ⌊n/512⌋, they decode to the same bits on a fresh
/// scratch and on a used one, and their 4 exact pairs come back bit for
/// bit.
#[test]
fn sketchml_two_row_v2_fixture_decodes_unchanged() {
    let codec = SketchMlCompressor::default();
    let grad = wide_gradient();
    let golden = read_fixture("sketchml_v2_seed901df1.hex");
    let mut written = BytesMut::new();
    two_row_codec()
        .compress_exact_into(
            &grad,
            grad.nnz() / 512,
            &mut CompressScratch::new(),
            &mut written,
        )
        .expect("compress");
    assert_eq!(
        to_hex(&golden),
        to_hex(&written),
        "the fixture is the two-row frame"
    );

    let want = codec
        .decompress(&golden)
        .expect("decode on a fresh scratch");
    assert_eq!(want.keys(), grad.keys());
    assert_exact(&grad, &want, &largest(&grad, grad.nnz() / 512));
    let mut pooled = SparseGradient::empty(0);
    codec
        .decompress_into(&golden, &mut used_scratch(), &mut pooled)
        .expect("decode on a used scratch");
    let bits = |g: &SparseGradient| g.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(pooled.keys(), want.keys());
    assert_eq!(bits(&pooled), bits(&want));
}

/// The frame before the exact section (version 1) still decodes, through
/// the same decoder, to the gradient it always did: a v1 frame is the v2
/// frame of zero exact pairs, written with the config of its time (two
/// sketch rows), without its exact-pair count, and both decode to the same
/// bits. The committed bytes are read, never rewritten.
#[test]
fn sketchml_v1_fixture_decodes_unchanged() {
    use sketchml::encoding::varint::write_u64;
    let codec = SketchMlCompressor::default();
    let grad = canonical_gradient();
    let v1 = read_fixture("sketchml_seed901df1.hex");
    let mut v2 = BytesMut::new();
    two_row_codec()
        .compress_exact_into(&grad, 0, &mut CompressScratch::new(), &mut v2)
        .expect("compress");
    // The count of exact pairs (varint 0) sits after magic, version, seed
    // and the dim, nnz and rows varints.
    let mut header = Vec::new();
    for field in [grad.dim(), grad.nnz() as u64, 2] {
        write_u64(&mut header, field);
    }
    let at = 10 + header.len();
    assert_eq!((v2[1], v2[at]), (2, 0));
    let mut as_v1 = v2.to_vec();
    as_v1.remove(at);
    as_v1[1] = 1;
    assert_eq!(
        to_hex(&v1),
        to_hex(&as_v1),
        "the v1 fixture is the two-row k = 0 frame"
    );

    let want = codec.decompress(&v2).expect("decode v2");
    let mut scratch = used_scratch();
    let mut pooled = SparseGradient::empty(0);
    codec
        .decompress_into(&v1, &mut scratch, &mut pooled)
        .expect("decode v1 on a used scratch");
    for got in [codec.decompress(&v1).expect("decode v1"), pooled] {
        assert_eq!(got.keys(), grad.keys());
        assert_eq!(got.dim(), want.dim());
        let bits = |g: &SparseGradient| g.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }
}

#[test]
fn zipml_payload_matches_golden_fixture() {
    assert_golden("zipml_seed901df1.hex", &ZipMlCompressor::paper_default());
}

#[test]
fn sharded_frame_matches_golden_fixture() {
    let engine = ShardedCompressor::new(SketchMlCompressor::default(), 4).expect("4 shards");
    assert_golden("sketchml_sharded4_seed901df1.hex", &engine);
}

#[test]
fn sharded_v2_frame_matches_golden_fixture() {
    let engine = ShardedCompressor::new(SketchMlCompressor::default(), 4)
        .expect("4 shards")
        .with_frame(FrameVersion::V2);
    assert_golden("sketchml_sharded4_v2_seed901df1.hex", &engine);
}

#[test]
fn v2_fixture_rejects_corruption_and_stays_v1_compatible() {
    let grad = canonical_gradient();
    let v1 = ShardedCompressor::new(SketchMlCompressor::default(), 4).expect("4 shards");
    let v2 = ShardedCompressor::new(SketchMlCompressor::default(), 4)
        .expect("4 shards")
        .with_frame(FrameVersion::V2);

    // The v2 engine still decodes v1 frames (and vice versa): the frame
    // version is self-describing, so mixed-version clusters interoperate.
    let p1 = v1.compress(&grad).expect("v1").payload;
    let p2 = v2.compress(&grad).expect("v2").payload;
    assert_eq!(
        v2.decompress(&p1).expect("v2 engine reads v1 frame").keys(),
        grad.keys()
    );
    assert_eq!(
        v1.decompress(&p2).expect("v1 engine reads v2 frame").keys(),
        grad.keys()
    );
    // v2 costs exactly 2 + 4*S bytes over v1: sentinel + version byte, then
    // one CRC32 per shard.
    assert_eq!(p2.len(), p1.len() + 2 + 4 * 4);

    // Every single-byte corruption of the committed v2 fixture is rejected
    // with a typed error.
    let golden = load_or_regen("sketchml_sharded4_v2_seed901df1.hex", &p2);
    for i in 0..golden.len() {
        let mut corrupt = golden.clone();
        corrupt[i] ^= 0x40;
        assert!(
            matches!(v2.decompress(&corrupt), Err(CompressError::Corrupt(_))),
            "v2 fixture byte {i} corrupted silently"
        );
    }
}

/// Every structural guard of the decoders — including the ones that used
/// to live only in the deleted allocating decoders, such as SketchML's
/// declared-pairs-beyond-payload refusal — fires through the provided
/// `decompress` and through `decompress_into` on a used scratch. Each
/// payload is valid up to the field under test.
#[test]
fn every_decoder_guard_fires_through_decompress() {
    use sketchml::encoding::framing::{write_header, write_header_v2};
    use sketchml::encoding::{bitpack::pack_u16_into, crc32::crc32, varint::write_u64};
    use sketchml::{KeyCompressor, RawCompressor, TruncationCompressor};

    fn cat(parts: &[&[u8]]) -> Vec<u8> {
        parts.concat()
    }
    fn v(value: u64) -> Vec<u8> {
        let mut out = Vec::new();
        write_u64(&mut out, value);
        out
    }
    fn cells(values: &[u16], bits: u32) -> Vec<u8> {
        let mut out = BytesMut::new();
        pack_u16_into(values, bits, &mut out).expect("valid cells");
        out.to_vec()
    }
    fn keys(keys: &[u64]) -> Vec<u8> {
        let mut out = BytesMut::new();
        encode_keys_into(keys, &mut out).expect("valid keys");
        out.to_vec()
    }
    // SketchML header of version 1, which has no exact section: magic,
    // version, seed, dim = 1000, nnz, rows.
    fn skm(nnz: u64, rows: u64) -> Vec<u8> {
        cat(&[&[0xA7, 1], &[0; 8], &v(1000), &v(nnz), &v(rows)])
    }
    // One side up to and including the bit width: n pairs, q f64 means
    // (all 0.0), r groups of `cols` columns.
    fn side(n: u64, q: u64, r: u64, cols: u64, bits: u8) -> Vec<u8> {
        let means = vec![0u8; 8 * q as usize];
        cat(&[&v(n), &v(q), &[8], &means, &v(r), &v(cols), &[bits]])
    }
    let key7 = keys(&[7]);
    // A key section holding the single key 7, preceded by its count.
    let g = cat(&[&v(1), &key7]);
    let h = skm(1, 2);
    let mean = 0.5f64.to_le_bytes();
    let (one, zero, nan) = (
        1f64.to_le_bytes(),
        0f64.to_le_bytes(),
        f64::NAN.to_le_bytes(),
    );

    let raw = RawCompressor::default();
    let raw_of = |dim: u64, key: u64| {
        let grad = SparseGradient::new(dim, vec![key], vec![1.0]).expect("valid");
        raw.compress(&grad).expect("raw").payload.to_vec()
    };
    let frame = |shards: &[Vec<u8>]| {
        let lens: Vec<usize> = shards.iter().map(Vec::len).collect();
        let mut out = Vec::new();
        write_header(&mut out, &lens);
        cat(&[&out, &shards.concat()])
    };
    let shard = raw_of(10, 3);
    let mut bad_crc = Vec::new();
    write_header_v2(&mut bad_crc, &[shard.len()], &[crc32(&shard) ^ 1]);
    bad_crc.extend_from_slice(&shard);

    // What the merging decoder leans on: every key section is an ascending
    // run, and a key lives in one section. Frames that break it, by hand.
    let zeros = cells(&[0; 2], 8);
    let section = |ks: &[u64]| cat(&[&v(ks.len() as u64), &keys(ks), &zeros]);
    // Two keys with a zero delta between them (the encoder refuses to write
    // this): count 2, one flag byte of 1-byte widths, deltas 7 and 0.
    let repeated7 = cat(&[&v(2), &[2, 0b0000, 7, 0], &zeros]);
    let no_groups = vec![0u8; 1_000_000];

    let mut scratch = used_scratch();
    let mut pooled = SparseGradient::empty(0);
    let mut check = |codec: &dyn GradientCompressor, cases: &[(&str, Vec<u8>)]| {
        for (needle, payload) in cases {
            let fired = |r: &Result<(), CompressError>| match r {
                Err(CompressError::Corrupt(msg) | CompressError::InvalidGradient(msg)) => {
                    msg.contains(needle)
                }
                _ => false,
            };
            let fresh = codec.decompress(payload).map(drop);
            assert!(
                fired(&fresh),
                "{}: {needle}: decompress gave {fresh:?}",
                codec.name()
            );
            let used = codec.decompress_into(payload, &mut scratch, &mut pooled);
            assert!(
                fired(&used),
                "{}: {needle}: decompress_into gave {used:?}",
                codec.name()
            );
            if matches!(used, Err(CompressError::InvalidGradient(_))) {
                assert_eq!(
                    pooled.nnz(),
                    0,
                    "{needle}: a refused gradient is left empty"
                );
            }
        }
    };

    check(
        &SketchMlCompressor::default(),
        &[
            ("shorter than header", vec![0xA7, 1, 0]),
            ("bad SketchML magic", cat(&[&[0x00], &h[1..]])),
            ("unsupported SketchML version", cat(&[&[0xA7, 9], &h[2..]])),
            ("row count 0 out of range", skm(1, 0)),
            ("row count 65 out of range", skm(1, 65)),
            ("exceeds the", skm(1_000_000, 2)),
            ("bucket count 0 out of range", cat(&[&h, &v(1), &v(0)])),
            (
                "bucket count 65535 out of range",
                cat(&[&h, &v(1), &v(65_535)]),
            ),
            ("missing mean precision", cat(&[&h, &v(1), &v(1)])),
            ("bad mean precision 5", cat(&[&h, &v(1), &v(1), &[5]])),
            // The f32 means table is gone: its width byte is refused too,
            // as is the index the precision enum once had.
            (
                "bad mean precision 4",
                cat(&[&h, &v(1), &v(1), &[4], &[0; 4]]),
            ),
            (
                "bad mean precision 1",
                cat(&[&h, &v(1), &v(1), &[1], &mean]),
            ),
            (
                "truncated bucket means",
                cat(&[&h, &v(1), &v(2), &[8], &mean]),
            ),
            ("zero sketch shape", cat(&[&h, &side(1, 1, 0, 1, 8)])),
            ("zero sketch shape", cat(&[&h, &side(1, 1, 1, 0, 8)])),
            ("missing bit width", cat(&[&h, &side(1, 1, 1, 1, 8)[..13]])),
            ("bad bit width 0", cat(&[&h, &side(1, 1, 1, 1, 0)])),
            ("bad bit width 17", cat(&[&h, &side(1, 1, 1, 1, 17)])),
            (
                "group 0: declared 2 keys, decoded 1",
                cat(&[&h, &side(1, 1, 1, 1, 8), &v(2), &key7]),
            ),
            (
                "overflows",
                cat(&[&skm(1, 4), &side(1, 1, 1, 1 << 62, 8), &g]),
            ),
            (
                "sketch cell empty",
                cat(&[&h, &side(1, 1, 1, 1, 16), &g, &cells(&[u16::MAX; 2], 16)]),
            ),
            (
                "index 5 out of 1 buckets",
                cat(&[&h, &side(1, 1, 1, 1, 8), &g, &cells(&[5; 2], 8)]),
            ),
            (
                "side declared 2 pairs, decoded 1",
                cat(&[&skm(2, 2), &side(2, 1, 1, 1, 8), &g, &cells(&[0; 2], 8)]),
            ),
            (
                "declared 2 pairs, decoded 1",
                cat(&[
                    &skm(2, 2),
                    &side(1, 1, 1, 1, 8),
                    &g,
                    &cells(&[0; 2], 8),
                    &v(0),
                ]),
            ),
            (
                "side declared 1 pairs, decoded 2",
                cat(&[
                    &skm(2, 2),
                    &side(1, 1, 2, 1, 8),
                    &section(&[7]),
                    &section(&[9]),
                    &v(0),
                ]),
            ),
            // A million groups declared, every one empty: refused after one
            // pass over the payload (`tests/zero_alloc.rs` holds the same
            // frame to allocating less than the payload).
            (
                "side declared 1 pairs, decoded 0",
                cat(&[&h, &side(1, 1, 1_000_000, 1, 8), &no_groups, &v(0)]),
            ),
            // Key 7 in a positive and in a negative section.
            (
                "strictly ascending (position 1)",
                cat(&[
                    &skm(2, 2),
                    &side(1, 1, 1, 1, 8),
                    &section(&[7]),
                    &side(1, 1, 1, 1, 8),
                    &section(&[7]),
                ]),
            ),
            (
                "strictly ascending (position 1)",
                cat(&[&skm(2, 2), &side(2, 1, 1, 1, 8), &repeated7, &v(0)]),
            ),
            (
                "key 1000 at position 0 out of range for dimension 1000",
                cat(&[&h, &side(1, 1, 1, 1, 8), &section(&[1000]), &v(0)]),
            ),
            (
                "key 1000 at position 1 out of range for dimension 1000",
                cat(&[
                    &skm(2, 2),
                    &side(2, 1, 1, 1, 8),
                    &section(&[7, 1000]),
                    &v(0),
                ]),
            ),
        ],
    );
    // The same hand-built sections in an order the decoder accepts: the later
    // section holds the smaller key, an empty one sits between them, and the
    // other sign's only key falls between the two.
    let interleaved = cat(&[
        &skm(3, 2),
        &side(2, 1, 3, 1, 8),
        &section(&[9]),
        &v(0),
        &section(&[7]),
        &side(1, 1, 1, 1, 8),
        &section(&[8]),
    ]);
    let merged = SketchMlCompressor::default()
        .decompress(&interleaved)
        .expect("sections in any order merge");
    assert_eq!(merged.keys(), &[7, 8, 9]);

    // Version 2: the exact section sits between the header and the sides,
    // `count | delta-binary keys | count f64 values`. Its guards are all
    // `Corrupt`.
    fn skm2(nnz: u64) -> Vec<u8> {
        cat(&[&[0xA7, 2], &[0; 8], &v(1000), &v(nnz), &v(2)])
    }
    let exact = |ks: &[u64], values: &[f64]| {
        let values: Vec<u8> = values.iter().flat_map(|x| x.to_le_bytes()).collect();
        cat(&[&v(ks.len() as u64), &keys(ks), &values])
    };
    let no_sides = cat(&[&v(0), &v(0)]);
    let exact_cases = [
        (
            "exact section declares 1000000 pairs beyond the payload",
            cat(&[&skm2(1), &v(1_000_000), &[0; 64]]),
        ),
        (
            "exact section declared 2 keys, decoded 1",
            cat(&[&skm2(2), &v(2), &key7, &[0; 32]]),
        ),
        (
            "truncated exact values",
            cat(&[&skm2(1), &v(1), &key7, &[0; 6]]),
        ),
        (
            "exact key 1000 out of range for dimension 1000",
            cat(&[&skm2(1), &exact(&[1000], &[0.5]), &no_sides]),
        ),
        (
            "exact keys not strictly ascending (position 1)",
            cat(&[&skm2(2), &v(2), &[2, 0b0000, 7, 0], &[0; 16], &no_sides]),
        ),
        (
            "exact key 7 is also in a sketched section",
            cat(&[
                &skm2(2),
                &exact(&[7], &[0.5]),
                &side(1, 1, 1, 1, 8),
                &section(&[7]),
                &v(0),
            ]),
        ),
        (
            "non-finite exact value NaN at position 0",
            cat(&[&skm2(1), &exact(&[7], &[f64::NAN]), &no_sides]),
        ),
        (
            "declared 2 pairs, decoded 1",
            cat(&[&skm2(2), &exact(&[7], &[0.5]), &no_sides]),
        ),
    ];
    check(&SketchMlCompressor::default(), &exact_cases);
    for (needle, payload) in &exact_cases {
        let refused = SketchMlCompressor::default().decompress(payload);
        assert!(
            matches!(&refused, Err(CompressError::Corrupt(why)) if why.contains(needle)),
            "{needle}: {refused:?}"
        );
    }
    // Exact keys between, before and after sketched ones merge into place.
    let with_exact = cat(&[
        &skm2(5),
        &exact(&[2, 8, 40], &[-3.5, 2.5, 9.0]),
        &side(2, 1, 1, 1, 8),
        &section(&[7, 9]),
        &v(0),
    ]);
    let merged = SketchMlCompressor::default()
        .decompress(&with_exact)
        .expect("exact pairs merge with the runs");
    assert_eq!(merged.keys(), &[2, 7, 8, 9, 40]);
    assert_eq!(merged.values(), &[-3.5, 0.0, 2.5, 0.0, 9.0]);
    let q = cat(&[&[0xA5], &v(100), &g]);
    check(
        &QuantCompressor::default(),
        &[
            ("bad Adam+Key+Quan magic", vec![]),
            ("bad Adam+Key+Quan magic", vec![0xFF, 1, 2]),
            (
                "declared 2 pairs but decoded 1 keys",
                cat(&[&[0xA5], &v(100), &v(2), &key7]),
            ),
            ("overflows", cat(&[&q, &v(u64::MAX)])),
            ("truncated bucket means", cat(&[&q, &v(0)])),
            ("truncated bucket means", cat(&[&q, &v(3)])),
            (
                "bucket index 9 out of range 1",
                cat(&[&q, &v(1), &mean, &[8], &cells(&[9], 8)]),
            ),
        ],
    );
    let z = cat(&[&[0x21, 8], &v(100), &v(1), &[7, 0, 0, 0]]);
    check(
        &ZipMlCompressor::paper_default(),
        &[
            ("bad ZipML magic", vec![0x00, 16]),
            ("bad ZipML width 12", vec![0x21, 12]),
            ("overflows", cat(&[&[0x21, 16], &v(100), &v(u64::MAX)])),
            ("truncated ZipML body", cat(&[&[0x21, 16], &v(100), &v(5)])),
            ("bad ZipML value range", cat(&[&z, &one, &zero, &[0]])),
            ("bad ZipML value range", cat(&[&z, &nan, &zero, &[0]])),
        ],
    );
    check(
        &raw,
        &[
            ("bad raw magic", vec![0x00, 8]),
            ("bad value width 3", vec![0x0D, 3]),
            ("overflows", cat(&[&[0x0D, 8], &v(100), &v(u64::MAX)])),
            (
                "truncated raw body",
                cat(&[&[0x0D, 8], &v(100), &v(2), &[0; 12]]),
            ),
        ],
    );
    check(
        &KeyCompressor,
        &[
            ("bad Adam+Key magic", vec![0x00]),
            ("key count mismatch", cat(&[&[0x0E], &v(100), &v(2), &key7])),
            ("truncated values", cat(&[&[0x0E], &v(100), &g, &[0; 7]])),
        ],
    );
    check(
        &TruncationCompressor::default(),
        &[
            ("bad truncation magic", vec![0x00]),
            (
                "kept count mismatch",
                cat(&[&[0x0F], &v(100), &v(2), &key7]),
            ),
            ("truncated values", cat(&[&[0x0F], &v(100), &g, &[0; 3]])),
        ],
    );
    check(
        &ShardedCompressor::new(raw, 2).expect("2 shards"),
        &[
            ("shard frame", vec![]),
            ("payload bytes but", cat(&[&frame(&[raw_of(10, 3)]), &[0]])),
            (
                "configured for 2",
                frame(&[raw_of(10, 1), raw_of(10, 2), raw_of(10, 3)]),
            ),
            ("CRC mismatch", bad_crc),
            ("bad raw magic", frame(&[vec![0x00]])),
            (
                "disagree on gradient dimension",
                frame(&[raw_of(10, 3), raw_of(20, 5)]),
            ),
            (
                "merged shards invalid",
                frame(&[raw_of(10, 5), raw_of(10, 3)]),
            ),
        ],
    );
}

#[test]
fn error_feedback_wire_path_matches_golden_fixture() {
    // Error feedback is stateful, so the fixture pins the *second* round:
    // its payload carries the residual of round one folded back in.
    let grad = canonical_gradient();
    let ef = ErrorFeedback::new(SketchMlCompressor::default());
    let r1 = ef.compress(&grad).expect("EF round 1").payload;
    let r2 = ef.compress(&grad).expect("EF round 2").payload;
    // Round 1 starts with an empty residual: the wire bytes are exactly the
    // bare compressor's.
    assert_eq!(
        to_hex(&r1),
        to_hex(
            &SketchMlCompressor::default()
                .compress(&grad)
                .expect("bare compress")
                .payload
        ),
        "EF with an empty residual must be wire-identical to the bare compressor"
    );
    let golden = load_or_regen("ef_sketchml_round2_seed901df1.hex", &r2);
    assert_eq!(
        to_hex(&golden),
        to_hex(&r2),
        "EF round-2 payload changed: residual compensation or the wire format drifted"
    );
    // A caller-owned, already-used scratch replays both rounds to the same
    // bytes.
    let ef_scratch = ErrorFeedback::new(SketchMlCompressor::default());
    let mut scratch = used_scratch();
    let mut out = BytesMut::new();
    ef_scratch
        .compress_into(&grad, &mut scratch, &mut out)
        .expect("EF scratch round 1");
    assert_eq!(to_hex(&r1), to_hex(&out));
    ef_scratch
        .compress_into(&grad, &mut scratch, &mut out)
        .expect("EF scratch round 2");
    assert_eq!(to_hex(&golden), to_hex(&out));
    // The fixture still decodes, on a fresh scratch and on the used one.
    let decoded = ef.decompress(&golden).expect("decode EF fixture");
    assert_eq!(decoded.keys(), grad.keys());
    let mut pooled = SparseGradient::empty(0);
    ef.decompress_into(&golden, &mut scratch, &mut pooled)
        .expect("scratch decode EF fixture");
    assert_eq!(&pooled, &decoded);
}

#[test]
fn count_sketch_frame_matches_golden_fixture_and_rejects_every_bitflip() {
    // A small pinned table keeps the fixture compact; the wire format is
    // identical at every shape. Decoding is lossy (top-k heavy hitters), so
    // unlike `assert_golden` this compares decode-vs-decode, not keys-vs-
    // input.
    let c = CountSketchCompressor::new(CountSketchConfig {
        rows: 3,
        cols: 64,
        k: 16,
        seed: 0xC5C5_0001,
    })
    .expect("pinned config");
    let grad = canonical_gradient();
    let encoded = c.compress(&grad).expect("compress").payload;
    let golden = load_or_regen("csk_3x64k16_seed901df1.hex", &encoded);
    assert_eq!(
        to_hex(&golden),
        to_hex(&encoded),
        "CSK: re-encoding the canonical gradient changed the wire format"
    );
    assert_eq!(golden[0], 0xC5, "CSK frames open with their magic byte");

    // A used scratch hits the same golden bytes.
    let mut scratch = used_scratch();
    let mut out = BytesMut::new();
    c.compress_into(&grad, &mut scratch, &mut out)
        .expect("compress_into");
    assert_eq!(
        to_hex(&golden),
        to_hex(&out),
        "CSK: a used scratch leaked state into the wire bytes"
    );

    // The stored bytes decode, identically on a fresh and a used scratch.
    let from_golden = c.decompress(&golden).expect("decode fixture");
    assert_eq!(from_golden.dim(), grad.dim());
    let mut pooled = SparseGradient::empty(0);
    c.decompress_into(&golden, &mut scratch, &mut pooled)
        .expect("decompress_into fixture");
    assert_eq!(&pooled, &from_golden);

    // A receiver configured for another heavy-hitter count refuses the
    // frame rather than extracting the sender's k.
    let other_k = CountSketchCompressor::new(CountSketchConfig {
        k: 8,
        ..*c.config()
    })
    .expect("pinned config, k = 8");
    assert!(
        matches!(other_k.decompress(&golden), Err(CompressError::Corrupt(m)) if m.contains("k=16")),
        "CSK: a frame with k = 16 decoded under k = 8"
    );

    // Full per-byte corruption sweep: the CRC32 (or the magic/version
    // checks it does not cover) catches a flip at *every* offset.
    for i in 0..golden.len() {
        for mask in [0x01u8, 0x40] {
            let mut corrupt = golden.clone();
            corrupt[i] ^= mask;
            assert!(
                matches!(c.decompress(&corrupt), Err(CompressError::Corrupt(_))),
                "CSK fixture byte {i} (mask {mask:#04x}) corrupted silently"
            );
        }
    }
    // Truncation at every boundary is equally typed.
    for cut in 0..golden.len() {
        assert!(
            c.decompress(&golden[..cut]).is_err(),
            "CSK fixture truncated at {cut} decoded successfully"
        );
    }
}

/// The key encoder every codec runs, with the lanes the CPU has and again
/// pinned to its scalar body, held to the committed bytes.
#[test]
fn delta_binary_keys_match_golden_fixture() {
    let grad = canonical_gradient();
    let _guard = LaneGuard::acquire();
    for scalar in [false, true] {
        sketchml_core::simd::force_scalar(scalar);
        let mut encoded = BytesMut::new();
        encode_keys_into(grad.keys(), &mut encoded).expect("encode keys");
        let golden = load_or_regen("delta_binary_seed901df1.hex", &encoded);
        assert_eq!(
            to_hex(&golden),
            to_hex(&encoded),
            "delta-binary (scalar: {scalar}): re-encoding the canonical keys changed the wire format"
        );
        let mut decoded = Vec::new();
        let mut view = golden.as_slice();
        decode_keys_into(&mut view, &mut decoded).expect("decode fixture");
        assert!(view.is_empty(), "the decoder consumes exactly the fixture");
        assert_eq!(decoded, grad.keys(), "delta-binary decode is lossless");
    }
}

/// Replays a 3-worker ring reduce over sharded SketchML payloads and returns
/// the final hop payload (an exact-policy AGG frame): worker 0's weighted
/// contribution rides to worker 1, which folds its own in, and so on — each
/// hop re-reads the previous AGG frame exactly as the collective executor
/// does.
fn ring_merged_payload(threads: usize) -> Vec<u8> {
    use sketchml_core::{MergeAcc, MergePolicy, MergeableCompressor};

    let engine = ShardedCompressor::new(SketchMlCompressor::default(), 4)
        .expect("4 shards")
        .with_threads(threads)
        .expect("thread count in range");
    let mut scratch = CompressScratch::new();
    let mut acc = MergeAcc::new();
    let mut hop = Vec::new();
    for w in 0..3u64 {
        let grad = canonical_gradient_for(SEED + 1 + w);
        let payload = engine.compress(&grad).expect("worker payload").payload;
        acc.reset(DIM);
        if w > 0 {
            engine
                .accumulate(&mut acc, &hop, 1.0, &mut scratch)
                .expect("previous hop frame re-reads");
        }
        engine
            .accumulate(&mut acc, &payload, 1.0 / 3.0, &mut scratch)
            .expect("own contribution folds in");
        let mut out = BytesMut::new();
        engine
            .emit_hop(&acc, MergePolicy::Exact, &mut scratch, &mut out)
            .expect("emit AGG hop frame");
        hop = out.to_vec();
    }
    hop
}

#[test]
fn ring_merged_agg_payload_matches_golden_fixture() {
    use sketchml_core::{MergeAcc, MergeableCompressor};

    let merged = ring_merged_payload(1);
    let golden = load_or_regen("agg_ring3_seed901df1.hex", &merged);
    assert_eq!(
        to_hex(&golden),
        to_hex(&merged),
        "replaying the 3-worker ring changed the AGG wire format"
    );
    assert_eq!(golden[0], 0xAC, "AGG frames open with their magic byte");

    // The merge path is deterministic across the sharded engine's thread
    // counts: the hop bytes depend only on the data, never the schedule.
    for threads in [2usize, 4] {
        assert_eq!(
            to_hex(&ring_merged_payload(threads)),
            to_hex(&golden),
            "{threads}-thread ring merge diverged from the single-threaded bytes"
        );
    }

    // The stored frame still decodes, to exactly the driver-style aggregate:
    // AGG sums are raw f64 partial sums, so equality here is bitwise.
    let engine = ShardedCompressor::new(SketchMlCompressor::default(), 4).expect("4 shards");
    let mut scratch = CompressScratch::new();
    let mut from_fixture = MergeAcc::new();
    from_fixture.reset(DIM);
    engine
        .accumulate(&mut from_fixture, &golden, 1.0, &mut scratch)
        .expect("fixture decodes");
    let mut reference = MergeAcc::new();
    reference.reset(DIM);
    for w in 0..3u64 {
        let grad = canonical_gradient_for(SEED + 1 + w);
        let payload = engine.compress(&grad).expect("worker payload").payload;
        engine
            .accumulate(&mut reference, &payload, 1.0 / 3.0, &mut scratch)
            .expect("reference accumulate");
    }
    assert_eq!(from_fixture.keys(), reference.keys());
    assert_eq!(from_fixture.sums(), reference.sums());
}

/// The training state both checkpoint fixtures hold: sketched Adam (2 × 8
/// tables) on a 4-weight model after five steps.
fn canonical_checkpoint() -> Checkpoint {
    let mut model = GlmModel::new(4, GlmLoss::Logistic, 0.01).expect("model");
    let mut opt = OptimizerState::build(
        OptimizerKind::Adam(AdamConfig::with_lr(0.05)),
        OptStateMode::sketched(2, 8),
        4,
    )
    .expect("sketched adam");
    for i in 0..5u64 {
        let g = 0.125 * (i + 1) as f64;
        model.apply_gradient(&mut opt, &[i % 2, 2 + i % 2], &[g, -0.5 * g]);
    }
    Checkpoint::new(model, opt, 3)
}

#[test]
fn checkpoint_v3_frame_matches_golden_fixture_and_the_v2_document_is_refused() {
    let current = canonical_checkpoint().to_bytes().expect("encode");
    let golden = load_or_regen("checkpoint_v3_sketched_adam.hex", &current);
    assert_eq!(
        to_hex(&golden),
        to_hex(&current),
        "checkpoint v3 frame changed"
    );
    assert_eq!(golden[0], 0xC3, "v3 frames open with their magic byte");
    Checkpoint::validate(&golden).expect("fixture validates");
    let decoded = Checkpoint::from_bytes(&golden).expect("fixture decodes");
    assert_eq!(
        to_hex(&decoded.to_bytes().expect("re-encode")),
        to_hex(&golden)
    );

    // The same state as the last JSON writer (the commit before v3) wrote
    // it. Nothing in the tree can produce this file, and nothing reads it:
    // every loader refuses it with a typed error, as it does each of its
    // prefixes.
    let json = std::fs::read(fixture_path("checkpoint_v2_sketched_adam.json")).expect("v2 fixture");
    for cut in [json.len(), json.len() / 2, 60, 1, 0] {
        let doc = &json[..cut];
        for refused in [
            Checkpoint::validate(doc).map(drop),
            Checkpoint::from_bytes(doc).map(drop),
            Checkpoint::load(doc).map(drop),
        ] {
            assert!(
                matches!(refused, Err(MlError::InvalidInput(_))),
                "{cut} bytes of the v2 document: {refused:?}"
            );
        }
    }
}

/// Every optimizer state a checkpoint can hold, one per (rule, layout) in
/// optimizer-tag order — SGD has no state to lay out, so seven in all: a
/// 4-weight model after five steps whose gradients also name a key past the
/// model (skipped), through 2 × 8 tables where sketched, so the stored cells
/// carry hash collisions.
fn every_optimizer_state() -> Vec<Checkpoint> {
    let rules = [
        OptimizerKind::Sgd(0.05),
        OptimizerKind::Momentum(0.05, 0.9),
        OptimizerKind::AdaGrad(0.1, 1e-6),
        OptimizerKind::Adam(AdamConfig::with_lr(0.05)),
    ];
    let dense = rules.map(|kind| (kind, OptStateMode::Dense));
    let sketched = rules[1..]
        .iter()
        .map(|&kind| (kind, OptStateMode::sketched(2, 8)));
    dense
        .into_iter()
        .chain(sketched)
        .map(|(kind, mode)| {
            let mut model = GlmModel::new(4, GlmLoss::Logistic, 0.01).expect("model");
            let mut opt = OptimizerState::build(kind, mode, 4).expect("optimizer");
            for i in 0..5u64 {
                let g = 0.125 * (i + 1) as f64;
                model.apply_gradient(&mut opt, &[i % 4, (i + 1) % 4, 4], &[g, -0.5 * g, 1.0]);
            }
            Checkpoint::new(model, opt, 2)
        })
        .collect()
}

#[test]
fn every_optimizer_state_matches_its_golden_v3_frame() {
    const NAME: &str = "checkpoint_v3_every_state.hex";
    let current: Vec<Vec<u8>> = every_optimizer_state()
        .iter()
        .map(|ck| ck.to_bytes().expect("encode"))
        .collect();
    // One frame per line, so a diff names the state that moved.
    let path = fixture_path(NAME);
    if std::env::var_os("REGEN_FIXTURES").is_some() {
        let lines: Vec<String> = current.iter().map(|f| to_hex(f)).collect();
        std::fs::write(&path, format!("{}\n", lines.join("\n"))).expect("write fixture");
    }
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    let golden: Vec<Vec<u8>> = text.lines().map(from_hex).collect();
    assert_eq!(golden.len(), 7, "one frame per optimizer state");
    // The optimizer tag follows magic, version, loss, l2 and the 4 weights.
    const TAG_AT: usize = 4 + 4 + 1 + 8 + 8 + 4 * 8;
    for (tag, (golden, current)) in golden.iter().zip(&current).enumerate() {
        assert_eq!(golden[TAG_AT], tag as u8, "frames are in tag order");
        assert_eq!(
            to_hex(golden),
            to_hex(current),
            "the v3 frame of optimizer tag {tag} changed"
        );
        Checkpoint::validate(golden).expect("fixture validates");
        let decoded = Checkpoint::from_bytes(golden).expect("fixture decodes");
        assert_eq!(
            to_hex(&decoded.to_bytes().expect("re-encode")),
            to_hex(golden)
        );
    }
}

#[test]
fn fixtures_are_committed_not_regenerated_in_ci() {
    // Every fixture must exist in the tree; the other tests would
    // otherwise fail with a pointed message, but this one makes the
    // invariant explicit and cheap to locate.
    for name in [
        "sketchml_seed901df1.hex",
        "sketchml_v2_seed901df1.hex",
        "sketchml_v2_1row_seed901df1.hex",
        "zipml_seed901df1.hex",
        "sketchml_sharded4_seed901df1.hex",
        "sketchml_sharded4_v2_seed901df1.hex",
        "delta_binary_seed901df1.hex",
        "ef_sketchml_round2_seed901df1.hex",
        "agg_ring3_seed901df1.hex",
        "csk_3x64k16_seed901df1.hex",
        "checkpoint_v3_sketched_adam.hex",
        "checkpoint_v3_every_state.hex",
        "checkpoint_v2_sketched_adam.json",
        "worker_step_seed901df1.hex",
    ] {
        assert!(
            fixture_path(name).exists() || std::env::var_os("REGEN_FIXTURES").is_some(),
            "fixture {name} missing from tests/fixtures/"
        );
    }
}

#[test]
fn worker_step_matches_golden_fixture() {
    // The worker's half of a round — gradient over its rows of the batch,
    // then the codec — pinned from the commit before the gradient stopped
    // sorting and the worker stopped copying its rows: `loss_sum`'s bits
    // (8 bytes, little-endian), then the payload.
    use sketchml::cluster::network::CostModel;
    use sketchml::cluster::worker::{process_glm_batch, process_glm_rows, WorkerScratch};
    use sketchml::data::synthetic::Task;
    use sketchml::{Instance, SparseDatasetSpec};
    let spec = SparseDatasetSpec {
        name: "worker-step".into(),
        instances: 600,
        features: 20_011,
        avg_nnz: 24,
        skew: 1.1,
        label_noise: 0.05,
        task: Task::Classification,
        seed: SEED,
    };
    let train = spec.generate();
    // Non-zero weights, so the sparse ℓ2 term is in the pinned bits.
    let mut model = GlmModel::new(spec.features as usize, GlmLoss::Logistic, 0.01).expect("model");
    let mut rng = StdRng::seed_from_u64(SEED);
    for w in &mut model.weights {
        *w = rng.gen_range(-0.05..0.05);
    }
    let rows: Vec<usize> = (0..train.len()).filter(|i| i % 3 != 1).collect();
    let codec = SketchMlCompressor::default();
    let cost = CostModel::cluster1();
    let pin = |loss_sum: f64, payload: &[u8]| {
        let mut pinned = loss_sum.to_bits().to_le_bytes().to_vec();
        pinned.extend_from_slice(payload);
        pinned
    };

    let mut ws = WorkerScratch::new();
    let by_ref = process_glm_rows(
        &model,
        rows.iter().map(|&i| &train[i]),
        &codec,
        &cost,
        &mut ws,
    )
    .expect("worker step");
    let pinned = pin(by_ref.loss_sum, &by_ref.payload);
    let golden = load_or_regen("worker_step_seed901df1.hex", &pinned);
    assert_eq!(
        to_hex(&golden),
        to_hex(&pinned),
        "a worker's gradient or its encoding changed"
    );
    assert_eq!(by_ref.instances, rows.len());

    // The slice wrapper is the same body; a warm scratch changes nothing.
    let slice: Vec<Instance> = rows.iter().map(|&i| train[i].clone()).collect();
    for _ in 0..2 {
        let copied = process_glm_batch(&model, &slice, &codec, &cost, &mut ws).expect("slice step");
        assert_eq!(
            to_hex(&golden),
            to_hex(&pin(copied.loss_sum, &copied.payload))
        );
    }
}
