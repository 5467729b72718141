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

use bytes::BytesMut;
use rand::prelude::*;
use rand::rngs::StdRng;
use sketchml::{
    AdamConfig, Checkpoint, GlmLoss, GlmModel, OptStateMode, OptimizerKind, OptimizerState,
};
use sketchml_core::{
    CompressError, CompressScratch, CountSketchCompressor, CountSketchConfig, ErrorFeedback,
    FrameVersion, GradientCompressor, ShardedCompressor, SketchMlCompressor, SparseGradient,
    ZipMlCompressor,
};
use sketchml_encoding::{decode_keys, encode_keys};
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
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = Vec::with_capacity(NNZ);
    let mut next = 0u64;
    for _ in 0..NNZ {
        next += rng.gen_range(1..=31);
        keys.push(next.min(DIM - 1));
    }
    keys.dedup();
    let values: Vec<f64> = keys.iter().map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
    SparseGradient::new(DIM, keys, values).expect("canonical gradient is valid")
}

/// Encode → compare against golden bytes → decode golden bytes.
fn assert_golden(name: &str, compressor: &dyn GradientCompressor) {
    let grad = canonical_gradient();
    let encoded = compressor.compress(&grad).expect("compress").payload;
    let golden = load_or_regen(name, &encoded);
    assert_eq!(
        to_hex(&golden),
        to_hex(&encoded),
        "{name}: re-encoding the canonical gradient changed the wire format"
    );
    // The zero-alloc scratch path must hit the same golden bytes.
    let mut scratch = CompressScratch::new();
    let mut out = BytesMut::new();
    compressor
        .compress_into(&grad, &mut scratch, &mut out)
        .expect("compress_into");
    assert_eq!(
        to_hex(&golden),
        to_hex(&out),
        "{name}: the scratch path diverged from the golden wire format"
    );
    // The stored bytes must still decode, and exactly like a fresh encode.
    let from_golden = compressor.decompress(&golden).expect("decode fixture");
    let from_fresh = compressor.decompress(&encoded).expect("decode fresh");
    assert_eq!(from_golden.dim(), grad.dim());
    assert_eq!(from_golden.keys(), from_fresh.keys());
    assert_eq!(from_golden.values(), from_fresh.values());
    assert_eq!(
        from_golden.keys(),
        grad.keys(),
        "{name}: key compression is lossless, keys must survive exactly"
    );
    // And the scratch decode must agree with the allocating decode.
    let mut pooled = SparseGradient::empty(0);
    compressor
        .decompress_into(&golden, &mut scratch, &mut pooled)
        .expect("decompress_into fixture");
    assert_eq!(
        &pooled, &from_golden,
        "{name}: scratch decode disagrees with allocating decode"
    );
}

#[test]
fn sketchml_payload_matches_golden_fixture() {
    assert_golden("sketchml_seed901df1.hex", &SketchMlCompressor::default());
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
    // The zero-alloc scratch path replays both rounds to the same bytes.
    let ef_scratch = ErrorFeedback::new(SketchMlCompressor::default());
    let mut scratch = CompressScratch::new();
    let mut out = BytesMut::new();
    ef_scratch
        .compress_into(&grad, &mut scratch, &mut out)
        .expect("EF scratch round 1");
    assert_eq!(to_hex(&r1), to_hex(&out));
    ef_scratch
        .compress_into(&grad, &mut scratch, &mut out)
        .expect("EF scratch round 2");
    assert_eq!(to_hex(&golden), to_hex(&out));
    // The fixture still decodes, through both decode paths.
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
        momentum: None,
        auto_k: false,
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

    // The zero-alloc scratch path hits the same golden bytes.
    let mut scratch = CompressScratch::new();
    let mut out = BytesMut::new();
    c.compress_into(&grad, &mut scratch, &mut out)
        .expect("compress_into");
    assert_eq!(
        to_hex(&golden),
        to_hex(&out),
        "CSK: the scratch path diverged from the golden wire format"
    );

    // The stored bytes decode exactly like a fresh encode, via both paths.
    let from_golden = c.decompress(&golden).expect("decode fixture");
    let from_fresh = c.decompress(&encoded).expect("decode fresh");
    assert_eq!(from_golden.dim(), grad.dim());
    assert_eq!(from_golden.keys(), from_fresh.keys());
    assert_eq!(from_golden.values(), from_fresh.values());
    let mut pooled = SparseGradient::empty(0);
    c.decompress_into(&golden, &mut scratch, &mut pooled)
        .expect("decompress_into fixture");
    assert_eq!(&pooled, &from_golden);

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

#[test]
fn delta_binary_keys_match_golden_fixture() {
    let grad = canonical_gradient();
    let mut encoded = Vec::new();
    encode_keys(grad.keys(), &mut encoded).expect("encode keys");
    let golden = load_or_regen("delta_binary_seed901df1.hex", &encoded);
    assert_eq!(
        to_hex(&golden),
        to_hex(&encoded),
        "delta-binary: re-encoding the canonical keys changed the wire format"
    );
    let decoded = decode_keys(&mut golden.as_slice()).expect("decode fixture");
    assert_eq!(decoded, grad.keys(), "delta-binary decode is lossless");
    // Round the trip once more: decoded keys re-encode to the same bytes.
    let mut reencoded = Vec::new();
    encode_keys(&decoded, &mut reencoded).expect("re-encode keys");
    assert_eq!(to_hex(&golden), to_hex(&reencoded));
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
fn checkpoint_v3_frame_matches_golden_fixture_and_the_v2_document_still_decodes() {
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
    // it. Nothing in the tree can produce this file any more, so it is never
    // regenerated: it pins the decode-only path.
    let json = std::fs::read(fixture_path("checkpoint_v2_sketched_adam.json")).expect("v2 fixture");
    assert!(Checkpoint::validate(&json).is_err(), "validate is v3-only");
    let legacy = Checkpoint::load(json.as_slice()).expect("v2 document decodes");
    assert_eq!(legacy.version, Checkpoint::VERSION);
    assert_eq!(
        to_hex(&legacy.to_bytes().expect("upgrade")),
        to_hex(&golden),
        "a v2 document must upgrade to the v3 frame of the same state"
    );
}

#[test]
fn fixtures_are_committed_not_regenerated_in_ci() {
    // All four fixtures must exist in the tree; the other tests would
    // otherwise fail with a pointed message, but this one makes the
    // invariant explicit and cheap to locate.
    for name in [
        "sketchml_seed901df1.hex",
        "zipml_seed901df1.hex",
        "sketchml_sharded4_seed901df1.hex",
        "sketchml_sharded4_v2_seed901df1.hex",
        "delta_binary_seed901df1.hex",
        "ef_sketchml_round2_seed901df1.hex",
        "agg_ring3_seed901df1.hex",
        "csk_3x64k16_seed901df1.hex",
        "checkpoint_v3_sketched_adam.hex",
        "checkpoint_v2_sketched_adam.json",
    ] {
        assert!(
            fixture_path(name).exists() || std::env::var_os("REGEN_FIXTURES").is_some(),
            "fixture {name} missing from tests/fixtures/"
        );
    }
}
