//! Name-based compressor construction, for CLIs and config files.

use crate::baselines::{KeyCompressor, RawCompressor, TruncationCompressor, ValueWidth};
use crate::compressor::GradientCompressor;
use crate::count_sketch::{CountSketchCompressor, CountSketchConfig};
use crate::error::CompressError;
use crate::fastsgd::FastSgdCompressor;
use crate::quantify::QuantCompressor;
use crate::sharded::ShardedCompressor;
use crate::sketchml::SketchMlCompressor;
use crate::zipml::ZipMlCompressor;
use sketchml_encoding::framing::FrameVersion;

/// Names accepted by [`by_name`], in canonical form: each codec once, plus
/// the parameterised and sharded spellings the benchmark, the fault plans
/// and the zero-allocation test use. Any name also accepts one `@N` suffix
/// (e.g. `sketchml@8`) selecting the parallel sharded engine with `N` shards
/// and `N` worker threads; appending `c` to the shard count (e.g.
/// `sketchml@4c`) switches the frame to the CRC-carrying v2 format so
/// in-flight corruption is detected.
///
/// `countsketch` additionally takes a table shape and heavy-hitter count,
/// `countsketch[:<rows>x<cols>:<k>]`, and `fastsgd[:<bits>]` selects
/// exponent-only log quantization with `bits ∈ 2..=16` per-value code width
/// (default 6).
pub const KNOWN_COMPRESSORS: &[&str] = &[
    "sketchml",
    "sketchml@4",
    "sketchml@4c",
    "adam",
    "adam-float",
    "adam+key",
    "adam+key+quan",
    "zipml",
    "zipml-8bit",
    "truncation",
    "countsketch",
    "countsketch:8x2048:512",
    "fastsgd",
    "fastsgd:8",
];

/// Parses `countsketch[:<rows>x<cols>:<k>]` into a config.
fn count_sketch_config(name: &str, spec: &str) -> Result<CountSketchConfig, CompressError> {
    let bad = |what: &str| {
        CompressError::InvalidConfig(format!(
            "`{name}`: {what}; expected countsketch[:<rows>x<cols>:<k>]"
        ))
    };
    let mut config = CountSketchConfig::default();
    if spec.is_empty() {
        return Ok(config);
    }
    let (shape, k) = spec
        .strip_prefix(':')
        .and_then(|s| s.split_once(':'))
        .ok_or_else(|| bad("expected a shape and k"))?;
    let (rows, cols) = shape
        .split_once(['x', 'X'])
        .ok_or_else(|| bad("malformed shape"))?;
    config.rows = rows.parse().map_err(|_| bad("rows must be an integer"))?;
    config.cols = cols.parse().map_err(|_| bad("cols must be an integer"))?;
    config.k = k.parse().map_err(|_| bad("k must be an integer"))?;
    Ok(config)
}

/// Builds a compressor from its canonical (case-insensitive) name.
///
/// A trailing `@N` wraps the named compressor in a [`ShardedCompressor`]
/// with `N` shards and `N` threads: `by_name("sketchml@8")` compresses
/// 8 key-range shards concurrently. `@Nc` additionally selects the v2
/// checksummed frame ([`FrameVersion::V2`]).
///
/// # Errors
/// [`CompressError::InvalidConfig`] listing the known names on a miss, or if
/// the `@N` suffix is not a positive integer written in digits, or repeats.
pub fn by_name(name: &str) -> Result<Box<dyn GradientCompressor>, CompressError> {
    if let Some((base, suffix)) = name.split_once('@') {
        let (digits, frame) = match suffix.strip_suffix(['c', 'C']) {
            Some(digits) => (digits, FrameVersion::V2),
            None => (suffix, FrameVersion::V1),
        };
        // Digits only: `usize::from_str` also takes a leading `+`, and a
        // second `@` would wrap a sharded engine in another.
        let shards: usize = Some(digits)
            .filter(|d| d.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| {
                CompressError::InvalidConfig(format!(
                    "`{name}`: shard suffix `@{suffix}` must be one positive integer, \
                     optionally followed by `c` for the checksummed v2 frame"
                ))
            })?;
        let inner = by_name(base)?;
        return Ok(Box::new(
            ShardedCompressor::new(inner, shards)?.with_frame(frame),
        ));
    }
    let lower = name.to_ascii_lowercase();
    if let Some(spec) = lower.strip_prefix("countsketch") {
        let config = count_sketch_config(name, spec)?;
        return Ok(Box::new(CountSketchCompressor::new(config)?));
    }
    if let Some(spec) = lower.strip_prefix("fastsgd") {
        let bits = if spec.is_empty() {
            FastSgdCompressor::DEFAULT_BITS
        } else {
            spec.strip_prefix(':')
                .and_then(|b| b.parse().ok())
                .ok_or_else(|| {
                    CompressError::InvalidConfig(format!(
                        "`{name}`: expected fastsgd[:<bits>] with bits in 2..=16"
                    ))
                })?
        };
        return Ok(Box::new(FastSgdCompressor::new(bits)?));
    }
    let c: Box<dyn GradientCompressor> = match lower.as_str() {
        "sketchml" => Box::new(SketchMlCompressor::default()),
        "adam" | "adam-double" | "raw" => Box::new(RawCompressor::default()),
        "adam-float" => Box::new(RawCompressor {
            width: ValueWidth::F32,
        }),
        "adam+key" | "key" => Box::new(KeyCompressor),
        "adam+key+quan" | "quan" => Box::new(QuantCompressor::default()),
        "zipml" | "zipml-16bit" => Box::new(ZipMlCompressor::paper_default()),
        "zipml-8bit" => Box::new(ZipMlCompressor::new(8)?),
        "truncation" | "1bit" => Box::new(TruncationCompressor::default()),
        other => {
            return Err(CompressError::InvalidConfig(format!(
                "unknown compressor `{other}`; known: {}",
                KNOWN_COMPRESSORS.join(", ")
            )))
        }
    };
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient::SparseGradient;

    #[test]
    fn all_known_names_build_and_roundtrip() {
        let grad = SparseGradient::new(1000, vec![1, 5, 900], vec![0.5, -0.25, 0.125]).unwrap();
        for &name in KNOWN_COMPRESSORS {
            let c = by_name(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            let msg = c.compress(&grad).expect(name);
            let decoded = c.decompress(&msg.payload).expect(name);
            assert_eq!(decoded.dim(), grad.dim(), "{name}");
        }
    }

    #[test]
    fn aliases_and_case_insensitivity() {
        assert_eq!(by_name("SketchML").unwrap().name(), "SketchML");
        assert_eq!(by_name("RAW").unwrap().name(), "Adam");
        assert_eq!(by_name("quan").unwrap().name(), "Adam+Key+Quan");
    }

    #[test]
    fn sharded_suffix_builds_parallel_engine() {
        let keys: Vec<u64> = (0..200).map(|i| i * 37).collect();
        let values: Vec<f64> = (0..200).map(|i| (i as f64 - 100.0) * 0.001).collect();
        let grad = SparseGradient::new(10_000, keys, values).unwrap();
        let sharded = by_name("sketchml@8").unwrap();
        assert_eq!(sharded.name(), "SketchML");
        let msg = sharded.compress(&grad).unwrap();
        let decoded = sharded.decompress(&msg.payload).unwrap();
        assert_eq!(decoded.keys(), grad.keys());
        // The sharded frame is its own wire format.
        assert!(by_name("sketchml")
            .unwrap()
            .decompress(&msg.payload)
            .is_err());
    }

    #[test]
    fn bad_shard_suffixes_are_rejected() {
        assert!(by_name("sketchml@0").is_err());
        assert!(by_name("sketchml@x").is_err());
        assert!(by_name("sketchml@").is_err());
        assert!(by_name("nope@4").is_err());
        assert!(by_name("sketchml@c").is_err());
        assert!(by_name("sketchml@0c").is_err());
        // One suffix, digits only.
        for bad in [
            "sketchml@2@2",
            "sketchml@4c@2",
            "fastsgd@4@4",
            "sketchml@+4",
        ] {
            assert!(
                matches!(by_name(bad), Err(CompressError::InvalidConfig(_))),
                "accepted `{bad}`"
            );
        }
    }

    #[test]
    fn checksum_suffix_selects_v2_frame() {
        let keys: Vec<u64> = (0..64).map(|i| i * 5).collect();
        let values: Vec<f64> = (0..64).map(|i| (i as f64 - 32.0) * 0.01).collect();
        let grad = SparseGradient::new(1_000, keys, values).unwrap();
        let checked = by_name("sketchml@4c").unwrap();
        let msg = checked.compress(&grad).unwrap();
        // The v2 sentinel leads the frame and the plain engine rejects it.
        assert_eq!(msg.payload[0], 0x00);
        let decoded = checked.decompress(&msg.payload).unwrap();
        assert_eq!(decoded.keys(), grad.keys());
        // A flipped payload byte is detected by the CRC.
        let mut bad = msg.payload.to_vec();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(checked.decompress(&bad).is_err());
    }

    #[test]
    fn countsketch_grammar_parses_and_rejects() {
        assert_eq!(by_name("countsketch").unwrap().name(), "CountSketch");
        assert_eq!(
            by_name("CountSketch:8X2048:512").unwrap().name(),
            "CountSketch"
        );
        assert_eq!(
            by_name("countsketch:8x2048:512@4").unwrap().name(),
            "CountSketch"
        );
        for bad in [
            "countsketch:4x1024",          // shape without k
            "countsketchx",                // junk tail
            "countsketch:0x1024:4",        // rows out of range
            "countsketch:4x1024:0",        // k out of range
            "countsketch:4x1024:256:z",    // trailing component
            "countsketch:4x1024:256:m0.9", // sketched momentum is gone
            "countsketch:auto",            // so is adaptive k
            "countsketch:8x2048:auto",
        ] {
            assert!(by_name(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn fastsgd_grammar_parses_and_rejects() {
        assert_eq!(by_name("fastsgd").unwrap().name(), "FastSGD");
        assert_eq!(by_name("FastSGD:8").unwrap().name(), "FastSGD");
        assert_eq!(by_name("fastsgd:16@2").unwrap().name(), "FastSGD");
        for bad in [
            "fastsgd:",
            "fastsgd:1",
            "fastsgd:17",
            "fastsgdx",
            "fastsgd:8:8",
        ] {
            assert!(by_name(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn unknown_name_lists_options() {
        let Err(err) = by_name("gzip") else {
            panic!("gzip should be unknown");
        };
        let msg = err.to_string();
        assert!(msg.contains("gzip"));
        assert!(msg.contains("sketchml"));
    }
}
