//! Parallel sharded compression engine.
//!
//! [`ShardedCompressor`] wraps any [`GradientCompressor`] and splits each
//! gradient into `shards` contiguous key-range shards, balanced by pair
//! count. Shards are compressed (and decompressed) independently — possibly
//! concurrently on the persistent worker pool in [`crate::pool`] — and
//! framed into one self-describing payload by [`sketchml_encoding::framing`].
//!
//! # Determinism
//!
//! The shard split depends only on the gradient and the configured shard
//! count; the frame concatenates shard payloads in key order. The worker
//! thread count therefore affects **wall-clock time only**: the payload is
//! byte-identical for any `threads`, and decompression yields
//! element-identical gradients. This is what lets the Figure 8(c) extension
//! sweep threads while asserting unchanged output.

use crate::compressor::{CompressedGradient, GradientCompressor};
use crate::error::CompressError;
use crate::gradient::SparseGradient;
use crate::scratch::CompressScratch;
use bytes::BytesMut;
use sketchml_encoding::crc32::crc32;
use sketchml_encoding::framing::{self, FrameVersion};
use sketchml_encoding::stats::SizeReport;
use sketchml_telemetry as telemetry;

/// Frame-level sharded-engine metrics: one framed message plus the per-shard
/// payload-byte imbalance `(max − min) · 1000 / mean` (pair counts are
/// balanced by construction, so byte skew is the interesting signal).
fn record_frame(lens: &[usize]) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::inc(telemetry::Counter::ShardedMessages);
    let (Some(&min), Some(&max)) = (lens.iter().min(), lens.iter().max()) else {
        return;
    };
    let sum: usize = lens.iter().sum();
    if let Some(permille) = ((max - min) * 1000 * lens.len()).checked_div(sum) {
        telemetry::observe(telemetry::Hist::ShardImbalancePermille, permille as u64);
    }
}

/// Wraps an inner compressor with key-range sharding + thread parallelism.
///
/// ```
/// use sketchml_core::{GradientCompressor, ShardedCompressor, SketchMlCompressor, SparseGradient};
///
/// let sharded = ShardedCompressor::new(SketchMlCompressor::default(), 4)?.with_threads(2)?;
/// let grad = SparseGradient::new(1000, vec![3, 500, 900], vec![0.5, -0.25, 0.125])?;
/// let msg = sharded.compress(&grad)?;
/// let decoded = sharded.decompress(&msg.payload)?;
/// assert_eq!(decoded.keys(), grad.keys());
/// # Ok::<(), sketchml_core::CompressError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedCompressor<C> {
    inner: C,
    shards: usize,
    threads: usize,
    frame: FrameVersion,
}

impl<C: GradientCompressor> ShardedCompressor<C> {
    /// Wraps `inner`, splitting every gradient into at most `shards`
    /// contiguous key-range shards. Threads default to the shard count.
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] if `shards` is zero or exceeds
    /// [`framing::MAX_SHARDS`].
    pub fn new(inner: C, shards: usize) -> Result<Self, CompressError> {
        if shards == 0 || shards > framing::MAX_SHARDS {
            return Err(CompressError::InvalidConfig(format!(
                "shards must be in 1..={}, got {shards}",
                framing::MAX_SHARDS
            )));
        }
        Ok(ShardedCompressor {
            inner,
            shards,
            threads: shards,
            frame: FrameVersion::V1,
        })
    }

    /// Sets the number of worker threads used per compress/decompress call.
    /// Affects wall-clock time only, never bytes (see module docs).
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Result<Self, CompressError> {
        if threads == 0 {
            return Err(CompressError::InvalidConfig("threads must be >= 1".into()));
        }
        self.threads = threads;
        Ok(self)
    }

    /// Selects the frame format written on compress. The default,
    /// [`FrameVersion::V1`], keeps the PR 1 wire format byte-identical;
    /// [`FrameVersion::V2`] adds a per-shard CRC32 so in-flight corruption is
    /// rejected with a typed error instead of decoding garbage. Decompression
    /// accepts **both** versions regardless of this setting.
    pub fn with_frame(mut self, frame: FrameVersion) -> Self {
        self.frame = frame;
        self
    }

    /// The frame format written on compress.
    pub fn frame(&self) -> FrameVersion {
        self.frame
    }

    /// The wrapped compressor.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Configured shard count (actual shards per message are capped at nnz).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Compresses each shard serially, returning per-shard messages in key
    /// order. This is the reference the equivalence property tests compare
    /// the parallel path against.
    ///
    /// # Errors
    /// Propagates the first inner-compressor failure.
    pub fn compress_shards_serial(
        &self,
        grad: &SparseGradient,
    ) -> Result<Vec<CompressedGradient>, CompressError> {
        split_gradient(grad, self.shards)
            .iter()
            .map(|shard| self.inner.compress(shard))
            .collect()
    }
}

/// Splits `grad` into at most `shards` contiguous key-range shards balanced
/// by pair count (the first `nnz % s` shards hold one extra pair). An empty
/// gradient yields a single empty shard so the frame stays self-describing.
pub fn split_gradient(grad: &SparseGradient, shards: usize) -> Vec<SparseGradient> {
    let nnz = grad.nnz();
    let s = shards.clamp(1, nnz.max(1));
    if s == 1 {
        return vec![grad.clone()];
    }
    let base = nnz / s;
    let extra = nnz % s;
    let mut out = Vec::with_capacity(s);
    let mut start = 0usize;
    for i in 0..s {
        let len = base + usize::from(i < extra);
        let end = start + len;
        let shard = SparseGradient::new(
            grad.dim(),
            grad.keys()[start..end].to_vec(),
            grad.values()[start..end].to_vec(),
        )
        .expect("contiguous slice of a valid gradient is valid");
        out.push(shard);
        start = end;
    }
    out
}

/// Strips a mutex poison marker: a panicked shard job already propagated as
/// a pool panic, and every slot holds plain pooled buffers that are valid in
/// any state, so the data behind a poisoned lock is still safe to reuse.
fn unpoison<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Verifies each shard's bytes (`buf[cursor[i]..][..counts[i]]`) against its
/// declared v2 CRC32, rejecting any mismatch before the inner codec ever
/// sees the corrupted bytes.
fn verify_crcs_at(
    buf: &[u8],
    cursor: &[usize],
    counts: &[usize],
    crcs: &[u32],
) -> Result<(), CompressError> {
    if counts.len() != crcs.len() {
        return Err(CompressError::Corrupt(format!(
            "frame declares {} shards but {} checksums",
            counts.len(),
            crcs.len()
        )));
    }
    for (i, ((&at, &len), &expect)) in cursor.iter().zip(counts).zip(crcs).enumerate() {
        let got = crc32(&buf[at..at + len]);
        if got != expect {
            return Err(CompressError::Corrupt(format!(
                "shard {i} CRC mismatch: header says {expect:#010x}, payload hashes to {got:#010x}"
            )));
        }
    }
    Ok(())
}

impl<C: GradientCompressor> GradientCompressor for ShardedCompressor<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compress_into(
        &self,
        grad: &SparseGradient,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        let nnz = grad.nnz();
        let s = self.shards.clamp(1, nnz.max(1));
        scratch.ensure_shards(s);
        if s == 1 {
            let slot = unpoison(scratch.shards[0].get_mut());
            let _t = telemetry::time(telemetry::Stage::ShardEncode);
            telemetry::inc(telemetry::Counter::ShardedShardEncodes);
            slot.result = Some(
                self.inner
                    .compress_into(grad, &mut slot.scratch, &mut slot.out),
            );
        } else {
            // Same balanced contiguous split as `split_gradient`, copied
            // into each slot's pooled gradient instead of fresh Vecs.
            let base = nnz / s;
            let extra = nnz % s;
            let mut start = 0usize;
            for (i, slot) in scratch.shards[..s].iter_mut().enumerate() {
                let end = start + base + usize::from(i < extra);
                unpoison(slot.get_mut())
                    .grad
                    .assign(
                        grad.dim(),
                        &grad.keys()[start..end],
                        &grad.values()[start..end],
                    )
                    .expect("contiguous slice of a valid gradient is valid");
                start = end;
            }
            // Each pool worker claims a distinct slot index, so every lock
            // below is uncontended and allocation-free.
            let slots = &scratch.shards[..s];
            crate::pool::run(s, self.threads.clamp(1, s), &|i| {
                let mut guard = unpoison(slots[i].lock());
                let slot = &mut *guard;
                let _t = telemetry::time(telemetry::Stage::ShardEncode);
                telemetry::inc(telemetry::Counter::ShardedShardEncodes);
                slot.result = Some(self.inner.compress_into(
                    &slot.grad,
                    &mut slot.scratch,
                    &mut slot.out,
                ));
            });
        }

        let mut report = SizeReport::default();
        scratch.counts.clear();
        for slot in scratch.shards[..s].iter_mut() {
            let slot = unpoison(slot.get_mut());
            let shard_report = slot.result.take().expect("every slot ran")?;
            report.accumulate(&shard_report);
            scratch.counts.push(slot.out.len());
        }
        record_frame(&scratch.counts);
        let frame_header = match self.frame {
            FrameVersion::V1 => framing::header_len(&scratch.counts),
            FrameVersion::V2 => framing::header_len_v2(&scratch.counts),
        };
        out.clear();
        out.reserve(frame_header + scratch.counts.iter().sum::<usize>());
        match self.frame {
            FrameVersion::V1 => framing::write_header(out, &scratch.counts),
            FrameVersion::V2 => {
                scratch.crcs.clear();
                for slot in scratch.shards[..s].iter_mut() {
                    scratch.crcs.push(crc32(&unpoison(slot.get_mut()).out[..]));
                }
                framing::write_header_v2(out, &scratch.counts, &scratch.crcs);
            }
        }
        report.header_bytes += frame_header;
        for slot in scratch.shards[..s].iter_mut() {
            out.extend_from_slice(&unpoison(slot.get_mut()).out[..]);
        }
        Ok(report)
    }

    fn decompress_into(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
        out: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        let mut buf = payload;
        let version =
            framing::read_any_header_into(&mut buf, &mut scratch.counts, &mut scratch.crcs)
                .map_err(|e| CompressError::Corrupt(format!("shard frame: {e}")))?;
        let s = scratch.counts.len();
        // No encoder writes more shards than its own `shards` (the split
        // clamps), so a frame declaring more is hostile or misrouted: refuse
        // it before it can grow the receiver's long-lived slot pool.
        if s > self.shards {
            return Err(CompressError::Corrupt(format!(
                "frame declares {s} shards but this engine is configured for {}",
                self.shards
            )));
        }
        scratch.cursor.clear();
        let mut offset = 0usize;
        for &len in &scratch.counts {
            // the header reader guarantees the sum fits in the buffer.
            scratch.cursor.push(offset);
            offset += len;
        }
        if offset != buf.len() {
            return Err(CompressError::Corrupt(format!(
                "frame declares {offset} payload bytes but {} are present",
                buf.len()
            )));
        }
        if version == FrameVersion::V2 {
            verify_crcs_at(buf, &scratch.cursor, &scratch.counts, &scratch.crcs)?;
        }

        scratch.ensure_shards(s);
        {
            // Each pool worker claims a distinct slot index, so every lock
            // below is uncontended and allocation-free.
            let slots = &scratch.shards[..s];
            let (counts, cursor) = (&scratch.counts, &scratch.cursor);
            crate::pool::run(s, self.threads.clamp(1, s), &|i| {
                let mut guard = unpoison(slots[i].lock());
                let slot = &mut *guard;
                let slice = &buf[cursor[i]..cursor[i] + counts[i]];
                let r = self
                    .inner
                    .decompress_into(slice, &mut slot.scratch, &mut slot.grad);
                slot.result = Some(r.map(|()| SizeReport::default()));
            });
        }

        let mut dim = 0u64;
        for (i, slot) in scratch.shards[..s].iter_mut().enumerate() {
            let slot = unpoison(slot.get_mut());
            slot.result
                .take()
                .expect("every slot ran")
                .map_err(|e| match e {
                    CompressError::Corrupt(msg) => CompressError::Corrupt(msg),
                    other => CompressError::Corrupt(format!("shard decode: {other}")),
                })?;
            if i == 0 {
                dim = slot.grad.dim();
            } else if slot.grad.dim() != dim {
                return Err(CompressError::Corrupt(
                    "shards disagree on gradient dimension".into(),
                ));
            }
        }
        scratch.dec_keys.clear();
        scratch.dec_vals.clear();
        for slot in scratch.shards[..s].iter_mut() {
            let slot = unpoison(slot.get_mut());
            scratch.dec_keys.extend_from_slice(slot.grad.keys());
            scratch.dec_vals.extend_from_slice(slot.grad.values());
        }
        out.assign(dim, &scratch.dec_keys, &scratch.dec_vals)
            .map_err(|e| CompressError::Corrupt(format!("merged shards invalid: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::RawCompressor;
    use crate::sketchml::SketchMlCompressor;

    fn grad(n: usize, dim: u64) -> SparseGradient {
        let keys: Vec<u64> = (0..n as u64).map(|i| i * (dim / n as u64)).collect();
        let values: Vec<f64> = (0..n).map(|i| 0.01 * (i as f64 + 1.0) - 0.3).collect();
        SparseGradient::new(dim, keys, values).unwrap()
    }

    #[test]
    fn split_is_balanced_and_ordered() {
        let g = grad(103, 1_000_000);
        let parts = split_gradient(&g, 8);
        assert_eq!(parts.len(), 8);
        let sizes: Vec<usize> = parts.iter().map(SparseGradient::nnz).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        let merged: Vec<u64> = parts.iter().flat_map(|p| p.keys().to_vec()).collect();
        assert_eq!(merged, g.keys());
    }

    #[test]
    fn split_caps_at_nnz() {
        let g = grad(3, 1000);
        assert_eq!(split_gradient(&g, 16).len(), 3);
        let empty = SparseGradient::empty(1000);
        assert_eq!(split_gradient(&empty, 16).len(), 1);
    }

    #[test]
    fn payload_is_identical_across_thread_counts() {
        let g = grad(512, 2_000_000);
        let mut payloads = Vec::new();
        for threads in [1, 2, 3, 8] {
            let c = ShardedCompressor::new(RawCompressor::default(), 8)
                .unwrap()
                .with_threads(threads)
                .unwrap();
            payloads.push(c.compress(&g).unwrap().payload.to_vec());
        }
        assert!(payloads.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn roundtrip_lossless_inner_is_exact() {
        let g = grad(257, 1_000_000);
        let c = ShardedCompressor::new(RawCompressor::default(), 7).unwrap();
        let msg = c.compress(&g).unwrap();
        let d = c.decompress(&msg.payload).unwrap();
        assert_eq!(d.keys(), g.keys());
        assert_eq!(d.values(), g.values());
        assert_eq!(d.dim(), g.dim());
    }

    #[test]
    fn sketchml_shards_keep_keys_lossless() {
        let g = grad(400, 5_000_000);
        let c = ShardedCompressor::new(SketchMlCompressor::default(), 4).unwrap();
        let msg = c.compress(&g).unwrap();
        let d = c.decompress(&msg.payload).unwrap();
        assert_eq!(d.keys(), g.keys());
        assert_eq!(d.dim(), g.dim());
    }

    #[test]
    fn report_merges_shard_reports_plus_frame() {
        let g = grad(100, 1_000_000);
        let c = ShardedCompressor::new(RawCompressor::default(), 4).unwrap();
        let msg = c.compress(&g).unwrap();
        let serial = c.compress_shards_serial(&g).unwrap();
        let mut expected = SizeReport::default();
        for m in &serial {
            expected.accumulate(&m.report);
        }
        assert_eq!(msg.report.pairs, expected.pairs);
        assert_eq!(msg.report.key_bytes, expected.key_bytes);
        assert_eq!(msg.report.value_bytes, expected.value_bytes);
        assert!(msg.report.header_bytes > expected.header_bytes);
        assert_eq!(msg.report.total(), msg.payload.len());
    }

    #[test]
    fn corrupt_frames_error_not_panic() {
        let g = grad(64, 100_000);
        let c = ShardedCompressor::new(RawCompressor::default(), 4).unwrap();
        let msg = c.compress(&g).unwrap();
        assert!(c.decompress(&[]).is_err());
        for cut in 0..msg.payload.len().min(64) {
            assert!(c.decompress(&msg.payload[..cut]).is_err());
        }
        let mut trailing = msg.payload.to_vec();
        trailing.push(0);
        assert!(matches!(
            c.decompress(&trailing),
            Err(CompressError::Corrupt(_))
        ));
    }

    #[test]
    fn warm_scratch_matches_fresh_scratch_across_threads() {
        // One scratch (and so one slot pool) carried across thread counts,
        // shard counts that grow and shrink, gradient sizes, inner codecs
        // and an empty gradient: every frame and every decode must equal
        // what a fresh scratch produces.
        let grads = [grad(401, 3_000_000), grad(5, 1_000), grad(64, 100_000)];
        let mut scratch = CompressScratch::new();
        let mut out = BytesMut::new();
        let mut decoded = SparseGradient::empty(0);
        for threads in [1usize, 2, 4] {
            for shards in [1usize, 4, 7] {
                let c = ShardedCompressor::new(SketchMlCompressor::default(), shards)
                    .unwrap()
                    .with_threads(threads)
                    .unwrap();
                for g in &grads {
                    let fresh = c.compress(g).unwrap();
                    let report = c.compress_into(g, &mut scratch, &mut out).unwrap();
                    assert_eq!(
                        &out[..],
                        &fresh.payload[..],
                        "threads={threads} shards={shards}"
                    );
                    assert_eq!(report, fresh.report);
                    c.decompress_into(&out, &mut scratch, &mut decoded).unwrap();
                    assert_eq!(decoded, c.decompress(&fresh.payload).unwrap());
                }
            }
        }
        // Empty gradients keep the single-empty-shard frame.
        let empty = SparseGradient::empty(77);
        let c = ShardedCompressor::new(RawCompressor::default(), 4).unwrap();
        let fresh = c.compress(&empty).unwrap();
        c.compress_into(&empty, &mut scratch, &mut out).unwrap();
        assert_eq!(&out[..], &fresh.payload[..]);
        c.decompress_into(&out, &mut scratch, &mut decoded).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(decoded.dim(), 77);
    }

    #[test]
    fn hostile_shard_count_is_refused_before_the_pool_grows() {
        // varint 65536 + 65,536 zero lengths: a well-formed v1 header over
        // empty shards. Decoding it used to park 65,536 boxed scratches in
        // the receiver's pooled scratch for the life of the process.
        let mut frame = vec![0x80, 0x80, 0x04];
        frame.resize(3 + 65_536, 0);
        assert_eq!(frame.len(), 65_539);
        let c = ShardedCompressor::new(RawCompressor::default(), 4).unwrap();
        let mut scratch = CompressScratch::new();
        let mut decoded = SparseGradient::empty(0);
        let err = c
            .decompress_into(&frame, &mut scratch, &mut decoded)
            .unwrap_err();
        assert!(matches!(err, CompressError::Corrupt(_)), "{err}");
        assert!(scratch.shards.len() <= 4, "{} slots", scratch.shards.len());
        assert!(matches!(
            c.decompress(&frame),
            Err(CompressError::Corrupt(_))
        ));

        // The pool stays bounded by the engine's own shard count in normal
        // use, and the same scratch keeps decoding real frames afterwards.
        let g = grad(64, 100_000);
        let msg = c.compress(&g).unwrap();
        c.decompress_into(&msg.payload, &mut scratch, &mut decoded)
            .unwrap();
        assert_eq!(decoded.keys(), g.keys());
        assert!(scratch.shards.len() <= 4);

        // A frame from an engine with more shards than the receiver is the
        // same refusal; fewer shards decode fine.
        let wide = ShardedCompressor::new(RawCompressor::default(), 8).unwrap();
        let narrow = ShardedCompressor::new(RawCompressor::default(), 2).unwrap();
        assert!(c.decompress(&wide.compress(&g).unwrap().payload).is_err());
        let d = c.decompress(&narrow.compress(&g).unwrap().payload).unwrap();
        assert_eq!(d.keys(), g.keys());
    }

    #[test]
    fn v2_frame_roundtrips_and_still_decodes_v1() {
        let g = grad(257, 1_000_000);
        let v2 = ShardedCompressor::new(RawCompressor::default(), 4)
            .unwrap()
            .with_frame(FrameVersion::V2);
        assert_eq!(v2.frame(), FrameVersion::V2);
        let msg = v2.compress(&g).unwrap();
        assert_eq!(msg.payload[0], framing::V2_SENTINEL);
        let d = v2.decompress(&msg.payload).unwrap();
        assert_eq!(d.keys(), g.keys());
        assert_eq!(d.values(), g.values());

        // A caller-owned scratch yields the same bytes and gradient, v2
        // included.
        let mut scratch = CompressScratch::new();
        let mut out = BytesMut::new();
        let report = v2.compress_into(&g, &mut scratch, &mut out).unwrap();
        assert_eq!(&out[..], &msg.payload[..]);
        assert_eq!(report.total(), msg.payload.len());
        let mut decoded = SparseGradient::empty(0);
        v2.decompress_into(&out, &mut scratch, &mut decoded)
            .unwrap();
        assert_eq!(decoded.keys(), g.keys());
        assert_eq!(decoded.values(), g.values());

        // Decoding is version-agnostic: the v2-configured engine reads v1
        // frames, and vice versa.
        let v1 = ShardedCompressor::new(RawCompressor::default(), 4).unwrap();
        let old = v1.compress(&g).unwrap();
        assert_eq!(v2.decompress(&old.payload).unwrap().keys(), g.keys());
        assert_eq!(v1.decompress(&msg.payload).unwrap().keys(), g.keys());
        // v2 costs exactly sentinel + version + one CRC32 per shard.
        assert_eq!(msg.payload.len(), old.payload.len() + 2 + 4 * 4);
    }

    #[test]
    fn v2_detects_every_single_bit_flip() {
        let g = grad(32, 10_000);
        let c = ShardedCompressor::new(RawCompressor::default(), 2)
            .unwrap()
            .with_frame(FrameVersion::V2);
        let msg = c.compress(&g).unwrap();
        let mut scratch = CompressScratch::new();
        let mut decoded = SparseGradient::empty(0);
        let mut bytes = msg.payload.to_vec();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                bytes[byte] ^= 1 << bit;
                assert!(c.decompress(&bytes).is_err(), "flip {byte}:{bit}");
                assert!(
                    c.decompress_into(&bytes, &mut scratch, &mut decoded)
                        .is_err(),
                    "flip {byte}:{bit}"
                );
                bytes[byte] ^= 1 << bit;
            }
        }
        // The pristine payload still decodes after all that.
        assert_eq!(c.decompress(&bytes).unwrap().keys(), g.keys());
    }

    #[test]
    fn config_bounds_enforced() {
        assert!(ShardedCompressor::new(RawCompressor::default(), 0).is_err());
        assert!(ShardedCompressor::new(RawCompressor::default(), 4)
            .unwrap()
            .with_threads(0)
            .is_err());
    }
}
