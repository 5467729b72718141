//! Dynamic delta-binary encoding of gradient keys (paper §3.4, Figure 7).
//!
//! The codec exploits three properties of sparse-gradient keys: they are
//! non-repetitive, ascending, and — although a key itself can be huge for a
//! high-dimensional model — the *difference* between neighbouring keys is
//! small.
//!
//! **Step 1 (delta encoding)**: replace each key with its increment over the
//! previous key (the first key keeps its absolute value).
//!
//! **Step 2 (binary encoding)**: a threshold module maps each delta to the
//! least number of bytes that holds it — 1 byte for `[0, 255]`, 2 for
//! `[256, 65535]`, 3 for `[65536, 16777215]`, 4 for `[16777216, 2^32 - 1]` —
//! and records the choice in a 2-bit *byte flag* (`00` = 1 byte, `01` = 2,
//! `10` = 3, `11` = 4). Flags are packed four per byte ahead of the
//! payload, costing 1/4 byte per key (Appendix A.3's "two flag bits").
//!
//! Wire layout produced by [`encode_keys_into`]:
//!
//! ```text
//! varint n | ⌈n/4⌉ flag bytes | Σ payload bytes (little-endian, 1–4 each)
//! ```

use crate::error::EncodingError;
use crate::varint;
use bytes::BytesMut;

/// Number of payload bytes selected by the threshold module for `delta`
/// (§3.4 Step 2). Always in `1..=4`.
#[inline]
pub fn bytes_needed(delta: u32) -> usize {
    match delta {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFF_FFFF => 3,
        _ => 4,
    }
}

/// Finds the first key the byte-flag scheme cannot carry, allocating
/// nothing: the encoders only flag a violation on their hot path and call
/// this to name it, with the errors [`encode_keys_into`] documents.
fn check_keys(keys: &[u64]) -> Result<(), EncodingError> {
    let mut prev: Option<u64> = None;
    for (i, &k) in keys.iter().enumerate() {
        let delta = match prev {
            None => k,
            Some(p) if k > p => k - p,
            Some(p) if k == p => return Err(EncodingError::DuplicateKey { key: k, offset: i }),
            Some(p) => {
                return Err(EncodingError::InvalidInput(format!(
                    "keys must be strictly ascending: keys[{i}] = {k} < keys[{}] = {p}",
                    i - 1
                )))
            }
        };
        if delta > u64::from(u32::MAX) {
            return Err(EncodingError::InvalidInput(format!(
                "delta {delta} at position {i} exceeds the 4-byte maximum"
            )));
        }
        prev = Some(k);
    }
    Ok(())
}

/// Encodes a strictly ascending key array onto the tail of `out` using
/// delta-binary encoding (§3.4): the 2-bit byte flags are reserved up front
/// (zeroed) and back-patched while the payload bytes stream out, so no
/// intermediate delta array is materialized. Returns the number of bytes
/// appended.
///
/// # Errors
/// [`EncodingError::DuplicateKey`] if a key repeats (a merged shard stream
/// that was concatenated instead of summed), [`EncodingError::InvalidInput`]
/// if keys descend or a delta (or the first key) exceeds `u32::MAX`, the
/// 4-byte maximum of the byte-flag scheme. On error the tail of `out` past
/// its original length is unspecified.
pub fn encode_keys_into(keys: &[u64], out: &mut BytesMut) -> Result<usize, EncodingError> {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::lanes_active() {
        return encode_keys_into_lanes(keys, out);
    }
    encode_keys_into_scalar(keys, out)
}

/// Scalar reference implementation of [`encode_keys_into`].
fn encode_keys_into_scalar(keys: &[u64], out: &mut BytesMut) -> Result<usize, EncodingError> {
    let n = keys.len();
    let start = out.len();
    varint::write_u64(out, n as u64);
    let flag_at = out.len();
    let payload_at = flag_at + n.div_ceil(4);
    // Reserve the 4-bytes-per-delta worst case up front (zero-filled — the
    // flag bytes need the zeros, the payload tail is truncated off below) so
    // the hot loop runs with no capacity checks and no data-dependent
    // branches: every delta is stored as an unconditional 4-byte overlapping
    // little-endian write and the cursor advances by the true width, which
    // the next write's low bytes then overwrite.
    out.resize(payload_at + 4 * n, 0);
    let data: &mut [u8] = out;
    let mut bad = false;
    let mut prev = 0u64;
    let mut pos = payload_at;
    encode_run_scalar(keys, 0, data, flag_at, &mut prev, &mut pos, &mut bad);
    if bad {
        // Name the first bad key (`out`'s tail is unspecified on error).
        check_keys(keys)?;
        debug_assert!(false, "validity flag set but check_keys passed");
    }
    out.truncate(pos);
    Ok(out.len() - start)
}

/// Hot scalar run shared by the pure-scalar path and the lane path's
/// prologue/tail: encodes `keys` (absolute indices starting at `i0`) with
/// carried `prev`/`pos`/`bad` state.
#[inline]
fn encode_run_scalar(
    keys: &[u64],
    i0: usize,
    data: &mut [u8],
    flag_at: usize,
    prev: &mut u64,
    pos: &mut usize,
    bad: &mut bool,
) {
    let mut p = *prev;
    let mut at = *pos;
    let mut b = *bad;
    for (off, &k) in keys.iter().enumerate() {
        let i = i0 + off;
        let d64 = k.wrapping_sub(p);
        // Violations (duplicate / descending / >4-byte delta) only set a
        // flag here; the classic typed error is reproduced by the caller.
        b |= (i != 0 && k <= p) | (d64 > u64::from(u32::MAX));
        p = k;
        let d = d64 as u32;
        // Branchless threshold module: bytes to hold the highest set bit.
        let bits = 32 - (d | 1).leading_zeros() as usize;
        let nb = (bits + 7) >> 3;
        data[flag_at + i / 4] |= ((nb - 1) as u8) << ((i % 4) * 2);
        data[at..at + 4].copy_from_slice(&d.to_le_bytes());
        at += nb;
    }
    *prev = p;
    *pos = at;
    *bad = b;
}

/// Lane-dispatched variant of [`encode_keys_into_scalar`]: a 4-key scalar
/// prologue aligns the stream so the AVX2 middle emits whole flag bytes,
/// and a scalar tail finishes the remainder. Byte-identical output.
#[cfg(target_arch = "x86_64")]
fn encode_keys_into_lanes(keys: &[u64], out: &mut BytesMut) -> Result<usize, EncodingError> {
    let n = keys.len();
    let start = out.len();
    varint::write_u64(out, n as u64);
    let flag_at = out.len();
    let payload_at = flag_at + n.div_ceil(4);
    out.resize(payload_at + 4 * n, 0);
    let data: &mut [u8] = out;
    let mut prev = 0u64;
    let mut pos = payload_at;
    let mut bad = false;
    let p0 = n.min(4);
    encode_run_scalar(&keys[..p0], 0, data, flag_at, &mut prev, &mut pos, &mut bad);
    let mid_end = if n >= 8 {
        // SAFETY: AVX2 verified by `lanes_active` in the dispatcher.
        unsafe { encode_mid_avx2(keys, data, flag_at, &mut pos, &mut bad) }
    } else {
        p0
    };
    if mid_end > p0 {
        prev = keys[mid_end - 1];
    }
    encode_run_scalar(
        &keys[mid_end..],
        mid_end,
        data,
        flag_at,
        &mut prev,
        &mut pos,
        &mut bad,
    );
    if bad {
        check_keys(keys)?;
        debug_assert!(false, "validity flag set but check_keys passed");
    }
    out.truncate(pos);
    Ok(out.len() - start)
}

/// AVX2 middle loop of the delta-binary encoder: four keys per iteration.
/// Deltas come from an offset-by-one unaligned load; the §3.4 threshold
/// module becomes three 64-bit compares whose mask sum is `-(nb - 1)` per
/// lane, which both packs one whole flag byte and advances the payload
/// cursor. Validity (ascending, 4-byte deltas) is accumulated as a vector
/// mask and folded into `bad` once at the end — the error path re-checks
/// scalar anyway. Starts at absolute index 4 (the prologue's work) and
/// returns the first index not consumed (a multiple of 4).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn encode_mid_avx2(
    keys: &[u64],
    data: &mut [u8],
    flag_at: usize,
    pos: &mut usize,
    bad: &mut bool,
) -> usize {
    use core::arch::x86_64::*;
    let n = keys.len();
    debug_assert!(n >= 8);
    let msb = _mm256_set1_epi64x(i64::MIN);
    let ones = _mm256_set1_epi64x(-1);
    // `u32::MAX` with the sign bit flipped, for the unsigned width check.
    let max32f = _mm256_set1_epi64x((0xFFFF_FFFFu64 ^ (1u64 << 63)) as i64);
    let t1 = _mm256_set1_epi64x(0xFF);
    let t2 = _mm256_set1_epi64x(0xFFFF);
    let t3 = _mm256_set1_epi64x(0xFF_FFFF);
    let mut badv = _mm256_setzero_si256();
    let mut at = *pos;
    let mut i = 4usize;
    while i + 4 <= n {
        let k = _mm256_loadu_si256(keys.as_ptr().add(i).cast());
        let pm = _mm256_loadu_si256(keys.as_ptr().add(i - 1).cast());
        let d = _mm256_sub_epi64(k, pm);
        // Unsigned `k > prev` via the sign-flip trick (AVX2 compares are
        // signed); a lane that fails is a duplicate or descending key.
        let ascending = _mm256_cmpgt_epi64(_mm256_xor_si256(k, msb), _mm256_xor_si256(pm, msb));
        let big = _mm256_cmpgt_epi64(_mm256_xor_si256(d, msb), max32f);
        badv = _mm256_or_si256(
            badv,
            _mm256_or_si256(_mm256_andnot_si256(ascending, ones), big),
        );
        let c = _mm256_add_epi64(
            _mm256_add_epi64(_mm256_cmpgt_epi64(d, t1), _mm256_cmpgt_epi64(d, t2)),
            _mm256_cmpgt_epi64(d, t3),
        );
        let mut ds = [0u64; 4];
        let mut cs = [0i64; 4];
        _mm256_storeu_si256(ds.as_mut_ptr().cast(), d);
        _mm256_storeu_si256(cs.as_mut_ptr().cast(), c);
        let flag = (-cs[0]) as u8
            | (((-cs[1]) as u8) << 2)
            | (((-cs[2]) as u8) << 4)
            | (((-cs[3]) as u8) << 6);
        data[flag_at + i / 4] = flag;
        for j in 0..4 {
            data[at..at + 4].copy_from_slice(&(ds[j] as u32).to_le_bytes());
            at += 1 + (-cs[j]) as usize;
        }
        i += 4;
    }
    *bad |= _mm256_testz_si256(badv, badv) == 0;
    *pos = at;
    i
}

/// Single-pass decode of [`encode_keys_into`] output from the front of
/// `buf` into a reusable buffer, advancing `buf` past it: each delta is
/// read, accumulated, and pushed as a key in one loop, with flags and
/// payload read in place — nothing is allocated beyond `out`'s growth.
/// `out` is cleared first.
///
/// # Errors
/// [`EncodingError::UnexpectedEof`] on truncated input (with `out` contents
/// unspecified).
pub fn decode_keys_into(buf: &mut &[u8], out: &mut Vec<u64>) -> Result<(), EncodingError> {
    let n = varint::read_u64(buf)? as usize;
    out.clear();
    let flag_len = n.div_ceil(4);
    if buf.len() < flag_len {
        return Err(EncodingError::UnexpectedEof {
            context: "byte flags",
        });
    }
    out.reserve(n);
    let used = decode_contiguous(buf, n, flag_len, out)?;
    *buf = &buf[used..];
    Ok(())
}

/// Decodes `n` keys from `data` (`flag_len` flag bytes, then the payload),
/// appending them to `out`; returns the bytes consumed. While 16 payload
/// bytes are readable — the most four keys can take — a whole flag byte is
/// decoded at once: each delta is an unconditional 4-byte little-endian
/// load masked down to its width, so the loop carries no per-key length
/// check. The last bytes and the `n % 4` tail go through the per-key
/// checked loop, so no read leaves `data`.
fn decode_contiguous(
    data: &[u8],
    n: usize,
    flag_len: usize,
    out: &mut Vec<u64>,
) -> Result<usize, EncodingError> {
    const MASK: [u32; 4] = [0xFF, 0xFFFF, 0xFF_FFFF, u32::MAX];
    let (flags, payload) = data.split_at(flag_len);
    let mut pos = 0usize;
    let mut acc = 0u64;
    let mut i = 0usize;
    while i + 4 <= n {
        let Some(window) = payload.get(pos..pos + 16) else {
            break;
        };
        let flag = flags[i / 4] as usize;
        let mut at = 0usize;
        let mut quad = [0u64; 4];
        for (lane, key) in quad.iter_mut().enumerate() {
            let width = (flag >> (2 * lane)) & 0b11;
            let le: [u8; 4] = window[at..at + 4].try_into().expect("4-byte window");
            acc += u64::from(u32::from_le_bytes(le) & MASK[width]);
            *key = acc;
            at += width + 1;
        }
        out.extend_from_slice(&quad);
        pos += at;
        i += 4;
    }
    for i in i..n {
        let nb = ((flags[i / 4] >> ((i % 4) * 2)) & 0b11) as usize + 1;
        let Some(bytes) = payload.get(pos..pos + nb) else {
            return Err(EncodingError::UnexpectedEof {
                context: "delta payload",
            });
        };
        let mut le = [0u8; 4];
        le[..nb].copy_from_slice(bytes);
        pos += nb;
        acc += u64::from(u32::from_le_bytes(le));
        out.push(acc);
    }
    Ok(flag_len + pos)
}

/// Average bytes consumed per key — the statistic Figure 8(d) tracks
/// ("Bytes Per Key", ~1.25–1.27 in the paper). Excludes the count varint.
///
/// # Errors
/// As [`encode_keys_into`].
pub fn bytes_per_key(keys: &[u64]) -> Result<f64, EncodingError> {
    if keys.is_empty() {
        return Ok(0.0);
    }
    check_keys(keys)?;
    // The first key's delta is the key itself.
    let payload: usize = std::iter::once(0)
        .chain(keys.iter().copied())
        .zip(keys)
        .map(|(prev, &k)| bytes_needed((k - prev) as u32))
        .sum();
    let flags = keys.len().div_ceil(4);
    Ok((payload + flags) as f64 / keys.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// The delta keys of a strictly ascending key array (§3.4 Step 1): the
    /// first entry is the first key itself, entry `i > 0` is
    /// `keys[i] - keys[i-1]`. The reference [`encode_keys`] is written over.
    fn delta_transform(keys: &[u64]) -> Result<Vec<u32>, EncodingError> {
        check_keys(keys)?;
        let mut prev = 0;
        Ok(keys
            .iter()
            .map(|&k| {
                let delta = (k - prev) as u32;
                prev = k;
                delta
            })
            .collect())
    }

    /// The allocating encoder the streaming ones are held to: deltas first,
    /// then the flag bytes, then each delta's low bytes.
    fn encode_keys(keys: &[u64], out: &mut impl BufMut) -> Result<usize, EncodingError> {
        let deltas = delta_transform(keys)?;
        let n = deltas.len();
        varint::write_u64(out, n as u64);
        let mut flag_bytes = vec![0u8; n.div_ceil(4)];
        for (i, &d) in deltas.iter().enumerate() {
            flag_bytes[i / 4] |= ((bytes_needed(d) - 1) as u8) << ((i % 4) * 2);
        }
        out.put_slice(&flag_bytes);
        let mut written = varint::encoded_len(n as u64) + flag_bytes.len();
        for &d in &deltas {
            let nb = bytes_needed(d);
            out.put_slice(&d.to_le_bytes()[..nb]);
            written += nb;
        }
        Ok(written)
    }

    /// Encodes with the shipped encoder, holds it to [`encode_keys`] and
    /// decodes the bytes back.
    fn roundtrip(keys: &[u64]) -> Vec<u64> {
        let mut buf = BytesMut::new();
        let written = encode_keys_into(keys, &mut buf).unwrap();
        assert_eq!(written, buf.len());
        let mut reference = BytesMut::new();
        assert_eq!(encode_keys(keys, &mut reference).unwrap(), written);
        assert_eq!(buf, reference, "streaming encode diverged");
        let mut view = &buf[..];
        let mut decoded = Vec::new();
        decode_keys_into(&mut view, &mut decoded).unwrap();
        assert!(view.is_empty(), "decoder must consume exactly its bytes");
        decoded
    }

    #[test]
    fn paper_figure7_example() {
        // Figure 7's running example of §3.4.
        let keys = [702u64, 735, 1244, 2516, 3536, 3786, 4187, 4195];
        let deltas = delta_transform(&keys).unwrap();
        assert_eq!(deltas, vec![702, 33, 509, 1272, 1020, 250, 401, 8]);
        // Byte widths: 702→2, 33→1, 509→2, 1272→2, 1020→2, 250→1, 401→2, 8→1.
        let widths: Vec<usize> = deltas.iter().map(|&d| bytes_needed(d)).collect();
        assert_eq!(widths, vec![2, 1, 2, 2, 2, 1, 2, 1]);
        assert_eq!(roundtrip(&keys), keys);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(roundtrip(&[]), Vec::<u64>::new());
        assert_eq!(roundtrip(&[0]), vec![0]);
        assert_eq!(roundtrip(&[4_000_000_000]), vec![4_000_000_000]);
    }

    #[test]
    fn threshold_boundaries() {
        assert_eq!(bytes_needed(0), 1);
        assert_eq!(bytes_needed(255), 1);
        assert_eq!(bytes_needed(256), 2);
        assert_eq!(bytes_needed(65_535), 2);
        assert_eq!(bytes_needed(65_536), 3);
        assert_eq!(bytes_needed(16_777_215), 3);
        assert_eq!(bytes_needed(16_777_216), 4);
        assert_eq!(bytes_needed(u32::MAX), 4);
    }

    #[test]
    fn keys_crossing_all_width_classes() {
        let keys = [
            10u64,
            10 + 255,
            10 + 255 + 65_535,
            10 + 255 + 65_535 + 16_777_215,
            10 + 255 + 65_535 + 16_777_215 + u32::MAX as u64,
        ];
        assert_eq!(roundtrip(&keys), keys);
    }

    #[test]
    fn random_ascending_keys_roundtrip() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..50 {
            let n = rng.gen_range(1..2000);
            let mut keys: Vec<u64> = Vec::with_capacity(n);
            let mut cur = 0u64;
            for _ in 0..n {
                cur += rng.gen_range(1..100_000u64);
                keys.push(cur);
            }
            assert_eq!(roundtrip(&keys), keys);
        }
    }

    #[test]
    fn duplicate_keys_are_a_typed_error() {
        // A concatenated (unsummed) shard union repeats keys; the encoder
        // must name the offending key *and its position* rather than emit
        // a zero delta. The offset disambiguates *which* repeat tripped the
        // check when the same key value appears twice in a bad merge.
        for (keys, key, offset) in [
            (&[3u64, 7, 7, 9][..], 7, 2),
            (&[1, 1], 1, 1),
            (&[10, 20, 30, 30, 40, 40], 30, 3),
        ] {
            let want = EncodingError::DuplicateKey { key, offset };
            let got = encode_keys_into(keys, &mut BytesMut::new());
            assert_eq!(got.unwrap_err(), want);
            assert_eq!(delta_transform(keys).unwrap_err(), want);
        }
        // The rendered message carries both coordinates.
        let msg = EncodingError::DuplicateKey { key: 30, offset: 3 }.to_string();
        assert!(msg.contains("30") && msg.contains("offset 3"), "{msg}");
    }

    #[test]
    fn descending_and_oversized_keys_are_invalid_input() {
        for keys in [
            &[5u64, 3][..],
            &[0, u32::MAX as u64 + 1],
            // First key too large is also a delta.
            &[u32::MAX as u64 + 1],
        ] {
            assert!(matches!(
                encode_keys_into(keys, &mut BytesMut::new()),
                Err(EncodingError::InvalidInput(_))
            ));
            assert!(matches!(
                delta_transform(keys),
                Err(EncodingError::InvalidInput(_))
            ));
        }
    }

    #[test]
    fn decode_reuses_buffer_and_rejects_every_truncation() {
        let keys: Vec<u64> = (0..200).map(|i| i * 11 + 5).collect();
        let mut buf = BytesMut::new();
        encode_keys_into(&keys, &mut buf).unwrap();
        let mut out = vec![99u64; 3]; // stale content must be cleared
        let mut view = &buf[..];
        decode_keys_into(&mut view, &mut out).unwrap();
        assert_eq!(out, keys);
        for cut in 0..buf.len() {
            let mut partial = &buf[..cut];
            assert!(matches!(
                decode_keys_into(&mut partial, &mut out),
                Err(EncodingError::UnexpectedEof { .. })
            ));
        }
    }

    #[test]
    fn dense_keys_cost_about_125_bytes_each() {
        // Deltas of 1..=255 take 1 payload byte + 1/4 flag byte each —
        // the ~1.25 bytes/key regime of Figure 8(d).
        let keys: Vec<u64> = (0..10_000u64).map(|i| i * 30).collect();
        let bpk = bytes_per_key(&keys).unwrap();
        assert!((1.2..=1.3).contains(&bpk), "bytes/key = {bpk}");
    }

    #[test]
    fn sparser_keys_cost_more() {
        let dense: Vec<u64> = (0..5_000u64).map(|i| i * 100).collect();
        let sparse: Vec<u64> = (0..5_000u64).map(|i| i * 100_000).collect();
        assert!(bytes_per_key(&sparse).unwrap() > bytes_per_key(&dense).unwrap());
        assert_eq!(bytes_per_key(&[]).unwrap(), 0.0);
    }

    #[test]
    fn bytes_per_key_is_the_encoded_size_without_the_count() {
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..20 {
            let mut cur = 0u64;
            let keys: Vec<u64> = (0..rng.gen_range(1..700))
                .map(|_| {
                    cur += rng.gen_range(1..40_000_000u64);
                    cur
                })
                .collect();
            let mut buf = BytesMut::new();
            let n = encode_keys_into(&keys, &mut buf).unwrap();
            let body = n - varint::encoded_len(keys.len() as u64);
            let bpk = bytes_per_key(&keys).unwrap();
            assert_eq!(bpk, body as f64 / keys.len() as f64);
        }
        assert!(bytes_per_key(&[5, 5]).is_err());
    }

    #[test]
    fn large_deltas_roundtrip() {
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..40 {
            let n = rng.gen_range(0..1500);
            let mut keys: Vec<u64> = Vec::with_capacity(n);
            let mut cur = 0u64;
            for _ in 0..n {
                cur += rng.gen_range(1..40_000_000u64);
                keys.push(cur);
            }
            assert_eq!(roundtrip(&keys), keys);
        }
    }

    /// The AVX2 packer against [`encode_keys_into_scalar`], called directly
    /// so the comparison does not depend on the process-wide `force_scalar`
    /// toggle: every tail length around the 4-key stride, deltas on both
    /// sides of all four width thresholds in every lane position, and the
    /// same typed error for a bad key in the prologue, the AVX2 middle and
    /// the scalar tail.
    #[test]
    fn lane_encode_matches_scalar_encode() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let both = |keys: &[u64]| {
                // A non-empty prefix: both paths append to what is there.
                let mut lane = BytesMut::from(&b"hdr"[..]);
                let mut scalar = BytesMut::from(&b"hdr"[..]);
                let got = encode_keys_into_lanes(keys, &mut lane);
                let want = encode_keys_into_scalar(keys, &mut scalar);
                assert_eq!(got, want, "result for {keys:?}");
                if got.is_ok() {
                    assert_eq!(&lane[..], &scalar[..], "bytes for {keys:?}");
                }
                got
            };
            const DELTAS: [u64; 8] = [
                1,
                0xFF,
                0x100,
                0xFFFF,
                0x1_0000,
                0xFF_FFFF,
                0x100_0000,
                u32::MAX as u64,
            ];
            for n in (0..=9).chain(32..=41).chain([255, 256, 257, 1000]) {
                for phase in 0..DELTAS.len() {
                    let mut cur = 0u64;
                    let keys: Vec<u64> = (0..n)
                        .map(|i| {
                            cur += DELTAS[(i + phase) % DELTAS.len()];
                            cur
                        })
                        .collect();
                    assert!(both(&keys).is_ok());
                }
            }

            let good: Vec<u64> = (1..=21u64).map(|i| i * 1000).collect();
            for at in 0..good.len() {
                let mut oversized = good.clone();
                for k in &mut oversized[at..] {
                    *k += 1 << 32;
                }
                assert!(matches!(
                    both(&oversized),
                    Err(EncodingError::InvalidInput(_))
                ));
                if at == 0 {
                    continue;
                }
                let mut duplicate = good.clone();
                duplicate[at] = duplicate[at - 1];
                let key = duplicate[at];
                assert_eq!(
                    both(&duplicate),
                    Err(EncodingError::DuplicateKey { key, offset: at })
                );
                let mut unsorted = good.clone();
                unsorted[at] = unsorted[at - 1] - 1;
                assert!(matches!(
                    both(&unsorted),
                    Err(EncodingError::InvalidInput(_))
                ));
            }
            return;
        }
        println!("lane_encode_matches_scalar_encode: no AVX2 on this CPU, lane not compared");
    }

    #[test]
    fn beats_raw_four_byte_keys() {
        // §3.4: "3.2× smaller for a four-byte integer".
        let mut rng = StdRng::seed_from_u64(32);
        let mut cur = 0u64;
        let keys: Vec<u64> = (0..20_000)
            .map(|_| {
                cur += rng.gen_range(1..60u64);
                cur
            })
            .collect();
        let encoded = encode_keys_into(&keys, &mut BytesMut::new()).unwrap() as f64;
        let raw = 4.0 * keys.len() as f64;
        assert!(
            raw / encoded > 2.5,
            "compression rate {} too low",
            raw / encoded
        );
    }
}
