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
//! Wire layout produced by [`encode_keys`]:
//!
//! ```text
//! varint n | ⌈n/4⌉ flag bytes | Σ payload bytes (little-endian, 1–4 each)
//! ```

use crate::error::EncodingError;
use crate::varint;
use bytes::{Buf, BufMut, BytesMut};

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

/// Computes the delta keys of a strictly ascending key array (§3.4 Step 1).
///
/// The first entry is the first key itself; entry `i > 0` is
/// `keys[i] - keys[i-1]`.
///
/// # Errors
/// [`EncodingError::DuplicateKey`] if a key repeats (a merged shard stream
/// that was concatenated instead of summed), [`EncodingError::InvalidInput`]
/// if keys descend or a delta (or the first key) exceeds `u32::MAX`, the
/// 4-byte maximum of the byte-flag scheme.
pub fn delta_transform(keys: &[u64]) -> Result<Vec<u32>, EncodingError> {
    let mut out = Vec::with_capacity(keys.len());
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
        let delta = u32::try_from(delta).map_err(|_| {
            EncodingError::InvalidInput(format!(
                "delta {delta} at position {i} exceeds the 4-byte maximum"
            ))
        })?;
        out.push(delta);
        prev = Some(k);
    }
    Ok(out)
}

/// Inverse of [`delta_transform`].
pub fn delta_restore(deltas: &[u32]) -> Vec<u64> {
    let mut out = Vec::with_capacity(deltas.len());
    let mut acc: u64 = 0;
    for &d in deltas {
        acc += u64::from(d);
        out.push(acc);
    }
    out
}

/// Encodes a strictly ascending key array into `out` using delta-binary
/// encoding. Returns the number of bytes written.
///
/// # Errors
/// See [`delta_transform`].
pub fn encode_keys(keys: &[u64], out: &mut impl BufMut) -> Result<usize, EncodingError> {
    let deltas = delta_transform(keys)?;
    let n = deltas.len();
    let mut written = varint::encoded_len(n as u64);
    varint::write_u64(out, n as u64);

    // Byte flags, packed four per byte, LSB-first within each byte.
    let mut flag_bytes = vec![0u8; n.div_ceil(4)];
    for (i, &d) in deltas.iter().enumerate() {
        let flag = (bytes_needed(d) - 1) as u8; // 00..11
        flag_bytes[i / 4] |= flag << ((i % 4) * 2);
    }
    out.put_slice(&flag_bytes);
    written += flag_bytes.len();

    for &d in &deltas {
        let nb = bytes_needed(d);
        out.put_slice(&d.to_le_bytes()[..nb]);
        written += nb;
    }
    Ok(written)
}

/// Streaming variant of [`encode_keys`] writing into a [`BytesMut`]: the
/// 2-bit byte flags are reserved up front (zeroed) and back-patched while the
/// payload bytes stream out, so no intermediate delta array is materialized.
/// Byte-for-byte identical output to [`encode_keys`]. Returns the number of
/// bytes appended.
///
/// # Errors
/// See [`delta_transform`]. On error the tail of `out` past its original
/// length is unspecified.
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
        // Re-run the checking transform to surface the exact error the
        // allocating path reports (`out`'s tail is unspecified on error).
        delta_transform(keys)?;
        debug_assert!(false, "validity flag set but delta_transform passed");
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
        delta_transform(keys)?;
        debug_assert!(false, "validity flag set but delta_transform passed");
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

/// Decodes a key array previously written by [`encode_keys`].
///
/// # Errors
/// [`EncodingError::UnexpectedEof`] on truncated input.
pub fn decode_keys(buf: &mut impl Buf) -> Result<Vec<u64>, EncodingError> {
    let mut out = Vec::new();
    decode_keys_into(buf, &mut out)?;
    Ok(out)
}

/// Single-pass decode of [`encode_keys`] output into a reusable buffer: each
/// delta is read, accumulated, and pushed as a key in one loop — no
/// intermediate delta vector. `out` is cleared first.
///
/// Every caller in the tree hands over a slice (`&mut &[u8]`) and so takes
/// the contiguous branch, which reads flags and payload in place and
/// allocates nothing beyond `out`'s growth. A `Buf` whose first chunk is not
/// all of it takes the fragmented branch, which copies the flag bytes to the
/// heap first.
///
/// # Errors
/// [`EncodingError::UnexpectedEof`] on truncated input (with `out` contents
/// unspecified).
pub fn decode_keys_into(buf: &mut impl Buf, out: &mut Vec<u64>) -> Result<(), EncodingError> {
    let n = varint::read_u64(buf)? as usize;
    out.clear();
    let flag_len = n.div_ceil(4);
    if buf.remaining() < flag_len {
        return Err(EncodingError::UnexpectedEof {
            context: "byte flags",
        });
    }
    out.reserve(n);

    if buf.chunk().len() == buf.remaining() {
        let used = decode_contiguous(buf.chunk(), n, flag_len, out)?;
        buf.advance(used);
        return Ok(());
    }

    let mut flag_bytes = vec![0u8; flag_len];
    buf.copy_to_slice(&mut flag_bytes);
    let mut acc = 0u64;
    for i in 0..n {
        let flag = (flag_bytes[i / 4] >> ((i % 4) * 2)) & 0b11;
        let nb = flag as usize + 1;
        if buf.remaining() < nb {
            return Err(EncodingError::UnexpectedEof {
                context: "delta payload",
            });
        }
        let mut le = [0u8; 4];
        buf.copy_to_slice(&mut le[..nb]);
        acc += u64::from(u32::from_le_bytes(le));
        out.push(acc);
    }
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

/// Exact encoded size in bytes of `keys` without materializing the buffer.
///
/// # Errors
/// See [`delta_transform`].
pub fn encoded_len(keys: &[u64]) -> Result<usize, EncodingError> {
    let deltas = delta_transform(keys)?;
    let n = deltas.len();
    Ok(varint::encoded_len(n as u64)
        + n.div_ceil(4)
        + deltas.iter().map(|&d| bytes_needed(d)).sum::<usize>())
}

/// Merges two strictly ascending key arrays into their sorted union (each
/// shared key appearing once), appending to `out` (cleared first). This is
/// the key-union step of collective merge: the result is guaranteed to
/// re-encode through [`encode_keys`] without tripping the duplicate check.
///
/// # Errors
/// [`EncodingError::DuplicateKey`] / [`EncodingError::InvalidInput`] if
/// either *input* repeats or descends — a corrupt increment stream upstream,
/// surfaced here instead of silently poisoning the union.
pub fn union_keys_into(a: &[u64], b: &[u64], out: &mut Vec<u64>) -> Result<(), EncodingError> {
    fn check_ascending(keys: &[u64]) -> Result<(), EncodingError> {
        for (i, w) in keys.windows(2).enumerate() {
            if w[1] == w[0] {
                // `i + 1` is the index of the repeated occurrence.
                return Err(EncodingError::DuplicateKey {
                    key: w[0],
                    offset: i + 1,
                });
            }
            if w[1] < w[0] {
                return Err(EncodingError::InvalidInput(format!(
                    "keys must be strictly ascending: {} < {}",
                    w[1], w[0]
                )));
            }
        }
        Ok(())
    }
    check_ascending(a)?;
    check_ascending(b)?;
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    Ok(())
}

/// Average bytes consumed per key — the statistic Figure 8(d) tracks
/// ("Bytes Per Key", ~1.25–1.27 in the paper). Excludes the count varint.
///
/// # Errors
/// See [`delta_transform`].
pub fn bytes_per_key(keys: &[u64]) -> Result<f64, EncodingError> {
    if keys.is_empty() {
        return Ok(0.0);
    }
    let deltas = delta_transform(keys)?;
    let payload: usize = deltas.iter().map(|&d| bytes_needed(d)).sum();
    let flags = keys.len().div_ceil(4);
    Ok((payload + flags) as f64 / keys.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn roundtrip(keys: &[u64]) -> Vec<u64> {
        let mut buf = BytesMut::new();
        let written = encode_keys(keys, &mut buf).unwrap();
        assert_eq!(written, buf.len());
        assert_eq!(written, encoded_len(keys).unwrap());
        let mut bytes = buf.freeze();
        let decoded = decode_keys(&mut bytes).unwrap();
        assert_eq!(
            bytes.remaining(),
            0,
            "decoder must consume exactly its bytes"
        );
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
    fn non_ascending_rejected() {
        assert!(encode_keys(&[5, 5], &mut BytesMut::new()).is_err());
        assert!(encode_keys(&[5, 3], &mut BytesMut::new()).is_err());
    }

    #[test]
    fn duplicate_keys_are_a_typed_error() {
        // A concatenated (unsummed) shard union repeats keys; both encode
        // paths must name the offending key *and its position* rather than
        // emit a zero delta.
        for result in [
            encode_keys(&[3, 7, 7, 9], &mut BytesMut::new()),
            encode_keys_into(&[3, 7, 7, 9], &mut BytesMut::new()).map(|_| 0),
        ] {
            assert_eq!(
                result,
                Err(EncodingError::DuplicateKey { key: 7, offset: 2 })
            );
        }
        assert_eq!(
            delta_transform(&[1, 1]),
            Err(EncodingError::DuplicateKey { key: 1, offset: 1 })
        );
        // Descending stays the generic invalid-input error.
        assert!(matches!(
            delta_transform(&[5, 3]),
            Err(EncodingError::InvalidInput(_))
        ));
    }

    #[test]
    fn duplicate_key_offset_points_at_second_occurrence() {
        // The offset disambiguates *which* repeat tripped the check when the
        // same key value legitimately appears far apart in a bad merge.
        let keys = [10u64, 20, 30, 30, 40, 40];
        assert_eq!(
            delta_transform(&keys),
            Err(EncodingError::DuplicateKey { key: 30, offset: 3 })
        );
        assert_eq!(
            encode_keys(&keys, &mut BytesMut::new()),
            Err(EncodingError::DuplicateKey { key: 30, offset: 3 })
        );
        assert_eq!(
            encode_keys_into(&keys, &mut BytesMut::new()),
            Err(EncodingError::DuplicateKey { key: 30, offset: 3 })
        );
        let mut out = Vec::new();
        assert_eq!(
            union_keys_into(&keys, &[], &mut out),
            Err(EncodingError::DuplicateKey { key: 30, offset: 3 })
        );
        // The rendered message carries both coordinates.
        let msg = EncodingError::DuplicateKey { key: 30, offset: 3 }.to_string();
        assert!(msg.contains("30") && msg.contains("offset 3"), "{msg}");
    }

    #[test]
    fn union_keys_merges_and_dedups() {
        let mut out = Vec::new();
        union_keys_into(&[1, 4, 9], &[2, 4, 10], &mut out).unwrap();
        assert_eq!(out, vec![1, 2, 4, 9, 10]);
        union_keys_into(&[], &[7], &mut out).unwrap();
        assert_eq!(out, vec![7]);
        union_keys_into(&[7], &[], &mut out).unwrap();
        assert_eq!(out, vec![7]);
        // The union always re-encodes cleanly.
        let mut buf = BytesMut::new();
        union_keys_into(&[1, 4, 9], &[2, 4, 10], &mut out).unwrap();
        encode_keys(&out, &mut buf).unwrap();
    }

    #[test]
    fn union_keys_rejects_corrupt_inputs() {
        let mut out = Vec::new();
        assert_eq!(
            union_keys_into(&[1, 1], &[2], &mut out),
            Err(EncodingError::DuplicateKey { key: 1, offset: 1 })
        );
        assert_eq!(
            union_keys_into(&[2], &[9, 9], &mut out),
            Err(EncodingError::DuplicateKey { key: 9, offset: 1 })
        );
        assert!(matches!(
            union_keys_into(&[5, 3], &[], &mut out),
            Err(EncodingError::InvalidInput(_))
        ));
    }

    #[test]
    fn oversized_delta_rejected() {
        let keys = [0u64, u32::MAX as u64 + 1];
        assert!(matches!(
            encode_keys(&keys, &mut BytesMut::new()),
            Err(EncodingError::InvalidInput(_))
        ));
        // First key too large is also a delta.
        assert!(encode_keys(&[u32::MAX as u64 + 1], &mut BytesMut::new()).is_err());
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        let keys: Vec<u64> = (0..100).map(|i| i * 7 + 3).collect();
        let mut buf = BytesMut::new();
        encode_keys(&keys, &mut buf).unwrap();
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut partial = full.slice(..cut);
            let _ = decode_keys(&mut partial); // must not panic
        }
        let mut ok = full.clone();
        assert_eq!(decode_keys(&mut ok).unwrap(), keys);
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
    fn streaming_encode_matches_allocating_encode() {
        let mut rng = StdRng::seed_from_u64(33);
        let mut scratch = BytesMut::new();
        for _ in 0..40 {
            let n = rng.gen_range(0..1500);
            let mut keys: Vec<u64> = Vec::with_capacity(n);
            let mut cur = 0u64;
            for _ in 0..n {
                cur += rng.gen_range(1..40_000_000u64);
                keys.push(cur);
            }
            let mut reference = BytesMut::new();
            let ref_written = encode_keys(&keys, &mut reference).unwrap();
            scratch.clear();
            let written = encode_keys_into(&keys, &mut scratch).unwrap();
            assert_eq!(written, ref_written);
            assert_eq!(&scratch[..], &reference[..], "streaming encode diverged");

            let mut dec = Vec::new();
            let mut view = &scratch[..];
            decode_keys_into(&mut view, &mut dec).unwrap();
            assert_eq!(view.len(), 0, "decoder must consume exactly its bytes");
            assert_eq!(dec, keys);
        }
    }

    #[test]
    fn streaming_encode_rejects_bad_keys() {
        let mut buf = BytesMut::new();
        assert!(encode_keys_into(&[5, 5], &mut buf).is_err());
        buf.clear();
        assert!(encode_keys_into(&[5, 3], &mut buf).is_err());
        buf.clear();
        assert!(encode_keys_into(&[u32::MAX as u64 + 1], &mut buf).is_err());
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
    fn decode_into_reuses_buffer_and_rejects_truncation() {
        let keys: Vec<u64> = (0..200).map(|i| i * 11 + 5).collect();
        let mut buf = BytesMut::new();
        encode_keys(&keys, &mut buf).unwrap();
        let full = buf.freeze();
        let mut out = vec![99u64; 3]; // stale content must be cleared
        let mut view = &full[..];
        decode_keys_into(&mut view, &mut out).unwrap();
        assert_eq!(out, keys);
        for cut in 0..full.len() {
            let mut partial = &full[..cut];
            let _ = decode_keys_into(&mut partial, &mut out); // must not panic
        }
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
        let encoded = encoded_len(&keys).unwrap() as f64;
        let raw = 4.0 * keys.len() as f64;
        assert!(
            raw / encoded > 2.5,
            "compression rate {} too low",
            raw / encoded
        );
    }
}
