//! Rice (Golomb–Rice) coding — the §1.1 lossless baseline, and the code
//! stream FastSGD ships when it is smaller than bit packing.
//!
//! Rice coding with parameter `k` writes a value `v` as `⌊v / 2^k⌋` unary
//! bits followed by the low `k` bits verbatim. It is near-optimal for
//! geometrically distributed integers, which delta keys approximately are —
//! making it the strongest of the classic lossless baselines on key streams
//! and a useful upper-bound comparison for the paper's byte-aligned
//! delta-binary scheme (which trades a little density for byte-aligned
//! decoding speed).
//!
//! [`encode_rice_into`] writes the stream, [`encoded_len_rice`] sizes it
//! without writing and [`decode_rice_into`] reads it back. Wire layout:
//! `varint n | u8 k | bitstream` (MSB-first, the last byte zero-padded).

use crate::error::EncodingError;
use crate::varint;
use bytes::BufMut;

/// Chooses the Rice parameter `k` minimizing the encoded size for `values`
/// (standard mean-based heuristic, then refined by exact cost).
pub fn optimal_k(values: &[u32]) -> u8 {
    if values.is_empty() {
        return 0;
    }
    let mean = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
    let guess = if mean <= 1.0 {
        0
    } else {
        mean.log2().floor() as i64
    };
    let mut best_k = 0u8;
    let mut best_bits = u64::MAX;
    for k in (guess - 2).max(0)..=(guess + 2).min(31) {
        let k = k as u8;
        let bits: u64 = values.iter().map(|&v| (v as u64 >> k) + 1 + k as u64).sum();
        if bits < best_bits {
            best_bits = bits;
            best_k = k;
        }
    }
    best_k
}

/// Bit-level reader over a byte slice.
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn read_bit(&mut self) -> Result<u64, EncodingError> {
        if self.nbits == 0 {
            if self.pos >= self.bytes.len() {
                return Err(EncodingError::UnexpectedEof {
                    context: "rice bitstream",
                });
            }
            self.acc = self.bytes[self.pos] as u64;
            self.pos += 1;
            self.nbits = 8;
        }
        self.nbits -= 1;
        Ok((self.acc >> self.nbits) & 1)
    }

    fn read_bits(&mut self, n: u32) -> Result<u64, EncodingError> {
        let mut v = 0u64;
        for _ in 0..n {
            v = (v << 1) | self.read_bit()?;
        }
        Ok(v)
    }
}

/// Rice-encodes `values` onto the tail of `out` with the parameter
/// [`optimal_k`] picks, streaming the bitstream straight into `out` so
/// pooled callers stay allocation-free. Returns bytes written.
pub fn encode_rice_into(values: &[u32], out: &mut bytes::BytesMut) -> usize {
    #[inline]
    fn push(out: &mut bytes::BytesMut, acc: &mut u64, nbits: &mut u32, v: u64, n: u32) {
        debug_assert!(n < 58, "push width too large for the accumulator");
        if n == 0 {
            return;
        }
        *acc = (*acc << n) | (v & ((1u64 << n) - 1));
        *nbits += n;
        while *nbits >= 8 {
            *nbits -= 8;
            out.put_u8((*acc >> *nbits) as u8);
        }
    }
    let k = optimal_k(values);
    let start = out.len();
    varint::write_u64(out, values.len() as u64);
    out.put_u8(k);
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for &v in values {
        let q = (v as u64) >> k;
        let mut rem = q;
        while rem >= 32 {
            push(out, &mut acc, &mut nbits, u64::MAX, 32);
            rem -= 32;
        }
        push(
            out,
            &mut acc,
            &mut nbits,
            ((1u64 << rem) - 1) << 1,
            rem as u32 + 1,
        );
        if k > 0 {
            push(out, &mut acc, &mut nbits, v as u64, k as u32);
        }
    }
    if nbits > 0 {
        out.put_u8((acc << (8 - nbits)) as u8);
    }
    out.len() - start
}

/// Exact byte count [`encode_rice_into`] will emit for `values` (including the
/// count varint and parameter byte) — lets callers compare codecs before
/// committing bytes.
pub fn encoded_len_rice(values: &[u32]) -> usize {
    let k = optimal_k(values);
    let bits: u64 = values.iter().map(|&v| (v as u64 >> k) + 1 + k as u64).sum();
    varint::encoded_len(values.len() as u64) + 1 + (bits as usize).div_ceil(8)
}

/// Decodes a stream written by [`encode_rice_into`] into a reusable buffer
/// (`out` is cleared first), straight off the slice.
///
/// This consumes the rest of `buf`: the bitstream carries no byte length,
/// so it must be the final field of its frame.
///
/// # Errors
/// [`EncodingError::UnexpectedEof`] on truncation, [`EncodingError::Corrupt`]
/// on an out-of-range parameter, an implausible count or unary run.
pub fn decode_rice_into(buf: &mut &[u8], out: &mut Vec<u32>) -> Result<(), EncodingError> {
    let n = varint::read_u64(buf)? as usize;
    let Some((&k, body)) = buf.split_first() else {
        return Err(EncodingError::UnexpectedEof {
            context: "rice parameter",
        });
    };
    if k > 31 {
        return Err(EncodingError::Corrupt(format!("rice parameter {k} > 31")));
    }
    out.clear();
    decode_rice_body(body, n, k, out)?;
    *buf = &[];
    Ok(())
}

fn decode_rice_body(body: &[u8], n: usize, k: u8, out: &mut Vec<u32>) -> Result<(), EncodingError> {
    // Allocation-bomb guard: every value costs at least its unary terminator
    // bit, so a declared count beyond 8× the body length is corrupt.
    if n > body.len().saturating_mul(8) {
        return Err(EncodingError::Corrupt(format!(
            "declared {n} values but the bitstream holds at most {}",
            body.len().saturating_mul(8)
        )));
    }
    let mut bits = BitReader::new(body);
    out.reserve(n);
    for _ in 0..n {
        let mut q: u64 = 0;
        while bits.read_bit()? == 1 {
            q += 1;
            if q > u32::MAX as u64 {
                return Err(EncodingError::Corrupt("unary run overflows u32".into()));
            }
        }
        let low = if k > 0 { bits.read_bits(k as u32)? } else { 0 };
        let v = (q << k) | low;
        let v = u32::try_from(v)
            .map_err(|_| EncodingError::Corrupt("rice value overflows u32".into()))?;
        out.push(v);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Bit-level writer over a byte vector: the reference the streaming
    /// encoder's inline accumulator is held to.
    struct BitWriter {
        bytes: Vec<u8>,
        acc: u64,
        nbits: u32,
    }

    impl BitWriter {
        /// Appends the low `n` bits of `v` (`n < 58`), MSB-first.
        fn push(&mut self, v: u64, n: u32) {
            if n == 0 {
                return;
            }
            self.acc = (self.acc << n) | (v & ((1u64 << n) - 1));
            self.nbits += n;
            while self.nbits >= 8 {
                self.nbits -= 8;
                self.bytes.push((self.acc >> self.nbits) as u8);
            }
        }

        fn finish(mut self) -> Vec<u8> {
            if self.nbits > 0 {
                self.bytes.push((self.acc << (8 - self.nbits)) as u8);
            }
            self.bytes
        }
    }

    /// The allocating encoder: each value's unary quotient (ones then a
    /// zero, in chunks the accumulator holds) and low `k` bits go through a
    /// [`BitWriter`], whose bytes follow the count and parameter.
    fn encode_rice(values: &[u32], out: &mut impl BufMut) -> usize {
        let k = optimal_k(values);
        varint::write_u64(out, values.len() as u64);
        out.put_u8(k);
        let mut bits = BitWriter {
            bytes: Vec::new(),
            acc: 0,
            nbits: 0,
        };
        for &v in values {
            let mut rem = (v as u64) >> k;
            while rem >= 32 {
                bits.push(u64::MAX, 32);
                rem -= 32;
            }
            bits.push(((1u64 << rem) - 1) << 1, rem as u32 + 1);
            bits.push(v as u64, k as u32);
        }
        let body = bits.finish();
        out.put_slice(&body);
        varint::encoded_len(values.len() as u64) + 1 + body.len()
    }

    /// Encodes with the shipped encoder, holds it to [`encode_rice`] and to
    /// [`encoded_len_rice`], and decodes the bytes back.
    fn roundtrip(values: &[u32]) -> Vec<u32> {
        let mut buf = BytesMut::new();
        let written = encode_rice_into(values, &mut buf);
        assert_eq!(written, buf.len());
        assert_eq!(encoded_len_rice(values), written, "size prediction wrong");
        let mut reference = BytesMut::new();
        assert_eq!(encode_rice(values, &mut reference), written);
        assert_eq!(buf, reference, "encode_rice_into diverged");
        let mut view = &buf[..];
        let mut out = vec![7u32; 2]; // stale content must be cleared
        decode_rice_into(&mut view, &mut out).unwrap();
        assert!(view.is_empty(), "the bitstream is the frame's last field");
        out
    }

    #[test]
    fn roundtrips_basic() {
        assert_eq!(roundtrip(&[]), Vec::<u32>::new());
        assert_eq!(roundtrip(&[0]), vec![0]);
        assert_eq!(
            roundtrip(&[0, 1, 2, 3, 255, 256, 65_536]),
            vec![0, 1, 2, 3, 255, 256, 65_536]
        );
        assert_eq!(roundtrip(&[u32::MAX]), vec![u32::MAX]);
    }

    #[test]
    fn roundtrips_random_geometric() {
        let mut rng = StdRng::seed_from_u64(61);
        for _ in 0..20 {
            let values: Vec<u32> = (0..rng.gen_range(1..2000))
                .map(|_| {
                    // Geometric-ish deltas like real key gaps.
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    (-u.ln() * 40.0) as u32
                })
                .collect();
            assert_eq!(roundtrip(&values), values);
        }
    }

    #[test]
    fn roundtrips_every_scale() {
        let mut rng = StdRng::seed_from_u64(63);
        for _ in 0..20 {
            let values: Vec<u32> = (0..rng.gen_range(1..500))
                .map(|_| rng.gen::<u32>() >> rng.gen_range(0..32))
                .collect();
            assert_eq!(roundtrip(&values), values);
        }
    }

    #[test]
    fn optimal_k_tracks_scale() {
        assert!(optimal_k(&[0, 1, 0, 1]) <= 1);
        assert!(optimal_k(&[1000; 100]) >= 8);
        assert_eq!(optimal_k(&[]), 0);
    }

    #[test]
    fn denser_than_delta_binary_on_geometric_key_gaps() {
        let mut rng = StdRng::seed_from_u64(62);
        let mut cur = 0u64;
        let keys: Vec<u64> = (0..10_000)
            .map(|_| {
                cur += rng.gen_range(1..80);
                cur
            })
            .collect();
        // The first key's delta is the key itself.
        let deltas: Vec<u32> = std::iter::once(0)
            .chain(keys.iter().copied())
            .zip(&keys)
            .map(|(prev, &k)| (k - prev) as u32)
            .collect();
        let mut buf = BytesMut::new();
        let rice_len = encode_rice_into(&deltas, &mut buf);
        assert_eq!(roundtrip(&deltas), deltas);

        // Rice is denser than byte-aligned delta-binary on geometric gaps…
        let db_len = crate::delta_binary::encode_keys_into(&keys, &mut BytesMut::new()).unwrap();
        assert!(
            rice_len < db_len,
            "rice {rice_len} should be denser than delta-binary {db_len}"
        );
        // …but both are way below raw 4-byte keys.
        assert!(rice_len < 4 * keys.len() / 2);
    }

    #[test]
    fn truncation_detected() {
        let mut buf = BytesMut::new();
        encode_rice_into(&[5, 9, 200, 3], &mut buf);
        let mut out = Vec::new();
        for cut in 0..buf.len() {
            let mut partial = &buf[..cut];
            assert!(decode_rice_into(&mut partial, &mut out).is_err());
        }
    }

    #[test]
    fn corrupt_parameter_rejected() {
        let mut buf = BytesMut::new();
        varint::write_u64(&mut buf, 1);
        buf.put_u8(77); // k > 31
        buf.put_u8(0);
        assert!(matches!(
            decode_rice_into(&mut &buf[..], &mut Vec::new()),
            Err(EncodingError::Corrupt(_))
        ));
    }
}
