//! Fixed-width bit packing.
//!
//! §3.2 Step 4 binary-encodes bucket indexes: "If q = 256, one byte is
//! enough". For non-power-of-256 bucket counts we pack each index into
//! exactly `⌈log2 q⌉` bits, which is what the `Adam+Key+Quan` ablation
//! variant (Figure 8) ships on the wire, and what a MinMaxSketch's cell
//! table uses when serialized.

use crate::error::EncodingError;
use bytes::BytesMut;

/// Minimum number of bits required to represent values in `[0, max_value]`.
pub fn bits_for(max_value: u16) -> u32 {
    (16 - max_value.leading_zeros()).max(1)
}

/// Packs `values` at `bits` bits each (LSB-first) onto the tail of `out`:
/// the packed region is reserved zeroed and the bits are ORed in place.
/// Returns the number of bytes appended.
///
/// # Errors
/// [`EncodingError::InvalidInput`] if `bits` is 0 or > 16, or any value
/// does not fit in `bits` bits. On error the tail of `out` past its
/// original length is unspecified.
pub fn pack_u16_into(
    values: &[u16],
    bits: u32,
    out: &mut BytesMut,
) -> Result<usize, EncodingError> {
    if bits == 0 || bits > 16 {
        return Err(EncodingError::InvalidInput(format!(
            "bit width must be in 1..=16, got {bits}"
        )));
    }
    let limit = if bits == 16 {
        u16::MAX
    } else {
        (1u16 << bits) - 1
    };
    let total_bytes = (values.len() * bits as usize).div_ceil(8);
    let at = out.len();
    out.resize(at + total_bytes, 0);
    let bytes = &mut out[at..];
    let mut bit_pos = 0usize;
    for (i, &v) in values.iter().enumerate() {
        if v > limit {
            return Err(EncodingError::InvalidInput(format!(
                "value {v} at position {i} exceeds {bits}-bit limit {limit}"
            )));
        }
        let mut v = v as u32;
        let mut remaining = bits;
        while remaining > 0 {
            let byte = bit_pos / 8;
            let offset = (bit_pos % 8) as u32;
            let take = remaining.min(8 - offset);
            bytes[byte] |= ((v & ((1 << take) - 1)) as u8) << offset;
            v >>= take;
            bit_pos += take as usize;
            remaining -= take;
        }
    }
    Ok(total_bytes)
}

/// Unpacks `count` values of `bits` bits each from the front of `buf` into
/// a reusable buffer (`out` is cleared first), advancing `buf` past them.
///
/// # Errors
/// [`EncodingError::UnexpectedEof`] on truncated input,
/// [`EncodingError::InvalidInput`] on a bad bit width,
/// [`EncodingError::Corrupt`] on a count whose bit total overflows.
pub fn unpack_u16_into(
    buf: &mut &[u8],
    count: usize,
    bits: u32,
    out: &mut Vec<u16>,
) -> Result<(), EncodingError> {
    if bits == 0 || bits > 16 {
        return Err(EncodingError::InvalidInput(format!(
            "bit width must be in 1..=16, got {bits}"
        )));
    }
    // `count` can come straight off the wire: a checked multiply keeps an
    // absurd declared count from wrapping past the remaining-bytes test.
    let total_bytes = count
        .checked_mul(bits as usize)
        .map(|b| b.div_ceil(8))
        .ok_or_else(|| EncodingError::Corrupt(format!("bit-packed count {count} overflows")))?;
    let Some((bytes, rest)) = buf.split_at_checked(total_bytes) else {
        return Err(EncodingError::UnexpectedEof {
            context: "bit-packed values",
        });
    };
    out.clear();
    out.reserve(count);
    unpack_from_bytes(bytes, count, bits, out);
    *buf = rest;
    Ok(())
}

fn unpack_from_bytes(bytes: &[u8], count: usize, bits: u32, out: &mut Vec<u16>) {
    let mut bit_pos = 0usize;
    for _ in 0..count {
        let mut v: u32 = 0;
        let mut got = 0u32;
        while got < bits {
            let byte = bit_pos / 8;
            let offset = (bit_pos % 8) as u32;
            let take = (bits - got).min(8 - offset);
            let chunk = ((bytes[byte] >> offset) & ((1u16 << take) - 1) as u8) as u32;
            v |= chunk << got;
            got += take;
            bit_pos += take as usize;
        }
        out.push(v as u16);
    }
}

/// Bytes [`pack_u16_into`] will emit for `count` values at `bits` bits.
pub fn packed_len(count: usize, bits: u32) -> usize {
    (count * bits as usize).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn roundtrip(values: &[u16], bits: u32) {
        // A non-empty prefix: the packer appends to what is there.
        let mut buf = BytesMut::from(&b"hdr"[..]);
        let written = pack_u16_into(values, bits, &mut buf).unwrap();
        assert_eq!(written, buf.len() - 3);
        assert_eq!(written, packed_len(values.len(), bits));
        // Stale content must be cleared; trailing bytes are left unread.
        buf.extend_from_slice(&[0xAB; 5]);
        let mut view = &buf[3..];
        let mut decoded = vec![9u16; 4];
        unpack_u16_into(&mut view, values.len(), bits, &mut decoded).unwrap();
        assert_eq!(decoded, values);
        assert_eq!(view, &[0xAB; 5], "decoder must consume exactly its bytes");
    }

    #[test]
    fn roundtrips_every_width() {
        let mut rng = StdRng::seed_from_u64(41);
        for bits in 1..=16u32 {
            let limit = if bits == 16 {
                u16::MAX
            } else {
                (1u16 << bits) - 1
            };
            let values: Vec<u16> = (0..321).map(|_| rng.gen_range(0..=limit)).collect();
            roundtrip(&values, bits);
        }
    }

    #[test]
    fn eight_bit_indexes_cost_one_byte() {
        // §3.2 Step 4: q = 256 → one byte per index.
        let values: Vec<u16> = (0..1000).map(|i| (i % 256) as u16).collect();
        assert_eq!(packed_len(values.len(), 8), 1000);
        roundtrip(&values, 8);
    }

    #[test]
    fn empty_input() {
        roundtrip(&[], 7);
    }

    #[test]
    fn value_overflow_rejected() {
        let mut buf = BytesMut::new();
        assert!(pack_u16_into(&[8], 3, &mut buf).is_err());
        assert!(pack_u16_into(&[7], 3, &mut buf).is_ok());
    }

    #[test]
    fn bad_widths_rejected() {
        let mut buf = BytesMut::new();
        assert!(pack_u16_into(&[1], 0, &mut buf).is_err());
        assert!(pack_u16_into(&[1], 17, &mut buf).is_err());
        let mut out = Vec::new();
        for bits in [0, 17] {
            let mut data: &[u8] = &[0u8; 8];
            assert!(matches!(
                unpack_u16_into(&mut data, 1, bits, &mut out),
                Err(EncodingError::InvalidInput(_))
            ));
        }
        let mut data: &[u8] = &[0u8; 8];
        assert!(matches!(
            unpack_u16_into(&mut data, usize::MAX, 16, &mut out),
            Err(EncodingError::Corrupt(_))
        ));
    }

    #[test]
    fn truncation_detected() {
        let mut buf = BytesMut::new();
        pack_u16_into(&[1, 2, 3, 4, 5], 9, &mut buf).unwrap();
        let mut out = Vec::new();
        for cut in 0..buf.len() {
            let mut partial = &buf[..cut];
            assert!(matches!(
                unpack_u16_into(&mut partial, 5, 9, &mut out),
                Err(EncodingError::UnexpectedEof { .. })
            ));
        }
    }

    #[test]
    fn bits_for_covers_ranges() {
        assert_eq!(bits_for(0), 1);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(255), 8);
        assert_eq!(bits_for(256), 9);
        assert_eq!(bits_for(u16::MAX), 16);
    }

    #[test]
    fn packing_is_dense() {
        // 1000 values at 3 bits = 3000 bits = 375 bytes exactly.
        assert_eq!(packed_len(1000, 3), 375);
    }
}
