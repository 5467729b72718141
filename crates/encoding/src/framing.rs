//! Multi-shard payload framing for the parallel compression engine.
//!
//! A **v1** sharded message concatenates the independently-encoded shard
//! payloads behind a tiny self-describing header, all varint
//! ([`crate::varint`]):
//!
//! ```text
//! +----------------+------------------+-----+------------------+---------+-----+---------+
//! | shard count S  | len(payload[0])  | ... | len(payload[S-1])| payload0| ... | payloadS|
//! |   varint       |   varint         |     |   varint         |  bytes  |     |  bytes  |
//! +----------------+------------------+-----+------------------+---------+-----+---------+
//! ```
//!
//! The **v2** frame adds a per-shard CRC32 ([`crate::crc32`]) so in-flight
//! corruption is *detected* instead of silently poisoning gradients. v1
//! rejects a shard count of zero, which frees the `0x00` lead byte as a
//! version sentinel — v1 decoders fail cleanly on v2 frames, and
//! [`read_any_header_into`] decodes both:
//!
//! ```text
//! +------+---------+----------+-----------------+------------------+----------+-----+
//! | 0x00 | version | count S  | len[0..S] varint| crc32[0..S] (LE) | payload0 | ... |
//! | u8   | u8 = 2  | varint   |                 |  4 bytes each    |          |     |
//! +------+---------+----------+-----------------+------------------+----------+-----+
//! ```
//!
//! The header depends only on the shard payloads — never on how many threads
//! produced them — so a frame is byte-identical for any worker-thread count.

use crate::error::EncodingError;
use crate::varint;
use bytes::BufMut;

/// Upper bound on the shard count accepted by [`read_any_header_into`]; real configs
/// use at most a few hundred shards, so anything larger is corruption.
pub const MAX_SHARDS: usize = 65_536;

/// Lead byte distinguishing a v2 frame: varint `0`, which v1 rejects as a
/// corrupt shard count.
pub const V2_SENTINEL: u8 = 0x00;

/// Version byte of the CRC-carrying frame format.
pub const V2_VERSION: u8 = 2;

/// Which frame format a sharded payload is written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FrameVersion {
    /// Lengths only (PR 1 wire format; the golden-fixture default).
    #[default]
    V1,
    /// Lengths + per-shard CRC32: corruption surfaces as a typed error.
    V2,
}

/// Appends the frame header (shard count + per-shard lengths) to `out`.
pub fn write_header(out: &mut impl BufMut, lens: &[usize]) {
    varint::write_u64(out, lens.len() as u64);
    for &len in lens {
        varint::write_u64(out, len as u64);
    }
}

/// Number of bytes [`write_header`] emits for these shard lengths.
pub fn header_len(lens: &[usize]) -> usize {
    varint::encoded_len(lens.len() as u64)
        + lens
            .iter()
            .map(|&len| varint::encoded_len(len as u64))
            .sum::<usize>()
}

/// Reads a v1 frame header (shard count + per-shard lengths) from the front
/// of `buf` into `lens` (cleared first), advancing `buf` past the header,
/// with the errors [`read_any_header_into`] documents.
fn read_header_into(buf: &mut &[u8], lens: &mut Vec<usize>) -> Result<(), EncodingError> {
    lens.clear();
    let count = varint::read_u64(buf)?;
    if count == 0 || count > MAX_SHARDS as u64 {
        return Err(EncodingError::Corrupt(format!(
            "shard count {count} outside 1..={MAX_SHARDS}"
        )));
    }
    let count = count as usize;
    // Allocation-bomb guard: every declared shard needs at least one length
    // byte still in the buffer, so any count beyond the remaining bytes is
    // corrupt — reject it *before* reserving.
    if count > buf.len() {
        return Err(EncodingError::Corrupt(format!(
            "shard count {count} exceeds the {} remaining bytes",
            buf.len()
        )));
    }
    lens.reserve(count);
    read_lens(buf, count, lens)
}

/// Reads `count` shard lengths, validating the running total against the
/// remaining buffer as it goes so an adversarial header fails fast.
fn read_lens(buf: &mut &[u8], count: usize, lens: &mut Vec<usize>) -> Result<(), EncodingError> {
    let mut total: u64 = 0;
    for _ in 0..count {
        let len = varint::read_u64(buf)?;
        total = total
            .checked_add(len)
            .ok_or_else(|| EncodingError::Corrupt("shard lengths overflow".into()))?;
        // Conservative early check: the payload region only shrinks as more
        // length varints are consumed, so exceeding the current remainder is
        // already unrecoverable.
        if total > buf.len() as u64 {
            return Err(EncodingError::Corrupt(format!(
                "frame declares {total} payload bytes but only {} remain",
                buf.len()
            )));
        }
        let len = usize::try_from(len)
            .map_err(|_| EncodingError::Corrupt("shard length exceeds usize".into()))?;
        lens.push(len);
    }
    Ok(())
}

/// Appends a v2 frame header (sentinel + version + count + lengths + one
/// CRC32 per shard) to `out`. `crcs` must be [`crate::crc32::crc32`] of each
/// shard payload, in order.
///
/// # Panics
/// Debug-asserts `lens` and `crcs` have equal lengths (a caller bug, not a
/// wire condition).
pub fn write_header_v2(out: &mut impl BufMut, lens: &[usize], crcs: &[u32]) {
    debug_assert_eq!(lens.len(), crcs.len(), "one CRC per shard");
    out.put_u8(V2_SENTINEL);
    out.put_u8(V2_VERSION);
    varint::write_u64(out, lens.len() as u64);
    for &len in lens {
        varint::write_u64(out, len as u64);
    }
    for &crc in crcs {
        out.put_u32_le(crc);
    }
}

/// Number of bytes [`write_header_v2`] emits for these shard lengths.
pub fn header_len_v2(lens: &[usize]) -> usize {
    2 + header_len(lens) + 4 * lens.len()
}

/// Reads either frame version from the front of `buf`, advancing past the
/// header. Fills `lens` with the per-shard payload lengths; fills `crcs`
/// with the per-shard checksums for a v2 frame (cleared and left empty for
/// v1). Returns which version was found.
///
/// # Errors
/// [`EncodingError::UnexpectedEof`] on a truncated header, and
/// [`EncodingError::Corrupt`] for an unsupported v2 version byte, a shard
/// count of 0 or above [`MAX_SHARDS`], a length that does not fit in
/// memory, or declared payload bytes beyond what remains in the buffer.
pub fn read_any_header_into(
    buf: &mut &[u8],
    lens: &mut Vec<usize>,
    crcs: &mut Vec<u32>,
) -> Result<FrameVersion, EncodingError> {
    crcs.clear();
    if buf.first() != Some(&V2_SENTINEL) {
        read_header_into(buf, lens)?;
        return Ok(FrameVersion::V1);
    }
    lens.clear();
    *buf = &buf[1..];
    let Some((&version, rest)) = buf.split_first() else {
        return Err(EncodingError::UnexpectedEof {
            context: "frame version byte",
        });
    };
    *buf = rest;
    if version != V2_VERSION {
        return Err(EncodingError::Corrupt(format!(
            "unsupported frame version {version}"
        )));
    }
    let count = varint::read_u64(buf)?;
    if count == 0 || count > MAX_SHARDS as u64 {
        return Err(EncodingError::Corrupt(format!(
            "shard count {count} outside 1..={MAX_SHARDS}"
        )));
    }
    let count = count as usize;
    // Each shard needs ≥ 1 length byte + 4 CRC bytes ahead of the payload;
    // reject absurd counts before reserving anything.
    if count.saturating_mul(5) > buf.len() {
        return Err(EncodingError::Corrupt(format!(
            "shard count {count} exceeds the {} remaining bytes",
            buf.len()
        )));
    }
    lens.reserve(count);
    read_lens(buf, count, lens)?;
    if buf.len() < 4 * count {
        return Err(EncodingError::UnexpectedEof {
            context: "per-shard CRC32 table",
        });
    }
    crcs.reserve(count);
    for _ in 0..count {
        let (head, rest) = buf.split_at(4);
        crcs.push(u32::from_le_bytes([head[0], head[1], head[2], head[3]]));
        *buf = rest;
    }
    // Re-check the payload total now that the CRC table is consumed.
    let total: u64 = lens.iter().map(|&l| l as u64).sum();
    if total > buf.len() as u64 {
        return Err(EncodingError::Corrupt(format!(
            "frame declares {total} payload bytes but only {} remain",
            buf.len()
        )));
    }
    Ok(FrameVersion::V2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn header_lens(buf: &mut &[u8]) -> Result<Vec<usize>, EncodingError> {
        let mut lens = vec![9];
        read_header_into(buf, &mut lens).map(|()| lens)
    }

    #[test]
    fn header_roundtrips() {
        let lens = vec![0usize, 1, 127, 128, 70_000];
        let mut buf = BytesMut::new();
        write_header(&mut buf, &lens);
        assert_eq!(buf.len(), header_len(&lens));
        let payload_bytes = lens.iter().sum::<usize>();
        buf.extend_from_slice(&vec![0u8; payload_bytes]);
        let frozen = buf.freeze();
        let mut slice = &frozen[..];
        assert_eq!(header_lens(&mut slice).unwrap(), lens);
        assert_eq!(slice.len(), payload_bytes);
    }

    #[test]
    fn truncated_header_is_eof() {
        let mut buf = BytesMut::new();
        write_header(&mut buf, &[10, 20, 30]);
        let frozen = buf.freeze();
        for cut in 0..frozen.len() {
            let mut slice = &frozen[..cut];
            assert!(header_lens(&mut slice).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn declared_bytes_must_fit() {
        let mut buf = BytesMut::new();
        write_header(&mut buf, &[100]);
        let frozen = buf.freeze();
        let mut slice = &frozen[..]; // header only; 100 payload bytes missing
        assert!(matches!(
            header_lens(&mut slice),
            Err(EncodingError::Corrupt(_))
        ));
    }

    #[test]
    fn absurd_shard_counts_are_corrupt() {
        let mut buf = BytesMut::new();
        varint::write_u64(&mut buf, 0); // zero shards
        let frozen = buf.freeze();
        let mut slice = &frozen[..];
        assert!(matches!(
            header_lens(&mut slice),
            Err(EncodingError::Corrupt(_))
        ));

        let mut buf = BytesMut::new();
        varint::write_u64(&mut buf, u64::MAX); // billions of shards
        let frozen = buf.freeze();
        let mut slice = &frozen[..];
        assert!(matches!(
            header_lens(&mut slice),
            Err(EncodingError::Corrupt(_))
        ));
    }

    #[test]
    fn declared_count_beyond_buffer_rejected_before_allocating() {
        // 65 000 declared shards but only 3 bytes follow: must be rejected
        // without reserving 65 000 slots.
        let mut buf = BytesMut::new();
        varint::write_u64(&mut buf, 65_000);
        buf.extend_from_slice(&[1, 2, 3]);
        let frozen = buf.freeze();
        let mut slice = &frozen[..];
        let mut lens = Vec::new();
        let err = read_header_into(&mut slice, &mut lens).unwrap_err();
        assert!(matches!(err, EncodingError::Corrupt(_)), "{err}");
        assert_eq!(lens.capacity(), 0, "guard must fire before reserve");
    }

    #[test]
    fn oversized_length_rejected_before_later_lengths() {
        // First declared length already exceeds everything that remains:
        // the in-loop check fires without reading the rest of the header.
        let mut buf = BytesMut::new();
        varint::write_u64(&mut buf, 2);
        varint::write_u64(&mut buf, 1 << 40);
        varint::write_u64(&mut buf, 0);
        let frozen = buf.freeze();
        let mut slice = &frozen[..];
        assert!(matches!(
            header_lens(&mut slice),
            Err(EncodingError::Corrupt(_))
        ));
    }

    #[test]
    fn v2_header_roundtrips_and_v1_reader_rejects_it() {
        let lens = vec![3usize, 0, 129];
        let crcs = vec![0xDEAD_BEEF, 0, 0x0102_0304];
        let mut buf = BytesMut::new();
        write_header_v2(&mut buf, &lens, &crcs);
        assert_eq!(buf.len(), header_len_v2(&lens));
        buf.extend_from_slice(&vec![7u8; lens.iter().sum::<usize>()]);
        let frozen = buf.freeze();

        let mut slice = &frozen[..];
        let (mut got_lens, mut got_crcs) = (Vec::new(), Vec::new());
        let version = read_any_header_into(&mut slice, &mut got_lens, &mut got_crcs).unwrap();
        assert_eq!(version, FrameVersion::V2);
        assert_eq!(got_lens, lens);
        assert_eq!(got_crcs, crcs);
        assert_eq!(slice.len(), lens.iter().sum::<usize>());

        // A v1 decoder sees shard count 0 and fails with a typed error.
        let mut slice = &frozen[..];
        assert!(matches!(
            header_lens(&mut slice),
            Err(EncodingError::Corrupt(_))
        ));
    }

    #[test]
    fn any_reader_still_decodes_v1() {
        let lens = vec![5usize, 9];
        let mut buf = BytesMut::new();
        write_header(&mut buf, &lens);
        buf.extend_from_slice(&[0u8; 14]);
        let frozen = buf.freeze();
        let mut slice = &frozen[..];
        let (mut got_lens, mut crcs) = (Vec::new(), vec![1, 2, 3]);
        let version = read_any_header_into(&mut slice, &mut got_lens, &mut crcs).unwrap();
        assert_eq!(version, FrameVersion::V1);
        assert_eq!(got_lens, lens);
        assert!(crcs.is_empty(), "v1 must clear stale CRCs");
    }

    #[test]
    fn v2_adversarial_headers_are_typed_errors() {
        // Bare sentinel: EOF on the version byte.
        let mut slice: &[u8] = &[V2_SENTINEL];
        let (mut lens, mut crcs) = (Vec::new(), Vec::new());
        assert!(read_any_header_into(&mut slice, &mut lens, &mut crcs).is_err());

        // Unknown version byte.
        let mut slice: &[u8] = &[V2_SENTINEL, 9, 1, 0, 0, 0, 0, 0];
        assert!(matches!(
            read_any_header_into(&mut slice, &mut lens, &mut crcs),
            Err(EncodingError::Corrupt(_))
        ));

        // Huge declared count with a tiny buffer: rejected before reserve.
        let mut buf = BytesMut::new();
        buf.put_u8(V2_SENTINEL);
        buf.put_u8(V2_VERSION);
        varint::write_u64(&mut buf, 60_000);
        buf.extend_from_slice(&[0, 0, 0]);
        let frozen = buf.freeze();
        let mut slice = &frozen[..];
        let mut lens = Vec::new();
        let err = read_any_header_into(&mut slice, &mut lens, &mut crcs).unwrap_err();
        assert!(matches!(err, EncodingError::Corrupt(_)), "{err}");
        assert_eq!(lens.capacity(), 0, "guard must fire before reserve");

        // Truncated CRC table.
        let mut buf = BytesMut::new();
        write_header_v2(&mut buf, &[4, 4], &[1, 2]);
        let frozen = buf.freeze();
        let cut = frozen.len() - 10; // into the CRC table
        let mut slice = &frozen[..cut];
        assert!(read_any_header_into(&mut slice, &mut lens, &mut crcs).is_err());
    }
}
