//! Property-based tests: the key codecs must be lossless for *every*
//! admissible input — the paper's §3.4 correctness requirement ("we must
//! design a lossless compression method for the gradient keys").

use bytes::BytesMut;
use proptest::collection::{btree_set, vec};
use proptest::prelude::*;
use sketchml_encoding::{bitpack, delta_binary, rice, varint};

/// Strictly ascending keys with deltas that fit the 4-byte scheme.
fn ascending_keys(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    btree_set(0u64..1 << 32, 0..max_len).prop_map(|s| s.into_iter().collect())
}

/// The per-key decoder `decode_keys_into` used to be, kept as the reference
/// for its four-keys-per-flag-byte loop: one checked 1–4-byte read per key.
/// Returns the keys and the bytes consumed.
fn decode_keys_one_at_a_time(data: &[u8]) -> Option<(Vec<u64>, usize)> {
    let mut rest = data;
    let n = varint::read_u64(&mut rest).ok()? as usize;
    let flag_at = data.len() - rest.len();
    let mut pos = flag_at + n.div_ceil(4);
    let mut acc = 0u64;
    let mut keys = Vec::with_capacity(n);
    for i in 0..n {
        let nb = ((data.get(flag_at + i / 4)? >> ((i % 4) * 2)) & 0b11) as usize + 1;
        let mut le = [0u8; 4];
        le[..nb].copy_from_slice(data.get(pos..pos + nb)?);
        pos += nb;
        acc += u64::from(u32::from_le_bytes(le));
        keys.push(acc);
    }
    Some((keys, pos))
}

/// Deltas of every byte-width mix: a width class per key and raw bits
/// folded into that class's range.
fn widths_and_bits() -> impl Strategy<Value = Vec<(u32, u32)>> {
    vec((0u32..4, any::<u32>()), 67)
}

proptest! {
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = BytesMut::new();
        varint::write_u64(&mut buf, v);
        prop_assert_eq!(varint::read_u64(&mut buf.freeze()).unwrap(), v);
    }

    #[test]
    fn delta_binary_lossless(keys in ascending_keys(500)) {
        let mut buf = BytesMut::new();
        delta_binary::encode_keys_into(&keys, &mut buf).unwrap();
        let mut decoded = Vec::new();
        delta_binary::decode_keys_into(&mut &buf[..], &mut decoded).unwrap();
        prop_assert_eq!(decoded, keys);
    }

    /// Four keys per flag byte against one key at a time, at every length
    /// that puts the 16-byte window's end before, on and after the payload's
    /// end, with bytes that are not the decoder's following the block; and
    /// every proper prefix of the block is `UnexpectedEof`. Tier-1 runs this
    /// under the debug profile, where a read past a slice would panic.
    #[test]
    fn delta_binary_four_at_a_time_matches_one_at_a_time(mix in widths_and_bits()) {
        const LOW: [u32; 4] = [1, 0x100, 0x1_0000, 0x100_0000];
        let mut cur = 0u64;
        let keys: Vec<u64> = mix
            .iter()
            .map(|&(class, bits)| {
                let span = if class == 3 { u32::MAX - LOW[3] } else { LOW[class as usize + 1] - LOW[class as usize] };
                cur += u64::from(LOW[class as usize] + bits % span);
                cur
            })
            .collect();
        let mut decoded = vec![7u64; 3];
        for n in 0..=keys.len() {
            let mut block = BytesMut::new();
            delta_binary::encode_keys_into(&keys[..n], &mut block).unwrap();
            let len = block.len();
            block.extend_from_slice(&[0xFF; 19]);
            let mut view = &block[..];
            delta_binary::decode_keys_into(&mut view, &mut decoded).unwrap();
            let (reference, used) = decode_keys_one_at_a_time(&block).unwrap();
            prop_assert_eq!(&decoded, &reference);
            prop_assert_eq!(&decoded[..], &keys[..n]);
            prop_assert_eq!(block.len() - view.len(), used);
            prop_assert_eq!(used, len);
            for cut in 0..len {
                let mut partial = &block[..cut];
                let got = delta_binary::decode_keys_into(&mut partial, &mut decoded);
                prop_assert!(
                    matches!(got, Err(sketchml_encoding::EncodingError::UnexpectedEof { .. })),
                    "n={} cut={} of {}: {:?}", n, cut, len, got
                );
            }
        }
    }

    #[test]
    fn delta_binary_never_panics_on_garbage(data in vec(any::<u8>(), 0..300)) {
        let mut slice: &[u8] = &data;
        let _ = delta_binary::decode_keys_into(&mut slice, &mut Vec::new()); // Err is fine, panic is not
    }

    #[test]
    fn bitpack_lossless(values in vec(0u16..512, 0..400)) {
        let max = values.iter().copied().max().unwrap_or(0);
        let bits = bitpack::bits_for(max);
        let mut buf = BytesMut::new();
        bitpack::pack_u16_into(&values, bits, &mut buf).unwrap();
        let mut decoded = Vec::new();
        bitpack::unpack_u16_into(&mut &buf[..], values.len(), bits, &mut decoded).unwrap();
        prop_assert_eq!(decoded, values);
    }

    /// Delta-binary's cost model: every key costs at least 1.25 bytes
    /// (1 payload + 1/4 flag) and at most 4 payload bytes plus a whole flag
    /// byte when n is tiny, matching the Appendix A.3 accounting.
    #[test]
    fn delta_binary_cost_bounds(keys in ascending_keys(300)) {
        prop_assume!(!keys.is_empty());
        let bpk = delta_binary::bytes_per_key(&keys).unwrap();
        prop_assert!((1.25..=5.0).contains(&bpk), "bytes/key {bpk}");
    }

    #[test]
    fn rice_lossless(values in vec(0u32..1_000_000, 0..500)) {
        let mut buf = BytesMut::new();
        rice::encode_rice_into(&values, &mut buf);
        let mut decoded = Vec::new();
        rice::decode_rice_into(&mut &buf[..], &mut decoded).unwrap();
        prop_assert_eq!(decoded, values);
    }

    #[test]
    fn rice_never_panics_on_garbage(data in vec(any::<u8>(), 0..300)) {
        let mut slice: &[u8] = &data;
        let _ = rice::decode_rice_into(&mut slice, &mut Vec::new());
    }
}
