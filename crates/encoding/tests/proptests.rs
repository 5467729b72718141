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
        delta_binary::encode_keys(&keys, &mut buf).unwrap();
        let decoded = delta_binary::decode_keys(&mut buf.freeze()).unwrap();
        prop_assert_eq!(decoded, keys);
    }

    #[test]
    fn delta_binary_never_panics_on_garbage(data in vec(any::<u8>(), 0..300)) {
        let mut slice: &[u8] = &data;
        let _ = delta_binary::decode_keys(&mut slice); // Err is fine, panic is not
    }

    #[test]
    fn bitpack_lossless(values in vec(0u16..512, 0..400)) {
        let max = values.iter().copied().max().unwrap_or(0);
        let bits = bitpack::bits_for(max);
        let mut buf = BytesMut::new();
        bitpack::pack_u16(&values, bits, &mut buf).unwrap();
        let decoded = bitpack::unpack_u16(&mut buf.freeze(), values.len(), bits).unwrap();
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
        rice::encode_rice(&values, &mut buf);
        let decoded = rice::decode_rice(&mut buf.freeze()).unwrap();
        prop_assert_eq!(decoded, values);
    }

    #[test]
    fn rice_keys_lossless(keys in ascending_keys(400)) {
        let mut buf = BytesMut::new();
        rice::encode_rice_keys(&keys, &mut buf).unwrap();
        let decoded = rice::decode_rice_keys(&mut buf.freeze()).unwrap();
        prop_assert_eq!(decoded, keys);
    }

    #[test]
    fn rice_never_panics_on_garbage(data in vec(any::<u8>(), 0..300)) {
        let mut slice: &[u8] = &data;
        let _ = rice::decode_rice(&mut slice);
    }
}
