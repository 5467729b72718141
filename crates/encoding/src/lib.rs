//! Lossless codecs for the SketchML gradient-compression framework
//! (Jiang et al., SIGMOD 2018, §3.4 and Appendix A.3).
//!
//! Gradient **keys** (model dimensions) cannot tolerate precision loss —
//! decoding a wrong key updates a wrong model dimension — so SketchML
//! compresses them losslessly with **delta-binary encoding**: ascending keys
//! are replaced by their increments ("delta keys"), and each increment is
//! stored in the least number of bytes that holds it (1–4), selected by a
//! 2-bit *byte flag* packed four-per-byte.
//!
//! This crate implements that codec ([`delta_binary`]) plus the codecs the
//! rest of the wire format and the paper's key-coding comparison use:
//!
//! - [`rice`] — Golomb–Rice coding, the strongest classic lossless baseline
//!   on geometric key gaps (§1.1 cites Rice among the lossless methods);
//! - [`bitpack`] — fixed-width bit packing used for the binary-encoded
//!   bucket indexes of §3.2 Step 4;
//! - [`varint`] — LEB128 variable-length integers used by the wire format
//!   for counts and headers;
//! - [`crc32`] — frame-integrity checksums carried by the v2 shard frame
//!   ([`framing`]) so in-flight corruption is detected, not silently decoded;
//! - [`csk`] — the Count-Sketch cell-table frame (full or windowed), CRC32
//!   protected, merged element-wise by the `MergePolicy::Linear` collectives.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bitpack;
pub mod crc32;
pub mod csk;
pub mod delta_binary;
pub mod error;
pub mod framing;
pub mod rice;
pub mod simd;
pub mod stats;
pub mod varint;

pub use error::EncodingError;
