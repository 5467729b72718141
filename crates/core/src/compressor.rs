//! The compressor abstraction every method in the paper's evaluation
//! implements: Adam (raw), Adam+Key, Adam+Key+Quan, full SketchML, ZipML and
//! threshold truncation (Figures 8–11, Tables 2 & 4).

use crate::error::CompressError;
use crate::gradient::SparseGradient;
use crate::scratch::CompressScratch;
use bytes::{Bytes, BytesMut};
use sketchml_encoding::stats::SizeReport;

/// A compressed gradient message plus its size accounting.
#[derive(Debug, Clone)]
pub struct CompressedGradient {
    /// Self-describing wire bytes.
    pub payload: Bytes,
    /// Byte breakdown used by the Figure 8(b)/(d) experiments.
    pub report: SizeReport,
}

impl CompressedGradient {
    /// Total wire size in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// A gradient compression method.
///
/// Implementors write the two **required** methods, [`Self::compress_into`]
/// and [`Self::decompress_into`]: one pipeline that encodes into / decodes
/// from caller-owned buffers and keeps its intermediates in a
/// [`CompressScratch`]. [`Self::compress`] and [`Self::decompress`] are
/// **provided** wrappers that run that same pipeline on a fresh scratch, so
/// there is exactly one implementation of every codec and implementors
/// should not override them.
///
/// Decoding an encoded gradient must return a gradient over the same
/// dimension; lossy methods may perturb values (and truncation may drop
/// pairs), but — per §3.4 — any key that survives must be decoded *exactly*.
/// A scratch carries capacity, never meaning: the bytes written and the
/// gradient decoded must not depend on what the scratch processed before.
pub trait GradientCompressor: Send + Sync {
    /// Short name used in experiment tables (e.g. `"SketchML"`, `"ZipML"`).
    fn name(&self) -> &'static str;

    /// Encodes a gradient into `out` (cleared first) as a self-describing
    /// message, reusing `scratch`'s pooled buffers across calls, and returns
    /// the message's size accounting.
    ///
    /// # Errors
    /// Implementations reject structurally invalid gradients and
    /// out-of-range configurations with [`CompressError`]. On error `out`'s
    /// contents are unspecified; `scratch` stays reusable.
    fn compress_into(
        &self,
        grad: &SparseGradient,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError>;

    /// Decodes a message produced by this compressor's encoder into `out`
    /// (overwritten), reusing `scratch`'s pooled buffers across calls.
    ///
    /// # Errors
    /// Never panics on truncated or malformed payloads: a structural
    /// violation is [`CompressError::Corrupt`], an inner codec running out
    /// of bytes is [`CompressError::Encoding`], and decoded pairs that do
    /// not form a gradient are [`CompressError::InvalidGradient`]. On error
    /// `out`'s contents are unspecified; `scratch` stays reusable.
    fn decompress_into(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
        out: &mut SparseGradient,
    ) -> Result<(), CompressError>;

    /// [`Self::compress_into`] on a fresh scratch and buffer: the same
    /// bytes, owned. Convenient off the hot path (tests, tools, one-shot
    /// calls); a training loop keeps a scratch and calls `compress_into`.
    ///
    /// # Errors
    /// Same contract as [`Self::compress_into`].
    fn compress(&self, grad: &SparseGradient) -> Result<CompressedGradient, CompressError> {
        let mut out = BytesMut::new();
        let report = self.compress_into(grad, &mut CompressScratch::new(), &mut out)?;
        Ok(CompressedGradient {
            payload: out.freeze(),
            report,
        })
    }

    /// [`Self::decompress_into`] on a fresh scratch: the same gradient,
    /// owned.
    ///
    /// # Errors
    /// Same contract as [`Self::decompress_into`].
    fn decompress(&self, payload: &[u8]) -> Result<SparseGradient, CompressError> {
        let mut out = SparseGradient::empty(0);
        self.decompress_into(payload, &mut CompressScratch::new(), &mut out)?;
        Ok(out)
    }
}

impl<T: GradientCompressor + ?Sized> GradientCompressor for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn compress_into(
        &self,
        grad: &SparseGradient,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        (**self).compress_into(grad, scratch, out)
    }
    fn decompress_into(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
        out: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        (**self).decompress_into(payload, scratch, out)
    }
}

impl<T: GradientCompressor + ?Sized> GradientCompressor for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn compress_into(
        &self,
        grad: &SparseGradient,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        (**self).compress_into(grad, scratch, out)
    }
    fn decompress_into(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
        out: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        (**self).decompress_into(payload, scratch, out)
    }
}

/// Round-trips a gradient and reports the element-wise value error — the
/// harness used by the Appendix A.1 validation and several tests.
///
/// # Errors
/// Propagates compressor failures.
pub fn roundtrip_error(
    compressor: &dyn GradientCompressor,
    grad: &SparseGradient,
) -> Result<RoundtripStats, CompressError> {
    let msg = compressor.compress(grad)?;
    let decoded = compressor.decompress(&msg.payload)?;
    let orig = grad.to_dense();
    let got = decoded.to_dense();
    let mut sq_err = 0.0;
    let mut max_err: f64 = 0.0;
    let mut sign_flips = 0usize;
    for (o, g) in orig.iter().zip(&got) {
        let e = o - g;
        sq_err += e * e;
        max_err = max_err.max(e.abs());
        if *o != 0.0 && *g != 0.0 && o.signum() != g.signum() {
            sign_flips += 1;
        }
    }
    Ok(RoundtripStats {
        compressed_bytes: msg.len(),
        report: msg.report,
        squared_error: sq_err,
        max_abs_error: max_err,
        sign_flips,
        pairs_in: grad.nnz(),
        pairs_out: decoded.nnz(),
    })
}

/// Output of [`roundtrip_error`].
#[derive(Debug, Clone, Copy)]
pub struct RoundtripStats {
    /// Wire size of the compressed message.
    pub compressed_bytes: usize,
    /// Byte breakdown.
    pub report: SizeReport,
    /// `‖g − ĝ‖²` — the Appendix A.1 variance quantity.
    pub squared_error: f64,
    /// Largest absolute per-element error.
    pub max_abs_error: f64,
    /// Count of decoded values whose sign flipped (must be 0 for SketchML
    /// after the §3.3 Solution 1 fix).
    pub sign_flips: usize,
    /// Input pair count.
    pub pairs_in: usize,
    /// Output pair count (smaller only for truncation).
    pub pairs_out: usize,
}
