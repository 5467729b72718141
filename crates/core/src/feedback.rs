//! Error feedback (residual compensation) — an **extension beyond the
//! paper** from the gradient-compression literature (Seide et al.'s 1-bit
//! SGD introduced it; later formalized as EF-SGD).
//!
//! A lossy compressor drops part of every gradient. Error feedback keeps
//! the dropped part as a *residual* and adds it back to the next round's
//! gradient before compressing:
//!
//! ```text
//! g'_t = g_t + r_{t-1}
//! m_t  = compress(g'_t)
//! r_t  = g'_t − decompress(m_t)
//! ```
//!
//! No information is permanently lost — it is only delayed — which repairs
//! the convergence of aggressive compressors like threshold truncation.
//!
//! This implementation is the **sparse ("lazy") variant**: the residual of a
//! dimension is folded back only when that dimension appears in a later
//! gradient. Folding *all* residual keys into every message (dense EF) would
//! destroy the gradient's sparsity — inflating the very messages SketchML
//! shrinks — and would also distort the value distribution the quantile
//! buckets adapt to. The `ext_error_feedback` experiment measures the
//! effect on truncation and on SketchML.
//!
//! # Hot path
//!
//! The wrapper keeps its own pooled buffers (compensated gradient, decoded
//! gradient) and computes residuals through the inner compressor's
//! `*_into` methods on the caller's [`CompressScratch`], so wrapping a
//! compressor in `ErrorFeedback` keeps the round allocation-free in steady
//! state. Residuals are matched by a linear merge over the two key-sorted
//! gradients instead of a per-round `HashMap` of sent values.

use crate::compressor::GradientCompressor;
use crate::error::CompressError;
use crate::gradient::SparseGradient;
use crate::scratch::CompressScratch;
use bytes::BytesMut;
use sketchml_encoding::stats::SizeReport;
use sketchml_telemetry as telemetry;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Mutable per-wrapper state: the carried residual plus pooled buffers that
/// keep every round allocation-free in steady state.
#[derive(Debug)]
struct EfState {
    residual: HashMap<u64, f64>,
    comp_keys: Vec<u64>,
    comp_vals: Vec<f64>,
    compensated: SparseGradient,
    decoded: SparseGradient,
}

impl Default for EfState {
    fn default() -> Self {
        EfState {
            residual: HashMap::new(),
            comp_keys: Vec::new(),
            comp_vals: Vec::new(),
            compensated: SparseGradient::empty(0),
            decoded: SparseGradient::empty(0),
        }
    }
}

/// Wraps any compressor with per-instance residual compensation.
///
/// The residual state lives inside the wrapper, so use one wrapper per
/// worker (exactly like the optimizer state).
#[derive(Debug)]
pub struct ErrorFeedback<C> {
    inner: C,
    state: Mutex<EfState>,
}

impl<C: GradientCompressor> ErrorFeedback<C> {
    /// Wraps `inner` with an empty residual.
    pub fn new(inner: C) -> Self {
        ErrorFeedback {
            inner,
            state: Mutex::new(EfState::default()),
        }
    }

    /// Locks the state, recovering from poisoning: a panic in a previous
    /// round leaves the residual map structurally intact (at worst missing
    /// that round's updates), so clearing the poison flag beats wedging
    /// every later round with a lock panic.
    fn lock_state(&self) -> MutexGuard<'_, EfState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sum of absolute residual mass currently carried forward.
    pub fn residual_l1(&self) -> f64 {
        self.lock_state().residual.values().map(|v| v.abs()).sum()
    }

    /// Number of keys with a carried residual.
    pub fn residual_len(&self) -> usize {
        self.lock_state().residual.len()
    }

    /// Key-sorted copy of the carried residual map, for diagnostics and for
    /// tests asserting that two wrappers hold identical state.
    pub fn residual_entries(&self) -> Vec<(u64, f64)> {
        let st = self.lock_state();
        let mut entries: Vec<(u64, f64)> = st.residual.iter().map(|(&k, &r)| (k, r)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries
    }

    /// Access to the wrapped compressor.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    #[cfg(test)]
    fn inject_residual(&self, key: u64, value: f64) {
        self.lock_state().residual.insert(key, value);
    }

    #[cfg(test)]
    fn residual_of(&self, key: u64) -> Option<f64> {
        self.lock_state().residual.get(&key).copied()
    }
}

/// Builds the compensated gradient `g' = g + r` into `keys`/`vals`, removing
/// consumed residuals from `residual`.
///
/// A compensated value that is exactly zero is dropped together with its
/// residual: `r_new = g' − decode = 0 − 0` is genuinely zero, nothing is
/// lost. A compensated value that overflows to a non-finite number cannot be
/// transmitted; its residual is **restored** so the mass is only delayed (or
/// deliberately cleared, when the carried residual itself is non-finite),
/// and the `ef_nonfinite` telemetry counter records the event either way.
fn compensate(
    grad: &SparseGradient,
    residual: &mut HashMap<u64, f64>,
    keys: &mut Vec<u64>,
    vals: &mut Vec<f64>,
) {
    keys.clear();
    vals.clear();
    keys.reserve(grad.nnz());
    vals.reserve(grad.nnz());
    for (k, v) in grad.iter() {
        let r = residual.remove(&k).unwrap_or(0.0);
        let compensated = v + r;
        if compensated == 0.0 {
            continue;
        }
        if !compensated.is_finite() {
            telemetry::inc(telemetry::Counter::EfNonFinite);
            if r != 0.0 && r.is_finite() {
                residual.insert(k, r);
            }
            continue;
        }
        keys.push(k);
        vals.push(compensated);
    }
}

/// Folds `g' − decode(m)` back into `residual`. Both gradients are
/// key-sorted, so the transmitted value for each compensated key is found by
/// a single linear merge; keys the inner compressor dropped entirely
/// (truncation) keep their whole compensated value.
fn update_residual(
    residual: &mut HashMap<u64, f64>,
    compensated: &SparseGradient,
    decoded: &SparseGradient,
) {
    let dec_keys = decoded.keys();
    let dec_vals = decoded.values();
    let mut j = 0usize;
    for (k, v) in compensated.iter() {
        while j < dec_keys.len() && dec_keys[j] < k {
            j += 1;
        }
        let sent = if j < dec_keys.len() && dec_keys[j] == k {
            let s = dec_vals[j];
            j += 1;
            s
        } else {
            0.0
        };
        let err = v - sent;
        if err.abs() > 1e-15 {
            residual.insert(k, err);
        }
    }
}

impl<C: GradientCompressor> GradientCompressor for ErrorFeedback<C> {
    fn name(&self) -> &'static str {
        "ErrorFeedback"
    }

    fn compress_into(
        &self,
        grad: &SparseGradient,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        let st = &mut *self.lock_state();
        compensate(grad, &mut st.residual, &mut st.comp_keys, &mut st.comp_vals);
        st.compensated
            .assign(grad.dim(), &st.comp_keys, &st.comp_vals)?;

        let report = self.inner.compress_into(&st.compensated, scratch, out)?;
        self.inner
            .decompress_into(&out[..], scratch, &mut st.decoded)?;
        update_residual(&mut st.residual, &st.compensated, &st.decoded);
        Ok(report)
    }

    fn decompress_into(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
        out: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        self.inner.decompress_into(payload, scratch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{RawCompressor, TruncationCompressor};
    use crate::sketchml::SketchMlCompressor;

    fn constant_gradient() -> SparseGradient {
        let keys: Vec<u64> = (0..100u64).map(|i| i * 7).collect();
        let values: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 0.1 } else { -0.05 })
            .collect();
        SparseGradient::new(1_000, keys, values).unwrap()
    }

    #[test]
    fn residual_preserves_dropped_mass() {
        // Truncation keeps only 10% per round; with error feedback the
        // cumulative decoded signal still approaches the cumulative input.
        let ef = ErrorFeedback::new(TruncationCompressor { keep_ratio: 0.1 });
        let grad = constant_gradient();
        let rounds = 60;
        let mut cumulative = vec![0.0f64; grad.dim() as usize];
        for _ in 0..rounds {
            let msg = ef.compress(&grad).unwrap();
            let decoded = ef.decompress(&msg.payload).unwrap();
            for (k, v) in decoded.iter() {
                cumulative[k as usize] += v;
            }
        }
        let target: Vec<f64> = {
            let mut t = vec![0.0; grad.dim() as usize];
            for (k, v) in grad.iter() {
                t[k as usize] = v * rounds as f64;
            }
            t
        };
        let err: f64 = cumulative
            .iter()
            .zip(&target)
            .map(|(c, t)| (c - t).abs())
            .sum();
        let total: f64 = target.iter().map(|t| t.abs()).sum();
        assert!(
            err / total < 0.25,
            "error feedback should recover dropped mass: rel err {}",
            err / total
        );
        // Without feedback, plain 10% truncation loses 90% of the mass.
        let plain = TruncationCompressor { keep_ratio: 0.1 };
        let decoded = plain
            .decompress(&plain.compress(&grad).unwrap().payload)
            .unwrap();
        assert!(decoded.nnz() <= grad.nnz() / 5);
    }

    #[test]
    fn residual_shrinks_for_accurate_compressors() {
        let ef = ErrorFeedback::new(SketchMlCompressor::default());
        let grad = constant_gradient();
        for _ in 0..5 {
            ef.compress(&grad).unwrap();
        }
        // SketchML's decay leaves some residual, but it must stay bounded
        // (the compensation is re-sent, not accumulated forever).
        let r1 = ef.residual_l1();
        for _ in 0..20 {
            ef.compress(&grad).unwrap();
        }
        let r2 = ef.residual_l1();
        assert!(
            r2 < r1 * 3.0 + 1.0,
            "residual must not diverge: {r1} -> {r2}"
        );
    }

    #[test]
    fn decompress_passthrough() {
        let ef = ErrorFeedback::new(SketchMlCompressor::default());
        let grad = constant_gradient();
        let msg = ef.compress(&grad).unwrap();
        let a = ef.decompress(&msg.payload).unwrap();
        let b = SketchMlCompressor::default()
            .decompress(&msg.payload)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(ef.inner().name(), "SketchML");
    }

    #[test]
    fn warm_scratch_matches_fresh_scratch() {
        // Two wrappers fed the same rounds must emit identical payloads and
        // end with identical residual maps, whether the caller keeps one
        // scratch across rounds or hands in a fresh one every time.
        let fresh = ErrorFeedback::new(SketchMlCompressor::default());
        let pooled = ErrorFeedback::new(SketchMlCompressor::default());
        let mut scratch = CompressScratch::new();
        let mut out = BytesMut::new();
        let grad = constant_gradient();
        for round in 0..6 {
            let msg = fresh.compress(&grad).unwrap();
            let report = pooled.compress_into(&grad, &mut scratch, &mut out).unwrap();
            assert_eq!(&out[..], &msg.payload[..], "round {round}");
            assert_eq!(report.total(), msg.report.total());
        }
        assert_eq!(fresh.residual_len(), pooled.residual_len());
        assert!((fresh.residual_l1() - pooled.residual_l1()).abs() < 1e-12);
        // decompress_into passes through to the inner scratch decoder.
        let msg = fresh.compress(&grad).unwrap();
        let mut decoded = SparseGradient::empty(0);
        pooled
            .decompress_into(&msg.payload, &mut scratch, &mut decoded)
            .unwrap();
        assert_eq!(decoded, fresh.decompress(&msg.payload).unwrap());
    }

    #[test]
    fn nonfinite_compensation_restores_residual() {
        let ef = ErrorFeedback::new(RawCompressor::default());
        let grad = SparseGradient::new(10, vec![3], vec![f64::MAX]).unwrap();
        ef.inject_residual(3, f64::MAX);
        let session = sketchml_telemetry::TelemetrySession::begin();
        let msg = ef.compress(&grad).unwrap();
        let snap = session.finish();
        // MAX + MAX overflows: the key is skipped this round...
        assert!(ef.decompress(&msg.payload).unwrap().is_empty());
        // ...but the carried residual survives instead of vanishing.
        assert_eq!(ef.residual_of(3), Some(f64::MAX));
        assert_eq!(snap.pipeline.ef_nonfinite, 1);
    }

    #[test]
    fn nonfinite_residual_is_deliberately_cleared() {
        let ef = ErrorFeedback::new(RawCompressor::default());
        let grad = SparseGradient::new(10, vec![3], vec![1.0]).unwrap();
        ef.inject_residual(3, f64::INFINITY);
        let session = sketchml_telemetry::TelemetrySession::begin();
        ef.compress(&grad).unwrap();
        let snap = session.finish();
        // An already-poisoned residual cannot be carried meaningfully; it is
        // dropped and the counter records the loss.
        assert_eq!(ef.residual_of(3), None);
        assert_eq!(snap.pipeline.ef_nonfinite, 1);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let ef = std::sync::Arc::new(ErrorFeedback::new(RawCompressor::default()));
        ef.inject_residual(5, 0.25);
        let poisoner = std::sync::Arc::clone(&ef);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("poison the residual lock");
        })
        .join();
        // The wrapper keeps working and the residual state survives.
        assert_eq!(ef.residual_of(5), Some(0.25));
        assert!((ef.residual_l1() - 0.25).abs() < 1e-15);
        ef.compress(&constant_gradient()).unwrap();
    }
}
