//! SIMD lane dispatch for the codec hot paths.
//!
//! Mirrors `sketchml-sketches::simd`: every vectorized routine keeps an
//! always-compiled scalar body; on x86_64 the lanes are compiled into every
//! build and chosen per call by CPU detection (no cargo feature, no other
//! selector). The scalar body runs on non-AVX2 CPUs and other
//! architectures, and is the reference the differential tests compare the
//! lanes against; [`force_scalar`] lets them pin it.
//! (This crate has its own toggle because it does not depend on the
//! sketches crate; `sketchml-core` re-exports a combined switch.)

use std::sync::atomic::{AtomicBool, Ordering};

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Forces the scalar reference implementations even when the CPU supports
/// the lanes. Test hook for scalar-vs-lane differential tests; a no-op
/// where scalar is the only path (non-x86_64 targets).
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::SeqCst);
}

/// True when the AVX2 lanes are supported by this CPU and not forced off by
/// [`force_scalar`].
#[inline]
pub fn lanes_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !FORCE_SCALAR.load(Ordering::Relaxed) && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
