//! SIMD lane dispatch for the sketch hot paths.
//!
//! Every vectorized routine in this crate keeps an always-compiled scalar
//! body. On x86_64 the lanes are compiled into every build and chosen per
//! call by CPU detection — there is no cargo feature and no other selector.
//! The scalar body is what runs on a CPU without AVX2 (or AVX-512F, for the
//! compactor sort) and on every other architecture, and it is the reference
//! the differential tests compare the lanes against: unit tests beside each
//! kernel, and the whole-payload twins of `tests/simd_scalar_equivalence.rs`
//! with the lanes pinned off through [`force_scalar`].

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

/// Like [`lanes_active`] but for the AVX-512F lanes (the in-register
/// compactor sort); same CPU detection and scalar-force hook.
#[inline]
pub fn lanes512_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !FORCE_SCALAR.load(Ordering::Relaxed) && std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}
