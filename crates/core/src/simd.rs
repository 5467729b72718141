//! Combined SIMD dispatch switch for the whole compression stack.
//!
//! The sketches and encoding crates each carry their own lane toggle (they
//! do not depend on one another); this module flips both at once so
//! differential tests can pin every vectorized routine — hashing, sorting,
//! sign partition, delta-binary packing — to its scalar reference with one
//! call.

/// Forces the scalar reference implementations across all crates, even when
/// the CPU supports AVX2/AVX-512F. A no-op where scalar is the only path.
pub fn force_scalar(on: bool) {
    sketchml_sketches::simd::force_scalar(on);
    sketchml_encoding::simd::force_scalar(on);
}

/// True when any vector lane in the stack is supported by this CPU and not
/// forced off by [`force_scalar`].
pub fn lanes_active() -> bool {
    sketchml_sketches::simd::lanes_active()
        || sketchml_sketches::simd::lanes512_active()
        || sketchml_encoding::simd::lanes_active()
}
