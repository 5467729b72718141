//! Seeded hash functions for the frequency-style sketches.
//!
//! Both [`crate::countmin::CountMinSketch`] and [`crate::minmax::MinMaxSketch`]
//! need a family of independent hash functions, one per row (paper §2.4:
//! "associated with each row is a separate hash function `h_i(-)`"). We use a
//! strong 64-bit finalizer (the SplitMix64 mixer) keyed with a per-row seed;
//! its avalanche behaviour gives output bits that are empirically
//! indistinguishable from pairwise independent, which is the assumption made
//! by the Appendix A.2 analysis.

use serde::{Deserialize, Serialize};

/// A family of `rows` seeded 64-bit hash functions mapping keys into
/// `[0, cols)` bins.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HashFamily {
    seeds: Vec<u64>,
    cols: usize,
}

/// SplitMix64 finalizer: a bijective mixer with full avalanche.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Appends the `rows` per-row seeds a [`HashFamily`] built from `seed` would
/// use. Exposed so a flat scratch-buffer hot path can derive seeds without
/// constructing (allocating) a family; the derivation is shared with
/// [`HashFamily::new`], so bin mappings are guaranteed identical.
pub fn push_row_seeds(rows: usize, seed: u64, out: &mut Vec<u64>) {
    // Derive well-separated per-row seeds by iterating the mixer.
    let mut s = mix64(seed ^ 0xA076_1D64_78BD_642F);
    for _ in 0..rows {
        s = mix64(s);
        out.push(s);
    }
}

impl HashFamily {
    /// Creates `rows` hash functions over `cols` bins, derived
    /// deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `rows == 0` or `cols == 0`; sketches validate their shape
    /// before constructing the family.
    pub fn new(rows: usize, cols: usize, seed: u64) -> Self {
        assert!(rows > 0, "hash family needs at least one row");
        assert!(cols > 0, "hash family needs at least one column");
        let mut seeds = Vec::with_capacity(rows);
        push_row_seeds(rows, seed, &mut seeds);
        HashFamily { seeds, cols }
    }

    /// Number of hash functions (sketch rows).
    #[inline]
    pub fn rows(&self) -> usize {
        self.seeds.len()
    }

    /// Number of bins each function maps into (sketch columns).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-row seeds; row `i` hashes with `seeds()[i]` via [`Self::bin_for`].
    #[inline]
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Bin chosen by row `row` for `key`.
    #[inline]
    pub fn bin(&self, row: usize, key: u64) -> usize {
        debug_assert!(row < self.seeds.len());
        Self::bin_for(self.seeds[row], self.cols, key)
    }

    /// Bin computed from a raw row seed (see [`Self::seeds`]). This is the
    /// whole hash function, exposed statically so batch loops can hoist the
    /// seed and column loads out of their inner loop.
    #[inline]
    pub fn bin_for(row_seed: u64, cols: usize, key: u64) -> usize {
        // Multiply-then-take-high via widening keeps the modulo bias
        // negligible for any practical `cols`.
        let h = mix64(key ^ row_seed);
        ((h as u128 * cols as u128) >> 64) as usize
    }

    /// Iterator over the bin chosen by every row for `key`.
    #[inline]
    pub fn bins<'a>(&'a self, key: u64) -> impl Iterator<Item = usize> + 'a {
        (0..self.rows()).map(move |row| self.bin(row, key))
    }
}

/// Fills `out[i]` with [`HashFamily::bin_for`]`(row_seed, cols, keys[i])`
/// over the whole slice. On an AVX2 CPU this batch form runs four keys per
/// iteration (`BENCHMARK.json` row `sketches.hash_mitems_per_s`);
/// [`fill_bins_scalar`] is the body every other CPU runs and the reference
/// the lane is tested against.
///
/// # Panics
/// Panics if the slices differ in length or `cols` exceeds `u32::MAX`
/// (every sketch shape in this crate is far below that).
pub fn fill_bins(row_seed: u64, cols: usize, keys: &[u64], out: &mut [u32]) {
    assert_eq!(keys.len(), out.len(), "bins buffer must match keys length");
    assert!(
        u32::try_from(cols).is_ok(),
        "fill_bins requires cols <= u32::MAX"
    );
    #[cfg(target_arch = "x86_64")]
    if crate::simd::lanes_active() {
        // SAFETY: `lanes_active` verified AVX2 is available at runtime.
        unsafe { avx2::fill_bins(row_seed, cols as u32, keys, out) };
        debug_assert!(
            keys.iter()
                .zip(out.iter())
                .all(|(&k, &bin)| bin == HashFamily::bin_for(row_seed, cols, k) as u32),
            "simd lane diverged from scalar fill_bins"
        );
        return;
    }
    fill_bins_scalar(row_seed, cols, keys, out);
}

/// Scalar reference implementation of [`fill_bins`].
#[inline]
pub fn fill_bins_scalar(row_seed: u64, cols: usize, keys: &[u64], out: &mut [u32]) {
    for (o, &k) in out.iter_mut().zip(keys) {
        *o = HashFamily::bin_for(row_seed, cols, k) as u32;
    }
}

/// Fills `out[i]` with `(mix64(keys[i] ^ sign_seed) & 1) << 63` — a sign-bit
/// *flip mask* for Count-Sketch's ±1 hash: XOR-ing it into an `f64`'s bits
/// multiplies the value by the row's sign for that key (exact for every
/// finite value, so sums stay bit-identical to the `±1.0 *` formulation).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn fill_sign_flips(sign_seed: u64, keys: &[u64], out: &mut [u64]) {
    assert_eq!(keys.len(), out.len(), "flips buffer must match keys length");
    for (o, &k) in out.iter_mut().zip(keys) {
        *o = (mix64(k ^ sign_seed) & 1) << 63;
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;

    const M0: i64 = 0x9E37_79B9_7F4A_7C15u64 as i64;
    const M1: i64 = 0xBF58_476D_1CE4_E5B9u64 as i64;
    const M2: i64 = 0x94D0_49BB_1331_11EBu64 as i64;

    /// Per-lane `a.wrapping_mul(b)` — AVX2 has no 64-bit multiply, so it is
    /// synthesized from 32×32→64 partial products.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul64_lo(a: __m256i, b: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let t1 = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
        let t2 = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
        _mm256_add_epi64(lo, _mm256_slli_epi64(_mm256_add_epi64(t1, t2), 32))
    }

    /// Per-lane [`super::mix64`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mix64x4(mut z: __m256i) -> __m256i {
        z = _mm256_add_epi64(z, _mm256_set1_epi64x(M0));
        z = mul64_lo(
            _mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
            _mm256_set1_epi64x(M1),
        );
        z = mul64_lo(
            _mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
            _mm256_set1_epi64x(M2),
        );
        _mm256_xor_si256(z, _mm256_srli_epi64(z, 31))
    }

    /// `((mix64(k ^ seed) as u128 * cols) >> 64)` for four keys at a time.
    ///
    /// With `cols < 2^32` the widening high product reduces to
    /// `floor((h_hi·c + floor(h_lo·c / 2^32)) / 2^32)`: `h_hi·c + (h_lo·c >>
    /// 32)` cannot overflow 64 bits, so two 32×32 partial products replace
    /// the full 64×64 widening multiply.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_bins(row_seed: u64, cols: u32, keys: &[u64], out: &mut [u32]) {
        let seed = _mm256_set1_epi64x(row_seed as i64);
        let c = _mm256_set1_epi64x(i64::from(cols));
        let n = keys.len();
        let mut i = 0;
        while i + 4 <= n {
            let k = _mm256_loadu_si256(keys.as_ptr().add(i).cast());
            let h = mix64x4(_mm256_xor_si256(k, seed));
            let lo = _mm256_mul_epu32(h, c);
            let hi = _mm256_mul_epu32(_mm256_srli_epi64(h, 32), c);
            let bins = _mm256_srli_epi64(_mm256_add_epi64(hi, _mm256_srli_epi64(lo, 32)), 32);
            // Pack the four 64-bit lanes' low words into 4×u32.
            let packed =
                _mm256_permutevar8x32_epi32(bins, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
            _mm_storeu_si128(
                out.as_mut_ptr().add(i).cast(),
                _mm256_castsi256_si128(packed),
            );
            i += 4;
        }
        for j in i..n {
            out[j] = super::HashFamily::bin_for(row_seed, cols as usize, keys[j]) as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_for_same_seed() {
        let a = HashFamily::new(3, 100, 42);
        let b = HashFamily::new(3, 100, 42);
        for key in 0..1000u64 {
            for row in 0..3 {
                assert_eq!(a.bin(row, key), b.bin(row, key));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = HashFamily::new(1, 1 << 20, 1);
        let b = HashFamily::new(1, 1 << 20, 2);
        let same = (0..1000u64).filter(|&k| a.bin(0, k) == b.bin(0, k)).count();
        assert!(
            same < 10,
            "seeds should decorrelate bins, got {same} collisions"
        );
    }

    #[test]
    fn rows_are_independent() {
        let f = HashFamily::new(2, 1 << 20, 7);
        let same = (0..1000u64).filter(|&k| f.bin(0, k) == f.bin(1, k)).count();
        assert!(
            same < 10,
            "rows should be independent, got {same} agreements"
        );
    }

    #[test]
    fn bins_stay_in_range() {
        for cols in [1usize, 2, 3, 17, 1000] {
            let f = HashFamily::new(4, cols, 99);
            for key in 0..500u64 {
                for row in 0..4 {
                    assert!(f.bin(row, key) < cols);
                }
            }
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let cols = 64;
        let n = 64_000u64;
        let f = HashFamily::new(1, cols, 1234);
        let mut counts = vec![0usize; cols];
        for key in 0..n {
            counts[f.bin(0, key)] += 1;
        }
        let expected = (n as usize) / cols;
        for (bin, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.25,
                "bin {bin} count {c} deviates from expected {expected}"
            );
        }
    }

    #[test]
    fn mix64_is_injective_on_sample() {
        let outs: HashSet<u64> = (0..100_000u64).map(mix64).collect();
        assert_eq!(outs.len(), 100_000);
    }

    #[test]
    fn bins_iterator_matches_bin() {
        let f = HashFamily::new(5, 37, 5);
        let collected: Vec<usize> = f.bins(12345).collect();
        let direct: Vec<usize> = (0..5).map(|r| f.bin(r, 12345)).collect();
        assert_eq!(collected, direct);
    }

    #[test]
    fn raw_seed_path_matches_family() {
        let f = HashFamily::new(3, 1000, 77);
        let mut seeds = Vec::new();
        push_row_seeds(3, 77, &mut seeds);
        assert_eq!(seeds, f.seeds());
        for key in 0..500u64 {
            for (row, &s) in seeds.iter().enumerate() {
                assert_eq!(HashFamily::bin_for(s, 1000, key), f.bin(row, key));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_panics() {
        let _ = HashFamily::new(0, 10, 0);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn zero_cols_panics() {
        let _ = HashFamily::new(1, 0, 0);
    }

    /// The AVX2 lane against [`fill_bins_scalar`], called directly so the
    /// comparison does not depend on the process-wide `force_scalar` toggle:
    /// every tail length around the 4-key stride and the 256-key chunks the
    /// sketches hash in, at the smallest, an odd, a typical and the largest
    /// admissible column count.
    #[test]
    fn fill_bins_lane_matches_scalar() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let keys: Vec<u64> = [0, 1, u64::MAX, u64::MAX - 1, 1 << 32, (1 << 32) - 1]
                .into_iter()
                .chain((0..10_000u64).map(mix64))
                .collect();
            for n in (0..=9).chain([255, 256, 257, 10_000]) {
                for cols in [1usize, 3, 2048, u32::MAX as usize] {
                    for seed in [0u64, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
                        let mut lane = vec![u32::MAX; n];
                        let mut scalar = vec![u32::MAX; n];
                        // SAFETY: AVX2 support was just detected.
                        unsafe { avx2::fill_bins(seed, cols as u32, &keys[..n], &mut lane) };
                        fill_bins_scalar(seed, cols, &keys[..n], &mut scalar);
                        assert_eq!(lane, scalar, "n={n} cols={cols} seed={seed:#x}");
                    }
                }
            }
            return;
        }
        println!("fill_bins_lane_matches_scalar: no AVX2 on this CPU, lane not compared");
    }
}
