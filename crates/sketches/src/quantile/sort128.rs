//! AVX-512F in-register sort of exactly 128 `u64` keys.
//!
//! The merging quantile sketch compacts level buffers of the default
//! capacity 128, so the encode hot path sorts the same size millions of
//! times. This kernel sorts 128 keys entirely in zmm registers — no
//! data-dependent branches, so no mispredictions on random compactor
//! contents (where comparison-based sorts mispredict roughly every other
//! compare):
//!
//! 1. **Column sort** — the keys are viewed as 16 vectors × 8 lanes and a
//!    Batcher odd-even 16-input network ([`COLSORT16`], 63 compare-exchanges)
//!    runs *vertically*: one `vpminuq`/`vpmaxuq` pair per comparator sorts
//!    all 8 lane-columns at once.
//! 2. **Transpose** — two 8×8 qword transposes turn the 8 sorted columns
//!    into 8 contiguous sorted 16-runs (two vectors each).
//! 3. **Bitonic merge rounds** — 16+16 → 32 → 64 → 128 with the classic
//!    reverse-and-clean bitonic merge; intra-vector cleaning uses the three
//!    masked distance-4/2/1 stages.
//!
//! The final 64+64 round doubles as [`merge_halves_128`] for level buffers
//! that are a concatenation of two sorted 64-runs (every compaction emits
//! sorted 64-chunks, so upper levels hit exactly that shape).
//!
//! The scalar reference is plain `sort_unstable` — u64 duplicates are
//! interchangeable, so any correct sort yields the identical byte sequence,
//! which the tests below (and `merging`'s `sort_total` test) assert.

use core::arch::x86_64::{
    __m512i, _mm512_loadu_si512, _mm512_mask_mov_epi64, _mm512_max_epu64, _mm512_min_epu64,
    _mm512_permutexvar_epi64, _mm512_set_epi64, _mm512_shuffle_i64x2, _mm512_storeu_si512,
    _mm512_unpackhi_epi64, _mm512_unpacklo_epi64,
};

/// Batcher odd-even mergesort network for 16 inputs: 63 comparators in 10
/// layers. Exhaustively validated against the 0-1 principle in the tests.
pub(crate) const COLSORT16: [(u8, u8); 63] = [
    (0, 1),
    (2, 3),
    (4, 5),
    (6, 7),
    (8, 9),
    (10, 11),
    (12, 13),
    (14, 15),
    (0, 2),
    (1, 3),
    (4, 6),
    (5, 7),
    (8, 10),
    (9, 11),
    (12, 14),
    (13, 15),
    (1, 2),
    (5, 6),
    (9, 10),
    (13, 14),
    (0, 4),
    (1, 5),
    (2, 6),
    (3, 7),
    (8, 12),
    (9, 13),
    (10, 14),
    (11, 15),
    (2, 4),
    (3, 5),
    (10, 12),
    (11, 13),
    (1, 2),
    (3, 4),
    (5, 6),
    (9, 10),
    (11, 12),
    (13, 14),
    (0, 8),
    (1, 9),
    (2, 10),
    (3, 11),
    (4, 12),
    (5, 13),
    (6, 14),
    (7, 15),
    (4, 8),
    (5, 9),
    (6, 10),
    (7, 11),
    (2, 4),
    (3, 5),
    (6, 8),
    (7, 9),
    (10, 12),
    (11, 13),
    (1, 2),
    (3, 4),
    (5, 6),
    (7, 8),
    (9, 10),
    (11, 12),
    (13, 14),
];

/// Vector compare-exchange: after the call `w[a]` holds the lane-wise
/// minima and `w[b]` the maxima.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn ce(w: &mut [__m512i; 16], a: usize, b: usize) {
    let lo = _mm512_min_epu64(w[a], w[b]);
    let hi = _mm512_max_epu64(w[a], w[b]);
    w[a] = lo;
    w[b] = hi;
}

/// Reverses the 8 lanes of `v`.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn rev8(v: __m512i) -> __m512i {
    _mm512_permutexvar_epi64(_mm512_set_epi64(0, 1, 2, 3, 4, 5, 6, 7), v)
}

/// Sorts the bitonic 8-lane sequence in `v` ascending: masked distance-4,
/// -2, -1 compare-exchange stages (upper partner of each pair keeps the
/// max, selected by the lane mask).
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn clean8(v: __m512i) -> __m512i {
    let p = _mm512_permutexvar_epi64(_mm512_set_epi64(3, 2, 1, 0, 7, 6, 5, 4), v);
    let v = _mm512_mask_mov_epi64(_mm512_min_epu64(v, p), 0xF0, _mm512_max_epu64(v, p));
    let p = _mm512_permutexvar_epi64(_mm512_set_epi64(5, 4, 7, 6, 1, 0, 3, 2), v);
    let v = _mm512_mask_mov_epi64(_mm512_min_epu64(v, p), 0xCC, _mm512_max_epu64(v, p));
    let p = _mm512_permutexvar_epi64(_mm512_set_epi64(6, 7, 4, 5, 2, 3, 0, 1), v);
    _mm512_mask_mov_epi64(_mm512_min_epu64(v, p), 0xAA, _mm512_max_epu64(v, p))
}

/// Merges the two adjacent ascending runs `w[i0..i0+k]` and
/// `w[i0+k..i0+2k]` (each `k` vectors = `8k` keys) into one ascending run:
/// reverse the second run to form a bitonic sequence, then clean with
/// halving vector distances and a final per-vector [`clean8`].
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn bitonic_merge(w: &mut [__m512i; 16], i0: usize, k: usize) {
    for i in 0..k / 2 {
        let a = rev8(w[i0 + k + i]);
        let b = rev8(w[i0 + 2 * k - 1 - i]);
        w[i0 + k + i] = b;
        w[i0 + 2 * k - 1 - i] = a;
    }
    if k % 2 == 1 {
        w[i0 + k + k / 2] = rev8(w[i0 + k + k / 2]);
    }
    let mut d = k;
    while d >= 1 {
        let mut blk = 0;
        while blk < 2 * k {
            for i in 0..d {
                ce(w, i0 + blk + i, i0 + blk + i + d);
            }
            blk += 2 * d;
        }
        d /= 2;
    }
    for v in w[i0..i0 + 2 * k].iter_mut() {
        *v = clean8(*v);
    }
}

/// Transposes the 8×8 qword block `r` (rows → columns): qword unpacks pair
/// the rows, then two rounds of 128-bit-lane shuffles regroup them.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn transpose8(r: &[__m512i]) -> [__m512i; 8] {
    let t0 = _mm512_unpacklo_epi64(r[0], r[1]);
    let t1 = _mm512_unpackhi_epi64(r[0], r[1]);
    let t2 = _mm512_unpacklo_epi64(r[2], r[3]);
    let t3 = _mm512_unpackhi_epi64(r[2], r[3]);
    let t4 = _mm512_unpacklo_epi64(r[4], r[5]);
    let t5 = _mm512_unpackhi_epi64(r[4], r[5]);
    let t6 = _mm512_unpacklo_epi64(r[6], r[7]);
    let t7 = _mm512_unpackhi_epi64(r[6], r[7]);
    let s0 = _mm512_shuffle_i64x2::<0x88>(t0, t2);
    let s1 = _mm512_shuffle_i64x2::<0x88>(t4, t6);
    let s2 = _mm512_shuffle_i64x2::<0xDD>(t0, t2);
    let s3 = _mm512_shuffle_i64x2::<0xDD>(t4, t6);
    let s4 = _mm512_shuffle_i64x2::<0x88>(t1, t3);
    let s5 = _mm512_shuffle_i64x2::<0x88>(t5, t7);
    let s6 = _mm512_shuffle_i64x2::<0xDD>(t1, t3);
    let s7 = _mm512_shuffle_i64x2::<0xDD>(t5, t7);
    [
        _mm512_shuffle_i64x2::<0x88>(s0, s1),
        _mm512_shuffle_i64x2::<0x88>(s4, s5),
        _mm512_shuffle_i64x2::<0x88>(s2, s3),
        _mm512_shuffle_i64x2::<0x88>(s6, s7),
        _mm512_shuffle_i64x2::<0xDD>(s0, s1),
        _mm512_shuffle_i64x2::<0xDD>(s4, s5),
        _mm512_shuffle_i64x2::<0xDD>(s2, s3),
        _mm512_shuffle_i64x2::<0xDD>(s6, s7),
    ]
}

/// Sorts `keys` (which must hold exactly 128 elements) ascending.
///
/// # Safety
/// The caller must have verified AVX-512F support (e.g. via
/// [`crate::simd::lanes512_active`]).
#[target_feature(enable = "avx512f")]
pub unsafe fn sort_128(keys: &mut [u64]) {
    assert_eq!(keys.len(), 128);
    let p = keys.as_mut_ptr();
    let mut v = [_mm512_loadu_si512(p.cast()); 16];
    for (i, slot) in v.iter_mut().enumerate().skip(1) {
        *slot = _mm512_loadu_si512(p.add(8 * i).cast());
    }
    for &(a, b) in &COLSORT16 {
        ce(&mut v, a as usize, b as usize);
    }
    // Lane-column `c` is now the sorted 16-run (rows 0..16, lane c); the
    // transposes make each run contiguous: top[c] = first 8, bot[c] = last 8.
    let top = transpose8(&v[..8]);
    let bot = transpose8(&v[8..]);
    let mut w = [top[0]; 16];
    for c in 0..8 {
        w[2 * c] = top[c];
        w[2 * c + 1] = bot[c];
    }
    for c in [0, 4, 8, 12] {
        bitonic_merge(&mut w, c, 2);
    }
    for c in [0, 8] {
        bitonic_merge(&mut w, c, 4);
    }
    bitonic_merge(&mut w, 0, 8);
    for (i, slot) in w.iter().enumerate() {
        _mm512_storeu_si512(p.add(8 * i).cast(), *slot);
    }
}

/// Merges `keys[..64]` and `keys[64..]`, each already sorted ascending, into
/// one sorted 128-run (the final round of [`sort_128`] on its own).
///
/// # Safety
/// As for [`sort_128`].
#[target_feature(enable = "avx512f")]
pub unsafe fn merge_halves_128(keys: &mut [u64]) {
    assert_eq!(keys.len(), 128);
    debug_assert!(keys[..64].windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(keys[64..].windows(2).all(|w| w[0] <= w[1]));
    let p = keys.as_mut_ptr();
    let mut w = [_mm512_loadu_si512(p.cast()); 16];
    for (i, slot) in w.iter_mut().enumerate().skip(1) {
        *slot = _mm512_loadu_si512(p.add(8 * i).cast());
    }
    bitonic_merge(&mut w, 0, 8);
    for (i, slot) in w.iter().enumerate() {
        _mm512_storeu_si512(p.add(8 * i).cast(), *slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Applies [`COLSORT16`] to a scalar 16-array.
    fn apply_network(v: &mut [u64; 16]) {
        for &(a, b) in &COLSORT16 {
            let (x, y) = (v[a as usize], v[b as usize]);
            v[a as usize] = x.min(y);
            v[b as usize] = x.max(y);
        }
    }

    /// 0-1 principle: a comparator network sorts all inputs iff it sorts
    /// every 0-1 sequence; 16 inputs means 2^16 cases, checked exhaustively.
    #[test]
    fn colsort16_satisfies_zero_one_principle() {
        for bits in 0u32..(1 << 16) {
            let mut v = [0u64; 16];
            for (i, slot) in v.iter_mut().enumerate() {
                *slot = u64::from(bits >> i & 1);
            }
            let mut expect = v;
            expect.sort_unstable();
            apply_network(&mut v);
            assert_eq!(v, expect, "network fails on pattern {bits:#x}");
        }
    }

    #[test]
    fn sort_128_matches_sort_unstable() {
        if !crate::simd::lanes512_active() {
            println!("sort_128_matches_sort_unstable: no AVX-512F on this CPU, kernel not run");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x50A7);
        for case in 0..200 {
            let mut keys: Vec<u64> = match case % 4 {
                0 => (0..128).map(|_| rng.gen()).collect(),
                1 => (0..128).map(|_| rng.gen_range(0..16)).collect(),
                2 => (0..128u64).rev().collect(),
                _ => (0..128).map(|_| rng.gen::<u32>() as u64).collect(),
            };
            let mut expect = keys.clone();
            expect.sort_unstable();
            unsafe { sort_128(&mut keys) };
            assert_eq!(keys, expect);
        }
    }

    #[test]
    fn merge_halves_matches_sort_unstable() {
        if !crate::simd::lanes512_active() {
            println!("merge_halves_matches_sort_unstable: no AVX-512F on this CPU, kernel not run");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x4D4D);
        for _ in 0..200 {
            let mut keys: Vec<u64> = (0..128).map(|_| rng.gen_range(0..1000)).collect();
            keys[..64].sort_unstable();
            keys[64..].sort_unstable();
            let mut expect = keys.clone();
            expect.sort_unstable();
            unsafe { merge_halves_128(&mut keys) };
            assert_eq!(keys, expect);
        }
    }
}
