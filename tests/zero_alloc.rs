//! The zero-allocation contract of the codec hot path (DESIGN.md §2.2): once
//! a `CompressScratch`, an output buffer and a decode target have seen a
//! gradient of the round's size, `compress_into` and `decompress_into`
//! never touch the heap again — with telemetry off, which is the default
//! and costs one relaxed load per gate.
//!
//! The counter is a process-wide `#[global_allocator]` (the sharded engine
//! encodes on pool threads, so a thread-local count would miss them), which
//! is why this file is a test binary of its own with a single `#[test]`:
//! a second test running beside it would be counted too.

use bytes::BytesMut;
use rand::prelude::*;
use rand::rngs::StdRng;
use sketchml_core::{
    CompressScratch, ErrorFeedback, FastSgdCompressor, GradientCompressor, ShardedCompressor,
    SketchMlCompressor, SparseGradient,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Steady-state calls counted per engine, size and direction.
const CALLS: usize = 10;

/// A heavy-tailed gradient: ~80-apart keys, sixth-power magnitudes, mixed
/// signs.
fn gradient(nnz: usize, seed: u64) -> SparseGradient {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cur = 0u64;
    let keys: Vec<u64> = (0..nnz)
        .map(|_| {
            cur += rng.gen_range(1..80);
            cur
        })
        .collect();
    let values: Vec<f64> = (0..nnz)
        .map(|_| {
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            sign * rng.gen::<f64>().powi(6) * 0.35 + 1e-12
        })
        .collect();
    SparseGradient::new(cur + 1, keys, values).expect("valid gradient")
}

/// Heap allocations (alloc + realloc, any thread) made by `CALLS` calls of
/// `op` after `warmup` uncounted ones.
fn steady_state_allocs(warmup: usize, mut op: impl FnMut()) -> u64 {
    for _ in 0..warmup {
        op();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..CALLS {
        op();
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn warm_compress_into_and_decompress_into_allocate_nothing() {
    assert!(
        !sketchml_telemetry::enabled(),
        "the contract is for disabled telemetry, the default"
    );
    let serial = SketchMlCompressor::default();
    let sharded = ShardedCompressor::new(SketchMlCompressor::default(), 4)
        .expect("4 shards valid")
        .with_threads(4)
        .expect("4 threads valid");
    let ef = ErrorFeedback::new(SketchMlCompressor::default());
    let fastsgd = FastSgdCompressor::default();
    let fastsgd8 = FastSgdCompressor::new(8).expect("8 bits valid");
    // Error feedback's residual map reaches its steady-state key set only
    // after a few rounds, so it gets a longer uncounted runway.
    let engines: [(&str, &dyn GradientCompressor, usize); 5] = [
        ("serial", &serial, 3),
        ("sharded@4", &sharded, 3),
        ("ef", &ef, 6),
        ("fastsgd", &fastsgd, 3),
        ("fastsgd:8", &fastsgd8, 3),
    ];

    let mut scratch = CompressScratch::new();
    let mut out = BytesMut::new();
    let mut decoded = SparseGradient::empty(0);
    for d in [10_000usize, 100_000] {
        let grad = gradient(d, 11);
        for (name, engine, warmup) in engines {
            let allocs = steady_state_allocs(warmup, || {
                engine
                    .compress_into(&grad, &mut scratch, &mut out)
                    .expect("compress_into");
                std::hint::black_box(out.len());
            });
            assert_eq!(
                allocs, 0,
                "{name}: warm compress_into allocated {allocs} times over {CALLS} calls at d={d}"
            );
            let allocs = steady_state_allocs(warmup, || {
                engine
                    .decompress_into(&out, &mut scratch, &mut decoded)
                    .expect("decompress_into");
                std::hint::black_box(decoded.nnz());
            });
            assert_eq!(decoded.nnz(), d, "{name} at d={d}");
            assert_eq!(
                allocs, 0,
                "{name}: warm decompress_into allocated {allocs} times over {CALLS} calls at d={d}"
            );
        }
    }
}
