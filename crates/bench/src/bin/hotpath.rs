//! Hot-path perf trajectory: fresh-scratch vs warm-scratch compression.
//!
//! Sweeps gradient size d ∈ {10k, 100k, 1M} × {serial, sharded@4, ef,
//! fastsgd, fastsgd8} × {alloc, scratch}, timing encode per call under a
//! counting global allocator, and writes `BENCH_hotpath.json` so future PRs
//! have a baseline to regress against (DESIGN.md §2.2). A second table
//! times the vectorized primitives in isolation (batch hashing, bucket-LUT
//! lookup, delta-binary flag packing, MinMaxSketch batch insert). There is
//! one codec pipeline: the `alloc` rows time the provided `compress` wrapper
//! (a fresh scratch and buffer per call), the `scratch` rows time
//! `compress_into` on a scratch kept across calls. The run aborts if the
//! warm scratch ever produces different bytes than a fresh one, if **any**
//! warm-scratch call allocates in steady state, if
//! telemetry is unexpectedly enabled (the whole sweep measures the
//! disabled-telemetry contract: one relaxed atomic load per gate), or if
//! serial encode throughput regresses >20% against the committed baseline
//! measured under the same SIMD configuration.
//!
//! `--quick` skips the 1M point and shrinks iteration counts (CI smoke).

use bytes::BytesMut;
use rand::prelude::*;
use rand::rngs::StdRng;
use serde::Serialize;
use sketchml_bench::output::print_table;
use sketchml_core::quantify::BucketTable;
use sketchml_core::{
    CompressScratch, ErrorFeedback, FastSgdCompressor, GradientCompressor, ShardedCompressor,
    SketchMlCompressor, SparseGradient,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation (alloc + realloc) made by the process so
/// the bench can assert the scratch path is allocation-free after warmup.
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

#[derive(Serialize)]
struct Row {
    d: usize,
    mode: &'static str,
    path: &'static str,
    median_ns_per_op: u64,
    mbps: f64,
    allocs_per_op: u64,
}

#[derive(Serialize)]
struct PrimRow {
    primitive: &'static str,
    n: usize,
    median_ns_per_op: u64,
    /// Millions of items processed per second.
    mitems_per_s: f64,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    quick: bool,
    /// Whether any vector lane (AVX2/AVX-512) was active for this run; the
    /// regression gate only compares runs with matching configurations.
    simd: bool,
    iterations: Vec<usize>,
    rows: Vec<Row>,
    primitives: Vec<PrimRow>,
    /// Encode speedup of a warm scratch over a fresh one per call at the
    /// largest serial point; absent in `--quick` runs.
    d1m_serial_speedup: Option<f64>,
}

/// The same heavy-tailed gradient distribution the Criterion compressor
/// benches use: ~80-apart keys, sixth-power magnitudes, mixed signs.
fn gradient(nnz: usize, seed: u64) -> SparseGradient {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cur = 0u64;
    let keys: Vec<u64> = (0..nnz)
        .map(|_| {
            cur += rng.gen_range(1..80);
            cur
        })
        .collect();
    let dim = cur + 1;
    let values: Vec<f64> = (0..nnz)
        .map(|_| {
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            sign * rng.gen::<f64>().powi(6) * 0.35 + 1e-12
        })
        .collect();
    SparseGradient::new(dim, keys, values).expect("valid gradient")
}

/// Times `op` per call after `warmup` untimed calls; returns
/// (median ns/op, allocs/op) over the measured window.
fn measure(iters: usize, warmup: usize, mut op: impl FnMut()) -> (u64, u64) {
    for _ in 0..warmup {
        op();
    }
    let mut ns: Vec<u64> = Vec::with_capacity(iters);
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..iters {
        let t = Instant::now();
        op();
        ns.push(t.elapsed().as_nanos() as u64);
    }
    let allocs = (ALLOCS.load(Ordering::Relaxed) - before) / iters as u64;
    ns.sort_unstable();
    (ns[iters / 2], allocs)
}

fn mbps(d: usize, median_ns: u64) -> f64 {
    // Uncompressed message size: 4-byte key + 8-byte value per pair, the
    // same accounting the cluster simulator uses for raw downlinks.
    (12 * d) as f64 / (median_ns as f64 / 1e9) / 1e6
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick {
        &[10_000, 100_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };

    // The whole sweep measures the disabled-telemetry contract.
    assert!(
        !sketchml_telemetry::enabled(),
        "telemetry must be disabled for the hot-path baseline"
    );

    let serial = SketchMlCompressor::default();
    let sharded = ShardedCompressor::new(SketchMlCompressor::default(), 4)
        .expect("4 shards valid")
        .with_threads(4)
        .expect("4 threads valid");
    let ef = ErrorFeedback::new(SketchMlCompressor::default());
    let fastsgd = FastSgdCompressor::default();
    let fastsgd8 = FastSgdCompressor::new(8).expect("8 bits valid");
    let engines: [(&'static str, &dyn GradientCompressor); 5] = [
        ("serial", &serial),
        ("sharded4", &sharded),
        ("ef", &ef),
        ("fastsgd", &fastsgd),
        ("fastsgd8", &fastsgd8),
    ];

    let mut rows = Vec::new();
    let mut iterations = Vec::new();
    let mut scratch = CompressScratch::new();
    let mut out = BytesMut::new();
    for &d in sizes {
        let grad = gradient(d, 11);
        let iters = if d <= 10_000 {
            if quick {
                30
            } else {
                60
            }
        } else if d <= 100_000 {
            if quick {
                10
            } else {
                30
            }
        } else {
            12
        };
        iterations.push(iters);
        for (mode, engine) in engines {
            if mode == "ef" {
                // Error feedback is stateful (the residual evolves every
                // round), so the byte oracle is a twin wrapper advanced in
                // lockstep rather than a fresh compress of the same input.
                let oracle = ErrorFeedback::new(SketchMlCompressor::default());
                let twin = ErrorFeedback::new(SketchMlCompressor::default());
                for round in 0..3 {
                    let reference = oracle.compress(&grad).expect("compress").payload;
                    twin.compress_into(&grad, &mut scratch, &mut out)
                        .expect("compress_into");
                    assert_eq!(
                        &out[..],
                        &reference[..],
                        "EF on a warm scratch diverged from a fresh scratch \
                         (d={d}, round={round})"
                    );
                }
            } else {
                // A fresh scratch is the byte oracle for the warm one.
                let reference = engine.compress(&grad).expect("compress").payload;
                engine
                    .compress_into(&grad, &mut scratch, &mut out)
                    .expect("compress_into");
                assert_eq!(
                    &out[..],
                    &reference[..],
                    "warm scratch diverged from a fresh scratch (d={d}, {mode})"
                );
            }

            let (alloc_ns, alloc_allocs) = measure(iters, 2, || {
                std::hint::black_box(engine.compress(&grad).expect("compress").len());
            });
            // EF's residual map reaches its steady-state key set only after
            // a few rounds; give it a longer untimed runway.
            let warmup = if mode == "ef" { 6 } else { 3 };
            let (scratch_ns, scratch_allocs) = measure(iters, warmup, || {
                engine
                    .compress_into(&grad, &mut scratch, &mut out)
                    .expect("compress_into");
                std::hint::black_box(out.len());
            });
            assert!(
                scratch_allocs == 0,
                "{mode} scratch path must be allocation-free in steady state, \
                 saw {scratch_allocs} allocs/op at d={d}"
            );
            rows.push(Row {
                d,
                mode,
                path: "alloc",
                median_ns_per_op: alloc_ns,
                mbps: mbps(d, alloc_ns),
                allocs_per_op: alloc_allocs,
            });
            rows.push(Row {
                d,
                mode,
                path: "scratch",
                median_ns_per_op: scratch_ns,
                mbps: mbps(d, scratch_ns),
                allocs_per_op: scratch_allocs,
            });
        }
    }

    // --- Vectorized primitives in isolation (the tentpole's inner loops) ---
    let prim_n = 100_000usize;
    let prim_iters = if quick { 60 } else { 200 };
    let pg = gradient(prim_n, 7);
    let (keys, values) = (pg.keys(), pg.values());
    let mut primitives = Vec::new();
    let mut prim = |name: &'static str, op: &mut dyn FnMut()| {
        let (ns, _) = measure(prim_iters, 3, op);
        primitives.push(PrimRow {
            primitive: name,
            n: prim_n,
            median_ns_per_op: ns,
            mitems_per_s: prim_n as f64 / (ns as f64 / 1e9) / 1e6,
        });
    };
    let mut bins = vec![0u32; prim_n];
    prim("hash_batch_bins", &mut || {
        sketchml_sketches::hash::fill_bins(0x9E37_79B9_7F4A_7C15, 2048, keys, &mut bins);
        std::hint::black_box(bins[0]);
    });
    let mut flips = vec![0u64; prim_n];
    prim("hash_batch_signs", &mut || {
        sketchml_sketches::hash::fill_sign_flips(0xA5A5_1234, keys, &mut flips);
        std::hint::black_box(flips[0]);
    });
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = 256usize;
    let splits: Vec<f64> = (0..=q)
        .map(|i| sorted[(i * (sorted.len() - 1)) / q])
        .collect();
    let mut table = BucketTable::default();
    table.rebuild(&splits);
    let mut buckets = Vec::new();
    prim("lut_lookup", &mut || {
        table.lookup_into(&splits, values, &mut buckets);
        std::hint::black_box(buckets[0]);
    });
    let mut packed = BytesMut::new();
    prim("flag_pack_keys", &mut || {
        packed.clear();
        let n = sketchml_encoding::delta_binary::encode_keys_into(keys, &mut packed)
            .expect("valid keys pack");
        std::hint::black_box(n);
    });
    let indexes: Vec<u16> = (0..prim_n).map(|i| (i % 255) as u16).collect();
    let mut mm =
        sketchml_sketches::minmax::MinMaxSketch::new(3, 65_536, 0xABCD).expect("valid sketch dims");
    prim("sketch_insert", &mut || {
        mm.insert_batch(keys, &indexes);
        std::hint::black_box(mm.inserted());
    });

    let speedup = |d: usize, mode: &str| {
        let pick = |path: &str| {
            rows.iter()
                .find(|r| r.d == d && r.mode == mode && r.path == path)
                .map(|r| r.median_ns_per_op as f64)
        };
        Some(pick("alloc")? / pick("scratch")?)
    };
    let d1m_serial_speedup = if quick {
        None
    } else {
        speedup(1_000_000, "serial")
    };

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.d.to_string(),
                r.mode.to_string(),
                r.path.to_string(),
                format!("{}", r.median_ns_per_op),
                format!("{:.1}", r.mbps),
                r.allocs_per_op.to_string(),
            ]
        })
        .collect();
    print_table(
        "Hot-path encode: alloc vs scratch (SketchML)",
        &["d", "mode", "path", "ns/op", "MB/s", "allocs/op"],
        &table,
    );
    let prim_table: Vec<Vec<String>> = primitives
        .iter()
        .map(|r| {
            vec![
                r.primitive.to_string(),
                r.n.to_string(),
                format!("{}", r.median_ns_per_op),
                format!("{:.1}", r.mitems_per_s),
            ]
        })
        .collect();
    print_table(
        "Vectorized primitives (isolated)",
        &["primitive", "n", "ns/op", "Mitems/s"],
        &prim_table,
    );
    for &d in sizes {
        for (mode, _) in engines {
            if let Some(s) = speedup(d, mode) {
                println!("d={d:>9} {mode:<8} scratch speedup: {s:.2}x");
            }
        }
    }

    let simd = sketchml_core::simd::lanes_active();
    let path = "BENCH_hotpath.json";
    // Regression gate: serial encode throughput must stay within 20% of the
    // committed baseline. Only comparable runs gate — the baseline must have
    // been recorded under the same SIMD configuration (the `simd` field;
    // baselines predating it were scalar). Compared at the largest gradient
    // size present in both runs, scratch path (the steady-state engine).
    let get = |v: &serde::Value, key: &str| -> Option<serde::Value> {
        v.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
    };
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(baseline) = serde_json::from_str::<serde::Value>(&text) {
            let base_simd = matches!(get(&baseline, "simd"), Some(serde::Value::Bool(true)));
            if base_simd == simd {
                let base_rows: Vec<serde::Value> = get(&baseline, "rows")
                    .and_then(|r| r.as_arr().map(<[serde::Value]>::to_vec))
                    .unwrap_or_default();
                let base_at = |d: usize| {
                    base_rows.iter().find_map(|r| {
                        (get(r, "d").and_then(|v| v.as_u64()) == Some(d as u64)
                            && get(r, "mode").as_ref().and_then(serde::Value::as_str)
                                == Some("serial")
                            && get(r, "path").as_ref().and_then(serde::Value::as_str)
                                == Some("scratch"))
                        .then(|| get(r, "mbps").and_then(|v| v.as_f64()))
                        .flatten()
                    })
                };
                let current = |d: usize| {
                    rows.iter()
                        .find(|r| r.d == d && r.mode == "serial" && r.path == "scratch")
                        .map(|r| r.mbps)
                };
                if let Some(&d) = sizes.iter().rev().find(|&&d| base_at(d).is_some()) {
                    let (base, now) = (base_at(d).expect("probed"), current(d).expect("swept"));
                    println!("regression gate: serial scratch d={d}: {now:.1} MB/s vs baseline {base:.1} MB/s");
                    assert!(
                        now >= 0.8 * base,
                        "serial encode regressed >20% vs committed baseline at d={d}: \
                         {now:.1} MB/s < 0.8 x {base:.1} MB/s"
                    );
                }
            } else {
                println!(
                    "regression gate: skipped (baseline simd={base_simd}, this run simd={simd})"
                );
            }
        }
    }

    let report = Report {
        bench: "hotpath",
        quick,
        simd,
        iterations,
        rows,
        primitives,
        d1m_serial_speedup,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    std::fs::write(path, json + "\n").expect("write BENCH_hotpath.json");
    println!("\n[results written to {path}]");
}
