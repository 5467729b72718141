//! The zero-allocation contract of a round's hot path (DESIGN.md §2.2): once
//! a `CompressScratch`, an output buffer and a decode target have seen a
//! gradient of the round's size, `compress_into` and `decompress_into`
//! never touch the heap again, a worker's step — gradient, then encode,
//! on a warm `WorkerScratch` — allocates only the payload it hands to the
//! wire, and the receive half — a warm `Replica::apply` combining the
//! round's decoded parts and stepping the optimizer — allocates nothing.
//! With telemetry off, which is the default and costs one relaxed load per
//! gate.
//!
//! The counter is a `#[global_allocator]` that counts the threads that opt
//! in: the test's own, and every thread the codec runs work on (the sharded
//! engine encodes on pool threads; its inner codec here opts each one in
//! from inside the job). Threads the codec does not own are not its
//! allocations: libtest's main thread is still reporting the test's start
//! when the first window opens, and a process-wide count failed on it in
//! most runs with stdout on `/dev/null`. The one `#[test]` keeps the file a
//! binary of its own, so nothing else runs beside the windows.

use bytes::{BufMut, BytesMut};
use rand::prelude::*;
use rand::rngs::StdRng;
use sketchml::cluster::network::CostModel;
use sketchml::cluster::worker::{process_glm_rows, WorkerScratch};
use sketchml::cluster::{Replica, TrainSpec};
use sketchml::data::synthetic::Task;
use sketchml::encoding::stats::SizeReport;
use sketchml::encoding::varint;
use sketchml::{GlmLoss, GlmModel, SparseDatasetSpec};
use sketchml_core::{
    CompressError, CompressScratch, ErrorFeedback, FastSgdCompressor, GradientCompressor,
    ShardedCompressor, SketchMlCompressor, SparseGradient,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

struct CountingAlloc;

/// Allocations (alloc + realloc) made by counted threads.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Largest single request a counted thread made since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread's allocations count. Const-initialized and without
    /// a destructor, so reading it inside the allocator allocates nothing.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count(size: usize) {
    if COUNTED.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: delegates verbatim to `System`; the counters have no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Steady-state calls counted per engine, size and direction.
const CALLS: usize = 10;

/// The sharded engine's inner codec: SketchML, run by whichever thread the
/// pool gives the shard to. Every job opts its thread into the count. While
/// `all_hands` is set every job also waits at a barrier as wide as the
/// engine, so a call returns only once each of the engine's threads — the
/// caller and every pool thread — holds a shard at the same time: a pool
/// thread that sat out the warm-up would otherwise start up, uncounted or
/// not, inside a measured window.
struct PoolCounted {
    inner: SketchMlCompressor,
    all_hands: AtomicBool,
    muster: Barrier,
}

impl PoolCounted {
    fn new(threads: usize) -> Self {
        PoolCounted {
            inner: SketchMlCompressor::default(),
            all_hands: AtomicBool::new(false),
            muster: Barrier::new(threads),
        }
    }

    fn enter(&self) {
        COUNTED.with(|c| c.set(true));
        if self.all_hands.load(Ordering::SeqCst) {
            self.muster.wait();
        }
    }
}

impl GradientCompressor for PoolCounted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn compress_into(
        &self,
        grad: &SparseGradient,
        scratch: &mut CompressScratch,
        out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        self.enter();
        self.inner.compress_into(grad, scratch, out)
    }

    fn decompress_into(
        &self,
        payload: &[u8],
        scratch: &mut CompressScratch,
        out: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        self.enter();
        self.inner.decompress_into(payload, scratch, out)
    }
}

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

/// Heap allocations by counted threads during `CALLS` calls of `op`, after
/// `warmup` uncounted ones.
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
    COUNTED.with(|c| c.set(true));
    assert!(
        !sketchml_telemetry::enabled(),
        "the contract is for disabled telemetry, the default"
    );
    let serial = SketchMlCompressor::default();
    let sharded = ShardedCompressor::new(PoolCounted::new(4), 4)
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

    // Every pool thread works once, in both directions, before any window.
    let muster = gradient(1_000, 5);
    sharded.inner().all_hands.store(true, Ordering::SeqCst);
    sharded
        .compress_into(&muster, &mut scratch, &mut out)
        .expect("muster encode");
    sharded
        .decompress_into(&out, &mut scratch, &mut decoded)
        .expect("muster decode");
    sharded.inner().all_hands.store(false, Ordering::SeqCst);

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

    worker_step_allocates_only_its_payload();
    replica_apply_allocates_nothing();
    a_million_empty_groups_allocate_less_than_their_frame();
}

/// A worker's half of a round on a warm `WorkerScratch`: its rows of the
/// batch reached by reference, the gradient emitted from the scratch's
/// bitmap, the codec's scratch path. One allocation a call — the payload
/// copy the message owns — and none of the model's size.
fn worker_step_allocates_only_its_payload() {
    let spec = SparseDatasetSpec {
        name: "zero-alloc".into(),
        instances: 800,
        features: 50_021,
        avg_nnz: 32,
        skew: 1.1,
        label_noise: 0.05,
        task: Task::Classification,
        seed: 11,
    };
    let train = spec.generate();
    let model = GlmModel::new(spec.features as usize, GlmLoss::Logistic, 0.01).expect("model");
    let rows: Vec<usize> = (0..train.len()).step_by(2).collect();
    let codec = SketchMlCompressor::default();
    let cost = CostModel::cluster1();
    let mut ws = WorkerScratch::new();
    let mut payload_len = 0;
    let mut step = || {
        let batch = rows.iter().map(|&i| &train[i]);
        let msg = process_glm_rows(&model, batch, &codec, &cost, &mut ws).expect("worker step");
        payload_len = msg.payload.len();
        std::hint::black_box(msg.loss_sum);
    };
    LARGEST.store(0, Ordering::Relaxed);
    for _ in 0..3 {
        step();
    }
    let largest_cold = LARGEST.swap(0, Ordering::Relaxed);
    assert!(
        largest_cold >= 8 * model.dim(),
        "the instrument sees the first step size the dense accumulator ({largest_cold} B)"
    );
    let allocs = steady_state_allocs(0, &mut step);
    assert_eq!(
        allocs, CALLS as u64,
        "a warm worker step allocates its payload and nothing else ({allocs} allocations over {CALLS} calls)"
    );
    assert_eq!(
        LARGEST.load(Ordering::Relaxed),
        payload_len,
        "the payload is the largest thing a warm step allocates"
    );
}

/// The receive half of a round on a warm replica, at two and three workers:
/// the decoded parts, refilled in place each call the way a decode target
/// is, combined into the replica's own buffers and stepped through Adam.
fn replica_apply_allocates_nothing() {
    let dim = 1_000_000u64;
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.01, 1);
    let mut replica = Replica::fresh(dim as usize, &spec).expect("replica");
    let sources: Vec<SparseGradient> = (0..3).map(|w| gradient(10_000, 40 + w)).collect();
    for workers in [2usize, 3] {
        let mut parts: Vec<SparseGradient> =
            (0..workers).map(|_| SparseGradient::empty(0)).collect();
        let instances: Vec<usize> = (0..workers).map(|w| 900 + w).collect();
        let rounds = replica.rounds();
        let allocs = steady_state_allocs(2, || {
            for (part, src) in parts.iter_mut().zip(&sources) {
                part.assign(dim, src.keys(), src.values())
                    .expect("keys below dim");
            }
            replica.apply(&parts, &instances).expect("apply");
        });
        assert_eq!(replica.rounds(), rounds + 2 + CALLS as u64);
        assert_eq!(
            allocs, 0,
            "a warm Replica::apply over {workers} parts allocated {allocs} times over {CALLS} calls"
        );
    }
}

/// A SketchML frame whose one non-empty side declares a million groups, every
/// one of them empty: a typed refusal, and nothing is sized from the count.
fn a_million_empty_groups_allocate_less_than_their_frame() {
    let mut frame = vec![0xA7, 1];
    frame.put_u64_le(0); // seed
    for header in [1000, 1, 2] {
        varint::write_u64(&mut frame, header); // dim, nnz, rows
    }
    varint::write_u64(&mut frame, 1); // positive side: one pair
    varint::write_u64(&mut frame, 1); // one bucket
    frame.put_u8(8);
    frame.put_f64_le(0.5);
    varint::write_u64(&mut frame, 1_000_000); // groups
    varint::write_u64(&mut frame, 1); // columns
    frame.put_u8(8); // bit width
    frame.resize(frame.len() + 1_000_000, 0); // every group: zero keys
    varint::write_u64(&mut frame, 0); // negative side: empty

    let mut scratch = CompressScratch::new();
    let mut out = SparseGradient::empty(0);
    LARGEST.store(0, Ordering::Relaxed);
    let refused = SketchMlCompressor::default().decompress_into(&frame, &mut scratch, &mut out);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        matches!(&refused, Err(CompressError::Corrupt(why)) if why.contains("decoded 0")),
        "{refused:?}"
    );
    assert!(
        largest < 1024,
        "decoding {} bytes of empty groups on a fresh scratch asked for {largest} B at once",
        frame.len()
    );
}
