//! Lightweight observability for the SketchML codecs.
//!
//! The paper's evaluation (§4) is built on per-stage observables — bytes per
//! key, quantile-build vs. bucketize vs. sketch-encode time, bucket-index
//! error — that happen inside one `compress_into` and so can only be carried
//! by a global registry. This crate is that registry, and it holds nothing
//! else: what a training run, a collective or the socket server measures is
//! returned in (or served from) that component's own report.
//!
//! * **Atomic counters / histograms** in one global registry.
//! * **Scoped stage timers** ([`time`]) that record wall-clock nanos.
//! * A serde-serializable [`TelemetrySnapshot`] of everything recorded.
//!
//! # Overhead contract
//!
//! Recording is gated on a single global `AtomicBool`. When telemetry is
//! disabled (the default) every recording call performs exactly one relaxed
//! atomic load plus a predictable branch and **allocates nothing** — the
//! instrumented hot paths stay on the zero-allocation scratch path (enforced
//! by the alloc-counting `tests/zero_alloc.rs`). When enabled, counters are relaxed
//! atomic adds; timers additionally read a monotonic clock twice.
//!
//! # Determinism
//!
//! Counters and histograms record *what happened*, which for a seeded run is
//! deterministic: relaxed `u64` adds and `fetch_max` are order-independent.
//! Wall-clock stage timers are the only nondeterministic component;
//! [`TelemetrySnapshot::without_timings`] zeroes them so two same-seed runs
//! compare equal.
//!
//! # Sessions
//!
//! The registry is global, so concurrent instrumented runs would blend their
//! numbers. [`TelemetrySession::begin`] takes a global lock, resets the
//! registry and enables recording; [`TelemetrySession::finish`] snapshots and
//! disables. Tests and benches should always use a session.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Version stamped into every [`TelemetrySnapshot`]; bump on schema changes.
/// Version 2 added the collectives section (allreduce hop/merge accounting);
/// version 3 added `collectives.linear_folds` (Count-Sketch table merges);
/// version 4 added the membership section (elastic evictions/joins);
/// version 5 added `cluster.opt_state_bytes` (sketched optimizer state);
/// version 6 added the serving section (live socket server: request mix,
/// in-flight and queue-depth high-water marks);
/// version 7 added the serving section's pull kinds, training-plane bytes
/// and rejected pushes;
/// version 8 added the serving section's epoch-end timings and checkpoint
/// size;
/// version 9 removed `serving.{qps, predict_p50_micros, predict_p99_micros}`:
/// client-side figures no library code ever set;
/// version 10 replaced `serving.pulls_delta` with `serving.{pulls_round,
/// pulls_state}`: the downlink carries a round's codec frames (or, for a
/// worker that cannot be stepped, the live training state), not weights;
/// version 11 removed `serving.{backpressure_rejects, queue_depth_max}`: the
/// server has no push queue to fill or refuse from;
/// version 12 removed the membership section's count of SSP staleness
/// retunes: the staleness bound is fixed for a run;
/// version 13 removed the cluster, collectives, membership and serving
/// sections: each was a copy of a figure its component already returns
/// (`TrainReport`, `FaultTrace`, `AllreduceReport`, the server's stats).
pub const SCHEMA_VERSION: u32 = 13;

/// Number of power-of-two buckets in every histogram.
pub const HIST_BUCKETS: usize = 16;

// ---------------------------------------------------------------------------
// Metric identifiers
// ---------------------------------------------------------------------------

/// Pipeline stages measured with wall-clock scoped timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Building the quantile sketch and extracting splits (§3.2 step 1).
    QuantileBuild,
    /// Assigning each value its bucket index via the lookup table (§3.2).
    Bucketize,
    /// Grouped MinMaxSketch insertion + cell serialization (§3.3).
    SketchEncode,
    /// Delta-binary key encoding (§3.4).
    KeyEncode,
    /// Whole-message decode (payload → gradient).
    Decode,
    /// One shard's inner encode inside the sharded engine.
    ShardEncode,
}

const NUM_STAGES: usize = 6;

impl Stage {
    fn idx(self) -> usize {
        self as usize
    }
}

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Pipeline: whole-message encodes (per shard when sharded).
    PipelineEncodes,
    /// Pipeline: whole-message decodes.
    PipelineDecodes,
    /// Pipeline: input key/value pairs seen by encodes.
    PipelineInputPairs,
    /// Pipeline: input bytes (12 B per sparse pair) seen by encodes.
    PipelineInputBytes,
    /// Pipeline: compressed payload bytes produced by encodes.
    PipelinePayloadBytes,
    /// MinMaxSketch: total `(key, row)` insertions.
    SketchInserts,
    /// MinMaxSketch: insertions that landed on an already-occupied cell.
    SketchCollisions,
    /// MinMaxSketch: total cells across all grouped sketches built.
    SketchCells,
    /// MinMaxSketch: cells left occupied after all insertions.
    SketchCellsOccupied,
    /// Error feedback: compensated values that went non-finite. The carried
    /// residual is restored for the next round (or deliberately cleared when
    /// it is itself non-finite); this counter records every occurrence.
    EfNonFinite,
    /// Sharded engine: framed multi-shard messages produced.
    ShardedMessages,
    /// Sharded engine: individual shard encodes.
    ShardedShardEncodes,
}

const NUM_COUNTERS: usize = 12;

impl Counter {
    fn idx(self) -> usize {
        self as usize
    }
}

/// Power-of-two-bucket histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Absolute bucket-index error `|decoded − true|` per encoded key
    /// (MinMaxSketch underestimation; 0 means exact).
    BucketIndexError,
    /// Sharded engine load imbalance per message:
    /// `(max_pairs − min_pairs) * 1000 / mean_pairs`.
    ShardImbalancePermille,
}

const NUM_HISTS: usize = 2;

impl Hist {
    fn idx(self) -> usize {
        self as usize
    }
}

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)]
const HIST_ZERO: HistCell = HistCell {
    count: ZERO,
    sum: ZERO,
    max: ZERO,
    buckets: [ZERO; HIST_BUCKETS],
};

struct StageCell {
    count: AtomicU64,
    nanos: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const STAGE_ZERO: StageCell = StageCell {
    count: ZERO,
    nanos: ZERO,
};

struct Registry {
    enabled: AtomicBool,
    counters: [AtomicU64; NUM_COUNTERS],
    stages: [StageCell; NUM_STAGES],
    hists: [HistCell; NUM_HISTS],
}

static REGISTRY: Registry = Registry {
    enabled: AtomicBool::new(false),
    counters: [ZERO; NUM_COUNTERS],
    stages: [STAGE_ZERO; NUM_STAGES],
    hists: [HIST_ZERO; NUM_HISTS],
};

static SESSION: Mutex<()> = Mutex::new(());

/// Whether telemetry recording is currently enabled. One relaxed load;
/// instrumented code checks this (or relies on the recording helpers, which
/// check it internally) before doing any work.
#[inline(always)]
pub fn enabled() -> bool {
    REGISTRY.enabled.load(Ordering::Relaxed)
}

/// Turns recording on or off without resetting accumulated values.
/// Prefer [`TelemetrySession`].
pub fn set_enabled(on: bool) {
    REGISTRY.enabled.store(on, Ordering::Relaxed);
}

/// Zeroes every counter, timer and histogram.
pub fn reset() {
    for c in &REGISTRY.counters {
        c.store(0, Ordering::Relaxed);
    }
    for s in &REGISTRY.stages {
        s.count.store(0, Ordering::Relaxed);
        s.nanos.store(0, Ordering::Relaxed);
    }
    for h in &REGISTRY.hists {
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Adds `delta` to a counter (no-op while disabled).
#[inline]
pub fn add(counter: Counter, delta: u64) {
    if enabled() {
        REGISTRY.counters[counter.idx()].fetch_add(delta, Ordering::Relaxed);
    }
}

/// Increments a counter by one (no-op while disabled).
#[inline]
pub fn inc(counter: Counter) {
    add(counter, 1);
}

/// Index of the power-of-two bucket holding `value`: bucket 0 is exactly
/// zero, bucket `i >= 1` covers `[2^(i-1), 2^i)`, and the last bucket is
/// open-ended.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Records one observation into a histogram (no-op while disabled).
#[inline]
pub fn observe(hist: Hist, value: u64) {
    if !enabled() {
        return;
    }
    let h = &REGISTRY.hists[hist.idx()];
    h.count.fetch_add(1, Ordering::Relaxed);
    h.sum.fetch_add(value, Ordering::Relaxed);
    h.max.fetch_max(value, Ordering::Relaxed);
    h.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
}

/// Directly charges `nanos` to a stage (no-op while disabled); used when a
/// caller already measured a duration.
#[inline]
pub fn record_stage(stage: Stage, nanos: u64) {
    if enabled() {
        let s = &REGISTRY.stages[stage.idx()];
        s.count.fetch_add(1, Ordering::Relaxed);
        s.nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// RAII stage timer: charges the elapsed wall-clock nanos to `stage` on drop.
/// When telemetry is disabled no clock is read and drop is a no-op.
#[must_use = "the timer records on drop; binding it to _ drops immediately"]
pub struct StageTimer {
    start: Option<(Stage, Instant)>,
}

impl Drop for StageTimer {
    fn drop(&mut self) {
        if let Some((stage, start)) = self.start.take() {
            let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let s = &REGISTRY.stages[stage.idx()];
            s.count.fetch_add(1, Ordering::Relaxed);
            s.nanos.fetch_add(nanos, Ordering::Relaxed);
        }
    }
}

/// Starts a scoped timer for `stage` (inert while disabled).
#[inline]
pub fn time(stage: Stage) -> StageTimer {
    StageTimer {
        start: if enabled() {
            Some((stage, Instant::now()))
        } else {
            None
        },
    }
}

// ---------------------------------------------------------------------------
// Sessions and scopes
// ---------------------------------------------------------------------------

fn session_lock() -> MutexGuard<'static, ()> {
    // The guard only serializes sessions; a panic while holding it leaves no
    // inconsistent state, so poisoning is safe to clear.
    SESSION.lock().unwrap_or_else(|e| e.into_inner())
}

/// Exclusive recording window: resets the registry, enables recording, and on
/// [`finish`](Self::finish) (or drop) disables it again. Holding the session
/// blocks other sessions so concurrent tests cannot blend their numbers.
pub struct TelemetrySession {
    _guard: MutexGuard<'static, ()>,
    finished: bool,
}

impl TelemetrySession {
    /// Starts a fresh session, blocking until any other session ends.
    pub fn begin() -> Self {
        let guard = session_lock();
        reset();
        set_enabled(true);
        TelemetrySession {
            _guard: guard,
            finished: false,
        }
    }

    /// Stops recording and returns everything recorded since
    /// [`begin`](Self::begin).
    pub fn finish(mut self) -> TelemetrySnapshot {
        set_enabled(false);
        self.finished = true;
        snapshot()
    }
}

impl Drop for TelemetrySession {
    fn drop(&mut self) {
        if !self.finished {
            set_enabled(false);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Count + total wall-clock nanos for one timed stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageStat {
    pub count: u64,
    pub nanos: u64,
}

/// Snapshot of one power-of-two-bucket histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistStat {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// `HIST_BUCKETS` entries: bucket 0 holds zeros, bucket `i >= 1` holds
    /// values in `[2^(i-1), 2^i)`, last bucket open-ended.
    pub buckets: Vec<u64>,
}

impl HistStat {
    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Compression-pipeline section of the snapshot (§3.2–§3.4 observables).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineSnapshot {
    pub encodes: u64,
    pub decodes: u64,
    pub input_pairs: u64,
    pub input_bytes: u64,
    pub payload_bytes: u64,
    pub quantile_build: StageStat,
    pub bucketize: StageStat,
    pub sketch_encode: StageStat,
    pub key_encode: StageStat,
    pub decode: StageStat,
    pub bucket_index_error: HistStat,
    pub sketch_inserts: u64,
    pub sketch_collisions: u64,
    pub sketch_cells: u64,
    pub sketch_cells_occupied: u64,
    pub ef_nonfinite: u64,
}

impl PipelineSnapshot {
    /// Achieved compression ratio `input_bytes / payload_bytes`
    /// (0 when nothing was encoded).
    pub fn compression_ratio(&self) -> f64 {
        if self.payload_bytes == 0 {
            0.0
        } else {
            self.input_bytes as f64 / self.payload_bytes as f64
        }
    }

    /// Fraction of sketch cells left occupied (grouped-sketch occupancy).
    pub fn sketch_occupancy(&self) -> f64 {
        if self.sketch_cells == 0 {
            0.0
        } else {
            self.sketch_cells_occupied as f64 / self.sketch_cells as f64
        }
    }
}

/// Sharded-engine section of the snapshot.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardedSnapshot {
    pub messages: u64,
    pub shard_encodes: u64,
    pub shard_encode: StageStat,
    pub imbalance_permille: HistStat,
}

/// Everything the registry recorded, as plain serializable data.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    pub schema_version: u32,
    pub pipeline: PipelineSnapshot,
    pub sharded: ShardedSnapshot,
}

impl TelemetrySnapshot {
    /// Copy with every wall-clock `nanos` field zeroed (stage counts kept).
    /// Same-seed runs of the seeded simulator compare equal under this view;
    /// raw timings do not.
    pub fn without_timings(&self) -> Self {
        let mut s = self.clone();
        for stat in [
            &mut s.pipeline.quantile_build,
            &mut s.pipeline.bucketize,
            &mut s.pipeline.sketch_encode,
            &mut s.pipeline.key_encode,
            &mut s.pipeline.decode,
            &mut s.sharded.shard_encode,
        ] {
            stat.nanos = 0;
        }
        s
    }

    /// Structural sanity check used by the CI smoke test: schema version,
    /// histogram shape and internal consistency.
    ///
    /// # Errors
    /// A human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != supported {}",
                self.schema_version, SCHEMA_VERSION
            ));
        }
        for (name, h) in [
            ("bucket_index_error", &self.pipeline.bucket_index_error),
            ("imbalance_permille", &self.sharded.imbalance_permille),
        ] {
            if h.buckets.len() != HIST_BUCKETS {
                return Err(format!(
                    "{name}: {} buckets, expected {HIST_BUCKETS}",
                    h.buckets.len()
                ));
            }
            if h.buckets.iter().sum::<u64>() != h.count {
                return Err(format!("{name}: bucket sum != count {}", h.count));
            }
            if h.count == 0 && (h.sum != 0 || h.max != 0) {
                return Err(format!("{name}: empty histogram with nonzero sum/max"));
            }
        }
        if self.pipeline.sketch_cells_occupied > self.pipeline.sketch_cells {
            return Err("sketch_cells_occupied > sketch_cells".into());
        }
        if self.pipeline.sketch_collisions > self.pipeline.sketch_inserts {
            return Err("sketch_collisions > sketch_inserts".into());
        }
        Ok(())
    }
}

fn stage_stat(stage: Stage) -> StageStat {
    let s = &REGISTRY.stages[stage.idx()];
    StageStat {
        count: s.count.load(Ordering::Relaxed),
        nanos: s.nanos.load(Ordering::Relaxed),
    }
}

fn hist_stat(hist: Hist) -> HistStat {
    let h = &REGISTRY.hists[hist.idx()];
    HistStat {
        count: h.count.load(Ordering::Relaxed),
        sum: h.sum.load(Ordering::Relaxed),
        max: h.max.load(Ordering::Relaxed),
        buckets: h
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect(),
    }
}

fn counter(c: Counter) -> u64 {
    REGISTRY.counters[c.idx()].load(Ordering::Relaxed)
}

/// Reads the current registry contents. Usually called through
/// [`TelemetrySession::finish`]; safe to call at any point.
pub fn snapshot() -> TelemetrySnapshot {
    TelemetrySnapshot {
        schema_version: SCHEMA_VERSION,
        pipeline: PipelineSnapshot {
            encodes: counter(Counter::PipelineEncodes),
            decodes: counter(Counter::PipelineDecodes),
            input_pairs: counter(Counter::PipelineInputPairs),
            input_bytes: counter(Counter::PipelineInputBytes),
            payload_bytes: counter(Counter::PipelinePayloadBytes),
            quantile_build: stage_stat(Stage::QuantileBuild),
            bucketize: stage_stat(Stage::Bucketize),
            sketch_encode: stage_stat(Stage::SketchEncode),
            key_encode: stage_stat(Stage::KeyEncode),
            decode: stage_stat(Stage::Decode),
            bucket_index_error: hist_stat(Hist::BucketIndexError),
            sketch_inserts: counter(Counter::SketchInserts),
            sketch_collisions: counter(Counter::SketchCollisions),
            sketch_cells: counter(Counter::SketchCells),
            sketch_cells_occupied: counter(Counter::SketchCellsOccupied),
            ef_nonfinite: counter(Counter::EfNonFinite),
        },
        sharded: ShardedSnapshot {
            messages: counter(Counter::ShardedMessages),
            shard_encodes: counter(Counter::ShardedShardEncodes),
            shard_encode: stage_stat(Stage::ShardEncode),
            imbalance_permille: hist_stat(Hist::ShardImbalancePermille),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let session = TelemetrySession::begin();
        set_enabled(false);
        inc(Counter::PipelineEncodes);
        add(Counter::PipelinePayloadBytes, 100);
        observe(Hist::BucketIndexError, 3);
        drop(time(Stage::Bucketize));
        set_enabled(true);
        let snap = session.finish();
        assert_eq!(snap, TelemetrySnapshot::default_with_version());
    }

    #[test]
    fn counters_and_hists_accumulate() {
        let session = TelemetrySession::begin();
        inc(Counter::PipelineEncodes);
        add(Counter::PipelineEncodes, 2);
        observe(Hist::BucketIndexError, 0);
        observe(Hist::BucketIndexError, 1);
        observe(Hist::BucketIndexError, 7);
        record_stage(Stage::KeyEncode, 42);
        let snap = session.finish();
        assert_eq!(snap.pipeline.encodes, 3);
        let h = &snap.pipeline.bucket_index_error;
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 8);
        assert_eq!(h.max, 7);
        assert_eq!(h.buckets[0], 1); // zero
        assert_eq!(h.buckets[1], 1); // [1, 2)
        assert_eq!(h.buckets[3], 1); // [4, 8)
        assert_eq!(
            snap.pipeline.key_encode,
            StageStat {
                count: 1,
                nanos: 42
            }
        );
        snap.validate().expect("snapshot must validate");
    }

    #[test]
    fn timer_records_when_enabled() {
        let session = TelemetrySession::begin();
        {
            let _t = time(Stage::SketchEncode);
            std::hint::black_box(0u64);
        }
        let snap = session.finish();
        assert_eq!(snap.pipeline.sketch_encode.count, 1);
        assert_eq!(snap.without_timings().pipeline.sketch_encode.nanos, 0);
    }

    #[test]
    fn session_resets_previous_state() {
        let s1 = TelemetrySession::begin();
        inc(Counter::PipelineEncodes);
        let first = s1.finish();
        assert_eq!(first.pipeline.encodes, 1);
        let s2 = TelemetrySession::begin();
        let second = s2.finish();
        assert_eq!(second.pipeline.encodes, 0);
    }

    #[test]
    fn bucket_of_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1 << 14), HIST_BUCKETS - 1);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let session = TelemetrySession::begin();
        inc(Counter::PipelineEncodes);
        observe(Hist::ShardImbalancePermille, 120);
        let snap = session.finish();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: TelemetrySnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);
        back.validate().expect("roundtripped snapshot validates");
    }

    #[test]
    fn validate_rejects_bad_schema_and_shapes() {
        let mut snap = TelemetrySnapshot::default_with_version();
        snap.schema_version = 999;
        assert!(snap.validate().is_err());
        let mut snap = TelemetrySnapshot::default_with_version();
        snap.pipeline.bucket_index_error.buckets = vec![0; 3];
        assert!(snap.validate().is_err());
        let mut snap = TelemetrySnapshot::default_with_version();
        snap.pipeline.bucket_index_error.buckets = vec![0; HIST_BUCKETS];
        snap.pipeline.bucket_index_error.count = 5; // bucket sum mismatch
        assert!(snap.validate().is_err());
        let mut snap = TelemetrySnapshot::default_with_version();
        snap.pipeline.sketch_cells_occupied = 1; // sketch_cells stays 0
        assert!(snap.validate().is_err());
    }

    impl TelemetrySnapshot {
        /// Default snapshot as produced by an empty registry (histogram
        /// vectors sized, schema version stamped).
        fn default_with_version() -> Self {
            let mut s = TelemetrySnapshot {
                schema_version: SCHEMA_VERSION,
                ..Default::default()
            };
            s.pipeline.bucket_index_error.buckets = vec![0; HIST_BUCKETS];
            s.sharded.imbalance_permille.buckets = vec![0; HIST_BUCKETS];
            s
        }
    }
}
