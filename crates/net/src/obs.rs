//! Thin shims from server events to the global telemetry registry
//! (`serving` section, schema v9). All of these are no-ops unless a
//! telemetry session is recording.

use sketchml_telemetry::{add, counter_max, gauge_set, inc, Counter, Gauge};

/// A connection was accepted.
pub fn connection() {
    inc(Counter::ServingConnections);
}

/// A request frame was decoded; `inflight` is the concurrent count
/// including this one (tracked as a high-water mark).
pub fn request(inflight: u64) {
    inc(Counter::ServingRequests);
    counter_max(Counter::ServingInflightMax, inflight);
}

/// A `Predict` batch was scored (`instances` rows).
pub fn predict(_instances: u64) {
    inc(Counter::ServingPredicts);
}

/// A `PushGradient` was accepted into the trainer queue.
pub fn push() {
    inc(Counter::ServingPushes);
}

/// A pull was answered with a `bytes`-long frame: the dense `Model` or a
/// `ModelDelta`.
pub fn pull(dense: bool, bytes: u64) {
    inc(Counter::ServingPulls);
    inc(if dense {
        Counter::ServingPullsDense
    } else {
        Counter::ServingPullsDelta
    });
    add(Counter::ServingBytesDown, bytes);
}

/// A `PushGradient` frame of `bytes` bytes arrived (whatever its ack).
pub fn push_bytes(bytes: u64) {
    add(Counter::ServingBytesUp, bytes);
}

/// A push was refused typed: future round, unknown worker id, `instances`
/// above the dataset's, or a non-finite `loss_sum`.
pub fn rejected_push() {
    inc(Counter::ServingRejectedPushes);
}

/// A push was refused because the bounded queue was full.
pub fn backpressure() {
    inc(Counter::ServingBackpressureRejects);
}

/// A trainer round coalesced every expected worker push.
pub fn coalesced_round() {
    inc(Counter::ServingCoalescedRounds);
}

/// The push queue reached `depth` entries (tracked as a high-water mark).
pub fn queue_depth(depth: u64) {
    counter_max(Counter::ServingQueueDepthMax, depth);
}

/// The trainer finished an epoch end in `last_us` microseconds (the longest
/// so far took `max_us`) and published a checkpoint of `checkpoint_bytes`.
pub fn epoch_end(last_us: u64, max_us: u64, checkpoint_bytes: u64) {
    gauge_set(Gauge::ServingEpochEndMsLast, last_us as f64 / 1e3);
    gauge_set(Gauge::ServingEpochEndMsMax, max_us as f64 / 1e3);
    counter_max(Counter::ServingCheckpointBytes, checkpoint_bytes);
}
