//! Thin shims from server events to the global telemetry registry
//! (`serving` section, schema v11). All of these are no-ops unless a
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

/// A `PushGradient` took its worker's slot of the open round.
pub fn push() {
    inc(Counter::ServingPushes);
}

/// The frame that answered a pull.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pull {
    /// The dense `Model`: an inference client, or a final check.
    Dense,
    /// A `Round`: the frames a lock-step worker steps its replica from.
    Round,
    /// A `State`: a worker that could not be stepped was resynchronised.
    State,
}

/// A pull was answered with a `bytes`-long frame of kind `kind`.
pub fn pull(kind: Pull, bytes: u64) {
    inc(Counter::ServingPulls);
    inc(match kind {
        Pull::Dense => Counter::ServingPullsDense,
        Pull::Round => Counter::ServingPullsRound,
        Pull::State => Counter::ServingPullsState,
    });
    add(Counter::ServingBytesDown, bytes);
}

/// A `PushGradient` frame of `bytes` bytes arrived (whatever its ack).
pub fn push_bytes(bytes: u64) {
    add(Counter::ServingBytesUp, bytes);
}

/// A push was refused typed: future round, unknown worker id, `instances`
/// above the dataset's, a non-finite `loss_sum`, or a frame that does not
/// decode to a gradient of the model's dimension.
pub fn rejected_push() {
    inc(Counter::ServingRejectedPushes);
}

/// A round closed with every worker's slot filled.
pub fn coalesced_round() {
    inc(Counter::ServingCoalescedRounds);
}

/// The trainer finished an epoch end in `last_us` microseconds (the longest
/// so far took `max_us`) and published a checkpoint of `checkpoint_bytes`.
pub fn epoch_end(last_us: u64, max_us: u64, checkpoint_bytes: u64) {
    gauge_set(Gauge::ServingEpochEndMsLast, last_us as f64 / 1e3);
    gauge_set(Gauge::ServingEpochEndMsMax, max_us as f64 / 1e3);
    counter_max(Counter::ServingCheckpointBytes, checkpoint_bytes);
}
