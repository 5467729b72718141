//! Glue between the training loops and the [`sketchml_telemetry`] registry.
//!
//! Every helper is gated on [`telemetry::enabled`], so with telemetry off a
//! call costs one relaxed atomic load. Cluster counters are recorded from
//! the serial driver/simulator loops only (never from worker threads), which
//! keeps seeded runs snapshot-deterministic: same seed, same counter totals.

use crate::faults::FaultTrace;
use sketchml_telemetry as telemetry;

/// Records one or more completed communication rounds and the bytes they
/// moved. Totals are what the snapshot exposes, so batching an epoch's worth
/// of rounds into one call is equivalent to per-round calls.
pub(crate) fn rounds(count: u64, uplink_bytes: u64, downlink_bytes: u64) {
    if !telemetry::enabled() {
        return;
    }
    telemetry::add(telemetry::Counter::ClusterRounds, count);
    telemetry::add(telemetry::Counter::ClusterUplinkBytes, uplink_bytes);
    telemetry::add(telemetry::Counter::ClusterDownlinkBytes, downlink_bytes);
}

/// Charges straggler skew: the gap between the slowest straggler-adjusted
/// worker and the same batch with every compute factor at 1.0.
pub(crate) fn straggler_wait(seconds: f64) {
    if telemetry::enabled() && seconds > 0.0 {
        telemetry::gauge_add(telemetry::Gauge::ClusterStragglerWaitSeconds, seconds);
    }
}

/// Records the bytes a run's optimizer auxiliary state occupies (dense
/// moment vectors or count-sketch tables). Called once per training run,
/// right after the optimizer is built or resumed.
pub(crate) fn opt_state_bytes(bytes: u64) {
    if telemetry::enabled() {
        telemetry::add(telemetry::Counter::ClusterOptStateBytes, bytes);
    }
}

/// Counts an end-of-epoch checkpoint refresh.
pub(crate) fn checkpoint_saved() {
    if telemetry::enabled() {
        telemetry::inc(telemetry::Counter::ClusterCheckpointSaves);
    }
}

/// Counts a run resumed from a checkpoint.
pub(crate) fn resumed() {
    if telemetry::enabled() {
        telemetry::inc(telemetry::Counter::ClusterResumes);
    }
}

/// Folds a finished run's fault trace into the cluster counters. The trace
/// is itself deterministic for a fixed plan and seed, so recording it once
/// at the end (rather than event by event) preserves snapshot determinism.
pub(crate) fn trace_totals(trace: &FaultTrace) {
    if !telemetry::enabled() {
        return;
    }
    use telemetry::Counter as C;
    telemetry::add(C::ClusterRetransmits, trace.retransmits);
    telemetry::add(C::ClusterDrops, trace.drops);
    telemetry::add(C::ClusterCorruptionsDetected, trace.corruptions_detected);
    telemetry::add(C::ClusterCorruptionsSilent, trace.corruptions_silent);
    telemetry::add(C::ClusterDuplicates, trace.duplicates);
    telemetry::add(C::ClusterLostMessages, trace.lost_messages);
    telemetry::add(C::ClusterCrashes, trace.crashes);
    telemetry::add(C::ClusterRecoveries, trace.recoveries);
    telemetry::add(C::MembershipSuspicions, trace.suspicions);
    telemetry::add(C::MembershipFalseSuspicions, trace.false_suspicions);
    telemetry::add(C::MembershipEvictions, trace.evictions);
    telemetry::add(C::MembershipJoins, trace.joins);
    telemetry::add(C::MembershipReconfigurations, trace.reconfigurations);
    telemetry::add(C::MembershipDegradedRounds, trace.degraded_rounds);
    telemetry::gauge_add(telemetry::Gauge::ClusterBackoffSeconds, trace.retry_seconds);
    telemetry::gauge_add(
        telemetry::Gauge::ClusterRecoverySeconds,
        trace.recovery_seconds,
    );
    telemetry::gauge_add(telemetry::Gauge::MembershipJoinSeconds, trace.join_seconds);
}
