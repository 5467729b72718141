//! Deterministic fault injection and failure recovery for the simulated
//! cluster (DESIGN.md §2.3).
//!
//! Real parameter-server deployments lose messages, corrupt frames, and
//! lose whole executors mid-job; the paper's 23-hour Table 2 runs only
//! finish because the surrounding system (Spark / Angel) retries and
//! recovers. This module makes those failures *first-class and seeded* so
//! the reproduction can assert, bit-for-bit, how compressed training
//! behaves under loss:
//!
//! - A [`FaultPlan`] declares per-message drop / corrupt / duplicate
//!   probabilities, per-worker crash schedules, and straggler slowdowns,
//!   all driven by one seed — the same plan always yields the identical
//!   [`FaultTrace`], retry counts, and final loss.
//! - A [`FaultyLink`] wraps the [`NetworkModel`] and perturbs every
//!   serialized payload in flight. Recovery actions (backoff, retransmits,
//!   checkpoint restores) are charged to the simulated clock through the
//!   same cost model as regular traffic, so chaos runs remain comparable
//!   with fault-free ones.
//!
//! Corruption interacts with the wire format, which is the compressor's
//! own: a flipped bit in a checksummed frame (`sketchml@1c`, or any
//! compressor wrapped in a v2 [`ShardedCompressor`]) fails CRC verification
//! at the receiver, which models a NACK + retransmit; the same flip in a
//! frame without a CRC may decode "successfully" into a wrong gradient —
//! the silent-failure baseline the `chaos` test suite documents.
//!
//! [`ShardedCompressor`]: sketchml_core::ShardedCompressor

use crate::network::NetworkModel;
use serde::{Deserialize, Serialize};
use sketchml_core::CompressError;
use std::borrow::Cow;

/// SplitMix64 — a tiny, platform-stable generator owned by this module so
/// fault schedules never depend on an external RNG's stream layout.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; `n = 0` is treated as 1.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// One scheduled worker failure: the worker disappears at global batch
/// `at_batch` and stays dark for `down_batches` batches, then rejoins by
/// restoring state from the driver (charged via
/// [`FaultyLink::charge_recovery`]).
///
/// `down_batches = u64::MAX` marks a *permanent* departure: the worker
/// never rejoins, and the crash-window arithmetic saturates instead of
/// overflowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// Worker index that crashes.
    pub worker: usize,
    /// Global batch index (0-based) at which the crash strikes.
    pub at_batch: u64,
    /// Number of batches the worker stays down (≥ 1); `u64::MAX` means
    /// forever.
    pub down_batches: u64,
}

impl CrashEvent {
    /// Whether this crash never ends (`down_batches == u64::MAX`).
    pub fn is_permanent(&self) -> bool {
        self.down_batches == u64::MAX
    }
}

/// A seeded, declarative description of every fault a run will suffer.
///
/// The default plan is benign (all probabilities zero, no crashes, no
/// stragglers); builders opt into individual fault classes. The plan is the
/// *only* source of randomness in a chaos run — two runs with the same plan
/// and data produce identical [`FaultTrace`]s and final losses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the fault stream (independent of the training seed).
    pub seed: u64,
    /// Probability that a message transmission is dropped in flight.
    pub drop_prob: f64,
    /// Probability that a delivered message arrives with flipped bits.
    pub corrupt_prob: f64,
    /// Probability that a delivered message is duplicated (the copy burns
    /// wire time; receivers dedup it).
    pub duplicate_prob: f64,
    /// Bits flipped per corruption event (≥ 1).
    pub corrupt_bits: u32,
    /// Transmission attempts per message before declaring it lost (≥ 1).
    pub max_attempts: u32,
    /// Base of the exponential retransmit backoff, in simulated seconds:
    /// retry `k` (1-based) waits `backoff_base · 2^(k-1)` before resending.
    pub backoff_base: f64,
    /// Per-worker compute-slowdown factors (index `w`; missing entries are
    /// 1.0). A factor of 3.0 makes that worker's batches 3× slower.
    pub stragglers: Vec<f64>,
    /// Scheduled worker crashes.
    pub crashes: Vec<CrashEvent>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA_017,
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            duplicate_prob: 0.0,
            corrupt_bits: 1,
            max_attempts: 5,
            backoff_base: 1e-3,
            stragglers: Vec::new(),
            crashes: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// The plan of a fault-free run (the default plan): nothing is
    /// injected, so a run under it is bit-identical to one that never heard
    /// of faults. The fault-free `train_*` entry points pass exactly this.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A benign plan with the given seed (no faults until builders add them).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the in-flight drop probability.
    pub fn with_drops(mut self, prob: f64) -> Self {
        self.drop_prob = prob;
        self
    }

    /// Sets the corruption probability and the bits flipped per event.
    pub fn with_corruption(mut self, prob: f64, bits: u32) -> Self {
        self.corrupt_prob = prob;
        self.corrupt_bits = bits;
        self
    }

    /// Sets the duplicate-delivery probability.
    pub fn with_duplicates(mut self, prob: f64) -> Self {
        self.duplicate_prob = prob;
        self
    }

    /// Sets the retransmit budget and backoff base.
    pub fn with_retries(mut self, max_attempts: u32, backoff_base: f64) -> Self {
        self.max_attempts = max_attempts;
        self.backoff_base = backoff_base;
        self
    }

    /// Schedules a crash: `worker` goes down at `at_batch` for
    /// `down_batches` batches. Pass `u64::MAX` (or use
    /// [`Self::with_permanent_crash`]) for a departure that never ends.
    pub fn with_crash(mut self, worker: usize, at_batch: u64, down_batches: u64) -> Self {
        self.crashes.push(CrashEvent {
            worker,
            at_batch,
            down_batches,
        });
        self
    }

    /// Schedules a permanent departure: `worker` goes down at `at_batch`
    /// and never rejoins; every exchange keeps working around it.
    pub fn with_permanent_crash(self, worker: usize, at_batch: u64) -> Self {
        self.with_crash(worker, at_batch, u64::MAX)
    }

    /// Sets per-worker straggler factors (1.0 = nominal speed).
    pub fn with_stragglers(mut self, factors: Vec<f64>) -> Self {
        self.stragglers = factors;
        self
    }

    /// Validates the plan against a cluster of `workers` workers.
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] naming the offending field: any
    /// probability outside `[0, 1)`, a zero retry/bit budget, a non-finite
    /// or negative backoff, a straggler factor ≤ 0, or a crash referencing
    /// a worker the cluster does not have.
    pub fn validate(&self, workers: usize) -> Result<(), CompressError> {
        let prob_ok = |p: f64| p.is_finite() && (0.0..1.0).contains(&p);
        if !prob_ok(self.drop_prob) {
            return Err(CompressError::InvalidConfig(format!(
                "fault plan: drop_prob {} must be in [0, 1)",
                self.drop_prob
            )));
        }
        if !prob_ok(self.corrupt_prob) {
            return Err(CompressError::InvalidConfig(format!(
                "fault plan: corrupt_prob {} must be in [0, 1)",
                self.corrupt_prob
            )));
        }
        if !prob_ok(self.duplicate_prob) {
            return Err(CompressError::InvalidConfig(format!(
                "fault plan: duplicate_prob {} must be in [0, 1)",
                self.duplicate_prob
            )));
        }
        if self.corrupt_bits == 0 {
            return Err(CompressError::InvalidConfig(
                "fault plan: corrupt_bits must be at least 1".into(),
            ));
        }
        if self.max_attempts == 0 || self.max_attempts > 32 {
            return Err(CompressError::InvalidConfig(format!(
                "fault plan: max_attempts {} must be in 1..=32",
                self.max_attempts
            )));
        }
        if !self.backoff_base.is_finite() || self.backoff_base < 0.0 {
            return Err(CompressError::InvalidConfig(format!(
                "fault plan: backoff_base {} must be finite and non-negative",
                self.backoff_base
            )));
        }
        if self.stragglers.len() > workers {
            return Err(CompressError::InvalidConfig(format!(
                "fault plan: {} straggler factors for {workers} workers",
                self.stragglers.len()
            )));
        }
        for (w, &f) in self.stragglers.iter().enumerate() {
            if !f.is_finite() || f <= 0.0 {
                return Err(CompressError::InvalidConfig(format!(
                    "fault plan: straggler factor {f} for worker {w} must be finite and positive"
                )));
            }
        }
        for c in &self.crashes {
            if c.worker >= workers {
                return Err(CompressError::InvalidConfig(format!(
                    "fault plan: crash targets worker {} but the cluster has {workers}",
                    c.worker
                )));
            }
            if c.down_batches == 0 {
                return Err(CompressError::InvalidConfig(format!(
                    "fault plan: crash of worker {} must last at least 1 batch",
                    c.worker
                )));
            }
        }
        Ok(())
    }
}

/// One injected fault, in injection order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A transmission attempt was dropped in flight.
    Dropped {
        /// Sending worker.
        worker: usize,
        /// Global batch index.
        batch: u64,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// A delivery arrived with flipped bits.
    Corrupted {
        /// Sending worker.
        worker: usize,
        /// Global batch index.
        batch: u64,
        /// 1-based attempt number.
        attempt: u32,
        /// Whether the receiver detected the corruption (and retried).
        detected: bool,
    },
    /// A delivery was duplicated (copy deduped by the receiver).
    Duplicated {
        /// Sending worker.
        worker: usize,
        /// Global batch index.
        batch: u64,
    },
    /// All attempts for a message failed; its contribution is gone.
    Lost {
        /// Sending worker.
        worker: usize,
        /// Global batch index.
        batch: u64,
    },
    /// A worker crashed.
    Crashed {
        /// Crashed worker.
        worker: usize,
        /// Global batch index at the moment of the crash.
        batch: u64,
    },
    /// A crashed worker rejoined by restoring state.
    Recovered {
        /// Recovering worker.
        worker: usize,
        /// Global batch index at the moment of recovery.
        batch: u64,
        /// Bytes of restore state transferred to it.
        checkpoint_bytes: u64,
    },
}

/// The complete, ordered record of one chaos run — the reproducibility
/// artifact: identical plans produce identical traces (`PartialEq`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultTrace {
    /// Every injected fault, in order.
    pub events: Vec<FaultEvent>,
    /// Retransmissions performed (uplink and downlink).
    pub retransmits: u64,
    /// Attempts dropped in flight.
    pub drops: u64,
    /// Corruptions caught by receiver-side verification.
    pub corruptions_detected: u64,
    /// Corruptions that slipped through (v1 silent-failure baseline).
    pub corruptions_silent: u64,
    /// Duplicate deliveries.
    pub duplicates: u64,
    /// Messages abandoned after exhausting every attempt.
    pub lost_messages: u64,
    /// Worker crashes.
    pub crashes: u64,
    /// Checkpoint recoveries.
    pub recoveries: u64,
    /// Simulated seconds spent in backoff + retransmission.
    pub retry_seconds: f64,
    /// Simulated seconds spent restoring crashed workers.
    pub recovery_seconds: f64,
}

impl FaultTrace {
    /// One-line human summary for logs and experiment reports.
    pub fn summary(&self) -> String {
        format!(
            "{} events: {} drops, {} corruptions ({} silent), {} duplicates, \
             {} lost, {} crashes/{} recoveries, {} retransmits \
             ({:.3}s retry + {:.3}s recovery)",
            self.events.len(),
            self.drops,
            self.corruptions_detected + self.corruptions_silent,
            self.corruptions_silent,
            self.duplicates,
            self.lost_messages,
            self.crashes,
            self.recoveries,
            self.retransmits,
            self.retry_seconds,
            self.recovery_seconds,
        )
    }
}

/// Outcome of pushing one message through the faulty link.
#[derive(Debug, Clone)]
pub struct Transmission<'p> {
    /// The payload as the receiver saw it; `None` if every attempt failed.
    /// Borrows the sent bytes unless corruption slipped through, in which
    /// case it owns the perturbed copy — an intact delivery costs no copy.
    pub payload: Option<Cow<'p, [u8]>>,
    /// Simulated seconds the exchange took (transfers + backoff).
    pub sim_seconds: f64,
    /// Total bytes that crossed the wire, including retries and duplicates.
    pub bytes_on_wire: u64,
}

/// Liveness of a worker at a given batch, from [`FaultyLink::crash_phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// Alive and participating.
    Up,
    /// Crashed: contributes nothing this batch.
    Down,
    /// First batch back after a crash: must restore state before working.
    Rejoin,
}

/// A [`NetworkModel`] wrapper that perturbs every message per a
/// [`FaultPlan`] and records what happened.
///
/// All randomness comes from the plan's seed; calls must be made in a
/// deterministic order (the trainers serialize link calls in worker order),
/// which makes whole chaos runs bit-reproducible.
#[derive(Debug, Clone)]
pub struct FaultyLink {
    plan: FaultPlan,
    net: NetworkModel,
    rng: SplitMix64,
    trace: FaultTrace,
    /// Per-crash-event flags so Crashed/Rejoin fire exactly once each.
    crash_seen: Vec<bool>,
    rejoin_seen: Vec<bool>,
}

impl FaultyLink {
    /// Builds a link for `workers` workers over `net`, validating the plan.
    ///
    /// # Errors
    /// Propagates [`FaultPlan::validate`].
    pub fn new(plan: &FaultPlan, net: NetworkModel, workers: usize) -> Result<Self, CompressError> {
        plan.validate(workers)?;
        Ok(FaultyLink {
            rng: SplitMix64::new(plan.seed),
            crash_seen: vec![false; plan.crashes.len()],
            rejoin_seen: vec![false; plan.crashes.len()],
            plan: plan.clone(),
            net,
            trace: FaultTrace::default(),
        })
    }

    /// The wrapped network model.
    pub fn network(&self) -> &NetworkModel {
        &self.net
    }

    /// The trace so far.
    pub fn trace(&self) -> &FaultTrace {
        &self.trace
    }

    /// Consumes the link, yielding the final trace.
    pub fn into_trace(self) -> FaultTrace {
        self.trace
    }

    /// Compute-slowdown factor for `worker` (1.0 when not a straggler).
    pub fn compute_factor(&self, worker: usize) -> f64 {
        self.plan.stragglers.get(worker).copied().unwrap_or(1.0)
    }

    /// Pushes one uplink message from `worker` through the lossy link.
    ///
    /// Each attempt may be dropped (retried after exponential backoff),
    /// corrupted (`verify` models the receiver's integrity check — a CRC
    /// failure or decode error triggers a retransmit; a passing corrupted
    /// payload is delivered silently), or duplicated (the copy burns wire
    /// time). After `max_attempts` failures the message is lost and the
    /// caller degrades to aggregating the surviving workers.
    pub fn transmit<'p>(
        &mut self,
        worker: usize,
        batch: u64,
        payload: &'p [u8],
        verify: &mut dyn FnMut(&[u8]) -> bool,
    ) -> Transmission<'p> {
        let transfer = self.net.transfer_time(payload.len());
        let mut sim_seconds = 0.0f64;
        let mut bytes_on_wire = 0u64;
        for attempt in 1..=self.plan.max_attempts {
            if attempt > 1 {
                let backoff = self.plan.backoff_base * 2f64.powi(attempt as i32 - 2);
                sim_seconds += backoff;
                self.trace.retry_seconds += backoff + transfer;
                self.trace.retransmits += 1;
            }
            sim_seconds += transfer;
            bytes_on_wire += payload.len() as u64;

            if self.rng.next_f64() < self.plan.drop_prob {
                self.trace.drops += 1;
                self.trace.events.push(FaultEvent::Dropped {
                    worker,
                    batch,
                    attempt,
                });
                continue;
            }

            let corrupted = self.rng.next_f64() < self.plan.corrupt_prob && !payload.is_empty();
            let delivered = if corrupted {
                let mut bad = payload.to_vec();
                for _ in 0..self.plan.corrupt_bits {
                    let pos = self.rng.below(bad.len());
                    let bit = self.rng.below(8) as u32;
                    bad[pos] ^= 1u8 << bit;
                }
                Cow::Owned(bad)
            } else {
                Cow::Borrowed(payload)
            };
            if corrupted {
                let detected = !verify(&delivered);
                self.trace.events.push(FaultEvent::Corrupted {
                    worker,
                    batch,
                    attempt,
                    detected,
                });
                if detected {
                    self.trace.corruptions_detected += 1;
                    continue; // receiver NACKs; sender retransmits
                }
                self.trace.corruptions_silent += 1;
            }

            if self.rng.next_f64() < self.plan.duplicate_prob {
                sim_seconds += transfer;
                bytes_on_wire += payload.len() as u64;
                self.trace.duplicates += 1;
                self.trace
                    .events
                    .push(FaultEvent::Duplicated { worker, batch });
            }

            return Transmission {
                payload: Some(delivered),
                sim_seconds,
                bytes_on_wire,
            };
        }
        self.trace.lost_messages += 1;
        self.trace.events.push(FaultEvent::Lost { worker, batch });
        Transmission {
            payload: None,
            sim_seconds,
            bytes_on_wire,
        }
    }

    /// Simulated extra seconds a round's downlink replies cost under faults:
    /// `replies[w]` is the bytes of slot `w`'s reply, one entry per
    /// configured slot in slot order. Each reply may be dropped or rejected
    /// as corrupt, forcing a re-send of that reply charged as one transfer
    /// plus backoff.
    ///
    /// The simulated downlink carries no bytes to verify, so every corrupted
    /// reply counts as detected. The simulator keeps a single authoritative
    /// model, so a worker that exhausts its attempts proceeds with its stale
    /// copy — only time diverges, never state.
    pub fn downlink_penalty(&mut self, batch: u64, replies: &[usize]) -> f64 {
        let mut penalty = 0.0f64;
        for (worker, &bytes) in replies.iter().enumerate() {
            let transfer = self.net.transfer_time(bytes);
            for attempt in 1..=self.plan.max_attempts {
                let dropped = self.rng.next_f64() < self.plan.drop_prob;
                let corrupted = self.rng.next_f64() < self.plan.corrupt_prob;
                if !dropped && corrupted {
                    self.trace.events.push(FaultEvent::Corrupted {
                        worker,
                        batch,
                        attempt,
                        detected: true,
                    });
                    self.trace.corruptions_detected += 1;
                }
                if dropped {
                    self.trace.drops += 1;
                    self.trace.events.push(FaultEvent::Dropped {
                        worker,
                        batch,
                        attempt,
                    });
                }
                if !(dropped || corrupted) || attempt == self.plan.max_attempts {
                    break;
                }
                let backoff = self.plan.backoff_base * 2f64.powi(attempt as i32 - 1);
                penalty += transfer + backoff;
                self.trace.retransmits += 1;
                self.trace.retry_seconds += transfer + backoff;
            }
        }
        penalty
    }

    /// Liveness of `worker` at global `batch` per the crash schedule.
    ///
    /// Records `Crashed` once when a crash window opens and returns
    /// [`CrashPhase::Rejoin`] exactly once when it closes; the caller then
    /// restores the worker and charges the restore via
    /// [`Self::charge_recovery`].
    pub fn crash_phase(&mut self, worker: usize, batch: u64) -> CrashPhase {
        let mut phase = CrashPhase::Up;
        for i in 0..self.plan.crashes.len() {
            let c = self.plan.crashes[i];
            if c.worker != worker {
                continue;
            }
            if batch >= c.at_batch && batch - c.at_batch < c.down_batches {
                if !self.crash_seen[i] {
                    self.crash_seen[i] = true;
                    self.trace.crashes += 1;
                    self.trace
                        .events
                        .push(FaultEvent::Crashed { worker, batch });
                }
                return CrashPhase::Down;
            }
            let window_end = c.at_batch.saturating_add(c.down_batches);
            if batch >= window_end && self.crash_seen[i] && !self.rejoin_seen[i] {
                self.rejoin_seen[i] = true;
                phase = CrashPhase::Rejoin;
            }
        }
        phase
    }

    /// The plan driving this link.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Charges the simulated cost of restoring a rejoining worker from
    /// `checkpoint_bytes` of state shipped over the wrapped network.
    pub fn charge_recovery(&mut self, worker: usize, batch: u64, checkpoint_bytes: usize) -> f64 {
        let t = self.net.transfer_time(checkpoint_bytes);
        self.trace.recoveries += 1;
        self.trace.recovery_seconds += t;
        self.trace.events.push(FaultEvent::Recovered {
            worker,
            batch,
            checkpoint_bytes: checkpoint_bytes as u64,
        });
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> NetworkModel {
        NetworkModel::cluster1()
    }

    #[test]
    fn default_plan_is_benign_and_valid() {
        let plan = FaultPlan::default();
        plan.validate(4).unwrap();
        let mut link = FaultyLink::new(&plan, net(), 4).unwrap();
        let payload = vec![1u8, 2, 3, 4];
        let tx = link.transmit(0, 0, &payload, &mut |_| true);
        assert_eq!(tx.payload.as_deref(), Some(&payload[..]));
        assert_eq!(tx.bytes_on_wire, 4);
        assert!((tx.sim_seconds - net().transfer_time(4)).abs() < 1e-12);
        assert_eq!(link.trace(), &FaultTrace::default());
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let w = 4;
        assert!(FaultPlan::seeded(1).with_drops(1.0).validate(w).is_err());
        assert!(FaultPlan::seeded(1).with_drops(-0.1).validate(w).is_err());
        assert!(FaultPlan::seeded(1)
            .with_corruption(f64::NAN, 1)
            .validate(w)
            .is_err());
        assert!(FaultPlan::seeded(1)
            .with_corruption(0.1, 0)
            .validate(w)
            .is_err());
        assert!(FaultPlan::seeded(1)
            .with_duplicates(2.0)
            .validate(w)
            .is_err());
        assert!(FaultPlan::seeded(1)
            .with_retries(0, 1e-3)
            .validate(w)
            .is_err());
        assert!(FaultPlan::seeded(1)
            .with_retries(3, f64::INFINITY)
            .validate(w)
            .is_err());
        assert!(FaultPlan::seeded(1)
            .with_stragglers(vec![1.0; 5])
            .validate(w)
            .is_err());
        assert!(FaultPlan::seeded(1)
            .with_stragglers(vec![0.0])
            .validate(w)
            .is_err());
        assert!(FaultPlan::seeded(1)
            .with_crash(4, 0, 1)
            .validate(w)
            .is_err());
        assert!(FaultPlan::seeded(1)
            .with_crash(0, 0, 0)
            .validate(w)
            .is_err());
        assert!(FaultPlan::seeded(1)
            .with_drops(0.3)
            .with_corruption(0.1, 2)
            .with_duplicates(0.05)
            .with_crash(3, 10, 4)
            .with_stragglers(vec![1.0, 2.5])
            .validate(w)
            .is_ok());
    }

    #[test]
    fn same_seed_same_trace() {
        let plan = FaultPlan::seeded(42)
            .with_drops(0.3)
            .with_corruption(0.2, 2)
            .with_duplicates(0.1);
        let run = || {
            let mut link = FaultyLink::new(&plan, net(), 3).unwrap();
            let payload: Vec<u8> = (0..64).collect();
            let mut delivered = Vec::new();
            for batch in 0..50u64 {
                for w in 0..3 {
                    let tx = link.transmit(w, batch, &payload, &mut |_| false);
                    delivered.push((tx.payload.is_some(), tx.bytes_on_wire));
                }
                link.downlink_penalty(batch, &[128; 3]);
            }
            (link.into_trace(), delivered)
        };
        let (t1, d1) = run();
        let (t2, d2) = run();
        assert_eq!(t1, t2, "same plan must give the identical trace");
        assert_eq!(d1, d2);
        assert!(t1.drops > 0, "30% drop over 150 sends must fire");
        assert!(t1.corruptions_detected > 0);
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            let plan = FaultPlan::seeded(seed).with_drops(0.4);
            let mut link = FaultyLink::new(&plan, net(), 1).unwrap();
            let payload = [0u8; 32];
            for batch in 0..100u64 {
                link.transmit(0, batch, &payload, &mut |_| true);
            }
            link.into_trace()
        };
        assert_ne!(
            mk(1),
            mk(2),
            "different seeds should yield different traces"
        );
    }

    #[test]
    fn drops_cost_backoff_and_retransmits() {
        // drop_prob ≈ 1 - ε forces every attempt to fail.
        let plan = FaultPlan::seeded(7)
            .with_drops(0.999999)
            .with_retries(4, 0.01);
        let mut link = FaultyLink::new(&plan, net(), 1).unwrap();
        let payload = [0u8; 100];
        let tx = link.transmit(0, 0, &payload, &mut |_| true);
        assert!(tx.payload.is_none(), "message should be lost");
        assert_eq!(tx.bytes_on_wire, 400);
        // 4 transfers + backoffs 0.01·(1 + 2 + 4).
        let expect = 4.0 * net().transfer_time(100) + 0.01 * 7.0;
        assert!(
            (tx.sim_seconds - expect).abs() < 1e-9,
            "got {} want {expect}",
            tx.sim_seconds
        );
        let trace = link.trace();
        assert_eq!(trace.lost_messages, 1);
        assert_eq!(trace.drops, 4);
        assert_eq!(trace.retransmits, 3);
    }

    #[test]
    fn detected_corruption_retries_silent_corruption_delivers() {
        let plan = FaultPlan::seeded(11).with_corruption(0.999999, 1);
        // Verifier always rejects → every attempt is a detected corruption.
        let mut link = FaultyLink::new(&plan, net(), 1).unwrap();
        let tx = link.transmit(0, 0, &[0u8; 16], &mut |_| false);
        assert!(tx.payload.is_none());
        assert_eq!(link.trace().corruptions_detected, 5);
        assert_eq!(link.trace().lost_messages, 1);

        // Verifier always accepts → first attempt delivers a perturbed copy.
        let mut link = FaultyLink::new(&plan, net(), 1).unwrap();
        let sent = [0u8; 16];
        let tx = link.transmit(0, 0, &sent, &mut |_| true);
        let got = tx.payload.expect("silent corruption still delivers");
        assert_ne!(got[..], sent, "payload must actually be perturbed");
        assert_eq!(
            got.iter()
                .zip(&sent)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum::<u32>(),
            1,
            "exactly corrupt_bits=1 bit flipped"
        );
        assert_eq!(link.trace().corruptions_silent, 1);
    }

    #[test]
    fn duplicates_charge_extra_wire_time() {
        let plan = FaultPlan::seeded(3).with_duplicates(0.999999);
        let mut link = FaultyLink::new(&plan, net(), 1).unwrap();
        let tx = link.transmit(0, 0, &[0u8; 50], &mut |_| true);
        assert!(tx.payload.is_some());
        assert_eq!(tx.bytes_on_wire, 100, "duplicate burned double the bytes");
        assert!((tx.sim_seconds - 2.0 * net().transfer_time(50)).abs() < 1e-12);
        assert_eq!(link.trace().duplicates, 1);
    }

    #[test]
    fn crash_schedule_phases() {
        let plan = FaultPlan::seeded(0).with_crash(1, 3, 2);
        let mut link = FaultyLink::new(&plan, net(), 2).unwrap();
        // Worker 0 is never affected.
        for b in 0..8 {
            assert_eq!(link.crash_phase(0, b), CrashPhase::Up, "batch {b}");
        }
        assert_eq!(link.crash_phase(1, 2), CrashPhase::Up);
        assert_eq!(link.crash_phase(1, 3), CrashPhase::Down);
        assert_eq!(link.crash_phase(1, 4), CrashPhase::Down);
        assert_eq!(link.crash_phase(1, 5), CrashPhase::Rejoin);
        assert_eq!(link.crash_phase(1, 6), CrashPhase::Up, "rejoin fires once");
        assert_eq!(link.trace().crashes, 1);

        let t = link.charge_recovery(1, 5, 1024);
        assert!((t - net().transfer_time(1024)).abs() < 1e-12);
        assert_eq!(link.trace().recoveries, 1);
        assert!(link.trace().recovery_seconds > 0.0);
        assert!(matches!(
            link.trace().events.last(),
            Some(FaultEvent::Recovered {
                worker: 1,
                checkpoint_bytes: 1024,
                ..
            })
        ));
    }

    #[test]
    fn permanent_crash_validates_and_never_rejoins() {
        // Satellite: down_batches = u64::MAX must not overflow the
        // crash-window arithmetic (debug builds would panic on `at + down`).
        let plan = FaultPlan::seeded(0).with_permanent_crash(1, 3);
        assert!(plan.crashes[0].is_permanent());
        plan.validate(2).unwrap();

        let mut link = FaultyLink::new(&plan, net(), 2).unwrap();
        assert_eq!(link.crash_phase(1, 2), CrashPhase::Up);
        assert_eq!(link.crash_phase(1, 3), CrashPhase::Down);
        assert_eq!(link.crash_phase(1, u64::MAX - 1), CrashPhase::Down);
        assert_eq!(link.crash_phase(1, u64::MAX), CrashPhase::Down);
        assert_eq!(link.trace().crashes, 1, "crash recorded exactly once");

        // A finite window starting late must also saturate cleanly.
        let plan = FaultPlan::seeded(0).with_crash(0, u64::MAX - 1, 5);
        let mut link = FaultyLink::new(&plan, net(), 1).unwrap();
        assert_eq!(link.crash_phase(0, u64::MAX), CrashPhase::Down);
    }

    #[test]
    fn straggler_factors_default_to_one() {
        let plan = FaultPlan::seeded(0).with_stragglers(vec![1.0, 3.0]);
        let link = FaultyLink::new(&plan, net(), 4).unwrap();
        assert_eq!(link.compute_factor(0), 1.0);
        assert_eq!(link.compute_factor(1), 3.0);
        assert_eq!(link.compute_factor(3), 1.0, "missing entries are nominal");
    }

    #[test]
    fn downlink_penalty_zero_without_faults_positive_with() {
        let mut clean = FaultyLink::new(&FaultPlan::seeded(5), net(), 8).unwrap();
        assert_eq!(clean.downlink_penalty(0, &[4096; 8]), 0.0);

        let plan = FaultPlan::seeded(5).with_drops(0.5);
        let mut lossy = FaultyLink::new(&plan, net(), 8).unwrap();
        let mut total = 0.0;
        for b in 0..20 {
            total += lossy.downlink_penalty(b, &[4096; 8]);
        }
        assert!(total > 0.0, "50% drops over 160 deliveries must cost time");
        assert!(lossy.trace().retransmits > 0);
    }

    #[test]
    fn trace_serializes_and_summarizes() {
        let plan = FaultPlan::seeded(9).with_drops(0.5).with_crash(0, 0, 1);
        let mut link = FaultyLink::new(&plan, net(), 1).unwrap();
        link.crash_phase(0, 0);
        for b in 1..20u64 {
            link.transmit(0, b, &[1u8; 8], &mut |_| true);
        }
        let trace = link.into_trace();
        let json = serde_json::to_string(&trace).unwrap();
        let back: FaultTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
        let s = trace.summary();
        assert!(s.contains("crashes"), "{s}");
    }
}
