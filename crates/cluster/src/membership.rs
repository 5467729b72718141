//! Elastic cluster membership: deterministic failure detection, eviction,
//! and mid-training joins (DESIGN.md §2.8).
//!
//! SketchML's sketches are *mergeable* — aggregation is order-insensitive —
//! so a collective topology can be rebuilt over a different member set
//! between rounds without changing the math. This module supplies the
//! membership machinery that decides *which* set:
//!
//! - A heartbeat-based failure detector runs once per round over the
//!   [`FaultyLink`]. A member misses its ack when its process is down
//!   (crash schedule) or the ack is lost on the wire (the plan's
//!   `drop_prob`); [`ClusterConfig::suspicion_threshold`] consecutive
//!   misses evict it, but never the last member. A suspicion that clears
//!   is counted as a detector false positive — from inside the system a
//!   lossy link and a short outage are indistinguishable.
//! - Evicted workers whose process is back up try to rejoin by pulling a
//!   checkpoint through the same lossy link: up to [`JOIN_ATTEMPTS`] pulls
//!   per round, each charged to the cost model (transfer + exponential
//!   backoff); an exhausted budget defers the join to the next round.
//!
//! Determinism: heartbeat and join-pull draws come from a dedicated
//! SplitMix64 stream seeded from `plan.seed ^ HEARTBEAT_STREAM`, so the
//! detector never shifts the data-path fault stream — a chaos run with
//! membership enabled replays bit-for-bit, and every transition lands in
//! the [`FaultTrace`](crate::FaultTrace) as a typed event in a fixed order
//! (heartbeats in member order, then joins in worker order, then one
//! `Reconfigured` marker).
//!
//! [`ClusterConfig::suspicion_threshold`]: crate::ClusterConfig::suspicion_threshold

use crate::faults::{CrashPhase, FaultEvent, FaultyLink, SplitMix64};

/// XOR'd into the fault-plan seed to derive the heartbeat/join stream.
const HEARTBEAT_STREAM: u64 = 0x454C_4153_5449_4331; // "ELASTIC1"

/// Checkpoint-pull attempts a joining worker gets per round before the join
/// is deferred to the next round.
const JOIN_ATTEMPTS: u32 = 4;

/// What the membership layer decided for one training round.
#[derive(Debug, Clone)]
pub(crate) struct RoundPlan {
    /// Physical worker slots scheduled this round, ascending.
    pub members: Vec<usize>,
    /// Per-`members` entry: whether that member's process is down this
    /// round (suspected but not yet evicted — its shard is lost).
    pub down: Vec<bool>,
    /// Simulated seconds spent on joins and crash recoveries this round,
    /// charged to the global clock.
    pub stall_seconds: f64,
}

/// The failure-detector + join state machine. One instance lives inside an
/// elastic trainer; [`Self::step`] is called once per round *before* the
/// round's collective.
#[derive(Debug, Clone)]
pub(crate) struct ElasticMembership {
    suspicion_threshold: u32,
    workers: usize,
    /// Live physical slots, ascending.
    members: Vec<usize>,
    /// Per-slot consecutive missed acks.
    suspicion: Vec<u32>,
    /// Per-slot: evicted and waiting to rejoin.
    evicted: Vec<bool>,
    hb_rng: SplitMix64,
}

impl ElasticMembership {
    /// A full membership of `workers` slots that evicts after
    /// `suspicion_threshold` consecutive misses, heartbeats seeded from
    /// `seed` (the fault plan's seed; the stream is independent of the data
    /// path).
    pub fn new(workers: usize, suspicion_threshold: u32, seed: u64) -> Self {
        ElasticMembership {
            suspicion_threshold,
            workers,
            members: (0..workers).collect(),
            suspicion: vec![0; workers],
            evicted: vec![false; workers],
            hb_rng: SplitMix64::new(seed ^ HEARTBEAT_STREAM),
        }
    }

    /// Current members, ascending.
    #[cfg(test)]
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Runs one detector round at global `batch`: heartbeats every member,
    /// evicts on threshold, lets evicted-but-alive workers attempt a
    /// checkpoint pull of `checkpoint_bytes()` bytes, and records every
    /// transition on `link`'s trace.
    pub fn step(
        &mut self,
        link: &mut FaultyLink,
        batch: u64,
        checkpoint_bytes: &mut dyn FnMut() -> usize,
    ) -> RoundPlan {
        let drop_prob = link.plan().drop_prob;
        let mut stall = 0.0f64;
        let mut changed = false;

        let phases: Vec<CrashPhase> = (0..self.workers)
            .map(|w| link.crash_phase(w, batch))
            .collect();

        // 1. Heartbeat every current member in slot order. The ack draw is
        // made even for down members so the stream length per round is a
        // pure function of the member count.
        for slot in self.members.clone() {
            if phases[slot] == CrashPhase::Rejoin {
                // A short outage that ended before eviction: restore state
                // like the star trainer does.
                stall += link.charge_recovery(slot, batch, checkpoint_bytes());
            }
            let down = phases[slot] == CrashPhase::Down;
            let ack_lost = self.hb_rng.next_f64() < drop_prob;
            if down || ack_lost {
                self.suspicion[slot] += 1;
                if self.suspicion[slot] == 1 {
                    link.record_membership(FaultEvent::Suspected {
                        worker: slot,
                        batch,
                    });
                }
                // The last member is kept, suspected but not evicted.
                if self.suspicion[slot] >= self.suspicion_threshold && self.members.len() > 1 {
                    self.members.retain(|&m| m != slot);
                    self.evicted[slot] = true;
                    self.suspicion[slot] = 0;
                    link.record_membership(FaultEvent::Evicted {
                        worker: slot,
                        batch,
                    });
                    changed = true;
                }
            } else if self.suspicion[slot] > 0 {
                self.suspicion[slot] = 0;
                link.record_membership(FaultEvent::SuspicionCleared {
                    worker: slot,
                    batch,
                });
            }
        }

        // 2. Joins: evicted slots whose process is back up pull a
        // checkpoint through the lossy link, budgeted per round.
        for (slot, &phase) in phases.iter().enumerate() {
            if !self.evicted[slot] || phase == CrashPhase::Down {
                continue;
            }
            let bytes = checkpoint_bytes();
            for attempt in 1..=JOIN_ATTEMPTS {
                stall += link.charge_join_attempt(bytes, attempt);
                if self.hb_rng.next_f64() < drop_prob {
                    continue; // pull lost; budget permitting, retry
                }
                link.record_membership(FaultEvent::Joined {
                    worker: slot,
                    batch,
                    checkpoint_bytes: bytes as u64,
                    attempts: attempt,
                });
                self.evicted[slot] = false;
                self.suspicion[slot] = 0;
                self.members.push(slot);
                self.members.sort_unstable();
                changed = true;
                break;
            }
        }

        if changed {
            link.record_membership(FaultEvent::Reconfigured {
                batch,
                members: self.members.len(),
            });
        }

        let down = self
            .members
            .iter()
            .map(|&m| phases[m] == CrashPhase::Down)
            .collect();
        RoundPlan {
            members: self.members.clone(),
            down,
            stall_seconds: stall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use crate::network::NetworkModel;

    fn link(plan: &FaultPlan, workers: usize) -> FaultyLink {
        FaultyLink::new(plan, NetworkModel::cluster1(), workers).unwrap()
    }

    #[test]
    fn permanent_crash_is_suspected_then_evicted() {
        let plan = FaultPlan::seeded(7).with_permanent_crash(2, 1);
        let mut l = link(&plan, 4);
        let mut ms = ElasticMembership::new(4, 2, plan.seed);
        let mut bytes = || 1024usize;

        let r0 = ms.step(&mut l, 0, &mut bytes);
        assert_eq!(r0.members, vec![0, 1, 2, 3]);
        assert_eq!(l.trace().reconfigurations, 0);

        let r1 = ms.step(&mut l, 1, &mut bytes); // first miss: suspected
        assert_eq!(r1.members.len(), 4);
        assert!(r1.down[2], "down member flagged while still scheduled");

        let r2 = ms.step(&mut l, 2, &mut bytes); // second miss: evicted
        assert_eq!(r2.members, vec![0, 1, 3]);
        assert_eq!(l.trace().reconfigurations, 1);
        assert_eq!(
            l.trace().events.last(),
            Some(&FaultEvent::Reconfigured {
                batch: 2,
                members: 3
            })
        );

        // Permanent: never rejoins, membership stays at 3.
        for b in 3..30 {
            let r = ms.step(&mut l, b, &mut bytes);
            assert_eq!(r.members, vec![0, 1, 3]);
        }
        let trace = l.into_trace();
        assert_eq!(trace.evictions, 1);
        assert_eq!(trace.joins, 0);
        assert_eq!(trace.reconfigurations, 1);
    }

    #[test]
    fn finite_crash_evicts_then_rejoins() {
        let plan = FaultPlan::seeded(7).with_crash(1, 2, 6);
        let mut l = link(&plan, 3);
        let mut ms = ElasticMembership::new(3, 2, plan.seed);
        let mut bytes = || 512usize;

        for b in 0..4u64 {
            ms.step(&mut l, b, &mut bytes);
        }
        assert_eq!(ms.members(), &[0, 2], "evicted after 2 down rounds");

        // Window [2, 8) closes; with drop_prob 0 the first pull succeeds.
        let mut rejoined_at = None;
        for b in 4..12u64 {
            let r = ms.step(&mut l, b, &mut bytes);
            if r.members.len() == 3 {
                rejoined_at = Some(b);
                break;
            }
        }
        assert_eq!(rejoined_at, Some(8), "joins the round the process is up");
        let trace = l.into_trace();
        assert_eq!(trace.evictions, 1);
        assert_eq!(trace.joins, 1);
        assert_eq!(trace.reconfigurations, 2);
        assert!(trace.join_seconds > 0.0, "pull charged to the cost model");
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e, FaultEvent::Joined { worker: 1, .. })));
    }

    #[test]
    fn detector_is_deterministic_per_seed() {
        let plan = FaultPlan::seeded(99).with_drops(0.3).with_crash(1, 5, 10);
        let run = || {
            let mut l = link(&plan, 4);
            let mut ms = ElasticMembership::new(4, 3, plan.seed);
            let mut bytes = || 256usize;
            let mut sizes = Vec::new();
            for b in 0..40u64 {
                sizes.push(ms.step(&mut l, b, &mut bytes).members.len());
            }
            (l.into_trace(), sizes)
        };
        let (t1, s1) = run();
        let (t2, s2) = run();
        assert_eq!(t1, t2, "same seed ⇒ bit-identical membership trace");
        assert_eq!(s1, s2);
    }

    #[test]
    fn lossy_heartbeats_can_clear_as_false_positives() {
        // Heavy drops, no crashes: suspicions fire and clear; any eviction
        // is a detector false positive followed by a quick rejoin.
        let plan = FaultPlan::seeded(11).with_drops(0.4);
        let mut l = link(&plan, 4);
        let mut ms = ElasticMembership::new(4, 3, plan.seed);
        let mut bytes = || 128usize;
        for b in 0..200u64 {
            ms.step(&mut l, b, &mut bytes);
        }
        let trace = l.into_trace();
        assert!(trace.suspicions > 0, "40% ack loss must raise suspicions");
        assert!(trace.false_suspicions > 0, "most clear on the next ack");
        assert!(
            trace.false_suspicions <= trace.suspicions,
            "clears are a subset of opens"
        );
        assert_eq!(
            trace.evictions, trace.joins,
            "every false eviction of a live worker ends in a rejoin"
        );
    }
}
