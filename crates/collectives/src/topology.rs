//! Aggregation topologies and their deterministic hop schedules.
//!
//! A schedule is a flat list of [`Hop`]s in the exact order the executor
//! performs them. "Simultaneous" sends of a parallel algorithm share a
//! `step`; within a step hops are ordered by sender index, which is what
//! makes whole allreduce rounds (and their fault traces) bit-reproducible.

use serde::{Deserialize, Serialize};
use sketchml_core::CompressError;
use std::ops::Range;

/// How worker gradients are combined into one aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Topology {
    /// Every worker unicasts to a central driver, which merges all
    /// contributions and broadcasts the result — the parameter-server
    /// pattern, expressed as the degenerate one-level tree. The driver's
    /// link carries all `2n` payloads.
    #[default]
    Star,
    /// Bandwidth-optimal ring allreduce: the key space is split into `n`
    /// chunks; a reduce-scatter rotates partial chunk sums around the ring
    /// for `n − 1` steps, then an allgather rotates the completed chunks.
    /// Every node's link carries only O(2 · d/n · n) = O(d) chunk payloads
    /// regardless of the cluster size.
    Ring,
    /// Binary reduce tree: pairwise merges halve the live senders each
    /// round until worker 0 holds the aggregate, which is then broadcast
    /// back down the same tree. Latency-optimal (`2⌈log₂ n⌉` rounds); each
    /// link carries whole-gradient payloads.
    Tree,
}

impl Topology {
    /// Short lowercase name used in configs, benches and reports.
    pub fn name(self) -> &'static str {
        match self {
            Topology::Star => "star",
            Topology::Ring => "ring",
            Topology::Tree => "tree",
        }
    }

    /// Parses a [`name`](Self::name) (case-insensitive).
    ///
    /// # Errors
    /// [`CompressError::InvalidConfig`] naming the unknown topology.
    pub fn parse(s: &str) -> Result<Self, CompressError> {
        match s.to_ascii_lowercase().as_str() {
            "star" => Ok(Topology::Star),
            "ring" => Ok(Topology::Ring),
            "tree" => Ok(Topology::Tree),
            other => Err(CompressError::InvalidConfig(format!(
                "unknown topology {other:?}: expected star, ring or tree"
            ))),
        }
    }

    /// Smallest worker count a *configured* group should start with. Ring
    /// and tree want a peer to exchange with; star degenerates fine at one
    /// worker.
    ///
    /// This is a configuration floor, not an executor limit: once a round
    /// is running, the executor accepts any `n ≥ 1` — a ring or tree of one
    /// has an empty schedule and reduces to the star's single merge, which
    /// is what lets a round whose other workers crashed run below the floor
    /// instead of aborting.
    pub fn min_workers(self) -> usize {
        match self {
            Topology::Star => 1,
            Topology::Ring | Topology::Tree => 2,
        }
    }
}

/// One scheduled point-to-point transmission. Node indices `0..n` are
/// workers; for [`Topology::Star`] the driver is node `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Parallel step the hop belongs to (hops of one step are logically
    /// simultaneous; the executor performs them in sender order).
    pub step: u64,
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
    /// For chunked topologies, the chunk the payload covers; the whole key
    /// space for star and tree hops.
    pub chunk: Option<usize>,
}

/// Splits `0..dim` into `n` contiguous, near-equal key ranges — the chunk
/// layout the ring schedule rotates. Deterministic: earlier chunks take the
/// remainder, matching the batch partitioner's convention.
pub fn chunk_ranges(dim: u64, n: usize) -> Vec<Range<u64>> {
    let n = n.max(1);
    let base = dim / n as u64;
    let extra = dim % n as u64;
    let mut out = Vec::with_capacity(n);
    let mut start = 0u64;
    for c in 0..n as u64 {
        let len = base + u64::from(c < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// The reduce-phase schedule: hops that fold worker contributions together.
///
/// * Star: `n` uplinks, worker `w` → driver `n`, all in step 0.
/// * Ring reduce-scatter: `n − 1` steps; in step `s` worker `i` sends its
///   partial of chunk `(i − s) mod n` to worker `(i + 1) mod n`. Afterwards
///   worker `i` owns the complete chunk `(i + 1) mod n`.
/// * Tree: `⌈log₂ n⌉` rounds; in round `r` worker `i + 2^r` folds into
///   worker `i` for every `i` divisible by `2^(r+1)`.
pub fn reduce_schedule(topology: Topology, n: usize) -> Vec<Hop> {
    let mut hops = Vec::new();
    match topology {
        Topology::Star => {
            for w in 0..n {
                hops.push(Hop {
                    step: 0,
                    from: w,
                    to: n,
                    chunk: None,
                });
            }
        }
        Topology::Ring => {
            for s in 0..n.saturating_sub(1) {
                for i in 0..n {
                    hops.push(Hop {
                        step: s as u64,
                        from: i,
                        to: (i + 1) % n,
                        chunk: Some((i + n - s % n) % n),
                    });
                }
            }
        }
        Topology::Tree => {
            let mut stride = 1usize;
            let mut step = 0u64;
            while stride < n {
                for i in (0..n).step_by(stride * 2) {
                    if i + stride < n {
                        hops.push(Hop {
                            step,
                            from: i + stride,
                            to: i,
                            chunk: None,
                        });
                    }
                }
                stride *= 2;
                step += 1;
            }
        }
    }
    hops
}

/// The distribute-phase schedule: hops that spread the finished aggregate
/// back out. Steps continue after the reduce phase's.
///
/// * Star: `n` downlinks, driver `n` → worker `w`.
/// * Ring allgather: `n − 1` steps; in step `s` worker `i` forwards the
///   completed chunk `(i + 1 − s) mod n` to worker `(i + 1) mod n`.
/// * Tree: the reduce hops mirrored (parent → child), in reverse round
///   order, so the root's result reaches every leaf.
pub fn distribute_schedule(topology: Topology, n: usize) -> Vec<Hop> {
    let reduce_steps = match topology {
        Topology::Star => 1,
        Topology::Ring => n.saturating_sub(1) as u64,
        Topology::Tree => {
            let mut rounds = 0u64;
            let mut stride = 1usize;
            while stride < n {
                rounds += 1;
                stride *= 2;
            }
            rounds
        }
    };
    let mut hops = Vec::new();
    match topology {
        Topology::Star => {
            for w in 0..n {
                hops.push(Hop {
                    step: reduce_steps,
                    from: n,
                    to: w,
                    chunk: None,
                });
            }
        }
        Topology::Ring => {
            for s in 0..n.saturating_sub(1) {
                for i in 0..n {
                    hops.push(Hop {
                        step: reduce_steps + s as u64,
                        from: i,
                        to: (i + 1) % n,
                        chunk: Some((i + 1 + n - s % n) % n),
                    });
                }
            }
        }
        Topology::Tree => {
            let mut mirrored: Vec<Hop> = reduce_schedule(Topology::Tree, n);
            mirrored.reverse();
            for h in &mirrored {
                hops.push(Hop {
                    step: reduce_steps + (reduce_steps - 1 - h.step),
                    from: h.to,
                    to: h.from,
                    chunk: None,
                });
            }
        }
    }
    hops
}

/// Checks a hop schedule against the group it will run over: every endpoint
/// must be a worker `0..n` (or the star driver `n`), and every chunk index
/// must fall inside the `chunks` chunk layout.
///
/// The executor validates its own generated schedules with this before
/// touching any per-node state, so a malformed schedule — from a future
/// hand-built topology or a corrupted reconfiguration — surfaces as a typed
/// error instead of an index panic.
///
/// # Errors
/// [`CompressError::InvalidConfig`] naming the first offending hop.
pub fn validate_schedule(hops: &[Hop], n: usize, chunks: usize) -> Result<(), CompressError> {
    for h in hops {
        if h.from > n || h.to > n || h.from == h.to {
            return Err(CompressError::InvalidConfig(format!(
                "schedule: hop {} → {} at step {} is outside the {n}-worker group",
                h.from, h.to, h.step
            )));
        }
        if let Some(c) = h.chunk {
            if c >= chunks {
                return Err(CompressError::InvalidConfig(format!(
                    "schedule: hop {} → {} at step {} names chunk {c} of {chunks}",
                    h.from, h.to, h.step
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for t in [Topology::Star, Topology::Ring, Topology::Tree] {
            assert_eq!(Topology::parse(t.name()).unwrap(), t);
        }
        assert_eq!(Topology::parse("RING").unwrap(), Topology::Ring);
        assert!(Topology::parse("mesh").is_err());
    }

    #[test]
    fn chunks_partition_the_key_space() {
        for (dim, n) in [(10u64, 3usize), (4096, 8), (7, 7), (5, 8), (0, 4)] {
            let ranges = chunk_ranges(dim, n);
            assert_eq!(ranges.len(), n);
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, dim);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            let max = ranges.iter().map(|r| r.end - r.start).max().unwrap();
            let min = ranges.iter().map(|r| r.end - r.start).min().unwrap();
            assert!(max - min <= 1, "near-equal chunks for dim {dim} n {n}");
        }
    }

    #[test]
    fn star_schedule_is_up_then_down() {
        let up = reduce_schedule(Topology::Star, 4);
        assert_eq!(up.len(), 4);
        assert!(up.iter().all(|h| h.to == 4));
        let down = distribute_schedule(Topology::Star, 4);
        assert_eq!(down.len(), 4);
        assert!(down.iter().all(|h| h.from == 4));
    }

    #[test]
    fn ring_reduce_scatter_ends_with_each_worker_owning_one_chunk() {
        // Replay the schedule over sets of contributed chunks: after the
        // reduce phase, worker i must have seen every worker's share of
        // chunk (i + 1) mod n.
        let n = 5;
        let mut have: Vec<Vec<std::collections::HashSet<usize>>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|_| std::collections::HashSet::from([i]))
                    .collect()
            })
            .collect();
        for h in reduce_schedule(Topology::Ring, n) {
            let c = h.chunk.unwrap();
            let sent = have[h.from][c].clone();
            have[h.to][c].extend(sent);
        }
        for (i, chunks) in have.iter().enumerate() {
            let owned = (i + 1) % n;
            assert_eq!(chunks[owned].len(), n, "worker {i} owns chunk {owned}");
        }
    }

    #[test]
    fn ring_allgather_spreads_every_chunk_everywhere() {
        let n = 5;
        // Start from the post-reduce state: worker i holds chunk (i+1)%n.
        let mut have: Vec<std::collections::HashSet<usize>> = (0..n)
            .map(|i| std::collections::HashSet::from([(i + 1) % n]))
            .collect();
        for h in distribute_schedule(Topology::Ring, n) {
            let c = h.chunk.unwrap();
            assert!(
                have[h.from].contains(&c),
                "worker {} forwards chunk {c} it does not hold at step {}",
                h.from,
                h.step
            );
            have[h.to].insert(c);
        }
        for (i, chunks) in have.iter().enumerate() {
            assert_eq!(chunks.len(), n, "worker {i} has every chunk");
        }
    }

    #[test]
    fn tree_reduce_reaches_root_and_broadcast_reaches_all() {
        for n in [2usize, 3, 4, 6, 8, 16] {
            let up = reduce_schedule(Topology::Tree, n);
            assert_eq!(up.len(), n - 1, "n−1 merges for n {n}");
            // Fold: every worker's contribution must reach worker 0.
            let mut have: Vec<std::collections::HashSet<usize>> = (0..n)
                .map(|i| std::collections::HashSet::from([i]))
                .collect();
            for h in &up {
                let sent = have[h.from].clone();
                have[h.to].extend(sent);
            }
            assert_eq!(have[0].len(), n, "root holds all for n {n}");

            let down = distribute_schedule(Topology::Tree, n);
            assert_eq!(down.len(), n - 1);
            let mut reached = vec![false; n];
            reached[0] = true;
            for h in &down {
                assert!(reached[h.from], "sender {} not yet reached", h.from);
                reached[h.to] = true;
            }
            assert!(reached.iter().all(|&r| r), "broadcast covers all for n {n}");
        }
    }

    #[test]
    fn hops_are_in_step_order() {
        for t in [Topology::Star, Topology::Ring, Topology::Tree] {
            for n in [2usize, 4, 7] {
                let mut all = reduce_schedule(t, n);
                all.extend(distribute_schedule(t, n));
                for w in all.windows(2) {
                    assert!(w[0].step <= w[1].step, "{t:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn degenerate_single_worker_schedules_are_empty() {
        // A ring or tree of one has nobody to talk to: both phases are
        // hopless, which is what makes n=1 collapse to the star result.
        for t in [Topology::Ring, Topology::Tree] {
            assert!(reduce_schedule(t, 1).is_empty(), "{t:?}");
            assert!(distribute_schedule(t, 1).is_empty(), "{t:?}");
        }
        assert_eq!(reduce_schedule(Topology::Star, 1).len(), 1);
        assert_eq!(distribute_schedule(Topology::Star, 1).len(), 1);
    }

    #[test]
    fn generated_schedules_validate_and_malformed_ones_do_not() {
        for t in [Topology::Star, Topology::Ring, Topology::Tree] {
            for n in [1usize, 2, 3, 8] {
                let chunks = if t == Topology::Ring { n } else { 1 };
                validate_schedule(&reduce_schedule(t, n), n, chunks).unwrap();
                validate_schedule(&distribute_schedule(t, n), n, chunks).unwrap();
            }
        }
        let oob = [Hop {
            step: 0,
            from: 9,
            to: 0,
            chunk: None,
        }];
        assert!(validate_schedule(&oob, 4, 1).is_err());
        let selfsend = [Hop {
            step: 0,
            from: 2,
            to: 2,
            chunk: None,
        }];
        assert!(validate_schedule(&selfsend, 4, 1).is_err());
        let badchunk = [Hop {
            step: 0,
            from: 0,
            to: 1,
            chunk: Some(4),
        }];
        assert!(validate_schedule(&badchunk, 4, 4).is_err());
    }

    #[test]
    fn topology_serde_roundtrips() {
        for t in [Topology::Star, Topology::Ring, Topology::Tree] {
            let json = serde_json::to_string(&t).unwrap();
            let back: Topology = serde_json::from_str(&json).unwrap();
            assert_eq!(back, t);
        }
    }
}
