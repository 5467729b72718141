//! The allreduce executor: drives a topology's hop schedule, performing the
//! real merges on real compressed payloads and accounting every byte.
//!
//! The executor is a *simulation* of a peer-to-peer collective in one
//! process: each node's partial aggregate lives in a [`MergeAcc`], hop
//! payloads are genuine wire frames ([`MergePolicy::Exact`] AGG frames,
//! natively re-compressed messages under [`MergePolicy::Resketch`], or raw
//! Count-Sketch cell tables under [`MergePolicy::Linear`] — merged
//! element-wise and extracted only at the final decode), and
//! every transmission goes through the caller's [`Transport`]. Hops are
//! performed in schedule order, so a seeded lossy transport yields
//! bit-reproducible outcomes.
//!
//! Loss semantics: a failed reduce hop drops the sender's partial from the
//! receiver's aggregate. The surviving weights are *not* renormalized: each
//! contribution's weight is fixed before the hops run, so the lost share of
//! the batch is simply gone and the weights sum below 1. The driver star
//! differs: it weighs the pushes that arrived by their own instance total
//! (`sketchml_cluster::driver::combine`), so a lost push leaves weights that
//! sum to 1. Bringing the two together is left to ROADMAP.md's item 5
//! ("Collectives forward the workers' frames instead of merging them"). A
//! failed distribute hop costs only accounting: the simulation keeps a single
//! authoritative model, so stale replicas diverge in time, never in state.

use crate::topology::{
    chunk_ranges, distribute_schedule, reduce_schedule, validate_schedule, Hop, Topology,
};
use crate::transport::Transport;
use bytes::BytesMut;
use sketchml_core::{
    CompressError, CompressScratch, MergeAcc, MergePolicy, MergeableCompressor, SparseGradient,
};

/// One worker's input to an allreduce round.
#[derive(Debug, Clone, Copy)]
pub struct Contribution<'a> {
    /// The worker's compressed gradient, in the compressor's native wire
    /// format.
    pub payload: &'a [u8],
    /// Weight the contribution enters the aggregate with (the worker's
    /// share of the batch; the driver trainer uses `instances / total`).
    pub weight: f64,
}

/// Outcome of one allreduce round: the aggregate plus full hop accounting.
#[derive(Debug, Clone)]
pub struct AllreduceReport {
    /// The aggregated gradient, as decoded from the payload the distribute
    /// phase actually ships (bit-exact to the merged sums under
    /// [`MergePolicy::Exact`]).
    pub gradient: SparseGradient,
    /// Scheduled hops performed (delivered or lost).
    pub hops: u64,
    /// Hop payloads merged into a partial aggregate.
    pub merges: u64,
    /// Hops whose delivery failed for good.
    pub lost_hops: u64,
    /// Payload bytes each node sent, indexed by node (for
    /// [`Topology::Star`] the driver is the extra last entry).
    pub node_sent: Vec<u64>,
    /// Payload bytes each node received (delivered hops only).
    pub node_received: Vec<u64>,
    /// Payload bytes shipped during the reduce phase — the uplink analog.
    pub reduce_bytes: u64,
    /// Payload bytes shipped during the distribute phase — the downlink
    /// analog.
    pub distribute_bytes: u64,
    /// Key-value pairs decoded (merges) or encoded (hop emissions) across
    /// the round — the codec work a cost model charges for. Workers' own
    /// initial decodes and final applies are excluded; they belong to the
    /// caller's worker-side accounting.
    pub codec_pairs: u64,
}

impl AllreduceReport {
    /// Total payload bytes put on the wire this round.
    pub fn total_bytes(&self) -> u64 {
        self.node_sent.iter().sum()
    }

    /// The busiest node's link traffic (sent + received) — the per-round
    /// bottleneck a topology is chosen to minimize. For star this is the
    /// driver's link; for ring it is uniform across workers.
    pub fn max_link_bytes(&self) -> u64 {
        self.node_sent
            .iter()
            .zip(&self.node_received)
            .map(|(s, r)| s + r)
            .max()
            .unwrap_or(0)
    }
}

/// Serializes `acc` as the next hop payload, returning the pairs encoded.
/// Empty partials always ship as (tiny) AGG frames: native compressors may
/// reject empty gradients, and an empty exact frame is smaller anyway.
fn emit(
    compressor: &dyn MergeableCompressor,
    acc: &MergeAcc,
    policy: MergePolicy,
    scratch: &mut CompressScratch,
    out: &mut BytesMut,
) -> Result<u64, CompressError> {
    if acc.is_empty() {
        acc.write_agg(out)?;
        return Ok(0);
    }
    compressor.emit_hop(acc, policy, scratch, out)?;
    Ok(acc.linear().map_or(acc.nnz() as u64, |t| t.nnz()))
}

/// Byte/hop bookkeeping shared by the three topology drivers.
struct Books {
    hops: u64,
    merges: u64,
    lost: u64,
    sent: Vec<u64>,
    received: Vec<u64>,
    reduce_bytes: u64,
    codec_pairs: u64,
}

impl Books {
    fn new(nodes: usize) -> Self {
        Books {
            hops: 0,
            merges: 0,
            lost: 0,
            sent: vec![0; nodes],
            received: vec![0; nodes],
            reduce_bytes: 0,
            codec_pairs: 0,
        }
    }

    /// Marks the reduce → distribute boundary: every byte sent so far
    /// belongs to the reduce phase.
    fn end_reduce_phase(&mut self) {
        self.reduce_bytes = self.sent.iter().sum();
    }

    fn into_report(self, gradient: SparseGradient) -> AllreduceReport {
        let total: u64 = self.sent.iter().sum();
        AllreduceReport {
            gradient,
            hops: self.hops,
            merges: self.merges,
            lost_hops: self.lost,
            reduce_bytes: self.reduce_bytes,
            distribute_bytes: total - self.reduce_bytes,
            codec_pairs: self.codec_pairs,
            node_sent: self.sent,
            node_received: self.received,
        }
    }

    /// Ships `payload` along `hop`, recording its bytes. Returns
    /// what the receiver saw.
    fn ship(&mut self, transport: &mut dyn Transport, hop: Hop, payload: &[u8]) -> Option<Vec<u8>> {
        self.hops += 1;
        self.sent[hop.from] += payload.len() as u64;
        match transport.transmit(hop, payload) {
            Some(delivered) => {
                self.received[hop.to] += payload.len() as u64;
                Some(delivered)
            }
            None => {
                self.lost += 1;
                None
            }
        }
    }

    /// Counts one successful merge of `pairs` key-value pairs.
    fn merged(&mut self, pairs: u64) {
        self.merges += 1;
        self.codec_pairs += pairs;
    }
}

/// Runs one allreduce round over `contributions`, returning the aggregate
/// and its accounting. `contributions.len()` defines the worker count.
///
/// Any `n ≥ 1` is accepted for every topology: a ring or tree of one has an
/// empty hop schedule and produces the star result bit for bit, which is
/// what lets a round keep training when crashes leave fewer workers up than
/// the configured [`Topology::min_workers`] floor.
///
/// # Errors
/// [`CompressError::InvalidConfig`] when there are no contributions, a
/// weight is non-finite, or the hop schedule fails [`validate_schedule`];
/// propagates decode, merge and re-encode failures.
pub fn allreduce(
    topology: Topology,
    policy: MergePolicy,
    compressor: &dyn MergeableCompressor,
    dim: u64,
    contributions: &[Contribution],
    transport: &mut dyn Transport,
) -> Result<AllreduceReport, CompressError> {
    let n = contributions.len();
    if n == 0 {
        return Err(CompressError::InvalidConfig(format!(
            "{} allreduce needs at least one contribution",
            topology.name()
        )));
    }
    for (w, c) in contributions.iter().enumerate() {
        if !c.weight.is_finite() {
            return Err(CompressError::InvalidConfig(format!(
                "allreduce: worker {w} weight {} must be finite",
                c.weight
            )));
        }
    }
    if policy == MergePolicy::Linear && !compressor.supports_linear() {
        return Err(CompressError::InvalidConfig(format!(
            "{} payloads are not linear; the {} policy needs a compressor \
             whose frames merge element-wise (e.g. countsketch)",
            compressor.name(),
            policy.name()
        )));
    }
    // Typed guard between the schedule generator and the per-node state it
    // indexes: a malformed schedule surfaces here, not as an index panic.
    let chunks = if topology == Topology::Ring { n } else { 1 };
    validate_schedule(&reduce_schedule(topology, n), n, chunks)?;
    validate_schedule(&distribute_schedule(topology, n), n, chunks)?;
    let mut scratch = CompressScratch::default();
    match topology {
        Topology::Star => star(
            policy,
            compressor,
            dim,
            contributions,
            transport,
            &mut scratch,
        ),
        Topology::Ring => ring(
            policy,
            compressor,
            dim,
            contributions,
            transport,
            &mut scratch,
        ),
        Topology::Tree => tree(
            policy,
            compressor,
            dim,
            contributions,
            transport,
            &mut scratch,
        ),
    }
}

/// Decodes the final payload a distribute phase ships — what every worker
/// actually applies to its model replica. Under [`MergePolicy::Linear`]
/// this is the single point where heavy hitters are extracted from the
/// merged cell table.
fn decode_final(
    compressor: &dyn MergeableCompressor,
    policy: MergePolicy,
    dim: u64,
    payloads: &[&[u8]],
    scratch: &mut CompressScratch,
) -> Result<SparseGradient, CompressError> {
    let mut acc = MergeAcc::new();
    acc.reset(dim);
    for p in payloads {
        compressor.accumulate_hop(&mut acc, p, 1.0, policy, scratch)?;
    }
    compressor.finish(&acc)
}

/// Chunk index of a ring hop. The ring schedule always chunks its hops, but
/// `chunk` is an `Option` at the type level, so an unchunked or out-of-range
/// hop — a malformed schedule, not an invariant of this module — degrades to
/// a typed error instead of a panic.
fn ring_chunk(hop: Hop, chunks: usize) -> Result<usize, CompressError> {
    match hop.chunk {
        Some(c) if c < chunks => Ok(c),
        _ => Err(CompressError::InvalidConfig(format!(
            "ring schedule: hop {} → {} at step {} must name a chunk below {chunks}, got {:?}",
            hop.from, hop.to, hop.step, hop.chunk
        ))),
    }
}

fn star(
    policy: MergePolicy,
    compressor: &dyn MergeableCompressor,
    dim: u64,
    contributions: &[Contribution],
    transport: &mut dyn Transport,
    scratch: &mut CompressScratch,
) -> Result<AllreduceReport, CompressError> {
    let n = contributions.len();
    let mut books = Books::new(n + 1); // workers 0..n, driver = n
    let mut acc = MergeAcc::new();
    acc.reset(dim);
    for hop in reduce_schedule(Topology::Star, n) {
        let c = &contributions[hop.from];
        if let Some(delivered) = books.ship(transport, hop, c.payload) {
            let pairs =
                compressor.accumulate_hop(&mut acc, &delivered, c.weight, policy, scratch)?;
            books.merged(pairs);
        }
    }
    books.end_reduce_phase();
    let mut down = BytesMut::new();
    books.codec_pairs += emit(compressor, &acc, policy, scratch, &mut down)?;
    for hop in distribute_schedule(Topology::Star, n) {
        books.ship(transport, hop, &down);
    }
    let gradient = decode_final(compressor, policy, dim, &[&down], scratch)?;
    Ok(books.into_report(gradient))
}

fn ring(
    policy: MergePolicy,
    compressor: &dyn MergeableCompressor,
    dim: u64,
    contributions: &[Contribution],
    transport: &mut dyn Transport,
    scratch: &mut CompressScratch,
) -> Result<AllreduceReport, CompressError> {
    let n = contributions.len();
    let ranges = chunk_ranges(dim, n);
    let mut books = Books::new(n);

    // Each worker decodes its own contribution and splits it into one
    // partial accumulator per chunk: key ranges for pair aggregates, cell
    // ranges of the sketch table under [`MergePolicy::Linear`] (the table
    // is the payload, so the reduce-scatter shards *cells*, not keys).
    let mut accs: Vec<Vec<MergeAcc>> = Vec::with_capacity(n);
    let mut full = MergeAcc::new();
    for c in contributions {
        full.reset(dim);
        compressor.accumulate_hop(&mut full, c.payload, c.weight, policy, scratch)?;
        let mut per_chunk = Vec::with_capacity(n);
        if let Some(table) = full.linear() {
            for r in chunk_ranges(table.table_len(), n) {
                let mut acc = MergeAcc::new();
                acc.reset(dim);
                if r.end > r.start {
                    acc.fold_linear_slice(table, r.start, r.end - r.start)?;
                }
                per_chunk.push(acc);
            }
        } else {
            for r in &ranges {
                let lo = full.keys().partition_point(|&k| k < r.start);
                let hi = full.keys().partition_point(|&k| k < r.end);
                let mut acc = MergeAcc::new();
                acc.reset(dim);
                acc.accumulate_pairs(&full.keys()[lo..hi], &full.sums()[lo..hi], 1.0)?;
                per_chunk.push(acc);
            }
        }
        accs.push(per_chunk);
    }

    // Reduce-scatter: rotate partial chunk sums n − 1 steps; a lost hop
    // leaves the receiver's partial missing the sender's share.
    let mut out = BytesMut::new();
    for hop in reduce_schedule(Topology::Ring, n) {
        let c = ring_chunk(hop, n)?;
        books.codec_pairs += emit(compressor, &accs[hop.from][c], policy, scratch, &mut out)?;
        if let Some(delivered) = books.ship(transport, hop, &out) {
            let pairs = compressor.accumulate_hop(
                &mut accs[hop.to][c],
                &delivered,
                1.0,
                policy,
                scratch,
            )?;
            books.merged(pairs);
        }
    }
    books.end_reduce_phase();

    // Allgather: each completed chunk travels the ring from its owner,
    // store-and-forward. `held[i][c]` is worker i's received copy.
    let mut held: Vec<Vec<Option<Vec<u8>>>> = vec![vec![None; n]; n];
    let mut owner_payload: Vec<Vec<u8>> = Vec::with_capacity(n);
    for c in 0..n {
        let owner = (c + n - 1) % n;
        books.codec_pairs += emit(compressor, &accs[owner][c], policy, scratch, &mut out)?;
        let bytes = out[..].to_vec();
        held[owner][c] = Some(bytes.clone());
        owner_payload.push(bytes);
    }
    for hop in distribute_schedule(Topology::Ring, n) {
        let c = ring_chunk(hop, n)?;
        let payload = match held[hop.from][c].take() {
            Some(p) => p,
            // The forwarder never received this chunk (an upstream hop was
            // lost); it forwards its stale partial — accounted, not merged.
            None => {
                emit(compressor, &accs[hop.from][c], policy, scratch, &mut out)?;
                out[..].to_vec()
            }
        };
        if let Some(delivered) = books.ship(transport, hop, &payload) {
            held[hop.to][c] = Some(delivered);
        }
        held[hop.from][c] = Some(payload);
    }

    // The authoritative aggregate: every chunk as its owner shipped it
    // (identical to every delivered copy — allgather forwards unchanged).
    let refs: Vec<&[u8]> = owner_payload.iter().map(Vec::as_slice).collect();
    let gradient = decode_final(compressor, policy, dim, &refs, scratch)?;
    Ok(books.into_report(gradient))
}

fn tree(
    policy: MergePolicy,
    compressor: &dyn MergeableCompressor,
    dim: u64,
    contributions: &[Contribution],
    transport: &mut dyn Transport,
    scratch: &mut CompressScratch,
) -> Result<AllreduceReport, CompressError> {
    let n = contributions.len();
    let mut books = Books::new(n);
    let mut accs: Vec<MergeAcc> = Vec::with_capacity(n);
    for c in contributions {
        let mut acc = MergeAcc::new();
        acc.reset(dim);
        compressor.accumulate_hop(&mut acc, c.payload, c.weight, policy, scratch)?;
        accs.push(acc);
    }

    // Pairwise reduce up to the root (worker 0). A lost hop drops the
    // sender's whole subtree from the aggregate.
    let mut out = BytesMut::new();
    for hop in reduce_schedule(Topology::Tree, n) {
        books.codec_pairs += emit(compressor, &accs[hop.from], policy, scratch, &mut out)?;
        if let Some(delivered) = books.ship(transport, hop, &out) {
            let pairs =
                compressor.accumulate_hop(&mut accs[hop.to], &delivered, 1.0, policy, scratch)?;
            books.merged(pairs);
        }
    }
    books.end_reduce_phase();

    // Broadcast the root's aggregate back down the mirrored tree,
    // store-and-forward of the same bytes.
    books.codec_pairs += emit(compressor, &accs[0], policy, scratch, &mut out)?;
    let root_payload = out[..].to_vec();
    for hop in distribute_schedule(Topology::Tree, n) {
        books.ship(transport, hop, &root_payload);
    }
    let gradient = decode_final(compressor, policy, dim, &[&root_payload], scratch)?;
    Ok(books.into_report(gradient))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::PerfectTransport;
    use sketchml_core::{GradientCompressor, RawCompressor, SketchMlCompressor};

    /// Deterministic synthetic gradients: n workers, distinct keys/values.
    fn payloads(
        compressor: &dyn MergeableCompressor,
        dim: u64,
        n: usize,
        nnz: usize,
    ) -> Vec<Vec<u8>> {
        (0..n)
            .map(|w| {
                let mut state = 0x9E37_79B9u64.wrapping_mul(w as u64 + 1);
                let mut keys: Vec<u64> = (0..nnz)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 16) % dim
                    })
                    .chain(std::iter::once(j_fix(w)))
                    .collect();
                keys.sort_unstable();
                keys.dedup();
                let values: Vec<f64> = keys
                    .iter()
                    .enumerate()
                    .map(|(j, _)| {
                        let sign = if (j + w) % 3 == 0 { -1.0 } else { 1.0 };
                        sign * (0.01 + 0.1 * ((j % 17) as f64) + 0.001 * w as f64)
                    })
                    .collect();
                let g = SparseGradient::new(dim, keys, values).unwrap();
                compressor.compress(&g).unwrap().payload.to_vec()
            })
            .collect()
    }

    /// A key guaranteed distinct per worker so payloads differ.
    fn j_fix(w: usize) -> u64 {
        7 + 13 * w as u64
    }

    fn contributions<'a>(payloads: &'a [Vec<u8>]) -> Vec<Contribution<'a>> {
        let n = payloads.len();
        payloads
            .iter()
            .map(|p| Contribution {
                payload: p,
                weight: 1.0 / n as f64,
            })
            .collect()
    }

    /// Driver-style reference: decode each payload, scale, sum in worker
    /// order.
    fn reference(
        compressor: &dyn MergeableCompressor,
        dim: u64,
        contribs: &[Contribution],
    ) -> SparseGradient {
        let mut scratch = CompressScratch::default();
        let mut acc = MergeAcc::new();
        acc.reset(dim);
        for c in contribs {
            compressor
                .accumulate(&mut acc, c.payload, c.weight, &mut scratch)
                .unwrap();
        }
        acc.to_gradient().unwrap()
    }

    fn assert_close(a: &SparseGradient, b: &SparseGradient, tol: f64) {
        assert_eq!(a.keys(), b.keys());
        for (x, y) in a.values().iter().zip(b.values()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn ring_tree_star_agree_under_exact_policy() {
        let c = SketchMlCompressor::default();
        let dim = 8_192u64;
        for n in [2usize, 3, 4, 8] {
            let ps = payloads(&c, dim, n, 400);
            let contribs = contributions(&ps);
            let want = reference(&c, dim, &contribs);
            for t in [Topology::Star, Topology::Ring, Topology::Tree] {
                let got = allreduce(
                    t,
                    MergePolicy::Exact,
                    &c,
                    dim,
                    &contribs,
                    &mut PerfectTransport,
                )
                .unwrap();
                // Same payload decodes, same weights; only the summation
                // order differs between topologies.
                assert_close(&got.gradient, &want, 1e-12);
                assert_eq!(got.lost_hops, 0);
            }
        }
    }

    #[test]
    fn hop_counts_match_the_textbook_formulas() {
        let c = RawCompressor::default();
        let dim = 1_000u64;
        for n in [2usize, 4, 8] {
            let ps = payloads(&c, dim, n, 50);
            let contribs = contributions(&ps);
            let run = |t| {
                allreduce(
                    t,
                    MergePolicy::Exact,
                    &c,
                    dim,
                    &contribs,
                    &mut PerfectTransport,
                )
                .unwrap()
            };
            let star = run(Topology::Star);
            assert_eq!(star.hops, 2 * n as u64);
            assert_eq!(star.merges, n as u64);
            let ring = run(Topology::Ring);
            assert_eq!(ring.hops, 2 * n as u64 * (n as u64 - 1));
            assert_eq!(ring.merges, n as u64 * (n as u64 - 1));
            let tree = run(Topology::Tree);
            assert_eq!(tree.hops, 2 * (n as u64 - 1));
            assert_eq!(tree.merges, n as u64 - 1);
        }
    }

    #[test]
    fn star_concentrates_bytes_on_the_driver_ring_spreads_them() {
        let c = SketchMlCompressor::default();
        let dim = 200_000u64;
        let n = 8usize;
        let ps = payloads(&c, dim, n, 8_000);
        let contribs = contributions(&ps);
        let star = allreduce(
            Topology::Star,
            MergePolicy::Resketch,
            &c,
            dim,
            &contribs,
            &mut PerfectTransport,
        )
        .unwrap();
        let ring = allreduce(
            Topology::Ring,
            MergePolicy::Resketch,
            &c,
            dim,
            &contribs,
            &mut PerfectTransport,
        )
        .unwrap();
        // The driver handles all 2n payloads; a ring node only its 4(n−1)/n
        // chunk share.
        assert_eq!(
            star.max_link_bytes(),
            star.node_sent[n] + star.node_received[n]
        );
        assert!(
            ring.max_link_bytes() * 3 <= star.max_link_bytes(),
            "ring bottleneck {} should be ≥3× below star {}",
            ring.max_link_bytes(),
            star.max_link_bytes()
        );
    }

    #[test]
    fn resketch_hops_carry_native_payloads() {
        let c = SketchMlCompressor::default();
        let dim = 100_000u64;
        let n = 4usize;
        let ps = payloads(&c, dim, n, 4_000);
        let contribs = contributions(&ps);
        let got = allreduce(
            Topology::Ring,
            MergePolicy::Resketch,
            &c,
            dim,
            &contribs,
            &mut PerfectTransport,
        )
        .unwrap();
        // Lossy per-hop re-quantization: keys survive (they ride the
        // lossless key codec), and a key whose contributions all share one
        // sign can never flip — quantile bucketing is sign-separated, so
        // every partial sum keeps its sign through each re-encode. Keys
        // with mixed-sign contributions may cancel either way; no lossy
        // codec can promise their sum's sign, so they are exempt.
        let want = reference(&c, dim, &contribs);
        assert_eq!(got.gradient.dim(), want.dim());
        let mut sign: std::collections::HashMap<u64, (bool, bool)> = Default::default();
        let mut scratch = CompressScratch::default();
        let mut one = MergeAcc::new();
        for contrib in &contribs {
            one.reset(dim);
            c.accumulate(&mut one, contrib.payload, 1.0, &mut scratch)
                .unwrap();
            for (k, v) in one.keys().iter().zip(one.sums()) {
                let e = sign.entry(*k).or_insert((false, false));
                e.0 |= *v > 0.0;
                e.1 |= *v < 0.0;
            }
        }
        let mut consensus_keys = 0usize;
        for (k, v) in got.gradient.keys().iter().zip(got.gradient.values()) {
            let (pos, neg) = sign[k];
            if pos && neg {
                continue;
            }
            consensus_keys += 1;
            assert!(
                *v == 0.0 || (*v > 0.0) == pos,
                "sign flip at same-sign key {k}: merged {v}, contributions positive={pos}"
            );
        }
        assert!(
            consensus_keys > 100,
            "test data must exercise same-sign keys"
        );
    }

    #[test]
    fn lost_reduce_hops_drop_contributions_not_the_round() {
        let c = RawCompressor::default();
        let dim = 1_000u64;
        let n = 4usize;
        let ps = payloads(&c, dim, n, 60);
        let contribs = contributions(&ps);

        /// Drops every hop out of worker 2 during the reduce phase.
        struct DropFrom2;
        impl Transport for DropFrom2 {
            fn transmit(&mut self, hop: Hop, payload: &[u8]) -> Option<Vec<u8>> {
                if hop.from == 2 && hop.step < 3 {
                    None
                } else {
                    Some(payload.to_vec())
                }
            }
        }
        let got = allreduce(
            Topology::Tree,
            MergePolicy::Exact,
            &c,
            dim,
            &contribs,
            &mut DropFrom2,
        )
        .unwrap();
        assert!(got.lost_hops > 0);
        // Worker 2's uplink carried its whole subtree — worker 3 had
        // already folded into it at step 0 — so both unique keys are gone.
        for w in [2usize, 3] {
            assert!(!got.gradient.keys().contains(&j_fix(w)), "worker {w} lost");
        }
        // Workers 0 and 1 still reached the aggregate.
        for w in [0usize, 1] {
            assert!(got.gradient.keys().contains(&j_fix(w)), "worker {w} kept");
        }
    }

    #[test]
    fn linear_policy_requires_a_linear_compressor() {
        let c = RawCompressor::default();
        let ps = payloads(&c, 100, 2, 5);
        let contribs = contributions(&ps);
        let err = allreduce(
            Topology::Ring,
            MergePolicy::Linear,
            &c,
            100,
            &contribs,
            &mut PerfectTransport,
        )
        .unwrap_err();
        assert!(matches!(err, CompressError::InvalidConfig(_)));
        assert!(err.to_string().contains("linear"));
    }

    #[test]
    fn linear_policy_is_bit_exact_across_topologies() {
        use sketchml_core::{CountSketchCompressor, CountSketchConfig};
        let c = CountSketchCompressor::new(CountSketchConfig::default()).unwrap();
        let dim = 16_384u64;
        let n = 4usize;
        // Dyadic values and power-of-two weights: every addition along any
        // merge order is exact, so sum-of-sketches equals sketch-of-sum
        // bit for bit.
        let grads: Vec<SparseGradient> = (0..n)
            .map(|w| {
                let keys: Vec<u64> = (0..64).map(|j| (j * 97 + w as u64 * 13) % dim).collect();
                let mut keys = keys;
                keys.sort_unstable();
                keys.dedup();
                let values: Vec<f64> = keys
                    .iter()
                    .enumerate()
                    .map(|(j, _)| ((j as f64) - 31.0) / 64.0)
                    .collect();
                SparseGradient::new(dim, keys, values).unwrap()
            })
            .collect();
        let ps: Vec<Vec<u8>> = grads
            .iter()
            .map(|g| c.compress(g).unwrap().payload.to_vec())
            .collect();
        let contribs: Vec<Contribution> = ps
            .iter()
            .map(|p| Contribution {
                payload: p,
                weight: 0.25,
            })
            .collect();
        // Single-node reference: sketch the weighted sum directly, extract.
        let mut weighted = grads.clone();
        for g in &mut weighted {
            g.scale(0.25);
        }
        let sum = SparseGradient::aggregate(&weighted).unwrap();
        let want = c.decompress(&c.compress(&sum).unwrap().payload).unwrap();
        for t in [Topology::Star, Topology::Ring, Topology::Tree] {
            let got = allreduce(
                t,
                MergePolicy::Linear,
                &c,
                dim,
                &contribs,
                &mut PerfectTransport,
            )
            .unwrap();
            assert_eq!(got.gradient.keys(), want.keys(), "{t:?}");
            assert_eq!(got.gradient.values(), want.values(), "{t:?}");
            assert_eq!(got.lost_hops, 0);
        }
    }

    #[test]
    fn zero_contributions_is_a_typed_error() {
        let c = RawCompressor::default();
        for t in [Topology::Star, Topology::Ring, Topology::Tree] {
            let err =
                allreduce(t, MergePolicy::Exact, &c, 100, &[], &mut PerfectTransport).unwrap_err();
            assert!(matches!(err, CompressError::InvalidConfig(_)), "{t:?}");
        }
    }

    #[test]
    fn degenerate_groups_match_star_bit_for_bit() {
        // Crashes can leave two — or one — workers up in a round; the
        // ring and tree must then produce the star aggregate exactly. At
        // n=1 the schedules are empty; at n=2 f64 commutativity makes the
        // merge order irrelevant bit for bit.
        let raw = RawCompressor::default();
        let sketch = SketchMlCompressor::default();
        let dim = 4_096u64;
        for compressor in [&raw as &dyn MergeableCompressor, &sketch] {
            for n in [1usize, 2] {
                let ps = payloads(compressor, dim, n, 200);
                let contribs = contributions(&ps);
                let run = |t| {
                    allreduce(
                        t,
                        MergePolicy::Exact,
                        compressor,
                        dim,
                        &contribs,
                        &mut PerfectTransport,
                    )
                    .unwrap()
                };
                let star = run(Topology::Star);
                for t in [Topology::Ring, Topology::Tree] {
                    let got = run(t);
                    assert_eq!(
                        got.gradient.keys(),
                        star.gradient.keys(),
                        "{} n={n} keys",
                        t.name()
                    );
                    let star_bits: Vec<u64> =
                        star.gradient.values().iter().map(|v| v.to_bits()).collect();
                    let got_bits: Vec<u64> =
                        got.gradient.values().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got_bits, star_bits, "{} n={n} values", t.name());
                    assert_eq!(got.lost_hops, 0);
                }
            }
        }
    }

    #[test]
    fn malformed_ring_chunks_are_typed_errors() {
        let hop = Hop {
            step: 0,
            from: 0,
            to: 1,
            chunk: None,
        };
        let err = ring_chunk(hop, 4).unwrap_err();
        assert!(matches!(err, CompressError::InvalidConfig(_)));
        let hop = Hop {
            step: 0,
            from: 0,
            to: 1,
            chunk: Some(4),
        };
        assert!(ring_chunk(hop, 4).is_err());
        assert_eq!(
            ring_chunk(
                Hop {
                    step: 0,
                    from: 0,
                    to: 1,
                    chunk: Some(3)
                },
                4
            )
            .unwrap(),
            3
        );
    }

    #[test]
    fn weights_scale_contributions() {
        let c = RawCompressor::default();
        let dim = 64u64;
        let g = SparseGradient::new(dim, vec![3, 9], vec![1.0, -2.0]).unwrap();
        let p = c.compress(&g).unwrap().payload.to_vec();
        let contribs = vec![
            Contribution {
                payload: &p,
                weight: 0.25,
            },
            Contribution {
                payload: &p,
                weight: 0.75,
            },
        ];
        let got = allreduce(
            Topology::Ring,
            MergePolicy::Exact,
            &c,
            dim,
            &contribs,
            &mut PerfectTransport,
        )
        .unwrap();
        assert_eq!(got.gradient.keys(), &[3, 9]);
        assert!((got.gradient.values()[0] - 1.0).abs() < 1e-15);
        assert!((got.gradient.values()[1] + 2.0).abs() < 1e-15);
        assert!(allreduce(
            Topology::Ring,
            MergePolicy::Exact,
            &c,
            dim,
            &[
                Contribution {
                    payload: &p,
                    weight: f64::NAN
                },
                Contribution {
                    payload: &p,
                    weight: 0.5
                }
            ],
            &mut PerfectTransport,
        )
        .is_err());
    }
}
