//! Collective-aggregation traffic: star vs ring vs tree, per round.
//!
//! Runs one allreduce round of SketchML-compressed gradients per
//! `topology × merge-policy × worker-count` cell and records where the
//! bytes land: total traffic, the busiest NIC (the driver's link under the
//! star — the scalability wall of §4.5 — or the busiest peer elsewhere),
//! and the reduce/distribute split. The figure is the traffic; the time a
//! merge hop and a ring round take is recorded by `core.merge_hop_ms.*` and
//! the `allreduce_ring` workload of `BENCHMARK.json`, not by the wall
//! column printed here.
//!
//! The run aborts unless the ring under the resketch policy cuts the
//! busiest link by ≥3× against the star at n = 8 (ring traffic is O(1) per
//! node, star driver traffic is O(n)).
//!
//! `--quick` shrinks the gradient and skips n = 16 (CI smoke).

use rand::prelude::*;
use rand::rngs::StdRng;
use serde::Serialize;
use sketchml_bench::output::{print_table, write_json, ExperimentOutput};
use sketchml_collectives::{allreduce, Contribution, PerfectTransport, Topology};
use sketchml_core::{GradientCompressor, MergePolicy, SketchMlCompressor, SparseGradient};
use std::time::Instant;

#[derive(Serialize)]
struct Row {
    topology: &'static str,
    policy: &'static str,
    n: usize,
    hops: u64,
    merges: u64,
    /// Bytes through the busiest node's NIC (sent + received): the star
    /// driver's link, or the heaviest peer on the ring/tree.
    driver_link_bytes: u64,
    total_bytes: u64,
    reduce_bytes: u64,
    distribute_bytes: u64,
    merge_wall_ms: f64,
}

#[derive(Serialize)]
struct Report {
    quick: bool,
    dim: u64,
    avg_nnz: usize,
    workers: Vec<usize>,
    rows: Vec<Row>,
    /// star / ring busiest-link ratio under resketch at n = 8 (the ≥3×
    /// acceptance gate).
    ring_link_reduction_at_8: f64,
}

/// A strictly-ascending key walk covering roughly `nnz` keys of `[0, dim)`.
fn key_walk(dim: u64, nnz: usize, rng: &mut StdRng) -> Vec<u64> {
    let max_step = (dim / nnz as u64).max(2);
    let mut cur = 0u64;
    let mut keys = Vec::with_capacity(nnz);
    while keys.len() < nnz && cur < dim - 1 {
        cur += rng.gen_range(1..max_step);
        if cur >= dim {
            break;
        }
        keys.push(cur);
    }
    keys
}

/// One worker's heavy-tailed sparse gradient: ~70% of the support is a
/// hot-key set shared by every worker (minibatches sample the same frequent
/// features) and the rest is a private tail, so the merge exercises real
/// key-union work without degenerating into fully disjoint supports. Values
/// are per-worker: mixed signs, sixth-power magnitudes.
fn gradient(dim: u64, nnz: usize, w: u64) -> SparseGradient {
    let shared = (nnz * 7) / 10;
    let mut hot_rng = StdRng::seed_from_u64(0xA11DCE);
    let mut keys = key_walk(dim, shared, &mut hot_rng);
    let mut rng = StdRng::seed_from_u64(0xC01D_F00D ^ (w + 1).wrapping_mul(0x9E37_79B9));
    keys.extend(key_walk(dim, nnz - shared, &mut rng));
    keys.sort_unstable();
    keys.dedup();
    let values: Vec<f64> = keys
        .iter()
        .map(|_| {
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            sign * rng.gen::<f64>().powi(6) * 0.35 + 1e-12
        })
        .collect();
    SparseGradient::new(dim, keys, values).expect("valid gradient")
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (dim, nnz) = if quick {
        (200_000u64, 8_000usize)
    } else {
        (1_000_000u64, 50_000usize)
    };
    let workers: Vec<usize> = if quick {
        vec![2, 4, 8]
    } else {
        vec![2, 4, 8, 16]
    };

    let compressor = SketchMlCompressor::default();
    let max_n = *workers.iter().max().expect("non-empty sweep");
    let payloads: Vec<Vec<u8>> = (0..max_n)
        .map(|w| {
            compressor
                .compress(&gradient(dim, nnz, w as u64))
                .expect("worker payload")
                .payload
                .to_vec()
        })
        .collect();

    let mut rows = Vec::new();
    for &n in &workers {
        let contribs: Vec<Contribution> = payloads[..n]
            .iter()
            .map(|p| Contribution {
                payload: p,
                weight: 1.0 / n as f64,
            })
            .collect();
        for topology in [Topology::Star, Topology::Ring, Topology::Tree] {
            for policy in [MergePolicy::Exact, MergePolicy::Resketch] {
                let t = Instant::now();
                let round = allreduce(
                    topology,
                    policy,
                    &compressor,
                    dim,
                    &contribs,
                    &mut PerfectTransport,
                )
                .expect("allreduce round");
                rows.push(Row {
                    topology: topology.name(),
                    policy: policy.name(),
                    n,
                    hops: round.hops,
                    merges: round.merges,
                    driver_link_bytes: round.max_link_bytes(),
                    total_bytes: round.total_bytes(),
                    reduce_bytes: round.reduce_bytes,
                    distribute_bytes: round.distribute_bytes,
                    merge_wall_ms: t.elapsed().as_secs_f64() * 1e3,
                });
            }
        }
    }

    let link = |topology: &str, policy: &str, n: usize| {
        rows.iter()
            .find(|r| r.topology == topology && r.policy == policy && r.n == n)
            .map(|r| r.driver_link_bytes as f64)
            .expect("swept cell")
    };
    let ring_link_reduction_at_8 = link("star", "resketch", 8) / link("ring", "resketch", 8);
    assert!(
        ring_link_reduction_at_8 >= 3.0,
        "ring must cut the busiest link ≥3× vs the star at n=8, got {ring_link_reduction_at_8:.2}x"
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.topology.to_string(),
                r.policy.to_string(),
                r.n.to_string(),
                r.hops.to_string(),
                r.driver_link_bytes.to_string(),
                r.total_bytes.to_string(),
                format!("{:.2}", r.merge_wall_ms),
            ]
        })
        .collect();
    print_table(
        "Allreduce traffic per round (SketchML payloads)",
        &[
            "topology",
            "policy",
            "n",
            "hops",
            "busiest-link B",
            "total B",
            "wall ms",
        ],
        &table,
    );
    println!(
        "\nring busiest-link reduction vs star @ n=8 (resketch): {ring_link_reduction_at_8:.2}x"
    );

    write_json(&ExperimentOutput {
        id: "fig_allreduce".into(),
        paper_ref: "extension (§4.5 scalability wall: ring/tree allreduce of mergeable payloads)"
            .into(),
        results: Report {
            quick,
            dim,
            avg_nnz: nnz,
            workers,
            rows,
            ring_link_reduction_at_8,
        },
    });
}
