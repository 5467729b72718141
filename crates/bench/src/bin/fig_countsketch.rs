//! Count-Sketch compressor evaluation: convergence per byte against the
//! MinMaxSketch pipeline, and the per-hop cost of the linear merge.
//!
//! Two panels:
//!
//! 1. **Convergence per byte** — ring allreduce training on the fig10-style
//!    workload with (a) the full SketchML pipeline (MinMaxSketch + quantile
//!    buckets, resketch hops) and (b) the Count-Sketch compressor, both at
//!    its default table and with the table sized to the largest
//!    power-of-two footprint not exceeding SketchML's payload (the
//!    matched-bytes comparison). The linear policy pays no per-hop
//!    re-quantization, so at default size its loss curve tracks dense SGD.
//! 2. **Per-hop merge cost** — one ring round of Count-Sketch payloads at
//!    n ∈ {4, 8, 16}, timed under `Linear` (element-wise cell adds,
//!    extraction deferred), `Exact` (decode to pairs + AGG frames) and
//!    `Resketch` (decode + full re-encode per hop). The recorded per-hop
//!    times are `core.merge_hop_ms.{linear,resketch}` in `BENCHMARK.json`;
//!    nothing here gates on a clock.
//!
//! The run aborts unless the countsketch final loss lands within 5% of
//! dense SGD.
//!
//! `--quick` shrinks the workload and skips n = 16 (CI smoke).

use rand::prelude::*;
use rand::rngs::StdRng;
use serde::Serialize;
use sketchml_bench::output::{print_table, write_json, ExperimentOutput};
use sketchml_cluster::{train_allreduce_with_policy, ClusterConfig, TrainSpec};
use sketchml_collectives::{allreduce, Contribution, PerfectTransport, Topology};
use sketchml_core::{
    CountSketchCompressor, CountSketchConfig, GradientCompressor, MergePolicy, MergeableCompressor,
    RawCompressor, SketchMlCompressor, SparseGradient,
};
use sketchml_data::SparseDatasetSpec;
use sketchml_ml::GlmLoss;
use std::time::Instant;

#[derive(Serialize)]
struct ConvergenceRow {
    method: String,
    policy: &'static str,
    final_loss: f64,
    total_bytes: u64,
    /// Loss improvement over the zero model per MiB shipped — the
    /// convergence-per-byte figure of merit.
    loss_gain_per_mib: f64,
    /// (cumulative bytes, test loss) per epoch.
    curve: Vec<(u64, f64)>,
}

#[derive(Serialize)]
struct MergeRow {
    policy: &'static str,
    n: usize,
    hops: u64,
    merges: u64,
    total_bytes: u64,
    round_wall_ms: f64,
    per_merge_us: f64,
}

#[derive(Serialize)]
struct Report {
    quick: bool,
    workers: usize,
    sketchml_payload_bytes: usize,
    countsketch_payload_bytes: usize,
    countsketch_cols: u32,
    convergence: Vec<ConvergenceRow>,
    merge_ns: Vec<usize>,
    merge: Vec<MergeRow>,
    linear_vs_resketch_per_merge_at_8: f64,
}

/// The fig10-style training workload the convergence panel runs on.
fn workload(quick: bool) -> (SparseDatasetSpec, usize) {
    let spec = SparseDatasetSpec {
        name: "countsketch-bench".into(),
        instances: if quick { 800 } else { 1_600 },
        features: 40_000,
        avg_nnz: 22,
        skew: 1.1,
        label_noise: 0.02,
        task: sketchml_data::Task::Classification,
        seed: 321,
    };
    (spec, 40_000)
}

/// A representative per-worker gradient from the workload's scale, used to
/// size the Count-Sketch table against the SketchML payload.
fn probe_gradient(dim: u64) -> SparseGradient {
    let mut rng = StdRng::seed_from_u64(0xC5_BEEF);
    let mut keys: Vec<u64> = (0..2_000).map(|_| rng.gen_range(0..dim)).collect();
    keys.sort_unstable();
    keys.dedup();
    let values: Vec<f64> = keys
        .iter()
        .map(|_| {
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            sign * rng.gen::<f64>().powi(6) * 0.35 + 1e-12
        })
        .collect();
    SparseGradient::new(dim, keys, values).expect("probe gradient")
}

/// Picks the largest power-of-two `cols` whose CSK frame does not exceed
/// the SketchML payload for the same gradient — the matched-bytes config.
fn matched_config(target_bytes: usize, rows: u32, k: u32) -> CountSketchConfig {
    let mut cols: u32 = 64;
    while (rows as usize * cols as usize * 2) * 8 <= target_bytes {
        cols *= 2;
    }
    CountSketchConfig {
        rows,
        cols,
        k,
        seed: 0xC5C5_0001,
    }
}

/// A ring-round worker gradient for the merge-cost panel (same shape as the
/// fig_allreduce bench: 70% shared hot keys, private tails).
fn merge_gradient(dim: u64, nnz: usize, w: u64) -> SparseGradient {
    let mut hot_rng = StdRng::seed_from_u64(0xA11DCE);
    let mut rng = StdRng::seed_from_u64(0xC01D_F00D ^ (w + 1).wrapping_mul(0x9E37_79B9));
    let shared = (nnz * 7) / 10;
    let mut keys: Vec<u64> = (0..shared)
        .map(|_| hot_rng.gen_range(0..dim))
        .chain((0..nnz - shared).map(|_| rng.gen_range(0..dim)))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let values: Vec<f64> = keys
        .iter()
        .map(|_| {
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            sign * rng.gen::<f64>().powi(6) * 0.35 + 1e-12
        })
        .collect();
    SparseGradient::new(dim, keys, values).expect("merge gradient")
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let workers = 8usize;
    let (spec, dim) = workload(quick);
    let (train, test) = spec.generate_split();
    let epochs = if quick { 3 } else { 6 };
    let tspec = TrainSpec::paper(GlmLoss::Logistic, 0.03, epochs);
    let cluster = ClusterConfig::cluster1(workers).with_topology(Topology::Ring);

    // --- size the Count-Sketch table to match SketchML's payload ---
    let probe = probe_gradient(dim as u64);
    let sketchml = SketchMlCompressor::default();
    let sk_bytes = sketchml.compress(&probe).expect("probe").payload.len();
    let cs_config = matched_config(sk_bytes, 5, 512);
    let countsketch = CountSketchCompressor::new(cs_config).expect("matched config");
    let cs_bytes = countsketch.compress(&probe).expect("probe").payload.len();

    // --- panel 1: convergence per byte at matched payload sizes ---
    let default_cs = CountSketchCompressor::new(CountSketchConfig::default())
        .expect("default countsketch config");
    let zero_loss = (2f64).ln();
    let mut convergence = Vec::new();
    let runs: [(&str, &dyn MergeableCompressor, MergePolicy); 4] = [
        ("sgd-dense", &RawCompressor::default(), MergePolicy::Exact),
        ("sketchml-minmax", &sketchml, MergePolicy::Resketch),
        ("countsketch-linear", &default_cs, MergePolicy::Linear),
        ("countsketch-matched", &countsketch, MergePolicy::Linear),
    ];
    for (method, compressor, policy) in runs {
        let report =
            train_allreduce_with_policy(&train, &test, dim, &tspec, &cluster, compressor, policy)
                .expect("training run");
        let mut cum = 0u64;
        let mut curve = Vec::new();
        for e in &report.epochs {
            cum += e.uplink_bytes + e.downlink_bytes;
            curve.push((cum, e.test_loss));
        }
        let final_loss = report.epochs.last().expect("epochs").test_loss;
        convergence.push(ConvergenceRow {
            method: method.to_string(),
            policy: policy.name(),
            final_loss,
            total_bytes: cum,
            loss_gain_per_mib: (zero_loss - final_loss) / (cum as f64 / (1024.0 * 1024.0)),
            curve,
        });
    }

    let loss_of = |m: &str| {
        convergence
            .iter()
            .find(|r| r.method == m)
            .map(|r| r.final_loss)
            .expect("swept method")
    };
    let dense = loss_of("sgd-dense");
    let cs_loss = loss_of("countsketch-linear");
    // 5% at full depth; quick mode trains 3 epochs on half the data, so the
    // curves have not flattened yet — allow 10% there.
    let tol = if quick { 0.10 } else { 0.05 };
    assert!(
        (cs_loss - dense).abs() <= tol * dense,
        "countsketch loss {cs_loss} strayed more than {:.0}% from dense loss {dense}",
        tol * 100.0
    );

    // --- panel 2: per-hop merge cost, Linear vs Exact vs Resketch ---
    let merge_ns: Vec<usize> = if quick { vec![4, 8] } else { vec![4, 8, 16] };
    let (mdim, mnnz) = if quick {
        (200_000u64, 8_000usize)
    } else {
        (1_000_000u64, 50_000usize)
    };
    let merge_config = CountSketchConfig {
        rows: 5,
        cols: 8_192,
        k: 4_096,
        seed: 0xC5C5_0001,
    };
    let merge_comp = CountSketchCompressor::new(merge_config).expect("merge config");
    let max_n = *merge_ns.iter().max().expect("non-empty");
    let payloads: Vec<Vec<u8>> = (0..max_n)
        .map(|w| {
            merge_comp
                .compress(&merge_gradient(mdim, mnnz, w as u64))
                .expect("worker payload")
                .payload
                .to_vec()
        })
        .collect();
    let mut merge_rows = Vec::new();
    for &n in &merge_ns {
        let contribs: Vec<Contribution> = payloads[..n]
            .iter()
            .map(|p| Contribution {
                payload: p,
                weight: 1.0 / n as f64,
            })
            .collect();
        for policy in [
            MergePolicy::Linear,
            MergePolicy::Exact,
            MergePolicy::Resketch,
        ] {
            let t = Instant::now();
            let round = allreduce(
                Topology::Ring,
                policy,
                &merge_comp,
                mdim,
                &contribs,
                &mut PerfectTransport,
            )
            .expect("ring round");
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            merge_rows.push(MergeRow {
                policy: policy.name(),
                n,
                hops: round.hops,
                merges: round.merges,
                total_bytes: round.total_bytes(),
                round_wall_ms: wall_ms,
                per_merge_us: wall_ms * 1e3 / round.merges.max(1) as f64,
            });
        }
    }
    let per_merge = |policy: &str, n: usize| {
        merge_rows
            .iter()
            .find(|r| r.policy == policy && r.n == n)
            .map(|r| r.per_merge_us)
            .expect("swept cell")
    };
    let linear_vs_resketch_per_merge_at_8 = per_merge("resketch", 8) / per_merge("linear", 8);

    // --- report ---
    let conv_table: Vec<Vec<String>> = convergence
        .iter()
        .map(|r| {
            vec![
                r.method.clone(),
                r.policy.to_string(),
                format!("{:.6}", r.final_loss),
                r.total_bytes.to_string(),
                format!("{:.4}", r.loss_gain_per_mib),
            ]
        })
        .collect();
    print_table(
        "Convergence per byte (ring n=8, matched payloads)",
        &["method", "policy", "final loss", "total B", "gain/MiB"],
        &conv_table,
    );
    let merge_table: Vec<Vec<String>> = merge_rows
        .iter()
        .map(|r| {
            vec![
                r.policy.to_string(),
                r.n.to_string(),
                r.merges.to_string(),
                r.total_bytes.to_string(),
                format!("{:.2}", r.round_wall_ms),
                format!("{:.1}", r.per_merge_us),
            ]
        })
        .collect();
    print_table(
        "Per-hop merge cost (Count-Sketch payloads, ring)",
        &[
            "policy",
            "n",
            "merges",
            "total B",
            "wall ms",
            "per-merge µs",
        ],
        &merge_table,
    );
    println!(
        "\nsketchml payload {sk_bytes} B vs countsketch {cs_bytes} B (cols = {}); \
         resketch/linear per-merge @ n=8: {linear_vs_resketch_per_merge_at_8:.2}x",
        cs_config.cols
    );

    write_json(&ExperimentOutput {
        id: "fig_countsketch".into(),
        paper_ref: "extension (Count-Sketch compressor with linear merge, arXiv:1903.04488)".into(),
        results: Report {
            quick,
            workers,
            sketchml_payload_bytes: sk_bytes,
            countsketch_payload_bytes: cs_bytes,
            countsketch_cols: cs_config.cols,
            convergence,
            merge_ns,
            merge: merge_rows,
            linear_vs_resketch_per_merge_at_8,
        },
    });
}
