//! The round engine against the five loops it replaced.
//!
//! `tests/fixtures/round_engine_traces.json` was written at the last commit
//! that had `run_train`, `run_ps`, `run_ssp`, `run_allreduce` and `run_mlp`
//! (0e12596), by driving one small seeded task through all 13 `train_*`
//! entry points of that commit: per-epoch losses, simulated seconds, byte
//! and pair counts, and the full fault trace of every scenario. The replay
//! below drives the same scenarios through the engine — the fault-free
//! names through their wrappers, the deleted `_chaos`/`_resumable` twins
//! through the plan-taking entries — and must land on the same numbers.
//! Scenarios whose code was deleted later left the fixture as whole
//! entries, every other entry byte for byte: the adaptive-SSP runs, the
//! five `ps/*` runs with the simulated sharded parameter server, then the
//! five `ssp/*` runs with the stale-synchronous scheduler. 34 remain. The
//! other tests let the fault-free fork go: a run under
//! [`FaultPlan::none`] *is* the fault-free run, bit for bit.
//!
//! The five `mlp/*` entries were re-recorded when the MLP's own loop was
//! deleted and the MLP began training through the engine's `run` over the
//! driver star. It now batches with the engine's `Batcher` instead of its
//! own LCG shuffle, is priced by the star's rule of the time (worker and
//! driver codec time, a re-encoded aggregate broadcast), and reports a
//! `TrainReport`. So its losses,
//! accuracy, simulated seconds, uplink bytes and `retry_seconds` moved, and
//! its report gained `TrainReport`'s keys. Every fault event and integer
//! trace counter stayed as it was, and the other 29 entries are untouched.
//! After these runs' two epochs the MLP is barely trained (test loss ≈ 1.2
//! against 1.39 = ln 4 for a uniform guess), so its argmax accuracy on the
//! 58 test rows swings with the batch order: `mlp/clean` went from 54 to 45
//! rows right (0.931 → 0.776), `mlp/heavy_loss` from 37 to 38 and the three
//! `mlp/stormy*` from 27 to 34, while the final test loss fell in all five
//! (clean 1.2009 → 1.1958, heavy loss 1.2694 → 1.2689, stormy 1.2343 →
//! 1.2300). Neither is a quality change.
//! [`the_mlp_round_is_the_global_batch_mean`] stands in for the
//! cross-check against the old loop that the re-recorded entries gave up.
//!
//! Twelve collective entries were re-recorded when the simulated heartbeat
//! membership layer was deleted and the collective began to follow the
//! engine's one crash rule (a crashed worker sits the round out, the
//! topology runs over the workers that are up, a rejoiner restores from the
//! epoch-end restore point): `allreduce/{star,ring,tree}/stormy{1,2,3}` and
//! `allreduce/ring/{permanent_crash,outage_rejoin,heavy_loss}`. Their traces
//! had recorded suspicions, evictions, joins and degraded rounds, and
//! `heavy_loss` had evicted healthy workers on lost heartbeats alone. Every
//! trace lost its seven membership counters. In `driver/heavy_loss` and
//! `mlp/heavy_loss` only per-epoch `train_loss` moved, upward: a round in
//! which nothing arrived is no longer averaged in as a loss of 0.
//!
//! Every entry that ships `sketchml` was re-recorded when its frame became
//! version 2, which adds the exact section: a count of exact pairs (one
//! byte at these sizes) and the ⌊n/512⌋ largest-|v| pairs, sent exact.
//! The GLM gradients here hold fewer than 512 pairs, so the GLM entries
//! ship no exact pair: only their byte counts and the seconds priced from
//! them moved, one byte per frame, and their losses did not. The MLP's
//! gradients are dense enough to ship exact pairs, so the five `mlp/*`
//! entries also moved their losses (final test loss: `clean` 1.1958 →
//! 1.1969, `stormy*` 1.2300 → 1.2273, `heavy_loss` 1.2689 → 1.2682) and
//! four of them their accuracy (one more test row right). The ring and
//! tree entries under `MergePolicy::Exact` ship aggregation frames, not
//! `sketchml`'s, and did not move; nor did `driver/clean_raw`, which
//! the re-record holds to its bits.
//!
//! The 16 star entries (`driver/*`, `mlp/*`) were re-priced
//! (`REGEN_FIXTURES=star_prices`, [`regen_star_prices`]) when the driver
//! star began to price the downlink the socket server sends: each up
//! worker's reply carries the frames that arrived, its own left out, sent
//! one after another from the driver's NIC, where the star had priced a
//! torrent broadcast of a re-encoded aggregate to every configured worker.
//! 164 leaves moved, and only these kinds: per-epoch `downlink_bytes` (a
//! full round's is now (W − 1) × its uplink frames, `driver/clean` epoch 1
//! 23,008 → 38,430 B), `comm_seconds`, `codec_seconds` (the driver decodes
//! and no longer re-encodes) and `sim_seconds`, 31 of each;
//! `curve[].seconds`, 31; and `trace.retry_seconds` in the nine entries
//! whose plan re-sends a reply, which is now priced at that reply's bytes.
//! The downlink's fault draws are the same sequence, one per configured
//! slot, so every loss, accuracy, fault event and integer trace counter
//! held its bits, and the 18 collective entries did not move at all.
//!
//! A run ships exactly the compressor it is given. The fixture's runs under
//! a fault plan shipped `sketchml` in the one-shard checksummed v2 frame
//! (the wrap the engine then put on every plan but `FaultPlan::none()`), so
//! their replays pass that frame explicitly: [`common::checksummed`].

mod common;

use bytes::BytesMut;
use common::checksummed;
use serde::{Serialize, Value};
use sketchml::cluster::MlpTrainSpec;
use sketchml::core::CompressScratch;
use sketchml::data::Task;
use sketchml::encoding::stats::SizeReport;
use sketchml::ml::MlpConfig;
use sketchml::{
    train_allreduce, train_allreduce_with_policy, train_distributed, train_glm,
    train_mlp_distributed, train_mlp_with_plan, Aggregation, ClusterConfig, CompressError,
    FaultPlan, FaultTrace, GlmLoss, GlmTask, GradientCompressor, Instance, MergePolicy,
    MergeableCompressor, MnistLikeSpec, RawCompressor, SketchMlCompressor, SparseDatasetSpec,
    SparseGradient, Topology, TrainOutcome, TrainReport, TrainSpec,
};

fn dataset() -> (Vec<Instance>, Vec<Instance>, usize) {
    let spec = SparseDatasetSpec {
        name: "round-engine".into(),
        instances: 640,
        features: 8_000,
        avg_nnz: 12,
        skew: 1.1,
        label_noise: 0.02,
        task: Task::Classification,
        seed: 1507,
    };
    let (tr, te) = spec.generate_split();
    (tr, te, 8_000)
}

fn stormy_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_drops(0.10)
        .with_corruption(0.05, 3)
        .with_duplicates(0.05)
        .with_stragglers(vec![1.0, 1.5])
        .with_crash(1, 4, 3)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn report<R: Serialize>(r: &R) -> Value {
    obj(vec![("report", r.to_value())])
}

fn outcome(o: &TrainOutcome) -> Value {
    obj(vec![
        ("report", o.report.to_value()),
        ("trace", o.trace.to_value()),
        (
            "checkpoint_epochs_done",
            o.checkpoint.as_ref().map(|c| c.epochs_done).to_value(),
        ),
    ])
}

fn pair<R: Serialize>(r: &R, t: &FaultTrace) -> Value {
    obj(vec![("report", r.to_value()), ("trace", t.to_value())])
}

/// The MLP task of the fixture.
struct MlpCase {
    train: Vec<sketchml::ml::mlp::MlpInstance>,
    test: Vec<sketchml::ml::mlp::MlpInstance>,
    net: MlpConfig,
    spec: MlpTrainSpec,
}

impl MlpCase {
    fn new() -> Self {
        let data = MnistLikeSpec::small();
        let (train, test) = data.generate_split();
        MlpCase {
            train,
            test,
            net: MlpConfig::small(data.pixels(), 8, data.classes),
            spec: MlpTrainSpec::paper(2),
        }
    }

    /// The fixture's cluster: `workers` on Cluster-1, 20% batches.
    fn cluster(workers: usize) -> ClusterConfig {
        ClusterConfig::cluster1(workers).with_batch_ratio(0.2)
    }

    fn run(
        &self,
        cluster: &ClusterConfig,
        compressor: &dyn GradientCompressor,
        plan: &FaultPlan,
    ) -> (TrainReport, FaultTrace) {
        train_mlp_with_plan(
            &self.train,
            &self.test,
            &self.net,
            &self.spec,
            cluster,
            compressor,
            plan,
        )
        .unwrap()
    }
}

/// Every scenario of the fixture, by name, through the engine. The shape of
/// each value (`report` alone, `report` + `trace`, or a full outcome) is the
/// shape the parent's entry point returned.
fn replay() -> Vec<(String, Value)> {
    let (train, test, dim) = dataset();
    let task = GlmTask {
        train: &train,
        test: &test,
        dim,
    };
    let sk = SketchMlCompressor::default();
    let wire = checksummed(&sk, 1);
    let wire2 = checksummed(&sk, 2);
    let raw = RawCompressor::default();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
    let spec3 = TrainSpec::paper(GlmLoss::Logistic, 0.05, 3);
    let cluster = ClusterConfig::cluster1(4);
    let none = FaultPlan::none();
    let driver = Aggregation::Driver(&sk);
    let driver_wire = Aggregation::Driver(&wire);
    let exact_wire = Aggregation::Collective {
        policy: MergePolicy::Exact,
        compressor: &wire,
    };
    let glm = |spec: &TrainSpec, cluster: &ClusterConfig, agg, plan: &FaultPlan, resume| {
        train_glm(&task, spec, cluster, agg, plan, resume).unwrap()
    };
    let mut out: Vec<(String, Value)> = Vec::new();
    let mut put = |name: &str, v: Value| out.push((name.to_string(), v));

    // --- driver star ---
    put(
        "driver/clean",
        report(&train_distributed(&train, &test, dim, &spec, &cluster, &sk).unwrap()),
    );
    put(
        "driver/clean_raw",
        report(&train_distributed(&train, &test, dim, &spec, &cluster, &raw).unwrap()),
    );
    for seed in 1..=3u64 {
        put(
            &format!("driver/stormy{seed}"),
            outcome(&glm(&spec, &cluster, driver_wire, &stormy_plan(seed), None)),
        );
    }
    put(
        "driver/stormy1_threads2",
        outcome(&glm(
            &spec,
            &cluster,
            Aggregation::Driver(&wire2),
            &stormy_plan(1),
            None,
        )),
    );
    put(
        "driver/drops_only",
        outcome(&glm(
            &spec,
            &cluster,
            driver_wire,
            &FaultPlan::seeded(9).with_drops(0.2).with_retries(2, 0.01),
            None,
        )),
    );
    let epoch1 = TrainSpec {
        max_epochs: 1,
        ..spec3
    };
    let first = glm(&epoch1, &cluster, driver, &none, None);
    put("driver/resumable_epoch1", outcome(&first));
    put(
        "driver/resume_at_1",
        outcome(&glm(
            &spec3,
            &cluster,
            driver,
            &none,
            first.checkpoint.clone(),
        )),
    );
    put(
        "driver/resume_at_1_stormy2",
        outcome(&glm(
            &spec3,
            &cluster,
            driver_wire,
            &stormy_plan(2),
            first.checkpoint.clone(),
        )),
    );

    // --- collectives ---
    for topology in [Topology::Star, Topology::Ring, Topology::Tree] {
        let c = cluster.with_topology(topology);
        let t = topology.name();
        put(
            &format!("allreduce/{t}/clean"),
            report(&train_allreduce(&train, &test, dim, &spec, &c, &sk).unwrap()),
        );
        put(
            &format!("allreduce/{t}/resketch"),
            report(
                &train_allreduce_with_policy(
                    &train,
                    &test,
                    dim,
                    &spec,
                    &c,
                    &sk,
                    MergePolicy::Resketch,
                )
                .unwrap(),
            ),
        );
        for seed in 1..=3u64 {
            put(
                &format!("allreduce/{t}/stormy{seed}"),
                outcome(&glm(&spec, &c, exact_wire, &stormy_plan(seed), None)),
            );
        }
    }
    let ring6 = ClusterConfig::cluster1(6).with_topology(Topology::Ring);
    put(
        "allreduce/ring/permanent_crash",
        outcome(&glm(
            &spec,
            &ring6,
            exact_wire,
            &FaultPlan::seeded(77).with_permanent_crash(2, 5),
            None,
        )),
    );
    put(
        "allreduce/ring/outage_rejoin",
        outcome(&glm(
            &spec,
            &ring6,
            exact_wire,
            &FaultPlan::seeded(13).with_drops(0.05).with_crash(1, 3, 6),
            None,
        )),
    );

    // --- MLP ---
    let mlp = MlpCase::new();
    let mcluster = MlpCase::cluster(3);
    put(
        "mlp/clean",
        report(
            &train_mlp_distributed(&mlp.train, &mlp.test, &mlp.net, &mlp.spec, &mcluster, &sk)
                .unwrap(),
        ),
    );
    for seed in 1..=3u64 {
        let (r, t) = mlp.run(&mcluster, &wire, &stormy_plan(seed));
        put(&format!("mlp/stormy{seed}"), pair(&r, &t));
    }

    // --- every contribution of a round lost: the corner where the old
    // loops disagreed on what an empty round does ---
    let lossy = FaultPlan::seeded(5).with_drops(0.6).with_retries(1, 0.01);
    let two = ClusterConfig::cluster1(2);
    put(
        "driver/heavy_loss",
        outcome(&glm(&spec, &two, driver_wire, &lossy, None)),
    );
    put(
        "allreduce/ring/heavy_loss",
        outcome(&glm(
            &spec,
            &two.with_topology(Topology::Ring),
            exact_wire,
            &lossy,
            None,
        )),
    );
    let (r, t) = mlp.run(&MlpCase::cluster(2), &wire, &lossy);
    put("mlp/heavy_loss", pair(&r, &t));

    out
}

/// Walks two documents in step: integers, strings, key sets and array
/// lengths must agree exactly, floats by `float_ok`. `measured_*` fields are
/// wall-clock and skipped.
fn diff(
    path: &str,
    want: &Value,
    got: &Value,
    float_ok: &dyn Fn(f64, f64) -> bool,
    out: &mut Vec<String>,
) {
    match (want, got) {
        (Value::F64(w), Value::F64(g)) => {
            if !float_ok(*w, *g) {
                out.push(format!(
                    "{path}: want {w:e} ({:#x}), got {g:e}",
                    w.to_bits()
                ));
            }
        }
        (Value::Arr(w), Value::Arr(g)) => {
            if w.len() != g.len() {
                out.push(format!("{path}: want {} items, got {}", w.len(), g.len()));
            }
            for (i, (w, g)) in w.iter().zip(g).enumerate() {
                diff(&format!("{path}[{i}]"), w, g, float_ok, out);
            }
        }
        (Value::Obj(w), Value::Obj(g)) => {
            let keys = |o: &[(String, Value)]| o.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            if keys(w) != keys(g) {
                out.push(format!(
                    "{path}: want keys {:?}, got {:?}",
                    keys(w),
                    keys(g)
                ));
                return;
            }
            for ((k, w), (_, g)) in w.iter().zip(g) {
                if !k.starts_with("measured_") {
                    diff(&format!("{path}.{k}"), w, g, float_ok, out);
                }
            }
        }
        (w, g) => {
            if w != g {
                out.push(format!("{path}: want {w:?}, got {g:?}"));
            }
        }
    }
}

fn replay_against_fixture(float_ok: &dyn Fn(f64, f64) -> bool) {
    let fixture: Value =
        serde_json::from_str(include_str!("fixtures/round_engine_traces.json")).unwrap();
    let want = fixture.as_obj().expect("fixture is an object");
    let got = Value::Obj(replay());
    let mut mismatches = Vec::new();
    diff(
        "",
        &Value::Obj(want.to_vec()),
        &got,
        float_ok,
        &mut mismatches,
    );
    assert!(
        mismatches.is_empty(),
        "{} mismatches against the parent commit's traces, first ones:\n{}",
        mismatches.len(),
        mismatches
            .iter()
            .take(20)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Integers, trace events and counters exact; floats to 1e-9 relative
/// (libm's `exp`/`ln` may differ in the last bit across machines).
#[test]
fn the_engine_replays_the_five_loops_it_replaced() {
    replay_against_fixture(&|w, g| (w - g).abs() <= 1e-9 * w.abs().max(g.abs()));
}

/// The same replay with every float held to its exact bit pattern. True on
/// the machine that wrote the fixture; kept out of the default run because
/// another libm may round a transcendental differently.
///
/// A commit that moves float bits on purpose (a summation order, say) blesses
/// them with `REGEN_FIXTURES=1 cargo test --test round_engine -- --ignored`:
/// see [`regen_float_leaves`]. A commit that changes the `sketchml` frame
/// re-records the entries that ship it with `REGEN_FIXTURES=sketchml`: see
/// [`regen_sketchml_entries`]. A commit that changes only how the driver
/// star prices its rounds re-records those prices with
/// `REGEN_FIXTURES=star_prices`: see [`regen_star_prices`].
#[test]
#[ignore = "bit-exact floats are a same-machine property; run with --ignored"]
fn the_replay_is_bit_exact_on_the_machine_that_wrote_the_fixture() {
    match std::env::var("REGEN_FIXTURES") {
        Ok(mode) if mode == "sketchml" => regen_sketchml_entries(),
        Ok(mode) if mode == "star_prices" => regen_star_prices(),
        Ok(_) => regen_float_leaves(),
        Err(_) => replay_against_fixture(&|w, g| w.to_bits() == g.to_bits()),
    }
}

/// The fixture's entries whose runs ship no `sketchml` frame.
const RAW_ENTRIES: [&str; 1] = ["driver/clean_raw"];

/// Overwrites `want` with `got` everywhere but its `measured_*` fields,
/// which are wall-clock and stay as they are.
fn take_all(want: &mut Value, got: &Value) {
    match (want, got) {
        (Value::Arr(w), Value::Arr(g)) if w.len() == g.len() => {
            for (w, g) in w.iter_mut().zip(g) {
                take_all(w, g);
            }
        }
        (Value::Obj(w), Value::Obj(g)) if w.iter().map(|(k, _)| k).eq(g.iter().map(|(k, _)| k)) => {
            for ((k, w), (_, g)) in w.iter_mut().zip(g) {
                if !k.starts_with("measured_") {
                    take_all(w, g);
                }
            }
        }
        (w, g) => *w = g.clone(),
    }
}

/// Re-records whole every entry whose runs ship `sketchml` — for a change
/// to that codec's frame, which moves byte counts and the seconds priced
/// from them, and losses wherever decoded values move — after holding
/// every [`RAW_ENTRIES`] entry to its committed bits. The file must be one
/// this printer reproduces byte for byte, so the diff shows the re-recorded
/// leaves and nothing else.
fn regen_sketchml_entries() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/round_engine_traces.json"
    );
    let text = std::fs::read_to_string(path).expect("read the fixture");
    let mut fixture: Value = serde_json::from_str(&text).unwrap();
    assert!(
        serde_json::to_string_pretty(&fixture).unwrap() + "\n" == text,
        "the printer does not reproduce {path}: a regen would rewrite every line"
    );
    let Value::Obj(entries) = &mut fixture else {
        panic!("fixture is an object")
    };
    let got = replay();
    assert!(
        entries
            .iter()
            .map(|(k, _)| k)
            .eq(got.iter().map(|(k, _)| k)),
        "the replay's scenarios are not the fixture's"
    );
    let mut rerecorded = 0;
    for ((name, want), (_, got)) in entries.iter_mut().zip(&got) {
        if RAW_ENTRIES.contains(&name.as_str()) {
            bits_equal(name, want, got);
        } else {
            take_all(want, got);
            rerecorded += 1;
        }
    }
    std::fs::write(path, serde_json::to_string_pretty(&fixture).unwrap() + "\n")
        .expect("write the fixture");
    eprintln!("{path}: {rerecorded} sketchml entries re-recorded");
}

/// Overwrites `want`'s float leaves with `got`'s where their bits differ,
/// counting them and tracking the largest relative change. The documents
/// have the same shape (the tolerant diff ran first); `measured_*` fields
/// are wall-clock and stay as they are.
fn take_float_bits(want: &mut Value, got: &Value, changed: &mut usize, largest: &mut f64) {
    match (want, got) {
        (Value::F64(w), Value::F64(g)) if w.to_bits() != g.to_bits() => {
            *changed += 1;
            *largest = largest.max((*w - g).abs() / w.abs().max(g.abs()));
            *w = *g;
        }
        (Value::Arr(w), Value::Arr(g)) => {
            for (w, g) in w.iter_mut().zip(g) {
                take_float_bits(w, g, changed, largest);
            }
        }
        (Value::Obj(w), Value::Obj(g)) => {
            for ((k, w), (_, g)) in w.iter_mut().zip(g) {
                if !k.starts_with("measured_") {
                    take_float_bits(w, g, changed, largest);
                }
            }
        }
        _ => {}
    }
}

/// Rewrites the fixture's float leaves from this commit's replay — only
/// them: the replay must first pass the tier-1 comparison against the
/// fixture as committed (integers, trace events, counters and shapes exact,
/// floats within 1e-9), and the file must be one this printer reproduces
/// byte for byte, so the diff shows the moved leaves and nothing else.
fn regen_float_leaves() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/round_engine_traces.json"
    );
    let text = std::fs::read_to_string(path).expect("read the fixture");
    let mut fixture: Value = serde_json::from_str(&text).unwrap();
    assert!(
        serde_json::to_string_pretty(&fixture).unwrap() + "\n" == text,
        "the printer does not reproduce {path}: a regen would rewrite every line"
    );
    let got = Value::Obj(replay());
    let mut mismatches = Vec::new();
    diff(
        "",
        &fixture,
        &got,
        &|w, g| (w - g).abs() <= 1e-9 * w.abs().max(g.abs()),
        &mut mismatches,
    );
    assert!(
        mismatches.is_empty(),
        "more than float bits moved; not blessing:\n{}",
        mismatches.join("\n")
    );
    let (mut changed, mut largest) = (0, 0.0);
    take_float_bits(&mut fixture, &got, &mut changed, &mut largest);
    std::fs::write(path, serde_json::to_string_pretty(&fixture).unwrap() + "\n")
        .expect("write the fixture");
    eprintln!("{path}: {changed} float leaves rewritten, largest relative change {largest:e}");
}

/// Whether the leaf at `path` (as [`diff`] spells it) is one of the prices
/// the driver star puts on a round: a star entry's (`driver/*`, `mlp/*`)
/// per-epoch `downlink_bytes`, `comm_seconds`, `codec_seconds` and
/// `sim_seconds`, its curve's `seconds`, and its trace's `retry_seconds`.
fn is_star_price(path: &str) -> bool {
    let star = path.starts_with(".driver/") || path.starts_with(".mlp/");
    let leaf = path.rsplit('.').next().unwrap_or_default();
    let epoch_price = matches!(
        leaf,
        "downlink_bytes" | "comm_seconds" | "codec_seconds" | "sim_seconds"
    );
    star && ((path.contains(".report.epochs[") && epoch_price)
        || (path.contains(".report.curve[") && leaf == "seconds")
        || path.ends_with(".trace.retry_seconds"))
}

/// Overwrites the leaves of `want` at which `pick` holds with `got`'s,
/// counting those that moved. The documents have the same shape;
/// `measured_*` fields are wall-clock and stay as they are.
fn take_leaves(
    path: &str,
    want: &mut Value,
    got: &Value,
    pick: &dyn Fn(&str) -> bool,
    changed: &mut usize,
) {
    match (want, got) {
        (Value::Arr(w), Value::Arr(g)) => {
            for (i, (w, g)) in w.iter_mut().zip(g).enumerate() {
                take_leaves(&format!("{path}[{i}]"), w, g, pick, changed);
            }
        }
        (Value::Obj(w), Value::Obj(g)) => {
            for ((k, w), (_, g)) in w.iter_mut().zip(g) {
                if !k.starts_with("measured_") {
                    take_leaves(&format!("{path}.{k}"), w, g, pick, changed);
                }
            }
        }
        (w, g) => {
            let moved = match (&*w, g) {
                (Value::F64(a), Value::F64(b)) => a.to_bits() != b.to_bits(),
                (a, b) => a != b,
            };
            if moved && pick(path) {
                *w = g.clone();
                *changed += 1;
            }
        }
    }
}

/// Re-records the driver star's prices ([`is_star_price`]) from this
/// commit's replay — for a change to how the star prices a round that
/// leaves its arithmetic alone. Every other leaf of every entry, the 18
/// collective entries whole, must hold its committed bits, or nothing is
/// written; and the file must be one this printer reproduces byte for
/// byte, so the diff shows the re-priced leaves and nothing else.
fn regen_star_prices() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/round_engine_traces.json"
    );
    let text = std::fs::read_to_string(path).expect("read the fixture");
    let mut fixture: Value = serde_json::from_str(&text).unwrap();
    assert!(
        serde_json::to_string_pretty(&fixture).unwrap() + "\n" == text,
        "the printer does not reproduce {path}: a regen would rewrite every line"
    );
    let got = Value::Obj(replay());
    let mut mismatches = Vec::new();
    diff(
        "",
        &fixture,
        &got,
        &|w, g| w.to_bits() == g.to_bits(),
        &mut mismatches,
    );
    let others: Vec<&String> = (mismatches.iter())
        .filter(|m| !m.split_once(": ").is_some_and(|(at, _)| is_star_price(at)))
        .collect();
    assert!(
        others.is_empty(),
        "more than the star's prices moved; not writing:\n{}",
        others
            .iter()
            .map(|m| m.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    );
    let mut changed = 0;
    take_leaves("", &mut fixture, &got, &is_star_price, &mut changed);
    std::fs::write(path, serde_json::to_string_pretty(&fixture).unwrap() + "\n")
        .expect("write the fixture");
    eprintln!("{path}: {changed} star price leaves re-recorded");
}

fn bits_equal(path: &str, want: &Value, got: &Value) {
    let mut mismatches = Vec::new();
    diff(
        path,
        want,
        got,
        &|w, g| w.to_bits() == g.to_bits(),
        &mut mismatches,
    );
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The test that lets the fork go: for every aggregation on every topology,
/// plus the MLP, the plan-taking entry under `FaultPlan::none()` equals
/// the fault-free wrapper bit for bit on every deterministic field and
/// records nothing in its trace.
#[test]
fn the_benign_plan_is_the_fault_free_path() {
    let (train, test, dim) = dataset();
    let task = GlmTask {
        train: &train,
        test: &test,
        dim,
    };
    let sk = SketchMlCompressor::default();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 2);
    let none = FaultPlan::none();
    let empty = FaultTrace::default();

    for topology in [Topology::Star, Topology::Ring, Topology::Tree] {
        let cluster = ClusterConfig::cluster1(4).with_topology(topology);
        let t = topology.name();
        let cases: [(&str, Aggregation, TrainReport); 2] = [
            (
                "driver",
                Aggregation::Driver(&sk),
                train_distributed(&train, &test, dim, &spec, &cluster, &sk).unwrap(),
            ),
            (
                "collective",
                Aggregation::Collective {
                    policy: MergePolicy::Exact,
                    compressor: &sk,
                },
                train_allreduce(&train, &test, dim, &spec, &cluster, &sk).unwrap(),
            ),
        ];
        for (name, aggregation, wrapper) in cases {
            let planned = train_glm(&task, &spec, &cluster, aggregation, &none, None).unwrap();
            bits_equal(
                &format!("{name}/{t}"),
                &wrapper.to_value(),
                &planned.report.to_value(),
            );
            assert_eq!(planned.trace, empty, "{name}/{t}");
        }
    }

    let mlp = MlpCase::new();
    let mcluster = MlpCase::cluster(3);
    let wrapper =
        train_mlp_distributed(&mlp.train, &mlp.test, &mlp.net, &mlp.spec, &mcluster, &sk).unwrap();
    let (planned, trace) = mlp.run(&mcluster, &sk, &none);
    bits_equal("mlp", &wrapper.to_value(), &planned.to_value());
    assert_eq!(trace, empty, "mlp");
}

/// The docs' "identical math" claim, pinned: under the lossless `raw` codec
/// the driver star and the collective star aggregate the same gradients in
/// different orders, so per-epoch losses agree to floating-point
/// reassociation (1 ulp apart when measured — hence a tolerance, not
/// `to_bits`).
#[test]
fn the_two_aggregations_compute_the_same_math_under_raw() {
    let (train, test, dim) = dataset();
    let raw = RawCompressor::default();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 3);
    let cluster = ClusterConfig::cluster1(4);
    let driver = train_distributed(&train, &test, dim, &spec, &cluster, &raw).unwrap();
    let star = train_allreduce(&train, &test, dim, &spec, &cluster, &raw).unwrap();
    assert_eq!(driver.epochs.len(), star.epochs.len());
    for (d, o) in driver.epochs.iter().zip(&star.epochs) {
        for (what, a, b) in [
            ("test_loss", d.test_loss, o.test_loss),
            ("train_loss", d.train_loss, o.train_loss),
        ] {
            assert!(
                (a - b).abs() <= 1e-12 * a.abs(),
                "epoch {} {what}: driver {a} vs collective star {b}",
                d.epoch
            );
        }
    }
}

/// One crash rule for both exchanges: under the lossless `raw` codec and a
/// crash-only plan — one worker down for three rounds, then all four down
/// together for two — the driver star and the collective star sit the same
/// workers out, restore them from the same restore point and skip the same
/// empty rounds, so per-epoch losses agree to floating-point reassociation
/// and the crash counters are equal.
#[test]
fn both_exchanges_agree_through_crashes() {
    let (train, test, dim) = dataset();
    let task = GlmTask::new(&train, &test, dim);
    let raw = RawCompressor::default();
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 3);
    let cluster = ClusterConfig::cluster1(4);
    let mut plan = FaultPlan::seeded(21).with_crash(2, 3, 3);
    for w in 0..4 {
        plan = plan.with_crash(w, 12, 2);
    }
    let run = |aggregation| train_glm(&task, &spec, &cluster, aggregation, &plan, None).unwrap();
    let driver = run(Aggregation::Driver(&raw));
    let star = run(Aggregation::Collective {
        policy: MergePolicy::Exact,
        compressor: &raw,
    });
    for (what, a, b) in [
        ("crashes", driver.trace.crashes, star.trace.crashes),
        ("recoveries", driver.trace.recoveries, star.trace.recoveries),
    ] {
        assert_eq!(a, b, "{what}: driver {a} vs collective star {b}");
    }
    assert_eq!(driver.trace.crashes, 5);
    assert_eq!(driver.trace.recoveries, 5);
    assert_eq!(driver.report.epochs.len(), star.report.epochs.len());
    for (d, o) in driver.report.epochs.iter().zip(&star.report.epochs) {
        for (what, a, b) in [
            ("test_loss", d.test_loss, o.test_loss),
            ("train_loss", d.train_loss, o.train_loss),
        ] {
            assert!(
                (a - b).abs() <= 1e-12 * a.abs(),
                "epoch {} {what}: driver {a} vs collective star {b}",
                d.epoch
            );
        }
    }
}

/// The MLP's round is the global-batch mean: under the lossless `raw` codec
/// three workers, each averaging its slice, and the driver's
/// instance-weighted combine land on the one-worker gradient of the same
/// `Batcher` batches, up to floating-point reassociation.
#[test]
fn the_mlp_round_is_the_global_batch_mean() {
    let mlp = MlpCase::new();
    let raw = RawCompressor::default();
    let spec = MlpTrainSpec {
        epochs: 3,
        ..mlp.spec
    };
    let run = |workers| {
        train_mlp_distributed(
            &mlp.train,
            &mlp.test,
            &mlp.net,
            &spec,
            &MlpCase::cluster(workers),
            &raw,
        )
        .unwrap()
    };
    let (one, three) = (run(1), run(3));
    assert_eq!(one.epochs.len(), 3);
    assert_eq!(one.epochs.len(), three.epochs.len());
    for (o, t) in one.epochs.iter().zip(&three.epochs) {
        for (what, a, b) in [
            ("test_loss", o.test_loss, t.test_loss),
            ("train_loss", o.train_loss, t.train_loss),
        ] {
            assert!(
                (a - b).abs() <= 1e-12 * a.abs(),
                "epoch {} {what}: one worker {a} vs three {b}",
                o.epoch
            );
        }
    }
}

/// A user compressor that blows up on the worker thread.
struct Panicky;

impl GradientCompressor for Panicky {
    fn name(&self) -> &'static str {
        "Panicky"
    }

    fn compress_into(
        &self,
        _grad: &SparseGradient,
        _scratch: &mut CompressScratch,
        _out: &mut BytesMut,
    ) -> Result<SizeReport, CompressError> {
        panic!("user compressor bug")
    }

    fn decompress_into(
        &self,
        _payload: &[u8],
        _scratch: &mut CompressScratch,
        _out: &mut SparseGradient,
    ) -> Result<(), CompressError> {
        panic!("user compressor bug")
    }
}

impl MergeableCompressor for Panicky {}

/// Bugfix: a panicking worker closure used to abort the caller through
/// `expect("worker thread panicked")` on the star, the collectives and the
/// MLP loop. The single fan-out answers a typed error for every run.
#[test]
fn a_panicking_compressor_is_a_typed_error_on_every_aggregation() {
    let (train, test, dim) = dataset();
    let task = GlmTask {
        train: &train,
        test: &test,
        dim,
    };
    let spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, 1);
    let cluster = ClusterConfig::cluster1(3).with_topology(Topology::Ring);
    let aggregations = [
        ("driver", Aggregation::Driver(&Panicky)),
        (
            "collective",
            Aggregation::Collective {
                policy: MergePolicy::Exact,
                compressor: &Panicky,
            },
        ),
    ];
    for (name, aggregation) in aggregations {
        for plan in [FaultPlan::none(), stormy_plan(1)] {
            let err = train_glm(&task, &spec, &cluster, aggregation, &plan, None).unwrap_err();
            assert!(
                matches!(err, CompressError::InvalidConfig(_)),
                "{name}: {err:?}"
            );
        }
    }
}
