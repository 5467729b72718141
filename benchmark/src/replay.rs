//! The traced replay: one thread re-runs rounds of a workload's task by
//! calling the same public functions the server and the worker call, with a
//! span around each call, and then times the layers underneath in isolation.
//!
//! Spans are recorded from here, around the calls into each layer; spans
//! inside the program are a later change. Where a called function measures
//! its own parts and returns them (`process_glm_batch` does), those parts
//! become child spans.

use crate::inproc::{harvest_gradients, mergeable, HARVEST};
use crate::relay;
use crate::stats::{median, time_ms};
use crate::trace::Tracer;
use crate::workloads::{Task, BATCH_RATIO, LINK_100MBIT};
use crate::Metric;
use bytes::BytesMut;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sketchml_cluster::driver::{aggregate, DriverScratch};
use sketchml_cluster::network::CostModel;
use sketchml_cluster::worker::{partition, process_glm_batch, WorkerMessage, WorkerScratch};
use sketchml_collectives::{allreduce, Contribution, PerfectTransport, Topology};
use sketchml_core::quantify::BucketTable;
use sketchml_core::{
    compressor_by_name, CompressScratch, CountSketchCompressor, CountSketchConfig, ErrorFeedback,
    GradientCompressor, MergeAcc, MergePolicy, MergeableCompressor, SketchMlCompressor,
    SparseGradient,
};
use sketchml_data::{Batcher, SparseDatasetSpec};
use sketchml_encoding::stats::SizeReport;
use sketchml_ml::{Checkpoint, GlmModel, Instance, OptimizerState};
use sketchml_net::{Client, Listener, PredictInstance, Request, Response, ServeSetup, Server};
use sketchml_sketches::minmax::MinMaxSketch;
use sketchml_sketches::quantile::{MergingQuantileSketch, QuantileSketch};
use std::path::Path;
use std::time::Instant;

/// Rounds a full-size replay runs: two epochs, so two epoch ends.
pub const ROUNDS: usize = 40;

/// Spans whose durations become `<name>_ms` rows.
const TIMED_SPANS: [&str; 17] = [
    "data.generate",
    "data.batch",
    "ml.gradient",
    "ml.apply_gradient",
    "ml.eval",
    "ml.checkpoint_save",
    "ml.checkpoint_load",
    "core.encode",
    "core.decode",
    "core.aggregate",
    "cluster.process_batch",
    "cluster.aggregate",
    "net.wire_encode_model",
    "net.wire_decode_model",
    "net.wire_encode_push",
    "net.wire_decode_push",
    "net.snapshot_clone",
];

/// Replays `rounds` rounds of `task`, every other round with spans switched
/// off so the two halves give the tracing overhead. `observed_round_ms` is
/// the median round time of the real processes on the same task (0 for an
/// in-process workload), which the blocking path is set against. Returns the
/// per-layer rows, the tracer holding the spans, and the training split.
pub fn replay(
    task: &Task,
    rounds: usize,
    observed_round_ms: f64,
) -> Result<(Vec<Metric>, Tracer, Vec<Instance>), String> {
    let mut tr = Tracer::new();
    let spec = task.train_spec();
    let dim = task.features as usize;
    let workers = task.workers;

    let id = tr.begin("data.generate", 0);
    let (train, test) = task.dataset().generate_split();
    tr.end(id);

    let compressor = compressor_by_name(task.compressor).map_err(|e| e.to_string())?;
    let cost = CostModel::cluster1();
    let mut model = GlmModel::new(dim, spec.loss, spec.l2).map_err(|e| e.to_string())?;
    let mut worker_model = model.clone();
    let mut opt =
        OptimizerState::build(spec.optimizer, spec.opt_state, dim).map_err(|e| e.to_string())?;
    let mut batcher = Batcher::new(train.len(), BATCH_RATIO, spec.seed);
    let mut worker_scratch: Vec<WorkerScratch> =
        (0..workers).map(|_| WorkerScratch::new()).collect();
    let mut driver_scratch = DriverScratch::new();
    let mut probe_scratch = CompressScratch::new();
    let mut probe_parts: Vec<SparseGradient> =
        (0..workers).map(|_| SparseGradient::empty(0)).collect();

    // The frames of one round, kept in memory: what `write_to` produced is
    // what `read_from` parses, as on the socket.
    let mut model_frame: Vec<u8> = Vec::new();
    Response::Model {
        round: 0,
        epoch: 0,
        done: false,
        weights: model.weights.clone(),
    }
    .write_to(&mut model_frame)
    .map_err(|e| e.to_string())?;
    let mut push_frames: Vec<Vec<u8>> = vec![Vec::new(); workers];
    let mut pull_frame: Vec<u8> = Vec::new();
    Request::PullModel {
        worker: 0,
        round: 0,
        wait: true,
    }
    .write_to(&mut pull_frame)
    .map_err(|e| e.to_string())?;
    let mut ack_frame: Vec<u8> = Vec::new();
    Response::PushAck {
        status: sketchml_net::PushStatus::Accepted,
        round: 0,
    }
    .write_to(&mut ack_frame)
    .map_err(|e| e.to_string())?;

    let mut round = 0usize;
    let mut traced_round_ms = Vec::new();
    let mut untraced_round_ms = Vec::new();
    let mut blocking_ms = Vec::new();
    let mut payload_bytes = Vec::new();
    let mut bytes_up = Vec::new();
    let mut checkpoint_bytes = 0usize;

    'epochs: for epoch in 1.. {
        let id = tr.begin("data.batch", round as u32);
        let batches = batcher.epoch();
        tr.end(id);
        for batch in &batches {
            if round == rounds {
                break 'epochs;
            }
            tr.on = round & 1 == 0;
            let r = round as u32;
            let round_start = Instant::now();
            let round_span = tr.begin("round", r);

            let parts = partition(batch, workers);
            let mut worker_ms: f64 = 0.0;
            let mut up = 0usize;
            for (w, part) in parts.iter().enumerate() {
                let t_worker = Instant::now();
                let worker_span = tr.begin("worker", r);

                let id = tr.begin("net.wire_decode_model", r);
                let pulled =
                    Response::read_from(&mut model_frame.as_slice()).map_err(|e| e.to_string())?;
                tr.end(id);
                let Response::Model { weights, .. } = pulled else {
                    return Err("the model frame did not parse as a model".into());
                };
                worker_model.weights = weights;

                let id = tr.begin("cluster.slice", r);
                let slice: Vec<Instance> = part.iter().map(|&i| train[i].clone()).collect();
                tr.end(id);

                let id = tr.begin("cluster.process_batch", r);
                let msg = process_glm_batch(
                    &worker_model,
                    &slice,
                    compressor.as_ref(),
                    &cost,
                    &mut worker_scratch[w],
                )
                .map_err(|e| e.to_string())?;
                tr.child_from_report("ml.gradient", 0.0, msg.measured_compute);
                tr.child_from_report("core.encode", msg.measured_compute, msg.measured_codec);
                tr.end(id);
                payload_bytes.push(msg.payload.len() as f64);

                let id = tr.begin("net.wire_encode_push", r);
                push_frames[w].clear();
                Request::PushGradient {
                    worker: w as u32,
                    round: round as u64,
                    loss_sum: msg.loss_sum,
                    instances: msg.instances as u64,
                    payload: msg.payload.clone(),
                }
                .write_to(&mut push_frames[w])
                .map_err(|e| e.to_string())?;
                tr.end(id);
                up += push_frames[w].len() + pull_frame.len();

                tr.end(worker_span);
                worker_ms = worker_ms.max(t_worker.elapsed().as_secs_f64() * 1e3);
            }
            bytes_up.push(up as f64);

            let t_server = Instant::now();
            let server_span = tr.begin("server", r);
            let mut msgs = Vec::with_capacity(workers);
            for frame in &push_frames {
                let id = tr.begin("net.wire_decode_push", r);
                let req = Request::read_from(&mut frame.as_slice()).map_err(|e| e.to_string())?;
                tr.end(id);
                let Request::PushGradient {
                    loss_sum,
                    instances,
                    payload,
                    ..
                } = req
                else {
                    return Err("the push frame did not parse as a push".into());
                };
                msgs.push(WorkerMessage {
                    report: SizeReport {
                        key_bytes: 0,
                        value_bytes: 0,
                        header_bytes: payload.len(),
                        pairs: 0,
                    },
                    payload,
                    loss_sum,
                    instances: instances as usize,
                    sim_compute: 0.0,
                    sim_codec: 0.0,
                    measured_codec: 0.0,
                    measured_compute: 0.0,
                });
            }
            let id = tr.begin("cluster.aggregate", r);
            let agg = aggregate(
                &msgs,
                dim as u64,
                compressor.as_ref(),
                &cost,
                false,
                &mut driver_scratch,
            )
            .map_err(|e| e.to_string())?;
            tr.end(id);
            let id = tr.begin("ml.apply_gradient", r);
            model.apply_gradient(&mut opt, agg.gradient.keys(), agg.gradient.values());
            tr.end(id);
            let id = tr.begin("net.snapshot_clone", r);
            let snapshot = model.clone();
            tr.end(id);
            let mut encode_model_ms = 0.0;
            for _ in 0..workers {
                let t = Instant::now();
                let id = tr.begin("net.wire_encode_model", r);
                model_frame.clear();
                Response::Model {
                    round: round as u64 + 1,
                    epoch: (epoch - 1) as u32,
                    done: false,
                    weights: snapshot.weights.clone(),
                }
                .write_to(&mut model_frame)
                .map_err(|e| e.to_string())?;
                tr.end(id);
                encode_model_ms += t.elapsed().as_secs_f64() * 1e3;
            }
            tr.end(server_span);
            let server_ms = t_server.elapsed().as_secs_f64() * 1e3;
            tr.end(round_span);

            let round_ms = round_start.elapsed().as_secs_f64() * 1e3;
            if tr.on {
                traced_round_ms.push(round_ms);
            } else {
                untraced_round_ms.push(round_ms);
            }
            // What blocks a round when every worker and every handler thread
            // has a core: the slowest worker, then the server's serial part
            // with the per-worker model encodes side by side.
            blocking_ms.push(
                worker_ms + server_ms - encode_model_ms * (workers - 1) as f64 / workers as f64,
            );

            // Outside the round: the two halves of `aggregate`, each alone.
            let probe = tr.begin("probe", r);
            for (msg, part) in msgs.iter().zip(probe_parts.iter_mut()) {
                let id = tr.begin("core.decode", r);
                compressor
                    .decompress_into(&msg.payload, &mut probe_scratch, part)
                    .map_err(|e| e.to_string())?;
                tr.end(id);
            }
            let id = tr.begin("core.aggregate", r);
            std::hint::black_box(
                SparseGradient::aggregate(&probe_parts).map_err(|e| e.to_string())?,
            );
            tr.end(id);
            tr.end(probe);
            round += 1;
        }

        tr.on = true;
        let r = round as u32;
        let end = tr.begin("epoch_end", r);
        let id = tr.begin("ml.eval", r);
        std::hint::black_box(model.mean_loss(&test));
        tr.end(id);
        let id = tr.begin("ml.checkpoint_save", r);
        let bytes = Checkpoint::new(model.clone(), opt.clone(), epoch)
            .to_bytes()
            .map_err(|e| e.to_string())?;
        tr.end(id);
        checkpoint_bytes = bytes.len();
        let id = tr.begin("ml.checkpoint_load", r);
        Checkpoint::from_bytes(&bytes).map_err(|e| e.to_string())?;
        tr.end(id);
        tr.end(end);
    }
    tr.on = true;

    let mut rows = Vec::new();
    for name in TIMED_SPANS {
        rows.push(Metric::new(
            format!("{name}_ms"),
            median(&tr.durations_ms(name)),
        ));
    }
    rows.push(Metric::new("ml.checkpoint_bytes", checkpoint_bytes as f64));
    rows.push(Metric::new(
        "core.push_payload_bytes",
        median(&payload_bytes),
    ));
    rows.push(Metric::new(
        "net.model_frame_bytes",
        model_frame.len() as f64,
    ));
    rows.push(Metric::new("net.bytes_up_per_round", median(&bytes_up)));
    rows.push(Metric::new(
        "net.bytes_down_per_round",
        (workers * (model_frame.len() + ack_frame.len())) as f64,
    ));
    let blocking = median(&blocking_ms);
    let (coverage, residual) = if observed_round_ms > 0.0 {
        (
            blocking / observed_round_ms * 100.0,
            observed_round_ms - blocking,
        )
    } else {
        (0.0, 0.0)
    };
    rows.push(Metric::new("trace.blocking_path_ms", blocking));
    rows.push(Metric::new("trace.coverage_pct", coverage));
    rows.push(Metric::new("net.residual_ms", residual));
    // Round 2k runs with spans, round 2k+1 without, on a model one step
    // further: neighbours do nearly the same work, so the overhead is the
    // median of the pairwise ratios, not the ratio of two medians.
    let ratios: Vec<f64> = traced_round_ms
        .iter()
        .zip(&untraced_round_ms)
        .map(|(on, off)| (on / off - 1.0) * 100.0)
        .collect();
    rows.push(Metric::new("trace.overhead_pct", median(&ratios)));
    Ok((rows, tr, train))
}

// ---------------------------------------------------------------------------
// Layers in isolation
// ---------------------------------------------------------------------------

/// The hotpath bench's synthetic gradient: ~80-apart keys, sixth-power
/// magnitudes, mixed signs. At a million pairs its working set is far beyond
/// the caches, unlike the harvested gradients.
fn synthetic_gradient(nnz: usize, seed: u64) -> SparseGradient {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cur = 0u64;
    let keys: Vec<u64> = (0..nnz)
        .map(|_| {
            cur += rng.gen_range(1..80);
            cur
        })
        .collect();
    let values: Vec<f64> = (0..nnz)
        .map(|_| {
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            sign * rng.gen::<f64>().powi(6) * 0.35 + 1e-12
        })
        .collect();
    SparseGradient::new(cur + 1, keys, values).expect("ascending keys, finite values")
}

/// Median encode and decode milliseconds of `codec` over `grads`.
fn codec_ms(
    codec: &dyn GradientCompressor,
    grads: &[SparseGradient],
    iters: usize,
) -> Result<(f64, f64), String> {
    let mut scratch = CompressScratch::new();
    let mut wire = BytesMut::new();
    let mut back = SparseGradient::empty(0);
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for pass in 0..=iters {
        for grad in grads {
            let t0 = Instant::now();
            codec
                .compress_into(grad, &mut scratch, &mut wire)
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            codec
                .decompress_into(&wire, &mut scratch, &mut back)
                .map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            std::hint::black_box(back.nnz());
            // Pass 0 warms the scratch buffers.
            if pass > 0 {
                enc.push((t1 - t0).as_secs_f64() * 1e3);
                dec.push((t2 - t1).as_secs_f64() * 1e3);
            }
        }
    }
    Ok((median(&enc), median(&dec)))
}

/// Times every layer under the round in isolation, on gradients harvested
/// from `task` (the traffic the system really ships).
pub fn probes(task: &Task, train: &[Instance], dir: &Path) -> Result<Vec<Metric>, String> {
    let mut rows = Vec::new();
    let grads = harvest_gradients(task, train, HARVEST)?;
    let dim = task.features as u64;
    let pairs = grads.iter().map(SparseGradient::nnz).sum::<usize>() as f64 / grads.len() as f64;

    // --- codecs, per pair ---
    let ef = ErrorFeedback::new(SketchMlCompressor::default());
    let boxed = |name: &str| compressor_by_name(name).map_err(|e| e.to_string());
    let codecs: [(&str, Box<dyn GradientCompressor>); 7] = [
        ("raw", boxed("raw")?),
        ("zipml", boxed("zipml")?),
        ("fastsgd", boxed("fastsgd")?),
        ("countsketch", boxed("countsketch")?),
        ("sketchml", boxed("sketchml")?),
        ("sketchml-4shard", boxed("sketchml@4")?),
        ("sketchml-ef", Box::new(ef)),
    ];
    for (label, codec) in &codecs {
        let (enc, dec) = codec_ms(codec.as_ref(), &grads[..4], 5)?;
        rows.push(Metric::new(
            format!("core.encode_ns_per_pair.{label}"),
            enc * 1e6 / pairs,
        ));
        rows.push(Metric::new(
            format!("core.decode_ns_per_pair.{label}"),
            dec * 1e6 / pairs,
        ));
    }
    let big = [synthetic_gradient(1_000_000, 11)];
    let (enc, dec) = codec_ms(&SketchMlCompressor::default(), &big, 5)?;
    rows.push(Metric::new("core.encode_ms_1m", enc));
    rows.push(Metric::new("core.decode_ms_1m", dec));

    // --- primitives, on one harvested gradient's keys and values ---
    let (keys, values) = (grads[0].keys(), grads[0].values());
    let n = keys.len();
    let per_s = |ms: f64| n as f64 / (ms / 1e3) / 1e6;
    let mut bins = vec![0u32; n];
    let ms = median(&time_ms(200, 3, || {
        sketchml_sketches::hash::fill_bins(0x9E37_79B9_7F4A_7C15, 2048, keys, &mut bins);
        std::hint::black_box(bins[0]);
    }));
    rows.push(Metric::new("sketches.hash_mitems_per_s", per_s(ms)));

    let mut sketch = MergingQuantileSketch::new(128).map_err(|e| e.to_string())?;
    let (mut items, mut splits) = (Vec::new(), Vec::new());
    let ms = median(&time_ms(50, 3, || {
        sketch.reset();
        sketch.extend_from_slice(values);
        sketch
            .splits_into(256, &mut items, &mut splits)
            .expect("non-empty sketch, q > 0");
    }));
    rows.push(Metric::new("sketches.quantile_build_ms", ms));

    let mut table = BucketTable::default();
    table.rebuild(&splits);
    let mut buckets = Vec::new();
    let ms = median(&time_ms(200, 3, || {
        table.lookup_into(&splits, values, &mut buckets);
        std::hint::black_box(buckets[0]);
    }));
    rows.push(Metric::new("core.bucket_lookup_mitems_per_s", per_s(ms)));

    let indexes: Vec<u16> = (0..n).map(|i| (i % 255) as u16).collect();
    let mut minmax = MinMaxSketch::new(3, 65_536, 0xABCD).map_err(|e| e.to_string())?;
    let ms = median(&time_ms(200, 3, || {
        minmax.insert_batch(keys, &indexes);
        std::hint::black_box(minmax.inserted());
    }));
    rows.push(Metric::new(
        "sketches.minmax_insert_mitems_per_s",
        per_s(ms),
    ));
    let mut queried = Vec::new();
    let ms = median(&time_ms(200, 3, || {
        std::hint::black_box(minmax.query_batch(keys, &mut queried));
    }));
    rows.push(Metric::new("sketches.minmax_query_mitems_per_s", per_s(ms)));

    let mut packed = BytesMut::new();
    let ms = median(&time_ms(200, 3, || {
        packed.clear();
        sketchml_encoding::delta_binary::encode_keys_into(keys, &mut packed)
            .expect("ascending keys pack");
    }));
    rows.push(Metric::new("encoding.delta_encode_mkeys_per_s", per_s(ms)));
    let mut unpacked = Vec::new();
    let ms = median(&time_ms(200, 3, || {
        sketchml_encoding::delta_binary::decode_keys_into(&mut &packed[..], &mut unpacked)
            .expect("what was packed unpacks");
    }));
    rows.push(Metric::new("encoding.delta_decode_mkeys_per_s", per_s(ms)));
    if unpacked != keys {
        return Err("delta-binary keys did not survive the round trip".into());
    }

    // --- merge hops: fold two worker payloads, emit the next hop ---
    let sketchml = SketchMlCompressor::default();
    let countsketch =
        CountSketchCompressor::new(CountSketchConfig::default()).map_err(|e| e.to_string())?;
    let hops: [(&str, MergePolicy, &dyn MergeableCompressor); 3] = [
        ("exact", MergePolicy::Exact, &sketchml),
        ("resketch", MergePolicy::Resketch, &sketchml),
        ("linear", MergePolicy::Linear, &countsketch),
    ];
    for (label, policy, codec) in hops {
        let payloads: Vec<Vec<u8>> = grads[..2]
            .iter()
            .map(|g| codec.compress(g).map(|m| m.payload.to_vec()))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let mut acc = MergeAcc::new();
        let mut scratch = CompressScratch::new();
        let mut out = BytesMut::new();
        let ms = median(&time_ms(15, 2, || {
            acc.reset(dim);
            for p in &payloads {
                codec
                    .accumulate_hop(&mut acc, p, 0.5, policy, &mut scratch)
                    .expect("own payloads fold");
            }
            codec
                .emit_hop(&acc, policy, &mut scratch, &mut out)
                .expect("a folded accumulator emits");
        }));
        rows.push(Metric::new(format!("core.merge_hop_ms.{label}"), ms));
    }

    // --- one collective round over a transport that costs nothing ---
    let codec = mergeable(task.compressor)?;
    let payloads: Vec<Vec<u8>> = grads[..4]
        .iter()
        .map(|g| codec.compress(g).map(|m| m.payload.to_vec()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let contribs: Vec<Contribution> = payloads
        .iter()
        .map(|p| Contribution {
            payload: p,
            weight: 0.25,
        })
        .collect();
    let mut report = None;
    let ms = median(&time_ms(9, 1, || {
        report = Some(
            allreduce(
                Topology::Ring,
                MergePolicy::Resketch,
                codec.as_ref(),
                dim,
                &contribs,
                &mut PerfectTransport,
            )
            .expect("ring allreduce over own payloads"),
        );
    }));
    let report = report.expect("time_ms ran the closure");
    rows.push(Metric::new("collectives.allreduce_ms", ms));
    rows.push(Metric::new(
        "collectives.hops_per_round",
        report.hops as f64,
    ));
    rows.push(Metric::new(
        "collectives.max_link_bytes",
        report.max_link_bytes() as f64,
    ));

    // --- telemetry: the same encode inside and outside a recording session ---
    let mut scratch = CompressScratch::new();
    let mut wire = BytesMut::new();
    let mut encode_all = || {
        for g in &grads[..4] {
            sketchml
                .compress_into(g, &mut scratch, &mut wire)
                .expect("harvested gradients encode");
        }
    };
    let (mut plain, mut recorded) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        plain.extend(time_ms(5, 1, &mut encode_all));
        let session = sketchml_telemetry::TelemetrySession::begin();
        recorded.extend(time_ms(5, 1, &mut encode_all));
        drop(session.finish());
    }
    rows.push(Metric::new(
        "telemetry.encode_overhead_pct",
        (median(&recorded) - median(&plain)) / median(&plain) * 100.0,
    ));

    // --- predict: a call through a socket, and the scoring inside it ---
    let (call_ms, score_ms) = predict_probe(task, dir)?;
    rows.push(Metric::new("net.predict_call_ms", call_ms));
    rows.push(Metric::new("net.score_ms", score_ms));

    // --- the relay itself ---
    let st = relay::selftest(dir, LINK_100MBIT, 6_250_000).map_err(|e| e.to_string())?;
    if !st.split_ok {
        return Err("relay self-test: forwarding lost or reordered bytes".into());
    }
    rows.push(Metric::new("relay.rate_error_pct", st.rate_error_pct));
    rows.push(Metric::new(
        "relay.passthrough_ms_per_mb",
        st.passthrough_ms_per_mb,
    ));
    Ok(rows)
}

/// Starts a server inside this process on a tiny dataset of the task's
/// dimension, trains it with one worker thread, then times `Client::predict`
/// over the socket and `GlmModel::score` on the same snapshot.
fn predict_probe(task: &Task, dir: &Path) -> Result<(f64, f64), String> {
    let dataset = SparseDatasetSpec {
        instances: 400,
        ..task.dataset()
    };
    let mut spec = task.train_spec();
    spec.max_epochs = 1;
    let mut setup = ServeSetup::new(dataset.clone(), spec, 1);
    setup.batch_ratio = 0.5;
    setup.compressor = task.compressor.into();
    let sock = dir.join("p.sock");
    let _ = std::fs::remove_file(&sock);
    let server = Server::start(
        setup,
        Listener::bind_unix(&sock).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    let addr = format!("unix://{}", sock.display());
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || sketchml_net::run_worker(&addr, 0))
    };
    let summary = server.wait_trained();
    let result = (|| {
        if summary.aborted {
            return Err("the in-process server aborted".to_string());
        }
        let pool = dataset.generate();
        let batch: Vec<PredictInstance> = pool[..8]
            .iter()
            .map(|i| PredictInstance {
                indices: i.features.indices().to_vec(),
                values: i.features.values().to_vec(),
            })
            .collect();
        let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
        let call = median(&time_ms(2000, 50, || {
            std::hint::black_box(
                client
                    .predict(batch.clone())
                    .expect("predict on a live server"),
            );
        }));
        let snapshot = server.store().snapshot();
        let score = median(&time_ms(2000, 50, || {
            for inst in &pool[..8] {
                std::hint::black_box(snapshot.model.score(inst));
            }
        }));
        Ok((call, score))
    })();
    server.shutdown();
    server.join();
    let worker_result = worker.join().map_err(|_| "probe worker panicked")?;
    let _ = std::fs::remove_file(&sock);
    worker_result.map_err(|e| e.to_string())?;
    result
}
