//! Live-serving throughput: QPS and predict latency under mixed
//! train+infer load, serial (raw) vs sketch-compressed gradient push.
//!
//! For each uplink compressor the bench starts a real socket server on
//! loopback, runs four in-process worker clients through the full
//! pull→compute→push participant loop, and hammers the same port with two
//! inference clients for the whole training window. It records training
//! wall time, rounds/s, `Predict` p50/p99 latency and sustained QPS, and
//! the per-push payload size — then writes `BENCH_serving.json` so future
//! PRs regress against the committed numbers.
//!
//! Each scenario runs inside a [`TelemetrySession`]; the serving section
//! of the validated snapshot (schema v7) is embedded per row, with the
//! derived QPS/p50/p99 gauges set by this harness.
//!
//! The run aborts unless both scenarios complete training, predictions
//! were served concurrently in both, and the sketch-compressed push is
//! smaller than the serial one.
//!
//! `--quick` shrinks the dataset and epoch count (CI smoke).

use serde::Serialize;
use sketchml_bench::output::print_table;
use sketchml_cluster::TrainSpec;
use sketchml_core::compressor_by_name;
use sketchml_data::{SparseDatasetSpec, Task};
use sketchml_ml::{GlmLoss, GlmModel};
use sketchml_net::{Client, PredictInstance, ServeSetup, Server};
use sketchml_telemetry::{gauge_set, Gauge, ServingSnapshot, TelemetrySession};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

const WORKERS: usize = 4;
const INFER_CLIENTS: usize = 2;
const SEED: u64 = 0x5E12_F00D;

#[derive(Serialize)]
struct Row {
    compressor: String,
    rounds: u64,
    epochs_done: u64,
    final_test_loss: f64,
    /// Wall seconds from serve start to training completion.
    train_wall_s: f64,
    rounds_per_s: f64,
    /// Per-push compressed payload bytes for a representative mini-batch
    /// gradient (the serial-vs-sketch uplink comparison).
    push_payload_bytes: usize,
    /// Predict batches answered while training was in flight.
    predict_batches: u64,
    predict_qps: f64,
    predict_p50_us: f64,
    predict_p99_us: f64,
    /// Serving section of the validated telemetry snapshot (schema v7).
    serving: ServingSnapshot,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    quick: bool,
    workers: usize,
    infer_clients: usize,
    rows: Vec<Row>,
}

fn dataset(quick: bool) -> SparseDatasetSpec {
    SparseDatasetSpec {
        name: "serving".into(),
        instances: if quick { 1_200 } else { 4_000 },
        features: if quick { 2_048 } else { 4_096 },
        avg_nnz: 32,
        skew: 1.1,
        label_noise: 0.05,
        task: Task::Classification,
        seed: SEED ^ 0xDA7A,
    }
}

fn percentile(sorted_micros: &[f64], p: f64) -> f64 {
    if sorted_micros.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_micros.len() - 1) as f64 * p).round() as usize;
    sorted_micros[idx]
}

/// Compressed payload size of a representative first-round mini-batch
/// gradient — what each worker ships per push.
fn push_bytes(spec_data: &SparseDatasetSpec, compressor_name: &str, batch_ratio: f64) -> usize {
    let (train, _) = spec_data.generate_split();
    let batch = (train.len() as f64 * batch_ratio).ceil() as usize / WORKERS;
    let model = GlmModel::new(spec_data.features as usize, GlmLoss::Logistic, 0.01).expect("model");
    let grad = model.batch_gradient(&train[..batch.min(train.len())]);
    let sparse =
        sketchml_core::SparseGradient::new(spec_data.features as u64, grad.keys, grad.values)
            .expect("gradient");
    let compressor = compressor_by_name(compressor_name).expect("compressor");
    compressor
        .compress(&sparse)
        .expect("compress")
        .payload
        .len()
}

fn run_scenario(compressor_name: &str, quick: bool) -> Row {
    let session = TelemetrySession::begin();
    let data = dataset(quick);
    let epochs = if quick { 2 } else { 3 };
    let mut spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, epochs);
    spec.seed = SEED;
    let mut setup = ServeSetup::new(data.clone(), spec, WORKERS);
    setup.compressor = compressor_name.to_string();
    setup.round_timeout_ms = 30_000;
    setup.idle_timeout_ms = 60_000;

    let server = Server::bind_tcp(setup, "127.0.0.1:0").expect("start server");
    let addr = server.addr().to_string();

    let worker_threads: Vec<_> = (0..WORKERS as u32)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || sketchml_net::run_worker(&addr, w).expect("worker"))
        })
        .collect();

    // Inference clients on the same port for the whole training window.
    let stop = Arc::new(AtomicBool::new(false));
    let infer_threads: Vec<_> = (0..INFER_CLIENTS)
        .map(|c| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            let features = data.features;
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("inference client");
                let batch: Vec<PredictInstance> = (0..8u32)
                    .map(|i| PredictInstance {
                        indices: vec![c as u32 + i, 64 + i, 512 + i, features.saturating_sub(1)],
                        values: vec![1.0, -0.5, 0.25, 2.0],
                    })
                    .collect();
                let mut latencies_us = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    match client.predict(batch.clone()) {
                        Ok(scores) => {
                            assert_eq!(scores.len(), batch.len());
                            latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
                        }
                        // Server tearing down at the end of the window.
                        Err(_) => break,
                    }
                }
                latencies_us
            })
        })
        .collect();

    let t0 = Instant::now();
    let summary = server.wait_trained();
    let train_wall_s = t0.elapsed().as_secs_f64().max(1e-9);
    stop.store(true, Ordering::Relaxed);
    let mut latencies: Vec<f64> = infer_threads
        .into_iter()
        .flat_map(|t| t.join().expect("inference thread"))
        .collect();
    server.shutdown();
    server.join();
    for t in worker_threads {
        t.join().expect("worker thread");
    }

    assert!(
        !summary.aborted,
        "{compressor_name}: training aborted: {summary:?}"
    );
    assert!(
        !latencies.is_empty(),
        "{compressor_name}: no predictions served during training"
    );
    latencies.sort_by(|a, b| a.total_cmp(b));
    let qps = latencies.len() as f64 / train_wall_s;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    // Derived figures land in the v6 serving gauges before the session
    // snapshot is taken, so the committed JSON carries them validated.
    gauge_set(Gauge::ServingQps, qps);
    gauge_set(Gauge::ServingPredictP50Micros, p50);
    gauge_set(Gauge::ServingPredictP99Micros, p99);
    let snapshot = session.finish();
    snapshot
        .validate()
        .unwrap_or_else(|e| panic!("{compressor_name}: invalid telemetry: {e}"));

    Row {
        compressor: compressor_name.to_string(),
        rounds: summary.rounds,
        epochs_done: summary.epochs_done,
        final_test_loss: summary.final_test_loss,
        train_wall_s,
        rounds_per_s: summary.rounds as f64 / train_wall_s,
        push_payload_bytes: push_bytes(&data, compressor_name, 0.1),
        predict_batches: latencies.len() as u64,
        predict_qps: qps,
        predict_p50_us: p50,
        predict_p99_us: p99,
        serving: snapshot.serving,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rows: Vec<Row> = ["raw", "sketchml"]
        .iter()
        .map(|name| run_scenario(name, quick))
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.compressor.clone(),
                r.rounds.to_string(),
                format!("{:.4}", r.final_test_loss),
                format!("{:.2}", r.train_wall_s),
                format!("{:.1}", r.rounds_per_s),
                r.push_payload_bytes.to_string(),
                format!("{:.0}", r.predict_qps),
                format!("{:.0}", r.predict_p50_us),
                format!("{:.0}", r.predict_p99_us),
            ]
        })
        .collect();
    print_table(
        "Live serving: mixed train+infer load over loopback (4 workers, 2 inference clients)",
        &[
            "push codec",
            "rounds",
            "loss",
            "wall s",
            "rounds/s",
            "push B",
            "QPS",
            "p50 µs",
            "p99 µs",
        ],
        &table,
    );

    let raw = &rows[0];
    let sketch = &rows[1];
    assert!(
        sketch.push_payload_bytes < raw.push_payload_bytes,
        "sketch push ({} B) not smaller than serial push ({} B)",
        sketch.push_payload_bytes,
        raw.push_payload_bytes
    );
    // Both runs must have genuinely interleaved inference with training.
    for r in &rows {
        assert!(
            r.serving.predicts > 0,
            "{}: no predicts counted",
            r.compressor
        );
        assert!(r.serving.pushes > 0, "{}: no pushes counted", r.compressor);
    }
    println!(
        "\nsketch push {}x smaller than serial ({} -> {} bytes)",
        raw.push_payload_bytes / sketch.push_payload_bytes.max(1),
        raw.push_payload_bytes,
        sketch.push_payload_bytes
    );

    let report = Report {
        bench: "serving",
        quick,
        workers: WORKERS,
        infer_clients: INFER_CLIENTS,
        rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    let path = "BENCH_serving.json";
    std::fs::write(path, json + "\n").expect("write BENCH_serving.json");
    println!("[results written to {path}]");
}
