//! The socket workloads: the shipped `sketchml-serve` and `sketchml-worker`
//! binaries as child processes, watched from outside.
//!
//! The benchmark process adds at most two busy threads to the children: a
//! monitor connection polling `GetStats` every millisecond (it goes straight
//! to the server, never through the relay), and either the relay's pumps or
//! one closed-loop predict client.

use crate::relay::{Relay, RelayCounters};
use crate::stats::median;
use crate::workloads::{Task, AVG_NNZ, BATCH_RATIO, LINK_100MBIT, ROUNDS_PER_EPOCH};
use crate::Checks;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sketchml_data::SparseDatasetSpec;
use sketchml_ml::{GlmLoss, GlmModel, Instance};
use sketchml_net::{Client, PredictInstance};
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Instances per `Predict` request: a batch-scoring call of ~0.8 MB, so the
/// time of a call is the server's decode, score and reply, not the two thread
/// wake-ups around it. Over ten seeds the quartiles of the median call were
/// 13 % apart at 64 instances (30 % on the driver's host), 8 % at 256 and 3 %
/// at 1024.
const PREDICT_BATCH: usize = 1024;
/// The predict client sends this many requests back to back, then pauses
/// for as long as they took. Half a core of predict traffic leaves the two
/// vCPUs of the reference box room for the trainer and the worker: with a
/// client that never pauses, `epoch_s` moved 55 % under a background CPU hog,
/// with this one 5 %, and the latency of calls inside a burst does not
/// include waking an idle CPU.
const PREDICT_BURST: usize = 32;
/// Distinct instances the predict client samples its batches from.
const PREDICT_POOL: usize = 2048;
/// The monitor's polling period; round timestamps are quantised to it.
pub const MONITOR_PERIOD: Duration = Duration::from_millis(1);
/// A run that has not finished by then is killed and reported as failed.
const RUN_DEADLINE: Duration = Duration::from_secs(150);

/// What one run of a socket workload measured.
#[derive(Debug, Default)]
pub struct SocketOutcome {
    /// Launch of the server process → first round published, the median
    /// over the launches of this run.
    pub setup_s: f64,
    /// First round published → training done.
    pub wall_s: f64,
    /// Time between consecutive round publications that do not span the end
    /// of an epoch.
    pub round_ms: Vec<f64>,
    /// Time between consecutive round publications that do (evaluation,
    /// checkpoint save and validating reload happen in between).
    pub boundary_ms: Vec<f64>,
    /// Wall time of each epoch: 20 consecutive publications, one of them
    /// across the epoch's end; the last epoch runs to `done`.
    pub epoch_s: Vec<f64>,
    /// Rounds the server aggregated.
    pub rounds: u64,
    /// The lowest test loss the server saw at the end of an epoch.
    pub best_test_loss: f64,
    /// `VmHWM` of the server process once training was done.
    pub peak_rss_mb: f64,
    /// Latency of every predict call made while training ran.
    pub predict_ms: Vec<f64>,
    /// Relay counters over the whole run (throttled workloads).
    pub relay: Option<RelayCounters>,
    /// Share of the training window the busier link direction was
    /// transmitting.
    pub link_busy_share: f64,
}

/// Kills and reaps whatever is still running when dropped, so no exit path
/// leaves a child behind.
struct Children(Vec<(String, Child)>);

impl Drop for Children {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// What the monitor reads out of one `GetStats` document.
struct Stats {
    round: u64,
    done: bool,
    final_test_loss: f64,
    best_test_loss: f64,
    partial_rounds: u64,
    aborted: bool,
}

fn parse_stats(json: &str) -> Option<Stats> {
    use crate::stats::get;
    let v: serde::Value = serde_json::from_str(json).ok()?;
    let summary = get(&v, "summary");
    let field = |name: &str| summary.and_then(|s| get(s, name));
    Some(Stats {
        round: get(&v, "round")?.as_u64()?,
        done: matches!(get(&v, "done")?, serde::Value::Bool(true)),
        final_test_loss: field("final_test_loss")
            .and_then(serde::Value::as_f64)
            .unwrap_or(f64::NAN),
        best_test_loss: field("best_test_loss")
            .and_then(serde::Value::as_f64)
            .unwrap_or(f64::NAN),
        partial_rounds: field("partial_rounds")
            .and_then(serde::Value::as_u64)
            .unwrap_or(0),
        aborted: matches!(field("aborted"), Some(serde::Value::Bool(true))),
    })
}

/// `VmHWM` of process `pid` (`self` for this one) in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The instances the predict client sends: drawn from the same recipe as the
/// training data (same dimension, sparsity and skew), from a seed of their
/// own.
fn predict_pool(task: &Task) -> Vec<Instance> {
    SparseDatasetSpec {
        name: "predict".into(),
        instances: PREDICT_POOL,
        features: task.features,
        avg_nnz: AVG_NNZ,
        seed: task.seed ^ 0x9BED,
        ..task.dataset()
    }
    .generate()
}

fn to_wire(inst: &Instance) -> PredictInstance {
    PredictInstance {
        indices: inst.features.indices().to_vec(),
        values: inst.features.values().to_vec(),
    }
}

/// The closed-loop predict client: the next batch goes out when the previous
/// reply is in, in bursts of [`PREDICT_BURST`] at a 50 % duty cycle. Returns per-call latencies and the number of failed calls.
fn predict_loop(addr: &str, pool: &[Instance], seed: u64, stop: &AtomicBool) -> (Vec<f64>, u64) {
    let mut latencies = Vec::new();
    let Ok(mut client) = Client::connect(addr) else {
        return (latencies, 1);
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut burst_start = Instant::now();
    let mut in_burst = 0;
    while !stop.load(Ordering::Relaxed) {
        if in_burst == PREDICT_BURST {
            std::thread::sleep(burst_start.elapsed());
            burst_start = Instant::now();
            in_burst = 0;
        }
        in_burst += 1;
        let batch: Vec<PredictInstance> = (0..PREDICT_BATCH)
            .map(|_| to_wire(&pool[rng.gen_range(0..pool.len())]))
            .collect();
        let t = Instant::now();
        match client.predict(batch) {
            Ok(scores) if scores.len() == PREDICT_BATCH && scores.iter().all(|s| s.is_finite()) => {
                latencies.push(t.elapsed().as_secs_f64() * 1e3);
            }
            _ => return (latencies, 1),
        }
    }
    (latencies, 0)
}

/// After training: the server's scores for a sample batch must equal
/// `GlmModel::score` on the model it hands out, bit for bit.
fn check_final_scores(addr: &str, pool: &[Instance], dim: usize) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let sample = &pool[..PREDICT_BATCH.min(pool.len())];
    let scores = client
        .predict(sample.iter().map(to_wire).collect())
        .map_err(|e| format!("predict: {e}"))?;
    let view = client
        .pull_model(0, 0, false)
        .map_err(|e| format!("pull: {e}"))?;
    if !view.done || view.weights.len() != dim {
        return Err(format!(
            "final pull: done={} with {} weights",
            view.done,
            view.weights.len()
        ));
    }
    let mut model = GlmModel::new(dim, GlmLoss::Logistic, 0.01).map_err(|e| e.to_string())?;
    model.weights = view.weights;
    for (inst, got) in sample.iter().zip(&scores) {
        let want = model.score(inst);
        if want.to_bits() != got.to_bits() {
            return Err(format!(
                "server scored {got}, the pulled model scores {want}"
            ));
        }
    }
    Ok(())
}

const SERVE_SOCK: &str = "s.sock";
const RELAY_SOCK: &str = "r.sock";

/// A launched server with its workers, and the relay between them if the
/// workload is throttled.
struct Session {
    launched: Instant,
    children: Children,
    serve_pid: u32,
    serve_out: BufReader<std::process::ChildStdout>,
    relay: Option<Relay>,
    /// Where the benchmark's own connections go: straight to the server.
    direct_addr: String,
}

/// Starts `sketchml-serve` and its workers inside `dir` (socket files live
/// there; the paths handed to the children are relative to it, which keeps
/// them under the 108-byte limit of `sun_path` wherever the checkout is).
fn launch(
    bin_dir: &Path,
    dir: &Path,
    task: &Task,
    epochs: usize,
    linger_ms: u64,
    throttled: bool,
) -> Result<Session, String> {
    for s in [SERVE_SOCK, RELAY_SOCK] {
        let _ = std::fs::remove_file(dir.join(s));
    }
    let launched = Instant::now();
    let mut serve = Command::new(bin_dir.join("sketchml-serve"))
        .current_dir(dir)
        .args(["--addr", &format!("unix://{SERVE_SOCK}")])
        .args(["--workers", &task.workers.to_string()])
        .args(["--epochs", &epochs.to_string()])
        .args(["--instances", &task.instances.to_string()])
        .args(["--features", &task.features.to_string()])
        .args(["--avg-nnz", &AVG_NNZ.to_string()])
        .args(["--batch-ratio", &BATCH_RATIO.to_string()])
        .args(["--compressor", task.compressor])
        .args(["--seed", &task.seed.to_string()])
        .args(["--linger-ms", &linger_ms.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn sketchml-serve: {e}"))?;
    let serve_pid = serve.id();
    let mut serve_out = BufReader::new(serve.stdout.take().expect("stdout was piped"));
    let mut children = Children(vec![("sketchml-serve".into(), serve)]);

    let mut ready = String::new();
    serve_out
        .read_line(&mut ready)
        .map_err(|e| format!("reading SERVE_READY: {e}"))?;
    if !ready.starts_with("SERVE_READY") {
        return Err(format!("sketchml-serve did not come up: {ready:?}"));
    }

    let relay = if throttled {
        Some(
            Relay::start(
                &dir.join(RELAY_SOCK),
                &dir.join(SERVE_SOCK),
                Some(LINK_100MBIT),
            )
            .map_err(|e| format!("relay: {e}"))?,
        )
    } else {
        None
    };
    let worker_sock = if throttled { RELAY_SOCK } else { SERVE_SOCK };
    for w in 0..task.workers {
        let child = Command::new(bin_dir.join("sketchml-worker"))
            .current_dir(dir)
            .args(["--addr", &format!("unix://{worker_sock}")])
            .args(["--worker", &w.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn sketchml-worker {w}: {e}"))?;
        children.0.push((format!("sketchml-worker {w}"), child));
    }
    Ok(Session {
        launched,
        children,
        serve_pid,
        serve_out,
        relay,
        direct_addr: format!("unix://{}", dir.join(SERVE_SOCK).display()),
    })
}

/// One more sample of the set-up time: launches the same task, waits for
/// the first published round, then kills the children. Nothing else of this
/// launch is measured or checked.
fn setup_sample(bin_dir: &Path, dir: &Path, task: &Task, throttled: bool) -> Result<f64, String> {
    let session = launch(bin_dir, dir, task, 1, 0, throttled)?;
    let mut monitor =
        Client::connect(&session.direct_addr).map_err(|e| format!("monitor connect: {e}"))?;
    let seconds = loop {
        let json = monitor
            .get_stats()
            .map_err(|e| format!("monitor GetStats: {e}"))?;
        let stats = parse_stats(&json).ok_or("GetStats returned unreadable JSON")?;
        if stats.round >= 1 {
            break session.launched.elapsed().as_secs_f64();
        }
        if session.launched.elapsed() > RUN_DEADLINE {
            return Err("no round published before the deadline".into());
        }
        std::thread::sleep(MONITOR_PERIOD);
    };
    drop(monitor);
    drop(session.children);
    if let Some(relay) = session.relay {
        relay.stop();
    }
    Ok(seconds)
}

/// Runs one socket workload to completion inside `dir`. Set-up time is
/// sampled `setup_samples` times (the measured launch is the last sample).
pub fn run(
    bin_dir: &Path,
    dir: &Path,
    task: &Task,
    throttled: bool,
    predict: bool,
    setup_samples: usize,
    checks: &mut Checks,
) -> Result<SocketOutcome, String> {
    let pool = predict_pool(task);
    let mut setups = Vec::with_capacity(setup_samples);
    for _ in 1..setup_samples {
        setups.push(setup_sample(bin_dir, dir, task, throttled)?);
    }
    // Workers still read their last model when the server sees `done`; the
    // server has to outlive that read, and the final-score check after it.
    let linger_ms = if throttled { 2000 } else { 1500 };
    let Session {
        launched,
        mut children,
        serve_pid,
        mut serve_out,
        relay,
        direct_addr,
    } = launch(bin_dir, dir, task, task.epochs, linger_ms, throttled)?;

    let stop_predict = AtomicBool::new(false);
    let mut out = SocketOutcome::default();
    let mut published: Vec<Instant> = Vec::new();
    let mut last = None;
    let monitor_result: Result<(), String> = std::thread::scope(|scope| {
        let predictor = predict
            .then(|| scope.spawn(|| predict_loop(&direct_addr, &pool, task.seed, &stop_predict)));
        let result = (|| {
            let mut monitor =
                Client::connect(&direct_addr).map_err(|e| format!("monitor connect: {e}"))?;
            // Relay counters at the first and at the latest round publication:
            // the window in which the link's busy share is taken.
            let mut window: Option<[(Instant, RelayCounters); 2]> = None;
            loop {
                let json = monitor
                    .get_stats()
                    .map_err(|e| format!("monitor GetStats: {e}"))?;
                let now = Instant::now();
                let stats = parse_stats(&json).ok_or("GetStats returned unreadable JSON")?;
                if (published.len() as u64) < stats.round {
                    let at = (now, relay.as_ref().map(Relay::counters).unwrap_or_default());
                    window = Some([window.map_or(at, |w| w[0]), at]);
                    published.resize(stats.round as usize, now);
                }
                // `done` is published a moment before the summary is stored.
                if stats.done && stats.final_test_loss.is_nan() && !stats.aborted {
                    std::thread::sleep(MONITOR_PERIOD);
                    continue;
                }
                if stats.done {
                    if let Some([(t0, c0), (t1, c1)]) = window {
                        let busiest =
                            (c1.down.bytes - c0.down.bytes).max(c1.up.bytes - c0.up.bytes);
                        out.link_busy_share = busiest as f64
                            / LINK_100MBIT
                            / t1.duration_since(t0).as_secs_f64().max(1e-9);
                    }
                    out.wall_s = published
                        .first()
                        .map_or(0.0, |t| now.duration_since(*t).as_secs_f64());
                    last = Some(stats);
                    return Ok(());
                }
                if launched.elapsed() > RUN_DEADLINE {
                    return Err(format!(
                        "training not done after {RUN_DEADLINE:?} (round {})",
                        stats.round
                    ));
                }
                std::thread::sleep(MONITOR_PERIOD);
            }
        })();
        stop_predict.store(true, Ordering::Relaxed);
        if let Some(p) = predictor {
            let (latencies, errors) = p.join().map_err(|_| "predict client panicked")?;
            checks.count("predict calls", latencies.len() as u64 + errors, errors);
            out.predict_ms = latencies;
        }
        result
    });
    monitor_result?;
    let stats = last.expect("the monitor returns Ok only with final stats");

    out.peak_rss_mb = peak_rss_mb(&serve_pid.to_string()).unwrap_or(0.0);
    checks.check("server VmHWM is readable", out.peak_rss_mb > 0.0);
    let scores = check_final_scores(&direct_addr, &pool, task.features as usize);
    if let Err(e) = &scores {
        eprintln!("final score check: {e}");
    }
    checks.check(
        "final scores equal GlmModel::score on the pulled model",
        scores.is_ok(),
    );

    // Every child must end by itself with status 0.
    for (name, child) in &mut children.0 {
        let status = child.wait().map_err(|e| format!("wait {name}: {e}"))?;
        if !status.success() {
            eprintln!("{name} exited with {status}");
        }
        checks.check("child exits 0", status.success());
    }
    let mut rest = String::new();
    let _ = serve_out.read_to_string(&mut rest);
    checks.check("server printed SERVE_DONE", rest.contains("SERVE_DONE"));
    children.0.clear();
    out.relay = relay.map(Relay::stop);

    setups.push(
        published
            .first()
            .map_or(0.0, |t| t.duration_since(launched).as_secs_f64()),
    );
    out.setup_s = median(&setups);
    out.rounds = stats.round;
    out.best_test_loss = stats.best_test_loss;
    let done_at = published
        .first()
        .map(|t| *t + Duration::from_secs_f64(out.wall_s));
    for start in (0..published.len()).step_by(ROUNDS_PER_EPOCH) {
        let end = published.get(start + ROUNDS_PER_EPOCH).copied().or(done_at);
        if let Some(end) = end {
            out.epoch_s
                .push(end.duration_since(published[start]).as_secs_f64());
        }
    }
    for (i, pair) in published.windows(2).enumerate() {
        // `pair` spans the publication of rounds i+1 and i+2.
        let ms = pair[1].duration_since(pair[0]).as_secs_f64() * 1e3;
        if (i + 1) % ROUNDS_PER_EPOCH == 0 {
            out.boundary_ms.push(ms);
        } else {
            out.round_ms.push(ms);
        }
    }

    let expected_rounds = (task.epochs * ROUNDS_PER_EPOCH) as u64;
    checks.count(
        "rounds are full",
        expected_rounds,
        stats.partial_rounds + expected_rounds.abs_diff(stats.round),
    );
    checks.check("training was not aborted", !stats.aborted);
    checks.check(
        "every round was seen",
        published.len() as u64 == expected_rounds,
    );
    if let Some(c) = &out.relay {
        checks.check(
            "relay bytes equal the frames it forwarded",
            c.frames_account_for_all_bytes() && c.up.frames > 0 && c.down.frames > 0,
        );
        // The bucket's depth lets a burst through after idling; beyond that
        // the link may never look faster than its rate.
        checks.check(
            "the link never ran above its rate",
            out.link_busy_share <= 1.03,
        );
    }
    Ok(out)
}

/// A fresh directory for one run's socket files.
pub fn run_dir(out_dir: &Path) -> std::io::Result<PathBuf> {
    let dir = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
