//! Real-process integration tests for the live parameter server: a
//! `sketchml-serve` driver and `sketchml-worker` processes talking over
//! loopback TCP, plus inference clients hitting the same port.
//!
//! These spawn the actual release-path binaries via `CARGO_BIN_EXE_*`, so
//! they exercise everything: argument parsing, the readiness handshake,
//! version negotiation, framing, coalescing, the live-state restore after a
//! `kill -9`, and process exit codes.

use sketchml::data::{SparseDatasetSpec, Task};
use sketchml::ml::GlmLoss;
use sketchml::net::{
    run_worker, Client, NetError, PredictInstance, ServeSetup, ServeSummary, Server,
};
use sketchml::{compressor_by_name, Checkpoint, ClusterConfig, TrainSpec};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const SEED: u64 = 0x7EA1;

/// A running `sketchml-serve` with its stdout held open for the
/// SERVE_READY / SERVE_DONE handshake lines.
struct ServeProc {
    child: Child,
    reader: BufReader<std::process::ChildStdout>,
    addr: String,
}

fn spawn_serve(extra: &[&str]) -> ServeProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sketchml-serve"))
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn sketchml-serve");
    let mut reader = BufReader::new(child.stdout.take().expect("serve stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read SERVE_READY");
    let addr = line
        .trim()
        .strip_prefix("SERVE_READY addr=")
        .unwrap_or_else(|| panic!("expected SERVE_READY, got {line:?}"))
        .to_string();
    ServeProc {
        child,
        reader,
        addr,
    }
}

impl ServeProc {
    /// Reads until `SERVE_DONE`, parses the summary, reaps the process,
    /// and asserts it exited successfully.
    fn finish(mut self) -> ServeSummary {
        let mut summary = None;
        let mut line = String::new();
        while {
            line.clear();
            self.reader.read_line(&mut line).expect("read serve stdout") > 0
        } {
            if let Some(json) = line.trim().strip_prefix("SERVE_DONE ") {
                summary = Some(serde_json::from_str::<ServeSummary>(json).expect("summary json"));
            }
        }
        let status = self.child.wait().expect("wait serve");
        assert!(status.success(), "serve exited with {status:?}");
        summary.expect("serve printed no SERVE_DONE line")
    }
}

fn spawn_worker(addr: &str, id: u32) -> Child {
    Command::new(env!("CARGO_BIN_EXE_sketchml-worker"))
        .args(["--addr", addr, "--worker", &id.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn sketchml-worker")
}

/// Waits for a worker, asserting success, and returns its stdout.
fn finish_worker(child: Child) -> String {
    let out = child.wait_with_output().expect("wait worker");
    assert!(
        out.status.success(),
        "worker exited with {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Polls the server until its first end-of-epoch checkpoint exists (the
/// earliest point a killed worker can provably recover from).
fn wait_for_checkpoint(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut client = Client::connect(addr).expect("connect poll client");
    loop {
        if client.get_checkpoint().is_ok() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared within 60s"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The rounds baked into the published model, from `GetStats`.
fn published_round(client: &mut Client) -> u64 {
    let stats = client.get_stats().expect("stats");
    let doc: serde::Value = serde_json::from_str(&stats).expect("stats json");
    doc.as_obj()
        .and_then(|o| serde::field(o, "round").ok())
        .and_then(serde::Value::as_u64)
        .unwrap_or_else(|| panic!("stats has no round: {stats}"))
}

/// The count printed as `key=<n>` on a `WORKER_DONE` line.
fn worker_stat(out: &str, key: &str) -> u64 {
    out.split_whitespace()
        .find_map(|field| field.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= count in {out}"))
}

/// The exact dataset/spec `sketchml-serve` builds from these CLI knobs,
/// reconstructed for the in-simulator reference run.
fn reference_setup(
    instances: usize,
    features: u32,
    avg_nnz: usize,
    epochs: usize,
) -> (SparseDatasetSpec, TrainSpec) {
    let dataset = SparseDatasetSpec {
        name: "serve".into(),
        instances,
        features,
        avg_nnz,
        skew: 1.1,
        label_noise: 0.05,
        task: Task::Classification,
        seed: SEED ^ 0xDA7A,
    };
    let mut spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, epochs);
    spec.seed = SEED;
    (dataset, spec)
}

#[test]
fn four_workers_over_loopback_match_the_simulator_loss() {
    let (instances, features, avg_nnz, epochs, workers) =
        (2_000usize, 4_096u32, 32usize, 2usize, 4);
    let serve = spawn_serve(&[
        "--workers",
        "4",
        "--epochs",
        "2",
        "--instances",
        "2000",
        "--features",
        "4096",
        "--avg-nnz",
        "32",
        "--idle-timeout-ms",
        "60000",
        "--round-timeout-ms",
        "30000",
    ]);
    let addr = serve.addr.clone();
    let workers_procs: Vec<Child> = (0..workers).map(|w| spawn_worker(&addr, w)).collect();
    let summary = serve.finish();
    for w in workers_procs {
        finish_worker(w);
    }

    assert!(!summary.aborted, "socket run aborted: {summary:?}");
    assert_eq!(summary.epochs_done, epochs as u64);
    // With a generous straggler timeout every round must coalesce all four
    // workers — a partial round would change the math being compared.
    assert_eq!(
        summary.full_rounds, summary.rounds,
        "straggler timeout split a round: {summary:?}"
    );

    // Reference: the in-process simulator on the identical setup. The
    // socket run replicates its batch schedule and partitioning, and both
    // sides call `process_glm_batch` and `aggregate` in worker-id order on
    // the same batches — so with every round full (asserted above) the math
    // is the same math, and the losses must agree to the bit. Any gap means
    // the server's loop has drifted from the round engine.
    let (dataset, spec) = reference_setup(instances, features, avg_nnz, epochs);
    let (train, test) = dataset.generate_split();
    let compressor = compressor_by_name("sketchml").unwrap();
    let cluster = ClusterConfig::cluster1(workers as usize);
    let report = sketchml::train_distributed(
        &train,
        &test,
        features as usize,
        &spec,
        &cluster,
        compressor.as_ref(),
    )
    .unwrap();
    let sim_loss = report.epochs.last().unwrap().test_loss;
    let net_loss = summary.final_test_loss;
    assert_eq!(
        net_loss.to_bits(),
        sim_loss.to_bits(),
        "socket loss {net_loss} vs simulator loss {sim_loss}"
    );
}

/// The server and its workers step the simulator's training state: with
/// every round full, the server's final checkpoint — weights, optimizer
/// moments, step counter, epochs — is the driver star's, byte for byte, and
/// the peer frames the workers stepped from are the star's downlink bytes.
#[test]
#[cfg(unix)]
fn sockets_and_simulator_end_in_the_same_checkpoint_bytes() {
    let (instances, features, avg_nnz, epochs) = (900usize, 2_048u32, 32usize, 2usize);
    let (dataset, spec) = reference_setup(instances, features, avg_nnz, epochs);
    let (train, test) = dataset.generate_split();
    for codec in ["raw", "sketchml"] {
        for workers in [2usize, 3] {
            let cell = format!("{codec} × {workers} workers");
            let mut setup = ServeSetup::new(dataset.clone(), spec, workers);
            setup.batch_ratio = 0.2;
            setup.compressor = codec.into();
            setup.round_timeout_ms = 30_000;
            setup.idle_timeout_ms = 60_000;
            let path = format!(
                "{}/state-{codec}-{workers}-{}.sock",
                env!("CARGO_TARGET_TMPDIR"),
                std::process::id()
            );
            let _ = std::fs::remove_file(&path);
            let listener = sketchml::net::Listener::bind_unix(&path).expect("bind unix socket");
            let server = Server::start(setup, listener).expect("start server");
            let addr = server.addr().to_string();
            let threads: Vec<_> = (0..workers as u32)
                .map(|w| {
                    let addr = addr.clone();
                    std::thread::spawn(move || run_worker(&addr, w))
                })
                .collect();
            let peer_frame_bytes: u64 = threads
                .into_iter()
                .map(|t| {
                    let stats = t.join().expect("worker thread").expect("worker trains");
                    stats.peer_frame_bytes
                })
                .sum();
            let summary = server.wait_trained();
            assert_eq!(summary.full_rounds, summary.rounds, "{cell}: {summary:?}");
            let (epochs_done, served) = Client::connect(&addr)
                .and_then(|mut c| c.get_checkpoint())
                .expect("final checkpoint");
            server.shutdown();
            server.join();
            let _ = std::fs::remove_file(&path);

            let compressor = compressor_by_name(codec).unwrap();
            let simulated = sketchml::train_glm(
                &sketchml::GlmTask::new(&train, &test, features as usize),
                &spec,
                &ClusterConfig::cluster1(workers).with_batch_ratio(0.2),
                sketchml::Aggregation::Driver(compressor.as_ref()),
                &sketchml::FaultPlan::none(),
                None,
            )
            .unwrap();
            // Every round is full, so the simulated star's downlink is
            // exactly the peer frames the server's replies carried.
            let downlink: u64 = simulated
                .report
                .epochs
                .iter()
                .map(|e| e.downlink_bytes)
                .sum();
            assert_eq!(peer_frame_bytes, downlink, "{cell}: downlink bytes");
            let simulated = simulated
                .checkpoint
                .expect("a GLM run ends in a checkpoint")
                .to_bytes()
                .unwrap();
            assert_eq!(epochs_done, epochs as u64, "{cell}");
            assert!(served == simulated, "{cell}: checkpoints differ");
        }
    }
}

#[test]
#[cfg(unix)]
fn killed_worker_recovers_from_checkpoint_and_run_completes() {
    let serve = spawn_serve(&[
        "--workers",
        "2",
        "--epochs",
        "4",
        "--instances",
        "1200",
        "--features",
        "2048",
        "--avg-nnz",
        "24",
        "--round-sleep-ms",
        "25",
        "--idle-timeout-ms",
        "60000",
        "--round-timeout-ms",
        "1000",
        // Outlive the workers, so the pull counters can be read once they
        // are final.
        "--linger-ms",
        "1500",
    ]);
    let addr = serve.addr.clone();
    let w0 = spawn_worker(&addr, 0);
    let mut w1 = spawn_worker(&addr, 1);

    // Let training reach the first end-of-epoch checkpoint, then SIGKILL
    // worker 1 mid-run — no graceful shutdown, no flushing.
    wait_for_checkpoint(&addr);
    w1.kill().expect("kill -9 worker 1");
    w1.wait().expect("reap killed worker");

    // Without worker 1 every round closes on the one-second straggler
    // timeout. Respawn right after one did: the new process is then ready
    // early in the next round's wait, not in its last milliseconds.
    let mut poll = Client::connect(&addr).expect("connect poll client");
    let seen = published_round(&mut poll);
    let deadline = Instant::now() + Duration::from_secs(60);
    while published_round(&mut poll) == seen {
        assert!(
            Instant::now() < deadline,
            "training stopped at round {seen}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(poll);
    // The respawned process starts from the config like any worker, is two
    // or more rounds behind, and is sent the live training state instead of
    // frames (its stdout proves the restore).
    let w1b = spawn_worker(&addr, 1);

    let out0 = finish_worker(w0);
    let out = finish_worker(w1b);
    // The workers leave with the last round's frames; the server is still
    // evaluating and checkpointing the last epoch then.
    let mut client = Client::connect(&addr).expect("connect after training");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !client.get_stats().expect("stats").contains("\"done\":true") {
        assert!(Instant::now() < deadline, "the server never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (stats, (ck_epochs, blob)) = (
        client.get_stats().expect("final stats"),
        client.get_checkpoint().expect("final checkpoint"),
    );
    drop(client);
    let summary = serve.finish();
    // What the end-of-epoch checkpoint is: one v3 frame, exactly as long as
    // the state it holds needs — the same frame a restore is sent.
    assert_eq!(blob[..4], [0xC3, b'S', b'K', b'P'], "not a v3 frame");
    Checkpoint::validate(&blob).expect("served checkpoint validates");
    let ck = Checkpoint::from_bytes(&blob).expect("served checkpoint loads");
    assert_eq!((ck_epochs, ck.epochs_done, ck.model.dim()), (4, 4, 2048));
    assert!(blob.len() <= Checkpoint::encoded_len(&ck.model, &ck.optimizer));
    // One state restore brought the respawned worker level, and from its
    // first push on it was part of every round: none answered stale, none
    // closed without it. The same holds for worker 0 over the whole run, so
    // no round was partial after the rejoin.
    assert_eq!(worker_stat(&out, "states"), 1, "{out}");
    assert!(worker_stat(&out, "accepted") > 0, "{out}");
    for o in [&out0, &out] {
        assert_eq!(
            (worker_stat(o, "stale"), worker_stat(o, "dropped")),
            (0, 0),
            "{o}"
        );
    }
    assert_eq!(worker_stat(&out0, "states"), 0, "{out0}");
    assert_eq!(worker_stat(&out0, "accepted"), summary.rounds, "{out0}");
    // The rounds it missed are the only ones that can have closed partial
    // (none did if the killed process's last push was still queued).
    assert!(
        summary.partial_rounds + worker_stat(&out, "accepted") < summary.rounds,
        "{summary:?} {out}"
    );
    let doc: serde::Value = serde_json::from_str(&stats).expect("stats json");
    let stat = |key: &str| -> u64 {
        doc.as_obj()
            .and_then(|o| serde::field(o, key).ok())
            .and_then(serde::Value::as_u64)
            .unwrap_or_else(|| panic!("stats has no count {key}: {stats}"))
    };
    // No weights crossed the wire: rounds of frames, and the one state.
    assert_eq!(stat("pulls_dense"), 0, "{stats}");
    assert_eq!(stat("pulls_state"), 1, "{stats}");
    assert!(stat("pulls_round") > summary.rounds, "{stats}");
    assert_eq!(stat("rejected_pushes"), 0, "{stats}");
    // The server's own account of its epoch ends.
    assert_eq!(stat("checkpoint_bytes"), blob.len() as u64, "{stats}");
    let ms = |key: &str| -> f64 {
        doc.as_obj()
            .and_then(|o| serde::field(o, key).ok())
            .and_then(serde::Value::as_f64)
            .unwrap_or_else(|| panic!("stats has no timing {key}: {stats}"))
    };
    assert!(
        0.0 < ms("epoch_end_ms_last") && ms("epoch_end_ms_last") <= ms("epoch_end_ms_max"),
        "{stats}"
    );
    // And of its round steps: combine, optimizer step, snapshot publish.
    assert!(
        0.0 < ms("round_step_ms_last") && ms("round_step_ms_last") <= ms("round_step_ms_max"),
        "{stats}"
    );
    assert!(!summary.aborted, "run did not complete: {summary:?}");
    assert_eq!(summary.epochs_done, 4);
    assert!(
        summary.rounds > 0 && summary.final_test_loss.is_finite(),
        "bad summary: {summary:?}"
    );
}

#[test]
fn predict_is_served_concurrently_with_training() {
    let serve = spawn_serve(&[
        "--workers",
        "2",
        "--epochs",
        "3",
        "--instances",
        "1000",
        "--features",
        "2048",
        "--avg-nnz",
        "24",
        "--round-sleep-ms",
        "20",
        "--idle-timeout-ms",
        "60000",
        // Keep serving for a second after training so the inference client
        // observes `done` through a pull instead of a torn-down socket.
        "--linger-ms",
        "1000",
    ]);
    let addr = serve.addr.clone();
    let w0 = spawn_worker(&addr, 0);
    let w1 = spawn_worker(&addr, 1);

    // Inference client on the same port while training is in flight.
    let mut client = Client::connect(&addr).expect("connect inference client");
    let batch: Vec<PredictInstance> = (0..16)
        .map(|i| PredictInstance {
            indices: vec![i, i + 17, i + 512, 2_000],
            values: vec![1.0, -0.5, 0.25, 2.0],
        })
        .collect();
    let mut served = 0usize;
    let mut round_low = u64::MAX;
    let mut round_high = 0u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while Instant::now() < deadline {
        let scores = client
            .predict(batch.clone())
            .expect("predict during training");
        assert_eq!(scores.len(), batch.len());
        assert!(scores.iter().all(|s| s.is_finite()), "non-finite score");
        served += 1;
        let view = client.pull_model(0, 0, false).expect("pull for progress");
        round_low = round_low.min(view.round);
        round_high = round_high.max(view.round);
        if view.done {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let summary = serve.finish();
    finish_worker(w0);
    finish_worker(w1);

    assert!(!summary.aborted);
    assert!(served >= 10, "only {served} predict batches served");
    // The model advanced underneath the inference client: proof the same
    // port was training and serving at once.
    assert!(
        round_high > round_low,
        "model never advanced while predicting (rounds {round_low}..{round_high})"
    );
    let stats = summary_predicts(&addr);
    assert!(stats, "server stats did not count the predict traffic");
}

/// True if a fresh stats pull shows predict traffic (the server keeps
/// serving stats after training until shutdown; by the time `finish()`
/// returned the server has exited, so count via the summary-time client
/// having succeeded instead when connect fails).
fn summary_predicts(addr: &str) -> bool {
    match Client::connect(addr) {
        Ok(mut c) => match c.get_stats() {
            Ok(json) => json.contains("\"predicts\":"),
            Err(_) => true,
        },
        // Server already exited — every predict above was still answered.
        Err(_) => true,
    }
}

#[test]
fn serve_refuses_a_dataset_it_cannot_generate() {
    // A spec the generator would panic on must fail before SERVE_READY;
    // failing in the trainer thread left the process running forever. A
    // feature count past `u32` was truncated to one feature and served; it
    // is a usage error (exit code 2) now.
    for (args, code) in [(["--avg-nnz", "0"], 1), (["--features", "4294967297"], 2)] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sketchml-serve"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sketchml-serve");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().expect("poll serve") {
                break status;
            }
            if Instant::now() >= deadline {
                child.kill().expect("stop the hung server");
                child.wait().expect("reap server");
                panic!("sketchml-serve {args:?} still running after 10 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        let out = child.wait_with_output().expect("read serve stdout");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            status.code(),
            Some(code),
            "{args:?}: serve exited with {status:?}"
        );
        assert!(
            !stdout.contains("SERVE_READY"),
            "{args:?}: serve got ready: {stdout}"
        );
    }
}

#[test]
fn a_setup_with_an_empty_test_split_is_refused() {
    let setup = |instances: usize| {
        let (dataset, spec) = reference_setup(instances, 256, 8, 1);
        let mut setup = ServeSetup::new(dataset, spec, 1);
        setup.batch_ratio = 0.5;
        setup
    };
    // round(0.75 · N) leaves nothing to test on below three instances.
    for instances in [1, 2] {
        match Server::bind_tcp(setup(instances), "127.0.0.1:0") {
            Err(NetError::InvalidConfig(_)) => {}
            Err(e) => panic!("{instances} instances: {e}"),
            Ok(_) => panic!("{instances} instances started a server"),
        }
    }
    let server = Server::bind_tcp(setup(3), "127.0.0.1:0").expect("3 instances start");
    let stats = run_worker(server.addr(), 0).expect("worker trains");
    let summary = server.wait_trained();
    server.shutdown();
    server.join();
    assert!(stats.pushes_accepted > 0, "{stats:?}");
    assert_eq!(summary.epochs_done, 1, "{summary:?}");
    assert!(summary.final_test_loss > 0.0, "{summary:?}");
}

/// One epoch of one worker on `instances` instances at d = 2^14; the
/// server's peak RSS (`VmHWM`) in bytes, read while it lingers after
/// training (a reaped process has no status).
#[cfg(target_os = "linux")]
fn serve_peak_rss(instances: usize) -> u64 {
    let mut serve = spawn_serve(&[
        "--workers",
        "1",
        "--epochs",
        "1",
        "--instances",
        &instances.to_string(),
        "--features",
        "16384",
        "--avg-nnz",
        "40",
        "--batch-ratio",
        "0.5",
        "--idle-timeout-ms",
        "120000",
        "--linger-ms",
        "30000",
    ]);
    finish_worker(spawn_worker(&serve.addr, 0));
    let mut client = Client::connect(&serve.addr).expect("connect stats client");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !client.get_stats().expect("stats").contains("\"done\":true") {
        assert!(Instant::now() < deadline, "the server never finished");
        std::thread::sleep(Duration::from_millis(5));
    }
    let status = std::fs::read_to_string(format!("/proc/{}/status", serve.child.id()))
        .expect("read server status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no VmHWM in {status}"));
    serve.child.kill().expect("stop the lingering server");
    serve.child.wait().expect("reap server");
    kb * 1024
}

#[test]
#[cfg(target_os = "linux")]
fn the_servers_memory_follows_the_test_split_not_the_dataset() {
    // The server evaluates on the test split and reads no train instance,
    // so a dataset-dominated run may grow it by the test quarter, not by
    // the whole dataset.
    let instances = 60_000;
    let (dataset, _) = reference_setup(instances, 1 << 14, 40, 1);
    let nnz: usize = dataset.generate().iter().map(|i| i.features.nnz()).sum();
    let dataset_bytes = 12 * nnz as u64; // a u32 index and an f64 value each
    let baseline = serve_peak_rss(200);
    let peak = serve_peak_rss(instances);
    let growth = peak.saturating_sub(baseline);
    assert!(
        growth < dataset_bytes / 2,
        "server peak RSS grew {growth} B over the tiny run ({baseline} B) for a \
         {dataset_bytes} B dataset"
    );
}
