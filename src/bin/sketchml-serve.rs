//! `sketchml-serve` — the driver process of the live parameter server.
//!
//! Binds a socket, serves `GetConfig`/`PushGradient`/`PullRound` to worker
//! processes (a `PullRound` is answered with the round's frames, or with a
//! `State` reply carrying the live training state to a worker that must
//! catch up), `PullModel` to monitors and tests and `Predict` to inference
//! clients, trains until `--epochs` complete, then prints a JSON summary and
//! exits.
//!
//! ```text
//! sketchml-serve --addr tcp://127.0.0.1:0 --workers 4 --epochs 3
//! ```
//!
//! Readiness handshake (consumed by the integration tests and by scripts):
//! once the socket is bound the process prints exactly one line
//! `SERVE_READY addr=<resolved address>` to stdout, and after training it
//! prints `SERVE_STATS <GetStats json>` then `SERVE_DONE <summary json>`.

use sketchml::data::{SparseDatasetSpec, Task};
use sketchml::ml::GlmLoss;
use sketchml::net::{Listener, ServeSetup, Server};
use sketchml::TrainSpec;
use std::io::Write;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: sketchml-serve [--addr tcp://127.0.0.1:0 | unix:///path] [--workers N] \
         [--epochs N] [--instances N] [--features N] [--avg-nnz N] [--batch-ratio F] \
         [--compressor NAME] [--seed N] [--round-timeout-ms N] [--idle-timeout-ms N] \
         [--round-sleep-ms N] [--linger-ms N]"
    );
    ExitCode::from(2)
}

struct Args {
    addr: String,
    workers: usize,
    epochs: usize,
    instances: usize,
    features: u32,
    avg_nnz: usize,
    batch_ratio: f64,
    compressor: String,
    seed: u64,
    round_timeout_ms: u64,
    idle_timeout_ms: u64,
    round_sleep_ms: u64,
    /// Keep serving Predict for this long after training completes.
    linger_ms: u64,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut a = Args {
            addr: "tcp://127.0.0.1:0".into(),
            workers: 4,
            epochs: 2,
            instances: 2_000,
            features: 4_096,
            avg_nnz: 32,
            batch_ratio: 0.1,
            compressor: "sketchml".into(),
            seed: 0x7EA1,
            round_timeout_ms: 2_000,
            idle_timeout_ms: 30_000,
            round_sleep_ms: 0,
            linger_ms: 0,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--addr" => a.addr = val()?,
                "--workers" => a.workers = num(&val()?)?,
                "--epochs" => a.epochs = num(&val()?)?,
                "--instances" => a.instances = num(&val()?)?,
                "--features" => a.features = num(&val()?)?,
                "--avg-nnz" => a.avg_nnz = num(&val()?)?,
                "--batch-ratio" => {
                    a.batch_ratio = val()?.parse().map_err(|e| format!("batch-ratio: {e}"))?;
                }
                "--compressor" => a.compressor = val()?,
                "--seed" => a.seed = num(&val()?)?,
                "--round-timeout-ms" => a.round_timeout_ms = num(&val()?)?,
                "--idle-timeout-ms" => a.idle_timeout_ms = num(&val()?)?,
                "--round-sleep-ms" => a.round_sleep_ms = num(&val()?)?,
                "--linger-ms" => a.linger_ms = num(&val()?)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(a)
    }
}

/// Parses a count into the type of the field it sets: a value that type
/// cannot hold is refused, never truncated.
fn num<T: std::str::FromStr>(s: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| format!("{s}: {e}"))
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sketchml-serve: {e}");
            return usage();
        }
    };
    let dataset = SparseDatasetSpec {
        name: "serve".into(),
        instances: args.instances,
        features: args.features,
        avg_nnz: args.avg_nnz,
        skew: 1.1,
        label_noise: 0.05,
        task: Task::Classification,
        seed: args.seed ^ 0xDA7A,
    };
    let mut spec = TrainSpec::paper(GlmLoss::Logistic, 0.05, args.epochs);
    spec.seed = args.seed;
    let mut setup = ServeSetup::new(dataset, spec, args.workers);
    setup.batch_ratio = args.batch_ratio;
    setup.compressor = args.compressor;
    setup.round_timeout_ms = args.round_timeout_ms;
    setup.idle_timeout_ms = args.idle_timeout_ms;
    setup.round_sleep_ms = args.round_sleep_ms;

    let listener = match bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("sketchml-serve: bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(setup, listener) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sketchml-serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The readiness line carries the OS-resolved port for `--addr ...:0`.
    println!("SERVE_READY addr={}", server.addr());
    std::io::stdout().flush().ok();

    let summary = server.wait_trained();
    if args.linger_ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(args.linger_ms));
    }
    // The server's own account of the run: request and byte counters, how
    // long its epoch ends took, the size of the checkpoint it serves.
    println!("SERVE_STATS {}", server.stats_json());
    let json = serde_json::to_string(&summary).unwrap_or_else(|_| "{}".into());
    println!("SERVE_DONE {json}");
    std::io::stdout().flush().ok();
    server.shutdown();
    let summary = server.join();
    if summary.aborted {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn bind(addr: &str) -> std::io::Result<Listener> {
    if let Some(path) = addr.strip_prefix("unix://") {
        #[cfg(unix)]
        return Listener::bind_unix(path);
        #[cfg(not(unix))]
        return Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            format!("unix sockets unavailable: {path}"),
        ));
    }
    Listener::bind_tcp(addr.strip_prefix("tcp://").unwrap_or(addr))
}
