//! `sketchml-worker` — one training worker process of the live parameter
//! server.
//!
//! Connects to a running `sketchml-serve`, fetches the session config,
//! regenerates its identical dataset shard schedule, builds its replica of
//! model and optimizer, and participates in training (compute gradient →
//! compress → push → pull the round's frames → step the replica) until the
//! server reports training done. A respawned worker joining mid-training is
//! sent the server's live training state on its first pull and restores
//! from it (the crash-recovery path).
//!
//! ```text
//! sketchml-worker --addr tcp://127.0.0.1:4242 --worker 0
//! ```
//!
//! On completion prints `WORKER_DONE worker=<id> accepted=<n> stale=<n>
//! dropped=<n> rounds=<n> states=<n>` (the last two count its pulls by the
//! frame that answered them; `states` is 0 unless it rejoined or fell two
//! rounds behind).

use sketchml::net::run_worker;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut addr = None;
    let mut worker: Option<u32> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--addr", Some(v)) => addr = Some(v),
            ("--worker", Some(v)) => match v.parse() {
                Ok(id) => worker = Some(id),
                Err(e) => {
                    eprintln!("sketchml-worker: --worker {v}: {e}");
                    return ExitCode::from(2);
                }
            },
            (other, _) => {
                eprintln!("sketchml-worker: unknown or valueless flag {other}");
                eprintln!("usage: sketchml-worker --addr tcp://host:port --worker ID");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(addr), Some(worker)) = (addr, worker) else {
        eprintln!("usage: sketchml-worker --addr tcp://host:port --worker ID");
        return ExitCode::from(2);
    };
    match run_worker(&addr, worker) {
        Ok(stats) => {
            println!(
                "WORKER_DONE worker={worker} accepted={} stale={} dropped={} rounds={} states={}",
                stats.pushes_accepted,
                stats.pushes_stale,
                stats.pushes_dropped,
                stats.pulls_round,
                stats.pulls_state
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sketchml-worker: worker {worker}: {e}");
            ExitCode::FAILURE
        }
    }
}
