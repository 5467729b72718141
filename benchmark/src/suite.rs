//! Everything `run.sh` does besides one run of one workload: the full set
//! (each run in a child process of this program, so every run is exactly
//! what the single-run command measures and no run inherits another's
//! memory high-water mark), `--repeat K --check`, `--smoke` and
//! `--selftest`.

use crate::stats::{get, iqr_share, median, obj, text};
use crate::workloads::{LINK_100MBIT, WORKLOADS};
use crate::{relay, socket, Args, Contract, Declared};
use serde::Value;
use std::process::{Command, Stdio};

/// `--selftest`: the full-size relay check (50 MB through the 12.5 MB/s
/// link must take 4.0 s within 3 %).
pub fn selftest(args: &Args) -> Result<i32, String> {
    let dir = socket::run_dir(&args.out_dir).map_err(|e| e.to_string())?;
    let st = relay::selftest(&dir, LINK_100MBIT, 50_000_000);
    let _ = std::fs::remove_dir_all(&dir);
    let st = st.map_err(|e| format!("relay self-test: {e}"))?;
    let seconds = st.throttled_bytes as f64 / LINK_100MBIT * (1.0 + st.rate_error_pct / 100.0);
    println!(
        "relay: {} bytes through {} B/s took {seconds:.3} s",
        st.throttled_bytes, LINK_100MBIT
    );
    println!(
        "  relay.rate_error_pct          {:>10.3} %",
        st.rate_error_pct
    );
    println!(
        "  relay.passthrough_ms_per_mb   {:>10.4} ms/MB",
        st.passthrough_ms_per_mb
    );
    println!(
        "  split-at-any-byte forwarding  {:>10}",
        if st.split_ok {
            "loss-free"
        } else {
            "LOST BYTES"
        }
    );
    println!(
        "self-test {}",
        if st.passed() { "passed" } else { "FAILED" }
    );
    Ok(i32::from(!st.passed()))
}

/// nproc, CPU model, toolchain, commit, features and load: what a reader
/// needs to compare these numbers with someone else's.
fn environment(args: &Args) -> (Value, f64, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0);
    let env = obj(vec![
        ("nproc", Value::U64(nproc as u64)),
        ("cpu_model", text(cpu)),
        ("rustc", text(args.rustc.clone())),
        ("git_commit", text(args.commit.clone())),
        ("cargo_features", text("default")),
        ("loadavg_1m_at_start", Value::F64(load1)),
        ("loadavg_above_nproc", Value::Bool(load1 > nproc as f64)),
    ]);
    (env, load1, nproc)
}

/// One child run's parsed last line.
struct ChildRun {
    workload: &'static str,
    trace: bool,
    repeat: usize,
    correct: bool,
    result: Value,
}

fn run_child(
    args: &Args,
    workload: &'static str,
    trace: bool,
    repeat: usize,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--bin-dir")
        .arg(&args.bin_dir)
        .arg("--out-dir")
        .arg(&args.out_dir)
        .arg("--contract")
        .arg(&args.contract)
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.args(["--smoke", "--seconds", "1"]);
    } else if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    let out = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !args.smoke {
        // Every metric by name with its unit, as the single run printed it.
        for line in stdout.lines().filter(|l| !l.starts_with('{')) {
            println!("{line}");
        }
    }
    let last = stdout.lines().last().unwrap_or("");
    let result: Value = serde_json::from_str(last).map_err(|_| {
        format!(
            "{workload} (trace {}) printed no result and exited with {}",
            u8::from(trace),
            out.status
        )
    })?;
    let correct =
        matches!(get(&result, "correct"), Some(Value::Bool(true))) && out.status.success();
    Ok(ChildRun {
        workload,
        trace,
        repeat,
        correct,
        result,
    })
}

fn metric_value(run: &ChildRun, name: &str) -> Option<f64> {
    get(get(get(&run.result, "metrics")?, name)?, "value")?.as_f64()
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
fn worse_by(d: &Declared, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if d.better == "higher" {
        -change
    } else {
        change
    }
}

/// End-to-end metrics that depend on nothing but the seed: two runs of the
/// same code with the same seed must agree on them to the last bit.
const DETERMINISTIC: [&str; 1] = ["test_error"];

/// The full set: every workload `--repeat` times, workloads interleaved.
pub fn run_all(args: &Args, contract: &Contract) -> Result<i32, String> {
    let (env, load1, nproc) = environment(args);
    if load1 > nproc as f64 {
        eprintln!("WARNING: load average {load1:.2} exceeds nproc {nproc}; timings will be noisy");
    }
    if !args.smoke {
        let code = selftest(args)?;
        if code != 0 {
            eprintln!("the throttled workloads will refuse to publish numbers");
        }
    }

    let mut runs: Vec<ChildRun> = Vec::new();
    let mut failures = 0;
    for repeat in 0..args.repeat {
        for w in &WORKLOADS {
            let traces: &[bool] = if args.trace { &[false, true] } else { &[false] };
            for &trace in traces {
                match run_child(args, w.name, trace, repeat) {
                    Ok(run) => {
                        if !run.correct {
                            failures += 1;
                        }
                        if args.smoke {
                            println!(
                                "smoke {:<20} {}",
                                w.name,
                                if run.correct { "ok" } else { "FAILED" }
                            );
                        }
                        runs.push(run);
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        failures += 1;
                    }
                }
            }
        }
    }

    let values_of = |workload: &str, metric: &str, repeats: std::ops::Range<usize>| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.workload == workload && !r.trace && repeats.contains(&r.repeat))
            .filter_map(|r| metric_value(r, metric))
            .collect()
    };
    let mut disagreements = 0;
    if args.repeat >= 2 && !args.smoke {
        // Run-to-run spread: the distance between the quartiles as a share
        // of the median, over all repeats.
        println!(
            "\n{:<20} {:<12} {:>3} {:>14} {:>8}",
            "workload", "metric", "n", "median", "spread"
        );
        for w in &WORKLOADS {
            for d in &contract.end_to_end {
                let values = values_of(w.name, &d.name, 0..args.repeat);
                println!(
                    "{:<20} {:<12} {:>3} {:>14.6} {:>7.2}%",
                    w.name,
                    d.name,
                    values.len(),
                    median(&values),
                    iqr_share(&values) * 100.0
                );
            }
        }
    }
    if args.check && args.repeat >= 2 {
        // The median over the first half of the repeats against the median
        // over the second half. A metric that is a pure function of the seed
        // has to repeat exactly.
        println!(
            "\n{:<20} {:<12} {:>14} {:>14} {:>9} {:>6}",
            "workload", "metric", "first", "second", "gap", "bound"
        );
        for w in &WORKLOADS {
            for d in &contract.end_to_end {
                let first = median(&values_of(w.name, &d.name, 0..args.repeat / 2));
                let second = median(&values_of(w.name, &d.name, args.repeat / 2..args.repeat));
                let gap = worse_by(d, first, second).abs();
                let bound = if DETERMINISTIC.contains(&d.name.as_str()) {
                    0.0
                } else {
                    d.bound.unwrap_or(0.0)
                };
                let verdict = if gap > bound { "  DISAGREE" } else { "" };
                if gap > bound {
                    disagreements += 1;
                }
                println!(
                    "{:<20} {:<12} {first:>14.6} {second:>14.6} {:>8.2}% {:>5.0}%{verdict}",
                    w.name,
                    d.name,
                    gap * 100.0,
                    bound * 100.0
                );
            }
        }
    }

    let results = obj(vec![
        ("env", env),
        ("seed", Value::U64(args.seed)),
        (
            "runs",
            Value::Arr(
                runs.iter()
                    .map(|r| {
                        obj(vec![
                            ("workload", text(r.workload)),
                            ("trace", Value::Bool(r.trace)),
                            ("repeat", Value::U64(r.repeat as u64)),
                            ("result", r.result.clone()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    if !args.smoke {
        let path = args.out_dir.join("results.json");
        let json = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
        std::fs::write(&path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nresults and environment written to {}", path.display());
    }
    if failures > 0 {
        eprintln!("{failures} run(s) failed");
    }
    if disagreements > 0 {
        eprintln!("{disagreements} end-to-end metric(s) disagree beyond their bound");
    }
    Ok(i32::from(failures > 0 || disagreements > 0))
}
