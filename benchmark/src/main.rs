//! The repository's benchmark harness. `benchmark/run.sh` builds the shipped
//! binaries and this program, then hands its arguments over.
//!
//! One run of one workload (`--workload NAME --seed N --seconds S --trace
//! 0|1`) prints every metric by name with its unit and, as the last line of
//! standard output, one JSON object `{correct, attempted, failed, metrics}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Without `--workload` the program runs every workload that
//! way in child processes of its own and writes the collected results and
//! the environment to `benchmark/out/`.

mod inproc;
mod relay;
mod replay;
mod socket;
mod stats;
mod suite;
mod trace;
mod workloads;

use stats::{get, median, obj, percentile, text};
use std::path::PathBuf;
use workloads::{Kind, Scale, Task, Workload, LINK_100MBIT};

/// One measured value; its unit comes from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
}

impl Metric {
    /// A metric row.
    pub fn new(name: impl Into<String>, value: f64) -> Metric {
        Metric {
            name: name.into(),
            value,
        }
    }
}

/// Operations attempted and failed in one run: rounds, child processes,
/// predict calls and every correctness check count alike.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.count(what, 1, u64::from(!ok));
    }

    /// Records `attempted` operations of which `failed` failed.
    pub fn count(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("FAILED: {what} ({failed} of {attempted})");
        }
    }
}

/// A metric `BENCHMARK.json` declares.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Allowed worsening as a share of the other side's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness reads: it is the one place
/// metric names, units and bounds are written down.
#[derive(Debug, Clone)]
pub struct Contract {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// End-to-end metrics.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

impl Contract {
    fn load(path: &std::path::Path) -> Result<Contract, String> {
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v: serde::Value =
            serde_json::from_str(&raw).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Result<Vec<Declared>, String> {
            get(&v, key)
                .and_then(serde::Value::as_arr)
                .ok_or(format!("BENCHMARK.json has no `{key}` list"))?
                .iter()
                .map(|m| {
                    let s = |k: &str| get(m, k).and_then(serde::Value::as_str).map(String::from);
                    Some(Declared {
                        name: s("name")?,
                        unit: s("unit")?,
                        better: s("better")?,
                        bound: get(m, "bound").and_then(serde::Value::as_f64),
                    })
                })
                .collect::<Option<_>>()
                .ok_or(format!("BENCHMARK.json: malformed entry in `{key}`"))
        };
        Ok(Contract {
            run_seconds: get(&v, "run_seconds")
                .and_then(serde::Value::as_f64)
                .ok_or("BENCHMARK.json has no `run_seconds`")?,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
    check: bool,
    selftest: bool,
    smoke: bool,
    bin_dir: PathBuf,
    out_dir: PathBuf,
    contract: PathBuf,
    /// Recorded in the environment block of a full run.
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        repeat: 1,
        check: false,
        selftest: false,
        smoke: false,
        bin_dir: PathBuf::from("target/release"),
        out_dir: PathBuf::from("benchmark/out"),
        contract: PathBuf::from("BENCHMARK.json"),
        rustc: String::new(),
        commit: String::new(),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let value =
            |it: &mut dyn Iterator<Item = String>| it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it)?),
            "--seed" => {
                a.seed = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = Some(
                    value(&mut it)?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            // `--trace` alone switches tracing on; `--trace 0|1` is how the
            // driver spells it.
            "--trace" => {
                a.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                a.repeat = value(&mut it)?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--check" => a.check = true,
            "--selftest" => a.selftest = true,
            "--smoke" => a.smoke = true,
            "--bin-dir" => a.bin_dir = PathBuf::from(value(&mut it)?),
            "--out-dir" => a.out_dir = PathBuf::from(value(&mut it)?),
            "--contract" => a.contract = PathBuf::from(value(&mut it)?),
            "--rustc" => a.rustc = value(&mut it)?,
            "--commit" => a.commit = value(&mut it)?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(a)
}

/// What one run of one workload produced.
struct RunOutput {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    /// Sample counts behind the percentiles, for the human-readable lines.
    notes: Vec<String>,
}

/// The five end-to-end rows every workload reports, and the op's 90th
/// percentile among the per-layer rows (it does not hold a 20 % spread on a
/// host that steals CPU time in phases, so no bound is put on it). `op` is
/// the workload's unit of work: a training round, a predict call, one
/// gradient's codec round trip, or one allreduce training call. An epoch is
/// 20 rounds with the evaluation and checkpoint that end it; for the codec,
/// one pass over the harvested gradients.
fn end_to_end_rows(
    layers: &mut Vec<Metric>,
    setup_s: f64,
    epoch_s: &[f64],
    op_ms: &[f64],
    test_error: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    layers.push(Metric::new("op_ms_p90", percentile(op_ms, 90.0)));
    vec![
        Metric::new("setup_s", setup_s),
        Metric::new("epoch_s", median(epoch_s)),
        Metric::new("op_ms_p50", median(op_ms)),
        Metric::new("test_error", test_error),
        Metric::new("peak_rss_mb", peak_rss_mb),
    ]
}

/// No throttled number is published over a relay that loses bytes or runs
/// faster than its rate. A transfer slower than its rate is reported and
/// tolerated in a single run (`--selftest` and the full run hold it to 3 %
/// both ways over 50 MB): at 6 MB one scheduling hiccup of the host is 3 %.
fn throttle_gate(dir: &std::path::Path, workload: &str) -> Result<(), String> {
    let st = relay::selftest(dir, LINK_100MBIT, 6_250_000)
        .map_err(|e| format!("relay self-test: {e}"))?;
    if !st.sound() {
        return Err(format!(
            "relay self-test failed (rate error {:.2} %, split ok {}); \
             refusing to publish {workload}",
            st.rate_error_pct, st.split_ok
        ));
    }
    if !st.passed() {
        eprintln!(
            "WARNING: the relay ran {:.2} % under its rate in the self-test; \
             the host is not scheduling it on time",
            st.rate_error_pct
        );
    }
    Ok(())
}

fn run_workload(
    args: &Args,
    workload: &Workload,
    seconds: f64,
    checks: &mut Checks,
) -> Result<RunOutput, String> {
    let dir = socket::run_dir(&args.out_dir).map_err(|e| format!("run directory: {e}"))?;
    let out = run_workload_in(args, workload, seconds, checks, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn run_workload_in(
    args: &Args,
    workload: &Workload,
    seconds: f64,
    checks: &mut Checks,
    dir: &std::path::Path,
) -> Result<RunOutput, String> {
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let task = Task::new(workload, args.seed, seconds, scale);
    // Set-up is done this many times per run and its median reported.
    let setup_samples = if args.smoke { 1 } else { 4 };
    let bin_dir = args
        .bin_dir
        .canonicalize()
        .map_err(|e| format!("--bin-dir {}: {e}", args.bin_dir.display()))?;
    let mut layers: Vec<Metric> = Vec::new();
    let mut notes = Vec::new();
    let mut observed_round_ms = 0.0;

    let rows = match workload.kind {
        Kind::Socket { throttled, predict } => {
            if throttled {
                throttle_gate(dir, workload.name)?;
            }
            let out = socket::run(
                &bin_dir,
                dir,
                &task,
                throttled,
                predict,
                setup_samples,
                checks,
            )?;
            let round_p50 = median(&out.round_ms);
            observed_round_ms = round_p50;
            layers.push(Metric::new("net.round_ms_p50", round_p50));
            layers.push(Metric::new(
                "net.round_ms_p90",
                percentile(&out.round_ms, 90.0),
            ));
            layers.push(Metric::new(
                "net.epoch_stall_ms",
                median(&out.boundary_ms) - round_p50,
            ));
            layers.push(Metric::new("net.link_busy_share", out.link_busy_share));
            layers.push(Metric::new("net.train_wall_s", out.wall_s));
            if let Some(c) = &out.relay {
                let rounds = out.rounds.max(1) as f64;
                layers.push(Metric::new(
                    "relay.bytes_up_per_round",
                    c.up.bytes as f64 / rounds,
                ));
                layers.push(Metric::new(
                    "relay.bytes_down_per_round",
                    c.down.bytes as f64 / rounds,
                ));
            }
            if predict {
                layers.push(Metric::new("net.predict_ms_p50", median(&out.predict_ms)));
                layers.push(Metric::new(
                    "net.predict_ms_p99",
                    percentile(&out.predict_ms, 99.0),
                ));
                layers.push(Metric::new(
                    "net.predict_qps",
                    out.predict_ms.len() as f64 / out.wall_s.max(1e-9),
                ));
            }
            notes.push(format!(
                "{} epochs, {} rounds ({} timed, {} across an epoch end), {} predict calls; \
                 round times are quantised to the monitor's {} ms poll",
                out.epoch_s.len(),
                out.rounds,
                out.round_ms.len(),
                out.boundary_ms.len(),
                out.predict_ms.len(),
                socket::MONITOR_PERIOD.as_millis()
            ));
            let op_ms = if predict {
                &out.predict_ms
            } else {
                &out.round_ms
            };
            checks.check(
                "best test loss is under the ceiling",
                out.best_test_loss < workloads::LOSS_CEILING,
            );
            let (train, test) = task.dataset().generate_split();
            let exact = inproc::exact_best_loss(&task, task.epochs, &train, &test)?;
            layers.push(Metric::new("ml.best_test_loss", out.best_test_loss));
            layers.push(Metric::new("ml.exact_test_loss", exact));
            end_to_end_rows(
                &mut layers,
                out.setup_s,
                &out.epoch_s,
                op_ms,
                out.best_test_loss / exact,
                out.peak_rss_mb,
            )
        }
        Kind::Codec => {
            let out = inproc::run_codec(&task, seconds, setup_samples, checks)?;
            let mpairs = |ms: &[f64]| out.pairs_per_gradient / (median(ms) / 1e3) / 1e6;
            layers.push(Metric::new(
                "core.encode_mpairs_per_s",
                mpairs(&out.encode_ms),
            ));
            layers.push(Metric::new(
                "core.decode_mpairs_per_s",
                mpairs(&out.decode_ms),
            ));
            layers.push(Metric::new("core.bytes_per_pair", out.bytes_per_pair));
            notes.push(format!(
                "{} round trips over {} harvested gradients of {:.0} pairs",
                out.roundtrip_ms.len(),
                inproc::HARVEST,
                out.pairs_per_gradient
            ));
            end_to_end_rows(
                &mut layers,
                out.setup_s,
                &out.pass_s,
                &out.roundtrip_ms,
                out.rel_l2_err,
                socket::peak_rss_mb("self").unwrap_or(0.0),
            )
        }
        Kind::Allreduce => {
            let out = inproc::run_allreduce(&task, seconds, setup_samples, checks)?;
            layers.push(Metric::new(
                "collectives.wire_bytes_per_round",
                out.wire_bytes_per_round,
            ));
            notes.push(format!(
                "{} calls of {} epoch(s)",
                out.call_s.len(),
                inproc::ALLREDUCE_EPOCHS
            ));
            checks.check(
                "best test loss is under the ceiling",
                out.best_test_loss < workloads::LOSS_CEILING,
            );
            layers.push(Metric::new("ml.best_test_loss", out.best_test_loss));
            layers.push(Metric::new("ml.exact_test_loss", out.exact_test_loss));
            let call_ms: Vec<f64> = out.call_s.iter().map(|s| s * 1e3).collect();
            end_to_end_rows(
                &mut layers,
                out.setup_s,
                &out.call_s,
                &call_ms,
                out.best_test_loss / out.exact_test_loss,
                socket::peak_rss_mb("self").unwrap_or(0.0),
            )
        }
    };

    if args.trace {
        let rounds = if args.smoke { 4 } else { replay::ROUNDS };
        let (rows, tracer, train) = replay::replay(&task, rounds, observed_round_ms)?;
        layers.extend(rows);
        layers.extend(replay::probes(&task, &train, dir)?);
        let path = args.out_dir.join(format!("trace-{}.json", workload.name));
        let json = serde_json::to_string(&tracer.to_json()).map_err(|e| e.to_string())?;
        std::fs::write(&path, json + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans of {} replayed rounds written to {}",
            tracer.spans().len(),
            rounds,
            path.display()
        ));
    }
    Ok(RunOutput {
        end_to_end: rows,
        per_layer: layers,
        notes,
    })
}

/// Runs one workload and prints its result; the exit code.
fn run_single(args: &Args, name: &str, contract: &Contract) -> Result<i32, String> {
    let workload = workloads::by_name(name).ok_or(format!("unknown workload {name}"))?;
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let mut checks = Checks::default();
    let out = run_workload(args, &workload, seconds, &mut checks)?;

    // The JSON carries exactly the declared names: a per-layer metric the
    // workload has nothing to say about reads 0 (the layer did no work).
    let (declared, measured) = if args.trace {
        (&contract.per_layer, &out.per_layer)
    } else {
        (&contract.end_to_end, &out.end_to_end)
    };
    if let Some(m) = measured
        .iter()
        .find(|m| !declared.iter().any(|d| d.name == m.name))
    {
        return Err(format!("{} is measured but not in BENCHMARK.json", m.name));
    }
    if let Some(d) = contract
        .end_to_end
        .iter()
        .find(|d| !out.end_to_end.iter().any(|m| m.name == d.name))
    {
        return Err(format!("end-to-end metric {} was not measured", d.name));
    }
    if let Some(m) = measured.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", m.name));
    }
    let unit_of = |name: &str| {
        contract
            .end_to_end
            .iter()
            .chain(&contract.per_layer)
            .find(|d| d.name == name)
            .map_or("", |d| d.unit.as_str())
    };
    println!("workload {name} seed {} seconds {seconds}", args.seed);
    for note in &out.notes {
        println!("  # {note}");
    }
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        println!("  {:<44} {:>16.6} {}", m.name, m.value, unit_of(&m.name));
    }
    let metrics: Vec<(String, serde::Value)> = declared
        .iter()
        .map(|d| {
            let value = measured
                .iter()
                .find(|m| m.name == d.name)
                .map_or(0.0, |m| m.value);
            (
                d.name.clone(),
                obj(vec![
                    ("value", serde::Value::F64(value)),
                    ("unit", text(d.unit.clone())),
                ]),
            )
        })
        .collect();
    let correct = checks.failed == 0;
    let line = obj(vec![
        ("correct", serde::Value::Bool(correct)),
        ("attempted", serde::Value::U64(checks.attempted.max(1))),
        ("failed", serde::Value::U64(checks.failed)),
        ("metrics", serde::Value::Obj(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    Ok(i32::from(!correct))
}

fn main() {
    let code = (|| -> Result<i32, String> {
        let args = parse_args()?;
        std::fs::create_dir_all(&args.out_dir)
            .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
        if args.selftest {
            return suite::selftest(&args);
        }
        let contract = Contract::load(&args.contract)?;
        match &args.workload {
            Some(name) => run_single(&args, name, &contract),
            None => suite::run_all(&args, &contract),
        }
    })();
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("sketchml-benchmark: {e}");
            std::process::exit(2);
        }
    }
}
