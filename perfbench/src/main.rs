//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload sweep_cold|serve_mixed|explore_grid --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the system from outside through its public API and prints, as
//! the last stdout line, one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See `README.md` beside this file for the
//! workloads, the metrics, and why they are shaped this way.
//!
//! The process re-executes itself as a child whose stderr goes to a log
//! file under `.bench_run/`: the server's per-request stderr log line
//! stays on the served path, but its bytes never reach the caller.

mod explore_grid;
mod report;
mod rng;
mod serve_mixed;
mod sweep_cold;
mod trace;

use report::Outcome;
use std::fs::File;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench --workload sweep_cold|serve_mixed|explore_grid \
                     --seed N --seconds S --trace 0|1";

const WORKLOADS: &[&str] = &["sweep_cold", "serve_mixed", "explore_grid"];

/// Engine worker threads, and the cap on client threads or connections:
/// the benchmark host has two cores.
pub const JOBS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Ops started this long after the timed phase begins are measured;
/// earlier ones are warm-up and discarded.
pub const WARMUP: Duration = Duration::from_millis(500);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<(Args, bool), String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--child" {
            child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; known: {}",
            WORKLOADS.join(" ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    Ok((
        Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        },
        child,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, child) = match parse_args(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if child {
        run_child(&args)
    } else {
        supervise(&argv, &args)
    }
}

/// Runs the workload in a child process with stderr redirected to a log
/// file, relaying its stdout; on failure, shows the log's tail.
fn supervise(argv: &[String], args: &Args) -> ExitCode {
    let log_path = report::run_dir().join(format!(
        "{}-seed{}-trace{}.stderr.log",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let spawned = std::fs::create_dir_all(report::run_dir())
        .and_then(|()| File::create(&log_path))
        .and_then(|log| {
            Command::new(std::env::current_exe()?)
                .arg("--child")
                .args(argv)
                .stdin(Stdio::null())
                .stdout(Stdio::inherit())
                .stderr(Stdio::from(log))
                .status()
        });
    match spawned {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(status) => {
            let log = std::fs::read_to_string(&log_path).unwrap_or_default();
            let lines: Vec<&str> = log.lines().collect();
            for line in &lines[lines.len().saturating_sub(40)..] {
                eprintln!("{line}");
            }
            eprintln!(
                "perfbench: workload run failed ({status}); log: {}",
                log_path.display()
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: cannot run the workload: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_child(args: &Args) -> ExitCode {
    let result = match args.workload.as_str() {
        "sweep_cold" => sweep_cold::run(args),
        "serve_mixed" => serve_mixed::run(args),
        "explore_grid" => explore_grid::run(args),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(outcome) => {
            println!("{}", outcome.to_json(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the workload's world, returning it with its set-up time in
/// seconds.
pub fn set_up<W>(build: impl FnOnce() -> Result<W, String>) -> Result<(W, f64), String> {
    let started = Instant::now();
    let world = build()?;
    Ok((world, started.elapsed().as_secs_f64()))
}

/// `setup_s`: the median of the first set-up time and `SETUPS - 1` more
/// rounds, each built and discarded. The extra rounds run after the
/// timed phase, so their freed memory never counts in `peak_rss_mb`.
pub fn setup_median<W>(
    first: f64,
    mut build: impl FnMut() -> Result<W, String>,
    mut discard: impl FnMut(W),
) -> Result<f64, String> {
    let mut times = vec![first];
    for _ in 1..SETUPS {
        let (world, seconds) = set_up(&mut build)?;
        times.push(seconds);
        discard(world);
    }
    Ok(report::percentile(&times, 0.5))
}

/// One closed-loop client's measured ops.
pub struct Timed {
    /// Latency of each measured op, ms.
    pub lat_ms: Vec<f64>,
    /// Index of each measured op in the input list.
    pub measured: Vec<usize>,
    /// Ops run, warm-up included (the next unused input index).
    pub ran: usize,
    /// Measured phase length, s.
    pub seconds: f64,
    /// Peak resident set while the ops ran, MB.
    pub rss_mb: f64,
}

impl Timed {
    /// Latencies of the measured ops a traced run left untraced (the
    /// even ones), ms.
    pub fn plain_ms(&self) -> Vec<f64> {
        self.measured
            .iter()
            .zip(&self.lat_ms)
            .filter(|(i, _)| *i % 2 == 0)
            .map(|(_, &ms)| ms)
            .collect()
    }

    /// The spans of measured ops: set-up and warm-up spans dropped.
    pub fn measured_spans(&self, spans: &[trace::Span]) -> Vec<trace::Span> {
        let first = self.measured.first().map_or(u32::MAX, |&i| i as u32);
        spans
            .iter()
            .filter(|s| s.op >= first && s.op != trace::SETUP_OP)
            .cloned()
            .collect()
    }
}

/// Runs `op(i)` for `i = 0, 1, …` back to back. In a timed run the ops
/// started after [`WARMUP`] are measured until `seconds` have passed
/// (or the inputs run out); in a traced run exactly `total` ops run and
/// all but the first `warm` are measured.
///
/// `peak_rss_mb` is sampled until `rss_ops` ops have been measured.
pub fn closed_loop(n_inputs: usize, limit: Limit, rss_ops: usize, op: impl FnMut(usize)) -> Timed {
    let (mut t, rss_mb) =
        report::with_rss_peak(|stop_rss| run_ops(n_inputs, limit, rss_ops, stop_rss, op));
    t.rss_mb = rss_mb;
    t
}

fn run_ops(
    n_inputs: usize,
    limit: Limit,
    rss_ops: usize,
    stop_rss: &dyn Fn(),
    mut op: impl FnMut(usize),
) -> Timed {
    let start = Instant::now();
    let mut measure_from: Option<Instant> = None;
    let mut t = Timed {
        lat_ms: Vec::new(),
        measured: Vec::new(),
        ran: 0,
        seconds: 0.0,
        rss_mb: 0.0,
    };
    let mut last_end = start;
    for i in 0..n_inputs {
        let began = Instant::now();
        let measured = match limit {
            Limit::Seconds(s) => {
                if began - start >= WARMUP {
                    let from = *measure_from.get_or_insert(began);
                    if began - from >= Duration::from_secs(s) {
                        break;
                    }
                    true
                } else {
                    false
                }
            }
            Limit::Ops { total, warm } => {
                if i >= total {
                    break;
                }
                if i == warm {
                    measure_from = Some(began);
                }
                i >= warm
            }
        };
        op(i);
        let end = Instant::now();
        t.ran = i + 1;
        if measured {
            t.lat_ms.push((end - began).as_secs_f64() * 1e3);
            t.measured.push(i);
            last_end = end;
            if t.measured.len() == rss_ops {
                stop_rss();
            }
        }
    }
    t.seconds = measure_from.map_or(0.0, |from| (last_end - from).as_secs_f64());
    t
}

/// How long a closed loop runs.
#[derive(Clone, Copy)]
pub enum Limit {
    /// Untraced: measure for this many seconds after warm-up.
    Seconds(u64),
    /// Traced: exactly `total` ops, the first `warm` unmeasured, so
    /// every count the run reports repeats exactly for a seed.
    Ops { total: usize, warm: usize },
}

impl Limit {
    /// The limit of a run: `--seconds` when untraced; when traced,
    /// `seconds × traced_per_s` ops with the first `warm` unmeasured.
    pub fn of(args: &Args, traced_per_s: usize, warm: usize) -> Limit {
        if args.trace {
            Limit::Ops {
                total: args.seconds as usize * traced_per_s,
                warm,
            }
        } else {
            Limit::Seconds(args.seconds)
        }
    }
}

/// Records the end-to-end timing metrics of a closed loop.
pub fn set_timing(out: &mut Outcome, t: &Timed) {
    out.attempted = t.ran as u64;
    out.set("op_p50_ms", report::percentile(&t.lat_ms, 0.5));
    out.set("op_p95_ms", report::percentile(&t.lat_ms, 0.95));
    out.set("ops_per_s", t.lat_ms.len() as f64 / t.seconds.max(1e-9));
    out.set("peak_rss_mb", t.rss_mb);
}

/// Records `success_pct` once every failure has been counted.
pub fn set_success(out: &mut Outcome) {
    let attempted = out.attempted.max(1) as f64;
    out.set(
        "success_pct",
        100.0 * (attempted - out.failed as f64).max(0.0) / attempted,
    );
}

/// Logs each phase's duration to the run's stderr log.
pub struct Phases(Instant);

impl Phases {
    pub fn start() -> Self {
        Phases(Instant::now())
    }

    /// Ends the current phase, naming it.
    pub fn done(&mut self, phase: &str) {
        eprintln!(
            "perfbench: {phase} took {:.2} s (RSS {:.1} MB, high-water {:.1} MB)",
            self.0.elapsed().as_secs_f64(),
            report::status_mb("VmRSS"),
            report::status_mb("VmHWM")
        );
        self.0 = Instant::now();
    }
}

/// Writes the traced run's spans to `.bench_run/spans-<workload>-seed<N>.jsonl`.
pub fn write_spans(args: &Args, spans: &[trace::Span]) -> Result<(), String> {
    let path = report::run_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&path, trace::to_jsonl(spans))
        .map_err(|e| format!("write {}: {e}", path.display()))
}
