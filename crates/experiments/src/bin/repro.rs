//! `repro` — regenerate any table or figure of the paper, run an
//! ad-hoc multi-axis machine sweep, or serve both over HTTP.
//!
//! ```text
//! repro <experiment>... | all   [options]
//! repro sweep [axis flags]      [options]
//! repro explore [axis flags]    [options]
//! repro store stats|clear|gc    [options]
//! repro serve [serve flags]     [options]
//! ```
//!
//! The binary does no benchmarking of its own: `perfbench/` at the
//! repository root is the one harness.
//!
//! `<experiment>` is one of `table1`, `table2`, `table3`, `fig3`,
//! `fig4a`, `fig4b`, `fig4c`, `fig4d`, `fig5c`, `fig7`, `fig8a`,
//! `fig8b`, `fig9a`, `fig9b`, or `all`.
//!
//! Options (shared by both modes):
//!
//! * `--quick` — 500k-instruction points instead of 2M;
//! * `--budget N` — explicit per-point instruction count (mutually
//!   exclusive with `--quick`);
//! * `--jobs N` — bound the scenario engine's worker threads
//!   (default: all cores; output is bit-identical for every `N`);
//! * `--format text|json|csv` — the stdout view (default `text`);
//! * `--out DIR` — additionally write `<experiment>.json` and
//!   `<experiment>.csv` artifacts into `DIR`.
//!
//! Sweep axis flags take value lists — comma-separated values and
//! inclusive `lo:hi` ranges, mixable (`1:4`, `2,4,8`, `1:2,8`). A list
//! is counted before it is expanded and refused past
//! `cli::MAX_AXIS_VALUES` (10 000) values:
//!
//! * `--bench A,B` — benchmarks (default: all nine);
//! * `--int-fus` — integer FU count (default 1:4);
//! * `--l2` — L2 hit latency in cycles (default 12);
//! * `--width` — fetch/decode/issue/commit width;
//! * `--rob` — reorder-buffer entries;
//! * `--l1d-kb` — L1 data-cache capacity in KiB;
//! * `--l2-kb` — unified L2 capacity in KiB;
//! * `--mem` — main-memory latency in cycles;
//! * `--mshrs` — outstanding-miss registers.
//!
//! Evaluation axes price every simulated point under a sleep-policy /
//! technology grid (closed-form over the recorded idle spectra — no
//! re-simulation; rows multiply instead):
//!
//! * `--policy P,Q` — policy names (`maxsleep`, `gradualsleep`,
//!   `alwaysactive`, `nooverhead`, `timeout`, `adaptive`; default:
//!   the four Figure 8 policies);
//! * `--slices N,M` — GradualSleep slice counts (default:
//!   breakeven-many);
//! * `--leak F,G` — technology leakage factors `p` in `[0, 1]`
//!   (default 0.05);
//! * `--transition F,G` — sleep-switch overheads `E_slp/E_D` in
//!   `[0, 1]` (default 0.01).
//!
//! `repro explore` prices the same evaluation axes as dense ranges —
//! `--leak`/`--transition` accept `lo:hi:step` fraction ranges and
//! `--slices` strided integer ranges — through the grid-batched
//! kernel (G policy forms per spectrum traversal, no policy cache),
//! and streams three digests instead of per-point rows: per-benchmark
//! family optima, exact (E/E_max, transitions) Pareto frontiers, and
//! the best-GradualSleep-slice-count crossover map per leakage
//! factor. The default grid prices 1.59M policy points.
//!
//! All simulation-backed experiments share one engine, so `repro all`
//! simulates each (benchmark × machine × budget) point exactly once
//! and finishes with a cumulative cache-effectiveness summary on
//! stderr. Beyond the paper's tables, `repro policy-ext` runs the
//! extension-policy study (not part of `all`).

use fuleak_experiments::cli::{
    apply_explore_flag, apply_sweep_flag, check_explore_cost, check_sweep_cost,
};
use fuleak_experiments::experiment::{self, sweep_table, Context};
use fuleak_experiments::explore::{explore, ExploreSpec};
use fuleak_experiments::harness::Budget;
use fuleak_experiments::render;
use fuleak_experiments::result::ResultTable;
use fuleak_experiments::scenario::{Engine, SweepSpec};
use fuleak_experiments::serve::{ServeConfig, Server};
use fuleak_experiments::store::{ResultStore, StoreKind};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// The stdout view of a result table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Csv,
}

struct Options {
    budget: Budget,
    engine: Arc<Engine>,
    format: Format,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: repro <experiment>|all [--quick|--budget N] [--jobs N] [--format text|json|csv] [--out DIR] [--store DIR]
       repro sweep [--bench A,B] [--int-fus L] [--l2 L] [--width L] [--rob L] [--l1d-kb L] [--l2-kb L] [--mem L] [--mshrs L]
                   [--policy P,Q] [--slices L] [--leak F,G] [--transition F,G] [options]
       repro explore [--bench A,B] [--policy P,Q] [--slices L] [--leak R] [--transition R] [options]
       repro store stats|clear|gc --max-mb N   (needs --store DIR or FULEAK_STORE)
       repro serve [--addr HOST:PORT] [--workers N] [--queue N] [--no-respcache] [--quick|--budget N] [--jobs N] [--store DIR]
       (value lists L: comma values and lo:hi[:step] ranges, e.g. 1:4 or 2,4,8; F,G: fractions in [0,1];
        explore fraction ranges R: fractions and lo:hi:step ranges, e.g. 0:1:0.02;
        --store DIR / FULEAK_STORE=DIR attach a persistent result store behind the engine caches)";

/// Parses the shared options out of `args`, returning the leftover
/// (mode-specific) arguments.
fn parse_options(args: &[String]) -> Result<(Options, Vec<&str>), String> {
    let mut quick = false;
    let mut budget: Option<u64> = None;
    let mut jobs = 0usize; // 0 = all cores
    let mut format = Format::Text;
    let mut out = None;
    let mut store: Option<PathBuf> = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    let parse_u64 = |flag: &str, v: &str| {
        v.parse::<u64>()
            .map_err(|_| format!("invalid {flag} value `{v}`"))
    };
    fn take(
        flag: &str,
        attached: &mut Option<String>,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<String, String> {
        match attached.take() {
            Some(v) => Ok(v),
            None => it
                .next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    }
    while let Some(arg) = it.next() {
        let (flag, mut value) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
            _ => (arg.as_str(), None),
        };
        match flag {
            "--quick" => {
                if value.is_some() {
                    return Err("--quick takes no value".to_string());
                }
                quick = true;
            }
            "--budget" => {
                let v = take(flag, &mut value, &mut it)?;
                let n = parse_u64("--budget", &v)?;
                if n == 0 {
                    return Err("--budget must be at least 1 instruction".to_string());
                }
                budget = Some(n);
            }
            "--jobs" => {
                let v = take(flag, &mut value, &mut it)?;
                jobs = parse_u64("--jobs", &v)? as usize;
            }
            "--format" => {
                let v = take(flag, &mut value, &mut it)?;
                format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => return Err(format!("invalid --format value `{other}`")),
                };
            }
            "--out" => out = Some(PathBuf::from(take(flag, &mut value, &mut it)?)),
            "--store" => store = Some(PathBuf::from(take(flag, &mut value, &mut it)?)),
            _ => rest.push(arg.as_str()),
        }
    }
    if quick && budget.is_some() {
        return Err("--quick and --budget are mutually exclusive".to_string());
    }
    let budget = match budget {
        Some(n) => Budget::Custom(n),
        None if quick => Budget::Quick,
        None => Budget::Full,
    };
    // `--store DIR` wins; the FULEAK_STORE environment variable is the
    // ambient fallback (empty disables it).
    let store = store.or_else(|| {
        std::env::var_os("FULEAK_STORE")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    });
    let engine = Arc::new(Engine::new(jobs));
    if let Some(dir) = store {
        let st = ResultStore::open(&dir)
            .map_err(|e| format!("cannot open --store directory `{}`: {e}", dir.display()))?;
        engine.set_store(Some(Arc::new(st)));
    }
    Ok((
        Options {
            budget,
            engine,
            format,
            out,
        },
        rest,
    ))
}

/// Prints a table to stdout in the selected format and, with `--out`,
/// writes its JSON and CSV artifacts.
fn emit(table: &ResultTable, opts: &Options) -> Result<(), String> {
    match opts.format {
        Format::Text => {
            println!("{}\n{}", table.title(), table.render());
            for note in table.notes() {
                println!("{note}");
            }
        }
        Format::Json => print!("{}", table.to_json()),
        Format::Csv => print!("{}", table.to_csv()),
    }
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create --out directory `{}`: {e}", dir.display()))?;
        for (ext, contents) in [("json", table.to_json()), ("csv", table.to_csv())] {
            let path = dir.join(format!("{}.{ext}", table.name()));
            std::fs::write(&path, contents)
                .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Runs the named experiments (expanding `all`) against one shared
/// context.
fn run_experiments(targets: &[&str], opts: &Options) -> Result<(), String> {
    let mut ctx =
        Context::new(&opts.engine, opts.budget).with_progress(opts.format == Format::Text);
    let mut cumulative_summary = false;
    let mut queue: Vec<&str> = Vec::new();
    for &target in targets {
        if target == "all" {
            cumulative_summary = true;
            queue.extend(experiment::names());
        } else {
            queue.push(target);
        }
    }
    for name in queue {
        let exp = experiment::by_name(name).ok_or_else(|| {
            format!(
                "unknown experiment `{name}`; known: {}",
                experiment::all_names().join(" ")
            )
        })?;
        let table = exp.run(&mut ctx);
        emit(&table, opts)?;
    }
    if cumulative_summary {
        // The per-suite progress lines above cover one suite each;
        // this line shows what sharing the engine across experiments
        // saved over the whole run.
        eprintln!(
            "[repro] {}",
            render::engine_summary_line(&opts.engine.stats())
        );
    }
    Ok(())
}

/// Runs `repro sweep`: builds a [`SweepSpec`] from the axis flags and
/// tables one row per simulated point.
fn run_sweep(args: &[&str], opts: &Options) -> Result<(), String> {
    let mut spec = SweepSpec::new(opts.budget);
    let mut it = args.iter();
    while let Some(&flag) = it.next() {
        let (flag, value) = match flag.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (flag, None),
        };
        let value = match value {
            Some(v) => v,
            None => it
                .next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{flag} needs a value"))?,
        };
        spec = apply_sweep_flag(spec, flag, &value)?;
    }
    check_sweep_cost(&spec)?;
    let points = spec
        .try_expand()
        .map_err(|e| format!("invalid sweep: {e}"))?
        .len();
    if opts.format == Format::Text {
        if spec.has_eval_axes() {
            eprintln!(
                "[repro] sweeping {points} machine points x {} policy points ({} workers)...",
                spec.eval_points().len(),
                opts.engine.jobs()
            );
        } else {
            eprintln!(
                "[repro] sweeping {points} points ({} workers)...",
                opts.engine.jobs()
            );
        }
    }
    let table = sweep_table(&opts.engine, &spec).map_err(|e| format!("invalid sweep: {e}"))?;
    emit(&table, opts)?;
    if opts.format == Format::Text {
        eprintln!(
            "[repro] {}",
            render::engine_summary_line(&opts.engine.stats())
        );
    }
    Ok(())
}

/// Runs `repro explore`: builds an [`ExploreSpec`] from the axis
/// flags and streams the grid through the batched evaluation kernel,
/// emitting the optima, frontier, and crossover digests in order.
fn run_explore(args: &[&str], opts: &Options) -> Result<(), String> {
    let mut spec = ExploreSpec::new(opts.budget);
    let mut it = args.iter();
    while let Some(&flag) = it.next() {
        let (flag, value) = match flag.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (flag, None),
        };
        let value = match value {
            Some(v) => v,
            None => it
                .next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{flag} needs a value"))?,
        };
        spec = apply_explore_flag(spec, flag, &value)?;
    }
    check_explore_cost(&spec)?;
    if opts.format == Format::Text {
        eprintln!(
            "[repro] exploring {} technology items x {} policy forms = {} grid points ({} workers)...",
            spec.items(),
            spec.form_combos().len(),
            spec.points(),
            opts.engine.jobs()
        );
    }
    let start = std::time::Instant::now();
    let result = explore(&opts.engine, &spec);
    opts.engine
        .note_grid_nanos(start.elapsed().as_nanos() as u64);
    for table in [&result.optima, &result.frontier, &result.crossover] {
        emit(table, opts)?;
    }
    if opts.format == Format::Text {
        eprintln!(
            "[repro] {}",
            render::engine_summary_line(&opts.engine.stats())
        );
    }
    Ok(())
}

/// Runs `repro store stats|clear|gc` against the attached store.
fn run_store(args: &[&str], opts: &Options) -> Result<(), String> {
    let store = opts
        .engine
        .store()
        .ok_or("repro store needs --store DIR or FULEAK_STORE")?;
    match args {
        ["stats"] => {
            let stats = store.stats();
            println!("store: {}", store.root().display());
            for (kind, k) in StoreKind::ALL.into_iter().zip(stats.kinds) {
                println!(
                    "{:>8}: {} entries, {} bytes",
                    kind.dir(),
                    k.entries,
                    k.bytes
                );
            }
            println!(
                "{:>8}: {} entries, {} bytes",
                "total",
                stats.entries(),
                stats.bytes()
            );
            Ok(())
        }
        ["clear"] => {
            let removed = store.clear().map_err(|e| format!("store clear: {e}"))?;
            println!("removed {removed} entries from {}", store.root().display());
            Ok(())
        }
        ["gc", rest @ ..] => {
            let mut max_mb: Option<u64> = None;
            let mut it = rest.iter();
            while let Some(&flag) = it.next() {
                let (flag, value) = match flag.split_once('=') {
                    Some((f, v)) => (f, Some(v.to_string())),
                    None => (flag, None),
                };
                match flag {
                    "--max-mb" => {
                        let v = match value {
                            Some(v) => v,
                            None => it
                                .next()
                                .map(|s| s.to_string())
                                .ok_or_else(|| "--max-mb needs a value".to_string())?,
                        };
                        max_mb = Some(
                            v.parse::<u64>()
                                .map_err(|_| format!("invalid --max-mb value `{v}`"))?,
                        );
                    }
                    other => return Err(format!("unknown store gc flag `{other}`")),
                }
            }
            let max_mb = max_mb.ok_or("repro store gc needs --max-mb N")?;
            let report = store.gc(max_mb * 1024 * 1024);
            println!(
                "evicted {} entries ({} -> {} bytes, budget {} MiB)",
                report.evicted, report.bytes_before, report.bytes_after, max_mb
            );
            Ok(())
        }
        _ => Err("repro store subcommands: stats, clear, gc --max-mb N".to_string()),
    }
}

/// Runs `repro serve`: binds the daemon and blocks in its accept loop.
fn run_serve(args: &[&str], opts: &Options) -> Result<(), String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(&flag) = it.next() {
        let (flag, value) = match flag.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (flag, None),
        };
        let mut take = |name: &str| match value.clone() {
            Some(v) => Ok(v),
            None => it
                .next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("{name} needs a value")),
        };
        match flag {
            "--addr" => addr = take("--addr")?,
            "--workers" => {
                let v = take("--workers")?;
                config.workers = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid --workers value `{v}`"))?;
            }
            "--queue" => {
                let v = take("--queue")?;
                config.queue_depth = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid --queue value `{v}`"))?;
            }
            "--no-respcache" => config.respcache_bytes = 0,
            other => return Err(format!("unknown serve flag `{other}`")),
        }
    }
    if opts.format != Format::Text {
        return Err(
            "repro serve clients pick the format per request; --format is not supported"
                .to_string(),
        );
    }
    let respcache = if config.respcache_bytes > 0 {
        format!("respcache {} MiB", config.respcache_bytes >> 20)
    } else {
        "respcache off".to_string()
    };
    let store = match opts.engine.store() {
        Some(st) => format!("store {}", st.root().display()),
        None => "no store".to_string(),
    };
    let workers = config.workers;
    let queue = config.queue_depth;
    let server = Server::bind_with(&addr, Arc::clone(&opts.engine), opts.budget, config)?;
    eprintln!(
        "[repro] serving on http://{} ({} instructions/point, {} engine jobs, {workers} pool workers, queue {queue}, {respcache}, {store})",
        server.local_addr(),
        opts.budget.instructions(),
        opts.engine.jobs()
    );
    server.run();
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse_options(&args).and_then(|(opts, rest)| {
        if rest.is_empty() {
            return Err(format!(
                "experiments: {}",
                experiment::all_names().join(" ")
            ));
        }
        if rest[0] == "sweep" {
            run_sweep(&rest[1..], &opts)
        } else if rest[0] == "explore" {
            run_explore(&rest[1..], &opts)
        } else if rest[0] == "store" {
            run_store(&rest[1..], &opts)
        } else if rest[0] == "serve" {
            run_serve(&rest[1..], &opts)
        } else if let Some(flag) = rest.iter().find(|a| a.starts_with("--")) {
            Err(format!("unknown flag `{flag}`"))
        } else {
            run_experiments(&rest, &opts)
        }
    });
    match parsed {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options() -> Options {
        Options {
            budget: Budget::Quick,
            engine: Arc::new(Engine::new(1)),
            format: Format::Json,
            out: None,
        }
    }

    #[test]
    fn no_batch_is_an_unknown_sweep_flag() {
        let opts = options();
        let err = run_sweep(&["--no-batch", "--int-fus", "1:2"], &opts).unwrap_err();
        assert!(err.contains("unknown sweep flag `--no-batch`"), "{err}");
        assert!(run_sweep(&["--no-batch"], &opts).is_err());
        assert_eq!(opts.engine.stats().misses, 0, "nothing was simulated");
    }

    #[test]
    fn over_cap_specs_exit_before_expanding() {
        let opts = options();
        // 9 benchmarks × 4 FU counts × 10 000 ROB sizes × 10 000 widths.
        let err = run_sweep(&["--rob", "1:10000", "--width", "1:10000"], &opts).unwrap_err();
        assert!(err.contains("3600000000 points"), "{err}");
        assert!(err.contains("more than 50000"), "{err}");
        // 9 × 5 001 × 5 001 items × 68 forms.
        let err = run_explore(
            &["--leak", "0:1:0.0002", "--transition", "0:1:0.0002"],
            &opts,
        )
        .unwrap_err();
        assert!(err.contains("more than 16000000"), "{err}");
        let stats = opts.engine.stats();
        assert_eq!((stats.misses, stats.grid_points), (0, 0), "nothing ran");
    }
}
