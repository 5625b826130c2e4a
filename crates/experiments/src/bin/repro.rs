//! `repro` — regenerate any table or figure of the paper, or run an
//! ad-hoc multi-axis machine sweep.
//!
//! ```text
//! repro <experiment>... | all   [options]
//! repro sweep [axis flags]      [options]
//! repro explore [axis flags]    [options]
//! ```
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
//! inclusive `lo:hi` ranges, mixable (`1:4`, `2,4,8`, `1:2,8`):
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

use fuleak_experiments::cli::{apply_explore_flag, apply_sweep_flag};
use fuleak_experiments::experiment::{self, sweep_table, Context};
use fuleak_experiments::explore::{explore, ExploreSpec};
use fuleak_experiments::harness::Budget;
use fuleak_experiments::loadgen::{self, LoadSpec};
use fuleak_experiments::policy::PolicyKind;
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
       repro bench [--runs N] [--jobs N] [--out DIR]
       repro store stats|clear|gc --max-mb N   (needs --store DIR or FULEAK_STORE)
       repro serve [--addr HOST:PORT] [--workers N] [--queue N] [--no-respcache] [--quick|--budget N] [--jobs N] [--store DIR]
       repro loadgen --addr HOST:PORT [--path TARGET] [--clients N] [--requests N] [--close] [--out DIR]
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

/// Times one closure over `runs` repetitions; returns every wall
/// clock in seconds, in run order.
fn time_runs(runs: usize, mut work: impl FnMut()) -> Vec<f64> {
    (0..runs)
        .map(|_| {
            let start = std::time::Instant::now();
            work();
            start.elapsed().as_secs_f64()
        })
        .collect()
}

fn json_seconds(seconds: &[f64]) -> String {
    let list = seconds
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect::<Vec<_>>()
        .join(", ");
    let best = seconds.iter().cloned().fold(f64::INFINITY, f64::min);
    format!("{{\"seconds\": [{list}], \"best_seconds\": {best:.3}}}")
}

/// Runs `repro bench`: a machine-readable wall-clock harness for the
/// perf trajectory (`BENCH_PR4.json` and the CI perf-smoke artifact).
/// Times, best-of-N on a cold engine each run:
///
/// * the full `repro all --quick` experiment suite (tables rendered
///   but not printed),
/// * a standard fixed-geometry sweep (2 benchmarks × FU 1–4 × four L2
///   latencies = 32 points) — the shape the annotation cache
///   accelerates most,
/// * that sweep against a persistent store, cold (simulate +
///   write-behind) vs warm (a fresh engine served entirely from
///   disk — asserted zero-simulation and byte-identical first),
/// * a dense policy grid over the quick suite's warm spectra: the
///   scalar `policy_energy_of` loop vs the `GridEval` kernel
///   (asserted identical per form before timing), and
/// * the full default `repro explore` grid end-to-end on a fresh
///   engine (the ≥10⁶-points acceptance number).
fn run_bench(args: &[&str], opts: &Options) -> Result<(), String> {
    let mut runs = 3usize;
    let mut it = args.iter();
    while let Some(&flag) = it.next() {
        let (flag, value) = match flag.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (flag, None),
        };
        match flag {
            "--runs" => {
                let v = match value {
                    Some(v) => v,
                    None => it
                        .next()
                        .map(|s| s.to_string())
                        .ok_or_else(|| "--runs needs a value".to_string())?,
                };
                runs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("invalid --runs value `{v}`"))?;
            }
            other => return Err(format!("unknown bench flag `{other}`")),
        }
    }
    // The harness always times Budget::Quick (that is the recorded
    // trajectory); reject shared options it would silently ignore
    // rather than let `--budget 2000000` pretend to have been timed.
    if let Budget::Custom(_) = opts.budget {
        return Err("repro bench always times --quick; --budget is not supported".to_string());
    }
    if opts.format != Format::Text {
        return Err("repro bench emits JSON only; --format is not supported".to_string());
    }
    let jobs = opts.engine.jobs();
    eprintln!(
        "[repro] bench: {runs} run(s) of `all --quick`, and a 32-point sweep ({jobs} workers)..."
    );
    let all_quick = time_runs(runs, || {
        let engine = Engine::new(jobs);
        let mut ctx = Context::new(&engine, Budget::Quick).with_progress(false);
        for name in experiment::names() {
            let exp = experiment::by_name(name).expect("registry names resolve");
            let _ = exp.run(&mut ctx);
        }
    });
    let sweep_spec = || {
        SweepSpec::new(Budget::Quick)
            .benches(["gzip", "vpr"])
            .axis_int_fus(1..=4)
            .axis_l2_latency([12, 18, 24, 32])
    };
    let sweep_points = sweep_spec().scenarios().len();
    let sweep = time_runs(runs, || {
        let engine = Engine::new(jobs);
        engine.run_sweep(&sweep_spec());
    });

    // Persistent-store workload: the same fixed-geometry sweep against
    // a scratch store directory — cold (simulate + write-behind) vs
    // warm (a fresh engine reading every point back from disk). The
    // warm pass asserts zero simulations and byte-identical tables
    // before being timed, so the ratio is the pure warm-start win.
    use fuleak_experiments::experiment::sweep_table;
    use fuleak_experiments::ResultStore;
    let store_dir = std::env::temp_dir().join(format!("fuleak-bench-store-{}", std::process::id()));
    let open_store = |dir: &std::path::Path| {
        std::sync::Arc::new(ResultStore::open(dir).expect("open bench store directory"))
    };
    {
        let _ = std::fs::remove_dir_all(&store_dir);
        let cold = Engine::new(jobs);
        cold.set_store(Some(open_store(&store_dir)));
        cold.run_sweep(&sweep_spec());
        let reference = sweep_table(&cold, &sweep_spec()).expect("cold store sweep");
        let warm = Engine::new(jobs);
        warm.set_store(Some(open_store(&store_dir)));
        assert_eq!(
            warm.run_sweep(&sweep_spec()),
            0,
            "warm store must serve every sweep point"
        );
        let replayed = sweep_table(&warm, &sweep_spec()).expect("warm store sweep");
        assert!(
            replayed.to_json() == reference.to_json(),
            "store round-trip changed the sweep table"
        );
    }
    eprintln!("[repro] bench: {sweep_points}-point sweep, cold vs warm persistent store...");
    let store_cold = time_runs(runs, || {
        let _ = std::fs::remove_dir_all(&store_dir);
        let engine = Engine::new(jobs);
        engine.set_store(Some(open_store(&store_dir)));
        engine.run_sweep(&sweep_spec());
    });
    let store_warm = time_runs(runs, || {
        let engine = Engine::new(jobs);
        engine.set_store(Some(open_store(&store_dir)));
        engine.run_sweep(&sweep_spec());
    });
    let _ = std::fs::remove_dir_all(&store_dir);

    // Policy-evaluation workload: price a policy × slices × leakage
    // grid over the quick suite (a) with the closed-form spectrum
    // evaluator and (b) with the historical per-interval replay
    // (`account_intervals` over the expanded interval lists — the
    // pre-spectrum implementation). Identical energies, so the ratio
    // is the pure per-point policy-evaluation speedup.
    use fuleak_core::accounting::account_intervals;
    use fuleak_core::closed_form::BoundaryPolicy;
    use fuleak_core::{EnergyModel, PolicyForm, TechnologyParams};
    use fuleak_experiments::harness::run_suite_on;
    use fuleak_experiments::policy::policy_energy_of;
    let engine = Engine::new(jobs);
    let suite = run_suite_on(&engine, 12, Budget::Quick);
    let lists: Vec<Vec<Vec<u64>>> = suite
        .runs
        .iter()
        .map(|r| r.sim.fu_idle.iter().map(|s| s.to_lengths()).collect())
        .collect();
    let grid: Vec<(PolicyKind, Option<u32>)> = vec![
        (PolicyKind::MaxSleep, None),
        (PolicyKind::AlwaysActive, None),
        (PolicyKind::NoOverhead, None),
        (PolicyKind::GradualSleep, None),
        (PolicyKind::GradualSleep, Some(2)),
        (PolicyKind::GradualSleep, Some(8)),
        (PolicyKind::GradualSleep, Some(32)),
        (PolicyKind::GradualSleep, Some(128)),
    ];
    let leaks = [0.05, 0.5];
    let policy_points = grid.len() * leaks.len() * suite.runs.len();
    let model_at = |p: f64| {
        EnergyModel::new(
            TechnologyParams::with_leakage_factor(p).expect("p in range"),
            0.5,
        )
        .expect("alpha in range")
    };
    let boundary_of = |form: PolicyForm| match form {
        PolicyForm::MaxSleep => BoundaryPolicy::MaxSleep,
        PolicyForm::AlwaysActive => BoundaryPolicy::AlwaysActive,
        PolicyForm::NoOverhead => BoundaryPolicy::NoOverhead,
        PolicyForm::GradualSleep { slices } => BoundaryPolicy::GradualSleep { slices },
        _ => unreachable!("the bench grid holds boundary policies only"),
    };
    // Sanity: both paths price one point identically before timing.
    {
        let model = model_at(0.5);
        let form = PolicyKind::GradualSleep.form(&model, Some(8));
        let by_spectrum = policy_energy_of(&model, form, &suite.runs[0].sim);
        let by_replay: f64 = lists[0]
            .iter()
            .enumerate()
            .map(|(fu, list)| {
                account_intervals(
                    &model,
                    boundary_of(form),
                    suite.runs[0].sim.fu_active[fu],
                    list,
                )
                .energy
                .total()
            })
            .sum();
        assert!(
            (by_spectrum.energy.total() - by_replay).abs() / by_replay < 1e-9,
            "spectrum and replay paths disagree"
        );
    }
    eprintln!(
        "[repro] bench: policy evaluation, {policy_points} points, spectrum vs interval replay..."
    );
    let policy_spectrum = time_runs(runs, || {
        for &p in &leaks {
            let model = model_at(p);
            for run in &suite.runs {
                for &(kind, slices) in &grid {
                    let form = kind.form(&model, slices);
                    std::hint::black_box(policy_energy_of(&model, form, &run.sim));
                }
            }
        }
    });
    let policy_replay = time_runs(runs, || {
        for &p in &leaks {
            let model = model_at(p);
            for (run, fu_lists) in suite.runs.iter().zip(&lists) {
                for &(kind, slices) in &grid {
                    let form = kind.form(&model, slices);
                    let boundary = boundary_of(form);
                    for (fu, list) in fu_lists.iter().enumerate() {
                        std::hint::black_box(account_intervals(
                            &model,
                            boundary,
                            run.sim.fu_active[fu],
                            list,
                        ));
                    }
                }
            }
        }
    });
    let best = |secs: &[f64]| secs.iter().cloned().fold(f64::INFINITY, f64::min);
    let per_point_us = |secs: &[f64]| 1e6 * best(secs) / policy_points as f64;
    let speedup = per_point_us(&policy_replay) / per_point_us(&policy_spectrum);
    let policy_side = |secs: &[f64]| {
        format!(
            "{{\"best_seconds\": {:.6}, \"per_point_us\": {:.2}}}",
            best(secs),
            per_point_us(secs)
        )
    };

    // Grid-kernel workload: price a dense policy grid over the quick
    // suite's warm spectra (a) with the scalar per-point
    // `policy_energy_of` loop and (b) with `GridEval` — G forms per
    // spectrum traversal. Results are asserted identical per form
    // before timing, so the ratio isolates the traversal batching.
    use fuleak_core::accounting::PolicyRun;
    use fuleak_core::GridEval;
    use fuleak_experiments::explore::{explore, fraction_steps, ExploreSpec};
    // The form grid is exactly the default exploration's per-item
    // grid (all five families, GradualSleep slices 1..=64), so the
    // measured ratio is the one `repro explore` actually sees.
    let grid_combos: Vec<(PolicyKind, Option<u32>)> = ExploreSpec::new(Budget::Quick).form_combos();
    let grid_models: Vec<_> = fraction_steps(0.0, 1.0, 0.1)
        .into_iter()
        .flat_map(|p| [(p, 0.01), (p, 0.5)])
        .map(|(p, tr)| {
            EnergyModel::new(
                TechnologyParams::new(p, 0.001, tr, 0.5).expect("bench fractions in range"),
                0.5,
            )
            .expect("alpha in range")
        })
        .collect();
    let grid_points = grid_combos.len() * grid_models.len() * suite.runs.len();
    // Models fuse into batches of `PREFERRED_BATCH`: the kernel prices
    // every (model, form) lane of a batch in the same spectrum
    // traversal, so per-entry decode and partition walks amortize
    // across the group while the accumulator working set stays in L1.
    // Form lists are per model (TimeoutSleep resolves the model's
    // break-even interval).
    let grid_forms: Vec<Vec<_>> = grid_models
        .iter()
        .map(|model| grid_combos.iter().map(|&(k, s)| k.form(model, s)).collect())
        .collect();
    let grid_groups: Vec<Vec<(&EnergyModel, &[_])>> = grid_models
        .chunks(GridEval::PREFERRED_BATCH)
        .zip(grid_forms.chunks(GridEval::PREFERRED_BATCH))
        .map(|(models, forms)| {
            models
                .iter()
                .zip(forms)
                .map(|(model, forms)| (model, forms.as_slice()))
                .collect()
        })
        .collect();
    // The warm kernel is built once outside the timed region — the
    // explorer likewise reuses one kernel per worker — so the timed
    // loop measures renew (lane rebuild) + traversals, not the
    // one-time ramp-table construction.
    let mut grid = GridEval::new_batch(&grid_groups[0]);
    {
        // Same batched structure as the timed loop below, so the
        // assertion covers exactly the code path being timed.
        let mut totals: Vec<PolicyRun> = Vec::new();
        for items in &grid_groups {
            grid.renew_batch(items);
            for run in &suite.runs {
                totals.clear();
                totals.resize(grid.grid_len(), PolicyRun::default());
                for (fu, spectrum) in run.sim.fu_idle.iter().enumerate() {
                    for (total, one) in totals
                        .iter_mut()
                        .zip(grid.run(run.sim.fu_active[fu], spectrum))
                    {
                        *total += *one;
                    }
                }
                for ((model, forms), item_totals) in
                    items.iter().zip(totals.chunks(grid_combos.len()))
                {
                    for (&form, got) in forms.iter().zip(item_totals) {
                        assert!(
                            *got == policy_energy_of(model, form, &run.sim),
                            "grid kernel and scalar loop disagree on a policy point"
                        );
                    }
                }
            }
        }
    }
    eprintln!(
        "[repro] bench: grid kernel, {grid_points} points ({} forms/grid), scalar vs grid...",
        grid_combos.len()
    );
    let grid_scalar = time_runs(runs, || {
        for model in &grid_models {
            let forms: Vec<_> = grid_combos.iter().map(|&(k, s)| k.form(model, s)).collect();
            for run in &suite.runs {
                for &form in &forms {
                    std::hint::black_box(policy_energy_of(model, form, &run.sim));
                }
            }
        }
    });
    let mut totals: Vec<PolicyRun> = Vec::new();
    let grid_batched = time_runs(runs, || {
        for items in &grid_groups {
            grid.renew_batch(items);
            for run in &suite.runs {
                totals.clear();
                totals.resize(grid.grid_len(), PolicyRun::default());
                for (fu, spectrum) in run.sim.fu_idle.iter().enumerate() {
                    for (total, one) in totals
                        .iter_mut()
                        .zip(grid.run(run.sim.fu_active[fu], spectrum))
                    {
                        *total += *one;
                    }
                }
                std::hint::black_box(&mut totals);
            }
        }
    });

    // End-to-end default exploration: the full default grid through
    // `explore()` on a fresh engine each run (substrate simulation
    // included), the number the ≥10⁶-points acceptance pins.
    let explore_spec = ExploreSpec::new(Budget::Quick);
    let explore_points = explore_spec.points();
    eprintln!("[repro] bench: default explore, {explore_points} grid points end-to-end...");
    let explore_runs = time_runs(runs, || {
        let engine = Engine::new(jobs);
        std::hint::black_box(explore(&engine, &explore_spec));
    });

    // Serving-tier workload: the same fixed-geometry sweep over HTTP.
    // Cold: 8 concurrent clients race one cold sweep — the engine's
    // single-flight layer must simulate each grid point exactly once,
    // so the dedup factor is requested/simulated points. Warm:
    // closed-loop throughput with keep-alive + response cache (the
    // production path), keep-alive without the cache (render per
    // request), and connection-per-request without the cache (the
    // pre-pool thread-per-connection baseline).
    let serve_target = "/sweep?bench=gzip,vpr&int-fus=1:4&l2=12,18,24,32&format=json";
    eprintln!("[repro] bench: serving tier, {sweep_points}-point sweep over HTTP...");
    let serve_engine = std::sync::Arc::new(Engine::new(jobs));
    let server = Server::bind(
        "127.0.0.1:0",
        std::sync::Arc::clone(&serve_engine),
        Budget::Quick,
    )
    .map_err(|e| format!("bench serve: {e}"))?;
    let serve_addr = server.local_addr().to_string();
    let handle = server.spawn();
    let mut cold_spec = LoadSpec::new(serve_addr.clone(), serve_target);
    cold_spec.clients = 8;
    cold_spec.requests = 1;
    let serve_cold = loadgen::run(&cold_spec);
    let cold_simulated = serve_engine.stats().simulated().max(1);
    let serve_dedup = (cold_spec.clients * sweep_points) as f64 / cold_simulated as f64;
    let mut warm_spec = LoadSpec::new(serve_addr, serve_target);
    warm_spec.clients = 4;
    warm_spec.requests = 64;
    let warm_cached = loadgen::run(&warm_spec);
    handle.stop();
    // Same warm engine, response cache disabled: every request pays a
    // render; close mode additionally pays a connection per request.
    let nocache = ServeConfig {
        respcache_bytes: 0,
        ..ServeConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", serve_engine, Budget::Quick, nocache)
        .map_err(|e| format!("bench serve: {e}"))?;
    warm_spec.addr = server.local_addr().to_string();
    let handle = server.spawn();
    let warm_nocache = loadgen::run(&warm_spec);
    warm_spec.keep_alive = false;
    let warm_close = loadgen::run(&warm_spec);
    handle.stop();
    let serve_speedup = if warm_close.throughput_rps > 0.0 {
        warm_cached.throughput_rps / warm_close.throughput_rps
    } else {
        0.0
    };
    let load_side = |r: &fuleak_experiments::loadgen::LoadReport| {
        format!(
            "{{\"throughput_rps\": {:.0}, \"p50_micros\": {}, \"p99_micros\": {}, \"errors\": {}}}",
            r.throughput_rps, r.p50_micros, r.p99_micros, r.errors
        )
    };

    let warm_speedup = best(&store_cold) / best(&store_warm);
    let grid_side = |secs: &[f64]| {
        format!(
            "{{\"best_seconds\": {:.6}, \"points_per_sec\": {:.0}}}",
            best(secs),
            grid_points as f64 / best(secs)
        )
    };
    let grid_speedup = best(&grid_scalar) / best(&grid_batched);
    let explore_pps = explore_points as f64 / best(&explore_runs);

    let json = format!(
        "{{\n  \"name\": \"repro-bench\",\n  \"budget\": \"quick\",\n  \"jobs\": {jobs},\n  \"runs\": {runs},\n  \"all_quick\": {},\n  \"sweep_fixed_geometry\": {{\"points\": {sweep_points}, {}}},\n  \"store_sweep\": {{\"points\": {sweep_points}, \"cold\": {}, \"warm\": {}, \"warm_speedup\": {warm_speedup:.1}}},\n  \"policy_eval\": {{\"points\": {policy_points}, \"spectrum\": {}, \"interval_replay\": {}, \"speedup_per_point\": {speedup:.1}}},\n  \"explore_grid\": {{\"points\": {grid_points}, \"forms_per_grid\": {}, \"scalar\": {}, \"grid\": {}, \"speedup_per_point\": {grid_speedup:.1}}},\n  \"explore_default\": {{\"points\": {explore_points}, {}, \"points_per_sec\": {explore_pps:.0}}},\n  \"serve\": {{\"target\": \"{serve_target}\", \"cold_concurrent\": {{\"clients\": {}, \"grid_points\": {sweep_points}, \"requested_points\": {}, \"simulated\": {cold_simulated}, \"dedup_factor\": {serve_dedup:.1}, \"wall_seconds\": {:.3}}}, \"warm_keepalive_cached\": {}, \"warm_keepalive_nocache\": {}, \"warm_close_nocache\": {}, \"cached_keepalive_vs_close_nocache\": {serve_speedup:.1}}}\n}}\n",
        json_seconds(&all_quick),
        json_seconds(&sweep).trim_start_matches('{').trim_end_matches('}'),
        json_seconds(&store_cold),
        json_seconds(&store_warm),
        policy_side(&policy_spectrum),
        policy_side(&policy_replay),
        grid_combos.len(),
        grid_side(&grid_scalar),
        grid_side(&grid_batched),
        json_seconds(&explore_runs)
            .trim_start_matches('{')
            .trim_end_matches('}'),
        cold_spec.clients,
        cold_spec.clients * sweep_points,
        serve_cold.elapsed_seconds,
        load_side(&warm_cached),
        load_side(&warm_nocache),
        load_side(&warm_close),
    );
    print!("{json}");
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create --out directory `{}`: {e}", dir.display()))?;
        let path = dir.join("bench.json");
        std::fs::write(&path, &json)
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
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

/// Runs `repro loadgen`: a closed-loop measurement client against a
/// running `repro serve` daemon. The report (throughput and latency
/// percentiles) is wallclock telemetry, printed to stdout as JSON
/// like `repro bench`.
fn run_loadgen(args: &[&str], opts: &Options) -> Result<(), String> {
    let mut addr: Option<String> = None;
    let mut path = "/sweep?bench=gzip&int-fus=1:2&format=json".to_string();
    let mut clients = 4usize;
    let mut requests = 32usize;
    let mut keep_alive = true;
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
        let parse_count = |name: &str, v: String| {
            v.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("invalid {name} value `{v}`"))
        };
        match flag {
            "--addr" => addr = Some(take("--addr")?),
            "--path" => path = take("--path")?,
            "--clients" => clients = parse_count("--clients", take("--clients")?)?,
            "--requests" => requests = parse_count("--requests", take("--requests")?)?,
            "--close" => keep_alive = false,
            other => return Err(format!("unknown loadgen flag `{other}`")),
        }
    }
    let addr = addr.ok_or("repro loadgen needs --addr HOST:PORT")?;
    if opts.format != Format::Text {
        return Err("repro loadgen emits JSON only; --format is not supported".to_string());
    }
    let mut spec = LoadSpec::new(addr, path);
    spec.clients = clients;
    spec.requests = requests;
    spec.keep_alive = keep_alive;
    eprintln!(
        "[repro] loadgen: {} clients x {} requests, {} connections, GET {}",
        spec.clients,
        spec.requests,
        if spec.keep_alive {
            "keep-alive"
        } else {
            "per-request"
        },
        spec.path
    );
    let report = loadgen::run(&spec);
    let json = format!("{}\n", report.to_json());
    print!("{json}");
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create --out directory `{}`: {e}", dir.display()))?;
        let path = dir.join("loadgen.json");
        std::fs::write(&path, &json)
            .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
    }
    if report.requests == 0 {
        return Err("loadgen completed no requests (is the server running?)".to_string());
    }
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
        } else if rest[0] == "bench" {
            run_bench(&rest[1..], &opts)
        } else if rest[0] == "store" {
            run_store(&rest[1..], &opts)
        } else if rest[0] == "serve" {
            run_serve(&rest[1..], &opts)
        } else if rest[0] == "loadgen" {
            run_loadgen(&rest[1..], &opts)
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
}
