//! `explore_grid` — design-space exploration on warm spectra.
//!
//! One long-lived `Engine::new(2)` whose spectra are simulated in
//! set-up. Each op is a seeded `ExploreSpec` (a benchmark subset, a
//! policy subset, and varied slice, leakage and transition ranges)
//! sized to roughly 10⁵ grid points, run through `explore` and the
//! serialization of its three digests. The `GridEval` kernel and the
//! optima/frontier fold do the work; replay, the policy cache, HTTP
//! and the store do none.

use crate::report::{self, Outcome};
use crate::rng::Rng;
use crate::trace::{span_ms, Accounting, Span, Tracer, ROOT, SETUP_OP};
use crate::{
    closed_loop, set_success, set_timing, set_up, setup_median, write_spans, Args, Limit, Phases,
    Timed, JOBS,
};
use fuleak_core::tech::{DEFAULT_DUTY_CYCLE, DEFAULT_LEAK_RATIO};
use fuleak_core::{EnergyModel, GridEval, PolicyForm, TechnologyParams};
use fuleak_experiments::explore::{explore, fraction_steps, ExploreResult, EXPLORE_L2};
use fuleak_experiments::harness::{run_benchmark_on, BenchRun};
use fuleak_experiments::policy::{PolicyKind, EVAL_ALPHA};
use fuleak_experiments::scenario::{parallel_map, EngineStats, FU_CANDIDATES};
use fuleak_experiments::{Budget, Engine, ExploreSpec, Scenario, SweepSpec};
use fuleak_workloads::Benchmark;

const BUDGET: Budget = Budget::Quick;

/// Grid points per op are drawn uniformly from this range.
const POINTS: (usize, usize) = (80_000, 125_000);

/// Traced runs execute `seconds × TRACED_OPS_PER_S` ops.
const TRACED_OPS_PER_S: usize = 20;

/// Runs generate `seconds × MAX_OPS_PER_S` inputs.
const MAX_OPS_PER_S: usize = 200;

/// Ops whose digests are recomputed at jobs 1.
const CHECKED: usize = 3;

/// The explorer's work-chunk size (items per `parallel_map` task).
const CHUNK_ITEMS: usize = 64;

/// The seeded op list. AdaptiveSleep is left out, as in the explorer's
/// default grid: its lanes replay per interval, so its cost is not
/// proportional to the point count every op is sized by.
fn generate(seed: u64, n: usize) -> Vec<ExploreSpec> {
    let mut rng = Rng::new(seed, 1);
    let benches: Vec<&'static str> = Benchmark::all().iter().map(|b| b.name).collect();
    let kinds = [
        PolicyKind::MaxSleep,
        PolicyKind::GradualSleep,
        PolicyKind::AlwaysActive,
        PolicyKind::NoOverhead,
        PolicyKind::TimeoutSleep,
    ];
    let mut specs = Vec::with_capacity(n);
    while specs.len() < n {
        let k = rng.range(1, 4);
        let policies = rng.some(&kinds, 2, kinds.len());
        let top = rng.pick(&[8u32, 16, 32, 64]);
        let stride = rng.pick(&[1usize, 2, 4]);
        let spec = ExploreSpec::new(BUDGET)
            .benches(rng.subset(&benches, k))
            .policies(policies)
            .slices((1..=top).step_by(stride));
        let combos = spec.form_combos().len();
        let per_bench = rng.range(POINTS.0, POINTS.1) / combos / k;
        let n_leak = rng.range(6, 60).min(per_bench);
        let n_trans = (per_bench / n_leak).clamp(2, 60);
        let (Some(leaks), Some(trans)) = (axis(&mut rng, n_leak), axis(&mut rng, n_trans)) else {
            continue;
        };
        let spec = spec.leaks(leaks).transitions(trans);
        if (POINTS.0..=POINTS.1).contains(&(spec.points() as usize)) {
            specs.push(spec);
        }
    }
    specs
}

/// `n` evenly spaced fractions at a seeded step and offset, if they fit
/// in `[0, 1]`.
fn axis(rng: &mut Rng, n: usize) -> Option<Vec<f64>> {
    let step = rng.pick(&[0.005, 0.01, 0.02]);
    let span = (n - 1) as f64 * step;
    if span > 1.0 {
        return None;
    }
    let lo = (rng.unit() * (1.0 - span) / 0.005).floor() * 0.005;
    let values = fraction_steps(lo, (lo + span).min(1.0), step);
    (values.len() == n).then_some(values)
}

/// The three digests as the CLI and the daemon emit them.
fn digest(r: &ExploreResult) -> String {
    [&r.optima, &r.frontier, &r.crossover]
        .iter()
        .map(|t| t.to_json())
        .collect()
}

struct World {
    engine: Engine,
    ipc_err_pct: f64,
}

/// Set-up: capture the suite's traces and simulate its spectra (the
/// explorer's substrate, which also yields `ipc_err_pct`).
fn build(tracer: &Tracer) -> Result<World, String> {
    tracer.span(SETUP_OP, ROOT, "setup", |root| {
        let engine = Engine::new(JOBS);
        let benches: Vec<&'static str> = Benchmark::all().iter().map(|b| b.name).collect();
        tracer.span(SETUP_OP, root, "workloads.capture", |_| {
            parallel_map(JOBS, benches, |bench| {
                engine.trace(bench, BUDGET);
            })
        });
        let ipc_err_pct = tracer.span(SETUP_OP, root, "setup.suite", |_| {
            report::ipc_err_pct(&engine)
        })?;
        Ok(World {
            engine,
            ipc_err_pct,
        })
    })
}

/// The explorer's substrate step: every benchmark at its paper-selected
/// FU count, from the warm cache.
fn substrate(engine: &Engine, spec: &ExploreSpec) -> Vec<BenchRun> {
    engine.run_sweep(
        &SweepSpec::new(BUDGET)
            .benches(spec.bench_names().iter().copied())
            .fu_counts(FU_CANDIDATES)
            .l2_latencies([EXPLORE_L2]),
    );
    spec.bench_names()
        .iter()
        .map(|name| {
            let bench = Benchmark::by_name(name).expect("spec benchmarks are registered");
            run_benchmark_on(engine, bench, EXPLORE_L2, BUDGET)
        })
        .collect()
}

fn model_at(leak: f64, transition: f64) -> EnergyModel {
    let tech = TechnologyParams::new(leak, DEFAULT_LEAK_RATIO, transition, DEFAULT_DUTY_CYCLE)
        .expect("generated fractions are valid");
    EnergyModel::new(tech, EVAL_ALPHA).expect("EVAL_ALPHA is a valid activity factor")
}

/// Shadow of the explorer's pricing layer: the same `GridEval` batches
/// over the same chunks and workers, without the fold. Its time is the
/// `core` layer's share of an op; the explorer's remainder is the fold.
fn price_grid(spec: &ExploreSpec, runs: &[BenchRun]) -> f64 {
    let combos = spec.form_combos();
    let (leaks, trans) = (spec.leak_values(), spec.transition_values());
    let per_bench = leaks.len() * trans.len();
    let items = spec.items();
    let chunks: Vec<(usize, usize)> = (0..items)
        .step_by(CHUNK_ITEMS)
        .map(|s| (s, (s + CHUNK_ITEMS).min(items)))
        .collect();
    let sums = parallel_map(JOBS, chunks, |(start, end)| {
        let mut checksum = 0.0;
        let mut grid: Option<GridEval> = None;
        let mut item = start;
        while item < end {
            let bench_i = item / per_bench;
            let group_end = end
                .min((bench_i + 1) * per_bench)
                .min(item + GridEval::PREFERRED_BATCH);
            let models: Vec<EnergyModel> = (item..group_end)
                .map(|it| {
                    model_at(
                        leaks[it / trans.len() % leaks.len()],
                        trans[it % trans.len()],
                    )
                })
                .collect();
            let forms: Vec<Vec<PolicyForm>> = models
                .iter()
                .map(|m| combos.iter().map(|&(k, s)| k.form(m, s)).collect())
                .collect();
            let batch: Vec<(&EnergyModel, &[PolicyForm])> = models
                .iter()
                .zip(&forms)
                .map(|(m, f)| (m, f.as_slice()))
                .collect();
            let grid = match &mut grid {
                Some(g) => {
                    g.renew_batch(&batch);
                    g
                }
                none => none.insert(GridEval::new_batch(&batch)),
            };
            let sim = &runs[bench_i].sim;
            for (fu, spectrum) in sim.fu_idle.iter().enumerate() {
                for run in grid.run(sim.fu_active[fu], spectrum) {
                    checksum += run.energy.total();
                }
            }
            item = group_end;
        }
        checksum
    });
    std::hint::black_box(sums.iter().sum())
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let tracer = Tracer::new(args.trace);
    let mut phases = Phases::start();
    let specs = generate(args.seed, args.seconds as usize * MAX_OPS_PER_S);
    phases.done("generate");
    let (world, first_setup) = set_up(|| build(&tracer))?;
    phases.done("set-up");
    let engine = &world.engine;

    let mut out = Outcome::new();
    let mut digests: Vec<Option<String>> = (0..specs.len()).map(|_| None).collect();
    let before = engine.stats();
    let limit = Limit::of(args, TRACED_OPS_PER_S, 4);
    let timed = closed_loop(specs.len(), limit, usize::MAX, |i| {
        let spec = &specs[i];
        let op = i as u32;
        digests[i] = Some(if args.trace && i % 2 == 1 {
            let body = tracer.span(op, ROOT, "op", |root| {
                let r = tracer.span(op, root, "explore.total", |_| explore(engine, spec));
                tracer.span(op, root, "result.serialize", |_| digest(&r))
            });
            let runs = tracer.span(op, ROOT, "shadow.substrate", |_| substrate(engine, spec));
            tracer.span(op, ROOT, "shadow.grid", |_| price_grid(spec, &runs));
            body
        } else {
            digest(&explore(engine, spec))
        });
    });
    let delta = engine.stats().since(&before);
    set_timing(&mut out, &timed);
    if delta.simulated() != 0 {
        out.fail(&format!(
            "{} points simulated in the timed phase",
            delta.simulated()
        ));
    }
    phases.done("timed ops");

    // Output check, untimed: a seeded sample of measured ops explored
    // again at jobs 1 (on the same spectra) must match byte for byte.
    let check = Engine::new(1);
    for bench in Benchmark::all() {
        for fus in FU_CANDIDATES {
            let s = Scenario::paper(bench.name, fus, EXPLORE_L2, BUDGET);
            check.cache().insert(s.clone(), engine.result(s));
        }
    }
    let mut rng = Rng::new(args.seed, 2);
    for k in rng.subset(&timed.measured, CHECKED.min(timed.measured.len())) {
        if digests[k].as_deref() != Some(digest(&explore(&check, &specs[k])).as_str()) {
            out.fail(&format!("op {k}: digests differ between jobs 2 and jobs 1"));
        }
    }
    phases.done("check");

    if args.trace {
        let spans = tracer.into_spans();
        write_spans(args, &spans)?;
        let body_bytes: usize = digests.iter().flatten().map(String::len).sum();
        layer_metrics(
            &mut out,
            &spans,
            &timed,
            &specs,
            &delta,
            before.captures,
            body_bytes,
        );
    } else {
        out.set("ipc_err_pct", world.ipc_err_pct);
        set_success(&mut out);
    }
    drop(world);
    if !args.trace {
        let setup_s = setup_median(first_setup, || build(&Tracer::new(false)), drop)?;
        out.set("setup_s", setup_s);
    }
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    spans: &[Span],
    timed: &Timed,
    specs: &[ExploreSpec],
    delta: &EngineStats,
    setup_captures: usize,
    body_bytes: usize,
) {
    let dur = |s: &Span| s.end_ns - s.start_ns;
    out.set(
        "workloads.capture_ms",
        span_ms(spans, SETUP_OP, "workloads.capture"),
    );
    out.set("workloads.captures", setup_captures as f64);
    let measured = timed.measured_spans(spans);
    let acc = Accounting::of(&measured, "op");
    let per_op = |name: &str| -> Vec<(u32, u64)> {
        measured
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.op, dur(s)))
            .collect()
    };
    let (totals, subs, grids) = (
        per_op("explore.total"),
        per_op("shadow.substrate"),
        per_op("shadow.grid"),
    );
    let grid_ns: u64 = grids.iter().map(|g| g.1).sum();
    let grid_points: u64 = grids.iter().map(|g| specs[g.0 as usize].points()).sum();
    let folds: Vec<f64> = totals
        .iter()
        .zip(&subs)
        .zip(&grids)
        .map(|((t, s), g)| t.1.saturating_sub(s.1 + g.1) as f64 / 1e6)
        .collect();
    out.set("core.grid_points", delta.grid_points as f64);
    out.set(
        "core.grid_points_per_s",
        grid_points as f64 / (grid_ns.max(1) as f64 / 1e9),
    );
    out.set("explore.total_ms", acc.mean_ms("explore.total"));
    out.set("explore.fold_ms", report::mean(&folds));
    out.set("result.serialize_ms", acc.mean_ms("result.serialize"));
    out.set("result.body_bytes", body_bytes as f64);
    report::engine_counts(out, delta);
    report::trace_summary(out, &acc, &timed.plain_ms());
}
