//! `sweep_cold` — the CLI user with `FULEAK_STORE` set, sweeping
//! machines nobody has simulated yet.
//!
//! One long-lived `Engine::new(2)` with a fresh scratch `ResultStore`
//! attached. Each op is a seeded grid that was never simulated in this
//! run: one benchmark on a new front-end geometry (so a new trace
//! annotation) × 32 timing points, run through `sweep_table` and
//! `to_json`. Timing replay and annotation do almost all of the work,
//! and the store takes the write-behind of every point and annotation;
//! HTTP, the response cache and `GridEval` do none.

use crate::report::{self, Outcome};
use crate::rng::Rng;
use crate::trace::{span_ms, Accounting, Span, Tracer, ROOT, SETUP_OP};
use crate::{
    closed_loop, set_success, set_timing, set_up, setup_median, write_spans, Args, Limit, Phases,
    Timed, JOBS,
};
use fuleak_experiments::experiment::sweep_table;
use fuleak_experiments::scenario::{parallel_map, EngineStats};
use fuleak_experiments::{Budget, Engine, ResultStore, SweepSpec};
use fuleak_uarch::{CoreConfig, MachineConfig};
use fuleak_workloads::Benchmark;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Instructions per simulated point: small enough that an op of 32
/// points takes tens of milliseconds, so a run holds hundreds of ops.
const BUDGET: Budget = Budget::Custom(40_000);

/// Traced runs execute `seconds × TRACED_OPS_PER_S` ops.
const TRACED_OPS_PER_S: usize = 15;

/// Runs generate `seconds × MAX_OPS_PER_S` inputs, several times what
/// the host completes.
const MAX_OPS_PER_S: usize = 100;

/// Every op leaves one annotation and 32 points in the engine, so the
/// resident set grows with the ops completed. `peak_rss_mb` is sampled
/// over the first `RSS_OPS` measured ops only: memory for a fixed amount
/// of work, which a faster op does not inflate.
const RSS_OPS: usize = 200;

/// Ops whose table is recomputed by a fresh sequential engine.
const CHECKED: usize = 3;

/// One op: a benchmark on a front-end geometry no other op uses,
/// crossed with two values on each of five timing axes. Replay time per
/// op grows with the point count and retained annotation bytes do not,
/// so 32 points keep the engine's growth (one annotation per op) a
/// modest share of `peak_rss_mb`.
struct Op {
    bench: &'static str,
    config: CoreConfig,
    fus: [usize; 2],
    l2: [u64; 2],
    rob: [usize; 2],
    width: [usize; 2],
    memory: [u64; 2],
}

impl Op {
    fn spec(&self) -> Result<SweepSpec, String> {
        let machine = MachineConfig::new(self.config.clone()).map_err(|e| e.to_string())?;
        Ok(SweepSpec::new(BUDGET)
            .benches([self.bench])
            .base(machine)
            .axis_int_fus(self.fus)
            .axis_l2_latency(self.l2)
            .axis_rob(self.rob)
            .axis_width(self.width)
            .axis_memory_latency(self.memory))
    }
}

fn two<T: Copy>(rng: &mut Rng, xs: &[T]) -> [T; 2] {
    let v = rng.subset(xs, 2);
    [v[0], v[1]]
}

/// The seeded op list. Front-end geometries are drawn without
/// replacement (and never the Table 2 one the suite uses), so no op
/// reissues a simulated point and op cost does not decay as the
/// caches fill.
fn generate(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 1);
    let benches: Vec<&'static str> = Benchmark::all().iter().map(|b| b.name).collect();
    let pow2 = |lo: u32, hi: u32| (lo..=hi).map(|k| 1usize << k).collect::<Vec<_>>();
    let (bimodal, history, counters, meta, btb_sets) = (
        pow2(9, 13),
        pow2(8, 11),
        pow2(10, 13),
        pow2(8, 11),
        pow2(9, 12),
    );
    let base = CoreConfig::alpha21264();
    let geometry = |c: &CoreConfig| {
        [
            c.l1i.size_bytes as usize,
            c.l1i.ways as usize,
            c.itlb.entries as usize,
            c.bimodal_entries,
            c.l1_history_entries,
            c.history_bits as usize,
            c.l2_counter_entries,
            c.meta_entries,
            c.ras_entries,
            c.btb_sets,
            c.btb_ways,
        ]
    };
    let mut seen = HashSet::from([geometry(&base)]);
    let mut order = benches.clone();
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let mut c = base.clone();
        c.l1i.size_bytes = rng.pick(&[16u64, 32, 64, 128]) * 1024;
        c.l1i.ways = rng.pick(&[1, 2, 4, 8]);
        c.itlb.entries = rng.pick(&[64, 128, 256, 512]);
        c.bimodal_entries = rng.pick(&bimodal);
        c.l1_history_entries = rng.pick(&history);
        c.history_bits = rng.range(6, 12) as u32;
        c.l2_counter_entries = rng.pick(&counters);
        c.meta_entries = rng.pick(&meta);
        c.ras_entries = rng.pick(&[8, 16, 24, 32, 48]);
        c.btb_sets = rng.pick(&btb_sets);
        c.btb_ways = rng.pick(&[1, 2, 4]);
        if !seen.insert(geometry(&c)) {
            continue;
        }
        // Benchmarks cycle through a fresh shuffle every nine ops, so
        // every run holds the same mix of (unequally costly) benchmarks.
        let round = ops.len() % benches.len();
        if round == 0 {
            rng.shuffle(&mut order);
        }
        ops.push(Op {
            bench: order[round],
            config: c,
            fus: two(&mut rng, &[1, 2, 3, 4]),
            l2: two(&mut rng, &[8, 12, 20, 32]),
            rob: two(&mut rng, &[64, 96, 128, 192]),
            width: two(&mut rng, &[2, 4, 6, 8]),
            memory: two(&mut rng, &[60, 80, 120, 200]),
        });
    }
    ops
}

struct World {
    engine: Engine,
    dir: PathBuf,
    ipc_err_pct: f64,
}

/// Set-up: open a fresh store, capture every functional trace the run
/// needs, and simulate the Table 3 suite for `ipc_err_pct`.
fn build(tracer: &Tracer) -> Result<World, String> {
    tracer.span(SETUP_OP, ROOT, "setup", |root| {
        let dir = report::scratch_dir("sweep_cold-store")?;
        let store = ResultStore::open(&dir).map_err(|e| format!("open store: {e}"))?;
        let engine = Engine::new(JOBS);
        engine.set_store(Some(Arc::new(store)));
        let keys: Vec<(&'static str, Budget)> = Benchmark::all()
            .iter()
            .flat_map(|b| [(b.name, Budget::Quick), (b.name, BUDGET)])
            .collect();
        tracer.span(SETUP_OP, root, "workloads.capture", |_| {
            parallel_map(JOBS, keys, |(bench, budget)| {
                engine.trace(bench, budget);
            })
        });
        let ipc_err_pct = tracer.span(SETUP_OP, root, "setup.suite", |_| {
            report::ipc_err_pct(&engine)
        })?;
        Ok(World {
            engine,
            dir,
            ipc_err_pct,
        })
    })
}

fn discard(world: World) {
    drop(world.engine);
    let _ = std::fs::remove_dir_all(&world.dir);
}

/// The op as the CLI runs it.
fn plain(engine: &Engine, op: &Op) -> Result<String, String> {
    let table = sweep_table(engine, &op.spec()?).map_err(|e| e.to_string())?;
    Ok(table.to_json())
}

/// The same op split into its public calls, each under a span: expand,
/// trace, annotation, one result per point (over the engine's workers),
/// then the table with the sims warm and its serialization.
fn split(engine: &Engine, tracer: &Tracer, i: u32, op: &Op) -> Result<String, String> {
    tracer.span(i, ROOT, "op", |root| {
        let spec = op.spec()?;
        let expanded = tracer
            .span(i, root, "scenario.expand", |_| spec.try_expand())
            .map_err(|e| e.to_string())?;
        tracer.span(i, root, "workloads.capture", |_| {
            engine.trace(op.bench, BUDGET)
        });
        tracer.span(i, root, "uarch.annotate", |_| {
            engine.annotation(op.bench, BUDGET, &expanded[0].1.machine)
        });
        let points = expanded.into_iter().map(|(_, s)| s).collect();
        parallel_map(JOBS, points, |s| {
            tracer.span(i, root, "uarch.replay", |_| engine.result(s));
        });
        let table = tracer
            .span(i, root, "experiment.table", |_| sweep_table(engine, &spec))
            .map_err(|e| e.to_string())?;
        Ok(tracer.span(i, root, "result.serialize", |_| table.to_json()))
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let tracer = Tracer::new(args.trace);
    let mut phases = Phases::start();
    let ops = generate(args.seed, args.seconds as usize * MAX_OPS_PER_S);
    phases.done("generate");
    let (world, first_setup) = set_up(|| build(&tracer))?;
    phases.done("set-up");
    let engine = &world.engine;

    let mut out = Outcome::new();
    let mut bodies: Vec<Option<String>> = (0..ops.len()).map(|_| None).collect();
    let mut errors = Vec::new();
    let before = engine.stats();
    let limit = Limit::of(args, TRACED_OPS_PER_S, 4);
    let timed = closed_loop(ops.len(), limit, RSS_OPS, |i| {
        let body = if args.trace && i % 2 == 1 {
            split(engine, &tracer, i as u32, &ops[i])
        } else {
            plain(engine, &ops[i])
        };
        match body {
            Ok(body) => bodies[i] = Some(body),
            Err(e) => errors.push(format!("op {i}: {e}")),
        }
    });
    let delta = engine.stats().since(&before);
    set_timing(&mut out, &timed);
    for e in &errors {
        out.fail(e);
    }
    phases.done("timed ops");

    // Output check, untimed: a seeded sample of measured ops recomputed
    // from scratch by a fresh sequential engine must match byte for byte.
    let fresh = Engine::new(1);
    let mut rng = Rng::new(args.seed, 2);
    for k in rng.subset(&timed.measured, CHECKED.min(timed.measured.len())) {
        let expected = plain(&fresh, &ops[k]);
        if bodies[k].is_none() || expected.as_ref().ok() != bodies[k].as_ref() {
            out.fail(&format!(
                "op {k}: table differs from a fresh Engine::new(1)"
            ));
        }
    }
    phases.done("check");

    if args.trace {
        let body_bytes: usize = bodies.iter().flatten().map(String::len).sum();
        let spans = tracer.into_spans();
        write_spans(args, &spans)?;
        layer_metrics(
            &mut out,
            &spans,
            &timed,
            &delta,
            before.captures,
            body_bytes,
        );
    } else {
        out.set("ipc_err_pct", world.ipc_err_pct);
        set_success(&mut out);
    }
    discard(world);
    if !args.trace {
        let setup_s = setup_median(first_setup, || build(&Tracer::new(false)), discard)?;
        out.set("setup_s", setup_s);
    }
    Ok(out)
}

fn layer_metrics(
    out: &mut Outcome,
    spans: &[Span],
    timed: &Timed,
    delta: &EngineStats,
    setup_captures: usize,
    body_bytes: usize,
) {
    out.set(
        "workloads.capture_ms",
        span_ms(spans, SETUP_OP, "workloads.capture"),
    );
    out.set("workloads.captures", setup_captures as f64);
    let measured = timed.measured_spans(spans);
    let acc = Accounting::of(&measured, "op");
    let replays_traced = measured.iter().filter(|s| s.name == "uarch.replay").count();
    out.set("uarch.annotate_ms", acc.mean_ms("uarch.annotate"));
    out.set("uarch.annotations", delta.annotations_built as f64);
    out.set("uarch.replay_ms", acc.mean_ms("uarch.replay"));
    out.set("uarch.replays", delta.simulated() as f64);
    out.set(
        "uarch.replay_ns_per_instr",
        acc.busy_ns("uarch.replay") as f64
            / (replays_traced.max(1) as f64 * BUDGET.instructions() as f64),
    );
    out.set("scenario.expand_us", acc.mean_ms("scenario.expand") * 1e3);
    out.set("experiment.table_ms", acc.mean_ms("experiment.table"));
    out.set("result.serialize_ms", acc.mean_ms("result.serialize"));
    out.set("result.body_bytes", body_bytes as f64);
    out.set("store.disk_writes", delta.disk_writes as f64);
    out.set("store.disk_hits", delta.disk_hits as f64);
    report::engine_counts(out, delta);
    report::trace_summary(out, &acc, &timed.plain_ms());
}
