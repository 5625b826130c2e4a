//! Bench: the simulation hot path — functional execution vs packed
//! trace replay, and a scenario point driven each way.
//!
//! This is the regression harness for the trace-reuse + online
//! idle-recording overhaul: `capture` is the one-time cost of
//! encoding a benchmark's trace, `replay` is what every subsequent
//! FU-count/L2-latency point pays instead of `execute`, and the
//! `point_*` pair shows the end-to-end effect on one timing
//! simulation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fuleak_experiments::harness::Budget;
use fuleak_experiments::scenario::{Engine, Scenario, SweepSpec};
use fuleak_uarch::{annotate, CoreConfig, TimingKernel};
use fuleak_workloads::{Benchmark, EncodedTrace};

const BUDGET: u64 = 200_000;
const BENCH: &str = "gzip";

fn scenario(fus: usize) -> Scenario {
    Scenario::paper(BENCH, fus, 12, Budget::Custom(BUDGET))
}

fn bench(c: &mut Criterion) {
    let reference = Benchmark::by_name(BENCH).unwrap();
    let trace = EncodedTrace::capture(&mut reference.instantiate(), BUDGET).unwrap();
    assert_eq!(trace.len(), BUDGET as usize);
    // Replay must be bit-identical to fresh execution before its
    // speed means anything.
    assert_eq!(scenario(2).run_trace(&trace), scenario(2).run().unwrap());

    let mut group = c.benchmark_group("hotpath");
    group.sample_size(10);
    group.bench_function("execute_functional", |b| {
        b.iter(|| {
            let mut machine = reference.instantiate();
            let retired = machine.run(BUDGET).filter(|r| r.is_ok()).count();
            black_box(retired)
        })
    });
    group.bench_function("capture_packed_trace", |b| {
        b.iter(|| {
            let t = EncodedTrace::capture(&mut reference.instantiate(), BUDGET).unwrap();
            black_box(t.len())
        })
    });
    group.bench_function("replay_packed_trace", |b| {
        b.iter(|| black_box(trace.iter().count()))
    });
    group.bench_function("point_fresh_execution", |b| {
        b.iter(|| black_box(scenario(2).run().unwrap().cycles))
    });
    group.bench_function("point_trace_replay", |b| {
        b.iter(|| black_box(scenario(2).run_trace(&trace).cycles))
    });
    // The two-phase split: `annotate_trace` is the once-per-geometry
    // cost, `timing_kernel_replay` is what every timing-axis point
    // pays instead of `point_trace_replay` (the direct path).
    let cfg = CoreConfig::with_int_fus(2);
    let annotation = annotate(&cfg, &trace);
    let mut kernel = TimingKernel::new();
    assert_eq!(
        kernel.run(&annotation, &cfg),
        scenario(2).run_trace(&trace),
        "two-phase must equal the direct path before its speed means anything"
    );
    group.bench_function("annotate_trace", |b| {
        b.iter(|| black_box(annotate(&cfg, &trace).len()))
    });
    group.bench_function("timing_kernel_replay", |b| {
        b.iter(|| black_box(kernel.run(&annotation, &cfg).cycles))
    });
    // The engine-level win: an FU × L2 sweep of one benchmark (8
    // timing points) against a fresh engine captures the functional
    // trace once and replays it everywhere.
    group.bench_function("engine_fu_l2_sweep", |b| {
        b.iter(|| {
            let engine = Engine::sequential();
            let spec = SweepSpec::new(Budget::Custom(BUDGET))
                .benches([BENCH])
                .l2_latencies([12, 32]);
            engine.run_sweep(&spec);
            assert_eq!(engine.trace_cache().computes(), 1);
            black_box(engine.cache().len())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
