//! The scenario engine's central guarantee: a parallel run is
//! bit-identical to a sequential one. Policies and kernels are
//! documented as deterministic (`core/src/policy.rs`,
//! `workloads/src/kernels/mod.rs`), every simulation is
//! single-threaded and seeded, and the engine only changes *where*
//! points run — never what they compute.

use fuleak_experiments::empirical::fig9_jobs;
use fuleak_experiments::harness::{run_benchmark_on, run_suite_on, Budget};
use fuleak_experiments::scenario::{Engine, Scenario, SweepSpec};
use fuleak_uarch::MachineConfig;
use fuleak_workloads::Benchmark;

/// Small enough to keep the double suite run cheap, large enough to
/// exercise every pipeline structure.
const BUDGET: Budget = Budget::Custom(60_000);

#[test]
fn parallel_suite_is_bit_identical_to_sequential() {
    let sequential = run_suite_on(&Engine::new(1), 12, BUDGET);
    let parallel = run_suite_on(&Engine::new(4), 12, BUDGET);
    // Field-exact equality across every benchmark: cycles, committed
    // instructions, per-FU idle intervals, branch and cache counters.
    assert_eq!(sequential, parallel);
}

#[test]
fn single_benchmark_agrees_across_worker_counts() {
    let bench = Benchmark::by_name("mst").unwrap();
    let one = run_benchmark_on(&Engine::new(1), bench, 12, BUDGET);
    let many = run_benchmark_on(&Engine::new(8), bench, 12, BUDGET);
    assert_eq!(one, many);
}

#[test]
fn suite_points_land_in_the_shared_cache() {
    let engine = Engine::new(4);
    let first = run_suite_on(&engine, 12, BUDGET);
    let simulated = engine.stats().misses;
    // 9 benchmarks x 4 FU candidates, each simulated exactly once.
    assert_eq!(simulated, Benchmark::all().len() * 4);

    // Re-running the suite must be pure cache replay...
    let second = run_suite_on(&engine, 12, BUDGET);
    assert_eq!(engine.stats().misses, simulated, "re-run re-simulated");
    assert_eq!(first, second);

    // ...and a direct sweep over the same points adds nothing.
    let spec = SweepSpec::new(BUDGET).l2_latencies([12]);
    assert_eq!(engine.run_sweep(&spec), 0);
}

#[test]
fn fig9_technology_sweep_is_identical_across_worker_counts() {
    // The Figure 9 technology points fan out on `parallel_map`; the
    // worker count must not change a bit of any row.
    let suite = run_suite_on(&Engine::new(2), 12, BUDGET);
    let sequential = fig9_jobs(&suite, 1);
    let parallel = fig9_jobs(&suite, 4);
    assert_eq!(sequential.len(), parallel.len());
    for (a, b) in sequential.iter().zip(&parallel) {
        assert_eq!(a.p.to_bits(), b.p.to_bits());
        assert_eq!(a.relative.map(f64::to_bits), b.relative.map(f64::to_bits));
        assert_eq!(
            a.leakage_fraction.map(f64::to_bits),
            b.leakage_fraction.map(f64::to_bits)
        );
    }
}

#[test]
fn scenario_results_are_stable_across_engines() {
    let s = Scenario::paper("gzip", 2, 12, BUDGET);
    let a = Engine::new(3).result(s.clone());
    let b = Engine::sequential().result(s);
    assert_eq!(*a, *b);
}

#[test]
fn cached_trace_replay_is_bit_identical_to_fresh_execution() {
    // The engine captures one packed trace per (bench, budget) and
    // replays it across the FU × L2 sweep; a replayed point must be
    // field-exactly equal to re-running the functional executor from
    // scratch (`Scenario::run` never touches the caches).
    let engine = Engine::new(4);
    let spec = SweepSpec::new(BUDGET)
        .benches(["mst", "vpr"])
        .fu_counts([1, 4])
        .l2_latencies([12, 32]);
    engine.run_sweep(&spec);
    // All four FU/L2 variations of each benchmark replayed one trace.
    assert_eq!(engine.trace_cache().len(), 2);
    assert_eq!(engine.trace_cache().computes(), 2);
    for s in spec.scenarios() {
        let fresh = s.run().unwrap();
        assert_eq!(
            *engine.result(s.clone()),
            fresh,
            "{s:?} diverged from replay"
        );
    }
}

#[test]
fn suite_runs_one_functional_execution_per_benchmark() {
    // Both L2 latencies of the full suite — 2 × 9 × 4 timing points —
    // must share the nine per-benchmark traces.
    let engine = Engine::new(4);
    let twelve = run_suite_on(&engine, 12, BUDGET);
    let thirty_two = run_suite_on(&engine, 32, BUDGET);
    assert_eq!(engine.trace_cache().computes(), Benchmark::all().len());
    assert_eq!(engine.stats().misses, Benchmark::all().len() * 4 * 2);
    // And the sequential, lazily-simulating engine agrees point for
    // point despite a different trace-capture and simulation order.
    let seq = Engine::new(1);
    assert_eq!(run_suite_on(&seq, 12, BUDGET), twelve);
    assert_eq!(run_suite_on(&seq, 32, BUDGET), thirty_two);
    assert_eq!(seq.trace_cache().computes(), Benchmark::all().len());
}

#[test]
fn non_paper_axes_key_the_cache_distinctly_across_worker_counts() {
    // The MachineConfig key must separate machine variants the paper
    // never studied — here width 2 vs width 4 — and keep the engine's
    // jobs=1 ≡ jobs=4 guarantee over them.
    let spec = SweepSpec::new(BUDGET)
        .benches(["gzip"])
        .axis_int_fus([2])
        .axis_l2_latency([12])
        .axis_width([2, 4]);
    let scenarios = spec.scenarios();
    assert_eq!(scenarios.len(), 2);

    let seq = Engine::new(1);
    let par = Engine::new(4);
    assert_eq!(seq.run_sweep(&spec), 2);
    assert_eq!(par.run_sweep(&spec), 2);

    // Distinct cached points under distinct machine keys...
    assert_eq!(seq.cache().len(), 2, "width variants aliased in the cache");
    let narrow = seq.result(scenarios[0].clone());
    let wide = seq.result(scenarios[1].clone());
    assert_ne!(scenarios[0].machine, scenarios[1].machine);
    assert_ne!(
        scenarios[0].machine.fingerprint(),
        scenarios[1].machine.fingerprint()
    );
    assert_ne!(*narrow, *wide, "width must change the timing result");

    // ...agreeing field-exactly across worker counts, with re-lookup
    // served from cache.
    for s in &scenarios {
        assert_eq!(
            *seq.result(s.clone()),
            *par.result(s.clone()),
            "{s:?} diverged"
        );
    }
    assert_eq!(seq.cache().len(), 2);
    assert_eq!(par.cache().len(), 2);

    // Both variants replayed the single captured gzip trace.
    assert_eq!(seq.trace_cache().computes(), 1);
}

#[test]
fn l2_latency_sweep_shares_one_annotation_per_benchmark() {
    // L2 latency is a timing axis: every point of an L2 sweep shares
    // its benchmark's single front-end geometry annotation, and each
    // two-phase result stays field-exactly equal to the direct
    // single-phase path (`Scenario::run` executes the kernel fresh and
    // runs the reference `Simulator`, touching no cache).
    let engine = Engine::new(4);
    let spec = SweepSpec::new(BUDGET)
        .benches(["gzip", "mst"])
        .axis_int_fus([1, 2, 4])
        .axis_l2_latency([8, 12, 20, 32]);
    engine.run_sweep(&spec);
    assert_eq!(engine.stats().misses, 2 * 3 * 4);
    assert_eq!(
        engine.annotation_cache().len(),
        2,
        "an L2×FU sweep must annotate each benchmark exactly once"
    );
    assert_eq!(engine.annotation_cache().computes(), 2);
    assert!(engine.annotation_cache().annotated_bytes() > 0);
    for s in spec.scenarios() {
        assert_eq!(
            *engine.result(s.clone()),
            s.run().unwrap(),
            "{s:?}: two-phase diverged from the direct path"
        );
    }
    // A geometry change (smaller BTB) forces — and gets — exactly one
    // new annotation per benchmark, under the same trace.
    let narrow_btb = SweepSpec::new(BUDGET)
        .benches(["gzip", "mst"])
        .base(MachineConfig::derived(|c| c.btb_sets = 16).unwrap())
        .axis_int_fus([1, 4])
        .axis_l2_latency([12, 32]);
    engine.run_sweep(&narrow_btb);
    assert_eq!(engine.annotation_cache().len(), 4);
    assert_eq!(engine.trace_cache().computes(), 2, "traces still shared");
    for s in narrow_btb.scenarios() {
        assert_eq!(*engine.result(s.clone()), s.run().unwrap(), "{s:?}");
    }
}

#[test]
fn rebuilt_machine_configs_hit_the_same_cache_entry() {
    // A MachineConfig rebuilt from an equal CoreConfig must be the
    // same cache key: same fingerprint, same interned storage, and a
    // cache hit rather than a re-simulation.
    let engine = Engine::sequential();
    let a = Scenario::new(
        "mst",
        MachineConfig::derived(|c| c.rob_entries = 64).unwrap(),
        BUDGET,
    );
    let first = engine.result(a);
    let misses = engine.stats().misses;
    let b = Scenario::new(
        "mst",
        MachineConfig::derived(|c| c.rob_entries = 64).unwrap(),
        BUDGET,
    );
    let second = engine.result(b);
    assert_eq!(engine.stats().misses, misses, "equal machine re-simulated");
    assert_eq!(*first, *second);
}

#[test]
fn policy_sweep_is_identical_across_worker_counts_and_pure_on_warm_caches() {
    // The evaluation layer inherits the engine guarantee: a policy ×
    // slices × leakage sweep serializes byte-identically whether the
    // underlying points were simulated on 1 worker or 4, and over a
    // warm engine it is pure cache evaluation — no simulation, no
    // annotation, no trace capture.
    use fuleak_experiments::experiment::sweep_table;
    use fuleak_experiments::policy::PolicyKind;

    let spec = SweepSpec::new(BUDGET)
        .benches(["gzip", "mst"])
        .axis_int_fus([1, 2])
        .axis_l2_latency([12])
        .axis_policy([
            PolicyKind::MaxSleep,
            PolicyKind::GradualSleep,
            PolicyKind::AlwaysActive,
            PolicyKind::NoOverhead,
        ])
        .axis_slices([2, 8, 32])
        .axis_leak_ratio([0.05, 0.5]);

    let seq = Engine::new(1);
    let par = Engine::new(4);
    let table_seq = sweep_table(&seq, &spec).unwrap();
    let table_par = sweep_table(&par, &spec).unwrap();
    assert_eq!(table_seq.to_json(), table_par.to_json());
    assert_eq!(table_seq.to_csv(), table_par.to_csv());
    // 4 machine points × (3 gradual slice counts + 3 dedup'd others)
    // × 2 leakage points.
    assert_eq!(table_seq.rows().len(), 4 * (3 + 3) * 2);

    // Warm re-evaluation: rows reprice from the policy cache alone.
    let sims = par.stats().misses;
    let annotations = par.annotation_cache().computes();
    let captures = par.trace_cache().computes();
    let again = sweep_table(&par, &spec).unwrap();
    assert_eq!(again.to_json(), table_par.to_json());
    assert_eq!(par.stats().misses, sims, "warm policy sweep re-simulated");
    assert_eq!(par.annotation_cache().computes(), annotations);
    assert_eq!(par.trace_cache().computes(), captures);
    assert!(par.policy_cache().hits() >= again.rows().len());
}

#[test]
fn sibling_replay_is_identical_across_jobs_and_store_tiers() {
    // One `prime` replays nine timing siblings per front-end geometry
    // and a lone narrow-BTB gzip point, a geometry of its own that
    // still shares gzip's trace. The rendered table and every cached
    // result must not depend on the worker count or on where the
    // store tier sits.
    use fuleak_experiments::experiment::sweep_table;
    use fuleak_experiments::ResultStore;
    use std::sync::Arc;

    let siblings = SweepSpec::new(BUDGET)
        .benches(["gzip", "vpr"])
        .axis_int_fus(1..=3)
        .axis_l2_latency([12, 18, 24]);
    let singleton = SweepSpec::new(BUDGET)
        .benches(["gzip"])
        .base(MachineConfig::derived(|c| c.btb_sets = 16).unwrap())
        .axis_int_fus([2]);
    let scenarios: Vec<Scenario> = siblings
        .scenarios()
        .into_iter()
        .chain(singleton.scenarios())
        .collect();
    assert_eq!(scenarios.len(), 2 * 9 + 1);
    let geometry = |s: &Scenario| (s.bench, s.machine.frontend_fingerprint());
    assert!(scenarios[..9]
        .iter()
        .all(|s| geometry(s) == geometry(&scenarios[0])));
    assert!(scenarios[..18]
        .iter()
        .all(|s| geometry(s) != geometry(&scenarios[18])));

    // One `prime` over both specs, then both tables from the warm
    // caches; returns the concatenated JSON and the engine.
    let run = |jobs: usize, store: Option<Arc<ResultStore>>| {
        let engine = Engine::new(jobs);
        engine.set_store(store);
        engine.prime(&scenarios);
        let json = [&siblings, &singleton]
            .map(|spec| sweep_table(&engine, spec).unwrap().to_json())
            .concat();
        (json, engine)
    };

    let (reference, oracle) = run(1, None);
    for jobs in [1, 4] {
        let root = std::env::temp_dir().join(format!(
            "fuleak-determinism-store-{}-{jobs}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let open = || Some(Arc::new(ResultStore::open(&root).expect("open temp store")));

        let (off, off_engine) = run(jobs, None);
        let (cold, cold_engine) = run(jobs, open());
        let (warm, warm_engine) = run(jobs, open());
        let _ = std::fs::remove_dir_all(&root);

        assert_eq!(off, reference, "store off, jobs {jobs}");
        assert_eq!(cold, reference, "cold store, jobs {jobs}");
        assert_eq!(warm, reference, "warm store, jobs {jobs}");
        assert_eq!(cold_engine.stats().simulated(), scenarios.len());
        assert_eq!(
            warm_engine.stats().simulated(),
            0,
            "warm store re-simulated"
        );
        for engine in [&off_engine, &cold_engine, &warm_engine] {
            for s in &scenarios {
                assert_eq!(
                    *engine.result(s.clone()),
                    *oracle.result(s.clone()),
                    "{s:?}"
                );
            }
        }
    }

    // The replayed points equal the direct single-phase path: the
    // first and last sibling of one geometry and the singleton.
    for s in [&scenarios[0], &scenarios[8], &scenarios[18]] {
        assert_eq!(*oracle.result(s.clone()), s.run().unwrap(), "{s:?}");
    }
}

#[test]
fn adaptive_pricing_is_bit_identical_to_the_occurrence_oracle_on_real_spectra() {
    // AdaptiveSleep pricing walks its predictor per spectrum line and
    // adds each constant interval shape with an exact k-fold add. On
    // every FU spectrum of the Table 3 suite (every FU-count candidate
    // at the quick budget) and at three leakage points, the engine's
    // priced run must equal the per-occurrence oracle — `intervals_run`
    // over each FU's canonical interval list, summed over FUs in FU
    // order — bit for bit.
    use fuleak_core::accounting::PolicyRun;
    use fuleak_core::policy_eval::intervals_run;
    use fuleak_experiments::policy::{EvalPoint, PolicyKind};
    use fuleak_experiments::scenario::FU_CANDIDATES;

    fn bits(r: &PolicyRun) -> [u64; 9] {
        let e = &r.energy;
        [
            e.dynamic.to_bits(),
            e.leak_hi.to_bits(),
            e.leak_lo.to_bits(),
            e.transition.to_bits(),
            e.overhead.to_bits(),
            r.active_cycles,
            r.uncontrolled_idle_equiv.to_bits(),
            r.sleep_equiv.to_bits(),
            r.transitions_equiv.to_bits(),
        ]
    }

    let engine = Engine::new(2);
    let suite = run_suite_on(&engine, 12, Budget::Quick);
    let mut priced = 0;
    for run in &suite.runs {
        for fus in FU_CANDIDATES {
            let s = Scenario::paper(run.name, fus, 12, Budget::Quick);
            let sim = engine.result(s.clone());
            for leak in [0.01, 0.2, 0.9] {
                let point = EvalPoint {
                    policy: PolicyKind::AdaptiveSleep,
                    slices: None,
                    leak,
                    transition: fuleak_core::tech::DEFAULT_SLEEP_OVERHEAD,
                };
                let model = point.model().unwrap();
                let form = point.policy.form(&model, None);
                let mut oracle = PolicyRun::default();
                for (fu, spectrum) in sim.fu_idle.iter().enumerate() {
                    oracle +=
                        intervals_run(&model, form, sim.fu_active[fu], &spectrum.to_lengths());
                }
                let got = engine.policy_run(&s, form, &model);
                assert_eq!(bits(&got), bits(&oracle), "{} x{fus} p={leak}", run.name);
                priced += 1;
            }
        }
    }
    assert_eq!(priced, suite.runs.len() * 4 * 3);
}
