//! The experiment registry: every paper table/figure as a named
//! [`Experiment`] producing a typed, serializable [`ResultTable`].
//!
//! Experiments run against a [`Context`] — a shared [`Engine`] plus
//! per-process memos (one suite per L2 latency, the Figure 9 sweep
//! rows) — so `repro all` simulates each point once no matter how
//! many experiments consume it. The `repro` binary is a thin driver
//! over [`registry`]: it looks experiments up by name, runs them, and
//! picks an output view (text, JSON, CSV, artifact files) of the
//! returned table.

use crate::empirical::Fig9Row;
use crate::harness::{run_suite_on, Budget, SuiteResult};
use crate::render;
use crate::result::{Cell, ResultTable};
use crate::scenario::{Engine, SweepSpec};
use crate::{analytic, empirical};
use std::collections::HashMap;

/// Shared state experiments draw on: the scenario engine and the
/// per-process memos that let Table 3, Figure 7, and Figures 8/9
/// reuse one another's simulations.
pub struct Context<'e> {
    engine: &'e Engine,
    budget: Budget,
    progress: bool,
    suites: HashMap<u64, SuiteResult>,
    fig9_rows: Option<Vec<Fig9Row>>,
}

impl<'e> Context<'e> {
    /// A context running on `engine` at `budget`.
    pub fn new(engine: &'e Engine, budget: Budget) -> Self {
        Context {
            engine,
            budget,
            progress: false,
            suites: HashMap::new(),
            fig9_rows: None,
        }
    }

    /// Enables progress lines on stderr (what `repro` shows while the
    /// suite simulates).
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// The engine experiments simulate on.
    pub fn engine(&self) -> &Engine {
        self.engine
    }

    /// The instruction budget experiments run at.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The benchmark suite at one L2 latency, simulated on first use
    /// and memoized (all points land in the engine's shared caches).
    pub fn suite(&mut self, l2_latency: u64) -> &SuiteResult {
        if !self.suites.contains_key(&l2_latency) {
            if self.progress {
                eprintln!(
                    "[repro] simulating the suite (L2 = {l2_latency} cycles, {} workers)...",
                    self.engine.jobs()
                );
            }
            let before = self.engine.stats();
            let suite = run_suite_on(self.engine, l2_latency, self.budget);
            if self.progress {
                // Report this suite's own work, not process-cumulative
                // totals (the engine outlives the suite).
                eprintln!(
                    "[repro] {}",
                    render::engine_line(&self.engine.stats().since(&before))
                );
            }
            self.suites.insert(l2_latency, suite);
        }
        &self.suites[&l2_latency]
    }

    /// The Figure 9 technology-sweep rows, computed once and shared
    /// by fig9a and fig9b (policy evaluations land in the engine's
    /// [`crate::policy::PolicyCache`]).
    pub fn fig9_rows(&mut self) -> &[Fig9Row] {
        if self.fig9_rows.is_none() {
            let suite = self.suite(12).clone();
            self.fig9_rows = Some(empirical::fig9_jobs_on(
                self.engine,
                &suite,
                self.engine.jobs(),
            ));
        }
        self.fig9_rows.as_deref().expect("just inserted")
    }
}

/// One reproducible experiment: a stable name and a run producing a
/// typed [`ResultTable`] (which carries the human title).
pub trait Experiment: Sync {
    /// The stable identifier (`table3`, `fig7`, …) used on the CLI
    /// and for artifact file names.
    fn name(&self) -> &'static str;
    /// Produces the experiment's table (simulating through the
    /// context as needed).
    fn run(&self, ctx: &mut Context<'_>) -> ResultTable;
}

/// A registry entry: the builders in [`analytic`]/[`empirical`] keyed
/// by canonical name. The builders own the canonical name/title
/// (shared builders like Figure 4/8 are renamed in their closure);
/// `run` only checks the key agrees, so there is one source of truth.
/// Entries outside the paper's tables/figures (`in_all = false`, like
/// the `policy-ext` extension study) run by name but are not part of
/// `repro all` — its transcript stays pinned to the paper.
struct Entry {
    name: &'static str,
    build: fn(&mut Context<'_>) -> ResultTable,
    in_all: bool,
}

/// A paper table or figure, part of `repro all`.
const fn paper(name: &'static str, build: fn(&mut Context<'_>) -> ResultTable) -> Entry {
    Entry {
        name,
        build,
        in_all: true,
    }
}

impl Experiment for Entry {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, ctx: &mut Context<'_>) -> ResultTable {
        let table = (self.build)(ctx);
        assert_eq!(
            table.name(),
            self.name,
            "registry key and builder table name drifted"
        );
        table
    }
}

/// Every experiment, in `repro all` order.
static REGISTRY: [Entry; 15] = [
    paper("table1", |_| analytic::table1()),
    paper("table2", |_| empirical::table2()),
    paper("fig3", |_| analytic::fig3_table()),
    paper("fig4a", |_| analytic::fig4a_table()),
    paper("fig4b", |_| {
        analytic::fig4_policy_table(10.0, &[0.1, 0.9])
            .named("fig4b", "Figure 4b — policies, idle interval = 10 cycles")
    }),
    paper("fig4c", |_| {
        analytic::fig4_policy_table(100.0, &[0.1, 0.9])
            .named("fig4c", "Figure 4c — policies, idle interval = 100 cycles")
    }),
    paper("fig4d", |_| {
        analytic::fig4_policy_table(1.0, &[0.5])
            .named("fig4d", "Figure 4d — worst case, idle interval = 1 cycle")
    }),
    paper("fig5c", |_| analytic::fig5c_table()),
    paper("table3", |ctx| empirical::table3(ctx.suite(12))),
    paper("fig7", |ctx| {
        let series12 = empirical::fig7(ctx.suite(12));
        let series32 = empirical::fig7(ctx.suite(32));
        let mut t = empirical::fig7_table(&[series12.clone(), series32.clone()]);
        t.note(format!(
            "suite-average idle fraction: {:.3} (L2=12; paper: 0.468), {:.3} (L2=32)",
            series12.total_idle_fraction, series32.total_idle_fraction
        ));
        t
    }),
    paper("fig8a", |ctx| {
        let suite = ctx.suite(12).clone();
        empirical::fig8_table_on(ctx.engine(), &suite, 0.05, 0.5).named(
            "fig8a",
            "Figure 8a — normalized energy, p = 0.05 (alpha = 0.5)",
        )
    }),
    paper("fig8b", |ctx| {
        let suite = ctx.suite(12).clone();
        empirical::fig8_table_on(ctx.engine(), &suite, 0.5, 0.5).named(
            "fig8b",
            "Figure 8b — normalized energy, p = 0.50 (alpha = 0.5)",
        )
    }),
    paper("fig9a", |ctx| empirical::fig9a_table(ctx.fig9_rows())),
    paper("fig9b", |ctx| empirical::fig9b_table(ctx.fig9_rows())),
    Entry {
        name: "policy-ext",
        in_all: false, // beyond the paper: keeps `repro all` pinned
        build: |ctx| {
            let suite = ctx.suite(12).clone();
            empirical::policy_ext_table(ctx.engine(), &suite)
        },
    },
];

/// Every registered experiment — the paper's tables/figures in
/// `repro all` order, then the extras runnable by name only.
pub fn registry() -> impl Iterator<Item = &'static dyn Experiment> {
    REGISTRY.iter().map(|e| e as &dyn Experiment)
}

/// Looks an experiment up by its stable name (extras like
/// `policy-ext` included).
pub fn by_name(name: &str) -> Option<&'static dyn Experiment> {
    registry().find(|e| e.name() == name)
}

/// The experiment names `repro all` expands to, in order — the
/// paper's tables and figures only.
pub fn names() -> Vec<&'static str> {
    REGISTRY
        .iter()
        .filter(|e| e.in_all)
        .map(|e| e.name)
        .collect()
}

/// Every runnable experiment name, extras last.
pub fn all_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|e| e.name).collect()
}

/// Runs a user-specified multi-axis sweep through `engine` and tables
/// the per-point headline statistics: one row per scenario, the axis
/// values echoed as leading columns, the machine identified by its
/// delta from the Table 2 baseline and its canonical fingerprint.
///
/// With evaluation axes set ([`SweepSpec::axis_policy`] /
/// `axis_slices` / `axis_leak_ratio` / `axis_transition_cost`), every
/// machine point is additionally priced under the expanded
/// policy/technology grid — one row per (scenario × eval point),
/// served from the engine's [`crate::policy::PolicyCache`] so a warm
/// engine re-runs no simulation at all.
///
/// # Errors
///
/// Returns the [`fuleak_uarch::ConfigError`] naming the offending
/// field if an axis combination produces an invalid machine.
pub fn sweep_table(
    engine: &Engine,
    spec: &SweepSpec,
) -> Result<ResultTable, fuleak_uarch::ConfigError> {
    let expanded = spec.try_expand()?;
    let scenarios: Vec<_> = expanded.iter().map(|(_, s)| s.clone()).collect();
    engine.prime(&scenarios);
    if spec.has_eval_axes() {
        return Ok(policy_sweep_table(engine, spec, expanded));
    }
    let mut columns = vec!["bench".to_string()];
    columns.extend(spec.axes().iter().map(|a| a.name.to_string()));
    columns.extend(
        [
            "machine",
            "fingerprint",
            "cycles",
            "committed",
            "IPC",
            "idle fraction",
        ]
        .map(String::from),
    );
    let mut t = ResultTable::new(
        "sweep",
        format!(
            "Sweep — {} points ({} instructions/point)",
            expanded.len(),
            spec.budget().instructions()
        ),
        columns,
    );
    for (combo, s) in expanded {
        let sim = engine.result(s.clone());
        let mut row = vec![Cell::str(s.bench)];
        row.extend(combo.iter().map(|&v| Cell::int(v as i64)));
        row.push(Cell::str(s.machine.delta_label()));
        row.push(Cell::str(format!("{:016x}", s.machine.fingerprint())));
        row.push(Cell::int(sim.cycles as i64));
        row.push(Cell::int(sim.committed as i64));
        row.push(Cell::float(sim.ipc(), 3));
        row.push(Cell::float(sim.idle_fraction(), 4));
        t.row(row);
    }
    Ok(t)
}

/// The evaluation-axis view of a sweep: every simulated point priced
/// under the policy × slices × leakage × transition-cost grid. Rows
/// echo machine-axis values, then the resolved policy point (the
/// actual GradualSleep slice count, the technology knobs), then the
/// energy headline: total `E/E_D`, the Figure 8 normalization
/// `E/E_max`, the leakage fraction, and the transition count.
fn policy_sweep_table(
    engine: &Engine,
    spec: &SweepSpec,
    expanded: Vec<(Vec<u64>, crate::scenario::Scenario)>,
) -> ResultTable {
    use fuleak_core::PolicyForm;
    let points = spec.eval_points();
    let mut columns = vec!["bench".to_string()];
    columns.extend(spec.axes().iter().map(|a| a.name.to_string()));
    columns.extend(
        [
            "machine",
            "policy",
            "slices",
            "p",
            "e_tr",
            "E/E_D",
            "E/E_max",
            "leak frac",
            "transitions",
        ]
        .map(String::from),
    );
    let mut t = ResultTable::new(
        "sweep",
        format!(
            "Sweep — {} machine points × {} policy points ({} instructions/point)",
            expanded.len(),
            points.len(),
            spec.budget().instructions()
        ),
        columns,
    );
    // A policy point's model and form depend only on the point, and a
    // machine's delta label only on the machine: price each once.
    let priced: Vec<_> = points
        .iter()
        .map(|pt| {
            let model = pt
                .model()
                .expect("eval axis values are validated at build time");
            (pt, pt.policy.form(&model, pt.slices), model)
        })
        .collect();
    for (combo, s) in expanded {
        let machine = s.machine.delta_label();
        for (pt, form, model) in &priced {
            let run = engine.policy_run(&s, *form, model);
            let mut row = vec![Cell::str(s.bench)];
            row.extend(combo.iter().map(|&v| Cell::int(v as i64)));
            row.push(Cell::str(machine.as_str()));
            row.push(Cell::str(pt.policy.name()));
            row.push(match form {
                PolicyForm::GradualSleep { slices } => Cell::int(i64::from(*slices)),
                _ => Cell::str("-"),
            });
            row.push(Cell::shortest(pt.leak));
            row.push(Cell::shortest(pt.transition));
            row.push(Cell::float(run.energy.total(), 1));
            row.push(Cell::float(run.normalized_to_max(model), 4));
            row.push(Cell::float(run.energy.leakage_fraction().unwrap_or(0.0), 4));
            row.push(Cell::float(run.transitions_equiv, 1));
            t.row(row);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    #[test]
    fn registry_is_complete_and_uniquely_named() {
        let names = names();
        assert_eq!(names.len(), 14, "`repro all` stays pinned to the paper");
        assert_eq!(names[0], "table1");
        assert_eq!(names[13], "fig9b");
        assert!(!names.contains(&"policy-ext"));
        let all = all_names();
        assert_eq!(all.len(), 15);
        assert_eq!(all[14], "policy-ext");
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        assert!(by_name("fig7").is_some());
        assert!(by_name("policy-ext").is_some(), "extras run by name");
        assert!(by_name("fig99").is_none());
    }

    #[test]
    fn analytic_experiments_carry_canonical_names_and_titles() {
        let engine = Engine::sequential();
        let mut ctx = Context::new(&engine, Budget::Custom(1_000));
        let t = by_name("fig4b").unwrap().run(&mut ctx);
        assert_eq!(t.name(), "fig4b");
        assert_eq!(t.title(), "Figure 4b — policies, idle interval = 10 cycles");
        assert!(t.render().contains("MaxSleep"));
        // No simulation was needed for a closed-form experiment.
        assert_eq!(engine.cache().len(), 0);
    }

    #[test]
    fn context_memoizes_the_suite_across_experiments() {
        let engine = Engine::sequential();
        let mut ctx = Context::new(&engine, Budget::Custom(5_000));
        let _ = by_name("table3").unwrap().run(&mut ctx);
        let misses = engine.stats().misses;
        // fig8a reuses the memoized suite: no new simulation.
        let t = by_name("fig8a").unwrap().run(&mut ctx);
        assert_eq!(engine.stats().misses, misses);
        assert_eq!(t.name(), "fig8a");
    }

    #[test]
    fn sweep_table_echoes_axis_values_per_row() {
        let engine = Engine::sequential();
        let spec = SweepSpec::new(Budget::Custom(5_000))
            .benches(["mst"])
            .axis_int_fus([1, 2])
            .axis_l2_latency([12])
            .axis_width([2, 4]);
        let t = sweep_table(&engine, &spec).unwrap();
        assert_eq!(t.rows().len(), 4);
        assert_eq!(t.columns()[0], "bench");
        assert_eq!(t.columns()[1], "int_fus");
        assert_eq!(t.columns()[3], "width");
        let first = &t.rows()[0];
        assert_eq!(first[0].text(), "mst");
        assert_eq!(first[1].text(), "1");
        assert_eq!(first[3].text(), "2");
        // Sweep rows echo the machine's delta label.
        assert!(t.rows()[0][4].text().contains("int_fus=1"));
        assert!(t.rows()[0][4].text().contains("width=2"));
        let bad = SweepSpec::new(Budget::Custom(5_000))
            .benches(["mst"])
            .axis_width([0]);
        assert!(sweep_table(&engine, &bad).is_err());
    }

    #[test]
    fn policy_sweep_prices_warm_points_without_new_simulation() {
        let engine = Engine::sequential();
        let machine_spec = SweepSpec::new(Budget::Custom(5_000))
            .benches(["mst"])
            .axis_int_fus([1, 2])
            .axis_l2_latency([12]);
        // Warm the simulation caches with a plain machine sweep...
        let plain = sweep_table(&engine, &machine_spec).unwrap();
        assert_eq!(plain.rows().len(), 2);
        let simulated = engine.stats().misses;

        // ...then a policy × slices × leakage sweep over the same
        // machine grid must be pure evaluation: rows multiply, the
        // sim cache gains nothing, and the policy cache fills.
        let eval_spec = machine_spec
            .axis_policy([PolicyKind::MaxSleep, PolicyKind::GradualSleep])
            .axis_slices([2, 8])
            .axis_leak_ratio([0.05, 0.5]);
        let t = sweep_table(&engine, &eval_spec).unwrap();
        assert_eq!(engine.stats().misses, simulated, "re-simulated a point");
        // MaxSleep dedups across slice values: (1 + 2) policies × 2
        // leaks = 6 eval points over 2 machine points.
        assert_eq!(eval_spec.eval_points().len(), 6);
        assert_eq!(t.rows().len(), 12);
        assert_eq!(engine.policy_cache().len(), 12);
        assert!(t.columns().iter().any(|c| c == "policy"));
        // The resolved GradualSleep slice count is echoed; MaxSleep
        // rows carry the placeholder.
        let slices_col = t.columns().iter().position(|c| c == "slices").unwrap();
        let texts: Vec<_> = t.rows().iter().map(|r| r[slices_col].text()).collect();
        assert!(["2", "8", "-"].iter().all(|s| texts.iter().any(|t| t == s)));

        // Re-running the same eval sweep is pure cache replay.
        let again = sweep_table(&engine, &eval_spec).unwrap();
        assert_eq!(engine.policy_cache().len(), 12);
        assert!(engine.policy_cache().hits() >= 12);
        assert_eq!(t.to_json(), again.to_json(), "eval sweep must be stable");
    }

    #[test]
    fn policy_ext_reproduces_the_no_advantage_claim() {
        let engine = Engine::new(0);
        let mut ctx = Context::new(&engine, Budget::Custom(60_000));
        let t = by_name("policy-ext").unwrap().run(&mut ctx);
        assert_eq!(t.name(), "policy-ext");
        assert!(t.columns().iter().any(|c| c == "AdaptiveSleep"));
        // Two technology points × (9 benchmarks + average).
        assert_eq!(t.rows().len(), 2 * 10);
        assert!(t.notes()[0].contains("GradualSleep"));
        // The headline claim: at both technology points, neither
        // extension beats GradualSleep by a significant margin — the
        // paper quantifies "significant" as whole design-points, so
        // allow a few percent of slack — and nothing undercuts the
        // NoOverhead floor.
        for row in t.rows().iter().filter(|r| r[0].text() == "Average") {
            let value = |i: usize| row[i].text().parse::<f64>().unwrap();
            let gradual = value(2);
            let floor = value(7); // NoOverhead
            for ext in [value(3), value(4)] {
                assert!(
                    ext >= gradual * 0.95,
                    "extension {ext} significantly beats GradualSleep {gradual}"
                );
                assert!(ext >= floor - 1e-9, "extension {ext} beats the floor");
            }
        }
    }
}
