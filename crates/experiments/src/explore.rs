//! `repro explore` — a grid-batched design-space explorer over the
//! policy × slices × leakage × transition-cost space.
//!
//! The sweep path ([`crate::scenario::SweepSpec`] eval axes) treats a
//! policy/technology grid as *result rows*: every cell is one
//! [`crate::policy::PolicyCache`]-mediated `spectrum_run` call and one
//! table row. That is the right shape for hundreds of points a human
//! reads; it is the wrong shape for the millions-of-points regime the
//! closed-form evaluator makes affordable — the cache's lock/hash
//! round-trip costs more than the evaluation it memoizes, and a
//! materialized row list is gigabytes.
//!
//! This module prices the grid with [`GridEval`] — G policy forms per
//! spectrum traversal — and streams three digests instead of rows:
//!
//! * **optima** — the best `E/E_max` cell per benchmark × policy
//!   family;
//! * **frontier** — per benchmark, the exact Pareto frontier of
//!   `(E/E_max, transition equivalents)` — energy vs. wake-up
//!   exposure, the delay proxy of the spectrum evaluation layer;
//! * **crossover** — per leakage factor `p`, the GradualSleep slice
//!   count with the lowest mean `E/E_max` (the Figure 9 crossover
//!   question asked over the whole grid).
//!
//! A model-free form (AlwaysActive, MaxSleep, NoOverhead, GradualSleep
//! with explicit slices) prices `energy.overhead` from the transition
//! cost and every other field from the leakage factor or from neither
//! ([`fuleak_core::policy_eval::assemble_axis_run`]). So each benchmark
//! prices those forms on `max(n_leak, n_trans)` diagonal axis rows —
//! row `r` at `(leak_r, trans_r)`, each index clamped to its axis, is
//! leak row `r` and transition row `r` — and the fold prices point
//! `(i, j)` in closed form with one add and one divide. TimeoutSleep
//! and AdaptiveSleep take their parameters from each item's breakeven
//! interval, so they are priced per item. Both kinds of task share one
//! [`parallel_map`] queue, axis rows first; the fold is a second one.
//!
//! Items are sharded in **fixed-size chunks of the canonical item
//! order** (benchmark-major, then leakage, then transition cost),
//! independent of the worker count, and chunk folds merge in chunk
//! order. The optima and the frontier break exact ties by canonical
//! grid position, so they do not depend on the order points arrive
//! in; the crossover sums keep a fixed association (per-chunk
//! partials, merged in chunk order). Output is byte-identical for any
//! `--jobs N`. Memory is the axis rows, `O(benchmarks × max(leaks,
//! transitions) × forms)`, plus one fold per chunk until the merge
//! (optima slots, a chunk-local frontier, the sums of the leak rows it
//! touches), all dropped when the call returns; the
//! [`crate::policy::PolicyCache`] is
//! deliberately bypassed (compute is cheaper than memoization at this
//! density; the cache stays for the sweep path).

use crate::harness::{run_benchmark_on, BenchRun, Budget};
use crate::policy::{PolicyKind, EVAL_ALPHA};
use crate::result::{Cell, ResultTable};
use crate::scenario::{effective_jobs, parallel_map, Engine, SweepSpec, FU_CANDIDATES};
use fuleak_core::accounting::PolicyRun;
use fuleak_core::fxhash::FxHashSet;
use fuleak_core::policy_eval::{GridEval, PolicyForm};
use fuleak_core::tech::{DEFAULT_DUTY_CYCLE, DEFAULT_LEAK_RATIO};
use fuleak_core::{EnergyModel, TechnologyParams};
use fuleak_workloads::Benchmark;
use std::ops::Range;

/// The L2 hit latency the explorer simulates its substrate at — the
/// paper's default (Table 2), matching the Figure 8/9 suite.
pub const EXPLORE_L2: u64 = 12;

/// Items per work chunk. Fixed — never derived from the worker count
/// — so the chunk partition, every chunk-local accumulation order,
/// and the chunk-order merge are identical for any `--jobs N`.
const CHUNK_ITEMS: usize = 64;

/// Expands an inclusive `lo..=hi` fraction range at `step` into its
/// value list: `lo + i * step` for `i = 0..=floor((hi - lo) / step)`
/// (with a small tolerance so `0:1:0.02` lands exactly on 51 values).
/// The same expression the CLI's range grammar evaluates, so a flag
/// value and a built-in default can never drift apart bitwise.
///
/// # Panics
///
/// Panics if the range is not ordered, the step is not positive, or
/// any endpoint falls outside `[0, 1]` — explorer fractions are
/// energy-model knobs, validated at build time like
/// [`SweepSpec::axis_leak_ratio`].
pub fn fraction_steps(lo: f64, hi: f64, step: f64) -> Vec<f64> {
    assert!(
        lo.is_finite() && hi.is_finite() && (0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi),
        "fraction range endpoints must lie in [0, 1], got {lo}:{hi}"
    );
    assert!(lo <= hi, "empty fraction range {lo}:{hi}");
    assert!(
        step.is_finite() && step > 0.0,
        "fraction range step must be positive, got {step}"
    );
    let count = fraction_steps_last_index(lo, hi, step) as usize;
    (0..=count).map(|i| lo + i as f64 * step).collect()
}

/// The last index `i` of [`fraction_steps`]`(lo, hi, step)`, which
/// yields this many values plus one. It is an `f64` so a caller can
/// bound the length before anything is allocated (a tiny step makes it
/// larger than any `usize`).
pub(crate) fn fraction_steps_last_index(lo: f64, hi: f64, step: f64) -> f64 {
    ((hi - lo) / step + 1e-9).floor()
}

/// The explorer's design space: benchmarks × policy families ×
/// GradualSleep slice counts × leakage factors × transition costs at
/// one budget. [`ExploreSpec::new`] starts on the default grid (every
/// benchmark; the four paper policies plus TimeoutSleep; slices 1–64;
/// `p` and `E_slp/E_D` each swept `0:1:0.02`) — 1.59M grid points —
/// and the builders replace axes with build-time validation, exactly
/// like [`SweepSpec`].
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    benches: Vec<&'static str>,
    policies: Vec<PolicyKind>,
    slices: Vec<u32>,
    leaks: Vec<f64>,
    transitions: Vec<f64>,
    budget: Budget,
}

impl ExploreSpec {
    /// The default exploration grid at the given budget.
    pub fn new(budget: Budget) -> Self {
        ExploreSpec {
            benches: Benchmark::all().iter().map(|b| b.name).collect(),
            policies: vec![
                PolicyKind::MaxSleep,
                PolicyKind::GradualSleep,
                PolicyKind::AlwaysActive,
                PolicyKind::NoOverhead,
                PolicyKind::TimeoutSleep,
            ],
            slices: (1..=64).collect(),
            leaks: fraction_steps(0.0, 1.0, 0.02),
            transitions: fraction_steps(0.0, 1.0, 0.02),
            budget,
        }
    }

    /// Restricts the exploration to the given benchmarks.
    ///
    /// # Panics
    ///
    /// Panics on an unknown or empty benchmark list — validated at
    /// build time like [`SweepSpec::benches`].
    pub fn benches(mut self, benches: impl IntoIterator<Item = &'static str>) -> Self {
        self.benches = benches
            .into_iter()
            .inspect(|name| {
                assert!(
                    Benchmark::by_name(name).is_some(),
                    "unknown benchmark `{name}`; registered: {}",
                    Benchmark::registered_names()
                );
            })
            .collect();
        assert!(!self.benches.is_empty(), "--bench needs at least one value");
        self
    }

    /// Replaces the policy-family axis.
    ///
    /// # Panics
    ///
    /// Panics on an empty list.
    pub fn policies(mut self, kinds: impl IntoIterator<Item = PolicyKind>) -> Self {
        self.policies = kinds.into_iter().collect();
        assert!(
            !self.policies.is_empty(),
            "--policy needs at least one value"
        );
        self
    }

    /// Replaces the GradualSleep slice-count axis (other families
    /// ignore it and are deduplicated across its values).
    ///
    /// # Panics
    ///
    /// Panics on a zero slice count or an empty list.
    pub fn slices(mut self, slices: impl IntoIterator<Item = u32>) -> Self {
        self.slices = slices
            .into_iter()
            .inspect(|&s| assert!(s > 0, "GradualSleep requires at least one slice"))
            .collect();
        assert!(!self.slices.is_empty(), "--slices needs at least one value");
        self
    }

    /// Replaces the leakage-factor axis (`p = E_hi / E_D`).
    ///
    /// # Panics
    ///
    /// Panics on a value outside `[0, 1]` or an empty list.
    pub fn leaks(mut self, ps: impl IntoIterator<Item = f64>) -> Self {
        self.leaks = ps
            .into_iter()
            .inspect(|&p| {
                assert!(
                    p.is_finite() && (0.0..=1.0).contains(&p),
                    "leakage factor must lie in [0, 1], got {p}"
                );
            })
            .collect();
        assert!(!self.leaks.is_empty(), "--leak needs at least one value");
        self
    }

    /// Replaces the transition-cost axis (`E_slp / E_D`).
    ///
    /// # Panics
    ///
    /// Panics on a value outside `[0, 1]` or an empty list.
    pub fn transitions(mut self, costs: impl IntoIterator<Item = f64>) -> Self {
        self.transitions = costs
            .into_iter()
            .inspect(|&c| {
                assert!(
                    c.is_finite() && (0.0..=1.0).contains(&c),
                    "transition cost must lie in [0, 1], got {c}"
                );
            })
            .collect();
        assert!(
            !self.transitions.is_empty(),
            "--transition needs at least one value"
        );
        self
    }

    /// The spec's benchmarks.
    pub fn bench_names(&self) -> &[&'static str] {
        &self.benches
    }

    /// The spec's instruction budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The policy families explored, in user order.
    pub fn policy_kinds(&self) -> &[PolicyKind] {
        &self.policies
    }

    /// The GradualSleep slice counts explored, in user order.
    pub fn slice_counts(&self) -> &[u32] {
        &self.slices
    }

    /// The leakage-ratio axis, in user order.
    pub fn leak_values(&self) -> &[f64] {
        &self.leaks
    }

    /// The transition-cost axis, in user order.
    pub fn transition_values(&self) -> &[f64] {
        &self.transitions
    }

    /// The deduplicated `(family, slice override)` grid one
    /// technology point prices: policy-major, slices nested, slice
    /// overrides collapsing for every family but GradualSleep — the
    /// same dedup rule as [`SweepSpec::eval_points`], minus the
    /// technology axes (those shard the work instead). Length is
    /// model-independent, so every grid item prices the same G forms.
    pub fn form_combos(&self) -> Vec<(PolicyKind, Option<u32>)> {
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for &policy in &self.policies {
            for &slice in &self.slices {
                let slices = match policy {
                    PolicyKind::GradualSleep => Some(slice),
                    _ => None,
                };
                if seen.insert((policy, slices)) {
                    out.push((policy, slices));
                }
            }
        }
        out
    }

    /// Technology items in the grid: benchmarks × leaks × transitions
    /// (each holds one point per [`ExploreSpec::form_combos`] entry).
    pub fn items(&self) -> usize {
        self.benches.len() * self.leaks.len() * self.transitions.len()
    }

    /// Total policy points the exploration prices: items × forms,
    /// counted from the axis lengths before any grid item exists.
    pub fn points(&self) -> u64 {
        (self.items() as u64).saturating_mul(self.form_combos().len() as u64)
    }
}

/// One `(E/E_max, transitions)` candidate with its grid coordinates.
#[derive(Debug, Clone, Copy)]
struct GridPoint {
    ratio: f64,
    trans: f64,
    leak_i: usize,
    trans_i: usize,
    combo_i: usize,
}

impl GridPoint {
    /// The place in canonical grid order within the benchmark: every
    /// digest breaks exact ties by it, so no fold depends on arrival order.
    fn pos(&self) -> (usize, usize, usize) {
        (self.leak_i, self.trans_i, self.combo_i)
    }
}

/// Optimum tracker: the smaller `E/E_max` wins, ties going to the
/// point earlier in canonical grid order.
fn fold_best(best: &mut Option<(GridPoint, f64)>, p: GridPoint, energy: f64) {
    if best.is_none_or(|(b, _)| (p.ratio, p.pos()) < (b.ratio, b.pos())) {
        *best = Some((p, energy));
    }
}

/// Inserts `p` into a Pareto frontier kept sorted by `ratio`
/// ascending with `trans` strictly descending. Weak dominance: `p` is
/// rejected if a kept point is at least as good on both axes (of
/// exact duplicates, the one earlier in canonical grid order stays),
/// and `p` evicts every point it weakly dominates. The result is the
/// same for any insertion order, so pre-filtering any subset of the
/// points (a chunk, one form's points in a leak row) is exact.
fn frontier_insert(frontier: &mut Vec<GridPoint>, p: GridPoint) {
    let lo = frontier.partition_point(|q| q.ratio < p.ratio);
    // Dominated if any cheaper-or-equal-energy point is at least as
    // unexposed: the cheapest candidate among the strictly-cheaper
    // prefix is its last element, plus a possible equal-energy point
    // at `lo` itself.
    if lo > 0 && frontier[lo - 1].trans <= p.trans {
        return;
    }
    if frontier
        .get(lo)
        .is_some_and(|q| q.ratio == p.ratio && (q.trans, q.pos()) <= (p.trans, p.pos()))
    {
        return;
    }
    let keep_to = lo + frontier[lo..].partition_point(|q| q.trans >= p.trans);
    frontier.splice(lo..keep_to, [p]);
}

/// A fold of grid points: per-`(bench, family)` optima with their
/// `E/E_D`, per-bench frontiers, and `E/E_max` sums per `(leak,
/// gradual slice)` cell. A chunk's fold holds the sums of the leak
/// rows it touches (`sum_rows`, in first-touch order); the merged fold
/// holds every leak row's, in leak order.
#[derive(Debug)]
struct Fold {
    families: usize,
    best: Vec<Option<(GridPoint, f64)>>,
    frontiers: Vec<Vec<GridPoint>>,
    sum_rows: Vec<usize>,
    sums: Vec<f64>,
}

impl Fold {
    fn new(benches: usize, families: usize) -> Self {
        Fold {
            families,
            best: vec![None; benches * families],
            frontiers: vec![Vec::new(); benches],
            sum_rows: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Folds one point of benchmark `bench_i` and family `family` into
    /// the optima and the frontier.
    fn point(&mut self, bench_i: usize, family: usize, p: GridPoint, energy: f64) {
        fold_best(&mut self.best[bench_i * self.families + family], p, energy);
        frontier_insert(&mut self.frontiers[bench_i], p);
    }

    /// The offset of leak row `leak_i`'s `width` sums, added zeroed on
    /// first touch.
    fn sum_row(&mut self, leak_i: usize, width: usize) -> usize {
        let row = match self.sum_rows.iter().position(|&l| l == leak_i) {
            Some(row) => row,
            None => {
                self.sum_rows.push(leak_i);
                self.sums.resize(self.sums.len() + width, 0.0);
                self.sum_rows.len() - 1
            }
        };
        row * width
    }

    /// Merges the next chunk's fold. Its sums add to the touched cells
    /// only: every sum is non-negative, so adding a chunk's `+0.0` to
    /// an untouched cell would change no bit.
    fn merge(&mut self, chunk: Fold, width: usize) {
        for (slot, best) in chunk.best.into_iter().enumerate() {
            if let Some((p, energy)) = best {
                fold_best(&mut self.best[slot], p, energy);
            }
        }
        for (frontier, chunk_frontier) in self.frontiers.iter_mut().zip(chunk.frontiers) {
            for p in chunk_frontier {
                frontier_insert(frontier, p);
            }
        }
        for (row, &leak_i) in chunk.sum_rows.iter().enumerate() {
            let cells = &mut self.sums[leak_i * width..][..width];
            for (cell, s) in cells.iter_mut().zip(&chunk.sums[row * width..]) {
                *cell += s;
            }
        }
    }
}

/// The three streamed digests of one exploration, plus the priced
/// point count (what the CLI reports and BENCH records).
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// Best `E/E_max` per benchmark × policy family.
    pub optima: ResultTable,
    /// Per-benchmark `(E/E_max, transitions)` Pareto frontiers.
    pub frontier: ResultTable,
    /// Best GradualSleep slice count per leakage factor.
    pub crossover: ResultTable,
    /// Policy points priced.
    pub points: u64,
}

/// A spec's [`ExploreSpec::form_combos`] with their family and
/// GradualSleep-slice projections, for the optima rows and the
/// crossover sums.
struct Combos {
    list: Vec<(PolicyKind, Option<u32>)>,
    families: Vec<PolicyKind>,
    family: Vec<usize>,
    gradual_slices: Vec<u32>,
    gradual: Vec<Option<usize>>,
}

impl Combos {
    fn new(spec: &ExploreSpec) -> Self {
        let list = spec.form_combos();
        let (mut families, mut family) = (Vec::new(), Vec::new());
        let (mut gradual_slices, mut gradual) = (Vec::new(), Vec::new());
        for &(kind, slices) in &list {
            family.push(index_of(&mut families, kind));
            gradual.push(slices.map(|s| index_of(&mut gradual_slices, s)));
        }
        Combos {
            list,
            families,
            family,
            gradual_slices,
            gradual,
        }
    }
}

/// The index of `v` in `values`, appended if new.
fn index_of<T: Copy + PartialEq>(values: &mut Vec<T>, v: T) -> usize {
    values.iter().position(|&x| x == v).unwrap_or_else(|| {
        values.push(v);
        values.len() - 1
    })
}

/// The closed-form terms of one model-free form on one axis row: as
/// leak row, `energy.total_before_overhead()`, `E_max` (it reads the
/// model only through `active_cycle()`, so only `p`) and transition
/// equivalents; as transition row, `energy.overhead`.
#[derive(Debug, Clone, Copy)]
struct AxisTerms {
    part: f64,
    e_max: f64,
    teq: f64,
    overhead: f64,
}

/// A task of the pricing pass: one benchmark's axis rows (model-free
/// forms), or one chunk of grid items (per-item forms).
enum Unit {
    Rows(usize, Range<usize>),
    Items(Range<usize>),
}

/// A pricing task's yield: the rows' terms, form-minor, or the
/// chunk's per-item points, folded.
enum Priced {
    Rows(Vec<AxisTerms>),
    Items(Fold),
}

/// Prices one group of technology items against one benchmark's FU
/// spectra — one [`GridEval`] traversal per FU for the whole group,
/// re-targeting `grid` when it already exists — into `totals`,
/// item-major. Per-FU accumulation in FU order is the exact
/// association `policy_energy_of` uses, so every total is bit-identical
/// to the scalar `spectrum_run` path. Returns the traversal count.
fn price_group(
    grid: &mut Option<GridEval>,
    run: &BenchRun,
    batch: &[(&EnergyModel, &[PolicyForm])],
    totals: &mut Vec<PolicyRun>,
) -> usize {
    let grid = match grid {
        Some(grid) => {
            grid.renew_batch(batch);
            grid
        }
        none => none.insert(GridEval::new_batch(batch)),
    };
    totals.clear();
    totals.resize(grid.grid_len(), PolicyRun::default());
    let sim = &run.sim;
    for (fu, spectrum) in sim.fu_idle.iter().enumerate() {
        for (total, run) in totals.iter_mut().zip(grid.run(sim.fu_active[fu], spectrum)) {
            *total += *run;
        }
    }
    sim.fu_idle.len()
}

/// Builds the energy model of one technology item (paper defaults for
/// the leak ratio and duty cycle, [`EVAL_ALPHA`] activity).
fn model_at(leak: f64, transition: f64) -> EnergyModel {
    let tech = TechnologyParams::new(leak, DEFAULT_LEAK_RATIO, transition, DEFAULT_DUTY_CYCLE)
        .expect("explore fractions are validated at build time");
    EnergyModel::new(tech, EVAL_ALPHA).expect("EVAL_ALPHA is a valid activity factor")
}

/// Runs one exploration: simulates the substrate (each benchmark at
/// its paper-selected FU count, through the engine's caches as
/// usual), then prices and folds the grid (`fold_grid`) with no
/// [`crate::policy::PolicyCache`] traffic. Output is byte-identical
/// for any engine worker count; grid counters land in
/// [`crate::scenario::EngineStats`]: the points of the full product,
/// and the traversals that actually ran.
pub fn explore(engine: &Engine, spec: &ExploreSpec) -> ExploreResult {
    // Substrate: fan the FU-candidate points out across workers, then
    // apply the selection rule per benchmark from the warm cache.
    let substrate = SweepSpec::new(spec.budget)
        .benches(spec.benches.iter().copied())
        .fu_counts(FU_CANDIDATES)
        .l2_latencies([EXPLORE_L2]);
    engine.run_sweep(&substrate);
    let runs: Vec<BenchRun> = spec
        .benches
        .iter()
        .map(|name| {
            let bench = Benchmark::by_name(name).expect("spec benchmarks are validated");
            run_benchmark_on(engine, bench, EXPLORE_L2, spec.budget)
        })
        .collect();
    let combos = Combos::new(spec);
    let (fold, batches) = fold_grid(engine.jobs(), spec, &runs, &combos);
    engine.note_grid(batches, spec.points());
    render(spec, &runs, &combos, &fold)
}

/// Prices the grid of `spec` over the benchmarks' `runs` on `jobs`
/// workers in one [`GridEval`] pass (the model-free forms once per
/// diagonal axis row, the others per item, one spectrum traversal per
/// FU per kernel group) and folds it, the model-free points in closed
/// form. Returns the merged fold and the traversal count.
fn fold_grid(jobs: usize, spec: &ExploreSpec, runs: &[BenchRun], combos: &Combos) -> (Fold, usize) {
    // A model-free combo prices separably over the technology axes,
    // so it is priced on the axis rows; the rest are priced per item.
    let (mut axis_forms, mut axis_combos, mut item_combos) = (Vec::new(), Vec::new(), Vec::new());
    let corner = model_at(spec.leaks[0], spec.transitions[0]);
    for (combo_i, &(kind, slices)) in combos.list.iter().enumerate() {
        if kind.model_free(slices) {
            axis_forms.push(kind.form(&corner, slices));
            axis_combos.push(combo_i);
        } else {
            item_combos.push(combo_i);
        }
    }
    let (n_axis, n_item) = (axis_forms.len(), item_combos.len());
    let (leaks, trans) = (&spec.leaks, &spec.transitions);
    let (n_leak, n_trans) = (leaks.len(), trans.len());
    let (per_bench, n_items) = (n_leak * n_trans, spec.items());
    let width = combos.gradual_slices.len();
    let new_fold = || Fold::new(runs.len(), combos.families.len());

    // The diagonal axis rows: row `r` at `(leak_r, trans_r)`, each
    // index clamped to its axis, so row `i` is leak row `i` and
    // transition row `i` at once (`assemble_axis_run`).
    let n_rows = n_leak.max(n_trans);
    let row_model = |r: usize| model_at(leaks[r.min(n_leak - 1)], trans[r.min(n_trans - 1)]);
    let item_model = |it: usize| model_at(leaks[it / n_trans % n_leak], trans[it % n_trans]);
    let chunks: Vec<Range<usize>> = (0..n_items)
        .step_by(CHUNK_ITEMS)
        .map(|start| start..(start + CHUNK_ITEMS).min(n_items))
        .collect();

    // One pricing queue: every benchmark's axis rows in runs of
    // `CHUNK_ITEMS`, then the fixed chunks of the canonical item order
    // (benchmark-major, then leakage, then transition cost). Each
    // task renews one warm kernel per group of up to `PREFERRED_BATCH`
    // consecutive same-benchmark rows or items, so no boundary moves
    // with the worker count.
    let mut units = Vec::new();
    if n_axis > 0 {
        for bench_i in 0..runs.len() {
            for r in (0..n_rows).step_by(CHUNK_ITEMS) {
                units.push(Unit::Rows(bench_i, r..(r + CHUNK_ITEMS).min(n_rows)));
            }
        }
    }
    if n_item > 0 {
        units.extend(chunks.iter().cloned().map(Unit::Items));
    }
    let priced = parallel_map(jobs, units, |unit| {
        let mut grid: Option<GridEval> = None;
        let mut totals: Vec<PolicyRun> = Vec::new();
        let mut models: Vec<EnergyModel> = Vec::with_capacity(GridEval::PREFERRED_BATCH);
        let mut batches = 0;
        match unit {
            Unit::Rows(bench_i, rows) => {
                let mut terms = Vec::with_capacity(rows.len() * n_axis);
                for g in rows.clone().step_by(GridEval::PREFERRED_BATCH) {
                    models.clear();
                    models.extend((g..rows.end.min(g + GridEval::PREFERRED_BATCH)).map(row_model));
                    let batch: Vec<_> = models
                        .iter()
                        .map(|model| (model, &axis_forms[..]))
                        .collect();
                    batches += price_group(&mut grid, &runs[bench_i], &batch, &mut totals);
                    for (model, row) in models.iter().zip(totals.chunks(n_axis)) {
                        terms.extend(row.iter().map(|run| AxisTerms {
                            part: run.energy.total_before_overhead(),
                            e_max: model.max_energy(run.total_cycles()),
                            teq: run.transitions_equiv,
                            overhead: run.energy.overhead,
                        }));
                    }
                }
                (Priced::Rows(terms), batches)
            }
            Unit::Items(items) => {
                let mut fold = new_fold();
                let mut forms: Vec<PolicyForm> = Vec::new();
                let mut item = items.start;
                while item < items.end {
                    let bench_i = item / per_bench;
                    let g_end = items
                        .end
                        .min((bench_i + 1) * per_bench)
                        .min(item + GridEval::PREFERRED_BATCH);
                    models.clear();
                    models.extend((item..g_end).map(item_model));
                    forms.clear();
                    for model in &models {
                        forms.extend(item_combos.iter().map(|&c| {
                            let (kind, slices) = combos.list[c];
                            kind.form(model, slices)
                        }));
                    }
                    let batch: Vec<_> = models.iter().zip(forms.chunks(n_item)).collect();
                    batches += price_group(&mut grid, &runs[bench_i], &batch, &mut totals);
                    for ((it, model), row) in (item..g_end).zip(&models).zip(totals.chunks(n_item))
                    {
                        for (run, &combo_i) in row.iter().zip(&item_combos) {
                            let p = GridPoint {
                                ratio: run.normalized_to_max(model),
                                trans: run.transitions_equiv,
                                leak_i: it / n_trans % n_leak,
                                trans_i: it % n_trans,
                                combo_i,
                            };
                            fold.point(bench_i, combos.family[combo_i], p, run.energy.total());
                        }
                    }
                    item = g_end;
                }
                (Priced::Items(fold), batches)
            }
        }
    });
    // The optima and the frontier do not depend on merge order, and
    // item folds carry no crossover sums, so they merge at once.
    let mut total = new_fold();
    total.sums = vec![0.0; n_leak * width];
    let (mut batches, mut terms) = (0, Vec::new());
    for (unit, unit_batches) in priced {
        batches += unit_batches;
        match unit {
            Priced::Rows(rows) => terms.extend(rows),
            Priced::Items(fold) => total.merge(fold, width),
        }
    }

    // The fold, over the same chunks. A model-free point `(i, j)` is
    // `E = part_i + overhead_j` and `E/E_max = E / e_max_i`, the
    // operations of `assemble_axis_run(..).normalized_to_max(..)`. In a
    // chunk's segment of one leak row every point of a form shares
    // `teq`, so only the form's first minimum can join the optima or
    // the frontier; every point adds to the crossover sums, in order.
    let fold_chunk = |items: &Range<usize>| {
        let mut fold = new_fold();
        let mut firsts: Vec<Option<(f64, usize, f64)>> = Vec::with_capacity(n_axis);
        let mut item = items.start;
        while item < items.end {
            let (bench_i, leak_i, j0) = (item / per_bench, item / n_trans % n_leak, item % n_trans);
            let segment = j0..n_trans.min(j0 + items.end - item);
            let sums_at = fold.sum_row(leak_i, width);
            let row = |r: usize| &terms[(bench_i * n_rows + r) * n_axis..][..n_axis];
            firsts.clear();
            firsts.resize(n_axis, None);
            for trans_i in segment.clone() {
                for (a, (leak, t)) in row(leak_i).iter().zip(row(trans_i)).enumerate() {
                    // `E/E_max` as `PolicyRun::normalized_to_max` computes it.
                    let energy = leak.part + t.overhead;
                    let ratio = if leak.e_max == 0.0 {
                        0.0
                    } else {
                        energy / leak.e_max
                    };
                    if firsts[a].is_none_or(|(r, ..)| ratio < r) {
                        firsts[a] = Some((ratio, trans_i, energy));
                    }
                    if let Some(g) = combos.gradual[axis_combos[a]] {
                        fold.sums[sums_at + g] += ratio;
                    }
                }
            }
            for ((leak, &combo_i), first) in row(leak_i).iter().zip(&axis_combos).zip(&firsts) {
                let (ratio, trans_i, energy) = first.expect("a segment holds at least one item");
                let p = GridPoint {
                    ratio,
                    trans: leak.teq,
                    leak_i,
                    trans_i,
                    combo_i,
                };
                fold.point(bench_i, combos.family[combo_i], p, energy);
            }
            item += segment.len();
        }
        fold
    };
    // A chunk folds in microseconds, so each worker takes one span of
    // chunks rather than a round trip through the shared queue per chunk.
    let span = chunks.len().div_ceil(effective_jobs(jobs)).max(1);
    let spans: Vec<_> = chunks.chunks(span).filter(|_| n_axis > 0).collect();
    let folds: Vec<Vec<_>> = parallel_map(jobs, spans, |s| s.iter().map(fold_chunk).collect());

    // Merge in chunk order: chunk composition is jobs-independent, so
    // the floating-point crossover sums reproduce the sequential scan
    // exactly.
    for fold in folds.into_iter().flatten() {
        total.merge(fold, width);
    }
    (total, batches)
}

/// Renders a merged fold as the three digest tables.
fn render(spec: &ExploreSpec, runs: &[BenchRun], combos: &Combos, fold: &Fold) -> ExploreResult {
    let points = spec.points();
    let slices_cell = |combo_i: usize| match combos.list[combo_i].1 {
        Some(s) => Cell::int(i64::from(s)),
        None => Cell::str("-"),
    };

    let mut optima = ResultTable::new(
        "explore-optima",
        format!(
            "Explore optima — best E/E_max per benchmark × policy family ({} grid points, {} instructions/point)",
            points,
            spec.budget.instructions()
        ),
        [
            "bench", "fus", "policy", "slices", "p", "e_tr", "E/E_D", "E/E_max", "transitions",
        ],
    );
    for (bench_i, run) in runs.iter().enumerate() {
        for (family_i, family) in combos.families.iter().enumerate() {
            let Some((p, energy)) = fold.best[bench_i * combos.families.len() + family_i] else {
                continue;
            };
            optima.row([
                Cell::str(run.name),
                Cell::int(run.fus as i64),
                Cell::str(family.name()),
                slices_cell(p.combo_i),
                Cell::shortest(spec.leaks[p.leak_i]),
                Cell::shortest(spec.transitions[p.trans_i]),
                Cell::float(energy, 1),
                Cell::float(p.ratio, 4),
                Cell::float(p.trans, 1),
            ]);
        }
    }

    let mut frontier = ResultTable::new(
        "explore-frontier",
        "Explore frontier — Pareto-optimal (E/E_max, transitions) points per benchmark",
        [
            "bench",
            "policy",
            "slices",
            "p",
            "e_tr",
            "E/E_max",
            "transitions",
        ],
    );
    frontier.note(
        "Weak dominance over the full explored policy x technology space; \
         a grid containing a leak-free corner collapses toward it.",
    );
    for (bench_i, run) in runs.iter().enumerate() {
        for p in &fold.frontiers[bench_i] {
            frontier.row([
                Cell::str(run.name),
                Cell::str(combos.list[p.combo_i].0.name()),
                slices_cell(p.combo_i),
                Cell::shortest(spec.leaks[p.leak_i]),
                Cell::shortest(spec.transitions[p.trans_i]),
                Cell::float(p.ratio, 4),
                Cell::float(p.trans, 1),
            ]);
        }
    }

    let mut crossover = ResultTable::new(
        "explore-crossover",
        "Explore crossover — best GradualSleep slice count per leakage factor",
        ["p", "slices", "mean E/E_max"],
    );
    // Mean over the benchmarks × transition costs behind each
    // (leak, slices) cell; ties take the smaller slice count.
    let cell_points = (runs.len() * spec.transitions.len()) as f64;
    let width = combos.gradual_slices.len();
    for (leak_i, &leak) in spec.leaks.iter().enumerate() {
        let mut winner: Option<(u32, f64)> = None;
        for (g, &s) in combos.gradual_slices.iter().enumerate() {
            let sum = fold.sums[leak_i * width + g];
            winner = match winner {
                Some((ws, wsum)) if wsum < sum || (wsum == sum && ws < s) => Some((ws, wsum)),
                _ => Some((s, sum)),
            };
        }
        if let Some((s, sum)) = winner {
            crossover.row([
                Cell::shortest(leak),
                Cell::int(i64::from(s)),
                Cell::float(sum / cell_points, 4),
            ]);
        }
    }

    ExploreResult {
        optima,
        frontier,
        crossover,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::policy_energy_of;

    #[test]
    fn default_grid_prices_over_a_million_points() {
        let spec = ExploreSpec::new(Budget::Quick);
        assert_eq!(spec.leaks.len(), 51);
        assert_eq!(spec.transitions.len(), 51);
        assert_eq!(spec.form_combos().len(), 4 + 64);
        assert_eq!(spec.items(), 9 * 51 * 51);
        assert!(spec.points() >= 1_000_000, "{} points", spec.points());
    }

    #[test]
    fn fraction_steps_expand_inclusively() {
        assert_eq!(fraction_steps(0.0, 1.0, 0.02).len(), 51);
        assert_eq!(fraction_steps(0.0, 1.0, 0.02).last(), Some(&1.0));
        assert_eq!(fraction_steps(0.5, 0.5, 0.1), vec![0.5]);
        assert_eq!(fraction_steps(0.0, 0.1, 0.03), vec![0.0, 0.03, 0.06, 0.09]);
        // The CLI grammar and the defaults share this expansion, so
        // `--leak 0:1:0.02` reproduces the default axis bit-for-bit.
        let spec = ExploreSpec::new(Budget::Quick);
        assert_eq!(spec.leaks, fraction_steps(0.0, 1.0, 0.02));
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn fraction_steps_reject_zero_step() {
        let _ = fraction_steps(0.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn spec_rejects_unknown_benchmarks_at_build_time() {
        let _ = ExploreSpec::new(Budget::Quick).benches(["gziip"]);
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn spec_rejects_zero_slices_at_build_time() {
        let _ = ExploreSpec::new(Budget::Quick).slices([0]);
    }

    #[test]
    fn form_combos_dedup_slice_overrides_outside_gradual() {
        let spec = ExploreSpec::new(Budget::Quick)
            .policies([PolicyKind::MaxSleep, PolicyKind::GradualSleep])
            .slices([4, 8]);
        assert_eq!(
            spec.form_combos(),
            vec![
                (PolicyKind::MaxSleep, None),
                (PolicyKind::GradualSleep, Some(4)),
                (PolicyKind::GradualSleep, Some(8)),
            ]
        );
    }

    #[test]
    fn frontier_insert_keeps_exact_pareto_set() {
        let p = |ratio: f64, trans: f64| GridPoint {
            ratio,
            trans,
            leak_i: 0,
            trans_i: 0,
            combo_i: 0,
        };
        let mut f = Vec::new();
        frontier_insert(&mut f, p(0.5, 10.0));
        frontier_insert(&mut f, p(0.7, 20.0)); // dominated
        assert_eq!(f.len(), 1);
        frontier_insert(&mut f, p(0.7, 5.0)); // trades energy for exposure
        frontier_insert(&mut f, p(0.3, 30.0)); // cheapest, most exposed
        assert_eq!(f.len(), 3);
        assert!((f[0].ratio, f[0].trans) == (0.3, 30.0));
        assert!((f[2].ratio, f[2].trans) == (0.7, 5.0));
        // A new point evicts everything it dominates...
        frontier_insert(&mut f, p(0.3, 4.0));
        assert_eq!(f.len(), 1);
        assert!((f[0].ratio, f[0].trans) == (0.3, 4.0));
        // ...and of exact duplicates the one earlier in canonical grid
        // order stays, whichever is inserted first.
        let dup = |combo_i| GridPoint {
            combo_i,
            ..p(0.5, 10.0)
        };
        for order in [[7, 2], [2, 7]] {
            let mut g = Vec::new();
            for combo_i in order {
                frontier_insert(&mut g, dup(combo_i));
            }
            assert_eq!(g.len(), 1);
            assert_eq!(g[0].combo_i, 2);
        }
    }

    /// The reference fold: every point priced alone by
    /// `policy_energy_of` and folded in canonical grid order — optima by
    /// strictly smaller `E/E_max`, the frontier by insertion, and the
    /// crossover sums over every leak row of each `CHUNK_ITEMS`-item
    /// chunk, merged in chunk order.
    fn scalar_scan(spec: &ExploreSpec, runs: &[BenchRun], combos: &Combos) -> Fold {
        let (n_leak, n_trans) = (spec.leaks.len(), spec.transitions.len());
        let (families, width) = (combos.families.len(), combos.gradual_slices.len());
        let mut total = Fold::new(runs.len(), families);
        total.sums = vec![0.0; n_leak * width];
        let mut chunk = Fold::new(runs.len(), families);
        for item in 0..spec.items() {
            if item % CHUNK_ITEMS == 0 {
                total.merge(
                    std::mem::replace(&mut chunk, Fold::new(runs.len(), families)),
                    width,
                );
                for leak_i in 0..n_leak {
                    chunk.sum_row(leak_i, width);
                }
            }
            let bench_i = item / (n_leak * n_trans);
            let (leak_i, trans_i) = (item / n_trans % n_leak, item % n_trans);
            let model = model_at(spec.leaks[leak_i], spec.transitions[trans_i]);
            for (combo_i, &(kind, slices)) in combos.list.iter().enumerate() {
                let run = policy_energy_of(&model, kind.form(&model, slices), &runs[bench_i].sim);
                let p = GridPoint {
                    ratio: run.normalized_to_max(&model),
                    trans: run.transitions_equiv,
                    leak_i,
                    trans_i,
                    combo_i,
                };
                let best = &mut total.best[bench_i * families + combos.family[combo_i]];
                if best.is_none_or(|(b, _)| p.ratio < b.ratio) {
                    *best = Some((p, run.energy.total()));
                }
                frontier_insert(&mut total.frontiers[bench_i], p);
                if let Some(g) = combos.gradual[combo_i] {
                    chunk.sums[leak_i * width + g] += p.ratio;
                }
            }
        }
        total.merge(chunk, width);
        total
    }

    /// Small grids, explored end-to-end: all three digests — every
    /// float by bit pattern, through the JSON view — equal the
    /// brute-force [`scalar_scan`]; the traversal count is the
    /// diagonal axis-row groups plus the per-item groups, exactly; and
    /// the whole output is byte-identical across worker counts. The
    /// grids mix axis-priced and per-item families, put 0 and 1 on the
    /// knobs, include one-value axes, duplicated axis values (exact
    /// ties, so the earliest point must win) and a grid of several
    /// chunks that split leak rows; no axis starts at its optimum, so a
    /// row taken from the wrong axis value shows.
    #[test]
    fn explore_matches_scalar_scan_and_is_jobs_invariant() {
        let base = ExploreSpec::new(Budget::Custom(5_000))
            .benches(["mst", "gzip"])
            .policies([
                PolicyKind::MaxSleep,
                PolicyKind::GradualSleep,
                PolicyKind::TimeoutSleep,
                PolicyKind::AdaptiveSleep,
                PolicyKind::NoOverhead,
            ])
            .slices([2, 8]);
        let specs = [
            base.clone()
                .leaks([0.5, 0.05])
                .transitions([0.2, 0.01, 1.0]),
            base.clone().leaks([0.3]).transitions([0.2, 0.0]),
            base.clone().leaks([1.0, 0.0, 0.3]).transitions([0.1]),
            base.clone().leaks([0.3, 0.3]).transitions([0.1, 0.0, 0.1]),
            base.clone()
                .policies([PolicyKind::GradualSleep, PolicyKind::TimeoutSleep])
                .leaks(fraction_steps(0.45, 1.0, 0.05))
                .transitions([0.3, 0.1, 0.0, 0.1, 0.5, 0.05]),
            base.policies([PolicyKind::GradualSleep, PolicyKind::AlwaysActive])
                .leaks([0.05, 0.5])
                .transitions([0.01, 0.2]),
        ];
        let engine = Engine::new(4);
        for spec in &specs {
            let before = engine.stats();
            let result = explore(&engine, spec);
            let stats = engine.stats().since(&before);
            assert_eq!(result.points, spec.points());
            assert_eq!(stats.grid_points, result.points);

            // One traversal per FU per group of `PREFERRED_BATCH`: the
            // diagonal axis rows of each benchmark, and its items (each
            // benchmark either fits one chunk or holds a multiple of
            // `PREFERRED_BATCH` items, so chunking adds no group).
            let (n_leak, n_trans) = (spec.leak_values().len(), spec.transition_values().len());
            let groups = |n: usize| n.div_ceil(GridEval::PREFERRED_BATCH);
            let combos = spec.form_combos();
            let axis = combos.iter().any(|&(k, s)| k.model_free(s));
            let per_item = combos.iter().any(|&(k, s)| !k.model_free(s));
            let per_fu = if axis { groups(n_leak.max(n_trans)) } else { 0 }
                + if per_item {
                    groups(n_leak * n_trans)
                } else {
                    0
                };
            let runs: Vec<BenchRun> = spec
                .bench_names()
                .iter()
                .map(|name| {
                    let bench = Benchmark::by_name(name).unwrap();
                    run_benchmark_on(&engine, bench, EXPLORE_L2, spec.budget())
                })
                .collect();
            let fus: usize = runs.iter().map(|run| run.sim.fu_idle.len()).sum();
            assert_eq!(stats.grid_batches, fus * per_fu);

            // The fold itself — each optimum's and frontier point's grid
            // position, so ties between equal values show, and every
            // float — at either worker count, then the rendered bytes.
            let combos = Combos::new(spec);
            let reference = scalar_scan(spec, &runs, &combos);
            for jobs in [1, 4] {
                let (fold, _) = fold_grid(jobs, spec, &runs, &combos);
                assert_eq!(format!("{fold:?}"), format!("{reference:?}"), "jobs {jobs}");
            }
            let want = render(spec, &runs, &combos, &reference);
            assert_eq!(result.optima.to_json(), want.optima.to_json());
            assert_eq!(result.frontier.to_json(), want.frontier.to_json());
            assert_eq!(result.crossover.to_json(), want.crossover.to_json());
        }
    }

    #[test]
    fn crossover_reports_one_row_per_leak_with_gradual_present() {
        let spec = ExploreSpec::new(Budget::Custom(5_000))
            .benches(["mst"])
            .policies([PolicyKind::GradualSleep, PolicyKind::MaxSleep])
            .slices([1, 16])
            .leaks([0.05, 0.5])
            .transitions([0.01]);
        let engine = Engine::sequential();
        let result = explore(&engine, &spec);
        assert_eq!(result.crossover.rows().len(), 2);
        // Without GradualSleep the crossover question is empty.
        let no_gradual = ExploreSpec::new(Budget::Custom(5_000))
            .benches(["mst"])
            .policies([PolicyKind::MaxSleep])
            .leaks([0.05])
            .transitions([0.01]);
        assert!(explore(&engine, &no_gradual).crossover.rows().is_empty());
    }
}
