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
//! spectrum traversal — in two phases, and streams three digests
//! instead of rows:
//!
//! 1. **axis rows** — a model-free form (AlwaysActive, MaxSleep,
//!    NoOverhead, GradualSleep with explicit slices) prices every
//!    field of its run from one knob: `energy.overhead` from the
//!    transition cost, everything else from the leakage factor (or
//!    from neither). Each benchmark prices those forms once per
//!    leakage value and once per transition value, and every grid
//!    item's run is assembled field by field
//!    ([`assemble_axis_run`]) — lane deduplication, bit-identical to
//!    pricing the item;
//! 2. **grid items** — TimeoutSleep and AdaptiveSleep take their
//!    parameters from each item's breakeven interval, so they are
//!    priced per item, through the same kernel.
//!
//! The digests:
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
//! Work is sharded over [`parallel_map`] in **fixed-size chunks of
//! the canonical item order** (benchmark-major, then leakage, then
//! transition cost), independent of the worker count: every chunk
//! folds its items into an accumulator sequentially, and the main
//! thread merges chunk accumulators in chunk order — so output is
//! byte-identical for any `--jobs N`. Memory is `O(frontier)` plus
//! the axis rows, `O(benchmarks × (leaks + transitions) × forms)`, all
//! dropped when the call returns; the
//! [`crate::policy::PolicyCache`] is deliberately bypassed
//! (compute is cheaper than memoization at this density; the cache
//! stays for the sweep path).

use crate::harness::{run_benchmark_on, BenchRun, Budget};
use crate::policy::{PolicyKind, EVAL_ALPHA};
use crate::result::{Cell, ResultTable};
use crate::scenario::{parallel_map, Engine, SweepSpec, FU_CANDIDATES};
use fuleak_core::accounting::PolicyRun;
use fuleak_core::fxhash::FxHashSet;
use fuleak_core::policy_eval::{assemble_axis_run, GridEval, PolicyForm};
use fuleak_core::tech::{DEFAULT_DUTY_CYCLE, DEFAULT_LEAK_RATIO};
use fuleak_core::{EnergyModel, TechnologyParams};
use fuleak_workloads::Benchmark;

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
    let count = ((hi - lo) / step + 1e-9).floor() as usize;
    (0..=count).map(|i| lo + i as f64 * step).collect()
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

    /// Total policy points the exploration prices.
    pub fn points(&self) -> u64 {
        self.items() as u64 * self.form_combos().len() as u64
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

/// Optimum tracker: strictly-smaller `E/E_max` replaces, so ties keep
/// the earliest point in canonical grid order.
fn fold_best(best: &mut Option<GridPoint>, p: GridPoint, energy: &mut f64, e: f64) {
    match best {
        Some(b) if p.ratio >= b.ratio => {}
        _ => {
            *best = Some(p);
            *energy = e;
        }
    }
}

/// Inserts `p` into a Pareto frontier kept sorted by `ratio`
/// ascending with `trans` strictly descending. Weak dominance: `p` is
/// rejected if an earlier-inserted point is at least as good on both
/// axes (so canonical-order insertion keeps the earliest of ties),
/// and `p` evicts every point it weakly dominates. Chunk-local
/// pre-filtering is exact — dominance is transitive, so a point
/// evicted within its chunk is also evicted by the full canonical
/// scan.
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
        .is_some_and(|q| q.ratio == p.ratio && q.trans <= p.trans)
    {
        return;
    }
    let keep_to = lo + frontier[lo..].partition_point(|q| q.trans >= p.trans);
    frontier.splice(lo..keep_to, [p]);
}

/// One chunk's fold: per-`(bench, family)` optima, per-bench frontier
/// survivors, partial `E/E_max` sums per `(leak, gradual slice)`
/// cell, and the grid-kernel work counters.
struct ChunkFold {
    best: Vec<Option<GridPoint>>,
    best_energy: Vec<f64>,
    frontiers: Vec<Vec<GridPoint>>,
    sums: Vec<f64>,
    batches: usize,
    points: u64,
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

/// Where a combo's total comes from for a grid item.
#[derive(Debug, Clone, Copy)]
enum ComboSrc {
    /// Model-free form `a`: assembled from the item's axis rows.
    Axis(usize),
    /// Model-dependent form `k`: priced per item.
    Item(usize),
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
/// usual), then prices the grid with [`GridEval`] — the model-free
/// forms once per axis value, the breakeven-derived forms per
/// technology item, one spectrum traversal per FU per kernel group,
/// no [`crate::policy::PolicyCache`] traffic — and folds the three
/// digests. Output is byte-identical for any engine worker count;
/// grid counters land in [`crate::scenario::EngineStats`]: the points
/// of the full product, and the traversals that actually ran.
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

    let combos = spec.form_combos();
    // Family and gradual-slice projections of the combo list, for the
    // optima rows and the crossover sums.
    let mut families: Vec<PolicyKind> = Vec::new();
    let mut combo_family = Vec::with_capacity(combos.len());
    let mut gradual_slices: Vec<u32> = Vec::new();
    let mut combo_gradual = Vec::with_capacity(combos.len());
    for &(policy, slices) in &combos {
        let f = families
            .iter()
            .position(|&k| k == policy)
            .unwrap_or_else(|| {
                families.push(policy);
                families.len() - 1
            });
        combo_family.push(f);
        combo_gradual.push(slices.map(|s| {
            gradual_slices
                .iter()
                .position(|&g| g == s)
                .unwrap_or_else(|| {
                    gradual_slices.push(s);
                    gradual_slices.len() - 1
                })
        }));
    }

    // Where each combo's per-item total comes from: a model-free form
    // prices separably over the technology axes, so its total is
    // assembled from the benchmark's axis rows; the rest are priced
    // per item.
    let (mut axis_forms, mut item_combos) = (Vec::new(), Vec::new());
    let corner = model_at(spec.leaks[0], spec.transitions[0]);
    let combo_src: Vec<ComboSrc> = combos
        .iter()
        .enumerate()
        .map(|(combo_i, &(kind, slices))| {
            if kind.model_free(slices) {
                axis_forms.push(kind.form(&corner, slices));
                ComboSrc::Axis(axis_forms.len() - 1)
            } else {
                item_combos.push(combo_i);
                ComboSrc::Item(item_combos.len() - 1)
            }
        })
        .collect();
    let (n_axis, n_item) = (axis_forms.len(), item_combos.len());

    // Phase 1, the axis rows: per benchmark, the model-free forms at
    // the cross items — leak row `i` at `(leak_i, trans_0)`, then
    // transition row `n_leak + j` at `(leak_0, trans_j)` — in chunks
    // of `CHUNK_ITEMS` rows. Lanes are independent, so the rows depend
    // on neither the partition nor the worker count.
    let (n_leak, n_trans) = (spec.leaks.len(), spec.transitions.len());
    let n_cross = n_leak + n_trans;
    let cross_model = |r: usize| match r.checked_sub(n_leak) {
        Some(j) => model_at(spec.leaks[0], spec.transitions[j]),
        None => model_at(spec.leaks[r], spec.transitions[0]),
    };
    let units: Vec<(usize, usize, usize)> = if n_axis == 0 {
        Vec::new()
    } else {
        (0..runs.len())
            .flat_map(|bench_i| {
                (0..n_cross)
                    .step_by(CHUNK_ITEMS)
                    .map(move |r| (bench_i, r, (r + CHUNK_ITEMS).min(n_cross)))
            })
            .collect()
    };
    let axis_parts = parallel_map(engine.jobs(), units, |(bench_i, start, end)| {
        let mut grid: Option<GridEval> = None;
        let mut totals: Vec<PolicyRun> = Vec::new();
        let mut rows = Vec::with_capacity((end - start) * n_axis);
        let mut batches = 0;
        for g in (start..end).step_by(GridEval::PREFERRED_BATCH) {
            let g_end = end.min(g + GridEval::PREFERRED_BATCH);
            let models: Vec<EnergyModel> = (g..g_end).map(cross_model).collect();
            let batch: Vec<(&EnergyModel, &[PolicyForm])> = models
                .iter()
                .map(|model| (model, axis_forms.as_slice()))
                .collect();
            batches += price_group(&mut grid, &runs[bench_i], &batch, &mut totals);
            rows.extend_from_slice(&totals);
        }
        (rows, batches)
    });
    let mut axis_rows: Vec<PolicyRun> = Vec::with_capacity(runs.len() * n_cross * n_axis);
    let mut batches = 0;
    for (rows, unit_batches) in axis_parts {
        axis_rows.extend(rows);
        batches += unit_batches;
    }
    let axis_row =
        |bench_i: usize, r: usize| &axis_rows[(bench_i * n_cross + r) * n_axis..][..n_axis];

    // Phase 2, the grid items, in fixed chunks of the canonical order.
    let n_items = spec.items();
    let chunks: Vec<(usize, usize)> = (0..n_items)
        .step_by(CHUNK_ITEMS)
        .map(|start| (start, (start + CHUNK_ITEMS).min(n_items)))
        .collect();

    let folds = parallel_map(engine.jobs(), chunks, |(start, end)| {
        let mut fold = ChunkFold {
            best: vec![None; runs.len() * families.len()],
            best_energy: vec![0.0; runs.len() * families.len()],
            frontiers: vec![Vec::new(); runs.len()],
            sums: vec![0.0; n_leak * gradual_slices.len()],
            batches: 0,
            points: 0,
        };
        let mut models: Vec<EnergyModel> = Vec::with_capacity(GridEval::PREFERRED_BATCH);
        let mut forms_buf: Vec<Vec<PolicyForm>> = Vec::new();
        let mut totals: Vec<PolicyRun> = Vec::new();
        // One kernel per chunk for the per-item forms, re-targeted per
        // GROUP of up to `PREFERRED_BATCH` consecutive same-benchmark
        // items (they share spectra, so one traversal prices the whole
        // group). Group segmentation depends only on item indices, so
        // shard boundaries never move with the worker count.
        let mut grid: Option<GridEval> = None;
        let mut item = start;
        while item < end {
            let bench_i = item / (n_leak * n_trans);
            let bench_end = (bench_i + 1) * (n_leak * n_trans);
            let g_end = end.min(bench_end).min(item + GridEval::PREFERRED_BATCH);
            models.clear();
            for it in item..g_end {
                let leak_i = it / n_trans % n_leak;
                let trans_i = it % n_trans;
                models.push(model_at(spec.leaks[leak_i], spec.transitions[trans_i]));
            }
            if n_item > 0 {
                while forms_buf.len() < models.len() {
                    forms_buf.push(Vec::with_capacity(n_item));
                }
                for (model, forms) in models.iter().zip(forms_buf.iter_mut()) {
                    forms.clear();
                    forms.extend(item_combos.iter().map(|&c| {
                        let (kind, slices) = combos[c];
                        kind.form(model, slices)
                    }));
                }
                let batch: Vec<(&EnergyModel, &[PolicyForm])> = models
                    .iter()
                    .zip(forms_buf.iter())
                    .map(|(model, forms)| (model, forms.as_slice()))
                    .collect();
                fold.batches += price_group(&mut grid, &runs[bench_i], &batch, &mut totals);
            }
            for (g_i, it) in (item..g_end).enumerate() {
                let leak_i = it / n_trans % n_leak;
                let trans_i = it % n_trans;
                let model = &models[g_i];
                let leak_row = axis_row(bench_i, leak_i);
                let trans_row = axis_row(bench_i, n_leak + trans_i);
                let item_totals = &totals[g_i * n_item..(g_i + 1) * n_item];
                fold.points += combos.len() as u64;
                for (combo_i, src) in combo_src.iter().enumerate() {
                    let total = match *src {
                        ComboSrc::Axis(a) => assemble_axis_run(&leak_row[a], &trans_row[a]),
                        ComboSrc::Item(k) => item_totals[k],
                    };
                    let p = GridPoint {
                        ratio: total.normalized_to_max(model),
                        trans: total.transitions_equiv,
                        leak_i,
                        trans_i,
                        combo_i,
                    };
                    let slot = bench_i * families.len() + combo_family[combo_i];
                    fold_best(
                        &mut fold.best[slot],
                        p,
                        &mut fold.best_energy[slot],
                        total.energy.total(),
                    );
                    frontier_insert(&mut fold.frontiers[bench_i], p);
                    if let Some(g) = combo_gradual[combo_i] {
                        fold.sums[leak_i * gradual_slices.len() + g] += p.ratio;
                    }
                }
            }
            item = g_end;
        }
        fold
    });

    // Merge in chunk order: chunk composition is jobs-independent, so
    // every fold below — including the floating-point crossover sums —
    // reproduces the sequential scan exactly.
    let mut best: Vec<Option<GridPoint>> = vec![None; runs.len() * families.len()];
    let mut best_energy = vec![0.0; runs.len() * families.len()];
    let mut frontiers: Vec<Vec<GridPoint>> = vec![Vec::new(); runs.len()];
    let mut sums = vec![0.0; n_leak * gradual_slices.len()];
    let mut points = 0u64;
    for fold in folds {
        for (slot, p) in fold.best.into_iter().enumerate() {
            if let Some(p) = p {
                fold_best(
                    &mut best[slot],
                    p,
                    &mut best_energy[slot],
                    fold.best_energy[slot],
                );
            }
        }
        for (bench_i, chunk_frontier) in fold.frontiers.into_iter().enumerate() {
            for p in chunk_frontier {
                frontier_insert(&mut frontiers[bench_i], p);
            }
        }
        for (cell, s) in sums.iter_mut().zip(&fold.sums) {
            *cell += s;
        }
        batches += fold.batches;
        points += fold.points;
    }
    engine.note_grid(batches, points);

    let slices_cell = |combo_i: usize| match combos[combo_i].1 {
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
        for (family_i, family) in families.iter().enumerate() {
            let slot = bench_i * families.len() + family_i;
            let Some(p) = best[slot] else { continue };
            optima.row([
                Cell::str(run.name),
                Cell::int(run.fus as i64),
                Cell::str(family.name()),
                slices_cell(p.combo_i),
                Cell::shortest(spec.leaks[p.leak_i]),
                Cell::shortest(spec.transitions[p.trans_i]),
                Cell::float(best_energy[slot], 1),
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
        for p in &frontiers[bench_i] {
            frontier.row([
                Cell::str(run.name),
                Cell::str(combos[p.combo_i].0.name()),
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
    let cell_points = (runs.len() * n_trans) as f64;
    for (leak_i, &leak) in spec.leaks.iter().enumerate() {
        let mut winner: Option<(u32, f64)> = None;
        for (g, &s) in gradual_slices.iter().enumerate() {
            let sum = sums[leak_i * gradual_slices.len() + g];
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
    use crate::result::Value;

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
        // ...and an exact duplicate keeps the earlier insertion.
        let mut g = vec![GridPoint {
            combo_i: 7,
            ..p(0.5, 10.0)
        }];
        frontier_insert(&mut g, p(0.5, 10.0));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].combo_i, 7);
    }

    /// Tiny grids, explored end-to-end: every optimum — its grid
    /// point, `E/E_D`, `E/E_max` and transitions, by bit pattern —
    /// agrees with a brute-force scalar scan over the same canonical
    /// order, the traversal count is the axis groups plus the per-item
    /// groups, and the whole output is byte-identical across worker
    /// counts. The grids mix axis-priced and per-item families, put 0
    /// and 1 on the knobs, and include one-value axes; no axis starts
    /// at its optimum, so a row taken from the wrong axis value shows.
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
            base.policies([PolicyKind::GradualSleep, PolicyKind::AlwaysActive])
                .leaks([0.05, 0.5])
                .transitions([0.01, 0.2]),
        ];
        let bits = |cell: &Cell| match cell.value {
            Value::Float(f) => f.to_bits(),
            ref other => panic!("expected a float cell, got {other:?}"),
        };
        let engine = Engine::new(4);
        for spec in &specs {
            let before = engine.stats();
            let result = explore(&engine, spec);
            let stats = engine.stats().since(&before);
            let combos = spec.form_combos();
            let (n_leak, n_trans) = (spec.leak_values().len(), spec.transition_values().len());
            assert_eq!(result.points, spec.points());
            assert_eq!(stats.grid_points, result.points);

            // Brute force with the scalar evaluator, same canonical order.
            let mut expected = Vec::new();
            let mut traversals = 0;
            for name in spec.bench_names() {
                let bench = Benchmark::by_name(name).unwrap();
                let run = run_benchmark_on(&engine, bench, EXPLORE_L2, spec.budget());
                // Each grid fits one chunk: the axis rows and the
                // benchmark's items each split into groups of
                // `PREFERRED_BATCH`, one traversal per FU per group.
                let groups = |n: usize| n.div_ceil(GridEval::PREFERRED_BATCH);
                let per_item = combos.iter().any(|&(k, s)| !k.model_free(s));
                traversals += run.sim.fu_idle.len()
                    * (groups(n_leak + n_trans)
                        + if per_item {
                            groups(n_leak * n_trans)
                        } else {
                            0
                        });
                for &family in spec.policy_kinds() {
                    let mut best: Option<(f64, usize, usize, usize, PolicyRun)> = None;
                    for (leak_i, &leak) in spec.leak_values().iter().enumerate() {
                        for (trans_i, &tr) in spec.transition_values().iter().enumerate() {
                            let model = model_at(leak, tr);
                            for (combo_i, &(kind, slices)) in combos.iter().enumerate() {
                                if kind != family {
                                    continue;
                                }
                                let total =
                                    policy_energy_of(&model, kind.form(&model, slices), &run.sim);
                                let ratio = total.normalized_to_max(&model);
                                if best.is_none_or(|b| ratio < b.0) {
                                    best = Some((ratio, leak_i, trans_i, combo_i, total));
                                }
                            }
                        }
                    }
                    expected.push(best.unwrap());
                }
            }
            assert_eq!(stats.grid_batches, traversals);
            assert_eq!(result.optima.rows().len(), expected.len());
            for (row, (ratio, leak_i, trans_i, combo_i, total)) in
                result.optima.rows().iter().zip(expected)
            {
                let slices = combos[combo_i].1.map_or("-".to_string(), |s| s.to_string());
                assert_eq!(row[3].text(), slices);
                assert_eq!(bits(&row[4]), spec.leak_values()[leak_i].to_bits());
                assert_eq!(bits(&row[5]), spec.transition_values()[trans_i].to_bits());
                assert_eq!(bits(&row[6]), total.energy.total().to_bits());
                assert_eq!(bits(&row[7]), ratio.to_bits());
                assert_eq!(bits(&row[8]), total.transitions_equiv.to_bits());
            }

            // Worker-count invariance, the determinism contract.
            let sequential = explore(&Engine::sequential(), spec);
            assert_eq!(sequential.optima.to_json(), result.optima.to_json());
            assert_eq!(sequential.frontier.to_json(), result.frontier.to_json());
            assert_eq!(sequential.crossover.to_json(), result.crossover.to_json());
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
