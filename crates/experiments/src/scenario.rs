//! Scenario engine: deterministic, cached, parallel execution of
//! simulation points over arbitrary machine configurations.
//!
//! The paper's experiments all consume the same underlying object — a
//! timing simulation of one benchmark on one machine at one
//! instruction budget. The seed harness re-simulated those points
//! sequentially per experiment; this module makes the point the unit
//! of work:
//!
//! * [`Scenario`] — the value-typed key of one simulation point: a
//!   benchmark, a canonical [`MachineConfig`] (any Table 2 variant,
//!   not just the paper's FU-count × L2-latency grid), and a budget;
//! * [`SweepSpec`] — a multi-axis cartesian builder (benchmarks ×
//!   any subset of `CoreConfig` axes: FU count, L2 latency, width,
//!   ROB, cache sizes, …) expanding to a deterministic scenario list;
//! * [`SimCache`] — a concurrent memo table from [`Scenario`] to its
//!   [`SimResult`], so Table 3, Figure 7, Figures 8a/8b, and Figures
//!   9a/9b reuse points instead of re-simulating;
//! * [`Engine`] — a work-stealing executor (std scoped threads over a
//!   shared job queue) that fans uncached points out across cores.
//!
//! The engine also memoizes the *functional* half of each point — a
//! dynamic trace depends only on `(bench, budget)`, so one packed
//! [`EncodedTrace`] per benchmark is captured and replayed across the
//! whole machine-configuration sweep — and, since the two-phase
//! split, the *front-end* half too: an [`AnnotationCache`] keyed by
//! `(bench, budget, frontend_fingerprint)` holds each geometry's
//! annotated trace, so a sweep over timing-only axes (FU counts, L2
//! latency, width, ROB, …) annotates each benchmark once and replays
//! the allocation-free timing kernel per point (`DESIGN.md`).
//!
//! On top of the simulation caches sits a fourth, *evaluation* layer:
//! a [`crate::policy::PolicyCache`] memoizing
//! `(scenario, policy form, energy-model fingerprint)` →
//! [`PolicyRun`], and [`SweepSpec`] evaluation axes
//! ([`SweepSpec::axis_policy`], [`SweepSpec::axis_slices`],
//! [`SweepSpec::axis_leak_ratio`], [`SweepSpec::axis_transition_cost`])
//! that multiply *result rows* rather than simulated points — a
//! policy/technology sweep over a warm engine runs no simulation at
//! all (`DESIGN.md` §7).
//!
//! Every simulation is single-threaded and seeded, so a scenario's
//! result is a pure function of its key: the engine is free to run
//! points in any order on any number of workers and still produce
//! bit-identical results — and replaying a cached trace is
//! bit-identical to re-executing the kernel
//! (`tests/tests/determinism.rs` asserts both).

use crate::harness::Budget;
use crate::policy::{default_eval_axes, policy_energy_of, EvalPoint, PolicyCache, PolicyKind};
use crate::store::ResultStore;
use fuleak_core::accounting::PolicyRun;
use fuleak_core::fxhash::{FxHashMap, FxHashSet};
use fuleak_core::policy_eval::PolicyForm;
use fuleak_core::EnergyModel;
use fuleak_uarch::{
    annotate, ConfigError, CoreConfig, MachineConfig, SimResult, Simulator, TimingKernel,
};
use fuleak_workloads::{AnnotatedTrace, Benchmark, EncodedTrace, ExecError};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::hash::Hash;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

thread_local! {
    /// One timing kernel per worker thread: every point the worker
    /// simulates reuses the same scratch allocations through the
    /// kernel's `reset()` path instead of rebuilding predictor and
    /// cache heap structures per point. (`--jobs 1` runs everything on
    /// the calling thread, so a whole `repro all` shares one kernel.)
    static WORKER_KERNEL: RefCell<TimingKernel> = RefCell::new(TimingKernel::new());
}

/// Locks a mutex, tolerating poison: a worker that panicked while
/// holding the lock must not convert every subsequent `lock()` into a
/// secondary panic that masks the root cause. The protected data
/// (memo tables, work queues) is always in a consistent state at any
/// panic point — entries are inserted atomically — so continuing past
/// the poison flag is sound.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State of one single-flight computation: pending while the claim
/// owner computes, then done with the published value — or abandoned
/// if the owner unwound before fulfilling, telling waiters to
/// re-claim instead of hanging on a dead computation.
#[derive(Debug)]
enum LatchState<V> {
    Pending,
    Done(V),
    Abandoned,
}

/// The once-latch a single-flight winner publishes through. Losers
/// block on [`Latch::wait`] until the owner either fulfills the value
/// or abandons the flight.
#[derive(Debug)]
pub(crate) struct Latch<V> {
    state: Mutex<LatchState<V>>,
    cv: Condvar,
}

impl<V: Clone> Latch<V> {
    fn new() -> Self {
        Latch {
            state: Mutex::new(LatchState::Pending),
            cv: Condvar::new(),
        }
    }

    fn fulfill(&self, value: V) {
        *lock_unpoisoned(&self.state) = LatchState::Done(value);
        self.cv.notify_all();
    }

    fn abandon(&self) {
        let mut state = lock_unpoisoned(&self.state);
        if matches!(*state, LatchState::Pending) {
            *state = LatchState::Abandoned;
        }
        drop(state);
        self.cv.notify_all();
    }

    /// Blocks until the flight resolves. `Some` carries the owner's
    /// published value; `None` means the owner abandoned (the caller
    /// should re-claim and possibly compute the value itself).
    pub(crate) fn wait(&self) -> Option<V> {
        let mut state = lock_unpoisoned(&self.state);
        loop {
            match &*state {
                LatchState::Pending => {
                    state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
                LatchState::Done(v) => return Some(v.clone()),
                LatchState::Abandoned => return None,
            }
        }
    }
}

/// One entry of a single-flight memo map: either a published value or
/// a latch the in-flight owner will publish through.
#[derive(Debug)]
enum Slot<V> {
    Ready(V),
    InFlight(Arc<Latch<V>>),
}

/// Outcome of [`Flight::claim`]: the value is ready, the caller won
/// ownership and must compute-then-fulfill (or abandon), or another
/// thread owns the computation and the caller should wait on its
/// latch.
pub(crate) enum Claim<V> {
    Ready(V),
    Owner,
    Wait(Arc<Latch<V>>),
}

/// A single-flight memo map: per-key once-latches over an Fx map, so
/// concurrent requests for the same key compute the value exactly
/// once — the first claimant becomes the owner, later claimants block
/// on the owner's latch, and everyone observes the same published
/// value. The mechanism layer under [`SimCache`], [`TraceCache`],
/// [`AnnotationCache`], and [`crate::policy::PolicyCache`]; hit/miss
/// accounting stays in those wrappers.
#[derive(Debug)]
pub(crate) struct Flight<K, V> {
    map: Mutex<FxHashMap<K, Slot<V>>>,
}

impl<K, V> Default for Flight<K, V> {
    fn default() -> Self {
        Flight {
            map: Mutex::new(FxHashMap::default()),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Flight<K, V> {
    /// Claims `key`: returns the published value, makes the caller
    /// the computation's owner, or hands back the current owner's
    /// latch to wait on.
    pub(crate) fn claim(&self, key: &K) -> Claim<V> {
        let mut map = lock_unpoisoned(&self.map);
        match map.get(key) {
            Some(Slot::Ready(v)) => Claim::Ready(v.clone()),
            Some(Slot::InFlight(latch)) => Claim::Wait(Arc::clone(latch)),
            None => {
                map.insert(key.clone(), Slot::InFlight(Arc::new(Latch::new())));
                Claim::Owner
            }
        }
    }

    /// Publishes a value, waking any waiters. First-wins on a Ready
    /// slot (values are pure functions of the key, so either copy is
    /// correct — keeping the first makes the choice deterministic in
    /// effect); returns the canonical copy.
    pub(crate) fn fulfill(&self, key: &K, value: V) -> V {
        let mut map = lock_unpoisoned(&self.map);
        match map.get_mut(key) {
            Some(Slot::Ready(existing)) => existing.clone(),
            Some(slot) => {
                let prev = std::mem::replace(slot, Slot::Ready(value.clone()));
                drop(map);
                if let Slot::InFlight(latch) = prev {
                    latch.fulfill(value.clone());
                }
                value
            }
            None => {
                map.insert(key.clone(), Slot::Ready(value.clone()));
                value
            }
        }
    }

    /// Removes an unfulfilled in-flight entry and wakes its waiters
    /// empty-handed, so they re-claim (one becomes the new owner). A
    /// no-op once the flight is fulfilled, which makes unconditional
    /// unwind guards safe: [`FlightGuard`] abandons on drop whether
    /// or not the owner got as far as fulfilling.
    pub(crate) fn abandon(&self, key: &K) {
        let mut map = lock_unpoisoned(&self.map);
        if let Some(Slot::InFlight(_)) = map.get(key) {
            let slot = map.remove(key);
            drop(map);
            if let Some(Slot::InFlight(latch)) = slot {
                latch.abandon();
            }
        }
    }

    /// The published value for `key`, if any; in-flight entries are
    /// invisible (the value does not exist yet).
    pub(crate) fn peek(&self, key: &K) -> Option<V> {
        match lock_unpoisoned(&self.map).get(key) {
            Some(Slot::Ready(v)) => Some(v.clone()),
            _ => None,
        }
    }

    /// Number of published values (in-flight claims excluded).
    pub(crate) fn ready_len(&self) -> usize {
        lock_unpoisoned(&self.map)
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// Sums `f` over the published values.
    pub(crate) fn sum_ready(&self, f: impl Fn(&V) -> usize) -> usize {
        lock_unpoisoned(&self.map)
            .values()
            .map(|s| match s {
                Slot::Ready(v) => f(v),
                Slot::InFlight(_) => 0,
            })
            .sum()
    }

    /// An unwind guard over `keys` this caller has claimed as owner:
    /// on drop it abandons every key not fulfilled by then, so
    /// waiters blocked on a panicked owner re-claim instead of
    /// hanging forever. Dropping after fulfillment is a no-op.
    pub(crate) fn guard(&self, keys: Vec<K>) -> FlightGuard<'_, K, V> {
        FlightGuard { flight: self, keys }
    }
}

/// See [`Flight::guard`].
pub(crate) struct FlightGuard<'a, K: Eq + Hash + Clone, V: Clone> {
    flight: &'a Flight<K, V>,
    keys: Vec<K>,
}

impl<K: Eq + Hash + Clone, V: Clone> Drop for FlightGuard<'_, K, V> {
    fn drop(&mut self) {
        for key in &self.keys {
            self.flight.abandon(key);
        }
    }
}

/// The FU counts the paper's selection rule chooses among (Section 4)
/// — the single source for both the default sweep and the harness's
/// selection loop.
pub const FU_CANDIDATES: std::ops::RangeInclusive<usize> = 1..=4;

/// One simulation point: a benchmark on one canonical machine
/// configuration at one instruction budget. Cheaply cloneable
/// (machine configurations are interned `Arc`s), hashable, and
/// totally determines its [`SimResult`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// Benchmark name (must exist in the [`Benchmark`] registry).
    pub bench: &'static str,
    /// The machine to simulate on — any validated [`CoreConfig`],
    /// canonicalized.
    pub machine: MachineConfig,
    /// Dynamic instruction budget.
    pub budget: Budget,
}

impl Scenario {
    /// A scenario on an arbitrary machine.
    pub fn new(bench: &'static str, machine: MachineConfig, budget: Budget) -> Self {
        Scenario {
            bench,
            machine,
            budget,
        }
    }

    /// A scenario on the paper's studied grid: Table 2 with the given
    /// integer FU count and L2 hit latency.
    pub fn paper(bench: &'static str, fus: usize, l2_latency: u64, budget: Budget) -> Self {
        Scenario::new(bench, MachineConfig::paper(fus, l2_latency), budget)
    }

    /// The integer FU count of this scenario's machine.
    pub fn int_fus(&self) -> usize {
        self.machine.config().int_fus
    }

    /// The L2 hit latency of this scenario's machine.
    pub fn l2_latency(&self) -> u64 {
        self.machine.config().l2.latency
    }

    /// Runs the timing simulation for this point, executing the kernel
    /// functionally first. Pure: equal scenarios produce equal results
    /// on any thread. Engine-driven runs use [`Scenario::run_trace`]
    /// with a cached trace instead; the two are bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownBenchmark`] if `bench` is not a
    /// registered benchmark name, or the underlying [`ExecError`] if
    /// the kernel's functional execution fails.
    pub fn run(&self) -> Result<SimResult, ExecError> {
        Ok(self.run_trace(&self.capture_trace()?))
    }

    /// Executes the functional half of this point: the packed dynamic
    /// trace, which depends only on `(bench, budget)` and is therefore
    /// shared across every machine-configuration variation.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::UnknownBenchmark`] for names outside the
    /// registry — build sweeps through [`SweepSpec`] to get this
    /// validated up front.
    pub fn capture_trace(&self) -> Result<EncodedTrace, ExecError> {
        capture_trace(self.bench, self.budget)
    }

    /// Runs the timing simulation for this point over an
    /// already-captured trace (which must be for this scenario's
    /// `(bench, budget)`) through the **direct single-phase path**
    /// ([`Simulator::run`]). Panic-free: the machine configuration
    /// was validated when the [`MachineConfig`] was built.
    ///
    /// The engine instead runs points in two phases (annotate once
    /// per front-end geometry, then the timing kernel); the two paths
    /// are field-exactly equal (`tests/tests/determinism.rs`,
    /// `crates/uarch/tests/twophase_props.rs`), so this remains the
    /// pinned reference implementation.
    pub fn run_trace(&self, trace: &EncodedTrace) -> SimResult {
        Simulator::new(self.machine.config().clone())
            .expect("machine configurations are validated at construction")
            .run(trace)
    }
}

/// Captures the packed dynamic trace of `bench` at `budget` (see
/// [`Scenario::capture_trace`]).
///
/// # Errors
///
/// Returns [`ExecError::UnknownBenchmark`] for unregistered names, or
/// the kernel's own [`ExecError`] if functional execution fails.
pub fn capture_trace(bench: &str, budget: Budget) -> Result<EncodedTrace, ExecError> {
    let bench = Benchmark::by_name(bench).ok_or_else(|| ExecError::UnknownBenchmark {
        name: bench.to_string(),
    })?;
    EncodedTrace::capture(&mut bench.instantiate(), budget.instructions())
}

/// One sweep axis: a named `CoreConfig` field (or field group) and the
/// values it takes. The `apply` function writes one value into a
/// configuration; axes compose by sequential application onto the
/// sweep's base machine.
#[derive(Debug, Clone)]
pub struct Axis {
    /// Canonical axis name (doubles as the result-table column name).
    pub name: &'static str,
    /// The values this axis sweeps, in output order.
    pub values: Vec<u64>,
    /// Writes one axis value into a configuration.
    pub apply: fn(&mut CoreConfig, u64),
}

/// A cartesian sweep over benchmarks × any subset of machine axes at
/// one budget, expanding to a deterministic, duplicate-free scenario
/// list.
///
/// [`SweepSpec::new`] starts on the paper's grid (FU counts 1–4 at a
/// 12-cycle L2); the `axis_*` builders replace or append axes, so any
/// `CoreConfig` dimension — width, ROB size, L1D capacity, memory
/// latency, … — becomes sweepable through the same engine and caches.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    benches: Vec<&'static str>,
    base: MachineConfig,
    axes: Vec<Axis>,
    budget: Budget,
    /// Post-simulation evaluation axes (policy × slices × leakage ×
    /// transition cost). Empty vectors mean "axis not set"; if *any*
    /// of them is set the sweep prices every machine point under the
    /// expanded policy/technology grid, with paper defaults filling
    /// the unset axes (see [`SweepSpec::eval_points`]).
    policies: Vec<PolicyKind>,
    slices: Vec<u32>,
    leaks: Vec<f64>,
    transitions: Vec<f64>,
}

impl SweepSpec {
    /// The paper's default sweep at the given budget: every registered
    /// benchmark, FU counts 1–4, L2 latency 12.
    pub fn new(budget: Budget) -> Self {
        SweepSpec {
            benches: Benchmark::all().iter().map(|b| b.name).collect(),
            base: MachineConfig::baseline(),
            axes: Vec::new(),
            budget,
            policies: Vec::new(),
            slices: Vec::new(),
            leaks: Vec::new(),
            transitions: Vec::new(),
        }
        .axis_int_fus(FU_CANDIDATES)
        .axis_l2_latency([12])
    }

    /// Restricts the sweep to the given benchmarks.
    ///
    /// # Panics
    ///
    /// Panics immediately — on the caller's thread, with the name and
    /// the registry listed — if a benchmark is unknown. Validating at
    /// build time keeps the mistake out of the engine's worker pool,
    /// where a panicked worker used to poison the shared cache lock
    /// and surface only as a cascade of secondary `expect` failures.
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
        self
    }

    /// Rebases the sweep on an arbitrary machine: every axis applies
    /// its values on top of this configuration instead of Table 2.
    pub fn base(mut self, base: MachineConfig) -> Self {
        self.base = base;
        self
    }

    /// Sets (or replaces, preserving axis order) a sweep axis. Axes
    /// nest in insertion order, first axis outermost, benchmarks
    /// outermost of all.
    pub fn axis(
        mut self,
        name: &'static str,
        values: impl IntoIterator<Item = u64>,
        apply: fn(&mut CoreConfig, u64),
    ) -> Self {
        let values: Vec<u64> = values.into_iter().collect();
        if let Some(existing) = self.axes.iter_mut().find(|a| a.name == name) {
            existing.values = values;
            existing.apply = apply;
        } else {
            self.axes.push(Axis {
                name,
                values,
                apply,
            });
        }
        self
    }

    /// Sweeps the integer FU count (the paper's Table 3 dimension).
    pub fn axis_int_fus(self, fus: impl IntoIterator<Item = usize>) -> Self {
        self.axis("int_fus", fus.into_iter().map(|f| f as u64), |c, v| {
            c.int_fus = v as usize;
        })
    }

    /// Sweeps the L2 hit latency (the paper's Figure 7 dimension).
    pub fn axis_l2_latency(self, l2s: impl IntoIterator<Item = u64>) -> Self {
        self.axis("l2.latency", l2s, |c, v| c.l2.latency = v)
    }

    /// Sweeps the fetch/decode/issue/commit width.
    pub fn axis_width(self, widths: impl IntoIterator<Item = usize>) -> Self {
        self.axis("width", widths.into_iter().map(|w| w as u64), |c, v| {
            c.width = v as usize;
        })
    }

    /// Sweeps the reorder-buffer capacity.
    pub fn axis_rob(self, robs: impl IntoIterator<Item = usize>) -> Self {
        self.axis("rob_entries", robs.into_iter().map(|r| r as u64), |c, v| {
            c.rob_entries = v as usize;
        })
    }

    /// Sweeps the L1 data-cache capacity in bytes.
    pub fn axis_l1d(self, sizes: impl IntoIterator<Item = u64>) -> Self {
        self.axis("l1d.size_bytes", sizes, |c, v| c.l1d.size_bytes = v)
    }

    /// Sweeps the unified L2 capacity in bytes.
    pub fn axis_l2_size(self, sizes: impl IntoIterator<Item = u64>) -> Self {
        self.axis("l2.size_bytes", sizes, |c, v| c.l2.size_bytes = v)
    }

    /// Sweeps the main-memory latency in cycles.
    pub fn axis_memory_latency(self, lats: impl IntoIterator<Item = u64>) -> Self {
        self.axis("memory_latency", lats, |c, v| c.memory_latency = v)
    }

    /// Sweeps the outstanding-miss (MSHR) count.
    pub fn axis_mshrs(self, mshrs: impl IntoIterator<Item = usize>) -> Self {
        self.axis("mshrs", mshrs.into_iter().map(|m| m as u64), |c, v| {
            c.mshrs = v as usize;
        })
    }

    /// Sweeps the sleep policy the idle spectra are priced under —
    /// the first *evaluation* axis: policy points multiply the result
    /// rows, not the simulated scenarios, and are served from the
    /// engine's [`PolicyCache`] without re-running the timing kernel.
    pub fn axis_policy(mut self, kinds: impl IntoIterator<Item = PolicyKind>) -> Self {
        self.policies = kinds.into_iter().collect();
        self
    }

    /// Sweeps GradualSleep's slice count (evaluation axis; other
    /// policy families ignore it and are deduplicated across its
    /// values).
    ///
    /// # Panics
    ///
    /// Panics if a slice count is zero — validated at build time like
    /// [`SweepSpec::benches`].
    pub fn axis_slices(mut self, slices: impl IntoIterator<Item = u32>) -> Self {
        self.slices = slices
            .into_iter()
            .inspect(|&s| assert!(s > 0, "GradualSleep requires at least one slice"))
            .collect();
        self
    }

    /// Sweeps the technology leakage factor `p = E_hi / E_D`
    /// (evaluation axis; the paper's Figure 9 technology dimension).
    ///
    /// # Panics
    ///
    /// Panics if a value is not a fraction in `[0, 1]`.
    pub fn axis_leak_ratio(mut self, ps: impl IntoIterator<Item = f64>) -> Self {
        self.leaks = ps
            .into_iter()
            .inspect(|&p| {
                assert!(
                    p.is_finite() && (0.0..=1.0).contains(&p),
                    "leakage factor must lie in [0, 1], got {p}"
                );
            })
            .collect();
        self
    }

    /// Sweeps the per-transition sleep-switch overhead `E_slp / E_D`
    /// (evaluation axis).
    ///
    /// # Panics
    ///
    /// Panics if a value is not a fraction in `[0, 1]`.
    pub fn axis_transition_cost(mut self, costs: impl IntoIterator<Item = f64>) -> Self {
        self.transitions = costs
            .into_iter()
            .inspect(|&c| {
                assert!(
                    c.is_finite() && (0.0..=1.0).contains(&c),
                    "transition cost must lie in [0, 1], got {c}"
                );
            })
            .collect();
        self
    }

    /// Whether any evaluation axis is set — if so, the sweep table
    /// prices every machine point under [`SweepSpec::eval_points`].
    pub fn has_eval_axes(&self) -> bool {
        !(self.policies.is_empty()
            && self.slices.is_empty()
            && self.leaks.is_empty()
            && self.transitions.is_empty())
    }

    /// Expands the evaluation grid — policy × slices × leakage ×
    /// transition cost, in that nesting order — filling unset axes
    /// with the paper defaults (the four Figure 8 policies,
    /// breakeven-many slices, near-term leakage, default overhead)
    /// and dropping duplicates (slice overrides only differentiate
    /// GradualSleep).
    pub fn eval_points(&self) -> Vec<EvalPoint> {
        let (d_policies, d_slices, d_leaks, d_transitions) = default_eval_axes();
        let policies = if self.policies.is_empty() {
            d_policies
        } else {
            self.policies.clone()
        };
        let slices: Vec<Option<u32>> = if self.slices.is_empty() {
            d_slices
        } else {
            self.slices.iter().map(|&s| Some(s)).collect()
        };
        let leaks = if self.leaks.is_empty() {
            d_leaks
        } else {
            self.leaks.clone()
        };
        let transitions = if self.transitions.is_empty() {
            d_transitions
        } else {
            self.transitions.clone()
        };
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for &policy in &policies {
            for &slice_override in &slices {
                for &leak in &leaks {
                    for &transition in &transitions {
                        let point = EvalPoint {
                            policy,
                            slices: slice_override,
                            leak,
                            transition,
                        };
                        if seen.insert(point.key()) {
                            out.push(point);
                        }
                    }
                }
            }
        }
        out
    }

    /// Restricts the sweep to the given FU counts (alias of
    /// [`SweepSpec::axis_int_fus`], kept for the paper-grid callers).
    pub fn fu_counts(self, fus: impl IntoIterator<Item = usize>) -> Self {
        self.axis_int_fus(fus)
    }

    /// Restricts the sweep to the given L2 latencies (alias of
    /// [`SweepSpec::axis_l2_latency`]).
    pub fn l2_latencies(self, l2s: impl IntoIterator<Item = u64>) -> Self {
        self.axis_l2_latency(l2s)
    }

    /// The sweep's axes, in nesting order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// The sweep's benchmarks.
    pub fn bench_names(&self) -> &[&'static str] {
        &self.benches
    }

    /// The sweep's instruction budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Expands the sweep to its scenario list, in deterministic order
    /// (benchmarks outermost, then axes in insertion order), without
    /// duplicates. Each scenario carries the axis values that
    /// produced it, so result tables can echo them as columns.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] for the first axis combination
    /// producing an invalid machine (e.g. a zero width), identifying
    /// the offending field.
    pub fn try_expand(&self) -> Result<Vec<(Vec<u64>, Scenario)>, ConfigError> {
        let total: usize =
            self.benches.len() * self.axes.iter().map(|a| a.values.len()).product::<usize>();
        let mut seen = FxHashSet::with_capacity_and_hasher(total, Default::default());
        let mut out = Vec::with_capacity(total);
        let mut combo = vec![0u64; self.axes.len()];
        for &bench in &self.benches {
            self.expand_axes(bench, 0, &mut combo, &mut seen, &mut out)?;
        }
        Ok(out)
    }

    fn expand_axes(
        &self,
        bench: &'static str,
        depth: usize,
        combo: &mut Vec<u64>,
        seen: &mut FxHashSet<Scenario>,
        out: &mut Vec<(Vec<u64>, Scenario)>,
    ) -> Result<(), ConfigError> {
        if depth == self.axes.len() {
            let mut cfg = self.base.config().clone();
            for (axis, &value) in self.axes.iter().zip(combo.iter()) {
                (axis.apply)(&mut cfg, value);
            }
            let s = Scenario::new(bench, MachineConfig::new(cfg)?, self.budget);
            if seen.insert(s.clone()) {
                out.push((combo.clone(), s));
            }
            return Ok(());
        }
        for i in 0..self.axes[depth].values.len() {
            combo[depth] = self.axes[depth].values[i];
            self.expand_axes(bench, depth + 1, combo, seen, out)?;
        }
        Ok(())
    }

    /// Expands the sweep to its scenario list (see
    /// [`SweepSpec::try_expand`]).
    ///
    /// # Panics
    ///
    /// Panics if an axis combination produces an invalid machine; use
    /// [`SweepSpec::try_expand`] to validate user-supplied axes.
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.try_expand()
            .unwrap_or_else(|e| panic!("sweep produced an invalid machine: {e}"))
            .into_iter()
            .map(|(_, s)| s)
            .collect()
    }
}

/// A concurrent, single-flight memo table from [`Scenario`] to its
/// result: concurrent requests for the same cold point compute it
/// exactly once — the first claimant simulates, later claimants block
/// on its latch ([`Flight`]).
#[derive(Debug, Default)]
pub struct SimCache {
    flight: Flight<Scenario, Arc<SimResult>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    waits: AtomicUsize,
}

impl SimCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SimCache::default()
    }

    /// Returns the cached result for `s`, counting a hit or miss. A
    /// point still in flight counts as a miss — its value does not
    /// exist yet; use [`SimCache::claim`] (engine-internal) to
    /// participate in the single-flight protocol instead.
    pub fn get(&self, s: &Scenario) -> Option<Arc<SimResult>> {
        match self.flight.peek(s) {
            Some(r) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(r)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Claims `s` for single-flight computation. Counting: `Ready` is
    /// a hit; `Owner` is a miss (this caller will simulate the point);
    /// `Wait` is a hit plus a wait — the value is served from the
    /// cache once the owner publishes, without duplicating work, so
    /// `hits + misses` stays the number of lookups and
    /// [`EngineStats::simulated`] counts each point once no matter
    /// how many threads raced for it.
    pub(crate) fn claim(&self, s: &Scenario) -> Claim<Arc<SimResult>> {
        let claim = self.flight.claim(s);
        match &claim {
            Claim::Ready(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            Claim::Owner => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            Claim::Wait(_) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.waits.fetch_add(1, Ordering::Relaxed);
            }
        }
        claim
    }

    /// Publishes a claimed point's result, waking waiters.
    pub(crate) fn fulfill(&self, s: &Scenario, result: Arc<SimResult>) -> Arc<SimResult> {
        self.flight.fulfill(s, result)
    }

    /// Unwind guard abandoning whichever of `keys` this owner never
    /// fulfills (see [`Flight::guard`]).
    pub(crate) fn guard(&self, keys: Vec<Scenario>) -> FlightGuard<'_, Scenario, Arc<SimResult>> {
        self.flight.guard(keys)
    }

    /// Inserts a result, keeping the first insertion if the point was
    /// raced (results are identical by construction, so either is
    /// correct — keeping the first makes the choice deterministic in
    /// effect).
    pub fn insert(&self, s: Scenario, result: Arc<SimResult>) -> Arc<SimResult> {
        self.flight.fulfill(&s, result)
    }

    /// Number of distinct points cached (in-flight claims excluded).
    pub fn len(&self) -> usize {
        self.flight.ready_len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits since construction.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses since construction.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Single-flight waits since construction: lookups that blocked
    /// on another thread's in-flight simulation instead of
    /// duplicating it.
    pub fn waits(&self) -> usize {
        self.waits.load(Ordering::Relaxed)
    }
}

/// Snapshot of an engine's cache effectiveness, for progress lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Worker threads the engine fans out across.
    pub jobs: usize,
    /// Distinct points simulated and retained.
    pub points: usize,
    /// Cache hits (points served without re-simulation).
    pub hits: usize,
    /// Cache misses (points that had to be simulated).
    pub misses: usize,
    /// Distinct functional traces retained.
    pub traces: usize,
    /// Trace-cache hits (replays served without re-execution).
    pub trace_hits: usize,
    /// Functional executions performed (trace-cache misses).
    pub captures: usize,
    /// Distinct trace annotations retained.
    pub annotations: usize,
    /// Annotation-cache hits (points that reused a geometry's
    /// annotated trace).
    pub annotation_hits: usize,
    /// Annotation passes performed (annotation-cache misses).
    pub annotations_built: usize,
    /// Distinct policy evaluations retained.
    pub policy_runs: usize,
    /// Policy-cache hits (evaluations served without re-pricing).
    pub policy_hits: usize,
    /// Policy evaluations performed (policy-cache misses).
    pub policy_misses: usize,
    /// Single-flight waits across all caches: lookups that blocked on
    /// another thread's in-flight computation instead of duplicating
    /// it (sim, trace, annotation, and policy combined).
    pub flight_waits: usize,
    /// Grid-kernel batches the explorer dispatched (one spectrum
    /// traversal pricing a whole policy grid; see [`crate::explore`]).
    pub grid_batches: usize,
    /// Policy points priced through the grid kernel (these bypass the
    /// [`PolicyCache`], so they appear here and not in the policy
    /// counters).
    pub grid_points: u64,
    /// Wall-clock nanoseconds the CLI/daemon attributed to grid
    /// explorations (end-to-end, substrate simulation included).
    pub grid_nanos: u64,
    /// Whether a persistent disk store is attached.
    pub disk: bool,
    /// Disk-store read hits (results served without simulation from a
    /// previous process).
    pub disk_hits: usize,
    /// The sim-kind subset of [`EngineStats::disk_hits`] — the points
    /// whose timing simulation the store made unnecessary.
    pub disk_sim_hits: usize,
    /// Disk-store read misses (absent, stale, or rejected entries).
    pub disk_misses: usize,
    /// Entries written to the disk store.
    pub disk_writes: usize,
    /// Entries evicted from the disk store by garbage collection.
    pub disk_evictions: usize,
}

impl EngineStats {
    /// The work done between an `earlier` snapshot and this one —
    /// what one sweep or suite contributed, as opposed to the
    /// engine's process-cumulative totals.
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            jobs: self.jobs,
            points: self.points.saturating_sub(earlier.points),
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            traces: self.traces.saturating_sub(earlier.traces),
            trace_hits: self.trace_hits.saturating_sub(earlier.trace_hits),
            captures: self.captures.saturating_sub(earlier.captures),
            annotations: self.annotations.saturating_sub(earlier.annotations),
            annotation_hits: self.annotation_hits.saturating_sub(earlier.annotation_hits),
            annotations_built: self
                .annotations_built
                .saturating_sub(earlier.annotations_built),
            policy_runs: self.policy_runs.saturating_sub(earlier.policy_runs),
            policy_hits: self.policy_hits.saturating_sub(earlier.policy_hits),
            policy_misses: self.policy_misses.saturating_sub(earlier.policy_misses),
            flight_waits: self.flight_waits.saturating_sub(earlier.flight_waits),
            grid_batches: self.grid_batches.saturating_sub(earlier.grid_batches),
            grid_points: self.grid_points.saturating_sub(earlier.grid_points),
            grid_nanos: self.grid_nanos.saturating_sub(earlier.grid_nanos),
            disk: self.disk,
            disk_hits: self.disk_hits.saturating_sub(earlier.disk_hits),
            disk_sim_hits: self.disk_sim_hits.saturating_sub(earlier.disk_sim_hits),
            disk_misses: self.disk_misses.saturating_sub(earlier.disk_misses),
            disk_writes: self.disk_writes.saturating_sub(earlier.disk_writes),
            disk_evictions: self.disk_evictions.saturating_sub(earlier.disk_evictions),
        }
    }

    /// Points actually simulated: sim-cache misses minus the ones the
    /// disk store answered.
    pub fn simulated(&self) -> usize {
        self.misses.saturating_sub(self.disk_sim_hits)
    }

    /// Disk-store hit rate over all lookups, if any were made.
    pub fn disk_hit_rate(&self) -> Option<f64> {
        let total = self.disk_hits + self.disk_misses;
        (total > 0).then(|| self.disk_hits as f64 / total as f64)
    }

    /// Simulation-cache hit rate over all lookups, if any were made.
    pub fn sim_hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total > 0).then(|| self.hits as f64 / total as f64)
    }

    /// Trace-cache hit rate over all lookups, if any were made.
    pub fn trace_hit_rate(&self) -> Option<f64> {
        let total = self.trace_hits + self.captures;
        (total > 0).then(|| self.trace_hits as f64 / total as f64)
    }

    /// Annotation-cache hit rate over all lookups, if any were made.
    pub fn annotation_hit_rate(&self) -> Option<f64> {
        let total = self.annotation_hits + self.annotations_built;
        (total > 0).then(|| self.annotation_hits as f64 / total as f64)
    }

    /// Policy-cache hit rate over all lookups, if any were made.
    pub fn policy_hit_rate(&self) -> Option<f64> {
        let total = self.policy_hits + self.policy_misses;
        (total > 0).then(|| self.policy_hits as f64 / total as f64)
    }

    /// End-to-end grid throughput in points per second, if any grid
    /// time was attributed.
    pub fn grid_points_per_sec(&self) -> Option<f64> {
        (self.grid_nanos > 0).then(|| self.grid_points as f64 / (self.grid_nanos as f64 * 1e-9))
    }
}

/// A concurrent memo table from `(bench, budget)` to its packed
/// functional trace, shared by every point of a machine sweep.
#[derive(Debug, Default)]
pub struct TraceCache {
    flight: Flight<(&'static str, Budget), Arc<EncodedTrace>>,
    hits: AtomicUsize,
    captures: AtomicUsize,
    waits: AtomicUsize,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// The cached trace for `(bench, budget)`, if present. Counts a
    /// hit so [`TraceCache::hits`] means "replays served from cache".
    pub fn get(&self, bench: &'static str, budget: Budget) -> Option<Arc<EncodedTrace>> {
        let found = self.flight.peek(&(bench, budget));
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Whether a trace is cached, without counting a lookup — for
    /// bookkeeping probes (capture deduplication) that would
    /// otherwise inflate the hit rate.
    pub fn contains(&self, bench: &'static str, budget: Budget) -> bool {
        self.flight.peek(&(bench, budget)).is_some()
    }

    /// Claims `(bench, budget)` for single-flight capture. Hit and
    /// capture counting stays with the caller (mirroring the
    /// `get`/`contains` split: dedup probes claim without counting);
    /// waits are always counted.
    pub(crate) fn claim(&self, bench: &'static str, budget: Budget) -> Claim<Arc<EncodedTrace>> {
        let claim = self.flight.claim(&(bench, budget));
        if matches!(claim, Claim::Wait(_)) {
            self.waits.fetch_add(1, Ordering::Relaxed);
        }
        claim
    }

    /// Publishes a claimed trace, waking waiters.
    pub(crate) fn fulfill(
        &self,
        bench: &'static str,
        budget: Budget,
        trace: Arc<EncodedTrace>,
    ) -> Arc<EncodedTrace> {
        self.flight.fulfill(&(bench, budget), trace)
    }

    /// Unwind guard abandoning whichever of `keys` this owner never
    /// fulfills (see [`Flight::guard`]).
    pub(crate) fn guard(
        &self,
        keys: Vec<(&'static str, Budget)>,
    ) -> FlightGuard<'_, (&'static str, Budget), Arc<EncodedTrace>> {
        self.flight.guard(keys)
    }

    /// Inserts a trace, keeping the first insertion on a race (traces
    /// are pure functions of the key, so either copy is correct).
    pub fn insert(
        &self,
        bench: &'static str,
        budget: Budget,
        trace: Arc<EncodedTrace>,
    ) -> Arc<EncodedTrace> {
        self.flight.fulfill(&(bench, budget), trace)
    }

    /// Number of distinct traces cached (in-flight claims excluded).
    pub fn len(&self) -> usize {
        self.flight.ready_len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache since construction.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Functional executions performed since construction (cache
    /// misses; single-flight makes raced duplicates impossible).
    pub fn captures(&self) -> usize {
        self.captures.load(Ordering::Relaxed)
    }

    /// Single-flight waits since construction.
    pub fn waits(&self) -> usize {
        self.waits.load(Ordering::Relaxed)
    }

    /// Total packed bytes held across all cached traces.
    pub fn encoded_bytes(&self) -> usize {
        self.flight.sum_ready(|t| t.encoded_bytes())
    }
}

/// A concurrent memo table from `(bench, budget, front-end geometry
/// fingerprint)` to the benchmark's annotated trace — the phase-1
/// product shared by every timing-axis variation of a machine (see
/// [`fuleak_uarch::annotate`] and `DESIGN.md`). The paper's FU ×
/// L2-latency grid hits this cache for all but one point per
/// benchmark: FU counts and L2 latencies are timing axes, so the
/// whole grid shares one front-end geometry.
#[derive(Debug, Default)]
pub struct AnnotationCache {
    flight: Flight<(&'static str, Budget, u64), Arc<AnnotatedTrace>>,
    hits: AtomicUsize,
    built: AtomicUsize,
    waits: AtomicUsize,
}

impl AnnotationCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        AnnotationCache::default()
    }

    /// The cached annotation for `(bench, budget, geometry)`, if
    /// present; counts a hit.
    pub fn get(
        &self,
        bench: &'static str,
        budget: Budget,
        geometry: u64,
    ) -> Option<Arc<AnnotatedTrace>> {
        let found = self.flight.peek(&(bench, budget, geometry));
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Whether an annotation is cached, without counting a lookup.
    pub fn contains(&self, bench: &'static str, budget: Budget, geometry: u64) -> bool {
        self.flight.peek(&(bench, budget, geometry)).is_some()
    }

    /// Claims `(bench, budget, geometry)` for single-flight
    /// annotation. Hit and build counting stays with the caller
    /// (dedup probes claim without counting; the disk tier can
    /// fulfill a claim without a build); waits are always counted.
    pub(crate) fn claim(
        &self,
        bench: &'static str,
        budget: Budget,
        geometry: u64,
    ) -> Claim<Arc<AnnotatedTrace>> {
        let claim = self.flight.claim(&(bench, budget, geometry));
        if matches!(claim, Claim::Wait(_)) {
            self.waits.fetch_add(1, Ordering::Relaxed);
        }
        claim
    }

    /// Publishes a claimed annotation, waking waiters.
    pub(crate) fn fulfill(
        &self,
        bench: &'static str,
        budget: Budget,
        geometry: u64,
        ann: Arc<AnnotatedTrace>,
    ) -> Arc<AnnotatedTrace> {
        self.flight.fulfill(&(bench, budget, geometry), ann)
    }

    /// Unwind guard abandoning whichever of `keys` this owner never
    /// fulfills (see [`Flight::guard`]).
    #[allow(clippy::type_complexity)]
    pub(crate) fn guard(
        &self,
        keys: Vec<(&'static str, Budget, u64)>,
    ) -> FlightGuard<'_, (&'static str, Budget, u64), Arc<AnnotatedTrace>> {
        self.flight.guard(keys)
    }

    /// Inserts an annotation, keeping the first insertion on a race
    /// (annotations are pure functions of the key).
    pub fn insert(
        &self,
        bench: &'static str,
        budget: Budget,
        geometry: u64,
        ann: Arc<AnnotatedTrace>,
    ) -> Arc<AnnotatedTrace> {
        self.flight.fulfill(&(bench, budget, geometry), ann)
    }

    /// Number of distinct annotations cached (in-flight claims
    /// excluded).
    pub fn len(&self) -> usize {
        self.flight.ready_len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache since construction.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Annotation passes performed since construction (cache misses
    /// the disk tier could not answer; single-flight makes raced
    /// duplicates impossible).
    pub fn built(&self) -> usize {
        self.built.load(Ordering::Relaxed)
    }

    /// Single-flight waits since construction.
    pub fn waits(&self) -> usize {
        self.waits.load(Ordering::Relaxed)
    }

    /// Total packed bytes held across all cached annotations.
    pub fn annotated_bytes(&self) -> usize {
        self.flight.sum_ready(|a| a.annotated_bytes())
    }
}

/// Parallel, memoizing scenario executor.
///
/// Construct once, share by reference: every sweep and every lookup
/// goes through the same [`SimCache`], [`TraceCache`], and
/// [`AnnotationCache`], so repeated experiments reuse each other's
/// simulated points, the functional traces behind them, and the
/// per-geometry trace annotations in between.
///
/// Points are simulated in **two phases** (`DESIGN.md`): a cached
/// annotation pass per `(bench, budget, front-end geometry)` followed
/// by the allocation-free [`TimingKernel`], one kernel per worker
/// thread with scratch reused across points. The result is
/// field-exactly equal to the direct [`Scenario::run`] path.
#[derive(Debug)]
pub struct Engine {
    jobs: usize,
    cache: SimCache,
    traces: TraceCache,
    annotations: AnnotationCache,
    policies: PolicyCache,
    grid_batches: AtomicUsize,
    grid_points: AtomicU64,
    grid_nanos: AtomicU64,
    /// Optional persistent tier behind the sim/annotation/policy
    /// caches: read-through on a memory miss, write-behind on every
    /// computed result. Results are identical with or without it —
    /// the store only changes *where* a pure function's value comes
    /// from.
    store: Mutex<Option<Arc<ResultStore>>>,
}

impl Default for Engine {
    /// An engine using every available core (same as `Engine::new(0)`).
    fn default() -> Self {
        Engine::new(0)
    }
}

impl Engine {
    /// Creates an engine fanning out across `jobs` worker threads.
    /// `jobs = 0` selects the host's available parallelism.
    pub fn new(jobs: usize) -> Self {
        Engine {
            jobs: effective_jobs(jobs),
            cache: SimCache::new(),
            traces: TraceCache::new(),
            annotations: AnnotationCache::new(),
            policies: PolicyCache::new(),
            grid_batches: AtomicUsize::new(0),
            grid_points: AtomicU64::new(0),
            grid_nanos: AtomicU64::new(0),
            store: Mutex::new(None),
        }
    }

    /// Attaches (or, with `None`, detaches) a persistent result
    /// store. The in-memory caches stay authoritative; the store is
    /// consulted on their misses and populated behind their inserts.
    pub fn set_store(&self, store: Option<Arc<ResultStore>>) {
        *lock_unpoisoned(&self.store) = store;
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<Arc<ResultStore>> {
        lock_unpoisoned(&self.store).clone()
    }

    /// Records one grid-kernel contribution from the explorer:
    /// `batches` spectrum traversals priced `points` policy points
    /// (see [`crate::explore`]). The grid path bypasses the
    /// [`PolicyCache`], so these counters — not the policy-cache
    /// ones — are its footprint in [`EngineStats`].
    pub fn note_grid(&self, batches: usize, points: u64) {
        self.grid_batches.fetch_add(batches, Ordering::Relaxed);
        self.grid_points.fetch_add(points, Ordering::Relaxed);
    }

    /// Attributes wall-clock nanoseconds to the grid path (measured
    /// by the CLI/daemon around a whole exploration, so the derived
    /// [`EngineStats::grid_points_per_sec`] is end-to-end, substrate
    /// simulation included).
    pub fn note_grid_nanos(&self, nanos: u64) {
        self.grid_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// An engine that runs every point on the calling thread.
    pub fn sequential() -> Self {
        Engine::new(1)
    }

    /// The worker count this engine fans out across.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The engine's memo table.
    pub fn cache(&self) -> &SimCache {
        &self.cache
    }

    /// The engine's functional-trace memo table.
    pub fn trace_cache(&self) -> &TraceCache {
        &self.traces
    }

    /// The engine's annotated-trace memo table.
    pub fn annotation_cache(&self) -> &AnnotationCache {
        &self.annotations
    }

    /// The engine's policy-evaluation memo table.
    pub fn policy_cache(&self) -> &PolicyCache {
        &self.policies
    }

    /// Prices one scenario under a policy at a technology point — the
    /// summed-over-FUs [`fuleak_core::accounting::PolicyRun`] of the
    /// spectrum evaluator — memoized in the [`PolicyCache`]. On a
    /// policy-cache miss the scenario's `SimResult` comes from the
    /// [`SimCache`] (simulating on the calling thread only if even
    /// that is missing), so a warm policy/technology sweep never
    /// re-runs the timing kernel.
    ///
    /// # Panics
    ///
    /// Panics if the scenario names an unregistered benchmark (see
    /// [`Engine::result`]).
    pub fn policy_run(&self, s: &Scenario, form: PolicyForm, model: &EnergyModel) -> PolicyRun {
        let model_fp = model.fingerprint();
        loop {
            match self.policies.claim(s, form, model_fp) {
                Claim::Ready(run) => return run,
                Claim::Wait(latch) => {
                    if let Some(run) = latch.wait() {
                        return run;
                    }
                    // Owner abandoned (panicked mid-evaluation):
                    // re-claim; this thread may become the new owner.
                }
                Claim::Owner => break,
            }
        }
        let _guard = self.policies.guard(s.clone(), form, model_fp);
        let store = self.store();
        if let Some(run) = store
            .as_ref()
            .and_then(|st| st.load_policy(s, form, model_fp))
        {
            return self.policies.fulfill(s, form, model_fp, run);
        }
        let sim = self.result(s.clone());
        let run = policy_energy_of(model, form, &sim);
        if let Some(st) = &store {
            st.save_policy(s, form, model_fp, run);
        }
        self.policies.fulfill(s, form, model_fp, run)
    }

    /// The annotated trace for `(bench, budget)` under `machine`'s
    /// front-end geometry, annotating (and caching) it on the calling
    /// thread if missing — capturing the functional trace first if
    /// even that is missing.
    ///
    /// # Panics
    ///
    /// Panics if `bench` is not a registered benchmark name (see
    /// [`Engine::trace`]).
    pub fn annotation(
        &self,
        bench: &'static str,
        budget: Budget,
        machine: &MachineConfig,
    ) -> Arc<AnnotatedTrace> {
        let geometry = machine.frontend_fingerprint();
        loop {
            match self.annotations.claim(bench, budget, geometry) {
                Claim::Ready(a) => {
                    self.annotations.hits.fetch_add(1, Ordering::Relaxed);
                    return a;
                }
                Claim::Wait(latch) => {
                    if let Some(a) = latch.wait() {
                        self.annotations.hits.fetch_add(1, Ordering::Relaxed);
                        return a;
                    }
                }
                Claim::Owner => break,
            }
        }
        let _guard = self.annotations.guard(vec![(bench, budget, geometry)]);
        let store = self.store();
        if let Some(ann) = store
            .as_ref()
            .and_then(|st| st.load_annotation(bench, budget, geometry))
        {
            return self
                .annotations
                .fulfill(bench, budget, geometry, Arc::new(ann));
        }
        self.annotations.built.fetch_add(1, Ordering::Relaxed);
        let trace = self.trace(bench, budget);
        let ann = annotate(machine.config(), &trace);
        if let Some(st) = &store {
            st.save_annotation(bench, budget, geometry, &ann);
        }
        self.annotations
            .fulfill(bench, budget, geometry, Arc::new(ann))
    }

    /// Runs one point through the two-phase path: cached annotation,
    /// then the calling worker's reusable timing kernel.
    fn run_point(&self, s: &Scenario) -> SimResult {
        let ann = self.annotation(s.bench, s.budget, &s.machine);
        WORKER_KERNEL.with(|k| k.borrow_mut().run(&ann, s.machine.config()))
    }

    /// The packed trace for `(bench, budget)`, capturing (and caching)
    /// it on the calling thread if missing.
    ///
    /// # Panics
    ///
    /// Panics if `bench` is not a registered benchmark name — the
    /// engine-internal callers only reach this with names validated
    /// by [`SweepSpec::benches`] or the [`Benchmark`] registry; use
    /// [`Scenario::capture_trace`] for fallible capture.
    pub fn trace(&self, bench: &'static str, budget: Budget) -> Arc<EncodedTrace> {
        loop {
            match self.traces.claim(bench, budget) {
                Claim::Ready(t) => {
                    self.traces.hits.fetch_add(1, Ordering::Relaxed);
                    return t;
                }
                Claim::Wait(latch) => {
                    if let Some(t) = latch.wait() {
                        self.traces.hits.fetch_add(1, Ordering::Relaxed);
                        return t;
                    }
                }
                Claim::Owner => break,
            }
        }
        let _guard = self.traces.guard(vec![(bench, budget)]);
        self.traces.captures.fetch_add(1, Ordering::Relaxed);
        let trace = capture_trace(bench, budget).unwrap_or_else(|e| panic!("{e}"));
        self.traces.fulfill(bench, budget, Arc::new(trace))
    }

    /// Cache-effectiveness snapshot.
    pub fn stats(&self) -> EngineStats {
        let store = self.store();
        EngineStats {
            jobs: self.jobs,
            points: self.cache.len(),
            hits: self.cache.hits(),
            misses: self.cache.misses(),
            traces: self.traces.len(),
            trace_hits: self.traces.hits(),
            captures: self.traces.captures(),
            annotations: self.annotations.len(),
            annotation_hits: self.annotations.hits(),
            annotations_built: self.annotations.built(),
            policy_runs: self.policies.len(),
            policy_hits: self.policies.hits(),
            policy_misses: self.policies.misses(),
            flight_waits: self.cache.waits()
                + self.traces.waits()
                + self.annotations.waits()
                + self.policies.waits(),
            grid_batches: self.grid_batches.load(Ordering::Relaxed),
            grid_points: self.grid_points.load(Ordering::Relaxed),
            grid_nanos: self.grid_nanos.load(Ordering::Relaxed),
            disk: store.is_some(),
            disk_hits: store.as_ref().map_or(0, |st| st.hits()),
            disk_sim_hits: store
                .as_ref()
                .map_or(0, |st| st.hits_for(crate::store::StoreKind::Sim)),
            disk_misses: store.as_ref().map_or(0, |st| st.misses()),
            disk_writes: store.as_ref().map_or(0, |st| st.writes()),
            disk_evictions: store.as_ref().map_or(0, |st| st.evictions()),
        }
    }

    /// Simulates every not-yet-cached point of `spec`, fanning out
    /// across the engine's workers. Returns how many points were
    /// actually simulated (the rest were cache hits).
    pub fn run_sweep(&self, spec: &SweepSpec) -> usize {
        self.prime(&spec.scenarios())
    }

    /// Simulates every not-yet-cached scenario in `scenarios`.
    /// Returns how many points were actually simulated.
    ///
    /// Work splits into three parallel phases: first the missing
    /// functional traces are captured — one per distinct
    /// `(bench, budget)`, however many machine variants share it —
    /// then each distinct front-end geometry annotates its trace once
    /// (one pass per `(bench, budget, frontend_fingerprint)`), and
    /// finally every point replays its annotation through a worker's
    /// reusable timing kernel.
    pub fn prime(&self, scenarios: &[Scenario]) -> usize {
        let mut queued = FxHashSet::with_capacity_and_hasher(scenarios.len(), Default::default());
        let mut todo: Vec<Scenario> = Vec::new();
        let mut pending: Vec<(Scenario, Arc<Latch<Arc<SimResult>>>)> = Vec::new();
        for s in scenarios {
            if !queued.insert(s.clone()) {
                continue; // already queued this round; don't double-count
            }
            match self.cache.claim(s) {
                Claim::Ready(_) => {}
                Claim::Owner => todo.push(s.clone()),
                // A concurrent caller is already simulating this
                // point: it is not this sweep's work (or its miss),
                // but `prime`'s contract is a warm cache, so block on
                // the owner's latch at the end.
                Claim::Wait(latch) => pending.push((s.clone(), latch)),
            }
        }
        // Unwind safety: every claim this call owns must resolve even
        // if a worker panics below — the guards abandon whatever was
        // not fulfilled, waking waiters to re-claim rather than hang
        // on a dead owner. Abandon is a no-op on fulfilled entries.
        let _sim_guard = self.cache.guard(todo.clone());
        let store = self.store();
        if let Some(st) = &store {
            // Disk read-through for whole points: store hits fill the
            // sim cache directly, so a fully warm store leaves nothing
            // to capture, annotate, or replay — and `prime` returns 0.
            todo = parallel_map(self.jobs, todo, |s| {
                let sim = st.load_sim(&s);
                (s, sim)
            })
            .into_iter()
            .filter_map(|(s, sim)| match sim {
                Some(r) => {
                    self.cache.fulfill(&s, Arc::new(r));
                    None
                }
                None => Some(s),
            })
            .collect();
        }
        let mut ann_work: Vec<(&'static str, Budget, u64, MachineConfig)> = Vec::new();
        let mut seen_geometries = FxHashSet::default();
        for s in &todo {
            let geometry = s.machine.frontend_fingerprint();
            let key = (s.bench, s.budget, geometry);
            if !seen_geometries.insert(key) {
                continue;
            }
            // Owner claims become this sweep's annotation passes.
            // Ready and in-flight geometries are skipped: an
            // in-flight one is being built by a concurrent caller,
            // and the replay phase's `annotation` lookup blocks on
            // its latch if it is still pending by then.
            if matches!(
                self.annotations.claim(s.bench, s.budget, geometry),
                Claim::Owner
            ) {
                ann_work.push((s.bench, s.budget, geometry, s.machine.clone()));
            }
        }
        let _ann_guard = self
            .annotations
            .guard(ann_work.iter().map(|&(b, bu, g, _)| (b, bu, g)).collect());
        if let Some(st) = &store {
            // Disk read-through for annotations, before the trace
            // phase: a geometry served from disk needs no functional
            // trace at all.
            ann_work =
                parallel_map(
                    self.jobs,
                    ann_work,
                    |(bench, budget, geometry, machine)| match st
                        .load_annotation(bench, budget, geometry)
                    {
                        Some(a) => {
                            self.annotations
                                .fulfill(bench, budget, geometry, Arc::new(a));
                            None
                        }
                        None => Some((bench, budget, geometry, machine)),
                    },
                )
                .into_iter()
                .flatten()
                .collect();
        }
        // Functional traces are only consumed by the annotation pass,
        // so capture exactly what the remaining builds need.
        let mut trace_keys: Vec<(&'static str, Budget)> = Vec::new();
        let mut seen_keys = FxHashSet::default();
        for &(bench, budget, _, _) in &ann_work {
            let key = (bench, budget);
            if seen_keys.insert(key) && matches!(self.traces.claim(bench, budget), Claim::Owner) {
                trace_keys.push(key);
            }
        }
        let _trace_guard = self.traces.guard(trace_keys.clone());
        self.traces
            .captures
            .fetch_add(trace_keys.len(), Ordering::Relaxed);
        for ((bench, budget), trace) in parallel_map(self.jobs, trace_keys, |(bench, budget)| {
            let trace = capture_trace(bench, budget).unwrap_or_else(|e| panic!("{e}"));
            ((bench, budget), Arc::new(trace))
        }) {
            self.traces.fulfill(bench, budget, trace);
        }
        self.annotations
            .built
            .fetch_add(ann_work.len(), Ordering::Relaxed);
        for ((bench, budget, geometry), ann) in
            parallel_map(self.jobs, ann_work, |(bench, budget, geometry, machine)| {
                let trace = self.trace(bench, budget);
                let ann = annotate(machine.config(), &trace);
                if let Some(st) = &store {
                    st.save_annotation(bench, budget, geometry, &ann);
                }
                ((bench, budget, geometry), Arc::new(ann))
            })
        {
            self.annotations.fulfill(bench, budget, geometry, ann);
        }
        let simulated = todo.len();
        for (s, r) in parallel_map(self.jobs, todo, |s| {
            let r = Arc::new(self.run_point(&s));
            if let Some(st) = &store {
                st.save_sim(&s, &r);
            }
            (s, r)
        }) {
            self.cache.fulfill(&s, r);
        }
        // Points a concurrent caller claimed first: block until each
        // resolves, so a returned `prime` leaves every requested
        // point servable from cache. If an owner abandoned (panicked)
        // re-claim through `result`, which simulates here if needed.
        for (s, latch) in pending {
            if latch.wait().is_none() {
                let _ = self.result(s);
            }
        }
        simulated
    }

    /// Returns the result for one scenario, simulating it on the
    /// calling thread on a cache miss (replaying the benchmark's
    /// cached annotation through the worker's timing kernel,
    /// annotating — and capturing the functional trace — first if
    /// needed).
    ///
    /// # Panics
    ///
    /// Panics if the scenario names an unregistered benchmark; use
    /// [`Scenario::run`] for a fallible one-off point.
    pub fn result(&self, s: Scenario) -> Arc<SimResult> {
        loop {
            match self.cache.claim(&s) {
                Claim::Ready(r) => return r,
                Claim::Wait(latch) => {
                    if let Some(r) = latch.wait() {
                        return r;
                    }
                    // Owner abandoned (panicked mid-simulation):
                    // re-claim; this thread may become the new owner.
                }
                Claim::Owner => break,
            }
        }
        let _guard = self.cache.guard(vec![s.clone()]);
        let store = self.store();
        if let Some(sim) = store.as_ref().and_then(|st| st.load_sim(&s)) {
            return self.cache.fulfill(&s, Arc::new(sim));
        }
        let result = Arc::new(self.run_point(&s));
        if let Some(st) = &store {
            st.save_sim(&s, &result);
        }
        self.cache.fulfill(&s, result)
    }
}

/// Resolves a `--jobs`-style worker count: `0` means "all cores".
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Applies `f` to every item on a shared-queue worker pool, preserving
/// input order in the output. `jobs = 0` selects the host's available
/// parallelism; `jobs = 1` degenerates to a plain sequential map.
///
/// The experiments use this for CPU-bound post-processing sweeps (e.g.
/// the 20-point technology sweep of Figure 9) whose units of work are
/// not simulation points and therefore bypass the [`SimCache`].
pub fn parallel_map<T, U, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len());
    if jobs <= 1 {
        return items.into_iter().map(f).collect();
    }
    let total = items.len();
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let done: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(total));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                // Pop-then-release: the queue lock is held only for
                // the pop, so idle workers steal the next item the
                // moment they finish one. Poison-tolerant locking: if
                // a sibling worker panics, the rest drain the queue
                // normally and the scope re-raises the *original*
                // panic instead of a cascade of lock failures.
                let next = lock_unpoisoned(&queue).pop_front();
                let Some((i, item)) = next else { break };
                let out = f(item);
                lock_unpoisoned(&done).push((i, out));
            });
        }
    });
    let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    assert_eq!(done.len(), total, "every item produces one output");
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(bench: &'static str, fus: usize) -> Scenario {
        Scenario::paper(bench, fus, 12, Budget::Custom(5_000))
    }

    #[test]
    fn sweep_expands_cartesian_product_without_duplicates() {
        let spec = SweepSpec::new(Budget::Custom(5_000))
            .benches(["mst", "gzip"])
            .fu_counts([1, 4])
            .l2_latencies([12, 12, 32]);
        let scenarios = spec.scenarios();
        assert_eq!(scenarios.len(), 2 * 2 * 2);
        assert_eq!(scenarios[0].bench, "mst"); // bench-major order
        let mut dedup = scenarios.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), scenarios.len());
    }

    #[test]
    fn sweep_spans_non_paper_axes() {
        let spec = SweepSpec::new(Budget::Custom(5_000))
            .benches(["mst"])
            .axis_int_fus([2])
            .axis_l2_latency([12])
            .axis_width([2, 4])
            .axis_rob([64, 128]);
        let expanded = spec.try_expand().unwrap();
        assert_eq!(expanded.len(), 4);
        // Axis values are echoed combo-for-combo, nested in insertion
        // order (int_fus, l2, width, rob).
        assert_eq!(expanded[0].0, vec![2, 12, 2, 64]);
        assert_eq!(expanded[3].0, vec![2, 12, 4, 128]);
        let machines: FxHashSet<u64> = expanded
            .iter()
            .map(|(_, s)| s.machine.fingerprint())
            .collect();
        assert_eq!(machines.len(), 4, "each combo is a distinct machine");
        // Later axes nest innermost: expanded[1] bumps rob, not width.
        assert_eq!(expanded[1].1.machine.config().width, 2);
        assert_eq!(expanded[1].1.machine.config().rob_entries, 128);
    }

    #[test]
    fn sweep_surfaces_invalid_axis_combinations() {
        let spec = SweepSpec::new(Budget::Custom(5_000))
            .benches(["mst"])
            .axis_width([0]);
        let err = spec.try_expand().unwrap_err();
        assert_eq!(err.field, "width");
    }

    #[test]
    fn replacing_an_axis_preserves_its_position() {
        let spec = SweepSpec::new(Budget::Custom(5_000))
            .axis_l2_latency([32])
            .axis_int_fus([1, 2]);
        let names: Vec<&str> = spec.axes().iter().map(|a| a.name).collect();
        assert_eq!(names, ["int_fus", "l2.latency"]);
        assert_eq!(spec.axes()[0].values, [1, 2]);
        assert_eq!(spec.axes()[1].values, [32]);
    }

    #[test]
    fn scenario_run_is_deterministic() {
        let s = tiny("mst", 2);
        let a = s.run().unwrap();
        let b = s.run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scenario_run_reports_unknown_benchmarks() {
        let s = Scenario::paper("not-a-bench", 2, 12, Budget::Custom(1_000));
        let err = s.run().unwrap_err();
        assert_eq!(
            err,
            ExecError::UnknownBenchmark {
                name: "not-a-bench".to_string()
            }
        );
        assert!(err.to_string().contains("unknown benchmark `not-a-bench`"));
        assert!(err.to_string().contains("gzip"), "registry not listed");
    }

    #[test]
    fn engine_caches_points_across_sweeps() {
        let engine = Engine::new(2);
        let spec = SweepSpec::new(Budget::Custom(5_000))
            .benches(["mst", "gzip"])
            .fu_counts([1, 2]);
        assert_eq!(engine.run_sweep(&spec), 4);
        assert_eq!(engine.run_sweep(&spec), 0); // second sweep: all cached
        assert_eq!(engine.cache().len(), 4);
        // A direct lookup of a swept point must not re-simulate.
        let before = engine.cache().len();
        let _ = engine.result(tiny("mst", 1));
        assert_eq!(engine.cache().len(), before);
    }

    #[test]
    fn machine_variants_key_the_cache_separately() {
        let engine = Engine::sequential();
        let budget = Budget::Custom(5_000);
        let narrow = Scenario::new(
            "mst",
            MachineConfig::derived(|c| c.width = 2).unwrap(),
            budget,
        );
        let wide = Scenario::new("mst", MachineConfig::baseline(), budget);
        let a = engine.result(narrow.clone());
        let b = engine.result(wide);
        assert_eq!(engine.cache().len(), 2, "variants must not alias");
        assert_ne!(*a, *b, "width change must affect timing");
        // Same machine, rebuilt from scratch: cache hit, same Arc.
        let narrow_again = Scenario::new(
            "mst",
            MachineConfig::derived(|c| c.width = 2).unwrap(),
            budget,
        );
        let c = engine.result(narrow_again);
        assert!(Arc::ptr_eq(&a, &c));
        // And both variants replayed one shared functional trace.
        assert_eq!(engine.trace_cache().captures(), 1);
    }

    #[test]
    fn parallel_and_sequential_engines_agree() {
        let spec = SweepSpec::new(Budget::Custom(5_000))
            .benches(["mst", "health"])
            .fu_counts([1, 2, 3, 4]);
        let seq = Engine::sequential();
        let par = Engine::new(4);
        seq.run_sweep(&spec);
        par.run_sweep(&spec);
        for s in spec.scenarios() {
            assert_eq!(
                *seq.result(s.clone()),
                *par.result(s.clone()),
                "{s:?} diverged"
            );
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let squares = parallel_map(4, (0u64..100).collect(), |x| x * x);
        assert_eq!(squares, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
        let seq = parallel_map(1, vec![1, 2, 3], |x| x + 1);
        assert_eq!(seq, vec![2, 3, 4]);
        assert!(parallel_map(0, Vec::<u64>::new(), |x| x).is_empty());
    }

    #[test]
    fn effective_jobs_resolves_zero_to_cores() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn traces_are_captured_once_per_bench_and_reused() {
        let engine = Engine::new(2);
        let spec = SweepSpec::new(Budget::Custom(5_000))
            .benches(["mst", "gzip"])
            .fu_counts([1, 2, 3, 4])
            .l2_latencies([12, 32]);
        assert_eq!(engine.run_sweep(&spec), 16);
        // 16 timing points, but only one functional execution per
        // benchmark.
        assert_eq!(engine.trace_cache().len(), 2);
        assert_eq!(engine.trace_cache().captures(), 2);
        assert!(engine.trace_cache().encoded_bytes() > 0);
        // Further sweeps and lazy lookups reuse the cached traces.
        engine.result(tiny("mst", 3));
        engine.result(Scenario::paper("mst", 1, 99, Budget::Custom(5_000)));
        assert_eq!(engine.trace_cache().captures(), 2);
    }

    #[test]
    fn replayed_trace_matches_fresh_execution() {
        let engine = Engine::sequential();
        let s = tiny("health", 2);
        let replayed = engine.result(s.clone());
        assert_eq!(*replayed, s.run().unwrap(), "cached-trace path diverged");
    }

    #[test]
    #[should_panic(expected = "unknown benchmark `gziip`")]
    fn sweep_spec_rejects_unknown_benchmarks_at_build_time() {
        let _ = SweepSpec::new(Budget::Custom(1_000)).benches(["mst", "gziip"]);
    }

    #[test]
    fn caches_survive_a_poisoned_lock() {
        let engine = Engine::new(2);
        engine.result(tiny("mst", 1));
        // Panic while holding the SimCache lock, as a crashing worker
        // would.
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock_unpoisoned(&engine.cache.flight.map);
            panic!("worker died mid-insert");
        }));
        assert!(poison.is_err());
        assert!(engine.cache.flight.map.is_poisoned());
        // Later lookups and inserts keep working instead of dying on
        // a secondary `expect("cache lock")`.
        assert_eq!(engine.cache().len(), 1);
        let r = engine.result(tiny("mst", 2));
        assert!(r.cycles > 0);
        assert_eq!(engine.cache().len(), 2);
    }

    #[test]
    fn single_flight_losers_block_on_the_winner() {
        let flight: Flight<u32, u64> = Flight::default();
        assert!(matches!(flight.claim(&7), Claim::Owner));
        let Claim::Wait(latch) = flight.claim(&7) else {
            panic!("second claim must wait on the owner");
        };
        std::thread::scope(|scope| {
            scope.spawn(|| assert_eq!(latch.wait(), Some(99)));
            flight.fulfill(&7, 99);
        });
        assert!(matches!(flight.claim(&7), Claim::Ready(99)));
        assert_eq!(flight.ready_len(), 1);
    }

    #[test]
    fn abandoned_flights_wake_waiters_to_reclaim() {
        let flight: Flight<u32, u64> = Flight::default();
        assert!(matches!(flight.claim(&7), Claim::Owner));
        let Claim::Wait(latch) = flight.claim(&7) else {
            panic!("second claim must wait on the owner");
        };
        // In-flight entries are invisible to peeks and counts.
        assert_eq!(flight.peek(&7), None);
        assert_eq!(flight.ready_len(), 0);
        // The owner unwinds without fulfilling: its guard abandons.
        drop(flight.guard(vec![7]));
        assert_eq!(latch.wait(), None, "abandon must wake waiters empty-handed");
        assert!(
            matches!(flight.claim(&7), Claim::Owner),
            "a waiter re-claims ownership after abandon"
        );
        flight.fulfill(&7, 1);
        // A guard dropped after fulfillment must not clobber the value.
        drop(flight.guard(vec![7]));
        assert!(matches!(flight.claim(&7), Claim::Ready(1)));
    }

    #[test]
    fn concurrent_identical_sweeps_simulate_each_point_once() {
        let engine = Engine::new(4);
        let spec = SweepSpec::new(Budget::Custom(5_000))
            .benches(["mst", "gzip"])
            .fu_counts([1, 2])
            .l2_latencies([12, 32]); // 8 points
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| engine.run_sweep(&spec));
            }
        });
        let stats = engine.stats();
        assert_eq!(
            stats.simulated(),
            8,
            "8 duplicate concurrent sweeps must simulate each point exactly once"
        );
        assert_eq!(stats.points, 8);
        assert_eq!(stats.captures, 2, "one functional execution per bench");
        // And every point equals a sequential engine's.
        let seq = Engine::sequential();
        seq.run_sweep(&spec);
        for s in spec.scenarios() {
            assert_eq!(*engine.result(s.clone()), *seq.result(s), "diverged");
        }
    }
}
