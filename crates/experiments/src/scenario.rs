//! Scenario engine: deterministic, cached, parallel execution of
//! simulation points over arbitrary machine configurations.
//!
//! * [`Scenario`] — the value-typed key of one simulation point: a
//!   benchmark, a canonical [`MachineConfig`] (any Table 2 variant,
//!   not just the paper's FU-count × L2-latency grid), and a budget;
//! * [`SweepSpec`] — a multi-axis cartesian builder (benchmarks ×
//!   any subset of `CoreConfig` axes) expanding to a deterministic
//!   scenario list, plus evaluation axes (policy, slices, leakage,
//!   transition cost) that multiply result rows, not simulations;
//! * [`Engine`] — a work-stealing executor (std scoped threads over a
//!   shared job queue) that fans uncached points out across cores.
//!
//! The engine memoizes each point in four layers, all instances of
//! one single-flight [`Memo`] with one counting rule:
//!
//! | layer | key | value |
//! |---|---|---|
//! | [`TraceCache`] | `(bench, budget)` | packed [`EncodedTrace`] |
//! | [`AnnotationCache`] | `(bench, budget, frontend_fingerprint)` | [`AnnotatedTrace`] |
//! | [`SimCache`] | [`Scenario`] | [`SimResult`] |
//! | [`crate::policy::PolicyCache`] | `(scenario, form, model fingerprint)` | [`PolicyRun`] |
//!
//! So a machine sweep captures each benchmark once, a sweep over
//! timing-only axes annotates each benchmark once and replays the
//! allocation-free timing kernel per point, and a policy/technology
//! sweep over a warm engine runs no simulation at all (`DESIGN.md`
//! §6, §7 and §13).
//!
//! Every simulation is single-threaded and seeded, so a scenario's
//! result is a pure function of its key: the engine is free to run
//! points in any order on any number of workers and still produce
//! bit-identical results — and replaying a cached trace is
//! bit-identical to re-executing the kernel
//! (`tests/tests/determinism.rs` asserts both).

use crate::harness::Budget;
use crate::policy::{default_eval_axes, policy_energy_of, EvalPoint, PolicyCache, PolicyKind};
use crate::store::{ResultStore, ShardWriter};
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
    /// One timing kernel per thread: every point a thread simulates
    /// reuses the same scratch allocations through the kernel's
    /// `reset()` path instead of rebuilding cache and ring structures
    /// per point. `--jobs 1` runs everything on the calling thread, so
    /// a whole `repro all` shares one kernel. At `--jobs` > 1 every
    /// [`parallel_map`] call spawns fresh scoped workers, and each sizes
    /// a fresh kernel on its first point: "a warm kernel performs no
    /// scratch growths" holds per worker within one call. A persistent
    /// pool was measured and is not faster (`DESIGN.md` §6).
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
        *lock_unpoisoned(&self.state) = LatchState::Abandoned;
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
/// value. The mechanism layer under [`Memo`], which adds the
/// counters.
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

    /// The published value for `key`, if any; in-flight entries are
    /// invisible (the value does not exist yet).
    #[cfg(test)]
    pub(crate) fn peek(&self, key: &K) -> Option<V> {
        match lock_unpoisoned(&self.map).get(key) {
            Some(Slot::Ready(v)) => Some(v.clone()),
            _ => None,
        }
    }

    /// Number of published values (in-flight claims excluded).
    pub(crate) fn ready_len(&self) -> usize {
        self.sum_ready(|_| 1)
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

    /// An unwind guard over `keys` this caller has claimed as owner.
    /// On drop it abandons every key not fulfilled by then: it
    /// removes the in-flight entry and wakes its waiters empty-handed,
    /// so they re-claim (one becomes the new owner) instead of
    /// hanging on a panicked owner. Fulfilled keys are left alone, so
    /// a latch is never abandoned after it was fulfilled.
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
        let mut map = lock_unpoisoned(&self.flight.map);
        for key in &self.keys {
            if let Some(Slot::InFlight(latch)) = map.get(key) {
                let latch = Arc::clone(latch);
                map.remove(key);
                latch.abandon();
            }
        }
    }
}

/// A single-flight memo table and its counters: the one mechanism
/// behind all four engine caches ([`SimCache`], [`AnnotationCache`],
/// [`TraceCache`] and [`crate::policy::PolicyCache`]).
///
/// Every layer counts by the same rule:
///
/// * a lookup that finds the value published is a **hit**;
/// * a lookup that makes its caller the owner is a **miss**;
/// * a lookup that blocks on another thread's in-flight computation
///   is a **hit and a wait**: it is served without duplicating work,
///   so `hits + misses` is the number of lookups;
/// * a **compute** is counted once, after the compute closure
///   returns. An owner that unwinds counts a miss and no compute,
///   and so does an owner whose value a persistent tier supplied.
///
/// Disk hits and misses are not counted here: the [`ResultStore`]
/// keeps them per kind, and a memo does not duplicate them.
#[derive(Debug)]
pub struct Memo<K, V> {
    flight: Flight<K, V>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    computes: AtomicUsize,
    waits: AtomicUsize,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            flight: Flight::default(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            computes: AtomicUsize::new(0),
            waits: AtomicUsize::new(0),
        }
    }
}

/// What one [`Memo::claim_batch`] call owns and waits on.
struct Batch<'a, K: Eq + Hash + Clone, V: Clone, T> {
    /// Items whose keys the caller now owns: the first item of each
    /// key, in input order.
    owned: Vec<T>,
    /// Items whose keys another caller is computing, with its latch.
    pending: Vec<(T, Arc<Latch<V>>)>,
    /// Abandons every owned key still unpublished when dropped.
    guard: FlightGuard<'a, K, V>,
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// Claims `key`, counting it by the rule above. A `probe` is not
    /// a lookup of its own (the caller looks the key up, counted,
    /// later), so its published and in-flight keys count no hit.
    fn claim(&self, key: &K, probe: bool) -> Claim<V> {
        let claim = self.flight.claim(key);
        if matches!(claim, Claim::Wait(_)) {
            self.waits.fetch_add(1, Ordering::Relaxed);
        }
        if matches!(claim, Claim::Owner) {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else if !probe {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        claim
    }

    /// The value for `key`. It is either already published, awaited
    /// from the thread computing it, or, when this caller becomes the
    /// owner, read through `load` (a persistent tier; not a compute)
    /// or made by `compute`, then published. If the owner it waited
    /// on unwound, the caller claims again and may compute the value
    /// itself, so a panicked computation is retried, never awaited
    /// forever.
    pub fn get_or_compute(
        &self,
        key: &K,
        load: impl FnOnce() -> Option<V>,
        compute: impl FnOnce() -> V,
    ) -> V {
        loop {
            match self.claim(key, false) {
                Claim::Ready(v) => return v,
                Claim::Wait(latch) => {
                    if let Some(v) = latch.wait() {
                        return v;
                    }
                }
                Claim::Owner => break,
            }
        }
        let _guard = self.flight.guard(vec![key.clone()]);
        match load() {
            Some(v) => self.flight.fulfill(key, v),
            None => self.compute(key, compute),
        }
    }

    /// Claims the keys of many items at once, each distinct key once.
    /// With `probe` set the claims count as [`Memo::claim`]'s probes.
    fn claim_batch<T>(
        &self,
        items: impl IntoIterator<Item = T>,
        key: impl Fn(&T) -> K,
        probe: bool,
    ) -> Batch<'_, K, V, T> {
        let mut seen = FxHashSet::default();
        let mut batch = Batch {
            owned: Vec::new(),
            pending: Vec::new(),
            guard: self.flight.guard(Vec::new()),
        };
        for item in items {
            let k = key(&item);
            if !seen.insert(k.clone()) {
                continue;
            }
            match self.claim(&k, probe) {
                Claim::Ready(_) => {}
                Claim::Owner => {
                    batch.guard.keys.push(k);
                    batch.owned.push(item);
                }
                Claim::Wait(latch) => batch.pending.push((item, latch)),
            }
        }
        batch
    }

    /// Runs `f` for a key this caller owns and publishes its value,
    /// waking waiters. This is the one place a compute is counted,
    /// after `f` returns.
    fn compute(&self, key: &K, f: impl FnOnce() -> V) -> V {
        let value = f();
        self.computes.fetch_add(1, Ordering::Relaxed);
        self.flight.fulfill(key, value)
    }

    /// Inserts a value, keeping the first one if the key was raced
    /// (values are pure functions of their key, so either copy is
    /// correct); returns the kept copy.
    pub fn insert(&self, key: K, value: V) -> V {
        self.flight.fulfill(&key, value)
    }

    /// Number of published values (in-flight claims excluded).
    pub fn len(&self) -> usize {
        self.flight.ready_len()
    }

    /// Whether nothing is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served without computing, waits included.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that made their caller the owner.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Computations that returned.
    pub fn computes(&self) -> usize {
        self.computes.load(Ordering::Relaxed)
    }

    /// Lookups that blocked on another thread's in-flight computation
    /// instead of duplicating it.
    pub fn waits(&self) -> usize {
        self.waits.load(Ordering::Relaxed)
    }
}

/// The simulation layer: [`Scenario`] to its timing result.
pub type SimCache = Memo<Scenario, Arc<SimResult>>;

/// The functional layer: `(bench, budget)` to its packed trace,
/// shared by every machine variant.
pub type TraceCache = Memo<(&'static str, Budget), Arc<EncodedTrace>>;

/// The front-end layer: `(bench, budget, front-end geometry
/// fingerprint)` to the annotated trace, shared by every timing-axis
/// variant of a machine (see [`fuleak_uarch::annotate`] and
/// `DESIGN.md`). The paper's FU × L2-latency grid is all timing axes,
/// so it annotates each benchmark once.
pub type AnnotationCache = Memo<(&'static str, Budget, u64), Arc<AnnotatedTrace>>;

impl TraceCache {
    /// Total packed bytes held across all cached traces.
    pub fn encoded_bytes(&self) -> usize {
        self.flight.sum_ready(|t| t.encoded_bytes())
    }
}

impl AnnotationCache {
    /// Total packed bytes held across all cached annotations.
    pub fn annotated_bytes(&self) -> usize {
        self.flight.sum_ready(|a| a.annotated_bytes())
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

    /// Result rows the sweep produces at most, counted from the axis
    /// lengths before anything is expanded: benchmarks × every machine
    /// axis × (with evaluation axes set) policies × slices × leakage ×
    /// transition cost, unset evaluation axes at their default
    /// lengths. Duplicates count, so expansion never exceeds it.
    pub fn points(&self) -> u64 {
        let machines = self.axes.iter().fold(self.benches.len() as u64, |n, a| {
            n.saturating_mul(a.values.len() as u64)
        });
        if !self.has_eval_axes() {
            return machines;
        }
        let (d_policies, d_slices, d_leaks, d_transitions) = default_eval_axes();
        let len = |set: usize, default: usize| (if set == 0 { default } else { set }) as u64;
        [
            len(self.policies.len(), d_policies.len()),
            len(self.slices.len(), d_slices.len()),
            len(self.leaks.len(), d_leaks.len()),
            len(self.transitions.len(), d_transitions.len()),
        ]
        .into_iter()
        .fold(machines, u64::saturating_mul)
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

/// Parallel, memoizing scenario executor.
///
/// Construct once, share by reference: every sweep and every lookup
/// goes through the same four [`Memo`] layers (see the module docs),
/// so repeated experiments reuse each other's work at every layer.
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
            cache: Memo::default(),
            traces: Memo::default(),
            annotations: Memo::default(),
            policies: Memo::default(),
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
        self.policies.get_or_compute(
            &(s.clone(), form, model_fp),
            || self.store()?.load_policy(s, form, model_fp),
            || {
                let run = policy_energy_of(model, form, &self.result(s.clone()));
                if let Some(st) = self.store() {
                    st.save_policy(s, form, model_fp, run);
                }
                run
            },
        )
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
        self.annotations.get_or_compute(
            &(bench, budget, geometry),
            || {
                let ann = self.store()?.load_annotation(bench, budget, geometry)?;
                Some(Arc::new(ann))
            },
            || self.annotate(bench, budget, machine),
        )
    }

    /// Annotates `(bench, budget)` under `machine`'s front-end
    /// geometry and writes the annotation behind to the store.
    fn annotate(
        &self,
        bench: &'static str,
        budget: Budget,
        machine: &MachineConfig,
    ) -> Arc<AnnotatedTrace> {
        let ann = annotate(machine.config(), &self.trace(bench, budget));
        if let Some(st) = self.store() {
            st.save_annotation(bench, budget, machine.frontend_fingerprint(), &ann);
        }
        Arc::new(ann)
    }

    /// Simulates one point through the two-phase path — cached
    /// annotation, then the calling worker's reusable timing kernel.
    /// Callers write results behind to the store, a batch at a time.
    fn simulate(&self, s: &Scenario) -> Arc<SimResult> {
        let ann = self.annotation(s.bench, s.budget, &s.machine);
        Arc::new(WORKER_KERNEL.with(|k| k.borrow_mut().run(&ann, s.machine.config())))
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
        self.traces
            .get_or_compute(&(bench, budget), || None, || capture(bench, budget))
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
            captures: self.traces.computes(),
            annotations: self.annotations.len(),
            annotation_hits: self.annotations.hits(),
            annotations_built: self.annotations.computes(),
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
    /// reusable timing kernel. With a store attached, the points are
    /// read a shard at a time before any work starts, and each shard's
    /// replayed points are written back as one batch file the moment
    /// the shard's last point finishes.
    ///
    /// Each phase claims its keys in one batch. The point claims are
    /// this call's lookups; the annotation and trace claims are
    /// probes, since the replay and annotation phases look those keys
    /// up again. Each batch's guard abandons the keys this call owns
    /// but never publishes, so a panicking worker wakes waiters to
    /// re-claim instead of hanging them.
    pub fn prime(&self, scenarios: &[Scenario]) -> usize {
        let point = |s: &&Scenario| (*s).clone();
        let geometry = |s: &&Scenario| (s.bench, s.budget, s.machine.frontend_fingerprint());
        let trace = |s: &&Scenario| (s.bench, s.budget);
        let points = self.cache.claim_batch(scenarios, point, false);
        // A fully warm store leaves nothing to capture, annotate or
        // replay, and `prime` returns 0.
        let todo: Vec<&Scenario> = match self.store() {
            None => points.owned,
            Some(st) => {
                let stored = st.load_sims(&points.owned);
                points
                    .owned
                    .into_iter()
                    .zip(stored)
                    .filter_map(|(s, r)| match r {
                        Some(r) => {
                            self.cache.insert(s.clone(), Arc::new(r));
                            None
                        }
                        None => Some(s),
                    })
                    .collect()
            }
        };
        // A geometry read from disk needs no functional trace at all.
        let geometries = self
            .annotations
            .claim_batch(todo.iter().copied(), geometry, true);
        let builds: Vec<&Scenario> = match self.store() {
            None => geometries.owned,
            Some(st) => parallel_map(self.jobs, geometries.owned, |s| {
                let (bench, budget, fingerprint) = geometry(&s);
                match st.load_annotation(bench, budget, fingerprint) {
                    Some(ann) => {
                        self.annotations.insert(geometry(&s), Arc::new(ann));
                        None
                    }
                    None => Some(s),
                }
            })
            .into_iter()
            .flatten()
            .collect(),
        };
        let captures = self.traces.claim_batch(builds.iter().copied(), trace, true);
        parallel_map(self.jobs, captures.owned, |s| {
            self.traces
                .compute(&trace(&s), || capture(s.bench, s.budget))
        });
        parallel_map(self.jobs, builds, |s| {
            let build = || self.annotate(s.bench, s.budget, &s.machine);
            self.annotations.compute(&geometry(&s), build)
        });
        let simulated = todo.len();
        let store = self.store();
        let writer = store.as_deref().map(|st| ShardWriter::new(st, &todo));
        parallel_map(self.jobs, todo, |s| {
            let result = self.cache.compute(s, || self.simulate(s));
            if let Some(writer) = &writer {
                writer.finish(s, result);
            }
        });
        // Points a concurrent caller claimed first: block until each
        // resolves, so a returned `prime` leaves every requested
        // point servable from cache. If an owner abandoned (panicked)
        // re-claim through `result`, which simulates here if needed.
        for (s, latch) in points.pending {
            if latch.wait().is_none() {
                let _ = self.result(s.clone());
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
        self.cache.get_or_compute(
            &s,
            || self.store()?.load_sim(&s).map(Arc::new),
            || {
                let result = self.simulate(&s);
                if let Some(st) = self.store() {
                    st.save_sims(&[(&s, Arc::clone(&result))]);
                }
                result
            },
        )
    }
}

/// Captures a trace for the engine, whose callers have validated the
/// benchmark name (see [`Engine::trace`]).
fn capture(bench: &'static str, budget: Budget) -> Arc<EncodedTrace> {
    Arc::new(capture_trace(bench, budget).unwrap_or_else(|e| panic!("{e}")))
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
        assert_eq!(engine.trace_cache().computes(), 1);
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
        assert_eq!(engine.trace_cache().computes(), 2);
        assert!(engine.trace_cache().encoded_bytes() > 0);
        // Further sweeps and lazy lookups reuse the cached traces.
        engine.result(tiny("mst", 3));
        engine.result(Scenario::paper("mst", 1, 99, Budget::Custom(5_000)));
        assert_eq!(engine.trace_cache().computes(), 2);
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
    fn memo_counts_hits_misses_waits_and_computes() {
        let memo: Memo<u32, u64> = Memo::default();
        let counts = |m: &Memo<u32, u64>| (m.hits(), m.misses(), m.waits(), m.computes());
        // Owner: a miss, then one compute once the closure returns.
        assert_eq!(memo.get_or_compute(&1, || None, || 10), 10);
        assert_eq!(counts(&memo), (0, 1, 0, 1));
        // Ready: a hit; neither tier nor compute runs.
        let hit = memo.get_or_compute(&1, || panic!("loaded a hit"), || panic!("recomputed"));
        assert_eq!(hit, 10);
        assert_eq!(counts(&memo), (1, 1, 0, 1));
        // Wait: a hit plus a wait, served from the owner's latch.
        assert!(matches!(memo.claim(&2, false), Claim::Owner));
        let Claim::Wait(latch) = memo.claim(&2, false) else {
            panic!("second claim must wait on the owner");
        };
        assert_eq!(counts(&memo), (2, 2, 1, 1));
        assert_eq!(memo.compute(&2, || 20), 20);
        assert_eq!(latch.wait(), Some(20));
        assert_eq!(counts(&memo), (2, 2, 1, 2));
        // Abandon, then re-claim: the unwound owner counts a miss but
        // no compute, and the re-claiming caller computes.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_compute(&3, || None, || panic!("owner died"))
        }));
        assert!(unwound.is_err());
        assert_eq!(counts(&memo), (2, 3, 1, 2));
        assert_eq!(memo.get_or_compute(&3, || None, || 30), 30);
        assert_eq!(counts(&memo), (2, 4, 1, 3));
        // A tier load publishes without a compute.
        assert_eq!(
            memo.get_or_compute(&4, || Some(40), || panic!("computed")),
            40
        );
        assert_eq!(counts(&memo), (2, 5, 1, 3));
        // Inserts are first-wins and count nothing.
        assert_eq!(memo.insert(5, 50), 50);
        assert_eq!(memo.insert(5, 51), 50);
        assert_eq!(memo.insert(1, 11), 10);
        assert_eq!(counts(&memo), (2, 5, 1, 3));
        assert_eq!(memo.len(), 5);
        // A probe batch counts owners and waits, never hits.
        assert!(matches!(memo.claim(&6, false), Claim::Owner));
        let batch = memo.claim_batch([1, 6, 7, 7], |&k| k, true);
        assert_eq!(batch.owned, [7]);
        assert_eq!(batch.pending.len(), 1);
        assert_eq!(counts(&memo), (2, 7, 2, 3));
        drop(batch);
        assert_eq!(memo.len(), 5, "the batch guard abandons unpublished keys");
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
