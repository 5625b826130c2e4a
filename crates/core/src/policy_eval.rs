//! Closed-form policy evaluation over idle-interval spectra.
//!
//! Every sleep controller in [`crate::policy`] makes its per-cycle
//! decisions from the position *within* the current idle interval
//! (plus, for [`crate::policy::AdaptiveSleep`], a running prediction
//! folded in at interval boundaries). The energy an interval of `t`
//! idle cycles costs under a policy is therefore a closed form in `t`
//! — derived per policy in `DESIGN.md` §7 — and a whole workload's
//! policy energy is a dot product between its
//! [`IntervalSpectrum`](crate::IntervalSpectrum) and that closed
//! form: O(distinct lengths) instead of the O(cycles) of
//! [`crate::accounting::simulate_cycles`] or the O(intervals ·
//! slices) of [`crate::accounting::account_intervals`].
//!
//! Three evaluators are provided, exact to one another (pinned by
//! `crates/core/tests/spectrum_props.rs`):
//!
//! * [`interval_run`] — one idle interval under a fresh controller;
//! * [`intervals_run`] — an interval *list* in occurrence order
//!   (generalizes `account_intervals` to the extension policies,
//!   carrying AdaptiveSleep's predictor across intervals);
//! * [`spectrum_run`] — an [`IntervalSpectrum`](crate::IntervalSpectrum);
//!   order-free policies reduce to the dot product, and AdaptiveSleep
//!   is *defined* to observe the spectrum in its canonical
//!   ascending-length order (a spectrum is a multiset, so some order
//!   must be chosen; ascending is the sorted, deterministic one).

use crate::accounting::PolicyRun;
use crate::closed_form::BoundaryPolicy;
use crate::model::{EnergyModel, NormalizedEnergy};
use crate::policy::{
    AdaptiveSleep, AlwaysActive, GradualSleep, MaxSleep, NoOverhead, SleepController, TimeoutSleep,
};
use crate::spectrum::IntervalSpectrum;
use std::hash::{Hash, Hasher};

/// A sleep policy as a *value*: the controller family plus every
/// parameter its closed form needs. Unlike the stateful
/// [`SleepController`] objects, a `PolicyForm` is `Copy`, comparable,
/// and hashable (so it can key caches; the `f64` parameters hash by
/// bit pattern).
#[derive(Debug, Clone, Copy)]
pub enum PolicyForm {
    /// Never assert Sleep (clock gating only).
    AlwaysActive,
    /// Assert Sleep on the first idle cycle of every interval.
    MaxSleep,
    /// MaxSleep with free transitions — the unachievable lower bound.
    NoOverhead,
    /// Stagger Sleep across `slices` circuit slices, one per idle
    /// cycle (Section 3.2 of the paper).
    GradualSleep {
        /// Number of slices the FU is divided into (at least 1).
        slices: u32,
    },
    /// Wait `timeout` idle cycles before asserting Sleep on the whole
    /// FU.
    TimeoutSleep {
        /// Uncontrolled idle cycles tolerated before sleeping.
        timeout: u64,
    },
    /// Predict the coming interval from an EWMA of recent interval
    /// lengths; sleep immediately when the prediction exceeds the
    /// breakeven interval, otherwise fall back to a breakeven-length
    /// timeout.
    AdaptiveSleep {
        /// The technology's breakeven interval (cycles).
        breakeven: f64,
        /// EWMA weight of the newest interval, in `(0, 1]`.
        weight: f64,
    },
}

impl PartialEq for PolicyForm {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for PolicyForm {}

impl Hash for PolicyForm {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl PolicyForm {
    /// A canonical `(discriminant, param, param)` tuple — `f64`
    /// parameters by bit pattern — so equality and hashing agree and
    /// the form can key memo tables.
    fn key(&self) -> (u8, u64, u64) {
        match *self {
            PolicyForm::AlwaysActive => (0, 0, 0),
            PolicyForm::MaxSleep => (1, 0, 0),
            PolicyForm::NoOverhead => (2, 0, 0),
            PolicyForm::GradualSleep { slices } => (3, u64::from(slices), 0),
            PolicyForm::TimeoutSleep { timeout } => (4, timeout, 0),
            PolicyForm::AdaptiveSleep { breakeven, weight } => {
                (5, breakeven.to_bits(), weight.to_bits())
            }
        }
    }

    /// The boundary policies of [`crate::closed_form`] as forms.
    pub fn from_boundary(policy: BoundaryPolicy) -> Self {
        match policy {
            BoundaryPolicy::AlwaysActive => PolicyForm::AlwaysActive,
            BoundaryPolicy::MaxSleep => PolicyForm::MaxSleep,
            BoundaryPolicy::NoOverhead => PolicyForm::NoOverhead,
            BoundaryPolicy::GradualSleep { slices } => PolicyForm::GradualSleep { slices },
        }
    }

    /// A short display name (matches the controller's).
    pub fn name(&self) -> &'static str {
        match self {
            PolicyForm::AlwaysActive => "AlwaysActive",
            PolicyForm::MaxSleep => "MaxSleep",
            PolicyForm::NoOverhead => "NoOverhead",
            PolicyForm::GradualSleep { .. } => "GradualSleep",
            PolicyForm::TimeoutSleep { .. } => "TimeoutSleep",
            PolicyForm::AdaptiveSleep { .. } => "AdaptiveSleep",
        }
    }

    /// Instantiates the corresponding cycle-level controller — the
    /// reference implementation the closed forms are proven against.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (`slices == 0`, a non-finite
    /// breakeven, a weight outside `(0, 1]`), exactly as the
    /// controller constructors do.
    pub fn controller(&self) -> Box<dyn SleepController> {
        // Constructor-like: called once per proof/check, never in the
        // closed-form evaluation steady state.
        match *self {
            PolicyForm::AlwaysActive => Box::new(AlwaysActive), // lint:allow(hot-alloc)
            PolicyForm::MaxSleep => Box::new(MaxSleep::new()),  // lint:allow(hot-alloc)
            PolicyForm::NoOverhead => Box::new(NoOverhead::new()), // lint:allow(hot-alloc)
            PolicyForm::GradualSleep { slices } => Box::new(GradualSleep::new(slices)), // lint:allow(hot-alloc)
            PolicyForm::TimeoutSleep { timeout } => Box::new(TimeoutSleep::new(timeout)), // lint:allow(hot-alloc)
            PolicyForm::AdaptiveSleep { breakeven, weight } => {
                Box::new(AdaptiveSleep::new(breakeven, weight)) // lint:allow(hot-alloc)
            }
        }
    }
}

/// Scales an idle-only interval run by an interval count.
fn scaled(run: PolicyRun, count: f64) -> PolicyRun {
    debug_assert_eq!(run.active_cycles, 0);
    PolicyRun {
        energy: run.energy * count,
        active_cycles: 0,
        uncontrolled_idle_equiv: run.uncontrolled_idle_equiv * count,
        sleep_equiv: run.sleep_equiv * count,
        transitions_equiv: run.transitions_equiv * count,
    }
}

/// One idle interval that stays uncontrolled for `u` cycles and then
/// (if anything remains) transitions and sleeps for the other `t - u`.
fn timeout_shape(model: &EnergyModel, t: u64, u: u64) -> PolicyRun {
    debug_assert!(u <= t);
    let mut run = PolicyRun {
        energy: model.uncontrolled_idle_cycle() * u as f64,
        uncontrolled_idle_equiv: u as f64,
        ..PolicyRun::default()
    };
    if t > u {
        run.energy += model.transition() + model.sleep_cycle() * (t - u) as f64;
        run.transitions_equiv = 1.0;
        run.sleep_equiv = (t - u) as f64;
    }
    run
}

/// The effective timeout of AdaptiveSleep's hedge mode: the
/// controller stays awake while `idle_run <= breakeven`, so it
/// tolerates `floor(breakeven)` uncontrolled cycles.
fn adaptive_hedge_timeout(breakeven: f64) -> u64 {
    breakeven.floor() as u64
}

/// The [`AdaptiveSleep`] constructor's parameter contract, enforced
/// identically by every evaluator so an invalid form panics instead
/// of silently pricing garbage.
fn check_adaptive(breakeven: f64, weight: f64) {
    assert!(
        breakeven.is_finite() && breakeven > 0.0,
        "breakeven must be finite and positive"
    );
    assert!(
        weight > 0.0 && weight <= 1.0,
        "EWMA weight must lie in (0, 1]"
    );
}

/// An AdaptiveSleep form with its parameters checked, against one
/// model — the spectrum pricing shared by [`spectrum_run`] and the
/// [`GridEval`] lanes.
#[derive(Debug, Clone, Copy)]
struct Adaptive {
    model: EnergyModel,
    breakeven: f64,
    weight: f64,
}

impl Adaptive {
    fn new(model: &EnergyModel, breakeven: f64, weight: f64) -> Self {
        check_adaptive(breakeven, weight);
        Adaptive {
            model: *model,
            breakeven,
            weight,
        }
    }

    /// Adds the spectrum's idle intervals to `run`, observed in
    /// ascending-length order from the neutral prediction — bit for
    /// bit what [`intervals_run`] adds over
    /// [`IntervalSpectrum::to_lengths`], in O(distinct lengths × settle
    /// steps) instead of O(intervals).
    ///
    /// Within one `(t, count)` entry every occurrence applies the same
    /// map `f(e) = fl(fl((1 - w) e) + fl(w t))`, which is monotone
    /// non-decreasing (`1 - w >= 0` and rounding is monotone), so the
    /// prediction moves monotonically: the sleep decision
    /// `e > breakeven` flips at most once, and once `f(e) == e` nothing
    /// moves again. Walking the prediction alone to the flip and to the
    /// fixed point (or to `count`) splits the entry into at most two
    /// runs of one interval shape each, which [`PolicyRun::add_n`]
    /// adds exactly.
    fn price(&self, run: &mut PolicyRun, entries: &[(u64, u64)]) {
        let hedge = adaptive_hedge_timeout(self.breakeven);
        let keep = 1.0 - self.weight;
        let mut ewma = self.breakeven; // neutral start, as the controller
        for &(t, count) in entries {
            let pull = self.weight * t as f64;
            let sleeps = ewma > self.breakeven;
            // Occurrences `0..flip` decide as the first one does, the
            // rest the other way.
            let mut flip = count;
            let mut seen = 0;
            while seen < count {
                let next = keep * ewma + pull;
                if next == ewma {
                    break;
                }
                ewma = next;
                seen += 1;
                if flip == count && (ewma > self.breakeven) != sleeps {
                    flip = seen;
                }
            }
            let shape =
                |sleep: bool| timeout_shape(&self.model, t, if sleep { 0 } else { t.min(hedge) });
            run.add_n(shape(sleeps), flip);
            run.add_n(shape(!sleeps), count - flip);
        }
    }
}

/// Closed-form energy breakdown of a **single** idle interval of `t`
/// cycles under `policy`, driven by a *fresh* controller (AdaptiveSleep
/// starts at its neutral prediction). Exact against
/// [`crate::accounting::simulate_cycles`]; active cycles are excluded
/// (the interval is idle throughout).
///
/// # Panics
///
/// Panics if `policy` carries invalid parameters (`slices == 0`, a
/// non-finite breakeven).
pub fn interval_run(model: &EnergyModel, policy: PolicyForm, t: u64) -> PolicyRun {
    let t_f = t as f64;
    match policy {
        PolicyForm::AlwaysActive => PolicyRun {
            energy: model.uncontrolled_idle_cycle() * t_f,
            uncontrolled_idle_equiv: t_f,
            ..PolicyRun::default()
        },
        PolicyForm::MaxSleep => timeout_shape(model, t, 0),
        PolicyForm::NoOverhead => {
            // As MaxSleep, minus the transition bill: the controller
            // still flips asleep but `bill_transitions` is false, so
            // neither the energy nor the transition count accrues.
            PolicyRun {
                energy: model.sleep_cycle() * t_f,
                sleep_equiv: t_f,
                ..PolicyRun::default()
            }
        }
        PolicyForm::GradualSleep { slices } => {
            assert!(slices > 0, "GradualSleep requires at least one slice");
            let n = f64::from(slices);
            // Slice i (1-based, i <= t) idles i-1 cycles, transitions,
            // then sleeps t-i+1 cycles; slices beyond t idle all t.
            // With r = min(t, slices) slices reached, the slept
            // cycle-equivalents are (Σ_{i=1..r} t-i+1)/n and the
            // transition equivalents r/n.
            let r = t.min(u64::from(slices));
            let slept_cycles = r * t - r * (r - 1) / 2; // exact in u64
            let slept = slept_cycles as f64 / n;
            let reached = r as f64 / n;
            PolicyRun {
                energy: model.uncontrolled_idle_cycle() * (t_f - slept)
                    + model.transition() * reached
                    + model.sleep_cycle() * slept,
                uncontrolled_idle_equiv: t_f - slept,
                sleep_equiv: slept,
                transitions_equiv: reached,
                ..PolicyRun::default()
            }
        }
        PolicyForm::TimeoutSleep { timeout } => timeout_shape(model, t, t.min(timeout)),
        PolicyForm::AdaptiveSleep { breakeven, weight } => {
            check_adaptive(breakeven, weight);
            // A fresh controller predicts exactly the breakeven, so
            // `ewma > breakeven` is false: hedge mode.
            timeout_shape(model, t, t.min(adaptive_hedge_timeout(breakeven)))
        }
    }
}

/// Closed-form evaluation of an idle-interval **list** in occurrence
/// order, plus `active_cycles` active cycles — the per-interval
/// generalization of [`crate::accounting::account_intervals`] to every
/// policy family. O(1) per interval: AdaptiveSleep's predictor is the
/// only cross-interval state, folded in closed form.
pub fn intervals_run(
    model: &EnergyModel,
    policy: PolicyForm,
    active_cycles: u64,
    idle_intervals: &[u64],
) -> PolicyRun {
    let mut run = PolicyRun {
        energy: model.active_cycle() * active_cycles as f64,
        active_cycles,
        ..PolicyRun::default()
    };
    if let PolicyForm::AdaptiveSleep { breakeven, weight } = policy {
        check_adaptive(breakeven, weight);
        let hedge = adaptive_hedge_timeout(breakeven);
        let mut ewma = breakeven; // neutral start, as the controller
        for &t in idle_intervals {
            let u = if ewma > breakeven { 0 } else { t.min(hedge) };
            run += timeout_shape(model, t, u);
            if t > 0 {
                ewma = (1.0 - weight) * ewma + weight * t as f64;
            }
        }
    } else {
        for &t in idle_intervals {
            run += interval_run(model, policy, t);
        }
    }
    run
}

/// Closed-form evaluation of an [`IntervalSpectrum`]: the workload's
/// policy energy as a dot product between the spectrum and the
/// per-length closed form, in O(distinct lengths) for every
/// order-free policy. History-dependent AdaptiveSleep observes the
/// spectrum in its canonical ascending-length order, bit-exact to its
/// per-occurrence oracle [`intervals_run`] over
/// [`IntervalSpectrum::to_lengths`], at O(distinct lengths × settle
/// steps): a monotone predictor walk plus exact k-fold adds per length
/// (DESIGN.md §7).
///
/// Agrees with [`crate::accounting::account_intervals`] and with the
/// cycle-level controllers for every policy
/// (`crates/core/tests/spectrum_props.rs`).
pub fn spectrum_run(
    model: &EnergyModel,
    policy: PolicyForm,
    active_cycles: u64,
    spectrum: &IntervalSpectrum,
) -> PolicyRun {
    let mut run = PolicyRun {
        energy: model.active_cycle() * active_cycles as f64,
        active_cycles,
        ..PolicyRun::default()
    };
    if let PolicyForm::AdaptiveSleep { breakeven, weight } = policy {
        Adaptive::new(model, breakeven, weight).price(&mut run, spectrum.entries());
    } else {
        for &(t, count) in spectrum.entries() {
            run += scaled(interval_run(model, policy, t), count as f64);
        }
    }
    run
}

// ---------------------------------------------------------------------------
// Grid-batched evaluation: G policy forms per spectrum traversal.
// ---------------------------------------------------------------------------

/// Largest interval length for which the GradualSleep saturated-regime
/// rewrite is exact: `t as f64` and `t - (slices-1)/2` must both be
/// exactly representable.
const GS_FAST_T_MAX: u64 = 1 << 52;

/// One shared set of per-lane accumulators, one scalar per
/// [`PolicyRun`] field that the idle closed forms touch (`dynamic` and
/// `active_cycles` never move off their base values, so they are
/// carried by the fold instead). Struct-of-arrays so the per-entry
/// lane passes read and write contiguous memory.
#[derive(Debug, Default)]
struct LaneAcc {
    lh: Vec<f64>,
    ll: Vec<f64>,
    trn: Vec<f64>,
    ovh: Vec<f64>,
    uie: Vec<f64>,
    slp: Vec<f64>,
    teq: Vec<f64>,
}

impl LaneAcc {
    /// Grows or shrinks every row to `lanes` entries (values are
    /// irrelevant — `reset` seeds them before each traversal).
    fn resize(&mut self, lanes: usize) {
        self.lh.resize(lanes, 0.0);
        self.ll.resize(lanes, 0.0);
        self.trn.resize(lanes, 0.0);
        self.ovh.resize(lanes, 0.0);
        self.uie.resize(lanes, 0.0);
        self.slp.resize(lanes, 0.0);
        self.teq.resize(lanes, 0.0);
    }

    /// Seeds every lane with its item's base energy (the active-cycle
    /// term every policy shares) and zeroes the equivalents — the
    /// exact starting state of the scalar evaluator's accumulator.
    /// Per lane the seed is `active_field * cycles`, the same single
    /// multiply `spectrum_run` opens with, so a batch of lanes from
    /// different models starts bit-exactly per lane.
    fn reset(
        &mut self,
        act_lh: &[f64],
        act_ll: &[f64],
        act_trn: &[f64],
        act_ovh: &[f64],
        cycles_f: f64,
    ) {
        for (dst, &a) in self.lh.iter_mut().zip(act_lh) {
            *dst = a * cycles_f;
        }
        for (dst, &a) in self.ll.iter_mut().zip(act_ll) {
            *dst = a * cycles_f;
        }
        for (dst, &a) in self.trn.iter_mut().zip(act_trn) {
            *dst = a * cycles_f;
        }
        for (dst, &a) in self.ovh.iter_mut().zip(act_ovh) {
            *dst = a * cycles_f;
        }
        self.uie.fill(0.0);
        self.slp.fill(0.0);
        self.teq.fill(0.0);
    }

    /// Reads lane `i` back out as a [`PolicyRun`].
    fn fold(&self, i: usize, dynamic: f64, active_cycles: u64) -> PolicyRun {
        PolicyRun {
            energy: NormalizedEnergy {
                dynamic,
                leak_hi: self.lh[i],
                leak_lo: self.ll[i],
                transition: self.trn[i],
                overhead: self.ovh[i],
            },
            active_cycles,
            uncontrolled_idle_equiv: self.uie[i],
            sleep_equiv: self.slp[i],
            transitions_equiv: self.teq[i],
        }
    }
}

/// Splits one accumulator row into its family / GradualSleep /
/// TimeoutSleep windows, so the hot lane passes run over slices whose
/// lengths the optimizer knows — no bounds checks, and the branchless
/// loops vectorize.
fn rows3(row: &mut [f64], n_fam: usize, n_gs: usize) -> (&mut [f64], &mut [f64], &mut [f64]) {
    let (fam, rest) = row.split_at_mut(n_fam);
    let (gs, ts) = rest.split_at_mut(n_gs);
    (fam, gs, ts)
}

// The lane passes live in out-of-line helpers on purpose: their
// `&mut [f64]` parameters carry `noalias`, which the accumulator rows
// lose once they are locals threaded through the traversal loop (ten
// live heap pointers exceed the vectorizer's runtime alias-check
// budget, and the passes compile to scalar code). As function
// parameters the disjointness is a given, every lane loop below is
// branchless over equal-length windows, and the compiler turns them
// into packed SIMD; `inline(never)` keeps it that way. Each helper
// takes a *segment* of consecutive spectrum entries over which the
// saturated/sleeping partitions are constant, so the call overhead
// amortizes across the segment. Per accumulator cell the `+=`s still
// land in ascending-entry order — grouping entries by pass does not
// move a single add, so the sums are bit-identical to the entrywise
// schedule.

/// The parameterless families — AlwaysActive, MaxSleep, NoOverhead —
/// over the whole spectrum: one lane per batch item per family
/// (layout `[AA items | MS items | NO items]`), with per-lane model
/// constants, so a multi-model batch prices all of them in three
/// vector loops per entry. Per lane the adds are exactly the scalar
/// evaluator's per-interval values times the entry count, in the same
/// ascending order.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn fam_pass(
    lh: &mut [f64],
    ll: &mut [f64],
    trn: &mut [f64],
    ovh: &mut [f64],
    uie: &mut [f64],
    slp: &mut [f64],
    teq: &mut [f64],
    ui_lh: &[f64],
    ui_ll: &[f64],
    sl_ll: &[f64],
    tr_t: &[f64],
    tr_o: &[f64],
    entries: &[(u64, u64)],
) {
    let m = ui_lh.len();
    let (ui_ll, sl_ll) = (&ui_ll[..m], &sl_ll[..m]);
    let (tr_t, tr_o) = (&tr_t[..m], &tr_o[..m]);
    // Per-row window splits; only the rows a family's closed form
    // touches are bound (the rest stay at their reset seeds).
    let (lh_a, _) = lh.split_at_mut(m);
    let (ll_a, rest) = ll.split_at_mut(m);
    let (ll_m, ll_n) = rest.split_at_mut(m);
    let ll_n = &mut ll_n[..m];
    let (_, rest) = trn.split_at_mut(m);
    let (trn_m, _) = rest.split_at_mut(m);
    let (_, rest) = ovh.split_at_mut(m);
    let (ovh_m, _) = rest.split_at_mut(m);
    let (uie_a, _) = uie.split_at_mut(m);
    let (_, rest) = slp.split_at_mut(m);
    let (slp_m, slp_n) = rest.split_at_mut(m);
    let slp_n = &mut slp_n[..m];
    let (_, rest) = teq.split_at_mut(m);
    let (teq_m, _) = rest.split_at_mut(m);
    // Entries process in pairs (constants and accumulator cells loaded
    // once per pair, the two deltas added as sequential left-associated
    // adds — bit-identical to the entrywise schedule), with a single
    // tail entry when the spectrum has an odd count.
    let mut pairs = entries.chunks_exact(2);
    for pair in &mut pairs {
        let (ta, ca) = pair[0];
        let (tb, cb) = pair[1];
        let (ta_f, ca_f) = (ta as f64, ca as f64);
        let (tb_f, cb_f) = (tb as f64, cb as f64);
        let d_uie_a = ta_f * ca_f;
        let d_uie_b = tb_f * cb_f;
        // AlwaysActive: the whole interval idles uncontrolled.
        for j in 0..m {
            lh_a[j] = lh_a[j] + (ui_lh[j] * ta_f) * ca_f + (ui_lh[j] * tb_f) * cb_f;
            ll_a[j] = ll_a[j] + (ui_ll[j] * ta_f) * ca_f + (ui_ll[j] * tb_f) * cb_f;
            uie_a[j] = uie_a[j] + d_uie_a + d_uie_b;
        }
        // MaxSleep: transition at once, sleep throughout.
        for j in 0..m {
            ll_m[j] = ll_m[j] + (sl_ll[j] * ta_f) * ca_f + (sl_ll[j] * tb_f) * cb_f;
            trn_m[j] = trn_m[j] + tr_t[j] * ca_f + tr_t[j] * cb_f;
            ovh_m[j] = ovh_m[j] + tr_o[j] * ca_f + tr_o[j] * cb_f;
            slp_m[j] = slp_m[j] + d_uie_a + d_uie_b;
            teq_m[j] = teq_m[j] + ca_f + cb_f;
        }
        // NoOverhead: MaxSleep minus the transition bill.
        for j in 0..m {
            ll_n[j] = ll_n[j] + (sl_ll[j] * ta_f) * ca_f + (sl_ll[j] * tb_f) * cb_f;
            slp_n[j] = slp_n[j] + d_uie_a + d_uie_b;
        }
    }
    if let &[(t, count)] = pairs.remainder() {
        let t_f = t as f64;
        let c_f = count as f64;
        let d_uie = t_f * c_f;
        for j in 0..m {
            lh_a[j] += (ui_lh[j] * t_f) * c_f;
            ll_a[j] += (ui_ll[j] * t_f) * c_f;
            uie_a[j] += d_uie;
        }
        for j in 0..m {
            ll_m[j] += (sl_ll[j] * t_f) * c_f;
            trn_m[j] += tr_t[j] * c_f;
            ovh_m[j] += tr_o[j] * c_f;
            slp_m[j] += d_uie;
            teq_m[j] += c_f;
        }
        for j in 0..m {
            ll_n[j] += (sl_ll[j] * t_f) * c_f;
            slp_n[j] += d_uie;
        }
    }
}

/// All GradualSleep lanes over a run of spectrum entries whose
/// saturated prefix stays inside its exactness thresholds (the caller
/// splits the spectrum at the single fast/slow crossover). The rolling
/// partition `ka` — lanes `0..ka` saturated (`slices <= t`), lanes
/// `ka..` ramping — advances inside the entry loop, so the whole fast
/// region is one call. Saturated lanes take the division-free rewrite
/// with precomputed coefficients; ramping lanes take the literal
/// scalar formulas, the two per-lane quotients served from the
/// precomputed ramp tables when the row exists (identical
/// expressions, so identical bits) and divided inline otherwise. The
/// model constants are per-lane arrays — lanes of one batch can come
/// from different energy models — and a per-lane constant load leaves
/// every expression tree unchanged, so the sums stay bit-identical to
/// the scalar evaluator's.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn gs_pass(
    lh: &mut [f64],
    ll: &mut [f64],
    trn: &mut [f64],
    ovh: &mut [f64],
    uie: &mut [f64],
    slp: &mut [f64],
    teq: &mut [f64],
    slices: &[u64],
    half: &[f64],
    pa_lh: &[f64],
    pa_ll: &[f64],
    n_arr: &[f64],
    ui_lh: &[f64],
    ui_ll: &[f64],
    sl_ll: &[f64],
    tr_t: &[f64],
    tr_o: &[f64],
    ramp_slept: &[f64],
    ramp_reached: &[f64],
    ramp_rows: usize,
    entries: &[(u64, u64)],
) {
    let n = slices.len();
    let (lh, ll, trn, ovh) = (&mut lh[..n], &mut ll[..n], &mut trn[..n], &mut ovh[..n]);
    let (uie, slp, teq) = (&mut uie[..n], &mut slp[..n], &mut teq[..n]);
    let (ui_lh, ui_ll, sl_ll) = (&ui_lh[..n], &ui_ll[..n], &sl_ll[..n]);
    let (tr_t, tr_o) = (&tr_t[..n], &tr_o[..n]);
    let mut ka = 0;
    let mut i = 0;
    while i < entries.len() {
        let t0 = entries[i].0;
        while ka < n && slices[ka] <= t0 {
            ka += 1;
        }
        // Extend a run of entries over which the saturated/ramping
        // partition stays put (lengths ascend, so `ka` holds until the
        // next lane's slice count) and the ramping quotients come from
        // one source (table rows vs inline divides — the prefix with a
        // table row is contiguous). Within a run, entries process in
        // PAIRS: accumulator cells and per-lane constants are loaded
        // once per pair and the two per-entry deltas land as sequential
        // left-associated adds — the identical f64 operations, in the
        // identical per-cell order, as the entrywise schedule, at half
        // the memory traffic.
        let next_slices = if ka < n { slices[ka] } else { u64::MAX };
        let tabled = (t0 as usize) < ramp_rows;
        let mut end = i + 1;
        while end < entries.len() {
            let t = entries[end].0;
            if t >= next_slices || ((t as usize) < ramp_rows) != tabled {
                break;
            }
            end += 1;
        }
        // One split per run at the partition: the exact-length slices
        // are what lets the optimizer drop the bounds checks and keep
        // both halves vectorized.
        let (lh_s, lh_r) = lh.split_at_mut(ka);
        let (ll_s, ll_r) = ll.split_at_mut(ka);
        let (trn_s, trn_r) = trn.split_at_mut(ka);
        let (ovh_s, ovh_r) = ovh.split_at_mut(ka);
        let (uie_s, uie_r) = uie.split_at_mut(ka);
        let (slp_s, slp_r) = slp.split_at_mut(ka);
        let (teq_s, teq_r) = teq.split_at_mut(ka);
        let (half_s, pa_lh_s, pa_ll_s) = (&half[..ka], &pa_lh[..ka], &pa_ll[..ka]);
        let (sl_ll_s, sl_ll_r) = sl_ll.split_at(ka);
        let (tr_t_s, tr_t_r) = tr_t.split_at(ka);
        let (tr_o_s, tr_o_r) = tr_o.split_at(ka);
        let (ui_lh_r, ui_ll_r) = (&ui_lh[ka..], &ui_ll[ka..]);
        let m = n - ka;
        if ka == n {
            // Every lane saturated (the length is past the largest
            // slice count) — the dominant regime for long-tailed
            // spectra, and the ramping halves of the pair bodies below
            // would be dead. Process QUADS of entries instead: the same
            // per-cell add sequence, a quarter of the memory traffic.
            let mut quads = entries[i..end].chunks_exact(4);
            for quad in &mut quads {
                let (t0, c0) = quad[0];
                let (t1, c1) = quad[1];
                let (t2, c2) = quad[2];
                let (t3, c3) = quad[3];
                let (t0_f, c0_f) = (t0 as f64, c0 as f64);
                let (t1_f, c1_f) = (t1 as f64, c1 as f64);
                let (t2_f, c2_f) = (t2 as f64, c2 as f64);
                let (t3_f, c3_f) = (t3 as f64, c3 as f64);
                for j in 0..n {
                    let s0 = t0_f - half_s[j];
                    let s1 = t1_f - half_s[j];
                    let s2 = t2_f - half_s[j];
                    let s3 = t3_f - half_s[j];
                    lh_s[j] = lh_s[j]
                        + pa_lh_s[j] * c0_f
                        + pa_lh_s[j] * c1_f
                        + pa_lh_s[j] * c2_f
                        + pa_lh_s[j] * c3_f;
                    ll_s[j] = ll_s[j]
                        + (pa_ll_s[j] + sl_ll_s[j] * s0) * c0_f
                        + (pa_ll_s[j] + sl_ll_s[j] * s1) * c1_f
                        + (pa_ll_s[j] + sl_ll_s[j] * s2) * c2_f
                        + (pa_ll_s[j] + sl_ll_s[j] * s3) * c3_f;
                    trn_s[j] = trn_s[j]
                        + tr_t_s[j] * c0_f
                        + tr_t_s[j] * c1_f
                        + tr_t_s[j] * c2_f
                        + tr_t_s[j] * c3_f;
                    ovh_s[j] = ovh_s[j]
                        + tr_o_s[j] * c0_f
                        + tr_o_s[j] * c1_f
                        + tr_o_s[j] * c2_f
                        + tr_o_s[j] * c3_f;
                    uie_s[j] = uie_s[j]
                        + half_s[j] * c0_f
                        + half_s[j] * c1_f
                        + half_s[j] * c2_f
                        + half_s[j] * c3_f;
                    slp_s[j] = slp_s[j] + s0 * c0_f + s1 * c1_f + s2 * c2_f + s3 * c3_f;
                    teq_s[j] = teq_s[j] + c0_f + c1_f + c2_f + c3_f;
                }
            }
            for &(t, count) in quads.remainder() {
                let t_f = t as f64;
                let c_f = count as f64;
                for j in 0..n {
                    let slept = t_f - half_s[j];
                    lh_s[j] += pa_lh_s[j] * c_f;
                    ll_s[j] += (pa_ll_s[j] + sl_ll_s[j] * slept) * c_f;
                    trn_s[j] += tr_t_s[j] * c_f;
                    ovh_s[j] += tr_o_s[j] * c_f;
                    uie_s[j] += half_s[j] * c_f;
                    slp_s[j] += slept * c_f;
                    teq_s[j] += c_f;
                }
            }
            i = end;
            continue;
        }
        if tabled {
            // Mixed run with ramp-table rows: quads again — the
            // saturated prefix amortizes four entries per pass, and
            // the ramping suffix reads four table rows per pass.
            let mut quads = entries[i..end].chunks_exact(4);
            for quad in &mut quads {
                let (t0, c0) = quad[0];
                let (t1, c1) = quad[1];
                let (t2, c2) = quad[2];
                let (t3, c3) = quad[3];
                let (t0_f, c0_f) = (t0 as f64, c0 as f64);
                let (t1_f, c1_f) = (t1 as f64, c1 as f64);
                let (t2_f, c2_f) = (t2 as f64, c2 as f64);
                let (t3_f, c3_f) = (t3 as f64, c3 as f64);
                for j in 0..ka {
                    let s0 = t0_f - half_s[j];
                    let s1 = t1_f - half_s[j];
                    let s2 = t2_f - half_s[j];
                    let s3 = t3_f - half_s[j];
                    lh_s[j] = lh_s[j]
                        + pa_lh_s[j] * c0_f
                        + pa_lh_s[j] * c1_f
                        + pa_lh_s[j] * c2_f
                        + pa_lh_s[j] * c3_f;
                    ll_s[j] = ll_s[j]
                        + (pa_ll_s[j] + sl_ll_s[j] * s0) * c0_f
                        + (pa_ll_s[j] + sl_ll_s[j] * s1) * c1_f
                        + (pa_ll_s[j] + sl_ll_s[j] * s2) * c2_f
                        + (pa_ll_s[j] + sl_ll_s[j] * s3) * c3_f;
                    trn_s[j] = trn_s[j]
                        + tr_t_s[j] * c0_f
                        + tr_t_s[j] * c1_f
                        + tr_t_s[j] * c2_f
                        + tr_t_s[j] * c3_f;
                    ovh_s[j] = ovh_s[j]
                        + tr_o_s[j] * c0_f
                        + tr_o_s[j] * c1_f
                        + tr_o_s[j] * c2_f
                        + tr_o_s[j] * c3_f;
                    uie_s[j] = uie_s[j]
                        + half_s[j] * c0_f
                        + half_s[j] * c1_f
                        + half_s[j] * c2_f
                        + half_s[j] * c3_f;
                    slp_s[j] = slp_s[j] + s0 * c0_f + s1 * c1_f + s2 * c2_f + s3 * c3_f;
                    teq_s[j] = teq_s[j] + c0_f + c1_f + c2_f + c3_f;
                }
                let row0 = t0 as usize * n;
                let row1 = t1 as usize * n;
                let row2 = t2 as usize * n;
                let row3 = t3 as usize * n;
                let st0 = &ramp_slept[row0 + ka..row0 + n];
                let rt0 = &ramp_reached[row0 + ka..row0 + n];
                let st1 = &ramp_slept[row1 + ka..row1 + n];
                let rt1 = &ramp_reached[row1 + ka..row1 + n];
                let st2 = &ramp_slept[row2 + ka..row2 + n];
                let rt2 = &ramp_reached[row2 + ka..row2 + n];
                let st3 = &ramp_slept[row3 + ka..row3 + n];
                let rt3 = &ramp_reached[row3 + ka..row3 + n];
                for j in 0..m {
                    let (sl0, rc0) = (st0[j], rt0[j]);
                    let (sl1, rc1) = (st1[j], rt1[j]);
                    let (sl2, rc2) = (st2[j], rt2[j]);
                    let (sl3, rc3) = (st3[j], rt3[j]);
                    let x0 = t0_f - sl0;
                    let x1 = t1_f - sl1;
                    let x2 = t2_f - sl2;
                    let x3 = t3_f - sl3;
                    lh_r[j] = lh_r[j]
                        + (ui_lh_r[j] * x0) * c0_f
                        + (ui_lh_r[j] * x1) * c1_f
                        + (ui_lh_r[j] * x2) * c2_f
                        + (ui_lh_r[j] * x3) * c3_f;
                    ll_r[j] = ll_r[j]
                        + (ui_ll_r[j] * x0 + sl_ll_r[j] * sl0) * c0_f
                        + (ui_ll_r[j] * x1 + sl_ll_r[j] * sl1) * c1_f
                        + (ui_ll_r[j] * x2 + sl_ll_r[j] * sl2) * c2_f
                        + (ui_ll_r[j] * x3 + sl_ll_r[j] * sl3) * c3_f;
                    trn_r[j] = trn_r[j]
                        + (tr_t_r[j] * rc0) * c0_f
                        + (tr_t_r[j] * rc1) * c1_f
                        + (tr_t_r[j] * rc2) * c2_f
                        + (tr_t_r[j] * rc3) * c3_f;
                    ovh_r[j] = ovh_r[j]
                        + (tr_o_r[j] * rc0) * c0_f
                        + (tr_o_r[j] * rc1) * c1_f
                        + (tr_o_r[j] * rc2) * c2_f
                        + (tr_o_r[j] * rc3) * c3_f;
                    uie_r[j] = uie_r[j] + x0 * c0_f + x1 * c1_f + x2 * c2_f + x3 * c3_f;
                    slp_r[j] = slp_r[j] + sl0 * c0_f + sl1 * c1_f + sl2 * c2_f + sl3 * c3_f;
                    teq_r[j] = teq_r[j] + rc0 * c0_f + rc1 * c1_f + rc2 * c2_f + rc3 * c3_f;
                }
            }
            for &(t, count) in quads.remainder() {
                let t_f = t as f64;
                let c_f = count as f64;
                for j in 0..ka {
                    let slept = t_f - half_s[j];
                    lh_s[j] += pa_lh_s[j] * c_f;
                    ll_s[j] += (pa_ll_s[j] + sl_ll_s[j] * slept) * c_f;
                    trn_s[j] += tr_t_s[j] * c_f;
                    ovh_s[j] += tr_o_s[j] * c_f;
                    uie_s[j] += half_s[j] * c_f;
                    slp_s[j] += slept * c_f;
                    teq_s[j] += c_f;
                }
                let row = t as usize * n;
                let slept_tab = &ramp_slept[row + ka..row + n];
                let reached_tab = &ramp_reached[row + ka..row + n];
                for j in 0..m {
                    let slept = slept_tab[j];
                    let reached = reached_tab[j];
                    let x = t_f - slept;
                    lh_r[j] += (ui_lh_r[j] * x) * c_f;
                    ll_r[j] += (ui_ll_r[j] * x + sl_ll_r[j] * slept) * c_f;
                    trn_r[j] += (tr_t_r[j] * reached) * c_f;
                    ovh_r[j] += (tr_o_r[j] * reached) * c_f;
                    uie_r[j] += x * c_f;
                    slp_r[j] += slept * c_f;
                    teq_r[j] += reached * c_f;
                }
            }
            i = end;
            continue;
        }
        // Past the ramp table (inline divides) — rare; pairs suffice.
        let mut pairs = entries[i..end].chunks_exact(2);
        for pair in &mut pairs {
            let (ta, ca) = pair[0];
            let (tb, cb) = pair[1];
            let (ta_f, ca_f) = (ta as f64, ca as f64);
            let (tb_f, cb_f) = (tb as f64, cb as f64);
            for j in 0..ka {
                let slept_a = ta_f - half_s[j];
                let slept_b = tb_f - half_s[j];
                lh_s[j] = lh_s[j] + pa_lh_s[j] * ca_f + pa_lh_s[j] * cb_f;
                ll_s[j] = ll_s[j]
                    + (pa_ll_s[j] + sl_ll_s[j] * slept_a) * ca_f
                    + (pa_ll_s[j] + sl_ll_s[j] * slept_b) * cb_f;
                trn_s[j] = trn_s[j] + tr_t_s[j] * ca_f + tr_t_s[j] * cb_f;
                ovh_s[j] = ovh_s[j] + tr_o_s[j] * ca_f + tr_o_s[j] * cb_f;
                uie_s[j] = uie_s[j] + half_s[j] * ca_f + half_s[j] * cb_f;
                slp_s[j] = slp_s[j] + slept_a * ca_f + slept_b * cb_f;
                teq_s[j] = teq_s[j] + ca_f + cb_f;
            }
            let n_lanes = &n_arr[ka..n];
            let slept_fa = (ta * ta - ta * (ta - 1) / 2) as f64;
            let slept_fb = (tb * tb - tb * (tb - 1) / 2) as f64;
            for j in 0..m {
                let slept_a = slept_fa / n_lanes[j];
                let reached_a = ta_f / n_lanes[j];
                let slept_b = slept_fb / n_lanes[j];
                let reached_b = tb_f / n_lanes[j];
                let x_a = ta_f - slept_a;
                let x_b = tb_f - slept_b;
                lh_r[j] = lh_r[j] + (ui_lh_r[j] * x_a) * ca_f + (ui_lh_r[j] * x_b) * cb_f;
                ll_r[j] = ll_r[j]
                    + (ui_ll_r[j] * x_a + sl_ll_r[j] * slept_a) * ca_f
                    + (ui_ll_r[j] * x_b + sl_ll_r[j] * slept_b) * cb_f;
                trn_r[j] =
                    trn_r[j] + (tr_t_r[j] * reached_a) * ca_f + (tr_t_r[j] * reached_b) * cb_f;
                ovh_r[j] =
                    ovh_r[j] + (tr_o_r[j] * reached_a) * ca_f + (tr_o_r[j] * reached_b) * cb_f;
                uie_r[j] = uie_r[j] + x_a * ca_f + x_b * cb_f;
                slp_r[j] = slp_r[j] + slept_a * ca_f + slept_b * cb_f;
                teq_r[j] = teq_r[j] + reached_a * ca_f + reached_b * cb_f;
            }
        }
        if let &[(t, count)] = pairs.remainder() {
            let t_f = t as f64;
            let c_f = count as f64;
            for j in 0..ka {
                let slept = t_f - half_s[j];
                lh_s[j] += pa_lh_s[j] * c_f;
                ll_s[j] += (pa_ll_s[j] + sl_ll_s[j] * slept) * c_f;
                trn_s[j] += tr_t_s[j] * c_f;
                ovh_s[j] += tr_o_s[j] * c_f;
                uie_s[j] += half_s[j] * c_f;
                slp_s[j] += slept * c_f;
                teq_s[j] += c_f;
            }
            let n_lanes = &n_arr[ka..n];
            let slept_f = (t * t - t * (t - 1) / 2) as f64;
            for j in 0..m {
                let slept = slept_f / n_lanes[j];
                let reached = t_f / n_lanes[j];
                let x = t_f - slept;
                lh_r[j] += (ui_lh_r[j] * x) * c_f;
                ll_r[j] += (ui_ll_r[j] * x + sl_ll_r[j] * slept) * c_f;
                trn_r[j] += (tr_t_r[j] * reached) * c_f;
                ovh_r[j] += (tr_o_r[j] * reached) * c_f;
                uie_r[j] += x * c_f;
                slp_r[j] += slept * c_f;
                teq_r[j] += reached * c_f;
            }
        }
        i = end;
    }
}

/// All TimeoutSleep lanes over the whole spectrum in one call; the
/// rolling partition `kt` advances inside the entry loop. Lanes
/// `0..kt` are sleeping (`timeout < t`): idle the timeout,
/// transition, sleep the rest, division-free with hoisted
/// `ui * timeout` coefficients. Lanes `kt..` are waiting
/// (`timeout >= t`): the timeout never fires, so the interval is
/// AlwaysActive-shaped.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn ts_pass(
    lh: &mut [f64],
    ll: &mut [f64],
    trn: &mut [f64],
    ovh: &mut [f64],
    uie: &mut [f64],
    slp: &mut [f64],
    teq: &mut [f64],
    timeout: &[u64],
    u_f: &[f64],
    pa_lh: &[f64],
    pa_ll: &[f64],
    ui_lh: &[f64],
    ui_ll: &[f64],
    sl_ll: &[f64],
    tr_t: &[f64],
    tr_o: &[f64],
    entries: &[(u64, u64)],
) {
    let n = timeout.len();
    let (lh, ll, trn, ovh) = (&mut lh[..n], &mut ll[..n], &mut trn[..n], &mut ovh[..n]);
    let (uie, slp, teq) = (&mut uie[..n], &mut slp[..n], &mut teq[..n]);
    let (ui_lh, ui_ll, sl_ll) = (&ui_lh[..n], &ui_ll[..n], &sl_ll[..n]);
    let (tr_t, tr_o) = (&tr_t[..n], &tr_o[..n]);
    let mut kt = 0;
    for &(t, count) in entries {
        let t_f = t as f64;
        let c_f = count as f64;
        while kt < n && timeout[kt] < t {
            kt += 1;
        }
        // Re-split at the loop-carried partition for bounds-check
        // elision, as in `gs_pass`.
        let (lh_s, lh_w) = lh.split_at_mut(kt);
        let (ll_s, ll_w) = ll.split_at_mut(kt);
        let (uie_s, uie_w) = uie.split_at_mut(kt);
        let (trn_s, _) = trn.split_at_mut(kt);
        let (ovh_s, _) = ovh.split_at_mut(kt);
        let (slp_s, _) = slp.split_at_mut(kt);
        let (teq_s, _) = teq.split_at_mut(kt);
        let (timeout_s, u_f_s) = (&timeout[..kt], &u_f[..kt]);
        let (pa_lh_s, pa_ll_s) = (&pa_lh[..kt], &pa_ll[..kt]);
        let (sl_ll_s, tr_t_s, tr_o_s) = (&sl_ll[..kt], &tr_t[..kt], &tr_o[..kt]);
        for j in 0..kt {
            let s_f = (t - timeout_s[j]) as f64;
            lh_s[j] += pa_lh_s[j] * c_f;
            ll_s[j] += (pa_ll_s[j] + sl_ll_s[j] * s_f) * c_f;
            trn_s[j] += tr_t_s[j] * c_f;
            ovh_s[j] += tr_o_s[j] * c_f;
            uie_s[j] += u_f_s[j] * c_f;
            slp_s[j] += s_f * c_f;
            teq_s[j] += c_f;
        }
        let m = n - kt;
        let (ui_lh_w, ui_ll_w) = (&ui_lh[kt..], &ui_ll[kt..]);
        let d_uie = t_f * c_f;
        for j in 0..m {
            lh_w[j] += (ui_lh_w[j] * t_f) * c_f;
            ll_w[j] += (ui_ll_w[j] * t_f) * c_f;
            uie_w[j] += d_uie;
        }
    }
}

/// A GradualSleep lane: the parameters plus every entry-independent
/// product its closed form needs, struct-of-arrays and sorted by
/// ascending `slices` so the ascending spectrum traversal splits the
/// lanes at a rolling partition point (saturated `slices <= t` prefix,
/// ramping suffix).
#[derive(Debug, Default)]
struct GsLanes {
    slot: Vec<usize>,
    /// Batch item each lane belongs to (its model and output range).
    item: Vec<usize>,
    slices: Vec<u64>,
    n: Vec<f64>,
    /// `(slices - 1) / 2`, exact in `f64` — the saturated regime's
    /// uncontrolled-idle equivalent per interval.
    half: Vec<f64>,
    /// `ui.leak_hi * half` (the saturated leak-hi coefficient).
    pa_lh: Vec<f64>,
    /// `ui.leak_lo * half` (the saturated leak-lo partial sum).
    pa_ll: Vec<f64>,
    /// Largest `t` for which the division-free saturated rewrite is
    /// bit-exact (`slices*t - K` convertible without rounding).
    fast_max: Vec<u64>,
    /// Per-lane model constants (lanes of one batch can come from
    /// different energy models): the uncontrolled-idle leak rates, the
    /// sleep leak rate, and the transition energy/overhead.
    ui_lh: Vec<f64>,
    ui_ll: Vec<f64>,
    sl_ll: Vec<f64>,
    tr_t: Vec<f64>,
    tr_o: Vec<f64>,
    /// Ramping-regime lookup tables, `ramp_rows x lanes` row-major:
    /// row `t` holds the per-lane `slept` / `reached` quotients for an
    /// interval of `t` cycles — precomputed with the *identical*
    /// division expressions the formula uses, so a table hit is the
    /// same bits with the division hoisted out of the traversal. The
    /// quotients depend only on the slice set (not the energy model),
    /// so [`GridEval::renew`] carries them across model changes.
    /// Cells in the saturated half (`slices <= t`) are never read.
    /// Empty when the slice set is too large to tabulate.
    ramp_slept: Vec<f64>,
    ramp_reached: Vec<f64>,
    ramp_rows: usize,
}

/// Ramp-table size cap: tables are only built when
/// `max_slices * lanes` stays within this many cells (per table).
/// Beyond it the ramping pass falls back to inline divisions.
const RAMP_TABLE_MAX_CELLS: usize = 1 << 20;

impl GsLanes {
    /// (Re)builds the ramping lookup tables for the current slice set.
    fn build_ramp_tables(&mut self) {
        let lanes = self.slices.len();
        self.ramp_slept.clear();
        self.ramp_reached.clear();
        self.ramp_rows = 0;
        let rows = match self.slices.last() {
            Some(&max_slices)
                if max_slices as u128 * lanes as u128 <= RAMP_TABLE_MAX_CELLS as u128 =>
            {
                max_slices as usize
            }
            _ => return,
        };
        self.ramp_slept.resize(rows * lanes, 0.0);
        self.ramp_reached.resize(rows * lanes, 0.0);
        self.ramp_rows = rows;
        // Row 0 stays zero: spectra never carry zero-length intervals
        // (`r * (r - 1)` would already underflow in the formula).
        for t in 1..rows as u64 {
            let t_f = t as f64;
            let r = t;
            let slept_cycles = r * t - r * (r - 1) / 2;
            let slept_f = slept_cycles as f64;
            let row = t as usize * lanes;
            for j in 0..lanes {
                if self.slices[j] > t {
                    self.ramp_slept[row + j] = slept_f / self.n[j];
                    self.ramp_reached[row + j] = t_f / self.n[j];
                }
            }
        }
    }
}

/// A TimeoutSleep lane, sorted by ascending `timeout`: the ascending
/// traversal partitions lanes into a sleeping `timeout < t` prefix and
/// an AlwaysActive-shaped suffix.
#[derive(Debug, Default)]
struct TsLanes {
    slot: Vec<usize>,
    /// Batch item each lane belongs to.
    item: Vec<usize>,
    timeout: Vec<u64>,
    u_f: Vec<f64>,
    /// `ui.leak_hi * u_f`.
    pa_lh: Vec<f64>,
    /// `ui.leak_lo * u_f`.
    pa_ll: Vec<f64>,
    /// Per-lane model constants, as in [`GsLanes`].
    ui_lh: Vec<f64>,
    ui_ll: Vec<f64>,
    sl_ll: Vec<f64>,
    tr_t: Vec<f64>,
    tr_o: Vec<f64>,
}

/// Grid-batched spectrum evaluation: prices `G` policy forms per
/// spectrum traversal, bit-exact to [`spectrum_run`] called per form.
///
/// The evaluator uses a transposed traversal: the `(length, count)`
/// entry is decoded once, the per-entry deltas every lane of a family
/// shares (`t*c`, the AlwaysActive/MaxSleep/NoOverhead closed forms,
/// the transition terms) are computed once, and the per-form passes
/// under it are branchless straight-line code over struct-of-arrays
/// parameter lanes. Two structural tricks keep the hot passes
/// division-free without perturbing a single bit:
///
/// * family lanes are sorted by their parameter (`slices`, `timeout`),
///   so the ascending-length traversal splits each family at a rolling
///   partition point instead of re-testing `min(t, param)` per lane;
/// * a saturated GradualSleep lane (`slices <= t`) has
///   `slept = (s*t - s(s-1)/2)/s = t - (s-1)/2` and `reached = s/s
///   = 1.0`; whenever numerator and result are exactly representable
///   (checked against a per-lane threshold; interval lengths past
///   `2^52` take the literal scalar formula instead) the IEEE-754
///   quotients equal those closed forms bit-for-bit, so the division
///   disappears and `leak_hi`/`leak_lo` coefficients hoist out of the
///   traversal entirely.
///
/// AdaptiveSleep lanes are priced too, but being history-dependent
/// they do not join the fused pass: each lane runs the same helper as
/// [`spectrum_run`] — a walk of the monotone predictor per length plus
/// at most two exact k-fold adds, O(distinct lengths × settle steps).
///
/// The grid also batches across the *model* axis:
/// [`GridEval::new_batch`] takes a list of `(model, forms)` items to
/// price against the same spectra, and one traversal prices every
/// item's every form. The hoisted model scalars become per-lane
/// constant arrays — each lane still evaluates its exact scalar
/// expression tree, in the same ascending-entry order, so batch
/// results stay bit-identical to [`spectrum_run`] per `(model, form)`.
/// Design-space explorers stepping a technology axis batch the models
/// that share a benchmark's spectra and amortize the per-entry decode
/// and partition walks across all of them.
///
/// `new`/`new_batch` validate and allocate; [`GridEval::run`] is
/// allocation-free and reusable across spectra (reset-not-rebuild,
/// like the timing kernels).
#[derive(Debug)]
pub struct GridEval {
    /// Items in the batch; the single-model constructors make this 1.
    n_items: usize,
    // Per-item per-cycle model constants, indexed by item — the family
    // pass's lane-constant arrays.
    fam_ui_lh: Vec<f64>,
    fam_ui_ll: Vec<f64>,
    fam_sl_ll: Vec<f64>,
    fam_tr_t: Vec<f64>,
    fam_tr_o: Vec<f64>,
    /// Per-item active-cycle shape: the traversal's base seed and the
    /// fold's `dynamic`.
    item_act: Vec<NormalizedEnergy>,
    // The base seed expanded per lane in accumulator layout, so the
    // reset is one vector multiply per row.
    act_lh: Vec<f64>,
    act_ll: Vec<f64>,
    act_trn: Vec<f64>,
    act_ovh: Vec<f64>,
    /// Scratch: per-item `active.dynamic * cycles` for the fold.
    dyn_scratch: Vec<f64>,
    // Family slot lists, `(output index, item)`: AlwaysActive/
    // MaxSleep/NoOverhead lanes are parameterless, so duplicates
    // within an item share that item's lane.
    aa: Vec<(usize, usize)>,
    ms: Vec<(usize, usize)>,
    no: Vec<(usize, usize)>,
    gs: GsLanes,
    ts: TsLanes,
    /// AdaptiveSleep lanes, `(output index, form)`: history-dependent,
    /// so each is priced on its own by [`spectrum_run`]'s helper.
    ad: Vec<(usize, Adaptive)>,
    /// Shared accumulators: per-item AA lanes, then per-item MS lanes,
    /// then per-item NO lanes, then the GradualSleep lanes, then the
    /// TimeoutSleep lanes.
    acc: LaneAcc,
    out: Vec<PolicyRun>,
}

impl GridEval {
    /// Preferred number of models fused into one batch. Batching
    /// amortizes per-entry decode, the partition walk, and the
    /// traversal's fixed overhead across every item, but the win
    /// inverts once the per-lane working set (seven accumulator rows
    /// plus the per-lane constants and ramp rows) outgrows L1 — at the
    /// default 68-form grid, four items ≈ 15 KiB of accumulators.
    /// Measured on the default explore grid: 4 beats both 1
    /// (~20% faster) and 22 (~25% faster). Callers with many models to
    /// price should renew one kernel over `chunks(PREFERRED_BATCH)`.
    pub const PREFERRED_BATCH: usize = 4;

    /// Builds a grid over `forms` for `model`. Allocates everything
    /// [`GridEval::run`] needs; duplicate forms are fine (parameterless
    /// duplicates even share their lane).
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (`slices == 0`, a non-finite
    /// breakeven, a weight outside `(0, 1]`) with the same messages as
    /// the scalar evaluators, which defer the check to evaluation.
    pub fn new(model: &EnergyModel, forms: &[PolicyForm]) -> Self {
        Self::new_batch(&[(model, forms)])
    }

    /// Builds a grid over a *batch* of `(model, forms)` items that
    /// will be priced against the same spectra: one spectrum traversal
    /// prices every item's every form. [`GridEval::run`] returns the
    /// runs item-major — item 0's forms in their given order, then
    /// item 1's, and so on.
    ///
    /// # Panics
    ///
    /// As [`GridEval::new`], on invalid policy parameters; also panics
    /// on an empty batch.
    pub fn new_batch(items: &[(&EnergyModel, &[PolicyForm])]) -> Self {
        let mut grid = GridEval {
            n_items: 0,
            fam_ui_lh: Vec::new(),
            fam_ui_ll: Vec::new(),
            fam_sl_ll: Vec::new(),
            fam_tr_t: Vec::new(),
            fam_tr_o: Vec::new(),
            item_act: Vec::new(),
            act_lh: Vec::new(),
            act_ll: Vec::new(),
            act_trn: Vec::new(),
            act_ovh: Vec::new(),
            dyn_scratch: Vec::new(),
            aa: Vec::new(),
            ms: Vec::new(),
            no: Vec::new(),
            gs: GsLanes::default(),
            ts: TsLanes::default(),
            ad: Vec::new(),
            acc: LaneAcc::default(),
            out: Vec::new(),
        };
        grid.renew_batch(items);
        grid
    }

    /// Re-targets the grid at a new `(model, forms)` pair: equivalent
    /// to `*self = GridEval::new(model, forms)` but reusing the
    /// existing allocations — see [`GridEval::renew_batch`].
    ///
    /// # Panics
    ///
    /// As [`GridEval::new`], on invalid policy parameters.
    pub fn renew(&mut self, model: &EnergyModel, forms: &[PolicyForm]) {
        self.renew_batch(&[(model, forms)]);
    }

    /// Re-targets the grid at a new item batch, reusing the existing
    /// allocations — and, when the combined GradualSleep slice
    /// sequence is unchanged, the ramping lookup tables, which depend
    /// only on the slices. Design-space sweeps stepping a technology
    /// axis under a fixed policy grid pay the table divisions once,
    /// not per batch.
    ///
    /// # Panics
    ///
    /// As [`GridEval::new_batch`], on invalid policy parameters or an
    /// empty batch.
    pub fn renew_batch(&mut self, items: &[(&EnergyModel, &[PolicyForm])]) {
        assert!(!items.is_empty(), "renew_batch needs at least one item");
        self.n_items = items.len();
        self.fam_ui_lh.clear();
        self.fam_ui_ll.clear();
        self.fam_sl_ll.clear();
        self.fam_tr_t.clear();
        self.fam_tr_o.clear();
        self.item_act.clear();
        self.aa.clear();
        self.ms.clear();
        self.no.clear();
        self.ad.clear();
        let mut gs_params: Vec<(u64, usize, usize)> = Vec::new();
        let mut ts_params: Vec<(u64, usize, usize)> = Vec::new();
        let mut out_len = 0;
        for (item, &(model, forms)) in items.iter().enumerate() {
            let ui = model.uncontrolled_idle_cycle();
            let sl = model.sleep_cycle();
            let tr = model.transition();
            self.item_act.push(model.active_cycle());
            self.fam_ui_lh.push(ui.leak_hi);
            self.fam_ui_ll.push(ui.leak_lo);
            self.fam_sl_ll.push(sl.leak_lo);
            self.fam_tr_t.push(tr.transition);
            self.fam_tr_o.push(tr.overhead);
            for (slot, &form) in forms.iter().enumerate() {
                let out = out_len + slot;
                match form {
                    PolicyForm::AlwaysActive => self.aa.push((out, item)),
                    PolicyForm::MaxSleep => self.ms.push((out, item)),
                    PolicyForm::NoOverhead => self.no.push((out, item)),
                    PolicyForm::GradualSleep { slices } => {
                        assert!(slices > 0, "GradualSleep requires at least one slice");
                        gs_params.push((u64::from(slices), item, out));
                    }
                    PolicyForm::TimeoutSleep { timeout } => ts_params.push((timeout, item, out)),
                    PolicyForm::AdaptiveSleep { breakeven, weight } => {
                        self.ad.push((out, Adaptive::new(model, breakeven, weight)));
                    }
                }
            }
            out_len += forms.len();
        }
        gs_params.sort_unstable();
        let same_slices = self.gs.slices.len() == gs_params.len()
            && gs_params
                .iter()
                .zip(&self.gs.slices)
                .all(|(&(s, _, _), &old)| s == old);
        self.gs.slot.clear();
        self.gs.item.clear();
        self.gs.slices.clear();
        self.gs.n.clear();
        self.gs.half.clear();
        self.gs.pa_lh.clear();
        self.gs.pa_ll.clear();
        self.gs.fast_max.clear();
        self.gs.ui_lh.clear();
        self.gs.ui_ll.clear();
        self.gs.sl_ll.clear();
        self.gs.tr_t.clear();
        self.gs.tr_o.clear();
        for (s, item, slot) in gs_params {
            let k = s * (s - 1) / 2;
            // The saturated rewrite needs `s*t - k` exact as f64:
            // `s*t - k <= 2^53` ⇔ `t <= (2^53 + k) / s` (u128: the
            // sum can exceed u64 for extreme `slices`).
            let by_numerator = (((1u128 << 53) + u128::from(k)) / u128::from(s)) as u64;
            let half = (s - 1) as f64 / 2.0;
            let (ui_lh, ui_ll) = (self.fam_ui_lh[item], self.fam_ui_ll[item]);
            self.gs.slot.push(slot);
            self.gs.item.push(item);
            self.gs.slices.push(s);
            self.gs.n.push(s as f64);
            self.gs.half.push(half);
            self.gs.pa_lh.push(ui_lh * half);
            self.gs.pa_ll.push(ui_ll * half);
            self.gs.fast_max.push(by_numerator.min(GS_FAST_T_MAX));
            self.gs.ui_lh.push(ui_lh);
            self.gs.ui_ll.push(ui_ll);
            self.gs.sl_ll.push(self.fam_sl_ll[item]);
            self.gs.tr_t.push(self.fam_tr_t[item]);
            self.gs.tr_o.push(self.fam_tr_o[item]);
        }
        if !same_slices {
            self.gs.build_ramp_tables();
        }
        ts_params.sort_unstable();
        self.ts.slot.clear();
        self.ts.item.clear();
        self.ts.timeout.clear();
        self.ts.u_f.clear();
        self.ts.pa_lh.clear();
        self.ts.pa_ll.clear();
        self.ts.ui_lh.clear();
        self.ts.ui_ll.clear();
        self.ts.sl_ll.clear();
        self.ts.tr_t.clear();
        self.ts.tr_o.clear();
        for (timeout, item, slot) in ts_params {
            let u_f = timeout as f64;
            let (ui_lh, ui_ll) = (self.fam_ui_lh[item], self.fam_ui_ll[item]);
            self.ts.slot.push(slot);
            self.ts.item.push(item);
            self.ts.timeout.push(timeout);
            self.ts.u_f.push(u_f);
            self.ts.pa_lh.push(ui_lh * u_f);
            self.ts.pa_ll.push(ui_ll * u_f);
            self.ts.ui_lh.push(ui_lh);
            self.ts.ui_ll.push(ui_ll);
            self.ts.sl_ll.push(self.fam_sl_ll[item]);
            self.ts.tr_t.push(self.fam_tr_t[item]);
            self.ts.tr_o.push(self.fam_tr_o[item]);
        }
        // Base seeds in lane layout: AA items, MS items, NO items,
        // then the GS and TS lanes' items.
        self.act_lh.clear();
        self.act_ll.clear();
        self.act_trn.clear();
        self.act_ovh.clear();
        for _family in 0..3 {
            for act in &self.item_act {
                self.act_lh.push(act.leak_hi);
                self.act_ll.push(act.leak_lo);
                self.act_trn.push(act.transition);
                self.act_ovh.push(act.overhead);
            }
        }
        for &item in self.gs.item.iter().chain(&self.ts.item) {
            let act = &self.item_act[item];
            self.act_lh.push(act.leak_hi);
            self.act_ll.push(act.leak_lo);
            self.act_trn.push(act.transition);
            self.act_ovh.push(act.overhead);
        }
        self.dyn_scratch.resize(items.len(), 0.0);
        self.acc
            .resize(3 * items.len() + self.gs.slot.len() + self.ts.slot.len());
        self.out.resize(out_len, PolicyRun::default());
    }

    /// Number of policy forms in the grid, summed over batch items.
    pub fn grid_len(&self) -> usize {
        self.out.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Prices every form in the grid against one spectrum plus the
    /// accompanying active-cycle count, in one traversal (plus one
    /// pass per AdaptiveSleep lane). Returns the runs item-major in
    /// the order the forms were given to [`GridEval::new_batch`]
    /// (equivalently, form order for the single-model constructors);
    /// each is bit-exact to
    /// `spectrum_run(model, form, active_cycles, spectrum)` for its
    /// item's model.
    ///
    /// Allocation-free and reusable: call it again with the next
    /// spectrum.
    // Index-based lane loops keep the struct-of-arrays passes in
    // lockstep across seven accumulator rows; every loop runs over
    // explicit equal-length subslices, so the indexing is
    // bounds-check-free and the branchless bodies autovectorize.
    #[allow(clippy::needless_range_loop)]
    pub fn run(&mut self, active_cycles: u64, spectrum: &IntervalSpectrum) -> &[PolicyRun] {
        let cycles_f = active_cycles as f64;
        self.acc.reset(
            &self.act_lh,
            &self.act_ll,
            &self.act_trn,
            &self.act_ovh,
            cycles_f,
        );
        let n_fam = 3 * self.n_items;
        let n_gs = self.gs.slot.len();
        let n_ts = self.ts.slot.len();
        let gs0 = n_fam;
        let ts0 = n_fam + n_gs;
        let gs = &self.gs;
        let ts = &self.ts;
        // Each accumulator row split once into its family/GS/TS
        // windows: the lane passes below never cross a window, and the
        // disjoint `&mut` slices tell the optimizer so.
        let (f_lh, g_lh, t_lh) = rows3(&mut self.acc.lh, n_fam, n_gs);
        let (f_ll, g_ll, t_ll) = rows3(&mut self.acc.ll, n_fam, n_gs);
        let (f_trn, g_trn, t_trn) = rows3(&mut self.acc.trn, n_fam, n_gs);
        let (f_ovh, g_ovh, t_ovh) = rows3(&mut self.acc.ovh, n_fam, n_gs);
        let (f_uie, g_uie, t_uie) = rows3(&mut self.acc.uie, n_fam, n_gs);
        let (f_slp, g_slp, t_slp) = rows3(&mut self.acc.slp, n_fam, n_gs);
        let (f_teq, g_teq, t_teq) = rows3(&mut self.acc.teq, n_fam, n_gs);
        let entries = spectrum.entries();
        // Parameterless families first: one lane per item per family,
        // vectorized over the batch (the per-entry, per-lane deltas
        // are exactly the scalar evaluator's per-interval values times
        // the entry count, added in the same ascending order). A batch
        // with no such form (TimeoutSleep/AdaptiveSleep only) skips the
        // pass: no output slot reads those lanes.
        if !(self.aa.is_empty() && self.ms.is_empty() && self.no.is_empty()) {
            fam_pass(
                f_lh,
                f_ll,
                f_trn,
                f_ovh,
                f_uie,
                f_slp,
                f_teq,
                &self.fam_ui_lh,
                &self.fam_ui_ll,
                &self.fam_sl_ll,
                &self.fam_tr_t,
                &self.fam_tr_o,
                entries,
            );
        }
        // Parameterized families next. The rolling partition points
        // into the sorted lane arrays — the saturated GradualSleep
        // prefix and the sleeping TimeoutSleep prefix — only ever
        // grow as `t` ascends, so each pass walks its own partition
        // inside a single call over the spectrum. The one wrinkle is
        // GradualSleep exactness: the division-free saturated rewrite
        // holds only while `t` stays under every saturated lane's
        // `fast_max`, and since `t` ascends while the rolling minimum
        // of those thresholds descends, the spectrum splits at a
        // single crossover — everything before it goes through
        // `gs_pass`, the (astronomically rare) tail is priced per
        // entry with per-lane re-tests.
        if n_gs > 0 {
            let mut ka = 0;
            let mut min_fast = u64::MAX;
            let mut cross = entries.len();
            for (i, &(t, _)) in entries.iter().enumerate() {
                while ka < n_gs && gs.slices[ka] <= t {
                    min_fast = min_fast.min(gs.fast_max[ka]);
                    ka += 1;
                }
                if t > min_fast {
                    cross = i;
                    break;
                }
            }
            gs_pass(
                g_lh,
                g_ll,
                g_trn,
                g_ovh,
                g_uie,
                g_slp,
                g_teq,
                &gs.slices,
                &gs.half,
                &gs.pa_lh,
                &gs.pa_ll,
                &gs.n,
                &gs.ui_lh,
                &gs.ui_ll,
                &gs.sl_ll,
                &gs.tr_t,
                &gs.tr_o,
                &gs.ramp_slept,
                &gs.ramp_reached,
                gs.ramp_rows,
                &entries[..cross],
            );
            // Slow tail: some saturated lane is past its exactness
            // threshold (lengths beyond 2^52). Price each entry
            // alone, re-testing per lane and replaying the scalar
            // formula literally (identical ops, divisions and all)
            // where the rewrite would round differently.
            let mut ka = entries[..cross]
                .last()
                .map_or(0, |&(t, _)| gs.slices.partition_point(|&s| s <= t));
            for &(t, count) in &entries[cross..] {
                while ka < n_gs && gs.slices[ka] <= t {
                    ka += 1;
                }
                let t_f = t as f64;
                let c_f = count as f64;
                for j in 0..ka {
                    if t <= gs.fast_max[j] {
                        let slept = t_f - gs.half[j];
                        g_lh[j] += gs.pa_lh[j] * c_f;
                        g_ll[j] += (gs.pa_ll[j] + gs.sl_ll[j] * slept) * c_f;
                        g_trn[j] += gs.tr_t[j] * c_f;
                        g_ovh[j] += gs.tr_o[j] * c_f;
                        g_uie[j] += gs.half[j] * c_f;
                        g_slp[j] += slept * c_f;
                        g_teq[j] += c_f;
                    } else {
                        let r = gs.slices[j];
                        let slept_cycles = r * t - r * (r - 1) / 2;
                        let slept = slept_cycles as f64 / gs.n[j];
                        let reached = r as f64 / gs.n[j];
                        let x = t_f - slept;
                        g_lh[j] += (gs.ui_lh[j] * x) * c_f;
                        g_ll[j] += (gs.ui_ll[j] * x + gs.sl_ll[j] * slept) * c_f;
                        g_trn[j] += (gs.tr_t[j] * reached) * c_f;
                        g_ovh[j] += (gs.tr_o[j] * reached) * c_f;
                        g_uie[j] += x * c_f;
                        g_slp[j] += slept * c_f;
                        g_teq[j] += reached * c_f;
                    }
                }
                // Ramping suffix: the literal scalar formulas — this
                // branch is off every hot path, so no table or SIMD
                // treatment. (Guarded: at these lengths `t * t` would
                // overflow, but a ramping lane needs `slices > t`,
                // which keeps the product in range exactly when the
                // scalar evaluator's does.)
                if ka == n_gs {
                    continue;
                }
                let r = t;
                let slept_cycles = r * t - r * (r - 1) / 2;
                let slept_f = slept_cycles as f64;
                for j in ka..n_gs {
                    let slept = slept_f / gs.n[j];
                    let reached = t_f / gs.n[j];
                    let x = t_f - slept;
                    g_lh[j] += (gs.ui_lh[j] * x) * c_f;
                    g_ll[j] += (gs.ui_ll[j] * x + gs.sl_ll[j] * slept) * c_f;
                    g_trn[j] += (gs.tr_t[j] * reached) * c_f;
                    g_ovh[j] += (gs.tr_o[j] * reached) * c_f;
                    g_uie[j] += x * c_f;
                    g_slp[j] += slept * c_f;
                    g_teq[j] += reached * c_f;
                }
            }
        }
        // TimeoutSleep: sleeping prefix plus waiting suffix, one call
        // over the whole spectrum (no exactness split — the rewrite
        // is integer-exact at every `t`).
        if n_ts > 0 {
            ts_pass(
                t_lh,
                t_ll,
                t_trn,
                t_ovh,
                t_uie,
                t_slp,
                t_teq,
                &ts.timeout,
                &ts.u_f,
                &ts.pa_lh,
                &ts.pa_ll,
                &ts.ui_lh,
                &ts.ui_ll,
                &ts.sl_ll,
                &ts.tr_t,
                &ts.tr_o,
                entries,
            );
        }
        // Fold the virtual/SoA lanes back out into form order, each
        // lane against its item's `dynamic`.
        for (dynamic, act) in self.dyn_scratch.iter_mut().zip(&self.item_act) {
            *dynamic = act.dynamic * cycles_f;
        }
        let acc = &self.acc;
        let m = self.n_items;
        for &(slot, item) in &self.aa {
            self.out[slot] = acc.fold(item, self.dyn_scratch[item], active_cycles);
        }
        for &(slot, item) in &self.ms {
            self.out[slot] = acc.fold(m + item, self.dyn_scratch[item], active_cycles);
        }
        for &(slot, item) in &self.no {
            self.out[slot] = acc.fold(2 * m + item, self.dyn_scratch[item], active_cycles);
        }
        for j in 0..n_gs {
            self.out[self.gs.slot[j]] =
                acc.fold(gs0 + j, self.dyn_scratch[self.gs.item[j]], active_cycles);
        }
        for j in 0..n_ts {
            self.out[self.ts.slot[j]] =
                acc.fold(ts0 + j, self.dyn_scratch[self.ts.item[j]], active_cycles);
        }
        // AdaptiveSleep lanes: the scalar evaluator's helper, per lane
        // against its item's model.
        for &(slot, form) in &self.ad {
            let run = &mut self.out[slot];
            *run = PolicyRun {
                energy: form.model.active_cycle() * cycles_f,
                active_cycles,
                ..PolicyRun::default()
            };
            form.price(run, entries);
        }
        &self.out
    }
}

/// Assembles the run of technology item `(p_i, E_slp_j)` from two runs
/// of the **same** [`PolicyForm`] priced against the same spectra: one
/// at `p_i` and any sleep overhead (the leak row) and one at `E_slp_j`
/// and any leakage factor (the transition row), with `k`, `d` and `α`
/// equal in all three models. One run at `(p_i, E_slp_i)` can serve
/// as leak row `i` and transition row `i` at once.
///
/// Exact, not approximate: every evaluator above builds each field
/// from a seed and a chain of `+=`s that read only the model constants
/// in this table, so for a fixed form each field is a function of one
/// knob or of none, and the assembled run is bit-identical to pricing
/// `(p_i, E_slp_j)` directly.
///
/// | field | model constants read | depends on | taken from |
/// |---|---|---|---|
/// | `energy.leak_hi` | `active.leak_hi`, `ui.leak_hi` | `p` | leak row |
/// | `energy.leak_lo` | `active.leak_lo`, `ui.leak_lo`, `sl.leak_lo` | `p` | leak row |
/// | `energy.overhead` | `tr.overhead` | `E_slp` | transition row |
/// | `energy.dynamic` | `active.dynamic` (`α`) | neither | leak row |
/// | `energy.transition` | `tr.transition` (`1 - α`) | neither | leak row |
/// | `active_cycles`, `*_equiv` | none | neither | leak row |
///
/// The form's own parameters must not vary between the rows — a
/// TimeoutSleep timeout or AdaptiveSleep breakeven derived per model
/// does, so such forms are priced per item instead. This is lane
/// deduplication, not reassociation: no `f64` operation changes.
pub fn assemble_axis_run(leak_row: &PolicyRun, transition_row: &PolicyRun) -> PolicyRun {
    PolicyRun {
        energy: NormalizedEnergy {
            overhead: transition_row.energy.overhead,
            ..leak_row.energy
        },
        ..*leak_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::{account_intervals, simulate_intervals};
    use crate::breakeven::breakeven_interval;
    use crate::tech::TechnologyParams;

    fn model(p: f64, alpha: f64) -> EnergyModel {
        EnergyModel::new(TechnologyParams::with_leakage_factor(p).unwrap(), alpha).unwrap()
    }

    fn close(a: &PolicyRun, b: &PolicyRun) -> bool {
        (a.energy.total() - b.energy.total()).abs() < 1e-9
            && a.active_cycles == b.active_cycles
            && (a.uncontrolled_idle_equiv - b.uncontrolled_idle_equiv).abs() < 1e-9
            && (a.sleep_equiv - b.sleep_equiv).abs() < 1e-9
            && (a.transitions_equiv - b.transitions_equiv).abs() < 1e-9
    }

    #[test]
    fn forms_compare_and_hash_by_parameters() {
        use std::collections::HashSet;
        let be = 20.0;
        let forms = [
            PolicyForm::AlwaysActive,
            PolicyForm::MaxSleep,
            PolicyForm::NoOverhead,
            PolicyForm::GradualSleep { slices: 4 },
            PolicyForm::GradualSleep { slices: 8 },
            PolicyForm::TimeoutSleep { timeout: 4 },
            PolicyForm::AdaptiveSleep {
                breakeven: be,
                weight: 0.25,
            },
            PolicyForm::AdaptiveSleep {
                breakeven: be,
                weight: 0.5,
            },
        ];
        let set: HashSet<PolicyForm> = forms.into_iter().collect();
        assert_eq!(set.len(), forms.len(), "all parameterizations distinct");
        assert_eq!(
            PolicyForm::GradualSleep { slices: 4 },
            PolicyForm::GradualSleep { slices: 4 }
        );
        assert_ne!(
            PolicyForm::GradualSleep { slices: 4 },
            PolicyForm::TimeoutSleep { timeout: 4 }
        );
    }

    #[test]
    fn boundary_conversion_and_names() {
        for (b, name) in [
            (BoundaryPolicy::AlwaysActive, "AlwaysActive"),
            (BoundaryPolicy::MaxSleep, "MaxSleep"),
            (BoundaryPolicy::NoOverhead, "NoOverhead"),
            (BoundaryPolicy::GradualSleep { slices: 3 }, "GradualSleep"),
        ] {
            let f = PolicyForm::from_boundary(b);
            assert_eq!(f.name(), name);
            assert_eq!(f.controller().name(), name);
        }
    }

    #[test]
    fn interval_run_matches_account_intervals_per_interval() {
        let m = model(0.2, 0.4);
        for t in [1u64, 2, 5, 13, 100, 5000] {
            for b in [
                BoundaryPolicy::AlwaysActive,
                BoundaryPolicy::MaxSleep,
                BoundaryPolicy::NoOverhead,
                BoundaryPolicy::GradualSleep { slices: 7 },
                BoundaryPolicy::GradualSleep { slices: 1024 },
            ] {
                let old = account_intervals(&m, b, 0, &[t]);
                let new = interval_run(&m, PolicyForm::from_boundary(b), t);
                assert!(close(&old, &new), "{b:?} t={t}");
            }
        }
    }

    #[test]
    fn extension_closed_forms_match_controllers() {
        let m = model(0.05, 0.5);
        let be = breakeven_interval(&m);
        let intervals = vec![1u64, 3, 7, 19, 19, 50, 500, 2, 2, 2];
        for form in [
            PolicyForm::TimeoutSleep { timeout: 0 },
            PolicyForm::TimeoutSleep { timeout: 5 },
            PolicyForm::TimeoutSleep { timeout: u64::MAX },
            PolicyForm::AdaptiveSleep {
                breakeven: be,
                weight: 0.25,
            },
            PolicyForm::AdaptiveSleep {
                breakeven: be,
                weight: 1.0,
            },
        ] {
            let closed = intervals_run(&m, form, 40, &intervals);
            let simulated = simulate_intervals(&m, form.controller().as_mut(), 40, &intervals);
            assert!(close(&closed, &simulated), "{form:?}");
        }
    }

    #[test]
    fn spectrum_run_is_the_dot_product_for_order_free_policies() {
        let m = model(0.5, 0.5);
        let intervals = vec![4u64, 1, 9, 4, 4, 1, 30];
        let spectrum = IntervalSpectrum::from_lengths(&intervals);
        for form in [
            PolicyForm::AlwaysActive,
            PolicyForm::MaxSleep,
            PolicyForm::NoOverhead,
            PolicyForm::GradualSleep { slices: 5 },
            PolicyForm::TimeoutSleep { timeout: 3 },
        ] {
            let by_list = intervals_run(&m, form, 12, &intervals);
            let by_spectrum = spectrum_run(&m, form, 12, &spectrum);
            assert!(close(&by_list, &by_spectrum), "{form:?}");
        }
    }

    #[test]
    #[should_panic(expected = "breakeven")]
    fn spectrum_run_rejects_invalid_adaptive_forms() {
        // Every evaluator enforces the controller's parameter
        // contract — no silent garbage from an invalid form.
        let m = model(0.5, 0.5);
        let s = IntervalSpectrum::from_lengths(&[3, 9]);
        let _ = spectrum_run(
            &m,
            PolicyForm::AdaptiveSleep {
                breakeven: f64::NAN,
                weight: 0.25,
            },
            10,
            &s,
        );
    }

    #[test]
    #[should_panic(expected = "EWMA")]
    fn intervals_run_rejects_invalid_adaptive_weight() {
        let m = model(0.5, 0.5);
        let _ = intervals_run(
            &m,
            PolicyForm::AdaptiveSleep {
                breakeven: 10.0,
                weight: 0.0,
            },
            10,
            &[3, 9],
        );
    }

    /// Bit-pattern image of a run — grid results must match the
    /// scalar evaluator's exactly, not approximately.
    fn bits(r: &PolicyRun) -> [u64; 9] {
        [
            r.energy.dynamic.to_bits(),
            r.energy.leak_hi.to_bits(),
            r.energy.leak_lo.to_bits(),
            r.energy.transition.to_bits(),
            r.energy.overhead.to_bits(),
            r.active_cycles,
            r.uncontrolled_idle_equiv.to_bits(),
            r.sleep_equiv.to_bits(),
            r.transitions_equiv.to_bits(),
        ]
    }

    fn assert_grid_matches(model: &EnergyModel, forms: &[PolicyForm], ac: u64, lengths: &[u64]) {
        let spectrum = IntervalSpectrum::from_lengths(lengths);
        let mut grid = GridEval::new(model, forms);
        assert_eq!(grid.grid_len(), forms.len());
        let runs = grid.run(ac, &spectrum);
        for (form, got) in forms.iter().zip(runs) {
            let want = spectrum_run(model, *form, ac, &spectrum);
            assert_eq!(bits(got), bits(&want), "{form:?} over {lengths:?}");
        }
    }

    fn mixed_forms(model: &EnergyModel) -> Vec<PolicyForm> {
        let be = breakeven_interval(model);
        vec![
            PolicyForm::MaxSleep,
            PolicyForm::GradualSleep { slices: 1 },
            PolicyForm::GradualSleep { slices: 4 },
            PolicyForm::GradualSleep { slices: 7 },
            PolicyForm::GradualSleep { slices: 64 },
            PolicyForm::GradualSleep { slices: 1024 },
            PolicyForm::AlwaysActive,
            PolicyForm::TimeoutSleep { timeout: 0 },
            PolicyForm::TimeoutSleep { timeout: 5 },
            PolicyForm::TimeoutSleep { timeout: u64::MAX },
            PolicyForm::NoOverhead,
            PolicyForm::AdaptiveSleep {
                breakeven: be,
                weight: 0.25,
            },
            PolicyForm::AdaptiveSleep {
                breakeven: be,
                weight: 1.0,
            },
        ]
    }

    #[test]
    fn grid_matches_spectrum_run_bit_exactly() {
        for (p, alpha) in [(0.05, 0.5), (0.5, 0.5), (0.2, 0.9), (1.0, 0.05)] {
            let m = model(p, alpha);
            let forms = mixed_forms(&m);
            assert_grid_matches(&m, &forms, 37, &[1, 1, 2, 3, 5, 5, 5, 8, 40, 200, 3000]);
            assert_grid_matches(&m, &forms, 0, &[7]);
            assert_grid_matches(&m, &forms, 12, &[]);
        }
    }

    #[test]
    fn grid_handles_duplicate_forms() {
        let m = model(0.5, 0.5);
        let forms = [
            PolicyForm::MaxSleep,
            PolicyForm::GradualSleep { slices: 4 },
            PolicyForm::MaxSleep,
            PolicyForm::GradualSleep { slices: 4 },
            PolicyForm::AlwaysActive,
            PolicyForm::AlwaysActive,
        ];
        assert_grid_matches(&m, &forms, 9, &[2, 6, 6, 19]);
    }

    #[test]
    fn grid_is_reusable_across_spectra_and_counts() {
        let m = model(0.05, 0.5);
        let forms = mixed_forms(&m);
        let mut grid = GridEval::new(&m, &forms);
        for (ac, lengths) in [
            (5u64, vec![1u64, 2, 3]),
            (0, vec![500, 500, 1]),
            (1000, vec![]),
            (3, vec![64]),
        ] {
            let spectrum = IntervalSpectrum::from_lengths(&lengths);
            let runs = grid.run(ac, &spectrum);
            for (form, got) in forms.iter().zip(runs) {
                let want = spectrum_run(&m, *form, ac, &spectrum);
                assert_eq!(bits(got), bits(&want), "{form:?} over {lengths:?}");
            }
        }
    }

    #[test]
    fn grid_saturated_rewrite_threshold_falls_back_exactly() {
        // Interval lengths past each lane's exactness threshold take
        // the literal scalar formula; both regimes must match the
        // scalar evaluator around and far past the boundary.
        let m = model(0.5, 0.5);
        let forms = [
            PolicyForm::GradualSleep { slices: 3 },
            PolicyForm::GradualSleep { slices: 641 },
        ];
        let huge = 1u64 << 53; // past fast_max for every slice count
        assert_grid_matches(&m, &forms, 2, &[1, 640, 642, huge - 1, huge]);
    }

    fn assert_batch_matches(grid: &mut GridEval, items: &[(&EnergyModel, &[PolicyForm])]) {
        for (ac, lengths) in [
            (37u64, vec![1u64, 1, 2, 3, 5, 5, 8, 40, 200, 3000]),
            (0, vec![7]),
            (12, vec![]),
        ] {
            let spectrum = IntervalSpectrum::from_lengths(&lengths);
            let runs = grid.run(ac, &spectrum).to_vec();
            let mut i = 0;
            for &(m, forms) in items {
                for &form in forms {
                    let want = spectrum_run(m, form, ac, &spectrum);
                    assert_eq!(bits(&runs[i]), bits(&want), "{form:?} over {lengths:?}");
                    i += 1;
                }
            }
            assert_eq!(i, runs.len());
        }
    }

    #[test]
    fn grid_batch_prices_every_item_bit_exactly() {
        // Three models, three *different* form lists (overlapping and
        // disjoint GS/TS parameters, so lanes interleave across items
        // in the sorted order), priced in one batch.
        let m0 = model(0.05, 0.5);
        let m1 = model(0.5, 0.5);
        let m2 = model(0.9, 0.1);
        let f0 = mixed_forms(&m0);
        let f1 = vec![
            PolicyForm::GradualSleep { slices: 4 },
            PolicyForm::GradualSleep { slices: 9 },
            PolicyForm::TimeoutSleep { timeout: 5 },
            PolicyForm::NoOverhead,
        ];
        let f2 = vec![PolicyForm::AlwaysActive];
        let items: Vec<(&EnergyModel, &[PolicyForm])> = vec![(&m0, &f0), (&m1, &f1), (&m2, &f2)];
        let mut grid = GridEval::new_batch(&items);
        assert_eq!(grid.grid_len(), f0.len() + f1.len() + f2.len());
        assert_batch_matches(&mut grid, &items);
    }

    #[test]
    fn grid_batch_renews_between_batch_and_single() {
        let m0 = model(0.05, 0.5);
        let m1 = model(0.35, 0.8);
        let f0 = mixed_forms(&m0);
        let f1 = mixed_forms(&m1);
        let items: Vec<(&EnergyModel, &[PolicyForm])> = vec![(&m0, &f0), (&m1, &f1)];
        // Batch -> single -> batch over the same kernel: every renewal
        // reshapes the lanes and stays bit-exact.
        let mut grid = GridEval::new_batch(&items);
        assert_batch_matches(&mut grid, &items);
        grid.renew(&m1, &f1);
        assert_batch_matches(&mut grid, &items[1..2]);
        grid.renew_batch(&items);
        assert_batch_matches(&mut grid, &items);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn grid_batch_rejects_empty_batches() {
        let _ = GridEval::new_batch(&[]);
    }

    #[test]
    fn empty_grid_is_fine() {
        let m = model(0.5, 0.5);
        let mut grid = GridEval::new(&m, &[]);
        assert!(grid.is_empty());
        assert!(grid
            .run(4, &IntervalSpectrum::from_lengths(&[3]))
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn grid_rejects_zero_slices() {
        let m = model(0.5, 0.5);
        let _ = GridEval::new(&m, &[PolicyForm::GradualSleep { slices: 0 }]);
    }

    #[test]
    #[should_panic(expected = "breakeven")]
    fn grid_rejects_invalid_adaptive_forms() {
        let m = model(0.5, 0.5);
        let _ = GridEval::new(
            &m,
            &[PolicyForm::AdaptiveSleep {
                breakeven: f64::INFINITY,
                weight: 0.5,
            }],
        );
    }

    #[test]
    fn adaptive_spectrum_run_uses_canonical_order() {
        let m = model(0.05, 0.5);
        let be = breakeven_interval(&m);
        let form = PolicyForm::AdaptiveSleep {
            breakeven: be,
            weight: 1.0, // maximally order-sensitive
        };
        // Short-then-long differs from long-then-short...
        let asc = intervals_run(&m, form, 10, &[2, 500]);
        let desc = intervals_run(&m, form, 10, &[500, 2]);
        assert!((asc.energy.total() - desc.energy.total()).abs() > 1e-9);
        // ...and the spectrum evaluator is pinned to ascending order.
        let spectrum = IntervalSpectrum::from_lengths(&[500, 2]);
        let by_spectrum = spectrum_run(&m, form, 10, &spectrum);
        assert!(close(&by_spectrum, &asc));
    }
}
