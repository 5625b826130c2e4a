//! Drives a sleep controller over a workload and accounts its energy.
//!
//! Two equivalent entry points are provided:
//!
//! * [`simulate_cycles`] — feeds a controller one busy/idle observation
//!   per cycle (what you would do online in hardware);
//! * [`simulate_intervals`] — feeds an idle-interval list (what the
//!   paper's methodology does: the timing simulator records per-FU idle
//!   intervals and the energy model is applied afterwards — sleep
//!   management does not perturb timing because wake-up is hidden
//!   behind the issue-to-execute pipeline stages, Figure 6).
//!
//! The two agree exactly for any deterministic controller; the property
//! tests in this module and the integration suite check that, plus
//! agreement with the closed forms of [`crate::closed_form`].

use crate::closed_form::{interval_energy, BoundaryPolicy};
use crate::model::{EnergyModel, NormalizedEnergy};
use crate::policy::SleepController;

/// The result of running a policy over a workload.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyRun {
    /// Energy breakdown in units of `E_D`.
    pub energy: NormalizedEnergy,
    /// Active (computing) cycles.
    pub active_cycles: u64,
    /// Cycle-equivalents spent in uncontrolled idle (fractional under
    /// GradualSleep, where part of the circuit idles while the rest
    /// sleeps).
    pub uncontrolled_idle_equiv: f64,
    /// Cycle-equivalents spent asleep.
    pub sleep_equiv: f64,
    /// Transition-equivalents (whole-circuit transitions; GradualSleep
    /// contributes fractions per slice).
    pub transitions_equiv: f64,
}

impl PolicyRun {
    /// Total cycles covered by the run.
    pub fn total_cycles(&self) -> f64 {
        self.active_cycles as f64 + self.uncontrolled_idle_equiv + self.sleep_equiv
    }

    /// Energy normalized to the 100%-computation baseline `E_max` of
    /// equation (9) — the y-axis of Figures 8a/8b. The baseline is
    /// computed over the exact (possibly fractional, under
    /// GradualSleep) cycle-equivalent total; no rounding occurs.
    pub fn normalized_to_max(&self, model: &EnergyModel) -> f64 {
        let e_max = model.max_energy(self.total_cycles());
        if e_max == 0.0 {
            0.0
        } else {
            self.energy.total() / e_max
        }
    }
}

impl std::ops::AddAssign for PolicyRun {
    /// Accumulates another run fieldwise — how per-interval and
    /// per-FU breakdowns roll up into workload totals.
    fn add_assign(&mut self, rhs: Self) {
        self.energy += rhs.energy;
        self.active_cycles += rhs.active_cycles;
        self.uncontrolled_idle_equiv += rhs.uncontrolled_idle_equiv;
        self.sleep_equiv += rhs.sleep_equiv;
        self.transitions_equiv += rhs.transitions_equiv;
    }
}

impl PolicyRun {
    /// `k` sequential `*self += rhs`, bit-identical to that loop, in
    /// O(accumulator binades crossed) per field instead of O(k) — see
    /// [`repeated_add`].
    pub(crate) fn add_n(&mut self, rhs: PolicyRun, k: u64) {
        let (e, x) = (&mut self.energy, rhs.energy);
        e.dynamic = repeated_add(e.dynamic, x.dynamic, k);
        e.leak_hi = repeated_add(e.leak_hi, x.leak_hi, k);
        e.leak_lo = repeated_add(e.leak_lo, x.leak_lo, k);
        e.transition = repeated_add(e.transition, x.transition, k);
        e.overhead = repeated_add(e.overhead, x.overhead, k);
        self.active_cycles += rhs.active_cycles * k;
        self.uncontrolled_idle_equiv =
            repeated_add(self.uncontrolled_idle_equiv, rhs.uncontrolled_idle_equiv, k);
        self.sleep_equiv = repeated_add(self.sleep_equiv, rhs.sleep_equiv, k);
        self.transitions_equiv = repeated_add(self.transitions_equiv, rhs.transitions_equiv, k);
    }
}

/// Runs below this length take the plain `+=`: the binade set-up costs
/// more than the adds it would save.
const REPEATED_ADD_MIN_RUN: u64 = 4;

/// The value of `for _ in 0..k { s += x }`, bit for bit, in
/// O(accumulator binades crossed) instead of O(k) when `x` is finite
/// and positive.
///
/// Why it is exact: inside one binade `[2^E, 2^(E+1))` every `f64` is
/// an integer multiple `M` of one ulp, so `s + x` is
/// `(M + x/ulp) · ulp` rounded to nearest-even. With `x/ulp = q + r`
/// (`q` an integer, `0 <= r < 1`) the rounded mantissa is `M + q`
/// plus 0 when `r < 1/2`, plus 1 when `r > 1/2`, and on an exact
/// half-ulp tie plus whichever of 0 or 1 makes it even. The increment
/// therefore depends at most on the parity of `M`: when two steps add
/// an even amount, the parity comes back and every later pair adds the
/// same amount, so the run through the binade is one integer multiply
/// on the mantissa. Anything else takes the plain `+=` and retries:
/// a step that would leave the binade, `s` at or below zero or
/// subnormal, `x` not finite or at or below zero, an odd pair
/// increment (the first step of a tie), or a run too short to pay.
pub fn repeated_add(mut s: f64, x: f64, mut k: u64) -> f64 {
    if x == 0.0 {
        // `s + ±0` is `s`, except that `-0 + +0` is `+0`: one add
        // settles every sign case.
        return if k == 0 { s } else { s + x };
    }
    while k > 0 {
        if k >= REPEATED_ADD_MIN_RUN {
            if let Some((exp, m, [i0, i1])) = binade_steps(s, x) {
                let pair = i0 + i1;
                if pair == 0 {
                    // `s + x == s` at this mantissa, hence forever.
                    return s;
                }
                let pairs = (k / 2).min((MANTISSA_END - 1 - m) / pair);
                if pair % 2 == 0 && pairs > 0 {
                    let m = m + pairs * pair;
                    s = f64::from_bits((exp << 52) | (m - MANTISSA_HIDDEN));
                    k -= 2 * pairs;
                    continue;
                }
            }
        }
        s += x;
        k -= 1;
    }
    s
}

/// The implicit leading bit of a normal `f64` mantissa.
const MANTISSA_HIDDEN: u64 = 1 << 52;
/// One past the largest mantissa of a binade.
const MANTISSA_END: u64 = 1 << 53;

/// For a normal positive `s` and a finite positive `x`: the biased
/// exponent and full mantissa `M` of `s`, and the mantissa increments
/// of the next two steps `s += x` if both stayed inside the binade.
/// `None` when `s` or `x` falls outside that domain or `x` alone
/// reaches the next binade.
fn binade_steps(s: f64, x: f64) -> Option<(u64, u64, [u64; 2])> {
    if !(s.is_normal() && s > 0.0 && x.is_finite() && x > 0.0) {
        return None;
    }
    let (sb, xb) = (s.to_bits(), x.to_bits());
    let exp = sb >> 52;
    let m = (sb & (MANTISSA_HIDDEN - 1)) | MANTISSA_HIDDEN;
    // `x = xm · 2^(xe - 1075)` and the ulp of `s` is `2^(exp - 1075)`,
    // so `x / ulp = xm · 2^(xe - exp)`; subnormal `x` has `xe = 1`
    // and no hidden bit.
    let (xm, xe) = match xb >> 52 {
        0 => (xb, 1),
        e => ((xb & (MANTISSA_HIDDEN - 1)) | MANTISSA_HIDDEN, e),
    };
    if xe > exp {
        return None; // `x >= 2^(E+1)`: no step stays in the binade
    }
    let shift = exp - xe;
    // `q` and the comparison of the remainder `r` with one half.
    let (q, r) = if shift == 0 {
        (xm, std::cmp::Ordering::Less)
    } else if shift >= 64 {
        (0, std::cmp::Ordering::Less)
    } else {
        let rem = xm & ((1u64 << shift) - 1);
        (xm >> shift, rem.cmp(&(1u64 << (shift - 1))))
    };
    let inc = |m: u64| {
        q + match r {
            std::cmp::Ordering::Less => 0,
            std::cmp::Ordering::Greater => 1,
            std::cmp::Ordering::Equal => (m + q) & 1,
        }
    };
    let i0 = inc(m);
    Some((exp, m, [i0, inc(m + i0)]))
}

/// Runs a controller over a per-cycle busy/idle stream.
///
/// # Example
///
/// ```
/// use fuleak_core::accounting::simulate_cycles;
/// use fuleak_core::policy::MaxSleep;
/// use fuleak_core::{EnergyModel, TechnologyParams};
///
/// # fn main() -> Result<(), fuleak_core::ModelError> {
/// let model = EnergyModel::new(TechnologyParams::high_leakage(), 0.5)?;
/// let stream = [true, false, false, false, true];
/// let run = simulate_cycles(&model, &mut MaxSleep::new(), stream);
/// assert_eq!(run.active_cycles, 2);
/// assert_eq!(run.sleep_equiv, 3.0);
/// assert_eq!(run.transitions_equiv, 1.0);
/// # Ok(())
/// # }
/// ```
pub fn simulate_cycles<C, I>(model: &EnergyModel, controller: &mut C, cycles: I) -> PolicyRun
where
    C: SleepController + ?Sized,
    I: IntoIterator<Item = bool>,
{
    let mut run = PolicyRun::default();
    for busy in cycles {
        let decision = controller.observe(busy);
        if busy {
            run.energy += model.active_cycle();
            run.active_cycles += 1;
            continue;
        }
        debug_assert!((0.0..=1.0).contains(&decision.sleeping));
        debug_assert!(decision.newly_asleep <= decision.sleeping + 1e-12);
        if decision.bill_transitions && decision.newly_asleep > 0.0 {
            run.energy += model.transition() * decision.newly_asleep;
            run.transitions_equiv += decision.newly_asleep;
        }
        run.energy += model.sleep_cycle() * decision.sleeping;
        run.energy += model.uncontrolled_idle_cycle() * (1.0 - decision.sleeping);
        run.sleep_equiv += decision.sleeping;
        run.uncontrolled_idle_equiv += 1.0 - decision.sleeping;
    }
    run
}

/// Runs a controller over an idle-interval list plus a total active
/// cycle count (the paper's simulation methodology).
///
/// Each idle interval is preceded by one active cycle from
/// `active_cycles` so the controller sees interval boundaries; the
/// remaining active cycles are appended at the end. If `active_cycles`
/// is smaller than the interval count, one separator per interval is
/// still emitted (the paper's `n_tr <= n_A` constraint makes this case
/// unreachable for real traces, but the accounting stays well-defined).
pub fn simulate_intervals<C>(
    model: &EnergyModel,
    controller: &mut C,
    active_cycles: u64,
    idle_intervals: &[u64],
) -> PolicyRun
where
    C: SleepController + ?Sized,
{
    let separators = idle_intervals.len() as u64;
    let trailing = active_cycles.saturating_sub(separators);
    let stream = idle_intervals
        .iter()
        .flat_map(|&t| std::iter::once(true).chain(std::iter::repeat_n(false, t as usize)))
        .chain(std::iter::repeat_n(true, trailing as usize));
    simulate_cycles(model, controller, stream)
}

/// Closed-form per-interval accounting for a boundary policy — the
/// O(#intervals) fast path used by the experiment harness. Agrees
/// exactly with [`simulate_intervals`] driven by the corresponding
/// controller.
pub fn account_intervals(
    model: &EnergyModel,
    policy: BoundaryPolicy,
    active_cycles: u64,
    idle_intervals: &[u64],
) -> PolicyRun {
    let mut run = PolicyRun {
        energy: model.active_cycle() * active_cycles as f64,
        active_cycles,
        ..PolicyRun::default()
    };
    for &t in idle_intervals {
        run.energy += interval_energy(model, policy, t);
        let t_f = t as f64;
        match policy {
            BoundaryPolicy::AlwaysActive => run.uncontrolled_idle_equiv += t_f,
            BoundaryPolicy::MaxSleep => {
                if t > 0 {
                    run.transitions_equiv += 1.0;
                }
                run.sleep_equiv += t_f;
            }
            BoundaryPolicy::NoOverhead => run.sleep_equiv += t_f,
            BoundaryPolicy::GradualSleep { slices } => {
                let n = f64::from(slices);
                let reached = t.min(u64::from(slices)) as f64;
                run.transitions_equiv += reached / n;
                // Slice i sleeps t-i+1 cycles (i <= t); the rest idle.
                let slept: f64 = (1..=t.min(u64::from(slices)))
                    .map(|i| (t - i + 1) as f64)
                    .sum::<f64>()
                    / n;
                run.sleep_equiv += slept;
                run.uncontrolled_idle_equiv += t_f - slept;
            }
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{
        AdaptiveSleep, AlwaysActive, GradualSleep, MaxSleep, NoOverhead, TimeoutSleep,
    };
    use crate::tech::TechnologyParams;

    fn model(p: f64, alpha: f64) -> EnergyModel {
        EnergyModel::new(TechnologyParams::with_leakage_factor(p).unwrap(), alpha).unwrap()
    }

    #[test]
    fn empty_stream_costs_nothing() {
        let m = model(0.5, 0.5);
        let run = simulate_cycles(&m, &mut MaxSleep::new(), std::iter::empty());
        assert_eq!(run.energy.total(), 0.0);
        assert_eq!(run.total_cycles(), 0.0);
    }

    #[test]
    fn all_busy_equals_max_energy() {
        let m = model(0.5, 0.5);
        let run = simulate_cycles(&m, &mut AlwaysActive, vec![true; 100]);
        assert!((run.energy.total() - m.max_energy(100.0)).abs() < 1e-9);
        assert!((run.normalized_to_max(&m) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interval_driver_matches_cycle_driver() {
        let m = model(0.5, 0.5);
        let intervals = vec![3, 1, 7, 20, 2];
        let active = 50;
        let by_intervals = simulate_intervals(&m, &mut GradualSleep::new(5), active, &intervals);
        // Manually build the equivalent stream.
        let mut stream = Vec::new();
        for &t in &intervals {
            stream.push(true);
            stream.extend(std::iter::repeat_n(false, t as usize));
        }
        stream.extend(std::iter::repeat_n(true, active as usize - intervals.len()));
        let by_cycles = simulate_cycles(&m, &mut GradualSleep::new(5), stream);
        assert!((by_intervals.energy.total() - by_cycles.energy.total()).abs() < 1e-9);
        assert_eq!(by_intervals.active_cycles, by_cycles.active_cycles);
    }

    #[test]
    fn closed_form_matches_controller_for_boundary_policies() {
        let m = model(0.2, 0.3);
        let intervals = vec![1, 2, 5, 10, 17, 100, 3];
        let active = 40;
        let cases: Vec<(BoundaryPolicy, Box<dyn SleepController>)> = vec![
            (BoundaryPolicy::AlwaysActive, Box::new(AlwaysActive)),
            (BoundaryPolicy::MaxSleep, Box::new(MaxSleep::new())),
            (BoundaryPolicy::NoOverhead, Box::new(NoOverhead::new())),
            (
                BoundaryPolicy::GradualSleep { slices: 7 },
                Box::new(GradualSleep::new(7)),
            ),
        ];
        for (policy, mut ctrl) in cases {
            let closed = account_intervals(&m, policy, active, &intervals);
            let simulated = simulate_intervals(&m, ctrl.as_mut(), active, &intervals);
            assert!(
                (closed.energy.total() - simulated.energy.total()).abs() < 1e-9,
                "{policy:?}: closed {} vs sim {}",
                closed.energy.total(),
                simulated.energy.total()
            );
            assert!((closed.sleep_equiv - simulated.sleep_equiv).abs() < 1e-9);
            assert!(
                (closed.uncontrolled_idle_equiv - simulated.uncontrolled_idle_equiv).abs() < 1e-9
            );
            assert!((closed.transitions_equiv - simulated.transitions_equiv).abs() < 1e-9);
        }
    }

    #[test]
    fn no_overhead_never_exceeds_other_policies() {
        let m = model(0.3, 0.6);
        let intervals = vec![2, 9, 33, 1, 4, 250];
        let active = 100;
        let no = account_intervals(&m, BoundaryPolicy::NoOverhead, active, &intervals)
            .energy
            .total();
        for policy in [
            BoundaryPolicy::AlwaysActive,
            BoundaryPolicy::MaxSleep,
            BoundaryPolicy::GradualSleep { slices: 13 },
        ] {
            let e = account_intervals(&m, policy, active, &intervals)
                .energy
                .total();
            assert!(no <= e + 1e-12, "{policy:?}");
        }
    }

    #[test]
    fn timeout_with_huge_timeout_matches_always_active() {
        let m = model(0.5, 0.5);
        let intervals = vec![5, 50, 500];
        let aa = simulate_intervals(&m, &mut AlwaysActive, 10, &intervals);
        let to = simulate_intervals(&m, &mut TimeoutSleep::new(u64::MAX), 10, &intervals);
        assert!((aa.energy.total() - to.energy.total()).abs() < 1e-9);
    }

    #[test]
    fn timeout_zero_matches_max_sleep() {
        let m = model(0.5, 0.5);
        let intervals = vec![5, 50, 500];
        let ms = simulate_intervals(&m, &mut MaxSleep::new(), 10, &intervals);
        let to = simulate_intervals(&m, &mut TimeoutSleep::new(0), 10, &intervals);
        assert!((ms.energy.total() - to.energy.total()).abs() < 1e-9);
    }

    #[test]
    fn adaptive_beats_max_sleep_on_short_intervals_at_low_p() {
        // At p = 0.05 the breakeven is ~20 cycles; on a stream of
        // 5-cycle intervals the adaptive policy should learn to stay
        // awake while MaxSleep pays the transition every time.
        let m = model(0.05, 0.5);
        let be = crate::breakeven_interval(&m);
        let intervals = vec![5u64; 200];
        let ms = simulate_intervals(&m, &mut MaxSleep::new(), 200, &intervals);
        let ad = simulate_intervals(&m, &mut AdaptiveSleep::new(be, 0.25), 200, &intervals);
        assert!(ad.energy.total() < ms.energy.total());
    }

    #[test]
    fn adaptive_beats_always_active_on_long_intervals() {
        let m = model(0.05, 0.5);
        let be = crate::breakeven_interval(&m);
        let intervals = vec![500u64; 50];
        let aa = simulate_intervals(&m, &mut AlwaysActive, 50, &intervals);
        let ad = simulate_intervals(&m, &mut AdaptiveSleep::new(be, 0.25), 50, &intervals);
        assert!(ad.energy.total() < aa.energy.total());
    }

    #[test]
    fn policy_run_totals() {
        let m = model(0.5, 0.5);
        let run = simulate_intervals(&m, &mut MaxSleep::new(), 10, &[4, 6]);
        assert_eq!(run.active_cycles, 10);
        assert_eq!(run.sleep_equiv, 10.0);
        assert_eq!(run.uncontrolled_idle_equiv, 0.0);
        assert_eq!(run.total_cycles(), 20.0);
    }

    #[test]
    fn normalization_is_exact_for_fractional_totals() {
        // Regression: GradualSleep produces fractional cycle-equivalent
        // totals; these used to be rounded to u64 before computing
        // E_max, skewing the Figures 8a/8b y-values. Normalizing an
        // all-active run against a fractional total must agree with
        // the analytic ratio exactly.
        let m = model(0.5, 0.5);
        let run = PolicyRun {
            energy: m.active_cycle() * 10.0,
            active_cycles: 10,
            uncontrolled_idle_equiv: 0.3,
            sleep_equiv: 0.4,
            ..PolicyRun::default()
        };
        assert!((run.total_cycles() - 10.7).abs() < 1e-12); // would have rounded to 11
        let expected =
            (m.active_cycle().total() * 10.0) / (m.active_cycle().total() * run.total_cycles());
        assert!((run.normalized_to_max(&m) - expected).abs() < 1e-15);
        // And a genuine GradualSleep run stays consistent with its own
        // exact total.
        let gs = simulate_intervals(&m, &mut GradualSleep::new(4), 20, &[3, 1, 2]);
        let by_hand = gs.energy.total() / m.max_energy(gs.total_cycles());
        assert!((gs.normalized_to_max(&m) - by_hand).abs() < 1e-15);
    }

    #[test]
    fn more_active_cycles_cost_more() {
        let m = model(0.5, 0.5);
        let a = simulate_intervals(&m, &mut MaxSleep::new(), 10, &[5]);
        let b = simulate_intervals(&m, &mut MaxSleep::new(), 20, &[5]);
        assert!(b.energy.total() > a.energy.total());
    }
}
