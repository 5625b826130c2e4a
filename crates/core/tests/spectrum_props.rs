//! Property tests for the interval-spectrum policy evaluator.
//!
//! Three ways to price a workload under a sleep policy must agree
//! exactly (to floating-point tolerance):
//!
//! 1. the cycle-level controllers driven one busy/idle observation at
//!    a time ([`simulate_intervals`] → `simulate_cycles`) — the
//!    reference semantics;
//! 2. the per-interval closed forms over an interval *list*
//!    ([`intervals_run`], and [`account_intervals`] for the four
//!    boundary policies);
//! 3. the spectrum evaluator ([`spectrum_run`]) over the list's
//!    [`IntervalSpectrum`].
//!
//! Order-free policies (everything except AdaptiveSleep) must agree on
//! *arbitrary* interval orders; AdaptiveSleep carries its predictor
//! across intervals, so the spectrum evaluator is pinned against the
//! canonical ascending-length order it is defined over. Spectrum
//! merge laws (commutativity, associativity, agreement with list
//! concatenation) ride along, as does the exact k-fold add
//! ([`repeated_add`]) the AdaptiveSleep evaluator accumulates with: it
//! must equal the naive `+=` loop bit for bit.

use fuleak_core::accounting::{account_intervals, repeated_add, simulate_intervals, PolicyRun};
use fuleak_core::closed_form::BoundaryPolicy;
use fuleak_core::policy_eval::{intervals_run, spectrum_run, PolicyForm};
use fuleak_core::{breakeven_interval, EnergyModel, IntervalSpectrum, TechnologyParams};
use proptest::prelude::*;

fn close(a: &PolicyRun, b: &PolicyRun) -> Result<(), TestCaseError> {
    let tol = 1e-9 * (1.0 + a.energy.total().abs());
    prop_assert!(
        (a.energy.total() - b.energy.total()).abs() < tol,
        "energy {} vs {}",
        a.energy.total(),
        b.energy.total()
    );
    prop_assert_eq!(a.active_cycles, b.active_cycles);
    prop_assert!((a.uncontrolled_idle_equiv - b.uncontrolled_idle_equiv).abs() < tol);
    prop_assert!((a.sleep_equiv - b.sleep_equiv).abs() < tol);
    prop_assert!((a.transitions_equiv - b.transitions_equiv).abs() < tol);
    Ok(())
}

prop_compose! {
    /// A workload: positive idle intervals (arbitrary order, heavy on
    /// short lengths so spectra have repeated lines) plus enough
    /// active cycles to separate them.
    fn workload()(
        intervals in proptest::collection::vec(
            prop_oneof![1u64..8, 1u64..100, 100u64..3000], 0..60),
        extra_active in 0u64..50,
    ) -> (Vec<u64>, u64) {
        let active = intervals.len() as u64 + extra_active;
        (intervals, active)
    }
}

prop_compose! {
    /// A technology/activity point spanning the paper's ranges
    /// (`alpha < 1` keeps the breakeven interval finite, which the
    /// adaptive controller requires).
    fn model_point()(
        p in 0.01f64..=1.0,
        alpha in 0.05f64..=0.95,
    ) -> EnergyModel {
        EnergyModel::new(
            TechnologyParams::with_leakage_factor(p).expect("p in range"),
            alpha,
        )
        .expect("alpha in range")
    }
}

/// The order-free policy families at one model point, parameter
/// variety included.
fn order_free_forms(model: &EnergyModel) -> Vec<PolicyForm> {
    let be = breakeven_interval(model).round().max(1.0);
    vec![
        PolicyForm::AlwaysActive,
        PolicyForm::MaxSleep,
        PolicyForm::NoOverhead,
        PolicyForm::GradualSleep { slices: 1 },
        PolicyForm::GradualSleep { slices: 2 },
        PolicyForm::GradualSleep { slices: 7 },
        PolicyForm::GradualSleep { slices: 64 },
        PolicyForm::GradualSleep {
            slices: be.min(1024.0) as u32,
        },
        PolicyForm::TimeoutSleep { timeout: 0 },
        PolicyForm::TimeoutSleep { timeout: 3 },
        PolicyForm::TimeoutSleep { timeout: be as u64 },
        PolicyForm::TimeoutSleep { timeout: u64::MAX },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Order-free policies: the spectrum evaluator, the per-interval
    /// closed form, and the cycle-level controller agree on arbitrary
    /// interval orders — and `account_intervals` rides along for the
    /// boundary policies it supports.
    #[test]
    fn spectrum_equals_closed_form_equals_controller(
        workload in workload(),
        model in model_point(),
    ) {
        let (intervals, active) = workload;
        let spectrum = IntervalSpectrum::from_lengths(&intervals);
        for form in order_free_forms(&model) {
            let by_controller =
                simulate_intervals(&model, form.controller().as_mut(), active, &intervals);
            let by_list = intervals_run(&model, form, active, &intervals);
            let by_spectrum = spectrum_run(&model, form, active, &spectrum);
            close(&by_controller, &by_list)?;
            close(&by_controller, &by_spectrum)?;
        }
        for boundary in [
            BoundaryPolicy::AlwaysActive,
            BoundaryPolicy::MaxSleep,
            BoundaryPolicy::NoOverhead,
            BoundaryPolicy::GradualSleep { slices: 7 },
        ] {
            let old = account_intervals(&model, boundary, active, &intervals);
            let new = spectrum_run(
                &model,
                PolicyForm::from_boundary(boundary),
                active,
                &spectrum,
            );
            close(&old, &new)?;
        }
    }

    /// AdaptiveSleep: the per-interval closed form tracks the
    /// cycle-level controller on arbitrary orders, and the spectrum
    /// evaluator equals both over the canonical ascending order.
    #[test]
    fn adaptive_closed_form_tracks_the_controller(
        workload in workload(),
        model in model_point(),
        weight in prop_oneof![Just(0.25), Just(0.5), Just(1.0)],
    ) {
        let (intervals, active) = workload;
        let be = breakeven_interval(&model);
        let form = PolicyForm::AdaptiveSleep { breakeven: be, weight };
        let by_controller =
            simulate_intervals(&model, form.controller().as_mut(), active, &intervals);
        let by_list = intervals_run(&model, form, active, &intervals);
        close(&by_controller, &by_list)?;

        let spectrum = IntervalSpectrum::from_lengths(&intervals);
        let canonical = spectrum.to_lengths();
        let by_canonical =
            simulate_intervals(&model, form.controller().as_mut(), active, &canonical);
        let by_spectrum = spectrum_run(&model, form, active, &spectrum);
        close(&by_canonical, &by_spectrum)?;
    }

    /// Spectrum algebra: building from a concatenation equals merging
    /// the parts, merge is commutative and associative, and the
    /// aggregate counts are conserved.
    #[test]
    fn merge_laws(
        a in proptest::collection::vec(1u64..200, 0..40),
        b in proptest::collection::vec(1u64..200, 0..40),
        c in proptest::collection::vec(1u64..200, 0..40),
    ) {
        let (sa, sb, sc) = (
            IntervalSpectrum::from_lengths(&a),
            IntervalSpectrum::from_lengths(&b),
            IntervalSpectrum::from_lengths(&c),
        );
        // Concatenation law.
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        let mut merged = sa.clone();
        merged.merge(&sb);
        prop_assert_eq!(&merged, &IntervalSpectrum::from_lengths(&concat));
        // Commutativity.
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&merged, &ba);
        // Associativity.
        let mut ab_c = merged.clone();
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);
        // Conservation.
        prop_assert_eq!(
            ab_c.total_intervals(),
            (a.len() + b.len() + c.len()) as u64
        );
        prop_assert_eq!(
            ab_c.idle_cycles(),
            a.iter().chain(&b).chain(&c).sum::<u64>()
        );
        // Round trip through the canonical expansion.
        prop_assert_eq!(
            &IntervalSpectrum::from_lengths(&ab_c.to_lengths()),
            &ab_c
        );
    }
}

/// `2^e` for a normal exponent `e`.
fn pow2(e: i32) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// The normal `f64` with unbiased exponent `e` and stored mantissa
/// bits `frac`: `(2^52 + frac) · 2^(e - 52)`.
fn normal(e: i32, frac: u64) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52 | (frac & ((1 << 52) - 1)))
}

fn run_length() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..8, 0u64..2000, 0u64..=1_000_000]
}

prop_compose! {
    /// An exact half-ulp tie: `x = (q + 1/2) · ulp(s)`, with the
    /// parities of `q` and of the mantissa of `s` drawn explicitly.
    /// Large `q` carries the run across one or more binades, where the
    /// tie dissolves.
    fn tie_case()(
        e in -900i32..900,
        frac in any::<u64>(),
        odd_mantissa in any::<bool>(),
        q_half in prop_oneof![0u64..4, 0u64..1000, 0u64..(1 << 40)],
        odd_q in any::<bool>(),
        k in run_length(),
    ) -> (f64, f64, u64) {
        let s = normal(e, (frac & !1) | u64::from(odd_mantissa));
        let q = 2 * q_half + u64::from(odd_q);
        (s, (2 * q + 1) as f64 * pow2(e - 53), k)
    }
}

prop_compose! {
    /// A normal `s` and an `x` anywhere from far below half an ulp of
    /// `s` (`x / s ≈ 2^-80`) to far above `s` (`2^20`).
    fn scaled_case()(
        e in -200i32..200,
        frac in any::<u64>(),
        de in -80i32..20,
        xfrac in any::<u64>(),
        k in run_length(),
    ) -> (f64, f64, u64) {
        (normal(e, frac), normal(e + de, xfrac), k)
    }
}

prop_compose! {
    /// The fallback domain: `s` at ±0, subnormal or `MIN_POSITIVE`;
    /// `x` at ±0, subnormal, tiny or ordinary; plus a few `x` outside
    /// the fast path (negative, infinite, NaN).
    fn edge_case()(
        s_pick in 0u8..5,
        s_frac in 1u64..(1 << 52),
        x_pick in 0u8..8,
        x_frac in 1u64..(1 << 52),
        k in prop_oneof![0u64..8, 0u64..5000],
    ) -> (f64, f64, u64) {
        let s = match s_pick {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(s_frac),
            3 => f64::MIN_POSITIVE,
            _ => normal(-1000, s_frac),
        };
        let x = match x_pick {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(x_frac),
            3 => normal(-1010, x_frac),
            4 => normal(3, x_frac),
            5 => -normal(0, x_frac),
            6 => f64::INFINITY,
            _ => f64::NAN,
        };
        (s, x, k)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The k-fold add equals `k` sequential `+=`s by bit pattern:
    /// ties of both parities, binade crossings, far-below-half-ulp and
    /// far-above-`s` increments, and every fallback domain.
    #[test]
    fn repeated_add_equals_the_naive_loop(
        case in prop_oneof![tie_case(), scaled_case(), edge_case()],
    ) {
        let (s, x, k) = case;
        let mut naive = s;
        for _ in 0..k {
            naive += x;
        }
        prop_assert_eq!(repeated_add(s, x, k).to_bits(), naive.to_bits());
    }
}

#[test]
fn repeated_add_handles_a_tie_whose_first_step_rounds_up() {
    // `s = 1 + ulp` (odd mantissa), `x = 2.5 ulp`: the first step is a
    // tie rounding up (to `1 + 4 ulp`), every later one a tie rounding
    // down (`+2 ulp`), so a constant per-step increment is wrong.
    let ulp = f64::EPSILON;
    let (s, x) = (1.0 + ulp, 2.5 * ulp);
    let mut naive = s;
    for k in 0..64u64 {
        assert_eq!(repeated_add(s, x, k).to_bits(), naive.to_bits(), "k = {k}");
        naive += x;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `record_n`'s dense-prefix shortcut agrees with a plain
    /// binary-search insert on streams heavy on short lengths, where the
    /// prefix `1..=k` fills up and the shortcut fires, mixed with gaps
    /// and long lengths where it must fall through.
    #[test]
    fn dense_prefix_record_n_matches_binary_search(
        lengths in proptest::collection::vec(prop_oneof![1u64..6, 1u64..40, 1_000u64..2_000], 0..200),
        counts in proptest::collection::vec(0u64..4, 200..201),
    ) {
        let mut spectrum = IntervalSpectrum::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        for (&len, &count) in lengths.iter().zip(&counts) {
            spectrum.record_n(len, count);
            if count > 0 {
                match reference.binary_search_by_key(&len, |&(l, _)| l) {
                    Ok(i) => reference[i].1 += count,
                    Err(i) => reference.insert(i, (len, count)),
                }
            }
            prop_assert_eq!(spectrum.entries(), &reference[..]);
        }
    }
}
