//! Property tests for the grid-batched policy evaluator.
//!
//! [`GridEval`] prices G policy forms per spectrum traversal and
//! promises **bit-exact** agreement with [`spectrum_run`] called per
//! form — not tolerance agreement: the explorer built on the grid
//! kernel must produce byte-identical output whether a point was
//! priced scalar or batched. These properties replay random spectra ×
//! mixed policy families × grid sizes (1 up to past the family count,
//! duplicates included) and compare every `f64` by bit pattern,
//! including degenerate spectra (empty, single-length) and interval
//! lengths past the saturated-rewrite exactness threshold. Every case
//! also draws TimeoutSleep-only and AdaptiveSleep-only grids, whose
//! traversals skip the parameterless-family pass.
//!
//! The AdaptiveSleep property pins the evaluators' shared fast path
//! (a monotone predictor walk plus exact k-fold adds per spectrum
//! line) against its one per-occurrence oracle, [`intervals_run`] over
//! [`IntervalSpectrum::to_lengths`], on adversarial spectra.
//!
//! The axis-assembly properties pin the explorer's field-dependence
//! rule: a run at `(p_i, E_slp_j)` is the run at `(p_i, E_slp_0)` with
//! `energy.overhead` taken from the run at `(p_0, E_slp_j)`.

use fuleak_core::accounting::PolicyRun;
use fuleak_core::policy_eval::{
    assemble_axis_run, intervals_run, spectrum_run, GridEval, PolicyForm,
};
use fuleak_core::tech::{DEFAULT_DUTY_CYCLE, DEFAULT_LEAK_RATIO};
use fuleak_core::{breakeven_interval, EnergyModel, IntervalSpectrum, TechnologyParams};
use proptest::prelude::*;

/// Bit-pattern image of a run: two runs are "equal" here only if every
/// field is bitwise identical.
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

fn check_grid(
    model: &EnergyModel,
    forms: &[PolicyForm],
    active: u64,
    spectrum: &IntervalSpectrum,
) -> Result<(), TestCaseError> {
    let mut grid = GridEval::new(model, forms);
    prop_assert_eq!(grid.grid_len(), forms.len());
    let runs = grid.run(active, spectrum);
    for (form, got) in forms.iter().zip(runs) {
        let want = spectrum_run(model, *form, active, spectrum);
        prop_assert_eq!(bits(got), bits(&want));
    }
    Ok(())
}

prop_compose! {
    /// A workload: positive idle intervals (short lengths over-weighted
    /// so spectra carry repeated lines) plus active cycles. Includes a
    /// sprinkle of huge lengths past the GradualSleep saturated-rewrite
    /// exactness threshold so the literal-formula fallback is exercised.
    fn workload()(
        intervals in proptest::collection::vec(
            prop_oneof![
                1u64..8,
                1u64..100,
                100u64..3000,
                (1u64 << 52)..(1u64 << 53),
            ],
            0..60),
        extra_active in 0u64..50,
    ) -> (Vec<u64>, u64) {
        let active = intervals.len() as u64 + extra_active;
        (intervals, active)
    }
}

prop_compose! {
    /// A technology/activity point spanning the paper's ranges.
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

/// Which forms a case draws: the whole pool, or one of the
/// single-family pools whose grids have no parameterless lane.
fn family_filter() -> impl Strategy<Value = Option<&'static str>> {
    prop_oneof![
        Just(None),
        Just(None),
        Just(Some("TimeoutSleep")),
        Just(Some("AdaptiveSleep")),
    ]
}

/// [`form_pool`] restricted to one family (`None`: every family).
fn pool_of(model: &EnergyModel, family: Option<&str>) -> Vec<PolicyForm> {
    let mut pool = form_pool(model);
    pool.retain(|form| family.is_none_or(|name| form.name() == name));
    pool
}

/// The pool grids draw from: every family, parameter variety included.
fn form_pool(model: &EnergyModel) -> Vec<PolicyForm> {
    let be = breakeven_interval(model);
    vec![
        PolicyForm::AlwaysActive,
        PolicyForm::MaxSleep,
        PolicyForm::NoOverhead,
        PolicyForm::GradualSleep { slices: 1 },
        PolicyForm::GradualSleep { slices: 2 },
        PolicyForm::GradualSleep { slices: 7 },
        PolicyForm::GradualSleep { slices: 64 },
        PolicyForm::GradualSleep { slices: 1024 },
        PolicyForm::GradualSleep {
            // Ramping regime for every short length. 2047 is the
            // largest slice count whose saturated `slices * t` product
            // stays in u64 for every generated length (< 2^53) — the
            // same domain bound the scalar evaluator carries.
            slices: 2047,
        },
        PolicyForm::TimeoutSleep { timeout: 0 },
        PolicyForm::TimeoutSleep { timeout: 3 },
        PolicyForm::TimeoutSleep {
            timeout: be.round().max(1.0) as u64,
        },
        PolicyForm::TimeoutSleep { timeout: u64::MAX },
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random grid compositions: sizes from 1 to past the pool size
    /// (so every family mix and duplicate repetition occurs), random
    /// member choice with repetition, random spectra. Grid ≡ scalar,
    /// bit for bit.
    #[test]
    fn grid_equals_scalar_bit_for_bit(
        workload in workload(),
        model in model_point(),
        picks in proptest::collection::vec(0usize..1000, 1..18),
        family in family_filter(),
    ) {
        let (intervals, active) = workload;
        let spectrum = IntervalSpectrum::from_lengths(&intervals);
        let pool = pool_of(&model, family);
        let forms: Vec<PolicyForm> =
            picks.iter().map(|&ix| pool[ix % pool.len()]).collect();
        check_grid(&model, &forms, active, &spectrum)?;
    }

    /// The full pool in one grid over degenerate spectra: empty and
    /// single-length (every partition point sits at an extreme).
    #[test]
    fn degenerate_spectra_match(
        model in model_point(),
        length in prop_oneof![Just(1u64), 2u64..5000, (1u64 << 52)..(1u64 << 53)],
        count in 1u64..40,
        active in 0u64..100,
        family in family_filter(),
    ) {
        let pool = pool_of(&model, family);
        check_grid(&model, &pool, active, &IntervalSpectrum::default())?;
        let mut single = IntervalSpectrum::default();
        single.record_n(length, count);
        check_grid(&model, &pool, active, &single)?;
    }

    /// One warm kernel reused across random spectra reproduces the
    /// fresh-kernel (and scalar) results exactly — reset, not rebuild.
    #[test]
    fn warm_kernel_reruns_reproduce(
        workloads in proptest::collection::vec(workload(), 1..5),
        model in model_point(),
        family in family_filter(),
    ) {
        let pool = pool_of(&model, family);
        let mut warm = GridEval::new(&model, &pool);
        for (intervals, active) in workloads {
            let spectrum = IntervalSpectrum::from_lengths(&intervals);
            let runs = warm.run(active, &spectrum);
            for (form, got) in pool.iter().zip(runs) {
                let want = spectrum_run(&model, *form, active, &spectrum);
                prop_assert_eq!(bits(got), bits(&want));
            }
        }
    }

    /// Multi-model batches: random models with random (differing)
    /// form lists fused into one kernel, run over random spectra on a
    /// warm kernel. Every item's every form ≡ the scalar evaluator
    /// under that item's model, bit for bit, item-major.
    #[test]
    fn batched_models_equal_scalar_bit_for_bit(
        workloads in proptest::collection::vec(workload(), 1..4),
        models in proptest::collection::vec(model_point(), 1..6),
        item_picks in proptest::collection::vec(
            proptest::collection::vec(0usize..1000, 1..8),
            1..6),
        family in family_filter(),
    ) {
        let pools: Vec<(EnergyModel, Vec<PolicyForm>)> = models
            .iter()
            .zip(item_picks.iter().cycle())
            .map(|(model, picks)| {
                let pool = pool_of(model, family);
                let forms = picks.iter().map(|&ix| pool[ix % pool.len()]).collect();
                (*model, forms)
            })
            .collect();
        let items: Vec<(&EnergyModel, &[PolicyForm])> = pools
            .iter()
            .map(|(model, forms)| (model, forms.as_slice()))
            .collect();
        let mut grid = GridEval::new_batch(&items);
        prop_assert_eq!(
            grid.grid_len(),
            pools.iter().map(|(_, f)| f.len()).sum::<usize>()
        );
        for (intervals, active) in workloads {
            let spectrum = IntervalSpectrum::from_lengths(&intervals);
            let runs = grid.run(active, &spectrum).to_vec();
            let mut i = 0;
            for (model, forms) in &pools {
                for form in forms {
                    let want = spectrum_run(model, *form, active, &spectrum);
                    prop_assert_eq!(bits(&runs[i]), bits(&want));
                    i += 1;
                }
            }
        }
    }

    /// Axis assembly: for forms whose parameters do not vary, the run
    /// at `(p_i, E_slp_j)`, summed over FU spectra in FU order, is the
    /// `(p_i, E_slp_0)` run with `energy.overhead` from the
    /// `(p_0, E_slp_j)` run — bit for bit against the kernel (the
    /// three models in one batch) and against `spectrum_run`. Knobs
    /// include both ends of `[0, 1]`.
    #[test]
    fn axis_assembly_equals_direct_pricing(
        fus in proptest::collection::vec(workload(), 1..4),
        p_i in knob(),
        p_0 in knob(),
        e_j in knob(),
        e_0 in knob(),
        alpha in 0.05f64..=0.95,
        picks in proptest::collection::vec(0usize..1000, 1..12),
    ) {
        let (leak, trans, direct) = (
            model_at(p_i, e_0, alpha),
            model_at(p_0, e_j, alpha),
            model_at(p_i, e_j, alpha),
        );
        let pool = form_pool(&model_at(0.5, 0.5, alpha));
        let forms: Vec<PolicyForm> = picks.iter().map(|&ix| pool[ix % pool.len()]).collect();
        let n = forms.len();
        let mut grid = GridEval::new_batch(&[(&leak, &forms), (&trans, &forms), (&direct, &forms)]);
        let mut totals = vec![PolicyRun::default(); 3 * n];
        let mut scalar = vec![PolicyRun::default(); n];
        for (intervals, active) in &fus {
            let spectrum = IntervalSpectrum::from_lengths(intervals);
            for (total, run) in totals.iter_mut().zip(grid.run(*active, &spectrum)) {
                *total += *run;
            }
            for (total, form) in scalar.iter_mut().zip(&forms) {
                *total += spectrum_run(&direct, *form, *active, &spectrum);
            }
        }
        for k in 0..n {
            let got = assemble_axis_run(&totals[k], &totals[n + k]);
            prop_assert_eq!(bits(&got), bits(&totals[2 * n + k]));
            prop_assert_eq!(bits(&got), bits(&scalar[k]));
        }
    }
}

/// AdaptiveSleep weights that stress the fast path: `1e-12` never
/// lets the predictor settle within a line (the walk runs to the
/// line's end), `0.25` is the experiments' default, and `1 - 2^-52`
/// and `1` keep one ulp of memory or none.
fn adaptive_weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(1e-12),
        Just(0.25),
        Just(1.0 - f64::EPSILON),
        Just(1.0),
        0.001f64..1.0,
    ]
}

prop_compose! {
    /// A light spectrum line: `(where, raw length, count)`; `where`
    /// 0 puts the line at `⌊breakeven⌋`, 1 at `⌊breakeven⌋ + 1`, and
    /// anything else at the raw length. Short raw lengths are drawn
    /// often: they pull the predictor below the breakeven, so a later
    /// line above it flips the decision mid-line, not on its first
    /// interval.
    fn light_line()(
        at in 0u8..4,
        raw in prop_oneof![1u64..16, 1u64..3000],
        count in 1u64..10,
    ) -> (u8, u64, u64) {
        (at, raw, count)
    }
}

prop_compose! {
    /// A heavy spectrum line of 10^4 to 10^6 intervals.
    fn heavy_line()(
        at in 0u8..4,
        raw in 1u64..3000,
        count in prop_oneof![10_000u64..100_000, 100_000u64..=1_000_000],
    ) -> (u8, u64, u64) {
        (at, raw, count)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// AdaptiveSleep on adversarial spectra — huge line counts, lines
    /// at `⌊breakeven⌋` and `⌊breakeven⌋ + 1`, integral and fractional
    /// breakevens, weights near 0 and 1 — priced by `spectrum_run` and
    /// by a mixed-model `GridEval` batch, each bit-identical to the
    /// per-occurrence oracle.
    #[test]
    fn adaptive_fast_path_equals_the_occurrence_oracle(
        models in proptest::collection::vec(model_point(), 1..3),
        weights in proptest::collection::vec(adaptive_weight(), 4..5),
        light in proptest::collection::vec(light_line(), 0..6),
        heavy in heavy_line(),
        active in 0u64..1000,
    ) {
        let mut spectrum = IntervalSpectrum::default();
        for &(at, raw, count) in light.iter().chain([&heavy]) {
            let be = breakeven_interval(&models[raw as usize % models.len()]);
            let floor = be.floor().max(1.0) as u64;
            let length = match at {
                0 => floor,
                1 => floor + 1,
                _ => raw,
            };
            spectrum.record_n(length, count);
        }
        let pools: Vec<(EnergyModel, Vec<PolicyForm>)> = models
            .iter()
            .zip(weights.chunks(2))
            .map(|(model, w)| {
                let be = breakeven_interval(model);
                let forms = vec![
                    PolicyForm::AdaptiveSleep { breakeven: be, weight: w[0] },
                    PolicyForm::MaxSleep,
                    PolicyForm::AdaptiveSleep { breakeven: be.floor().max(1.0), weight: w[1] },
                    PolicyForm::TimeoutSleep { timeout: be as u64 },
                ];
                (*model, forms)
            })
            .collect();
        let items: Vec<(&EnergyModel, &[PolicyForm])> = pools
            .iter()
            .map(|(model, forms)| (model, forms.as_slice()))
            .collect();
        let mut grid = GridEval::new_batch(&items);
        let batch = grid.run(active, &spectrum).to_vec();
        let lengths = spectrum.to_lengths();
        let mut i = 0;
        for (model, forms) in &pools {
            for &form in forms {
                let by_spectrum = spectrum_run(model, form, active, &spectrum);
                prop_assert_eq!(bits(&batch[i]), bits(&by_spectrum));
                if let PolicyForm::AdaptiveSleep { .. } = form {
                    let oracle = intervals_run(model, form, active, &lengths);
                    prop_assert_eq!(bits(&by_spectrum), bits(&oracle));
                }
                i += 1;
            }
        }
    }
}

/// A knob in `[0, 1]`, with both ends drawn often.
fn knob() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), 0.0f64..=1.0]
}

/// An energy model at leakage factor `p`, sleep overhead `e_sleep` and
/// activity `alpha` (paper defaults for `k` and `d`, as the explorer).
fn model_at(p: f64, e_sleep: f64, alpha: f64) -> EnergyModel {
    let tech = TechnologyParams::new(p, DEFAULT_LEAK_RATIO, e_sleep, DEFAULT_DUTY_CYCLE)
        .expect("knobs lie in [0, 1]");
    EnergyModel::new(tech, alpha).expect("alpha in range")
}

/// The assembly check has teeth: taking a knob-dependent field from
/// the wrong row yields a run that differs from direct pricing, so
/// the bitwise comparison above would catch such a rule.
#[test]
fn axis_assembly_detects_a_field_from_the_wrong_row() {
    let (p_i, p_0, e_j, e_0) = (0.7, 0.2, 0.9, 0.1);
    let spectrum = IntervalSpectrum::from_lengths(&[1, 3, 3, 40, 500]);
    for form in [PolicyForm::MaxSleep, PolicyForm::GradualSleep { slices: 4 }] {
        let price = |p, e| spectrum_run(&model_at(p, e, 0.5), form, 50, &spectrum);
        let (leak, trans, direct) = (price(p_i, e_0), price(p_0, e_j), price(p_i, e_j));
        assert_eq!(bits(&assemble_axis_run(&leak, &trans)), bits(&direct));
        let mut wrong = [leak, leak, leak];
        wrong[0].energy.leak_hi = trans.energy.leak_hi;
        wrong[1].energy.leak_lo = trans.energy.leak_lo;
        // `wrong[2]` keeps the leak row's overhead.
        for run in &wrong {
            assert_ne!(bits(run), bits(&direct), "{form:?}");
        }
    }
}
