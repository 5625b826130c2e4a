//! Cross-crate property tests: the analytical model, the cycle-level
//! controllers, and the gate-accurate circuit must all agree.

use fuleak_core::accounting::{account_intervals, simulate_cycles, simulate_intervals};
use fuleak_core::closed_form::{
    always_active, interval_energy, max_sleep, no_overhead, BoundaryPolicy, UsageScenario,
};
use fuleak_core::policy::{AlwaysActive, GradualSleep, MaxSleep, NoOverhead};
use fuleak_core::{breakeven_interval, EnergyModel, TechnologyParams};
use fuleak_domino::fu::{ExpectedFu, FuCircuitConfig};
use fuleak_domino::{FuCircuit, GateCharacterization};
use proptest::prelude::*;

prop_compose! {
    fn model_strategy()(p in 0.01f64..=1.0, alpha in 0.0f64..=1.0) -> EnergyModel {
        EnergyModel::new(TechnologyParams::with_leakage_factor(p).unwrap(), alpha).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interval accounting and cycle-by-cycle controller simulation
    /// agree exactly for every boundary policy.
    #[test]
    fn controllers_match_closed_forms(
        model in model_strategy(),
        intervals in prop::collection::vec(1u64..200, 1..40),
        slices in 1u32..32,
    ) {
        let active = intervals.len() as u64 + 5;
        let cases: Vec<(BoundaryPolicy, Box<dyn fuleak_core::policy::SleepController>)> = vec![
            (BoundaryPolicy::AlwaysActive, Box::new(AlwaysActive)),
            (BoundaryPolicy::MaxSleep, Box::new(MaxSleep::new())),
            (BoundaryPolicy::NoOverhead, Box::new(NoOverhead::new())),
            (BoundaryPolicy::GradualSleep { slices }, Box::new(GradualSleep::new(slices))),
        ];
        for (policy, mut ctrl) in cases {
            let closed = account_intervals(&model, policy, active, &intervals);
            let sim = simulate_intervals(&model, ctrl.as_mut(), active, &intervals);
            prop_assert!(
                (closed.energy.total() - sim.energy.total()).abs() < 1e-9,
                "{policy:?}: {} vs {}", closed.energy.total(), sim.energy.total()
            );
        }
    }

    /// NoOverhead lower-bounds every policy; AlwaysActive and MaxSleep
    /// bracket GradualSleep's total on any workload.
    #[test]
    fn no_overhead_is_global_floor(
        model in model_strategy(),
        intervals in prop::collection::vec(1u64..500, 1..40),
        slices in 1u32..64,
    ) {
        let active = intervals.len() as u64;
        let floor = account_intervals(&model, BoundaryPolicy::NoOverhead, active, &intervals)
            .energy.total();
        for policy in [
            BoundaryPolicy::AlwaysActive,
            BoundaryPolicy::MaxSleep,
            BoundaryPolicy::GradualSleep { slices },
        ] {
            let e = account_intervals(&model, policy, active, &intervals).energy.total();
            prop_assert!(floor <= e + 1e-9, "{policy:?} beat the floor");
        }
    }

    /// Equation (5): at the breakeven interval, sleeping and idling
    /// cost the same.
    #[test]
    fn breakeven_balances_the_tradeoff(model in model_strategy()) {
        let t = breakeven_interval(&model);
        prop_assume!(t.is_finite() && t < 1e6);
        let idle = t * model.uncontrolled_idle_cycle().total();
        let sleep = model.transition().total() + t * model.sleep_cycle().total();
        prop_assert!((idle - sleep).abs() < 1e-9);
    }

    /// The closed-form scenario energies (eqs. 6-8) match per-interval
    /// accounting when idle time arrives in equal intervals.
    #[test]
    fn scenario_equals_interval_sum(
        model in model_strategy(),
        t_idle in 1u64..200,
        n_intervals in 1u64..50,
        extra_active in 0u64..1000,
    ) {
        let active = n_intervals + extra_active;
        let total = active + n_intervals * t_idle;
        let scenario = UsageScenario::new(
            total,
            active as f64 / total as f64,
            t_idle as f64,
        ).unwrap();
        let intervals = vec![t_idle; n_intervals as usize];

        let aa_closed = always_active(&model, &scenario).total();
        let aa_sum = account_intervals(&model, BoundaryPolicy::AlwaysActive, active, &intervals)
            .energy.total();
        prop_assert!((aa_closed - aa_sum).abs() / aa_closed.max(1e-12) < 1e-9);

        // MaxSleep's closed form clamps transitions at n_A; with one
        // active cycle per interval the clamp is inactive.
        let ms_closed = max_sleep(&model, &scenario).total();
        let ms_sum = account_intervals(&model, BoundaryPolicy::MaxSleep, active, &intervals)
            .energy.total();
        prop_assert!((ms_closed - ms_sum).abs() / ms_closed.max(1e-12) < 1e-9);

        let no_closed = no_overhead(&model, &scenario).total();
        let no_sum = account_intervals(&model, BoundaryPolicy::NoOverhead, active, &intervals)
            .energy.total();
        prop_assert!((no_closed - no_sum).abs() / no_closed.max(1e-12) < 1e-9);
    }

    /// The gate-accurate expected-value circuit and the architectural
    /// model agree on idle-interval energies once the model is built
    /// from the gate's own derived parameters.
    #[test]
    fn circuit_matches_architecture_model(
        alpha in 0.0f64..=1.0,
        interval in 0u64..60,
    ) {
        let g = GateCharacterization::dual_vt_sleep_or8();
        let tech = TechnologyParams::new(
            g.energies.leakage_factor(),
            g.energies.leak_ratio(),
            g.energies.sleep_switch_fraction(),
            0.5,
        ).unwrap();
        let model = EnergyModel::new(tech, alpha).unwrap();
        let e_d = 500.0 * g.energies.dynamic.as_fj();

        let mut fu = ExpectedFu::new(FuCircuitConfig::paper_generic_fu()).unwrap();
        fu.evaluate_cycle(alpha).unwrap();
        fu.reset_energy();
        for _ in 0..interval {
            fu.sleep_cycle().unwrap();
        }
        let circuit_fj = fu.energy().total().as_fj();
        let model_fj =
            interval_energy(&model, BoundaryPolicy::MaxSleep, interval).total() * e_d;
        prop_assert!(
            (circuit_fj - model_fj).abs() < 1e-6,
            "interval {interval} alpha {alpha}: circuit {circuit_fj} vs model {model_fj}"
        );
    }

    /// Monte-Carlo gate circuit stays within a few percent of the
    /// expected-value circuit.
    #[test]
    fn stochastic_circuit_tracks_expectation(seed in 0u64..1000) {
        let cfg = FuCircuitConfig::paper_generic_fu();
        let mut mc = FuCircuit::with_seed(cfg, seed).unwrap();
        let mut ev = ExpectedFu::new(cfg).unwrap();
        for _ in 0..30 {
            mc.evaluate_cycle(0.5).unwrap();
            ev.evaluate_cycle(0.5).unwrap();
            for _ in 0..4 {
                mc.idle_cycle().unwrap();
                ev.idle_cycle().unwrap();
            }
            mc.sleep_cycle().unwrap();
            ev.sleep_cycle().unwrap();
        }
        let rel = (mc.energy().total().as_fj() - ev.energy().total().as_fj()).abs()
            / ev.energy().total().as_fj();
        prop_assert!(rel < 0.05, "relative error {rel}");
    }

    /// Energy is monotone in the leakage factor for any fixed workload
    /// under AlwaysActive.
    #[test]
    fn energy_monotone_in_p(
        alpha in 0.0f64..=1.0,
        intervals in prop::collection::vec(1u64..100, 1..20),
    ) {
        let active = intervals.len() as u64;
        let mut prev = 0.0;
        for i in 0..=10 {
            let p = f64::from(i) / 10.0;
            let model = EnergyModel::new(
                TechnologyParams::with_leakage_factor(p).unwrap(),
                alpha,
            ).unwrap();
            let e = account_intervals(&model, BoundaryPolicy::AlwaysActive, active, &intervals)
                .energy.total();
            prop_assert!(e >= prev - 1e-12);
            prev = e;
        }
    }

    /// A cycle stream and its interval decomposition produce the same
    /// recorder statistics and the same energy.
    #[test]
    fn recorder_round_trips_streams(
        pattern in prop::collection::vec(any::<bool>(), 1..500),
    ) {
        let mut rec = fuleak_core::IdleRecorder::new();
        for &busy in &pattern {
            rec.observe(busy);
        }
        rec.finish();
        let active = rec.active_cycles();
        let intervals = rec.spectrum().to_lengths();
        prop_assert_eq!(
            active + intervals.iter().sum::<u64>(),
            pattern.len() as u64
        );

        // Energy from the raw stream equals energy from intervals for
        // a stateless policy (AlwaysActive).
        let model = EnergyModel::new(TechnologyParams::high_leakage(), 0.5).unwrap();
        let from_stream =
            simulate_cycles(&model, &mut AlwaysActive, pattern.iter().copied());
        let from_intervals =
            account_intervals(&model, BoundaryPolicy::AlwaysActive, active, &intervals);
        prop_assert!(
            (from_stream.energy.total() - from_intervals.energy.total()).abs() < 1e-9
        );
    }
}

/// The paper's slice-count choice: on bimodal idle traffic (short
/// bursts mixed with long lulls), breakeven-many GradualSleep slices
/// beat both extremes — one slice (MaxSleep) and 1024 slices (close to
/// AlwaysActive on every interval).
#[test]
fn breakeven_many_slices_beat_both_extremes_on_bimodal_traffic() {
    let model = EnergyModel::new(TechnologyParams::near_term(), 0.5).unwrap();
    let w = fuleak_workloads::synthetic::bimodal_intervals(9, 20_000, 3, 200, 0.2, 4);
    let energy = |slices: u32| {
        account_intervals(
            &model,
            BoundaryPolicy::GradualSleep { slices },
            w.active_cycles,
            &w.idle_intervals,
        )
        .energy
        .total()
    };
    let paper_choice = energy(breakeven_interval(&model).round() as u32);
    assert!(paper_choice < energy(1), "{paper_choice} vs one slice");
    assert!(paper_choice < energy(1024), "{paper_choice} vs 1024 slices");
}
