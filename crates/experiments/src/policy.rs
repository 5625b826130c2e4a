//! The policy/technology evaluation axes of the experiment layer.
//!
//! A simulation point fixes a benchmark and a machine; which sleep
//! policy prices its idle spectra, and at which technology point, is
//! a *post-simulation* choice. This module makes that choice a value:
//!
//! * [`PolicyKind`] — the policy families of Figures 8/9 plus the
//!   paper's two extension controllers, resolvable to a concrete
//!   [`PolicyForm`] given an energy model (GradualSleep defaults to
//!   breakeven-many slices, the extensions derive their parameters
//!   from the breakeven interval);
//! * [`EvalPoint`] — one cell of the policy × slices × leakage ×
//!   transition-cost design space, buildable into its [`EnergyModel`];
//! * [`PolicyCache`] — the engine's fourth memo layer, one more
//!   instance of [`Memo`]: a policy/technology sweep over simulated
//!   scenarios never re-runs the timing kernel and never re-prices a
//!   point it has seen.
//!
//! Pricing itself is [`fuleak_core::policy_eval::spectrum_run`] — the
//! closed-form evaluator over each FU's `IntervalSpectrum` — so one
//! evaluation is O(distinct interval lengths) per FU for the
//! order-free families, and O(distinct lengths × settle steps) for the
//! history-dependent AdaptiveSleep (canonical ascending order; within
//! one length its predictor moves monotonically, so each line splits
//! into at most two runs of one interval shape, added with an exact
//! k-fold add).

use crate::scenario::{Memo, Scenario};
use fuleak_core::accounting::PolicyRun;
use fuleak_core::policy_eval::{spectrum_run, PolicyForm};
use fuleak_core::tech::{DEFAULT_DUTY_CYCLE, DEFAULT_LEAK_RATIO, DEFAULT_SLEEP_OVERHEAD};
use fuleak_core::{breakeven_interval, EnergyModel, ModelError, TechnologyParams};
use fuleak_uarch::SimResult;

/// The activity factor every policy/technology sweep prices at — the
/// paper's empirical experiments fix `alpha = 0.5`.
pub const EVAL_ALPHA: f64 = 0.5;

/// The EWMA weight [`PolicyKind::AdaptiveSleep`] resolves to (the
/// default suggested by `fuleak_core::policy::AdaptiveSleep`).
pub const ADAPTIVE_WEIGHT: f64 = 0.25;

/// Policy selector for the empirical experiments: the four policies
/// of Figures 8/9 plus the two extension controllers the paper argues
/// are not worth their complexity (`repro policy-ext`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Sleep on every idle cycle.
    MaxSleep,
    /// Staggered slices (breakeven-many by default, per the paper).
    GradualSleep,
    /// Clock gating only.
    AlwaysActive,
    /// The unachievable lower bound.
    NoOverhead,
    /// Wait a breakeven-interval timeout before sleeping.
    TimeoutSleep,
    /// Predict interval lengths; sleep immediately only when the
    /// prediction clears the breakeven.
    AdaptiveSleep,
}

impl PolicyKind {
    /// The four policies of Figures 8 and 9, in bar order.
    pub const PAPER: [PolicyKind; 4] = [
        PolicyKind::MaxSleep,
        PolicyKind::GradualSleep,
        PolicyKind::AlwaysActive,
        PolicyKind::NoOverhead,
    ];

    /// Every policy family, extensions last.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::MaxSleep,
        PolicyKind::GradualSleep,
        PolicyKind::AlwaysActive,
        PolicyKind::NoOverhead,
        PolicyKind::TimeoutSleep,
        PolicyKind::AdaptiveSleep,
    ];

    /// The display name (matches the controllers').
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::MaxSleep => "MaxSleep",
            PolicyKind::GradualSleep => "GradualSleep",
            PolicyKind::AlwaysActive => "AlwaysActive",
            PolicyKind::NoOverhead => "NoOverhead",
            PolicyKind::TimeoutSleep => "TimeoutSleep",
            PolicyKind::AdaptiveSleep => "AdaptiveSleep",
        }
    }

    /// Parses a (case-insensitive) policy name as the `repro sweep
    /// --policy` flag accepts it; `timeout` and `adaptive` are
    /// shorthands for the extension policies.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "maxsleep" => Some(PolicyKind::MaxSleep),
            "gradualsleep" | "gradual" => Some(PolicyKind::GradualSleep),
            "alwaysactive" => Some(PolicyKind::AlwaysActive),
            "nooverhead" => Some(PolicyKind::NoOverhead),
            "timeoutsleep" | "timeout" => Some(PolicyKind::TimeoutSleep),
            "adaptivesleep" | "adaptive" => Some(PolicyKind::AdaptiveSleep),
            _ => None,
        }
    }

    /// The names [`PolicyKind::parse`] accepts, for error messages.
    pub fn known_names() -> String {
        Self::ALL
            .iter()
            .map(|k| k.name().to_ascii_lowercase())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Resolves the family to a concrete [`PolicyForm`] at `model`'s
    /// technology point. `slices` overrides GradualSleep's slice
    /// count (the default is breakeven-many, clamped to `[1, 1024]`,
    /// exactly as Figures 8/9 configure it); the extensions derive
    /// their timeout/prediction parameters from the breakeven
    /// interval.
    pub fn form(self, model: &EnergyModel, slices: Option<u32>) -> PolicyForm {
        match self {
            PolicyKind::MaxSleep => PolicyForm::MaxSleep,
            PolicyKind::AlwaysActive => PolicyForm::AlwaysActive,
            PolicyKind::NoOverhead => PolicyForm::NoOverhead,
            PolicyKind::GradualSleep => PolicyForm::GradualSleep {
                slices: slices
                    .unwrap_or_else(|| breakeven_interval(model).round().clamp(1.0, 1024.0) as u32),
            },
            PolicyKind::TimeoutSleep => PolicyForm::TimeoutSleep {
                // Tolerate one breakeven interval of uncontrolled
                // idle before committing to sleep.
                timeout: breakeven_interval(model).round().clamp(1.0, 1e9) as u64,
            },
            PolicyKind::AdaptiveSleep => PolicyForm::AdaptiveSleep {
                breakeven: breakeven_interval(model).clamp(1e-6, 1e9),
                weight: ADAPTIVE_WEIGHT,
            },
        }
    }

    /// Whether [`PolicyKind::form`] ignores its model for this slice
    /// override: the parameterless families, and GradualSleep with an
    /// explicit slice count. Such a form prices separably over the
    /// technology axes ([`fuleak_core::policy_eval::assemble_axis_run`]).
    pub fn model_free(self, slices: Option<u32>) -> bool {
        match self {
            PolicyKind::MaxSleep | PolicyKind::AlwaysActive | PolicyKind::NoOverhead => true,
            PolicyKind::GradualSleep => slices.is_some(),
            PolicyKind::TimeoutSleep | PolicyKind::AdaptiveSleep => false,
        }
    }
}

/// One cell of the policy/technology design space: a policy family,
/// an optional GradualSleep slice override, and the two energy-model
/// knobs the paper sweeps — the leakage factor `p = E_hi / E_D` (the
/// Figure 9 technology axis) and the per-transition sleep-switch
/// overhead `E_slp / E_D`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalPoint {
    /// The policy family.
    pub policy: PolicyKind,
    /// GradualSleep slice override (`None` = breakeven-many).
    pub slices: Option<u32>,
    /// Leakage factor `p` in `[0, 1]`.
    pub leak: f64,
    /// Sleep-switch overhead fraction `E_slp / E_D` in `[0, 1]`.
    pub transition: f64,
}

impl EvalPoint {
    /// Builds the point's energy model (paper defaults for `k` and
    /// the duty cycle, [`EVAL_ALPHA`] activity).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFraction`] if `leak` or
    /// `transition` falls outside `[0, 1]`.
    pub fn model(&self) -> Result<EnergyModel, ModelError> {
        let tech = TechnologyParams::new(
            self.leak,
            DEFAULT_LEAK_RATIO,
            self.transition,
            DEFAULT_DUTY_CYCLE,
        )?;
        EnergyModel::new(tech, EVAL_ALPHA)
    }

    /// A dedup key: the slice override only matters for GradualSleep,
    /// so e.g. MaxSleep at 4 slices and at 8 slices are the same
    /// point (`f64` knobs compare by bit pattern).
    pub fn key(&self) -> (PolicyKind, Option<u32>, u64, u64) {
        let slices = match self.policy {
            PolicyKind::GradualSleep => self.slices,
            _ => None,
        };
        (
            self.policy,
            slices,
            self.leak.to_bits(),
            self.transition.to_bits(),
        )
    }
}

/// The default value lists an eval axis falls back to when the sweep
/// sets some other eval axis but not this one: the paper's four
/// policies, breakeven-many slices, near-term leakage, and the
/// default sleep overhead.
pub fn default_eval_axes() -> (Vec<PolicyKind>, Vec<Option<u32>>, Vec<f64>, Vec<f64>) {
    (
        PolicyKind::PAPER.to_vec(),
        vec![None],
        vec![TechnologyParams::near_term().leakage_factor()],
        vec![DEFAULT_SLEEP_OVERHEAD],
    )
}

/// Prices one simulated point under a policy: the spectrum evaluator
/// applied per FU and summed — the same quantity
/// [`crate::empirical::benchmark_energy`] reports, in units of the
/// per-FU `E_D`.
pub fn policy_energy_of(model: &EnergyModel, form: PolicyForm, sim: &SimResult) -> PolicyRun {
    let mut total = PolicyRun::default();
    for (fu, spectrum) in sim.fu_idle.iter().enumerate() {
        total += spectrum_run(model, form, sim.fu_active[fu], spectrum);
    }
    total
}

/// The evaluation layer, on top of the [`crate::scenario::SimCache`]:
/// `(scenario, policy form, energy-model fingerprint)` to the
/// scenario's summed-over-FUs [`PolicyRun`]. Keyed by the *resolved*
/// [`PolicyForm`] (slice counts and breakeven-derived parameters
/// included) and by [`EnergyModel::fingerprint`], so distinct
/// technology points never alias.
pub type PolicyCache = Memo<(Scenario, PolicyForm, u64), PolicyRun>;

#[cfg(test)]
mod tests {
    use super::*;
    use fuleak_core::IntervalSpectrum;

    fn near_term_model() -> EnergyModel {
        EnergyModel::new(TechnologyParams::near_term(), EVAL_ALPHA).unwrap()
    }

    #[test]
    fn parse_accepts_every_family_case_insensitively() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
            assert_eq!(
                PolicyKind::parse(&kind.name().to_ascii_uppercase()),
                Some(kind)
            );
        }
        assert_eq!(PolicyKind::parse("timeout"), Some(PolicyKind::TimeoutSleep));
        assert_eq!(
            PolicyKind::parse("adaptive"),
            Some(PolicyKind::AdaptiveSleep)
        );
        assert_eq!(PolicyKind::parse("napmode"), None);
        assert!(PolicyKind::known_names().contains("gradualsleep"));
    }

    #[test]
    fn gradual_form_defaults_to_breakeven_slices_and_accepts_overrides() {
        let m = near_term_model();
        let be = breakeven_interval(&m).round() as u32;
        assert_eq!(
            PolicyKind::GradualSleep.form(&m, None),
            PolicyForm::GradualSleep { slices: be }
        );
        assert_eq!(
            PolicyKind::GradualSleep.form(&m, Some(8)),
            PolicyForm::GradualSleep { slices: 8 }
        );
        // The override is meaningless to other families.
        assert_eq!(PolicyKind::MaxSleep.form(&m, Some(8)), PolicyForm::MaxSleep);
    }

    #[test]
    fn eval_point_models_and_dedups() {
        let p = EvalPoint {
            policy: PolicyKind::MaxSleep,
            slices: Some(4),
            leak: 0.5,
            transition: 0.01,
        };
        let m = p.model().unwrap();
        assert_eq!(m.tech().leakage_factor(), 0.5);
        assert_eq!(m.alpha(), EVAL_ALPHA);
        // Slice overrides collapse for non-gradual policies...
        let q = EvalPoint {
            slices: Some(8),
            ..p
        };
        assert_eq!(p.key(), q.key());
        // ...but not for GradualSleep.
        let g4 = EvalPoint {
            policy: PolicyKind::GradualSleep,
            ..p
        };
        let g8 = EvalPoint {
            policy: PolicyKind::GradualSleep,
            ..q
        };
        assert_ne!(g4.key(), g8.key());
        // Out-of-range knobs surface as model errors.
        assert!(EvalPoint { leak: 1.5, ..p }.model().is_err());
    }

    #[test]
    fn policy_energy_sums_over_fus() {
        let m = near_term_model();
        let sim = SimResult {
            cycles: 100,
            committed: 100,
            fu_idle: vec![
                IntervalSpectrum::from_lengths(&[10, 20]),
                IntervalSpectrum::from_lengths(&[70]),
            ],
            fu_active: vec![70, 30],
            ..SimResult::default()
        };
        let total = policy_energy_of(&m, PolicyForm::MaxSleep, &sim);
        assert_eq!(total.active_cycles, 100);
        assert_eq!(total.sleep_equiv, 100.0);
        assert_eq!(total.transitions_equiv, 3.0);
        assert!((total.total_cycles() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn policy_runs_key_on_the_model_fingerprint() {
        use crate::harness::Budget;
        use crate::scenario::Engine;
        let engine = Engine::sequential();
        let s = Scenario::paper("mst", 2, 12, Budget::Custom(1_000));
        let m = near_term_model();
        let form = PolicyForm::MaxSleep;
        let run = engine.policy_run(&s, form, &m);
        assert_eq!(engine.policy_run(&s, form, &m), run);
        assert_eq!(engine.policy_cache().len(), 1);
        // A different technology point is a different key.
        let other = EnergyModel::new(TechnologyParams::high_leakage(), EVAL_ALPHA).unwrap();
        assert_ne!(other.fingerprint(), m.fingerprint());
        engine.policy_run(&s, form, &other);
        assert_eq!(engine.policy_cache().len(), 2);
        assert_eq!(engine.policy_cache().hits(), 1);
        assert_eq!(engine.policy_cache().misses(), 2);
        assert!(!engine.policy_cache().is_empty());
    }
}
