//! The architecture-level energy model — equations (1)–(3) of the
//! paper.
//!
//! A functional unit's run time divides into three cycle categories:
//! **active** cycles (the FU evaluates), **uncontrolled idle** cycles
//! (clock-gated, Sleep de-asserted — the nodes leak at whatever state
//! the last evaluation left them in), and **sleep** cycles (Sleep
//! asserted — every node in the low-leakage state). Transitions into
//! sleep pay the discharge of the `1 - alpha` node fraction plus the
//! sleep-driver overhead.
//!
//! All energies here are *normalized to `E_D`*, the maximum dynamic
//! energy the whole FU can dissipate in one cycle (the equation (3)
//! form). Multiply by a concrete `E_D` in femtojoules to recover
//! absolute units (equation (2)).

use crate::error::{check_fraction, ModelError};
use crate::tech::TechnologyParams;
use std::fmt;
use std::ops::{Add, AddAssign, Mul};

/// Cycle-category counts for one functional unit over a run —
/// `n_A`, `n_UI`, `n_S`, and the number of sleep transitions `n_tr`
/// from equation (1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleCounts {
    /// Active (computing) cycles, `n_A`.
    pub active: u64,
    /// Uncontrolled idle (clock-gated, not sleeping) cycles, `n_UI`.
    pub uncontrolled_idle: u64,
    /// Sleep-mode cycles, `n_S`.
    pub sleep: u64,
    /// Number of transitions into the sleep mode, `n_tr`.
    pub transitions: u64,
}

impl CycleCounts {
    /// Total cycles across the three categories.
    pub fn total(&self) -> u64 {
        self.active + self.uncontrolled_idle + self.sleep
    }
}

/// An energy breakdown in units of `E_D` (the FU's maximum per-cycle
/// dynamic energy).
///
/// The categories mirror the terms of equation (1): dynamic switching,
/// leakage in the high-leakage (charged) and low-leakage (discharged)
/// node states, the forced-discharge cost of sleep transitions, and the
/// sleep-driver switching overhead.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NormalizedEnergy {
    /// Dynamic switching energy of evaluations (`alpha * n_A`).
    pub dynamic: f64,
    /// Leakage accumulated in the high-leakage state.
    pub leak_hi: f64,
    /// Leakage accumulated in the low-leakage state.
    pub leak_lo: f64,
    /// Forced-discharge energy of sleep transitions (`(1-alpha)` per
    /// transition).
    pub transition: f64,
    /// Sleep transistor/driver overhead (`e_sleep` per transition).
    pub overhead: f64,
}

impl NormalizedEnergy {
    /// An all-zero breakdown.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Total energy in units of `E_D`.
    pub fn total(&self) -> f64 {
        self.total_before_overhead() + self.overhead
    }

    /// The left-associated partial sum [`NormalizedEnergy::total`]
    /// adds `overhead` to last, so `total_before_overhead() + overhead`
    /// is `total()` bit for bit.
    pub fn total_before_overhead(&self) -> f64 {
        self.dynamic + self.leak_hi + self.leak_lo + self.transition
    }

    /// Static (leakage) energy only. Following the paper's Figure 9b
    /// accounting, the sleep-transition discharge and driver overhead
    /// are *dynamic* costs, not leakage.
    pub fn leakage(&self) -> f64 {
        self.leak_hi + self.leak_lo
    }

    /// Fraction of the total energy that is leakage (Figure 9b).
    /// Returns `None` when the total is zero.
    pub fn leakage_fraction(&self) -> Option<f64> {
        let t = self.total();
        (t != 0.0).then(|| self.leakage() / t)
    }

    /// Converts to absolute femtojoules given the FU's `E_D`.
    pub fn to_femtojoules(&self, e_dynamic_fj: f64) -> f64 {
        self.total() * e_dynamic_fj
    }
}

impl Add for NormalizedEnergy {
    type Output = NormalizedEnergy;
    fn add(self, rhs: Self) -> Self {
        NormalizedEnergy {
            dynamic: self.dynamic + rhs.dynamic,
            leak_hi: self.leak_hi + rhs.leak_hi,
            leak_lo: self.leak_lo + rhs.leak_lo,
            transition: self.transition + rhs.transition,
            overhead: self.overhead + rhs.overhead,
        }
    }
}

impl AddAssign for NormalizedEnergy {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Mul<f64> for NormalizedEnergy {
    type Output = NormalizedEnergy;
    fn mul(self, s: f64) -> Self {
        NormalizedEnergy {
            dynamic: self.dynamic * s,
            leak_hi: self.leak_hi * s,
            leak_lo: self.leak_lo * s,
            transition: self.transition * s,
            overhead: self.overhead * s,
        }
    }
}

impl fmt::Display for NormalizedEnergy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "E/E_D = {:.4} (dyn {:.4}, leak_hi {:.4}, leak_lo {:.4}, tr {:.4}, ovh {:.4})",
            self.total(),
            self.dynamic,
            self.leak_hi,
            self.leak_lo,
            self.transition,
            self.overhead
        )
    }
}

/// The energy model of equations (1)–(3), specialized to a technology
/// point and an activity factor.
///
/// # Example
///
/// ```
/// use fuleak_core::{CycleCounts, EnergyModel, TechnologyParams};
///
/// # fn main() -> Result<(), fuleak_core::ModelError> {
/// let model = EnergyModel::new(TechnologyParams::near_term(), 0.5)?;
/// let counts = CycleCounts {
///     active: 800,
///     uncontrolled_idle: 200,
///     sleep: 0,
///     transitions: 0,
/// };
/// let e = model.total_energy(&counts);
/// // Active cycles dominate: ~0.5 E_D of dynamic energy per cycle.
/// assert!((e.dynamic - 400.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    tech: TechnologyParams,
    alpha: f64,
}

impl EnergyModel {
    /// Builds a model for technology `tech` at activity factor `alpha`
    /// (the fraction of domino nodes a typical evaluation discharges).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidFraction`] if `alpha` is outside
    /// `[0, 1]`.
    pub fn new(tech: TechnologyParams, alpha: f64) -> Result<Self, ModelError> {
        check_fraction("alpha (activity factor)", alpha)?;
        Ok(EnergyModel { tech, alpha })
    }

    /// The technology parameters.
    pub fn tech(&self) -> &TechnologyParams {
        &self.tech
    }

    /// The activity factor `alpha`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Energy of one **active** cycle, in units of `E_D`:
    /// `alpha + (1-d)·p + d·(alpha·k·p + (1-alpha)·p)`.
    ///
    /// The three terms are the dynamic evaluation energy, the
    /// high-leakage precharge phase, and the post-evaluation leakage at
    /// the `alpha`-mixed node states for the clock-high fraction.
    pub fn active_cycle(&self) -> NormalizedEnergy {
        let (p, k, d, a) = self.pkda();
        NormalizedEnergy {
            dynamic: a,
            leak_hi: (1.0 - d) * p + d * (1.0 - a) * p,
            leak_lo: d * a * k * p,
            ..NormalizedEnergy::zero()
        }
    }

    /// Energy of one **uncontrolled idle** cycle, in units of `E_D`:
    /// `alpha·k·p + (1-alpha)·p` (the clock is gated, so the full
    /// period leaks at the last evaluation's node mix).
    pub fn uncontrolled_idle_cycle(&self) -> NormalizedEnergy {
        let (p, k, _, a) = self.pkda();
        NormalizedEnergy {
            leak_hi: (1.0 - a) * p,
            leak_lo: a * k * p,
            ..NormalizedEnergy::zero()
        }
    }

    /// Energy of one **sleep** cycle, in units of `E_D`: `k·p` (every
    /// node in the low-leakage state).
    pub fn sleep_cycle(&self) -> NormalizedEnergy {
        let (p, k, _, _) = self.pkda();
        NormalizedEnergy {
            leak_lo: k * p,
            ..NormalizedEnergy::zero()
        }
    }

    /// Energy of one **transition** into the sleep mode, in units of
    /// `E_D`: `(1-alpha) + e_sleep` (discharging the nodes the last
    /// evaluation left charged, plus the sleep-driver overhead).
    pub fn transition(&self) -> NormalizedEnergy {
        NormalizedEnergy {
            transition: 1.0 - self.alpha,
            overhead: self.tech.sleep_overhead(),
            ..NormalizedEnergy::zero()
        }
    }

    /// Equation (3): total energy of a run described by `counts`, in
    /// units of `E_D`.
    pub fn total_energy(&self, counts: &CycleCounts) -> NormalizedEnergy {
        self.active_cycle() * counts.active as f64
            + self.uncontrolled_idle_cycle() * counts.uncontrolled_idle as f64
            + self.sleep_cycle() * counts.sleep as f64
            + self.transition() * counts.transitions as f64
    }

    /// Equation (9): the baseline energy `E_max` of a run of `total`
    /// cycles in which the FU computes every cycle (`n_A = T`), in
    /// units of `E_D`. Figures 8a/8b normalize to this.
    ///
    /// `total_cycles` is an `f64` because policies like GradualSleep
    /// split single cycles across circuit slices, producing fractional
    /// cycle-equivalents; rounding them to an integer here would skew
    /// the normalization.
    pub fn max_energy(&self, total_cycles: f64) -> f64 {
        self.active_cycle().total() * total_cycles
    }

    /// A canonical FNV-1a fingerprint over the model's five scalars
    /// (`p`, `k`, `e_sleep`, `d`, `alpha` — IEEE-754 bit patterns in
    /// that fixed order), platform- and hasher-independent. Equal
    /// models fingerprint equal, so the value can key policy-energy
    /// memo tables the same way `MachineConfig::fingerprint` keys
    /// simulation caches.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for value in [
            self.tech.leakage_factor(),
            self.tech.leak_ratio(),
            self.tech.sleep_overhead(),
            self.tech.duty_cycle(),
            self.alpha,
        ] {
            for byte in value.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
        hash
    }

    fn pkda(&self) -> (f64, f64, f64, f64) {
        (
            self.tech.leakage_factor(),
            self.tech.leak_ratio(),
            self.tech.duty_cycle(),
            self.alpha,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(p: f64, alpha: f64) -> EnergyModel {
        EnergyModel::new(TechnologyParams::with_leakage_factor(p).unwrap(), alpha).unwrap()
    }

    #[test]
    fn rejects_bad_alpha() {
        let t = TechnologyParams::near_term();
        assert!(EnergyModel::new(t, -0.1).is_err());
        assert!(EnergyModel::new(t, 1.5).is_err());
        assert!(EnergyModel::new(t, f64::NAN).is_err());
    }

    #[test]
    fn active_cycle_terms() {
        // p = 0.5, alpha = 0.5, k = 0.001, d = 0.5:
        // dynamic = 0.5
        // leak_hi = 0.5*0.5 + 0.5*0.5*0.5 = 0.375
        // leak_lo = 0.5*0.5*0.001*0.5 = 0.000125
        let e = model(0.5, 0.5).active_cycle();
        assert!((e.dynamic - 0.5).abs() < 1e-12);
        assert!((e.leak_hi - 0.375).abs() < 1e-12);
        assert!((e.leak_lo - 0.000125).abs() < 1e-12);
        assert!((e.total() - 0.875125).abs() < 1e-12);
    }

    #[test]
    fn idle_cycle_terms() {
        let e = model(0.5, 0.5).uncontrolled_idle_cycle();
        assert!((e.leak_hi - 0.25).abs() < 1e-12);
        assert!((e.leak_lo - 0.00025).abs() < 1e-12);
        assert_eq!(e.dynamic, 0.0);
    }

    #[test]
    fn sleep_cycle_terms() {
        let e = model(0.5, 0.5).sleep_cycle();
        assert!((e.leak_lo - 0.0005).abs() < 1e-12);
        assert_eq!(e.leak_hi, 0.0);
    }

    #[test]
    fn transition_terms() {
        let e = model(0.5, 0.1).transition();
        assert!((e.transition - 0.9).abs() < 1e-12);
        assert!((e.overhead - 0.01).abs() < 1e-12);
    }

    #[test]
    fn sleeping_leaks_less_than_idling_which_leaks_less_than_active() {
        for p in [0.01, 0.05, 0.5, 1.0] {
            for alpha in [0.1, 0.5, 0.9] {
                let m = model(p, alpha);
                assert!(m.sleep_cycle().total() < m.uncontrolled_idle_cycle().total());
                assert!(m.uncontrolled_idle_cycle().total() < m.active_cycle().total());
            }
        }
    }

    #[test]
    fn total_energy_is_linear_in_counts() {
        let m = model(0.5, 0.5);
        let c1 = CycleCounts {
            active: 10,
            uncontrolled_idle: 5,
            sleep: 3,
            transitions: 1,
        };
        let c2 = CycleCounts {
            active: 20,
            uncontrolled_idle: 10,
            sleep: 6,
            transitions: 2,
        };
        let e1 = m.total_energy(&c1).total();
        let e2 = m.total_energy(&c2).total();
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
    }

    #[test]
    fn max_energy_equals_all_active() {
        let m = model(0.3, 0.4);
        let counts = CycleCounts {
            active: 1000,
            ..CycleCounts::default()
        };
        assert!((m.max_energy(1000.0) - m.total_energy(&counts).total()).abs() < 1e-9);
    }

    #[test]
    fn counts_total() {
        let c = CycleCounts {
            active: 1,
            uncontrolled_idle: 2,
            sleep: 3,
            transitions: 99, // transitions are events, not cycles
        };
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn normalized_energy_algebra() {
        let a = NormalizedEnergy {
            dynamic: 1.0,
            leak_hi: 2.0,
            leak_lo: 3.0,
            transition: 4.0,
            overhead: 5.0,
        };
        assert_eq!(a.total(), 15.0);
        assert_eq!(a.leakage(), 5.0);
        assert!((a.leakage_fraction().unwrap() - 5.0 / 15.0).abs() < 1e-12);
        assert_eq!((a + a).total(), 30.0);
        assert_eq!((a * 2.0).total(), 30.0);
        let mut acc = NormalizedEnergy::zero();
        acc += a;
        assert_eq!(acc, a);
        assert_eq!(NormalizedEnergy::zero().leakage_fraction(), None);
        assert_eq!(a.to_femtojoules(22.2), 15.0 * 22.2);
    }

    #[test]
    fn fingerprint_separates_every_parameter() {
        let base = model(0.5, 0.5);
        assert_eq!(base.fingerprint(), model(0.5, 0.5).fingerprint());
        assert_ne!(base.fingerprint(), model(0.05, 0.5).fingerprint());
        assert_ne!(base.fingerprint(), model(0.5, 0.25).fingerprint());
        let custom =
            EnergyModel::new(TechnologyParams::new(0.5, 0.002, 0.01, 0.5).unwrap(), 0.5).unwrap();
        assert_ne!(base.fingerprint(), custom.fingerprint(), "k must matter");
        let overhead =
            EnergyModel::new(TechnologyParams::new(0.5, 0.001, 0.02, 0.5).unwrap(), 0.5).unwrap();
        assert_ne!(
            base.fingerprint(),
            overhead.fingerprint(),
            "e_sleep must matter"
        );
    }

    #[test]
    fn display_shows_total() {
        let m = model(0.5, 0.5);
        let s = m.active_cycle().to_string();
        assert!(s.contains("E/E_D"));
    }

    #[test]
    fn leakage_fraction_grows_with_p() {
        // Figure 9b's premise: the AlwaysActive leakage fraction rises
        // with the technology leakage factor.
        let counts = CycleCounts {
            active: 500,
            uncontrolled_idle: 500,
            sleep: 0,
            transitions: 0,
        };
        let f_small = model(0.05, 0.5)
            .total_energy(&counts)
            .leakage_fraction()
            .unwrap();
        let f_large = model(0.5, 0.5)
            .total_energy(&counts)
            .leakage_fraction()
            .unwrap();
        assert!(f_small < f_large);
    }

    #[test]
    fn paper_figure9b_anchor_points() {
        // Figure 9b: for AlwaysActive at ~47% idle (the suite average),
        // leakage is ~13% of total at p = 0.05 and ~60% at p = 0.5.
        let counts = CycleCounts {
            active: 532,
            uncontrolled_idle: 468,
            sleep: 0,
            transitions: 0,
        };
        let f005 = model(0.05, 0.5)
            .total_energy(&counts)
            .leakage_fraction()
            .unwrap();
        assert!((0.08..=0.18).contains(&f005), "p=0.05: {f005}");
        let f05 = model(0.5, 0.5)
            .total_energy(&counts)
            .leakage_fraction()
            .unwrap();
        assert!((0.5..=0.7).contains(&f05), "p=0.5: {f05}");
    }
}
