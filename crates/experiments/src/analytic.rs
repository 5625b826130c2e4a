//! Analytical and circuit-model experiments: Table 1, Figure 3,
//! Figures 4a–4d, Figure 5c.

use crate::result::{Cell, ResultTable};
use fuleak_core::closed_form::{
    always_active, interval_energy, max_computation, max_sleep, no_overhead, BoundaryPolicy,
    UsageScenario,
};
use fuleak_core::{breakeven_interval, EnergyModel, TechnologyParams};
use fuleak_domino::fu::{ExpectedFu, FuCircuitConfig};
use fuleak_domino::GateCharacterization;

/// Renders Table 1: OR8 gate characteristics at 70 nm.
pub fn table1() -> ResultTable {
    let mut t = ResultTable::new(
        "table1",
        "Table 1 — OR8 gate characteristics (70 nm)",
        [
            "Circuit",
            "Eval (ps)",
            "Sleep (ps)",
            "E_dyn (fJ)",
            "LO Lkg (fJ/cyc)",
            "HI Lkg (fJ/cyc)",
            "E_sleep (fJ)",
        ],
    );
    for g in GateCharacterization::table1() {
        let leak_lo = g.energies.leak_lo.as_fj();
        t.row([
            Cell::str(g.name),
            Cell::shortest(g.delays.evaluation.as_ps()),
            g.delays
                .sleep
                .map_or(Cell::str("na"), |s| Cell::shortest(s.as_ps())),
            Cell::shortest(g.energies.dynamic.as_fj()),
            Cell::float_text(leak_lo, format!("{leak_lo:.1e}")),
            Cell::shortest(g.energies.leak_hi.as_fj()),
            if g.has_sleep_mode {
                Cell::shortest(g.energies.sleep_switch.as_fj())
            } else {
                Cell::str("na")
            },
        ]);
    }
    t
}

/// One Figure 3 row: idle-interval length vs energy (pJ) per strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Row {
    /// Idle-interval length in cycles.
    pub interval: u64,
    /// Activity factor.
    pub alpha: f64,
    /// Energy of the idle period left uncontrolled (pJ).
    pub uncontrolled_pj: f64,
    /// Energy of the idle period with the sleep mode entered (pJ).
    pub sleep_pj: f64,
}

/// Figure 3: the 500-gate generic FU circuit, idling vs sleeping, for
/// `alpha` in {0.1, 0.5, 0.9} and intervals 0..=25 cycles.
///
/// Deliberately sequential: the whole sweep is tens of microseconds
/// of closed-form circuit stepping, well below the cost of spawning a
/// [`crate::scenario::parallel_map`] worker pool (measured ~2x slower
/// parallel on this workload). `--jobs` therefore only governs the
/// simulation-backed experiments and the Figure 9 sweep.
pub fn fig3() -> Vec<Fig3Row> {
    let points: Vec<(f64, u64)> = [0.1, 0.5, 0.9]
        .iter()
        .flat_map(|&alpha| (0..=25u64).map(move |interval| (alpha, interval)))
        .collect();
    points
        .into_iter()
        .map(|(alpha, interval)| {
            let idle = {
                let mut fu = ExpectedFu::new(FuCircuitConfig::paper_generic_fu())
                    .expect("paper config is valid");
                fu.evaluate_cycle(alpha).expect("alpha in range");
                fu.reset_energy();
                for _ in 0..interval {
                    fu.idle_cycle().expect("not sleeping");
                }
                fu.energy().total().as_fj() / 1000.0
            };
            let sleep = {
                let mut fu = ExpectedFu::new(FuCircuitConfig::paper_generic_fu())
                    .expect("paper config is valid");
                fu.evaluate_cycle(alpha).expect("alpha in range");
                fu.reset_energy();
                for _ in 0..interval {
                    fu.sleep_cycle().expect("sleep-capable gates");
                }
                fu.energy().total().as_fj() / 1000.0
            };
            Fig3Row {
                interval,
                alpha,
                uncontrolled_pj: idle,
                sleep_pj: sleep,
            }
        })
        .collect()
}

/// Renders Figure 3 as a table.
pub fn fig3_table() -> ResultTable {
    let mut t = ResultTable::new(
        "fig3",
        "Figure 3 — uncontrolled idle vs sleep mode (500-gate FU)",
        ["interval", "alpha", "uncontrolled (pJ)", "sleep mode (pJ)"],
    );
    for r in fig3() {
        t.row([
            Cell::int(r.interval as i64),
            Cell::shortest(r.alpha),
            Cell::float(r.uncontrolled_pj, 3),
            Cell::float(r.sleep_pj, 3),
        ]);
    }
    t
}

/// One Figure 4a row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4aRow {
    /// Leakage factor `p`.
    pub p: f64,
    /// Breakeven interval per activity factor `{0.1, 0.5, 0.9}`.
    pub breakeven: [f64; 3],
}

/// Figure 4a: breakeven idle interval vs leakage factor.
///
/// Deliberately sequential, like [`fig3`]: the hundred closed-form
/// points cost a few microseconds total, below worker-pool spawn
/// overhead.
pub fn fig4a() -> Vec<Fig4aRow> {
    let alphas = [0.1, 0.5, 0.9];
    (1..=100)
        .map(|i| {
            let p = i as f64 / 100.0;
            let tech = TechnologyParams::with_leakage_factor(p).expect("p in range");
            let mut be = [0.0; 3];
            for (b, &a) in be.iter_mut().zip(&alphas) {
                *b = breakeven_interval(&EnergyModel::new(tech, a).expect("alpha in range"));
            }
            Fig4aRow { p, breakeven: be }
        })
        .collect()
}

/// Renders Figure 4a.
pub fn fig4a_table() -> ResultTable {
    let mut t = ResultTable::new(
        "fig4a",
        "Figure 4a — breakeven idle interval vs leakage factor",
        ["p", "t_be(a=0.1)", "t_be(a=0.5)", "t_be(a=0.9)"],
    );
    for r in fig4a() {
        t.row([
            Cell::float(r.p, 2),
            Cell::float(r.breakeven[0], 3),
            Cell::float(r.breakeven[1], 3),
            Cell::float(r.breakeven[2], 3),
        ]);
    }
    t
}

/// One row of Figures 4b–4d: energies relative to `E_max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4PolicyRow {
    /// Leakage factor `p`.
    pub p: f64,
    /// Usage factor `f_U`.
    pub usage: f64,
    /// AlwaysActive relative energy.
    pub always_active: f64,
    /// MaxSleep relative energy.
    pub max_sleep: f64,
    /// NoOverhead relative energy.
    pub no_overhead: f64,
}

/// Figures 4b–4d: closed-form policy energies over the leakage-factor
/// sweep at `alpha = 0.5`, for the given mean idle interval and usage
/// factors.
pub fn fig4_policies(idle_interval: f64, usages: &[f64]) -> Vec<Fig4PolicyRow> {
    let mut rows = Vec::new();
    for i in 0..=100u32 {
        let p = f64::from(i) / 100.0;
        let tech = TechnologyParams::with_leakage_factor(p).expect("p in range");
        let model = EnergyModel::new(tech, 0.5).expect("alpha in range");
        for &f_u in usages {
            let s = UsageScenario::new(1_000_000, f_u, idle_interval).expect("valid scenario");
            let e_max = max_computation(&model, &s);
            rows.push(Fig4PolicyRow {
                p,
                usage: f_u,
                always_active: always_active(&model, &s).total() / e_max,
                max_sleep: max_sleep(&model, &s).total() / e_max,
                no_overhead: no_overhead(&model, &s).total() / e_max,
            });
        }
    }
    rows
}

/// Renders one of Figures 4b–4d (rename via
/// [`ResultTable::named`] for the specific panel).
pub fn fig4_policy_table(idle_interval: f64, usages: &[f64]) -> ResultTable {
    let mut t = ResultTable::new(
        "fig4",
        format!("Figure 4 — policies, idle interval = {idle_interval} cycles"),
        ["p", "f_U", "AlwaysActive", "MaxSleep", "NoOverhead"],
    );
    for r in fig4_policies(idle_interval, usages) {
        t.row([
            Cell::float(r.p, 2),
            Cell::shortest(r.usage),
            Cell::float(r.always_active, 4),
            Cell::float(r.max_sleep, 4),
            Cell::float(r.no_overhead, 4),
        ]);
    }
    t
}

/// One Figure 5c row: idle-interval energy relative to `E_A`
/// (`alpha * E_D`, the mean per-cycle evaluation energy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5cRow {
    /// Idle-interval length in cycles.
    pub interval: u64,
    /// MaxSleep relative energy.
    pub max_sleep: f64,
    /// GradualSleep relative energy.
    pub gradual_sleep: f64,
    /// AlwaysActive relative energy.
    pub always_active: f64,
}

/// Figure 5c: per-interval energies of the three designs at `p = 0.05`,
/// `alpha = 0.5`, with the GradualSleep slice count set to the
/// breakeven interval as the paper prescribes.
pub fn fig5c() -> Vec<Fig5cRow> {
    let tech = TechnologyParams::near_term();
    let model = EnergyModel::new(tech, 0.5).expect("alpha in range");
    let slices = breakeven_interval(&model).round().max(1.0) as u32;
    let e_a = model.alpha(); // E_A = alpha * E_D, in units of E_D
    (0..=100)
        .map(|t| Fig5cRow {
            interval: t,
            max_sleep: interval_energy(&model, BoundaryPolicy::MaxSleep, t).total() / e_a,
            gradual_sleep: interval_energy(&model, BoundaryPolicy::GradualSleep { slices }, t)
                .total()
                / e_a,
            always_active: interval_energy(&model, BoundaryPolicy::AlwaysActive, t).total() / e_a,
        })
        .collect()
}

/// Renders Figure 5c.
pub fn fig5c_table() -> ResultTable {
    let mut t = ResultTable::new(
        "fig5c",
        "Figure 5c — transition energy of the three designs",
        ["interval", "MaxSleep", "GradualSleep", "AlwaysActive"],
    );
    for r in fig5c() {
        t.row([
            Cell::int(r.interval as i64),
            Cell::float(r.max_sleep, 4),
            Cell::float(r.gradual_sleep, 4),
            Cell::float(r.always_active, 4),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_three_rows() {
        let s = table1().render();
        assert!(s.contains("low-Vt OR8"));
        assert!(s.contains("dual-Vt OR8 w/sleep"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    fn fig3_shape_matches_paper() {
        let rows = fig3();
        // Sleep curves plateau; uncontrolled idle grows linearly and
        // crosses near 17 cycles for alpha = 0.1.
        let a01: Vec<&Fig3Row> = rows.iter().filter(|r| r.alpha == 0.1).collect();
        assert!(
            a01[10].sleep_pj > a01[10].uncontrolled_pj,
            "10 cycles: sleep loses"
        );
        assert!(
            a01[20].sleep_pj < a01[20].uncontrolled_pj,
            "20 cycles: sleep wins"
        );
        // Plateau: jump then nearly flat.
        assert!(a01[1].sleep_pj > 9.0);
        assert!((a01[25].sleep_pj - a01[1].sleep_pj) < 0.1);
        // Linear growth of uncontrolled idle.
        let slope1 = a01[2].uncontrolled_pj - a01[1].uncontrolled_pj;
        let slope2 = a01[20].uncontrolled_pj - a01[19].uncontrolled_pj;
        assert!((slope1 - slope2).abs() < 1e-9);
    }

    #[test]
    fn fig3_matches_analytic_model() {
        // The circuit-level numbers must agree with the closed-form
        // interval energies built from the gate's derived (p, k,
        // e_sleep) parameters.
        let g = GateCharacterization::dual_vt_sleep_or8();
        let tech = TechnologyParams::new(
            g.energies.leakage_factor(),
            g.energies.leak_ratio(),
            g.energies.sleep_switch_fraction(),
            0.5,
        )
        .unwrap();
        for &alpha in &[0.1, 0.5, 0.9] {
            let model = EnergyModel::new(tech, alpha).unwrap();
            let e_d_fu = 500.0 * g.energies.dynamic.as_fj(); // whole-FU E_D
            for r in fig3().iter().filter(|r| r.alpha == alpha) {
                let analytic_idle =
                    interval_energy(&model, BoundaryPolicy::AlwaysActive, r.interval).total()
                        * e_d_fu
                        / 1000.0;
                assert!(
                    (analytic_idle - r.uncontrolled_pj).abs() < 1e-6,
                    "idle t={} alpha={alpha}: {} vs {}",
                    r.interval,
                    analytic_idle,
                    r.uncontrolled_pj
                );
                let analytic_sleep =
                    interval_energy(&model, BoundaryPolicy::MaxSleep, r.interval).total() * e_d_fu
                        / 1000.0;
                assert!(
                    (analytic_sleep - r.sleep_pj).abs() < 1e-6,
                    "sleep t={} alpha={alpha}: {} vs {}",
                    r.interval,
                    analytic_sleep,
                    r.sleep_pj
                );
            }
        }
    }

    #[test]
    fn fig4a_shape() {
        let rows = fig4a();
        // Breakeven falls ~1/p and is alpha-insensitive.
        let at = |p: f64| rows.iter().find(|r| (r.p - p).abs() < 1e-9).unwrap();
        assert!(at(0.05).breakeven[1] > 15.0 && at(0.05).breakeven[1] < 25.0);
        assert!(at(0.5).breakeven[1] < 3.0);
        let r = at(0.1);
        assert!(r.breakeven[2] / r.breakeven[0] < 1.2);
    }

    #[test]
    fn fig4b_crossover() {
        let rows = fig4_policies(10.0, &[0.1]);
        let at = |p: f64| {
            rows.iter()
                .find(|r| (r.p - p).abs() < 1e-9)
                .copied()
                .unwrap()
        };
        // Small p: MaxSleep loses; large p: MaxSleep wins big.
        assert!(at(0.02).max_sleep > at(0.02).always_active);
        assert!(at(0.5).max_sleep < at(0.5).always_active);
        // NoOverhead is the floor everywhere.
        for r in &rows {
            assert!(r.no_overhead <= r.max_sleep + 1e-12);
            assert!(r.no_overhead <= r.always_active + 1e-12);
        }
    }

    #[test]
    fn fig4d_worst_case_exceeds_baseline() {
        // Alternating active/idle in the no-leakage limit: the
        // transition overhead pushes MaxSleep above the
        // 100%-computation baseline (Figure 4d's left edge).
        let rows = fig4_policies(1.0, &[0.5]);
        let low_p = rows.iter().find(|r| r.p == 0.0).unwrap();
        assert!(low_p.max_sleep > 1.0, "max_sleep {}", low_p.max_sleep);
        // And MaxSleep stays at or above AlwaysActive across the sweep.
        for r in &rows {
            assert!(r.max_sleep >= r.always_active - 1e-9, "p = {}", r.p);
        }
    }

    #[test]
    fn fig5c_shape() {
        let rows = fig5c();
        // MaxSleep jumps to ~1.02 at t=1 and stays flat.
        assert!((rows[1].max_sleep - 1.02).abs() < 0.05);
        // GradualSleep below MaxSleep for short intervals, below
        // AlwaysActive for long ones, above both near breakeven (~20).
        assert!(rows[2].gradual_sleep < rows[2].max_sleep);
        assert!(rows[100].gradual_sleep < rows[100].always_active);
        assert!(rows[20].gradual_sleep > rows[20].max_sleep);
        assert!(rows[20].gradual_sleep > rows[20].always_active);
    }

    #[test]
    fn tables_render() {
        assert!(fig3_table().render().contains("uncontrolled"));
        assert!(fig4a_table().render().contains("t_be"));
        assert!(fig4_policy_table(10.0, &[0.1, 0.9])
            .render()
            .contains("MaxSleep"));
        assert!(fig5c_table().render().contains("GradualSleep"));
    }
}
