//! Experiment harness: regenerates every table and figure of
//! *Managing Static Leakage Energy in Microprocessor Functional Units*
//! (MICRO 2002).
//!
//! Each experiment is a function returning typed rows plus a plain-text
//! rendering that mirrors the paper's table/series. The `repro` binary
//! exposes them as subcommands:
//!
//! ```text
//! repro table1            # OR8 gate characterization
//! repro fig3              # sleep vs uncontrolled idle (circuit model)
//! repro fig4a             # breakeven interval vs leakage factor
//! repro fig4b|fig4c|fig4d # closed-form policy energies
//! repro fig5c             # GradualSleep transition energy
//! repro table2            # processor configuration
//! repro table3 [--quick]  # benchmark IPCs and FU selection
//! repro fig7   [--quick]  # idle-interval distribution
//! repro fig8a|fig8b       # per-benchmark policy energies (p=.05/.5)
//! repro fig9a|fig9b       # technology sweep / leakage fraction
//! repro all    [--quick]  # everything
//! repro sweep --bench gzip --int-fus 1:4 --width 2,4 --l2 12,32
//!                         # ad-hoc multi-axis machine sweeps
//! repro explore --leak 0:1:0.02 --transition 0:1:0.02 --slices 1:64
//!                         # grid-batched design-space exploration
//! ```
//!
//! Every subcommand accepts `--jobs N` to bound the scenario engine's
//! worker count (default: all cores; `--jobs 1` forces sequential
//! execution, which is bit-identical to any parallel run). The bound
//! governs the simulation-backed experiments and the Figure 9
//! technology sweep; the remaining closed-form tables are
//! microsecond-scale and always run sequentially. `--budget N`
//! replaces the Full/Quick presets with an explicit per-point
//! instruction count, `--format text|json|csv` selects the stdout
//! view, and `--out DIR` writes `<experiment>.json` and
//! `<experiment>.csv` artifacts for every experiment run.
//!
//! Each experiment implements the [`experiment::Experiment`] trait
//! and returns a typed [`result::ResultTable`]; text, JSON, and CSV
//! are views of that one structure. The simulation-backed
//! experiments share one [`scenario::Engine`]: each (benchmark ×
//! [`fuleak_uarch::MachineConfig`] × budget) point is simulated at
//! most once per process and memoized, so `repro all` reuses the
//! Table 3 points for Figures 7–9 — and ad-hoc `repro sweep` grids
//! over any `CoreConfig` axis share the same caches.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod cli;
pub mod empirical;
pub mod experiment;
pub mod explore;
pub mod harness;
pub mod policy;
pub mod render;
pub mod respcache;
pub mod result;
pub mod scenario;
pub mod serve;
pub mod store;

pub use experiment::{Context, Experiment};
pub use explore::{ExploreResult, ExploreSpec};
pub use harness::{Budget, SuiteResult};
pub use result::{Cell, ResultTable, Value};
pub use scenario::{AnnotationCache, Engine, Scenario, SimCache, SweepSpec};
pub use store::ResultStore;
