//! Cycle-level trace-driven out-of-order superscalar timing simulator
//! modeled after the Alpha 21264, as configured in Table 2 of
//! *Managing Static Leakage Energy in Microprocessor Functional Units*
//! (MICRO 2002).
//!
//! The paper's empirical methodology runs SimpleScalar (modified with
//! separate reorder buffer, integer queue, floating-point queue, and
//! load/store queue, like the 21264) and records, per integer
//! functional unit, precise idle-interval statistics that drive the
//! energy model. This crate reproduces that substrate:
//!
//! * **front end** — 4-wide fetch through a 8-entry fetch queue, a
//!   combining branch predictor (bimodal 2048 + two-level gshare with
//!   10 bits of history and 4096 second-level counters, 1024-entry
//!   meta table), a 4096-set 2-way BTB, a 32-entry return-address
//!   stack, 64 KiB 4-way L1 I-cache and a 256-entry ITLB;
//! * **out-of-order core** — 4-wide rename limited by 96 physical
//!   registers per file, 128-entry ROB, separate 32-entry integer and
//!   floating-point issue queues, 32+32-entry load/store queues with
//!   store-to-load forwarding, 4-wide issue and commit;
//! * **integer functional units** — a configurable pool (the paper
//!   studies 1–4) allocated **round-robin** (Section 4), with per-unit
//!   busy/idle interval recording;
//! * **memory** — 64 KiB 4-way L1 D-cache (2 cycles), 2 MiB 8-way
//!   unified L2 (12 cycles; the paper also studies 32), 80-cycle
//!   memory, 512-entry DTLB with 30-cycle misses, and a bounded number
//!   of outstanding misses (MSHRs).
//!
//! The simulator consumes the [`fuleak_workloads::TraceRecord`] stream
//! and produces a [`SimResult`] with IPC, per-FU idle intervals, and
//! cache/branch statistics.
//!
//! # Example
//!
//! ```
//! use fuleak_uarch::{CoreConfig, Simulator};
//! use fuleak_workloads::Benchmark;
//!
//! let bench = Benchmark::by_name("mst").unwrap();
//! let mut machine = bench.instantiate();
//! let trace = machine.run(50_000).map(|r| r.expect("valid trace"));
//! let result = Simulator::new(CoreConfig::alpha21264()).unwrap().run(trace);
//! assert!(result.ipc() > 0.1 && result.ipc() <= 4.0);
//! assert_eq!(result.fu_idle.len(), 4); // four integer FUs by default
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotate;
pub mod bpred;
pub mod cache;
pub mod config;
pub mod machine;
pub mod pipeline;
pub mod resources;
pub mod stats;
pub mod timing;

// The deterministic hot-loop hasher lives in `fuleak-core` so every
// crate shares one definition; re-exported here for the pipeline's
// internal `crate::fxhash::` paths and for downstream convenience.
pub use fuleak_core::fxhash;

pub use annotate::annotate;
pub use config::{ConfigError, CoreConfig};
pub use machine::MachineConfig;
pub use pipeline::Simulator;
pub use stats::{BranchStats, CacheStats, SimResult};
pub use timing::TimingKernel;
