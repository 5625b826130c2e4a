//! Phase 1 of the two-phase simulation: geometry annotation.
//!
//! [`annotate`] walks an [`EncodedTrace`] once and resolves every
//! per-record outcome that depends only on trace order and the
//! machine's **front-end geometry** (the fields covered by
//! [`crate::machine::frontend_fingerprint`]):
//!
//! * branch direction/target prediction through the combining
//!   predictor, BTB, and RAS — emitted as per-record mispredict and
//!   fetch-group-end flags plus whole-trace branch totals;
//! * I-side fetch behavior — line-change detection plus ITLB and L1I
//!   hit/miss flags (the *latencies* those misses cost are timing
//!   axes and stay in the kernel);
//! * store→load matching — for each load, the ordinal of the youngest
//!   earlier store to the same address (whether that store actually
//!   *forwards* is a timing comparison the kernel performs);
//! * scheduling metadata — operation kind and register codes repacked
//!   so the kernel never materializes a [`TraceRecord`].
//!
//! The output is a pure function of `(trace, front-end geometry)`:
//! the scenario engine memoizes one [`AnnotatedTrace`] per
//! `(benchmark, budget, frontend_fingerprint)` and replays it across
//! every timing-axis variation (FU counts, widths, ROB and queue
//! sizes, latencies, D-side geometry), which is what makes the
//! paper's FU × L2-latency grid annotate each benchmark exactly once.
//!
//! D-side hit levels are deliberately *not* annotated: whether a load
//! accesses the D-cache at all depends on store-forwarding, which is
//! resolved by timing — see `DESIGN.md` ("what is geometry, what is
//! timing") for why exactness forces that split.

use crate::bpred::{Btb, CombiningPredictor, Ras};
use crate::cache::{Cache, Tlb};
use crate::config::CoreConfig;
use crate::fxhash::FxHashMap;
use fuleak_workloads::annotated::{
    AnnotatedTrace, DST_SHIFT, FLAG_ENDS_GROUP, FLAG_ITLB_MISS, FLAG_L1I_MISS, FLAG_MISPREDICT,
    FLAG_NEW_LINE, KIND_FP, KIND_INT, KIND_LOAD, KIND_MUL, KIND_NOP, KIND_STORE, NO_STORE_MATCH,
    REG_FP_BIT, REG_INT_BIT, SRC0_SHIFT, SRC1_SHIFT,
};
use fuleak_workloads::{ArchReg, EncodedTrace, OpClass, TraceRecord};

fn reg_code(reg: Option<ArchReg>) -> u32 {
    match reg {
        None => 0,
        Some(ArchReg::Int(r)) => {
            debug_assert!(r < 64, "encoded traces carry registers below 64");
            REG_INT_BIT | u32::from(r)
        }
        Some(ArchReg::Fp(r)) => {
            debug_assert!(r < 64, "encoded traces carry registers below 64");
            REG_FP_BIT | u32::from(r)
        }
    }
}

fn kind_of(op: OpClass) -> u32 {
    match op {
        OpClass::Nop => KIND_NOP,
        OpClass::IntMul => KIND_MUL,
        OpClass::FpAdd | OpClass::FpMul => KIND_FP,
        OpClass::Load => KIND_LOAD,
        OpClass::Store => KIND_STORE,
        // ALU and every control class: single-cycle integer timing.
        _ => KIND_INT,
    }
}

/// The front-end state driven over the trace — exactly the structures
/// `Simulator` consults before the issue stage, built from exactly
/// the geometry fields.
struct Frontend {
    predictor: CombiningPredictor,
    btb: Btb,
    ras: Ras,
    itlb: Tlb,
    l1i: Cache,
}

impl Frontend {
    fn new(cfg: &CoreConfig) -> Self {
        Frontend {
            predictor: CombiningPredictor::new(
                cfg.bimodal_entries,
                cfg.l1_history_entries,
                cfg.history_bits,
                cfg.l2_counter_entries,
                cfg.meta_entries,
            ),
            btb: Btb::new(cfg.btb_sets, cfg.btb_ways),
            ras: Ras::new(cfg.ras_entries),
            itlb: Tlb::new(cfg.itlb),
            l1i: Cache::new(cfg.l1i),
        }
    }

    /// Predicts and trains on one control record, mirroring
    /// `Simulator::predict_and_train` operation for operation.
    fn predict_and_train(&mut self, rec: &TraceRecord) -> bool {
        let info = rec.branch.expect("control instructions carry branch info");
        let actual_taken = info.taken;
        let actual_target = info.next_pc;
        let (predicted_taken, predicted_target) = match rec.op {
            OpClass::CondBranch => (self.predictor.predict(rec.pc), self.btb.lookup(rec.pc)),
            OpClass::Return => (true, self.ras.pop()),
            _ => (true, self.btb.lookup(rec.pc)),
        };
        let correct = if actual_taken {
            predicted_taken && predicted_target == Some(actual_target)
        } else {
            !predicted_taken
        };
        if rec.op == OpClass::CondBranch {
            self.predictor.update(rec.pc, actual_taken);
        }
        if rec.op == OpClass::Call {
            self.ras.push(rec.fallthrough());
        }
        if actual_taken && rec.op != OpClass::Return {
            self.btb.update(rec.pc, actual_target);
        }
        correct
    }
}

/// Annotates `trace` against the front-end geometry of `cfg`.
///
/// Only the geometry fields of `cfg` are read (see the
/// [module docs](self)); two configurations with equal
/// [`crate::machine::frontend_fingerprint`]s produce identical
/// annotations, which is the contract the engine's annotation cache
/// is keyed on.
pub fn annotate(cfg: &CoreConfig, trace: &EncodedTrace) -> AnnotatedTrace {
    let line_bytes = cfg.l1i.line_bytes;
    let mut fe = Frontend::new(cfg);
    let mut out = AnnotatedTrace::with_capacity(trace.len());
    // Youngest store ordinal per address, matching the direct path's
    // `store_ready` map resolution (latest earlier store wins).
    let mut last_store: FxHashMap<u64, u32> = FxHashMap::default();
    let mut last_line: Option<u64> = None;
    let mut branches = 0u64;
    let mut mispredicts = 0u64;
    for rec in trace {
        let mut meta = kind_of(rec.op)
            | reg_code(rec.dst) << DST_SHIFT
            | reg_code(rec.srcs[0]) << SRC0_SHIFT
            | reg_code(rec.srcs[1]) << SRC1_SHIFT;

        // I-side: probe the ITLB and L1I only when the fetch crosses
        // into a new line, exactly like the direct path.
        let line = rec.byte_pc() / line_bytes;
        if last_line != Some(line) {
            last_line = Some(line);
            meta |= FLAG_NEW_LINE;
            let misses_before = fe.itlb.misses();
            fe.itlb.translate(rec.byte_pc());
            if fe.itlb.misses() != misses_before {
                meta |= FLAG_ITLB_MISS;
            }
            if !fe.l1i.access(rec.byte_pc()) {
                meta |= FLAG_L1I_MISS;
            }
        }

        // Control flow: resolve the prediction now; the kernel only
        // replays the resulting fetch-frontier arithmetic.
        if rec.op.is_control() {
            branches += 1;
            let correct = fe.predict_and_train(&rec);
            if !correct {
                mispredicts += 1;
                meta |= FLAG_MISPREDICT;
            } else if rec.next_pc() != rec.fallthrough() {
                meta |= FLAG_ENDS_GROUP;
            }
        }

        // Memory: record the address stream and, per load, the
        // youngest earlier store to the same address.
        match rec.op {
            OpClass::Load => {
                let addr = rec.mem_addr.expect("loads carry an address");
                out.push_mem_addr(addr);
                out.push_store_match(last_store.get(&addr).copied().unwrap_or(NO_STORE_MATCH));
            }
            OpClass::Store => {
                let addr = rec.mem_addr.expect("stores carry an address");
                out.push_mem_addr(addr);
                let ordinal = out.stores() as u32;
                last_store.insert(addr, ordinal);
                out.count_store();
            }
            _ => {}
        }

        out.push_meta(meta);
    }
    out.set_totals(branches, mispredicts, fe.l1i.misses(), fe.itlb.misses());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuleak_workloads::{Benchmark, BranchInfo};

    fn encoded(records: &[TraceRecord]) -> EncodedTrace {
        let mut t = EncodedTrace::new();
        for r in records {
            t.push(r);
        }
        t
    }

    fn load(pc: u32, addr: u64) -> TraceRecord {
        TraceRecord {
            pc,
            op: OpClass::Load,
            dst: Some(ArchReg::Int(1)),
            srcs: [None, None],
            mem_addr: Some(addr),
            branch: None,
        }
    }

    fn store(pc: u32, addr: u64) -> TraceRecord {
        TraceRecord {
            pc,
            op: OpClass::Store,
            dst: None,
            srcs: [None, None],
            mem_addr: Some(addr),
            branch: None,
        }
    }

    #[test]
    fn store_matching_names_the_youngest_earlier_store() {
        let trace = encoded(&[
            load(0, 0x100),  // no earlier store
            store(1, 0x100), // ordinal 0
            store(2, 0x200), // ordinal 1
            load(3, 0x100),  // matches ordinal 0
            store(4, 0x100), // ordinal 2
            load(5, 0x100),  // matches ordinal 2 (youngest wins)
            load(6, 0x300),  // no store to 0x300
        ]);
        let ann = annotate(&CoreConfig::alpha21264(), &trace);
        assert_eq!(ann.stores(), 3);
        assert_eq!(ann.store_matches(), &[NO_STORE_MATCH, 0, 2, NO_STORE_MATCH]);
        assert_eq!(ann.mem_addrs().len(), 7);
    }

    #[test]
    fn line_changes_and_iside_misses_are_flagged() {
        // Two instructions in the same 64-byte line (16 instructions),
        // then one in the next line.
        let recs: Vec<TraceRecord> = [0u32, 1, 16]
            .iter()
            .map(|&pc| TraceRecord {
                pc,
                op: OpClass::IntAlu,
                dst: None,
                srcs: [None, None],
                mem_addr: None,
                branch: None,
            })
            .collect();
        let ann = annotate(&CoreConfig::alpha21264(), &encoded(&recs));
        let m = ann.meta();
        assert_ne!(m[0] & FLAG_NEW_LINE, 0);
        assert_ne!(m[0] & FLAG_ITLB_MISS, 0, "cold ITLB");
        assert_ne!(m[0] & FLAG_L1I_MISS, 0, "cold L1I");
        assert_eq!(m[1] & FLAG_NEW_LINE, 0, "same line: no probe");
        assert_ne!(m[2] & FLAG_NEW_LINE, 0);
        assert_eq!(m[2] & FLAG_ITLB_MISS, 0, "same page: ITLB hit");
        assert_ne!(m[2] & FLAG_L1I_MISS, 0, "new line: L1I miss");
        assert_eq!(ann.l1i_misses(), 2);
        assert_eq!(ann.itlb_misses(), 1);
    }

    #[test]
    fn branch_totals_match_direct_simulation() {
        // The annotator's mispredict accounting must agree with the
        // full simulator on a real benchmark trace (the direct path is
        // the reference implementation).
        let bench = Benchmark::by_name("gcc").unwrap();
        let trace = EncodedTrace::capture(&mut bench.instantiate(), 30_000).unwrap();
        let cfg = CoreConfig::alpha21264();
        let ann = annotate(&cfg, &trace);
        let direct = crate::Simulator::new(cfg).unwrap().run(&trace);
        assert_eq!(ann.branches(), direct.branch.branches);
        assert_eq!(ann.mispredicts(), direct.branch.mispredicts);
        assert_eq!(ann.l1i_misses(), direct.caches.l1i_misses);
        assert_eq!(ann.itlb_misses(), direct.caches.itlb_misses);
    }

    #[test]
    fn mispredict_flags_reflect_predictability() {
        let mut recs = Vec::new();
        for i in 0..2_000u32 {
            recs.push(TraceRecord {
                pc: 1,
                op: OpClass::CondBranch,
                dst: None,
                srcs: [None, None],
                mem_addr: None,
                branch: Some(BranchInfo {
                    taken: i % 2 == 0,
                    next_pc: if i % 2 == 0 { 40 } else { 2 },
                }),
            });
        }
        let ann = annotate(&CoreConfig::alpha21264(), &encoded(&recs));
        assert_eq!(ann.branches(), 2_000);
        // Alternation is history-predictable: late mispredicts stop.
        let late_mispredicts = ann.meta()[1500..]
            .iter()
            .filter(|&&m| m & FLAG_MISPREDICT != 0)
            .count();
        assert_eq!(late_mispredicts, 0, "warmed-up alternation mispredicted");
        // Taken branches that predict correctly end their fetch group.
        let ends = ann.meta()[1500..]
            .iter()
            .filter(|&&m| m & FLAG_ENDS_GROUP != 0)
            .count();
        assert_eq!(ends, 250, "every taken branch ends a group");
    }

    #[test]
    fn annotation_depends_only_on_geometry() {
        // Changing *timing* axes must not change the annotation.
        let bench = Benchmark::by_name("vpr").unwrap();
        let trace = EncodedTrace::capture(&mut bench.instantiate(), 20_000).unwrap();
        let base = annotate(&CoreConfig::alpha21264(), &trace);
        let mut timing = CoreConfig::alpha21264();
        timing.int_fus = 1;
        timing.width = 2;
        timing.rob_entries = 32;
        timing.l2.latency = 32;
        timing.memory_latency = 400;
        timing.mshrs = 1;
        timing.mul_latency = 12;
        timing.itlb.miss_latency = 99; // latency, not geometry
        timing.l1d.size_bytes = 16 * 1024;
        assert_eq!(annotate(&timing, &trace), base);
        // Changing geometry must change it (a tiny BTB mispredicts
        // taken branches it can no longer remember).
        let mut geom = CoreConfig::alpha21264();
        geom.btb_sets = 1;
        geom.btb_ways = 1;
        geom.bimodal_entries = 2;
        geom.l1_history_entries = 2;
        geom.l2_counter_entries = 4;
        geom.meta_entries = 2;
        assert_ne!(annotate(&geom, &trace), base);
    }

    #[test]
    fn register_codes_are_none_int_or_fp() {
        // The timing kernel's single scoreboard indexes by the raw
        // 8-bit code and keeps slot 0 as "no register": every code must
        // be 0, `REG_INT_BIT | n` or `REG_FP_BIT | n` with n < 64.
        use fuleak_workloads::annotated::{REG_MASK, REG_NUM_MASK};
        let valid = |code: u32| {
            let n = code & REG_NUM_MASK;
            code == 0 || code == (REG_INT_BIT | n) || code == (REG_FP_BIT | n)
        };
        let cfg = CoreConfig::alpha21264();
        for bench in Benchmark::all() {
            let trace = EncodedTrace::capture(&mut bench.instantiate(), 20_000).unwrap();
            let ann = annotate(&cfg, &trace);
            for &meta in ann.meta() {
                for shift in [DST_SHIFT, SRC0_SHIFT, SRC1_SHIFT] {
                    let code = (meta >> shift) & REG_MASK;
                    assert!(valid(code), "{}: register code {code:#x}", bench.name);
                }
            }
        }
        for r in 0..64u8 {
            assert!(valid(reg_code(Some(ArchReg::Int(r)))));
            assert!(valid(reg_code(Some(ArchReg::Fp(r)))));
        }
        assert_eq!(reg_code(None), 0);
    }
}
