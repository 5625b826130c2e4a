//! Phase 2 of the two-phase simulation: the timing kernel.
//!
//! [`TimingKernel::run`] replays an [`AnnotatedTrace`] (phase 1, see
//! [`crate::annotate`]) against one machine configuration and
//! produces a [`SimResult`] **field-exactly equal** to
//! [`crate::Simulator::run`] over the same trace — the proptest in
//! `tests/twophase_props.rs` pins that equivalence across random
//! traces and random configurations on both geometry and timing axes.
//!
//! What makes it fast:
//!
//! * the front end is gone — branch predictors, BTB, RAS, I-cache and
//!   ITLB were resolved into per-record flags at annotation time, so
//!   the per-record work is a pure recurrence over packed `u32` meta
//!   words and flat `u64` arrays;
//! * store→load matching is an array lookup — the annotator resolved
//!   each load's candidate store to an ordinal, so the kernel only
//!   performs the timing comparison (`store done ≥ load agen`) that
//!   decides actual forwarding;
//! * all scratch state is owned by the kernel and **reset, not
//!   rebuilt**, between points: capacity windows are fixed rings,
//!   functional-unit occupancy is a flat bitmask ring
//!   ([`FuRing`]) instead of a `BTreeMap`, retired a 64-cycle word
//!   and a busy run at a time, cache tag arrays are flat `sets ×
//!   ways` slabs instead of per-set `Vec`s, and the register
//!   scoreboard is one array indexed by the raw register code. After
//!   a warm-up run at a given shape, a point performs **no scratch
//!   allocations**
//!   ([`TimingKernel::scratch_growths`] counts the exceptions, and a
//!   debug test asserts the steady state is zero).
//!
//! The D-side memory hierarchy (L1D, L2, DTLB, MSHRs, in-flight line
//! fills) stays *inside* the kernel, in flat form: whether a load
//! accesses the D-cache at all depends on store-forwarding — a timing
//! outcome — so D-side hit levels cannot be annotated without
//! breaking exactness (`DESIGN.md` derives this boundary).

use crate::cache::MissTracker;
use crate::config::{CacheParams, CoreConfig, TlbParams};
use crate::fxhash::FxHashMap;
use crate::resources::BandwidthLimiter;
use crate::stats::{BranchStats, CacheStats, SimResult};
use fuleak_core::{IdleCursor, IntervalSpectrum};
use fuleak_workloads::annotated::{
    AnnotatedTrace, DST_SHIFT, FLAG_ENDS_GROUP, FLAG_ITLB_MISS, FLAG_L1I_MISS, FLAG_MISPREDICT,
    FLAG_NEW_LINE, KIND_FP, KIND_INT, KIND_LOAD, KIND_MASK, KIND_MUL, KIND_NOP, KIND_STORE,
    NO_STORE_MATCH, REG_FP_BIT, REG_INT_BIT, REG_MASK, SRC0_SHIFT, SRC1_SHIFT,
};

/// Initial capacity (cycles) of each functional-unit occupancy ring.
/// Grows geometrically if a configuration's in-flight window ever
/// spans more cycles (counted as a scratch growth). Kept small: the
/// in-flight span is bounded by the ROB depth plus the longest memory
/// round-trip (a few hundred cycles), and the ring is zeroed on every
/// reset — a generous ring costs a large memset per point.
const FU_RING_INITIAL: usize = 1 << 10;

/// A fixed-capacity reusable ring implementing the same contract as
/// [`crate::resources::CapacityWindow`]: the `i`-th allocation may
/// not start before the `(i - size)`-th allocation has released.
/// Zero-filled on reset, so the first `size` allocations read a 0
/// constraint from the ring itself and no fill count is kept.
#[derive(Debug, Default)]
struct FixedWindow {
    buf: Vec<u64>,
    size: usize,
    /// Slot of the next allocation, which holds the release of the
    /// allocation `size` back.
    pos: usize,
    growths: u64,
}

impl FixedWindow {
    fn reset(&mut self, size: usize) {
        assert!(size > 0);
        if self.buf.len() < size {
            self.buf.resize(size, 0);
            self.growths += 1;
        }
        self.buf[..size].fill(0);
        self.size = size;
        self.pos = 0;
    }

    #[inline]
    fn constraint(&self) -> u64 {
        self.buf[self.pos]
    }

    #[inline]
    fn record(&mut self, release: u64) {
        self.buf[self.pos] = release;
        self.pos += 1;
        if self.pos == self.size {
            self.pos = 0;
        }
    }
}

/// Functional-unit occupancy as a flat ring of per-cycle busy
/// bitmasks — the reusable, allocation-free equivalent of
/// [`crate::resources::FuPool`]. The masks serve allocation; when
/// stats are kept, each unit also has a row of 64-bit occupancy words
/// over the same ring, and retirement walks those rows a word at a
/// time, streaming each busy run into the unit's [`IdleCursor`]. The
/// ring window covers `[base, base + capacity)` and only ever needs to
/// reach as far back as the in-order dispatch frontier, because every
/// future allocation's ready time exceeds it.
#[derive(Debug, Default)]
struct FuRing {
    units: usize,
    full: u16,
    rr: usize,
    /// First cycle not yet retired.
    base: u64,
    /// One past the latest allocated cycle (nothing is busy at or
    /// beyond it).
    top: u64,
    mask: usize,
    buf: Vec<u16>,
    /// Occupancy words, one group of 16 per 64 ring positions: bit
    /// `p & 63` of `rows[p >> 6][f]` mirrors bit `f` of `buf[p]`. Empty
    /// when stats are not kept.
    rows: Vec<[u64; 16]>,
    record_stats: bool,
    recorders: Vec<IdleCursor>,
    growths: u64,
}

impl FuRing {
    fn reset(&mut self, units: usize, record_stats: bool) {
        assert!(units > 0 && units <= 16);
        if self.buf.is_empty() {
            self.buf = vec![0; FU_RING_INITIAL];
            self.growths += 1;
        } else {
            self.buf.fill(0);
        }
        self.mask = self.buf.len() - 1;
        let row_words = if record_stats { self.buf.len() / 64 } else { 0 };
        if self.rows.len() < row_words {
            self.rows.resize(row_words, [0; 16]);
            self.growths += 1;
        }
        self.rows.fill([0; 16]);
        self.units = units;
        self.full = if units == 16 {
            u16::MAX
        } else {
            (1u16 << units) - 1
        };
        self.rr = 0;
        self.base = 0;
        self.top = 0;
        self.record_stats = record_stats;
        self.recorders.clear();
        if record_stats {
            self.recorders.resize_with(units, IdleCursor::new);
        }
    }

    /// Retires cycles in `[base, limit)`, recording busy units.
    fn advance(&mut self, limit: u64) {
        let end = limit.min(self.top);
        if self.base < end {
            self.retire(end);
        }
        self.base = self.base.max(limit);
    }

    /// Retires the live cycles `[base, end)`, one ring word at a time:
    /// clears their masks and passes each unit's busy runs to its
    /// recorder in cycle order. `end - base` never exceeds the ring
    /// capacity, and a word never wraps, because the capacity is a
    /// multiple of 64.
    fn retire(&mut self, end: u64) {
        let mut cycle = self.base;
        while cycle < end {
            let pos = (cycle as usize) & self.mask;
            let lo = pos & 63;
            let n = ((end - cycle) as usize).min(64 - lo);
            self.buf[pos..pos + n].fill(0);
            if self.record_stats {
                let sel = (u64::MAX >> (64 - n)) << lo;
                let group = &mut self.rows[pos >> 6];
                for (word, recorder) in group.iter_mut().zip(&mut self.recorders) {
                    let mut bits = (*word & sel) >> lo;
                    *word &= !sel;
                    let mut at = cycle;
                    while bits != 0 {
                        let skip = bits.trailing_zeros();
                        bits >>= skip;
                        let run = bits.trailing_ones();
                        at += u64::from(skip);
                        recorder.record_busy_run(at, u64::from(run));
                        at += u64::from(run);
                        bits = bits.checked_shr(run).unwrap_or(0);
                    }
                }
            }
            cycle += n as u64;
        }
    }

    /// Doubles the ring, re-placing the live window `[base, top)` and
    /// rebuilding the rows from the masks.
    fn grow(&mut self) {
        let old_mask = self.mask;
        let mut next = vec![0u16; self.buf.len() * 2];
        let new_mask = next.len() - 1;
        let row_words = if self.record_stats {
            next.len() / 64
        } else {
            0
        };
        let mut rows = vec![[0u64; 16]; row_words];
        for cycle in self.base..self.top {
            let bits = self.buf[(cycle as usize) & old_mask];
            let pos = (cycle as usize) & new_mask;
            next[pos] = bits;
            if self.record_stats {
                let mut b = bits;
                while b != 0 {
                    let f = b.trailing_zeros() as usize;
                    b &= b - 1;
                    rows[pos >> 6][f] |= 1 << (pos & 63);
                }
            }
        }
        self.buf = next;
        self.rows = rows;
        self.mask = new_mask;
        self.growths += 1;
    }

    /// Allocates a unit at the earliest cycle `>= ready` with a free
    /// unit, round-robin from the rotating pointer — identical to
    /// [`crate::resources::FuPool::allocate`]. `retire_limit` is the
    /// oldest cycle a *future* allocation could still target (the
    /// current dispatch frontier + 1); the ring retires up to it when
    /// it needs room. Always inlined: out of line, the call and the
    /// spilled ring fields cost about a fifth of a record's time.
    #[inline(always)]
    fn allocate(&mut self, ready: u64, retire_limit: u64) -> u64 {
        debug_assert!(ready >= self.base);
        let mut cycle = ready;
        loop {
            while cycle - self.base > self.mask as u64 {
                self.advance(retire_limit);
                if cycle - self.base > self.mask as u64 {
                    self.grow();
                }
            }
            let pos = (cycle as usize) & self.mask;
            let slot = &mut self.buf[pos];
            let free = !*slot & self.full;
            if free != 0 {
                // First free unit in cyclic order from the rotating
                // pointer: the bits at or above `rr`, else wrap to the
                // lowest free bit — same unit the linear scan found,
                // without the per-step modulo.
                let above = free >> self.rr;
                let f = if above != 0 {
                    self.rr + above.trailing_zeros() as usize
                } else {
                    free.trailing_zeros() as usize
                };
                *slot |= 1 << f;
                if self.record_stats {
                    self.rows[pos >> 6][f] |= 1 << (pos & 63);
                }
                self.top = self.top.max(cycle + 1);
                self.rr = if f + 1 == self.units { 0 } else { f + 1 };
                return cycle;
            }
            cycle += 1;
        }
    }

    /// Retires everything and returns `(idle spectra, active
    /// cycles)` per unit, each stream closed at `total_cycles`.
    fn finish(&mut self, total_cycles: u64) -> (Vec<IntervalSpectrum>, Vec<u64>) {
        let top = self.top;
        self.advance(top);
        let mut idle = Vec::with_capacity(self.recorders.len());
        let mut active = Vec::with_capacity(self.recorders.len());
        for r in &mut self.recorders {
            r.finish(total_cycles);
            active.push(r.active_cycles());
            idle.push(std::mem::take(r).into_spectrum());
        }
        (idle, active)
    }
}

/// Flat set-associative tag array with true-LRU replacement —
/// decision-for-decision identical to [`crate::cache::Cache`], but
/// with one contiguous `sets × ways` slab reset between points
/// instead of per-set `Vec`s rebuilt per point.
#[derive(Debug, Default)]
struct FlatCache {
    sets: u64,
    ways: usize,
    line_shift: u32,
    /// `sets - 1` when `sets` is a power of two, else 0 (modulo path).
    set_mask: u64,
    /// `line + 1` per way, most recently used first; 0 is invalid.
    tags: Vec<u64>,
    accesses: u64,
    misses: u64,
    growths: u64,
}

impl FlatCache {
    fn reset(&mut self, sets: u64, ways: u64, line_bytes: u64) {
        debug_assert!(line_bytes.is_power_of_two());
        self.sets = sets;
        self.ways = ways as usize;
        self.line_shift = line_bytes.trailing_zeros();
        self.set_mask = if sets.is_power_of_two() { sets - 1 } else { 0 };
        let needed = (sets * ways) as usize;
        if self.tags.len() < needed {
            self.tags.resize(needed, 0);
            self.growths += 1;
        }
        self.tags[..needed].fill(0);
        self.accesses = 0;
        self.misses = 0;
    }

    fn reset_params(&mut self, p: &CacheParams) {
        self.reset(p.sets(), p.ways, p.line_bytes);
    }

    #[inline]
    fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let set = if self.set_mask != 0 || self.sets == 1 {
            (line & self.set_mask) as usize
        } else {
            (line % self.sets) as usize
        };
        let base = set * self.ways;
        let slots = &mut self.tags[base..base + self.ways];
        let tag = line + 1;
        // A hit in the most recently used way leaves the LRU order as
        // it is, so it needs no rotation.
        if slots[0] == tag {
            return true;
        }
        // Tags are unique within a set, so at most one way matches; a
        // miss behaves like a match in the last way (the LRU victim).
        // Finding the position and rotating it to the front with
        // selects keeps the access free of data-dependent branches —
        // the hit way's position is effectively random, so the
        // early-exit scan and variable-length `copy_within` this
        // replaces mispredicted constantly.
        let mut pos = self.ways - 1;
        let mut hit = false;
        for (way, &t) in slots.iter().enumerate() {
            let eq = t == tag;
            pos = if eq { way } else { pos };
            hit |= eq;
        }
        self.misses += !hit as u64;
        let mut carry = tag;
        for (way, slot) in slots.iter_mut().enumerate() {
            let cur = *slot;
            *slot = if way <= pos { carry } else { cur };
            carry = cur;
        }
        hit
    }
}

/// Flat DTLB: a [`FlatCache`] over page numbers, mirroring
/// [`crate::cache::Tlb`].
#[derive(Debug, Default)]
struct FlatTlb {
    cache: FlatCache,
    page_shift: u32,
    miss_latency: u64,
}

impl FlatTlb {
    fn reset(&mut self, p: &TlbParams) {
        debug_assert!(p.page_bytes.is_power_of_two());
        self.cache.reset(p.entries / p.ways, p.ways, 1);
        self.page_shift = p.page_bytes.trailing_zeros();
        self.miss_latency = p.miss_latency;
    }

    #[inline]
    fn translate(&mut self, addr: u64) -> u64 {
        if self.cache.access(addr >> self.page_shift) {
            0
        } else {
            self.miss_latency
        }
    }
}

/// The kernel-resident D-side hierarchy: flat L1D → flat unified L2 →
/// memory, DTLB, MSHR-bounded misses, and in-flight line-fill
/// tracking — semantics identical to [`crate::cache::DataMemory`],
/// state reused across points.
#[derive(Debug)]
struct FlatMemory {
    l1: FlatCache,
    l2: FlatCache,
    tlb: FlatTlb,
    mshrs: MissTracker,
    l1_latency: u64,
    l2_latency: u64,
    memory_latency: u64,
    l1_fills: FxHashMap<u64, u64>,
    l2_fills: FxHashMap<u64, u64>,
    /// Upper bound on every fill completion in the maps: when an
    /// access's hit time is at or past it, the fill lookups are
    /// skipped entirely (no live fill can delay it).
    fill_horizon: u64,
    accesses_since_prune: u64,
    /// High-water capacities of the fill maps, for growth counting.
    fill_caps: (usize, usize),
    growths: u64,
}

impl Default for FlatMemory {
    fn default() -> Self {
        FlatMemory {
            l1: FlatCache::default(),
            l2: FlatCache::default(),
            tlb: FlatTlb::default(),
            mshrs: MissTracker::new(1),
            l1_latency: 0,
            l2_latency: 0,
            memory_latency: 0,
            l1_fills: FxHashMap::default(),
            l2_fills: FxHashMap::default(),
            fill_horizon: 0,
            accesses_since_prune: 0,
            fill_caps: (0, 0),
            growths: 0,
        }
    }
}

impl FlatMemory {
    fn reset(&mut self, cfg: &CoreConfig) {
        self.l1.reset_params(&cfg.l1d);
        self.l2.reset_params(&cfg.l2);
        self.tlb.reset(&cfg.dtlb);
        self.mshrs.reset(cfg.mshrs);
        self.l1_latency = cfg.l1d.latency;
        self.l2_latency = cfg.l2.latency;
        self.memory_latency = cfg.memory_latency;
        self.l1_fills.clear();
        self.l2_fills.clear();
        self.fill_horizon = 0;
        self.accesses_since_prune = 0;
    }

    /// Performs a data access issued at `now`; returns the cycle the
    /// data is available (see [`crate::cache::DataMemory::access`]).
    /// Inlined whole into the kernel's loop, miss half included; only
    /// the fill-map pruning stays out of line.
    #[inline(always)]
    fn access(&mut self, addr: u64, now: u64) -> u64 {
        self.maybe_prune(now);
        let start = now + self.tlb.translate(addr);
        let l1_line = addr >> self.l1.line_shift;
        if self.l1.access(addr) {
            let base = start + self.l1_latency;
            if self.fill_horizon > base {
                if let Some(&fill) = self.l1_fills.get(&l1_line) {
                    if fill > base {
                        return fill;
                    }
                }
            }
            return base;
        }
        self.l1_miss(addr, start)
    }

    /// The L1-miss half of [`FlatMemory::access`]: the L2, the MSHRs
    /// and the fill maps, for an access that cleared the DTLB at
    /// `start`.
    #[inline(always)]
    fn l1_miss(&mut self, addr: u64, start: u64) -> u64 {
        let l1_line = addr >> self.l1.line_shift;
        let l2_line = addr >> self.l2.line_shift;
        let l2_hit = self.l2.access(addr);
        let after_l1 = start + self.l1_latency;
        let ready = if l2_hit {
            let mut r = self.mshrs.admit(after_l1, self.l2_latency);
            if self.fill_horizon > r {
                if let Some(&fill) = self.l2_fills.get(&l2_line) {
                    if fill > r {
                        r = fill;
                    }
                }
            }
            r
        } else {
            let r = self
                .mshrs
                .admit(after_l1, self.l2_latency + self.memory_latency);
            self.l2_fills.insert(l2_line, r);
            r
        };
        self.l1_fills.insert(l1_line, ready);
        self.fill_horizon = self.fill_horizon.max(ready);
        ready
    }

    /// Bounds the fill maps, same cadence as the direct path (dead
    /// entries can never satisfy a lookup, so dropping them is
    /// unobservable).
    #[inline(always)]
    fn maybe_prune(&mut self, now: u64) {
        self.accesses_since_prune += 1;
        if self.accesses_since_prune >= (1 << 16) {
            self.prune(now);
        }
    }

    /// Drops every fill that completes at or before `now`.
    #[cold]
    #[inline(never)]
    fn prune(&mut self, now: u64) {
        self.accesses_since_prune = 0;
        self.l1_fills.retain(|_, &mut r| r > now);
        self.l2_fills.retain(|_, &mut r| r > now);
    }

    /// Folds any fill-map capacity growth into the growth counter.
    fn note_growths(&mut self) {
        let caps = (self.l1_fills.capacity(), self.l2_fills.capacity());
        if caps.0 > self.fill_caps.0 {
            self.growths += 1;
        }
        if caps.1 > self.fill_caps.1 {
            self.growths += 1;
        }
        self.fill_caps = (self.fill_caps.0.max(caps.0), self.fill_caps.1.max(caps.1));
    }
}

/// The reusable phase-2 simulator (see the [module docs](self)).
///
/// Construct once per worker thread, call [`TimingKernel::run`] per
/// point; every internal buffer is reset in place, so a warm kernel
/// performs no scratch allocations per point.
#[derive(Debug)]
pub struct TimingKernel {
    /// Register scoreboard indexed by the raw 8-bit register code
    /// (`REG_INT_BIT | n` or `REG_FP_BIT | n`); code 0 ("no register")
    /// stays 0, so an absent source never delays issue.
    reg_ready: [u64; 256],
    store_done: Vec<u64>,
    int_pool: FuRing,
    fp_pool: FuRing,
    fetch_queue: FixedWindow,
    rob: FixedWindow,
    int_iq: FixedWindow,
    fp_iq: FixedWindow,
    ldq: FixedWindow,
    stq: FixedWindow,
    int_ren: FixedWindow,
    fp_ren: FixedWindow,
    dmem: FlatMemory,
    store_growths: u64,
}

impl Default for TimingKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimingKernel {
    /// Creates a kernel with empty scratch (sized lazily by the first
    /// [`TimingKernel::run`]).
    pub fn new() -> Self {
        TimingKernel {
            reg_ready: [0; 256],
            store_done: Vec::new(),
            int_pool: FuRing::default(),
            fp_pool: FuRing::default(),
            fetch_queue: FixedWindow::default(),
            rob: FixedWindow::default(),
            int_iq: FixedWindow::default(),
            fp_iq: FixedWindow::default(),
            ldq: FixedWindow::default(),
            stq: FixedWindow::default(),
            int_ren: FixedWindow::default(),
            fp_ren: FixedWindow::default(),
            dmem: FlatMemory::default(),
            store_growths: 0,
        }
    }

    /// Cumulative scratch-buffer growth events since construction.
    ///
    /// The first run at a given shape sizes the buffers; after that,
    /// repeating a point must not move this counter — the per-point
    /// hot loop is allocation-free (output buffers, i.e. the idle
    /// interval lists handed to the caller inside [`SimResult`], are
    /// the documented exception). `tests/twophase_props.rs` and the
    /// unit tests below assert the steady state.
    pub fn scratch_growths(&self) -> u64 {
        self.store_growths
            + self.int_pool.growths
            + self.fp_pool.growths
            + self.fetch_queue.growths
            + self.rob.growths
            + self.int_iq.growths
            + self.fp_iq.growths
            + self.ldq.growths
            + self.stq.growths
            + self.int_ren.growths
            + self.fp_ren.growths
            + self.dmem.l1.growths
            + self.dmem.l2.growths
            + self.dmem.tlb.cache.growths
            + self.dmem.growths
    }

    /// Resets every scratch structure for a run of `ann` on `cfg`.
    /// Idempotent; [`TimingKernel::run`] calls it internally.
    pub fn reset(&mut self, cfg: &CoreConfig, ann: &AnnotatedTrace) {
        // The same guard `Simulator::new` enforces: an invalid
        // configuration (e.g. a non-power-of-two line size) would
        // otherwise produce a plausible-looking but wrong result in
        // release builds, since the flat caches index by shift/mask.
        if let Err(e) = cfg.validate() {
            panic!("TimingKernel requires a valid configuration: {e}");
        }
        self.reg_ready.fill(0);
        if self.store_done.len() < ann.stores() {
            self.store_done.resize(ann.stores(), 0);
            self.store_growths += 1;
        }
        self.int_pool.reset(cfg.int_fus, true);
        self.fp_pool.reset(cfg.fp_fus, false);
        self.fetch_queue.reset(cfg.fetch_queue);
        self.rob.reset(cfg.rob_entries);
        self.int_iq.reset(cfg.int_iq_entries);
        self.fp_iq.reset(cfg.fp_iq_entries);
        self.ldq.reset(cfg.load_queue);
        self.stq.reset(cfg.store_queue);
        self.int_ren.reset(cfg.int_renames());
        self.fp_ren.reset(cfg.fp_renames());
        self.dmem.reset(cfg);
    }

    /// Runs the timing recurrence over an annotated trace.
    ///
    /// `ann` must have been produced by [`crate::annotate::annotate`]
    /// for a configuration whose front-end geometry matches `cfg`
    /// (same [`crate::machine::frontend_fingerprint`]); the result is
    /// then field-exactly equal to the direct
    /// [`crate::Simulator::run`] over the same trace.
    pub fn run(&mut self, ann: &AnnotatedTrace, cfg: &CoreConfig) -> SimResult {
        self.reset(cfg, ann);
        let itlb_miss_latency = cfg.itlb.miss_latency;
        let l1i_miss_latency = cfg.l2.latency;
        let mispredict_latency = cfg.mispredict_latency;
        let mul_latency = cfg.mul_latency;
        let fp_latency = cfg.fp_latency;

        let mut fetch_bw = BandwidthLimiter::new(cfg.width);
        let mut dispatch_bw = BandwidthLimiter::new(cfg.width);
        let mut commit_bw = BandwidthLimiter::new(cfg.width);

        let mem_addrs = ann.mem_addrs();
        let store_matches = ann.store_matches();
        let mut mem_cursor = 0usize;
        let mut load_cursor = 0usize;
        let mut store_cursor = 0usize;

        let mut fetch_frontier = 0u64;
        let mut last_commit = 0u64;

        for &meta in ann.meta() {
            // ---------- Fetch ----------
            let mut earliest = fetch_frontier.max(self.fetch_queue.constraint());
            if meta & FLAG_NEW_LINE != 0 {
                if meta & FLAG_ITLB_MISS != 0 {
                    earliest += itlb_miss_latency;
                }
                if meta & FLAG_L1I_MISS != 0 {
                    earliest += l1i_miss_latency;
                }
            }
            let fetch = fetch_bw.next(earliest);

            // ---------- Dispatch (rename) ----------
            let kind = meta & KIND_MASK;
            let mut d_earliest = (fetch + 1).max(self.rob.constraint());
            match kind {
                KIND_FP => d_earliest = d_earliest.max(self.fp_iq.constraint()),
                KIND_NOP => {}
                _ => d_earliest = d_earliest.max(self.int_iq.constraint()),
            }
            if kind == KIND_LOAD {
                d_earliest = d_earliest.max(self.ldq.constraint());
            } else if kind == KIND_STORE {
                d_earliest = d_earliest.max(self.stq.constraint());
            }
            let dst = (meta >> DST_SHIFT) & REG_MASK;
            if dst & REG_INT_BIT != 0 {
                d_earliest = d_earliest.max(self.int_ren.constraint());
            } else if dst & REG_FP_BIT != 0 {
                d_earliest = d_earliest.max(self.fp_ren.constraint());
            }
            let dispatch = dispatch_bw.next(d_earliest);
            self.fetch_queue.record(dispatch);

            // ---------- Operand readiness ----------
            let s0 = (meta >> SRC0_SHIFT) & REG_MASK;
            let s1 = (meta >> SRC1_SHIFT) & REG_MASK;
            let ready = (dispatch + 1)
                .max(self.reg_ready[s0 as usize])
                .max(self.reg_ready[s1 as usize]);

            // ---------- Issue & execute ----------
            // Future allocations' ready times exceed the in-order
            // dispatch frontier, so both occupancy rings may retire
            // cycles at or below it when they need room.
            let retire_limit = dispatch + 1;
            let complete = if kind == KIND_NOP {
                ready
            } else {
                // One allocation site for every kind: the ring step is
                // inlined once into the loop body, on the pool the kind
                // picks.
                let (pool, iq) = if kind == KIND_FP {
                    (&mut self.fp_pool, &mut self.fp_iq)
                } else {
                    (&mut self.int_pool, &mut self.int_iq)
                };
                let issue = pool.allocate(ready, retire_limit);
                iq.record(issue);
                match kind {
                    KIND_INT => issue + 1,
                    KIND_MUL => issue + mul_latency,
                    KIND_FP => issue + fp_latency,
                    KIND_LOAD => {
                        let agen_done = issue + 1;
                        let addr = mem_addrs[mem_cursor];
                        mem_cursor += 1;
                        let m = store_matches[load_cursor];
                        load_cursor += 1;
                        let forwarded =
                            m != NO_STORE_MATCH && self.store_done[m as usize] >= agen_done;
                        if forwarded {
                            // Forward from the in-flight older store whose
                            // data is not yet drained.
                            self.store_done[m as usize] + 1
                        } else {
                            self.dmem.access(addr, agen_done)
                        }
                    }
                    _ => {
                        debug_assert_eq!(kind, KIND_STORE);
                        let addr = mem_addrs[mem_cursor];
                        mem_cursor += 1;
                        let done = issue + 1;
                        self.store_done[store_cursor] = done;
                        store_cursor += 1;
                        // Warm the cache and occupy an MSHR on a miss; the
                        // store buffer hides the latency from commit.
                        self.dmem.access(addr, done);
                        done
                    }
                }
            };

            // ---------- Control flow (pre-resolved) ----------
            if meta & FLAG_MISPREDICT != 0 {
                fetch_frontier = fetch_frontier
                    .max(complete + 1)
                    .max(fetch + mispredict_latency);
            } else if meta & FLAG_ENDS_GROUP != 0 {
                fetch_frontier = fetch_frontier.max(fetch + 1);
            }

            // ---------- Register writeback ----------
            // Code 0 is "no destination": the write lands in slot 0,
            // which is cleared again so it keeps reading as ready.
            self.reg_ready[dst as usize] = complete;
            self.reg_ready[0] = 0;

            // ---------- Commit (in order) ----------
            let commit = commit_bw.next((complete + 1).max(last_commit));
            last_commit = commit;
            self.rob.record(commit);
            if kind == KIND_LOAD {
                self.ldq.record(commit);
            } else if kind == KIND_STORE {
                self.stq.record(commit);
            }
            if dst & REG_INT_BIT != 0 {
                self.int_ren.record(commit);
            } else if dst & REG_FP_BIT != 0 {
                self.fp_ren.record(commit);
            }
        }

        let cycles = last_commit;
        let (fu_idle, fu_active) = self.int_pool.finish(cycles);
        self.dmem.note_growths();
        SimResult {
            cycles,
            committed: ann.len() as u64,
            fu_idle,
            fu_active,
            branch: BranchStats {
                branches: ann.branches(),
                mispredicts: ann.mispredicts(),
            },
            caches: CacheStats {
                l1d_accesses: self.dmem.l1.accesses,
                l1d_misses: self.dmem.l1.misses,
                l2_accesses: self.dmem.l2.accesses,
                l2_misses: self.dmem.l2.misses,
                l1i_misses: ann.l1i_misses(),
                dtlb_misses: self.dmem.tlb.cache.misses,
                itlb_misses: ann.itlb_misses(),
            },
        }
    }
}

/// Convenience: annotate + run in one call (fresh scratch — prefer a
/// long-lived [`TimingKernel`] on hot paths).
pub fn run_two_phase(cfg: &CoreConfig, trace: &fuleak_workloads::EncodedTrace) -> SimResult {
    let ann = crate::annotate::annotate(cfg, trace);
    TimingKernel::new().run(&ann, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate;
    use crate::Simulator;
    use fuleak_workloads::{Benchmark, EncodedTrace};

    fn capture(name: &str, budget: u64) -> EncodedTrace {
        let bench = Benchmark::by_name(name).unwrap();
        EncodedTrace::capture(&mut bench.instantiate(), budget).unwrap()
    }

    #[test]
    fn two_phase_matches_direct_on_benchmarks() {
        let mut kernel = TimingKernel::new();
        for name in ["gzip", "mcf", "health"] {
            let trace = capture(name, 40_000);
            for cfg in [
                CoreConfig::alpha21264(),
                CoreConfig::with_int_fus(1),
                CoreConfig::with_l2_latency(32),
            ] {
                let direct = Simulator::new(cfg.clone()).unwrap().run(&trace);
                let ann = annotate(&cfg, &trace);
                let two_phase = kernel.run(&ann, &cfg);
                assert_eq!(two_phase, direct, "{name} diverged");
            }
        }
    }

    #[test]
    fn annotation_is_shared_across_timing_axes() {
        // One annotation, many timing configs — all must match the
        // direct path run with the corresponding full config.
        let trace = capture("twolf", 40_000);
        let base = CoreConfig::alpha21264();
        let ann = annotate(&base, &trace);
        let mut kernel = TimingKernel::new();
        for (fus, l2, width, rob) in [(1, 12, 4, 128), (4, 32, 2, 64), (2, 20, 8, 256)] {
            let mut cfg = base.clone();
            cfg.int_fus = fus;
            cfg.l2.latency = l2;
            cfg.width = width;
            cfg.rob_entries = rob;
            let direct = Simulator::new(cfg.clone()).unwrap().run(&trace);
            assert_eq!(kernel.run(&ann, &cfg), direct, "fus={fus} l2={l2}");
        }
    }

    #[test]
    fn warm_kernel_performs_no_scratch_allocations() {
        let trace = capture("gzip", 30_000);
        let cfg = CoreConfig::alpha21264();
        let ann = annotate(&cfg, &trace);
        let mut kernel = TimingKernel::new();
        let first = kernel.run(&ann, &cfg);
        let warm = kernel.scratch_growths();
        let second = kernel.run(&ann, &cfg);
        assert_eq!(first, second, "repeated runs must be deterministic");
        assert_eq!(
            kernel.scratch_growths(),
            warm,
            "a warm kernel re-running the same point grew scratch buffers"
        );
    }

    #[test]
    fn empty_trace_is_safe() {
        let cfg = CoreConfig::alpha21264();
        let ann = AnnotatedTrace::default();
        let r = TimingKernel::new().run(&ann, &cfg);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.committed, 0);
        assert_eq!(r.fu_idle.len(), cfg.int_fus);
        assert_eq!(r.fu_active, vec![0; cfg.int_fus]);
    }

    #[test]
    fn run_two_phase_helper_matches_direct() {
        let trace = capture("mst", 20_000);
        let cfg = CoreConfig::with_int_fus(2);
        let direct = Simulator::new(cfg.clone()).unwrap().run(&trace);
        assert_eq!(run_two_phase(&cfg, &trace), direct);
    }

    #[test]
    fn fu_ring_grows_past_far_future_allocations() {
        // A ready time far beyond the initial ring span forces a
        // retire+grow cycle without losing occupancy.
        let mut ring = FuRing::default();
        ring.reset(1, true);
        assert_eq!(ring.allocate(0, 1), 0);
        let far = (FU_RING_INITIAL as u64) * 3;
        assert_eq!(ring.allocate(far, far), far);
        assert_eq!(ring.allocate(far, far), far + 1);
        let (idle, active) = ring.finish(far + 2);
        assert_eq!(active, vec![3]);
        assert_eq!(idle, vec![IntervalSpectrum::from_lengths(&[far - 1])]);
    }

    #[test]
    fn fixed_window_matches_capacity_window() {
        use crate::resources::CapacityWindow;
        let mut fixed = FixedWindow::default();
        fixed.reset(3);
        let mut reference = CapacityWindow::new(3);
        let releases = [5u64, 2, 9, 9, 1, 14, 3, 20, 20, 20, 7];
        for &r in &releases {
            assert_eq!(fixed.constraint(), reference.constraint());
            fixed.record(r);
            reference.record(r);
        }
        assert_eq!(fixed.constraint(), reference.constraint());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// `FlatCache` makes the same hit-or-miss decision as
        /// [`crate::cache::Cache`] on every access and ends with the same
        /// access and miss counts, with one set, non-power-of-two set
        /// counts (the modulo path) and power-of-two ones, over 1–16
        /// ways. Streams lean on both ends of a set's LRU order: an
        /// access repeats the previous address (a hit in the most
        /// recently used way), walks `ways` lines of the previous
        /// access's set (hits in the least recently used way once warm)
        /// or `ways + 1` of them (a miss every time), or picks a line
        /// at random from four times the capacity.
        #[test]
        fn flat_cache_matches_cache_on_every_access(
            sets in proptest::prop_oneof![
                proptest::strategy::Just(1u64),
                1u64..=12,
                proptest::strategy::Strategy::prop_map(0u32..=6, |k| 1u64 << k),
            ],
            ways in proptest::prop_oneof![1u64..=2, 1u64..=16],
            line_bytes in proptest::prop_oneof![
                proptest::strategy::Just(1u64),
                proptest::strategy::Just(64u64),
            ],
            ops in proptest::collection::vec(0u64..1 << 24, 1..2_000),
        ) {
            use crate::cache::Cache;
            let params = CacheParams {
                size_bytes: sets * ways * line_bytes,
                ways,
                line_bytes,
                latency: 1,
            };
            let mut flat = FlatCache::default();
            flat.reset_params(&params);
            let mut reference = Cache::new(params);
            let (mut last, mut walk) = (0u64, 0u64);
            for &op in &ops {
                let arg = op >> 2;
                let line = match op & 3 {
                    0 => last,
                    kind @ (1 | 2) => {
                        walk += 1;
                        let lines = ways + u64::from(kind == 2);
                        last % sets + (walk % lines) * sets
                    }
                    _ => arg % (4 * sets * ways),
                };
                last = line;
                let addr = line * line_bytes + arg % line_bytes;
                let (got, want) = (flat.access(addr), reference.access(addr));
                proptest::prop_assert_eq!(got, want, "addr {}", addr);
            }
            proptest::prop_assert_eq!(flat.accesses, reference.accesses());
            proptest::prop_assert_eq!(flat.misses, reference.misses());
        }

        /// The ring allocates the same cycle as [`crate::resources::FuPool`]
        /// for every request and retires to the same per-unit spectra
        /// and active counts, on random ready streams over 1–16 units.
        /// Bursts at a standing frontier saturate long runs of cycles,
        /// both at the ring's start and just short of its end, and
        /// far-future ready times overrun its span and force `grow`; each stream runs twice on one ring,
        /// so the second pass also checks `reset` after a grown run.
        #[test]
        fn fu_ring_matches_fu_pool(
            units in proptest::prop_oneof![1usize..=2, 1usize..=16],
            steps in proptest::collection::vec(
                proptest::prop_oneof![0u64..1, 0u64..4], 1..3_000),
            offsets in proptest::collection::vec(
                proptest::prop_oneof![0u64..4, 0u64..64, 1_000u64..1_030, 1_000u64..6_000],
                3_000..3_001),
            trailing in 0u64..100,
        ) {
            use crate::resources::FuPool;
            let mut ring = FuRing::default();
            for _ in 0..2 {
                ring.reset(units, true);
                let mut pool = FuPool::new(units);
                let (mut frontier, mut last) = (0u64, 0u64);
                for (&step, &offset) in steps.iter().zip(&offsets) {
                    frontier += step;
                    let ready = frontier + offset;
                    let (_, cycle) = pool.allocate(ready);
                    proptest::prop_assert_eq!(ring.allocate(ready, frontier), cycle);
                    pool.retire_before(frontier);
                    last = last.max(cycle + 1);
                }
                let total = last + trailing;
                let (idle, active) = ring.finish(total);
                let stats = pool.into_stats(total);
                proptest::prop_assert_eq!(
                    idle,
                    stats.iter().map(|s| s.idle.clone()).collect::<Vec<_>>()
                );
                proptest::prop_assert_eq!(
                    active,
                    stats.iter().map(|s| s.active_cycles).collect::<Vec<_>>()
                );
            }
        }
    }
}
