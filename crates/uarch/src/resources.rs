//! Resource-constraint primitives for the timestamp-based pipeline
//! model.
//!
//! The simulator processes the dynamic trace in program order,
//! computing each instruction's fetch / dispatch / issue / complete /
//! commit timestamps subject to structural constraints. Three
//! primitives express every Table 2 resource:
//!
//! * [`BandwidthLimiter`] — at most `width` events per cycle for
//!   in-order streams (fetch, rename, commit);
//! * [`CapacityWindow`] — a structure with `n` slots where slot
//!   reuse requires the `n`-back allocation to have released (fetch
//!   queue, ROB, issue queues, load/store queues, rename registers);
//! * [`FuPool`] — the integer/floating-point functional units, one
//!   operation per unit per cycle, allocated round-robin exactly as
//!   the paper's methodology prescribes, with **online** per-unit
//!   idle-interval recording: busy cycles retire from the occupancy
//!   window into cursor-based [`IdleCursor`] recorders as the commit
//!   frontier advances, so the pool's memory stays proportional to
//!   the in-flight window plus the number of idle intervals — never
//!   to the total cycle count (see `DESIGN.md`).

use fuleak_core::{IdleCursor, IntervalSpectrum};
use std::collections::BTreeMap;

/// At most `width` events per cycle, for nondecreasing requests.
#[derive(Debug, Clone)]
pub struct BandwidthLimiter {
    width: usize,
    cycle: u64,
    used: usize,
}

impl BandwidthLimiter {
    /// Creates a limiter with the given per-cycle width.
    pub fn new(width: usize) -> Self {
        assert!(width > 0);
        BandwidthLimiter {
            width,
            cycle: 0,
            used: 0,
        }
    }

    /// Schedules the next event at the earliest cycle `>= earliest`
    /// with spare bandwidth. Requests earlier than the current frontier
    /// are scheduled at the frontier (the stream is in-order).
    ///
    /// Branch-free: a full cycle bumps the frontier by one, a later
    /// request moves it to the request, and either move restarts the
    /// count at 1.
    #[inline]
    pub fn next(&mut self, earliest: u64) -> u64 {
        let bump = u64::from(self.used >= self.width);
        let next = earliest.max(self.cycle + bump);
        self.used = if next == self.cycle { self.used + 1 } else { 1 };
        self.cycle = next;
        next
    }
}

/// `n` slots; the `i`-th allocation may not start before the
/// `(i - n)`-th allocation has released.
#[derive(Debug, Clone)]
pub struct CapacityWindow {
    size: usize,
    releases: std::collections::VecDeque<u64>,
}

impl CapacityWindow {
    /// Creates a window with `size` slots.
    pub fn new(size: usize) -> Self {
        assert!(size > 0);
        CapacityWindow {
            size,
            releases: std::collections::VecDeque::with_capacity(size),
        }
    }

    /// The earliest cycle at which the next allocation may start
    /// (0 when a slot is trivially free).
    pub fn constraint(&self) -> u64 {
        if self.releases.len() < self.size {
            0
        } else {
            self.releases[self.releases.len() - self.size]
        }
    }

    /// Records the release time of the allocation just made.
    pub fn record(&mut self, release: u64) {
        self.releases.push_back(release);
        if self.releases.len() > self.size {
            self.releases.pop_front();
        }
    }
}

/// A pool of identical functional units, one operation per unit per
/// cycle, allocated round-robin. Derives every unit's idle-interval
/// statistics (Section 4 of the paper) online: the per-cycle busy
/// bitmasks double as a sorted reorder buffer, and [`FuPool::retire_before`]
/// streams them into per-unit [`IdleCursor`] recorders as the commit
/// frontier advances.
#[derive(Debug, Clone)]
pub struct FuPool {
    units: usize,
    rr: usize,
    /// Busy bitmask per not-yet-retired cycle. Doubles as the sorted
    /// staging buffer for the interval recorders: entries retire (in
    /// cycle order) into `recorders` as the window advances.
    busy: BTreeMap<u64, u16>,
    /// Per-unit online idle-interval recorders.
    recorders: Vec<IdleCursor>,
}

/// One unit's final statistics: its idle-interval spectrum and its
/// busy-cycle count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuStats {
    /// Maximal idle runs, as an exact length → count spectrum.
    pub idle: IntervalSpectrum,
    /// Cycles the unit executed an operation.
    pub active_cycles: u64,
}

impl FuPool {
    /// Creates a pool of `units` functional units (at most 16).
    pub fn new(units: usize) -> Self {
        assert!(units > 0 && units <= 16);
        FuPool {
            units,
            rr: 0,
            busy: BTreeMap::new(),
            recorders: vec![IdleCursor::new(); units],
        }
    }

    /// Number of units in the pool.
    pub fn units(&self) -> usize {
        self.units
    }

    /// Allocates a unit at the earliest cycle `>= ready` with a free
    /// unit, searching units round-robin from the rotating pointer.
    /// Returns `(unit, cycle)`.
    pub fn allocate(&mut self, ready: u64) -> (usize, u64) {
        let full: u16 = if self.units == 16 {
            u16::MAX
        } else {
            (1u16 << self.units) - 1
        };
        let mut cycle = ready;
        loop {
            let mask = self.busy.get(&cycle).copied().unwrap_or(0);
            if mask != full {
                for k in 0..self.units {
                    let f = (self.rr + k) % self.units;
                    if mask & (1 << f) == 0 {
                        self.busy.insert(cycle, mask | (1 << f));
                        self.rr = (f + 1) % self.units;
                        return (f, cycle);
                    }
                }
            }
            cycle += 1;
        }
    }

    /// Retires occupancy entries for cycles before `cycle` (the commit
    /// frontier) into the per-unit interval recorders and drops them.
    /// Allocation never reaches back past the frontier (the ROB bounds
    /// how far issue can trail commit), so retired cycles are final.
    pub fn retire_before(&mut self, cycle: u64) {
        if self
            .busy
            .first_key_value()
            .is_none_or(|(&first, _)| first >= cycle)
        {
            return; // nothing to retire; skip the split allocation
        }
        let live = self.busy.split_off(&cycle);
        let retired = std::mem::replace(&mut self.busy, live);
        self.record(retired);
    }

    fn record(&mut self, retired: BTreeMap<u64, u16>) {
        for (cycle, mask) in retired {
            let mut bits = mask;
            while bits != 0 {
                let f = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.recorders[f].record_busy(cycle);
            }
        }
    }

    /// Consumes the pool, retiring every remaining busy cycle and
    /// closing each unit's trailing idle interval at `total_cycles`.
    pub fn into_stats(mut self, total_cycles: u64) -> Vec<FuStats> {
        let rest = std::mem::take(&mut self.busy);
        self.record(rest);
        self.recorders
            .into_iter()
            .map(|mut r| {
                r.finish(total_cycles);
                FuStats {
                    active_cycles: r.active_cycles(),
                    idle: r.into_spectrum(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_packs_width_per_cycle() {
        let mut b = BandwidthLimiter::new(2);
        assert_eq!(b.next(5), 5);
        assert_eq!(b.next(5), 5);
        assert_eq!(b.next(5), 6);
        assert_eq!(b.next(6), 6);
        assert_eq!(b.next(6), 7);
        assert_eq!(b.next(100), 100);
    }

    #[test]
    fn capacity_window_blocks_until_release() {
        let mut w = CapacityWindow::new(2);
        assert_eq!(w.constraint(), 0);
        w.record(10); // alloc 0 releases at 10
        assert_eq!(w.constraint(), 0);
        w.record(20); // alloc 1 releases at 20
                      // Alloc 2 reuses alloc 0's slot: not before 10.
        assert_eq!(w.constraint(), 10);
        w.record(30);
        // Alloc 3 reuses alloc 1's slot.
        assert_eq!(w.constraint(), 20);
    }

    #[test]
    fn capacity_window_of_one_serializes() {
        let mut w = CapacityWindow::new(1);
        w.record(7);
        assert_eq!(w.constraint(), 7);
        w.record(9);
        assert_eq!(w.constraint(), 9);
    }

    #[test]
    fn fu_pool_round_robins() {
        let mut p = FuPool::new(3);
        let (f0, c0) = p.allocate(0);
        let (f1, c1) = p.allocate(0);
        let (f2, c2) = p.allocate(0);
        assert_eq!((f0, f1, f2), (0, 1, 2));
        assert_eq!((c0, c1, c2), (0, 0, 0));
        // Fourth op at cycle 0: all units busy, slides to cycle 1 and
        // the pointer wrapped to unit 0.
        let (f3, c3) = p.allocate(0);
        assert_eq!(f3, 0);
        assert_eq!(c3, 1);
    }

    #[test]
    fn fu_pool_respects_ready_time() {
        let mut p = FuPool::new(2);
        let (_, c) = p.allocate(42);
        assert_eq!(c, 42);
        // Round-robin pointer means the *other* unit serves cycle 42
        // too.
        let (_, c) = p.allocate(42);
        assert_eq!(c, 42);
        let (_, c) = p.allocate(42);
        assert_eq!(c, 43);
    }

    #[test]
    fn fu_pool_single_unit_serializes() {
        let mut p = FuPool::new(1);
        assert_eq!(p.allocate(0), (0, 0));
        assert_eq!(p.allocate(0), (0, 1));
        assert_eq!(p.allocate(0), (0, 2));
        assert_eq!(p.allocate(10), (0, 10));
    }

    #[test]
    fn idle_stats_are_recorded_per_unit() {
        let mut p = FuPool::new(2);
        p.allocate(0); // unit 0 @ 0
        p.allocate(0); // unit 1 @ 0
        p.allocate(5); // unit 0 @ 5 (rr pointer)
        let stats = p.into_stats(10);
        // Unit 0 busy at {0, 5} over 10 cycles: idle [1,5), [6,10).
        assert_eq!(stats[0].idle, IntervalSpectrum::from_lengths(&[4, 4]));
        assert_eq!(stats[0].active_cycles, 2);
        // Unit 1 busy at {0}: one long trailing idle run.
        assert_eq!(stats[1].idle, IntervalSpectrum::from_lengths(&[9]));
        assert_eq!(stats[1].active_cycles, 1);
    }

    #[test]
    fn retire_keeps_future_occupancy() {
        let mut p = FuPool::new(1);
        p.allocate(0);
        p.allocate(100);
        p.retire_before(50);
        // Cycle 100 still busy: next allocation at 100 goes to 101.
        assert_eq!(p.allocate(100), (0, 101));
    }

    #[test]
    fn retirement_cadence_does_not_change_stats() {
        // The same allocation pattern must yield identical statistics
        // whether cycles retire incrementally or all at the end.
        let ready = [0u64, 0, 3, 3, 3, 10, 11, 11, 40, 41, 90, 90];
        let mut eager = FuPool::new(3);
        let mut lazy = FuPool::new(3);
        for (i, &r) in ready.iter().enumerate() {
            assert_eq!(eager.allocate(r), lazy.allocate(r));
            if i % 4 == 3 {
                eager.retire_before(r.saturating_sub(2));
            }
        }
        eager.retire_before(95);
        assert_eq!(eager.into_stats(120), lazy.into_stats(120));
    }

    #[test]
    fn retire_before_is_idempotent_and_total() {
        let mut p = FuPool::new(2);
        p.allocate(1);
        p.allocate(4);
        p.retire_before(10);
        p.retire_before(10); // no-op
        let stats = p.into_stats(6);
        // Busy @1 of 6: idle runs 1 and 4; busy @4 of 6: runs 4 and 1.
        assert_eq!(stats[0].idle, IntervalSpectrum::from_lengths(&[1, 4]));
        assert_eq!(stats[1].idle, IntervalSpectrum::from_lengths(&[4, 1]));
    }

    #[test]
    fn sixteen_unit_pool_mask_edge() {
        let mut p = FuPool::new(16);
        for i in 0..16 {
            let (f, c) = p.allocate(0);
            assert_eq!((f, c), (i, 0));
        }
        let (_, c) = p.allocate(0);
        assert_eq!(c, 1);
    }
}
