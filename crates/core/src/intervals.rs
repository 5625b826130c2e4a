//! Idle-interval recording and the Figure 7 histogram.
//!
//! The empirical half of the paper reduces each functional unit's
//! activity to its *idle-interval distribution*: the simulator records,
//! per FU, every maximal run of consecutive idle cycles, accumulated
//! into an exact [`IntervalSpectrum`]. Figure 7 plots the fraction of
//! total time spent idle, binned by the log2 of the interval length,
//! with everything at or above 8192 cycles accumulated into the last
//! bin.
//!
//! One recorder implementation exists: the cursor-based
//! [`IdleCursor`], which consumes busy-cycle timestamps. The
//! boolean-stream [`IdleRecorder`] is a thin adapter over it that
//! counts cycles itself — the two can never drift apart
//! (`crates/core/tests/interval_props.rs` pins both against the
//! historical post-hoc conversion).

use crate::spectrum::IntervalSpectrum;

/// Records idle intervals from a per-cycle busy/idle stream.
///
/// A thin adapter over [`IdleCursor`]: it keeps its own cycle clock
/// and forwards busy observations as timestamps, so there is exactly
/// one interval-splitting implementation.
///
/// # Example
///
/// ```
/// use fuleak_core::{IdleRecorder, IntervalSpectrum};
///
/// let mut r = IdleRecorder::new();
/// for &busy in &[true, false, false, true, false, true] {
///     r.observe(busy);
/// }
/// r.finish();
/// assert_eq!(r.spectrum(), &IntervalSpectrum::from_lengths(&[2, 1]));
/// assert_eq!(r.active_cycles(), 3);
/// assert_eq!(r.total_cycles(), 6);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdleRecorder {
    cursor: IdleCursor,
    clock: u64,
}

impl IdleRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one cycle.
    pub fn observe(&mut self, busy: bool) {
        if busy {
            self.cursor.record_busy(self.clock);
        }
        self.clock += 1;
    }

    /// Closes any idle interval still open at the end of the run.
    pub fn finish(&mut self) {
        self.cursor.finish(self.clock);
    }

    /// The completed idle intervals as a spectrum. An idle run still
    /// open at the end of the stream is not included until
    /// [`IdleRecorder::finish`] closes it (it *is* counted by the
    /// cycle totals below).
    pub fn spectrum(&self) -> &IntervalSpectrum {
        self.cursor.spectrum()
    }

    /// Consumes the recorder, returning the spectrum.
    pub fn into_spectrum(self) -> IntervalSpectrum {
        self.cursor.into_spectrum()
    }

    /// Number of active (busy) cycles observed.
    pub fn active_cycles(&self) -> u64 {
        self.cursor.active_cycles()
    }

    /// Total idle cycles observed, including any idle run still open
    /// at the end of the stream.
    pub fn idle_cycles(&self) -> u64 {
        self.clock - self.cursor.active_cycles()
    }

    /// Total observed cycles (active + idle, open trailing run
    /// included).
    pub fn total_cycles(&self) -> u64 {
        self.clock
    }

    /// Fraction of total time spent idle. Returns `None` before any
    /// cycle has been observed.
    pub fn idle_fraction(&self) -> Option<f64> {
        (self.clock > 0).then(|| self.idle_cycles() as f64 / self.clock as f64)
    }
}

/// Cursor-based online idle-interval recorder over *absolute* cycle
/// timestamps — the single interval-splitting implementation.
///
/// `IdleCursor` consumes only the **busy** cycles, in nondecreasing
/// order, and derives the idle gaps between them — the natural fit
/// for a timing simulator that knows exactly which cycles a unit
/// executes. Each completed gap is accumulated straight into an
/// [`IntervalSpectrum`], so memory is proportional to the number of
/// *distinct* idle-interval lengths, never to the busy-cycle or
/// interval count (`crates/core/tests/interval_props.rs` proves the
/// equivalence with the historical post-hoc conversion on arbitrary
/// streams).
///
/// Duplicate timestamps are tolerated and counted as active exactly
/// once per call, matching the historical conversion's handling of
/// re-recorded busy cycles.
///
/// # Example
///
/// ```
/// use fuleak_core::{IdleCursor, IntervalSpectrum};
///
/// let mut c = IdleCursor::new();
/// for cycle in [2, 3, 7] {
///     c.record_busy(cycle);
/// }
/// c.finish(10);
/// // Gaps [0,2), [4,7), [8,10): lengths 2, 3, 2.
/// assert_eq!(c.spectrum(), &IntervalSpectrum::from_lengths(&[2, 3, 2]));
/// assert_eq!(c.active_cycles(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdleCursor {
    /// First cycle not yet accounted for (everything below is final).
    cursor: u64,
    spectrum: IntervalSpectrum,
    active_cycles: u64,
}

impl IdleCursor {
    /// Creates a recorder with its cursor at cycle 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `cycle` was busy. Cycles must arrive in
    /// nondecreasing order; a cycle at or below an already-recorded
    /// one counts as active but opens no new interval.
    pub fn record_busy(&mut self, cycle: u64) {
        self.active_cycles += 1;
        if cycle >= self.cursor {
            if cycle > self.cursor {
                self.spectrum.record(cycle - self.cursor);
            }
            self.cursor = cycle + 1;
        }
    }

    /// Records that the `len` cycles `start..start + len` were busy —
    /// exactly `len` calls of [`IdleCursor::record_busy`] in cycle
    /// order, in O(1). A timing model that knows a unit's busy runs
    /// retires them whole.
    pub fn record_busy_run(&mut self, start: u64, len: u64) {
        self.active_cycles += len;
        let end = start + len;
        if len > 0 && end > self.cursor {
            if start > self.cursor {
                self.spectrum.record(start - self.cursor);
            }
            self.cursor = end;
        }
    }

    /// Closes the stream at `total_cycles`, recording the trailing
    /// idle interval (if any). Busy cycles at or beyond `total_cycles`
    /// already swallowed the tail, in which case this is a no-op.
    pub fn finish(&mut self, total_cycles: u64) {
        if total_cycles > self.cursor {
            self.spectrum.record(total_cycles - self.cursor);
            self.cursor = total_cycles;
        }
    }

    /// The idle intervals recorded so far, as a spectrum.
    pub fn spectrum(&self) -> &IntervalSpectrum {
        &self.spectrum
    }

    /// Consumes the recorder, returning the spectrum.
    pub fn into_spectrum(self) -> IntervalSpectrum {
        self.spectrum
    }

    /// Number of busy cycles recorded (duplicates included).
    pub fn active_cycles(&self) -> u64 {
        self.active_cycles
    }

    /// The first cycle not yet accounted for — the start of the open
    /// trailing idle run, if the stream is idle right now.
    pub fn position(&self) -> u64 {
        self.cursor
    }
}

/// The cap bucket of Figure 7: idle time of intervals at or above this
/// length is accumulated at the 8192-cycle marker.
pub const HISTOGRAM_CAP: u64 = 8192;

/// A log2-bucketed histogram of idle time by interval length
/// (Figure 7 of the paper).
///
/// Bucket `i` covers interval lengths in `[2^i, 2^(i+1))`; the final
/// bucket accumulates everything at or above [`HISTOGRAM_CAP`]. The
/// histogram weights each interval by its *length* (total idle time),
/// matching the figure's y-axis of "fraction of total time ALUs are
/// idle".
///
/// # Example
///
/// ```
/// use fuleak_core::IdleHistogram;
///
/// let mut h = IdleHistogram::new();
/// h.record(3); // falls in the [2, 4) bucket
/// h.record(100_000); // capped at the 8192 marker
/// assert_eq!(h.idle_cycles_in_bucket(1), 3);
/// assert_eq!(h.idle_cycles_in_bucket(IdleHistogram::BUCKETS - 1), 100_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleHistogram {
    /// Total idle cycles contributed by intervals in each bucket.
    idle_cycles: [u64; Self::BUCKETS],
    /// Number of intervals in each bucket.
    counts: [u64; Self::BUCKETS],
}

impl IdleHistogram {
    /// Number of buckets: lengths 1, 2, 4, ..., 8192+ (2^0..=2^13).
    pub const BUCKETS: usize = 14;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        IdleHistogram {
            idle_cycles: [0; Self::BUCKETS],
            counts: [0; Self::BUCKETS],
        }
    }

    /// The bucket index for an interval length.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0`; zero-length idle intervals cannot
    /// exist.
    pub fn bucket_of(interval: u64) -> usize {
        assert!(interval > 0, "idle intervals have positive length");
        if interval >= HISTOGRAM_CAP {
            Self::BUCKETS - 1
        } else {
            interval.ilog2() as usize
        }
    }

    /// The lower-edge label of a bucket (1, 2, 4, ..., 8192).
    pub fn bucket_label(bucket: usize) -> u64 {
        1u64 << bucket.min(Self::BUCKETS - 1)
    }

    /// Records one idle interval.
    pub fn record(&mut self, interval: u64) {
        let b = Self::bucket_of(interval);
        self.idle_cycles[b] += interval;
        self.counts[b] += 1;
    }

    /// Records every interval in a slice.
    pub fn record_all(&mut self, intervals: &[u64]) {
        for &t in intervals {
            self.record(t);
        }
    }

    /// Records every interval of a spectrum — the histogram is a lossy
    /// log2 view of the exact spectrum, in O(distinct lengths).
    pub fn record_spectrum(&mut self, spectrum: &IntervalSpectrum) {
        for &(len, count) in spectrum.entries() {
            let b = Self::bucket_of(len);
            self.idle_cycles[b] += len * count;
            self.counts[b] += count;
        }
    }

    /// Total idle cycles contributed by intervals in `bucket`.
    pub fn idle_cycles_in_bucket(&self, bucket: usize) -> u64 {
        self.idle_cycles[bucket]
    }

    /// Number of intervals recorded into `bucket`.
    pub fn count_in_bucket(&self, bucket: usize) -> u64 {
        self.counts[bucket]
    }

    /// Total idle cycles across all buckets.
    pub fn total_idle_cycles(&self) -> u64 {
        self.idle_cycles.iter().sum()
    }

    /// Total number of recorded intervals.
    pub fn total_intervals(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Figure 7's y-values: per bucket, the idle time in that bucket as
    /// a fraction of `total_cycles` (the full run length, active
    /// included).
    pub fn time_fractions(&self, total_cycles: u64) -> [f64; Self::BUCKETS] {
        let mut out = [0.0; Self::BUCKETS];
        if total_cycles == 0 {
            return out;
        }
        for (o, &c) in out.iter_mut().zip(self.idle_cycles.iter()) {
            *o = c as f64 / total_cycles as f64;
        }
        out
    }

    /// Fraction of recorded idle *time* coming from intervals shorter
    /// than `limit` cycles (used for the paper's "75% of idle intervals
    /// occur within the L2 latency" claim).
    pub fn idle_time_fraction_below(&self, limit: u64) -> f64 {
        let total = self.total_idle_cycles();
        if total == 0 {
            return 0.0;
        }
        // Bucket granularity: count whole buckets strictly below the
        // bucket containing `limit`.
        let cut = Self::bucket_of(limit.max(1));
        let below: u64 = self.idle_cycles[..cut].iter().sum();
        below as f64 / total as f64
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &IdleHistogram) {
        for i in 0..Self::BUCKETS {
            self.idle_cycles[i] += other.idle_cycles[i];
            self.counts[i] += other.counts[i];
        }
    }
}

impl Default for IdleHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lengths(r: &[u64]) -> IntervalSpectrum {
        IntervalSpectrum::from_lengths(r)
    }

    #[test]
    fn recorder_splits_runs() {
        let mut r = IdleRecorder::new();
        for &b in &[
            false, false, true, true, false, true, false, false, false, true,
        ] {
            r.observe(b);
        }
        r.finish();
        assert_eq!(r.spectrum(), &lengths(&[2, 1, 3]));
        assert_eq!(r.active_cycles(), 4);
        assert_eq!(r.idle_cycles(), 6);
        assert_eq!(r.total_cycles(), 10);
        assert!((r.idle_fraction().unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn recorder_finish_closes_trailing_interval() {
        let mut r = IdleRecorder::new();
        r.observe(true);
        r.observe(false);
        r.observe(false);
        assert!(r.spectrum().is_empty());
        r.finish();
        assert_eq!(r.spectrum(), &lengths(&[2]));
        r.finish(); // idempotent
        assert_eq!(r.spectrum(), &lengths(&[2]));
    }

    #[test]
    fn totals_include_open_trailing_run() {
        // Regression (PR 2): an idle run still open when the stream
        // ends used to vanish from idle_cycles/total_cycles/
        // idle_fraction until finish() was called, silently
        // undercounting idle time. The adapter over IdleCursor must
        // preserve those semantics.
        let mut r = IdleRecorder::new();
        for &b in &[true, true, false, false, false] {
            r.observe(b);
        }
        assert!(r.spectrum().is_empty(), "run still open");
        assert_eq!(r.idle_cycles(), 3);
        assert_eq!(r.total_cycles(), 5);
        assert!((r.idle_fraction().unwrap() - 0.6).abs() < 1e-12);
        // finish() moves the run into the spectrum without changing
        // any total.
        r.finish();
        assert_eq!(r.spectrum(), &lengths(&[3]));
        assert_eq!(r.idle_cycles(), 3);
        assert_eq!(r.total_cycles(), 5);
    }

    #[test]
    fn cursor_basic_stream() {
        let mut c = IdleCursor::new();
        c.record_busy(0); // busy immediately: no leading interval
        c.record_busy(5);
        c.record_busy(6);
        c.finish(9);
        assert_eq!(c.spectrum(), &lengths(&[4, 2]));
        assert_eq!(c.active_cycles(), 3);
    }

    #[test]
    fn cursor_handles_duplicates_and_edges() {
        let mut c = IdleCursor::new();
        c.record_busy(3);
        c.record_busy(3); // duplicate: active again, no interval
        c.finish(4);
        assert_eq!(c.spectrum(), &lengths(&[3]));
        assert_eq!(c.active_cycles(), 2);

        // Never busy: one interval covering the whole run.
        let mut c = IdleCursor::new();
        c.finish(7);
        assert_eq!(c.spectrum(), &lengths(&[7]));

        // finish at/before the cursor is a no-op (and idempotent).
        let mut c = IdleCursor::new();
        c.record_busy(9);
        c.finish(10);
        c.finish(10);
        c.finish(4);
        assert_eq!(c.spectrum(), &lengths(&[9]));
        assert_eq!(c.position(), 10);
        assert_eq!(c.clone().into_spectrum(), lengths(&[9]));
    }

    #[test]
    fn cursor_matches_boolean_recorder() {
        // The two recorders describe the same stream two ways.
        let busy = [false, true, true, false, false, true, false];
        let mut bools = IdleRecorder::new();
        let mut cursor = IdleCursor::new();
        for (cycle, &b) in busy.iter().enumerate() {
            bools.observe(b);
            if b {
                cursor.record_busy(cycle as u64);
            }
        }
        bools.finish();
        cursor.finish(busy.len() as u64);
        assert_eq!(bools.spectrum(), cursor.spectrum());
        assert_eq!(bools.active_cycles(), cursor.active_cycles());
    }

    #[test]
    fn recorder_empty() {
        let mut r = IdleRecorder::new();
        assert_eq!(r.idle_fraction(), None);
        r.finish();
        assert_eq!(r.total_cycles(), 0);
        assert!(r.into_spectrum().is_empty());
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(IdleHistogram::bucket_of(1), 0);
        assert_eq!(IdleHistogram::bucket_of(2), 1);
        assert_eq!(IdleHistogram::bucket_of(3), 1);
        assert_eq!(IdleHistogram::bucket_of(4), 2);
        assert_eq!(IdleHistogram::bucket_of(8191), 12);
        assert_eq!(IdleHistogram::bucket_of(8192), 13);
        assert_eq!(IdleHistogram::bucket_of(1_000_000), 13);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn zero_interval_panics() {
        IdleHistogram::bucket_of(0);
    }

    #[test]
    fn bucket_labels() {
        assert_eq!(IdleHistogram::bucket_label(0), 1);
        assert_eq!(IdleHistogram::bucket_label(5), 32);
        assert_eq!(IdleHistogram::bucket_label(13), 8192);
    }

    #[test]
    fn record_weights_by_length() {
        let mut h = IdleHistogram::new();
        h.record_all(&[5, 6, 7]); // all in bucket 2 ([4, 8))
        assert_eq!(h.idle_cycles_in_bucket(2), 18);
        assert_eq!(h.count_in_bucket(2), 3);
        assert_eq!(h.total_idle_cycles(), 18);
        assert_eq!(h.total_intervals(), 3);
    }

    #[test]
    fn spectrum_view_matches_per_interval_recording() {
        let intervals = [5u64, 6, 7, 7, 9_000, 1];
        let mut per_interval = IdleHistogram::new();
        per_interval.record_all(&intervals);
        let mut via_spectrum = IdleHistogram::new();
        via_spectrum.record_spectrum(&lengths(&intervals));
        assert_eq!(per_interval, via_spectrum);
    }

    #[test]
    fn cap_accumulates_long_intervals() {
        let mut h = IdleHistogram::new();
        h.record(10_000);
        h.record(50_000);
        assert_eq!(h.idle_cycles_in_bucket(IdleHistogram::BUCKETS - 1), 60_000);
        assert_eq!(h.count_in_bucket(IdleHistogram::BUCKETS - 1), 2);
    }

    #[test]
    fn time_fractions_normalize_by_total_cycles() {
        let mut h = IdleHistogram::new();
        h.record(10);
        h.record(30);
        let f = h.time_fractions(100);
        assert!((f[3] - 0.10).abs() < 1e-12); // 10 in [8,16)
        assert!((f[4] - 0.30).abs() < 1e-12); // 30 in [16,32)
        let sum: f64 = f.iter().sum();
        assert!((sum - 0.4).abs() < 1e-12);
        assert_eq!(h.time_fractions(0), [0.0; IdleHistogram::BUCKETS]);
    }

    #[test]
    fn idle_time_fraction_below_limit() {
        let mut h = IdleHistogram::new();
        h.record(2); // bucket 1
        h.record(2);
        h.record(64); // bucket 6
                      // Below 64 (bucket 6): buckets 0..6 contain 4 of 68 cycles.
        let f = h.idle_time_fraction_below(64);
        assert!((f - 4.0 / 68.0).abs() < 1e-12);
        assert_eq!(IdleHistogram::new().idle_time_fraction_below(64), 0.0);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = IdleHistogram::new();
        a.record(4);
        let mut b = IdleHistogram::new();
        b.record(5);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.idle_cycles_in_bucket(2), 9);
        assert_eq!(a.count_in_bucket(2), 2);
        assert_eq!(a.count_in_bucket(13), 1);
    }

    #[test]
    fn recorder_feeds_histogram() {
        let mut r = IdleRecorder::new();
        for &b in &[true, false, false, false, true, false] {
            r.observe(b);
        }
        r.finish();
        let mut h = IdleHistogram::new();
        h.record_spectrum(r.spectrum());
        assert_eq!(h.total_idle_cycles(), 4);
        assert_eq!(h.total_intervals(), 2);
    }
}
