//! Compact idle-interval spectra.
//!
//! The paper's sleep policies are deterministic functions of each idle
//! interval's *length*: two workloads whose idle intervals are the
//! same multiset of lengths cost exactly the same energy under every
//! boundary policy, no matter the order the intervals occurred in. An
//! [`IntervalSpectrum`] is that multiset made explicit — sorted
//! `(length, count)` pairs — and is the representation the timing
//! simulator records per functional unit (replacing raw `Vec<u64>`
//! interval lists) and the representation
//! [`crate::policy_eval::spectrum_run`] evaluates policies over in
//! O(distinct lengths) instead of O(intervals) or O(cycles) — the
//! history-dependent AdaptiveSleep evaluates in the spectrum's
//! canonical ascending order at O(distinct lengths × settle steps).
//!
//! Unlike [`crate::IdleHistogram`] (log2-bucketed, lossy, fixed 14
//! buckets — a *view* for Figure 7), a spectrum is exact: every
//! distinct length keeps its own count, so the histogram, the idle
//! fraction, and every policy energy can be derived from it without
//! error.

/// An exact multiset of idle-interval lengths: sorted
/// `(length, count)` pairs with positive lengths and counts.
///
/// # Example
///
/// ```
/// use fuleak_core::IntervalSpectrum;
///
/// let mut s = IntervalSpectrum::new();
/// for len in [3, 1, 3, 7] {
///     s.record(len);
/// }
/// assert_eq!(s.entries(), &[(1, 1), (3, 2), (7, 1)]);
/// assert_eq!(s.total_intervals(), 4);
/// assert_eq!(s.idle_cycles(), 14);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct IntervalSpectrum {
    /// Sorted by length; counts are nonzero.
    entries: Vec<(u64, u64)>,
}

impl IntervalSpectrum {
    /// Creates an empty spectrum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a spectrum from a list of interval lengths (any order).
    ///
    /// # Panics
    ///
    /// Panics if a length is zero; zero-length idle intervals cannot
    /// exist.
    pub fn from_lengths(lengths: &[u64]) -> Self {
        let mut s = Self::new();
        for &len in lengths {
            s.record(len);
        }
        s
    }

    /// Records one idle interval of `length` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `length == 0`.
    pub fn record(&mut self, length: u64) {
        self.record_n(length, 1);
    }

    /// Records `count` idle intervals of `length` cycles (`count == 0`
    /// is a no-op).
    ///
    /// # Panics
    ///
    /// Panics if `length == 0` and `count > 0`.
    pub fn record_n(&mut self, length: u64, count: u64) {
        if count == 0 {
            return;
        }
        assert!(length > 0, "idle intervals have positive length");
        // Lengths are distinct, positive and ascending, so if entry
        // `length - 1` holds `length`, the entries up to it are exactly
        // 1..=length: the dense short-interval prefix a timing run
        // hits most often needs no search.
        if let Some(entry) = self.entries.get_mut(length as usize - 1) {
            if entry.0 == length {
                entry.1 += count;
                return;
            }
        }
        match self.entries.binary_search_by_key(&length, |&(l, _)| l) {
            Ok(i) => self.entries[i].1 += count,
            Err(i) => self.entries.insert(i, (length, count)),
        }
    }

    /// Merges another spectrum into this one (multiset union). Merging
    /// is commutative and associative, and agrees with concatenating
    /// the underlying interval lists
    /// (`crates/core/tests/spectrum_props.rs`).
    pub fn merge(&mut self, other: &IntervalSpectrum) {
        for &(len, count) in &other.entries {
            self.record_n(len, count);
        }
    }

    /// The `(length, count)` pairs, ascending by length.
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// Number of distinct interval lengths.
    pub fn distinct_lengths(&self) -> usize {
        self.entries.len()
    }

    /// Total number of recorded intervals.
    pub fn total_intervals(&self) -> u64 {
        self.entries.iter().map(|&(_, c)| c).sum()
    }

    /// Total idle cycles across all intervals (`Σ length · count`).
    pub fn idle_cycles(&self) -> u64 {
        self.entries.iter().map(|&(l, c)| l * c).sum()
    }

    /// Whether the spectrum holds no intervals.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets every interval, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Expands the spectrum back to an interval list in the canonical
    /// (ascending-length) order — the order history-dependent policies
    /// are defined to observe a spectrum in.
    pub fn to_lengths(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.total_intervals() as usize);
        for &(len, count) in &self.entries {
            out.extend(std::iter::repeat_n(len, count as usize));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_sorts() {
        let mut s = IntervalSpectrum::new();
        s.record(5);
        s.record(2);
        s.record(5);
        s.record_n(9, 3);
        s.record_n(9, 0); // no-op
        assert_eq!(s.entries(), &[(2, 1), (5, 2), (9, 3)]);
        assert_eq!(s.distinct_lengths(), 3);
        assert_eq!(s.total_intervals(), 6);
        assert_eq!(s.idle_cycles(), 2 + 10 + 27);
        assert!(!s.is_empty());
    }

    #[test]
    fn from_lengths_is_order_insensitive() {
        let a = IntervalSpectrum::from_lengths(&[7, 1, 7, 3]);
        let b = IntervalSpectrum::from_lengths(&[1, 3, 7, 7]);
        assert_eq!(a, b);
        assert_eq!(a.to_lengths(), vec![1, 3, 7, 7]);
    }

    #[test]
    fn merge_is_multiset_union() {
        let mut a = IntervalSpectrum::from_lengths(&[1, 4]);
        let b = IntervalSpectrum::from_lengths(&[4, 4, 9]);
        a.merge(&b);
        assert_eq!(a, IntervalSpectrum::from_lengths(&[1, 4, 4, 4, 9]));
        // Merging an empty spectrum changes nothing.
        a.merge(&IntervalSpectrum::new());
        assert_eq!(a.total_intervals(), 5);
    }

    #[test]
    fn clear_keeps_nothing() {
        let mut s = IntervalSpectrum::from_lengths(&[2, 2, 8]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.idle_cycles(), 0);
        assert_eq!(s, IntervalSpectrum::new());
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn zero_length_panics() {
        IntervalSpectrum::new().record(0);
    }
}
