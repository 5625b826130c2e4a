//! Property tests for the online idle-interval recorders.
//!
//! The timing simulator used to buffer every busy cycle per FU and
//! convert the sorted list into idle intervals after the run; the
//! [`IdleCursor`] replaces that with incremental recording straight
//! into an [`IntervalSpectrum`]. These tests pin the equivalence: on
//! *any* nondecreasing busy stream — duplicates and trailing idle
//! included — the online recorder must reproduce the historical
//! post-hoc conversion exactly, and the boolean-stream
//! [`IdleRecorder`] adapter must agree with the cursor it wraps,
//! open-trailing-run totals included (the PR 2 semantics).

use fuleak_core::{IdleCursor, IdleRecorder, IntervalSpectrum};
use proptest::prelude::*;

/// The historical post-hoc conversion (the old
/// `SimResult::idle_from_busy`), kept verbatim as the test oracle:
/// sorted busy cycles over `[0, total_cycles)` to maximal idle runs.
fn idle_from_busy_oracle(cycles: &[u64], total_cycles: u64) -> Vec<u64> {
    let mut intervals = Vec::new();
    let mut cursor = 0u64;
    for &c in cycles {
        let c_clipped = c.min(total_cycles);
        if c_clipped > cursor {
            intervals.push(c_clipped - cursor);
        }
        if c >= total_cycles {
            cursor = total_cycles;
            break;
        }
        cursor = c + 1;
    }
    if total_cycles > cursor {
        intervals.push(total_cycles - cursor);
    }
    intervals
}

prop_compose! {
    /// An arbitrary sorted busy stream (duplicates allowed, possibly
    /// empty) plus a total-cycle count leaving room for trailing idle.
    fn busy_stream()(
        raw_cycles in proptest::collection::vec(0u64..500, 0..200),
        trailing in 0u64..100,
    ) -> (Vec<u64>, u64) {
        let mut cycles = raw_cycles;
        cycles.sort_unstable();
        let total = cycles.last().map_or(0, |&c| c + 1) + trailing;
        (cycles, total)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The online cursor recorder reproduces the post-hoc conversion
    /// on arbitrary busy streams, duplicate cycles and trailing idle
    /// included, and counts every busy record as active.
    #[test]
    fn cursor_matches_posthoc_conversion(stream in busy_stream()) {
        let (cycles, total) = stream;
        let mut cursor = IdleCursor::new();
        for &c in &cycles {
            cursor.record_busy(c);
        }
        cursor.finish(total);
        let oracle = idle_from_busy_oracle(&cycles, total);
        prop_assert_eq!(
            cursor.spectrum(),
            &IntervalSpectrum::from_lengths(&oracle)
        );
        prop_assert_eq!(cursor.active_cycles(), cycles.len() as u64);
    }

    /// Splitting the stream at an arbitrary point and recording the
    /// two halves into one cursor changes nothing — the incremental
    /// flushes the simulator performs mid-run are invisible.
    #[test]
    fn cursor_is_insensitive_to_flush_points(
        stream in busy_stream(),
        split in 0usize..200,
    ) {
        let (cycles, total) = stream;
        let split = split.min(cycles.len());
        let mut split_cursor = IdleCursor::new();
        for &c in &cycles[..split] {
            split_cursor.record_busy(c);
        }
        let mut whole_cursor = split_cursor.clone();
        for &c in &cycles[split..] {
            split_cursor.record_busy(c);
            whole_cursor.record_busy(c);
        }
        split_cursor.finish(total);
        whole_cursor.finish(total);
        prop_assert_eq!(split_cursor, whole_cursor);
    }

    /// The boolean-stream adapter agrees with the cursor it wraps on
    /// deduplicated streams (the boolean form cannot express a
    /// duplicate busy cycle), and its cycle totals — which include an
    /// idle run still open at the end of the stream, per the PR 2
    /// semantics — conserve every cycle *before* `finish()` runs.
    #[test]
    fn adapter_matches_cursor_and_counts_open_runs(stream in busy_stream()) {
        let (cycles, total) = stream;
        let mut dedup = cycles.clone();
        dedup.dedup();
        let mut cursor = IdleCursor::new();
        let mut bools = IdleRecorder::new();
        let mut next = dedup.iter().copied().peekable();
        for cycle in 0..total {
            let busy = next.peek() == Some(&cycle);
            if busy {
                next.next();
                cursor.record_busy(cycle);
            }
            bools.observe(busy);
        }
        // Open-trailing-run semantics: totals are complete before the
        // stream is finished, even though the spectrum is not.
        prop_assert_eq!(bools.total_cycles(), total);
        prop_assert_eq!(bools.idle_cycles() + dedup.len() as u64, total);
        bools.finish();
        cursor.finish(total);
        prop_assert_eq!(cursor.spectrum(), bools.spectrum());
        prop_assert_eq!(cursor.active_cycles(), bools.active_cycles());
        // Conservation either way: every cycle is active or idle.
        prop_assert_eq!(
            cursor.spectrum().idle_cycles() + dedup.len() as u64,
            total
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One busy run equals its `len` single-cycle records, whatever the
    /// run's position against the cursor: after a gap, adjacent,
    /// overlapping already-recorded cycles, wholly behind the cursor,
    /// or empty.
    #[test]
    fn busy_run_equals_repeated_busy_cycles(
        starts in proptest::collection::vec(0u64..400, 0..60),
        lens in proptest::collection::vec(prop_oneof![0u64..3, 0u64..70], 60..61),
        total in 0u64..500,
    ) {
        let mut runs = IdleCursor::new();
        let mut cycles = IdleCursor::new();
        for (&start, &len) in starts.iter().zip(&lens) {
            runs.record_busy_run(start, len);
            for c in start..start + len {
                cycles.record_busy(c);
            }
            prop_assert_eq!(&runs, &cycles);
        }
        runs.finish(total);
        cycles.finish(total);
        prop_assert_eq!(runs, cycles);
    }
}
