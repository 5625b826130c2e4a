//! `repro all --quick` against its committed goldens, at `--jobs 1`
//! and at `--jobs 4`, with the result store off, cold and warm.
//!
//! Two goldens are checked, byte for byte:
//!
//! * `repro_all_quick.txt` is the frozen paper-grid transcript: every
//!   table and figure the suite prints, so any drift in the timing
//!   kernel, the interval spectra or the policy pricing shows up here.
//!   Every run's stdout must equal it.
//! * `engine_summary_quick.txt` holds the stderr `engine total:` line
//!   of each run, in the order of the [`RUNS`] table: jobs 1 then 4,
//!   each with the store off, then cold on a fresh directory, then
//!   warm on that same directory. It pins the memo and disk counting
//!   rules: hits, misses, computes and store reads and writes must
//!   repeat exactly.
//!
//! Each job count is its own test so the harness runs them
//! concurrently. There is no bless mode: a golden changes only when
//! its command is re-run on purpose.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The store configuration of one run.
#[derive(Clone, Copy, Debug)]
enum Store {
    Off,
    Cold,
    Warm,
}

/// Every run, in the order of `engine_summary_quick.txt`'s rows.
const RUNS: [(&str, Store); 6] = [
    ("1", Store::Off),
    ("1", Store::Cold),
    ("1", Store::Warm),
    ("4", Store::Off),
    ("4", Store::Cold),
    ("4", Store::Warm),
];

fn golden(name: &str) -> (PathBuf, Vec<u8>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    (path, bytes)
}

/// Panics, naming the first differing line, unless `got` is `want`.
fn assert_bytes(what: &str, got: &[u8], want: &[u8], golden: &Path) {
    if got == want {
        return;
    }
    let (got_text, want_text) = (String::from_utf8_lossy(got), String::from_utf8_lossy(want));
    let line = got_text
        .lines()
        .zip(want_text.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got_text.lines().count().min(want_text.lines().count()));
    panic!(
        "{what} differs from {} at line {}:\n  got:  {:?}\n  want: {:?}\n({} vs {} bytes)",
        golden.display(),
        line + 1,
        got_text.lines().nth(line),
        want_text.lines().nth(line),
        got.len(),
        want.len()
    );
}

/// Runs every [`RUNS`] row of one job count, in order, on one fresh
/// store directory.
fn assert_matches_goldens(jobs: &str) {
    let (stdout_path, stdout_golden) = golden("repro_all_quick.txt");
    let (summary_path, summary_golden) = golden("engine_summary_quick.txt");
    let summary_rows: Vec<&[u8]> = summary_golden.split_inclusive(|&b| b == b'\n').collect();
    assert_eq!(summary_rows.len(), RUNS.len(), "one summary row per run");
    let store = std::env::temp_dir().join(format!(
        "fuleak-golden-store-{}-j{jobs}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&store);
    for (row, &(_, config)) in RUNS.iter().enumerate().filter(|(_, r)| r.0 == jobs) {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.args(["all", "--quick", "--jobs", jobs])
            // Only the row's own store may be attached.
            .env_remove("FULEAK_STORE");
        if !matches!(config, Store::Off) {
            cmd.arg("--store").arg(&store);
        }
        let out = cmd.output().expect("run repro");
        let what = format!("repro all --quick --jobs {jobs}, store {config:?},");
        assert!(
            out.status.success(),
            "{what} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_bytes(
            &format!("{what} stdout"),
            &out.stdout,
            &stdout_golden,
            &stdout_path,
        );
        let summary: Vec<u8> = out
            .stderr
            .split_inclusive(|&b| b == b'\n')
            .filter(|l| l.windows(13).any(|w| w == b"engine total:"))
            .flatten()
            .copied()
            .collect();
        assert_bytes(
            &format!("{what} engine total"),
            &summary,
            summary_rows[row],
            &summary_path,
        );
    }
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn repro_all_quick_matches_golden_at_jobs_1() {
    assert_matches_goldens("1");
}

#[test]
fn repro_all_quick_matches_golden_at_jobs_4() {
    assert_matches_goldens("4");
}
