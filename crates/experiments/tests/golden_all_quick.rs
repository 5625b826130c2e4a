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
//! The explorer is checked the same way: `explore_quick.json` is the
//! JSON of an explore spec covering all six policy families, slice
//! counts from 1 to past every interval and both ends of the knob
//! ranges, at `--jobs 1` and `--jobs 4`; and a two-benchmark spec must
//! print the same text and JSON at either job count.
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

/// Panics, naming the first differing line, unless `got` is `want`
/// (read from `source`).
fn assert_bytes(what: &str, got: &[u8], want: &[u8], source: &str) {
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
        "{what} differs from {source} at line {}:\n  got:  {:?}\n  want: {:?}\n({} vs {} bytes)",
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
            &stdout_path.display().to_string(),
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
            &summary_path.display().to_string(),
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

/// The command of `explore_quick.json`.
const EXPLORE_GOLDEN: &[&str] = &[
    "explore",
    "--bench",
    "gzip",
    "--policy",
    "maxsleep,gradualsleep,alwaysactive,nooverhead,timeout,adaptive",
    "--slices",
    "1,8,4000000000",
    "--leak",
    "0:1:0.25",
    "--transition",
    "0:1:0.5",
    "--quick",
    "--format",
    "json",
];

/// A two-benchmark explore spec for the worker-count check.
const EXPLORE_TWO_BENCH: &[&str] = &[
    "explore",
    "--bench",
    "gzip,vpr",
    "--slices",
    "1,4,16,64",
    "--leak",
    "0:1:0.1",
    "--transition",
    "0:1:0.1",
    "--quick",
];

/// The stdout of `repro <args> --jobs <jobs>` with no store attached.
fn repro_stdout(args: &[&str], jobs: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--jobs", jobs])
        .env_remove("FULEAK_STORE")
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro {} --jobs {jobs} failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn explore_matches_golden_at_jobs_1_and_4() {
    let (path, want) = golden("explore_quick.json");
    for jobs in ["1", "4"] {
        assert_bytes(
            &format!("repro explore (golden spec) --jobs {jobs}"),
            &repro_stdout(EXPLORE_GOLDEN, jobs),
            &want,
            &path.display().to_string(),
        );
    }
}

#[test]
fn explore_text_and_json_are_jobs_invariant() {
    for format in ["text", "json"] {
        let args = [EXPLORE_TWO_BENCH, &["--format", format]].concat();
        assert_bytes(
            &format!("repro explore (two benchmarks) --format {format} --jobs 4"),
            &repro_stdout(&args, "4"),
            &repro_stdout(&args, "1"),
            "the --jobs 1 stdout",
        );
    }
}
