//! `repro all --quick` stdout against its committed golden, byte for
//! byte, at `--jobs 1` and at `--jobs 4`.
//!
//! The golden is the frozen paper-grid transcript: every table and
//! figure the suite prints, so any drift in the timing kernel, the
//! interval spectra or the policy pricing shows up here. The two job
//! counts are separate tests so the harness runs them concurrently.
//! There is no bless mode: the golden changes only when its command is
//! re-run on purpose.

use std::path::Path;
use std::process::Command;

fn assert_matches_golden(jobs: &str) {
    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/repro_all_quick.txt");
    let golden = std::fs::read(&golden_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--quick", "--jobs", jobs])
        // Simulate from scratch: a store from the environment would
        // only change where results come from, and would be written to.
        .env_remove("FULEAK_STORE")
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro all --quick --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    if out.stdout != golden {
        let got = String::from_utf8_lossy(&out.stdout);
        let want = String::from_utf8_lossy(&golden);
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "repro all --quick --jobs {jobs} differs from {} at line {}:\n  got:  {:?}\n  want: {:?}\n({} vs {} bytes)",
            golden_path.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line),
            out.stdout.len(),
            golden.len()
        );
    }
}

#[test]
fn repro_all_quick_matches_golden_at_jobs_1() {
    assert_matches_golden("1");
}

#[test]
fn repro_all_quick_matches_golden_at_jobs_4() {
    assert_matches_golden("4");
}
