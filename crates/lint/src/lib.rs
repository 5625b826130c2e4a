//! `fuleak-lint` — the workspace invariant checker.
//!
//! The reproduction's value proposition — byte-identical stdout at
//! any job count, four cache layers keyed by FNV-1a fingerprints, an
//! allocation-free timing kernel — rests on contracts that used to
//! live only in doc comments and reviewer care. This crate turns them
//! into machine-checked ones: a hand-rolled Rust-source lexer
//! ([`lexer`]) feeds a path-scoped rule engine ([`rules`]) plus a
//! cross-file fingerprint-completeness check ([`fingerprint`]), and
//! the `fuleak-lint` binary walks `crates/*/src` and gates CI.
//!
//! Rules (see [`rules::RULES`]):
//!
//! * `fingerprint-fields` — every `CoreConfig` field has a
//!   `machine.rs::FIELDS` entry whose getter reads it, every
//!   `FRONTEND_GEOMETRY_FIELDS` entry resolves, and
//!   `EnergyModel::fingerprint` covers every model scalar;
//! * `hot-alloc` — `timing.rs`/`policy_eval.rs` steady state never
//!   allocates outside `new*`/`reset*`/`renew*`/`grow*`;
//! * `wallclock` — no `Instant::now`/`SystemTime` outside the
//!   `repro` driver and the serve daemon's request log;
//! * `hash-order` — no default-hasher `HashMap`/`HashSet` in
//!   result/render/fingerprint paths;
//! * `stdout` — `println!`/`print!` only in the whitelisted stdout
//!   modules (`render.rs`, `bin/repro.rs`);
//! * `lock-unwrap` — `.lock().unwrap()` is forbidden in non-test
//!   code in favor of `lock_unpoisoned`.
//!
//! Violations are suppressed per line with `// lint:allow(<rule>)`
//! and a justification comment. The fixture corpus under `fixtures/`
//! pins each rule's behavior, and an integration test asserts the
//! workspace itself lints clean.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod lexer;
pub mod rules;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Rule id (one of [`rules::RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation naming the guarded contract.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The result of linting a workspace: the sorted violations plus how
/// many files were scanned (so "clean" is distinguishable from
/// "found nothing to scan").
#[derive(Debug, Default)]
pub struct Report {
    /// Violations sorted by `(file, line, rule)`.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Lints the workspace rooted at `root`: every `.rs` file under
/// `crates/*/src` through the token rules, plus the cross-file
/// fingerprint-completeness check.
///
/// # Errors
///
/// Returns an [`io::Error`] if `root/crates` cannot be read; missing
/// or unreadable individual files are skipped (the fingerprint check
/// reports expected-but-missing files as violations instead).
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut report = Report::default();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        for file in rs_files(&src) {
            let Ok(source) = fs::read_to_string(&file) else {
                continue;
            };
            let rel = relative(root, &file);
            report.violations.extend(rules::lint_source(&rel, &source));
            report.files_scanned += 1;
        }
    }
    report.violations.extend(fingerprint::check(root));
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// All `.rs` files under `dir`, recursively, in sorted order (so
/// reports and JSON output are deterministic).
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.filter_map(Result::ok) {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    files
}

/// `file` relative to `root`, with forward slashes.
fn relative(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_display_as_file_line_rule() {
        let v = Violation {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            rule: "stdout",
            message: "boom".into(),
        };
        assert_eq!(v.to_string(), "crates/x/src/lib.rs:7: [stdout] boom");
    }
}
