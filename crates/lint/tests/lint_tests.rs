//! Fixture-corpus and workspace-level tests for `fuleak-lint`.
//!
//! Bad fixtures mark each expected finding with a trailing
//! `// BAD: <rule>` comment, so the expectation lives next to the
//! offending line and cannot drift when fixtures are edited. Good
//! fixtures must replay clean under the same pretend path. The
//! fingerprint fixtures are miniature `crates/*/src` trees replayed
//! through the cross-file checker, and the acceptance tests replay
//! the *real* workspace sources with seeded mutations.

use fuleak_lint::{fingerprint, lint_workspace, rules, Violation};
use std::fs;
use std::path::{Path, PathBuf};

/// Repository root, derived from this crate's manifest dir.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Derives the expected `(line, rule)` pairs from `// BAD: <rule>`
/// markers in fixture source.
fn expected(src: &str) -> Vec<(usize, String)> {
    let mut exp: Vec<(usize, String)> = src
        .lines()
        .enumerate()
        .filter_map(|(i, l)| {
            l.split("// BAD: ")
                .nth(1)
                .map(|r| (i + 1, r.trim().to_string()))
        })
        .collect();
    exp.sort();
    exp
}

fn found(violations: Vec<Violation>) -> Vec<(usize, String)> {
    let mut got: Vec<(usize, String)> = violations
        .into_iter()
        .map(|v| (v.line, v.rule.to_string()))
        .collect();
    got.sort();
    got
}

/// One bad/good fixture pair replayed under its pretend path: the bad
/// file must produce exactly its marked findings, the good file none.
fn check_pair(bad: &str, good: &str, pretend_path: &str) {
    let bad_src = fixture(bad);
    let exp = expected(&bad_src);
    assert!(!exp.is_empty(), "{bad} has no `// BAD:` markers");
    for (_, rule) in &exp {
        assert!(
            rules::RULES.contains(&rule.as_str()),
            "{bad} marks unknown rule `{rule}`"
        );
    }
    assert_eq!(
        found(rules::lint_source(pretend_path, &bad_src)),
        exp,
        "{bad} under {pretend_path}"
    );
    let good_src = fixture(good);
    assert_eq!(
        found(rules::lint_source(pretend_path, &good_src)),
        Vec::<(usize, String)>::new(),
        "{good} under {pretend_path}"
    );
}

#[test]
fn hot_alloc_fixtures() {
    check_pair(
        "bad_hot_alloc.rs",
        "good_hot_alloc.rs",
        "crates/uarch/src/timing.rs",
    );
    // The same bad source is clean outside the hot-path scope.
    let bad = fixture("bad_hot_alloc.rs");
    assert!(rules::lint_source("crates/uarch/src/pipeline.rs", &bad).is_empty());
}

#[test]
fn grid_hot_alloc_fixtures() {
    // The grid-batched policy kernel joined the hot-alloc scope:
    // `run` is the steady state, `new_batch`/`renew_batch` the
    // sanctioned growth points.
    check_pair(
        "bad_grid_hot_alloc.rs",
        "good_grid_hot_alloc.rs",
        "crates/core/src/policy_eval.rs",
    );
    // The same bad source is clean outside the hot-path scope.
    let bad = fixture("bad_grid_hot_alloc.rs");
    assert!(rules::lint_source("crates/core/src/spectrum.rs", &bad).is_empty());
}

#[test]
fn explore_scope_fixtures() {
    // The explorer is pinned by both the stdout rule (tables are
    // returned, never printed) and the hash-order rule (folds merge
    // in deterministic order).
    check_pair(
        "bad_explore_stdout_hash.rs",
        "good_explore_stdout_hash.rs",
        "crates/experiments/src/explore.rs",
    );
    // Outside explore.rs the hash-order half does not apply.
    let bad = fixture("bad_explore_stdout_hash.rs");
    let outside = found(rules::lint_source(
        "crates/experiments/src/scenario.rs",
        &bad,
    ));
    assert!(outside.iter().all(|(_, rule)| rule == "stdout"));
}

#[test]
fn stdout_fixtures() {
    check_pair(
        "bad_stdout.rs",
        "good_stdout.rs",
        "crates/experiments/src/scenario.rs",
    );
    // The render surface is whitelisted.
    let bad = fixture("bad_stdout.rs");
    assert!(rules::lint_source("crates/experiments/src/render.rs", &bad).is_empty());
    assert!(rules::lint_source("crates/experiments/src/bin/repro.rs", &bad).is_empty());
}

#[test]
fn wallclock_fixtures() {
    check_pair(
        "bad_wallclock.rs",
        "good_wallclock.rs",
        "crates/core/src/energy.rs",
    );
    // Only the repro driver and the serve daemon's request logging
    // may read the wall clock; any other experiments module may not.
    let bad = fixture("bad_wallclock.rs");
    assert!(rules::lint_source("crates/experiments/src/bin/repro.rs", &bad).is_empty());
    assert!(rules::lint_source("crates/experiments/src/serve.rs", &bad).is_empty());
    assert_eq!(
        found(rules::lint_source(
            "crates/experiments/src/explore.rs",
            &bad
        )),
        expected(&bad)
    );
    // The result store is deliberately *not* exempt: its atime reads
    // go through per-line allows instead of a scope hole.
    assert_eq!(
        found(rules::lint_source("crates/experiments/src/store.rs", &bad)),
        expected(&bad)
    );
}

#[test]
fn hash_order_fixtures() {
    check_pair(
        "bad_hash_order.rs",
        "good_hash_order.rs",
        "crates/experiments/src/result.rs",
    );
    // The rule is scoped to output/fingerprint paths only.
    let bad = fixture("bad_hash_order.rs");
    assert!(rules::lint_source("crates/experiments/src/scenario.rs", &bad).is_empty());
    // The codec and the disk store joined the scope: hasher-ordered
    // iteration there could leak into encoded bytes or eviction order.
    assert_eq!(
        found(rules::lint_source("crates/core/src/codec.rs", &bad)),
        expected(&bad)
    );
    assert_eq!(
        found(rules::lint_source("crates/experiments/src/store.rs", &bad)),
        expected(&bad)
    );
    assert!(rules::lint_source("crates/experiments/src/serve.rs", &bad).is_empty());
}

#[test]
fn serving_tier_scope_fixtures() {
    // The response cache joined both deterministic scopes: its LRU
    // recency must be a logical clock (wallclock) and its entry map
    // order must never leak into eviction or the disk tier
    // (hash-order).
    check_pair(
        "bad_respcache_clock_hash.rs",
        "good_respcache_clock_hash.rs",
        "crates/experiments/src/respcache.rs",
    );
    let bad = fixture("bad_respcache_clock_hash.rs");
    // Outside the hash-order scope only the wallclock half applies,
    // and it applies to every non-exempt experiments module.
    let scenario = found(rules::lint_source(
        "crates/experiments/src/scenario.rs",
        &bad,
    ));
    assert!(!scenario.is_empty());
    assert!(scenario.iter().all(|(_, rule)| rule == "wallclock"));
    // The serve daemon keeps its request-log timing exemption and
    // stays outside the hash-order scope.
    assert!(rules::lint_source("crates/experiments/src/serve.rs", &bad).is_empty());
}

#[test]
fn lock_unwrap_fixtures() {
    check_pair(
        "bad_lock_unwrap.rs",
        "good_lock_unwrap.rs",
        "crates/experiments/src/policy.rs",
    );
}

#[test]
fn allow_marker_suppresses_exactly_one_rule_on_exactly_one_line() {
    // Two identical violations; only the marked line is suppressed.
    let src = "fn a() { println!(\"x\"); } // lint:allow(stdout)\n\
               fn b() { println!(\"y\"); }\n";
    let got = found(rules::lint_source(
        "crates/experiments/src/scenario.rs",
        src,
    ));
    assert_eq!(got, [(2, "stdout".to_string())]);

    // A marker names one rule: a different rule on the same line
    // still fires.
    let src = "use std::collections::HashMap; // lint:allow(stdout)\n";
    let got = found(rules::lint_source("crates/experiments/src/result.rs", src));
    assert_eq!(got, [(1, "hash-order".to_string())]);
}

#[test]
fn fingerprint_good_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/fingerprint_good");
    let v = fingerprint::check(&root);
    assert!(v.is_empty(), "expected clean, got: {v:?}");
}

#[test]
fn fingerprint_bad_tree_reports_every_violation_kind() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/fingerprint_bad");
    let mut got: Vec<(String, usize)> = fingerprint::check(&root)
        .into_iter()
        .inspect(|v| assert_eq!(v.rule, "fingerprint-fields"))
        .map(|v| (v.file.clone(), v.line))
        .collect();
    got.sort();
    let mut exp = vec![
        // `rob_entries` and the expanded `l1d.ways` lack FIELDS entries.
        ("crates/uarch/src/config.rs".to_string(), 12),
        ("crates/uarch/src/config.rs".to_string(), 13),
        // Duplicate `width`, `depth` getter reads the wrong field,
        // stale `issue_queue`, unresolved front-end `fetch_queue`.
        ("crates/uarch/src/machine.rs".to_string(), 11),
        ("crates/uarch/src/machine.rs".to_string(), 12),
        ("crates/uarch/src/machine.rs".to_string(), 14),
        ("crates/uarch/src/machine.rs".to_string(), 17),
        // One tech getter for two TechnologyParams fields, and `beta`
        // never hashed — both anchored at the `fingerprint` fn line.
        ("crates/core/src/model.rs".to_string(), 13),
        ("crates/core/src/model.rs".to_string(), 13),
    ];
    exp.sort();
    assert_eq!(got, exp);
}

#[test]
fn workspace_lints_clean() {
    let report = lint_workspace(&repo_root()).expect("lint workspace");
    assert!(
        report.files_scanned > 50,
        "scanned {}",
        report.files_scanned
    );
    let rendered: Vec<String> = report.violations.iter().map(|v| v.to_string()).collect();
    assert!(
        report.violations.is_empty(),
        "workspace must lint clean:\n{}",
        rendered.join("\n")
    );
}

// ---------------------------------------------------------------------------
// Acceptance: the fingerprint checker replayed over the *real* sources
// with seeded mutations — deleting any FIELDS entry, or adding a
// CoreConfig field without one, must fail the lint.
// ---------------------------------------------------------------------------

/// A scratch `crates/*/src` tree holding copies of the real
/// fingerprint-relevant sources, removed on drop.
struct ScratchTree {
    root: PathBuf,
}

impl ScratchTree {
    fn with_real_sources(tag: &str) -> Self {
        let root = std::env::temp_dir().join(format!("fuleak-lint-{}-{tag}", std::process::id()));
        let tree = ScratchTree { root };
        for rel in [
            "crates/uarch/src/config.rs",
            "crates/uarch/src/machine.rs",
            "crates/core/src/model.rs",
            "crates/core/src/tech.rs",
        ] {
            let src = repo_root().join(rel);
            let dst = tree.root.join(rel);
            fs::create_dir_all(dst.parent().unwrap()).unwrap();
            fs::copy(&src, &dst).unwrap_or_else(|e| panic!("copy {rel}: {e}"));
        }
        tree
    }

    fn write(&self, rel: &str, content: &str) {
        fs::write(self.root.join(rel), content).unwrap();
    }

    fn check(&self) -> Vec<Violation> {
        fingerprint::check(&self.root)
    }
}

impl Drop for ScratchTree {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn real_sources_replay_clean() {
    let tree = ScratchTree::with_real_sources("clean");
    let v = tree.check();
    assert!(v.is_empty(), "real sources must be clean, got: {v:?}");
}

#[test]
fn deleting_any_fields_entry_fails_the_lint() {
    let tree = ScratchTree::with_real_sources("delete");
    let machine = fs::read_to_string(tree.root.join("crates/uarch/src/machine.rs")).unwrap();
    let lines: Vec<&str> = machine.lines().collect();

    // Locate the FIELDS table body and its `("name", …)` entry lines.
    let start = lines
        .iter()
        .position(|l| l.starts_with("const FIELDS"))
        .expect("FIELDS table in real machine.rs");
    let end = start
        + lines[start..]
            .iter()
            .position(|l| l.trim() == "];")
            .expect("FIELDS table terminator");
    let entry_lines: Vec<usize> = (start..end)
        .filter(|&i| lines[i].trim_start().starts_with("(\""))
        .collect();
    assert!(
        entry_lines.len() >= 40,
        "expected the full FIELDS table, found {} entries",
        entry_lines.len()
    );

    for &doomed in &entry_lines {
        let mutated: String = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != doomed)
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        tree.write("crates/uarch/src/machine.rs", &mutated);
        let v = tree.check();
        assert!(
            v.iter()
                .any(|v| v.rule == "fingerprint-fields" && v.file.ends_with("config.rs")),
            "deleting FIELDS line {} ({}) went undetected",
            doomed + 1,
            lines[doomed].trim()
        );
    }
}

#[test]
fn adding_an_unfingerprinted_config_field_fails_the_lint() {
    let tree = ScratchTree::with_real_sources("add");
    let config = fs::read_to_string(tree.root.join("crates/uarch/src/config.rs")).unwrap();
    let marker = "pub struct CoreConfig {";
    assert!(config.contains(marker));
    let mutated = config.replace(
        marker,
        "pub struct CoreConfig {\n    pub phantom_knob: u32,",
    );
    tree.write("crates/uarch/src/config.rs", &mutated);
    let v = tree.check();
    assert!(
        v.iter()
            .any(|v| v.rule == "fingerprint-fields" && v.message.contains("phantom_knob")),
        "unfingerprinted field went undetected: {v:?}"
    );
}
