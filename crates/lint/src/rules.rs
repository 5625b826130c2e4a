//! The token-stream rules: per-file invariant checks with
//! function-name and test-region awareness.
//!
//! Each rule is scoped by workspace-relative path (see the `applies_*`
//! helpers) so the same engine both audits the real tree and replays
//! fixture files under pretend paths. A `// lint:allow(<rule>)` line
//! comment suppresses exactly that rule on exactly that line; the
//! binary's `--fix-allowlist` mode prints the markers that would
//! silence the current findings.
//!
//! | rule | contract |
//! |---|---|
//! | `hot-alloc` | `timing.rs`/`policy_eval.rs` steady state never allocates: `Vec::new`/`vec!`/`Box::new`/`format!`/`.to_string()`/`.collect()`/`.clone()` only inside `new*`/`reset*`/`renew*`/`grow*` or behind an allow |
//! | `stdout` | `println!`/`print!` only in `render.rs`/`bin/repro.rs` — the golden-transcript surface is closed by construction |
//! | `wallclock` | `Instant::now`/`SystemTime` only in `bin/repro.rs`/`serve.rs` (request-log timing) — results never depend on wall time |
//! | `hash-order` | no default-hasher `HashMap`/`HashSet` in result/render/fingerprint/codec/store/respcache paths — iteration order there must be deterministic |
//! | `lock-unwrap` | `.lock().unwrap()` is forbidden in favor of `lock_unpoisoned` — a panicked worker must not cascade |

use crate::lexer::{lex, Tok, TokKind};
use crate::Violation;

/// Every rule id the engine knows, in report order. `lint:allow`
/// markers must name one of these.
pub const RULES: &[&str] = &[
    "fingerprint-fields",
    "hot-alloc",
    "wallclock",
    "hash-order",
    "stdout",
    "lock-unwrap",
];

/// Hot-path files under the zero-steady-state-allocation contract
/// (DESIGN.md §6: scratch is reset and reused, never rebuilt).
fn applies_hot_alloc(rel: &str) -> bool {
    rel.ends_with("crates/uarch/src/timing.rs") || rel.ends_with("crates/core/src/policy_eval.rs")
}

/// Modules allowed to write to stdout: the render layer and the
/// `repro` driver. Everything else stderr-only, so the golden
/// transcript can only change where diffs are expected. The lint
/// CLI's own reports are its product, not part of the transcript.
fn applies_stdout(rel: &str) -> bool {
    !(rel.ends_with("crates/experiments/src/render.rs")
        || rel.ends_with("crates/experiments/src/bin/repro.rs")
        || rel.contains("crates/lint/src"))
}

/// Wall-clock reads are confined to the `repro` driver (the
/// explorer's grid-time note) and the serve daemon's stderr request
/// logs. The result store is *not* exempt: its atime touches carry
/// per-line allows, so any new clock read there must justify itself.
fn applies_wallclock(rel: &str) -> bool {
    !(rel.ends_with("crates/experiments/src/bin/repro.rs")
        || rel.ends_with("crates/experiments/src/serve.rs"))
}

/// Output- and fingerprint-path files where default-hasher
/// collections are banned outright: anything iterated there would
/// depend on hasher state. `BTreeMap`, sorted `Vec`s, or an explicit
/// allow (for proven lookup-only maps) are the alternatives.
fn applies_hash_order(rel: &str) -> bool {
    rel.ends_with("crates/experiments/src/result.rs")
        || rel.ends_with("crates/experiments/src/render.rs")
        || rel.ends_with("crates/uarch/src/machine.rs")
        || rel.ends_with("crates/core/src/model.rs")
        || rel.ends_with("crates/core/src/codec.rs")
        || rel.ends_with("crates/experiments/src/store.rs")
        || rel.ends_with("crates/experiments/src/explore.rs")
        || rel.ends_with("crates/experiments/src/respcache.rs")
}

/// Function names whose bodies may allocate under `hot-alloc`:
/// constructors (`new*` — `new_batch` builds the batched grid
/// kernel), the reset-and-reuse/re-target paths (`reset*`, `renew*` —
/// a `renew` refills cleared lane vectors, growing slabs only until
/// the high-water mark), and the explicit slab-growth escapes counted
/// by `scratch_growths`.
fn growth_fn(name: &str) -> bool {
    name.starts_with("new")
        || name.starts_with("reset")
        || name.starts_with("renew")
        || name.starts_with("grow")
}

/// Runs every path-scoped token rule over one file. `rel` is the
/// workspace-relative path (forward slashes) that determines which
/// rules apply; fixtures pass pretend paths.
pub fn lint_source(rel: &str, source: &str) -> Vec<Violation> {
    let lexed = lex(source);
    let toks = &lexed.tokens;
    let mut violations = Vec::new();
    let mut depth = 0usize;
    let mut fn_stack: Vec<(String, usize)> = Vec::new();
    let mut test_stack: Vec<usize> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut pending_test = false;

    let mut push = |line: usize, rule: &'static str, message: String| {
        let allowed = lexed.allows.iter().any(|(l, r)| *l == line && r == rule);
        if !allowed {
            violations.push(Violation {
                file: rel.to_string(),
                line,
                rule,
                message,
            });
        }
    };

    for (i, tok) in toks.iter().enumerate() {
        match &tok.kind {
            TokKind::Punct('{') => {
                depth += 1;
                if let Some(name) = pending_fn.take() {
                    fn_stack.push((name, depth));
                }
                if pending_test {
                    test_stack.push(depth);
                    pending_test = false;
                }
            }
            TokKind::Punct('}') => {
                while fn_stack.last().is_some_and(|(_, d)| *d == depth) {
                    fn_stack.pop();
                }
                while test_stack.last() == Some(&depth) {
                    test_stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            TokKind::Punct(';') => {
                // A declaration ended before any body opened: a trait
                // method signature or a `#[cfg(test)] use …;`.
                pending_fn = None;
                pending_test = false;
            }
            TokKind::Punct('#') if punct_at(toks, i + 1, '[') && attr_is_test(toks, i + 2) => {
                pending_test = true;
            }
            TokKind::Ident(id) if id == "fn" => {
                if let Some(TokKind::Ident(name)) = toks.get(i + 1).map(|t| &t.kind) {
                    pending_fn = Some(name.clone());
                }
            }
            _ => {}
        }

        let in_test = !test_stack.is_empty();
        let line = tok.line;

        if applies_stdout(rel) && !in_test {
            if let TokKind::Ident(id) = &tok.kind {
                if (id == "println" || id == "print") && punct_at(toks, i + 1, '!') {
                    push(
                        line,
                        "stdout",
                        format!(
                            "`{id}!` outside the whitelisted stdout modules \
                             (render.rs, bin/repro.rs); write to stderr or return the text"
                        ),
                    );
                }
            }
        }

        if applies_wallclock(rel) && !in_test {
            if ident_at(toks, i, "Instant")
                && punct_at(toks, i + 1, ':')
                && punct_at(toks, i + 2, ':')
                && ident_at(toks, i + 3, "now")
            {
                push(
                    line,
                    "wallclock",
                    "`Instant::now` outside the repro driver and serve log: results must not \
                     depend on wall time"
                        .to_string(),
                );
            }
            if ident_at(toks, i, "SystemTime") {
                push(
                    line,
                    "wallclock",
                    "`SystemTime` outside the repro driver and serve log: results must not \
                     depend on wall time"
                        .to_string(),
                );
            }
        }

        if applies_hash_order(rel) && !in_test {
            if let TokKind::Ident(id) = &tok.kind {
                if id == "HashMap" || id == "HashSet" {
                    push(
                        line,
                        "hash-order",
                        format!(
                            "`{id}` in a result/render/fingerprint path: iteration order \
                             would depend on the hasher — use `BTreeMap`/a sorted Vec, or \
                             `lint:allow(hash-order)` with a lookup-only justification"
                        ),
                    );
                }
            }
        }

        if !in_test
            && ident_at(toks, i, "lock")
            && punct_at(toks, i + 1, '(')
            && punct_at(toks, i + 2, ')')
            && punct_at(toks, i + 3, '.')
            && ident_at(toks, i + 4, "unwrap")
            && punct_at(toks, i + 5, '(')
            && punct_at(toks, i + 6, ')')
        {
            push(
                line,
                "lock-unwrap",
                "`.lock().unwrap()` turns a panicked worker into a cascade of secondary \
                 panics; use `lock_unpoisoned` (scenario.rs) instead"
                    .to_string(),
            );
        }

        if applies_hot_alloc(rel) && !in_test && !fn_stack.iter().any(|(n, _)| growth_fn(n)) {
            if let Some(construct) = hot_alloc_at(toks, i) {
                push(
                    line,
                    "hot-alloc",
                    format!(
                        "`{construct}` in the timing hot path outside `new*`/`reset*`/`renew*`/`grow*`: \
                         steady state must reset-and-reuse scratch, never allocate \
                         (DESIGN.md §6/§9)"
                    ),
                );
            }
        }
    }
    violations
}

/// Matches the banned allocation constructs at token `i`; returns a
/// display name for the construct.
fn hot_alloc_at(toks: &[Tok], i: usize) -> Option<&'static str> {
    let TokKind::Ident(id) = &toks[i].kind else {
        return None;
    };
    let after_dot = i > 0 && punct_at(toks, i - 1, '.');
    match id.as_str() {
        "vec" if punct_at(toks, i + 1, '!') => Some("vec!"),
        "format" if punct_at(toks, i + 1, '!') => Some("format!"),
        "Vec" if path_new(toks, i) => Some("Vec::new"),
        "Box" if path_new(toks, i) => Some("Box::new"),
        "to_string" if after_dot && punct_at(toks, i + 1, '(') => Some(".to_string()"),
        "collect" if after_dot && (punct_at(toks, i + 1, '(') || punct_at(toks, i + 1, ':')) => {
            Some(".collect()")
        }
        "clone" if after_dot && punct_at(toks, i + 1, '(') => Some(".clone()"),
        _ => None,
    }
}

/// `<ident> :: new` starting at `i`.
fn path_new(toks: &[Tok], i: usize) -> bool {
    punct_at(toks, i + 1, ':') && punct_at(toks, i + 2, ':') && ident_at(toks, i + 3, "new")
}

/// Whether the attribute body starting at `i` (just past `#[`) marks
/// test-only code: `#[test]` or any `#[cfg(…test…)]` that is not a
/// `not(test)` guard.
fn attr_is_test(toks: &[Tok], i: usize) -> bool {
    let mut idents = Vec::new();
    let mut depth = 1usize; // the `[` already seen
    let mut j = i;
    while j < toks.len() && depth > 0 {
        match &toks[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => depth -= 1,
            TokKind::Ident(id) => idents.push(id.as_str().to_string()),
            _ => {}
        }
        j += 1;
    }
    let has = |s: &str| idents.iter().any(|i| i == s);
    (idents.len() == 1 && idents[0] == "test") || (has("cfg") && has("test") && !has("not"))
}

fn ident_at(toks: &[Tok], i: usize, s: &str) -> bool {
    matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Ident(id)) if id == s)
}

fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    toks.get(i).map(|t| &t.kind) == Some(&TokKind::Punct(c))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_at(rel: &str, src: &str) -> Vec<(usize, &'static str)> {
        lint_source(rel, src)
            .into_iter()
            .map(|v| (v.line, v.rule))
            .collect()
    }

    #[test]
    fn stdout_rule_respects_whitelist_and_tests() {
        let src = "fn go() { println!(\"x\"); }\n";
        assert_eq!(
            lint_at("crates/experiments/src/harness.rs", src),
            [(1, "stdout")]
        );
        assert!(lint_at("crates/experiments/src/render.rs", src).is_empty());
        assert!(lint_at("crates/experiments/src/bin/repro.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n  fn go() { println!(\"x\"); }\n}\n";
        assert!(lint_at("crates/experiments/src/harness.rs", test_src).is_empty());
    }

    #[test]
    fn hot_alloc_exempts_constructors_and_growth() {
        let src = "impl K {\n  fn new() -> K { K { v: Vec::new() } }\n  \
                   fn reset(&mut self) { self.v = vec![0; 8]; }\n  \
                   fn grow(&mut self) { self.v = vec![0; 16]; }\n  \
                   fn step(&mut self) { let s = self.v.clone(); drop(s); }\n}\n";
        assert_eq!(
            lint_at("crates/uarch/src/timing.rs", src),
            [(5, "hot-alloc")]
        );
        assert!(lint_at("crates/uarch/src/pipeline.rs", src).is_empty());
    }

    #[test]
    fn lock_unwrap_matches_only_the_exact_chain() {
        let bad = "fn f(m: &Mutex<u32>) { let _ = m.lock().unwrap(); }\n";
        assert_eq!(
            lint_at("crates/experiments/src/x.rs", bad),
            [(1, "lock-unwrap")]
        );
        let good =
            "fn f(m: &Mutex<u32>) { let _ = m.lock().unwrap_or_else(PoisonError::into_inner); }\n";
        assert!(lint_at("crates/experiments/src/x.rs", good).is_empty());
    }

    #[test]
    fn allow_marker_suppresses_one_rule_on_one_line() {
        let src =
            "fn f() { println!(\"a\"); } // lint:allow(stdout)\nfn g() { println!(\"b\"); }\n";
        assert_eq!(
            lint_at("crates/experiments/src/harness.rs", src),
            [(2, "stdout")]
        );
        // A marker for a different rule does not suppress.
        let other = "fn f() { println!(\"a\"); } // lint:allow(hot-alloc)\n";
        assert_eq!(
            lint_at("crates/experiments/src/harness.rs", other),
            [(1, "stdout")]
        );
    }

    #[test]
    fn wallclock_exempts_serve_but_not_store_or_other_experiments() {
        let src = "fn f() { let t = std::time::Instant::now(); drop(t); }\n";
        assert!(lint_at("crates/experiments/src/serve.rs", src).is_empty());
        assert_eq!(
            lint_at("crates/experiments/src/explore.rs", src),
            [(1, "wallclock")],
            "only the driver and the daemon's request log read the clock"
        );
        assert_eq!(
            lint_at("crates/experiments/src/store.rs", src),
            [(1, "wallclock")]
        );
        assert_eq!(
            lint_at("crates/experiments/src/respcache.rs", src),
            [(1, "wallclock")],
            "respcache recency must be a logical clock, not wall time"
        );
        let sys = "fn f() { let t = std::time::SystemTime::now(); drop(t); }\n";
        assert!(lint_at("crates/experiments/src/serve.rs", sys).is_empty());
        assert_eq!(
            lint_at("crates/experiments/src/scenario.rs", sys),
            [(1, "wallclock")]
        );
    }

    #[test]
    fn hash_order_covers_codec_and_store_paths() {
        let src = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); drop(m); }\n";
        assert_eq!(
            lint_at("crates/core/src/codec.rs", src),
            [(1, "hash-order"), (1, "hash-order")]
        );
        assert_eq!(
            lint_at("crates/experiments/src/store.rs", src),
            [(1, "hash-order"), (1, "hash-order")]
        );
        assert_eq!(
            lint_at("crates/experiments/src/respcache.rs", src),
            [(1, "hash-order"), (1, "hash-order")],
            "response-cache keys and entries are an output path"
        );
        assert!(lint_at("crates/experiments/src/serve.rs", src).is_empty());
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nmod prod {\n  fn f() { let _ = std::time::SystemTime::now(); }\n}\n";
        assert_eq!(lint_at("crates/core/src/x.rs", src), [(3, "wallclock")]);
    }
}
