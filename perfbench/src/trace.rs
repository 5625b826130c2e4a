//! In-memory span recording for traced runs.
//!
//! Spans are recorded from the benchmark's own code around each public
//! call into a layer: name, start, end, parent span and op id. They are
//! kept in memory and written out as JSON lines when the run ends. A
//! disabled tracer only runs the closures, so the same code paths serve
//! traced and untraced runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a top-level span.
pub const ROOT: u32 = 0;

/// Op id of the set-up phase's spans.
pub const SETUP_OP: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub op: u32,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id,
    /// to parent the spans it opens.
    pub fn span<R>(&self, op: u32, parent: u32, name: &'static str, f: impl FnOnce(u32) -> R) -> R {
        if !self.enabled {
            return f(ROOT);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span log lock is never held across a panic")
            .push(Span {
                op,
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span log lock is never held across a panic")
    }
}

/// Duration of the first span named `name` in op `op`, in ms.
pub fn span_ms(spans: &[Span], op: u32, name: &str) -> f64 {
    spans
        .iter()
        .find(|s| s.op == op && s.name == name)
        .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e6)
}

/// Total length of the union of `[start, end)` intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Per-op accounting of the spans directly under each op's root span.
pub struct Accounting {
    /// Root-span durations (ns), one per op, in op order.
    pub op_ns: Vec<u64>,
    /// Per layer: wall time its spans covered, summed over ops (ns).
    /// Spans of one layer that overlap (parallel workers) count once.
    pub layer_wall_ns: BTreeMap<&'static str, u64>,
    /// Per layer: summed span durations (busy time across threads).
    pub layer_busy_ns: BTreeMap<&'static str, u64>,
    /// Op time covered by no layer span, summed over ops (ns).
    pub unattributed_ns: u64,
}

impl Accounting {
    /// Accounts every op whose root span is named `root`. Each layer's
    /// time is the wall time its spans cover inside the op; the
    /// remainder of the op is unattributed.
    pub fn of(spans: &[Span], root: &'static str) -> Self {
        let mut roots: Vec<&Span> = spans.iter().filter(|s| s.name == root).collect();
        roots.sort_by_key(|s| s.op);
        let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
        for s in spans {
            children.entry(s.parent).or_default().push(s);
        }
        let mut acc = Accounting {
            op_ns: Vec::with_capacity(roots.len()),
            layer_wall_ns: BTreeMap::new(),
            layer_busy_ns: BTreeMap::new(),
            unattributed_ns: 0,
        };
        for r in roots {
            let kids = children.get(&r.id).map(Vec::as_slice).unwrap_or(&[]);
            let mut by_layer: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
            for k in kids {
                by_layer
                    .entry(k.name)
                    .or_default()
                    .push((k.start_ns, k.end_ns));
                *acc.layer_busy_ns.entry(k.name).or_default() += k.end_ns - k.start_ns;
            }
            for (name, iv) in by_layer {
                *acc.layer_wall_ns.entry(name).or_default() += union_ns(iv);
            }
            let covered = union_ns(kids.iter().map(|k| (k.start_ns, k.end_ns)).collect());
            let dur = r.end_ns - r.start_ns;
            acc.op_ns.push(dur);
            acc.unattributed_ns += dur.saturating_sub(covered);
        }
        acc
    }

    /// Mean wall time per op the layer covered, in ms.
    pub fn mean_ms(&self, layer: &str) -> f64 {
        if self.op_ns.is_empty() {
            return 0.0;
        }
        self.layer_wall_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6 / self.op_ns.len() as f64
    }

    pub fn busy_ns(&self, layer: &str) -> u64 {
        self.layer_busy_ns.get(layer).copied().unwrap_or(0)
    }

    pub fn total_op_ns(&self) -> u64 {
        self.op_ns.iter().sum()
    }

    pub fn unattributed_pct(&self) -> f64 {
        100.0 * self.unattributed_ns as f64 / self.total_op_ns().max(1) as f64
    }
}

/// The spans as JSON lines, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"op\": {}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_once() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn accounting_splits_layers_and_gaps() {
        let span = |op, id, parent, name, start_ns, end_ns| Span {
            op,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(0, 1, ROOT, "op", 0, 100),
            span(0, 2, 1, "a", 0, 40),
            span(0, 3, 1, "b", 50, 90),
            span(0, 4, 1, "b", 60, 80),
        ];
        let acc = Accounting::of(&spans, "op");
        assert_eq!(acc.op_ns, vec![100]);
        assert_eq!(acc.layer_wall_ns["b"], 40);
        assert_eq!(acc.busy_ns("b"), 60);
        assert_eq!(acc.unattributed_ns, 20);
    }
}
