//! Metric names, statistics helpers, and the result line.

use crate::trace::Accounting;
use fuleak_experiments::empirical::table3;
use fuleak_experiments::harness::run_suite_on;
use fuleak_experiments::scenario::EngineStats;
use fuleak_experiments::{Budget, Engine};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("success_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("ipc_err_pct", "%"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer a workload does not reach reads 0. Times are means per traced
/// op; counts cover the whole traced phase and repeat exactly for a
/// seed; every ratio is printed beside its base (`*_lookups`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.capture_ms", "ms"),
    ("workloads.captures", "count"),
    ("uarch.annotate_ms", "ms"),
    ("uarch.annotations", "count"),
    ("uarch.replay_ms", "ms"),
    ("uarch.replays", "count"),
    ("uarch.replay_ns_per_instr", "ns"),
    ("core.grid_points", "count"),
    ("core.grid_points_per_s", "1/s"),
    ("explore.total_ms", "ms"),
    ("explore.fold_ms", "ms"),
    ("scenario.expand_us", "us"),
    ("scenario.sim_hit_ratio", "ratio"),
    ("scenario.sim_lookups", "count"),
    ("scenario.annotation_hit_ratio", "ratio"),
    ("scenario.annotation_lookups", "count"),
    ("scenario.trace_hit_ratio", "ratio"),
    ("scenario.trace_lookups", "count"),
    ("scenario.flight_waits", "count"),
    ("scenario.simulated", "count"),
    ("policy.hit_ratio", "ratio"),
    ("policy.lookups", "count"),
    ("policy.runs", "count"),
    ("cli.parse_us", "us"),
    ("experiment.table_ms", "ms"),
    ("result.serialize_ms", "ms"),
    ("result.body_bytes", "bytes"),
    ("respcache.hit_ratio", "ratio"),
    ("respcache.hits", "count"),
    ("respcache.lookups", "count"),
    ("respcache.evictions", "count"),
    ("respcache.bytes", "bytes"),
    ("serve.http_us", "us"),
    ("serve.requests", "count"),
    ("serve.connections", "count"),
    ("serve.queue_highwater", "count"),
    ("serve.rejected_503", "count"),
    ("store.disk_writes", "count"),
    ("store.disk_hits", "count"),
    ("store.read_ms", "ms"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.op_p50_ms", "ms"),
    ("trace.ops", "count"),
];

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
        }
    }

    /// Records a metric. Panics on a name outside both metric lists —
    /// a typo would otherwise print a silent 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric `{name}`"
        );
        self.values.insert(name, value);
    }

    /// Counts one failed op (a mismatch, a non-200, or a refused
    /// connection).
    pub fn fail(&mut self, why: &str) {
        eprintln!("perfbench: failed op: {why}");
        self.failed += 1;
    }

    /// The result line: `correct`, `attempted`, `failed`, and either
    /// every end-to-end metric or every per-layer one.
    pub fn to_json(&self, traced: bool) -> String {
        let names = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Nearest-rank percentile of `xs` (`q` in `(0, 1]`); 0 when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Hit ratio over a base, 0 when the base is 0.
pub fn ratio(hits: usize, lookups: usize) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`, …) in MB.
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` while sampling this process's resident set every 20 ms,
/// until `f` returns or calls the stop function it is given; returns
/// `f`'s result and the largest sample in MB. The peak of the timed
/// phase, unlike `VmHWM`, does not depend on how the allocator recycled
/// the discarded set-up rounds.
pub fn with_rss_peak<R>(f: impl FnOnce(&dyn Fn()) -> R) -> (R, f64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = status_mb("VmRSS");
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                peak = peak.max(status_mb("VmRSS"));
            }
            peak
        });
        let out = f(&|| done.store(true, Ordering::Relaxed));
        done.store(true, Ordering::Relaxed);
        (out, sampler.join().expect("RSS sampler thread"))
    })
}

/// Simulator accuracy beside every speed number: mean |simulated −
/// paper| / paper × 100 over the Table 3 IPC column (nine benchmarks at
/// their selected FU count, 12-cycle L2, quick budget), computed from
/// the workload's own engine. The column values are the table's
/// 3-decimal cells, as the paper's table prints them.
pub fn ipc_err_pct(engine: &Engine) -> Result<f64, String> {
    let table = table3(&run_suite_on(engine, 12, Budget::Quick));
    let col = table
        .columns()
        .iter()
        .position(|c| c == "IPC")
        .ok_or("table3 has no IPC column")?;
    let cell = |row: &[fuleak_experiments::Cell], i: usize| -> Result<f64, String> {
        row[i]
            .text()
            .parse::<f64>()
            .map_err(|e| format!("table3 cell `{}`: {e}", row[i].text()))
    };
    let mut sum = 0.0;
    for row in table.rows() {
        let (sim, paper) = (cell(row, col)?, cell(row, col + 1)?);
        sum += (sim - paper).abs() / paper * 100.0;
    }
    Ok(sum / table.rows().len() as f64)
}

/// Directory for run artifacts (stderr logs, spans, scratch stores),
/// inside the checkout the benchmark runs from.
pub fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

/// A scratch directory unique to this process and `tag`, emptied first.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = run_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Records the engine's cache counters over a phase, each ratio beside
/// its base.
pub fn engine_counts(out: &mut Outcome, d: &EngineStats) {
    let sims = d.hits + d.misses;
    let anns = d.annotation_hits + d.annotations_built;
    let traces = d.trace_hits + d.captures;
    let policies = d.policy_hits + d.policy_misses;
    out.set("scenario.sim_hit_ratio", ratio(d.hits, sims));
    out.set("scenario.sim_lookups", sims as f64);
    out.set(
        "scenario.annotation_hit_ratio",
        ratio(d.annotation_hits, anns),
    );
    out.set("scenario.annotation_lookups", anns as f64);
    out.set("scenario.trace_hit_ratio", ratio(d.trace_hits, traces));
    out.set("scenario.trace_lookups", traces as f64);
    out.set("scenario.flight_waits", d.flight_waits as f64);
    out.set("scenario.simulated", d.simulated() as f64);
    out.set("policy.hit_ratio", ratio(d.policy_hits, policies));
    out.set("policy.lookups", policies as f64);
    out.set("policy.runs", d.policy_misses as f64);
}

/// Records the whole-op accounting of a traced run: unattributed share,
/// the traced op median, and its overhead against the untraced ops of
/// the same run.
pub fn trace_summary(out: &mut Outcome, acc: &Accounting, plain_ms: &[f64]) {
    let traced_ms: Vec<f64> = acc.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let (traced, plain) = (percentile(&traced_ms, 0.5), percentile(plain_ms, 0.5));
    out.set("trace.unattributed_pct", acc.unattributed_pct());
    out.set("trace.op_p50_ms", traced);
    out.set("trace.ops", traced_ms.len() as f64);
    if plain > 0.0 {
        out.set("trace.overhead_pct", 100.0 * (traced / plain - 1.0));
    }
}
