//! Minimal fixed-width table rendering: the reference layout the
//! [`crate::result::ResultTable::render`] view reproduces.

/// A simple text table with a header row.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&line(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a scenario-engine cache snapshot as one progress line, e.g.
/// `36 points cached (36 simulated, 34 cache hits) on 4 workers`.
pub fn engine_line(stats: &crate::scenario::EngineStats) -> String {
    format!(
        "{} points cached ({} simulated, {} cache hit{}) on {} worker{}",
        stats.points,
        stats.misses,
        stats.hits,
        if stats.hits == 1 { "" } else { "s" },
        stats.jobs,
        if stats.jobs == 1 { "" } else { "s" }
    )
}

/// Formats the engine's cumulative totals as one summary line, e.g.
/// `engine total: 72 points simulated, sim cache 101/173 hits (58.4%),
/// annotation cache 63/72 hits (87.5%, 9 built), trace cache 9/18
/// hits (50.0%), 9 traces, policy cache 720/1440 hits (50.0%, 720
/// runs), disk store 36/72 hits (50.0%, 36 written, 0 evicted), grid
/// eval 96 points in 12 traversals (1.59e6 points/s), 4 workers` —
/// what `repro all` prints last so cross-experiment sharing of all
/// four in-memory cache layers and the persistent disk tier behind
/// them is visible. Stderr-only: the golden stdout transcript never
/// sees it.
pub fn engine_summary_line(stats: &crate::scenario::EngineStats) -> String {
    let pct = |rate: Option<f64>| rate.map_or("n/a".to_string(), |r| format!("{:.1}%", 100.0 * r));
    let grid = if stats.grid_points > 0 {
        let rate = stats
            .grid_points_per_sec()
            .map_or("n/a".to_string(), |r| format!("{:.2e} points/s", r));
        format!(
            "grid eval {} points in {} traversal{} ({rate})",
            stats.grid_points,
            stats.grid_batches,
            if stats.grid_batches == 1 { "" } else { "s" },
        )
    } else {
        "grid eval off".to_string()
    };
    let disk = if stats.disk {
        format!(
            "disk store {}/{} hits ({}, {} written, {} evicted)",
            stats.disk_hits,
            stats.disk_hits + stats.disk_misses,
            pct(stats.disk_hit_rate()),
            stats.disk_writes,
            stats.disk_evictions,
        )
    } else {
        "disk store off".to_string()
    };
    format!(
        "engine total: {} points simulated, sim cache {}/{} hits ({}), annotation cache {}/{} hits ({}, {} built), trace cache {}/{} hits ({}), {} trace{}, policy cache {}/{} hits ({}, {} run{}), {disk}, {grid}, {} worker{}",
        stats.simulated(),
        stats.hits,
        stats.hits + stats.misses,
        pct(stats.sim_hit_rate()),
        stats.annotation_hits,
        stats.annotation_hits + stats.annotations_built,
        pct(stats.annotation_hit_rate()),
        stats.annotations_built,
        stats.trace_hits,
        stats.trace_hits + stats.captures,
        pct(stats.trace_hit_rate()),
        stats.traces,
        if stats.traces == 1 { "" } else { "s" },
        stats.policy_hits,
        stats.policy_hits + stats.policy_misses,
        pct(stats.policy_hit_rate()),
        stats.policy_runs,
        if stats.policy_runs == 1 { "" } else { "s" },
        stats.jobs,
        if stats.jobs == 1 { "" } else { "s" }
    )
}

/// Formats a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with four decimals.
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["longer", "2.5"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains("longer"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn renders_csv() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["1", "2"]);
        assert_eq!(t.render_csv(), "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f4(0.00005), "0.0001");
    }
}
