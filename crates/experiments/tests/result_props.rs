//! Serializer equivalence: the typed result layer formats each cell
//! only in the view that prints it, and must stay byte-identical to
//! the eager formatter it replaced. That formatter — every cell
//! rendering its display text when built, JSON re-formatting the typed
//! value through one `String` per cell — is kept here as the single
//! reference oracle, and random tables are checked against it in all
//! three views.

use fuleak_experiments::render::TextTable;
use fuleak_experiments::{Cell, ResultTable, Value};
use proptest::prelude::*;
use proptest::strategy::FnStrategy;
use proptest::test_runner::TestRng;
use std::fmt::Write as _;

/// One cell as the eager formatter stored it: the typed value plus its
/// display text, formatted at construction.
#[derive(Debug)]
struct EagerCell {
    value: Value,
    text: String,
}

/// The eager formatter's table: the same columns, rows and notes.
#[derive(Debug)]
struct EagerTable {
    name: String,
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<EagerCell>>,
    notes: Vec<String>,
}

impl EagerTable {
    fn render(&self) -> String {
        let mut t = TextTable::new(self.columns.iter().map(String::as_str));
        for row in &self.rows {
            t.row(row.iter().map(|c| c.text.as_str()));
        }
        t.render()
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"experiment\": {},", json_string(&self.name));
        let _ = writeln!(out, "  \"title\": {},", json_string(&self.title));
        out.push_str("  \"columns\": [");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(c));
        }
        out.push_str("],\n  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_value(&cell.value));
            }
            out.push(']');
        }
        out.push_str(if self.rows.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(n));
        }
        out.push_str("]\n}\n");
        out
    }

    fn to_csv(&self) -> String {
        let mut out = String::new();
        let mut line = |cells: Vec<&str>| {
            let encoded: Vec<String> = cells.into_iter().map(csv_field).collect();
            out.push_str(&encoded.join(","));
            out.push('\n');
        };
        line(self.columns.iter().map(String::as_str).collect());
        for row in &self.rows {
            line(row.iter().map(|c| c.text.as_str()).collect());
        }
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) if !f.is_finite() => "null".to_string(),
        Value::Float(f) => {
            let s = format!("{f}");
            if s.contains('.') || s.contains('e') || s.contains('E') {
                s
            } else {
                format!("{s}.0")
            }
        }
        Value::Str(s) => json_string(s),
    }
}

fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Floats where formatting breaks first: signed zero, non-finite
/// values, subnormals, extremes, and values that print without a
/// decimal point.
const EDGE_FLOATS: [f64; 16] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    5e-324,
    -2.5e-310,
    f64::MIN_POSITIVE,
    1e300,
    -1e300,
    f64::MAX,
    1.0,
    -3.0,
    0.05,
    0.125,
    1e21,
];

fn float(rng: &mut TestRng) -> f64 {
    match rng.uniform_usize(0, 3) {
        0 => EDGE_FLOATS[rng.uniform_usize(0, EDGE_FLOATS.len() - 1)],
        // Any bit pattern: NaN payloads, subnormals, every exponent.
        1 => f64::from_bits(rng.next_u64()),
        // Ordinary magnitudes, where rounding at each precision bites.
        _ => {
            let scale = 10f64.powi(rng.uniform_usize(0, 16) as i32 - 8);
            (rng.unit_f64() - 0.5) * scale
        }
    }
}

const CHARS: [char; 16] = [
    'a', 'Z', '7', ' ', ',', '"', '\n', '\r', '\t', '\\', '\u{1}', '\u{1f}', 'é', '—', '日', '🦀',
];

fn text(rng: &mut TestRng) -> String {
    (0..rng.uniform_usize(0, 6))
        .map(|_| CHARS[rng.uniform_usize(0, CHARS.len() - 1)])
        .collect()
}

/// One random cell built both ways: through the typed constructors,
/// and as the eager formatter built it.
fn cell(rng: &mut TestRng) -> (Cell, EagerCell) {
    let eager = |value: Value, text: String| EagerCell { value, text };
    match rng.uniform_usize(0, 4) {
        0 => {
            let i = match rng.uniform_usize(0, 3) {
                0 => [i64::MIN, i64::MAX, 0, -1][rng.uniform_usize(0, 3)],
                _ => rng.next_u64() as i64 >> rng.uniform_usize(0, 63),
            };
            (Cell::int(i), eager(Value::Int(i), i.to_string()))
        }
        1 => {
            let (v, p) = (float(rng), rng.uniform_usize(0, 6));
            (
                Cell::float(v, p),
                eager(Value::Float(v), format!("{v:.p$}")),
            )
        }
        2 => {
            let v = float(rng);
            (Cell::shortest(v), eager(Value::Float(v), format!("{v}")))
        }
        3 => {
            let v = float(rng);
            let text = format!("{v:.1e}");
            (
                Cell::float_text(v, text.as_str()),
                eager(Value::Float(v), text),
            )
        }
        _ => {
            let s = text(rng);
            (Cell::str(s.as_str()), eager(Value::Str(s.clone()), s))
        }
    }
}

/// A random table in both representations.
fn tables() -> impl Strategy<Value = (ResultTable, EagerTable)> {
    FnStrategy(|rng: &mut TestRng| {
        let (name, title) = (text(rng), text(rng));
        let columns: Vec<String> = (0..rng.uniform_usize(1, 5)).map(|_| text(rng)).collect();
        let mut typed = ResultTable::new(name.as_str(), title.as_str(), columns.clone());
        let mut eager = EagerTable {
            name,
            title,
            columns,
            rows: Vec::new(),
            notes: Vec::new(),
        };
        for _ in 0..rng.uniform_usize(0, 6) {
            let (cells, eager_cells) = (0..eager.columns.len()).map(|_| cell(rng)).unzip();
            typed.row::<Vec<Cell>>(cells);
            eager.rows.push(eager_cells);
        }
        for _ in 0..rng.uniform_usize(0, 2) {
            let note = text(rng);
            typed.note(note.as_str());
            eager.notes.push(note);
        }
        (typed, eager)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn views_match_the_eager_formatter(pair in tables()) {
        let (typed, eager) = pair;
        prop_assert_eq!(typed.to_json(), eager.to_json());
        prop_assert_eq!(typed.to_csv(), eager.to_csv());
        prop_assert_eq!(typed.render(), eager.render());
    }

    #[test]
    fn cell_text_matches_the_eager_text(pair in FnStrategy(cell)) {
        let (typed, eager) = pair;
        prop_assert_eq!(typed.text(), eager.text.as_str());
    }
}

#[test]
fn cells_are_no_larger_than_eager_cells() {
    assert!(std::mem::size_of::<Cell>() <= std::mem::size_of::<EagerCell>());
}
