//! The serializable result layer: every experiment produces a typed
//! [`ResultTable`] — named columns, cells carrying a typed value and
//! a display format — and the render/JSON/CSV outputs are all *views*
//! of that one structure. Only the views that print a cell's text
//! (render and CSV) format it, straight into their output buffer.
//!
//! Serialization is hand-rolled (the build environment vendors its
//! few dependencies; no serde) and deterministic: equal tables
//! serialize to byte-identical JSON and CSV on every platform, which
//! CI exploits by diffing two runs' artifacts byte-for-byte.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::iter::repeat_n;
use std::mem;

/// A typed cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer (counts, cycle budgets, FU counts).
    Int(i64),
    /// A float (IPCs, energies, fractions).
    Float(f64),
    /// Free text (names, descriptions, "na").
    Str(String),
}

/// How the text and CSV views display a cell's value.
#[derive(Debug, Clone, PartialEq)]
enum Form {
    /// An integer in decimal, a string as itself.
    Plain,
    /// A float with this many decimals (`{:.n}`).
    Fixed(usize),
    /// A float in shortest round-trip form (`{}`).
    Shortest,
    /// Explicit text, for forms no other variant names (`{:.1e}`).
    Text(Box<str>),
}

/// One table cell: a typed [`Value`] plus how the plain-text views
/// display it (so numeric formatting — `1.235`, `0.05`, `3.4e-2` —
/// survives from the historical output byte-for-byte while JSON
/// consumers still get real numbers).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The typed value, what JSON serializes.
    pub value: Value,
    display: Form,
}

impl Cell {
    const fn of(value: Value, display: Form) -> Self {
        Cell { value, display }
    }

    /// An integer cell, displayed in decimal.
    pub fn int(v: i64) -> Self {
        Cell::of(Value::Int(v), Form::Plain)
    }

    /// A float cell displayed with `precision` decimals.
    pub fn float(v: f64, precision: usize) -> Self {
        Cell::of(Value::Float(v), Form::Fixed(precision))
    }

    /// A float cell displayed in shortest round-trip form (`{}`).
    pub fn shortest(v: f64) -> Self {
        Cell::of(Value::Float(v), Form::Shortest)
    }

    /// A float cell with explicit display text (scientific notation).
    pub fn float_text(v: f64, text: impl Into<Box<str>>) -> Self {
        Cell::of(Value::Float(v), Form::Text(text.into()))
    }

    /// A text cell.
    pub fn str(s: impl Into<String>) -> Self {
        Cell::of(Value::Str(s.into()), Form::Plain)
    }

    /// The display text of this cell (borrowed for text cells,
    /// formatted on demand for numbers).
    pub fn text(&self) -> Cow<'_, str> {
        match (&self.value, &self.display) {
            (_, Form::Text(t)) => Cow::Borrowed(t),
            (Value::Str(s), _) => Cow::Borrowed(s),
            _ => Cow::Owned(self.to_string()),
        }
    }

    /// Appends this cell as a JSON literal to `out`. Floats use Rust's
    /// shortest round-trip `Display` (deterministic across platforms);
    /// non-finite floats become `null` (JSON has no NaN/Infinity).
    fn write_json(&self, out: &mut String) {
        let _ = match &self.value {
            Value::Int(i) => write!(out, "{i}"),
            Value::Float(f) if !f.is_finite() => out.write_str("null"),
            // "1" would round-trip as an integer; keep the float type
            // visible to consumers.
            Value::Float(f) if f.fract() == 0.0 => write!(out, "{f}.0"),
            Value::Float(f) => write!(out, "{f}"),
            Value::Str(s) => {
                json_string(out, s);
                Ok(())
            }
        };
    }
}

/// The display text of a cell, as the text and CSV views print it.
impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.value, &self.display) {
            (_, Form::Text(t)) => f.write_str(t),
            (Value::Str(s), _) => f.write_str(s),
            (Value::Int(i), _) => write!(f, "{i}"),
            (Value::Float(v), Form::Fixed(p)) => write!(f, "{v:.p$}"),
            (Value::Float(v), _) => write!(f, "{v}"),
        }
    }
}

/// A typed, named, serializable experiment result.
///
/// The plain-text view ([`ResultTable::render`]) reproduces the
/// historical [`crate::render::TextTable`] output byte-for-byte; [`to_json`] and
/// [`to_csv`] expose the same rows to machines.
///
/// [`to_json`]: ResultTable::to_json
/// [`to_csv`]: ResultTable::to_csv
#[derive(Debug, Clone, PartialEq)]
pub struct ResultTable {
    name: String,
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
    notes: Vec<String>,
}

impl ResultTable {
    /// Creates an empty table with an identifier (`fig7`), a human
    /// heading (`Figure 7 — idle-interval distribution`), and column
    /// names.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(
        name: impl Into<String>,
        title: impl Into<String>,
        columns: I,
    ) -> Self {
        ResultTable {
            name: name.into(),
            title: title.into(),
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Renames the table (e.g. the shared Figure 8 builder becoming
    /// `fig8a` or `fig8b`).
    pub fn named(mut self, name: impl Into<String>, title: impl Into<String>) -> Self {
        self.name = name.into();
        self.title = title.into();
        self
    }

    /// Appends a row (must match the column count).
    pub fn row<I: IntoIterator<Item = Cell>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<Cell> = cells.into_iter().collect();
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Appends a free-text note (rendered after the table; serialized
    /// under `"notes"`).
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// The table's identifier (used for artifact file names).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The human heading.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// The trailing notes.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Renders the table as aligned plain text (one view of the typed
    /// data; byte-identical to the historical
    /// [`TextTable`](crate::render::TextTable) output).
    pub fn render(&self) -> String {
        // Format every cell once into a scratch buffer, noting where
        // each text ends, to learn the column widths before padding.
        let (mut texts, mut ends) = (String::new(), Vec::new());
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                let start = texts.len();
                let _ = write!(texts, "{cell}");
                *w = (*w).max(texts.len() - start);
                ends.push(texts.len());
            }
        }
        // Widths count bytes, padding counts chars, as `{:>w$}` does.
        let line = |out: &mut String, cells: &mut dyn Iterator<Item = &str>| {
            join(out, cells.zip(&widths), "  ", |out, (c, &w)| {
                out.extend(repeat_n(' ', w.saturating_sub(c.chars().count())));
                out.push_str(c);
            });
            out.push('\n');
        };
        let rule = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let mut out = String::new();
        line(&mut out, &mut self.columns.iter().map(String::as_str));
        out.extend(repeat_n('-', rule).chain(['\n']));
        let mut start = 0;
        for row in ends.chunks(widths.len()) {
            let mut cells = row
                .iter()
                .map(|&end| &texts[mem::replace(&mut start, end)..end]);
            line(&mut out, &mut cells);
        }
        out
    }

    /// Serializes the table as deterministic JSON: object keys in
    /// fixed order, rows as arrays of typed values (ints as integer
    /// literals, floats in shortest round-trip form, non-finite
    /// floats as `null`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"experiment\": ");
        json_string(&mut out, &self.name);
        out.push_str(",\n  \"title\": ");
        json_string(&mut out, &self.title);
        out.push_str(",\n  \"columns\": [");
        join(&mut out, &self.columns, ", ", |out, c| json_string(out, c));
        out.push_str("],\n  \"rows\": [");
        join(&mut out, &self.rows, ",", |out, row| {
            out.push_str("\n    [");
            join(out, row, ", ", |out, cell| cell.write_json(out));
            out.push(']');
        });
        out.push_str(if self.rows.is_empty() { "]" } else { "\n  ]" });
        out.push_str(",\n  \"notes\": [");
        join(&mut out, &self.notes, ", ", |out, n| json_string(out, n));
        out.push_str("]\n}\n");
        out
    }

    /// Serializes the table as CSV (display-text cells, RFC-4180
    /// quoting, `\n` line endings; notes are omitted).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        join(&mut out, &self.columns, ",", csv_field);
        for row in &self.rows {
            out.push('\n');
            join(&mut out, row, ",", csv_field);
        }
        out.push('\n');
        out
    }
}

/// Appends `items` to `out`, each by `write`, with `sep` between them.
fn join<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    sep: &str,
    mut write: impl FnMut(&mut String, T),
) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        write(out, item);
    }
}

/// Appends `s` JSON-escaped, including the surrounding quotes.
fn json_string(out: &mut String, s: &str) {
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
}

/// Appends `field`'s text as a CSV field, quoted if it contains a
/// delimiter, quote, or newline.
fn csv_field(out: &mut String, field: impl fmt::Display) {
    let start = out.len();
    let _ = write!(out, "{field}");
    if out[start..].contains([',', '"', '\n', '\r']) {
        let field = out.split_off(start);
        out.push('"');
        out.push_str(&field.replace('"', "\"\""));
        out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::TextTable;

    fn json(cell: Cell) -> String {
        let mut out = String::new();
        cell.write_json(&mut out);
        out
    }

    fn sample() -> ResultTable {
        let mut t = ResultTable::new("demo", "Demo — a sample", ["name", "n", "x"]);
        t.row([Cell::str("alpha"), Cell::int(3), Cell::float(1.23456, 3)]);
        t.row([Cell::str("be,ta"), Cell::int(-1), Cell::shortest(0.5)]);
        t.note("one note");
        t
    }

    #[test]
    fn text_view_matches_text_table() {
        let t = sample();
        let mut expected = TextTable::new(["name", "n", "x"]);
        expected.row(["alpha", "3", "1.235"]);
        expected.row(["be,ta", "-1", "0.5"]);
        assert_eq!(t.render(), expected.render());
    }

    #[test]
    fn json_is_deterministic_and_typed() {
        let t = sample();
        assert_eq!(t.to_json(), t.to_json());
        let json = t.to_json();
        assert!(json.contains("\"experiment\": \"demo\""));
        // JSON carries the full-precision typed value; the text view
        // owns the 3-decimal display form.
        assert!(json.contains("[\"alpha\", 3, 1.23456]"));
        assert!(json.contains("[\"be,ta\", -1, 0.5]"));
        assert!(json.contains("\"notes\": [\"one note\"]"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn json_floats_stay_floats_and_nonfinite_becomes_null() {
        assert_eq!(json(Cell::float(2.0, 3)), "2.0");
        assert_eq!(json(Cell::shortest(0.05)), "0.05");
        assert_eq!(json(Cell::float(f64::NAN, 1)), "null");
        assert_eq!(json(Cell::shortest(f64::INFINITY)), "null");
        assert_eq!(json(Cell::int(7)), "7");
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json(Cell::str("a\"b\\c\nd")), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json(Cell::str("\u{1}")), "\"\\u0001\"");
    }

    #[test]
    fn csv_quotes_delimiters() {
        let csv = sample().to_csv();
        assert_eq!(csv.lines().next().unwrap(), "name,n,x");
        assert!(csv.contains("\"be,ta\",-1,0.5"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = ResultTable::new("x", "x", ["a", "b"]);
        t.row([Cell::int(1)]);
    }

    #[test]
    fn empty_table_serializes() {
        let t = ResultTable::new("empty", "Empty", ["a"]);
        assert!(t.to_json().contains("\"rows\": []"));
        assert_eq!(t.to_csv(), "a\n");
    }
}
