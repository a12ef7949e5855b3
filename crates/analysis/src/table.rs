//! Plain-text tables and CSV output for the experiment harness.

use std::fmt;

/// A simple column-aligned table that can also render itself as CSV.
///
/// `xp` prints these tables to stdout; README quotes some of them
/// verbatim.
///
/// ```
/// use gossip_analysis::table::Table;
///
/// let mut table = Table::new(vec!["n", "rounds"]);
/// table.push_row(vec!["1000".into(), "813".into()]);
/// table.push_row(vec!["2000".into(), "905".into()]);
/// let text = table.to_string();
/// assert!(text.contains("rounds"));
/// assert_eq!(table.to_csv().lines().count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if no headers are given.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        assert!(!headers.is_empty(), "a table needs at least one column");
        Self {
            headers,
            rows: Vec::new(),
        }
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The data rows (each a vector of cells, one per column) — used by the
    /// scenario runner and tests to post-process results without re-parsing
    /// the rendered text.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// The index of the column named `name`, if present.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.headers.iter().position(|h| h == name)
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row has a different number of cells than there are
    /// columns.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Convenience helper: formats every cell with `Display` and appends the
    /// row.
    pub fn push_display_row<D: fmt::Display>(&mut self, row: Vec<D>) {
        self.push_row(row.into_iter().map(|d| d.to_string()).collect());
    }

    /// Renders the table as [JSON Lines](https://jsonlines.org/): one JSON
    /// object per data row, keyed by the column headers. Cells that parse
    /// as finite numbers are emitted as bare JSON numbers (so `"n": 1000`,
    /// not `"n": "1000"` — consumers get typed values without a second
    /// parse); non-finite numeric cells become `null`; everything else
    /// stays a JSON string. This is the machine-readable form behind the
    /// shared `--json` flag of `xp`, so figure pipelines can consume
    /// experiment output with `jq` or a dataframe library without parsing
    /// aligned columns.
    ///
    /// ```
    /// use gossip_analysis::table::Table;
    ///
    /// let mut table = Table::new(vec!["n", "rounds", "note"]);
    /// table.push_row(vec!["1000".into(), "813".into(), "ok".into()]);
    /// assert_eq!(
    ///     table.to_json_lines(),
    ///     "{\"n\":1000,\"rounds\":813,\"note\":\"ok\"}\n"
    /// );
    /// ```
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&json_line(&self.headers, row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (headers first, comma-separated; cells
    /// containing commas or quotes are quoted).
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| escape(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Renders one JSON object (without a trailing newline) from parallel
/// header/cell slices — the row format shared by
/// [`Table::to_json_lines`] and the streaming observers, so a streamed run
/// and its final table are byte-compatible row by row.
///
/// Values are **typed**: a cell that parses as a finite `f64` is emitted
/// as a bare JSON number (preserving the cell's own formatting when it is
/// already valid JSON number syntax, e.g. trailing zeros in `"0.250"`; a
/// leading `+` sign is stripped), a cell that parses as a non-finite
/// number (`inf`, `NaN`) becomes `null`, and any other cell is emitted as
/// a JSON string. Keys are always strings.
///
/// # Panics
///
/// Panics if `headers` and `cells` have different lengths.
pub fn json_line<H: AsRef<str>, C: AsRef<str>>(headers: &[H], cells: &[C]) -> String {
    assert_eq!(
        headers.len(),
        cells.len(),
        "a JSON row needs exactly one cell per header"
    );
    let mut out = String::new();
    out.push('{');
    for (i, (header, cell)) in headers.iter().zip(cells).enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_escape_into(&mut out, header.as_ref());
        out.push(':');
        json_value_into(&mut out, cell.as_ref());
    }
    out.push('}');
    out
}

/// Appends one cell to `out` as a typed JSON value (see [`json_line`]).
fn json_value_into(out: &mut String, cell: &str) {
    match cell.parse::<f64>() {
        Ok(value) if value.is_finite() => {
            // Keep the cell's own formatting whenever it is already a
            // valid JSON number token (Rust's f64 grammar is wider than
            // JSON's: leading '+', "3.", ".5", "inf" …).
            let unsigned = cell.strip_prefix('+').unwrap_or(cell);
            if is_json_number(unsigned) {
                out.push_str(unsigned);
            } else {
                // Rare fallback (e.g. "3." or ".5"): normalize through the
                // parsed value.
                out.push_str(&value.to_string());
            }
        }
        Ok(_) => out.push_str("null"),
        Err(_) => json_escape_into(out, cell),
    }
}

/// `true` if `s` is a valid JSON number token:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_json_number(s: &str) -> bool {
    let mut chars = s.as_bytes();
    if let [b'-', rest @ ..] = chars {
        chars = rest;
    }
    // Integer part: "0" alone or a non-zero leading digit run.
    let digits = chars.iter().take_while(|c| c.is_ascii_digit()).count();
    if digits == 0 || (digits > 1 && chars[0] == b'0') {
        return false;
    }
    chars = &chars[digits..];
    if let [b'.', rest @ ..] = chars {
        let frac = rest.iter().take_while(|c| c.is_ascii_digit()).count();
        if frac == 0 {
            return false;
        }
        chars = &rest[frac..];
    }
    if let [b'e' | b'E', rest @ ..] = chars {
        let rest = match rest {
            [b'+' | b'-', digits @ ..] => digits,
            digits => digits,
        };
        let exp = rest.iter().take_while(|c| c.is_ascii_digit()).count();
        if exp == 0 {
            return false;
        }
        chars = &rest[exp..];
    }
    chars.is_empty()
}

/// Appends `s` to `out` as a JSON string literal (quotes, backslashes and
/// control characters escaped).
fn json_escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths: max of header and cells.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, (cell, width)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}")?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total_width: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total_width))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut table = Table::new(vec!["name", "value"]);
        table.push_row(vec!["alpha".into(), "1".into()]);
        table.push_display_row(vec!["beta", "23456"]);
        table
    }

    #[test]
    fn display_aligns_columns() {
        let text = sample_table().to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with('-'));
        assert_eq!(lines.len(), 4);
        // Both data rows start their second column at the same offset.
        let offset_a = lines[2].find('1').unwrap();
        let offset_b = lines[3].find('2').unwrap();
        assert_eq!(offset_a, offset_b);
    }

    #[test]
    fn csv_output_escapes_special_cells() {
        let mut table = Table::new(vec!["a", "b"]);
        table.push_row(vec!["x,y".into(), "quote\"inside".into()]);
        let csv = table.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"quote\"\"inside\""));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn json_lines_emit_one_object_per_row_with_typed_cells() {
        let table = sample_table();
        let json = table.to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "{\"name\":\"alpha\",\"value\":1}");
        assert_eq!(lines[1], "{\"name\":\"beta\",\"value\":23456}");
    }

    #[test]
    fn json_cells_are_typed_by_content() {
        let headers = ["a"];
        let case = |cell: &str| json_line(&headers, &[cell]);
        // Numbers pass through with their own formatting.
        assert_eq!(case("1000"), "{\"a\":1000}");
        assert_eq!(case("0.250"), "{\"a\":0.250}");
        assert_eq!(case("-3.5"), "{\"a\":-3.5}");
        assert_eq!(case("2.00e7"), "{\"a\":2.00e7}");
        assert_eq!(case("1e-3"), "{\"a\":1e-3}");
        // A leading '+' (the bias column's rendering) is stripped — "+0.5"
        // parses as a number but is not valid JSON number syntax.
        assert_eq!(case("+0.4058"), "{\"a\":0.4058}");
        // Rust-parseable but JSON-invalid spellings normalize via f64.
        assert_eq!(case("3."), "{\"a\":3}");
        assert_eq!(case(".5"), "{\"a\":0.5}");
        // Non-finite numeric cells map to null.
        assert_eq!(case("inf"), "{\"a\":null}");
        assert_eq!(case("-inf"), "{\"a\":null}");
        assert_eq!(case("NaN"), "{\"a\":null}");
        // Everything else stays a string.
        assert_eq!(case("-"), "{\"a\":\"-\"}");
        assert_eq!(case("true"), "{\"a\":\"true\"}");
        assert_eq!(case("3.27x"), "{\"a\":\"3.27x\"}");
        assert_eq!(case("stage 1"), "{\"a\":\"stage 1\"}");
        assert_eq!(
            case("5/5 = 1.000 [0.566, 1.000]"),
            "{\"a\":\"5/5 = 1.000 [0.566, 1.000]\"}"
        );
        assert_eq!(case(""), "{\"a\":\"\"}");
    }

    #[test]
    fn json_number_syntax_checker_matches_the_json_grammar() {
        for valid in ["0", "-0", "10", "3.5", "0.250", "1e5", "1E+5", "2.5e-3"] {
            assert!(is_json_number(valid), "{valid} is a JSON number");
        }
        for invalid in ["+1", "01", "3.", ".5", "1e", "1e+", "--1", "0x10", "", "1 "] {
            assert!(!is_json_number(invalid), "{invalid} is not a JSON number");
        }
    }

    #[test]
    fn json_lines_escape_special_characters() {
        let mut table = Table::new(vec!["a"]);
        table.push_row(vec!["quote\" back\\slash\nnewline\ttab".into()]);
        let json = table.to_json_lines();
        assert_eq!(
            json,
            "{\"a\":\"quote\\\" back\\\\slash\\nnewline\\ttab\"}\n"
        );
        // Numeric-looking *headers* stay strings — only values are typed.
        let mut table = Table::new(vec!["100"]);
        table.push_row(vec!["x".into()]);
        assert_eq!(table.to_json_lines(), "{\"100\":\"x\"}\n");
    }

    #[test]
    fn accessors() {
        let table = sample_table();
        assert_eq!(table.headers(), &["name".to_string(), "value".to_string()]);
        assert_eq!(table.num_rows(), 2);
        assert_eq!(table.rows()[1][0], "beta");
        assert_eq!(table.column_index("value"), Some(1));
        assert_eq!(table.column_index("missing"), None);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_length_panics() {
        let mut table = Table::new(vec!["only one"]);
        table.push_row(vec!["a".into(), "b".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_panic() {
        let _ = Table::new(Vec::<String>::new());
    }
}
