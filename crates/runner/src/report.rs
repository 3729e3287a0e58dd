//! Merged sweep results and their machine-readable serializations.
//!
//! The suite carries zero external dependencies (see the workspace README
//! on offline shims), so JSON is emitted by a ~40-line escaper here rather
//! than serde. Output is canonical: field order, escaping, and number
//! formatting are fixed, which is what lets the determinism gate compare
//! reports *byte for byte* across thread counts.

/// A named side output produced by a cell (e.g. an exported `.topo` edge
/// list). The runner never touches the filesystem; callers decide where
/// artifacts land.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// File-name-shaped identifier (`telstra.topo`).
    pub name: String,
    /// Full artifact body.
    pub contents: String,
}

/// The merged result of one sweep: a titled table plus notes and
/// artifacts, already in canonical cell order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepReport {
    /// Sweep identifier (`"table1"`).
    pub experiment: String,
    /// Display title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows; every row matches the column arity.
    pub rows: Vec<Vec<String>>,
    /// Reading-guidance notes (cell notes first, static sweep notes last).
    pub notes: Vec<String>,
    /// Side outputs collected from the cells.
    pub artifacts: Vec<Artifact>,
}

/// Why a serialized report failed to parse. The offending line (1-based)
/// and a description are carried for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportParseError {
    /// 1-based line number of the problem.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "report parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ReportParseError {}

impl SweepReport {
    /// Serialize to a single canonical JSON object.
    ///
    /// Shape:
    /// `{"experiment":…,"title":…,"columns":[…],"rows":[[…]],"notes":[…],"artifacts":[{"name":…,"contents":…}]}`
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"experiment\":");
        json_string(&mut out, &self.experiment);
        out.push_str(",\"title\":");
        json_string(&mut out, &self.title);
        out.push_str(",\"columns\":");
        json_string_array(&mut out, &self.columns);
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json_string_array(&mut out, row);
        }
        out.push_str("],\"notes\":");
        json_string_array(&mut out, &self.notes);
        out.push_str(",\"artifacts\":[");
        for (i, a) in self.artifacts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            json_string(&mut out, &a.name);
            out.push_str(",\"contents\":");
            json_string(&mut out, &a.contents);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Serialize the tabular part as CSV: one header line with the column
    /// names, then the data rows. Notes and artifacts are not included —
    /// CSV is the format for feeding plots, not for archiving runs.
    ///
    /// Cells containing commas, quotes, or newlines are quoted per RFC
    /// 4180 so the output round-trips through [`SweepReport::from_csv`].
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        csv_line(&mut out, &self.columns);
        for row in &self.rows {
            csv_line(&mut out, row);
        }
        out
    }

    /// Parse a report back from [`SweepReport::to_csv`] output.
    ///
    /// Only the tabular part survives a CSV round-trip; `experiment`,
    /// `title`, notes, and artifacts come back empty.
    ///
    /// ```
    /// use inrpp_runner::SweepReport;
    ///
    /// let report = SweepReport {
    ///     columns: vec!["isp".into(), "gain".into()],
    ///     rows: vec![vec!["Telstra, AUS".into(), "+12.0%".into()]],
    ///     ..SweepReport::default()
    /// };
    /// let parsed = SweepReport::from_csv(&report.to_csv()).unwrap();
    /// assert_eq!(parsed.columns, report.columns);
    /// assert_eq!(parsed.rows, report.rows); // quoting round-trips commas
    /// ```
    ///
    /// # Errors
    /// Returns [`ReportParseError`] on an empty input, unbalanced quoting,
    /// or a row whose arity differs from the header's.
    pub fn from_csv(text: &str) -> Result<SweepReport, ReportParseError> {
        let mut records = parse_csv(text)?.into_iter();
        let (_, columns) = records.next().ok_or(ReportParseError {
            line: 1,
            message: "empty input: expected a CSV header line".to_string(),
        })?;
        let mut rows = Vec::new();
        for (lineno, record) in records {
            if record.len() != columns.len() {
                return Err(ReportParseError {
                    line: lineno,
                    message: format!(
                        "row arity {} != header arity {}",
                        record.len(),
                        columns.len()
                    ),
                });
            }
            rows.push(record);
        }
        Ok(SweepReport {
            columns,
            rows,
            ..SweepReport::default()
        })
    }
}

/// Append a JSON string literal (with escaping) to `out` — the one copy
/// of the escaping rules every JSON writer in the workspace shares: the
/// sweep reports here, the serve protocol's replies, and the `inrpp
/// serve` listening line. `inrpp_server::protocol::parse_object` reads
/// back every escape this writes.
pub fn json_string(out: &mut String, s: &str) {
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

/// Append a JSON array of string literals to `out`.
fn json_string_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_string(out, item);
    }
    out.push(']');
}

/// Append one RFC 4180 CSV record (plus newline) to `out`.
fn csv_line(out: &mut String, cells: &[String]) {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            out.push('"');
            out.push_str(&cell.replace('"', "\"\""));
            out.push('"');
        } else {
            out.push_str(cell);
        }
    }
    out.push('\n');
}

/// Parse a whole CSV document into `(starting line number, record)`
/// pairs, honouring RFC 4180 quoting — including newlines inside quoted
/// cells, so [`SweepReport::to_csv`] output round-trips. Blank lines
/// between records are skipped.
fn parse_csv(text: &str) -> Result<Vec<(usize, Vec<String>)>, ReportParseError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut cur = String::new();
    // true once the current record has any content ("" alone on a line is
    // content; a bare newline is not)
    let mut started = false;
    let mut quoted = false;
    let mut lineno = 1;
    let mut record_start = 1;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if quoted {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        cur.push('"');
                    } else {
                        quoted = false;
                    }
                }
                '\n' => {
                    lineno += 1;
                    cur.push('\n');
                }
                c => cur.push(c),
            }
            continue;
        }
        match c {
            ',' => {
                started = true;
                record.push(std::mem::take(&mut cur));
            }
            '"' if cur.is_empty() => {
                started = true;
                quoted = true;
            }
            '\r' if chars.peek() == Some(&'\n') => {} // CRLF: handled at \n
            '\n' => {
                lineno += 1;
                if started || !cur.is_empty() || !record.is_empty() {
                    record.push(std::mem::take(&mut cur));
                    records.push((record_start, std::mem::take(&mut record)));
                    started = false;
                }
                record_start = lineno;
            }
            c => cur.push(c),
        }
    }
    if quoted {
        return Err(ReportParseError {
            line: record_start,
            message: "unterminated quoted cell".to_string(),
        });
    }
    if started || !cur.is_empty() || !record.is_empty() {
        record.push(cur);
        records.push((record_start, record));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepReport {
        SweepReport {
            experiment: "t".to_string(),
            title: "Title".to_string(),
            columns: vec!["a".to_string(), "b".to_string()],
            rows: vec![
                vec!["1".to_string(), "x,y".to_string()],
                vec!["2".to_string(), "he said \"hi\"".to_string()],
            ],
            notes: vec!["note \"quoted\"\nsecond line".to_string()],
            artifacts: vec![Artifact {
                name: "f.topo".to_string(),
                contents: "line1\nline2".to_string(),
            }],
        }
    }

    #[test]
    fn json_escapes_and_is_stable() {
        let j = sample().to_json();
        assert!(j.starts_with("{\"experiment\":\"t\""));
        assert!(j.contains("\\\"hi\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"artifacts\":[{\"name\":\"f.topo\""));
        assert_eq!(j, sample().to_json(), "serialization must be stable");
    }

    #[test]
    fn json_control_chars_are_escaped() {
        let r = SweepReport {
            columns: vec!["c".to_string()],
            rows: vec![vec!["bell\u{7}".to_string()]],
            ..SweepReport::default()
        };
        assert!(r.to_json().contains("\\u0007"));
    }

    #[test]
    fn csv_round_trips_with_quoting() {
        let mut r = sample();
        r.rows
            .push(vec!["3".to_string(), "multi\nline \"cell\",x".to_string()]);
        let parsed = SweepReport::from_csv(&r.to_csv()).unwrap();
        assert_eq!(parsed.columns, r.columns);
        assert_eq!(parsed.rows, r.rows);
    }

    #[test]
    fn csv_parse_tracks_line_numbers_across_quoted_newlines() {
        // record 2 spans two physical lines; the bad record after it must
        // be reported at its true line (4)
        let text = "a,b\n\"x\ny\",2\nonly-one\n";
        let e = SweepReport::from_csv(text).unwrap_err();
        assert_eq!(e.line, 4);
    }

    #[test]
    fn csv_parse_rejects_bad_input() {
        assert!(SweepReport::from_csv("").is_err());
        let e = SweepReport::from_csv("a,b\n1").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("arity"));
        assert!(SweepReport::from_csv("a\n\"unterminated").is_err());
    }

    #[test]
    fn csv_skips_blank_lines() {
        let r = SweepReport::from_csv("a,b\n1,2\n\n3,4\n").unwrap();
        assert_eq!(r.rows.len(), 2);
    }
}
