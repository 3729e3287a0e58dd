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
    /// 4180.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        csv_line(&mut out, &self.columns);
        for row in &self.rows {
            csv_line(&mut out, row);
        }
        out
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
    fn csv_quotes_cells_per_rfc4180() {
        let r = SweepReport {
            columns: vec!["a".to_string(), "b".to_string()],
            rows: vec![
                vec!["x,y".to_string(), "he said \"hi\"".to_string()],
                vec!["multi\nline".to_string(), "plain".to_string()],
            ],
            ..SweepReport::default()
        };
        assert_eq!(
            r.to_csv(),
            "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n\"multi\nline\",plain\n"
        );
    }
}
