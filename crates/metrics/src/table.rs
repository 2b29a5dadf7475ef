//! Table rendering and CSV emission for experiment reports.

use peerwindow_trace::BandwidthRow;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-oriented results table that renders to aligned
/// markdown and to CSV.
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column names.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity differs from the header's.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned markdown table.
    pub fn to_markdown(&self) -> String {
        let ncol = self.header.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.chars().count();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            out.push('|');
            for (i, c) in cells.iter().enumerate() {
                let pad = width[i] - c.chars().count();
                let _ = write!(out, " {}{} |", c, " ".repeat(pad));
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        out.push('|');
        for w in &width {
            let _ = write!(out, "{}|", "-".repeat(w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Renders CSV (RFC-4180-ish: quotes fields containing commas/quotes).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(&esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(&esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV form to `path`, creating parent directories.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// Formats a float compactly for tables (3 significant-ish decimals,
/// scientific for very small magnitudes).
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 10_000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else if x.abs() >= 0.001 {
        format!("{x:.5}")
    } else {
        format!("{x:.3e}")
    }
}

/// Renders per-message-class bandwidth rows (from
/// [`peerwindow_trace::bandwidth_by_class`]) as a
/// `class | msgs | bits` table.
pub fn bandwidth_table(rows: &[BandwidthRow]) -> Table {
    let mut t = Table::new(["class", "msgs", "bits"]);
    for r in rows {
        t.row([
            r.class.name().to_string(),
            r.msgs.to_string(),
            r.bits.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_is_aligned() {
        let mut t = Table::new(["level", "nodes"]);
        t.row(["0", "54321"]).row(["10", "7"]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("level"));
        assert!(lines[3].contains("10"));
    }

    #[test]
    fn csv_escapes_properly() {
        let mut t = Table::new(["a", "b"]);
        t.row(["x,y", "say \"hi\""]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_is_checked() {
        Table::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join("pw_metrics_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("deep/out.csv");
        let mut t = Table::new(["x"]);
        t.row(["1"]);
        t.write_csv(&path).unwrap();
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_f64(3.21987), "3.22");
        assert_eq!(fmt_f64(0.00123), "0.00123");
        assert!(fmt_f64(0.0000012).contains('e'));
    }

    #[test]
    fn bandwidth_table_uses_class_names() {
        let rows = vec![BandwidthRow {
            class: peerwindow_trace::MsgClass::Probe,
            msgs: 7,
            bits: 896,
        }];
        let md = bandwidth_table(&rows).to_markdown();
        assert!(md.contains("probe") && md.contains("896"));
    }
}
