//! Plain-text result tables for experiment output.

/// A titled table of string cells, printed with aligned columns — the
/// "rows/series the paper reports" for each experiment.
#[derive(Debug, Clone)]
pub struct ExpTable {
    /// Table/figure title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each row should match `headers.len()`).
    pub rows: Vec<Vec<String>>,
    /// Free-form footnotes (scale mapping, o.o.m. explanations, …).
    pub notes: Vec<String>,
}

impl ExpTable {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        ExpTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Append a footnote.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Cell at (row, col); empty string when out of range.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .map_or("", String::as_str)
    }

    /// Find a row whose first cell equals `key`.
    pub fn row_by_key(&self, key: &str) -> Option<&[String]> {
        self.rows
            .iter()
            .find(|r| r.first().is_some_and(|c| c == key))
            .map(|r| r.as_slice())
    }

    /// Render as CSV (RFC-4180 quoting for cells containing commas, quotes
    /// or newlines). Notes become trailing `#`-prefixed comment lines.
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| field(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str("# ");
            out.push_str(n);
            out.push('\n');
        }
        out
    }

    /// A filesystem-safe slug of the title (for CSV filenames).
    pub fn slug(&self) -> String {
        self.title
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>()
            .join("_")
    }

    /// Write the CSV rendering to `dir/<slug>.csv`; returns the path.
    pub fn save_csv(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.slug()));
        std::fs::write(&path, self.to_csv())?;
        Ok(path)
    }
}

impl std::fmt::Display for ExpTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate().take(cols) {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let write_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| -> std::fmt::Result {
            for (c, cell) in cells.iter().enumerate().take(cols) {
                if c > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = widths[c])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        for n in &self.notes {
            writeln!(f, "  * {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_prints() {
        let mut t = ExpTable::new("Demo", &["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["333".into(), "4".into()]);
        t.note("a note");
        let s = t.to_string();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("333"));
        assert!(s.contains("* a note"));
        assert_eq!(t.cell(0, 1), "2");
        assert_eq!(t.cell(9, 9), "");
    }

    #[test]
    fn row_by_key_finds() {
        let mut t = ExpTable::new("T", &["k", "v"]);
        t.push_row(vec!["x".into(), "1".into()]);
        t.push_row(vec!["y".into(), "2".into()]);
        assert_eq!(t.row_by_key("y").unwrap()[1], "2");
        assert!(t.row_by_key("z").is_none());
    }

    #[test]
    fn csv_rendering_and_quoting() {
        let mut t = ExpTable::new("Fig 1(a): Tucker", &["a", "b"]);
        t.push_row(vec!["plain".into(), "with,comma".into()]);
        t.push_row(vec!["with\"quote".into(), "2".into()]);
        t.note("scale note");
        let csv = t.to_csv();
        assert!(csv.starts_with("a,b\n"));
        assert!(csv.contains("plain,\"with,comma\"\n"));
        assert!(csv.contains("\"with\"\"quote\",2\n"));
        assert!(csv.contains("# scale note\n"));
    }

    #[test]
    fn slug_is_filesystem_safe() {
        let t = ExpTable::new("Fig 1(a): Tucker data / scalability!", &["x"]);
        let slug = t.slug();
        assert!(slug.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
        assert!(slug.contains("fig_1_a"));
    }

    #[test]
    fn save_csv_writes_file() {
        let dir = std::env::temp_dir().join(format!("haten2_csv_test-{}", std::process::id()));
        let mut t = ExpTable::new("Demo CSV", &["x"]);
        t.push_row(vec!["1".into()]);
        let path = t.save_csv(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "x\n1\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
