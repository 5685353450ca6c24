//! Lightweight tabular output (markdown and CSV) for experiment results.

use std::fmt;

/// A simple table: headers plus rows of cells.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    ///
    /// Panics when the number of cells does not match the number of
    /// headers; this is a programming error in the experiment code.
    pub fn push_row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders the table as CSV (headers first).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|cell| {
                    if cell.contains(',') || cell.contains('"') {
                        format!("\"{}\"", cell.replace('"', "\"\""))
                    } else {
                        cell.clone()
                    }
                })
                .collect();
            out.push_str(&escaped.join(","));
            out.push('\n');
        }
        out
    }

    /// Access to the raw rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_markdown())
    }
}

/// Formats a probability for display with enough precision for small tails.
pub fn fmt_probability(p: f64) -> String {
    if p == 0.0 {
        "0".to_string()
    } else if p >= 0.001 {
        format!("{p:.4}")
    } else {
        format!("{p:.3e}")
    }
}

/// Formats a fraction as a percentage.
pub fn fmt_percent(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_and_csv_output() {
        let mut table = Table::new("Attack probability", &["N", "p", "P[success]"]);
        assert!(table.is_empty());
        table.push_row(["3", "0.1", "0.01"]);
        table.push_row(vec![
            "5".to_string(),
            "0.1".to_string(),
            "0.001".to_string(),
        ]);
        assert_eq!(table.len(), 2);

        let md = table.to_markdown();
        assert!(md.contains("### Attack probability"));
        assert!(md.contains("| N | p | P[success] |"));
        assert!(md.contains("| 3 | 0.1 | 0.01 |"));
        assert_eq!(md, table.to_string());

        let csv = table.to_csv();
        assert!(csv.starts_with("N,p,P[success]\n"));
        assert!(csv.contains("5,0.1,0.001"));
        assert_eq!(table.rows().len(), 2);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut table = Table::new("t", &["a", "b"]);
        table.push_row(["x,y", "he said \"hi\""]);
        let csv = table.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut table = Table::new("t", &["a", "b"]);
        table.push_row(["only one"]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(fmt_probability(0.0), "0");
        assert_eq!(fmt_probability(0.25), "0.2500");
        assert!(fmt_probability(1e-6).contains('e'));
        assert_eq!(fmt_percent(0.5), "50.0%");
    }
}
