//! Table reports: the textual artifacts the bench binaries print.

use std::fmt;

use crate::joins::SweepReport;

/// What a driver in [`crate::TABLES`] returns: one of the paper's tables
/// or its Figure 5 sweep. `Display` prints the inner report unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    /// A table in the paper's row/column layout (Tables 1–11).
    Table(TableReport),
    /// A threshold sweep (Figure 5).
    Sweep(SweepReport),
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Report::Table(table) => table.fmt(f),
            Report::Sweep(sweep) => sweep.fmt(f),
        }
    }
}

/// A rendered experiment table in the paper's layout.
#[derive(Debug, Clone, PartialEq)]
pub struct TableReport {
    /// Title ("Table 1. Accuracy on data imputation task with SOTA.").
    pub title: String,
    /// Column headers, first being the method column.
    pub columns: Vec<String>,
    /// Rows: method name + one cell per data column.
    pub rows: Vec<Row>,
}

/// One row of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Method name.
    pub method: String,
    /// Cell values, typically percentages.
    pub cells: Vec<f64>,
}

impl TableReport {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>, columns: Vec<String>) -> Self {
        TableReport {
            title: title.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, method: impl Into<String>, cells: Vec<f64>) {
        self.rows.push(Row {
            method: method.into(),
            cells,
        });
    }

    /// The cell for (method, column), if present.
    pub fn cell(&self, method: &str, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column)?;
        let row = self.rows.iter().find(|r| r.method == method)?;
        row.cells.get(col).copied()
    }

    /// The row for `method`, if present.
    pub fn row(&self, method: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.method == method)
    }
}

impl fmt::Display for TableReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let method_width = self
            .rows
            .iter()
            .map(|r| r.method.len())
            .chain(std::iter::once("Method".len()))
            .max()
            .unwrap_or(8)
            + 2;
        let col_width = self
            .columns
            .iter()
            .map(|c| c.len())
            .max()
            .unwrap_or(8)
            .max(8)
            + 2;
        write!(f, "{:<method_width$}", "Method")?;
        for c in &self.columns {
            write!(f, "{c:>col_width$}")?;
        }
        writeln!(f)?;
        let total = method_width + col_width * self.columns.len();
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write!(f, "{:<method_width$}", row.method)?;
            for cell in &row.cells {
                write!(f, "{cell:>col_width$.1}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> TableReport {
        let mut r = TableReport::new("Table X", vec!["Restaurant".to_string(), "Buy".to_string()]);
        r.push("HoloClean", vec![33.1, 16.2]);
        r.push("UniDM", vec![93.0, 98.5]);
        r
    }

    #[test]
    fn cell_lookup() {
        let r = report();
        assert_eq!(r.cell("UniDM", "Buy"), Some(98.5));
        assert_eq!(r.cell("UniDM", "Nope"), None);
        assert_eq!(r.cell("Nope", "Buy"), None);
    }

    #[test]
    fn display_contains_all() {
        let text = report().to_string();
        assert!(text.contains("Table X"));
        assert!(text.contains("HoloClean"));
        assert!(text.contains("93.0"));
        assert!(text.contains("Restaurant"));
    }

    #[test]
    fn row_lookup() {
        let r = report();
        assert_eq!(r.row("HoloClean").unwrap().cells, vec![33.1, 16.2]);
    }
}
