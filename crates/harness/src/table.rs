//! Paper tables: each [`crate::Scenario`]'s `report` turns its sweep into
//! [`Table`]s of typed [`Cell`]s plus note lines (the paper's expectation,
//! derived ratios), which `mspastry-sim --scenario` prints and writes as
//! `<stem>.<name>.csv`. Per-point scalars are seed means ([`point_table`]);
//! series and CDF tables read one run and say which in their titles.

use crate::runner::RunResult;
use crate::sweep::PointSummary;
use std::fmt;

/// How a numeric cell is printed; CSV cells keep full precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fmt {
    /// Rounded to an integer.
    Int,
    /// Fixed point with this many decimals.
    Fixed(usize),
    /// Scientific notation with this many mantissa decimals, like the
    /// paper's axes (`0` prints as `0`).
    Sci(usize),
}

impl Fmt {
    /// Formats `v`; NaN (no data) prints as `-`.
    pub fn render(self, v: f64) -> String {
        match self {
            _ if v.is_nan() => "-".to_string(),
            Fmt::Int => format!("{v:.0}"),
            Fmt::Fixed(d) => format!("{v:.d$}"),
            Fmt::Sci(_) if v == 0.0 => "0".to_string(),
            Fmt::Sci(d) => format!("{v:.d$e}"),
        }
    }
}

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A number and its print format.
    Num(f64, Fmt),
}

impl Cell {
    /// The cell as printed, or as a CSV field (numbers at full precision).
    fn render(&self, csv: bool) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Num(v, _) if csv => v.to_string(),
            Cell::Num(v, f) => f.render(*v),
        }
    }
}

/// A run scalar: header, print format and extractor. The sweep's
/// aggregated metrics ([`crate::sweep::METRICS`]) and the report columns
/// are both lists of these.
pub type Column = (&'static str, Fmt, fn(&RunResult) -> f64);

/// A titled table with note lines printed under it.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// File-safe name; the CSV is written as `<stem>.<name>.csv`.
    pub name: String,
    /// Heading printed above the table.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Rows, each as wide as `header`.
    pub rows: Vec<Vec<Cell>>,
    /// Lines printed under the table (derived ratios, paper expectation).
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table.
    pub fn new(name: impl Into<String>, title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            name: name.into(),
            title: title.into(),
            header: header.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends note lines.
    pub fn with_notes(mut self, lines: &[&str]) -> Self {
        self.notes.extend(lines.iter().map(|l| l.to_string()));
        self
    }

    /// Renders the table as CSV: the header, then one line per row.
    pub fn csv(&self) -> String {
        let lines = self.lines(true);
        lines.iter().map(|l| l.join(",") + "\n").collect()
    }

    /// The header and the rendered rows, as printed or as CSV fields.
    fn lines(&self, csv: bool) -> Vec<Vec<String>> {
        let rows = self
            .rows
            .iter()
            .map(|r| r.iter().map(|c| c.render(csv)).collect());
        std::iter::once(self.header.clone()).chain(rows).collect()
    }
}

impl fmt::Display for Table {
    /// Right-aligned columns separated by `|`, under a `--- title ---` line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lines = self.lines(false);
        writeln!(f, "--- {} ---", self.title)?;
        for line in &lines {
            for (c, cell) in line.iter().enumerate() {
                let w = lines.iter().map(|l| l[c].len()).max().unwrap_or(0);
                write!(f, "{} {cell:>w$}", if c == 0 { "" } else { " |" })?;
            }
            writeln!(f)?;
        }
        self.notes.iter().try_for_each(|n| writeln!(f, "{n}"))
    }
}

/// A row of numeric cells.
pub fn nums(cells: &[(f64, Fmt)]) -> Vec<Cell> {
    cells.iter().map(|&(v, f)| Cell::Num(v, f)).collect()
}

/// Mean and sample standard deviation (0 for a single value).
pub fn mean_sd(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let mean = values.iter().sum::<f64>() / n as f64;
    let sd = if n > 1 {
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64;
        var.sqrt()
    } else {
        0.0
    };
    (mean, sd)
}

/// The seed mean of one run scalar at a point.
pub fn seed_mean(p: &PointSummary, value: impl Fn(&RunResult) -> f64) -> f64 {
    mean_sd(&p.runs.iter().map(value).collect::<Vec<_>>()).0
}

/// One row per point: its label, then each column's seed mean. With more
/// than one seed, every column is followed by its sample standard
/// deviation (`<column> sd`), so multi-seed sweeps carry error bars.
pub fn point_table(name: &str, title: &str, points: &[PointSummary], cols: &[Column]) -> Table {
    let spread = points.iter().any(|p| p.runs.len() > 1);
    let mut t = Table::new(name, title, &["point"]);
    for (name, ..) in cols {
        t.header.push(name.to_string());
        if spread {
            t.header.push(format!("{name} sd"));
        }
    }
    for p in points {
        let mut row = vec![Cell::Text(p.label.clone())];
        for &(_, fmt, value) in cols {
            let (mean, sd) = mean_sd(&p.runs.iter().map(value).collect::<Vec<_>>());
            row.push(Cell::Num(mean, fmt));
            if spread {
                row.push(Cell::Num(sd, fmt));
            }
        }
        t.rows.push(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sci_formats() {
        assert_eq!(Fmt::Sci(1).render(0.0), "0");
        assert_eq!(Fmt::Sci(1).render(1.6e-5), "1.6e-5");
    }

    #[test]
    fn tables_render_aligned_and_export_full_precision_csv() {
        let mut t = Table::new("t", "demo", &["trace", "rdp"]).with_notes(&["expected: flat"]);
        let (gnutella, ab) = (Cell::Text("Gnutella".into()), Cell::Text("ab".into()));
        t.rows.push(vec![gnutella, Cell::Num(1.234, Fmt::Fixed(2))]);
        t.rows.push(vec![ab, Cell::Num(f64::NAN, Fmt::Int)]);
        let shown = "--- demo ---\n    trace |  rdp\n Gnutella | 1.23\n       ab |    -\n";
        assert_eq!(t.to_string(), format!("{shown}expected: flat\n"));
        assert_eq!(t.csv(), "trace,rdp\nGnutella,1.234\nab,NaN\n");
    }
}
