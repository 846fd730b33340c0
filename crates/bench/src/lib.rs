//! The library half of the `repro` binary: the shared CLI skeleton
//! ([`cli`]), the application scenarios every subcommand selects from
//! ([`apps`], [`planted`]), the §4.2 micro-scenarios ([`scenarios`]) and
//! table formatting.
//!
//! `repro` measures *virtual* times of protocol operations by running
//! purpose-built cluster scenarios and reading the per-category
//! breakdowns — the same way the paper measured its Table 1 / §4.2
//! numbers on the real system. Wall-clock measurement is not done here:
//! the repo's one benchmark is `examples/mvbench`.

pub mod apps;
pub mod cli;
pub mod planted;
pub mod scenarios;

use std::fmt::{Display, Write as _};

/// Formats nanoseconds as microseconds with one decimal.
pub fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1000.0)
}

/// Prints a section banner.
pub fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// A text table built row by row from `(column header, cell)` pairs: the
/// header sits next to the value it labels, so the two cannot drift
/// apart. The first row fixes the header line.
#[derive(Default)]
pub struct Table {
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Appends a row.
    pub fn row<const N: usize>(&mut self, cells: [(&str, &dyn Display); N]) {
        if self.rows.is_empty() {
            self.rows
                .push(cells.iter().map(|c| c.0.to_string()).collect());
        }
        self.rows
            .push(cells.iter().map(|c| c.1.to_string()).collect());
    }

    /// Prints the table (see [`render_table`]).
    pub fn print(&self) {
        print!("{}", render_table(&self.rows));
    }
}

/// Renders a fixed-width text table (first row = header).
pub fn render_table(rows: &[Vec<String>]) -> String {
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut width = vec![0usize; cols];
    for r in rows {
        for (i, cell) in r.iter().enumerate() {
            width[i] = width[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, r) in rows.iter().enumerate() {
        for (i, cell) in r.iter().enumerate() {
            let pad = width[i] - cell.len();
            if i > 0 {
                out.push_str("  ");
            }
            // Right-align numeric-looking cells, left-align labels.
            let numeric = cell
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_digit() || c == '-');
            if numeric && i > 0 {
                let _ = write!(out, "{}{}", " ".repeat(pad), cell);
            } else {
                let _ = write!(out, "{}{}", cell, " ".repeat(pad));
            }
        }
        out.push('\n');
        if ri == 0 {
            let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
            let _ = writeln!(out, "{}", "-".repeat(total));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_formats_microseconds() {
        assert_eq!(us(12_000), "12.0");
        assert_eq!(us(204_500), "204.5");
    }

    #[test]
    fn table_takes_its_header_from_the_first_row() {
        let mut t = Table::default();
        t.row([("op", &"fault"), ("us", &26.0)]);
        t.row([("op", &"set prot"), ("us", &12)]);
        assert_eq!(
            t.rows,
            [["op", "us"], ["fault", "26"], ["set prot", "12"]]
                .map(|r| r.map(String::from).to_vec())
        );
    }

    #[test]
    fn render_table_aligns_columns() {
        let t = render_table(&[
            vec!["op".into(), "us".into()],
            vec!["fault".into(), "26.0".into()],
            vec!["set prot".into(), "12.0".into()],
        ]);
        assert!(t.contains("op"));
        assert!(t.contains("-----"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
    }
}
