//! Shared harness utilities for the paper-reproduction binaries.
//!
//! Each binary regenerates one artifact of the paper (a Table 1 row, the
//! Figure 1 computation, or an ablation from DESIGN.md) as a markdown
//! table: parameters on the left, measured quantities (mean ± sd over
//! seeds) in the middle, and the theoretical prediction column on the
//! right, so the *shape* comparison the reproduction is about can be read
//! off directly.

pub mod ledger;

/// The `graph` object of a perf record: the average-degree-8 instance
/// of size `n` (seeded with `n`) that `bench_baseline` and `load_gen`
/// generate, with its family name and edge count.
pub fn graph_json(family: &str, n: usize, edges: usize) -> String {
    ledger::json_object(&[
        ("family", ledger::json_str(family)),
        ("n", n.to_string()),
        ("p", (8.0 / n as f64).to_string()),
        ("seed", n.to_string()),
        ("edges", edges.to_string()),
    ])
}

/// The value of the CLI flag `name` if `arg` is that flag, given as
/// `name=VALUE` or as `name` followed by the next of `rest`.
pub fn flag_value(
    arg: &str,
    name: &str,
    rest: &mut impl Iterator<Item = String>,
) -> Option<String> {
    if arg == name {
        Some(
            rest.next()
                .unwrap_or_else(|| panic!("{name} needs a value")),
        )
    } else {
        arg.strip_prefix(name)?
            .strip_prefix('=')
            .map(str::to_string)
    }
}

/// Parses the value of the CLI flag `flag`: a comma-separated list of
/// positive integers. Panics naming the flag on anything else.
pub fn parse_list(flag: &str, v: &str) -> Vec<usize> {
    let xs: Vec<usize> = v
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| panic!("{flag} entries must be integers, got {s:?}"))
        })
        .collect();
    assert!(!xs.is_empty(), "{flag} needs at least one value");
    assert!(xs.iter().all(|&x| x > 0), "{flag} entries must be positive");
    xs
}

/// Mean of a sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Formats `mean ± sd` compactly.
pub fn pm(xs: &[f64]) -> String {
    format!("{:.1} ± {:.1}", mean(xs), std_dev(xs))
}

/// A markdown table accumulated row by row.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as github-flavoured markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = String::new();
        out.push_str(&line(&self.header));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|", sep.join("-|-")));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// `log₂` clamped below at 1 (for prediction columns).
pub fn log2c(x: f64) -> f64 {
    x.max(2.0).log2()
}

/// The `log Δ / log log Δ` prediction shape.
pub fn logdelta_over_loglogdelta(delta: usize) -> f64 {
    let l = log2c(delta as f64);
    l / l.log2().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((std_dev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(std_dev(&[5.0]), 0.0);
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("| a |"));
        assert!(s.contains("| 1 | 22 |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_row() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn shapes() {
        assert!(logdelta_over_loglogdelta(1024) > logdelta_over_loglogdelta(16));
    }
}
