//! # dtt-bench — experiment harness
//!
//! Shared plumbing for the experiment binaries (`src/bin/*`), each of which
//! regenerates one reconstructed table or figure of the HPCA'11 evaluation
//! (see DESIGN.md §4 for the index). Binaries print aligned text tables to
//! stdout so their output can be diffed against EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dtt_sim::{simulate, MachineConfig, SimMode, SimResult};
use dtt_trace::Trace;
use dtt_workloads::{suite, Scale, Workload};

/// Geometric mean of strictly positive values; `0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert!((dtt_bench::geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// assert_eq!(dtt_bench::geomean(&[]), 0.0);
/// ```
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// The scale every simulator-driven experiment runs at.
///
/// Train keeps traces in the hundred-thousand-to-few-million event range;
/// the wall-clock experiment (R-Fig.12) uses [`Scale::Reference`].
pub const EXPERIMENT_SCALE: Scale = Scale::Train;

/// Builds the full suite and the annotated trace of every workload.
pub fn suite_with_traces(scale: Scale) -> Vec<(Box<dyn Workload>, Trace)> {
    suite(scale)
        .into_iter()
        .map(|w| {
            let trace = w.trace();
            (w, trace)
        })
        .collect()
}

/// Replays one trace on both machines and returns `(baseline, dtt)`.
pub fn run_pair(cfg: &MachineConfig, trace: &Trace) -> (SimResult, SimResult) {
    (
        simulate(cfg, trace, SimMode::Baseline),
        simulate(cfg, trace, SimMode::Dtt),
    )
}

/// A minimal fixed-width table printer.
///
/// # Examples
///
/// ```
/// let mut t = dtt_bench::Table::new(vec!["bench".into(), "x".into()]);
/// t.row(vec!["mcf".into(), "5.9".into()]);
/// let text = t.render();
/// assert!(text.contains("mcf"));
/// assert!(text.contains("5.9"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, cell)| {
                    if i == 0 {
                        format!("{:<w$}", cell, w = widths[i])
                    } else {
                        format!("{:>w$}", cell, w = widths[i])
                    }
                })
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table under a title banner.
    pub fn print(&self, title: &str) {
        println!("== {title} ==");
        println!("{}", self.render());
    }
}

/// Formats a ratio as `N.NNx`.
pub fn fmt_speedup(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a fraction as a percentage with one decimal.
pub fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_calc() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(vec!["a".into(), "value".into()]);
        t.row(vec!["longname".into(), "1".into()]);
        t.row(vec!["x".into(), "22".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows have equal width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_speedup(5.901), "5.90x");
        assert_eq!(fmt_pct(0.785), "78.5%");
    }

    #[test]
    fn run_pair_produces_both_modes() {
        let (w, trace) = &suite_with_traces(Scale::Test)[0];
        let cfg = MachineConfig::default();
        let (base, dtt) = run_pair(&cfg, trace);
        assert_eq!(base.mode, SimMode::Baseline);
        assert_eq!(dtt.mode, SimMode::Dtt);
        assert!(base.cycles > 0 && dtt.cycles > 0);
        assert_eq!(w.name(), "mcf");
    }
}
