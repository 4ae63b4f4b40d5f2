//! # flowmark-harness
//!
//! Regenerates every figure and table of the paper: [`experiments`] holds
//! one runner per figure, [`paper`] the transcribed reference values, and
//! [`report`] the EXPERIMENTS.md generator. The `repro` binary drives it
//! all from the command line.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod chaos;
pub mod drill;
pub mod error;
pub mod experiments;
pub mod mix;
pub mod paper;
pub mod report;
pub mod soak;
pub mod stream;
pub mod tune;

use flowmark_core::config::Framework;
use flowmark_core::experiment::Figure;
use flowmark_sim::Calibration;

pub use error::HarnessError;

/// How a reproduced figure compares with the paper.
#[derive(Debug, Clone)]
pub struct ShapeCheck {
    /// Experiment id.
    pub id: String,
    /// Human verdict line, e.g. `"Flink wins 4/5 points (paper: Flink)"`.
    pub verdict: String,
    /// True when the reproduced winner matches the paper's.
    pub matches_paper: bool,
}

/// Checks a figure's winner against the paper's expectation.
pub fn check_shape(fig: &Figure, expected: paper::ExpectedWinner) -> ShapeCheck {
    let h = fig.head_to_head();
    let (verdict, matches) = match h {
        None => ("missing series".to_string(), false),
        Some(h) => {
            let n = h.scales.len();
            let flink = h.flink_wins();
            let spark = h.spark_wins();
            let winner = if flink > spark {
                paper::ExpectedWinner::Flink
            } else if spark > flink {
                paper::ExpectedWinner::Spark
            } else {
                paper::ExpectedWinner::Tie
            };
            let ok = winner == expected || expected == paper::ExpectedWinner::Tie;
            (
                format!(
                    "Flink wins {flink}/{n}, Spark wins {spark}/{n} (max Flink adv {:.2}x, max Spark adv {:.2}x)",
                    h.max_flink_advantage(),
                    h.max_spark_advantage()
                ),
                ok,
            )
        }
    };
    ShapeCheck {
        id: fig.id.clone(),
        verdict,
        matches_paper: matches,
    }
}

/// Prints a compact paper-vs-simulated table for the experiments with
/// caption-exact reference totals — the tool used to calibrate
/// [`Calibration`] once.
pub fn calibration_report(cal: &Calibration) -> Result<String, HarnessError> {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7}",
        "experiment", "paperS", "simS", "paperF", "simF", "ratioP", "ratioM"
    );
    let mut row = |name: &str, paper_ref: paper::Ref, fig: &Figure, x: f64| {
        let s = fig
            .series_for(Framework::Spark)
            .and_then(|s| s.points.iter().find(|p| (p.x - x).abs() < 1e-9))
            .map(|p| p.summary.mean)
            .unwrap_or(f64::NAN);
        let f = fig
            .series_for(Framework::Flink)
            .and_then(|s| s.points.iter().find(|p| (p.x - x).abs() < 1e-9))
            .map(|p| p.summary.mean)
            .unwrap_or(f64::NAN);
        let ps = paper_ref.spark.unwrap_or(f64::NAN);
        let pf = paper_ref.flink.unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "{name:<28} {ps:>9.0} {s:>9.0} {pf:>9.0} {f:>9.0} {:>7.2} {:>7.2}",
            ps / pf,
            s / f
        );
    };
    row("WC 32n (fig1)", paper::WC_32_NODES, &experiments::fig1(cal)?, 32.0);
    row("Grep 32n (fig4)", paper::GREP_32_NODES, &experiments::fig4(cal)?, 32.0);
    row(
        "TeraSort 55n (fig8)",
        paper::TERASORT_55_NODES,
        &experiments::fig8(cal)?,
        55.0,
    );
    row(
        "KMeans 24n (fig11)",
        paper::KMEANS_24_NODES,
        &experiments::fig11(cal)?,
        24.0,
    );
    row(
        "PR small 27n (fig12)",
        paper::PAGERANK_SMALL_27_NODES,
        &experiments::fig12(cal)?,
        27.0,
    );
    row(
        "CC medium 27n (fig15)",
        paper::CC_MEDIUM_27_NODES,
        &experiments::fig15(cal)?,
        27.0,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmark_core::experiment::Experiment;

    fn figure(spark: &[(f64, f64)], flink: &[(f64, f64)]) -> flowmark_core::experiment::Figure {
        let mut e = Experiment::new("t", "t", "Nodes");
        for &(x, t) in spark {
            e.record(Framework::Spark, x, t);
        }
        for &(x, t) in flink {
            e.record(Framework::Flink, x, t);
        }
        e.figure()
    }

    #[test]
    fn check_shape_flink_winner() {
        let fig = figure(&[(2.0, 110.0), (4.0, 120.0)], &[(2.0, 100.0), (4.0, 100.0)]);
        let c = check_shape(&fig, paper::ExpectedWinner::Flink);
        assert!(c.matches_paper, "{}", c.verdict);
        let c = check_shape(&fig, paper::ExpectedWinner::Spark);
        assert!(!c.matches_paper);
    }

    #[test]
    fn check_shape_tie_accepts_anything() {
        let fig = figure(&[(2.0, 110.0)], &[(2.0, 100.0)]);
        assert!(check_shape(&fig, paper::ExpectedWinner::Tie).matches_paper);
    }

    #[test]
    fn check_shape_missing_series_fails() {
        let fig = figure(&[(2.0, 110.0)], &[]);
        let c = check_shape(&fig, paper::ExpectedWinner::Flink);
        assert!(!c.matches_paper);
        assert!(c.verdict.contains("missing"));
    }
}
