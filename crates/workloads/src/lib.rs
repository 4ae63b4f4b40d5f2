//! # flowmark-workloads
//!
//! The paper's six workloads (§III), each in three forms:
//!
//! 1. **Annotated logical plans** (`plan(...)`) for the cluster simulator,
//!    one per framework, shaped exactly like the paper's per-figure plan
//!    plots (including asymmetries like Flink's Grep sink phase and its
//!    Page Rank count-vertices job);
//! 2. **Real implementations** (`run_spark` / `run_flink`) on the two
//!    engines in `flowmark-engine`, validated against sequential oracles;
//! 3. **Table I operator inventories** (`operator_table(...)`).
//!
//! [`cell`] is the one entry point to the real implementations and their
//! oracles: each workload's fixed input recipe, its expected answer, and
//! the call into either engine. The chaos, soak, mix and tuning drills all
//! run their workloads through it.
//!
//! [`presets`] holds the parameter tables (II, III, V, VI) verbatim;
//! [`costs`] holds the per-record user-code cost constants the plans are
//! annotated with.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cell;
pub mod connected;
pub mod costs;
pub mod grep;
pub mod kmeans;
pub mod pagerank;
pub mod presets;
pub mod stream;
pub mod terasort;
pub mod wordcount;

use flowmark_core::config::Framework;
use flowmark_dataflow::operator::{OperatorKind, OperatorOrigin};

/// The six workloads, in Table I column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Word Count (WC).
    WordCount,
    /// Grep (G).
    Grep,
    /// Tera Sort (TS).
    TeraSort,
    /// K-Means (KM).
    KMeans,
    /// Page Rank (PR).
    PageRank,
    /// Connected Components (CC).
    ConnectedComponents,
}

impl Workload {
    /// All workloads in Table I order.
    pub const ALL: [Workload; 6] = [
        Workload::WordCount,
        Workload::Grep,
        Workload::TeraSort,
        Workload::KMeans,
        Workload::PageRank,
        Workload::ConnectedComponents,
    ];

    /// Paper abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            Workload::WordCount => "WC",
            Workload::Grep => "G",
            Workload::TeraSort => "TS",
            Workload::KMeans => "KM",
            Workload::PageRank => "PR",
            Workload::ConnectedComponents => "CC",
        }
    }

    /// Report id, as drill artifacts name the workload.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WordCount => "wordcount",
            Workload::Grep => "grep",
            Workload::TeraSort => "terasort",
            Workload::KMeans => "kmeans",
            Workload::PageRank => "pagerank",
            Workload::ConnectedComponents => "connected",
        }
    }

    /// True for the iterative (loop-caching) workloads.
    pub fn is_iterative(self) -> bool {
        matches!(
            self,
            Workload::KMeans | Workload::PageRank | Workload::ConnectedComponents
        )
    }

    /// Table I operator row for one framework.
    pub fn operator_table(self, fw: Framework) -> Vec<OperatorKind> {
        match self {
            Workload::WordCount => wordcount::operator_table(fw),
            Workload::Grep => grep::operator_table(fw),
            Workload::TeraSort => terasort::operator_table(fw),
            Workload::KMeans => kmeans::operator_table(fw),
            Workload::PageRank => pagerank::operator_table(fw),
            Workload::ConnectedComponents => connected::operator_table(fw),
        }
    }
}

/// Checks that a framework's operator inventory only uses operators that
/// exist in that framework (Table I's F/S annotations).
pub fn validate_operator_table(workload: Workload, fw: Framework) -> Result<(), String> {
    for op in workload.operator_table(fw) {
        let ok = match op.origin() {
            OperatorOrigin::Common => true,
            OperatorOrigin::SparkOnly => fw == Framework::Spark,
            OperatorOrigin::FlinkOnly => fw == Framework::Flink,
        };
        if !ok {
            return Err(format!(
                "{:?}/{fw}: operator {op} belongs to the other framework",
                workload
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_table_is_framework_consistent() {
        for w in Workload::ALL {
            for fw in Framework::BOTH {
                validate_operator_table(w, fw).unwrap();
            }
        }
    }

    #[test]
    fn iterative_classification_matches_section_iii() {
        assert!(!Workload::WordCount.is_iterative());
        assert!(!Workload::Grep.is_iterative());
        assert!(!Workload::TeraSort.is_iterative());
        assert!(Workload::KMeans.is_iterative());
        assert!(Workload::PageRank.is_iterative());
        assert!(Workload::ConnectedComponents.is_iterative());
    }

    #[test]
    fn abbreviations_match_table_i() {
        let abbrevs: Vec<&str> = Workload::ALL.iter().map(|w| w.abbrev()).collect();
        assert_eq!(abbrevs, vec!["WC", "G", "TS", "KM", "PR", "CC"]);
    }

    #[test]
    fn iterative_workloads_use_iteration_operators_in_flink() {
        use OperatorKind::*;
        let km = Workload::KMeans.operator_table(Framework::Flink);
        assert!(km.contains(&BulkIteration));
        let cc = Workload::ConnectedComponents.operator_table(Framework::Flink);
        assert!(cc.contains(&DeltaIteration));
    }
}
