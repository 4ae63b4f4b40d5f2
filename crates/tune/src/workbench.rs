//! The measurement rig: the six workloads of Table III on either engine.
//!
//! A [`Workbench`] owns one workload's [`Cell`] (the same input and oracle
//! every drill runs) and measures any [`EngineConfig`] on any prefix
//! fraction of it, verifying every run. Cells are memoised per prefix
//! length, so successive-halving rungs don't regenerate their inputs or
//! recompute their oracles. Only the engine call is timed: the input copy
//! and the oracle check fall outside the clock.

use std::collections::HashMap;

use flowmark_core::config::{EngineConfig, Framework};
use flowmark_engine::Setup;
use flowmark_workloads::cell::{Cell, Sizes};
use flowmark_workloads::Workload;

use crate::search::{Budget, Measure, Measurement};

/// Executes one workload on one engine at any config and input fraction.
pub struct Workbench {
    engine: Framework,
    /// Input records at full budget.
    full: usize,
    /// The generated cell (keyed by `full`) and every prefix measured so far.
    cells: HashMap<usize, Cell>,
}

impl Workbench {
    /// Generates the workload's cell at `sizes`.
    pub fn new(workload: Workload, engine: Framework, sizes: Sizes) -> Self {
        let cell = Cell::generate(workload, &sizes);
        let full = cell.len();
        Self {
            engine,
            full,
            cells: HashMap::from([(full, cell)]),
        }
    }
}

impl Measure for Workbench {
    fn measure(&mut self, config: &EngineConfig, budget: Budget) -> Measurement {
        let n = ((self.full as f64 * budget.fraction()).round() as usize).clamp(1, self.full);
        if !self.cells.contains_key(&n) {
            let prefix = self.cells[&self.full].prefix(n);
            self.cells.insert(n, prefix);
        }
        let run = self.cells[&n].run(self.engine, &Setup::from(*config));
        Measurement {
            seconds: run.elapsed.as_secs_f64().max(1e-9),
            records: n as u64,
            verified: run.verdict.is_verified(),
            metrics: run.metrics,
            trace: run.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Sizes {
        Sizes {
            lines: 300,
            ts_records: 300,
            points: 300,
            edges: 300,
            rounds: 2,
        }
    }

    #[test]
    fn wordcount_verifies_on_both_engines() {
        for engine in [Framework::Spark, Framework::Flink] {
            let mut bench = Workbench::new(Workload::WordCount, engine, tiny());
            let m = bench.measure(&EngineConfig::with_parallelism(2), Budget::FULL);
            assert!(m.verified, "{engine:?} produced a wrong answer");
            assert_eq!(m.records, 300);
            assert!(m.metrics.records_shuffled > 0);
        }
    }

    #[test]
    fn partial_budgets_slice_the_prefix_and_verify() {
        let mut bench = Workbench::new(Workload::Grep, Framework::Spark, tiny());
        let m = bench.measure(&EngineConfig::with_parallelism(2), Budget::fraction_of(4));
        assert!(m.verified);
        assert_eq!(m.records, 75);
    }

    #[test]
    fn oracles_are_memoised_per_prefix() {
        let mut bench = Workbench::new(Workload::WordCount, Framework::Spark, tiny());
        bench.measure(&EngineConfig::with_parallelism(2), Budget::fraction_of(2));
        bench.measure(&EngineConfig::with_parallelism(4), Budget::fraction_of(2));
        bench.measure(&EngineConfig::with_parallelism(2), Budget::FULL);
        assert_eq!(bench.cells.len(), 2);
    }
}
