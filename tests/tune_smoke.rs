//! Tier-1 check on the auto-tuning subsystem: tuning Word Count on both
//! real engines completes, every trial's output matches the sequential
//! oracle, the run cache never re-executes a config, and the tuned config
//! is at least as fast as the out-of-the-box default.

use flowmark_core::config::Framework;
use flowmark_harness::tune::{run_tune_cell, TuneOptions};
use flowmark_workloads::cell::Sizes;
use flowmark_workloads::Workload;

fn tiny() -> Sizes {
    Sizes {
        lines: 600,
        ts_records: 600,
        points: 600,
        edges: 600,
        rounds: 2,
    }
}

#[test]
fn tuning_wordcount_never_loses_to_the_default_on_either_engine() {
    for engine in Framework::BOTH {
        let cell = run_tune_cell(Workload::WordCount, engine, tiny(), &TuneOptions::smoke(1));
        assert!(
            cell.all_verified,
            "{engine:?}: a tuning trial diverged from the oracle"
        );
        assert!(
            cell.speedup >= 1.0,
            "{engine:?}: tuned config lost to the default ({}x)",
            cell.speedup
        );
        assert!(cell.best.verified, "{engine:?}: winner not oracle-verified");
        assert!(
            cell.best.budget_fraction >= 1.0,
            "{engine:?}: winner measured on a partial input"
        );
        assert!(
            cell.best.throughput >= cell.default_throughput,
            "{engine:?}: best throughput below default"
        );
    }
}

#[test]
fn the_run_cache_never_reexecutes_a_config() {
    let cell = run_tune_cell(
        Workload::WordCount,
        Framework::Spark,
        tiny(),
        &TuneOptions::smoke(1),
    );
    // Every executed (non-cached) trial carries a distinct (config, budget)
    // key; repeats must come back flagged as cache replays.
    let mut executed: Vec<(u64, u64)> = cell
        .trials
        .iter()
        .filter(|t| !t.cached)
        .map(|t| (t.fingerprint, t.budget_fraction.to_bits()))
        .collect();
    let total = executed.len();
    executed.sort_unstable();
    executed.dedup();
    assert_eq!(executed.len(), total, "a config was executed twice");
    assert_eq!(cell.executions as usize, total);
    assert_eq!(
        cell.cache_hits as usize,
        cell.trials.len() - total,
        "cached + executed must account for every trial"
    );
}
