//! Tier-1 smoke test for the supervised-job-service chaos soak.
//!
//! Runs the smoke-scale soak once with a fixed seed and asserts the full
//! invariant set: every submitted job resolved, every completed job's
//! output matched the sequential oracle, the memory budget drained back to
//! zero, all workers joined, and every robustness mechanism (shed,
//! over-budget rejection, breaker trip, deadline timeout, explicit cancel,
//! retry-then-success) demonstrably fired at least once.

use flowmark_harness::soak::{run_soak, SoakConfig, SoakReport, SoakScale};

#[test]
fn soak_smoke_holds_all_invariants() {
    let report = run_soak(SoakConfig::new(42), SoakScale::smoke());
    assert!(
        report.passed(),
        "soak invariants violated: {:?}",
        report.violations()
    );

    // Each mechanism must have demonstrably fired.
    assert!(report.shed_queue_full >= 1, "no queue-full shed observed");
    assert!(report.shed_over_budget >= 1, "no over-budget shed observed");
    assert!(report.shed_breaker_open >= 1, "no breaker-open shed observed");
    assert!(report.timeouts >= 1, "no deadline timeout observed");
    assert!(report.explicit_cancels >= 1, "no explicit cancel observed");
    assert!(report.retries_then_success >= 1, "no retry-then-success observed");
    assert!(report.breaker_opened, "breaker never opened");

    // No lost work: everything submitted is accounted for.
    for tally in [&report.spark, &report.flink] {
        assert_eq!(
            tally.submitted,
            tally.completed + tally.failed + tally.timed_out + tally.cancelled,
            "jobs lost by the supervisor"
        );
    }
    assert_eq!(report.oracle_failures, 0, "an engine diverged from its oracle");

    // The health snapshot the service handed back at shutdown is drained.
    assert_eq!(report.health.queue_depth, 0);
    assert_eq!(report.health.in_flight, 0);
    assert_eq!(report.health.budget_in_use_bytes, 0);
    assert!(report.workers_joined);

    // The report must survive a JSON round trip for `--out`.
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let back: SoakReport = serde_json::from_str(&json).expect("report deserializes");
    assert_eq!(back.seed, report.seed);
    assert_eq!(back.timeouts, report.timeouts);
}

#[test]
fn soak_smoke_is_deterministic_for_a_fixed_seed() {
    let a = run_soak(SoakConfig::new(7), SoakScale::smoke());
    let b = run_soak(SoakConfig::new(7), SoakScale::smoke());
    // Scheduling order may vary, but resolved-job accounting, shed counts,
    // and oracle outcomes are pinned by the seed and the phase barriers.
    assert_eq!(a.spark.submitted, b.spark.submitted);
    assert_eq!(a.flink.submitted, b.flink.submitted);
    assert_eq!(a.spark.completed, b.spark.completed);
    assert_eq!(a.flink.completed, b.flink.completed);
    assert_eq!(a.shed_queue_full, b.shed_queue_full);
    assert_eq!(a.shed_over_budget, b.shed_over_budget);
    assert_eq!(a.timeouts, b.timeouts);
    assert_eq!(a.explicit_cancels, b.explicit_cancels);
    assert_eq!(a.oracle_failures, 0);
    assert_eq!(b.oracle_failures, 0);
}

/// The mix phase's (slot, workload, engine, corrupt) list at seed 1 and
/// smoke scale, as the soak drew it before the slot list moved into
/// `mix_slots`. Slots 3 and 9 run streaming tenants.
#[test]
fn mix_slots_match_the_parent() {
    use flowmark_core::config::Framework::{Flink, Spark};
    use flowmark_harness::soak::mix_slots;
    use flowmark_workloads::Workload::*;

    assert_eq!(
        mix_slots(1, SoakScale::smoke().mix_jobs),
        [
            (0, ConnectedComponents, Spark, false),
            (1, Grep, Flink, true),
            (2, KMeans, Spark, false),
            (3, PageRank, Flink, false),
            (4, TeraSort, Spark, true),
            (5, PageRank, Flink, false),
            (6, KMeans, Spark, false),
            (7, TeraSort, Flink, false),
            (8, PageRank, Spark, false),
            (9, PageRank, Flink, false),
            (10, KMeans, Spark, false),
            (11, PageRank, Flink, false),
        ]
    );
}
