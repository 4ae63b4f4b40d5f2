//! Tier-1 integrity smoke: every batch-migrated workload, on both engines,
//! survives seeded corruption of its columnar bytes — in-flight shuffle
//! batches, sealed source batches, stored checkpoint snapshots — and still
//! reproduces the fault-free answer. The staged engine answers detected rot
//! with bounded lineage recomputes; the pipelined engine fails the region,
//! discards unverifiable snapshots and restarts from the last verified one.
//! Deterministic: every injection decision is a pure function of the seed.

use flowmark_datagen::terasort::TeraGen;
use flowmark_datagen::text::{TextGen, TextGenConfig};
use flowmark_engine::faults::{install_quiet_hook, FaultConfig};
use flowmark_engine::{FaultPlan, Setup};
use flowmark_workloads::{grep, terasort, wordcount};

const PARTS: usize = 4;
const LINES: usize = 1_500;
const TS_RECORDS: usize = 1_500;

/// The corruption preset: guaranteed in-flight batch rot plus a guaranteed
/// rotten checkpoint read, layered on the chaos kill/straggler plan.
fn corruption_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(FaultConfig::corruption(seed))
}

#[test]
fn wordcount_corruption_is_detected_and_recovered_on_both_engines() {
    install_quiet_hook();
    let lines = TextGen::new(TextGenConfig::default(), 7).lines(LINES);
    let expect = wordcount::oracle(&lines);

    let sc = Setup { faults: corruption_plan(101), ..Setup::new(PARTS) }.spark();
    assert_eq!(wordcount::run_spark(&sc, lines.clone(), PARTS), expect);
    let rec = sc.metrics().recovery();
    assert!(rec.batches_checksummed >= 1, "nothing was sealed at shuffle-write");
    assert!(rec.corruptions_detected >= 1, "armed corruption was never detected");
    assert!(rec.integrity_recomputes >= 1, "no recompute answered the rot");
    assert_eq!(rec.region_restarts, 0, "staged engine must not region-restart");

    let env = Setup { faults: corruption_plan(103), ..Setup::new(PARTS) }.flink();
    assert_eq!(wordcount::run_flink(&env, lines), expect);
    let rec = env.metrics().recovery();
    assert!(rec.batches_checksummed >= 1);
    assert!(rec.corruptions_detected >= 1, "armed corruption was never detected");
    assert!(rec.region_restarts >= 1, "detected rot must fail the region");
    assert!(rec.checkpoints_rejected >= 1, "no rotten snapshot was rejected");
    assert_eq!(rec.partitions_recomputed, 0, "pipelined engine must not use lineage");
}

#[test]
fn grep_sealed_source_corruption_is_detected_and_recovered() {
    install_quiet_hook();
    let config = TextGenConfig {
        needle_selectivity: 0.05,
        ..TextGenConfig::default()
    };
    let needle = config.needle.clone();
    let lines = TextGen::new(config, 3).lines(LINES);
    let expect = grep::oracle(&lines, &needle);
    assert!(expect > 0, "corpus must contain matches");

    // Grep has no exchange on either engine: its integrity surface is the
    // sealed source batch, verified at every task-side read.
    let sc = Setup { faults: corruption_plan(211), ..Setup::new(PARTS) }.spark();
    assert_eq!(grep::run_spark(&sc, lines.clone(), &needle, PARTS), expect);
    let rec = sc.metrics().recovery();
    assert!(rec.batches_checksummed >= 1, "source batches were never sealed");
    assert!(rec.corruptions_detected >= 1, "sealed-source rot was never detected");
    assert!(rec.integrity_recomputes >= 1, "no recompute answered the rot");

    let env = Setup { faults: corruption_plan(223), ..Setup::new(PARTS) }.flink();
    assert_eq!(grep::run_flink(&env, lines, &needle), expect);
    let rec = env.metrics().recovery();
    assert!(rec.corruptions_detected >= 1, "sealed-source rot was never detected");
    assert!(rec.region_restarts >= 1, "detected rot must fail the region");
    assert_eq!(rec.partitions_recomputed, 0);
}

#[test]
fn terasort_corruption_is_detected_and_recovered_on_both_engines() {
    install_quiet_hook();
    let records = TeraGen::new(11).records(TS_RECORDS);
    let expect: Vec<Vec<u8>> = terasort::oracle(records.clone())
        .iter()
        .map(|r| r.key().to_vec())
        .collect();
    let keys_ok = |out: &[Vec<flowmark_datagen::terasort::Record>]| {
        terasort::validate_output(records.len(), out).is_ok()
            && out.iter().flatten().map(|r| r.key().to_vec()).eq(expect.iter().cloned())
    };

    let sc = Setup { faults: corruption_plan(307), ..Setup::new(PARTS) }.spark();
    assert!(keys_ok(&terasort::run_spark(&sc, records.clone(), PARTS)));
    let rec = sc.metrics().recovery();
    assert!(rec.corruptions_detected >= 1, "armed corruption was never detected");
    assert!(rec.integrity_recomputes >= 1, "no recompute answered the rot");
    assert_eq!(rec.region_restarts, 0);

    let env = Setup { faults: corruption_plan(311), ..Setup::new(PARTS) }.flink();
    assert!(keys_ok(&terasort::run_flink(&env, records.clone(), PARTS)));
    let rec = env.metrics().recovery();
    assert!(rec.corruptions_detected >= 1, "armed corruption was never detected");
    assert!(rec.region_restarts >= 1, "detected rot must fail the region");
    assert!(rec.checkpoints_rejected >= 1, "no rotten snapshot was rejected");
    assert_eq!(rec.partitions_recomputed, 0);
}

/// A targeted kill *during* the batch exchange (exchange stage 1, producer
/// 0, first attempt) on the pipelined engine: the sealed batch sends must
/// have participated in the aligned checkpoint barriers for the region to
/// restart from a verified snapshot, and the restored-prefix replay
/// suppression must keep the replayed sends from double-counting — the
/// oracle match proves both at the workload level.
#[test]
fn kill_during_batch_exchange_recovers_via_verified_checkpoints() {
    install_quiet_hook();
    let kill_plan = |seed: u64| {
        FaultPlan::new(FaultConfig {
            seed,
            kill_list: vec![(1, 0, 0)],
            checkpoint_interval_records: 2,
            ..FaultConfig::default()
        })
    };

    let lines = TextGen::new(TextGenConfig::default(), 7).lines(LINES);
    let expect = wordcount::oracle(&lines);
    let env = Setup { faults: kill_plan(401), ..Setup::new(PARTS) }.flink();
    assert_eq!(wordcount::run_flink(&env, lines), expect);
    let rec = env.metrics().recovery();
    assert!(rec.injected_failures >= 1, "wordcount: the exchange kill never fired");
    assert!(rec.region_restarts >= 1, "wordcount: the kill did not restart the region");
    assert!(rec.checkpoints_taken >= 1, "wordcount: batch sends saw no barriers");

    let records = TeraGen::new(11).records(TS_RECORDS);
    let expect: Vec<Vec<u8>> = terasort::oracle(records.clone())
        .iter()
        .map(|r| r.key().to_vec())
        .collect();
    let env = Setup { faults: kill_plan(409), ..Setup::new(PARTS) }.flink();
    let out = terasort::run_flink(&env, records.clone(), PARTS);
    assert!(terasort::validate_output(records.len(), &out).is_ok());
    assert!(out.iter().flatten().map(|r| r.key().to_vec()).eq(expect.iter().cloned()));
    let rec = env.metrics().recovery();
    assert!(rec.injected_failures >= 1, "terasort: the exchange kill never fired");
    assert!(rec.region_restarts >= 1, "terasort: the kill did not restart the region");
    assert!(rec.checkpoints_taken >= 1, "terasort: batch sends saw no barriers");

    // Grep has no exchange: a guaranteed first-task kill exercises the
    // region restart of its sealed-source pipeline instead.
    let config = TextGenConfig {
        needle_selectivity: 0.05,
        ..TextGenConfig::default()
    };
    let needle = config.needle.clone();
    let lines = TextGen::new(config, 3).lines(LINES);
    let expect = grep::oracle(&lines, &needle);
    let env = Setup {
        faults: FaultPlan::new(FaultConfig {
            seed: 419,
            fail_first_n: 1,
            ..FaultConfig::default()
        }),
        ..Setup::new(PARTS)
    }
    .flink();
    assert_eq!(grep::run_flink(&env, lines, &needle), expect);
    let rec = env.metrics().recovery();
    assert!(rec.injected_failures >= 1, "grep: the guaranteed kill never fired");
    assert!(rec.region_restarts >= 1, "grep: the kill did not restart the region");
}

/// A buffer recycled from a killed attempt has one owner. Four TeraSort
/// jobs at once — both engines, each killed mid-exchange so that its
/// attempt's route buckets are dropped or replayed — draw their buckets
/// from the one process-wide pool while the clean jobs that follow reuse
/// what they returned; a bucket reachable from two jobs would show up as
/// records of one input in the other's output.
#[test]
fn killed_exchanges_never_share_a_recycled_route_buffer() {
    install_quiet_hook();
    let kill = |seed: u64| {
        FaultPlan::new(FaultConfig {
            seed,
            kill_list: vec![(1, 0, 0)],
            checkpoint_interval_records: 2,
            ..FaultConfig::default()
        })
    };
    let sorted_exactly = |records: &[flowmark_datagen::terasort::Record],
                          out: Vec<Vec<flowmark_datagen::terasort::Record>>| {
        terasort::validate_output(records.len(), &out).unwrap();
        let mut out: Vec<_> = out.into_iter().flatten().collect();
        let mut expect = records.to_vec();
        out.sort_by_key(|r| r.0);
        expect.sort_by_key(|r| r.0);
        assert!(out == expect, "the output is not the input's records");
    };
    std::thread::scope(|scope| {
        for job in 0..4u64 {
            scope.spawn(move || {
                let records = TeraGen::new(600 + job).records(TS_RECORDS);
                for faults in [true, false] {
                    // Stage 1 is the routing map stage on the staged engine
                    // (the source's child RDD) and the exchange on the
                    // pipelined one (the sink takes stage 0).
                    let plan = if faults { kill(job) } else { FaultPlan::disabled() };
                    let out = if job % 2 == 0 {
                        let sc = Setup { faults: plan, ..Setup::new(PARTS) }.spark();
                        let out = terasort::run_spark(&sc, records.clone(), PARTS);
                        assert_eq!(sc.metrics().recovery().injected_failures, u64::from(faults));
                        out
                    } else {
                        let env = Setup { faults: plan, ..Setup::new(PARTS) }.flink();
                        let out = terasort::run_flink(&env, records.clone(), PARTS);
                        assert_eq!(env.metrics().recovery().region_restarts, u64::from(faults));
                        out
                    };
                    sorted_exactly(&records, out);
                }
            });
        }
    });
}

/// The whole drill is a pure function of its seeds: the same corrupted run
/// replayed twice produces the same verified output.
#[test]
fn corrupted_runs_are_deterministic() {
    install_quiet_hook();
    let lines = TextGen::new(TextGenConfig::default(), 7).lines(LINES);
    let a = {
        let sc = Setup { faults: corruption_plan(503), ..Setup::new(PARTS) }.spark();
        wordcount::run_spark(&sc, lines.clone(), PARTS)
    };
    let b = {
        let sc = Setup { faults: corruption_plan(503), ..Setup::new(PARTS) }.spark();
        wordcount::run_spark(&sc, lines.clone(), PARTS)
    };
    assert_eq!(a, b);
    assert_eq!(a, wordcount::oracle(&lines));
}
