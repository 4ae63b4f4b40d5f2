//! Tier-1 chaos drill: every workload, on both engines, survives a
//! guaranteed injected task kill and straggler and still reproduces the
//! fault-free answer — the staged engine via lineage re-execution and
//! speculative backups, the pipelined engine via checkpoint restarts.

use flowmark_harness::chaos::{integrity_violations, run_chaos, ChaosConfig};
use flowmark_harness::drill::{on_batch_path, Scale};

#[test]
fn chaos_drill_recovers_every_workload_on_both_engines() {
    let report = run_chaos(ChaosConfig::new(1), &Scale::small());
    assert_eq!(report.rows.len(), 12, "six workloads × two engines");
    assert!(
        integrity_violations(&report.rows).is_empty(),
        "{:?}",
        integrity_violations(&report.rows)
    );

    let mut task_retries = 0;
    let mut speculative_wins = 0;
    let mut checkpoints = 0;
    for c in &report.rows {
        let r = &c.metrics.recovery;
        let id = format!("{}/{}", c.cell, c.engine);
        assert!(c.verified, "{id} diverged from the oracle under faults");
        assert!(r.injected_failures >= 1, "{id}: the guaranteed kill never fired");
        assert!(r.injected_stragglers >= 1, "{id}: the guaranteed straggler never fired");
        if on_batch_path(&c.cell) {
            assert!(
                c.metrics.batches_processed >= 1,
                "{id}: columnar batch path never ran"
            );
        }
        match c.engine.as_str() {
            "spark" => {
                // Lineage recovery: the kill was either retried (recomputing
                // the lost partition) or absorbed by a speculative backup
                // that was already racing the straggling primary.
                assert!(
                    r.partitions_recomputed + r.speculative_wins >= 1,
                    "{id}: kill recovered by neither lineage nor speculation"
                );
                assert_eq!(r.region_restarts, 0, "{id}: staged engine restarted a region");
                speculative_wins += r.speculative_wins;
            }
            _ => {
                // Checkpoint recovery: the region containing the killed task
                // restarted from the last completed snapshot.
                assert!(r.region_restarts >= 1, "{id}: kill did not restart the region");
                assert_eq!(
                    r.partitions_recomputed, 0,
                    "{id}: pipelined engine recomputed from lineage"
                );
                checkpoints += r.checkpoints_taken;
            }
        }
        task_retries += r.task_retries;
    }

    assert!(task_retries >= 1, "no failed attempt was ever retried");
    assert!(checkpoints >= 1, "no aligned checkpoint completed anywhere");
    assert!(
        speculative_wins >= 1,
        "no speculative backup beat a straggler anywhere in the drill"
    );
}

#[test]
fn chaos_drill_with_corruption_detects_and_recovers_on_the_batch_path() {
    let mut config = ChaosConfig::new(1);
    config.corruption = true;
    let report = run_chaos(config, &Scale::small());
    assert_eq!(report.rows.len(), 12, "six workloads × two engines");
    assert!(
        report
            .rows
            .iter()
            .all(|c| (c.plan == "corruption") == on_batch_path(&c.cell)),
        "rows must record that corruption was armed on exactly the batch path"
    );

    // `integrity_violations` carries the hard per-cell expectations: every
    // cell oracle-verified, every batch-path cell detected its armed
    // corruption, staged cells recovered by recompute, pipelined cells with
    // an exchange rejected a rotten checkpoint snapshot.
    let violations = integrity_violations(&report.rows);
    assert!(violations.is_empty(), "{violations:?}");

    for c in &report.rows {
        let r = &c.metrics.recovery;
        let id = format!("{}/{}", c.cell, c.engine);
        let batch = on_batch_path(&c.cell);
        if batch {
            assert!(r.batches_checksummed >= 1, "{id}: nothing was ever sealed");
        } else {
            // Corruption must stay confined to the batch path: the
            // unmigrated cells run the plain chaos plan.
            assert_eq!(r.corruptions_detected, 0, "{id}: corruption leaked");
            assert_eq!(r.checkpoints_rejected, 0, "{id}: rejection leaked");
        }
        // The engine dichotomy survives the combined kill+corruption plan.
        match c.engine.as_str() {
            "spark" => assert_eq!(r.region_restarts, 0, "{id}: staged engine restarted"),
            _ => assert_eq!(r.partitions_recomputed, 0, "{id}: pipelined engine recomputed"),
        }
    }
}

/// At seed 1 and test scale, every grid preset lists the same cells, in
/// the same order and with the same verdicts, as the per-drill code the
/// one runner replaced; its clean streaming rows read the counters that
/// code read. Armed continuous counters depend on thread timing, so only
/// clean rows are pinned.
#[test]
fn drill_grids_match_the_parent() {
    use flowmark_harness::drill::Row;
    use flowmark_harness::stream::run_stream;

    fn grid(rows: &[Row]) -> Vec<(&str, &str, &str, bool)> {
        rows.iter()
            .map(|r| {
                (
                    r.cell.as_str(),
                    r.engine.as_str(),
                    r.plan.as_str(),
                    r.verified,
                )
            })
            .collect()
    }
    let chaos = run_chaos(ChaosConfig::new(1), &Scale::small());
    assert_eq!(
        grid(&chaos.rows),
        [
            ("wordcount", "spark", "chaos", true),
            ("wordcount", "flink", "chaos", true),
            ("grep", "spark", "chaos", true),
            ("grep", "flink", "chaos", true),
            ("terasort", "spark", "chaos", true),
            ("terasort", "flink", "chaos", true),
            ("kmeans", "spark", "chaos", true),
            ("kmeans", "flink", "chaos", true),
            ("pagerank", "spark", "chaos", true),
            ("pagerank", "flink", "chaos", true),
            ("connected", "spark", "chaos", true),
            ("connected", "flink", "chaos", true),
        ]
    );
    let mut config = ChaosConfig::new(1);
    config.corruption = true;
    let corruption = run_chaos(config, &Scale::small());
    assert_eq!(
        grid(&corruption.rows),
        [
            ("wordcount", "spark", "corruption", true),
            ("wordcount", "flink", "corruption", true),
            ("grep", "spark", "corruption", true),
            ("grep", "flink", "corruption", true),
            ("terasort", "spark", "corruption", true),
            ("terasort", "flink", "corruption", true),
            ("kmeans", "spark", "chaos", true),
            ("kmeans", "flink", "chaos", true),
            ("pagerank", "spark", "chaos", true),
            ("pagerank", "flink", "chaos", true),
            ("connected", "spark", "chaos", true),
            ("connected", "flink", "chaos", true),
        ]
    );
    let (streaming, _) = run_stream(1, &Scale::small(), false);
    let armed = [
        ("nexmark-q3", "spark", "armed", true),
        ("nexmark-q3", "flink", "armed", true),
        ("nexmark-q6", "spark", "armed", true),
        ("nexmark-q6", "flink", "armed", true),
    ];
    assert_eq!(grid(&streaming.rows), armed);
    let (stream, _) = run_stream(1, &Scale::small(), true);
    let clean = [
        ("nexmark-q3", "spark", "clean", true),
        ("nexmark-q3", "flink", "clean", true),
        ("nexmark-q6", "spark", "clean", true),
        ("nexmark-q6", "flink", "clean", true),
    ];
    assert_eq!(grid(&stream.rows), [clean, armed].concat());

    // [records_read, windows_emitted, stream_batches, checkpoints_taken,
    // checkpoint_bytes] of each clean row, as the parent read them.
    let counters: Vec<[u64; 5]> = stream.rows[..4]
        .iter()
        .map(|r| {
            let m = &r.metrics;
            [
                m.records_read,
                m.windows_emitted,
                m.stream_batches,
                m.recovery.checkpoints_taken,
                m.recovery.checkpoint_bytes,
            ]
        })
        .collect();
    assert_eq!(
        counters,
        [
            [2_000, 0, 1_194, 501, 187_680],
            [2_000, 0, 1_269, 501, 187_680],
            [2_000, 1_071, 1_185, 501, 476_544],
            [2_000, 1_071, 1_261, 501, 476_544],
        ]
    );
}
