//! Tier-1 smoke test for the event-time streaming drill: `repro stream`
//! and `repro chaos --streaming` at smoke scale, every invariant
//! asserted, plus fixed-seed determinism of the whole report.

use flowmark_harness::drill::{Row, Scale};
use flowmark_harness::stream::{cells, run_stream};

/// Results each row's cell commits when verified: its oracle's answer,
/// in grid order (two rows per cell, clean cells before armed).
fn oracle_rows(seed: u64) -> Vec<usize> {
    [false, true]
        .into_iter()
        .flat_map(|armed| cells(seed, Scale::small().events, armed))
        .flat_map(|cell| [cell.answer_len(); 2])
        .collect()
}

#[test]
fn stream_drill_passes_and_is_deterministic() {
    let (report, violations) = run_stream(1, &Scale::small(), true);
    assert!(violations.is_empty(), "{violations:?}");
    let latency = report
        .latency
        .as_ref()
        .expect("stream reports its latency grid");

    // Grid shape: clean and armed rows for each query × runtime, the
    // §VIII latency points, and the continuous model's one-tick floor.
    assert_eq!(report.rows.len(), 8);
    assert_eq!(report.rows.iter().filter(|c| c.plan == "armed").count(), 4);
    assert_eq!(latency.points.len(), 3);
    assert!(latency.continuous_mean_ticks <= 2.0);
    // Discretization cost is monotone in the batch interval.
    assert!(latency.points[0].p99_ticks < latency.points[2].p99_ticks);

    // Every row — clean or armed — matched the oracle, and the armed
    // ones survived the full kill + corruption + rotten-checkpoint plan.
    let committed = oracle_rows(1);
    for (c, &rows) in report.rows.iter().zip(&committed) {
        assert!(c.verified, "{} diverged", c.id());
        assert!(rows > 0);
        // The drill runs the default slab transport: every row must
        // have folded at least one event slab batch-at-a-time.
        assert!(c.metrics.stream_batches > 0, "{} ran per-event", c.id());
        let r = &c.metrics.recovery;
        if c.plan == "armed" {
            assert!(r.injected_failures > 0);
            assert!(r.region_restarts > 0);
            assert!(r.corruptions_detected > 0);
            assert!(r.checkpoints_rejected > 0);
        } else {
            assert_eq!(r.injected_failures, 0);
        }
    }

    // The drill replays under the same seed: verdicts and committed
    // results are bit-for-bit everywhere; full counters replay exactly
    // too, except on armed *continuous* rows, where the restore point
    // legitimately depends on how far the sink had committed when the
    // kill landed (the committed-floor rule), so counters derived from
    // the restore walk vary with thread timing.
    let (replay, _) = run_stream(1, &Scale::small(), true);
    assert_eq!(report.latency, replay.latency);
    assert_eq!(report.rows.len(), replay.rows.len());
    assert_eq!(committed, oracle_rows(1), "committed results drifted");
    for (a, b) in report.rows.iter().zip(&replay.rows) {
        assert_eq!(a.id(), b.id());
        assert_eq!(a.verified, b.verified);
        // `backpressure_waits` counts full-channel sends, which follow
        // thread timing on every row.
        let counters = |r: &Row| {
            let m = &r.metrics;
            let streaming = [
                m.windows_emitted,
                m.late_events_dropped,
                m.watermark_lag_events,
            ];
            (streaming, m.stream_batches, m.recovery)
        };
        if a.engine != "flink" || a.plan != "armed" {
            assert_eq!(
                counters(a),
                counters(b),
                "{} row is not deterministic",
                a.id()
            );
        }
    }
}

#[test]
fn streaming_chaos_drill_arms_every_cell() {
    let (report, violations) = run_stream(3, &Scale::small(), false);
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(report.rows.len(), 4);
    assert!(report.rows.iter().all(|c| c.plan == "armed" && c.verified));
    // The drill's whole point: state actually came back from a
    // digest-verified snapshot somewhere in the grid.
    let restored: u64 = report
        .rows
        .iter()
        .map(|c| c.metrics.recovery.stream_checkpoints_restored)
        .sum();
    assert!(restored > 0);
}

/// A plain `repro stream --smoke` passes and writes nothing: JSON is
/// written only when `--out` names a file.
#[test]
fn stream_preset_writes_no_file_without_out() {
    let dir = std::env::temp_dir().join(format!("repro-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creates a scratch directory");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["stream", "--smoke"])
        .current_dir(&dir)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("runs repro");
    let created: Vec<_> = std::fs::read_dir(&dir)
        .expect("lists the scratch directory")
        .collect();
    std::fs::remove_dir_all(&dir).expect("removes the scratch directory");
    assert!(status.success(), "repro stream --smoke exited {status}");
    assert!(created.is_empty(), "repro stream wrote {created:?}");
}
