//! `repro stream` / `repro chaos --streaming`: the event-time streaming
//! drill.
//!
//! Two Nexmark-style queries (q3 filter-join, q6 windowed aggregate) run
//! on both checkpointed runtimes (micro-batch and continuous), clean and
//! *armed* — under a deterministic fault plan guaranteeing at least one
//! task kill, one straggler, one in-flight corruption and one rotten
//! checkpoint snapshot. Every cell is verified byte-for-byte (after
//! canonical sorting) against the sequential oracle, so a passing armed
//! cell is an end-to-end exactly-once proof: the fault was injected,
//! detected, recovered from, and the recovered output is identical to the
//! fault-free answer. The latency grid on top answers the paper's §VIII
//! question — micro-batch latency floors at ~half the batch interval on
//! the logical clock, continuous stays at processing cost.

use flowmark_core::config::Framework;
use flowmark_engine::streaming::model::micro_batch_latency_ticks;
use flowmark_engine::streaming::run_continuous;
use flowmark_engine::{FaultConfig, FaultPlan, Setup};
use flowmark_workloads::cell::Cell;
use flowmark_workloads::stream::Query;
use serde::{Deserialize, Serialize};

use crate::drill::{self, cell_seed, Entry, Report, Row, Scale};

/// One point of the §VIII latency grid: the micro-batch latency
/// distribution at one batch interval, on the logical clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyPoint {
    /// Discretization interval in ticks.
    pub batch_ticks: u64,
    /// Median event latency in ticks (arrival to batch completion).
    pub p50_ticks: u64,
    /// 99th-percentile event latency in ticks.
    pub p99_ticks: u64,
}

/// The §VIII latency grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Latency {
    /// Micro-batch points, aggressive to lazy interval.
    pub points: Vec<LatencyPoint>,
    /// Continuous-model mean latency in ticks, the grid's floor.
    pub continuous_mean_ticks: f64,
}

/// One round's q3 and q6 cells. Clean and armed rounds draw different
/// datasets: `seed ^ 0x51_33` / `0x51_66` clean, `0xA3_33` / `0xA3_66`
/// armed.
pub fn cells(seed: u64, events: usize, armed: bool) -> [Cell; 2] {
    let (q3, q6) = if armed {
        (0xA3_33, 0xA3_66)
    } else {
        (0x51_33, 0x51_66)
    };
    [
        Cell::nexmark(Query::Q3, events, seed ^ q3),
        Cell::nexmark(Query::Q6, events, seed ^ q6),
    ]
}

/// One round's grid: each cell on micro-batch, then continuous, as
/// entries 0–3. Armed entries run the corruption preset (guaranteed kill,
/// straggler, in-flight corruption and rotten checkpoint); clean ones
/// inject nothing but still checkpoint, since the sink commits per epoch.
fn grid<'a>(cells: &'a [Cell], seed: u64, scale: &Scale, armed: bool) -> Vec<Entry<'a>> {
    let pairs = cells
        .iter()
        .flat_map(|c| Framework::BOTH.map(|engine| (c, engine)));
    (0u64..)
        .zip(pairs)
        .map(|(i, (cell, engine))| {
            let mut faults = if armed {
                FaultConfig::corruption(cell_seed(seed, i))
            } else {
                FaultConfig::default()
            };
            faults.checkpoint_interval_records = scale.checkpoint_interval;
            let setup = Setup {
                faults: FaultPlan::new(faults),
                ..Setup::new(scale.stream_parallelism)
            };
            (cell, engine, if armed { "armed" } else { "clean" }, setup)
        })
        .collect()
}

/// Runs the drill's rounds — `repro stream` (`clean`): the §VIII latency
/// grid, the clean round, then the armed round; `repro chaos --streaming`:
/// the armed round only. Returns the report and its violations.
pub fn run_stream(seed: u64, scale: &Scale, clean: bool) -> (Report, Vec<String>) {
    let rounds: &[bool] = if clean { &[false, true] } else { &[true] };
    let cells: Vec<Cell> = rounds
        .iter()
        .flat_map(|&armed| cells(seed, scale.events, armed))
        .collect();
    let entries: Vec<Entry<'_>> = rounds
        .iter()
        .zip(cells.chunks(2))
        .flat_map(|(&armed, pair)| grid(pair, seed, scale, armed))
        .collect();
    let report = Report {
        seed,
        rows: drill::run(&entries),
        latency: clean.then(|| latency(scale.events as u64)),
    };
    let bad = violations(&cells, &report.rows);
    (report, bad)
}

/// The latency grid on the logical clock: one event every 2 ticks,
/// micro-batch intervals from aggressive to lazy.
fn latency(n: u64) -> Latency {
    let points = [32u64, 128, 512]
        .into_iter()
        .map(|batch_ticks| {
            let mut lat = micro_batch_latency_ticks(n, 2, batch_ticks);
            lat.sort_unstable();
            LatencyPoint {
                batch_ticks,
                p50_ticks: lat[lat.len() / 2],
                p99_ticks: lat[(lat.len() * 99) / 100],
            }
        })
        .collect();
    let events: Vec<u64> = (0..n).collect();
    Latency {
        points,
        continuous_mean_ticks: run_continuous(events, 2, |x| *x).latency_ticks.mean,
    }
}

/// Checks the drill's hard invariants, returning one human-readable line
/// per violation (empty means the drill passed).
///
/// Every cell's oracle must expect results, so that a verified row proves
/// something was committed. Every row must match the oracle. Every
/// *armed* row must prove the whole detect-and-recover chain ran: the
/// guaranteed kill was injected, a region restarted, the guaranteed
/// corruption was detected, and a rotten checkpoint snapshot was
/// rejected. q6 rows must actually have fired windows, and at least one
/// armed row must have restored operator state from a digest-verified
/// snapshot.
pub fn violations(cells: &[Cell], rows: &[Row]) -> Vec<String> {
    let mut bad: Vec<String> = cells
        .iter()
        .filter(|c| c.answer_len() == 0)
        .map(|c| format!("{}: the oracle expects no results to commit", c.name()))
        .collect();
    for row in rows {
        let (r, id) = (&row.metrics.recovery, row.id());
        if !row.verified {
            bad.push(format!("{id}: committed output diverged from the oracle"));
        }
        if row.cell == "nexmark-q6" && row.metrics.windows_emitted == 0 {
            bad.push(format!("{id}: no windows fired"));
        }
        if row.plan == "armed" {
            if r.injected_failures == 0 {
                bad.push(format!("{id}: armed kill was never injected"));
            }
            if r.region_restarts == 0 {
                bad.push(format!("{id}: no region restart recovered the kill"));
            }
            if r.corruptions_detected == 0 {
                bad.push(format!("{id}: armed corruption was never detected"));
            }
            if r.checkpoints_rejected == 0 {
                bad.push(format!("{id}: no rotten checkpoint snapshot was rejected"));
            }
        }
    }
    let mut armed = rows.iter().filter(|r| r.plan == "armed").peekable();
    if armed.peek().is_some() && armed.all(|r| r.metrics.recovery.stream_checkpoints_restored == 0)
    {
        bad.push("no armed cell restored state from a verified checkpoint".into());
    }
    bad
}

/// Renders the drill: the latency grid, then the row table with each
/// engine's totals.
pub fn render(scale: &Scale, report: &Report) -> String {
    let mut out = format!(
        "streaming drill — seed {}, {} events, parallelism {}\n",
        report.seed, scale.events, scale.stream_parallelism
    );
    if let Some(latency) = &report.latency {
        out.push_str(&format!(
            "latency (logical ticks): continuous mean {:.1}\n",
            latency.continuous_mean_ticks
        ));
        for p in &latency.points {
            out.push_str(&format!(
                "  micro-batch {:>4}-tick interval: p50 {:>4}, p99 {:>4}\n",
                p.batch_ticks, p.p50_ticks, p.p99_ticks
            ));
        }
    }
    out + &drill::table(&report.rows)
}

// The drill itself is exercised (at smoke scale, every row asserted) by
// the tier-1 integration test `tests/stream_smoke.rs`.

#[cfg(test)]
mod tests {
    use super::*;
    use flowmark_engine::{MetricsSnapshot, RecoverySnapshot};

    fn mock_row(cell: &str, armed: bool, recovery: RecoverySnapshot) -> Row {
        Row {
            cell: cell.into(),
            engine: "flink".into(),
            plan: if armed { "armed" } else { "clean" }.into(),
            verified: true,
            wall_s: 0.01,
            metrics: MetricsSnapshot {
                windows_emitted: if cell == "nexmark-q6" { 8 } else { 0 },
                watermark_lag_events: 3,
                stream_batches: 4,
                recovery,
                ..Default::default()
            },
        }
    }

    #[test]
    fn violations_require_the_full_detect_and_recover_chain() {
        let proven = RecoverySnapshot {
            injected_failures: 1,
            region_restarts: 1,
            corruptions_detected: 1,
            checkpoints_rejected: 1,
            stream_checkpoints_restored: 1,
            ..Default::default()
        };
        let cells = cells(1, 2_000, false);
        let rows = vec![
            mock_row("nexmark-q3", false, RecoverySnapshot::default()),
            mock_row("nexmark-q6", true, proven),
        ];
        assert!(
            violations(&cells, &rows).is_empty(),
            "{:?}",
            violations(&cells, &rows)
        );

        // An armed row that never rejected a rotten snapshot fails.
        let mut bad = rows.clone();
        bad[1].metrics.recovery.checkpoints_rejected = 0;
        assert!(violations(&cells, &bad)
            .iter()
            .any(|v| v.contains("rotten checkpoint")));

        // A q6 row with no fired windows fails even clean.
        let mut idle = rows.clone();
        idle[1].metrics.windows_emitted = 0;
        assert!(violations(&cells, &idle)
            .iter()
            .any(|v| v.contains("no windows")));

        // Restores are an aggregate expectation across armed rows.
        let mut unrestored = rows.clone();
        unrestored[1].metrics.recovery.stream_checkpoints_restored = 0;
        assert!(violations(&cells, &unrestored)
            .iter()
            .any(|v| v.contains("restored")));

        // A cell whose oracle expects nothing cannot prove a commit.
        let empty = [cells[0].prefix(0)];
        assert!(violations(&empty, &rows)
            .iter()
            .any(|v| v.contains("no results to commit")));
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = Report {
            seed: 7,
            rows: vec![mock_row("nexmark-q6", true, RecoverySnapshot::default())],
            latency: Some(Latency {
                points: vec![LatencyPoint {
                    batch_ticks: 128,
                    p50_ticks: 64,
                    p99_ticks: 127,
                }],
                continuous_mean_ticks: 1.0,
            }),
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows.len(), 1);
        assert_eq!(
            back.latency.as_ref().map(|l| l.points[0].p99_ticks),
            Some(127)
        );
        assert!(render(&Scale::small(), &back).contains("nexmark-q6"));
    }
}
