//! `repro chaos`: a seeded fault-injection drill over all six workloads on
//! both engines.
//!
//! Each workload is a [`Cell`] — the same input and oracle the soak, mix
//! and tuning drills run. Every workload/engine cell runs under a fresh
//! deterministic [`FaultPlan`] that guarantees at least one task kill and at
//! least one straggler (plus background failure probability), then the
//! output is checked against the sequential oracle. A cell passes only if
//! recovery — lineage re-execution and speculation on the staged engine,
//! checkpoint restart on the pipelined engine — reproduced the fault-free
//! answer exactly. The per-cell recovery counters are the paper-facing
//! artifact: they show *which* mechanism each engine used to survive.

use flowmark_core::config::Framework;
use flowmark_engine::{FaultConfig, FaultPlan, Setup};
use flowmark_workloads::cell::Cell;
use flowmark_workloads::Workload;

use crate::drill::{self, cell_seed, on_batch_path, Entry, Report, Row, Scale};

/// Fault-drill knobs, settable from the `repro chaos` CLI.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Root seed; each cell derives its own plan seed from it, so every
    /// cell's injections are independent and the whole drill replays
    /// bit-for-bit under the same seed.
    pub seed: u64,
    /// Background probability a task's first attempt is killed
    /// (on top of the guaranteed first kill).
    pub task_failure_prob: f64,
    /// Background probability a task's first attempt straggles
    /// (on top of the guaranteed first straggler).
    pub straggler_prob: f64,
    /// When set, batch-path cells also run under the corruption preset:
    /// a guaranteed in-flight batch corruption plus a guaranteed rotten
    /// checkpoint snapshot, layered on top of the kill/straggler plan.
    pub corruption: bool,
}

impl ChaosConfig {
    /// The default drill: the chaos preset's background probabilities.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            task_failure_prob: 0.05,
            straggler_prob: 0.02,
            corruption: false,
        }
    }

    /// Entry `i`'s plan: guaranteed ≥1 kill and ≥1 straggler, plus the
    /// corruption preset when `corrupt`.
    fn plan(&self, i: u64, corrupt: bool) -> FaultPlan {
        let seed = cell_seed(self.seed, i);
        let mut cfg = if corrupt {
            FaultConfig::corruption(seed)
        } else {
            FaultConfig::chaos(seed)
        };
        cfg.task_failure_prob = self.task_failure_prob;
        cfg.straggler_prob = self.straggler_prob;
        FaultPlan::new(cfg)
    }
}

/// Runs the drill: each workload's [`Cell`] once per engine under a fresh
/// fault plan (entry `2i + j` for workload `i`, engine `j`), every cell
/// verified against the sequential oracle. Rows are labelled `corruption`
/// where the corruption preset armed the cell, else `chaos`.
pub fn run_chaos(config: ChaosConfig, scale: &Scale) -> Report {
    let cells: Vec<Cell> = Workload::ALL
        .iter()
        .map(|&w| Cell::generate(w, &scale.sizes))
        .collect();
    let mut grid: Vec<Entry<'_>> = Vec::new();
    for (i, cell) in (0u64..).zip(&cells) {
        let corrupt = config.corruption && on_batch_path(cell.name());
        for (j, engine) in (0u64..).zip(Framework::BOTH) {
            let setup = Setup {
                faults: config.plan(2 * i + j, corrupt),
                ..Setup::new(scale.partitions)
            };
            grid.push((
                cell,
                engine,
                if corrupt { "corruption" } else { "chaos" },
                setup,
            ));
        }
    }
    Report {
        seed: config.seed,
        rows: drill::run(&grid),
        latency: None,
    }
}

/// Checks the drill's hard invariants, returning one human-readable line
/// per violation (empty means the drill passed).
///
/// Every cell must have reproduced the oracle, and every batch-path cell
/// must actually have exercised the batch path. A `corruption` row carries
/// integrity expectations too: it must have *detected* its guaranteed
/// corruption, the staged engine must have recovered by recomputing
/// (`integrity_recomputes`), and the pipelined engine must have rejected a
/// rotten checkpoint — except Grep, whose pipelined plan has no exchange
/// and therefore no checkpointed channel to reject (its sealed source read
/// is the integrity surface instead).
pub fn integrity_violations(rows: &[Row]) -> Vec<String> {
    let mut bad = Vec::new();
    for row in rows {
        let (r, id) = (&row.metrics.recovery, row.id());
        if !row.verified {
            bad.push(format!("{id}: output diverged from the sequential oracle"));
        }
        if on_batch_path(&row.cell) && row.metrics.batches_processed == 0 {
            bad.push(format!(
                "{id}: batch-path cell processed no columnar batches"
            ));
        }
        if row.plan == "corruption" {
            if r.corruptions_detected == 0 {
                bad.push(format!("{id}: armed corruption was never detected"));
            }
            if row.engine == "spark" && r.integrity_recomputes == 0 {
                bad.push(format!(
                    "{id}: no integrity-driven recompute recovered the rot"
                ));
            }
            if row.engine == "flink" && row.cell != "grep" && r.checkpoints_rejected == 0 {
                bad.push(format!("{id}: no rotten checkpoint snapshot was rejected"));
            }
        }
    }
    bad
}

/// Renders the drill: the knobs, then the row table with each engine's
/// totals — lineage recomputes and speculative wins on the staged engine,
/// region restarts from checkpoints on the pipelined one.
pub fn render(config: &ChaosConfig, scale: &Scale, report: &Report) -> String {
    format!(
        "chaos drill — seed {}, kill prob {:.2}, straggle prob {:.2}, {} partitions{}\n{}",
        config.seed,
        config.task_failure_prob,
        config.straggler_prob,
        scale.partitions,
        if config.corruption {
            ", corruption armed"
        } else {
            ""
        },
        drill::table(&report.rows),
    )
}

// The drill itself is exercised (at tiny scale, every cell asserted) by the
// tier-1 integration test `tests/chaos_smoke.rs`.

#[cfg(test)]
mod tests {
    use super::*;
    use flowmark_engine::{MetricsSnapshot, RecoverySnapshot};

    #[test]
    fn derived_plans_are_independent_and_active() {
        let cfg = ChaosConfig::new(42);
        let a = cfg.plan(0, false);
        let b = cfg.plan(1, true);
        assert!(a.active() && b.active());
    }

    fn mock_row(cell: &str, engine: &str, plan: &str, recovery: RecoverySnapshot) -> Row {
        Row {
            cell: cell.into(),
            engine: engine.into(),
            plan: plan.into(),
            verified: true,
            wall_s: 0.01,
            metrics: MetricsSnapshot {
                batches_processed: 4,
                recovery,
                ..Default::default()
            },
        }
    }

    #[test]
    fn integrity_violations_flag_missed_detection_only_where_expected() {
        let recovered = RecoverySnapshot {
            corruptions_detected: 1,
            integrity_recomputes: 1,
            checkpoints_rejected: 1,
            ..Default::default()
        };
        let rows = vec![
            mock_row("wordcount", "spark", "corruption", recovered),
            mock_row(
                "wordcount",
                "flink",
                "corruption",
                RecoverySnapshot::default(),
            ),
            // Grep's pipelined plan has no exchange: detection is still
            // required, a rejected checkpoint is not.
            mock_row(
                "grep",
                "flink",
                "corruption",
                RecoverySnapshot {
                    corruptions_detected: 1,
                    ..Default::default()
                },
            ),
            // Cells off the batch path carry no integrity expectations.
            mock_row("kmeans", "spark", "chaos", RecoverySnapshot::default()),
        ];
        let bad = integrity_violations(&rows);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad[0].contains("wordcount-flink") && bad[0].contains("never detected"));
        assert!(bad[1].contains("wordcount-flink") && bad[1].contains("rotten checkpoint"));

        // The same counters pass when the drill never armed corruption,
        // but oracle divergence and an idle batch path always fail.
        let mut clean = rows.clone();
        for row in &mut clean {
            row.plan = "chaos".into();
        }
        assert!(integrity_violations(&clean).is_empty());
        clean[0].verified = false;
        clean[1].metrics.batches_processed = 0;
        assert_eq!(integrity_violations(&clean).len(), 2);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = Report {
            seed: 7,
            rows: vec![mock_row(
                "wordcount",
                "spark",
                "chaos",
                RecoverySnapshot {
                    injected_failures: 1,
                    task_retries: 1,
                    partitions_recomputed: 1,
                    ..Default::default()
                },
            )],
            latency: None,
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back.rows.len(), 1);
        assert_eq!(back.rows[0].metrics.recovery.partitions_recomputed, 1);
        assert!(render(&ChaosConfig::new(7), &Scale::small(), &back).contains("wordcount"));

        // A drill artifact without the latency grid or the batch-path
        // counter still loads.
        let legacy = json
            .replace(",\n  \"latency\": null", "")
            .replace("\"batches_processed\": 4,\n", "");
        assert_ne!(legacy, json);
        let old: Report = serde_json::from_str(&legacy).unwrap();
        assert!(old.latency.is_none());
        assert_eq!(old.rows[0].metrics.batches_processed, 0);
    }
}
