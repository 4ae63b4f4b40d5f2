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
use flowmark_engine::metrics::RecoverySnapshot;
use flowmark_engine::{FaultConfig, FaultPlan, Setup};
use flowmark_workloads::cell::{Cell, Run, Sizes};
use flowmark_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Workloads migrated to the columnar batch path. Under `--corruption`
/// these are the cells whose shuffle / sealed-source bytes get damaged and
/// whose integrity counters carry hard expectations.
pub const BATCH_MIGRATED: [&str; 3] = ["wordcount", "grep", "terasort"];

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
    /// When set, batch-migrated cells also run under the corruption preset:
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

    /// A fresh per-cell plan: guaranteed ≥1 kill and ≥1 straggler, seeded
    /// by cell index so no two cells share injection decisions. Cells on
    /// the batch path additionally get the corruption preset when the
    /// drill runs in `--corruption` mode.
    fn plan(&self, cell: u64, batch: bool) -> FaultPlan {
        let seed = self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(cell);
        let mut cfg = if batch && self.corruption {
            FaultConfig::corruption(seed)
        } else {
            FaultConfig::chaos(seed)
        };
        cfg.task_failure_prob = self.task_failure_prob;
        cfg.straggler_prob = self.straggler_prob;
        FaultPlan::new(cfg)
    }
}

/// Input sizes for one drill.
#[derive(Debug, Clone, Copy)]
pub struct ChaosScale {
    /// Input sizes of the six cells.
    pub sizes: Sizes,
    /// Engine parallelism.
    pub partitions: usize,
}

impl ChaosScale {
    /// CLI scale.
    pub fn full() -> Self {
        Self {
            sizes: Sizes {
                lines: 30_000,
                ts_records: 30_000,
                points: 20_000,
                edges: 8_000,
                rounds: 8,
            },
            partitions: 8,
        }
    }

    /// Test scale: small datasets, few rounds, still enough tasks per cell
    /// for the guaranteed kill and straggler to land.
    pub fn tiny() -> Self {
        Self {
            sizes: Sizes {
                lines: 1_500,
                ts_records: 1_500,
                points: 2_000,
                edges: 1_200,
                rounds: 5,
            },
            partitions: 4,
        }
    }
}

/// One drilled cell: a workload on one engine under injected faults.
/// ([`RecoverySnapshot`] serialises directly now that the engine's metrics
/// are serde types.)
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosCell {
    /// Workload id.
    pub workload: String,
    /// Engine id: `spark` (staged) or `flink` (pipelined).
    pub engine: String,
    /// True when the faulted output matched the sequential oracle.
    pub verified: bool,
    /// Column batches the cell pushed through a vectorized kernel or a
    /// batch-granularity exchange — proof the batch path actually ran;
    /// `default` keeps pre-existing drill artifacts parseable.
    #[serde(default)]
    pub batches_processed: u64,
    /// The engine's recovery counters after the run.
    pub recovery: RecoverySnapshot,
}

/// A full drill: twelve cells plus the knobs that produced them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Root seed of the drill.
    pub seed: u64,
    /// Background kill probability used.
    pub task_failure_prob: f64,
    /// Background straggler probability used.
    pub straggler_prob: f64,
    /// Engine parallelism.
    pub partitions: usize,
    /// True when batch-migrated cells ran under the corruption preset.
    #[serde(default)]
    pub corruption: bool,
    /// All drilled cells, workload-major, spark before flink.
    pub cells: Vec<ChaosCell>,
}

fn drilled(workload: Workload, engine: Framework, run: Run) -> ChaosCell {
    ChaosCell {
        workload: workload.name().into(),
        engine: engine.name().to_lowercase(),
        verified: run.verdict.is_verified(),
        batches_processed: run.metrics.batches_processed,
        recovery: run.metrics.recovery,
    }
}

/// Runs the drill: each workload's [`Cell`] once per engine under a fresh
/// fault plan, every cell verified against the sequential oracle.
pub fn run_chaos(config: ChaosConfig, scale: ChaosScale) -> ChaosReport {
    let parts = scale.partitions;
    let mut cells = Vec::new();
    for (i, workload) in (0u64..).zip(Workload::ALL) {
        let cell = Cell::generate(workload, &scale.sizes);
        // Only cells on the columnar batch path have sealed bytes for the
        // corruption preset to rot.
        let batch = BATCH_MIGRATED.contains(&workload.name());
        for (j, engine) in (0u64..).zip(Framework::BOTH) {
            let setup = Setup {
                faults: config.plan(2 * i + j, batch),
                ..Setup::new(parts)
            };
            cells.push(drilled(workload, engine, cell.run(engine, &setup)));
        }
    }

    ChaosReport {
        seed: config.seed,
        task_failure_prob: config.task_failure_prob,
        straggler_prob: config.straggler_prob,
        partitions: parts,
        corruption: config.corruption,
        cells,
    }
}

/// Checks the drill's hard invariants, returning one human-readable line
/// per violation (empty means the drill passed).
///
/// Every cell must have reproduced the oracle, and every batch-migrated
/// cell must actually have exercised the batch path. Under `--corruption`
/// the integrity counters carry expectations too: each batch-migrated cell
/// must have *detected* its guaranteed corruption, the staged engine must
/// have recovered by recomputing (`integrity_recomputes`), and the
/// pipelined engine must have rejected a rotten checkpoint — except
/// Grep, whose pipelined plan has no exchange and therefore no
/// checkpointed channel to reject (its sealed source read is the
/// integrity surface instead).
pub fn integrity_violations(report: &ChaosReport) -> Vec<String> {
    let mut bad = Vec::new();
    for c in &report.cells {
        let r = &c.recovery;
        let id = format!("{}-{}", c.workload, c.engine);
        if !c.verified {
            bad.push(format!("{id}: output diverged from the sequential oracle"));
        }
        let batch = BATCH_MIGRATED.contains(&c.workload.as_str());
        if batch && c.batches_processed == 0 {
            bad.push(format!("{id}: batch-migrated cell processed no columnar batches"));
        }
        if report.corruption && batch {
            if r.corruptions_detected == 0 {
                bad.push(format!("{id}: armed corruption was never detected"));
            }
            if c.engine == "spark" && r.integrity_recomputes == 0 {
                bad.push(format!("{id}: no integrity-driven recompute recovered the rot"));
            }
            if c.engine == "flink" && c.workload != "grep" && r.checkpoints_rejected == 0 {
                bad.push(format!("{id}: no rotten checkpoint snapshot was rejected"));
            }
        }
    }
    bad
}

/// Renders the drill as a human-readable table.
pub fn render(report: &ChaosReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "chaos drill — seed {}, kill prob {:.2}, straggle prob {:.2}, {} partitions{}\n",
        report.seed,
        report.task_failure_prob,
        report.straggler_prob,
        report.partitions,
        if report.corruption { ", corruption armed" } else { "" },
    ));
    out.push_str(&format!(
        "{:<10} {:<6} {:>5} {:>6} {:>7} {:>7} {:>8} {:>6} {:>9} {:>7} {:>8} {:>9} {:>8}\n",
        "workload", "engine", "kills", "strag", "retries", "recomp", "restarts", "ckpts",
        "ckpt-B", "corrupt", "ckpt-rej", "spec-wins", "verified"
    ));
    for c in &report.cells {
        let r = &c.recovery;
        out.push_str(&format!(
            "{:<10} {:<6} {:>5} {:>6} {:>7} {:>7} {:>8} {:>6} {:>9} {:>7} {:>8} {:>9} {:>8}\n",
            c.workload,
            c.engine,
            r.injected_failures,
            r.injected_stragglers,
            r.task_retries,
            r.partitions_recomputed,
            r.region_restarts,
            r.checkpoints_taken,
            r.checkpoint_bytes,
            r.corruptions_detected,
            r.checkpoints_rejected,
            format!("{}/{}", r.speculative_wins, r.speculative_launched),
            c.verified,
        ));
    }
    let spark: Vec<&ChaosCell> = report.cells.iter().filter(|c| c.engine == "spark").collect();
    let flink: Vec<&ChaosCell> = report.cells.iter().filter(|c| c.engine == "flink").collect();
    let sum = |cs: &[&ChaosCell], f: fn(&RecoverySnapshot) -> u64| -> u64 {
        cs.iter().map(|c| f(&c.recovery)).sum()
    };
    out.push_str(&format!(
        "staged    engine recovered {} kill(s) by recomputing {} partition(s) from lineage; \
         {}/{} speculative backup(s) won\n",
        sum(&spark, |r| r.injected_failures),
        sum(&spark, |r| r.partitions_recomputed),
        sum(&spark, |r| r.speculative_wins),
        sum(&spark, |r| r.speculative_launched),
    ));
    out.push_str(&format!(
        "pipelined engine recovered {} kill(s) by {} region restart(s) from {} checkpoint(s)\n",
        sum(&flink, |r| r.injected_failures),
        sum(&flink, |r| r.region_restarts),
        sum(&flink, |r| r.checkpoints_taken),
    ));
    if report.corruption {
        let all: Vec<&ChaosCell> = report.cells.iter().collect();
        out.push_str(&format!(
            "integrity: {} batch(es) checksummed, {} corruption(s) detected, \
             {} recompute(s), {} checkpoint(s) rejected\n",
            sum(&all, |r| r.batches_checksummed),
            sum(&all, |r| r.corruptions_detected),
            sum(&all, |r| r.integrity_recomputes),
            sum(&all, |r| r.checkpoints_rejected),
        ));
    }
    out
}

// The drill itself is exercised (at tiny scale, every cell asserted) by the
// tier-1 integration test `tests/chaos_smoke.rs`.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_plans_are_independent_and_active() {
        let cfg = ChaosConfig::new(42);
        let a = cfg.plan(0, false);
        let b = cfg.plan(1, true);
        assert!(a.active() && b.active());
    }

    fn mock_cell(workload: &str, engine: &str, recovery: RecoverySnapshot) -> ChaosCell {
        ChaosCell {
            workload: workload.into(),
            engine: engine.into(),
            verified: true,
            batches_processed: 4,
            recovery,
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
        let report = ChaosReport {
            seed: 7,
            task_failure_prob: 0.05,
            straggler_prob: 0.02,
            partitions: 4,
            corruption: true,
            cells: vec![
                mock_cell("wordcount", "spark", recovered),
                mock_cell("wordcount", "flink", RecoverySnapshot::default()),
                // Grep's pipelined plan has no exchange: detection is still
                // required, a rejected checkpoint is not.
                mock_cell(
                    "grep",
                    "flink",
                    RecoverySnapshot {
                        corruptions_detected: 1,
                        ..Default::default()
                    },
                ),
                // Non-batch cells carry no integrity expectations at all.
                mock_cell("kmeans", "spark", RecoverySnapshot::default()),
            ],
        };
        let bad = integrity_violations(&report);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad[0].contains("wordcount-flink") && bad[0].contains("never detected"));
        assert!(bad[1].contains("wordcount-flink") && bad[1].contains("rotten checkpoint"));

        // The same counters pass when the drill never armed corruption,
        // but oracle divergence and an idle batch path always fail.
        let mut clean = report.clone();
        clean.corruption = false;
        assert!(integrity_violations(&clean).is_empty());
        clean.cells[0].verified = false;
        clean.cells[1].batches_processed = 0;
        assert_eq!(integrity_violations(&clean).len(), 2);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = ChaosReport {
            seed: 7,
            task_failure_prob: 0.05,
            straggler_prob: 0.02,
            partitions: 4,
            corruption: false,
            cells: vec![mock_cell(
                "wordcount",
                "spark",
                RecoverySnapshot {
                    injected_failures: 1,
                    task_retries: 1,
                    partitions_recomputed: 1,
                    ..Default::default()
                },
            )],
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: ChaosReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cells.len(), 1);
        assert_eq!(back.cells[0].recovery.partitions_recomputed, 1);
        assert!(render(&back).contains("wordcount"));

        // A drill artifact from before the integrity fields still loads.
        let legacy = json
            .replace("\"corruption\": false,\n", "")
            .replace("\"batches_processed\": 4,\n", "");
        let old: ChaosReport = serde_json::from_str(&legacy).unwrap();
        assert!(!old.corruption);
    }
}
