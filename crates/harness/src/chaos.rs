//! `repro chaos`: a seeded fault-injection drill over all six workloads on
//! both engines.
//!
//! Every workload/engine cell runs under a fresh deterministic
//! [`FaultPlan`] that guarantees at least one task kill and at least one
//! straggler (plus background failure probability), then the output is
//! checked against the sequential oracle. A cell passes only if recovery —
//! lineage re-execution and speculation on the staged engine,
//! checkpoint restart on the pipelined engine — reproduced the fault-free
//! answer exactly. The per-cell recovery counters are the paper-facing
//! artifact: they show *which* mechanism each engine used to survive.

use flowmark_datagen::graph::{RmatGen, RmatParams};
use flowmark_datagen::points::{Point, PointsConfig, PointsGen};
use flowmark_datagen::terasort::TeraGen;
use flowmark_datagen::text::{TextGen, TextGenConfig};
use flowmark_engine::flink::FlinkEnv;
use flowmark_engine::metrics::RecoverySnapshot;
use flowmark_engine::spark::SparkContext;
use flowmark_engine::{FaultConfig, FaultPlan};
use flowmark_workloads::connected::{self, CcVariant};
use flowmark_workloads::{grep, kmeans, pagerank, terasort, wordcount};
use serde::{Deserialize, Serialize};

/// Fixed dataset seeds, shared with the tuning workbench and the soak drill.
const WC_SEED: u64 = 7;
const GREP_SEED: u64 = 3;
const TS_SEED: u64 = 11;
const KM_SEED: u64 = 5;
const PR_SEED: u64 = 21;
const CC_SEED: u64 = 33;

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
    /// Word Count / Grep corpus lines.
    pub lines: usize,
    /// TeraSort records.
    pub ts_records: usize,
    /// K-Means points.
    pub points: usize,
    /// Page Rank / Connected Components edges.
    pub edges: usize,
    /// Iterations for the iterative workloads.
    pub rounds: u32,
    /// Engine parallelism.
    pub partitions: usize,
}

impl ChaosScale {
    /// CLI scale.
    pub fn full() -> Self {
        Self {
            lines: 30_000,
            ts_records: 30_000,
            points: 20_000,
            edges: 8_000,
            rounds: 8,
            partitions: 8,
        }
    }

    /// Test scale: small datasets, few rounds, still enough tasks per cell
    /// for the guaranteed kill and straggler to land.
    pub fn tiny() -> Self {
        Self {
            lines: 1_500,
            ts_records: 1_500,
            points: 2_000,
            edges: 1_200,
            rounds: 5,
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

fn cell(
    workload: &str,
    engine: &str,
    verified: bool,
    metrics: &flowmark_engine::metrics::EngineMetrics,
) -> ChaosCell {
    ChaosCell {
        workload: workload.into(),
        engine: engine.into(),
        verified,
        batches_processed: metrics.snapshot().batches_processed,
        recovery: metrics.recovery(),
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + b.abs())
}

/// Runs the drill: each workload once per engine under a fresh fault plan,
/// every cell verified against the sequential oracle.
pub fn run_chaos(config: ChaosConfig, scale: ChaosScale) -> ChaosReport {
    let parts = scale.partitions;
    let mut cells = Vec::new();
    let mut next_cell = 0u64;
    // `batch` marks cells on the columnar batch path — the only ones the
    // corruption preset can reach (the others have nothing sealed to rot).
    let mut plan = |batch: bool| {
        let p = config.plan(next_cell, batch);
        next_cell += 1;
        p
    };

    // --- Word Count -------------------------------------------------------
    let wc_lines = TextGen::new(TextGenConfig::default(), WC_SEED).lines(scale.lines);
    let wc_expect = wordcount::oracle(&wc_lines);
    {
        let sc = SparkContext::with_faults(parts, 256 << 20, plan(true));
        let out = wordcount::run_spark(&sc, wc_lines.clone(), parts);
        cells.push(cell("wordcount", "spark", out == wc_expect, sc.metrics()));
    }
    {
        let env = FlinkEnv::with_faults(parts, plan(true));
        let out = wordcount::run_flink(&env, wc_lines.clone());
        cells.push(cell("wordcount", "flink", out == wc_expect, env.metrics()));
    }

    // --- Grep -------------------------------------------------------------
    let grep_config = TextGenConfig {
        needle_selectivity: 0.05,
        ..TextGenConfig::default()
    };
    let needle = grep_config.needle.clone();
    let grep_lines = TextGen::new(grep_config, GREP_SEED).lines(scale.lines);
    let grep_expect = grep::oracle(&grep_lines, &needle);
    {
        let sc = SparkContext::with_faults(parts, 256 << 20, plan(true));
        let out = grep::run_spark(&sc, grep_lines.clone(), &needle, parts);
        cells.push(cell("grep", "spark", out == grep_expect, sc.metrics()));
    }
    {
        let env = FlinkEnv::with_faults(parts, plan(true));
        let out = grep::run_flink(&env, grep_lines.clone(), &needle);
        cells.push(cell("grep", "flink", out == grep_expect, env.metrics()));
    }

    // --- TeraSort ---------------------------------------------------------
    let ts_records = TeraGen::new(TS_SEED).records(scale.ts_records);
    let ts_expect: Vec<Vec<u8>> = terasort::oracle(ts_records.clone())
        .iter()
        .map(|r| r.key().to_vec())
        .collect();
    let ts_ok = |out: &[Vec<flowmark_datagen::terasort::Record>]| {
        terasort::validate_output(ts_records.len(), out).is_ok()
            && out
                .iter()
                .flatten()
                .map(|r| r.key().to_vec())
                .eq(ts_expect.iter().cloned())
    };
    {
        let sc = SparkContext::with_faults(parts, 256 << 20, plan(true));
        let out = terasort::run_spark(&sc, ts_records.clone(), parts);
        cells.push(cell("terasort", "spark", ts_ok(&out), sc.metrics()));
    }
    {
        let env = FlinkEnv::with_faults(parts, plan(true));
        let out = terasort::run_flink(&env, ts_records.clone(), parts);
        cells.push(cell("terasort", "flink", ts_ok(&out), env.metrics()));
    }

    // --- K-Means ----------------------------------------------------------
    let mut km_gen = PointsGen::new(
        PointsConfig {
            clusters: 4,
            box_half_width: 100.0,
            sigma: 3.0,
        },
        KM_SEED,
    );
    let km_init: Vec<Point> = km_gen
        .true_centers()
        .iter()
        .map(|c| Point {
            x: c.x + 10.0,
            y: c.y - 8.0,
        })
        .collect();
    let km_points = km_gen.points(scale.points);
    let km_expect = kmeans::oracle(&km_points, km_init.clone(), scale.rounds);
    let km_ok = |out: &[Point]| {
        out.len() == km_expect.len()
            && out
                .iter()
                .zip(&km_expect)
                .all(|(p, q)| close(p.x, q.x) && close(p.y, q.y))
    };
    {
        let sc = SparkContext::with_faults(parts, 256 << 20, plan(false));
        let out = kmeans::run_spark(&sc, km_points.clone(), km_init.clone(), scale.rounds, parts);
        cells.push(cell("kmeans", "spark", km_ok(&out), sc.metrics()));
    }
    {
        let env = FlinkEnv::with_faults(parts, plan(false));
        let out = kmeans::run_flink(&env, km_points.clone(), km_init.clone(), scale.rounds);
        cells.push(cell("kmeans", "flink", km_ok(&out), env.metrics()));
    }

    // --- Page Rank --------------------------------------------------------
    let mut pr_edges = RmatGen::new(9, RmatParams::default(), PR_SEED).edges(scale.edges);
    pr_edges.dedup();
    let pr_expect = pagerank::oracle(&pr_edges, scale.rounds);
    let pr_ok = |out: &std::collections::HashMap<u64, f64>| {
        out.len() == pr_expect.len()
            && out
                .iter()
                .all(|(v, r)| close(*r, pr_expect.get(v).copied().unwrap_or(f64::NAN)))
    };
    {
        let sc = SparkContext::with_faults(parts, 256 << 20, plan(false));
        let out = pagerank::run_spark(&sc, &pr_edges, scale.rounds, parts);
        cells.push(cell("pagerank", "spark", pr_ok(&out), sc.metrics()));
    }
    {
        let env = FlinkEnv::with_faults(parts, plan(false));
        let verified = match pagerank::run_flink(&env, &pr_edges, scale.rounds, parts) {
            Ok(out) => pr_ok(&out),
            Err(_) => false,
        };
        cells.push(cell("pagerank", "flink", verified, env.metrics()));
    }

    // --- Connected Components ---------------------------------------------
    let cc_edges = RmatGen::new(8, RmatParams::default(), CC_SEED).edges(scale.edges);
    let cc_expect = connected::oracle(&cc_edges);
    {
        let sc = SparkContext::with_faults(parts, 256 << 20, plan(false));
        let out = connected::run_spark(&sc, &cc_edges, 200, parts);
        cells.push(cell("connected", "spark", out == cc_expect, sc.metrics()));
    }
    {
        // Delta variant: exercises the vertex-centric solution-set
        // snapshot/restore path.
        let env = FlinkEnv::with_faults(parts, plan(false));
        let verified =
            match connected::run_flink(&env, &cc_edges, 200, parts, CcVariant::Delta, None) {
                Ok(out) => out == cc_expect,
                Err(_) => false,
            };
        cells.push(cell("connected", "flink", verified, env.metrics()));
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
