//! The one runner behind the cell-shaped drills (`repro chaos`, `chaos
//! --corruption`, `chaos --streaming` and `stream`), and the gates the
//! service drills share.
//!
//! A drill is a grid: a list of (cell, engine, plan label, [`Setup`])
//! entries. [`run`] runs each entry's [`Cell`] on its engine and returns one
//! [`Row`] per entry, in grid order; a preset's gate is a plain function
//! over the rows. Every preset's scale lives in [`Scale`], and every plan
//! seed comes from [`cell_seed`].

use flowmark_core::config::Framework;
use flowmark_engine::faults::install_quiet_hook;
use flowmark_engine::{MetricsSnapshot, Setup};
use flowmark_serve::HealthSnapshot;
use flowmark_workloads::cell::{Cell, Sizes};
use serde::{Deserialize, Serialize};

use crate::stream::Latency;

/// One grid entry: a cell, the engine to run it on, the fault plan's
/// label and the setup that arms it.
pub type Entry<'a> = (&'a Cell, Framework, &'static str, Setup);

/// One drilled cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Cell id ([`Cell::name`]).
    pub cell: String,
    /// Engine id: `spark` (staged; micro-batch for a Nexmark cell) or
    /// `flink` (pipelined; continuous).
    pub engine: String,
    /// The fault plan's label, e.g. `chaos`, `corruption`, `clean`, `armed`.
    pub plan: String,
    /// True when the output matched the sequential oracle.
    pub verified: bool,
    /// Seconds the engine call took.
    pub wall_s: f64,
    /// The run's counters, recovery counters included.
    pub metrics: MetricsSnapshot,
}

impl Row {
    /// `cell-engine-plan`, as violations name the row.
    pub fn id(&self) -> String {
        format!("{}-{}-{}", self.cell, self.engine, self.plan)
    }
}

/// A grid drill's JSON artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Root seed every plan seed derives from.
    pub seed: u64,
    /// One row per grid entry, in grid order.
    pub rows: Vec<Row>,
    /// The §VIII latency grid (`repro stream` only); `default` keeps
    /// artifacts without it parseable.
    #[serde(default)]
    pub latency: Option<Latency>,
}

/// Every grid preset's scale, in one place.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// The six batch cells' input sizes.
    pub sizes: Sizes,
    /// Engine parallelism of the batch cells.
    pub partitions: usize,
    /// Nexmark events per query.
    pub events: usize,
    /// Task parallelism of the Nexmark cells.
    pub stream_parallelism: usize,
    /// Records between checkpoint barriers on the Nexmark cells.
    pub checkpoint_interval: u64,
}

impl Scale {
    /// Test scale (`--tiny`, `--smoke`): small inputs, still enough tasks
    /// and barriers for every guaranteed fault to land.
    pub fn small() -> Self {
        Self {
            sizes: Sizes {
                lines: 1_500,
                ts_records: 1_500,
                points: 2_000,
                edges: 1_200,
                rounds: 5,
            },
            partitions: 4,
            events: 2_000,
            stream_parallelism: 3,
            checkpoint_interval: 4,
        }
    }

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
            events: 10_000,
            stream_parallelism: 4,
            checkpoint_interval: 8,
        }
    }
}

/// Entry `i`'s fault-plan seed, so no two entries share injection
/// decisions and a drill replays bit-for-bit under its root seed.
pub fn cell_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9).wrapping_add(i)
}

/// True for the cells on the columnar batch path: the ones with sealed
/// shuffle and source bytes for the corruption preset to rot.
pub fn on_batch_path(cell: &str) -> bool {
    matches!(cell, "wordcount" | "grep" | "terasort")
}

/// Runs every entry in order, one row each.
pub fn run(grid: &[Entry<'_>]) -> Vec<Row> {
    install_quiet_hook();
    grid.iter()
        .map(|(cell, engine, plan, setup)| {
            let run = cell.run(*engine, setup);
            Row {
                cell: cell.name().into(),
                engine: engine.name().to_lowercase(),
                plan: (*plan).into(),
                verified: run.verdict.is_verified(),
                wall_s: run.elapsed.as_secs_f64(),
                metrics: run.metrics,
            }
        })
        .collect()
}

/// Reads one counter off a run.
type Counter = fn(&MetricsSnapshot) -> u64;

/// The table's counter columns.
const COLUMNS: [(&str, Counter); 13] = [
    ("kills", |m| m.recovery.injected_failures),
    ("strag", |m| m.recovery.injected_stragglers),
    ("retries", |m| m.recovery.task_retries),
    ("recomp", |m| m.recovery.partitions_recomputed),
    ("spec-won", |m| m.recovery.speculative_wins),
    ("restarts", |m| m.recovery.region_restarts),
    ("ckpts", |m| m.recovery.checkpoints_taken),
    ("ckpt-B", |m| m.recovery.checkpoint_bytes),
    ("corrupt", |m| m.recovery.corruptions_detected),
    ("ckpt-rej", |m| m.recovery.checkpoints_rejected),
    ("restored", |m| m.recovery.stream_checkpoints_restored),
    ("windows", |m| m.windows_emitted),
    ("lagged", |m| m.watermark_lag_events),
];

/// One line per row, then each engine's totals: what recovery did, the
/// streaming counters, wall time and verdict.
pub fn table(rows: &[Row]) -> String {
    let mut out = format!("{:<10} {:<6} {:<10}", "cell", "engine", "plan");
    for (name, _) in COLUMNS {
        out += &format!(" {name:>8}");
    }
    out += "  wall-ms verified\n";
    for row in rows {
        line(&mut out, [&row.cell, &row.engine, &row.plan], &[row]);
    }
    for engine in ["spark", "flink"] {
        let group: Vec<&Row> = rows.iter().filter(|r| r.engine == engine).collect();
        line(&mut out, ["total", engine, ""], &group);
    }
    out
}

/// Appends one table line: the labels, then every counter and the wall
/// time summed over `group`, and whether all of it verified.
fn line(out: &mut String, [cell, engine, plan]: [&str; 3], group: &[&Row]) {
    *out += &format!("{cell:<10} {engine:<6} {plan:<10}");
    for (_, counter) in COLUMNS {
        let total: u64 = group.iter().map(|r| counter(&r.metrics)).sum();
        *out += &format!(" {total:>8}");
    }
    let wall_ms: f64 = group.iter().map(|r| r.wall_s * 1e3).sum();
    let verified = group.iter().all(|r| r.verified);
    *out += &format!(" {wall_ms:>8.1} {verified:>8}\n");
}

/// The exit ledger every service drill checks: every admitted job
/// resolved and the memory budget drained back to zero.
pub fn ledger_violations(health: &HealthSnapshot) -> Vec<String> {
    let mut v = Vec::new();
    if !health.drained() {
        v.push(format!(
            "ledger does not balance: {} admitted vs {} resolved ({} queued, {} in flight)",
            health.jobs_admitted,
            health.jobs_completed
                + health.jobs_failed
                + health.jobs_timed_out
                + health.jobs_cancelled,
            health.queue_depth,
            health.in_flight,
        ));
    }
    if health.budget_in_use_bytes != 0 {
        v.push(format!(
            "memory budget not drained: {} B still reserved",
            health.budget_in_use_bytes
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_follow_the_grid_and_name_cell_engine_and_plan() {
        let sizes = Sizes {
            lines: 200,
            ts_records: 200,
            points: 200,
            edges: 200,
            rounds: 2,
        };
        let cell = Cell::generate(flowmark_workloads::Workload::Grep, &sizes);
        let grid: Vec<Entry<'_>> = Framework::BOTH
            .into_iter()
            .map(|engine| (&cell, engine, "clean", Setup::new(2)))
            .collect();
        let rows = run(&grid);
        let ids: Vec<String> = rows.iter().map(Row::id).collect();
        assert_eq!(ids, ["grep-spark-clean", "grep-flink-clean"]);
        assert!(rows
            .iter()
            .all(|r| r.verified && r.metrics.records_read == 200));
        assert!(table(&rows).contains("grep"));
    }
}
