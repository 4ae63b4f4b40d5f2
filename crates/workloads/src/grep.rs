//! Grep (§III, §VI-B): "we use it to evaluate the filter transformation and
//! the count action."
//!
//! Both engines run `filter → count`, but their physical plans differ in
//! exactly the way Fig 6 shows: Spark fuses the filter and the count into
//! one stage; Flink 0.10's plan is `DataSource->Filter->FlatMap` feeding a
//! `DataSink` that materialises the matches before counting — "Flink's
//! current implementation of the filter → count operator is leading to
//! inefficient use of the resources in the latter phase."
//!
//! Both engines run the same batch path. The driver moves the caller's lines
//! into `DEFAULT_BATCH_ROWS`-line ranges ([`Partition::ranges`]), decodes
//! each range into a [`StrColumn`] and frees it before decoding the next, then
//! seals every batch. Map tasks verify their sealed batches and count matches
//! with the vectorized substring kernel; nothing is shuffled.

use flowmark_columnar::{kernels, StrColumn, DEFAULT_BATCH_ROWS};
use flowmark_core::config::Framework;
use flowmark_dataflow::operator::OperatorKind;
use flowmark_dataflow::plan::{CostAnnotation, LogicalPlan};
use flowmark_engine::faults::FaultPlan;
use flowmark_engine::flink::FlinkEnv;
use flowmark_engine::metrics::EngineMetrics;
use flowmark_engine::shuffle::{read_verified, seal_all, Partition, Sealed};
use flowmark_engine::spark::SparkContext;

use crate::costs::*;

/// Problem size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrepScale {
    /// Total input bytes.
    pub total_bytes: f64,
    /// Fraction of lines matching the needle.
    pub selectivity: f64,
}

impl GrepScale {
    /// The paper's setup: `gb_per_node` GB per node, a common search term.
    pub fn per_node(nodes: u32, gb_per_node: f64) -> Self {
        Self {
            total_bytes: nodes as f64 * gb_per_node * 1e9,
            selectivity: GREP_SELECTIVITY,
        }
    }
}

/// Builds the annotated simulator plan for one engine.
pub fn plan(fw: Framework, scale: &GrepScale) -> LogicalPlan {
    let lines = (scale.total_bytes / TEXT_LINE_BYTES) as u64;
    let mut p = LogicalPlan::new();
    let src = p.source(lines, TEXT_LINE_BYTES);
    let filter = p.unary(
        src,
        OperatorKind::Filter,
        CostAnnotation::new(scale.selectivity, GREP_FILTER_NS, TEXT_LINE_BYTES),
    );
    match fw {
        Framework::Spark => {
            // filter → count fused in one stage; only a count to the driver.
            p.unary(filter, OperatorKind::Count, CostAnnotation::new(1e-9, 50.0, 8.0));
        }
        Framework::Flink => {
            // The 0.10 plan materialises the matched lines through the
            // output machinery before the count is available (Fig 6).
            let fm = p.unary(
                filter,
                OperatorKind::FlatMap,
                CostAnnotation::new(1.0, 300.0, TEXT_LINE_BYTES),
            );
            p.unary(
                fm,
                OperatorKind::DataSink,
                CostAnnotation::new(1.0, 200.0, TEXT_LINE_BYTES),
            );
        }
    }
    p
}

/// Table I row: operators used by Grep.
pub fn operator_table(fw: Framework) -> Vec<OperatorKind> {
    use OperatorKind::*;
    match fw {
        Framework::Spark => vec![Filter, Count],
        Framework::Flink => vec![Filter, FlatMap, DataSink, Count],
    }
}

/// Counts matches in a run of *sealed* column batches with the vectorized
/// substring kernel: one flat scan over each batch's byte payload, zero
/// per-line `String` allocations or `&str` re-slicing in the hot loop.
/// Every batch's digest is re-verified before the kernel touches its bytes
/// — Grep has no exchange, so the sealed source read is its integrity
/// surface (a mismatch unwinds for the engine's recovery wrapper to
/// re-run this task against the clean bytes).
fn count_matches(
    cols: &[Sealed<StrColumn>],
    needle: &[u8],
    seed: u64,
    plan: &FaultPlan,
    metrics: &EngineMetrics,
) -> u64 {
    let mut hits = 0u64;
    for sealed in cols {
        let col = read_verified(sealed, seed, plan, metrics);
        let sel = kernels::filter_str_contains(col, needle, None, None);
        metrics.add_batches_processed(1);
        metrics.add_rows_selected(sel.len() as u64);
        hits += sel.len() as u64;
    }
    hits
}

/// Splits a line corpus into column batches and returns the row count the
/// source metric misses (sources count *elements*, and a batch element
/// carries many rows). Each `DEFAULT_BATCH_ROWS`-line range is freed right
/// after its batch is decoded, while its lines are still in cache; see
/// [`Partition::ranges`] for why that costs a fraction of freeing the whole
/// corpus at once.
fn batch_lines(lines: Vec<String>) -> (Vec<StrColumn>, u64) {
    let rows = lines.len();
    let batches: Vec<StrColumn> = Partition::ranges(lines, DEFAULT_BATCH_ROWS)
        .into_iter()
        .map(|range| StrColumn::from_lines(&range[..]))
        .collect();
    let extra = (rows - batches.len().min(rows)) as u64;
    (batches, extra)
}

/// Runs Grep on the staged engine: count of matching lines. The corpus is
/// packed into [`StrColumn`] batches and filtered by the vectorized
/// substring kernel.
pub fn run_spark(sc: &SparkContext, lines: Vec<String>, needle: &str, partitions: usize) -> u64 {
    let needle = needle.as_bytes().to_vec();
    let metrics = sc.metrics().clone();
    let plan = sc.faults().clone();
    let seed = plan.checksum_seed();
    let (batches, extra_rows) = batch_lines(lines);
    metrics.add_records_read(extra_rows);
    let sealed: Vec<Sealed<StrColumn>> = seal_all(batches, seed, &metrics);
    sc.parallelize(sealed, partitions)
        .map_partitions(move |cols| vec![count_matches(cols, &needle, seed, &plan, &metrics)])
        .collect()
        .into_iter()
        .sum()
}

/// Runs Grep on the pipelined engine, on the same vectorized batch path.
pub fn run_flink(env: &FlinkEnv, lines: Vec<String>, needle: &str) -> u64 {
    let needle = needle.as_bytes().to_vec();
    let metrics = env.metrics().clone();
    let plan = env.faults().clone();
    let seed = plan.checksum_seed();
    let (batches, extra_rows) = batch_lines(lines);
    metrics.add_records_read(extra_rows);
    let sealed: Vec<Sealed<StrColumn>> = seal_all(batches, seed, &metrics);
    env.from_collection(sealed)
        .map_partition(move |cols: Partition<Sealed<StrColumn>>| {
            vec![count_matches(&cols, &needle, seed, &plan, &metrics)]
        })
        .collect()
        .into_iter()
        .sum()
}

/// Sequential oracle.
pub fn oracle(lines: &[String], needle: &str) -> u64 {
    lines.iter().filter(|l| l.contains(needle)).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmark_datagen::text::{TextGen, TextGenConfig};

    #[test]
    fn both_engines_match_the_oracle() {
        let config = TextGenConfig {
            needle_selectivity: 0.05,
            ..TextGenConfig::default()
        };
        let needle = config.needle.clone();
        let lines = TextGen::new(config, 3).lines(3000);
        let expect = oracle(&lines, &needle);
        assert!(expect > 0, "corpus must contain matches");
        let sc = SparkContext::new(4);
        assert_eq!(run_spark(&sc, lines.clone(), &needle, 4), expect);
        let env = FlinkEnv::new(4);
        assert_eq!(run_flink(&env, lines, &needle), expect);
    }

    #[test]
    fn sealed_source_corruption_recovers_on_both_engines() {
        use flowmark_engine::faults::{install_quiet_hook, FaultConfig};
        use flowmark_engine::Setup;
        install_quiet_hook();
        let config = TextGenConfig {
            needle_selectivity: 0.05,
            ..TextGenConfig::default()
        };
        let needle = config.needle.clone();
        let lines = TextGen::new(config, 7).lines(3000);
        let expect = oracle(&lines, &needle);
        let plan = |seed| {
            FaultPlan::new(FaultConfig {
                seed,
                corrupt_first_n: 1,
                ..FaultConfig::default()
            })
        };

        let sc = Setup { faults: plan(41), ..Setup::new(4) }.spark();
        assert_eq!(run_spark(&sc, lines.clone(), &needle, 4), expect);
        let rec = sc.metrics().recovery();
        assert!(rec.corruptions_detected >= 1, "spark must detect the rot");
        assert!(rec.integrity_recomputes >= 1, "spark recovers by recompute");
        assert_eq!(rec.region_restarts, 0);

        let env = Setup { faults: plan(43), ..Setup::new(4) }.flink();
        assert_eq!(run_flink(&env, lines, &needle), expect);
        let rec = env.metrics().recovery();
        assert!(rec.corruptions_detected >= 1, "flink must detect the rot");
        assert!(rec.region_restarts >= 1, "flink recovers by region restart");
        assert_eq!(rec.partitions_recomputed, 0);
    }

    #[test]
    fn flink_plan_has_the_sink_phase_spark_does_not() {
        let scale = GrepScale::per_node(16, 24.0);
        let spark = plan(Framework::Spark, &scale);
        let flink = plan(Framework::Flink, &scale);
        assert!(spark.nodes().iter().all(|n| n.op != OperatorKind::DataSink));
        assert!(flink.nodes().iter().any(|n| n.op == OperatorKind::DataSink));
        assert!(spark.validate().is_ok() && flink.validate().is_ok());
    }

    #[test]
    fn selectivity_drives_flink_sink_volume() {
        let scale = GrepScale {
            total_bytes: 1e12,
            selectivity: 0.3,
        };
        let p = plan(Framework::Flink, &scale);
        let bytes = p.output_bytes();
        let sink_in = bytes[p.len() - 2]; // flatMap output feeding the sink
        assert!((sink_in - 0.3 * 1e12).abs() / sink_in < 1e-6);
    }
}
