//! Word Count (§III, §VI-A): "a good fit for evaluating the aggregation
//! component in each framework, since both Spark and Flink use a map side
//! combiner to reduce the intermediate data."
//!
//! - Flink: `flatMap → groupBy → sum → writeAsText`
//! - Spark: `flatMap → mapToPair → reduceByKey → saveAsTextFile`
//!
//! Both engines run the same batch path. Each map task reads its ranges of
//! the caller's lines in place and tokenizes them straight into one
//! [`WordDict`] (`kernels::tokenize_count`), which is the map-side
//! combiner. The dictionary then routes its counts by the hash it already
//! holds. The routed [`StrU64Batch`]es are sealed, exchanged, verified, and
//! hash-merged per reducer.

use std::collections::HashMap;

use flowmark_columnar::{kernels, StrU64Batch, WordDict, DEFAULT_BATCH_ROWS};
use flowmark_core::config::Framework;
use flowmark_dataflow::operator::OperatorKind;
use flowmark_dataflow::plan::{CostAnnotation, LogicalPlan};
use flowmark_engine::flink::FlinkEnv;
use flowmark_engine::hash::{fx_map_with_capacity, FxHashMap};
use flowmark_engine::metrics::EngineMetrics;
use flowmark_engine::shuffle::Partition;
use flowmark_engine::spark::SparkContext;

use crate::costs::*;

/// Problem size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WordCountScale {
    /// Total input bytes across the cluster.
    pub total_bytes: f64,
}

impl WordCountScale {
    /// The paper's weak-scaling setup: `gb_per_node` GB on each node.
    pub fn per_node(nodes: u32, gb_per_node: f64) -> Self {
        Self {
            total_bytes: nodes as f64 * gb_per_node * 1e9,
        }
    }
}

/// Builds the annotated simulator plan for one engine.
pub fn plan(fw: Framework, scale: &WordCountScale) -> LogicalPlan {
    let lines = (scale.total_bytes / TEXT_LINE_BYTES) as u64;
    let words = lines as f64 * WORDS_PER_LINE;
    let reduce_sel = (VOCABULARY / words).min(1.0);
    let mut p = LogicalPlan::new();
    let src = p.source(lines, TEXT_LINE_BYTES);
    match fw {
        Framework::Spark => {
            let fm = p.unary(
                src,
                OperatorKind::FlatMap,
                CostAnnotation::new(WORDS_PER_LINE, WC_FLATMAP_NS, TEXT_LINE_BYTES / WORDS_PER_LINE),
            );
            let mtp = p.unary(
                fm,
                OperatorKind::MapToPair,
                CostAnnotation::new(1.0, 50.0, WORD_PAIR_BYTES),
            );
            let rbk = p.unary(
                mtp,
                OperatorKind::ReduceByKey,
                CostAnnotation::new(reduce_sel, WC_REDUCE_NS, WORD_PAIR_BYTES),
            );
            p.unary(
                rbk,
                OperatorKind::DataSink,
                CostAnnotation::new(1.0, 200.0, WORD_PAIR_BYTES),
            );
        }
        Framework::Flink => {
            // Flink's flatMap emits the pairs directly.
            let fm = p.unary(
                src,
                OperatorKind::FlatMap,
                CostAnnotation::new(WORDS_PER_LINE, WC_FLATMAP_NS, WORD_PAIR_BYTES),
            );
            let gr = p.unary(
                fm,
                OperatorKind::GroupReduce,
                CostAnnotation::new(reduce_sel, WC_REDUCE_NS, WORD_PAIR_BYTES),
            );
            p.unary(
                gr,
                OperatorKind::DataSink,
                CostAnnotation::new(1.0, 200.0, WORD_PAIR_BYTES),
            );
        }
    }
    p
}

/// Table I row: operators used by Word Count.
pub fn operator_table(fw: Framework) -> Vec<OperatorKind> {
    use OperatorKind::*;
    match fw {
        Framework::Spark => vec![FlatMap, MapToPair, ReduceByKey, DataSink],
        Framework::Flink => vec![FlatMap, GroupReduce, DataSink],
    }
}

/// The map half of the batch-granularity shuffle: tokenizes one task's line
/// ranges in place into one [`WordDict`] (the map-side combiner), then
/// routes the counts into per-reducer [`StrU64Batch`]es tagged with their
/// target partition. A word's route is its dictionary hash modulo the
/// reducer count — FxHash of the word, as on every other string shuffle.
fn count_ranges(
    ranges: &[Partition<String>],
    out_parts: usize,
    metrics: &EngineMetrics,
) -> Vec<(usize, StrU64Batch)> {
    let mut dict = WordDict::new();
    for range in ranges {
        kernels::tokenize_count(range.iter().map(String::as_str), &mut dict);
        metrics.add_batches_processed(1);
        metrics.add_rows_selected(range.len() as u64);
    }
    dict.route(out_parts)
        .into_iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .collect()
}

/// Merges one reducer's routed batches with the batch-at-a-time hash-agg
/// kernel (a `String` is allocated only the first time a key is seen).
fn merge_batches(batches: &[StrU64Batch], metrics: &EngineMetrics) -> FxHashMap<String, u64> {
    let total: usize = batches.iter().map(StrU64Batch::len).sum();
    let mut agg: FxHashMap<String, u64> = fx_map_with_capacity(total);
    for b in batches {
        b.merge_into(&mut agg, |a, v| *a += v);
    }
    metrics.add_rows_selected(total as u64);
    agg
}

/// Cuts the corpus into `DEFAULT_BATCH_ROWS`-line ranges — the source
/// elements both engines split among map tasks, so every task sees the
/// batches it always saw — plus the row count the source metric misses
/// (sources count elements, not the rows inside). The lines move into the
/// ranges without a copy, and the ranges keep them alive for lineage
/// recompute. Each range owns its lines, so the job frees its input one
/// batch at a time (see [`Partition::ranges`]).
fn line_ranges(lines: Vec<String>) -> (Vec<Partition<String>>, u64) {
    let rows = lines.len();
    let ranges = Partition::ranges(lines, DEFAULT_BATCH_ROWS);
    let extra = (rows - ranges.len().min(rows)) as u64;
    (ranges, extra)
}

/// Runs Word Count on the staged engine: tokenize-and-count into a word
/// dictionary per map task, then a batch-granularity shuffle whose
/// reduce-side merge runs inside the shuffle materialisation.
pub fn run_spark(sc: &SparkContext, lines: Vec<String>, partitions: usize) -> HashMap<String, u64> {
    let metrics = sc.metrics().clone();
    let merge_metrics = sc.metrics().clone();
    let (ranges, extra_rows) = line_ranges(lines);
    metrics.add_records_read(extra_rows);
    sc.parallelize(ranges, partitions)
        .map_partitions(move |ranges| count_ranges(ranges, partitions, &metrics))
        .exchange_by_index_with(partitions, move |bs| {
            vec![StrU64Batch::from_pairs(merge_batches(&bs, &merge_metrics))]
        })
        .collect()
        .into_iter()
        .flat_map(|b| b.iter().map(|(k, v)| (k.to_owned(), v)).collect::<Vec<_>>())
        .collect()
}

/// Runs Word Count on the pipelined engine, on the same batch path (whole
/// routed batches stream through the bounded channels).
pub fn run_flink(env: &FlinkEnv, lines: Vec<String>) -> HashMap<String, u64> {
    let metrics = env.metrics().clone();
    let merge_metrics = env.metrics().clone();
    let out_parts = env.parallelism();
    let (ranges, extra_rows) = line_ranges(lines);
    metrics.add_records_read(extra_rows);
    env.from_collection(ranges)
        .map_partition(move |ranges: Partition<Partition<String>>| {
            count_ranges(&ranges, out_parts, &metrics)
        })
        .exchange_by_index(out_parts)
        .map_partition(move |bs: Partition<StrU64Batch>| {
            merge_batches(&bs, &merge_metrics).into_iter().collect::<Vec<_>>()
        })
        .collect()
        .into_iter()
        .collect()
}

/// Sequential oracle.
pub fn oracle(lines: &[String]) -> HashMap<String, u64> {
    let mut m = HashMap::new();
    for line in lines {
        for w in line.split_whitespace() {
            match m.get_mut(w) {
                Some(c) => *c += 1,
                None => {
                    m.insert(w.to_owned(), 1);
                }
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmark_datagen::text::{TextGen, TextGenConfig};

    fn corpus(n: usize) -> Vec<String> {
        TextGen::new(TextGenConfig::default(), 7).lines(n)
    }

    #[test]
    fn both_engines_match_the_oracle() {
        let lines = corpus(2000);
        let expect = oracle(&lines);
        let sc = SparkContext::new(4);
        let spark = run_spark(&sc, lines.clone(), 4);
        assert_eq!(spark, expect);
        let env = FlinkEnv::new(4);
        let flink = run_flink(&env, lines);
        assert_eq!(flink, expect);
    }

    #[test]
    fn plans_validate_for_both_frameworks() {
        let scale = WordCountScale::per_node(8, 24.0);
        for fw in Framework::BOTH {
            let p = plan(fw, &scale);
            assert!(p.validate().is_ok(), "{fw}");
        }
    }

    #[test]
    fn operator_table_matches_table_i() {
        use OperatorKind::*;
        let spark = operator_table(Framework::Spark);
        assert!(spark.contains(&MapToPair) && spark.contains(&ReduceByKey));
        assert!(!spark.contains(&GroupReduce));
        let flink = operator_table(Framework::Flink);
        assert!(flink.contains(&GroupReduce));
        assert!(!flink.contains(&ReduceByKey) && !flink.contains(&MapToPair));
        // Common operators appear in both.
        assert!(spark.contains(&FlatMap) && flink.contains(&FlatMap));
    }

    #[test]
    fn scale_accounting() {
        let s = WordCountScale::per_node(32, 24.0);
        assert!((s.total_bytes - 768e9).abs() < 1.0);
        let p = plan(Framework::Flink, &s);
        let cards = p.cardinalities();
        // flatMap output = lines × 10.
        assert!((cards[1] - 768e9 / 80.0 * 10.0).abs() / cards[1] < 1e-9);
    }
}
