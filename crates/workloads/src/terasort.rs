//! Tera Sort (§III, §VI-C): "a sorting algorithm suitable for measuring the
//! I/O and the communication performance of the two engines", on 100-byte
//! records with 10-byte keys and a shared Hadoop-style range partitioner.
//!
//! - Spark: `newAPIHadoopFile → repartitionAndSortWithinPartitions → save`
//! - Flink: `map (OptimizedText) → partitionCustom → sortPartition → save`

use flowmark_core::config::Framework;
use flowmark_dataflow::operator::OperatorKind;
use flowmark_dataflow::partitioner::RangePartitioner;
use flowmark_dataflow::plan::{CostAnnotation, ExchangeMode, LogicalPlan};
use flowmark_datagen::terasort::{sample_split_points, Record, KEY_BYTES, RECORD_BYTES};
use flowmark_engine::flink::FlinkEnv;
use flowmark_engine::memory::BufferPool;
use flowmark_engine::shuffle::Partition;
use flowmark_engine::spark::SparkContext;

use crate::costs::*;

/// Problem size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TeraSortScale {
    /// Total bytes to sort.
    pub total_bytes: f64,
}

impl TeraSortScale {
    /// Fixed data per node (Fig 7).
    pub fn per_node(nodes: u32, gb_per_node: f64) -> Self {
        Self {
            total_bytes: nodes as f64 * gb_per_node * 1e9,
        }
    }

    /// Fixed total dataset (Fig 8: 3.5 TB).
    pub fn total_tb(tb: f64) -> Self {
        Self {
            total_bytes: tb * 1e12,
        }
    }
}

/// Builds the annotated simulator plan for one engine.
pub fn plan(fw: Framework, scale: &TeraSortScale) -> LogicalPlan {
    let records = (scale.total_bytes / TS_RECORD_BYTES) as u64;
    let mut p = LogicalPlan::new();
    let src = p.source(records, TS_RECORD_BYTES);
    match fw {
        Framework::Spark => {
            let rs = p.unary_via(
                src,
                ExchangeMode::RangeShuffle,
                OperatorKind::RepartitionAndSort,
                CostAnnotation::new(1.0, TS_MAP_NS + TS_SORT_NS, TS_RECORD_BYTES),
            );
            p.unary(
                rs,
                OperatorKind::DataSink,
                CostAnnotation::new(1.0, 200.0, TS_RECORD_BYTES),
            );
        }
        Framework::Flink => {
            let map = p.unary(
                src,
                OperatorKind::Map,
                CostAnnotation::new(1.0, TS_MAP_NS, TS_RECORD_BYTES),
            );
            let part = p.unary_via(
                map,
                ExchangeMode::RangeShuffle,
                OperatorKind::PartitionCustom,
                CostAnnotation::new(1.0, 200.0, TS_RECORD_BYTES),
            );
            let sort = p.unary(
                part,
                OperatorKind::SortPartition,
                CostAnnotation::new(1.0, TS_SORT_NS, TS_RECORD_BYTES),
            );
            p.unary(
                sort,
                OperatorKind::DataSink,
                CostAnnotation::new(1.0, 200.0, TS_RECORD_BYTES),
            );
        }
    }
    p
}

/// Table I row.
pub fn operator_table(fw: Framework) -> Vec<OperatorKind> {
    use OperatorKind::*;
    match fw {
        Framework::Spark => vec![RepartitionAndSort, DataSink],
        Framework::Flink => vec![Map, PartitionCustom, SortPartition, DataSink],
    }
}

/// Idle bytes the route-bucket pool may hold. Every record of a job sits in
/// exactly one route bucket, so between two jobs the idle buckets add up to
/// one job's input: 40 MB at the benchmark's scale (400 k × 100 B). 64 MiB
/// holds that with room for buckets that outgrew their predecessors; a
/// larger job recycles what fits and allocates the rest, as every job did
/// before the pool existed.
const ROUTE_POOL_IDLE_BYTES: usize = 64 << 20;

/// Route buckets, recycled across jobs and contexts (a caller such as the
/// benchmark builds a fresh context per job): in steady state the only
/// pages a job touches for the first time are its output's.
static ROUTE_POOL: BufferPool<Record> = BufferPool::with_idle_bytes(ROUTE_POOL_IDLE_BYTES);

/// The reducers' key-prefix columns: 8 bytes for each record the route
/// pool can hold.
static PREFIX_POOL: BufferPool<u64> =
    BufferPool::with_idle_bytes(ROUTE_POOL_IDLE_BYTES / RECORD_BYTES * 8);

/// Takes a pooled buffer for `rows` elements (none for no rows). Capacities
/// are rounded up to a power of two: buffers of near-equal size then serve
/// one another's requests, instead of every new size adding one more buffer
/// to the pool. The slack is never touched.
fn take_pooled<T>(pool: &BufferPool<T>, rows: usize) -> Vec<T> {
    match rows {
        0 => Vec::new(),
        rows => pool.take(rows.next_power_of_two()),
    }
}

/// Returns a buffer to the pool it was taken from — and only such a one. A
/// batch served from the fragment cache is an exactly-sized copy that no
/// later [`take_pooled`] asks for, and pooling those fills the idle bound
/// with buffers nobody takes.
fn put_pooled<T>(pool: &BufferPool<T>, buf: Vec<T>) {
    if buf.capacity().is_power_of_two() {
        pool.put(buf);
    }
}

/// Partition index for one record under the shared range partitioner.
fn range_part(partitioner: &KeyRange, r: &Record) -> usize {
    use flowmark_dataflow::partitioner::Partitioner;
    let mut k = [0u8; KEY_BYTES];
    k.copy_from_slice(r.key());
    partitioner.partition(&k)
}

/// Routes one map task's range of the input into per-reducer batches
/// tagged with their target partition — the first of the two times a
/// record is written: one counting pass sizes every bucket, the buckets
/// come from [`ROUTE_POOL`], and each record is copied into its bucket
/// once.
fn route(rows: &[Record], partitioner: &KeyRange) -> Vec<(usize, Vec<Record>)> {
    use flowmark_dataflow::partitioner::Partitioner;
    let mut counts = vec![0usize; partitioner.partitions()];
    for r in rows {
        counts[range_part(partitioner, r)] += 1;
    }
    let mut buckets: Vec<Vec<Record>> =
        counts.iter().map(|&c| take_pooled(&ROUTE_POOL, c)).collect();
    for r in rows {
        buckets[range_part(partitioner, r)].push(r.clone());
    }
    buckets
        .into_iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .collect()
}

/// First 4 key bytes as a big-endian integer: 4 radix passes order the
/// records by their 32-bit prefix (the upper 4 bytes of the `u64` are
/// zero, so the histogram pre-pass skips them), and 32-bit collisions are
/// rare enough at per-reducer scale that the comparison tie-break on the
/// key tail costs almost nothing.
#[inline]
fn key_prefix(r: &Record) -> u64 {
    u32::from_be_bytes(r.key()[..4].try_into().expect("keys have 10 bytes")) as u64
}

/// Sorts a reducer's routed batches by key through the columnar radix path
/// without concatenating them (the reduce half; it only ever sees batches
/// that passed verification): one pass extracts a flat `u64` prefix column
/// over the batches in order, [`flowmark_columnar::kernels::radix_sort_u64`]
/// produces the permutation of that column without touching the 100-byte
/// payloads, runs of equal prefixes tie-break on the key tail read through
/// the same index, and a single gather writes each record into the
/// exactly-sized output — the second and last time it is written. The
/// spent buckets and the prefix column go back to their pools.
fn merge_sort_batches(
    batches: Vec<Vec<Record>>,
    metrics: &flowmark_engine::metrics::EngineMetrics,
) -> Vec<Record> {
    // Row `g` of the prefix column is row `g - starts[b]` of the last
    // batch `b` that starts at or before it.
    let mut starts = Vec::with_capacity(batches.len());
    let mut total = 0;
    for b in &batches {
        starts.push(total);
        total += b.len();
    }
    let row = |g: u32| {
        let g = g as usize;
        let b = starts.partition_point(|&s| s <= g) - 1;
        &batches[b][g - starts[b]]
    };
    let mut keys = take_pooled(&PREFIX_POOL, total);
    keys.extend(batches.iter().flatten().map(key_prefix));
    let mut perm = flowmark_columnar::kernels::radix_sort_u64(&keys);
    // Records agreeing on the 32-bit prefix (rare for random printable
    // keys, common in adversarial inputs) still need the remaining key
    // bytes compared.
    let mut i = 0;
    while i < perm.len() {
        let prefix = keys[perm[i] as usize];
        let mut j = i + 1;
        while j < perm.len() && keys[perm[j] as usize] == prefix {
            j += 1;
        }
        if j - i > 1 {
            perm[i..j].sort_unstable_by(|&a, &b| row(a).key()[4..].cmp(&row(b).key()[4..]));
        }
        i = j;
    }
    metrics.add_radix_sort_runs(1);
    let mut sorted = Vec::with_capacity(total);
    sorted.extend(perm.iter().map(|&g| row(g).clone()));
    put_pooled(&PREFIX_POOL, keys);
    batches.into_iter().for_each(|b| put_pooled(&ROUTE_POOL, b));
    sorted
}

/// Runs TeraSort on the staged engine; returns the per-partition sorted
/// output (concatenation is globally sorted). Each map task routes its
/// range of `records` into batches that cross the shuffle whole; the
/// per-partition sort runs inside the shuffle materialisation and its
/// output is handed back as it stands.
pub fn run_spark(
    sc: &SparkContext,
    records: Vec<Record>,
    partitions: usize,
) -> Vec<Vec<Record>> {
    use flowmark_dataflow::partitioner::Partitioner;
    let splits = sample_split_points(&records, partitions, 10_000);
    let partitioner = std::sync::Arc::new(KeyRange::new(splits));
    let out_parts = partitioner.partitions();
    let metrics = sc.metrics().clone();
    sc.parallelize(records, partitions)
        .map_partitions(move |rows| route(rows, &partitioner))
        .exchange_by_index_with(out_parts, move |bs| vec![merge_sort_batches(bs, &metrics)])
        .collect_partitions()
        .into_iter()
        .map(|mut sorted| sorted.pop().expect("the reduce emits one batch per partition"))
        .collect()
}

/// Runs TeraSort on the pipelined engine: whole routed batches stream
/// through the bounded channels (one send per batch), then each partition
/// sorts locally.
pub fn run_flink(env: &FlinkEnv, records: Vec<Record>, partitions: usize) -> Vec<Vec<Record>> {
    use flowmark_dataflow::partitioner::Partitioner;
    let splits = sample_split_points(&records, partitions, 10_000);
    let partitioner = std::sync::Arc::new(KeyRange::new(splits));
    let out_parts = partitioner.partitions();
    let metrics = env.metrics().clone();
    env.from_collection(records)
        .map_partition(move |rows: Partition<Record>| route(&rows, &partitioner))
        .exchange_by_index(out_parts)
        .map_partition(move |bs: Partition<Vec<Record>>| {
            merge_sort_batches(bs.into_vec(), &metrics)
        })
        .collect_partitions()
}

/// Sequential oracle: fully sorted records.
pub fn oracle(mut records: Vec<Record>) -> Vec<Record> {
    records.sort();
    records
}

/// Checks the output's shape only: `input_len` records in total, keys
/// non-decreasing across partitions. Contents are unchecked; see [`oracle`].
pub fn validate_output(input_len: usize, output: &[Vec<Record>]) -> Result<(), String> {
    let total: usize = output.iter().map(Vec::len).sum();
    if total != input_len {
        return Err(format!("record count changed: {input_len} → {total}"));
    }
    let mut last_key: Option<Vec<u8>> = None;
    for (i, part) in output.iter().enumerate() {
        for r in part {
            if let Some(prev) = &last_key {
                if prev.as_slice() > r.key() {
                    return Err(format!("order violated at partition {i}"));
                }
            }
            last_key = Some(r.key().to_vec());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmark_datagen::terasort::TeraGen;

    #[test]
    fn both_engines_produce_globally_sorted_output() {
        let records = TeraGen::new(11).records(5000);
        let expect = oracle(records.clone());

        let sc = SparkContext::new(4);
        let spark = run_spark(&sc, records.clone(), 8);
        validate_output(records.len(), &spark).unwrap();
        let spark_flat: Vec<Record> = spark.into_iter().flatten().collect();
        assert_eq!(
            spark_flat.iter().map(|r| r.key().to_vec()).collect::<Vec<_>>(),
            expect.iter().map(|r| r.key().to_vec()).collect::<Vec<_>>()
        );

        let env = FlinkEnv::new(4);
        let flink = run_flink(&env, records.clone(), 8);
        validate_output(records.len(), &flink).unwrap();
        let flink_flat: Vec<Record> = flink.into_iter().flatten().collect();
        assert_eq!(
            flink_flat.iter().map(|r| r.key().to_vec()).collect::<Vec<_>>(),
            expect.iter().map(|r| r.key().to_vec()).collect::<Vec<_>>()
        );
    }

    /// Both engines' reduce sides sort through the radix kernel and return
    /// the oracle's whole records in the oracle's order.
    #[test]
    fn radix_merge_counts_runs_and_matches_the_record_adapters() {
        let records = TeraGen::new(29).records(3000);
        let expect = oracle(records.clone());

        let sc = SparkContext::new(4);
        let spark: Vec<Record> = run_spark(&sc, records.clone(), 4).into_iter().flatten().collect();
        assert!(spark == expect, "staged output differs from the oracle");
        assert!(
            sc.metrics().radix_sort_runs() > 0,
            "staged reduce must sort through the radix kernel"
        );

        let env = FlinkEnv::new(4);
        let flink: Vec<Record> = run_flink(&env, records, 4).into_iter().flatten().collect();
        assert!(flink == expect, "pipelined output differs from the oracle");
        assert!(
            env.metrics().radix_sort_runs() > 0,
            "pipelined reduce must sort through the radix kernel"
        );
    }

    #[test]
    fn radix_merge_tie_breaks_equal_prefixes_on_the_key_tail() {
        // Adversarial keys: all records share the first 8 key bytes, so
        // every radix pass is trivial and ordering rests entirely on the
        // 2-byte tail comparison.
        let mut records: Vec<Record> = (0..100u8)
            .rev()
            .map(|i| {
                let mut bytes = [b'A'; 100];
                bytes[8] = b' ' + (i % 20);
                bytes[9] = b' ' + (i / 20);
                Record(bytes)
            })
            .collect();
        records.rotate_left(37);
        let expect = oracle(records.clone());
        let metrics = flowmark_engine::metrics::EngineMetrics::new();
        let sorted = merge_sort_batches(vec![records.clone()], &metrics);
        assert_eq!(sorted, expect);
        assert_eq!(metrics.radix_sort_runs(), 1);
        // The same rows as uneven routed batches, one of them empty: the
        // tie-break and the gather read them through the batch index.
        let tail = records.split_off(61);
        let mid = records.split_off(7);
        let batches = vec![records, Vec::new(), mid, tail];
        assert_eq!(merge_sort_batches(batches, &metrics), expect);
        assert!(merge_sort_batches(Vec::new(), &metrics).is_empty());
    }

    #[test]
    fn plans_validate_and_differ_per_table_i() {
        let scale = TeraSortScale::total_tb(3.5);
        let spark = plan(Framework::Spark, &scale);
        let flink = plan(Framework::Flink, &scale);
        assert!(spark.validate().is_ok() && flink.validate().is_ok());
        assert!(spark
            .nodes()
            .iter()
            .any(|n| n.op == OperatorKind::RepartitionAndSort));
        assert!(flink
            .nodes()
            .iter()
            .any(|n| n.op == OperatorKind::SortPartition));
        // Record count: 3.5 TB / 100 B.
        assert_eq!(spark.nodes()[0].source_records, Some(35_000_000_000));
    }

    #[test]
    fn validate_output_catches_disorder() {
        let records = TeraGen::new(3).records(100);
        let sorted = oracle(records.clone());
        let mut bad = vec![sorted.clone()];
        bad[0].swap(0, 50);
        assert!(validate_output(100, &bad).is_err());
        assert!(validate_output(100, &[sorted]).is_ok());
        assert!(validate_output(99, &[oracle(records)]).is_err());
    }
}

/// A range partitioner over fixed-size keys.
pub struct KeyRange {
    inner: RangePartitioner<[u8; KEY_BYTES]>,
}

impl KeyRange {
    /// Creates a key-range partitioner from split points.
    pub fn new(splits: Vec<[u8; KEY_BYTES]>) -> Self {
        Self {
            inner: RangePartitioner::new(splits),
        }
    }
}

impl flowmark_dataflow::partitioner::Partitioner<[u8; KEY_BYTES]> for KeyRange {
    fn partitions(&self) -> usize {
        self.inner.partitions()
    }
    fn partition(&self, key: &[u8; KEY_BYTES]) -> usize {
        self.inner.partition(key)
    }
}
