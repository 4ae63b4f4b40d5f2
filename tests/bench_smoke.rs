//! Direct-call guards on what the engines count, for the workloads whose
//! hot paths were rewritten: counters equal an engine-independent
//! reference or repeat exactly across fresh contexts, each migrated
//! workload's batch kernels fire, and the iteration runtimes keep their
//! `tasks_launched` signatures. A
//! silent fallback to a slower path passes every oracle check; these
//! tests make it loud. Oracle agreement itself is checked by each
//! workload's own tests and by flowbench's schema tests; the Nexmark slab
//! guard is in `stream_smoke.rs`.

use std::collections::HashSet;

use flowmark_engine::flink::FlinkEnv;
use flowmark_engine::spark::SparkContext;

/// The architectural `tasks_launched` signatures (§II-C) survive the CSR
/// rewrite: the pipelined engine schedules its iteration workers exactly
/// once, while the staged engine unrolls a task wave per superstep.
#[test]
fn iteration_task_signatures_survive_the_csr_rewrite() {
    use flowmark_workloads::connected::{self, CcVariant};

    let parts = 4;
    // A star into vertex 0 plus a tail: every partition owns many spokes,
    // so the min-combiner provably folds their messages to the hub.
    let mut edges: Vec<(u64, u64)> = (1..90u64).map(|i| (i, 0)).collect();
    edges.extend((90..120u64).map(|i| (i - 1, i)));
    let expect = connected::oracle(&edges);

    let env = FlinkEnv::new(parts);
    let before = env.metrics().tasks_launched();
    let out = connected::run_flink(&env, &edges, 200, parts, CcVariant::Bulk, None).unwrap();
    assert_eq!(out, expect);
    assert_eq!(
        env.metrics().tasks_launched() - before,
        parts as u64,
        "pipelined iteration must schedule each worker exactly once"
    );
    assert!(
        env.metrics().messages_combined() > 0,
        "CC declares a min combiner; it must eliminate messages"
    );

    let sc = SparkContext::new(parts);
    let before = sc.metrics().tasks_launched();
    let out = connected::run_spark(&sc, &edges, 200, parts);
    assert_eq!(out, expect);
    let rounds = sc.metrics().iterations_run();
    assert!(
        sc.metrics().tasks_launched() - before >= rounds * parts as u64,
        "staged iteration must unroll at least one task wave per superstep"
    );
}

/// Guard for the columnar migration: K-Means' batch entry points must take
/// the vectorized assign kernel on both engines. (TeraSort's radix guard is
/// in `terasort_shuffles_each_record_exactly_once`.)
#[test]
fn migrated_cells_take_the_vectorized_paths() {
    use flowmark_datagen::points::{PointsConfig, PointsGen};
    use flowmark_workloads::kmeans;

    let mut gen = PointsGen::new(PointsConfig::default(), 5);
    let points = gen.points(2_000);
    let init = gen.true_centers().to_vec();

    let sc = SparkContext::new(4);
    kmeans::run_spark(&sc, points.clone(), init.clone(), 2, 4);
    assert!(
        sc.metrics().records_shuffled() > 0,
        "staged K-Means must exchange its partial sums"
    );
    assert!(
        sc.metrics().points_assigned_vectorized() > 0,
        "staged K-Means left the vectorized kernel"
    );
    let env = FlinkEnv::new(4);
    kmeans::run_flink(&env, points, init, 2);
    assert!(
        env.metrics().points_assigned_vectorized() > 0,
        "pipelined K-Means left the vectorized kernel"
    );
}

/// Engine-independent reference for Word Count's `records_shuffled`: both
/// engines pack lines into `DEFAULT_BATCH_ROWS`-row column batches, chunk
/// the *batches* contiguously (`len.div_ceil(parallelism)`) and fully
/// combine on the map side, so what crosses the shuffle is exactly the
/// distinct words of each map task's rows — each costing its UTF-8 length
/// plus a u64 count in the routed batch's columns.
fn expected_wc_shuffle(lines: &[String], parallelism: usize) -> (u64, u64) {
    let batches: Vec<&[String]> = lines.chunks(flowmark_columnar::DEFAULT_BATCH_ROWS).collect();
    let chunk = batches.len().div_ceil(parallelism).max(1);
    let (mut records, mut bytes) = (0u64, 0u64);
    for task in batches.chunks(chunk) {
        let mut distinct: HashSet<&str> = HashSet::new();
        for batch in task {
            for line in *batch {
                distinct.extend(line.split_whitespace());
            }
        }
        records += distinct.len() as u64;
        bytes += distinct.iter().map(|w| w.len() as u64).sum::<u64>()
            + 8 * distinct.len() as u64;
    }
    (records, bytes)
}

/// The zero-copy/pooling rewrite must not change what the shuffle counters
/// count: record and byte totals on both engines equal an independent
/// reference computed with no engine code at all.
#[test]
fn shuffle_metrics_are_invariant_under_the_zero_copy_rewrite() {
    use flowmark_datagen::text::{TextGen, TextGenConfig};
    use flowmark_workloads::wordcount;

    let parts = 4;
    // Enough lines for several column batches, so the reference exercises
    // batch-granularity chunking across map tasks, not just one chunk.
    let lines = TextGen::new(TextGenConfig::default(), 7).lines(10_000);
    let (expect_records, expect_bytes) = expected_wc_shuffle(&lines, parts);

    let sc = SparkContext::new(parts);
    let spark_out = wordcount::run_spark(&sc, lines.clone(), parts);
    assert_eq!(
        sc.metrics().records_shuffled(),
        expect_records,
        "staged engine shuffled a different record count than the reference"
    );
    assert_eq!(
        sc.metrics().bytes_shuffled(),
        expect_bytes,
        "staged engine byte accounting drifted"
    );
    assert!(
        sc.metrics().batches_processed() > 0,
        "staged engine left the batch path"
    );

    let env = FlinkEnv::new(parts);
    let flink_out = wordcount::run_flink(&env, lines.clone());
    assert_eq!(
        env.metrics().records_shuffled(),
        expect_records,
        "pipelined engine shuffled a different record count than the reference"
    );
    assert_eq!(
        env.metrics().bytes_shuffled(),
        expect_bytes,
        "pipelined engine byte accounting drifted"
    );
    assert!(
        env.metrics().batches_processed() > 0,
        "pipelined engine left the batch path"
    );

    // And the rewrite didn't change the answers either.
    let expect = wordcount::oracle(&lines);
    assert_eq!(spark_out, expect);
    assert_eq!(flink_out, expect);
}

/// No hasher-seeded map feeds partition contents on the staged graph path:
/// two fresh contexts over the same edges move exactly the same messages.
#[test]
fn staged_graph_counters_repeat_exactly() {
    use flowmark_datagen::graph::{RmatGen, RmatParams};
    use flowmark_workloads::{connected, pagerank};

    let edges = RmatGen::new(9, RmatParams::default(), 9).edges(4_000);
    let run = || {
        let sc = SparkContext::new(3);
        let ranks = pagerank::run_spark(&sc, &edges, 5, 3);
        let labels = connected::run_spark(&sc, &edges, 200, 3);
        let m = sc.metrics();
        assert!(
            m.batches_processed() > 0 && m.recovery().batches_checksummed > 0,
            "staged supersteps left the sealed batch exchange"
        );
        let counters = (
            m.records_shuffled(),
            m.bytes_shuffled(),
            m.messages_combined(),
            m.iterations_run(),
        );
        (counters, ranks, labels)
    };
    let (first, second) = (run(), run());
    assert_eq!(first.0, second.0, "counters differ between fresh contexts");
    assert!(first.0 .0 > 0 && first.0 .2 > 0);
    // Same fold order, so even the float sums are bit-identical.
    assert_eq!(first.1, second.1);
    assert_eq!(first.2, second.2);
}

/// The pipelined graph path repeats as exactly: workers own fixed ranges,
/// fold their outboxes in row order and absorb arrivals in sender order,
/// never arrival order.
#[test]
fn pipelined_graph_counters_repeat_exactly() {
    use flowmark_datagen::graph::{RmatGen, RmatParams};
    use flowmark_workloads::connected::{self, CcVariant};
    use flowmark_workloads::pagerank;

    let edges = RmatGen::new(9, RmatParams::default(), 9).edges(4_000);
    let run = || {
        let env = FlinkEnv::new(3);
        let ranks = pagerank::run_flink(&env, &edges, 5, 3).unwrap();
        let labels = connected::run_flink(&env, &edges, 200, 3, CcVariant::Delta, None).unwrap();
        let m = env.metrics();
        assert!(
            m.batches_processed() > 0 && m.recovery().batches_checksummed > 0,
            "pipelined supersteps left the sealed worker mesh"
        );
        let counters = (
            m.records_shuffled(),
            m.bytes_shuffled(),
            m.messages_combined(),
            m.iterations_run(),
        );
        (counters, ranks, labels)
    };
    let (first, second) = (run(), run());
    assert_eq!(first.0, second.0, "counters differ between fresh envs");
    assert!(first.0 .0 > 0 && first.0 .2 > 0);
    assert_eq!(first.1, second.1, "float sums must be bit-identical");
    assert_eq!(first.2, second.2);
}

/// TeraSort shuffles every record exactly once on both engines — the
/// range-partitioning exchange has no combiner to shrink it — in sealed
/// batches, and the reduce side sorts with the radix kernel, not the
/// comparison merge.
#[test]
fn terasort_shuffles_each_record_exactly_once() {
    use flowmark_datagen::terasort::TeraGen;
    use flowmark_workloads::terasort;

    let records = TeraGen::new(11).records(2_000);
    let n = records.len() as u64;

    let sc = SparkContext::new(4);
    let out = terasort::run_spark(&sc, records.clone(), 4);
    terasort::validate_output(records.len(), &out).unwrap();
    assert_eq!(sc.metrics().records_shuffled(), n);
    assert!(
        sc.metrics().radix_sort_runs() > 0,
        "staged reduce skipped the radix kernel"
    );
    assert!(sc.metrics().recovery().batches_checksummed > 0);

    let env = FlinkEnv::new(4);
    let out = terasort::run_flink(&env, records.clone(), 4);
    terasort::validate_output(records.len(), &out).unwrap();
    assert_eq!(env.metrics().records_shuffled(), n);
    assert!(
        env.metrics().radix_sort_runs() > 0,
        "pipelined reduce skipped the radix kernel"
    );
    assert!(env.metrics().recovery().batches_checksummed > 0);
}

/// TeraSort's deterministic counters are a function of the input alone:
/// two fresh contexts agree on each engine, and both read what the commit
/// before the two-materialisation data plane read for this seed (every
/// record shuffled once in 100 bytes, one sealed batch per non-empty
/// (map task, reducer) pair, every record read once).
#[test]
fn terasort_counters_repeat_exactly() {
    use flowmark_datagen::terasort::TeraGen;
    use flowmark_workloads::terasort;

    let records = TeraGen::new(11).records(40_000);
    let counters = |m: &flowmark_engine::EngineMetrics| {
        (
            m.records_shuffled(),
            m.bytes_shuffled(),
            m.recovery().batches_checksummed,
            m.records_read(),
        )
    };
    let staged = || {
        let sc = SparkContext::new(4);
        let out = terasort::run_spark(&sc, records.clone(), 4);
        (counters(sc.metrics()), out)
    };
    let pipelined = || {
        let env = FlinkEnv::new(4);
        let out = terasort::run_flink(&env, records.clone(), 4);
        (counters(env.metrics()), out)
    };
    let parent = (40_000, 4_000_000, 16, 40_000);
    for (first, second) in [(staged(), staged()), (pipelined(), pipelined())] {
        assert_eq!(first.0, second.0, "counters differ between fresh contexts");
        assert_eq!(first.0, parent, "counters moved against the parent commit");
        assert_eq!(first.1, second.1, "a recycled buffer changed the output");
        terasort::validate_output(records.len(), &first.1).unwrap();
    }
}

/// Word Count's deterministic counters are a function of the input alone:
/// two fresh contexts agree on each engine, and both read what the commit
/// before the word-dictionary kernel read for this seed (the same distinct
/// words per map task shuffled in the same sealed batches, every line read
/// once, every source batch and routed batch processed once).
#[test]
fn wordcount_counters_repeat_exactly() {
    use flowmark_datagen::text::{TextGen, TextGenConfig};
    use flowmark_workloads::wordcount;

    let lines = TextGen::new(TextGenConfig::default(), 7).lines(20_000);
    let expect = wordcount::oracle(&lines);
    let counters = |m: &flowmark_engine::EngineMetrics| {
        (
            m.records_shuffled(),
            m.bytes_shuffled(),
            m.recovery().batches_checksummed,
            m.records_read(),
            m.batches_processed(),
            m.rows_selected(),
        )
    };
    let staged = || {
        let sc = SparkContext::new(4);
        let out = wordcount::run_spark(&sc, lines.clone(), 4);
        (counters(sc.metrics()), out)
    };
    let pipelined = || {
        let env = FlinkEnv::new(4);
        let out = wordcount::run_flink(&env, lines.clone());
        (counters(env.metrics()), out)
    };
    let parent = (31_149, 560_562, 12, 20_000, 17, 51_149);
    for (first, second) in [(staged(), staged()), (pipelined(), pipelined())] {
        assert_eq!(first.0, second.0, "counters differ between fresh contexts");
        assert_eq!(first.0, parent, "counters moved against the parent commit");
        assert_eq!(first.1, expect);
        assert_eq!(second.1, expect);
    }
}

/// Grep's deterministic counters are a function of the input alone: two
/// fresh contexts agree on each engine, and both read what the commit before
/// per-range source release read for this seed (every line read once, one
/// sealed source batch per `DEFAULT_BATCH_ROWS` lines, each verified and
/// filtered once, nothing shuffled).
#[test]
fn grep_counters_repeat_exactly() {
    use flowmark_datagen::text::{TextGen, TextGenConfig};
    use flowmark_workloads::grep;

    let config = TextGenConfig {
        needle_selectivity: 0.05,
        ..TextGenConfig::default()
    };
    let needle = config.needle.clone();
    let lines = TextGen::new(config, 9).lines(20_000);
    let expect = grep::oracle(&lines, &needle);
    let counters = |m: &flowmark_engine::EngineMetrics| {
        (
            m.records_shuffled(),
            m.recovery().batches_checksummed,
            m.records_read(),
            m.batches_processed(),
            m.rows_selected(),
        )
    };
    let staged = || {
        let sc = SparkContext::new(4);
        let out = grep::run_spark(&sc, lines.clone(), &needle, 4);
        (counters(sc.metrics()), out)
    };
    let pipelined = || {
        let env = FlinkEnv::new(4);
        let out = grep::run_flink(&env, lines.clone(), &needle);
        (counters(env.metrics()), out)
    };
    let parent = (0, 5, 20_000, 5, 1_013);
    for (first, second) in [(staged(), staged()), (pipelined(), pipelined())] {
        assert_eq!(first.0, second.0, "counters differ between fresh contexts");
        assert_eq!(first.0, parent, "counters moved against the parent commit");
        assert_eq!(first.1, expect);
        assert_eq!(second.1, expect);
    }
}

/// K-Means' deterministic counters are a function of the input alone: two
/// fresh contexts agree on each engine, on the counters the commit before
/// per-range source release read for this seed and on bit-identical centers
/// (every point assigned by the vectorized kernel once per round; the staged
/// engine shuffles one partial sum per center per map task per round, the
/// pipelined one folds them inside its native iteration and shuffles none).
#[test]
fn kmeans_counters_repeat_exactly() {
    use flowmark_datagen::points::{PointsConfig, PointsGen};
    use flowmark_workloads::kmeans;

    let mut gen = PointsGen::new(PointsConfig::default(), 9);
    let points = gen.points(20_000);
    let init = gen.true_centers().to_vec();
    let rounds = 3;
    let counters = |m: &flowmark_engine::EngineMetrics| {
        (
            m.records_shuffled(),
            m.bytes_shuffled(),
            m.recovery().batches_checksummed,
            m.records_read(),
            m.batches_processed(),
            m.points_assigned_vectorized(),
        )
    };
    let staged = || {
        let sc = SparkContext::new(4);
        let out = kmeans::run_spark(&sc, points.clone(), init.clone(), rounds, 4);
        (counters(sc.metrics()), out)
    };
    let pipelined = || {
        let env = FlinkEnv::new(4);
        let out = kmeans::run_flink(&env, points.clone(), init.clone(), rounds);
        (counters(env.metrics()), out)
    };
    let parent = [(96, 3_072, 0, 4, 24, 60_000), (0, 0, 0, 0, 24, 60_000)];
    let runs = [(staged(), staged()), (pipelined(), pipelined())];
    for ((first, second), parent) in runs.into_iter().zip(parent) {
        assert_eq!(first.0, second.0, "counters differ between fresh contexts");
        assert_eq!(first.0, parent, "counters moved against the parent commit");
        assert_eq!(first.1, second.1, "centers must be bit-identical");
    }
}
