//! Property-based tests (proptest) over the core data structures and the
//! engines' invariants.

use proptest::prelude::*;

use flowmark_core::stats::Accumulator;
use flowmark_core::timeseries::TimeSeries;
use flowmark_dataflow::partitioner::{HashPartitioner, Partitioner, RangePartitioner};
use flowmark_engine::sortbuf::SortCombineBuffer;
use flowmark_engine::{EngineMetrics, FlinkEnv, Setup, SparkContext};

proptest! {
    /// Welford merge is equivalent to sequential accumulation regardless of
    /// the split point.
    #[test]
    fn accumulator_merge_any_split(values in prop::collection::vec(-1e6f64..1e6, 1..200), split in 0usize..200) {
        let split = split.min(values.len());
        let mut all = Accumulator::new();
        for &v in &values { all.push(v); }
        let mut left = Accumulator::new();
        let mut right = Accumulator::new();
        for &v in &values[..split] { left.push(v); }
        for &v in &values[split..] { right.push(v); }
        left.merge(&right);
        prop_assert_eq!(left.count(), all.count());
        let (m1, m2) = (left.mean().unwrap(), all.mean().unwrap());
        prop_assert!((m1 - m2).abs() <= 1e-6 * (1.0 + m2.abs()));
        if values.len() > 1 {
            let (v1, v2) = (left.variance().unwrap(), all.variance().unwrap());
            prop_assert!((v1 - v2).abs() <= 1e-6 * (1.0 + v2.abs()));
        }
    }

    /// deposit_range always preserves the deposited integral.
    #[test]
    fn timeseries_integral_preserved(
        period in 0.1f64..5.0,
        start in 0.0f64..100.0,
        len in 0.01f64..50.0,
        total in 0.001f64..1e6,
    ) {
        let mut ts = TimeSeries::new(period);
        ts.deposit_range(start, start + len, total);
        let integral = ts.integral();
        prop_assert!((integral - total).abs() <= 1e-6 * total,
            "integral {} vs total {}", integral, total);
    }

    /// Hash partitioning is deterministic and in range.
    #[test]
    fn hash_partitioner_in_range(keys in prop::collection::vec(any::<u64>(), 1..100), parts in 1usize..64) {
        let p = HashPartitioner::new(parts);
        for k in &keys {
            let a = p.partition(k);
            prop_assert!(a < parts);
            prop_assert_eq!(a, p.partition(k));
        }
    }

    /// Range partitioning is monotone in the key.
    #[test]
    fn range_partitioner_monotone(mut splits in prop::collection::vec(any::<u32>(), 0..20), keys in prop::collection::vec(any::<u32>(), 2..100)) {
        splits.sort_unstable();
        let p = RangePartitioner::new(splits);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let parts: Vec<usize> = sorted.iter().map(|k| p.partition(k)).collect();
        prop_assert!(parts.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(parts.iter().all(|&x| x < p.partitions()));
    }

    /// The sort-combine buffer equals a HashMap fold for any capacity.
    #[test]
    fn sortbuf_equals_hashmap_oracle(
        pairs in prop::collection::vec((0u32..50, 1u64..100), 0..400),
        capacity in 1usize..64,
    ) {
        let mut buf = SortCombineBuffer::new(
            capacity,
            16,
            std::sync::Arc::new(|a: &mut u64, b: u64| *a += b),
            EngineMetrics::new(),
        );
        let mut oracle = std::collections::HashMap::<u32, u64>::new();
        for (k, v) in &pairs {
            buf.insert(*k, *v);
            *oracle.entry(*k).or_default() += v;
        }
        let out = buf.finish();
        prop_assert_eq!(out.len(), oracle.len());
        prop_assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "sorted output");
        for (k, v) in out {
            prop_assert_eq!(oracle[&k], v);
        }
    }

    /// Both engines compute identical reduce-by-key results on arbitrary
    /// key/value data, for any partitioning.
    #[test]
    fn engines_agree_on_arbitrary_aggregations(
        pairs in prop::collection::vec((0u32..30, 1u64..10), 1..300),
        partitions in 1usize..6,
    ) {
        let sc = SparkContext::new(partitions);
        let spark: std::collections::HashMap<u32, u64> = sc
            .parallelize(pairs.clone(), partitions)
            .reduce_by_key(|a, b| *a += b)
            .collect_as_map();
        let env = FlinkEnv::new(partitions);
        let flink: std::collections::HashMap<u32, u64> = env
            .from_collection(pairs.clone())
            .group_reduce(|a, b| *a += b)
            .collect()
            .into_iter()
            .collect();
        let mut oracle = std::collections::HashMap::<u32, u64>::new();
        for (k, v) in pairs {
            *oracle.entry(k).or_default() += v;
        }
        prop_assert_eq!(&spark, &oracle);
        prop_assert_eq!(&flink, &oracle);
    }

    /// Plan cardinality propagation is linear in source size.
    #[test]
    fn plan_cardinalities_scale_linearly(records in 1u64..1_000_000, sel in 0.01f64..10.0) {
        use flowmark_dataflow::operator::OperatorKind::*;
        use flowmark_dataflow::plan::{CostAnnotation, LogicalPlan};
        let build = |n: u64| {
            let mut p = LogicalPlan::new();
            let s = p.source(n, 10.0);
            let m = p.unary(s, FlatMap, CostAnnotation::new(sel, 10.0, 10.0));
            let _ = p.unary(m, DataSink, CostAnnotation::new(1.0, 10.0, 10.0));
            p.cardinalities()
        };
        let c1 = build(records);
        let c2 = build(records * 2);
        for (a, b) in c1.iter().zip(&c2) {
            prop_assert!((b - 2.0 * a).abs() <= 1e-6 * (1.0 + b.abs()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The simulator is deterministic for a fixed seed and monotone in
    /// dataset size, for both engines.
    #[test]
    fn simulator_deterministic_and_monotone(gb in 4.0f64..64.0, seed in 0u64..1000) {
        use flowmark_core::config::Framework;
        use flowmark_sim::{simulate, Calibration};
        use flowmark_workloads::wordcount::{plan, WordCountScale};
        use flowmark_workloads::presets;
        let run = presets::wordcount_config(4);
        let cal = Calibration::default();
        for fw in Framework::BOTH {
            let small = plan(fw, &WordCountScale { total_bytes: gb * 1e9 });
            let big = plan(fw, &WordCountScale { total_bytes: 2.0 * gb * 1e9 });
            let a = simulate(&small, fw, &run, &cal, seed).unwrap().seconds;
            let a2 = simulate(&small, fw, &run, &cal, seed).unwrap().seconds;
            let b = simulate(&big, fw, &run, &cal, seed).unwrap().seconds;
            prop_assert_eq!(a, a2, "same seed, same result");
            prop_assert!(b > a, "{}: doubling data must cost time ({} vs {})", fw, a, b);
        }
    }
}

proptest! {
    /// TeraGen records always satisfy the 100-byte spec.
    #[test]
    fn teragen_records_conform(seed in any::<u64>(), n in 1usize..200) {
        use flowmark_datagen::terasort::{TeraGen, KEY_BYTES, RECORD_BYTES};
        let mut g = TeraGen::new(seed);
        for (i, r) in g.records(n).into_iter().enumerate() {
            prop_assert_eq!(r.0.len(), RECORD_BYTES);
            prop_assert!(r.key().iter().all(|&b| (b' '..=b'~').contains(&b)));
            prop_assert_eq!(&r.0[98..], b"\r\n");
            let row: u64 = std::str::from_utf8(&r.0[KEY_BYTES..KEY_BYTES + 10])
                .unwrap()
                .parse()
                .unwrap();
            prop_assert_eq!(row, i as u64);
        }
    }

    /// Scaled graph presets preserve the Table IV edge/vertex ratio.
    #[test]
    fn scaled_graphs_preserve_degree(scale in 8u32..12, seed in any::<u64>()) {
        use flowmark_datagen::graph::GraphPreset;
        for preset in [GraphPreset::Small, GraphPreset::Medium] {
            let g = preset.scaled(scale, seed);
            let ratio = g.edges.len() as f64 / g.vertices as f64;
            prop_assert!((ratio - preset.avg_degree()).abs() < 1.0,
                "{:?}: ratio {} vs {}", preset, ratio, preset.avg_degree());
        }
    }

    /// Simulation noise factors are bounded and mean-preserving-ish.
    #[test]
    fn noise_is_bounded(seed in any::<u64>(), stream in any::<u64>(), cv in 0.0f64..0.3) {
        let f = flowmark_sim::noise::noise_factor(seed, stream, cv);
        prop_assert!(f >= 0.05 && f <= 1.0 + cv * 2.0,
            "factor {} out of range for cv {}", f, cv);
    }

    /// HDFS remote-read fraction is a probability and shrinks with
    /// replication.
    #[test]
    fn hdfs_fraction_bounded(nodes in 2u32..120, blocks in 1u64..100_000, slots in 1u32..64) {
        use flowmark_sim::hdfs::HdfsModel;
        let mut h = HdfsModel::new(nodes, 256);
        let f3 = h.remote_read_fraction(blocks, slots);
        prop_assert!((0.0..=0.3).contains(&f3));
        h.replication = 1;
        let f1 = h.remote_read_fraction(blocks, slots);
        prop_assert!(f1 >= f3 - 1e-12, "r=1 {} < r=3 {}", f1, f3);
    }

    /// More nodes never slow a fixed-size simulated job down (both engines).
    #[test]
    fn sim_monotone_in_cluster_size(small in 2u32..8, extra in 1u32..8) {
        use flowmark_core::config::Framework;
        use flowmark_sim::{simulate, Calibration};
        use flowmark_workloads::presets;
        use flowmark_workloads::wordcount::{plan, WordCountScale};
        let cal = Calibration::default();
        let scale = WordCountScale { total_bytes: 100e9 };
        let big = small + extra;
        for fw in Framework::BOTH {
            let t_small = simulate(&plan(fw, &scale), fw, &presets::wordcount_config(small), &cal, 1)
                .unwrap()
                .seconds;
            let t_big = simulate(&plan(fw, &scale), fw, &presets::wordcount_config(big), &cal, 1)
                .unwrap()
                .seconds;
            // Allow a small tolerance for dispatch/noise effects.
            prop_assert!(t_big <= t_small * 1.05,
                "{}: {} nodes took {}s, {} nodes took {}s", fw, small, t_small, big, t_big);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Both engines agree with the sequential oracle on Word Count for any
    /// generator seed, corpus size and parallelism — the cross-engine
    /// guarantee the shuffle hot-path refactor must preserve.
    #[test]
    fn engines_agree_on_wordcount_for_any_seed(
        seed in any::<u64>(),
        lines in 1usize..400,
        partitions in 1usize..6,
    ) {
        use flowmark_datagen::text::{TextGen, TextGenConfig};
        use flowmark_workloads::wordcount;
        let corpus = TextGen::new(TextGenConfig::default(), seed).lines(lines);
        let expect = wordcount::oracle(&corpus);
        let sc = SparkContext::new(partitions);
        let spark = wordcount::run_spark(&sc, corpus.clone(), partitions);
        prop_assert_eq!(&spark, &expect);
        let env = FlinkEnv::new(partitions);
        let flink = wordcount::run_flink(&env, corpus);
        prop_assert_eq!(&flink, &expect);
    }

    /// Both engines produce the oracle's global key order on TeraSort for
    /// any generator seed, record count and partition count.
    #[test]
    fn engines_agree_on_terasort_for_any_seed(
        seed in any::<u64>(),
        n in 1usize..600,
        partitions in 1usize..8,
    ) {
        use flowmark_datagen::terasort::TeraGen;
        use flowmark_workloads::terasort;
        let records = TeraGen::new(seed).records(n);
        let expect: Vec<Vec<u8>> = terasort::oracle(records.clone())
            .iter()
            .map(|r| r.key().to_vec())
            .collect();
        let sc = SparkContext::new(2);
        let spark = terasort::run_spark(&sc, records.clone(), partitions);
        let check = terasort::validate_output(records.len(), &spark);
        prop_assert!(check.is_ok(), "spark output invalid: {:?}", check);
        let spark_keys: Vec<Vec<u8>> = spark
            .iter()
            .flatten()
            .map(|r| r.key().to_vec())
            .collect();
        prop_assert_eq!(&spark_keys, &expect);
        let env = FlinkEnv::new(2);
        let flink = terasort::run_flink(&env, records.clone(), partitions);
        let check = terasort::validate_output(records.len(), &flink);
        prop_assert!(check.is_ok(), "flink output invalid: {:?}", check);
        let flink_keys: Vec<Vec<u8>> = flink
            .iter()
            .flatten()
            .map(|r| r.key().to_vec())
            .collect();
        prop_assert_eq!(&flink_keys, &expect);
    }

    /// TeraSort on inputs built to break the reduce, on both engines,
    /// fault-free and under the corruption preset: the output is the
    /// oracle's key order over exactly the input's records, and every
    /// armed rot is detected and recovered from in the engine's own way.
    #[test]
    fn terasort_survives_adversarial_keys_and_rot(
        records in adversarial_records(),
        seed in any::<u64>(),
        shape in 0usize..9,
    ) {
        use flowmark_datagen::terasort::Record;
        use flowmark_engine::{FaultConfig, FaultPlan};
        use flowmark_workloads::terasort;
        flowmark_engine::faults::install_quiet_hook();
        let (parallelism, partitions) = ([1, 2, 4][shape / 3], [1, 2, 4][shape % 3]);
        let mut expect = terasort::oracle(records.clone());
        let check = |out: Vec<Vec<Record>>, expect: &mut Vec<Record>| {
            terasort::validate_output(expect.len(), &out)?;
            let mut got: Vec<_> = out.into_iter().flatten().collect();
            if !got.iter().map(Record::key).eq(expect.iter().map(Record::key)) {
                return Err("key order differs from the oracle's".to_string());
            }
            // Equal keys may come back in any order; the records themselves
            // must all be there.
            got.sort_by_key(|r| r.0);
            expect.sort_by_key(|r| r.0);
            if got != *expect {
                return Err("records were lost, duplicated or altered".to_string());
            }
            Ok(())
        };
        let rot = || FaultPlan::new(FaultConfig::corruption(seed));

        let sc = SparkContext::new(parallelism);
        let clean = check(terasort::run_spark(&sc, records.clone(), partitions), &mut expect);
        prop_assert!(clean.is_ok(), "staged: {:?}", clean);
        let sc = Setup { faults: rot(), ..Setup::new(parallelism) }.spark();
        let rotten = check(terasort::run_spark(&sc, records.clone(), partitions), &mut expect);
        prop_assert!(rotten.is_ok(), "staged under rot: {:?}", rotten);
        let rec = sc.metrics().recovery();
        prop_assert_eq!(rec.region_restarts, 0);
        if !records.is_empty() {
            prop_assert!(rec.corruptions_detected >= 1 && rec.integrity_recomputes >= 1);
        }

        let env = FlinkEnv::new(parallelism);
        let clean = check(terasort::run_flink(&env, records.clone(), partitions), &mut expect);
        prop_assert!(clean.is_ok(), "pipelined: {:?}", clean);
        let env = Setup { faults: rot(), ..Setup::new(parallelism) }.flink();
        let rotten = check(terasort::run_flink(&env, records.clone(), partitions), &mut expect);
        prop_assert!(rotten.is_ok(), "pipelined under rot: {:?}", rotten);
        let rec = env.metrics().recovery();
        prop_assert_eq!(rec.partitions_recomputed, 0);
        if !records.is_empty() {
            prop_assert!(rec.corruptions_detected >= 1 && rec.region_restarts >= 1);
        }
    }
}

/// TeraSort inputs of 0 to 120 records — so also none at all, and fewer
/// than there are partitions — whose keys are, by case: random; drawn from
/// eight values, so most repeat; random behind one shared 4-byte radix
/// prefix, so every comparison is a tie-break on the tail; all equal.
fn adversarial_records() -> impl Strategy<Value = Vec<flowmark_datagen::terasort::Record>> {
    (0usize..4, 0usize..120, any::<u64>()).prop_map(|(keys, n, seed)| {
        let mut x = seed;
        (0..n)
            .map(|i| {
                let mut bytes = [b'.'; 100];
                for b in &mut bytes[..10] {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    *b = b' ' + ((x >> 33) % 95) as u8;
                }
                let one_of_eight = b'a' + bytes[9] % 8;
                match keys {
                    0 => {}
                    1 => bytes[..10].fill(one_of_eight),
                    2 => bytes[..4].copy_from_slice(b"SAME"),
                    _ => bytes[..10].copy_from_slice(b"EQUAL KEYS"),
                }
                // The payload tells records with equal keys apart.
                bytes[10..18].copy_from_slice(&(i as u64).to_be_bytes());
                flowmark_datagen::terasort::Record(bytes)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The columnar batch path produces the oracle's Word Count on both
    /// engines for any corpus and partition count.
    #[test]
    fn wordcount_batch_path_matches_record_path(
        seed in any::<u64>(),
        lines in 0usize..400,
        partitions in 1usize..6,
    ) {
        use flowmark_datagen::text::{TextGen, TextGenConfig};
        use flowmark_workloads::wordcount;
        let corpus = TextGen::new(TextGenConfig::default(), seed).lines(lines);
        let expect = wordcount::oracle(&corpus);
        let sc = SparkContext::new(partitions);
        prop_assert_eq!(
            &wordcount::run_spark(&sc, corpus.clone(), partitions),
            &expect,
            "spark batch path diverged from the oracle"
        );
        let env = FlinkEnv::new(partitions);
        prop_assert_eq!(
            &wordcount::run_flink(&env, corpus),
            &expect,
            "flink batch path diverged from the oracle"
        );
    }

    /// The vectorized substring filter counts the oracle's matches on both
    /// engines for any corpus and needle selectivity.
    #[test]
    fn grep_batch_path_matches_record_path(
        seed in any::<u64>(),
        lines in 0usize..400,
        partitions in 1usize..6,
        selectivity in 0.0f64..0.5,
    ) {
        use flowmark_datagen::text::{TextGen, TextGenConfig};
        use flowmark_workloads::grep;
        let config = TextGenConfig { needle_selectivity: selectivity, ..TextGenConfig::default() };
        let needle = config.needle.clone();
        let corpus = TextGen::new(config, seed).lines(lines);
        let expect = grep::oracle(&corpus, &needle);
        let sc = SparkContext::new(partitions);
        prop_assert_eq!(
            grep::run_spark(&sc, corpus.clone(), &needle, partitions),
            expect,
            "spark batch path diverged from the oracle"
        );
        let env = FlinkEnv::new(partitions);
        prop_assert_eq!(
            grep::run_flink(&env, corpus, &needle),
            expect,
            "flink batch path diverged from the oracle"
        );
    }

    /// Batch-granularity shuffle routing produces byte-identical TeraSort
    /// partitions on both engines, whose concatenation is the oracle's
    /// sorted records.
    #[test]
    fn terasort_batch_path_matches_record_path(
        seed in any::<u64>(),
        n in 0usize..600,
        partitions in 1usize..8,
    ) {
        use flowmark_datagen::terasort::TeraGen;
        use flowmark_workloads::terasort;
        let records = TeraGen::new(seed).records(n);
        let expect = terasort::oracle(records.clone());
        let spark = terasort::run_spark(&SparkContext::new(2), records.clone(), partitions);
        let flink = terasort::run_flink(&FlinkEnv::new(2), records, partitions);
        prop_assert!(spark == flink, "the engines split or ordered the records differently");
        prop_assert!(
            spark.into_iter().flatten().eq(expect),
            "batch path diverged from the oracle"
        );
    }
}

/// An arbitrary (always-recoverable) fault plan: any seed, background kill
/// and straggler probabilities, guaranteed-injection budgets and checkpoint
/// intervals. Probability and budget kills only fire on first attempts, so
/// retries always succeed and no plan here is fatal. The straggler delay is
/// kept tiny so cases stay fast.
fn arb_fault_plan() -> impl Strategy<Value = flowmark_engine::FaultPlan> {
    use flowmark_engine::{FaultConfig, FaultPlan};
    (
        any::<u64>(),
        0.0f64..0.4,
        0u64..3,
        0.0f64..0.1,
        0u64..2,
        8u64..128,
        1u32..4,
    )
        .prop_map(
            |(seed, kill_p, kill_n, straggle_p, straggle_n, ckpt_records, ckpt_rounds)| {
                FaultPlan::new(FaultConfig {
                    seed,
                    task_failure_prob: kill_p,
                    fail_first_n: kill_n,
                    straggler_prob: straggle_p,
                    straggle_first_n: straggle_n,
                    straggler_slowdown: std::time::Duration::from_millis(2),
                    speculation_floor: std::time::Duration::from_millis(5),
                    checkpoint_interval_records: ckpt_records,
                    checkpoint_interval_rounds: ckpt_rounds,
                    ..FaultConfig::default()
                })
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Word Count under any fault plan is byte-identical to the fault-free
    /// run on both engines: lineage re-execution, speculation and
    /// checkpoint restarts must never change the answer.
    #[test]
    fn wordcount_is_fault_oblivious(plan in arb_fault_plan(), seed in any::<u64>(), partitions in 2usize..5) {
        use flowmark_datagen::text::{TextGen, TextGenConfig};
        use flowmark_workloads::wordcount;
        let corpus = TextGen::new(TextGenConfig::default(), seed).lines(300);
        let clean_sc = SparkContext::new(partitions);
        let clean_spark = wordcount::run_spark(&clean_sc, corpus.clone(), partitions);
        let sc = Setup { faults: plan.clone(), ..Setup::new(partitions) }.spark();
        prop_assert_eq!(&wordcount::run_spark(&sc, corpus.clone(), partitions), &clean_spark, "spark diverged");
        let clean_env = FlinkEnv::new(partitions);
        let clean_flink = wordcount::run_flink(&clean_env, corpus.clone());
        let env = Setup { faults: plan, ..Setup::new(partitions) }.flink();
        prop_assert_eq!(&wordcount::run_flink(&env, corpus), &clean_flink, "flink diverged");
    }

    /// TeraSort under any fault plan is byte-identical to the fault-free
    /// run on both engines.
    #[test]
    fn terasort_is_fault_oblivious(plan in arb_fault_plan(), seed in any::<u64>(), partitions in 2usize..5) {
        use flowmark_datagen::terasort::TeraGen;
        use flowmark_workloads::terasort;
        let records = TeraGen::new(seed).records(400);
        let clean_sc = SparkContext::new(2);
        let clean_spark = terasort::run_spark(&clean_sc, records.clone(), partitions);
        let sc = Setup { faults: plan.clone(), ..Setup::new(2) }.spark();
        prop_assert_eq!(terasort::run_spark(&sc, records.clone(), partitions), clean_spark, "spark diverged");
        let clean_env = FlinkEnv::new(2);
        let clean_flink = terasort::run_flink(&clean_env, records.clone(), partitions);
        let env = Setup { faults: plan, ..Setup::new(2) }.flink();
        prop_assert_eq!(terasort::run_flink(&env, records, partitions), clean_flink, "flink diverged");
    }

    /// K-Means under any fault plan is byte-identical (exact f64 equality)
    /// to the fault-free run on both engines: recomputed partitions, backup
    /// attempts and round replays from checkpoints reproduce the identical
    /// floating-point reduction order.
    #[test]
    fn kmeans_is_fault_oblivious(plan in arb_fault_plan(), seed in any::<u64>(), partitions in 2usize..5) {
        use flowmark_datagen::points::{Point, PointsConfig, PointsGen};
        use flowmark_workloads::kmeans;
        let mut gen = PointsGen::new(PointsConfig::default(), seed);
        let init: Vec<Point> = gen.true_centers().to_vec();
        let points = gen.points(600);
        let clean_sc = SparkContext::new(partitions);
        let clean_spark = kmeans::run_spark(&clean_sc, points.clone(), init.clone(), 4, partitions);
        let sc = Setup { faults: plan.clone(), ..Setup::new(partitions) }.spark();
        prop_assert_eq!(
            kmeans::run_spark(&sc, points.clone(), init.clone(), 4, partitions),
            clean_spark
        );
        let clean_env = FlinkEnv::new(partitions);
        let clean_flink = kmeans::run_flink(&clean_env, points.clone(), init.clone(), 4);
        let env = Setup { faults: plan, ..Setup::new(partitions) }.flink();
        prop_assert_eq!(kmeans::run_flink(&env, points, init, 4), clean_flink);
    }
}

/// Every configuration any experiment uses passes framework validation.
#[test]
fn all_experiment_presets_validate() {
    use flowmark_workloads::presets;
    for n in [2u32, 4, 8, 16, 32] {
        presets::wordcount_config(n).validate().unwrap();
        presets::grep_config(n).validate().unwrap();
    }
    for n in [17u32, 27, 34, 55, 63, 73, 97] {
        presets::terasort_config(n).validate().unwrap();
    }
    for n in [8u32, 14, 20, 27] {
        presets::small_graph_config(n).validate().unwrap();
    }
    for n in [24u32, 27, 34, 55] {
        presets::medium_graph_config(n).validate().unwrap();
    }
    for n in [27u32, 44, 97] {
        presets::large_graph_config(n).validate().unwrap();
    }
    for n in [8u32, 14, 20, 24] {
        presets::kmeans_config(n).validate().unwrap();
    }
}


// ---- serve-layer properties (PR 4) -------------------------------------

proptest! {
    /// Backoff envelopes are monotone non-decreasing in the retry number
    /// and never exceed the cap.
    #[test]
    fn backoff_envelope_monotone_and_capped(
        base_ms in 1u64..50,
        cap_ms in 1u64..500,
        seed in any::<u64>(),
    ) {
        let s = flowmark_serve::BackoffSchedule::new(
            std::time::Duration::from_millis(base_ms),
            std::time::Duration::from_millis(cap_ms),
            seed,
        );
        let mut prev = std::time::Duration::ZERO;
        for retry in 1..40u32 {
            let env = s.envelope(retry);
            prop_assert!(env >= prev, "envelope shrank at retry {}", retry);
            prop_assert!(env <= s.cap);
            prev = env;
        }
    }

    /// Jittered delays are deterministic per (seed, job, retry) and never
    /// exceed the remaining deadline.
    #[test]
    fn backoff_delay_deterministic_and_deadline_bounded(
        base_ms in 1u64..50,
        cap_ms in 1u64..500,
        seed in any::<u64>(),
        job in any::<u64>(),
        retry in 1u32..20,
        remaining_ms in 0u64..1000,
    ) {
        let mk = || flowmark_serve::BackoffSchedule::new(
            std::time::Duration::from_millis(base_ms),
            std::time::Duration::from_millis(cap_ms),
            seed,
        );
        let remaining = std::time::Duration::from_millis(remaining_ms);
        let d1 = mk().delay(job, retry, remaining);
        let d2 = mk().delay(job, retry, remaining);
        prop_assert_eq!(d1, d2, "same seed must give the same delay");
        prop_assert!(d1 <= remaining, "delay must never outlive the deadline");
        prop_assert!(d1 <= mk().envelope(retry));
    }

    /// The fair queue under the default policy — one unbounded tenant —
    /// preserves FIFO order among admitted items under arbitrary
    /// push/pop interleavings: the DRR degenerate case the service
    /// relies on for backward compatibility with the old bounded queue.
    #[test]
    fn admission_queue_is_fifo_among_admitted(
        capacity in 1usize..8,
        ops in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let fair = flowmark_core::config::FairShareConfig::default();
        let mut queue = flowmark_serve::FairQueue::new(&fair, capacity);
        let mut admitted = std::collections::VecDeque::new();
        let mut next = 0u32;
        for push in ops {
            if push {
                match queue.push(0, 1, next) {
                    Ok(()) => admitted.push_back(next),
                    Err(flowmark_serve::Rejected::QueueFull { tenant: 0 }) => {
                        prop_assert_eq!(queue.len(), capacity, "shed only when full");
                    }
                    Err(other) => prop_assert!(false, "unexpected rejection {:?}", other),
                }
                next += 1;
            } else {
                let popped = queue.pop();
                if let Some((lane, _)) = popped {
                    queue.job_finished(lane);
                }
                prop_assert_eq!(popped.map(|(_, item)| item), admitted.pop_front());
            }
        }
        // Drain: the remainder still comes out in admission order.
        while let Some((lane, item)) = queue.pop() {
            queue.job_finished(lane);
            prop_assert_eq!(Some(item), admitted.pop_front());
        }
        prop_assert!(admitted.is_empty());
    }
}

/// Random edges over `0..n` plus every shape the dense-id CSR build has to
/// get right: a self-loop, a triplicated edge, a sink-only vertex behind a
/// sparse id, and a pair no other edge touches (its source nothing reaches,
/// its target isolated). Small `n` leaves fewer vertices than partitions.
fn awkward_graph() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (1u64..30, prop::collection::vec((0u64..1000, 0u64..1000), 1..150)).prop_map(|(n, raw)| {
        let mut edges: Vec<(u64, u64)> = raw.into_iter().map(|(s, t)| (s % n, t % n)).collect();
        let first = edges[0];
        edges.extend([(0, 0), first, first, (n - 1, 5_000), (7_000, 9_000)]);
        edges
    })
}

/// Partition counts the graph layers are exercised at, 7 being more than
/// some of the graphs have vertices.
const GRAPH_PARTITIONS: [usize; 4] = [1, 2, 3, 7];

/// The graph with no edges has no vertices: every implementation returns
/// nothing, at any partition count, instead of dividing by its size.
#[test]
fn graph_workloads_accept_the_empty_edge_list() {
    use flowmark_workloads::connected::{self, CcVariant};
    use flowmark_workloads::pagerank;
    for partitions in GRAPH_PARTITIONS {
        let sc = SparkContext::new(partitions);
        assert!(pagerank::run_spark(&sc, &[], 3, partitions).is_empty());
        assert!(connected::run_spark(&sc, &[], 200, partitions).is_empty());
        let env = FlinkEnv::new(partitions);
        let ranks = pagerank::run_flink(&env, &[], 3, partitions);
        assert!(ranks.unwrap().is_empty());
        for variant in [CcVariant::Bulk, CcVariant::Delta] {
            let labels = connected::run_flink(&env, &[], 200, partitions, variant, None);
            assert!(labels.unwrap().is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Page Rank agrees across the staged `aggregate_messages` loop, the
    /// pipelined vertex-centric runtime (sum combiner active) and the
    /// sequential oracle on random graphs — the cross-engine guarantee the
    /// CSR / message-combining rewrites must preserve.
    #[test]
    fn engines_agree_on_pagerank_for_any_graph(
        edges in awkward_graph(),
        iterations in 1u32..6,
    ) {
        use flowmark_workloads::pagerank;
        let expect = pagerank::oracle(&edges, iterations);
        for partitions in GRAPH_PARTITIONS {
            let sc = SparkContext::new(partitions);
            let spark = pagerank::run_spark(&sc, &edges, iterations, partitions);
            prop_assert_eq!(spark.len(), expect.len());
            for (v, r) in &spark {
                prop_assert!((r - expect[v]).abs() < 1e-9, "spark rank({}) drifted", v);
            }
            let env = FlinkEnv::new(partitions);
            let flink = pagerank::run_flink(&env, &edges, iterations, partitions).unwrap();
            prop_assert_eq!(flink.len(), expect.len());
            for (v, r) in &flink {
                prop_assert!((r - expect[v]).abs() < 1e-9, "flink rank({}) drifted", v);
            }
        }
    }

    /// Connected Components agrees across spark label propagation, the
    /// GraphX-style pregel layer, flink bulk AND delta vertex-centric
    /// iterations (min combiner active), and the union-find oracle.
    #[test]
    fn engines_agree_on_connected_components_for_any_graph(edges in awkward_graph()) {
        use flowmark_workloads::connected::{self, CcVariant};
        let expect = connected::oracle(&edges);
        for partitions in GRAPH_PARTITIONS {
            let sc = SparkContext::new(partitions);
            let spark = connected::run_spark(&sc, &edges, 200, partitions);
            prop_assert_eq!(&spark, &expect);
            let pregel =
                flowmark_engine::graphx::connected_components(&sc, &edges, partitions, 200);
            prop_assert_eq!(&pregel, &expect);
            let env = FlinkEnv::new(partitions);
            let bulk = connected::run_flink(&env, &edges, 200, partitions, CcVariant::Bulk, None)
                .unwrap();
            prop_assert_eq!(&bulk, &expect);
            let delta =
                connected::run_flink(&env, &edges, 200, partitions, CcVariant::Delta, None)
                    .unwrap();
            prop_assert_eq!(&delta, &expect);
        }
    }

    /// SSSP agrees between the Gelly-style delta iteration (min combiner),
    /// the GraphX-style pregel driver, and a BFS oracle.
    #[test]
    fn graph_libraries_agree_on_sssp_for_any_graph(edges in awkward_graph()) {
        use flowmark_engine::{gelly, graphx};
        let expect = gelly::bfs_oracle(&edges, 0);
        for partitions in GRAPH_PARTITIONS {
            let env = FlinkEnv::new(partitions);
            let pipelined = gelly::sssp(&env, &edges, 0, partitions, 200).unwrap();
            prop_assert_eq!(&pipelined, &expect);
            let sc = SparkContext::new(partitions);
            let staged = graphx::sssp(&sc, &edges, 0, partitions, 200);
            prop_assert_eq!(&staged, &expect);
        }
    }

    /// Every window an assigner hands out actually contains the event
    /// time, tumbling assignment is unique and aligned, and sliding
    /// window starts land on slide boundaries.
    #[test]
    fn window_assignment_contains_the_event(
        t in 0u64..100_000,
        size in 1u64..500,
        slide in 1u64..500,
        gap in 1u64..500,
    ) {
        use flowmark_engine::streaming::WindowAssigner;
        let tumbling = WindowAssigner::Tumbling { size }.assign(t);
        prop_assert_eq!(tumbling.len(), 1);
        prop_assert_eq!(tumbling[0], (t - t % size, t - t % size + size));

        let slide = slide.min(size);
        let windows = WindowAssigner::Sliding { size, slide }.assign(t);
        prop_assert!(!windows.is_empty());
        for &(s, e) in &windows {
            prop_assert!(s <= t && t < e, "window [{s},{e}) misses t={t}");
            prop_assert_eq!(e - s, size);
            prop_assert_eq!(s % slide, 0);
        }
        // Exactly the slide-aligned starts in (t − size, t] appear.
        let expected = t / slide - (t + 1).saturating_sub(size).div_ceil(slide) + 1;
        prop_assert_eq!(windows.len() as u64, expected);

        let session = WindowAssigner::Session { gap }.assign(t);
        prop_assert_eq!(session, vec![(t, t + gap)]);
    }

    /// The checkpointed runtimes' windowed aggregate is invariant under
    /// bounded disorder: any in-allowance shuffle of the arrival order
    /// commits exactly the in-order answer (no drops, no duplicates).
    #[test]
    fn windowed_aggregate_invariant_under_bounded_disorder(
        values in prop::collection::vec((0u64..4, 1u64..1000), 16..120),
        shuffle_seed in 0u64..1000,
        max_shift in 0u64..8,
    ) {
        use flowmark_engine::streaming::{
            run_continuous_checkpointed, shuffle_bounded, SourceConfig, StreamEvent,
            StreamJobConfig, StreamSource, WindowAssigner, WindowedAggregate,
        };
        use flowmark_engine::{CancelToken, FaultPlan};
        let events: Vec<StreamEvent<(u64, u64)>> = values
            .iter()
            .enumerate()
            .map(|(i, &kv)| StreamEvent::new(i as u64 * 2, kv))
            .collect();
        // Shift ≤ 8 positions × 2 ticks/position = 16 ticks of disorder,
        // comfortably inside the 64-tick allowance: nothing may drop.
        let config = SourceConfig {
            allowance: 64,
            watermark_every: 4,
            stall_watermark_after: None,
            hold_at_end: false,
        };
        let run = |events: Vec<StreamEvent<(u64, u64)>>| {
            let src = StreamSource::with_config(events, config.clone());
            let metrics = EngineMetrics::new();
            let out = run_continuous_checkpointed(
                &src,
                |_| WindowedAggregate::new(WindowAssigner::Tumbling { size: 16 }, kv_extract),
                kv_route,
                &StreamJobConfig::default(),
                &FaultPlan::disabled(),
                &metrics,
                &CancelToken::new(),
            );
            (
                flowmark_workloads::stream::canonical(&out.committed),
                metrics.late_events_dropped(),
            )
        };
        let (in_order, _) = run(events.clone());
        let (shuffled, dropped) = run(shuffle_bounded(events, shuffle_seed, max_shift));
        prop_assert_eq!(dropped, 0, "in-allowance disorder must not drop");
        prop_assert_eq!(shuffled, in_order);
    }
}

/// q6-style extractor over plain `(key, value)` pairs.
fn kv_extract(e: &(u64, u64)) -> Option<(u64, u64)> {
    Some((e.0, e.1))
}

/// Routes `(key, value)` pairs by key.
fn kv_route(e: &(u64, u64)) -> u64 {
    e.0
}
