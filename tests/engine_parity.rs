//! Cross-crate integration: every workload computes identical results on
//! the staged engine, the pipelined engine and a sequential oracle —
//! the correctness half of the reproduction (the engines must disagree
//! only in *performance*, never in answers).

use flowmark_datagen::graph::{GraphPreset, RmatGen, RmatParams};
use flowmark_datagen::points::{PointsConfig, PointsGen};
use flowmark_datagen::terasort::TeraGen;
use flowmark_datagen::text::{TextGen, TextGenConfig};
use flowmark_engine::{FlinkEnv, SparkContext};
use flowmark_workloads::connected::{self, CcVariant};
use flowmark_workloads::{grep, kmeans, pagerank, terasort, wordcount};

fn sc() -> SparkContext {
    SparkContext::new(6)
}

fn env() -> FlinkEnv {
    FlinkEnv::new(6)
}

#[test]
fn wordcount_parity() {
    let lines = TextGen::new(TextGenConfig::default(), 1).lines(30_000);
    let expect = wordcount::oracle(&lines);
    assert_eq!(wordcount::run_spark(&sc(), lines.clone(), 6), expect);
    assert_eq!(wordcount::run_flink(&env(), lines), expect);
}

#[test]
fn grep_parity() {
    let config = TextGenConfig {
        needle_selectivity: 0.03,
        ..TextGenConfig::default()
    };
    let needle = config.needle.clone();
    let lines = TextGen::new(config, 2).lines(40_000);
    let expect = grep::oracle(&lines, &needle);
    assert!(expect > 0);
    assert_eq!(grep::run_spark(&sc(), lines.clone(), &needle, 6), expect);
    assert_eq!(grep::run_flink(&env(), lines, &needle), expect);
}

#[test]
fn terasort_parity() {
    let records = TeraGen::new(3).records(30_000);
    let expect: Vec<Vec<u8>> = terasort::oracle(records.clone())
        .iter()
        .map(|r| r.key().to_vec())
        .collect();
    let spark = terasort::run_spark(&sc(), records.clone(), 12);
    terasort::validate_output(records.len(), &spark).unwrap();
    let spark_keys: Vec<Vec<u8>> = spark
        .into_iter()
        .flatten()
        .map(|r| r.key().to_vec())
        .collect();
    assert_eq!(spark_keys, expect);
    let flink = terasort::run_flink(&env(), records.clone(), 12);
    terasort::validate_output(records.len(), &flink).unwrap();
    let flink_keys: Vec<Vec<u8>> = flink
        .into_iter()
        .flatten()
        .map(|r| r.key().to_vec())
        .collect();
    assert_eq!(flink_keys, expect);
}

#[test]
fn kmeans_parity() {
    let mut gen = PointsGen::new(
        PointsConfig {
            clusters: 5,
            box_half_width: 200.0,
            sigma: 4.0,
        },
        4,
    );
    let init = gen.true_centers().to_vec();
    let points = gen.points(20_000);
    let expect = kmeans::oracle(&points, init.clone(), 8);
    let spark = kmeans::run_spark(&sc(), points.clone(), init.clone(), 8, 6);
    let flink = kmeans::run_flink(&env(), points, init, 8);
    for ((e, s), f) in expect.iter().zip(&spark).zip(&flink) {
        assert!((e.x - s.x).abs() < 1e-9 && (e.y - s.y).abs() < 1e-9, "spark drift");
        assert!((e.x - f.x).abs() < 1e-9 && (e.y - f.y).abs() < 1e-9, "flink drift");
    }
}

#[test]
fn pagerank_parity() {
    let mut g = RmatGen::new(10, RmatParams::default(), 17);
    let edges = g.edges(6_000);
    let expect = pagerank::oracle(&edges, 8);
    let spark = pagerank::run_spark(&sc(), &edges, 8, 6);
    let flink = pagerank::run_flink(&env(), &edges, 8, 6).unwrap();
    assert_eq!(spark.len(), expect.len());
    assert_eq!(flink.len(), expect.len());
    for (v, r) in &expect {
        assert!((spark[v] - r).abs() < 1e-9, "spark drift at {v}");
        assert!((flink[v] - r).abs() < 1e-9, "flink drift at {v}");
    }
}

#[test]
fn connected_components_parity_all_variants() {
    let graph = GraphPreset::Medium.scaled(9, 5);
    let expect = connected::oracle(&graph.edges);
    let spark = connected::run_spark(&sc(), &graph.edges, 300, 6);
    assert_eq!(spark, expect);
    for variant in [CcVariant::Bulk, CcVariant::Delta] {
        let flink = connected::run_flink(&env(), &graph.edges, 300, 6, variant, None).unwrap();
        assert_eq!(flink, expect, "{variant:?}");
    }
}

/// Without a driver barrier a fast worker's superstep `r + 1` batch can
/// overtake a slow worker's superstep `r` batch on the way to a third.
/// One vertex that sleeps makes its worker the slow one; supersteps must
/// still never mix — exact labels, ranks within 1e-9 of the oracle.
#[test]
fn a_slow_worker_never_mixes_supersteps() {
    use flowmark_engine::csr::DenseCsr;
    use flowmark_engine::iterate::{vertex_centric, IterationMode, PartitionedGraph};
    use flowmark_workloads::pagerank::DAMPING;

    let edges = RmatGen::new(10, RmatParams::default(), 23).edges(6_000);
    let (ranks, labels) = (pagerank::oracle(&edges, 8), connected::oracle(&edges));
    let nap = |id: u32| {
        if id == 300 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };
    for partitions in [3, 7] {
        let env = FlinkEnv::new(partitions);
        let graph = PartitionedGraph::from_edges(&edges, partitions);
        let n = graph.vertex_count() as f64;
        let got = vertex_centric(
            &env,
            &graph,
            |_| 1.0 / n,
            |v, out| {
                nap(v.id);
                if v.superstep > 0 {
                    *v.value = (1.0 - DAMPING) / n + DAMPING * v.message.unwrap_or(0.0);
                }
                let share = *v.value / v.targets.len() as f64;
                v.targets.iter().for_each(|&t| out.to(t, share));
            },
            |a: f64, b| a + b,
            9,
            IterationMode::Bulk,
        )
        .unwrap();
        assert_eq!(got.len(), ranks.len());
        for (v, r) in &ranks {
            assert!((got[v] - r).abs() < 1e-9, "{partitions} workers: rank({v})");
        }

        let graph = PartitionedGraph::new(DenseCsr::from_edges(&edges).undirected(), partitions);
        let got = vertex_centric(
            &env,
            &graph,
            |v| v,
            |v, out| {
                nap(v.id);
                let lower = v.message.filter(|m| m < v.value);
                if let Some(label) = lower {
                    *v.value = label;
                }
                if lower.is_some() || v.superstep == 0 {
                    v.targets.iter().for_each(|&t| out.to(t, *v.value));
                }
            },
            u64::min,
            300,
            IterationMode::Delta {
                solution_set_budget: None,
            },
        )
        .unwrap();
        assert_eq!(got, labels, "{partitions} workers");
    }
}

#[test]
fn architectural_signatures_hold_while_answers_agree() {
    // The engines agree on results but differ in the architectural
    // signals the paper measures: loop unrolling vs scheduled-once.
    let mut gen = PointsGen::new(PointsConfig::default(), 6);
    let init = gen.true_centers().to_vec();
    let points = gen.points(5_000);
    let sc = sc();
    let env = env();
    let s = kmeans::run_spark(&sc, points.clone(), init.clone(), 6, 6);
    let f = kmeans::run_flink(&env, points, init, 6);
    assert_eq!(s.len(), f.len());
    assert!(
        sc.metrics().tasks_launched() > 6 * env.metrics().tasks_launched(),
        "staged engine must schedule a task wave per round ({} vs {})",
        sc.metrics().tasks_launched(),
        env.metrics().tasks_launched()
    );
}
