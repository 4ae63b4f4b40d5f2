//! Social-graph analytics: Page Rank and Connected Components on a scaled
//! Twitter-like graph (Table IV's Small preset), on both engines, with the
//! delta-vs-bulk iteration comparison and the solution-set OOM failure mode
//! from Table VII demonstrated live.
//!
//! ```text
//! cargo run --release --example social_graph
//! ```

use flowmark_datagen::graph::GraphPreset;
use flowmark_engine::{FlinkEnv, SparkContext};
use flowmark_workloads::connected::{self, CcVariant};
use flowmark_workloads::pagerank;

fn main() {
    // A laptop-scale instance of the Small (Twitter) graph preserving its
    // edge/vertex ratio (~32 edges per vertex).
    let graph = GraphPreset::Small.scaled(13, 99);
    println!(
        "scaled {} graph: {} vertices, {} edges (paper scale: {}M vertices / {}B edges)\n",
        graph.preset.name(),
        graph.vertices,
        graph.edges.len(),
        GraphPreset::Small.vertices() / 1_000_000,
        GraphPreset::Small.edges() / 1_000_000_000,
    );

    // ---- Page Rank on both engines ----------------------------------------
    let env = FlinkEnv::new(8);
    let t = std::time::Instant::now();
    let flink_ranks = pagerank::run_flink(&env, &graph.edges, 10, 8).expect("fits in memory");
    println!(
        "Flink-style vertex-centric Page Rank: {} ranks in {:?} ({} worker deployments)",
        flink_ranks.len(),
        t.elapsed(),
        env.metrics().tasks_launched()
    );

    let sc = SparkContext::new(8);
    let t = std::time::Instant::now();
    let spark_ranks = pagerank::run_spark(&sc, &graph.edges, 10, 8);
    println!(
        "Spark-style join-loop Page Rank:      {} ranks in {:?} ({} task launches — loop unrolling)",
        spark_ranks.len(),
        t.elapsed(),
        sc.metrics().tasks_launched()
    );
    let max_diff = flink_ranks
        .iter()
        .map(|(v, r)| (spark_ranks[v] - r).abs())
        .fold(0.0f64, f64::max);
    assert!(max_diff < 1e-9, "engines disagree by {max_diff}");
    let mut top: Vec<_> = flink_ranks.iter().collect();
    top.sort_by(|a, b| b.1.partial_cmp(a.1).expect("finite"));
    println!("top influencers: {:?}\n", &top[..3.min(top.len())]);

    // ---- Connected Components: delta vs bulk ------------------------------
    let env2 = FlinkEnv::new(8);
    let before = env2.metrics().iterations_run();
    let bulk = connected::run_flink(&env2, &graph.edges, 200, 8, CcVariant::Bulk, None).unwrap();
    let bulk_rounds = env2.metrics().iterations_run() - before;
    let before = env2.metrics().iterations_run();
    let delta = connected::run_flink(&env2, &graph.edges, 200, 8, CcVariant::Delta, None).unwrap();
    let delta_rounds = env2.metrics().iterations_run() - before;
    assert_eq!(bulk, delta);
    let components: std::collections::HashSet<_> = delta.values().collect();
    println!(
        "Connected Components: {} components over {} vertices; bulk ran {} supersteps, delta {} (early convergence)",
        components.len(),
        delta.len(),
        bulk_rounds,
        delta_rounds
    );

    // ---- Table VII's failure mode, in miniature ---------------------------
    let tiny_budget = graph.vertices as usize / 2;
    let err = connected::run_flink(&env2, &graph.edges, 10, 8, CcVariant::Delta, Some(tiny_budget))
        .unwrap_err();
    println!(
        "\nwith an under-provisioned solution set, the delta iteration dies \
         exactly like the paper's 27/44-node runs:\n  {err}"
    );
}
