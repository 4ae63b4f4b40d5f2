//! Page Rank (§III, §VI-E): vertex-centric iteration (Gelly) on Flink vs
//! the GraphX standalone implementation on Spark, over the Table IV graphs.
//!
//! The paper's plan shapes (Fig 16): Flink first runs a *count vertices*
//! job ("Flink's implementation will first execute a job to count the
//! vertices, reading the dataset one more time"), then loads the graph
//! (CoGroup builds the vertex state) and runs bulk iterations. Spark loads
//! with `map → coalesce → load graph`, then per-iteration
//! `mapPartitions → foreachPartition` waves.

use std::collections::HashMap;

use flowmark_core::config::Framework;
use flowmark_dataflow::operator::OperatorKind;
use flowmark_dataflow::plan::{CostAnnotation, ExchangeMode, IterationKind, LogicalPlan};
use flowmark_engine::flink::FlinkEnv;
use flowmark_engine::graphx::Graph;
use flowmark_engine::iterate::{vertex_centric, IterationMode, PartitionedGraph};
use flowmark_engine::spark::SparkContext;
use flowmark_engine::IterationError;

use crate::costs::*;

/// Damping factor used by every implementation.
pub const DAMPING: f64 = 0.85;

/// Problem size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphScale {
    /// Vertex count.
    pub vertices: u64,
    /// Edge count.
    pub edges: u64,
    /// Iterations.
    pub iterations: u32,
}

impl GraphScale {
    /// Small graph (Table IV), 20 Page Rank iterations (Fig 16).
    pub fn small(iterations: u32) -> Self {
        Self {
            vertices: 24_700_000,
            edges: 800_000_000,
            iterations,
        }
    }

    /// Medium graph (Table IV).
    pub fn medium(iterations: u32) -> Self {
        Self {
            vertices: 65_600_000,
            edges: 1_800_000_000,
            iterations,
        }
    }

    /// Large graph (Table IV); Table VII runs 5 PR iterations.
    pub fn large(iterations: u32) -> Self {
        Self {
            vertices: 1_700_000_000,
            edges: 64_000_000_000,
            iterations,
        }
    }
}

/// Builds the annotated simulator plan (load + iterate + save).
pub fn plan(fw: Framework, scale: &GraphScale) -> LogicalPlan {
    plan_with_decay(fw, scale, IterationKind::Bulk, 1.0, PR_EDGE_NS)
}

/// Shared plan builder for PR (bulk) and CC (delta on Flink); `edge_ns` is
/// the per-edge-per-round user CPU cost (PR and CC differ).
pub(crate) fn plan_with_decay(
    fw: Framework,
    scale: &GraphScale,
    kind: IterationKind,
    decay: f64,
    edge_ns: f64,
) -> LogicalPlan {
    let e = scale.edges;
    let v = scale.vertices;
    let v_over_e = v as f64 / e as f64;

    // Per-round body: scatter along edges, gather per vertex.
    let mut body = LogicalPlan::new();
    let cached = body.source_cached(e, 8.0);
    let scatter = body.unary(
        cached,
        OperatorKind::GraphOp,
        CostAnnotation::new(1.0, edge_ns, GRAPH_MSG_BYTES),
    );
    match fw {
        Framework::Spark => {
            body.unary(
                scatter,
                OperatorKind::ReduceByKey,
                CostAnnotation::new(v_over_e, 300.0, GRAPH_VERTEX_BYTES),
            );
        }
        Framework::Flink => {
            body.unary(
                scatter,
                OperatorKind::GroupReduce,
                CostAnnotation::new(v_over_e, 300.0, GRAPH_VERTEX_BYTES),
            );
        }
    }

    let mut p = LogicalPlan::new();
    match fw {
        Framework::Spark => {
            // LD = Map -> Coalesce -> Load Graph (Fig 16 right).
            let src = p.source(e, GRAPH_EDGE_TEXT_BYTES);
            let parse = p.unary(
                src,
                OperatorKind::Map,
                CostAnnotation::new(1.0, GRAPH_PARSE_NS, 16.0),
            );
            let co = p.unary(
                parse,
                OperatorKind::Coalesce,
                CostAnnotation::new(1.0, 200.0, 16.0),
            );
            let load = p.unary_via(
                co,
                ExchangeMode::HashShuffle,
                OperatorKind::GraphOp,
                CostAnnotation::new(1.0, GRAPH_BUILD_NS, 16.0),
            );
            let it = p.iterate(load, kind, scale.iterations, body, decay);
            p.unary(
                it,
                OperatorKind::DataSink,
                CostAnnotation::new(v_over_e, 200.0, GRAPH_VERTEX_BYTES),
            );
        }
        Framework::Flink => {
            // CV: count vertices — a full extra read of the dataset.
            let cv_src = p.source(e, GRAPH_EDGE_TEXT_BYTES);
            let cv_fm = p.unary(
                cv_src,
                OperatorKind::FlatMap,
                CostAnnotation::new(2.0, GRAPH_PARSE_NS, 8.0),
            );
            let cv_d = p.unary(
                cv_fm,
                OperatorKind::Distinct,
                CostAnnotation::new(v as f64 / (2.0 * e as f64), 200.0, 8.0),
            );
            p.unary(cv_d, OperatorKind::Collect, CostAnnotation::new(1e-9, 20.0, 8.0));
            // LD: load graph, CoGroup builds the vertex state in memory.
            let src = p.source(e, GRAPH_EDGE_TEXT_BYTES);
            let parse = p.unary(
                src,
                OperatorKind::FlatMap,
                CostAnnotation::new(1.0, GRAPH_PARSE_NS, 16.0),
            );
            let adj = p.unary(
                parse,
                OperatorKind::GroupReduce,
                CostAnnotation::new(v_over_e, GRAPH_BUILD_NS, 24.0),
            );
            let ranks = p.source_cached(v, GRAPH_VERTEX_BYTES);
            let cg = p.binary(
                (adj, ExchangeMode::Forward),
                (ranks, ExchangeMode::HashShuffle),
                OperatorKind::CoGroup,
                CostAnnotation::new(1.0, 400.0, 24.0),
            );
            let it = p.iterate(cg, kind, scale.iterations, body, decay);
            p.unary(
                it,
                OperatorKind::DataSink,
                CostAnnotation::new(v_over_e, 200.0, GRAPH_VERTEX_BYTES),
            );
        }
    }
    p
}

/// Table I row.
pub fn operator_table(fw: Framework) -> Vec<OperatorKind> {
    use OperatorKind::*;
    match fw {
        Framework::Spark => vec![Map, Coalesce, MapPartitions, GraphOp, DataSink],
        Framework::Flink => vec![FlatMap, GroupReduce, CoGroup, GraphOp, BulkIteration, DataSink],
    }
}

/// Runs Page Rank on the pipelined engine's native vertex-centric runtime.
pub fn run_flink(
    env: &FlinkEnv,
    edges: &[(u64, u64)],
    iterations: u32,
    partitions: usize,
) -> Result<HashMap<u64, f64>, IterationError> {
    let graph = PartitionedGraph::from_edges(edges, partitions);
    let n = graph.vertex_count() as f64;
    let base = (1.0 - DAMPING) / n;
    vertex_centric(
        env,
        &graph,
        |_| 1.0 / n,
        // Superstep 0 only scatters the initial ranks; each later one
        // re-ranks from the gathered shares first — no share still re-ranks
        // to `base`, like the oracle's vertices without in-edges.
        move |v, out| {
            if v.superstep > 0 {
                *v.value = base + DAMPING * v.message.unwrap_or(0.0);
            }
            let share = *v.value / v.targets.len() as f64;
            v.targets.iter().for_each(|&t| out.to(t, share));
        },
        // Rank shares fold with `+`: combine before the channel.
        |a: f64, b| a + b,
        iterations + 1, // superstep 0 is the initial scatter
        IterationMode::Bulk,
    )
}

/// Runs Page Rank on the staged engine, GraphX-style: the graph is loaded
/// once into a persisted edge RDD and every iteration is one
/// `aggregate_messages` wave (loop unrolling) — ranks are broadcast, shares
/// summed per destination on the map side, shuffled and merged.
pub fn run_spark(
    sc: &SparkContext,
    edges: &[(u64, u64)],
    iterations: u32,
    partitions: usize,
) -> HashMap<u64, f64> {
    let graph = Graph::load(sc, edges, partitions);
    let n = graph.ids.len() as f64;
    let base = (1.0 - DAMPING) / n;
    let mut ranks = vec![1.0 / n; graph.ids.len()];
    for _ in 0..iterations {
        let current = ranks.clone();
        let sums = graph.aggregate_messages(
            move |src, targets, out| {
                let share = current[src as usize] / targets.len() as f64;
                for &t in targets {
                    out.to(t, share);
                }
            },
            |a: f64, b| a + b,
        );
        for (v, r) in ranks.iter_mut().enumerate() {
            *r = base + DAMPING * sums.get(v).unwrap_or(0.0);
        }
    }
    graph.zip_ids(ranks)
}

/// Sequential oracle.
pub fn oracle(edges: &[(u64, u64)], iterations: u32) -> HashMap<u64, f64> {
    let mut adj: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(s, t) in edges {
        adj.entry(s).or_default().push(t);
        adj.entry(t).or_default();
    }
    let n = adj.len() as f64;
    let base = (1.0 - DAMPING) / n;
    let mut ranks: HashMap<u64, f64> = adj.keys().map(|&v| (v, 1.0 / n)).collect();
    for _ in 0..iterations {
        let mut sums: HashMap<u64, f64> = HashMap::new();
        for (v, ns) in &adj {
            if ns.is_empty() {
                continue;
            }
            let share = ranks[v] / ns.len() as f64;
            for t in ns {
                *sums.entry(*t).or_insert(0.0) += share;
            }
        }
        for (v, r) in ranks.iter_mut() {
            *r = base + DAMPING * sums.get(v).copied().unwrap_or(0.0);
        }
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmark_datagen::graph::{RmatGen, RmatParams};

    fn test_edges() -> Vec<(u64, u64)> {
        let mut g = RmatGen::new(9, RmatParams::default(), 21);
        let mut edges = g.edges(4000);
        edges.dedup();
        edges
    }

    fn ranks_close(a: &HashMap<u64, f64>, b: &HashMap<u64, f64>, tol: f64) -> bool {
        a.len() == b.len()
            && a.iter().all(|(v, r)| (b.get(v).copied().unwrap_or(f64::NAN) - r).abs() < tol)
    }

    #[test]
    fn flink_vertex_centric_matches_oracle() {
        // The Flink path iterates vertex-centrically; with the same fixed
        // round count it must agree with the oracle.
        let edges = test_edges();
        let expect = oracle(&edges, 10);
        let env = FlinkEnv::new(4);
        let flink = run_flink(&env, &edges, 10, 4).unwrap();
        assert!(ranks_close(&flink, &expect, 1e-9), "flink drifted");
    }

    #[test]
    fn spark_aggregate_messages_loop_matches_oracle() {
        let edges = test_edges();
        let expect = oracle(&edges, 10);
        let sc = SparkContext::new(4);
        let spark = run_spark(&sc, &edges, 10, 4);
        assert!(ranks_close(&spark, &expect, 1e-9), "spark drifted");
    }

    #[test]
    fn ranks_sum_to_roughly_one() {
        let edges = test_edges();
        let ranks = oracle(&edges, 15);
        let total: f64 = ranks.values().sum();
        // Dangling mass leaks a little; stays in (0.5, 1.001).
        assert!(total > 0.5 && total < 1.001, "total {total}");
    }

    #[test]
    fn high_degree_vertices_rank_higher() {
        let edges = test_edges();
        let ranks = oracle(&edges, 15);
        let mut indeg: HashMap<u64, u64> = HashMap::new();
        for &(_, t) in &edges {
            *indeg.entry(t).or_default() += 1;
        }
        let hottest = indeg.iter().max_by_key(|(_, d)| **d).unwrap().0;
        let coldest = ranks
            .keys()
            .find(|v| indeg.get(v).copied().unwrap_or(0) == 0)
            .expect("some vertex without in-edges");
        assert!(ranks[hottest] > ranks[coldest]);
    }

    #[test]
    fn plans_validate_and_flink_counts_vertices_first() {
        let scale = GraphScale::small(20);
        let spark = plan(Framework::Spark, &scale);
        let flink = plan(Framework::Flink, &scale);
        assert!(spark.validate().is_ok() && flink.validate().is_ok());
        // Flink reads the dataset twice (count-vertices job + load).
        let flink_sources = flink
            .nodes()
            .iter()
            .filter(|n| n.op == OperatorKind::DataSource)
            .count();
        let spark_sources = spark
            .nodes()
            .iter()
            .filter(|n| n.op == OperatorKind::DataSource)
            .count();
        assert_eq!(flink_sources, 2);
        assert_eq!(spark_sources, 1);
        assert!(flink.nodes().iter().any(|n| n.op == OperatorKind::CoGroup));
    }
}
