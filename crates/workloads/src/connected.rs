//! Connected Components (§III, §VI-E): label propagation to a fixpoint.
//!
//! "In Flink's case, we evaluated a second algorithm expressed using delta
//! iterations in order to assess their speedup over classic bulk
//! iterations" — the delta variant is the headline: "Flink's Connected
//! Components outperforms Spark by a much larger factor ... (up to 30%)
//! mainly because of its efficient delta iteration operator."

use std::collections::HashMap;

use flowmark_core::config::Framework;
use flowmark_dataflow::operator::OperatorKind;
use flowmark_dataflow::plan::{IterationKind, LogicalPlan};
use flowmark_engine::csr::DenseCsr;
use flowmark_engine::flink::FlinkEnv;
use flowmark_engine::graphx::Graph;
use flowmark_engine::iterate::{vertex_centric, IterationMode, PartitionedGraph};
use flowmark_engine::spark::SparkContext;
use flowmark_engine::IterationError;

use crate::costs::{CC_EDGE_NS, CC_WORKSET_DECAY};
use crate::pagerank::{plan_with_decay, GraphScale};

/// Which iteration flavour the Flink side uses (the paper compares both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcVariant {
    /// Classic bulk iterations (full recomputation).
    Bulk,
    /// Delta iterations (workset shrinks every round).
    Delta,
}

/// Builds the annotated simulator plan.
///
/// Spark's GraphX implementation re-joins the full graph every round, so
/// its per-round cost decays only mildly (messages shrink, the join does
/// not); Flink's delta variant decays with the workset.
pub fn plan(fw: Framework, scale: &GraphScale, variant: CcVariant) -> LogicalPlan {
    match (fw, variant) {
        (Framework::Spark, _) => plan_with_decay(fw, scale, IterationKind::Bulk, 0.88, CC_EDGE_NS),
        (Framework::Flink, CcVariant::Bulk) => {
            plan_with_decay(fw, scale, IterationKind::Bulk, 1.0, CC_EDGE_NS)
        }
        (Framework::Flink, CcVariant::Delta) => {
            plan_with_decay(fw, scale, IterationKind::Delta, CC_WORKSET_DECAY, CC_EDGE_NS)
        }
    }
}

/// Table I row.
pub fn operator_table(fw: Framework) -> Vec<OperatorKind> {
    use OperatorKind::*;
    match fw {
        Framework::Spark => vec![Map, Coalesce, MapPartitions, GraphOp, ReduceByKey, DataSink],
        Framework::Flink => vec![
            FlatMap,
            GroupReduce,
            Join,
            CoGroup,
            DeltaIteration,
            DataSink,
        ],
    }
}

/// Runs Connected Components on the pipelined engine: label propagation
/// over the undirected adjacency — adopt the smallest component id seen,
/// notify neighbours on change.
///
/// `budget` caps the solution-set entries (None = unbounded); the cap is
/// the Table VII failure mechanism.
pub fn run_flink(
    env: &FlinkEnv,
    edges: &[(u64, u64)],
    max_rounds: u32,
    partitions: usize,
    variant: CcVariant,
    budget: Option<usize>,
) -> Result<HashMap<u64, u64>, IterationError> {
    let graph = PartitionedGraph::new(DenseCsr::from_edges(edges).undirected(), partitions);
    let mode = match variant {
        CcVariant::Bulk => IterationMode::Bulk,
        CcVariant::Delta => IterationMode::Delta {
            solution_set_budget: budget,
        },
    };
    vertex_centric(
        env,
        &graph,
        |v| v,
        |v, out| {
            let lower = v.message.filter(|m| m < v.value);
            if let Some(label) = lower {
                *v.value = label;
            }
            if lower.is_some() || v.superstep == 0 {
                v.targets.iter().for_each(|&t| out.to(t, *v.value));
            }
        },
        // Component labels fold with `min`: combine before the channel.
        u64::min,
        max_rounds,
        mode,
    )
}

/// Runs Connected Components on the staged engine, GraphX-style: one
/// `aggregate_messages` wave per round over the persisted edge RDD sends
/// each endpoint's label to the other (no undirected closure is built),
/// `min`-combined; the driver unrolls the loop until no label drops.
pub fn run_spark(
    sc: &SparkContext,
    edges: &[(u64, u64)],
    max_rounds: u32,
    partitions: usize,
) -> HashMap<u64, u64> {
    let graph = Graph::load(sc, edges, partitions);
    let mut labels: Vec<u64> = graph.ids.to_vec();
    for _ in 0..max_rounds {
        let current = labels.clone();
        let mins = graph.aggregate_messages(
            move |src, targets, out| {
                for &t in targets {
                    out.to(t, current[src as usize]);
                    out.to(src, current[t as usize]);
                }
            },
            u64::min,
        );
        let mut changed = false;
        for (v, l) in labels.iter_mut().enumerate() {
            if let Some(m) = mins.get(v).filter(|m| m < l) {
                *l = m;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    graph.zip_ids(labels)
}

/// Sequential oracle: union-find.
pub fn oracle(edges: &[(u64, u64)]) -> HashMap<u64, u64> {
    let mut parent: HashMap<u64, u64> = HashMap::new();
    fn find(parent: &mut HashMap<u64, u64>, v: u64) -> u64 {
        let p = *parent.entry(v).or_insert(v);
        if p == v {
            v
        } else {
            let root = find(parent, p);
            parent.insert(v, root);
            root
        }
    }
    for &(s, t) in edges {
        let rs = find(&mut parent, s);
        let rt = find(&mut parent, t);
        if rs != rt {
            // Union by smaller id so labels match label propagation.
            let (lo, hi) = if rs < rt { (rs, rt) } else { (rt, rs) };
            parent.insert(hi, lo);
        }
    }
    let vs: Vec<u64> = parent.keys().copied().collect();
    vs.into_iter()
        .map(|v| {
            let root = find(&mut parent, v);
            (v, root)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmark_datagen::graph::{RmatGen, RmatParams};

    fn test_edges() -> Vec<(u64, u64)> {
        let mut g = RmatGen::new(8, RmatParams::default(), 33);
        g.edges(1500)
    }

    #[test]
    fn all_three_implementations_agree() {
        let edges = test_edges();
        let expect = oracle(&edges);
        let sc = SparkContext::new(4);
        let spark = run_spark(&sc, &edges, 200, 4);
        assert_eq!(spark, expect, "spark differs from union-find");
        let env = FlinkEnv::new(4);
        for variant in [CcVariant::Bulk, CcVariant::Delta] {
            let flink = run_flink(&env, &edges, 200, 4, variant, None).unwrap();
            assert_eq!(flink, expect, "flink {variant:?} differs");
        }
    }

    #[test]
    fn delta_converges_in_fewer_total_messages() {
        // Delta terminates as soon as no labels change; on a long path the
        // iteration count equals the graph diameter either way, but delta
        // stops early once converged.
        let edges: Vec<(u64, u64)> = (0..40).map(|i| (i, i + 1)).collect();
        let env = FlinkEnv::new(2);
        let before = env.metrics().iterations_run();
        let _ = run_flink(&env, &edges, 500, 2, CcVariant::Delta, None).unwrap();
        let delta_rounds = env.metrics().iterations_run() - before;
        assert!(delta_rounds <= 45, "delta ran {delta_rounds} rounds");
    }

    #[test]
    fn solution_set_budget_reproduces_table_vii_failure() {
        let edges = test_edges();
        let env = FlinkEnv::new(2);
        let err = run_flink(&env, &edges, 10, 2, CcVariant::Delta, Some(10)).unwrap_err();
        assert!(matches!(err, IterationError::SolutionSetOom { .. }));
    }

    #[test]
    fn plans_validate_and_flink_delta_is_delta() {
        let scale = GraphScale::medium(23);
        let spark = plan(Framework::Spark, &scale, CcVariant::Delta);
        let flink = plan(Framework::Flink, &scale, CcVariant::Delta);
        assert!(spark.validate().is_ok() && flink.validate().is_ok());
        let spec = flink
            .nodes()
            .iter()
            .find_map(|n| n.iteration.as_ref())
            .unwrap();
        assert_eq!(spec.kind, IterationKind::Delta);
        assert!(spec.workset_decay < 1.0);
        let sspec = spark
            .nodes()
            .iter()
            .find_map(|n| n.iteration.as_ref())
            .unwrap();
        assert_eq!(sspec.kind, IterationKind::Bulk);
    }

    #[test]
    fn oracle_handles_disjoint_components() {
        let edges = vec![(1, 2), (2, 3), (10, 11)];
        let cc = oracle(&edges);
        assert_eq!(cc[&1], 1);
        assert_eq!(cc[&3], 1);
        assert_eq!(cc[&10], 10);
        assert_eq!(cc[&11], 10);
    }
}
