//! A Gelly-like graph algorithm library over the vertex-centric runtime.
//!
//! The paper evaluates graph workloads through each framework's graph
//! library (Gelly on Flink, GraphX on Spark, §III). This module is the
//! Gelly-equivalent layer: ready-made algorithms expressed as vertex
//! programs on [`crate::iterate::vertex_centric`], so downstream users get
//! graph analytics without writing supersteps by hand. (The paper's two
//! algorithms, Page Rank and Connected Components, live in
//! `flowmark-workloads`; this module adds the neighbouring algorithms a
//! graph library ships.)

use std::collections::HashMap;

use crate::csr::DenseCsr;
use crate::flink::FlinkEnv;
use crate::iterate::{vertex_centric, IterationError, IterationMode, PartitionedGraph};

/// Out-degree of every vertex (Gelly's `outDegrees`, used by Page Rank's
/// setup phase), read straight off the offsets CSR construction computes.
pub fn out_degrees(edges: &[(u64, u64)]) -> HashMap<u64, u64> {
    let csr = DenseCsr::from_edges(edges);
    let degrees = csr.offsets.windows(2).map(|w| u64::from(w[1] - w[0]));
    csr.ids.iter().copied().zip(degrees).collect()
}

/// Single-source shortest paths on an unweighted directed graph, as a
/// delta-style vertex-centric iteration: a vertex relaxes when a shorter
/// distance arrives and notifies its out-neighbours.
///
/// Returns `u64::MAX` for unreachable vertices.
pub fn sssp(
    env: &FlinkEnv,
    edges: &[(u64, u64)],
    source: u64,
    partitions: usize,
    max_rounds: u32,
) -> Result<HashMap<u64, u64>, IterationError> {
    let graph = PartitionedGraph::from_edges(edges, partitions);
    vertex_centric(
        env,
        &graph,
        |v| if v == source { 0u64 } else { u64::MAX },
        |v, out| {
            let relaxed = v.message.filter(|m| m < v.value);
            if let Some(shorter) = relaxed {
                *v.value = shorter;
            }
            // On the first superstep only the source scatters.
            if relaxed.is_some() || (v.superstep == 0 && *v.value == 0) {
                v.targets.iter().for_each(|&t| out.to(t, *v.value + 1));
            }
        },
        // Distances fold with `min`: combine before the channel.
        u64::min,
        max_rounds,
        IterationMode::Delta {
            solution_set_budget: None,
        },
    )
}

/// Reference BFS used to validate [`sssp`].
pub fn bfs_oracle(edges: &[(u64, u64)], source: u64) -> HashMap<u64, u64> {
    let mut adj: HashMap<u64, Vec<u64>> = HashMap::new();
    for &(s, t) in edges {
        adj.entry(s).or_default().push(t);
        adj.entry(t).or_default();
    }
    let mut dist: HashMap<u64, u64> = adj.keys().map(|&v| (v, u64::MAX)).collect();
    if !dist.contains_key(&source) {
        return dist;
    }
    dist.insert(source, 0);
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        let d = dist[&v];
        if let Some(ns) = adj.get(&v) {
            for &t in ns {
                if dist[&t] == u64::MAX {
                    dist.insert(t, d + 1);
                    queue.push_back(t);
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Vec<(u64, u64)> {
        // 0 → 1 → 3, 0 → 2 → 3 → 4; 9 isolated via self-reference-free entry.
        vec![(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (9, 9)]
    }

    #[test]
    fn out_degrees_counts_sources_and_registers_sinks() {
        let d = out_degrees(&diamond());
        assert_eq!(d[&0], 2);
        assert_eq!(d[&3], 1);
        assert_eq!(d[&4], 0);
    }

    #[test]
    fn sssp_matches_bfs_on_diamond() {
        let env = FlinkEnv::new(3);
        let edges = diamond();
        let got = sssp(&env, &edges, 0, 3, 50).unwrap();
        let expect = bfs_oracle(&edges, 0);
        assert_eq!(got, expect);
        assert_eq!(got[&0], 0);
        assert_eq!(got[&3], 2);
        assert_eq!(got[&4], 3);
        assert_eq!(got[&9], u64::MAX, "unreachable stays at infinity");
    }

    #[test]
    fn sssp_matches_bfs_on_random_graph() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
        let edges: Vec<(u64, u64)> = (0..800)
            .map(|_| (rng.gen_range(0..150u64), rng.gen_range(0..150u64)))
            .collect();
        let env = FlinkEnv::new(4);
        let got = sssp(&env, &edges, 0, 4, 200).unwrap();
        let expect = bfs_oracle(&edges, 0);
        assert_eq!(got, expect);
    }

    #[test]
    fn sssp_from_missing_source_is_all_unreachable() {
        let env = FlinkEnv::new(2);
        let got = sssp(&env, &diamond(), 12345, 2, 10).unwrap();
        assert!(got.values().all(|&d| d == u64::MAX));
    }

    #[test]
    fn sssp_converges_early_in_delta_mode() {
        // A short path graph must stop well before max_rounds.
        let env = FlinkEnv::new(2);
        let before = env.metrics().iterations_run();
        let _ = sssp(&env, &diamond(), 0, 2, 1000).unwrap();
        assert!(env.metrics().iterations_run() - before < 10);
    }
}
