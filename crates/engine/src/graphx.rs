//! A GraphX-like graph layer on the staged engine.
//!
//! GraphX "is a graph processing framework in a distributed dataflow
//! system" built on RDDs (paper ref. \[33\]); its iterations are
//! driver-loop unrolled (§II-C). This module is that layer for the staged
//! engine. A [`Graph`] is a **persisted RDD of CSR edge partitions** over
//! dense vertex ids, loaded once; one superstep is one
//! [`Graph::aggregate_messages`] wave over it — map tasks scan their rows
//! against vertex values the driver broadcast by `Arc` and combine messages
//! per destination, a sealed batch exchange moves them, reduce tasks merge,
//! the driver collects. [`pregel`] and the Page Rank / Connected Components
//! workloads are driver loops around that wave, producing the per-iteration
//! task waves of Figs 10/16/17 while computing the same fixpoints as the
//! pipelined engine's native [`crate::iterate::vertex_centric`].

use std::collections::HashMap;
use std::sync::Arc;

use crate::cache::StorageLevel;
use crate::csr::{DenseCsr, EdgePartition};
use crate::messages::{slots_per_partition, Lane, MessageTable, Outbox};
use crate::spark::{Rdd, SparkContext};

/// A graph resident on the staged engine (GraphX caches the graph).
pub struct Graph {
    sc: SparkContext,
    /// Vertex ids, ascending; position = dense id. Vertex `v` is owned by
    /// reduce partition `v / slots`, at slot `v % slots`.
    pub ids: Arc<Vec<u64>>,
    edges: Rdd<EdgePartition>,
    slots: usize,
}

impl Graph {
    /// Loads an edge list: builds the dense-id CSR, cuts its rows into
    /// `partitions` edge partitions and persists them as an RDD.
    pub fn load(sc: &SparkContext, edges: &[(u64, u64)], partitions: usize) -> Self {
        let csr = DenseCsr::from_edges(edges);
        let edges = sc
            .parallelize(csr.cut(partitions), partitions)
            .persist(StorageLevel::MemoryOnly);
        // Materialise now, so every superstep — the first included — is
        // served from the block cache.
        edges.count();
        Self {
            sc: sc.clone(),
            slots: slots_per_partition(csr.vertices(), partitions),
            ids: Arc::new(csr.ids),
            edges,
        }
    }

    /// One superstep, GraphX's `aggregateMessages`: a map task per edge
    /// partition calls `send(src, all its out-neighbours, outbox)` for each
    /// of its rows — `send` reads vertex values from whatever it captured,
    /// the broadcast — and ships one combined batch per destination
    /// partition through the sealed exchange; a reduce task per vertex
    /// partition merges them. The result is indexed by dense vertex id.
    /// Combining on the map side *is* the sender-side message combining,
    /// counted into `messages_combined`.
    pub fn aggregate_messages<M, S, F>(&self, send: S, merge: F) -> MessageTable<M>
    where
        M: Lane,
        S: Fn(u32, &[u32], &mut Outbox<'_, M, F>) + Send + Sync + 'static,
        F: Fn(M, M) -> M + Send + Sync + 'static,
    {
        let partitions = self.edges.num_partitions();
        let slots = self.slots;
        let merge = Arc::new(merge);
        let combine = Arc::clone(&merge);
        let metrics = self.sc.metrics().clone();
        let merged = self
            .edges
            .map_partitions(move |parts| {
                let mut out = Outbox::new(partitions * slots, &*combine);
                for (src, targets) in parts.iter().flat_map(EdgePartition::rows) {
                    send(src, targets, &mut out);
                }
                let table = out.table();
                metrics.add_messages_combined((out.sent() - table.count()) as u64);
                (0..partitions)
                    .filter_map(|d| Some((d, table.encode(d * slots..(d + 1) * slots)?)))
                    .collect()
            })
            .exchange_by_index_with(partitions, move |batches| {
                let mut table = MessageTable::new(slots);
                for batch in &batches {
                    table.absorb(batch, &*merge);
                }
                vec![table.into_dense()]
            })
            .collect();
        self.sc.metrics().add_iterations_run(1);
        MessageTable::from_dense_ranges(&merged)
    }

    /// Pairs per-vertex results with their vertex ids.
    pub fn zip_ids<V>(&self, values: Vec<V>) -> HashMap<u64, V> {
        self.ids.iter().copied().zip(values).collect()
    }
}

/// A Pregel vertex program for the staged engine.
///
/// Per superstep, for every vertex with incoming messages (every vertex in
/// superstep 0): `(vertex, current value, merged message) → new value`;
/// then `scatter` decides the outgoing messages along each edge.
pub struct PregelProgram<VV, M> {
    /// Initial value per vertex.
    pub init: Arc<dyn Fn(u64) -> VV + Send + Sync>,
    /// Merges two messages destined for the same vertex.
    pub merge: Arc<dyn Fn(M, M) -> M + Send + Sync>,
    /// Applies the merged message: returns the new value.
    pub apply: Arc<dyn Fn(u64, &VV, &M) -> VV + Send + Sync>,
    /// Message sent along `(src, dst)` given the source's value; `None`
    /// sends nothing.
    pub scatter: Arc<dyn Fn(u64, &VV, u64) -> Option<M> + Send + Sync>,
    /// Initial message delivered to every vertex in superstep 0.
    pub initial_message: M,
}

/// Runs a Pregel computation with driver-side loop unrolling: each
/// superstep applies the inbox on the driver (GraphX's `joinVertices`) and
/// scatters from the vertices whose value changed in a fresh
/// [`Graph::aggregate_messages`] wave over the persisted edge RDD.
///
/// Stops when no messages flow or after `max_rounds`.
pub fn pregel<VV, M>(
    sc: &SparkContext,
    edges: &[(u64, u64)],
    partitions: usize,
    max_rounds: u32,
    program: PregelProgram<VV, M>,
) -> HashMap<u64, VV>
where
    VV: Clone + PartialEq + Send + Sync + 'static,
    M: Lane,
{
    let graph = Graph::load(sc, edges, partitions);
    let nv = graph.ids.len();
    let mut values: Vec<VV> = graph.ids.iter().map(|&v| (program.init)(v)).collect();
    // `None` is superstep 0: the initial message, delivered everywhere.
    let mut inbox: Option<MessageTable<M>> = None;
    for _ in 0..max_rounds {
        // Only vertices whose value actually changed scatter next —
        // Pregel's halting rule (round 0 scatters unconditionally).
        let mut changed: Vec<Option<VV>> = vec![None; nv];
        for i in 0..nv {
            let Some(m) = inbox
                .as_ref()
                .map_or(Some(program.initial_message), |t| t.get(i))
            else {
                continue;
            };
            let new = (program.apply)(graph.ids[i], &values[i], &m);
            if inbox.is_none() || new != values[i] {
                values[i] = new.clone();
                changed[i] = Some(new);
            }
        }
        if changed.iter().all(Option::is_none) {
            break;
        }
        let (ids, scatter) = (Arc::clone(&graph.ids), Arc::clone(&program.scatter));
        let merge = Arc::clone(&program.merge);
        let messages = graph.aggregate_messages(
            move |src, targets, out| {
                if let Some(value) = &changed[src as usize] {
                    for &t in targets {
                        if let Some(m) = scatter(ids[src as usize], value, ids[t as usize]) {
                            out.to(t, m);
                        }
                    }
                }
            },
            move |a, b| merge(a, b),
        );
        if messages.count() == 0 {
            break;
        }
        inbox = Some(messages);
    }
    graph.zip_ids(values)
}

/// Single-source shortest paths via [`pregel`] (unweighted).
pub fn sssp(
    sc: &SparkContext,
    edges: &[(u64, u64)],
    source: u64,
    partitions: usize,
    max_rounds: u32,
) -> HashMap<u64, u64> {
    let program = PregelProgram::<u64, u64> {
        init: Arc::new(move |v| if v == source { 0 } else { u64::MAX }),
        merge: Arc::new(u64::min),
        apply: Arc::new(|_, old, msg| (*old).min(*msg)),
        scatter: Arc::new(|_, value, _| (*value != u64::MAX).then(|| value + 1)),
        initial_message: u64::MAX,
    };
    // The generic driver scatters only from vertices whose value changed;
    // with `merge = min` that is exactly the SSSP frontier after round 0.
    pregel(sc, edges, partitions, max_rounds, program)
}

/// Connected components via [`pregel`] (minimum-label propagation).
pub fn connected_components(
    sc: &SparkContext,
    edges: &[(u64, u64)],
    partitions: usize,
    max_rounds: u32,
) -> HashMap<u64, u64> {
    // CC needs the undirected closure.
    let sym: Vec<(u64, u64)> = edges.iter().flat_map(|&(s, t)| [(s, t), (t, s)]).collect();
    let program = PregelProgram::<u64, u64> {
        init: Arc::new(|v| v),
        merge: Arc::new(u64::min),
        apply: Arc::new(|_, old, msg| (*old).min(*msg)),
        scatter: Arc::new(|_, value, _| Some(*value)),
        initial_message: u64::MAX,
    };
    pregel(sc, &sym, partitions, max_rounds, program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Setup;
    use crate::faults::{FaultConfig, FaultPlan};
    use crate::flink::FlinkEnv;
    use crate::gelly;
    use flowmark_core::config::EngineConfig;

    fn sc() -> SparkContext {
        SparkContext::new(4)
    }

    #[test]
    fn pregel_sssp_matches_bfs_oracle() {
        let edges = vec![(0u64, 1), (0, 2), (1, 3), (2, 3), (3, 4), (7, 8)];
        let got = sssp(&sc(), &edges, 0, 4, 50);
        let expect = gelly::bfs_oracle(&edges, 0);
        assert_eq!(got, expect);
    }

    #[test]
    fn both_graph_libraries_agree_on_sssp() {
        let edges = random_edges(9, 600, 120);
        let staged = sssp(&sc(), &edges, 0, 4, 200);
        let env = FlinkEnv::new(4);
        let pipelined = gelly::sssp(&env, &edges, 0, 4, 200).unwrap();
        assert_eq!(staged, pipelined, "GraphX-style and Gelly-style disagree");
    }

    #[test]
    fn pregel_cc_matches_union_find() {
        let edges = vec![(1u64, 2), (2, 3), (10, 11), (11, 12), (12, 10)];
        let got = connected_components(&sc(), &edges, 4, 100);
        assert_eq!(got[&1], 1);
        assert_eq!(got[&3], 1);
        assert_eq!(got[&10], 10);
        assert_eq!(got[&12], 10);
    }

    #[test]
    fn pregel_unrolls_a_task_wave_per_superstep() {
        let edges: Vec<(u64, u64)> = (0..30).map(|i| (i, i + 1)).collect();
        let ctx = sc();
        let before = ctx.metrics().tasks_launched();
        let _ = sssp(&ctx, &edges, 0, 4, 100);
        let rounds = ctx.metrics().iterations_run();
        assert!(
            rounds >= 30,
            "a 30-hop path needs ≥30 supersteps, ran {rounds}"
        );
        // Loop unrolling: tasks grow with rounds (≥ partitions per round).
        assert!(
            ctx.metrics().tasks_launched() - before >= rounds * 4,
            "launched {} for {} rounds",
            ctx.metrics().tasks_launched() - before,
            rounds
        );
    }

    /// A context at parallelism 4 under `faults`.
    fn armed(faults: FaultConfig) -> SparkContext {
        crate::faults::install_quiet_hook();
        let config = EngineConfig::with_parallelism(4);
        Setup { faults: FaultPlan::new(faults), ..Setup::from(config) }.spark()
    }

    fn random_edges(seed: u64, n: usize, ids: u64) -> Vec<(u64, u64)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (rng.gen_range(0..ids), rng.gen_range(0..ids)))
            .collect()
    }

    #[test]
    fn a_kill_inside_a_superstep_wave_recomputes_only_the_lost_partition() {
        let edges = random_edges(3, 2_000, 300);
        let mut in_degree: HashMap<u64, u64> = HashMap::new();
        for &(_, t) in &edges {
            *in_degree.entry(t).or_default() += 1;
        }
        let ctx = armed(FaultConfig::chaos(21));
        let graph = Graph::load(&ctx, &edges, 4);
        // The guaranteed first kill landed in the load wave; what
        // follows are kills inside superstep waves.
        let loaded = ctx.metrics().snapshot();
        for _ in 0..40 {
            let counts = graph.aggregate_messages(
                |_, targets, out| targets.iter().for_each(|&t| out.to(t, 1u64)),
                |a, b| a + b,
            );
            for (v, id) in graph.ids.iter().enumerate() {
                assert_eq!(counts.get(v), in_degree.get(id).copied(), "vertex {id}");
            }
        }
        let end = ctx.metrics().snapshot();
        let kills = end.recovery.injected_failures - loaded.recovery.injected_failures;
        let recomputed = end.recovery.partitions_recomputed - loaded.recovery.partitions_recomputed;
        assert!(kills >= 1, "no kill landed inside a wave");
        assert!(
            (1..=kills).contains(&recomputed),
            "{kills} kills recomputed {recomputed} partitions"
        );
        assert_eq!(
            end.recovery.task_retries,
            end.recovery.partitions_recomputed
        );
        assert_eq!(end.recovery.region_restarts, 0);
        // The retried map task re-reads its edge partition from the
        // block cache: the persisted graph is never rebuilt.
        assert_eq!(end.cache_misses, loaded.cache_misses);
        assert!(end.cache_hits > loaded.cache_hits);
    }

    #[test]
    fn a_rotten_message_batch_is_detected_and_recomputed() {
        let edges = random_edges(9, 600, 120);
        let expect = gelly::bfs_oracle(&edges, 0);
        let ctx = armed(FaultConfig::corruption(33));
        assert_eq!(sssp(&ctx, &edges, 0, 4, 200), expect);
        let rec = ctx.metrics().recovery();
        assert!(rec.batches_checksummed > 0);
        assert!(rec.corruptions_detected >= 1, "rot went unnoticed");
        assert!(rec.integrity_recomputes >= 1, "detection must recompute");
        assert_eq!(
            rec.region_restarts, 0,
            "staged recovery is lineage, not regions"
        );
    }

    #[test]
    fn pregel_converges_and_stops_early() {
        let edges = vec![(0u64, 1), (1, 0)];
        let ctx = sc();
        let _ = connected_components(&ctx, &edges, 2, 10_000);
        assert!(ctx.metrics().iterations_run() < 10);
    }
}
