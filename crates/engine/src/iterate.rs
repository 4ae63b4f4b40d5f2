//! Native iteration operators (Flink §II-C).
//!
//! "Flink executes iterations as cyclic data flows ... a data flow program
//! (and all its operators) is scheduled just once and the data is fed back
//! from the tail of an iteration to its head. Since operators are just
//! scheduled once, they can maintain a state over all iterations."
//!
//! Two runtimes:
//!
//! - [`bulk_iterate`] — the K-Means shape: per-round broadcast state,
//!   per-partition partial aggregation, merge at the iteration barrier
//!   (Flink's `BulkIteration` + `withBroadcastSet` + reduce);
//! - [`vertex_centric`] — the Gelly shape for Page Rank / Connected
//!   Components, in [`IterationMode::Bulk`] (every vertex active every
//!   round) or [`IterationMode::Delta`] (only message recipients active;
//!   the **solution set** lives in worker-local state and, like Flink's
//!   CoGroup-managed solution set, *must fit in memory* — exceeding the
//!   configured budget aborts with [`IterationError::SolutionSetOom`],
//!   reproducing Table VII's failures).
//!
//! Workers are OS threads deployed **once**; the `tasks_launched` metric
//! therefore stays at the worker count no matter how many rounds run — the
//! observable difference from the staged engine's loop unrolling.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crossbeam::channel::{bounded, Receiver, Sender};

use flowmark_dataflow::partitioner::fxhash;

use crate::csr::DenseCsr;
use crate::faults::FaultPlan;
use crate::flink::FlinkEnv;
use crate::hash::{fx_map_with_capacity, FxHashMap};
use crate::memory::BufferPool;
use crate::metrics::EngineMetrics;

/// Driver-side fault handling shared by both iteration runtimes: decides,
/// per superstep, whether to inject a straggler pause or a failure that
/// rewinds to the last checkpoint. Tracks per-round attempts so replay
/// always makes progress (probability kills fire on first tries only).
struct RoundFaults {
    plan: FaultPlan,
    stage: u64,
    attempts: HashMap<u32, u32>,
}

impl RoundFaults {
    fn new(plan: FaultPlan, stage: u64) -> Self {
        Self {
            plan,
            stage,
            attempts: HashMap::new(),
        }
    }

    /// Runs the pre-round injection sequence. Returns `true` when an
    /// injected failure fired and the caller must restore the last
    /// checkpoint and replay.
    fn before_round(&mut self, metrics: &EngineMetrics, round: u32) -> bool {
        if !self.plan.active() {
            return false;
        }
        if let Some(delay) = self.plan.round_straggler(self.stage, round) {
            metrics.add_injected_stragglers(1);
            std::thread::sleep(delay);
        }
        let attempt = self.attempts.entry(round).or_insert(0);
        if !self.plan.round_failure(self.stage, round, *attempt) {
            return false;
        }
        *attempt += 1;
        metrics.add_injected_failures(1);
        assert!(
            *attempt < self.plan.max_attempts(),
            "iteration round {round} failed {attempt} times"
        );
        metrics.add_task_retries(1);
        metrics.add_region_restarts(1);
        std::thread::sleep(self.plan.backoff(*attempt));
        true
    }
}

/// Errors surfaced by the iteration runtimes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IterationError {
    /// The delta-iteration solution set outgrew its memory budget
    /// ("Flink's execution ... failed because of the CoGroup operator's
    /// internal implementation which computes the solution set in memory",
    /// §VI-E).
    SolutionSetOom {
        /// Entries the solution set needed.
        needed: usize,
        /// Entries the budget allows.
        budget: usize,
    },
}

impl std::fmt::Display for IterationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IterationError::SolutionSetOom { needed, budget } => write!(
                f,
                "solution set of {needed} entries exceeds in-memory budget of {budget}"
            ),
        }
    }
}

impl std::error::Error for IterationError {}

/// Bulk iteration with broadcast state: workers scheduled once, `rounds`
/// supersteps of `step` per partition, partials merged with `merge`.
pub fn bulk_iterate<T, S>(
    env: &FlinkEnv,
    partitions: Vec<Vec<T>>,
    initial: S,
    rounds: u32,
    step: impl Fn(&S, &[T]) -> S + Send + Sync,
    merge: impl Fn(S, S) -> S,
    finalize: impl Fn(S) -> S,
) -> S
where
    T: Send + Sync,
    S: Clone + Send + Sync,
{
    assert!(rounds > 0, "need at least one round");
    let n = partitions.len();
    if n == 0 {
        return initial;
    }
    let step = &step;
    std::thread::scope(|scope| {
        // Deploy workers once with a feedback channel each.
        let mut to_workers: Vec<Sender<S>> = Vec::with_capacity(n);
        let (results_tx, results_rx) = bounded::<(usize, S)>(n);
        for (i, part) in partitions.iter().enumerate() {
            let (tx, rx): (Sender<S>, Receiver<S>) = bounded(1);
            to_workers.push(tx);
            let results_tx = results_tx.clone();
            let env2 = env.clone();
            scope.spawn(move || {
                env2.metrics().add_tasks_launched(1);
                // State maintained across all iterations (scheduled once).
                for state in rx.iter() {
                    let partial = step(&state, part);
                    results_tx.send((i, partial)).expect("driver alive");
                }
            });
        }
        drop(results_tx);
        let plan = env.faults().clone();
        let stage = env.next_stage_id();
        let interval = plan.checkpoint_interval_rounds();
        let mut faults = RoundFaults::new(plan, stage);
        // Superstep checkpoint: (completed rounds, broadcast state). The
        // state is the whole inter-round dataflow, so restoring it replays
        // the iteration exactly from that barrier.
        let mut checkpoint: (u32, S) = (0, initial.clone());
        let mut state = initial;
        let mut round = 0u32;
        while round < rounds {
            if faults.before_round(env.metrics(), round) {
                (round, state) = (checkpoint.0, checkpoint.1.clone());
                continue;
            }
            for tx in &to_workers {
                tx.send(state.clone()).expect("worker alive");
            }
            let mut partials: Vec<Option<S>> = (0..n).map(|_| None).collect();
            for _ in 0..n {
                let (i, s) = results_rx.recv().expect("workers alive");
                partials[i] = Some(s);
            }
            // Deterministic merge order regardless of arrival order.
            state = finalize(
                partials
                    .into_iter()
                    .map(|p| p.expect("every worker reported"))
                    .reduce(&merge)
                    .expect("n > 0"),
            );
            env.metrics().add_iterations_run(1);
            round += 1;
            if interval > 0 && round % interval == 0 {
                checkpoint = (round, state.clone());
                env.metrics().add_checkpoints_taken(1);
                env.metrics()
                    .add_checkpoint_bytes(std::mem::size_of::<S>() as u64);
            }
        }
        drop(to_workers); // shut workers down
        state
    })
}

/// One partition's adjacency in CSR (compressed sparse row) form: vertex
/// `i` of the partition owns out-neighbours
/// `targets[offsets[i]..offsets[i + 1]]`. Two flat arrays replace the old
/// per-vertex `Vec<u64>` lists, so a superstep walks contiguous memory
/// instead of chasing one heap allocation per vertex.
#[derive(Debug, Clone)]
pub struct CsrPart {
    /// Owned vertex ids, ascending; position = dense index.
    pub vertex_ids: Vec<u64>,
    /// CSR row starts into `targets`; `len == vertex_ids.len() + 1`.
    pub offsets: Vec<u32>,
    /// Concatenated out-neighbour lists, edge-list order per source.
    pub targets: Vec<u64>,
    /// Vertex id → dense index dictionary for message delivery.
    index: FxHashMap<u64, u32>,
}

impl CsrPart {
    /// Vertices owned by this partition.
    pub fn len(&self) -> usize {
        self.vertex_ids.len()
    }

    /// True when the partition owns no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertex_ids.is_empty()
    }

    /// Out-neighbours of the vertex at dense index `i`.
    pub fn neighbours(&self, i: usize) -> &[u64] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Dense index of a vertex id, when owned here.
    pub fn dense_index(&self, vertex: u64) -> Option<u32> {
        self.index.get(&vertex).copied()
    }
}

/// A hash-partitioned CSR adjacency representation.
#[derive(Debug, Clone)]
pub struct PartitionedGraph {
    /// Per-partition CSR adjacency.
    pub parts: Vec<CsrPart>,
}

impl PartitionedGraph {
    /// Builds the partitioned CSR out-adjacency from an edge list: one
    /// [`DenseCsr`] pass, then each row is dealt to its owner in ascending
    /// id order, so every partition's vertex list comes out sorted and its
    /// adjacency keeps the edge-list order per source. Vertices that appear
    /// only as targets get an empty row so that vertex programs see them.
    pub fn from_edges(edges: &[(u64, u64)], partitions: usize) -> Self {
        assert!(partitions > 0);
        let csr = DenseCsr::from_edges(edges);
        let per_part = csr.vertices() / partitions + 1;
        let mut parts: Vec<CsrPart> = (0..partitions)
            .map(|_| CsrPart {
                vertex_ids: Vec::with_capacity(per_part),
                offsets: Vec::with_capacity(per_part + 1),
                targets: Vec::with_capacity(edges.len() / partitions + 1),
                index: fx_map_with_capacity(per_part),
            })
            .collect();
        for p in &mut parts {
            p.offsets.push(0);
        }
        for (v, &id) in csr.ids.iter().enumerate() {
            let p = &mut parts[Self::owner(id, partitions)];
            p.index.insert(id, p.vertex_ids.len() as u32);
            p.vertex_ids.push(id);
            p.targets
                .extend(csr.row(v).iter().map(|&t| csr.ids[t as usize]));
            p.offsets.push(p.targets.len() as u32);
        }
        Self { parts }
    }

    /// Which partition owns a vertex.
    pub fn owner(vertex: u64, partitions: usize) -> usize {
        (fxhash(&vertex) % partitions as u64) as usize
    }

    /// Total vertex count.
    pub fn vertex_count(&self) -> usize {
        self.parts.iter().map(CsrPart::len).sum()
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Out-degree of every vertex, read straight off the CSR offsets
    /// (the degrees `from_edges` already computed).
    pub fn out_degrees(&self) -> HashMap<u64, u64> {
        let mut out: HashMap<u64, u64> = HashMap::with_capacity(self.vertex_count());
        for p in &self.parts {
            for (i, &v) in p.vertex_ids.iter().enumerate() {
                out.insert(v, (p.offsets[i + 1] - p.offsets[i]) as u64);
            }
        }
        out
    }
}

/// Bulk vs delta vertex-centric execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterationMode {
    /// All vertices run every superstep.
    Bulk,
    /// Only vertices with incoming messages run; terminates early when no
    /// messages flow. `solution_set_budget` caps the in-memory solution
    /// set (entries) — `None` means unbounded.
    Delta {
        /// Max solution-set entries held in memory.
        solution_set_budget: Option<usize>,
    },
}

/// One vertex's compute step: current value, incoming messages and
/// out-neighbours in; new value (plus whether it changed) and outgoing
/// `(target, message)` pairs out.
pub type VertexCompute<VV, M> =
    dyn Fn(u64, &VV, &[M], &[u64]) -> (VV, bool, Vec<(u64, M)>) + Send + Sync;

/// An associative, commutative message combiner (Pregel's `Combiner`):
/// folds two messages bound for the same vertex into one *before* they
/// cross the channel. `sum` for Page Rank, `min` for CC/SSSP.
pub type MessageCombiner<M> = fn(M, M) -> M;

/// Runs a vertex-centric iteration without a message combiner; see
/// [`vertex_centric_with_combiner`].
pub fn vertex_centric<VV, M>(
    env: &FlinkEnv,
    graph: &PartitionedGraph,
    init: impl Fn(u64, &[u64]) -> VV + Send + Sync,
    compute: &VertexCompute<VV, M>,
    max_rounds: u32,
    mode: IterationMode,
) -> Result<HashMap<u64, VV>, IterationError>
where
    VV: Clone + Send + Sync,
    M: Clone + Send + Sync,
{
    vertex_centric_with_combiner(env, graph, init, compute, None, max_rounds, mode)
}

/// Runs a vertex-centric iteration over a partitioned CSR graph.
///
/// Workers (one per partition) are deployed once and keep their vertex
/// values — the solution set — as a flat `Vec` indexed by the CSR dense
/// id. Message routing happens at a per-round barrier (Flink's iteration
/// sync, the "Sync Bulk Iteration" span of Fig 10); all superstep buffers
/// circulate through [`BufferPool`]s so steady-state rounds allocate
/// nothing.
///
/// When `combiner` is given, each worker pre-combines its outgoing
/// messages per destination vertex in per-destination-partition outboxes
/// before they cross the channel, and the messages eliminated are counted
/// in the `messages_combined` metric.
///
/// Returns the final vertex values, or [`IterationError::SolutionSetOom`]
/// when a delta iteration's solution set exceeds its budget.
pub fn vertex_centric_with_combiner<VV, M>(
    env: &FlinkEnv,
    graph: &PartitionedGraph,
    init: impl Fn(u64, &[u64]) -> VV + Send + Sync,
    compute: &VertexCompute<VV, M>,
    combiner: Option<MessageCombiner<M>>,
    max_rounds: u32,
    mode: IterationMode,
) -> Result<HashMap<u64, VV>, IterationError>
where
    VV: Clone + Send + Sync,
    M: Clone + Send + Sync,
{
    let n = graph.partitions();
    if let IterationMode::Delta {
        solution_set_budget: Some(budget),
    } = mode
    {
        let needed = graph.vertex_count();
        if needed > budget {
            return Err(IterationError::SolutionSetOom { needed, budget });
        }
    }

    // Messages exchanged between driver and workers each superstep.
    enum ToWorker<M> {
        Round(Vec<(u64, M)>),
        /// Checkpoint the worker-local solution set (kept worker-side, like
        /// Flink snapshotting operator state to a state backend).
        Snapshot,
        /// Rewind the solution set to the last snapshot.
        Restore,
        Finish,
    }
    struct FromWorker<M, VV> {
        part: usize,
        /// Outgoing messages, pre-routed per destination partition.
        outgoing: Vec<Vec<(u64, M)>>,
        values: Option<Vec<(u64, VV)>>,
    }

    // Superstep buffers circulate driver ↔ workers through these pools:
    // `msg_pool` recycles the flat `(target, message)` vectors, `box_pool`
    // the per-destination carriers.
    let msg_pool: BufferPool<(u64, M)> = BufferPool::new(n * (n + 2));
    let box_pool: BufferPool<Vec<(u64, M)>> = BufferPool::new(n);
    let msg_pool = &msg_pool;
    let box_pool = &box_pool;

    let init = &init;
    std::thread::scope(|scope| {
        let mut to_workers: Vec<Sender<ToWorker<M>>> = Vec::with_capacity(n);
        let (from_tx, from_rx) = bounded::<FromWorker<M, VV>>(n);
        for (p, part) in graph.parts.iter().enumerate() {
            let (tx, rx): (Sender<ToWorker<M>>, _) = bounded(1);
            to_workers.push(tx);
            let from_tx = from_tx.clone();
            let env2 = env.clone();
            scope.spawn(move || {
                env2.metrics().add_tasks_launched(1);
                let nv = part.len();
                // Worker-local solution set, maintained across rounds:
                // a dense array indexed by the CSR dense id.
                let mut values: Vec<VV> = part
                    .vertex_ids
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| init(v, part.neighbours(i)))
                    .collect();
                let is_delta = matches!(mode, IterationMode::Delta { .. });
                let mut first_round = true;
                // Last snapshot of (solution set, first-round flag); armed
                // with the initial state so a failure before any checkpoint
                // restarts the iteration from scratch.
                let mut saved = env2
                    .faults()
                    .active()
                    .then(|| (values.clone(), first_round));
                // Dense inboxes, allocated once; each slot is cleared right
                // after its vertex computes, so capacity carries over and
                // steady-state supersteps stay allocation-free.
                let mut inbox: Vec<Vec<M>> = (0..nv).map(|_| Vec::new()).collect();
                // Sender-side combining state: one pre-combine map per
                // destination partition, drained (capacity kept) per round.
                let mut combine_boxes: Vec<FxHashMap<u64, M>> =
                    (0..if combiner.is_some() { n } else { 0 })
                        .map(|_| FxHashMap::default())
                        .collect();
                for msg in rx.iter() {
                    let mut incoming = match msg {
                        ToWorker::Round(m) => m,
                        ToWorker::Snapshot => {
                            env2.metrics().add_checkpoints_taken(1);
                            // Byte-accounted as logical (id, value) entries,
                            // exactly like the old map-backed solution set,
                            // so Table VII budgets are unchanged.
                            env2.metrics().add_checkpoint_bytes(
                                (values.len() * std::mem::size_of::<(u64, VV)>()) as u64,
                            );
                            saved = Some((values.clone(), first_round));
                            continue;
                        }
                        ToWorker::Restore => {
                            let (v, f) = saved.clone().expect("snapshot armed at start");
                            values = v;
                            first_round = f;
                            continue;
                        }
                        ToWorker::Finish => break,
                    };
                    // Deliver into the dense inbox slots.
                    for (v, m) in incoming.drain(..) {
                        let i = part.index[&v] as usize;
                        inbox[i].push(m);
                    }
                    msg_pool.put(incoming);
                    let mut outgoing: Vec<Vec<(u64, M)>> = box_pool.take(n);
                    for _ in 0..n {
                        outgoing.push(msg_pool.take(0));
                    }
                    let mut raw_sent = 0u64;
                    // Dense-index order == ascending vertex-id order.
                    for i in 0..nv {
                        let active = !is_delta || first_round || !inbox[i].is_empty();
                        if !active {
                            continue;
                        }
                        let v = part.vertex_ids[i];
                        let (new_value, changed, out) =
                            compute(v, &values[i], &inbox[i], part.neighbours(i));
                        inbox[i].clear();
                        if changed || !is_delta {
                            values[i] = new_value;
                        }
                        if changed || !is_delta || first_round {
                            if let Some(c) = combiner {
                                raw_sent += out.len() as u64;
                                for (t, m) in out {
                                    let dest = PartitionedGraph::owner(t, n);
                                    match combine_boxes[dest].entry(t) {
                                        Entry::Occupied(mut e) => {
                                            let prev = e.get().clone();
                                            e.insert(c(prev, m));
                                        }
                                        Entry::Vacant(e) => {
                                            e.insert(m);
                                        }
                                    }
                                }
                            } else {
                                for (t, m) in out {
                                    outgoing[PartitionedGraph::owner(t, n)].push((t, m));
                                }
                            }
                        }
                    }
                    if combiner.is_some() {
                        let mut combined_sent = 0u64;
                        for (dest, cbox) in combine_boxes.iter_mut().enumerate() {
                            combined_sent += cbox.len() as u64;
                            outgoing[dest].extend(cbox.drain());
                        }
                        env2.metrics()
                            .add_messages_combined(raw_sent - combined_sent);
                    }
                    first_round = false;
                    from_tx
                        .send(FromWorker {
                            part: p,
                            outgoing,
                            values: None,
                        })
                        .expect("driver alive");
                }
                // Final value dump.
                let dump: Vec<(u64, VV)> =
                    part.vertex_ids.iter().copied().zip(values).collect();
                from_tx
                    .send(FromWorker {
                        part: p,
                        outgoing: Vec::new(),
                        values: Some(dump),
                    })
                    .expect("driver alive");
            });
        }
        drop(from_tx);

        // Superstep loop: route messages at the barrier.
        let plan = env.faults().clone();
        let stage = env.next_stage_id();
        let interval = plan.checkpoint_interval_rounds();
        let mut faults = RoundFaults::new(plan, stage);
        // Driver-side half of the checkpoint: (completed rounds, routed but
        // undelivered messages). The worker-side half is the solution set.
        let mut checkpoint: (u32, Vec<Vec<(u64, M)>>) =
            (0, (0..n).map(|_| Vec::new()).collect());
        let mut pending: Vec<Vec<(u64, M)>> = (0..n).map(|_| msg_pool.take(0)).collect();
        // Arrival slots, reused every round so worker outputs always merge
        // in partition order (deterministic routing) without reallocating.
        let mut arrived: Vec<Option<Vec<Vec<(u64, M)>>>> = (0..n).map(|_| None).collect();
        let mut round = 0u32;
        while round < max_rounds {
            let is_delta = matches!(mode, IterationMode::Delta { .. });
            let total_pending: usize = pending.iter().map(Vec::len).sum();
            if is_delta && round > 0 && total_pending == 0 {
                break; // delta convergence: nothing changed
            }
            if faults.before_round(env.metrics(), round) {
                // Injected superstep failure: rewind both halves of the
                // checkpoint and replay from that barrier.
                for tx in &to_workers {
                    tx.send(ToWorker::Restore).expect("worker alive");
                }
                round = checkpoint.0;
                pending = checkpoint.1.clone();
                continue;
            }
            for (p, tx) in to_workers.iter().enumerate() {
                let buf = std::mem::replace(&mut pending[p], msg_pool.take(0));
                tx.send(ToWorker::Round(buf)).expect("worker alive");
            }
            for _ in 0..n {
                let out = from_rx.recv().expect("workers alive");
                debug_assert!(out.values.is_none());
                arrived[out.part] = Some(out.outgoing);
            }
            for slot in &mut arrived {
                let mut boxes = slot.take().expect("every worker reported");
                for (dest, mut buf) in boxes.drain(..).enumerate() {
                    pending[dest].append(&mut buf);
                    msg_pool.put(buf);
                }
                box_pool.put(boxes);
            }
            env.metrics().add_iterations_run(1);
            round += 1;
            if interval > 0 && round % interval == 0 {
                for tx in &to_workers {
                    tx.send(ToWorker::Snapshot).expect("worker alive");
                }
                checkpoint = (round, pending.clone());
            }
        }
        for tx in &to_workers {
            tx.send(ToWorker::Finish).expect("worker alive");
        }
        drop(to_workers);
        let mut result: HashMap<u64, VV> = HashMap::with_capacity(graph.vertex_count());
        for _ in 0..n {
            let out = from_rx.recv().expect("workers alive");
            result.extend(out.values.expect("final dump"));
        }
        Ok(result)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_iterate_converges_like_a_fixpoint() {
        // x_{n+1} = mean of (data + x_n) pulls the state to data mean + x*.
        let env = FlinkEnv::new(4);
        let data: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0], vec![]];
        let result = bulk_iterate(
            &env,
            data,
            0.0_f64,
            20,
            |s, part| part.iter().map(|x| x + s).sum::<f64>(),
            |a, b| a + b,
            |s| s,
        );
        // Fixpoint of s = 15 + 5s has no finite solution; just assert the
        // recurrence applied exactly 20 times: s_n = 15 * (5^n - 1) / 4.
        let expect = 15.0 * (5f64.powi(20) - 1.0) / 4.0;
        assert!((result - expect).abs() / expect < 1e-12);
        assert_eq!(env.metrics().iterations_run(), 20);
    }

    #[test]
    fn bulk_iterate_schedules_workers_once() {
        let env = FlinkEnv::new(4);
        let data: Vec<Vec<u32>> = (0..4).map(|i| vec![i]).collect();
        let before = env.metrics().tasks_launched();
        let _ = bulk_iterate(&env, data, 0u64, 10, |s, p| s + p.len() as u64, |a, b| a + b, |s| s);
        // 10 rounds, but only 4 worker deployments (scheduled once).
        assert_eq!(env.metrics().tasks_launched() - before, 4);
    }

    #[test]
    fn bulk_iterate_empty_partitions() {
        let env = FlinkEnv::new(2);
        let out = bulk_iterate(&env, Vec::<Vec<u32>>::new(), 7u32, 3, |s, _| *s, |a, _| a, |s| s);
        assert_eq!(out, 7);
    }

    fn line_graph(n: u64) -> Vec<(u64, u64)> {
        (0..n - 1).map(|i| (i, i + 1)).collect()
    }

    #[test]
    fn partitioned_graph_includes_sink_vertices() {
        let g = PartitionedGraph::from_edges(&line_graph(5), 3);
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.partitions(), 3);
    }

    /// Connected components by label propagation: value = component id.
    fn cc_compute() -> Box<VertexCompute<u64, u64>> {
        Box::new(|v, value, msgs, ns| {
            let candidate = msgs.iter().copied().min().unwrap_or(*value).min(*value);
            let changed = candidate < *value;
            let out = if changed || msgs.is_empty() {
                // First round (no messages) or improvement: notify others.
                ns.iter().map(|&t| (t, candidate.min(v))).collect()
            } else {
                Vec::new()
            };
            (candidate, changed, out)
        })
    }

    #[test]
    fn vertex_centric_bulk_cc_on_two_components() {
        let env = FlinkEnv::new(3);
        // Component A: 0-1-2, component B: 10-11.
        let edges = vec![(0, 1), (1, 0), (1, 2), (2, 1), (10, 11), (11, 10)];
        let g = PartitionedGraph::from_edges(&edges, 3);
        let values = vertex_centric(
            &env,
            &g,
            |v, _| v,
            &*cc_compute(),
            20,
            IterationMode::Bulk,
        )
        .unwrap();
        assert_eq!(values[&0], 0);
        assert_eq!(values[&1], 0);
        assert_eq!(values[&2], 0);
        assert_eq!(values[&10], 10);
        assert_eq!(values[&11], 10);
    }

    #[test]
    fn vertex_centric_delta_matches_bulk() {
        let env = FlinkEnv::new(4);
        // An undirected 8-cycle plus an isolated pair.
        let mut edges: Vec<(u64, u64)> = (0..8).flat_map(|i| {
            let j = (i + 1) % 8;
            [(i, j), (j, i)]
        })
        .collect();
        edges.push((100, 101));
        edges.push((101, 100));
        let g = PartitionedGraph::from_edges(&edges, 4);
        let bulk = vertex_centric(&env, &g, |v, _| v, &*cc_compute(), 30, IterationMode::Bulk)
            .unwrap();
        let delta = vertex_centric(
            &env,
            &g,
            |v, _| v,
            &*cc_compute(),
            30,
            IterationMode::Delta {
                solution_set_budget: None,
            },
        )
        .unwrap();
        assert_eq!(bulk, delta);
        assert!(bulk.iter().filter(|(v, _)| **v < 100).all(|(_, c)| *c == 0));
        assert_eq!(bulk[&100], 100);
    }

    #[test]
    fn delta_terminates_early_when_converged() {
        let env = FlinkEnv::new(2);
        let edges = vec![(0, 1), (1, 0)];
        let g = PartitionedGraph::from_edges(&edges, 2);
        let before = env.metrics().iterations_run();
        let _ = vertex_centric(
            &env,
            &g,
            |v, _| v,
            &*cc_compute(),
            1000,
            IterationMode::Delta {
                solution_set_budget: None,
            },
        )
        .unwrap();
        let rounds = env.metrics().iterations_run() - before;
        assert!(rounds < 10, "delta ran {rounds} rounds on a 2-cycle");
    }

    #[test]
    fn delta_solution_set_oom_reproduces_table_vii() {
        let env = FlinkEnv::new(2);
        let edges: Vec<(u64, u64)> = (0..100).map(|i| (i, (i + 1) % 100)).collect();
        let g = PartitionedGraph::from_edges(&edges, 2);
        let err = vertex_centric(
            &env,
            &g,
            |v, _| v,
            &*cc_compute(),
            10,
            IterationMode::Delta {
                solution_set_budget: Some(50),
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            IterationError::SolutionSetOom {
                needed: 100,
                budget: 50
            }
        );
    }

    #[test]
    fn bulk_iterate_replays_failed_round_from_checkpoint() {
        use crate::faults::FaultConfig;
        // Kill round 3's first attempt (stage 0: the iteration allocates the
        // env's first stage id). With checkpoints every 2 rounds the restore
        // point is round 2, and the replay must land on the exact fault-free
        // trajectory.
        let plan = FaultPlan::new(FaultConfig {
            seed: 5,
            kill_list: vec![(0, 3, 0)],
            checkpoint_interval_rounds: 2,
            backoff_base: std::time::Duration::from_micros(100),
            ..FaultConfig::default()
        });
        let env = FlinkEnv::with_faults(4, plan);
        let data: Vec<Vec<u64>> = (0..4).map(|i| vec![i, i + 1]).collect();
        let step = |s: &u64, part: &[u64]| s + part.iter().sum::<u64>();
        let faulted = bulk_iterate(&env, data.clone(), 0u64, 6, step, |a, b| a + b, |s| s);
        let clean = bulk_iterate(&FlinkEnv::new(4), data, 0u64, 6, step, |a, b| a + b, |s| s);
        assert_eq!(faulted, clean);
        let rec = env.metrics().recovery();
        assert_eq!(rec.injected_failures, 1);
        assert_eq!(rec.region_restarts, 1);
        assert!(rec.checkpoints_taken >= 1);
        // Rounds 2..3 replayed once: 6 clean rounds + 1 replayed.
        assert_eq!(env.metrics().iterations_run(), 7);
    }

    #[test]
    fn vertex_centric_restores_solution_set_from_snapshot() {
        use crate::faults::FaultConfig;
        let edges: Vec<(u64, u64)> = (0..40).flat_map(|i| {
            let j = (i + 1) % 40;
            [(i, j), (j, i)]
        })
        .collect();
        let g = PartitionedGraph::from_edges(&edges, 4);
        let plan = FaultPlan::new(FaultConfig {
            seed: 9,
            kill_list: vec![(0, 3, 0)],
            checkpoint_interval_rounds: 2,
            backoff_base: std::time::Duration::from_micros(100),
            ..FaultConfig::default()
        });
        let env = FlinkEnv::with_faults(4, plan);
        let faulted =
            vertex_centric(&env, &g, |v, _| v, &*cc_compute(), 60, IterationMode::Bulk).unwrap();
        let clean = vertex_centric(
            &FlinkEnv::new(4),
            &g,
            |v, _| v,
            &*cc_compute(),
            60,
            IterationMode::Bulk,
        )
        .unwrap();
        assert_eq!(faulted, clean);
        assert!(faulted.values().all(|c| *c == 0), "one 40-cycle, one component");
        let rec = env.metrics().recovery();
        assert_eq!(rec.injected_failures, 1);
        assert_eq!(rec.region_restarts, 1);
        assert!(rec.checkpoints_taken >= 4, "4 workers × ≥1 snapshot each");
    }

    #[test]
    fn vertex_centric_schedules_workers_once() {
        let env = FlinkEnv::new(4);
        let edges: Vec<(u64, u64)> = (0..50).map(|i| (i, (i + 1) % 50)).collect();
        let g = PartitionedGraph::from_edges(&edges, 4);
        let before = env.metrics().tasks_launched();
        let _ = vertex_centric(&env, &g, |v, _| v, &*cc_compute(), 15, IterationMode::Bulk)
            .unwrap();
        assert_eq!(env.metrics().tasks_launched() - before, 4);
    }
}
