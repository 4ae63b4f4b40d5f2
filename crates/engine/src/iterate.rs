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
//!   reproducing Table VII's failures). Each worker keeps a range of dense
//!   vertex ids for the whole iteration — values in a flat array, inbox in
//!   a [`MessageTable`] — and the workers exchange sealed message batches
//!   among themselves; the driver only deploys and joins them.
//!
//! Workers are OS threads deployed **once**; the `tasks_launched` metric
//! therefore stays at the worker count no matter how many rounds run — the
//! observable difference from the staged engine's loop unrolling.

use std::collections::HashMap;
use std::panic::{panic_any, resume_unwind};

use crossbeam::channel::{bounded, Receiver, Sender};

use crate::csr::DenseCsr;
use crate::faults::{FaultPlan, IntegrityError};
use crate::flink::FlinkEnv;
use crate::messages::{Lane, MessageBatch, MessageTable, Outbox};
use crate::metrics::EngineMetrics;
use crate::shuffle::{corrupt_one, seal, verify, Sealed, ShuffleBatch};

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

/// A graph laid out for [`vertex_centric`]: one [`DenseCsr`] whose rows are
/// split among the iteration workers.
#[derive(Debug, Clone)]
pub struct PartitionedGraph {
    csr: DenseCsr,
    /// Worker `w` owns dense vertices `bounds[w]..bounds[w + 1]`: contiguous
    /// and balanced by out-edge count. Every bound is a multiple of 64 (the
    /// last one padded past the last vertex), so an inbox is a whole number
    /// of presence words and an outbox encodes a destination range as is.
    bounds: Vec<usize>,
}

impl PartitionedGraph {
    /// Builds the out-adjacency of an edge list and splits it among
    /// `partitions` workers. Vertices that appear only as targets own an
    /// empty row, so vertex programs see them.
    pub fn from_edges(edges: &[(u64, u64)], partitions: usize) -> Self {
        Self::new(DenseCsr::from_edges(edges), partitions)
    }

    /// Splits an adjacency already built among `partitions` workers.
    pub fn new(csr: DenseCsr, partitions: usize) -> Self {
        assert!(partitions > 0);
        let bounds = csr.bounds(partitions, 64);
        Self { csr, bounds }
    }

    /// Total vertex count.
    pub fn vertex_count(&self) -> usize {
        self.csr.vertices()
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.bounds.len() - 1
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

/// What a vertex program sees of one active vertex in one superstep. It
/// updates `value` in place and sends through the [`Outbox`] it is handed
/// alongside, addressing neighbours by dense id as `targets` lists them.
pub struct Vertex<'a, VV, M> {
    /// Supersteps completed before this one; 0 is the initial scatter.
    pub superstep: u32,
    /// The vertex's dense id.
    pub id: u32,
    /// Its entry in the solution set.
    pub value: &'a mut VV,
    /// The combined message it received, if any.
    pub message: Option<M>,
    /// Its dense out-neighbours, edge-list order.
    pub targets: &'a [u32],
}

/// What a worker tells its peers about the step it is entering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Nothing to report: the superstep ran.
    Go,
    /// An injected failure hit this superstep.
    Failed,
    /// A batch of the previous step failed its digest at this worker.
    Rotten,
    /// This worker is unwinding: the iteration cannot finish.
    Abort,
}

/// The unit on the worker mesh: one destination range's messages and the
/// control that rides with them.
struct Envelope {
    step: u32,
    from: usize,
    verdict: Verdict,
    /// The sender sent some vertex a message this superstep.
    sent_any: bool,
    batch: Sealed<MessageBatch>,
}

/// One worker's end of the P × P mesh.
struct Mesh {
    me: usize,
    peers: Vec<Sender<Envelope>>,
    inbox: Receiver<Envelope>,
    /// Arrivals by step parity, then sender. A peer that holds everyone's
    /// step `s` may send its step `s + 1` before a slow peer's step `s` gets
    /// here — never its `s + 2`, which needs this worker's `s + 1`.
    arrived: [Vec<Option<Envelope>>; 2],
    have: [usize; 2],
}

impl Mesh {
    /// Blocks until every worker's envelope for `step` is here and hands
    /// them out in sender order; `None` when a peer aborted.
    fn collect(&mut self, step: u32) -> Option<&mut [Option<Envelope>]> {
        let side = (step % 2) as usize;
        while self.have[side] < self.peers.len() {
            let envelope = self.inbox.recv().expect("a worker holds its own sender");
            if envelope.verdict == Verdict::Abort {
                return None;
            }
            assert!(
                envelope.step == step || envelope.step == step + 1,
                "worker {} is at step {}, this one at {step}",
                envelope.from,
                envelope.step
            );
            let side = (envelope.step % 2) as usize;
            self.have[side] += 1;
            let from = envelope.from;
            self.arrived[side][from] = Some(envelope);
        }
        self.have[side] = 0;
        Some(&mut self.arrived[side])
    }
}

impl Drop for Mesh {
    /// A worker that unwinds tells its peers, which would otherwise wait
    /// for its next envelope forever.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        for (to, peer) in self.peers.iter().enumerate() {
            if to != self.me {
                // A peer that is gone too needs no telling.
                let _ = peer.send(Envelope {
                    step: 0,
                    from: self.me,
                    verdict: Verdict::Abort,
                    sent_any: false,
                    batch: (0, MessageBatch::default()),
                });
            }
        }
    }
}

/// Everything a worker rewinds on a failure: the superstep about to run,
/// its slice of the solution set, and the messages waiting for it — whose
/// presence bits are the delta workset.
#[derive(Clone)]
struct WorkerState<VV, M> {
    round: u32,
    values: Vec<VV>,
    inbox: MessageTable<M>,
}

/// Runs a vertex-centric iteration over a partitioned graph.
///
/// One worker per partition is deployed once and owns its vertices for the
/// whole iteration. A superstep scans the active rows — all of them in
/// [`IterationMode::Bulk`] and in superstep 0, the inbox's recipients
/// otherwise — calling `compute`, which folds every message it sends into
/// the worker's whole-graph [`Outbox`] with `combine` (the sender-side
/// combining, counted into `messages_combined`). Each destination range
/// then goes as one sealed [`MessageBatch`] straight to the worker that
/// owns it, which absorbs its arrivals in sender order, so results repeat
/// bit for bit. That exchange is a superstep's only hand-off and all
/// control rides on it: whether anyone sent anything (delta termination),
/// an injected failure and a batch that failed its digest reach every
/// worker with the same step, and all rewind values and inbox to the last
/// snapshot together; snapshots follow the plan's round interval.
///
/// Returns the final vertex values, or [`IterationError::SolutionSetOom`]
/// when a delta iteration's solution set exceeds its budget. Corruption
/// that outlives the retry budget unwinds as a typed [`IntegrityError`].
pub fn vertex_centric<VV, M, F>(
    env: &FlinkEnv,
    graph: &PartitionedGraph,
    init: impl Fn(u64) -> VV + Sync,
    compute: impl Fn(Vertex<'_, VV, M>, &mut Outbox<'_, M, F>) + Sync,
    combine: F,
    max_rounds: u32,
    mode: IterationMode,
) -> Result<HashMap<u64, VV>, IterationError>
where
    VV: Clone + Send,
    M: Lane,
    F: Fn(M, M) -> M + Sync,
{
    let (csr, bounds) = (&graph.csr, &graph.bounds);
    let (n, nv) = (graph.partitions(), csr.vertices());
    let is_delta = match mode {
        IterationMode::Bulk => false,
        IterationMode::Delta {
            solution_set_budget,
        } => {
            if let Some(budget) = solution_set_budget.filter(|&b| nv > b) {
                return Err(IterationError::SolutionSetOom { needed: nv, budget });
            }
            true
        }
    };
    let (plan, metrics) = (env.faults(), env.metrics());
    let (stage, seed) = (env.next_stage_id(), plan.checksum_seed());
    let interval = plan.checkpoint_interval_rounds();
    // An inbox holds a step's envelopes and, from peers already a step
    // ahead, the next one's: a send never blocks.
    let (peers, inboxes): (Vec<_>, Vec<_>) = (0..n).map(|_| bounded::<Envelope>(2 * n)).unzip();

    let worker = |me: usize, inbox: Receiver<Envelope>| -> Option<Vec<VV>> {
        metrics.add_tasks_launched(1);
        // Built first: whatever panics below, the peers hear of it.
        let mut mesh = Mesh {
            me,
            peers: peers.clone(),
            inbox,
            arrived: [0, 1].map(|_| (0..n).map(|_| None).collect()),
            have: [0; 2],
        };
        let rows = bounds[me].min(nv)..bounds[me + 1].min(nv);
        let fresh = || WorkerState {
            round: 0,
            values: rows.clone().map(|v| init(csr.ids[v])).collect(),
            inbox: MessageTable::new(bounds[me + 1] - bounds[me]),
        };
        let mut state = fresh();
        // `staged` becomes `saved` once a whole step has passed without
        // anyone reporting rot in the inboxes it captured.
        let (mut saved, mut staged) = (None::<WorkerState<VV, M>>, None);
        let mut out = Outbox::new(bounds[n], &combine);
        let mut faults = RoundFaults::new(plan.clone(), stage);
        let mut rot_retries: HashMap<u32, u32> = HashMap::new();
        let (mut step, mut furthest, mut rotten) = (0u32, 0u32, false);
        while state.round < max_rounds {
            // The plan's kill budget is stateful: one worker spends it.
            let verdict = if rotten {
                Verdict::Rotten
            } else if me == 0 && faults.before_round(metrics, state.round) {
                Verdict::Failed
            } else {
                Verdict::Go
            };
            if verdict == Verdict::Go {
                let mut run = |slot: usize, message: Option<M>| {
                    let v = rows.start + slot;
                    let vertex = Vertex {
                        superstep: state.round,
                        id: v as u32,
                        value: &mut state.values[slot],
                        message,
                        targets: csr.row(v),
                    };
                    compute(vertex, &mut out);
                };
                if is_delta && state.round > 0 {
                    state.inbox.for_each(|slot, m| run(slot, Some(m)));
                } else {
                    (0..rows.len()).for_each(|slot| run(slot, state.inbox.get(slot)));
                }
            }
            let mut sealed: Vec<Sealed<MessageBatch>> = bounds
                .windows(2)
                .map(|w| {
                    let batch = out.table().encode(w[0]..w[1]).unwrap_or_default();
                    metrics.add_records_shuffled(batch.rows() as u64);
                    metrics.add_bytes_shuffled(batch.bytes() as u64);
                    metrics.add_batches_processed(1);
                    seal(batch, seed, metrics)
                })
                .collect();
            let shipped: usize = sealed.iter().map(|s| s.1.rows()).sum();
            metrics.add_messages_combined((out.sent() - shipped) as u64);
            let sent_any = out.sent() > 0;
            out.clear();
            // Probability rot hits a superstep's first run only, so a
            // replay makes progress.
            let attempt = u32::from(state.round < furthest);
            furthest = furthest.max(state.round + 1);
            let site = state.round as usize * n + me;
            if let Some((kind, salt)) = plan.corrupt_decision(stage, site, attempt) {
                corrupt_one(std::slice::from_mut(&mut sealed), kind, salt);
            }
            for (peer, batch) in mesh.peers.iter().zip(sealed) {
                let envelope = Envelope {
                    step,
                    from: me,
                    verdict,
                    sent_any,
                    batch,
                };
                // Only a peer that was told to abort hangs up early.
                peer.send(envelope).ok()?;
            }

            let arrived = mesh.collect(step)?;
            step += 1;
            let told = |v: Verdict| arrived.iter().flatten().any(|e| e.verdict == v);
            let (failed, rot) = (told(Verdict::Failed), told(Verdict::Rotten));
            saved = staged.take().filter(|_| !rot).or(saved);
            if rot {
                let tries = rot_retries.entry(state.round).or_insert(0);
                *tries += 1;
                if *tries >= plan.max_attempts() {
                    panic_any(IntegrityError {
                        at: (stage, me, *tries),
                        detail: "superstep batch failed checksum verification on every attempt",
                    });
                }
                if me == 0 {
                    metrics.add_task_retries(1);
                    metrics.add_region_restarts(1);
                    std::thread::sleep(plan.backoff(*tries));
                }
            }
            if rot || failed {
                state = saved.clone().unwrap_or_else(&fresh);
                rotten = false;
                continue;
            }
            state.round += 1;
            if me == 0 {
                metrics.add_iterations_run(1);
            }
            let busy = arrived.iter().flatten().any(|e| e.sent_any);
            if state.round == max_rounds || (is_delta && !busy) {
                break; // what this step shipped has no reader
            }
            state.inbox.clear();
            for envelope in arrived.iter_mut().filter_map(Option::take) {
                if !verify(&envelope.batch, seed) {
                    metrics.add_corruptions_detected(1);
                    plan.confirm_corruption();
                    rotten = true;
                } else if !rotten {
                    state.inbox.absorb(&envelope.batch.1, &combine);
                }
            }
            if !rotten && interval > 0 && state.round % interval == 0 {
                metrics.add_checkpoints_taken(1);
                // Accounted as logical (id, value) entries, like Table
                // VII's solution-set budget.
                let bytes = state.values.len() * std::mem::size_of::<(u64, VV)>();
                metrics.add_checkpoint_bytes(bytes as u64);
                staged = Some(state.clone());
            }
        }
        Some(state.values)
    };

    let worker = &worker;
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let deployed: Vec<_> = inboxes
            .into_iter()
            .enumerate()
            .map(|(me, inbox)| scope.spawn(move || worker(me, inbox)))
            .collect();
        deployed.into_iter().map(|w| w.join()).collect()
    });
    let mut values = Vec::with_capacity(nv);
    for outcome in outcomes {
        match outcome {
            // A worker stops early only because a peer panicked, and that
            // panic is re-raised here.
            Ok(part) => values.extend(part.unwrap_or_default()),
            Err(payload) => resume_unwind(payload),
        }
    }
    Ok(csr.ids.iter().copied().zip(values).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::Setup;

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

    /// An undirected `n`-cycle: one component, diameter `n / 2`.
    fn cycle(n: u64) -> Vec<(u64, u64)> {
        (0..n)
            .flat_map(|i| [(i, (i + 1) % n), ((i + 1) % n, i)])
            .collect()
    }

    #[test]
    fn partitioned_graph_includes_sink_vertices() {
        let g = PartitionedGraph::from_edges(&line_graph(5), 3);
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.partitions(), 3);
    }

    #[test]
    fn workers_own_word_aligned_edge_balanced_ranges() {
        // A hub holding half the edges ahead of 600 single-edge rows: an even
        // split of the rows would give worker 0 three quarters of the edges.
        let mut edges: Vec<(u64, u64)> = (0..600).map(|t| (0, 1 + t)).collect();
        edges.extend((1..601).map(|s| (s, 0)));
        let g = PartitionedGraph::from_edges(&edges, 2);
        assert_eq!(g.bounds, vec![0, 64, 640]);
        let more = PartitionedGraph::from_edges(&edges, 7);
        assert!(more.bounds.iter().all(|b| b % 64 == 0));
        assert!(more.bounds.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(more.bounds[7], 640);
        assert_eq!(PartitionedGraph::from_edges(&[], 3).bounds, vec![0; 4]);
    }

    /// Connected components by label propagation: value = component id.
    fn propagate<F: Fn(u64, u64) -> u64>(v: Vertex<'_, u64, u64>, out: &mut Outbox<'_, u64, F>) {
        let lower = v.message.filter(|m| m < v.value);
        if let Some(label) = lower {
            *v.value = label;
        }
        // First round or improvement: notify others.
        if lower.is_some() || v.superstep == 0 {
            v.targets.iter().for_each(|&t| out.to(t, *v.value));
        }
    }

    fn components(
        env: &FlinkEnv,
        graph: &PartitionedGraph,
        max_rounds: u32,
        mode: IterationMode,
    ) -> Result<HashMap<u64, u64>, IterationError> {
        vertex_centric(env, graph, |v| v, propagate, u64::min, max_rounds, mode)
    }

    const DELTA: IterationMode = IterationMode::Delta {
        solution_set_budget: None,
    };

    /// A Page Rank-shaped program: an `f64` sum combiner, every vertex
    /// active every superstep, values that depend on the fold order.
    fn ranks(env: &FlinkEnv, graph: &PartitionedGraph, rounds: u32) -> HashMap<u64, f64> {
        vertex_centric(
            env,
            graph,
            |_| 1.0,
            |v, out| {
                if v.superstep > 0 {
                    *v.value = 0.15 + 0.85 * v.message.unwrap_or(0.0);
                }
                let share = *v.value / v.targets.len() as f64;
                v.targets.iter().for_each(|&t| out.to(t, share));
            },
            |a: f64, b| a + b,
            rounds,
            IterationMode::Bulk,
        )
        .unwrap()
    }

    fn random_edges(seed: u64, n: usize, ids: u64) -> Vec<(u64, u64)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (rng.gen_range(0..ids), rng.gen_range(0..ids)))
            .collect()
    }

    #[test]
    fn vertex_centric_bulk_cc_on_two_components() {
        let env = FlinkEnv::new(3);
        // Component A: 0-1-2, component B: 10-11.
        let edges = vec![(0, 1), (1, 0), (1, 2), (2, 1), (10, 11), (11, 10)];
        let g = PartitionedGraph::from_edges(&edges, 3);
        let values = components(&env, &g, 20, IterationMode::Bulk).unwrap();
        assert_eq!(values[&0], 0);
        assert_eq!(values[&1], 0);
        assert_eq!(values[&2], 0);
        assert_eq!(values[&10], 10);
        assert_eq!(values[&11], 10);
    }

    #[test]
    fn vertex_centric_delta_matches_bulk() {
        let env = FlinkEnv::new(4);
        // An undirected 300-cycle (every worker owns a stretch of it) plus
        // an isolated pair.
        let mut edges = cycle(300);
        edges.extend([(1_000, 1_001), (1_001, 1_000)]);
        let g = PartitionedGraph::from_edges(&edges, 4);
        let bulk = components(&env, &g, 200, IterationMode::Bulk).unwrap();
        let delta = components(&env, &g, 200, DELTA).unwrap();
        assert_eq!(bulk, delta);
        assert!(bulk.iter().all(|(v, c)| *v >= 1_000 || *c == 0));
        assert_eq!(bulk[&1_000], 1_000);
    }

    #[test]
    fn delta_terminates_early_when_converged() {
        let env = FlinkEnv::new(2);
        let edges = vec![(0, 1), (1, 0)];
        let g = PartitionedGraph::from_edges(&edges, 2);
        let before = env.metrics().iterations_run();
        let _ = components(&env, &g, 1000, DELTA).unwrap();
        let rounds = env.metrics().iterations_run() - before;
        assert!(rounds < 10, "delta ran {rounds} rounds on a 2-cycle");
    }

    #[test]
    fn delta_solution_set_oom_reproduces_table_vii() {
        let env = FlinkEnv::new(2);
        let edges: Vec<(u64, u64)> = (0..100).map(|i| (i, (i + 1) % 100)).collect();
        let g = PartitionedGraph::from_edges(&edges, 2);
        let err = components(
            &env,
            &g,
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
        let env = Setup { faults: plan, ..Setup::new(4) }.flink();
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
        // Snapshots land after rounds 2, 4, …; the kill hits round 3, between
        // two of them. The delta workset *is* the inbox: a replay that
        // restored only the values would find nobody active and stop with
        // half-propagated labels.
        let g = PartitionedGraph::from_edges(&cycle(300), 4);
        let plan = FaultPlan::new(FaultConfig {
            seed: 9,
            kill_list: vec![(0, 3, 0)],
            checkpoint_interval_rounds: 2,
            backoff_base: std::time::Duration::from_micros(100),
            ..FaultConfig::default()
        });
        let env = Setup { faults: plan, ..Setup::new(4) }.flink();
        let faulted = components(&env, &g, 400, DELTA).unwrap();
        let clean_env = FlinkEnv::new(4);
        let clean = components(&clean_env, &g, 400, DELTA).unwrap();
        assert_eq!(faulted, clean);
        assert!(faulted.values().all(|c| *c == 0), "one component");
        let rec = env.metrics().recovery();
        assert_eq!(rec.injected_failures, 1);
        assert_eq!(rec.region_restarts, 1);
        assert!(rec.checkpoints_taken >= 4, "4 workers × ≥1 snapshot each");
        // Round 2 ran twice; round 3's killed attempt does not count.
        assert_eq!(
            env.metrics().iterations_run(),
            clean_env.metrics().iterations_run() + 1
        );
    }

    #[test]
    fn a_rotten_superstep_batch_rewinds_every_worker_to_the_snapshot() {
        use crate::faults::FaultConfig;
        let g = PartitionedGraph::from_edges(&random_edges(5, 3_000, 400), 3);
        let armed = || {
            Setup {
                faults: FaultPlan::new(FaultConfig {
                    seed: 17,
                    corrupt_first_n: 1,
                    checkpoint_interval_rounds: 2,
                    backoff_base: std::time::Duration::from_micros(100),
                    ..FaultConfig::default()
                }),
                ..Setup::new(3)
            }
            .flink()
        };
        // Bulk Page Rank: the replay folds the same sums in the same order.
        let env = armed();
        assert_eq!(ranks(&env, &g, 8), ranks(&FlinkEnv::new(3), &g, 8));
        // Delta CC.
        let env_cc = armed();
        assert_eq!(
            components(&env_cc, &g, 200, DELTA),
            components(&FlinkEnv::new(3), &g, 200, DELTA)
        );
        // Probability rot is a pure function of the plan's seed: pick one
        // whose first rotten batch leaves in round 3. One worker finds it
        // while the others stage their round-4 snapshot, which must never be
        // restored — the finder has no round-4 state to go with it.
        let dice = |seed| FaultConfig {
            seed,
            corruption_prob: 0.03,
            checkpoint_interval_rounds: 2,
            backoff_base: std::time::Duration::from_micros(100),
            ..FaultConfig::default()
        };
        let first_rot = |seed| {
            let plan = FaultPlan::new(dice(seed));
            (0..8 * 3).find(|&site| plan.corrupt_decision(0, site, 0).is_some())
        };
        let seed = (0..)
            .find(|&seed| first_rot(seed).is_some_and(|site| site / 3 == 3))
            .expect("some seed rots round 3 first");
        let env_late = Setup { faults: FaultPlan::new(dice(seed)), ..Setup::new(3) }.flink();
        assert_eq!(ranks(&env_late, &g, 8), ranks(&FlinkEnv::new(3), &g, 8));
        assert!(env_late.metrics().recovery().checkpoints_taken >= 3 + 2);
        for m in [&env, &env_cc, &env_late] {
            let rec = m.metrics().recovery();
            assert!(rec.corruptions_detected >= 1, "rot went unnoticed");
            assert!(rec.region_restarts >= 1);
            assert!(rec.batches_checksummed > 0);
        }
        assert_eq!(env.metrics().recovery().region_restarts, 1);
    }

    #[test]
    fn corruption_outliving_the_retry_budget_is_a_typed_failure() {
        use crate::faults::FaultConfig;
        let g = PartitionedGraph::from_edges(&random_edges(5, 3_000, 400), 3);
        let env = Setup {
            faults: FaultPlan::new(FaultConfig {
                seed: 17,
                corrupt_first_n: u64::MAX,
                max_attempts: 3,
                backoff_base: std::time::Duration::from_micros(100),
                ..FaultConfig::default()
            }),
            ..Setup::new(3)
        }
        .flink();
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ranks(&env, &g, 8)))
            .expect_err("every replay ships another rotten batch");
        assert!(payload.downcast_ref::<IntegrityError>().is_some());
        assert_eq!(env.metrics().recovery().region_restarts, 2);
    }

    #[test]
    fn a_batch_one_step_early_waits_for_its_round() {
        let (tx, inbox) = bounded(4);
        let mut mesh = Mesh {
            me: 0,
            peers: vec![tx.clone(), tx],
            inbox,
            arrived: [vec![None, None], vec![None, None]],
            have: [0; 2],
        };
        let envelope = |step, from| Envelope {
            step,
            from,
            verdict: Verdict::Go,
            sent_any: true,
            batch: (0, MessageBatch::default()),
        };
        // Worker 1 is a step ahead of worker 0's own step-0 envelope.
        for (step, from) in [(0, 1), (1, 1), (0, 0), (1, 0)] {
            mesh.peers[from].send(envelope(step, from)).unwrap();
        }
        for step in [0, 1] {
            let arrived = mesh.collect(step).expect("nobody aborted");
            let got: Vec<_> = arrived.iter().flatten().map(|e| (e.step, e.from)).collect();
            assert_eq!(got, vec![(step, 0), (step, 1)], "sender order, one step");
        }
    }

    #[test]
    fn a_panicking_vertex_program_fails_the_iteration_instead_of_hanging_it() {
        crate::faults::install_quiet_hook();
        let g = PartitionedGraph::from_edges(&cycle(300), 4);
        let env = FlinkEnv::new(4);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            vertex_centric(
                &env,
                &g,
                |v| v,
                |v, _out| {
                    if v.id == 200 && v.superstep == 2 {
                        panic_any(IntegrityError {
                            at: (0, 0, 0),
                            detail: "raised by the vertex program",
                        });
                    }
                },
                u64::min,
                10,
                IterationMode::Bulk,
            )
        }))
        .expect_err("the program's panic reaches the caller");
        assert!(payload.downcast_ref::<IntegrityError>().is_some());
    }

    #[test]
    fn vertex_centric_schedules_workers_once() {
        let env = FlinkEnv::new(4);
        let edges: Vec<(u64, u64)> = (0..50).map(|i| (i, (i + 1) % 50)).collect();
        let g = PartitionedGraph::from_edges(&edges, 4);
        let before = env.metrics().tasks_launched();
        let _ = components(&env, &g, 15, IterationMode::Bulk).unwrap();
        assert_eq!(env.metrics().tasks_launched() - before, 4);
    }
}
