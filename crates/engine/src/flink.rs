//! "Streamside": the pipelined, DataSet-based engine (Apache Flink
//! semantics).
//!
//! Faithful to §II-B/§II-C:
//! - operators are deployed **once** and connected by **pipelined
//!   channels**: shuffle producers and consumers run concurrently, with
//!   bounded channels standing in for Flink's network buffers (capacity =
//!   `network_buffers_per_channel`, backpressure when full);
//! - aggregation is the **sort-based combiner** on managed memory
//!   ([`crate::sortbuf::SortCombineBuffer`]), §VI-A;
//! - there is **no user persistence control** — re-using a `DataSet` in two
//!   jobs recomputes it from the source, the limitation §VI-B blames for
//!   Flink's Grep disadvantage;
//! - native iteration operators live in [`crate::iterate`].

use std::any::Any;
use std::collections::BTreeMap;
use std::hash::Hash;
use std::panic::{catch_unwind, panic_any, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{bounded, Sender, TrySendError};
use parking_lot::Mutex;

use flowmark_core::config::EngineConfig;
use flowmark_core::spans::PlanTrace;
use flowmark_dataflow::partitioner::{HashPartitioner, Partitioner};

use flowmark_columnar::{Checksummable, Xxh64};

use crate::faults::{
    check_cancelled, run_recoverable, CancelToken, FaultPlan, IntegrityError, JobCancelled,
    RecoveryKind, StreamFault,
};
use crate::hash::{fx_map_with_capacity, FxHashMap};
use crate::memory::BufferPool;
use crate::metrics::EngineMetrics;
use crate::runtime::{self, FragmentHandle};
use crate::setup::Setup;
use crate::shuffle::{seal, verify, Materialised, Partition, Sealed, ShuffleBatch};
use crate::sortbuf::{CombineFn, SortCombineBuffer};
use flowmark_sched::{FragmentCache, FragmentKey};

/// Shared environment state.
struct EnvInner {
    /// Every tunable knob, unified: parallelism, the per-channel
    /// network-buffer pool (§IV-B), the sort/combine budget and spill
    /// discipline.
    config: EngineConfig,
    metrics: EngineMetrics,
    trace: Mutex<PlanTrace>,
    start: Instant,
    /// Peak number of concurrently live pipeline threads, a direct
    /// measurement of pipelined deployment.
    live_tasks: AtomicU64,
    peak_tasks: AtomicU64,
    /// Fault-injection plan; [`FaultPlan::disabled`] outside chaos runs.
    faults: FaultPlan,
    /// Monotone id source keying injection decisions per exchange/action.
    next_stage: AtomicU64,
    /// Job-level cancellation: set by the serve layer on deadline expiry
    /// or explicit cancel; producers, consumers and sink tasks observe it.
    cancel: CancelToken,
    /// Pending fragment-cache attachment; the next batch exchange on this
    /// environment claims it (at most one per registration).
    fragment: Mutex<Option<FragmentHandle>>,
}

/// The execution environment ("ExecutionEnvironment"). Cheap to clone.
#[derive(Clone)]
pub struct FlinkEnv {
    inner: Arc<EnvInner>,
}

impl FlinkEnv {
    /// An environment at `parallelism`; every other knob takes its
    /// [`EngineConfig`] default. Short for `Setup::new(parallelism).flink()`.
    pub fn new(parallelism: usize) -> Self {
        Setup::new(parallelism).flink()
    }

    /// Short for `Setup::from(*config).flink()`.
    pub fn with_config(config: &EngineConfig) -> Self {
        Setup::from(*config).flink()
    }

    /// Short for a [`Setup`] with these three fields and no fragment cache.
    pub fn with_config_faults_cancel(
        config: &EngineConfig,
        faults: FaultPlan,
        cancel: CancelToken,
    ) -> Self {
        Setup {
            faults,
            cancel,
            ..Setup::from(*config)
        }
        .flink()
    }

    /// Builds an environment from `setup`. Every job runs under its fault
    /// plan, recovering via checkpointed region restarts. Setting its
    /// cancel token tears down any in-flight job: pipeline pumps unwind
    /// with a [`crate::faults::JobCancelled`] payload and channels drain as
    /// the task scope joins.
    pub(crate) fn build(setup: &Setup) -> Self {
        let config = setup.config;
        config.validate().expect("invalid engine config");
        Self {
            inner: Arc::new(EnvInner {
                config,
                metrics: EngineMetrics::new(),
                trace: Mutex::new(PlanTrace::new()),
                start: Instant::now(),
                live_tasks: AtomicU64::new(0),
                peak_tasks: AtomicU64::new(0),
                faults: setup.faults.clone(),
                next_stage: AtomicU64::new(0),
                cancel: setup.cancel.clone(),
                fragment: Mutex::new(setup.fragment.clone()),
            }),
        }
    }

    /// The configuration this environment runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// Run metrics.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.inner.metrics
    }

    /// The environment's fault plan (disabled outside chaos runs).
    pub fn faults(&self) -> &FaultPlan {
        &self.inner.faults
    }

    /// The job-level cancellation token every pipeline task polls.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.inner.cancel
    }

    /// Attaches a cross-job fragment-cache handle: the next batch exchange
    /// on this environment consults `cache` under `key` (every reuse
    /// re-verified against its stored checksum) and populates it on miss.
    pub fn register_fragment(&self, cache: Arc<FragmentCache>, key: FragmentKey) {
        *self.inner.fragment.lock() = Some((cache, key));
    }

    fn take_fragment(&self) -> Option<FragmentHandle> {
        self.inner.fragment.lock().take()
    }

    pub(crate) fn next_stage_id(&self) -> u64 {
        self.inner.next_stage.fetch_add(1, Ordering::Relaxed)
    }

    /// Operator spans recorded so far.
    pub fn trace(&self) -> PlanTrace {
        self.inner.trace.lock().clone()
    }

    /// Default parallelism.
    pub fn parallelism(&self) -> usize {
        self.inner.config.parallelism
    }

    /// Peak concurrently-live pipeline tasks observed.
    pub fn peak_tasks(&self) -> u64 {
        self.inner.peak_tasks.load(Ordering::Relaxed)
    }

    fn task_started(&self) {
        let live = self.inner.live_tasks.fetch_add(1, Ordering::AcqRel) + 1;
        self.inner.peak_tasks.fetch_max(live, Ordering::AcqRel);
        self.inner.metrics.add_tasks_launched(1);
    }

    fn task_finished(&self) {
        self.inner.live_tasks.fetch_sub(1, Ordering::AcqRel);
    }

    fn record_span(&self, name: &str, started: Instant) {
        let t0 = started.duration_since(self.inner.start).as_secs_f64();
        let t1 = self.inner.start.elapsed().as_secs_f64();
        self.inner.trace.lock().record(name.to_string(), t0, t1);
    }

    /// Creates a DataSet from a local collection. The vector is neither
    /// copied nor re-chunked: each task is handed a range of it.
    pub fn from_collection<T: Clone + Send + Sync + 'static>(&self, data: Vec<T>) -> DataSet<T> {
        let partitions = self.parallelism();
        self.metrics().add_records_read(data.len() as u64);
        let op = SourceOp {
            data: Arc::new(data),
            partitions,
        };
        DataSet {
            env: self.clone(),
            op: Arc::new(op),
            partitions,
        }
    }
}

/// How a partition of this DataSet is derived — the staged engine's
/// `RddOp` contract: the partition comes back shared, a source hands out
/// a range of the vector it holds (it must stay re-readable: every job
/// and every region restart reads it again), read-only operators borrow
/// through it, and only an operator that needs ownership of a still-shared
/// partition pays for a copy ([`Partition::into_vec`]). Nothing else is
/// kept: a materialised exchange hands each partition out by move, and a
/// second ask for it re-runs the exchange.
trait DsOp<T>: Send + Sync {
    fn compute(&self, env: &FlinkEnv, part: usize) -> Partition<T>;
}

struct SourceOp<T> {
    data: Arc<Vec<T>>,
    partitions: usize,
}

impl<T: Send + Sync> DsOp<T> for SourceOp<T> {
    fn compute(&self, env: &FlinkEnv, part: usize) -> Partition<T> {
        env.metrics().add_compute_calls(1);
        Partition::chunk_of(&self.data, part, self.partitions)
    }
}

struct ChainOp<T, U, F>
where
    F: Fn(Partition<T>) -> Vec<U> + Send + Sync,
{
    parent: Arc<dyn DsOp<T>>,
    f: F,
}

impl<T, U, F> DsOp<U> for ChainOp<T, U, F>
where
    T: Send + Sync,
    U: Send + Sync,
    F: Fn(Partition<T>) -> Vec<U> + Send + Sync,
{
    fn compute(&self, env: &FlinkEnv, part: usize) -> Partition<U> {
        env.metrics().add_compute_calls(1);
        (self.f)(self.parent.compute(env, part)).into()
    }
}

/// A typed dataset: a plan of chained operators.
pub struct DataSet<T> {
    env: FlinkEnv,
    op: Arc<dyn DsOp<T>>,
    partitions: usize,
}

impl<T> Clone for DataSet<T> {
    fn clone(&self) -> Self {
        Self {
            env: self.env.clone(),
            op: Arc::clone(&self.op),
            partitions: self.partitions,
        }
    }
}

impl<T: Clone + Send + Sync + 'static> DataSet<T> {
    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions
    }

    /// Element-wise map (chained, no task boundary).
    pub fn map<U, F>(&self, f: F) -> DataSet<U>
    where
        U: Clone + Send + Sync + 'static,
        F: Fn(&T) -> U + Send + Sync + 'static,
    {
        DataSet {
            env: self.env.clone(),
            op: Arc::new(ChainOp {
                parent: Arc::clone(&self.op),
                f: move |input: Partition<T>| input.iter().map(&f).collect(),
            }),
            partitions: self.partitions,
        }
    }

    /// One-to-many map.
    pub fn flat_map<U, I, F>(&self, f: F) -> DataSet<U>
    where
        U: Clone + Send + Sync + 'static,
        I: IntoIterator<Item = U>,
        F: Fn(&T) -> I + Send + Sync + 'static,
    {
        DataSet {
            env: self.env.clone(),
            op: Arc::new(ChainOp {
                parent: Arc::clone(&self.op),
                f: move |input: Partition<T>| input.iter().flat_map(&f).collect(),
            }),
            partitions: self.partitions,
        }
    }

    /// Predicate filter.
    pub fn filter<F>(&self, f: F) -> DataSet<T>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        DataSet {
            env: self.env.clone(),
            op: Arc::new(ChainOp {
                parent: Arc::clone(&self.op),
                f: move |input: Partition<T>| input.into_retained(&f),
            }),
            partitions: self.partitions,
        }
    }

    /// Per-partition sort (`sortPartition`).
    pub fn sort_partition<F>(&self, cmp: F) -> DataSet<T>
    where
        F: Fn(&T, &T) -> std::cmp::Ordering + Send + Sync + 'static,
    {
        DataSet {
            env: self.env.clone(),
            op: Arc::new(ChainOp {
                parent: Arc::clone(&self.op),
                f: move |input: Partition<T>| {
                    let mut input = input.into_vec();
                    input.sort_by(&cmp);
                    input
                },
            }),
            partitions: self.partitions,
        }
    }

    /// Materialises every partition with one concurrently-deployed task per
    /// partition (all tasks live at once — pipelined deployment). Under an
    /// active fault plan each sink task runs recoverably: an injected (or
    /// real) panic replays the operator chain for that partition.
    fn materialise(&self) -> Vec<Vec<T>> {
        let env = &self.env;
        let plan = env.faults();
        let stage = env.next_stage_id();
        let op = &self.op;
        // One pool batch of sink tasks. The first panic payload is re-raised
        // intact (JobCancelled must reach the serve layer typed); exchange
        // producers and consumers keep their own threads, so a sink task
        // waiting on an exchange never waits on a pool slot.
        runtime::run_stage(env.metrics(), self.partitions, |p| {
            env.task_started();
            let cancel = env.cancel_token();
            let out = if plan.active() {
                run_recoverable(
                    plan,
                    env.metrics(),
                    None,
                    RecoveryKind::Region,
                    stage,
                    p,
                    cancel,
                    &|| op.compute(env, p),
                )
            } else {
                check_cancelled(cancel, env.metrics(), stage, p);
                op.compute(env, p)
            };
            env.task_finished();
            out.into_vec()
        })
    }

    /// Counts records (action).
    pub fn count(&self) -> u64 {
        let started = Instant::now();
        let n = self.materialise().iter().map(|p| p.len() as u64).sum();
        self.env.record_span("count", started);
        n
    }

    /// Collects every record to the driver (action).
    pub fn collect(&self) -> Vec<T> {
        let started = Instant::now();
        let out = self.materialise().into_iter().flatten().collect();
        self.env.record_span("collect", started);
        out
    }

    /// Collects preserving partition boundaries (action) — used by sorted
    /// outputs where partition order carries meaning (TeraSort).
    pub fn collect_partitions(&self) -> Vec<Vec<T>> {
        let started = Instant::now();
        let out = self.materialise();
        self.env.record_span("collect", started);
        out
    }

    /// Repartitions with a custom partitioner (`partitionCustom`). The
    /// exchange is **pipelined**: senders stream records into bounded
    /// channels while receivers drain them concurrently.
    pub fn partition_custom<K, P, KF>(&self, partitioner: Arc<P>, key_of: KF) -> DataSet<T>
    where
        K: Hash + Send + Sync + 'static,
        P: Partitioner<K> + Send + Sync + 'static,
        KF: Fn(&T) -> K + Send + Sync + 'static,
    {
        let parent = Arc::clone(&self.op);
        let in_parts = self.partitions;
        let out_parts = partitioner.partitions();
        let record_bytes = std::mem::size_of::<T>();
        let op = PipelinedExchange::new(
            in_parts,
            out_parts,
            move |env: &FlinkEnv, out: &mut Outbox<T>, part| {
                let records = parent.compute(env, part).into_vec();
                env.metrics().add_records_shuffled(records.len() as u64);
                env.metrics()
                    .add_bytes_shuffled((records.len() * record_bytes) as u64);
                for r in records {
                    let p = partitioner.partition(&key_of(&r));
                    out.send(p, r);
                }
            },
        );
        DataSet {
            env: self.env.clone(),
            op: Arc::new(op),
            partitions: out_parts,
        }
    }
}

impl<B> DataSet<(usize, B)>
where
    B: ShuffleBatch + Checksummable + Clone + Send + Sync + 'static,
{
    /// Batch-granularity pipelined exchange: each element is a whole
    /// pre-routed batch tagged with its target partition index, and one
    /// channel send moves the entire batch — thousands of rows per bounded-
    /// channel operation instead of one, collapsing per-record send
    /// overhead (and backpressure churn) on the hot path. Map tasks route
    /// rows into per-reducer batches themselves and tag them; this operator
    /// only streams.
    ///
    /// Every batch crosses the channels sealed with a write-time digest and
    /// is verified at receive, *before* it enters the consumer's buffers —
    /// so no corrupted batch can ever be captured by a checkpoint. A
    /// mismatch fails the region, which restarts from the last verified
    /// checkpoint; corruption that survives the retry budget escapes as a
    /// typed [`IntegrityError`].
    pub fn exchange_by_index(&self, out_parts: usize) -> DataSet<B> {
        let parent = Arc::clone(&self.op);
        let in_parts = self.partitions;
        let seed = self.env.faults().checksum_seed();
        // Claim any registered fragment-cache attachment now, at plan
        // construction: only the job that registered one pays gate overhead.
        let fragment = self.env.take_fragment();
        let op = PipelinedExchange::with_verify(
            in_parts,
            out_parts,
            move |env: &FlinkEnv, out: &mut Outbox<Sealed<B>>, part| {
                let batches = parent.compute(env, part).into_vec();
                let mut sealed: Vec<(usize, Sealed<B>)> = Vec::with_capacity(batches.len());
                for (idx, batch) in batches {
                    assert!(
                        idx < out.channels(),
                        "batch routed to partition {idx} of {}",
                        out.channels()
                    );
                    env.metrics().add_records_shuffled(batch.rows() as u64);
                    env.metrics().add_bytes_shuffled(batch.bytes() as u64);
                    env.metrics().add_batches_processed(1);
                    sealed.push((idx, seal(batch, seed, env.metrics())));
                }
                // Inject transit damage *after* the digests were taken, and
                // only into a batch this attempt will actually send — a
                // victim inside the replay-suppressed restored prefix could
                // never reach a verifier.
                if let Some((kind, salt)) =
                    env.faults().corrupt_decision(out.stage(), part, out.attempt())
                {
                    let first_live = out.pending_skip() as usize;
                    if first_live < sealed.len() {
                        let victim = first_live + (salt as usize) % (sealed.len() - first_live);
                        sealed[victim].1 .1.corrupt(kind, salt.rotate_right(13));
                    }
                }
                for (idx, s) in sealed {
                    out.send(idx, s);
                }
            },
            Arc::new(move |s: &Sealed<B>| verify(s, seed)),
        );
        // Receive-time verification already vouched for every batch; what
        // flows downstream is the batch alone.
        let sealed_op = Arc::new(op) as Arc<dyn DsOp<Sealed<B>>>;
        let op: Arc<dyn DsOp<B>> = match fragment {
            Some(handle) => Arc::new(FragmentGateOp {
                inner: sealed_op,
                handle,
                seed,
                out_parts,
                resolved: Materialised::new(),
            }),
            None => Arc::new(ChainOp {
                parent: sealed_op,
                f: |input: Partition<Sealed<B>>| unseal(input.into_vec()),
            }),
        };
        DataSet {
            env: self.env.clone(),
            op,
            partitions: out_parts,
        }
    }
}

/// Drops the digests of batches that were verified at receive.
fn unseal<B>(sealed: Vec<Sealed<B>>) -> Vec<B> {
    sealed.into_iter().map(|(_, b)| b).collect()
}

/// Gate in front of a sealed batch exchange, wired to the cross-job
/// fragment cache. Resolves once per job: a checksum-verified cache hit
/// skips the exchange (and all of its producer/consumer threads)
/// entirely; a miss runs it, stores a copy of the sealed output for
/// future jobs, and serves the unwrapped batches — the job's own, by move.
struct FragmentGateOp<B> {
    inner: Arc<dyn DsOp<Sealed<B>>>,
    handle: FragmentHandle,
    seed: u64,
    out_parts: usize,
    resolved: Materialised<B>,
}

impl<B> DsOp<B> for FragmentGateOp<B>
where
    B: ShuffleBatch + Checksummable + Clone + Send + Sync + 'static,
{
    fn compute(&self, env: &FlinkEnv, part: usize) -> Partition<B> {
        self.resolved.take(part, || {
            let started = Instant::now();
            if let Some(cached) = runtime::fragment_lookup::<B>(&self.handle, env.metrics()) {
                env.record_span("pipelined-exchange(cached)", started);
                return cached.into_iter().map(unseal).collect();
            }
            let sealed: Vec<Vec<Sealed<B>>> = (0..self.out_parts)
                .map(|p| self.inner.compute(env, p).into_vec())
                .collect();
            runtime::fragment_store(&self.handle, env.metrics(), self.seed, &sealed);
            sealed.into_iter().map(unseal).collect()
        })
    }
}

impl<K, V> DataSet<(K, V)>
where
    K: Clone + Send + Sync + Hash + Ord + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// `groupBy → reduce` (sum): map-side sort-based combine, pipelined hash
    /// exchange, reduce-side sort-based aggregation — Flink's aggregation
    /// component from §VI-A.
    pub fn group_reduce<F>(&self, f: F) -> DataSet<(K, V)>
    where
        F: Fn(&mut V, V) + Send + Sync + 'static,
    {
        let combine: CombineFn<V> = Arc::new(f);
        let parent = Arc::clone(&self.op);
        let in_parts = self.partitions;
        let out_parts = self.env.parallelism();
        let record_bytes = std::mem::size_of::<(K, V)>();
        let combine_records = self.env.inner.config.combine_buffer_records;
        let combine_enabled = self.env.inner.config.combine_enabled;
        let spill_run_budget = self.env.inner.config.spill_run_budget;
        let send_combine = Arc::clone(&combine);
        let exchange = PipelinedExchange::new(
            in_parts,
            out_parts,
            move |env: &FlinkEnv, out: &mut Outbox<(K, V)>, part| {
                let records = parent.compute(env, part).into_vec();
                let channels = out.channels();
                let partitioner = HashPartitioner::new(channels);
                if !combine_enabled {
                    // Combine switched off: every raw record crosses the
                    // exchange (the §VI-A "aggregation component" without
                    // its map-side half).
                    env.metrics().add_records_shuffled(records.len() as u64);
                    env.metrics()
                        .add_bytes_shuffled((records.len() * record_bytes) as u64);
                    for (k, v) in records {
                        let p = partitioner.partition(&k);
                        out.send(p, (k, v));
                    }
                    return;
                }
                // Map-side combine per output channel; one shared pool
                // recycles run storage across all of this task's buffers,
                // and its outstanding cap turns run pile-ups into early
                // merges (the managed-memory spill discipline).
                let pool = Arc::new(BufferPool::with_limit(
                    2 * channels,
                    spill_run_budget * channels,
                ));
                let mut buffers: Vec<SortCombineBuffer<K, V>> = (0..channels)
                    .map(|_| {
                        SortCombineBuffer::with_pool(
                            combine_records,
                            record_bytes,
                            Arc::clone(&send_combine),
                            env.metrics().clone(),
                            Arc::clone(&pool),
                        )
                    })
                    .collect();
                for (k, v) in records {
                    let p = partitioner.partition(&k);
                    buffers[p].insert(k, v);
                }
                for (p, buf) in buffers.into_iter().enumerate() {
                    let combined = buf.finish();
                    env.metrics().add_records_shuffled(combined.len() as u64);
                    env.metrics()
                        .add_bytes_shuffled((combined.len() * record_bytes) as u64);
                    for kv in combined {
                        out.send(p, kv);
                    }
                }
            },
        );
        // Reduce side: the exchange delivers per-partition streams; fold
        // them with a final combine.
        let reduce_combine = combine;
        let reduced = ChainOp {
            parent: Arc::new(exchange) as Arc<dyn DsOp<(K, V)>>,
            f: move |input: Partition<(K, V)>| {
                let mut agg: FxHashMap<K, V> = fx_map_with_capacity(input.len());
                for (k, v) in input.into_vec() {
                    match agg.entry(k) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            reduce_combine(e.get_mut(), v)
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(v);
                        }
                    }
                }
                let mut out: Vec<(K, V)> = agg.into_iter().collect();
                out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                out
            },
        };
        DataSet {
            env: self.env.clone(),
            op: Arc::new(reduced),
            partitions: out_parts,
        }
    }
}

// ---- additional DataSet operators -----------------------------------------

impl<T: Clone + Send + Sync + 'static> DataSet<T> {
    /// Whole-partition map (`mapPartition`). `f` reads the partition
    /// through the `Deref` to `[T]`, or takes the elements with
    /// [`Partition::into_vec`] — free downstream of an operator or an
    /// exchange, a copy directly on a source.
    pub fn map_partition<U, F>(&self, f: F) -> DataSet<U>
    where
        U: Clone + Send + Sync + 'static,
        F: Fn(Partition<T>) -> Vec<U> + Send + Sync + 'static,
    {
        DataSet {
            env: self.env.clone(),
            op: Arc::new(ChainOp {
                parent: Arc::clone(&self.op),
                f,
            }),
            partitions: self.partitions,
        }
    }

    /// `union`: concatenates two DataSets partition-wise.
    pub fn union(&self, other: &DataSet<T>) -> DataSet<T> {
        let left = Arc::clone(&self.op);
        let right = Arc::clone(&other.op);
        let split = self.partitions;
        let total = split + other.partitions;
        struct UnionOp<T> {
            left: Arc<dyn DsOp<T>>,
            right: Arc<dyn DsOp<T>>,
            split: usize,
        }
        impl<T: Send + Sync> DsOp<T> for UnionOp<T> {
            fn compute(&self, env: &FlinkEnv, part: usize) -> Partition<T> {
                if part < self.split {
                    self.left.compute(env, part)
                } else {
                    self.right.compute(env, part - self.split)
                }
            }
        }
        DataSet {
            env: self.env.clone(),
            op: Arc::new(UnionOp { left, right, split }),
            partitions: total,
        }
    }

    /// Global `reduce` (action): folds every record.
    pub fn reduce<F>(&self, f: F) -> Option<T>
    where
        F: Fn(T, T) -> T + Send + Sync,
    {
        let started = Instant::now();
        let out = self
            .materialise()
            .into_iter()
            .filter_map(|p| p.into_iter().reduce(&f))
            .reduce(&f);
        self.env.record_span("reduce", started);
        out
    }
}

impl<T> DataSet<T>
where
    T: Clone + Send + Sync + std::hash::Hash + Ord + 'static,
{
    /// `distinct`: deduplicates via the pipelined grouping machinery.
    pub fn distinct(&self) -> DataSet<T> {
        self.map(|t| (t.clone(), ()))
            .group_reduce(|_, _| {})
            .map(|(t, _)| t.clone())
    }
}

impl<K, V> DataSet<(K, V)>
where
    K: Clone + Send + Sync + Hash + Ord + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Inner equi-`join`: both sides hash-exchange on the key, then each
    /// partition builds the left side and probes with the right — the
    /// repartition-join strategy Flink's optimizer picks for same-size
    /// inputs.
    pub fn join<W>(&self, other: &DataSet<(K, W)>) -> DataSet<(K, (V, W))>
    where
        W: Clone + Send + Sync + 'static,
    {
        self.co_group(other).flat_map(|(k, (vs, ws))| {
            let mut out = Vec::with_capacity(vs.len() * ws.len());
            for v in vs {
                for w in ws {
                    out.push((k.clone(), (v.clone(), w.clone())));
                }
            }
            out
        })
    }

    /// `coGroup`: groups both inputs by key into
    /// `(key, (left values, right values))` — the operator whose in-memory
    /// solution set drives the Table VII failures.
    pub fn co_group<W>(&self, other: &DataSet<(K, W)>) -> DataSet<(K, (Vec<V>, Vec<W>))>
    where
        W: Clone + Send + Sync + 'static,
    {
        let tagged_left = self.map(|(k, v)| (k.clone(), (Some(v.clone()), None::<W>)));
        let tagged_right = other.map(|(k, w)| (k.clone(), (None::<V>, Some(w.clone()))));
        tagged_left
            .union(&tagged_right)
            .map(|(k, vw)| (k.clone(), vec![vw.clone()]))
            .group_reduce(|acc, mut v| acc.append(&mut v))
            .map(|(k, tagged)| {
                let mut vs = Vec::new();
                let mut ws = Vec::new();
                for (v, w) in tagged {
                    if let Some(v) = v {
                        vs.push(v.clone());
                    }
                    if let Some(w) = w {
                        ws.push(w.clone());
                    }
                }
                (k.clone(), (vs, ws))
            })
    }
}

/// One message on an exchange channel: a record tagged with its producer, a
/// channel-aligned checkpoint barrier, or a producer's end-of-stream marker.
enum Msg<T> {
    Record(usize, T),
    Barrier(usize, u64),
    Done(usize),
}

/// Producer-side handle over the exchange channels. Streams records, emits
/// aligned checkpoint barriers every `interval` sends, suppresses the
/// prefix a restored checkpoint already covers, and degrades gracefully
/// when a consumer disappears mid-stream: a failed send flags the region
/// for restart instead of panicking, so bounded-channel backpressure can
/// never deadlock a producer against a dead receiver.
pub(crate) struct Outbox<T> {
    txs: Vec<Sender<Msg<T>>>,
    producer: usize,
    /// Sends between barriers; 0 disables checkpointing (fault-free runs).
    interval: u64,
    /// Sends covered by the restored checkpoint — replayed, not re-sent.
    skip: u64,
    sent: u64,
    failed: Arc<AtomicBool>,
    fault: StreamFault,
    /// Counts sends that found the channel full (backpressure stalls).
    metrics: EngineMetrics,
    /// Exchange stage id, for the cancellation teardown payload.
    stage: u64,
    /// Region attempt this producer runs under (0 on the first deployment,
    /// incremented per restart) — the key fault-injection decisions use.
    attempt: u32,
    /// Job-level token: a set token unwinds the producer mid-stream.
    cancel: CancelToken,
}

impl<T> Outbox<T> {
    /// Number of output channels (consumer partitions).
    pub(crate) fn channels(&self) -> usize {
        self.txs.len()
    }

    /// The exchange's stage id (the injection key for this region).
    pub(crate) fn stage(&self) -> u64 {
        self.stage
    }

    /// The region attempt this producer belongs to.
    pub(crate) fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Sends the restored checkpoint already covers: this attempt's first
    /// `pending_skip()` sends are replay-suppressed, never reaching a
    /// consumer.
    pub(crate) fn pending_skip(&self) -> u64 {
        self.skip
    }

    /// Streams one record to `channel`, running the per-record fault hook
    /// (which may inject a mid-stream kill or straggler slowdown).
    pub(crate) fn send(&mut self, channel: usize, record: T) {
        check_cancelled(&self.cancel, &self.metrics, self.stage, self.producer);
        self.fault.on_event();
        self.sent += 1;
        if self.sent <= self.skip {
            // Deterministic producers re-derive the same record sequence on
            // every attempt, so the checkpointed prefix is simply skipped.
            return;
        }
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        // Try the fast non-blocking path first; a full channel is the
        // backpressure signal (§IV-B) — counted, then waited out with a
        // blocking send.
        let msg = match self.txs[channel].try_send(Msg::Record(self.producer, record)) {
            Ok(()) => None,
            Err(TrySendError::Full(msg)) => {
                self.metrics.add_backpressure_waits(1);
                Some(msg)
            }
            Err(TrySendError::Disconnected(_)) => {
                self.failed.store(true, Ordering::Relaxed);
                return;
            }
        };
        if let Some(msg) = msg {
            if self.txs[channel].send(msg).is_err() {
                self.failed.store(true, Ordering::Relaxed);
                return;
            }
        }
        if self.interval > 0 && self.sent % self.interval == 0 {
            // Barrier k covers the first k×interval sends. Barriers for the
            // restored prefix never re-fire: those sends return early above.
            let k = self.sent / self.interval;
            for tx in &self.txs {
                if tx.send(Msg::Barrier(self.producer, k)).is_err() {
                    self.failed.store(true, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    /// Ends the stream: fires any kill armed beyond the stream's length,
    /// then delivers end-of-stream markers to every consumer. A producer
    /// in a flagged (failing) region stays silent instead: it may have
    /// suppressed records after the flag went up, and advertising
    /// end-of-stream would let consumers pin a checkpoint over the
    /// truncated stream — records the replay would then skip as "already
    /// checkpointed". The attempt is doomed anyway; the channels just
    /// close.
    fn finish(mut self) {
        self.fault.on_finish();
        if self.failed.load(Ordering::Relaxed) {
            return;
        }
        for tx in &self.txs {
            let _ = tx.send(Msg::Done(self.producer));
        }
    }
}

/// One completed checkpoint as *stored*: the resolved per-producer prefix
/// lengths plus the digest taken at store time. Every reader recomputes
/// the digest before trusting the prefix ([`snapshot_digest`]), so at-rest
/// rot is detected instead of replayed into the output.
struct Snapshot {
    prefix: Vec<usize>,
    digest: u64,
}

/// Digest of a checkpoint snapshot as stored: the checkpoint id plus every
/// per-producer prefix length, keyed by the run's checksum seed.
fn snapshot_digest(seed: u64, ckpt: u64, prefix: &[usize]) -> u64 {
    let mut h = Xxh64::new(seed);
    h.write_u64(ckpt);
    for &p in prefix {
        h.write_u64(p as u64);
    }
    h.finish()
}

/// One consumer partition's state, persistent across region restarts.
struct ConsumerState<T> {
    /// Received records, segregated per producer so a checkpoint is an
    /// exact per-producer prefix regardless of channel interleaving.
    bufs: Vec<Vec<T>>,
    /// Barrier alignment in flight this attempt: checkpoint id → observed
    /// prefix length per producer (`None` until that barrier arrives).
    marks: BTreeMap<u64, Vec<Option<usize>>>,
    /// Completed checkpoints: id → stored snapshot. Survives restarts —
    /// restoring truncates `bufs` to one of these, after verification.
    snapshots: BTreeMap<u64, Snapshot>,
    done: Vec<bool>,
    /// Highest checkpoint this consumer completed since the last restore.
    completed: u64,
}

impl<T> ConsumerState<T> {
    fn new(producers: usize) -> Self {
        Self {
            bufs: (0..producers).map(|_| Vec::new()).collect(),
            marks: BTreeMap::new(),
            snapshots: BTreeMap::new(),
            done: vec![false; producers],
            completed: 0,
        }
    }

    /// Completes every checkpoint whose barriers (or end-of-stream, which
    /// pins the prefix at the full stream) have arrived from all producers,
    /// in order, publishing progress for the restart coordinator.
    ///
    /// Completing checkpoint `k` also *scrubs* snapshot `k − 1`: the older
    /// snapshot is read back and its digest re-verified (with injected rot
    /// applied at this read, where at-rest damage is observed) while the
    /// newer one can still serve as the restore point. A failed read-back
    /// discards the snapshot and counts a rejection.
    #[allow(clippy::too_many_arguments)]
    fn try_complete(
        &mut self,
        me: usize,
        progress: &Mutex<Vec<u64>>,
        metrics: &EngineMetrics,
        record_bytes: usize,
        plan: &FaultPlan,
        stage: u64,
        attempt: u32,
        seed: u64,
    ) {
        loop {
            let next = self.completed + 1;
            let Some(positions) = self.marks.get_mut(&next) else {
                break;
            };
            if !positions
                .iter()
                .enumerate()
                .all(|(p, m)| m.is_some() || self.done[p])
            {
                break;
            }
            let mut resolved = Vec::with_capacity(positions.len());
            let mut snapshot_records = 0usize;
            for (p, m) in positions.iter_mut().enumerate() {
                let pos = *m.get_or_insert(self.bufs[p].len());
                resolved.push(pos);
                snapshot_records += pos;
            }
            let digest = snapshot_digest(seed, next, &resolved);
            self.snapshots.insert(
                next,
                Snapshot {
                    prefix: resolved,
                    digest,
                },
            );
            self.completed = next;
            metrics.add_checkpoints_taken(1);
            metrics.add_checkpoint_bytes((snapshot_records * record_bytes) as u64);
            progress.lock()[me] = next;
            let producers = self.bufs.len();
            let prev = next - 1;
            if prev > 0 {
                if let Some(snap) = self.snapshots.get(&prev) {
                    let rotten =
                        plan.checkpoint_rot_decision(stage, producers + me, prev, attempt)
                            || snap.digest != snapshot_digest(seed, prev, &snap.prefix);
                    if rotten {
                        self.snapshots.remove(&prev);
                        metrics.add_checkpoints_rejected(1);
                        metrics.add_corruptions_detected(1);
                    }
                }
            }
        }
    }

    /// Rewinds to the global restore point `g`: truncates every producer's
    /// buffer to the checkpointed prefix and clears this attempt's
    /// alignment state. `g` must have been verified (or be 0).
    fn restore(&mut self, g: u64) {
        for (p, buf) in self.bufs.iter_mut().enumerate() {
            let keep = if g == 0 { 0 } else { self.snapshots[&g].prefix[p] };
            buf.truncate(keep);
        }
        self.snapshots.split_off(&(g + 1));
        self.marks.clear();
        self.done.iter_mut().for_each(|d| *d = false);
        self.completed = g;
    }
}

fn remember_panic(slot: &Mutex<Option<Box<dyn Any + Send>>>, payload: Box<dyn Any + Send>) {
    let mut slot = slot.lock();
    if slot.is_none() {
        *slot = Some(payload);
    }
}

/// A pipelined all-to-all exchange. Producer tasks (one per input
/// partition) and the consuming operator run concurrently; per-channel
/// bounded queues model Flink's network buffers, blocking producers when a
/// consumer lags (backpressure).
///
/// Under an active fault plan the exchange is a **restartable region** with
/// channel-aligned checkpoints: producers emit barriers every
/// `checkpoint_interval_records` sends, consumers snapshot per-producer
/// prefixes when a barrier has arrived from every producer, and an injected
/// (or real) failure anywhere in the region replays it from the last
/// globally-completed checkpoint instead of aborting the job.
struct PipelinedExchange<T, P>
where
    P: Fn(&FlinkEnv, &mut Outbox<T>, usize) + Send + Sync,
{
    in_parts: usize,
    out_parts: usize,
    produce: P,
    /// Receive-time integrity check, run on every record *before* it can
    /// enter a consumer's buffers (and therefore before any checkpoint can
    /// capture it). `false` fails the region with a typed
    /// [`IntegrityError`].
    verify: Option<Arc<dyn Fn(&T) -> bool + Send + Sync>>,
    /// What the last deployment delivered and no consumer has taken yet.
    output: Materialised<T>,
}

impl<T, P> PipelinedExchange<T, P>
where
    T: Send + Sync,
    P: Fn(&FlinkEnv, &mut Outbox<T>, usize) + Send + Sync,
{
    fn new(in_parts: usize, out_parts: usize, produce: P) -> Self {
        Self {
            in_parts,
            out_parts,
            produce,
            verify: None,
            output: Materialised::new(),
        }
    }

    fn with_verify(
        in_parts: usize,
        out_parts: usize,
        produce: P,
        verify: Arc<dyn Fn(&T) -> bool + Send + Sync>,
    ) -> Self {
        Self {
            in_parts,
            out_parts,
            produce,
            verify: Some(verify),
            output: Materialised::new(),
        }
    }

    fn run(&self, env: &FlinkEnv) -> Vec<Vec<T>> {
        let started = Instant::now();
        let cap = env.inner.config.network_buffer_records;
        let record_bytes = std::mem::size_of::<T>();
        let plan = env.faults().clone();
        let stage = env.next_stage_id();
        let seed = plan.checksum_seed();
        let interval = if plan.active() {
            plan.checkpoint_interval_records()
        } else {
            0
        };
        let max_attempts = if plan.active() { plan.max_attempts() } else { 1 };

        let mut states: Vec<ConsumerState<T>> = (0..self.out_parts)
            .map(|_| ConsumerState::new(self.in_parts))
            .collect();
        // Per-consumer completed-checkpoint watermark; the restore point is
        // its minimum (a checkpoint only counts once every channel has it).
        let progress = Mutex::new(vec![0u64; self.out_parts]);
        let mut attempt = 0u32;

        loop {
            let failed = Arc::new(AtomicBool::new(false));
            let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
            let restore_point = *progress.lock().iter().min().expect("≥1 consumer");
            let (senders, receivers): (Vec<_>, Vec<_>) =
                (0..self.out_parts).map(|_| bounded::<Msg<T>>(cap)).unzip();
            std::thread::scope(|scope| {
                // Consumers deploy first — all tasks of the pipeline are
                // live at the same time.
                for (c, (rx, state)) in receivers.into_iter().zip(states.iter_mut()).enumerate() {
                    let failed = Arc::clone(&failed);
                    let (plan, metrics) = (&plan, env.metrics());
                    let (progress, first_panic) = (&progress, &first_panic);
                    let in_parts = self.in_parts;
                    let verify = self.verify.clone();
                    scope.spawn(move || {
                        env.task_started();
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            let mut fault = plan.stream_fault(
                                metrics,
                                stage,
                                in_parts + c,
                                attempt,
                                Arc::clone(&failed),
                            );
                            // A panic from the fault hook unwinds past the
                            // receiver, dropping it mid-stream: blocked
                            // producers see a disconnect, not a deadlock.
                            for msg in rx.iter() {
                                // A set job token unwinds the pump here;
                                // the dropped receiver disconnects blocked
                                // producers, so teardown cannot deadlock.
                                check_cancelled(
                                    env.cancel_token(),
                                    metrics,
                                    stage,
                                    in_parts + c,
                                );
                                fault.on_event();
                                match msg {
                                    Msg::Record(p, t) => {
                                        // Verify before buffering: a batch
                                        // that fails its digest must never
                                        // be checkpointable.
                                        if let Some(check) = verify.as_ref() {
                                            if !check(&t) {
                                                metrics.add_corruptions_detected(1);
                                                plan.confirm_corruption();
                                                panic_any(IntegrityError {
                                                    at: (stage, in_parts + c, attempt),
                                                    detail: "pipelined batch failed checksum \
                                                             verification at receive",
                                                });
                                            }
                                        }
                                        state.bufs[p].push(t);
                                    }
                                    Msg::Barrier(p, k) => {
                                        let n = state.bufs.len();
                                        state.marks.entry(k).or_insert_with(|| vec![None; n])
                                            [p] = Some(state.bufs[p].len());
                                        state.try_complete(
                                            c, progress, metrics, record_bytes, plan, stage,
                                            attempt, seed,
                                        );
                                    }
                                    Msg::Done(p) => {
                                        state.done[p] = true;
                                        state.try_complete(
                                            c, progress, metrics, record_bytes, plan, stage,
                                            attempt, seed,
                                        );
                                    }
                                }
                            }
                            fault.on_finish();
                        }));
                        if let Err(payload) = result {
                            failed.store(true, Ordering::Relaxed);
                            remember_panic(first_panic, payload);
                        }
                        env.task_finished();
                    });
                }
                for p in 0..self.in_parts {
                    let txs = senders.clone();
                    let failed = Arc::clone(&failed);
                    let (plan, metrics) = (&plan, env.metrics());
                    let first_panic = &first_panic;
                    let produce = &self.produce;
                    scope.spawn(move || {
                        env.task_started();
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            let fault =
                                plan.stream_fault(metrics, stage, p, attempt, Arc::clone(&failed));
                            let mut outbox = Outbox {
                                txs,
                                producer: p,
                                interval,
                                skip: restore_point * interval,
                                sent: 0,
                                failed: Arc::clone(&failed),
                                fault,
                                metrics: metrics.clone(),
                                stage,
                                attempt,
                                cancel: env.cancel_token().clone(),
                            };
                            produce(env, &mut outbox, p);
                            outbox.finish();
                        }));
                        if let Err(payload) = result {
                            // The dead producer never sends `Done`; dropping
                            // its channel handles lets consumers drain out.
                            failed.store(true, Ordering::Relaxed);
                            remember_panic(first_panic, payload);
                        }
                        env.task_finished();
                    });
                }
                drop(senders); // close channels so consumers finish
            });
            if !failed.load(Ordering::Relaxed) {
                break;
            }
            let payload = first_panic.into_inner();
            // A job-level cancel is teardown, not a fault: the scope has
            // already joined every task and dropped the channels, so
            // resume the JobCancelled unwind instead of restarting.
            if payload
                .as_ref()
                .is_some_and(|p| p.downcast_ref::<JobCancelled>().is_some())
            {
                resume_unwind(payload.expect("checked above"));
            }
            attempt += 1;
            if attempt >= max_attempts {
                match payload {
                    Some(payload) => resume_unwind(payload),
                    None => panic!("pipelined region failed after {attempt} attempts"),
                }
            }
            env.metrics().add_task_retries(1);
            env.metrics().add_region_restarts(1);
            // Walk the restore point down past every snapshot that fails
            // its read-back: injected rot is observed at this read, a
            // digest mismatch means the stored prefix is not what was
            // written. Either way the snapshot is discarded (and counted)
            // and the next-older checkpoint is tried — down to 0, a replay
            // from scratch, if nothing verifiable remains.
            let mut g = *progress.lock().iter().min().expect("≥1 consumer");
            while g > 0 {
                let mut ok = true;
                for (c, state) in states.iter_mut().enumerate() {
                    let Some(snap) = state.snapshots.get(&g) else {
                        // Discarded by an earlier scrub (already counted).
                        ok = false;
                        continue;
                    };
                    let rotten = plan
                        .checkpoint_rot_decision(stage, self.in_parts + c, g, attempt)
                        || snap.digest != snapshot_digest(seed, g, &snap.prefix);
                    if rotten {
                        state.snapshots.remove(&g);
                        env.metrics().add_checkpoints_rejected(1);
                        env.metrics().add_corruptions_detected(1);
                        ok = false;
                    }
                }
                if ok {
                    break;
                }
                g -= 1;
            }
            for state in &mut states {
                state.restore(g);
            }
            *progress.lock() = vec![g; self.out_parts];
            std::thread::sleep(plan.backoff(attempt));
        }
        let out: Vec<Vec<T>> = states
            .into_iter()
            .map(|s| s.bufs.into_iter().flatten().collect())
            .collect();
        env.record_span("pipelined-exchange", started);
        out
    }
}

impl<T, P> DsOp<T> for PipelinedExchange<T, P>
where
    T: Send + Sync,
    P: Fn(&FlinkEnv, &mut Outbox<T>, usize) + Send + Sync,
{
    fn compute(&self, env: &FlinkEnv, part: usize) -> Partition<T> {
        self.output.take(part, || self.run(env))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_collection_and_collect_roundtrip() {
        let env = FlinkEnv::new(4);
        let ds = env.from_collection((0..100).collect::<Vec<u32>>());
        let mut out = ds.collect();
        out.sort_unstable();
        assert_eq!(out, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn sources_and_read_only_consumers_clone_no_element() {
        crate::shuffle::testing::clone_counted!(CLONES);
        let clones = || CLONES.load(Ordering::Relaxed);
        let env = FlinkEnv::new(4);
        let ds = env.from_collection((0..100).map(Counted).collect());
        let sums = ds
            .map_partition(|part| vec![part.iter().map(|c| c.0).sum::<u32>()])
            .collect_partitions();
        assert_eq!(sums.iter().flatten().sum::<u32>(), 4950);
        assert_eq!(clones(), 0, "split, serve and borrow without a copy");

        // A shuffled collect: producers build the batches they route, the
        // channels move them, the deployment's output leaves by move and
        // the operator downstream of the exchange owns what it is handed.
        let shuffled = ds
            .map_partition(|part| {
                let to = (part[0].0 as usize / 25 + 1) % 4;
                vec![(to, CountedBatch(part.iter().map(|c| Counted(c.0)).collect()))]
            })
            .exchange_by_index(4)
            .map_partition(|batches| batches.into_vec());
        let rows = |bs: &[CountedBatch]| bs.iter().map(|b| b.0.len()).sum::<usize>();
        assert_eq!(rows(&shuffled.collect()), 100);
        assert_eq!(clones(), 0, "an exchange partition left by copy");
        // No persistence: a second job deploys the exchange again, still
        // without copying an element.
        let shuffles = env.metrics().records_shuffled();
        assert_eq!(rows(&shuffled.collect()), 100);
        assert_eq!(env.metrics().records_shuffled(), 2 * shuffles);
        assert_eq!(clones(), 0);

        // Ownership of a partition the source still holds is the one copy.
        assert_eq!(ds.op.compute(&env, 1).into_vec().len(), 25);
        assert_eq!(clones(), 25);
        assert_eq!(ds.collect().len(), 100);
        assert_eq!(clones(), 125);
    }

    #[test]
    fn filter_count_pipeline() {
        let env = FlinkEnv::new(4);
        let n = env
            .from_collection((0..1000).collect::<Vec<u32>>())
            .filter(|x| x % 10 == 0)
            .count();
        assert_eq!(n, 100);
    }

    #[test]
    fn no_persistence_means_recompute_per_job() {
        // §VI-B: Flink lacks persistence control; two actions over the same
        // DataSet re-read the source.
        let env = FlinkEnv::new(2);
        let ds = env.from_collection((0..100).collect::<Vec<u32>>()).map(|x| x + 1);
        let before = env.metrics().compute_calls();
        let _ = ds.count();
        let after_one = env.metrics().compute_calls();
        let _ = ds.count();
        let after_two = env.metrics().compute_calls();
        assert_eq!(after_two - after_one, after_one - before);
        assert!(after_one > before);
    }

    #[test]
    fn group_reduce_matches_oracle() {
        let env = FlinkEnv::new(4);
        let pairs: Vec<(String, u64)> = (0..2000).map(|i| (format!("w{}", i % 37), 1)).collect();
        let counts = env.from_collection(pairs).group_reduce(|a, b| *a += b).collect();
        assert_eq!(counts.len(), 37);
        assert!(counts.iter().all(|(_, v)| *v == 2000 / 37 + u64::from(2000 % 37 > 0) || *v >= 54));
        let total: u64 = counts.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 2000);
    }

    #[test]
    fn group_reduce_output_partitions_sorted() {
        let env = FlinkEnv::new(3);
        let pairs: Vec<(u32, u64)> = (0..500).map(|i| (i % 50, 1)).collect();
        let ds = env.from_collection(pairs).group_reduce(|a, b| *a += b);
        let parts = ds.materialise();
        for part in &parts {
            assert!(part.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn map_side_combine_shrinks_pipelined_shuffle() {
        let env = FlinkEnv::new(4);
        let pairs: Vec<(String, u64)> = (0..10_000).map(|i| (format!("k{}", i % 3), 1)).collect();
        let _ = env.from_collection(pairs).group_reduce(|a, b| *a += b).collect();
        assert!(env.metrics().records_shuffled() <= 3 * 4 * 4);
        assert!(env.metrics().combine_ratio() < 0.05);
    }

    #[test]
    fn exchange_is_pipelined_producers_and_consumers_overlap() {
        // With 4 producers + 4 consumers live at once, peak tasks during the
        // exchange must exceed what a staged execution would show (≤ 4).
        // Each producer needs enough records to outlive the spawn of the
        // last one on a two-core box, or the peak reads 7.
        let env = FlinkEnv::new(4);
        let pairs: Vec<(u32, u64)> = (0..500_000).map(|i| (i % 1000, 1)).collect();
        let _ = env.from_collection(pairs).group_reduce(|a, b| *a += b).collect();
        assert!(
            env.peak_tasks() >= 8,
            "expected ≥8 concurrently live tasks, saw {}",
            env.peak_tasks()
        );
    }

    #[test]
    fn partition_custom_routes_by_key() {
        let env = FlinkEnv::new(4);
        let part = Arc::new(flowmark_dataflow::partitioner::RangePartitioner::new(vec![
            100u32, 200, 300,
        ]));
        let ds = env
            .from_collection((0..400u32).collect::<Vec<_>>())
            .partition_custom(part.clone(), |x| *x)
            .sort_partition(|a, b| a.cmp(b));
        assert_eq!(ds.num_partitions(), 4);
        let parts = ds.materialise();
        // TeraSort property: concatenation is globally sorted.
        let all: Vec<u32> = parts.into_iter().flatten().collect();
        assert_eq!(all.len(), 400);
        assert!(all.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bounded_channels_apply_backpressure_without_deadlock() {
        // Tiny buffers force producers to block on slow consumers; the job
        // must still complete (no deadlock) and produce correct results.
        let env = FlinkEnv::with_config(&EngineConfig {
            parallelism: 4,
            network_buffer_records: 2,
            combine_buffer_records: 64,
            ..EngineConfig::default()
        });
        let pairs: Vec<(u32, u64)> = (0..20_000).map(|i| (i % 7, 1)).collect();
        let counts = env.from_collection(pairs).group_reduce(|a, b| *a += b).collect();
        let total: u64 = counts.iter().map(|(_, v)| v).sum();
        assert_eq!(total, 20_000);
    }

    #[test]
    fn union_and_distinct() {
        let env = FlinkEnv::new(3);
        let a = env.from_collection(vec![1u32, 2, 2]);
        let b = env.from_collection(vec![2u32, 3]);
        let mut u = a.union(&b).collect();
        u.sort_unstable();
        assert_eq!(u, vec![1, 2, 2, 2, 3]);
        let mut d = a.union(&b).distinct().collect();
        d.sort_unstable();
        assert_eq!(d, vec![1, 2, 3]);
    }

    #[test]
    fn global_reduce() {
        let env = FlinkEnv::new(4);
        let ds = env.from_collection((1..=100u64).collect::<Vec<_>>());
        assert_eq!(ds.reduce(|a, b| a + b), Some(5050));
        let empty = env.from_collection(Vec::<u64>::new());
        assert_eq!(empty.reduce(|a, b| a + b), None);
    }

    #[test]
    fn map_partition_sees_whole_partitions() {
        let env = FlinkEnv::new(4);
        let sizes: Vec<usize> = env
            .from_collection(vec![0u8; 20])
            .map_partition(|p| vec![p.len()])
            .collect();
        assert_eq!(sizes.iter().sum::<usize>(), 20);
        assert_eq!(sizes.len(), 4);
    }

    #[test]
    fn join_matches_nested_loop_oracle() {
        let env = FlinkEnv::new(3);
        let left = env.from_collection(vec![(1u32, "a"), (2, "b"), (2, "c")]);
        let right = env.from_collection(vec![(2u32, 20u64), (2, 21), (3, 30)]);
        let mut out = left.join(&right).collect();
        out.sort_by(|a, b| (a.0, a.1 .0, a.1 .1).cmp(&(b.0, b.1 .0, b.1 .1)));
        assert_eq!(
            out,
            vec![
                (2, ("b", 20)),
                (2, ("b", 21)),
                (2, ("c", 20)),
                (2, ("c", 21)),
            ]
        );
    }

    #[test]
    fn co_group_collects_both_sides() {
        let env = FlinkEnv::new(2);
        let left = env.from_collection(vec![(1u32, 100u64), (1, 101)]);
        let right = env.from_collection(vec![(1u32, 7u64), (9, 9)]);
        let cg: std::collections::HashMap<_, _> =
            left.co_group(&right).collect().into_iter().collect();
        let (mut vs, ws) = cg[&1].clone();
        vs.sort_unstable();
        assert_eq!(vs, vec![100, 101]);
        assert_eq!(ws, vec![7]);
        assert!(cg[&9].0.is_empty());
        assert_eq!(cg[&9].1, vec![9]);
    }

    #[test]
    fn injected_failures_recover_from_aligned_checkpoints() {
        use crate::faults::FaultConfig;
        let cfg = FaultConfig {
            seed: 3,
            task_failure_prob: 0.35,
            fail_first_n: 1,
            straggle_first_n: 1,
            straggler_slowdown: std::time::Duration::from_millis(5),
            checkpoint_interval_records: 32,
            ..FaultConfig::default()
        };
        let env = Setup { faults: FaultPlan::new(cfg), ..Setup::new(4) }.flink();
        let pairs: Vec<(u32, u64)> = (0..6000).map(|i| (i % 97, 1)).collect();
        let faulted = env
            .from_collection(pairs.clone())
            .group_reduce(|a, b| *a += b)
            .collect();
        let clean = FlinkEnv::new(4)
            .from_collection(pairs)
            .group_reduce(|a, b| *a += b)
            .collect();
        assert_eq!(faulted, clean, "recovery must reproduce the fault-free result");
        let rec = env.metrics().recovery();
        assert!(rec.injected_failures >= 1);
        assert!(rec.injected_stragglers >= 1);
        assert!(rec.task_retries >= 1);
        assert!(rec.checkpoints_taken >= 1, "barriers every 32 records must align");
    }

    #[test]
    fn dropped_receiver_mid_stream_does_not_deadlock_senders() {
        use crate::faults::FaultConfig;
        // Kill consumer 0 of the first exchange (stage 1, partition
        // in_parts + 0 = 4) on its first attempt, mid-drain. With capacity-2
        // channels the producers are blocked in `send` when the receiver
        // drops; they must observe the disconnect, flag the region, and let
        // the restart replay — not deadlock or crash the job.
        let plan = FaultPlan::new(FaultConfig {
            seed: 11,
            kill_list: vec![(1, 4, 0)],
            ..FaultConfig::default()
        });
        let env = Setup {
            faults: plan,
            ..Setup::from(EngineConfig {
                parallelism: 4,
                network_buffer_records: 2,
                combine_buffer_records: 64,
                ..EngineConfig::default()
            })
        }
        .flink();
        let part = Arc::new(flowmark_dataflow::partitioner::RangePartitioner::new(vec![
            5_000u32, 10_000, 15_000,
        ]));
        let all: Vec<u32> = env
            .from_collection((0..20_000u32).collect::<Vec<_>>())
            .partition_custom(part, |x| *x)
            .sort_partition(|a, b| a.cmp(b))
            .collect_partitions()
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(all, (0..20_000u32).collect::<Vec<_>>());
        let rec = env.metrics().recovery();
        assert!(rec.injected_failures >= 1, "the targeted consumer kill must fire");
        assert!(rec.region_restarts >= 1, "the region must have been replayed");
    }

    #[test]
    fn flagged_producer_finishes_without_end_of_stream_marker() {
        // Regression: once the region is flagged, a producer that may have
        // suppressed records must NOT send `Done` — consumers would pin a
        // checkpoint over the truncated stream and the replay would skip
        // records the snapshot never held (silent data loss under
        // concurrent kills).
        let metrics = EngineMetrics::new();
        let plan = FaultPlan::disabled();
        let count_done = |failed: bool| {
            let (tx, rx) = bounded::<Msg<u32>>(16);
            let flag = Arc::new(AtomicBool::new(failed));
            let mut outbox = Outbox {
                txs: vec![tx],
                producer: 0,
                interval: 4,
                skip: 0,
                sent: 0,
                failed: Arc::clone(&flag),
                fault: plan.stream_fault(&metrics, 0, 0, 0, Arc::new(AtomicBool::new(false))),
                metrics: metrics.clone(),
                stage: 0,
                attempt: 0,
                cancel: CancelToken::new(),
            };
            outbox.send(0, 1u32);
            outbox.finish();
            rx.iter().filter(|m| matches!(m, Msg::Done(_))).count()
        };
        assert_eq!(count_done(false), 1, "healthy producers advertise end-of-stream");
        assert_eq!(count_done(true), 0, "flagged producers must stay silent");
    }

    /// Routes `0..n` into per-consumer `Vec<u64>` batches of 8 rows each
    /// and streams them through the batch-granularity exchange.
    fn routed(env: &FlinkEnv, n: u64, parts: usize) -> DataSet<Vec<u64>> {
        let batches: Vec<(usize, Vec<u64>)> = (0..n)
            .collect::<Vec<u64>>()
            .chunks(8)
            .map(|c| ((c[0] as usize / 8) % parts, c.to_vec()))
            .collect();
        env.from_collection(batches).exchange_by_index(parts)
    }

    #[test]
    fn batch_exchange_seals_and_verifies_fault_free() {
        let env = FlinkEnv::new(4);
        let mut all: Vec<u64> = routed(&env, 160, 4).collect().into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..160).collect::<Vec<u64>>());
        let rec = env.metrics().recovery();
        assert_eq!(rec.batches_checksummed, 20, "one digest per shipped batch");
        assert_eq!(rec.corruptions_detected, 0);
    }

    #[test]
    fn batch_exchange_corruption_fails_the_region_and_recovers() {
        use crate::faults::FaultConfig;
        let env = Setup {
            faults: FaultPlan::new(FaultConfig {
                seed: 17,
                corrupt_first_n: 1,
                checkpoint_interval_records: 2,
                ..FaultConfig::default()
            }),
            ..Setup::new(4)
        }
        .flink();
        let mut all: Vec<u64> = routed(&env, 400, 4).collect().into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<u64>>(), "recovery must restore the data");
        let rec = env.metrics().recovery();
        assert!(rec.corruptions_detected >= 1, "armed corruption must be caught at receive");
        assert!(rec.region_restarts >= 1, "a failed digest must fail the region");
        assert_eq!(rec.partitions_recomputed, 0, "pipelined recovery is regions, not lineage");
    }

    #[test]
    fn rotten_checkpoint_snapshot_is_rejected_at_read_back() {
        use crate::faults::FaultConfig;
        // Tight barriers complete many checkpoints; the guaranteed rot
        // budget makes one of the read-backs (scrub or restore) fail its
        // digest and be discarded.
        let env = Setup {
            faults: FaultPlan::new(FaultConfig {
                seed: 23,
                checkpoint_corrupt_first_n: 1,
                checkpoint_interval_records: 2,
                ..FaultConfig::default()
            }),
            ..Setup::new(4)
        }
        .flink();
        let mut all: Vec<u64> = routed(&env, 400, 4).collect().into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<u64>>());
        let rec = env.metrics().recovery();
        assert!(rec.checkpoints_taken >= 2, "need ≥2 checkpoints for a scrub to fire");
        assert!(rec.checkpoints_rejected >= 1, "the rotten snapshot must be discarded");
    }

    #[test]
    fn kill_during_batch_exchange_restarts_from_verified_checkpoint() {
        use crate::faults::FaultConfig;
        // Kill producer 0 of the batch exchange (stage 1 — the sink
        // materialise takes stage 0) mid-stream on its first attempt, with
        // barriers every 2 sends: the region must restart, replay only the
        // unsnapshotted suffix, and reproduce the oracle byte-for-byte.
        let env = Setup {
            faults: FaultPlan::new(FaultConfig {
                seed: 29,
                kill_list: vec![(1, 0, 0)],
                checkpoint_interval_records: 2,
                ..FaultConfig::default()
            }),
            ..Setup::new(4)
        }
        .flink();
        let mut all: Vec<u64> = routed(&env, 400, 4).collect().into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..400).collect::<Vec<u64>>());
        let rec = env.metrics().recovery();
        assert!(rec.injected_failures >= 1, "the targeted producer kill must fire");
        assert!(rec.region_restarts >= 1);
        assert!(rec.checkpoints_taken >= 1, "barriers must align at batch granularity");
    }

    #[test]
    fn fault_plan_accessor_defaults_to_disabled() {
        assert!(!FlinkEnv::new(2).faults().active());
        let setup = Setup {
            faults: FaultPlan::new(crate::faults::FaultConfig::chaos(1)),
            ..Setup::new(2)
        };
        assert!(setup.flink().faults().active());
    }

    #[test]
    fn trace_contains_exchange_span() {
        let env = FlinkEnv::new(2);
        let pairs: Vec<(u32, u64)> = (0..100).map(|i| (i % 5, 1)).collect();
        let _ = env.from_collection(pairs).group_reduce(|a, b| *a += b).collect();
        let trace = env.trace();
        assert!(trace.spans().iter().any(|s| s.name == "pipelined-exchange"));
    }
}
