//! "Riverbed": the staged, RDD-based engine (Apache Spark semantics).
//!
//! Faithful to §II-A:
//! - RDDs are **lazy** ("computed only when needed") and **ephemeral**
//!   ("once it actually gets materialized, it will be discarded from memory
//!   after its use") — [`Rdd::compute`] re-derives a partition from its
//!   lineage every time unless the RDD was persisted;
//! - **persistence is explicit** ([`Rdd::persist`]) and backed by the
//!   [`crate::cache::BlockCache`];
//! - shuffles are **stage barriers**: a [`Rdd::reduce_by_key`] child cannot
//!   read anything until every parent partition has been fully computed and
//!   partitioned (materialised once per shuffle via `OnceLock`);
//! - **iterations are loop unrolling** (§II-C): the driver builds a new RDD
//!   per round; each round schedules a fresh wave of tasks, visible in the
//!   `tasks_launched` metric.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use flowmark_core::config::{EngineConfig, PartitionerChoice};
use flowmark_sched::{FragmentCache, FragmentKey};
use flowmark_core::spans::PlanTrace;
use flowmark_dataflow::partitioner::{HashPartitioner, Partitioner, RangePartitioner};

use crate::cache::{BlockCache, StorageLevel};
use flowmark_columnar::Checksummable;

use crate::faults::{
    check_cancelled, run_recoverable, CancelToken, FaultPlan, IntegrityError, RecoveryKind,
    StageStats,
};
use crate::hash::{fx_map_with_capacity, FxHashMap};
use crate::metrics::EngineMetrics;
use crate::runtime::{self, FragmentHandle};
use crate::setup::Setup;
use crate::shuffle::{
    corrupt_one, exchange, partition_combine, partition_records, seal, verify, Materialised,
    Partition, Sealed, ShuffleBatch,
};
use crate::sortbuf::CombineFn;

/// Shared driver state.
struct CtxInner {
    cache: BlockCache,
    metrics: EngineMetrics,
    next_id: AtomicUsize,
    /// Every tunable knob, unified (parallelism, buffers, combine,
    /// partitioner, cache budget).
    config: EngineConfig,
    trace: Mutex<PlanTrace>,
    start: Instant,
    faults: FaultPlan,
    stage_stats: StageStats,
    /// Job-level cancellation: set by the serve layer on deadline expiry
    /// or explicit cancel; every staged task observes it at launch.
    cancel: CancelToken,
    /// Pending cross-job fragment-cache attachment, consumed by the
    /// first batch exchange built on this context.
    fragment: Mutex<Option<FragmentHandle>>,
}

/// The driver ("SparkContext"). Cheap to clone.
#[derive(Clone)]
pub struct SparkContext {
    inner: Arc<CtxInner>,
}

impl SparkContext {
    /// A context at `default_parallelism` (`spark.default.parallelism`);
    /// every other knob takes its [`EngineConfig`] default. Short for
    /// `Setup::new(default_parallelism).spark()`.
    pub fn new(default_parallelism: usize) -> Self {
        Setup::new(default_parallelism).spark()
    }

    /// Short for `Setup::from(*config).spark()`.
    pub fn with_config(config: &EngineConfig) -> Self {
        Setup::from(*config).spark()
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
        .spark()
    }

    /// Builds a context from `setup`. Tasks run under its fault plan:
    /// injected (and real) task panics are recovered by lineage
    /// re-execution — recomputing only the lost partition, reusing
    /// persisted ancestors from the block cache — and stragglers race
    /// speculative backups. Setting its cancel token tears down any
    /// in-flight action (tasks unwind with a
    /// [`crate::faults::JobCancelled`] payload).
    pub(crate) fn build(setup: &Setup) -> Self {
        let config = setup.config;
        config.validate().expect("invalid engine config");
        Self {
            inner: Arc::new(CtxInner {
                cache: BlockCache::new(config.cache_bytes),
                metrics: EngineMetrics::new(),
                next_id: AtomicUsize::new(0),
                config,
                trace: Mutex::new(PlanTrace::new()),
                start: Instant::now(),
                faults: setup.faults.clone(),
                stage_stats: StageStats::new(),
                cancel: setup.cancel.clone(),
                fragment: Mutex::new(setup.fragment.clone()),
            }),
        }
    }

    /// Attach a cross-job fragment-cache handle: the next batch
    /// exchange ([`Rdd::exchange_by_index`]) built on this context
    /// looks `key` up in `cache` before computing — a checksum-verified
    /// hit reuses the cached sealed stage output and skips the whole
    /// map+exchange — and stores its own verified output there on a
    /// miss.
    pub fn register_fragment(&self, cache: Arc<FragmentCache>, key: FragmentKey) {
        *self.inner.fragment.lock() = Some((cache, key));
    }

    fn take_fragment(&self) -> Option<FragmentHandle> {
        self.inner.fragment.lock().take()
    }

    /// The configuration this context runs under.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.config
    }

    /// The fault plan tasks run under.
    pub fn faults(&self) -> &FaultPlan {
        &self.inner.faults
    }

    /// The job-level cancellation token every task on this context polls.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.inner.cancel
    }

    /// Run metrics handle.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.inner.metrics
    }

    /// Operator spans recorded so far (one per shuffle/action).
    pub fn trace(&self) -> PlanTrace {
        self.inner.trace.lock().clone()
    }

    /// Default number of partitions for shuffles.
    pub fn default_parallelism(&self) -> usize {
        self.inner.config.parallelism
    }

    fn next_id(&self) -> usize {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn record_span(&self, name: &str, started: Instant) {
        let t0 = started.duration_since(self.inner.start).as_secs_f64();
        let t1 = self.inner.start.elapsed().as_secs_f64();
        self.inner.trace.lock().record(name.to_string(), t0, t1);
    }

    /// Distributes a local collection into `partitions` chunks. The
    /// vector is neither copied nor re-chunked: each task is handed a
    /// range of it.
    pub fn parallelize<T: Clone + Send + Sync + 'static>(
        &self,
        data: Vec<T>,
        partitions: usize,
    ) -> Rdd<T> {
        assert!(partitions > 0);
        self.metrics().add_records_read(data.len() as u64);
        let op = SourceOp {
            data: Arc::new(data),
            partitions,
        };
        Rdd::new(self.clone(), partitions, Arc::new(op))
    }
}

/// How a partition of this RDD is derived. The partition comes back
/// shared: ops that already hold it (sources, materialised shuffles) hand
/// out what they hold, read-only consumers borrow through it, and only a
/// consumer that needs ownership of a still-shared partition pays for a
/// copy ([`Partition::into_vec`]).
trait RddOp<T>: Send + Sync {
    fn compute(&self, part: usize) -> Partition<T>;

    /// The last consumer of `part` has it: an op that kept the partition
    /// only to serve it again lets go, so the consumer owns the storage.
    /// Asking for a released partition again recomputes it from lineage.
    fn release(&self, _part: usize) {}
}

struct SourceOp<T> {
    data: Arc<Vec<T>>,
    partitions: usize,
}

impl<T: Send + Sync> RddOp<T> for SourceOp<T> {
    fn compute(&self, part: usize) -> Partition<T> {
        Partition::chunk_of(&self.data, part, self.partitions)
    }
}

/// A lazy, partitioned, lineage-bearing dataset.
pub struct Rdd<T> {
    ctx: SparkContext,
    id: usize,
    partitions: usize,
    op: Arc<dyn RddOp<T>>,
    storage: StorageLevel,
}

impl<T> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Self {
            ctx: self.ctx.clone(),
            id: self.id,
            partitions: self.partitions,
            op: Arc::clone(&self.op),
            storage: self.storage,
        }
    }
}

impl<T: Clone + Send + Sync + 'static> Rdd<T> {
    fn new(ctx: SparkContext, partitions: usize, op: Arc<dyn RddOp<T>>) -> Self {
        let id = ctx.next_id();
        Self {
            ctx,
            id,
            partitions,
            op,
            storage: StorageLevel::None,
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions
    }

    /// Marks this RDD persistent at the given level (§II-A: "the user can
    /// explicitly mark them as persistent").
    pub fn persist(mut self, level: StorageLevel) -> Self {
        self.storage = level;
        self
    }

    /// Computes one partition: serve from cache when persisted, otherwise
    /// recompute from lineage (and cache the result when persisted).
    pub fn compute(&self, part: usize) -> Partition<T> {
        if self.storage != StorageLevel::None {
            if let Some(block) = self.ctx.inner.cache.get((self.id, part)) {
                self.ctx.metrics().add_cache_hits(1);
                let block = block.downcast::<Partition<T>>();
                return Partition::clone(&block.expect("cache type confusion"));
            }
            self.ctx.metrics().add_cache_misses(1);
        }
        self.ctx.metrics().add_compute_calls(1);
        let data = self.op.compute(part);
        if self.storage != StorageLevel::None {
            let bytes = (data.len() * std::mem::size_of::<T>()) as u64;
            self.ctx.inner.cache.put(
                (self.id, part),
                Arc::new(data.clone()),
                bytes.max(1),
                self.storage,
            );
        }
        data
    }

    fn compute_all(&self) -> Vec<Partition<T>> {
        self.run_tasks(|_, part| part)
    }

    /// [`Rdd::run_tasks`] for an action that consumes the elements: each
    /// task takes its partition as the last consumer — the op that
    /// produced it lets go first ([`RddOp::release`]; a persisted block
    /// stays in the cache), so a materialised exchange's output leaves by
    /// move — and hands it to `then`. The release happens once, after the
    /// recoverable compute has settled, never inside a retried or
    /// speculated attempt.
    fn run_tasks_owned<U, F>(&self, then: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize, Vec<T>) -> U + Sync,
    {
        self.run_tasks(|p, part| {
            if self.storage == StorageLevel::None {
                self.op.release(p);
            }
            then(p, part.into_vec())
        })
    }

    /// Stage = this RDD: one task per partition computes it and hands it to
    /// `then` inside the same task. Under an active fault plan the compute
    /// is recoverable — a retry walks the RddOp chain again, so persisted
    /// ancestors come back from the cache instead of being recomputed
    /// (lineage recovery).
    fn run_tasks<U, F>(&self, then: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize, Partition<T>) -> U + Sync,
    {
        let metrics = self.ctx.metrics();
        metrics.add_tasks_launched(self.partitions as u64);
        let plan = self.ctx.faults();
        let cancel = self.ctx.cancel_token();
        let stage = self.id as u64;
        runtime::run_stage(metrics, self.partitions, |p| {
            let part = if plan.active() {
                run_recoverable(
                    plan,
                    metrics,
                    Some(&self.ctx.inner.stage_stats),
                    RecoveryKind::Lineage,
                    stage,
                    p,
                    cancel,
                    &|| self.compute(p),
                )
            } else {
                check_cancelled(cancel, metrics, stage, p);
                self.compute(p)
            };
            then(p, part)
        })
    }

    // ---- narrow transformations -----------------------------------------

    /// Element-wise map.
    pub fn map<U, F>(&self, f: F) -> Rdd<U>
    where
        U: Clone + Send + Sync + 'static,
        F: Fn(&T) -> U + Send + Sync + 'static,
    {
        let parent = self.clone();
        Rdd::new(
            self.ctx.clone(),
            self.partitions,
            Arc::new(NarrowOp {
                parent,
                f: move |input: Partition<T>| input.iter().map(&f).collect(),
            }),
        )
    }

    /// One-to-many map.
    pub fn flat_map<U, I, F>(&self, f: F) -> Rdd<U>
    where
        U: Clone + Send + Sync + 'static,
        I: IntoIterator<Item = U>,
        F: Fn(&T) -> I + Send + Sync + 'static,
    {
        let parent = self.clone();
        Rdd::new(
            self.ctx.clone(),
            self.partitions,
            Arc::new(NarrowOp {
                parent,
                f: move |input: Partition<T>| input.iter().flat_map(&f).collect(),
            }),
        )
    }

    /// Predicate filter.
    pub fn filter<F>(&self, f: F) -> Rdd<T>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        let parent = self.clone();
        Rdd::new(
            self.ctx.clone(),
            self.partitions,
            Arc::new(NarrowOp {
                parent,
                // A uniquely-held partition is filtered in place; a shared
                // one (source, cached parent) copies only the survivors.
                f: move |input: Partition<T>| input.into_retained(&f),
            }),
        )
    }

    /// Whole-partition map (`mapPartitions`).
    pub fn map_partitions<U, F>(&self, f: F) -> Rdd<U>
    where
        U: Clone + Send + Sync + 'static,
        F: Fn(&[T]) -> Vec<U> + Send + Sync + 'static,
    {
        let parent = self.clone();
        Rdd::new(
            self.ctx.clone(),
            self.partitions,
            Arc::new(NarrowOp {
                parent,
                f: move |input: Partition<T>| f(&input),
            }),
        )
    }

    // ---- actions ---------------------------------------------------------

    /// Gathers every record to the driver.
    pub fn collect(&self) -> Vec<T> {
        let started = Instant::now();
        let parts = self.run_tasks_owned(|_, part| part);
        let total: usize = parts.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(total);
        for mut p in parts {
            out.append(&mut p);
        }
        self.ctx.record_span("collect", started);
        out
    }

    /// Gathers every record to the driver, keeping partition boundaries —
    /// for outputs whose partition order carries meaning (TeraSort). Each
    /// partition arrives as the vector its task produced, not a copy.
    pub fn collect_partitions(&self) -> Vec<Vec<T>> {
        let started = Instant::now();
        let parts = self.run_tasks_owned(|_, part| part);
        self.ctx.record_span("collect", started);
        parts
    }

    /// Counts records.
    pub fn count(&self) -> u64 {
        let started = Instant::now();
        let n = self
            .compute_all()
            .iter()
            .map(|p| p.len() as u64)
            .sum();
        self.ctx.record_span("count", started);
        n
    }
}

struct NarrowOp<T, U, F>
where
    F: Fn(Partition<T>) -> Vec<U> + Send + Sync,
{
    parent: Rdd<T>,
    f: F,
}

impl<T, U, F> RddOp<U> for NarrowOp<T, U, F>
where
    T: Clone + Send + Sync + 'static,
    U: Send + Sync,
    F: Fn(Partition<T>) -> Vec<U> + Send + Sync,
{
    fn compute(&self, part: usize) -> Partition<U> {
        (self.f)(self.parent.compute(part)).into()
    }
}

// ---- pair-RDD (shuffle) operations ---------------------------------------

impl<K, V> Rdd<(K, V)>
where
    K: Clone + Send + Sync + Hash + Ord + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// `reduceByKey`: map-side combine, hash shuffle on
    /// `spark.default.parallelism` partitions, reduce. The shuffle is a
    /// stage barrier (§VI-C).
    pub fn reduce_by_key<F>(&self, f: F) -> Rdd<(K, V)>
    where
        F: Fn(&mut V, V) + Send + Sync + 'static,
    {
        let partitions = self.ctx.default_parallelism();
        let combine: CombineFn<V> = Arc::new(f);
        let parent = self.clone();
        let ctx = self.ctx.clone();
        let config = *self.ctx.config();
        let shuffled = Arc::new(ShuffleOp::new(partitions, move || {
            let started = Instant::now();
            let parts = parent.compute_all();
            // Partitioner choice (§IV): hash routing by default; a
            // sampled range partitioner balances skewed key spaces and
            // sorts reducer inputs. Built once per shuffle so every map
            // task routes identically.
            let partitioner: Arc<dyn Partitioner<K> + Send + Sync> = match config.partitioner {
                PartitionerChoice::Hash => Arc::new(HashPartitioner::new(partitions)),
                PartitionerChoice::Range => {
                    let sample: Vec<K> = parts
                        .iter()
                        .flat_map(|p| p.iter().step_by(7).map(|(k, _)| k.clone()))
                        .collect();
                    Arc::new(RangePartitioner::from_sample(sample, partitions))
                }
            };
            let map_outputs: Vec<_> =
                runtime::run_stage_items(ctx.metrics(), parts, |_, p| {
                    let records = p.into_vec();
                    let mut out = if config.combine_enabled {
                        partition_combine(
                            records,
                            partitioner.as_ref(),
                            Arc::clone(&combine),
                            config.combine_buffer_records,
                            config.spill_run_budget,
                            ctx.metrics(),
                            std::mem::size_of::<(K, V)>(),
                        )
                    } else {
                        partition_records(
                            records,
                            partitioner.as_ref(),
                            ctx.metrics(),
                            std::mem::size_of::<(K, V)>(),
                        )
                    };
                    // A deduplicated range sample can yield fewer buckets
                    // than the declared partition count.
                    if out.len() < partitions {
                        out.resize_with(partitions, Vec::new);
                    }
                    out
                });
            let reduce_inputs = exchange(map_outputs);
            let combine = Arc::clone(&combine);
            let out: Vec<Vec<(K, V)>> =
                runtime::run_stage_items(ctx.metrics(), reduce_inputs, |_, records| {
                    let mut agg: FxHashMap<K, V> = fx_map_with_capacity(records.len());
                    for (k, v) in records {
                        match agg.entry(k) {
                            std::collections::hash_map::Entry::Occupied(mut e) => {
                                combine(e.get_mut(), v)
                            }
                            std::collections::hash_map::Entry::Vacant(e) => {
                                e.insert(v);
                            }
                        }
                    }
                    agg.into_iter().collect()
                });
            ctx.record_span("shuffle:reduceByKey", started);
            out
        }));
        Rdd::new(self.ctx.clone(), partitions, shuffled)
    }

    /// `collectAsMap`: the K-Means per-iteration action (§VI-D, Fig 10's
    /// `map->collectAsMap` waves).
    pub fn collect_as_map(&self) -> HashMap<K, V> {
        let started = Instant::now();
        let parts = self.run_tasks_owned(|_, part| part);
        let total: usize = parts.iter().map(Vec::len).sum();
        let mut out = HashMap::with_capacity(total);
        for p in parts {
            out.extend(p);
        }
        self.ctx.record_span("collectAsMap", started);
        out
    }
}

// ---- batch-granularity shuffle --------------------------------------------

impl<B> Rdd<(usize, B)>
where
    B: ShuffleBatch + Checksummable + Clone + Send + Sync + 'static,
{
    /// Batch-granularity shuffle: each element is a whole pre-routed batch
    /// tagged with its reduce partition index, and the exchange moves the
    /// batch as one unit — one clone-free `Vec` push per *batch* instead of
    /// one `(K, V)` clone per *record*. Map tasks route rows into per-reducer
    /// batches themselves (e.g. [`flowmark_columnar::StrU64Batch::partition_by`])
    /// and tag them; this op only regroups.
    ///
    /// Every batch is checksummed at write and verified at read: a batch
    /// whose digest no longer matches poisons its reduce partition, which
    /// is recomputed from lineage (the whole map side re-runs — its output
    /// was discarded with the stage). Corruption that survives the retry
    /// budget escapes as a typed [`IntegrityError`].
    pub fn exchange_by_index(&self, partitions: usize) -> Rdd<B> {
        self.exchange_by_index_with(partitions, |b| b)
    }

    /// [`Rdd::exchange_by_index`] plus a per-partition `finish` step (merge,
    /// sort, compact) that runs *inside* the shuffle materialisation — its
    /// output, not the raw batch list, is what the `OnceLock` stores and
    /// recomputations clone, so heavy post-processing never pays the
    /// per-partition serve copy twice. `finish` only ever sees batches that
    /// passed digest verification.
    pub fn exchange_by_index_with<F>(&self, partitions: usize, finish: F) -> Rdd<B>
    where
        F: Fn(Vec<B>) -> Vec<B> + Send + Sync + 'static,
    {
        let parent = self.clone();
        let ctx = self.ctx.clone();
        let stage = self.id as u64;
        // Claimed at plan-construction time: the first batch exchange
        // built after `register_fragment` owns the cache attachment.
        let fragment = ctx.take_fragment();
        let shuffled = Arc::new(ShuffleOp::new(partitions, move || {
            let started = Instant::now();
            let plan = ctx.faults().clone();
            let seed = plan.checksum_seed();
            // A checksum-verified cache hit replaces the whole
            // map+exchange with the cached sealed reduce inputs; only
            // `finish` still runs. A failed verification invalidated the
            // entry inside the lookup, so falling through recomputes.
            if let Some(handle) = &fragment {
                if let Some(cached) = runtime::fragment_lookup::<B>(handle, ctx.metrics()) {
                    let out: Vec<Vec<B>> =
                        runtime::run_stage_items(ctx.metrics(), cached, |_, part| {
                            finish(part.into_iter().map(|(_, b)| b).collect())
                        });
                    ctx.record_span("shuffle:exchangeByIndex(cached)", started);
                    return out;
                }
            }
            let mut attempt: u32 = 0;
            let reduce_inputs = loop {
                // Map side: each map task digests the batches it routed, at
                // write time, then (under an active plan) damages one
                // shipped batch *after* its digest was taken — the stale
                // digest is what the read side must catch.
                let map_outputs: Vec<Vec<Vec<Sealed<B>>>> = parent.run_tasks(|mp, p| {
                    let mut out: Vec<Vec<Sealed<B>>> =
                        (0..partitions).map(|_| Vec::new()).collect();
                    for (idx, batch) in p.into_vec() {
                        assert!(idx < partitions, "batch routed to partition {idx} of {partitions}");
                        ctx.metrics().add_records_shuffled(batch.rows() as u64);
                        ctx.metrics().add_bytes_shuffled(batch.bytes() as u64);
                        ctx.metrics().add_batches_processed(1);
                        out[idx].push(seal(batch, seed, ctx.metrics()));
                    }
                    if let Some((kind, salt)) = plan.corrupt_decision(stage, mp, attempt) {
                        corrupt_one(&mut out, kind, salt);
                    }
                    out
                });
                let reduce_inputs = exchange(map_outputs);
                // Read side: recompute every digest before any reducer
                // touches the rows. A mismatch poisons the whole reduce
                // partition — its other batches are fine, but the lineage
                // recompute regenerates all of them anyway.
                let poisoned: Vec<usize> = {
                    let parts = &reduce_inputs;
                    runtime::run_stage(ctx.metrics(), parts.len(), |r| {
                        let bad = parts[r].iter().filter(|s| !verify(s, seed)).count();
                        (bad > 0).then(|| {
                            ctx.metrics().add_corruptions_detected(bad as u64);
                            for _ in 0..bad {
                                plan.confirm_corruption();
                            }
                            r
                        })
                    })
                    .into_iter()
                    .flatten()
                    .collect()
                };
                if poisoned.is_empty() {
                    break reduce_inputs;
                }
                attempt += 1;
                if attempt >= plan.max_attempts() {
                    std::panic::panic_any(IntegrityError {
                        at: (stage, poisoned[0], attempt - 1),
                        detail: "shuffle-read checksum mismatch survived the retry budget",
                    });
                }
                ctx.metrics().add_integrity_recomputes(poisoned.len() as u64);
                ctx.metrics().add_partitions_recomputed(poisoned.len() as u64);
                ctx.metrics().add_task_retries(poisoned.len() as u64);
            };
            // Every batch just verified clean: this is the reusable
            // fragment, stored pre-`finish` so a hit can re-verify the
            // digests before trusting it.
            if let Some(handle) = &fragment {
                runtime::fragment_store(handle, ctx.metrics(), seed, &reduce_inputs);
            }
            let out: Vec<Vec<B>> =
                runtime::run_stage_items(ctx.metrics(), reduce_inputs, |_, part| {
                    finish(part.into_iter().map(|(_, b)| b).collect())
                });
            ctx.record_span("shuffle:exchangeByIndex", started);
            out
        }));
        Rdd::new(self.ctx.clone(), partitions, shuffled)
    }
}

/// A shuffle dependency: materialised once, then served per partition —
/// Spark's shuffle files outliving the stage that wrote them — until the
/// partition's last consumer takes it ([`RddOp::release`]). A partition
/// asked for after that re-runs the materialisation: lineage, as for any
/// other lost partition. Element-generic: `T` is a `(K, V)` pair on the
/// record path or a whole column batch on the batch-granularity path.
struct ShuffleOp<T> {
    partitions: usize,
    materialise: Box<dyn Fn() -> Vec<Vec<T>> + Send + Sync>,
    output: Materialised<T>,
}

impl<T> ShuffleOp<T> {
    fn new<F>(partitions: usize, materialise: F) -> Self
    where
        F: Fn() -> Vec<Vec<T>> + Send + Sync + 'static,
    {
        Self {
            partitions,
            materialise: Box::new(materialise),
            output: Materialised::new(),
        }
    }
}

impl<T: Send + Sync> RddOp<T> for ShuffleOp<T> {
    fn compute(&self, part: usize) -> Partition<T> {
        debug_assert!(part < self.partitions);
        self.output.serve(part, &self.materialise)
    }

    fn release(&self, part: usize) {
        self.output.release(part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> SparkContext {
        SparkContext::new(4)
    }

    /// TeraSort's shape on the batch path: each of four map tasks routes
    /// its keys by `range` into one batch per reducer, the exchange moves
    /// the batches, and each reducer sorts what it received. Returns the
    /// reducers' keys in partition order.
    fn range_sorted(
        sc: &SparkContext,
        keys: Vec<u64>,
        range: RangePartitioner<u64>,
    ) -> Vec<Vec<u64>> {
        let parts = range.partitions();
        sc.parallelize(keys, 4)
            .map_partitions(move |part| {
                let mut out = vec![Vec::new(); parts];
                part.iter().for_each(|&k| out[range.partition(&k)].push(k));
                out.into_iter().enumerate().collect()
            })
            .exchange_by_index_with(parts, |batches| {
                let mut keys = batches.concat();
                keys.sort_unstable();
                vec![keys]
            })
            .collect_partitions()
            .into_iter()
            .map(|batches| batches.concat())
            .collect()
    }

    #[test]
    fn parallelize_partitions_everything() {
        let sc = ctx();
        let rdd = sc.parallelize((0..100).collect::<Vec<u32>>(), 7);
        assert_eq!(rdd.num_partitions(), 7);
        let mut all = rdd.collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn sources_and_read_only_consumers_clone_no_element() {
        crate::shuffle::testing::clone_counted!(CLONES);
        let clones = || CLONES.load(Ordering::Relaxed);
        let sc = ctx();
        let rdd = sc.parallelize((0..100).map(Counted).collect(), 4);
        let sums = rdd.map_partitions(|part| vec![part.iter().map(|c| c.0).sum::<u32>()]);
        assert_eq!(sums.count(), 4);
        assert_eq!(sums.collect().iter().sum::<u32>(), 4950);
        assert_eq!(clones(), 0, "split, serve and borrow without a copy");

        // A shuffled collect: map tasks build the batches they route, the
        // exchange moves them, and the materialised output leaves by move.
        let shuffled = rdd
            .map_partitions(|part| {
                let to = (part[0].0 as usize / 25 + 1) % 4;
                vec![(to, CountedBatch(part.iter().map(|c| Counted(c.0)).collect()))]
            })
            .exchange_by_index(4);
        let rows = |bs: &[CountedBatch]| bs.iter().map(|b| b.0.len()).sum::<usize>();
        assert_eq!(rows(&shuffled.collect()), 100);
        assert_eq!(clones(), 0, "an exchange partition left by copy");
        // The collect took every partition out: asking again recomputes
        // from lineage, still without copying an element.
        let shuffles = sc.metrics().records_shuffled();
        assert_eq!(rows(&shuffled.collect()), 100);
        assert_eq!(sc.metrics().records_shuffled(), 2 * shuffles);
        assert_eq!(clones(), 0);
        // A second holder forces the one copy: partition 0 is still served
        // to `held` when the collect asks to own it, the other three move.
        let held = shuffled.compute(0);
        assert_eq!(rows(&shuffled.collect()), 100);
        assert_eq!(clones(), rows(&held), "exactly the shared partition is copied");
        assert_eq!(rows(&held), 25);

        // Ownership of a partition the source still holds is the one copy.
        CLONES.store(0, Ordering::Relaxed);
        assert_eq!(rdd.compute(1).into_vec().len(), 25);
        assert_eq!(clones(), 25);
        assert_eq!(rdd.collect().len(), 100);
        assert_eq!(clones(), 125);
    }

    #[test]
    fn map_filter_count() {
        let sc = ctx();
        let rdd = sc.parallelize((0..1000).collect::<Vec<u32>>(), 4);
        let n = rdd.map(|x| x * 2).filter(|x| x % 3 == 0).count();
        assert_eq!(n, 334); // 0,6,12,...,1998 → x*2 % 3 == 0 ⇔ x % 3 == 0
    }

    #[test]
    fn reduce_by_key_matches_oracle() {
        let sc = ctx();
        let words: Vec<(String, u64)> = (0..2000)
            .map(|i| (format!("w{}", i % 37), 1u64))
            .collect();
        let rdd = sc.parallelize(words, 8);
        let counts = rdd.reduce_by_key(|a, b| *a += b).collect_as_map();
        assert_eq!(counts.len(), 37);
        let total: u64 = counts.values().sum();
        assert_eq!(total, 2000);
    }

    #[test]
    fn rdds_are_ephemeral_without_persist() {
        let sc = ctx();
        let rdd = sc.parallelize((0..10).collect::<Vec<u32>>(), 2).map(|x| x + 1);
        let calls_before = sc.metrics().compute_calls();
        let _ = rdd.count();
        let _ = rdd.count();
        let calls_after = sc.metrics().compute_calls();
        // Two actions recompute the lineage twice: 2 × (2 map + 2 source).
        assert_eq!(calls_after - calls_before, 8);
    }

    #[test]
    fn persist_truncates_recomputation() {
        let sc = ctx();
        let rdd = sc
            .parallelize((0..10).collect::<Vec<u32>>(), 2)
            .map(|x| x + 1)
            .persist(StorageLevel::MemoryOnly);
        let _ = rdd.count(); // computes + caches
        let calls_mid = sc.metrics().compute_calls();
        let _ = rdd.count(); // served from cache
        assert_eq!(sc.metrics().compute_calls(), calls_mid);
        assert_eq!(sc.metrics().cache_hits(), 2);
    }

    #[test]
    fn shuffle_materialises_once() {
        let sc = ctx();
        let pairs: Vec<(u32, u64)> = (0..100).map(|i| (i % 5, 1u64)).collect();
        let counts = sc.parallelize(pairs, 4).reduce_by_key(|a, b| *a += b);
        let shuffles_before = sc.metrics().records_shuffled();
        let _ = counts.count();
        let shuffled_once = sc.metrics().records_shuffled() - shuffles_before;
        let _ = counts.count();
        // Second action reuses the materialised shuffle output.
        assert_eq!(sc.metrics().records_shuffled() - shuffles_before, shuffled_once);
        assert!(shuffled_once > 0);
    }

    #[test]
    fn map_side_combine_shrinks_shuffle() {
        let sc = ctx();
        // 10_000 records, only 3 distinct keys.
        let pairs: Vec<(String, u64)> = (0..10_000)
            .map(|i| (format!("k{}", i % 3), 1u64))
            .collect();
        let _ = sc
            .parallelize(pairs, 4)
            .reduce_by_key(|a, b| *a += b)
            .collect();
        // At most keys×partitions×buckets records cross the shuffle.
        assert!(sc.metrics().records_shuffled() <= 3 * 4 * 4);
        assert!(sc.metrics().combine_ratio() < 0.05);
    }

    #[test]
    fn repartition_and_sort_sorts_within_partitions() {
        let sc = ctx();
        let keys: Vec<u64> = (0..1000).rev().collect();
        let parts = range_sorted(&sc, keys, RangePartitioner::new(vec![250, 500, 750]));
        assert_eq!(parts.len(), 4);
        for (p, part) in parts.iter().enumerate() {
            assert!(part.windows(2).all(|w| w[0] <= w[1]), "partition {p}");
        }
        // Global order: the concatenation is every key, fully sorted.
        assert_eq!(parts.concat(), (0..1000).collect::<Vec<u64>>());
    }

    /// The staged engine's join is GraphX's triplet join:
    /// `aggregate_messages` meets every edge with its source's broadcast
    /// value and groups the products by destination. A nested loop over
    /// edges × vertices is the oracle.
    #[test]
    fn join_matches_oracle() {
        let sc = ctx();
        let edges: Vec<(u64, u64)> = vec![(1, 2), (2, 3), (2, 4), (3, 2), (5, 2), (4, 4)];
        let graph = crate::graphx::Graph::load(&sc, &edges, 2);
        let value = |id: u64| 10 * id + 1;
        let values: Vec<u64> = graph.ids.iter().map(|&id| value(id)).collect();
        let inbox = graph.aggregate_messages(
            move |src, targets, out| targets.iter().for_each(|&t| out.to(t, values[src as usize])),
            |a: u64, b| a + b,
        );
        let got: HashMap<u64, u64> = (graph.ids.iter().enumerate())
            .filter_map(|(d, &id)| Some((id, inbox.get(d)?)))
            .collect();
        let vertices: std::collections::BTreeSet<u64> =
            edges.iter().flat_map(|&(s, t)| [s, t]).collect();
        let mut expect: HashMap<u64, u64> = HashMap::new();
        for &(src, dst) in &edges {
            for &id in vertices.iter().filter(|&&id| id == src) {
                *expect.entry(dst).or_default() += value(id);
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn loop_unrolling_launches_tasks_per_iteration() {
        let sc = ctx();
        let data = sc
            .parallelize((0..100).map(|i| i as f64).collect::<Vec<_>>(), 4)
            .persist(StorageLevel::MemoryOnly);
        let mut centroid = 0.0f64;
        let before = sc.metrics().tasks_launched();
        for _ in 0..5 {
            let c = centroid;
            let sums = data
                .map(move |x| (0u8, x + c))
                .reduce_by_key(|a, b| *a += b)
                .collect_as_map();
            centroid = sums[&0] / 100.0;
            sc.metrics().add_iterations_run(1);
        }
        let launched = sc.metrics().tasks_launched() - before;
        // Each iteration schedules a fresh wave (≥ 4 tasks per round).
        assert!(launched >= 5 * 4, "launched only {launched}");
        assert_eq!(sc.metrics().iterations_run(), 5);
    }

    /// A reduce partition of the batch exchange is the concatenation of
    /// every batch routed to it, from every map partition.
    #[test]
    fn union_concatenates() {
        let sc = ctx();
        let batches = vec![(0usize, vec![1u64, 2]), (1, vec![9]), (0, vec![3, 4]), (0, vec![5])];
        let merged = sc.parallelize(batches, 2).exchange_by_index(2);
        assert_eq!(merged.num_partitions(), 2);
        let parts = merged.collect_partitions();
        let mut first = parts[0].concat();
        first.sort_unstable();
        assert_eq!(first, vec![1, 2, 3, 4, 5]);
        assert_eq!(parts[1].concat(), vec![9]);
    }

    #[test]
    fn distinct_deduplicates() {
        let sc = ctx();
        let rdd = sc.parallelize(vec![3u32, 1, 3, 2, 1, 1], 3);
        let unique = rdd.map(|&x| (x, ())).reduce_by_key(|_, _| {}).collect();
        let mut out: Vec<u32> = unique.into_iter().map(|(x, _)| x).collect();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3]);
    }

    /// The range partitioner `reduce_by_key` builds from every 7th key
    /// repeats run to run and splits the keys in proportion.
    #[test]
    fn sample_is_deterministic_and_proportional() {
        let run = || {
            let sc = Setup::from(EngineConfig {
                parallelism: 4,
                partitioner: PartitionerChoice::Range,
                ..EngineConfig::default()
            })
            .spark();
            let pairs: Vec<(u32, u64)> = (0..10_000).map(|k| (k, 1)).collect();
            let parts = sc.parallelize(pairs, 4).reduce_by_key(|a, b| *a += b).collect_partitions();
            parts
                .into_iter()
                .map(|part| {
                    let mut keys: Vec<u32> = part.into_iter().map(|(k, _)| k).collect();
                    keys.sort_unstable();
                    keys
                })
                .collect::<Vec<_>>()
        };
        let parts = run();
        assert_eq!(parts, run());
        for part in &parts {
            assert!((part.len() as f64 - 2500.0).abs() < 300.0, "routed {}", part.len());
        }
        assert_eq!(parts.concat(), (0..10_000).collect::<Vec<u32>>(), "ranges are ordered");
    }

    /// Exchanging eight partitions into three keeps every record.
    #[test]
    fn coalesce_preserves_data() {
        let sc = ctx();
        let merged = sc
            .parallelize((0..100u64).collect::<Vec<_>>(), 8)
            .map_partitions(|part| vec![(part[0] as usize % 3, part.to_vec())])
            .exchange_by_index(3);
        assert_eq!(merged.num_partitions(), 3);
        let mut all = merged.collect().concat();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<u64>>());
    }

    /// Task `i` of `map_partitions` sees the whole of chunk `i`.
    #[test]
    fn map_partitions_with_index_sees_indices() {
        let sc = ctx();
        let rdd = sc.parallelize((0..12u32).collect::<Vec<_>>(), 4);
        let tagged = rdd.map_partitions(|part| vec![(part[0], part.len())]);
        let expect: Vec<Vec<(u32, usize)>> = (0..4).map(|i| vec![(3 * i, 3)]).collect();
        assert_eq!(tagged.collect_partitions(), expect);
    }

    #[test]
    fn take_respects_partition_order() {
        let sc = ctx();
        let rdd = sc.parallelize((0..100u32).collect::<Vec<_>>(), 4);
        assert_eq!(rdd.collect(), (0..100).collect::<Vec<u32>>());
        let parts = rdd.collect_partitions();
        assert_eq!(parts.iter().map(Vec::len).collect::<Vec<_>>(), vec![25; 4]);
        assert_eq!(parts[0][..5], [0, 1, 2, 3, 4]);
    }

    #[test]
    fn group_by_key_and_count_by_key() {
        let sc = ctx();
        let pairs: Vec<(u32, u32)> = vec![(1, 10), (2, 20), (1, 11), (1, 12)];
        let rdd = sc.parallelize(pairs, 2);
        let grouped = rdd
            .map(|&(k, v)| (k, vec![v]))
            .reduce_by_key(|acc, mut v| acc.append(&mut v))
            .collect_as_map();
        let mut ones = grouped[&1].clone();
        ones.sort_unstable();
        assert_eq!(ones, vec![10, 11, 12]);
        assert_eq!(grouped[&2], vec![20]);
        let counts = rdd
            .map(|&(k, _)| (k, 1u64))
            .reduce_by_key(|a, b| *a += b)
            .collect_as_map();
        assert_eq!(counts[&1], 3);
        assert_eq!(counts[&2], 1);
    }

    /// TeraSort's total order: split points sampled from every 7th key,
    /// then the range exchange and a sort within each partition.
    #[test]
    fn sort_by_key_totally_orders() {
        let sc = ctx();
        let keys: Vec<u64> = (0..500).rev().collect();
        let sample = sc
            .parallelize(keys.clone(), 4)
            .map_partitions(|part| part.iter().step_by(7).copied().collect())
            .collect();
        let parts = range_sorted(&sc, keys, RangePartitioner::from_sample(sample, 4));
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|p| !p.is_empty()), "sampled splits leave no partition empty");
        assert_eq!(parts.concat(), (0..500).collect::<Vec<u64>>());
    }

    /// Both inputs, tagged by side, grouped by one `reduce_by_key`.
    #[test]
    fn cogroup_groups_both_sides() {
        let sc = ctx();
        let left =
            [(1u32, "a"), (1, "b"), (2, "c")].map(|(k, v)| (k, (vec![v.to_string()], vec![])));
        let right = [(1u32, 10u32), (3, 30)].map(|(k, w)| (k, (vec![], vec![w])));
        let cg = sc
            .parallelize(left.into_iter().chain(right).collect::<Vec<_>>(), 2)
            .reduce_by_key(|acc, (mut vs, mut ws)| {
                acc.0.append(&mut vs);
                acc.1.append(&mut ws);
            })
            .collect_as_map();
        let (mut vs, ws) = cg[&1].clone();
        vs.sort();
        assert_eq!(vs, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(ws, vec![10]);
        assert_eq!(cg[&2].0, vec!["c".to_string()]);
        assert!(cg[&2].1.is_empty());
        assert!(cg[&3].0.is_empty());
        assert_eq!(cg[&3].1, vec![30]);
    }

    #[test]
    fn keys_values_projections() {
        let sc = ctx();
        let rdd = sc.parallelize(vec![(1u32, "x".to_string()), (2, "y".to_string())], 2);
        let mut ks = rdd.map(|(k, _)| *k).collect();
        ks.sort_unstable();
        assert_eq!(ks, vec![1, 2]);
        let mut vs = rdd.map(|(_, v)| v.clone()).collect();
        vs.sort();
        assert_eq!(vs, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn trace_records_shuffle_and_action_spans() {
        let sc = ctx();
        let pairs: Vec<(u32, u64)> = (0..100).map(|i| (i % 5, 1)).collect();
        let _ = sc.parallelize(pairs, 2).reduce_by_key(|a, b| *a += b).collect();
        let trace = sc.trace();
        let names: Vec<&str> = trace.spans().iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"shuffle:reduceByKey"));
        assert!(names.contains(&"collect"));
    }

    #[test]
    fn lineage_recovery_reproduces_the_fault_free_result() {
        use crate::faults::{FaultConfig, FaultPlan};
        let pairs: Vec<(u32, u64)> = (0..2000).map(|i| (i % 37, 1)).collect();
        let clean = ctx()
            .parallelize(pairs.clone(), 4)
            .reduce_by_key(|a, b| *a += b)
            .collect_as_map();

        let sc = Setup {
            faults: FaultPlan::new(FaultConfig {
                seed: 11,
                task_failure_prob: 0.5,
                ..FaultConfig::default()
            }),
            ..Setup::new(4)
        }
        .spark();
        let faulted = sc
            .parallelize(pairs, 4)
            .reduce_by_key(|a, b| *a += b)
            .collect_as_map();
        assert_eq!(faulted, clean);
        assert!(sc.metrics().injected_failures() > 0, "no fault fired");
        assert!(sc.metrics().partitions_recomputed() > 0);
        assert_eq!(
            sc.metrics().task_retries(),
            sc.metrics().partitions_recomputed(),
            "staged-engine retries are lineage recomputations"
        );
    }

    #[test]
    fn lineage_recovery_reuses_persisted_ancestors() {
        use crate::faults::{FaultConfig, FaultPlan};
        // Kill every first attempt of every task: the persisted parent's
        // tasks retry once and cache; the child's retries then hit the
        // cache instead of recomputing the parent partitions.
        let sc = Setup {
            faults: FaultPlan::new(FaultConfig {
                seed: 5,
                task_failure_prob: 1.0,
                ..FaultConfig::default()
            }),
            ..Setup::new(2)
        }
        .spark();
        let parent = sc
            .parallelize((0..100u64).collect::<Vec<_>>(), 2)
            .map(|x| x * 2)
            .persist(StorageLevel::MemoryOnly);
        let _ = parent.count(); // materialise + cache the parent
        let hits_before = sc.metrics().cache_hits();
        let total: u64 = {
            let child = parent.map(|x| x + 1);
            child.collect().into_iter().sum()
        };
        assert_eq!(total, (0..100u64).map(|x| 2 * x + 1).sum());
        assert!(
            sc.metrics().cache_hits() > hits_before,
            "retried child tasks should reuse the persisted parent"
        );
    }

    /// Routes `0..n` into per-reducer `Vec<u64>` batches of 8 rows each.
    fn routed_batches(sc: &SparkContext, n: u64, parts: usize) -> Rdd<Vec<u64>> {
        let batches: Vec<(usize, Vec<u64>)> = (0..n)
            .collect::<Vec<u64>>()
            .chunks(8)
            .map(|c| ((c[0] as usize / 8) % parts, c.to_vec()))
            .collect();
        sc.parallelize(batches, parts).exchange_by_index(parts)
    }

    #[test]
    fn batch_exchange_checksums_every_batch_fault_free() {
        let sc = ctx();
        let rdd = routed_batches(&sc, 160, 4);
        let mut all: Vec<u64> = rdd.collect().into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..160).collect::<Vec<u64>>());
        let rec = sc.metrics().recovery();
        assert_eq!(rec.batches_checksummed, 20, "one digest per shipped batch");
        assert_eq!(rec.corruptions_detected, 0);
        assert_eq!(rec.integrity_recomputes, 0);
    }

    #[test]
    fn batch_exchange_detects_and_recovers_from_corruption() {
        use crate::faults::{FaultConfig, FaultPlan};
        let sc = Setup {
            faults: FaultPlan::new(FaultConfig {
                seed: 11,
                corrupt_first_n: 1,
                ..FaultConfig::default()
            }),
            ..Setup::new(4)
        }
        .spark();
        let rdd = routed_batches(&sc, 160, 4);
        let mut all: Vec<u64> = rdd.collect().into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..160).collect::<Vec<u64>>(), "recovery must restore the data");
        let rec = sc.metrics().recovery();
        assert!(rec.corruptions_detected >= 1, "armed corruption must be caught");
        assert!(rec.integrity_recomputes >= 1, "detection must trigger a recompute");
        assert!(rec.partitions_recomputed >= 1);
        assert_eq!(rec.region_restarts, 0, "staged recovery is lineage, not regions");
    }

    #[test]
    fn corruption_surviving_the_retry_budget_is_a_typed_failure() {
        use crate::faults::{FaultConfig, FaultPlan, IntegrityError};
        use std::panic::AssertUnwindSafe;
        // A budget far above max_attempts × map tasks keeps injection armed
        // through every retry, so the exchange must escalate.
        let sc = Setup {
            faults: FaultPlan::new(FaultConfig {
                seed: 13,
                corrupt_first_n: 1_000,
                max_attempts: 3,
                ..FaultConfig::default()
            }),
            ..Setup::new(4)
        }
        .spark();
        let rdd = routed_batches(&sc, 160, 4);
        let payload = std::panic::catch_unwind(AssertUnwindSafe(|| rdd.collect()))
            .expect_err("unrecoverable corruption must fail the job");
        let err = payload
            .downcast_ref::<IntegrityError>()
            .expect("failure payload must be the typed IntegrityError");
        assert_eq!(err.detail, "shuffle-read checksum mismatch survived the retry budget");
    }
}
