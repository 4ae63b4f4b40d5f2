//! Shuffle: repartitioning key-value data across workers.
//!
//! Both engines shuffle, but differently (§IV-B): the staged engine writes
//! complete, optionally consolidated map-output files before any reducer
//! starts (a barrier); the pipelined engine streams buffers to reducers
//! while mappers still run. This module implements the data-plane pieces
//! shared by both: partitioning map output, optional map-side combining via
//! [`crate::sortbuf::SortCombineBuffer`], and the blocking exchange used by
//! the staged engine. The pipelined exchange (bounded channels as network
//! buffers) lives in `flink::exec`. Both engines hand partitions around as
//! [`Partition`]s and keep an exchange's undelivered output in a
//! `Materialised`.

use std::hash::Hash;
use std::sync::Arc;

use flowmark_columnar::{Checksummable, CorruptionKind};
use flowmark_dataflow::partitioner::Partitioner;

use crate::hash::sized_buckets;
use crate::memory::BufferPool;
use crate::metrics::EngineMetrics;
use crate::sortbuf::{CombineFn, SortCombineBuffer};

/// Output of one map task: one bucket of records per reduce partition.
pub type MapOutput<K, V> = Vec<Vec<(K, V)>>;

/// Anything the batch-granularity shuffle can account for: a unit that
/// crosses the exchange whole, carrying `rows()` records in `bytes()`
/// payload bytes. Implemented for plain record vectors (the record
/// adapter) and for columnar key/value batches, so the same exchange and
/// metrics code serves both data planes.
pub trait ShuffleBatch {
    /// Records carried by this batch.
    fn rows(&self) -> usize;
    /// Payload bytes carried by this batch (for shuffle byte accounting).
    fn bytes(&self) -> usize;
}

impl<T> ShuffleBatch for Vec<T> {
    fn rows(&self) -> usize {
        self.len()
    }
    fn bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl ShuffleBatch for flowmark_columnar::StrU64Batch {
    fn rows(&self) -> usize {
        self.len()
    }
    fn bytes(&self) -> usize {
        self.key_bytes() + self.len() * std::mem::size_of::<u64>()
    }
}

/// A shuffle unit plus the digest taken at write time. The pair crosses
/// the exchange (or the pipelined channels) as one element, so the read
/// side can recompute the digest before any reducer touches the rows.
pub type Sealed<B> = (u64, B);

/// Checksums `batch` at shuffle-write time and pairs it with its digest.
/// Always on — the fault-free path pays the same verification cost a chaos
/// run does, which is what the bench budget in the integrity drill holds
/// to ≤ 5%.
pub fn seal<B: Checksummable>(batch: B, seed: u64, metrics: &EngineMetrics) -> Sealed<B> {
    metrics.add_batches_checksummed(1);
    (batch.checksum(seed), batch)
}

/// Seals a whole source collection as one pool batch, preserving batch
/// order. Digesting is the cost of admission to the verified path, so the
/// driver-side seal of a large source spreads across cores instead of
/// serialising in front of the job.
pub fn seal_all<B>(batches: Vec<B>, seed: u64, metrics: &EngineMetrics) -> Vec<Sealed<B>>
where
    B: Checksummable + Send,
{
    crate::runtime::run_stage_items(metrics, batches, |_, b| seal(b, seed, metrics))
}

/// Recomputes a sealed batch's digest at read time; `false` means the
/// bytes no longer match what the writer hashed and the batch must be
/// discarded unread (corrupted variable-width columns are not safe to
/// row-access — see `flowmark_columnar::checksum`).
pub fn verify<B: Checksummable>(sealed: &Sealed<B>, seed: u64) -> bool {
    sealed.1.checksum(seed) == sealed.0
}

/// Verifies a sealed batch read from a (simulated) durable source inside a
/// task body and hands back the batch. Under an armed
/// [`FaultPlan::source_rot_decision`](crate::faults::FaultPlan::source_rot_decision)
/// the recomputed digest is perturbed — modelling at-rest rot on data the
/// driver sealed once and shares by `Arc` (a retry re-reads clean bytes,
/// as a re-fetch from durable storage would) — and the mismatch unwinds as
/// a typed [`IntegrityError`](crate::faults::IntegrityError) for the
/// engine's recovery wrapper ([`crate::faults::run_recoverable`]) to
/// answer with a lineage recompute or region restart.
pub fn read_verified<'a, B: Checksummable>(
    sealed: &'a Sealed<B>,
    seed: u64,
    plan: &crate::faults::FaultPlan,
    metrics: &EngineMetrics,
) -> &'a B {
    let mut digest = sealed.1.checksum(seed);
    if plan.source_rot_decision() {
        // The read observed different bytes than were sealed.
        digest ^= 1;
    }
    if digest != sealed.0 {
        metrics.add_corruptions_detected(1);
        std::panic::panic_any(crate::faults::IntegrityError {
            at: (0, 0, 0),
            detail: "sealed source batch failed checksum at read",
        });
    }
    &sealed.1
}

/// Damages one sealed batch in a map task's routed output *after* its
/// digest was taken, leaving the digest stale — the transit-corruption
/// injection point for the integrity drill. The salt picks the victim
/// among every shipped batch; returns what was actually damaged (`None`
/// when nothing is corruptible, e.g. every batch is empty).
pub fn corrupt_one<B: Checksummable>(
    out: &mut [Vec<Sealed<B>>],
    kind: CorruptionKind,
    salt: u64,
) -> Option<CorruptionKind> {
    let total: usize = out.iter().map(Vec::len).sum();
    if total == 0 {
        return None;
    }
    let mut i = (salt as usize) % total;
    for bucket in out.iter_mut() {
        if i < bucket.len() {
            return bucket[i].1.corrupt(kind, salt.rotate_right(13));
        }
        i -= bucket.len();
    }
    None
}

/// Unwraps a computed partition for the shuffle without copying when this
/// task is the only holder — the common case for non-persisted lineage.
/// Only a cached (shared) partition pays for a clone.
pub fn take_partition<T: Clone>(partition: Arc<Vec<T>>) -> Vec<T> {
    Arc::try_unwrap(partition).unwrap_or_else(|shared| (*shared).clone())
}

/// One computed partition on either engine: a range of a shared vector.
///
/// Whoever already holds the data hands it out without copying — a source
/// serves each task a range of the caller's own vector, a batched text
/// source moves each batch of lines into a range of its own
/// ([`Partition::ranges`]), an operator wraps the vector it just built — and
/// consumers that only read borrow through the `Deref` to `[T]`. A consumer
/// that needs the elements calls [`Partition::into_vec`] and pays for a copy
/// only when the storage is still shared (a source that must stay
/// re-readable, a cached block) or the partition is a sub-range.
pub struct Partition<T> {
    data: Arc<Vec<T>>,
    start: usize,
    end: usize,
}

impl<T> Partition<T> {
    /// The `chunk`-th of `chunks` near-equal contiguous ranges of `data`
    /// (trailing ranges are empty when there are more chunks than rows) —
    /// how both engines' sources split a collection.
    pub fn chunk_of(data: &Arc<Vec<T>>, chunk: usize, chunks: usize) -> Self {
        let size = data.len().div_ceil(chunks).max(1);
        Self {
            data: Arc::clone(data),
            start: (chunk * size).min(data.len()),
            end: ((chunk + 1) * size).min(data.len()),
        }
    }

    /// `data` cut into consecutive ranges of `rows` elements, the last one
    /// shorter — a source's batches. The elements move into one vector per
    /// range (no element is cloned, so a `String`'s bytes stay where they
    /// are) and each range is the only holder of its storage. An empty
    /// vector is one empty range, so a plan over it still has a seed.
    ///
    /// Owning per range is what makes a source cheap to *free*. glibc defers
    /// coalescing small freed chunks (fastbins) until a free of ≥ 64 KiB or
    /// a large allocation. Dropping a text corpus as one `Vec<String>`
    /// defers every line's chunk, so one sweep then coalesces hundreds of
    /// thousands of them over memory that has long left the cache. Dropping
    /// it range by range ends each run of small frees with the range's own
    /// header array (4 096 rows × 24 bytes = 96 KiB), which coalesces that
    /// run while it is still in cache. `release_sweep` (one thread, 2 vCPUs,
    /// heap warmed by earlier cycles) frees 600 k lines in 30–40 ms as one
    /// vector and in 8 ms as 4 096-row ranges, cut included; 1.2 M lines in
    /// 66–80 ms against 20 ms. Ranges of 1 024 or 2 048 rows have headers
    /// under 64 KiB and, merely dropped, free no faster. On `flowbench` Grep,
    /// which decodes and drops one range at a time, this took the staged
    /// rate from 8.9 M to 21.7 M lines/s. Freeing a source as one block
    /// again gives that back.
    pub fn ranges(data: Vec<T>, rows: usize) -> Vec<Self> {
        assert!(rows > 0);
        let mut rest = data.into_iter();
        let mut out = Vec::with_capacity(rest.len().div_ceil(rows).max(1));
        loop {
            out.push(Self::from(rest.by_ref().take(rows).collect::<Vec<T>>()));
            if rest.len() == 0 {
                return out;
            }
        }
    }

    /// The elements, owned: the storage itself when this partition is its
    /// only holder and covers all of it, a copy of the range otherwise.
    pub fn into_vec(self) -> Vec<T>
    where
        T: Clone,
    {
        if self.start == 0 && self.end == self.data.len() {
            take_partition(self.data)
        } else {
            self[..].to_vec()
        }
    }

    /// The elements `keep` accepts, owned: filtered in place when the
    /// storage can be taken, otherwise only the survivors are copied.
    pub fn into_retained(self, mut keep: impl FnMut(&T) -> bool) -> Vec<T>
    where
        T: Clone,
    {
        if self.start == 0 && self.end == self.data.len() && Arc::strong_count(&self.data) == 1 {
            let mut data = take_partition(self.data);
            data.retain(keep);
            data
        } else {
            self.iter().filter(|t| keep(t)).cloned().collect()
        }
    }
}

impl<T> From<Vec<T>> for Partition<T> {
    fn from(data: Vec<T>) -> Self {
        let end = data.len();
        Self {
            data: Arc::new(data),
            start: 0,
            end,
        }
    }
}

impl<T> Clone for Partition<T> {
    fn clone(&self) -> Self {
        Self {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.end,
        }
    }
}

impl<T> std::ops::Deref for Partition<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data[self.start..self.end]
    }
}

/// What an exchange delivered and its consumers have not taken yet: one
/// slot per output partition, filled by running the exchange when a
/// partition is asked for that is not there — the first ask, or an ask for
/// a partition its last consumer already took (lineage on the staged
/// engine, a fresh deployment on the pipelined one).
pub(crate) struct Materialised<T>(parking_lot::Mutex<Vec<Option<Partition<T>>>>);

impl<T> Materialised<T> {
    pub(crate) fn new() -> Self {
        Self(parking_lot::Mutex::new(Vec::new()))
    }

    /// Serves partition `part` and keeps it for the next ask. The lock is
    /// held across `run`: the other tasks of the stage wait here for the
    /// one that runs the exchange.
    pub(crate) fn serve(&self, part: usize, run: impl FnOnce() -> Vec<Vec<T>>) -> Partition<T> {
        Self::filled(&mut self.0.lock(), part, run).clone()
    }

    /// Hands partition `part` to its last consumer: the storage is theirs.
    pub(crate) fn take(&self, part: usize, run: impl FnOnce() -> Vec<Vec<T>>) -> Partition<T> {
        let mut slots = self.0.lock();
        Self::filled(&mut slots, part, run);
        slots[part].take().expect("just filled")
    }

    /// Lets go of a partition already served: whoever holds it owns it.
    pub(crate) fn release(&self, part: usize) {
        if let Some(slot) = self.0.lock().get_mut(part) {
            *slot = None;
        }
    }

    fn filled(
        slots: &mut Vec<Option<Partition<T>>>,
        part: usize,
        run: impl FnOnce() -> Vec<Vec<T>>,
    ) -> &Partition<T> {
        if slots.get(part).is_none_or(Option::is_none) {
            *slots = run().into_iter().map(|p| Some(p.into())).collect();
        }
        slots[part]
            .as_ref()
            .expect("the exchange delivers every partition")
    }
}

/// Partitions one map task's records into per-reducer buckets, each
/// pre-sized to the expected fan-out (`count / n + 1`).
pub fn partition_records<K, V, P>(
    records: Vec<(K, V)>,
    partitioner: &P,
    metrics: &EngineMetrics,
    bytes_per_record: usize,
) -> MapOutput<K, V>
where
    K: Hash,
    P: Partitioner<K> + ?Sized,
{
    let n = partitioner.partitions();
    let count = records.len();
    let mut buckets: MapOutput<K, V> = sized_buckets(n, count);
    for (k, v) in records {
        let p = partitioner.partition(&k);
        buckets[p].push((k, v));
    }
    metrics.add_records_shuffled(count as u64);
    metrics.add_bytes_shuffled((count * bytes_per_record) as u64);
    buckets
}

/// Partitions with a map-side sort-based combine per bucket: the records of
/// each bucket are collapsed before they would cross the network. Returns
/// buckets in sorted-by-key order (a property the sort-based shuffle gives
/// for free and TeraSort relies on). All buckets draw run storage from one
/// shared [`BufferPool`], so run allocations are recycled across the whole
/// map task.
pub fn partition_combine<K, V, P>(
    records: Vec<(K, V)>,
    partitioner: &P,
    combine: CombineFn<V>,
    buffer_capacity: usize,
    spill_run_budget: usize,
    metrics: &EngineMetrics,
    bytes_per_record: usize,
) -> MapOutput<K, V>
where
    K: Hash + Ord + Clone,
    P: Partitioner<K> + ?Sized,
{
    let n = partitioner.partitions();
    // Bounded outstanding-run budget: a skewed bucket that piles up more
    // than `spill_run_budget` runs per channel gets an early merge
    // (PoolExhausted → compact) instead of unbounded run storage.
    let pool = Arc::new(BufferPool::with_limit(2 * n, spill_run_budget * n));
    let mut buffers: Vec<SortCombineBuffer<K, V>> = (0..n)
        .map(|_| {
            SortCombineBuffer::with_pool(
                buffer_capacity,
                bytes_per_record,
                Arc::clone(&combine),
                metrics.clone(),
                Arc::clone(&pool),
            )
        })
        .collect();
    for (k, v) in records {
        let p = partitioner.partition(&k);
        buffers[p].insert(k, v);
    }
    let buckets: MapOutput<K, V> = buffers.into_iter().map(|b| b.finish()).collect();
    let out_records: usize = buckets.iter().map(Vec::len).sum();
    metrics.add_records_shuffled(out_records as u64);
    metrics.add_bytes_shuffled((out_records * bytes_per_record) as u64);
    buckets
}

/// The staged (barrier) exchange: gathers every map task's buckets, then
/// regroups them by reduce partition. Nothing is handed to reducers until
/// *all* map outputs exist — the stage boundary in Fig 9 (right). The first
/// map task's bucket seeds each reduce input (moved, not copied) and the
/// rest are appended into storage reserved up front.
///
/// Element-generic: `E` is whatever a map task emits per reducer — a
/// `(K, V)` pair on the record path, or a whole column batch on the
/// batch-granularity path (where one "element" moves thousands of rows).
pub fn exchange<E>(map_outputs: Vec<Vec<Vec<E>>>) -> Vec<Vec<E>> {
    let partitions = map_outputs.first().map(Vec::len).unwrap_or(0);
    debug_assert!(
        map_outputs.iter().all(|m| m.len() == partitions),
        "all map tasks must produce the same partition count"
    );
    let mut totals = vec![0usize; partitions];
    for output in &map_outputs {
        for (p, bucket) in output.iter().enumerate() {
            totals[p] += bucket.len();
        }
    }
    let mut reduce_inputs: Vec<Vec<E>> = Vec::with_capacity(partitions);
    let mut tail = map_outputs.into_iter();
    match tail.next() {
        Some(first) => {
            for (p, mut bucket) in first.into_iter().enumerate() {
                bucket.reserve(totals[p] - bucket.len());
                reduce_inputs.push(bucket);
            }
        }
        None => return reduce_inputs,
    }
    for output in tail {
        for (p, mut bucket) in output.into_iter().enumerate() {
            reduce_inputs[p].append(&mut bucket);
        }
    }
    reduce_inputs
}

/// Test support shared by both engines' zero-copy tests.
#[cfg(test)]
pub(crate) mod testing {
    /// A `u32` that counts its clones into `$counter`, and a shuffle batch
    /// of them: what the zero-copy tests push through sources and
    /// exchanges.
    macro_rules! clone_counted {
        ($counter:ident) => {
            static $counter: std::sync::atomic::AtomicUsize =
                std::sync::atomic::AtomicUsize::new(0);
            struct Counted(u32);
            impl Clone for Counted {
                fn clone(&self) -> Self {
                    $counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    Counted(self.0)
                }
            }
            #[derive(Clone)]
            struct CountedBatch(Vec<Counted>);
            impl $crate::shuffle::ShuffleBatch for CountedBatch {
                fn rows(&self) -> usize {
                    self.0.len()
                }
                fn bytes(&self) -> usize {
                    4 * self.0.len()
                }
            }
            impl flowmark_columnar::Checksummable for CountedBatch {
                fn write_checksum(&self, h: &mut flowmark_columnar::Xxh64) {
                    self.0.iter().for_each(|c| h.write_u64(u64::from(c.0)));
                }
                fn corrupt(
                    &mut self,
                    _: flowmark_columnar::CorruptionKind,
                    _: u64,
                ) -> Option<flowmark_columnar::CorruptionKind> {
                    None
                }
            }
        };
    }
    pub(crate) use clone_counted;
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmark_dataflow::partitioner::HashPartitioner;
    use std::collections::HashMap;

    fn sum() -> CombineFn<u64> {
        Arc::new(|acc: &mut u64, v| *acc += v)
    }

    #[test]
    fn partitioning_is_complete_and_consistent() {
        let metrics = EngineMetrics::new();
        let part = HashPartitioner::new(4);
        let records: Vec<(String, u64)> = (0..100).map(|i| (format!("k{i}"), i)).collect();
        let buckets = partition_records(records, &part, &metrics, 16);
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 100);
        // Every key landed where the partitioner says.
        for (p, bucket) in buckets.iter().enumerate() {
            for (k, _) in bucket {
                assert_eq!(part.partition(k), p);
            }
        }
        assert_eq!(metrics.records_shuffled(), 100);
        assert_eq!(metrics.bytes_shuffled(), 1600);
    }

    #[test]
    fn combine_reduces_shuffled_records() {
        let metrics = EngineMetrics::new();
        let part = HashPartitioner::new(4);
        // 1000 records over 10 hot keys.
        let records: Vec<(String, u64)> =
            (0..1000).map(|i| (format!("k{}", i % 10), 1)).collect();
        let buckets = partition_combine(records, &part, sum(), 64, 4, &metrics, 16);
        let total: usize = buckets.iter().map(Vec::len).sum();
        assert!(total <= 10 * 16, "combine left too many records: {total}");
        // Counts preserved.
        let mut m: HashMap<String, u64> = HashMap::new();
        for (k, v) in buckets.into_iter().flatten() {
            *m.entry(k).or_default() += v;
        }
        assert_eq!(m.len(), 10);
        assert!(m.values().all(|&v| v == 100));
        assert!(metrics.records_shuffled() < 1000);
    }

    #[test]
    fn combined_buckets_are_sorted() {
        let metrics = EngineMetrics::new();
        let part = HashPartitioner::new(2);
        let records: Vec<(String, u64)> =
            (0..500).map(|i| (format!("w{:03}", (i * 17) % 100), 1)).collect();
        let buckets = partition_combine(records, &part, sum(), 32, 4, &metrics, 16);
        for bucket in &buckets {
            assert!(bucket.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn exchange_regroups_by_partition() {
        // Two map tasks, three reduce partitions.
        let m1: MapOutput<u32, u32> = vec![vec![(0, 1)], vec![(1, 1)], vec![]];
        let m2: MapOutput<u32, u32> = vec![vec![(0, 2)], vec![], vec![(2, 2)]];
        let reduced = exchange(vec![m1, m2]);
        assert_eq!(reduced.len(), 3);
        assert_eq!(reduced[0], vec![(0, 1), (0, 2)]);
        assert_eq!(reduced[1], vec![(1, 1)]);
        assert_eq!(reduced[2], vec![(2, 2)]);
    }

    #[test]
    fn exchange_of_nothing_is_empty() {
        let reduced: Vec<Vec<(u32, u32)>> = exchange(Vec::new());
        assert!(reduced.is_empty());
    }

    #[test]
    fn take_partition_is_zero_copy_when_unique() {
        let data = vec![1u32, 2, 3];
        let ptr = data.as_ptr();
        let unique = Arc::new(data);
        let out = take_partition(unique);
        assert_eq!(out.as_ptr(), ptr, "unique Arc must hand back its storage");

        let shared = Arc::new(vec![4u32, 5]);
        let keep = Arc::clone(&shared);
        let cloned = take_partition(shared);
        assert_eq!(cloned, *keep, "shared Arc falls back to a clone");
    }

    #[test]
    fn ranges_cut_consecutive_batches_sharing_one_vector() {
        let ranges = Partition::ranges((0..10u32).collect(), 4);
        let cut: Vec<&[u32]> = ranges.iter().map(|r| &r[..]).collect();
        assert_eq!(cut, vec![&[0, 1, 2, 3][..], &[4, 5, 6, 7], &[8, 9]]);
        // Each range is the only holder of its storage, and covers all of
        // it, so dropping the source frees it range by range.
        assert!(ranges
            .iter()
            .all(|r| Arc::strong_count(&r.data) == 1 && r.start == 0 && r.end == r.data.len()));
        let empty = Partition::<u32>::ranges(Vec::new(), 4);
        assert_eq!(empty.len(), 1);
        assert!(empty[0].is_empty());
    }

    #[test]
    fn ranges_move_strings_without_cloning_them() {
        let lines: Vec<String> = (0..10).map(|i| format!("line {i}")).collect();
        let heap: Vec<*const u8> = lines.iter().map(|l| l.as_ptr()).collect();
        let back: Vec<String> = Partition::ranges(lines, 4)
            .into_iter()
            .flat_map(Partition::into_vec)
            .collect();
        let moved: Vec<*const u8> = back.iter().map(|l| l.as_ptr()).collect();
        assert_eq!(moved, heap, "a range must hand back the caller's strings");
        assert_eq!(back[9], "line 9");
    }

    #[test]
    fn seal_verify_round_trips_and_counts() {
        let metrics = EngineMetrics::new();
        let sealed = seal(vec![1u64, 2, 3], 7, &metrics);
        assert!(verify(&sealed, 7));
        assert!(!verify(&sealed, 8), "digest must be seed-bound");
        assert_eq!(metrics.recovery().batches_checksummed, 1);
    }

    #[test]
    fn corrupt_one_breaks_exactly_one_digest() {
        let metrics = EngineMetrics::new();
        let mut out: Vec<Vec<Sealed<Vec<u64>>>> = vec![
            vec![seal(vec![1u64, 2], 9, &metrics)],
            vec![seal(vec![3u64], 9, &metrics), seal(vec![4u64, 5], 9, &metrics)],
        ];
        let hit = corrupt_one(&mut out, CorruptionKind::BitFlip, 0xDEAD_BEEF);
        assert!(hit.is_some());
        let bad: usize = out
            .iter()
            .flatten()
            .filter(|s| !verify(s, 9))
            .count();
        assert_eq!(bad, 1, "exactly one batch must fail verification");
    }

    #[test]
    fn corrupt_one_of_nothing_is_none() {
        let mut out: Vec<Vec<Sealed<Vec<u64>>>> = vec![Vec::new(), Vec::new()];
        assert!(corrupt_one(&mut out, CorruptionKind::Truncate, 3).is_none());
    }

    #[test]
    fn partition_buckets_are_presized() {
        let metrics = EngineMetrics::new();
        let part = HashPartitioner::new(4);
        let records: Vec<(u64, u64)> = (0..1000).map(|i| (i, i)).collect();
        let buckets = partition_records(records, &part, &metrics, 16);
        // Each bucket reserved ~count/n up front; a balanced hash shouldn't
        // have pushed any of them far beyond it.
        for b in &buckets {
            assert!(b.capacity() >= 251, "bucket under-reserved: {}", b.capacity());
        }
    }
}
