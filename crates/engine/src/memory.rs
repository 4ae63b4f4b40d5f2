//! Memory management: the heap model vs. the managed-segment model.
//!
//! §VIII of the paper: "Memory management plays a crucial role in the
//! execution of a workload ... as opposed to Spark, Flink does not
//! accumulate lots of objects on the heap but stores them in a dedicated
//! memory region". Two allocators model that dichotomy:
//!
//! - [`HeapBudget`] — Spark-like: a single heap budget shared by storage and
//!   execution; exceeding it is a hard failure ("if the size of the heap is
//!   not sufficient, the job dies"), and *pressure* (live/total ratio)
//!   drives a GC-overhead estimate.
//! - [`ManagedPool`] — Flink-like: a fixed pool of fixed-size segments;
//!   exhaustion is not a failure but a *spill signal* ("most of the
//!   operators are implemented so that they can survive with very little
//!   memory, spilling to disk when necessary").

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Error returned when a heap allocation cannot be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes currently live.
    pub live: u64,
    /// Heap capacity.
    pub capacity: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "java.lang.OutOfMemoryError: requested {} bytes with {}/{} live",
            self.requested, self.live, self.capacity
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Spark-like heap accounting: all execution and storage memory comes from
/// one JVM heap. Thread-safe; clones share the budget.
#[derive(Debug, Clone)]
pub struct HeapBudget {
    inner: Arc<HeapInner>,
}

#[derive(Debug)]
struct HeapInner {
    capacity: u64,
    live: AtomicU64,
    peak: AtomicU64,
    allocations: AtomicU64,
}

impl HeapBudget {
    /// Creates a heap of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        Self {
            inner: Arc::new(HeapInner {
                capacity,
                live: AtomicU64::new(0),
                peak: AtomicU64::new(0),
                allocations: AtomicU64::new(0),
            }),
        }
    }

    /// Reserves `bytes`; fails with [`OutOfMemory`] when the heap would
    /// overflow — the "job dies" behaviour, not a spill.
    pub fn allocate(&self, bytes: u64) -> Result<HeapAllocation, OutOfMemory> {
        let mut current = self.inner.live.load(Ordering::Relaxed);
        loop {
            let next = current + bytes;
            if next > self.inner.capacity {
                return Err(OutOfMemory {
                    requested: bytes,
                    live: current,
                    capacity: self.inner.capacity,
                });
            }
            match self.inner.live.compare_exchange_weak(
                current,
                next,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner.peak.fetch_max(next, Ordering::Relaxed);
                    self.inner.allocations.fetch_add(1, Ordering::Relaxed);
                    return Ok(HeapAllocation {
                        heap: self.clone(),
                        bytes,
                    });
                }
                Err(actual) => current = actual,
            }
        }
    }

    /// Live bytes.
    pub fn live(&self) -> u64 {
        self.inner.live.load(Ordering::Relaxed)
    }

    /// High-water mark.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Heap capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.inner.capacity
    }

    /// Occupancy in `[0, 1]`.
    pub fn pressure(&self) -> f64 {
        if self.inner.capacity == 0 {
            1.0
        } else {
            self.live() as f64 / self.inner.capacity as f64
        }
    }

    /// Estimated GC overhead factor ≥ 1.0 given current pressure: the model
    /// used by both the paper's narrative and our simulator — GC cost grows
    /// superlinearly as the heap fills with objects ("large sized JVMs ...
    /// can suffer from the overhead of garbage collection", §VIII).
    pub fn gc_overhead(&self) -> f64 {
        gc_overhead_at(self.pressure())
    }
}

/// GC overhead model: 1.0 at an empty heap, rising convexly; ~1.08 at 50 %
/// occupancy, ~1.35 at 85 %, unbounded growth near 100 %.
pub fn gc_overhead_at(pressure: f64) -> f64 {
    let p = pressure.clamp(0.0, 0.99);
    1.0 + 0.3 * p * p / (1.0 - p)
}

/// An RAII heap reservation; releases on drop.
#[derive(Debug)]
pub struct HeapAllocation {
    heap: HeapBudget,
    bytes: u64,
}

impl HeapAllocation {
    /// Reserved size.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for HeapAllocation {
    fn drop(&mut self) {
        self.heap.inner.live.fetch_sub(self.bytes, Ordering::AcqRel);
    }
}

/// Flink-like managed memory: a fixed pool of equal segments. Acquisition
/// never blocks and never fails — it either grants a segment or tells the
/// caller to spill.
#[derive(Debug, Clone)]
pub struct ManagedPool {
    inner: Arc<PoolInner>,
}

#[derive(Debug)]
struct PoolInner {
    segment_bytes: usize,
    total_segments: usize,
    free: AtomicUsize,
    spill_signals: AtomicU64,
}

/// Result of a segment request.
#[derive(Debug, PartialEq, Eq)]
pub enum Acquire {
    /// A segment was granted.
    Granted(Segment),
    /// Pool exhausted: the operator must spill and retry.
    MustSpill,
}

/// An RAII managed segment; returns to the pool on drop.
#[derive(Debug)]
pub struct Segment {
    pool: ManagedPool,
    bytes: usize,
}

impl Segment {
    /// Segment size in bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl PartialEq for Segment {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}
impl Eq for Segment {}

impl Drop for Segment {
    fn drop(&mut self) {
        self.pool.inner.free.fetch_add(1, Ordering::AcqRel);
    }
}

impl ManagedPool {
    /// Creates a pool of `total_segments` segments of `segment_bytes` each
    /// (Flink's default segment is 32 KiB).
    pub fn new(total_segments: usize, segment_bytes: usize) -> Self {
        assert!(total_segments > 0 && segment_bytes > 0);
        Self {
            inner: Arc::new(PoolInner {
                segment_bytes,
                total_segments,
                free: AtomicUsize::new(total_segments),
                spill_signals: AtomicU64::new(0),
            }),
        }
    }

    /// Sizes a pool from a memory budget.
    pub fn with_budget(budget_bytes: u64, segment_bytes: usize) -> Self {
        let segments = ((budget_bytes as usize) / segment_bytes).max(1);
        Self::new(segments, segment_bytes)
    }

    /// Requests one segment.
    pub fn acquire(&self) -> Acquire {
        let mut free = self.inner.free.load(Ordering::Relaxed);
        loop {
            if free == 0 {
                self.inner.spill_signals.fetch_add(1, Ordering::Relaxed);
                return Acquire::MustSpill;
            }
            match self.inner.free.compare_exchange_weak(
                free,
                free - 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Acquire::Granted(Segment {
                        pool: self.clone(),
                        bytes: self.inner.segment_bytes,
                    })
                }
                Err(actual) => free = actual,
            }
        }
    }

    /// Free segments right now.
    pub fn free_segments(&self) -> usize {
        self.inner.free.load(Ordering::Relaxed)
    }

    /// Total segments.
    pub fn total_segments(&self) -> usize {
        self.inner.total_segments
    }

    /// Number of times acquisition told a caller to spill.
    pub fn spill_signals(&self) -> u64 {
        self.inner.spill_signals.load(Ordering::Relaxed)
    }

    /// Segment size in bytes.
    pub fn segment_bytes(&self) -> usize {
        self.inner.segment_bytes
    }
}

/// Error returned by [`BufferPool::try_take`] when the pool's outstanding
/// budget is spent: the caller must free storage (merge or spill its runs)
/// before drawing more — the spill-don't-die discipline of [`ManagedPool`]
/// applied to real allocations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolExhausted {
    /// Buffers currently checked out.
    pub outstanding: usize,
    /// Maximum buffers that may be checked out at once.
    pub limit: usize,
}

impl std::fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "buffer pool exhausted: {}/{} buffers outstanding",
            self.outstanding, self.limit
        )
    }
}

impl std::error::Error for PoolExhausted {}

/// A pool of reusable `Vec` allocations for the shuffle/combine hot path.
///
/// [`crate::sortbuf::SortCombineBuffer`] emits one freshly-allocated run
/// per buffer fill; a worker draining millions of records through small
/// buffers churns through thousands of short-lived allocations. A
/// `BufferPool` is the managed-memory answer (same spirit as
/// [`ManagedPool`], but for real allocations): spent run storage is
/// returned, cleared, and handed to the next drain instead of going back
/// to the allocator. Retention is bounded twice — in idle buffers and in
/// idle *bytes* — so a burst cannot pin memory forever, whatever the
/// buffer sizes.
///
/// A request is served **best-fit**: the smallest idle buffer whose
/// capacity covers it, else a fresh allocation — never a regrown smaller
/// one, which would cost the allocation the pool exists to avoid while a
/// fitting buffer sat idle.
///
/// A pool built with [`BufferPool::with_limit`] additionally caps how many
/// buffers may be *outstanding* (taken, not yet returned) at once;
/// [`BufferPool::try_take`] then reports [`PoolExhausted`] instead of
/// allocating past the cap.
#[derive(Debug)]
pub struct BufferPool<T> {
    idle: Mutex<Idle<T>>,
    max_pooled: usize,
    max_idle_bytes: usize,
    max_outstanding: usize,
    outstanding: AtomicUsize,
    reuses: AtomicU64,
    allocations: AtomicU64,
}

/// The idle side of a [`BufferPool`].
#[derive(Debug)]
struct Idle<T> {
    /// Ascending by capacity, so best-fit is one binary search.
    buffers: Vec<Vec<T>>,
    /// Sum of the idle buffers' capacities, in bytes.
    bytes: usize,
}

fn capacity_bytes<T>(buf: &Vec<T>) -> usize {
    buf.capacity().saturating_mul(std::mem::size_of::<T>())
}

impl<T> BufferPool<T> {
    /// Creates a pool retaining at most `max_pooled` idle buffers, with no
    /// bound on outstanding buffers.
    pub const fn new(max_pooled: usize) -> Self {
        Self::bounded(max_pooled, usize::MAX, usize::MAX)
    }

    /// Creates a pool that retains at most `max_pooled` idle buffers and
    /// allows at most `max_outstanding` checked-out buffers at once.
    pub fn with_limit(max_pooled: usize, max_outstanding: usize) -> Self {
        assert!(max_outstanding > 0, "need at least one outstanding buffer");
        Self::bounded(max_pooled, usize::MAX, max_outstanding)
    }

    /// Creates a pool that retains idle buffers up to `max_idle_bytes` of
    /// capacity in total, however many buffers that is — the shape for a
    /// long-lived pool of job-sized buffers, where a count says nothing
    /// about the memory held.
    pub const fn with_idle_bytes(max_idle_bytes: usize) -> Self {
        Self::bounded(usize::MAX, max_idle_bytes, usize::MAX)
    }

    const fn bounded(max_pooled: usize, max_idle_bytes: usize, max_outstanding: usize) -> Self {
        Self {
            idle: Mutex::new(Idle {
                buffers: Vec::new(),
                bytes: 0,
            }),
            max_pooled,
            max_idle_bytes,
            max_outstanding,
            outstanding: AtomicUsize::new(0),
            reuses: AtomicU64::new(0),
            allocations: AtomicU64::new(0),
        }
    }

    /// Hands out an empty buffer with at least `capacity` reserved,
    /// recycling a pooled allocation when one is available. Ignores the
    /// outstanding cap — use [`BufferPool::try_take`] to respect it.
    pub fn take(&self, capacity: usize) -> Vec<T> {
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        self.take_inner(capacity)
    }

    /// Like [`BufferPool::take`], but fails with [`PoolExhausted`] when the
    /// outstanding cap is reached instead of allocating past it.
    pub fn try_take(&self, capacity: usize) -> Result<Vec<T>, PoolExhausted> {
        let mut cur = self.outstanding.load(Ordering::Relaxed);
        loop {
            if cur >= self.max_outstanding {
                return Err(PoolExhausted {
                    outstanding: cur,
                    limit: self.max_outstanding,
                });
            }
            match self.outstanding.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(self.take_inner(capacity)),
                Err(actual) => cur = actual,
            }
        }
    }

    fn take_inner(&self, capacity: usize) -> Vec<T> {
        let fit = {
            let mut idle = self.idle.lock();
            let at = idle.buffers.partition_point(|b| b.capacity() < capacity);
            (at < idle.buffers.len()).then(|| {
                let buf = idle.buffers.remove(at);
                idle.bytes -= capacity_bytes(&buf);
                buf
            })
        };
        match fit {
            Some(buf) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.allocations.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(capacity)
            }
        }
    }

    /// Returns a spent buffer to the pool (cleared, allocation retained).
    /// When keeping it would break a retention bound, smaller idle buffers
    /// make room — they serve the fewest requests — and if none is smaller
    /// the newcomer is dropped instead. Releases one outstanding slot
    /// either way.
    pub fn put(&self, mut buf: Vec<T>) {
        let _ = self
            .outstanding
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
        buf.clear();
        let bytes = capacity_bytes(&buf);
        if buf.capacity() == 0 {
            return; // nothing worth keeping
        }
        let mut idle = self.idle.lock();
        // Only buffers smaller than the newcomer may make room for it.
        let smaller = idle
            .buffers
            .partition_point(|b| b.capacity() < buf.capacity());
        let over = |kept: usize, kept_bytes: usize| {
            kept >= self.max_pooled || kept_bytes + bytes > self.max_idle_bytes
        };
        let (mut evict, mut freed) = (0, 0);
        while evict < smaller && over(idle.buffers.len() - evict, idle.bytes - freed) {
            freed += capacity_bytes(&idle.buffers[evict]);
            evict += 1;
        }
        if over(idle.buffers.len() - evict, idle.bytes - freed) {
            return;
        }
        let evicted: Vec<Vec<T>> = idle.buffers.drain(..evict).collect();
        idle.bytes = idle.bytes - freed + bytes;
        idle.buffers.insert(smaller - evict, buf);
        // Unmapping job-sized allocations is no work to do under the lock.
        drop(idle);
        drop(evicted);
    }

    /// Buffers currently checked out (taken and not yet returned).
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Idle buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.idle.lock().buffers.len()
    }

    /// Bytes of capacity the idle buffers hold.
    pub fn idle_bytes(&self) -> usize {
        self.idle.lock().bytes
    }

    /// Times `take` was served from the pool.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Times `take` had to allocate fresh storage.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_allocation_and_release() {
        let heap = HeapBudget::new(1000);
        let a = heap.allocate(400).unwrap();
        assert_eq!(heap.live(), 400);
        let b = heap.allocate(600).unwrap();
        assert_eq!(heap.live(), 1000);
        drop(a);
        assert_eq!(heap.live(), 600);
        drop(b);
        assert_eq!(heap.live(), 0);
        assert_eq!(heap.peak(), 1000);
    }

    #[test]
    fn heap_overflow_is_fatal_error() {
        let heap = HeapBudget::new(1000);
        let _keep = heap.allocate(800).unwrap();
        let err = heap.allocate(300).unwrap_err();
        assert_eq!(err.requested, 300);
        assert_eq!(err.live, 800);
        assert!(err.to_string().contains("OutOfMemoryError"));
        // The failed allocation must not leak accounting.
        assert_eq!(heap.live(), 800);
    }

    #[test]
    fn gc_overhead_grows_convexly() {
        assert!((gc_overhead_at(0.0) - 1.0).abs() < 1e-12);
        let mid = gc_overhead_at(0.5);
        let high = gc_overhead_at(0.85);
        let extreme = gc_overhead_at(0.98);
        assert!(mid > 1.0 && mid < 1.2);
        assert!(high > mid);
        assert!(extreme > 2.0);
        // Clamp keeps it finite at 1.0.
        assert!(gc_overhead_at(1.0).is_finite());
    }

    #[test]
    fn heap_concurrent_allocation_respects_capacity() {
        let heap = HeapBudget::new(10_000);
        let held: Vec<Vec<HeapAllocation>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let heap = heap.clone();
                    s.spawn(move || {
                        // Hold allocations for the thread's whole life so the
                        // capacity bound is actually contended.
                        (0..10).filter_map(|_| heap.allocate(250).ok()).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let successes: usize = held.iter().map(Vec::len).sum();
        // At most capacity/250 = 40 allocations can be live at once, and the
        // peak must never exceed capacity.
        assert!(successes <= 40, "oversubscribed: {successes}");
        assert!(heap.peak() <= 10_000, "peak {} > capacity", heap.peak());
        drop(held);
        assert_eq!(heap.live(), 0, "all allocations released");
    }

    #[test]
    fn pool_exhaustion_signals_spill_not_failure() {
        let pool = ManagedPool::new(2, 1024);
        let s1 = match pool.acquire() {
            Acquire::Granted(s) => s,
            Acquire::MustSpill => panic!("pool should have segments"),
        };
        let _s2 = match pool.acquire() {
            Acquire::Granted(s) => s,
            Acquire::MustSpill => panic!(),
        };
        assert_eq!(pool.free_segments(), 0);
        assert_eq!(pool.acquire(), Acquire::MustSpill);
        assert_eq!(pool.spill_signals(), 1);
        drop(s1);
        assert!(matches!(pool.acquire(), Acquire::Granted(_)));
    }

    #[test]
    fn pool_with_budget_sizing() {
        let pool = ManagedPool::with_budget(1 << 20, 32 << 10);
        assert_eq!(pool.total_segments(), 32);
        assert_eq!(pool.segment_bytes(), 32 << 10);
    }

    #[test]
    fn buffer_pool_recycles_allocations() {
        let pool: BufferPool<u64> = BufferPool::new(2);
        let mut a = pool.take(64);
        assert_eq!(pool.allocations(), 1);
        a.extend(0..10);
        let ptr = a.as_ptr();
        pool.put(a);
        assert_eq!(pool.pooled(), 1);
        let b = pool.take(8);
        assert!(b.is_empty(), "recycled buffer must come back cleared");
        assert_eq!(b.as_ptr(), ptr, "allocation was not recycled");
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn buffer_pool_is_bounded() {
        let pool: BufferPool<u8> = BufferPool::new(1);
        pool.put(Vec::with_capacity(8));
        pool.put(Vec::with_capacity(8)); // over the bound — dropped
        assert_eq!(pool.pooled(), 1);
        pool.put(Vec::new()); // capacity 0 — not worth keeping
        assert_eq!(pool.pooled(), 1);
    }

    #[test]
    fn buffer_pool_take_grows_small_recycled_buffers() {
        let pool: BufferPool<u8> = BufferPool::new(4);
        pool.put(Vec::with_capacity(4));
        let b = pool.take(1024);
        assert!(b.capacity() >= 1024);
    }

    #[test]
    fn buffer_pool_serves_best_fit_from_mixed_sizes() {
        let pool: BufferPool<u8> = BufferPool::new(8);
        let sized: Vec<Vec<u8>> = [4096, 16, 256].map(Vec::with_capacity).into();
        let ptr_256 = sized[2].as_ptr();
        let ptr_4096 = sized[0].as_ptr();
        sized.into_iter().for_each(|b| pool.put(b));
        // The smallest buffer that covers the request, wherever it sits.
        let b = pool.take(100);
        assert_eq!((b.as_ptr(), b.capacity()), (ptr_256, 256));
        // Nothing idle covers 300 but the 4096: served without regrowing
        // the 16 that is also idle.
        let c = pool.take(300);
        assert_eq!(c.as_ptr(), ptr_4096);
        assert_eq!((pool.reuses(), pool.allocations()), (2, 0));
        // Nothing fits: a fresh allocation, and the small one stays pooled.
        let d = pool.take(64);
        assert!(d.capacity() >= 64);
        assert_eq!(
            (pool.reuses(), pool.allocations(), pool.pooled()),
            (2, 1, 1)
        );
    }

    #[test]
    fn buffer_pool_bounds_idle_bytes_and_keeps_the_large_buffers() {
        let pool: BufferPool<u64> = BufferPool::with_idle_bytes(1024);
        pool.put(Vec::with_capacity(32)); // 256 B
        pool.put(Vec::with_capacity(64)); // 512 B
        assert_eq!((pool.pooled(), pool.idle_bytes()), (2, 768));
        // 768 + 512 breaks the bound: the smallest idle buffer makes room.
        pool.put(Vec::with_capacity(64));
        assert_eq!((pool.pooled(), pool.idle_bytes()), (2, 1024));
        // Nothing idle is smaller than the newcomer: it is the one dropped.
        pool.put(Vec::with_capacity(40));
        assert_eq!((pool.pooled(), pool.idle_bytes()), (2, 1024));
        // A buffer over the whole bound is never kept and evicts nothing.
        pool.put(Vec::with_capacity(1000));
        assert_eq!((pool.pooled(), pool.idle_bytes()), (2, 1024));
        let _held = pool.take(64);
        assert_eq!(
            pool.idle_bytes(),
            512,
            "a taken buffer stops counting as idle"
        );
    }

    #[test]
    fn buffer_pool_try_take_reports_exhaustion() {
        let pool: BufferPool<u64> = BufferPool::with_limit(4, 2);
        let a = pool.try_take(8).unwrap();
        let b = pool.try_take(8).unwrap();
        assert_eq!(pool.outstanding(), 2);
        let err = pool.try_take(8).unwrap_err();
        assert_eq!(err, PoolExhausted { outstanding: 2, limit: 2 });
        assert!(err.to_string().contains("exhausted"));
        // Returning a buffer frees a slot.
        pool.put(a);
        assert_eq!(pool.outstanding(), 1);
        assert!(pool.try_take(8).is_ok());
        pool.put(b);
    }

    #[test]
    fn buffer_pool_unbounded_take_never_exhausts() {
        let pool: BufferPool<u8> = BufferPool::new(2);
        let held: Vec<Vec<u8>> = (0..100).map(|_| pool.take(4)).collect();
        assert_eq!(pool.outstanding(), 100);
        assert!(pool.try_take(4).is_ok(), "default pool has no cap");
        for buf in held {
            pool.put(buf);
        }
    }

    #[test]
    fn zero_capacity_heap_has_full_pressure() {
        let heap = HeapBudget::new(0);
        assert_eq!(heap.pressure(), 1.0);
        assert!(heap.allocate(1).is_err());
        assert!(heap.allocate(0).is_ok());
    }
}
