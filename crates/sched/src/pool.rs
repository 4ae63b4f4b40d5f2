//! Shared work-stealing core pool.
//!
//! A [`TaskPool`] owns a fixed set of worker threads, each with its own
//! deque. Engines submit a whole stage as one *batch* of closures via
//! [`TaskPool::run_batch`]: tasks are distributed round-robin across the
//! worker deques, workers pop from the front of their own deque and
//! steal from the back of a victim's when idle, and the submitting
//! thread *helps* — it executes tasks of its own batch while waiting —
//! so a stage submitted from inside a pool task (nested shuffles do
//! this) always has at least one thread driving it and the pool cannot
//! deadlock on its own fixed size.
//!
//! Panics inside tasks are caught per-task; the first payload is
//! re-raised on the submitting thread only after every task of the
//! batch has finished, mirroring the join-then-`resume_unwind` contract
//! of the scoped-thread spawning this pool replaces (typed payloads
//! like `JobCancelled` / `IntegrityError` cross intact).

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A type-erased, heap-allocated task. Lifetimes are erased at the
/// `run_batch` boundary (see the safety argument there).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared completion state for one submitted batch.
struct BatchState {
    /// Tasks not yet finished (decremented *after* the closure returns
    /// or its panic is captured — the lifetime-erasure safety hinges on
    /// this ordering).
    remaining: AtomicUsize,
    /// First captured panic payload, re-raised by the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    done_cv: Condvar,
    stolen: AtomicU64,
    queue_wait_micros: AtomicU64,
}

struct Task {
    run: Job,
    batch: Arc<BatchState>,
    enqueued: Instant,
}

struct PoolState {
    /// One deque per worker thread. Owners pop the front, thieves pop
    /// the back.
    deques: Vec<VecDeque<Task>>,
    /// Round-robin submission cursor.
    next: usize,
    stop: bool,
}

struct Inner {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    workers: usize,
    tasks_executed: AtomicU64,
    tasks_stolen: AtomicU64,
    queue_wait_micros: AtomicU64,
    batches: AtomicU64,
}

/// Aggregate counters for a pool since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fixed worker-thread count.
    pub workers: u64,
    /// Batches submitted through [`TaskPool::run_batch`].
    pub batches: u64,
    /// Tasks executed to completion (including by helping submitters).
    pub tasks_executed: u64,
    /// Tasks taken from a deque other than the executing worker's own.
    pub tasks_stolen: u64,
    /// Total microseconds tasks spent queued before execution began.
    pub queue_wait_micros: u64,
}

/// Per-batch counters returned by [`TaskPool::run_batch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Tasks in the batch.
    pub tasks: u64,
    /// How many of them were executed via a steal.
    pub tasks_stolen: u64,
    /// Summed queue wait across the batch's tasks, in microseconds.
    pub queue_wait_micros: u64,
}

/// A fixed-size work-stealing thread pool shared across jobs.
pub struct TaskPool {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Task panics are caught outside any pool lock, so poison can only
    // arise from a panic in pool bookkeeping itself; recover the guard
    // rather than cascading.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl TaskPool {
    /// Start a pool with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(PoolState {
                deques: (0..workers).map(|_| VecDeque::new()).collect(),
                next: 0,
                stop: false,
            }),
            work_cv: Condvar::new(),
            workers,
            tasks_executed: AtomicU64::new(0),
            tasks_stolen: AtomicU64::new(0),
            queue_wait_micros: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("flowmark-pool-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("spawn pool worker")
            })
            .collect();
        TaskPool {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// The process-wide shared pool both engines submit every finite
    /// stage and partition task to. Sized to the machine's available
    /// parallelism (at least 2 so stealing is meaningful).
    pub fn global() -> &'static TaskPool {
        static POOL: OnceLock<TaskPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
            TaskPool::new(cores.max(2))
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Execute `tasks` on the pool and block until all of them finish.
    ///
    /// The submitting thread helps: while waiting it pulls tasks *of
    /// this batch* from the deques and runs them inline, so the batch
    /// always progresses even when every worker is busy (or when the
    /// submitter itself is a pool worker running a nested stage).
    ///
    /// If any task panics, the first payload is re-raised here after
    /// the whole batch has drained.
    ///
    /// Tasks may borrow from the caller's stack (`'s`): this is sound
    /// because the closure's lifetime is only erased, never extended —
    /// `run_batch` does not return until `remaining == 0`, and
    /// `remaining` is decremented strictly after a task's closure has
    /// returned or had its panic captured, so no borrowed data is
    /// touched after this frame resumes.
    pub fn run_batch<'s>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 's>>) -> BatchStats {
        let n = tasks.len();
        if n == 0 {
            return BatchStats::default();
        }
        self.inner.batches.fetch_add(1, Ordering::Relaxed);
        let batch = Arc::new(BatchState {
            remaining: AtomicUsize::new(n),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            stolen: AtomicU64::new(0),
            queue_wait_micros: AtomicU64::new(0),
        });
        let enqueued = Instant::now();
        {
            let mut st = lock_ignore_poison(&self.inner.state);
            for t in tasks {
                // SAFETY: see the doc comment — the erased closure is
                // guaranteed dead before this stack frame is released.
                let run: Job = unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + 's>, Job>(t)
                };
                let w = st.next % self.inner.workers;
                st.next = st.next.wrapping_add(1);
                st.deques[w].push_back(Task {
                    run,
                    batch: Arc::clone(&batch),
                    enqueued,
                });
            }
            self.inner.work_cv.notify_all();
        }
        // Caller-helps loop: run our own tasks until none are queued,
        // then wait for in-flight ones to finish elsewhere.
        loop {
            if batch.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            let task = {
                let mut st = lock_ignore_poison(&self.inner.state);
                take_for_batch(&mut st, &batch)
            };
            match task {
                Some(t) => execute(&self.inner, t, false),
                None => {
                    let mut done = lock_ignore_poison(&batch.done);
                    while !*done && batch.remaining.load(Ordering::Acquire) > 0 {
                        let (g, _) = batch
                            .done_cv
                            .wait_timeout(done, Duration::from_millis(50))
                            .unwrap_or_else(|e| e.into_inner());
                        done = g;
                    }
                }
            }
        }
        if let Some(p) = lock_ignore_poison(&batch.panic).take() {
            resume_unwind(p);
        }
        BatchStats {
            tasks: n as u64,
            tasks_stolen: batch.stolen.load(Ordering::Relaxed),
            queue_wait_micros: batch.queue_wait_micros.load(Ordering::Relaxed),
        }
    }

    /// Counters since construction.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.inner.workers as u64,
            batches: self.inner.batches.load(Ordering::Relaxed),
            tasks_executed: self.inner.tasks_executed.load(Ordering::Relaxed),
            tasks_stolen: self.inner.tasks_stolen.load(Ordering::Relaxed),
            queue_wait_micros: self.inner.queue_wait_micros.load(Ordering::Relaxed),
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        {
            let mut st = lock_ignore_poison(&self.inner.state);
            st.stop = true;
            self.inner.work_cv.notify_all();
        }
        for h in lock_ignore_poison(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

/// Remove the oldest queued task belonging to `batch`, if any.
fn take_for_batch(st: &mut PoolState, batch: &Arc<BatchState>) -> Option<Task> {
    for dq in st.deques.iter_mut() {
        if let Some(pos) = dq.iter().position(|t| Arc::ptr_eq(&t.batch, batch)) {
            return dq.remove(pos);
        }
    }
    None
}

fn execute(inner: &Inner, task: Task, stolen: bool) {
    let wait = task.enqueued.elapsed().as_micros() as u64;
    inner.queue_wait_micros.fetch_add(wait, Ordering::Relaxed);
    task.batch
        .queue_wait_micros
        .fetch_add(wait, Ordering::Relaxed);
    if stolen {
        inner.tasks_stolen.fetch_add(1, Ordering::Relaxed);
        task.batch.stolen.fetch_add(1, Ordering::Relaxed);
    }
    inner.tasks_executed.fetch_add(1, Ordering::Relaxed);
    let batch = Arc::clone(&task.batch);
    let result = catch_unwind(AssertUnwindSafe(task.run));
    if let Err(payload) = result {
        let mut slot = lock_ignore_poison(&batch.panic);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }
    // Everything the closure borrowed is dead from here on; only now
    // may the submitting frame be released.
    if batch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        let mut done = lock_ignore_poison(&batch.done);
        *done = true;
        batch.done_cv.notify_all();
    }
}

fn worker_loop(inner: &Inner, me: usize) {
    let mut st = lock_ignore_poison(&inner.state);
    loop {
        if st.stop {
            return;
        }
        // Own deque first (front = oldest), then steal from the back of
        // the first non-empty victim, scanning round-robin from me+1.
        let mut found: Option<(Task, bool)> = None;
        if let Some(t) = st.deques[me].pop_front() {
            found = Some((t, false));
        } else {
            for off in 1..inner.workers {
                let v = (me + off) % inner.workers;
                if let Some(t) = st.deques[v].pop_back() {
                    found = Some((t, true));
                    break;
                }
            }
        }
        match found {
            Some((task, stolen)) => {
                drop(st);
                execute(inner, task, stolen);
                st = lock_ignore_poison(&inner.state);
            }
            None => {
                let (g, _) = inner
                    .work_cv
                    .wait_timeout(st, Duration::from_millis(50))
                    .unwrap_or_else(|e| e.into_inner());
                st = g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn batch_runs_all_tasks_and_can_borrow_the_stack() {
        let pool = TaskPool::new(3);
        let hits: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|i| {
                let hits = &hits;
                Box::new(move || {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let stats = pool.run_batch(tasks);
        assert_eq!(stats.tasks, 64);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(pool.stats().tasks_executed, 64);
    }

    #[test]
    fn panic_payload_crosses_the_pool_after_the_batch_drains() {
        let pool = TaskPool::new(2);
        let ran = Arc::new(AtomicU32::new(0));
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|i| {
                let ran = Arc::clone(&ran);
                Box::new(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 3 {
                        std::panic::panic_any("typed payload");
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.run_batch(tasks)))
            .expect_err("payload must propagate");
        std::panic::set_hook(hook);
        assert_eq!(*err.downcast_ref::<&str>().expect("str payload"), "typed payload");
        // Every sibling still ran to completion before the unwind.
        assert_eq!(ran.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn nested_batches_cannot_deadlock_a_saturated_pool() {
        // 1 worker + nested submission: only the caller-helps protocol
        // lets the inner batch make progress.
        let pool = TaskPool::new(1);
        let total = Arc::new(AtomicU32::new(0));
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
            .map(|_| {
                let total = Arc::clone(&total);
                let pool = &pool;
                Box::new(move || {
                    let inner: Vec<Box<dyn FnOnce() + Send + '_>> = (0..4)
                        .map(|_| {
                            let total = Arc::clone(&total);
                            Box::new(move || {
                                total.fetch_add(1, Ordering::Relaxed);
                            })
                                as Box<dyn FnOnce() + Send + '_>
                        })
                        .collect();
                    pool.run_batch(inner);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.run_batch(tasks);
        assert_eq!(total.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn idle_workers_steal_queued_tasks() {
        let pool = TaskPool::new(4);
        // Many short batches from one submitter: round-robin placement
        // spreads tasks across all four deques while only one submitter
        // helps, so idle workers must steal to drain them.
        for _ in 0..32 {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..16)
                .map(|_| {
                    Box::new(|| {
                        std::thread::sleep(Duration::from_micros(200));
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            pool.run_batch(tasks);
        }
        let stats = pool.stats();
        assert_eq!(stats.tasks_executed, 32 * 16);
        assert!(stats.tasks_stolen >= 1, "expected steals, got {stats:?}");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = TaskPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
            (0..4).map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send + '_>).collect();
        pool.run_batch(tasks);
        drop(pool); // must not hang
    }
}
