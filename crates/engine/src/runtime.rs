//! Shared stage-execution seam for both engines.
//!
//! Before PR 8 the two engines duplicated their task spawn/join
//! scaffolding: the staged engine fanned each stage through the rayon
//! shim (scoped chunk threads per call), the pipelined engine spawned
//! one scoped thread per partition per operator and re-raised the first
//! join panic. Both shapes now live here, behind one seam keyed on
//! [`ExecutorMode`]:
//!
//! - [`ExecutorMode::PerJob`] preserves each engine's legacy spawning
//!   byte-for-byte (it is the measured bench baseline);
//! - [`ExecutorMode::SharedPool`] submits the stage as one batch to the
//!   process-wide work-stealing [`TaskPool`], so concurrent jobs share
//!   a fixed core set instead of oversubscribing the machine. Steal and
//!   queue-wait counts feed [`EngineMetrics`].
//!
//! The pipelined engine's exchange producers/consumers are *not* routed
//! through the pool in either mode: they block on bounded channels, and
//! parking blocking tasks in a fixed-size pool is a deadlock. Only
//! finite stage/partition tasks go through this seam.
//!
//! This module also holds the engine side of the cross-job fragment
//! cache: [`CachedStage`] is the stored shape (sealed batches plus the
//! seal seed), and [`fragment_lookup`]/[`fragment_store`] wrap the
//! type-erased `flowmark-sched` cache with the PR 7 checksum
//! re-verification that makes a reuse trustworthy.

use std::panic::resume_unwind;
use std::sync::{Arc, Mutex};

use flowmark_columnar::checksum::Checksummable;
use flowmark_core::config::ExecutorMode;
use flowmark_sched::{FragmentCache, FragmentKey, TaskPool};
use rayon::prelude::*;

use crate::metrics::EngineMetrics;
use crate::shuffle::{verify, Sealed, ShuffleBatch};

/// A registered fragment-cache attachment: where to look and under
/// which key. Engines hold at most one pending handle per job; the
/// first batch exchange consumes it.
pub type FragmentHandle = (Arc<FragmentCache>, FragmentKey);

/// The stored shape of one cached stage output: every reducer's sealed
/// batches plus the checksum seed they were sealed under, so a reuse
/// can re-verify digests regardless of the consuming job's own seed.
pub struct CachedStage<B> {
    /// Seed the digests were computed with at seal time.
    pub seed: u64,
    /// Per-output-partition sealed batches.
    pub parts: Vec<Vec<Sealed<B>>>,
}

/// Run `n` independent stage tasks, returning outputs in index order.
///
/// `PerJob` keeps the staged engine's legacy shape (chunked scoped
/// threads via the rayon shim); `SharedPool` submits one pool batch.
pub fn run_stage<T, F>(mode: ExecutorMode, metrics: &EngineMetrics, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match mode {
        ExecutorMode::PerJob => (0..n).into_par_iter().map(f).collect(),
        ExecutorMode::SharedPool => pool_run(metrics, n, f),
    }
}

/// Like [`run_stage`], but each task consumes an owned input item.
pub fn run_stage_items<I, T, F>(
    mode: ExecutorMode,
    metrics: &EngineMetrics,
    items: Vec<I>,
    f: F,
) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    match mode {
        ExecutorMode::PerJob => items
            .into_iter()
            .enumerate()
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|(i, item)| f(i, item))
            .collect(),
        ExecutorMode::SharedPool => {
            let inputs: Vec<Mutex<Option<I>>> =
                items.into_iter().map(|i| Mutex::new(Some(i))).collect();
            pool_run(metrics, inputs.len(), |i| {
                let item = take_slot(&inputs[i]);
                f(i, item)
            })
        }
    }
}

/// Run `n` tasks with the pipelined engine's legacy shape: one scoped
/// thread per task (`PerJob`), joining in order and re-raising the
/// first panic payload intact — or a shared-pool batch (`SharedPool`),
/// which preserves the same payload contract.
pub fn run_stage_per_task<T, F>(
    mode: ExecutorMode,
    metrics: &EngineMetrics,
    n: usize,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match mode {
        ExecutorMode::PerJob => std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = (0..n).map(|i| scope.spawn(move || f(i))).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)))
                .collect()
        }),
        ExecutorMode::SharedPool => pool_run(metrics, n, f),
    }
}

/// Submit one batch of `n` index tasks to the global pool and fold its
/// steal/queue-wait stats into `metrics`.
fn pool_run<T, F>(metrics: &EngineMetrics, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
        .map(|i| {
            let slots = &slots;
            let f = &f;
            Box::new(move || {
                let value = f(i);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(value);
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    let stats = TaskPool::global().run_batch(tasks);
    metrics.add_tasks_stolen(stats.tasks_stolen);
    metrics.add_queue_wait_micros(stats.queue_wait_micros);
    metrics.add_queue_wait_tasks(stats.tasks);
    slots.into_iter().map(|s| take_slot(&s)).collect()
}

fn take_slot<T>(slot: &Mutex<Option<T>>) -> T {
    slot.lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .expect("pool task completed and filled its slot")
}

/// Engine side of a fragment-cache read: look the key up, re-verify
/// **every** cached batch against its stored seal seed (the PR 7
/// checksum), and only then count a hit. A failed verification
/// invalidates the entry and falls back to recomputation — a rotten
/// cache degrades to a miss, never a wrong answer.
pub fn fragment_lookup<B>(
    handle: &FragmentHandle,
    metrics: &EngineMetrics,
) -> Option<Vec<Vec<Sealed<B>>>>
where
    B: ShuffleBatch + Checksummable + Clone + Send + Sync + 'static,
{
    let (cache, key) = handle;
    let any = cache.get(key)?;
    let stage = any.downcast_ref::<CachedStage<B>>()?;
    let verified = stage
        .parts
        .iter()
        .all(|part| part.iter().all(|sealed| verify(sealed, stage.seed)));
    if !verified {
        cache.invalidate(key);
        return None;
    }
    metrics.add_fragment_cache_hits(1);
    Some(stage.parts.clone())
}

/// Engine side of a fragment-cache write: store this job's freshly
/// computed (and already verified) sealed stage output under its key,
/// charged by payload bytes plus digest overhead.
pub fn fragment_store<B>(
    handle: &FragmentHandle,
    metrics: &EngineMetrics,
    seed: u64,
    parts: &[Vec<Sealed<B>>],
) where
    B: ShuffleBatch + Checksummable + Clone + Send + Sync + 'static,
{
    let (cache, key) = handle;
    let bytes: u64 = parts
        .iter()
        .flat_map(|p| p.iter())
        .map(|(_, b)| b.bytes() as u64 + 8)
        .sum();
    let evicted = cache.insert(
        *key,
        Arc::new(CachedStage {
            seed,
            parts: parts.to_vec(),
        }),
        bytes,
    );
    metrics.add_fragment_cache_evictions(evicted);
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowmark_columnar::StrU64Batch;

    #[test]
    fn run_stage_modes_agree() {
        let metrics = EngineMetrics::new();
        let per_job = run_stage(ExecutorMode::PerJob, &metrics, 16, |i| i * i);
        let pooled = run_stage(ExecutorMode::SharedPool, &metrics, 16, |i| i * i);
        assert_eq!(per_job, pooled);
        assert_eq!(metrics.queue_wait_tasks(), 16);
    }

    #[test]
    fn run_stage_items_modes_agree() {
        let metrics = EngineMetrics::new();
        let items: Vec<String> = (0..9).map(|i| format!("x{i}")).collect();
        let per_job = run_stage_items(ExecutorMode::PerJob, &metrics, items.clone(), |i, s| {
            format!("{i}:{s}")
        });
        let pooled =
            run_stage_items(ExecutorMode::SharedPool, &metrics, items, |i, s| {
                format!("{i}:{s}")
            });
        assert_eq!(per_job, pooled);
    }

    #[test]
    fn per_task_mode_preserves_panic_payloads() {
        crate::faults::install_quiet_hook();
        let metrics = EngineMetrics::new();
        for mode in [ExecutorMode::PerJob, ExecutorMode::SharedPool] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_stage_per_task(mode, &metrics, 4, |i| {
                    if i == 2 {
                        std::panic::panic_any(crate::faults::JobCancelled { at: (7, i) });
                    }
                    i
                })
            }))
            .expect_err("panic must propagate");
            let cancelled = err
                .downcast_ref::<crate::faults::JobCancelled>()
                .expect("typed payload intact");
            assert_eq!(cancelled.at, (7, 2));
        }
    }

    /// The staged engine's stage shapes re-raise a task's typed payload in
    /// both modes too — `PerJob` goes through the vendored rayon stand-in,
    /// which used to replace it with a `String` on hosts with ≥2 cores.
    #[test]
    fn staged_stage_shapes_preserve_panic_payloads() {
        crate::faults::install_quiet_hook();
        let metrics = EngineMetrics::new();
        let task = |i: usize| {
            if i == 2 {
                std::panic::panic_any(crate::faults::JobCancelled { at: (7, i) });
            }
            i
        };
        for mode in [ExecutorMode::PerJob, ExecutorMode::SharedPool] {
            for items in [false, true] {
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if items {
                        run_stage_items(mode, &metrics, vec![0, 1, 2, 3], |_, i| task(i))
                    } else {
                        run_stage(mode, &metrics, 4, task)
                    }
                }))
                .expect_err("panic must propagate");
                let cancelled = err
                    .downcast_ref::<crate::faults::JobCancelled>()
                    .expect("typed payload intact");
                assert_eq!(cancelled.at, (7, 2));
            }
        }
    }

    #[test]
    fn fragment_round_trip_verifies_and_detects_rot() {
        let metrics = EngineMetrics::new();
        let cache = Arc::new(FragmentCache::new(1 << 20));
        let key = FragmentKey {
            plan: 1,
            input: 2,
            config: 3,
            faults: 4,
        };
        let handle: FragmentHandle = (Arc::clone(&cache), key);
        let seed = 99;
        let batch = StrU64Batch::from_pairs(vec![("alpha".to_string(), 1), ("beta".to_string(), 2)]);
        let sealed = crate::shuffle::seal(batch, seed, &metrics);
        let parts = vec![vec![sealed]];
        assert!(fragment_lookup::<StrU64Batch>(&handle, &metrics).is_none());
        fragment_store(&handle, &metrics, seed, &parts);
        let got = fragment_lookup::<StrU64Batch>(&handle, &metrics).expect("verified hit");
        assert_eq!(got.len(), 1);
        assert_eq!(metrics.fragment_cache_hits(), 1);
        // Poison the stored digest: the next lookup must invalidate, not
        // alias.
        let mut rotten = parts.clone();
        rotten[0][0].0 ^= 1;
        let (c, k) = &handle;
        c.insert(*k, Arc::new(CachedStage { seed, parts: rotten }), 64);
        assert!(fragment_lookup::<StrU64Batch>(&handle, &metrics).is_none());
        assert_eq!(metrics.fragment_cache_hits(), 1, "no hit on rot");
        assert_eq!(cache.stats().invalidations, 1);
    }
}
