//! Shared stage-execution seam for both engines.
//!
//! Every finite stage or partition task of either engine runs here, as
//! one batch on the process-wide work-stealing [`TaskPool`]: the staged
//! engine's stage waves and the pipelined engine's sink tasks alike. The
//! pool is long-lived, so a stage costs a batch submission rather than a
//! round of thread spawns, and concurrent jobs share a fixed core set
//! instead of oversubscribing the machine. Steal and queue-wait counts
//! feed [`EngineMetrics`].
//!
//! Threads that block on channels never come through here: the pipelined
//! exchange's producers and consumers, the vertex-centric workers and the
//! streaming runtimes keep dedicated threads, because parking a blocking
//! loop in a fixed-size pool is a deadlock.
//!
//! This module also holds the engine side of the cross-job fragment
//! cache: [`CachedStage`] is the stored shape (sealed batches plus the
//! seal seed), and [`fragment_lookup`]/[`fragment_store`] wrap the
//! type-erased `flowmark-sched` cache with the PR 7 checksum
//! re-verification that makes a reuse trustworthy.

use std::sync::{Arc, Mutex};

use flowmark_columnar::checksum::Checksummable;
use flowmark_sched::{FragmentCache, FragmentKey, TaskPool};

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

/// Run `n` independent stage tasks as one pool batch, returning outputs
/// in index order. The first task panic is re-raised here with its
/// payload intact once the whole batch has drained.
pub fn run_stage<T, F>(metrics: &EngineMetrics, n: usize, f: F) -> Vec<T>
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

/// Like [`run_stage`], but each task consumes an owned input item.
pub fn run_stage_items<I, T, F>(metrics: &EngineMetrics, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let inputs: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    run_stage(metrics, inputs.len(), |i| f(i, take_slot(&inputs[i])))
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
    use crate::setup::Setup;
    use flowmark_columnar::StrU64Batch;

    /// The pooled stage agrees with running the same tasks inline, in
    /// index order.
    #[test]
    fn run_stage_modes_agree() {
        let metrics = EngineMetrics::new();
        let inline: Vec<usize> = (0..16).map(|i| i * i).collect();
        let pooled = run_stage(&metrics, 16, |i| i * i);
        assert_eq!(pooled, inline);
        assert_eq!(metrics.queue_wait_tasks(), 16);
    }

    #[test]
    fn run_stage_items_modes_agree() {
        let metrics = EngineMetrics::new();
        let items: Vec<String> = (0..9).map(|i| format!("x{i}")).collect();
        let inline: Vec<String> = items
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{i}:{s}"))
            .collect();
        let pooled = run_stage_items(&metrics, items, |i, s| format!("{i}:{s}"));
        assert_eq!(pooled, inline);
        assert_eq!(metrics.queue_wait_tasks(), 9);
    }

    /// The pipelined engine's one-task-per-partition sink shape, wider than
    /// the pool, with the panic on the last task: the batch still drains
    /// and the typed payload comes back intact.
    #[test]
    fn per_task_mode_preserves_panic_payloads() {
        crate::faults::install_quiet_hook();
        let metrics = EngineMetrics::new();
        let n = 4 * TaskPool::global().workers();
        let finished = std::sync::atomic::AtomicUsize::new(0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_stage(&metrics, n, |i| {
                if i == n - 1 {
                    std::panic::panic_any(crate::faults::JobCancelled { at: (7, i) });
                }
                finished.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                i
            })
        }))
        .expect_err("panic must propagate");
        let cancelled = err
            .downcast_ref::<crate::faults::JobCancelled>()
            .expect("typed payload intact");
        assert_eq!(cancelled.at, (7, n - 1));
        assert_eq!(finished.into_inner(), n - 1, "batch drains before re-raise");
    }

    /// Both stage shapes re-raise a task's typed payload intact, so a
    /// `JobCancelled` reaches the serve layer typed.
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
        for items in [false, true] {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if items {
                    run_stage_items(&metrics, vec![0, 1, 2, 3], |_, i| task(i))
                } else {
                    run_stage(&metrics, 4, task)
                }
            }))
            .expect_err("panic must propagate");
            let cancelled = err
                .downcast_ref::<crate::faults::JobCancelled>()
                .expect("typed payload intact");
            assert_eq!(cancelled.at, (7, 2));
        }
    }

    /// A stage four times wider than the pool, on both engines, clean and
    /// under chaos. The pipelined sink tasks block on the exchange one of
    /// them runs, so every pool worker can be parked behind it; the
    /// exchange's dedicated threads and the helping submitter must still
    /// finish the job, whatever the core count.
    #[test]
    fn a_saturated_pool_cannot_starve_a_job() {
        use crate::faults::{FaultConfig, FaultPlan};
        use flowmark_core::config::EngineConfig;
        use std::collections::BTreeMap;

        crate::faults::install_quiet_hook();
        let parts = 4 * TaskPool::global().workers();
        let config = EngineConfig::with_parallelism(parts);
        let pairs: Vec<(u32, u64)> = (0..20_000).map(|i| (i % 97, u64::from(i % 5))).collect();
        let mut oracle: BTreeMap<u32, u64> = BTreeMap::new();
        for &(k, v) in &pairs {
            *oracle.entry(k).or_default() += v;
        }
        let expect: Vec<(u32, u64)> = oracle.into_iter().collect();
        for chaos in [false, true] {
            let plan = || {
                if chaos {
                    FaultPlan::new(FaultConfig::chaos(5))
                } else {
                    FaultPlan::disabled()
                }
            };
            let sc = Setup { faults: plan(), ..Setup::from(config) }.spark();
            let mut staged = sc
                .parallelize(pairs.clone(), parts)
                .reduce_by_key(|a, b| *a += b)
                .collect();
            staged.sort_unstable();
            assert_eq!(staged, expect, "staged, chaos={chaos}");

            let env = Setup { faults: plan(), ..Setup::from(config) }.flink();
            let mut pipelined = env
                .from_collection(pairs.clone())
                .group_reduce(|a, b| *a += b)
                .collect();
            pipelined.sort_unstable();
            assert_eq!(pipelined, expect, "pipelined, chaos={chaos}");

            for metrics in [sc.metrics(), env.metrics()] {
                let injected = metrics.recovery().injected_failures;
                assert_eq!(injected >= 1, chaos, "chaos={chaos}: {injected} faults");
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
